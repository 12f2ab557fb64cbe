"""One repetition of a workload in a fresh interpreter.

Started by run.py with PYTHONHASHSEED set.  Reports on stdout, one JSON
object per line after the marker, so that ops finished before a crash are
not lost:

    {"setup_s": ...}                     once set-up is done
    {"pass": k, "traced": b, "ops": [...]}   after each pass
    {"done": {...}}                      rep summary (rss, trace data)

Usage: python3 perfbench/worker.py WORKLOAD SEED REP BUDGET_S TRACE SMOKE
       WORKDIR [setup-only]
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

MARK = "@@perfbench "


def emit(obj):
    sys.stdout.write(MARK + json.dumps(obj) + "\n")
    sys.stdout.flush()


def attempt(op):
    """Run one op, timing only the op itself; every exception is a failed
    op of its type and the workload goes on."""
    t0 = time.perf_counter()
    try:
        value, decided = op.run()
        error = None
    except Exception as e:
        value, decided = None, False
        where = traceback.extract_tb(e.__traceback__)[-1]
        error = (type(e).__name__, "%s (%s:%d in %s)" % (
            e, os.path.basename(where.filename), where.lineno, where.name))
    return time.perf_counter() - t0, value, decided, error


def run_pass(ops, tracer, k):
    records, outputs = [], []
    for i, op in enumerate(ops):
        if tracer is None:
            dt, value, decided, error = attempt(op)
        else:
            with tracer.span("bench.op", op=(k, i)):
                dt, value, decided, error = attempt(op)
        records.append({"label": op.label, "s": dt, "decided": decided,
                        "error": error})
        outputs.append(value)
    # reference checks, outside the timed region
    if tracer is None:
        refs = [op.reference() for op in ops]
    else:
        with tracer.span("bench.check", op=("check", k)):
            refs = [op.reference() for op in ops]
    for rec, value, ref in zip(records, outputs, refs):
        rec["checked"] = True
        rec["ok"] = rec["error"] is None and value == ref
        if rec["error"] is None and not rec["ok"]:
            rec["error"] = ("WrongAnswer", "got %r, expected %r" % (value, ref))
    return records


def engine_counters(engines):
    keys = ("base_size", "keys", "confirmed", "evaluations", "passes")
    return {k: sum(getattr(e.stats, k) for e in engines) for k in keys}


def main(argv):
    workload, seed, rep_index, budget, trace, smoke, workdir = argv[:7]
    seed, rep_index, budget = int(seed), int(rep_index), float(budget)
    trace, smoke = trace == "1", smoke == "1"
    setup_only = len(argv) > 7

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.span("bench.setup", op="setup"):
            ops = workloads.setup(workload, seed, smoke, workdir)
        tracer.uninstall()
    else:
        ops = workloads.setup(workload, seed, smoke, workdir)
    emit({"setup_s": time.perf_counter() - T_START, "ops": len(ops)})
    if setup_only:
        return

    t0 = time.perf_counter()
    durations, pairs = [], []
    k = 0
    while True:
        if not trace:
            recs = run_pass(ops, None, k)
            emit({"pass": k, "traced": False, "ops": recs})
            durations.append(sum(r["s"] for r in recs))
            k += 1
        else:
            # an untraced and a traced pass over the same inputs, in an
            # order that alternates between pairs and between reps
            order = (False, True) if (rep_index + len(pairs)) % 2 == 0 else (True, False)
            walls = {}
            for traced in order:
                if traced:
                    tracer.reset_counts()
                    tracer.install()
                recs = run_pass(ops, tracer if traced else None, k)
                if traced:
                    tracer.uninstall()
                    summary = _traced_summary(tracer, k)
                    walls[True] = summary["traced_wall_s"]
                else:
                    walls[False] = sum(r["s"] for r in recs)
                emit({"pass": k, "traced": traced, "ops": recs})
                k += 1
            summary["untraced_wall_s"] = walls[False]
            pairs.append(summary)
            durations.append(walls[False] + walls[True])
        if time.perf_counter() - t0 + statistics.median(durations) > budget:
            break

    done = {"peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        done["pairs"] = pairs
        done["setup_layers"] = tracer.layer_self_times(lambda op: op == "setup")
        done["missing_targets"] = tracer.missing
        path = os.path.join(workdir, "spans-%s-seed%d-rep%d.json"
                            % (workload, seed, rep_index))
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)
        done["spans_file"] = path
    emit({"done": done})


def _traced_summary(tracer, k):
    def in_pass(op):
        return isinstance(op, tuple) and op[0] == k

    return {
        # root op spans: their self times plus those of their descendants
        # add up to exactly this
        "traced_wall_s": sum(t1 - t0 for name, t0, t1, _, op, _ in tracer.spans
                             if name == "bench.op" and in_pass(op)),
        "layers": tracer.layer_self_times(in_pass),
        "simulate_s": tracer.layer_self_times(lambda op: op == ("check", k)).get(
            "turing.simulate_s", 0.0),
        "saturate": engine_counters(tracer.engines),
        "queries": sum(1 for s in tracer.spans if in_pass(s[4]) and s[0] in (
            "SaturationEngine.call", "SaturationEngine.eval_call")),
        "interp_calls": len(tracer.evals),
        "interp_steps": sum(s for s, _ in tracer.evals),
        "interp_complete": sum(1 for _, c in tracer.evals if c),
        "chain_steps": list(tracer.walks),
        "cli_calls": sum(1 for s in tracer.spans
                         if in_pass(s[4]) and s[0] == "cli.main"),
        "cli_exit_zero": sum(1 for c in tracer.exit_codes if c == 0),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
