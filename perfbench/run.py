"""Benchmark of the consfree toolkit: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see BENCHMARK.json for why each was chosen):

* ``tm-saturate``  -- op: a fresh SaturationEngine, ``call("start")`` and
  readout, on the compiled parity and contains_11 machines;
* ``tm-enumerate`` -- op: one ``interp.eval_all`` on the same machines;
* ``count-chain``  -- op: one ``chain_length_saturate`` walk (``bin 2 1 1``
  at n=2, ``nondet 2`` at n=3);
* ``cli-long``     -- op: one in-process ``cli.main`` (``saturate`` or
  ``run``) on a corpus program and a 256-bit input.

This supersedes ``consfree bench`` as the measure of performance.

The load is a closed loop with one client: an op starts when the one
before it ends.  A run is two repetitions, each in a fresh interpreter
whose PYTHONHASHSEED is derived from the seed and the repetition index; a
repetition sets up, then makes passes over the seeded op list until its
share of ``--seconds`` is used (at least one pass).  Every op is checked
against its reference after the pass, outside the timed region.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` each
pass is paired with a traced pass over the same inputs, and the per-layer
metrics come from the traced one.  The last line of standard output is the
result; the line before it is the full run record, which is also written
under ``.bench_build/perfbench/``.  The command exits 1 when any op fails or
disagrees with its reference.

End-to-end metrics (untraced): ``wall_s`` is the median time of one pass
over the op list (ops only); ``op_ms_p50`` the median over passes of the
median op latency; ``setup_s`` the median set-up time (imports, program
generation, compilation, parsing, inputs) over the two repetitions and
nine set-up-only interpreters; ``peak_rss_mb`` the largest peak RSS of a
repetition; ``decided_frac`` the share of ops with an exhaustive answer.
The record adds ``op_ms_tail`` (with its percentile and sample counts),
``fail_frac`` with failures by type, and per-op medians.

Per-layer metrics (traced): self times per layer, summed over the set-up
and one traced pass, whose sum with ``bench.glue_s`` (harness code inside
op and set-up spans) is ``trace.wall_s``; counters are totals over one
pass.  Reference checks are traced too but counted in no end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYER_OF
from worker import MARK
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")

REPS = 2             # repetitions (fresh interpreters, hash seeds) per run
SETUP_PROBES = 9     # extra set-up-only interpreters, for the setup_s median
RUN_LIMIT_S = 170    # a run never takes longer than this


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op failing)."""


def hash_seed(seed, rep):
    """PYTHONHASHSEED for a repetition: 1 .. 2**32 - 1, never 0."""
    h = hashlib.sha256(("%d/%d" % (seed, rep)).encode()).digest()
    return 1 + int.from_bytes(h[:8], "big") % (2 ** 32 - 1)


# ---------------------------------------------------------------------------
# Running one repetition

def run_worker(workload, seed, rep, budget, trace, smoke, deadline,
               setup_only=False):
    hs = hash_seed(seed, rep)
    env = dict(os.environ, PYTHONHASHSEED=str(hs),
               PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(rep), repr(max(budget, 0.0)), "1" if trace else "0",
           "1" if smoke else "0", WORKDIR] + (["setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        died = "exit code %d" % proc.returncode if proc.returncode else None
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        died = "killed after the run's time limit"
    msgs = [json.loads(line[len(MARK):]) for line in out.splitlines()
            if line.startswith(MARK)]
    if not msgs or "setup_s" not in msgs[0]:
        raise BenchError("%s set-up failed (%s)" % (workload, died or "no output"))
    rep_rec = {"rep": rep, "hashseed": hs, "setup_s": msgs[0]["setup_s"],
               "passes": [m for m in msgs if "pass" in m]}
    done = [m["done"] for m in msgs if "done" in m]
    if not setup_only and (died or not done):
        rep_rec["died"] = died or "no summary"
    if done:
        rep_rec.update(done[0])
    return rep_rec


# ---------------------------------------------------------------------------
# Statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(samples):
    """Highest percentile of the grid with at least ten samples beyond it
    (nearest rank), or None when there are fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(n * (1 - p / 100.0))
        if beyond >= 10:
            return {"value": xs[n - beyond - 1], "percentile": p,
                    "samples": n, "beyond": beyond}
    return None


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# One run

def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
        except OSError:  # no git on this machine
            res = None
        if res is not None and res.returncode == 0:
            commit = res.stdout.strip()
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit}


def measure(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (metrics, record).  `metrics` maps every
    computed metric name to its value."""
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    end = t0 + seconds
    os.makedirs(WORKDIR, exist_ok=True)
    reps = []
    setup_samples = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = run_worker(workload, seed, REPS + i, 0, False, smoke,
                               deadline, setup_only=True)
            setup_samples.append(probe["setup_s"])
    for i in range(REPS):
        budget = (end - time.monotonic()) / (REPS - i)
        reps.append(run_worker(workload, seed, i, budget, trace, smoke, deadline))
    setup_samples += [r["setup_s"] for r in reps]

    ops = [op for r in reps for p in r["passes"] for op in p["ops"]]
    failures = {}
    for op in ops:
        if not op["ok"]:
            failures[op["error"][0]] = failures.get(op["error"][0], 0) + 1
    died = [r for r in reps if "died" in r]
    for r in died:
        failures["WorkerDied"] = failures.get("WorkerDied", 0) + 1
    attempted = len(ops) + len(died)
    failed = sum(failures.values())
    checked = sum(1 for op in ops if op.get("checked"))

    untraced = [p for r in reps for p in r["passes"] if not p["traced"]]
    walls = [sum(op["s"] for op in p["ops"]) for p in untraced]
    lat_ms = [op["s"] * 1000.0 for p in untraced for op in p["ops"]]
    # median of the per-pass medians: every pass holds the same op types, so
    # this averages the same one or two ops each time, where the median of
    # the pooled samples would jump with noise across the gap between them
    pass_p50 = [median([op["s"] * 1000.0 for op in p["ops"]]) for p in untraced]
    metrics = {}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "machine": machine_record(),
        "elapsed_s": time.monotonic() - t0,
        "attempted": attempted, "failed": failed, "checks_run": checked,
        "unchecked": len(ops) - checked,
        "fail_frac": ratio(failed, attempted), "failures_by_type": failures,
        "failed_ops": [op for op in ops if not op["ok"]][:10],
        "setup_samples_s": setup_samples,
        "reps": [{k: v for k, v in r.items() if k != "passes"}
                 for r in reps],
    }
    for r, rec in zip(reps, record["reps"]):
        rec["passes"] = len(r["passes"])
    if not trace:
        metrics.update({
            "wall_s": median(walls),
            "op_ms_p50": median(pass_p50),
            "setup_s": median(setup_samples),
            "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in reps),
            "decided_frac": ratio(sum(1 for op in ops if op["decided"]),
                                  attempted),
        })
        record["op_ms_tail"] = tail(lat_ms)
        by_label = {}
        for p in untraced:
            for op in p["ops"]:
                by_label.setdefault(op["label"], []).append(op["s"] * 1000.0)
        record["op_ms_p50_by_op"] = {k: median(v) for k, v in by_label.items()}
        record["samples"] = {"wall_s": len(walls), "op_ms_p50": len(pass_p50),
                             "ops": len(lat_ms), "setup_s": len(setup_samples)}
    else:
        metrics.update(layer_metrics(reps, record))
    record["metrics"] = metrics
    return metrics, record


def layer_metrics(reps, record):
    """Per-layer metrics of a traced run: per repetition, the set-up spans
    plus the mean over its traced passes; then the mean over repetitions."""
    per_rep = []
    accounting = []
    overheads = []
    for r in reps:
        pairs = r.get("pairs") or []
        if not pairs:
            continue
        m = dict(r["setup_layers"])
        for p in pairs:
            for k, v in p["layers"].items():
                m[k] = m.get(k, 0.0) + v / len(pairs)
            accounting.append(abs(sum(p["layers"].values()) - p["traced_wall_s"]))
            overheads.append(ratio(p["traced_wall_s"], p["untraced_wall_s"]) - 1)
        m["trace.wall_s"] = (sum(r["setup_layers"].values())
                             + mean([p["traced_wall_s"] for p in pairs]))
        m["turing.simulate_s"] = mean([p["simulate_s"] for p in pairs])
        first = pairs[0]
        sat = first["saturate"]
        for k in ("base_size", "keys", "confirmed", "evaluations", "passes"):
            m["saturate." + k] = sat[k]
        m["saturate.queries"] = first["queries"]
        m["interp.steps"] = first["interp_steps"]
        m["interp.complete_frac"] = ratio(first["interp_complete"],
                                          first["interp_calls"])
        m["counting.chain_steps"] = sum(first["chain_steps"])
        m["cli.exit_nonzero"] = first["cli_calls"] - first["cli_exit_zero"]
        per_rep.append(m)
    names = sorted({k for m in per_rep for k in m} | set(LAYER_OF.values()))
    out = {k: mean([m.get(k, 0.0) for m in per_rep]) for k in names}
    out["saturate.confirmed_per_eval"] = ratio(out["saturate.confirmed"],
                                               out["saturate.evaluations"])
    out["saturate.evals_per_s"] = ratio(out["saturate.evaluations"],
                                        out.get("saturate.fixpoint_s", 0.0))
    out["interp.steps_per_s"] = ratio(out["interp.steps"],
                                      out.get("interp.eval_s", 0.0))
    evals = [m["saturate.evaluations"] for m in per_rep]
    out["saturate.evaluations_hashseed_spread"] = (
        ratio(max(evals) - min(evals), median(evals)) if evals else 0.0)
    out["trace_overhead_frac"] = median(overheads)
    record["counters_by_hashseed"] = [
        dict({"hashseed": r["hashseed"]},
             **{k: m[k] for k in m if k.startswith("saturate.")
                and not k.endswith("_s")})
        for r, m in zip([r for r in reps if r.get("pairs")], per_rep)]
    record["trace_accounting_max_error_s"] = max(accounting, default=0.0)
    record["missing_targets"] = sorted({t for r in reps
                                        for t in r.get("missing_targets", [])})
    record["chain_steps_per_walk"] = [r["pairs"][0]["chain_steps"]
                                      for r in reps if r.get("pairs")]
    return out


# ---------------------------------------------------------------------------
# Output

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(spec, metrics, trace, record):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not computed: %s" % ", ".join(missing))
    correct = (record["failed"] == 0 and record["unchecked"] == 0
               and record.get("trace_accounting_max_error_s", 0.0) < 1e-6)
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def run_once(spec, workload, seed, seconds, trace, smoke=False):
    metrics, record = measure(workload, seed, seconds, trace, smoke)
    line = result_line(spec, metrics, trace, record)
    path = os.path.join(WORKDIR, "record-%s-seed%d-trace%d%s.json" % (
        workload, seed, int(trace), "-smoke" if smoke else ""))
    with open(path, "w") as fh:
        json.dump({"record": record, "result": line}, fh, indent=1)
    return line, record


def smoke(spec):
    """One tiny instance of each workload, untraced and traced: every
    metric must be emitted with its unit and every op checked and right."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            line, record = run_once(spec, workload, 1, 0.5, trace, smoke=True)
            tag = "%s trace=%d" % (workload, trace)
            if not line["correct"]:
                problems.append("%s: incorrect (%s)" % (tag, record["failures_by_type"]))
            if not record["checks_run"]:
                problems.append("%s: no op was checked" % tag)
            if record.get("missing_targets"):
                problems.append("%s: tracer found no %s" % (
                    tag, ", ".join(record["missing_targets"])))
            for name, m in line["metrics"].items():
                if not math.isfinite(m["value"]):
                    problems.append("%s: %s is %r" % (tag, name, m["value"]))
            print("smoke %-24s ops=%d checked=%d correct=%s" % (
                tag, record["attempted"], record["checks_run"], line["correct"]))
    for p in problems:
        print("smoke problem: " + p, file=sys.stderr)
    return not problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instance of every workload, checks the output")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "consfree")):
        print("perfbench: no src/consfree under %s" % ROOT, file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        spec = load_spec()
        if args.smoke:
            return 0 if smoke(spec) else 1
        line, record = run_once(spec, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
