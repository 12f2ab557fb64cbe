"""Command line interface.

Exit codes: 0 success, 1 check failure or input error, 2 usage,
3 resource limit (domain cap / recursion depth).  The step budget of
`run` is not an error: the search stops and reports `complete: no`."""

from __future__ import annotations

import argparse
import sys

from .analysis import classify
from .counting import (
    gen_bincount, gen_lincount, gen_nondetcount, gen_polycount,
)
from .interp import Budget, eval_all
from .lang import LangError, spine
from .parser import ParseError, parse_data_term, parse_program, print_term
from .saturate import (
    DomainCapExceeded, SaturationEngine, SaturationPrecondition, print_av,
)
from .turing import TMError, compile_tm, parse_tm

ENTRY = "start"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, without the usage text argparse prints by default
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def _positive(text):
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return int(text)


def _build_parser():
    ap = _Parser(
        prog="consfree",
        description="Tools for cons-free functional programs.")
    sub = ap.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("human", "records"),
                       default="human")

    p = sub.add_parser("check", help="parse, type check and classify")
    p.add_argument("path")
    fmt(p)

    p = sub.add_parser("run", help="enumerate values of start on an input")
    p.add_argument("path")
    p.add_argument("inputs", nargs="*", metavar="input")
    p.add_argument("--budget-depth", type=_positive, default=60)
    p.add_argument("--budget-steps", type=_positive, default=500_000)
    p.add_argument("--trace", action="store_true",
                   help="print every data value observed during evaluation")
    fmt(p)

    p = sub.add_parser("saturate",
                       help="terminating all-results evaluation of start")
    p.add_argument("path")
    p.add_argument("inputs", nargs="*", metavar="input")
    p.add_argument("--domain-cap", type=_positive, default=200_000)
    p.add_argument("--mode", choices=("demand", "eager"), default="demand")
    p.add_argument("--dump-statements", action="store_true")
    fmt(p)

    p = sub.add_parser("compile-tm",
                       help="compile a Turing machine description")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed-erratum", choices=("paper", "corrected"),
                   default="corrected")

    p = sub.add_parser("gen-count", help="emit a counting module")
    p.add_argument("family", choices=("lin", "poly", "bin", "nondet"))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed-erratum", choices=("paper", "corrected"),
                   default="corrected")

    return ap


def _emit(records, fmt, human_lines=None):
    if fmt == "records":
        for k, v in records:
            print("%s: %s" % (k, v))
    else:
        for line in (human_lines if human_lines is not None
                     else ["%s: %s" % (k, v) for k, v in records]):
            print(line)


def _load(path):
    with open(path) as fh:
        return parse_program(fh.read())


def _parse_inputs(p, texts):
    if ENTRY not in p.table.defined:
        raise LangError("program does not declare %r" % ENTRY)
    arg_types, _ = spine(p.table.defined[ENTRY])
    if len(texts) != len(arg_types):
        raise LangError("%r expects %d inputs, got %d"
                        % (ENTRY, len(arg_types), len(texts)))
    out = []
    for text, typ in zip(texts, arg_types):
        if text and all(c in "01" for c in text):
            text = '"%s"' % text
        out.append(parse_data_term(text, typ, p.table))
    return out


def cmd_check(args):
    p = _load(args.path)
    rep = classify(p)
    recs = sorted(rep.to_records().items())
    _emit(recs, args.format)
    return 0 if rep.cons_free else 1


def cmd_run(args):
    p = _load(args.path)
    inputs = _parse_inputs(p, args.inputs)
    from .lang import Fun, apply_term
    typ = p.table.defined[ENTRY]
    term = Fun(ENTRY, (), typ)
    term = apply_term(term, tuple(inputs))
    trace = (lambda v: print("trace: %s" % print_term(v))) if args.trace else None
    res = eval_all(p, term,
                   Budget(max_depth=args.budget_depth,
                          max_steps=args.budget_steps),
                   trace=trace)
    recs = [("result", print_term(v))
            for v in sorted(res.results, key=print_term)]
    recs += [("complete", "yes" if res.complete else "no"),
             ("steps", str(res.steps_used))]
    _emit(recs, args.format)
    return 0


def cmd_saturate(args):
    p = _load(args.path)
    inputs = _parse_inputs(p, args.inputs)
    engine = SaturationEngine(p, inputs, mode=args.mode,
                              domain_cap=args.domain_cap)
    results = engine.call_data(ENTRY, inputs)
    recs = [("result", print_term(v))
            for v in sorted(results, key=print_term)]
    recs += sorted(engine.stats.to_records().items())
    _emit(recs, args.format)
    if args.dump_statements:
        for f, avs, o, mark in engine.statements():
            print("statement: %s %s ~ %s [%s]"
                  % (f, " ".join(print_av(a) for a in avs), print_av(o), mark))
    return 0


def cmd_compile_tm(args):
    with open(args.path) as fh:
        tm = parse_tm(fh.read())
    from .turing import counting_module_for_bound
    cm = counting_module_for_bound(tm.bound, args.seed_erratum)
    comp = compile_tm(tm, cm)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(comp.source)
    else:
        sys.stdout.write(comp.source)
    return 0


def cmd_gen_count(args):
    fam, params = args.family, args.params
    try:
        if fam == "lin" and not params:
            cm = gen_lincount(args.seed_erratum)
        elif fam == "poly" and len(params) == 2:
            cm = gen_polycount(*params)
        elif fam == "bin" and len(params) == 3:
            cm = gen_bincount(*params)
        elif fam == "nondet" and len(params) == 1:
            cm = gen_nondetcount(*params)
        else:
            print("bad parameters for family %r" % fam, file=sys.stderr)
            return 2
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(cm.source)
    else:
        sys.stdout.write(cm.source)
    return 0


_COMMANDS = {
    "check": cmd_check,
    "run": cmd_run,
    "saturate": cmd_saturate,
    "compile-tm": cmd_compile_tm,
    "gen-count": cmd_gen_count,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, LangError, TMError, SaturationPrecondition,
            OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (DomainCapExceeded, RecursionError) as e:
        print("resource limit: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
