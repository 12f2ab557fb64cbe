"""The four workloads: their seeded inputs, their ops and their references.

An op is one unit of work a user would wait for.  `run` performs it and
returns ``(value, decided)``; `reference` computes the value the op must
return without the code under test (or, for the Turing machines, with the
direct simulator rather than the compiled program) and is only ever called
outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("tm-saturate", "tm-enumerate", "count-chain", "cli-long")


@dataclass
class Op:
    label: str
    run: Callable[[], tuple]
    reference: Callable[[], object]


def _mod(name):
    # the package re-exports a function named `saturate`, which shadows the
    # submodule as a package attribute, so modules are looked up by name
    return importlib.import_module("consfree." + name)


# ---------------------------------------------------------------------------
# Seeded bit strings

def _tm_steps(machine, bits):
    """Running time of the machine on `bits`, written out by hand: parity
    reads the whole input and the blank after it; contains_11 halts on the
    second 1 of the first "11"."""
    if machine == "contains_11":
        i = bits.find("11")
        if i >= 0:
            return i + 2
    return len(bits) + 1


def _draw_strata(rnd, machine, lengths):
    """One uniformly drawn bit string for every (length, running time) the
    machine can show.  The cost of an op follows the machine's running
    time, so stratifying on it keeps the work per pass the same for every
    seed while the seed still picks the strings."""
    out = []
    for n in lengths:
        strata = {}
        for t in itertools.product("01", repeat=n):
            bits = "".join(t)
            strata.setdefault(_tm_steps(machine, bits), []).append(bits)
        for steps in sorted(strata):
            out.append(rnd.choice(strata[steps]))
    return out


def _random_bits(rnd, n):
    return "".join(rnd.choice("01") for _ in range(n))


# ---------------------------------------------------------------------------
# tm-saturate and tm-enumerate

MACHINES = (("parity", "tm_parity"), ("contains_11", "tm_contains_11"))


def _tm_ops(seed, lengths, make_op):
    turing, counting = _mod("turing"), _mod("counting")
    rnd = random.Random(seed)
    ops = []
    for machine, ctor in MACHINES:
        tm = getattr(turing, ctor)()
        comp = turing.compile_tm(tm)
        program = comp.program
        for bits in _draw_strata(rnd, machine, lengths):
            ref = (lambda tm=tm, bits=bits:
                   frozenset([str(turing.simulate_tm(tm, bits)[0]).lower()]))
            ops.append(Op("%s %s" % (machine, bits),
                          make_op(program, comp.entry, counting.bits_term(bits)),
                          ref))
    return ops


def tm_saturate(seed, smoke):
    saturate = _mod("saturate")

    def make_op(program, entry, cs):
        def run():
            engine = saturate.SaturationEngine(program, [cs])
            vals = engine.call(entry, (saturate.abstract(cs),))
            return frozenset(saturate.concrete(v).name for v in vals), True
        return run

    return _tm_ops(seed, (3,) if smoke else (3, 4, 5, 6), make_op)


# eval_all deepens until the enumeration is complete, so a large depth cap
# costs nothing and every op ends decided
ENUM_BUDGET = dict(max_depth=1 << 20, max_steps=10 ** 8)


def tm_enumerate(seed, smoke):
    interp, counting = _mod("interp"), _mod("counting")

    def make_op(program, entry, cs):
        def run():
            res = interp.eval_all(program,
                                  counting.mk_call(program, entry, [cs]),
                                  interp.Budget(**ENUM_BUDGET))
            return frozenset(v.name for v in res.results), res.complete
        return run

    return _tm_ops(seed, (1, 2) if smoke else (1, 2, 3, 4, 5), make_op)


# ---------------------------------------------------------------------------
# count-chain

def _bin_range(k, a, b, n):
    m = a * n ** b
    for _ in range(k):
        m = 2 ** m
    return m - 1


def _nondet_range(k, n):
    for _ in range(k):
        n = 2 ** n - 1
    return n


def count_chain(seed, smoke):
    """`nondet 3` at n=2 takes about 100 s a walk and is left out.  The
    seed picks nothing here: it only sets the hash seeds."""
    counting = _mod("counting")
    chains = [("bin 2 1 1", counting.gen_bincount(2, 1, 1), 1 if smoke else 2,
               lambda n: _bin_range(2, 1, 1, n)),
              ("nondet 2", counting.gen_nondetcount(2), 1 if smoke else 3,
               lambda n: _nondet_range(2, n))]
    ops = []
    for label, cm, n, size in chains:
        cm.program  # parse during set-up, not in the first walk
        ops.append(Op("%s n=%d" % (label, n),
                      lambda cm=cm, n=n: (counting.chain_length_saturate(cm, n), True),
                      lambda size=size, n=n: size(n)))
    return ops


# ---------------------------------------------------------------------------
# cli-long

PRELUDE = """\
sort bool
sort list
con true : bool
con false : bool
con nil : list
con cons : bool => list => list
"""

# corpus programs with a one-line Python reference each
CLI_PROGRAMS = {
    "parity": ("""\
fun start : list => bool
fun xorb : bool => bool => bool
rules:
start [] -> false
start (x::xs) -> xorb x (start xs)
xorb true true -> false
xorb true false -> true
xorb false b -> b
""", lambda bits: bits.count("1") % 2 == 1),
    "any_true": ("""\
fun start : list => bool
fun orb : bool => bool => bool
rules:
start [] -> false
start (x::xs) -> orb x (start xs)
orb true b -> true
orb false b -> b
""", lambda bits: "1" in bits),
    "all_true": ("""\
fun start : list => bool
fun andb : bool => bool => bool
rules:
start [] -> true
start (x::xs) -> andb x (start xs)
andb true b -> b
andb false b -> false
""", lambda bits: "0" not in bits),
    "last": ("""\
fun start : list => bool
fun last : list => bool
rules:
start [] -> false
start (x::xs) -> last (x::xs)
last (x::[]) -> x
last (x::y::ys) -> last (y::ys)
""", lambda bits: bits[-1:] == "1"),
    "head_or_false": ("""\
fun start : list => bool
rules:
start [] -> false
start (x::xs) -> x
""", lambda bits: bits[:1] == "1"),
}

# Inputs of 8000 bits make parse_data_term raise RecursionError today, so
# the length stays at a few hundred bits, where one op takes about a second.
CLI_BITS = 256
CLI_BUDGET_DEPTH = 1 << 16


def cli_long(seed, smoke, workdir):
    cli = _mod("cli")
    progdir = os.path.join(workdir, "programs")
    os.makedirs(progdir, exist_ok=True)
    rnd = random.Random(seed)
    n = 8 if smoke else CLI_BITS
    ops = []
    for name, (body, expect) in CLI_PROGRAMS.items():
        path = _write_once(os.path.join(progdir, name + ".cf"), PRELUDE + body)
        bits = _random_bits(rnd, n)
        ref = (lambda expect=expect, bits=bits:
               (0, frozenset(["true" if expect(bits) else "false"])))
        for argv in (["saturate"],
                     ["run", "--budget-depth", str(CLI_BUDGET_DEPTH)]):
            argv = argv + ["--format", "records", path, bits]
            ops.append(Op("%s %s" % (argv[0], name),
                          lambda argv=argv: _cli_op(cli, argv), ref))
    return ops


def _write_once(path, text):
    # rewriting an existing file can take tens of milliseconds on overlay
    # file systems, which would show up as set-up noise
    try:
        with open(path) as fh:
            if fh.read() == text:
                return path
    except OSError:
        pass
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
    recs = [line.partition(": ") for line in out.getvalue().splitlines()]
    results = frozenset(v for k, _, v in recs if k == "result")
    decided = rc == 0 and (argv[0] != "run" or ("complete", ": ", "yes") in recs)
    return (rc, results), decided


def setup(workload, seed, smoke, workdir):
    """The op list of a workload for a seed; `smoke` gives a tiny one."""
    if workload == "cli-long":
        return cli_long(seed, smoke, workdir)
    return {"tm-saturate": tm_saturate, "tm-enumerate": tm_enumerate,
            "count-chain": count_chain}[workload](seed, smoke)
