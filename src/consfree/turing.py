"""Turing machines: a direct simulator and a compiler into cons-free
programs.

The compiled program reconstructs the machine's configuration at any
counter-represented time by recursion on time: the state at t comes from
the transition taken at t-1, the tape cell at (t, q) is either the
initial tape, the symbol written at t-1 (if the head was at q), or the
cell at (t-1, q).  Final states absorb, moving left, so the run can be
probed at the counter's maximum value.  The entry point `start cs`
returns true iff the machine accepts within the counting module's range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .counting import (
    PRELUDE, CountingModule, gen_bincount, gen_lincount, gen_polycount,
)
from .lang import Program
from .parser import parse_program

SYMBOLS = ("0", "1", "_")
DIRECTIONS = ("L", "R")


class TMError(Exception):
    pass


class TMStepBound(Exception):
    pass


@dataclass
class TuringMachine:
    """Single-tape machine over {0, 1, _}; the tape is one-way infinite,
    cell 0 is blank, the input occupies cells 1..n and the head starts on
    cell 1.  Moving left at cell 0 stays put."""
    states: list
    start: str
    accept: str
    reject: str
    transitions: dict  # (state, symbol) -> (state, symbol, direction)
    bound: str = "lin"

    def __post_init__(self):
        names = set(self.states)
        for q in (self.start, self.accept, self.reject):
            if q not in names:
                raise TMError("state %r is not declared" % q)
        for (q, r), (q2, w, d) in self.transitions.items():
            if q in (self.accept, self.reject):
                raise TMError("transition out of final state %r" % q)
            if q not in names or q2 not in names:
                raise TMError("transition uses undeclared state")
            if r not in SYMBOLS or w not in SYMBOLS:
                raise TMError("bad tape symbol in transition")
            if d not in DIRECTIONS:
                raise TMError("bad direction %r" % d)


def simulate_tm(tm: TuringMachine, input_bits: str, max_steps: int = 10 ** 6):
    """Run the machine; returns (accepted, steps taken)."""
    if any(c not in "01" for c in input_bits):
        raise TMError("input must be a bit string")
    tape = {i + 1: c for i, c in enumerate(input_bits)}
    pos, q, steps = 1, tm.start, 0
    while q not in (tm.accept, tm.reject):
        sym = tape.get(pos, "_")
        if (q, sym) not in tm.transitions:
            raise TMError("no transition for (%s, %s)" % (q, sym))
        q, w, d = tm.transitions[(q, sym)]
        tape[pos] = w
        pos = pos + 1 if d == "R" else max(0, pos - 1)
        steps += 1
        if steps > max_steps:
            raise TMStepBound("no halt within %d steps" % max_steps)
    return q == tm.accept, steps


# ---------------------------------------------------------------------------
# Description files

def parse_tm(text: str) -> TuringMachine:
    """Format:
        states: even odd accept reject
        start: even
        accept: accept
        reject: reject
        bound: lin            (or: poly A B / bin K A B)
        transitions:
        even 0 -> even 0 R
        ...
    Blank lines and '--' comments are ignored."""
    header = {}
    transitions = {}
    in_trans = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        if not in_trans and ":" in line:
            key, _, val = line.partition(":")
            key = key.strip()
            if key == "transitions":
                in_trans = True
                continue
            header[key] = val.strip()
            continue
        if not in_trans:
            raise TMError("line %d: expected 'key: value'" % lineno)
        m = re.fullmatch(r"(\S+)\s+(\S)\s*->\s*(\S+)\s+(\S)\s+(\S)", line)
        if not m:
            raise TMError("line %d: bad transition %r" % (lineno, line))
        q, r, q2, w, d = m.groups()
        if (q, r) in transitions:
            raise TMError("line %d: duplicate transition for (%s, %s)"
                          % (lineno, q, r))
        transitions[(q, r)] = (q2, w, d)
    for key in ("states", "start", "accept", "reject"):
        if key not in header:
            raise TMError("missing %r section" % key)
    return TuringMachine(
        states=header["states"].split(),
        start=header["start"], accept=header["accept"],
        reject=header["reject"], transitions=transitions,
        bound=header.get("bound", "lin"))


def counting_module_for_bound(bound: str, seed_erratum: str = "corrected") -> CountingModule:
    parts = bound.split()
    try:
        if parts == ["lin"]:
            return gen_lincount(seed_erratum)
        if len(parts) == 3 and parts[0] == "poly":
            return gen_polycount(int(parts[1]), int(parts[2]))
        if len(parts) == 4 and parts[0] == "bin":
            return gen_bincount(int(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as e:  # a parameter that is not a number, or too small
        raise TMError("bad bound %r: %s" % (bound, e)) from None
    raise TMError("bad bound %r (want: lin | poly A B | bin K A B)" % bound)


# ---------------------------------------------------------------------------
# Compilation

def _st(name: str) -> str:
    return "st_" + re.sub(r"\W", "_", name)


_SYM = {"0": "sy0", "1": "sy1", "_": "syb"}


@dataclass
class CompiledTM:
    source: str
    entry: str
    module: CountingModule
    machine: TuringMachine

    @cached_property
    def program(self) -> Program:
        return parse_program(self.source)


def compile_tm(tm: TuringMachine, cm: CountingModule = None) -> CompiledTM:
    """Compile to a cons-free program with entry point `start : list => bool`.
    Sound when the machine halts within the module's range P(n) on every
    length-n input (and, since the head moves one cell per step, never
    walks past cell P(n))."""
    cm = cm or counting_module_for_bound(tm.bound)
    rho = "(%s)" % cm.rep_type
    seedc, predc, zeroc = cm.seed, cm.pred, cm.zero
    res = "st * (sym * dir)"
    decls = ["sort st", "sort sym", "sort dir"]
    decls += ["con %s : st" % _st(q) for q in tm.states]
    decls += [
        "con sy0 : sym", "con sy1 : sym", "con syb : sym",
        "con dl : dir", "con dr : dir",
        "fun trans : st => sym => %s" % res,
        "fun projq : (%s) => st" % res,
        "fun projw : (%s) => sym" % res,
        "fun projd : (%s) => dir" % res,
        "fun transat : list => %s => %s" % (rho, res),
        "fun state : list => %s => st" % rho,
        "fun sth : list => %s => bool => st" % rho,
        "fun pos : list => %s => %s" % (rho, rho),
        "fun poh : list => %s => bool => %s" % (rho, rho),
        "fun pstep : list => %s => dir => %s" % (rho, rho),
        "fun pleft : list => %s => bool => %s" % (rho, rho),
        "fun tape : list => %s => %s => sym" % (rho, rho),
        "fun tph : list => %s => %s => bool => sym" % (rho, rho),
        "fun tpe : list => %s => %s => bool => sym" % (rho, rho),
        "fun inittape : list => %s => sym" % rho,
        "fun ith : list => %s => bool => sym" % rho,
        "fun itw : list => list => %s => sym" % rho,
        "fun itwh : list => bool => list => %s => bool => sym" % rho,
        "fun bsym : bool => sym",
        "fun eqc : list => %s => %s => bool" % (rho, rho),
        "fun eqch : list => %s => %s => bool => bool => bool" % (rho, rho),
        "fun zrepc : list => %s" % rho,
        "fun zdown : list => %s => %s" % (rho, rho),
        "fun zdh : list => %s => bool => %s" % (rho, rho),
        "fun succ : list => %s => %s" % (rho, rho),
        "fun sfrom : list => %s => %s => %s" % (rho, rho, rho),
        "fun sfh : list => %s => %s => bool => %s" % (rho, rho, rho),
        "fun start : list => bool",
        "fun isacc : st => bool",
    ]
    rules = []
    for (q, r), (q2, w, d) in sorted(tm.transitions.items()):
        rules.append("trans %s %s -> (%s, (%s, %s))"
                     % (_st(q), _SYM[r], _st(q2), _SYM[w],
                        "dl" if d == "L" else "dr"))
    for q in (tm.accept, tm.reject):
        rules.append("trans %s s -> (%s, (s, dl))" % (_st(q), _st(q)))
    rules += [
        "projq (q, (w, d)) -> q",
        "projw (q, (w, d)) -> w",
        "projd (q, (w, d)) -> d",
        "transat cs t -> trans (state cs t) (tape cs t (pos cs t))",
        "state cs t -> sth cs t (%s cs t)" % zeroc,
        "sth cs t true -> %s" % _st(tm.start),
        "sth cs t false -> projq (transat cs (%s cs t))" % predc,
        "pos cs t -> poh cs t (%s cs t)" % zeroc,
        "poh cs t true -> succ cs (zrepc cs)",
        "poh cs t false -> pstep cs (pos cs (%s cs t)) (projd (transat cs (%s cs t)))"
        % (predc, predc),
        "pstep cs p dr -> succ cs p",
        "pstep cs p dl -> pleft cs p (%s cs p)" % zeroc,
        "pleft cs p true -> p",
        "pleft cs p false -> %s cs p" % predc,
        "tape cs t q -> tph cs t q (%s cs t)" % zeroc,
        "tph cs t q true -> inittape cs q",
        "tph cs t q false -> tpe cs t q (eqc cs q (pos cs (%s cs t)))" % predc,
        "tpe cs t q true -> projw (transat cs (%s cs t))" % predc,
        "tpe cs t q false -> tape cs (%s cs t) q" % predc,
        "inittape cs q -> ith cs q (%s cs q)" % zeroc,
        "ith cs q true -> syb",
        "ith cs q false -> itw cs cs (%s cs q)" % predc,
        "itw cs (x::xs) q -> itwh cs x xs q (%s cs q)" % zeroc,
        "itw cs [] q -> syb",
        "itwh cs x xs q true -> bsym x",
        "itwh cs x xs q false -> itw cs xs (%s cs q)" % predc,
        "bsym true -> sy1",
        "bsym false -> sy0",
        "eqc cs i j -> eqch cs i j (%s cs i) (%s cs j)" % (zeroc, zeroc),
        "eqch cs i j true true -> true",
        "eqch cs i j true false -> false",
        "eqch cs i j false true -> false",
        "eqch cs i j false false -> eqc cs (%s cs i) (%s cs j)" % (predc, predc),
        "zrepc cs -> zdown cs (%s cs)" % seedc,
        "zdown cs i -> zdh cs i (%s cs i)" % zeroc,
        "zdh cs i true -> i",
        "zdh cs i false -> zdown cs (%s cs i)" % predc,
        "succ cs i -> sfrom cs i (%s cs)" % seedc,
        "sfrom cs i j -> sfh cs i j (eqc cs i (%s cs j))" % predc,
        "sfh cs i j true -> j",
        "sfh cs i j false -> sfrom cs i (%s cs j)" % predc,
        "start cs -> isacc (state cs (%s cs))" % seedc,
        "isacc %s -> true" % _st(tm.accept),
    ]
    for q in tm.states:
        if q != tm.accept:
            rules.append("isacc %s -> false" % _st(q))
    source = "\n".join(PRELUDE + cm.decls + decls
                       + ["rules:"] + cm.rules + rules) + "\n"
    return CompiledTM(source, "start", cm, tm)


# Reference machines used throughout the tests and benchmarks.

def tm_parity() -> TuringMachine:
    """Accepts bit strings with an even number of 1s."""
    return TuringMachine(
        states=["even", "odd", "acc", "rej"],
        start="even", accept="acc", reject="rej",
        transitions={
            ("even", "0"): ("even", "0", "R"),
            ("even", "1"): ("odd", "1", "R"),
            ("odd", "0"): ("odd", "0", "R"),
            ("odd", "1"): ("even", "1", "R"),
            ("even", "_"): ("acc", "_", "L"),
            ("odd", "_"): ("rej", "_", "L"),
        })


def tm_contains_11() -> TuringMachine:
    """Accepts bit strings containing two adjacent 1s."""
    return TuringMachine(
        states=["s0", "s1", "acc", "rej"],
        start="s0", accept="acc", reject="rej",
        transitions={
            ("s0", "0"): ("s0", "0", "R"),
            ("s0", "1"): ("s1", "1", "R"),
            ("s1", "0"): ("s0", "0", "R"),
            ("s1", "1"): ("acc", "1", "L"),
            ("s0", "_"): ("rej", "_", "L"),
            ("s1", "_"): ("rej", "_", "L"),
        })
