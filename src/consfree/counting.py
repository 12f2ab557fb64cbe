"""Generators for counting modules: rule families providing seed / pred /
zero over a number representation whose range depends on the input length.

Families:
  lincount     -- pairs of list suffixes, range (n+1)^2 - 1
  polycount    -- tagged digit tuples, range a*(n+1)^b - 1
  bincount     -- bit vectors as boolean-valued closures, range
                  exp2^k(a*n^b) - 1, deterministic, unary variables
  nondetcount  -- non-deterministic index functions, range P_k(n) with
                  P_0(n) = n and P_{k+1}(n) = 2^P_k(n) - 1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .lang import Arrow, Con, Fun, Product, Program, Sort, Term, Type
from .parser import parse_program
from .saturate import SaturationEngine
from .values import AV, Base, abstract, av_key, geq
from .interp import Budget, eval_all

BOOL = Sort("bool")
LIST = Sort("list")

PRELUDE = [
    "sort bool",
    "sort list",
    "con true : bool",
    "con false : bool",
    "con nil : list",
    "con cons : bool => list => list",
]


def exp2(k: int, m: int) -> int:
    for _ in range(k):
        m = 2 ** m
    return m


@dataclass
class CountingModule:
    decls: list
    rules: list
    rep_type: Type
    level: int
    seed: str
    pred: str
    zero: str
    bound: Callable[[int], int]
    bound_desc: str
    _program: Program = field(default=None, repr=False)

    @property
    def source(self) -> str:
        return "\n".join(PRELUDE + self.decls + ["rules:"] + self.rules) + "\n"

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = parse_program(self.source)
        return self._program


# ---------------------------------------------------------------------------
# Order-0 digit counters

def _digit_counter(a: int, b: int, nonempty: bool, suffix: str = ""):
    """Declarations and rules counting a*(n+1)^b - 1 (standard digits: list
    suffixes including []) or a*n^b - 1 (nonempty suffixes only)."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    tg = "tg" + suffix
    decls = ["sort %s" % tg]
    for i in range(a):
        decls.append("con t%d%s : %s" % (i, suffix, tg))
    rep = "%s * %s" % (tg, " * ".join(["list"] * b))
    seed, pred, zero = ("seed" + suffix, "pred" + suffix, "zero" + suffix)
    decls += [
        "fun %s : list => %s" % (seed, rep),
        "fun %s : list => (%s) => %s" % (pred, rep, rep),
        "fun %s : list => (%s) => bool" % (zero, rep),
    ]

    def tup(parts):
        return "(%s)" % ", ".join(parts)

    def zero_digit(j):
        return "y%d::[]" % j if nonempty else "[]"

    def full_digit(j):
        return "y%d::z%d::zs%d" % (j, j, j) if nonempty else "y%d::ys%d" % (j, j)

    def dec_digit(j):
        return "z%d::zs%d" % (j, j) if nonempty else "ys%d" % j

    rules = []
    top = "t%d%s" % (a - 1, suffix)
    rules.append("%s cs -> %s" % (seed, tup([top] + ["cs"] * b)))
    # decrement the rightmost nonzero digit, resetting lower digits
    for j in range(b, 0, -1):
        lhs = ["t"] + ["l%d" % i for i in range(1, j)] + [full_digit(j)] \
            + [zero_digit(i) for i in range(j + 1, b + 1)]
        rhs = ["t"] + ["l%d" % i for i in range(1, j)] + [dec_digit(j)] \
            + ["cs"] * (b - j)
        rules.append("%s cs %s -> %s" % (pred, tup(lhs), tup(rhs)))
    for i in range(1, a):
        lhs = ["t%d%s" % (i, suffix)] + [zero_digit(j) for j in range(1, b + 1)]
        rhs = ["t%d%s" % (i - 1, suffix)] + ["cs"] * b
        rules.append("%s cs %s -> %s" % (pred, tup(lhs), tup(rhs)))
    rules.append("%s cs %s -> true"
                 % (zero, tup(["t0%s" % suffix]
                              + [zero_digit(j) for j in range(1, b + 1)])))
    for j in range(1, b + 1):
        lhs = ["t"] + [zero_digit(i) for i in range(1, j)] + [full_digit(j)] \
            + ["l%d" % i for i in range(j + 1, b + 1)]
        rules.append("%s cs %s -> false" % (zero, tup(lhs)))
    for i in range(1, a):
        lhs = ["t%d%s" % (i, suffix)] + [zero_digit(j) for j in range(1, b + 1)]
        rules.append("%s cs %s -> false" % (zero, tup(lhs)))

    rep_type = Product(Sort(tg), _list_product(b))
    return decls, rules, rep_type


def _list_product(b):
    t = LIST
    for _ in range(b - 1):
        t = Product(LIST, t)
    return t


# ---------------------------------------------------------------------------
# lincount (the pair-of-suffixes example)

def gen_lincount(seed_erratum: str = "corrected") -> CountingModule:
    """Range (n+1)^2 - 1 via pairs (l1, l2) of suffixes, value
    |l1|*(n+1) + |l2|.  With seed_erratum="paper" the seed rule maps to
    ([],[]), which represents 0 instead of the range top (cs, cs)."""
    if seed_erratum not in ("corrected", "paper"):
        raise ValueError("seed_erratum must be 'corrected' or 'paper'")
    rep = "list * list"
    decls = [
        "fun seed : list => %s" % rep,
        "fun pred : list => (%s) => %s" % (rep, rep),
        "fun zero : list => (%s) => bool" % rep,
    ]
    seed_rhs = "(cs, cs)" if seed_erratum == "corrected" else "([], [])"
    rules = [
        "seed cs -> %s" % seed_rhs,
        "pred cs (xs, y::ys) -> (xs, ys)",
        "pred cs (x::xs, []) -> (xs, cs)",
        "zero cs ([], []) -> true",
        "zero cs (xs, y::ys) -> false",
        "zero cs (x::xs, []) -> false",
    ]
    return CountingModule(
        decls, rules, Product(LIST, LIST), 0, "seed", "pred", "zero",
        lambda n: (n + 1) ** 2 - 1, "(n+1)^2-1")


def gen_polycount(a: int, b: int) -> CountingModule:
    """Range a*(n+1)^b - 1 via a tag constructor and b suffix digits."""
    decls, rules, rep = _digit_counter(a, b, nonempty=False)
    return CountingModule(
        decls, rules, rep, 0, "seed", "pred", "zero",
        lambda n: a * (n + 1) ** b - 1, "%d*(n+1)^%d-1" % (a, b))


# ---------------------------------------------------------------------------
# bincount: deterministic higher-order binary counters

def gen_bincount(k: int, a: int, b: int) -> CountingModule:
    """Range exp2^k(a*n^b) - 1.  Level-0 indices count a*n^b - 1 (nonempty
    suffix digits); a level j+1 number is a closure mapping a level-j index
    to its bit.  Deterministic; all variables unary; data order k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    decls, rules, rep = _digit_counter(a, b, nonempty=True, suffix="0")
    decls = ["sort ord", "con lt : ord", "con eq : ord", "con gt : ord"] + decls
    for l in range(1, k + 1):
        sigma = "(%s)" % rep
        fty = "(%s)" % Arrow(rep, BOOL)
        lo = str(l - 1)
        decls += [
            "fun seed%d : list => %s" % (l, fty),
            "fun ones%d : list => %s => bool" % (l, sigma),
            "fun zero%d : list => (%s) => bool" % (l, fty),
            "fun zchk%d : list => (%s) => %s => bool" % (l, fty, sigma),
            "fun zhelp%d : list => (%s) => %s => bool => bool => bool" % (l, fty, sigma),
            "fun pred%d : list => (%s) => %s" % (l, fty, fty),
            "fun scan%d : list => (%s) => %s => %s => bool => %s" % (l, fty, sigma, sigma, sigma),
            "fun sc%d : list => (%s) => %s => %s => bool => bool => bool => %s" % (l, fty, sigma, sigma, sigma),
            "fun ret%d : list => %s => bool => %s" % (l, sigma, sigma),
            "fun dec%d : list => (%s) => %s => %s => bool" % (l, fty, sigma, sigma),
            "fun dech%d : list => (%s) => %s => %s => ord => bool" % (l, fty, sigma, sigma),
            "fun cmp%d : list => %s => %s => ord" % (l, sigma, sigma),
            "fun cmph%d : list => %s => %s => bool => bool => ord" % (l, sigma, sigma),
        ]
        rules += [
            "seed%d cs -> ones%d cs" % (l, l),
            "ones%d cs i -> true" % l,
            "zero%d cs f -> zchk%d cs f (seed%s cs)" % (l, l, lo),
            "zchk%d cs f i -> zhelp%d cs f i (f i) (zero%s cs i)" % (l, l, lo),
            "zhelp%d cs f i true z -> false" % l,
            "zhelp%d cs f i false true -> true" % l,
            "zhelp%d cs f i false false -> zchk%d cs f (pred%s cs i)" % (l, l, lo),
            "pred%d cs f -> dec%d cs f (scan%d cs f (seed%s cs) (seed%s cs) false)"
            % (l, l, l, lo, lo),
            "scan%d cs f i best fnd -> sc%d cs f i best fnd (f i) (zero%s cs i)"
            % (l, l, lo),
            "sc%d cs f i best fnd true false -> scan%d cs f (pred%s cs i) i true"
            % (l, l, lo),
            "sc%d cs f i best fnd true true -> i" % l,
            "sc%d cs f i best fnd false true -> ret%d cs best fnd" % (l, l),
            "sc%d cs f i best fnd false false -> scan%d cs f (pred%s cs i) best fnd"
            % (l, l, lo),
            "ret%d cs best true -> best" % l,
            "dec%d cs f p i -> dech%d cs f p i (cmp%d cs i p)" % (l, l, l),
            "dech%d cs f p i lt -> true" % l,
            "dech%d cs f p i eq -> false" % l,
            "dech%d cs f p i gt -> f i" % l,
            "cmp%d cs i p -> cmph%d cs i p (zero%s cs i) (zero%s cs p)"
            % (l, l, lo, lo),
            "cmph%d cs i p true true -> eq" % l,
            "cmph%d cs i p true false -> lt" % l,
            "cmph%d cs i p false true -> gt" % l,
            "cmph%d cs i p false false -> cmp%d cs (pred%s cs i) (pred%s cs p)"
            % (l, l, lo, lo),
        ]
        rep = Arrow(rep, BOOL)
    return CountingModule(
        decls, rules, rep, k, "seed%d" % k, "pred%d" % k, "zero%d" % k,
        lambda n: exp2(k, a * n ** b) - 1, "exp2^%d(%d*n^%d)-1" % (k, a, b))


# ---------------------------------------------------------------------------
# nondetcount: non-deterministic counting via index functions

def gen_nondetcount(k: int) -> CountingModule:
    """Range P_k(n): P_0(n) = n (list suffixes), and at level j+1 a number
    is a function mapping true to (a representation of) every set bit
    position and false to every unset one, with representations of 0 as a
    neutral default.  Bit reads loop unless the queried representation is
    genuine, so evaluation needs the saturating evaluator."""
    if k < 0:
        raise ValueError("k must be >= 0")
    decls = [
        "fun seed0 : list => list",
        "fun pred0 : list => list => list",
        "fun zero0 : list => list => bool",
    ]
    rules = [
        "seed0 cs -> cs",
        "pred0 cs (x::xs) -> xs",
        "zero0 cs [] -> true",
        "zero0 cs (x::xs) -> false",
    ]
    rep = LIST
    for l in range(1, k + 1):
        j = l - 1
        sigma = "(%s)" % rep
        rho = "(%s)" % Arrow(BOOL, rep)
        # helpers over level-(l-1) indices
        decls += [
            "fun anyidx%d : list => %s" % (j, sigma),
            "fun anyfrom%d : list => %s => %s" % (j, sigma, sigma),
            "fun posidx%d : list => %s" % (j, sigma),
            "fun posfrom%d : list => %s => %s" % (j, sigma, sigma),
            "fun pf%d : list => %s => bool => %s" % (j, sigma, sigma),
            "fun zrep%d : list => %s" % (j, sigma),
            "fun eqr%d : list => %s => %s => bool" % (j, sigma, sigma),
            "fun eqh%d : list => %s => %s => bool => bool => bool" % (j, sigma, sigma),
            "fun gtr%d : list => %s => %s => bool" % (j, sigma, sigma),
            "fun gth%d : list => %s => %s => bool => bool => bool" % (j, sigma, sigma),
        ]
        if j >= 1:
            decls.append("fun zclos%d : list => %s" % (j, rep))
        rules += [
            "anyidx%d cs -> anyfrom%d cs (seed%d cs)" % (j, j, j),
            "anyfrom%d cs i -> i" % j,
            "anyfrom%d cs i -> anyfrom%d cs (pred%d cs i)" % (j, j, j),
            "posidx%d cs -> posfrom%d cs (seed%d cs)" % (j, j, j),
            "posfrom%d cs i -> pf%d cs i (zero%d cs i)" % (j, j, j),
            "pf%d cs i false -> i" % j,
            "pf%d cs i false -> posfrom%d cs (pred%d cs i)" % (j, j, j),
            "eqr%d cs s t -> eqh%d cs s t (zero%d cs s) (zero%d cs t)" % (j, j, j, j),
            "eqh%d cs s t true true -> true" % j,
            "eqh%d cs s t true false -> false" % j,
            "eqh%d cs s t false true -> false" % j,
            "eqh%d cs s t false false -> eqr%d cs (pred%d cs s) (pred%d cs t)"
            % (j, j, j, j),
            "gtr%d cs s t -> gth%d cs s t (zero%d cs s) (zero%d cs t)" % (j, j, j, j),
            "gth%d cs s t true z -> false" % j,
            "gth%d cs s t false true -> true" % j,
            "gth%d cs s t false false -> gtr%d cs (pred%d cs s) (pred%d cs t)"
            % (j, j, j, j),
        ]
        if j == 0:
            rules.append("zrep0 cs -> []")
        else:
            rules += [
                "zrep%d cs -> zclos%d cs" % (j, j),
                "zclos%d cs true -> zrep%d cs" % (j, j - 1),
                "zclos%d cs false -> anyidx%d cs" % (j, j - 1),
            ]
        decls += [
            "fun seed%d : list => %s" % (l, rho),
            "fun allb%d : list => %s" % (l, rho),
            "fun zero%d : list => (%s) => bool" % (l, rho),
            "fun zscan%d : list => (%s) => %s => bool" % (l, rho, sigma),
            "fun zsh%d : list => (%s) => %s => bool => bool" % (l, rho, sigma),
            "fun zsh2%d : list => (%s) => %s => bool => bool" % (l, rho, sigma),
            "fun bitset%d : list => (%s) => %s => bool" % (l, rho, sigma),
            "fun bshelp%d : list => (%s) => %s => bool => bool => bool" % (l, rho, sigma),
            "fun pred%d : list => (%s) => %s" % (l, rho, rho),
            "fun pchk%d : list => (%s) => %s => %s" % (l, rho, sigma, rho),
            "fun pch%d : list => (%s) => %s => bool => bool => %s" % (l, rho, sigma, rho),
            "fun noneb%d : list => (%s) => %s => bool" % (l, rho, sigma),
            "fun nbh%d : list => (%s) => %s => bool => bool" % (l, rho, sigma),
            "fun nbh2%d : list => (%s) => %s => bool => bool" % (l, rho, sigma),
            "fun dclos%d : list => (%s) => %s => %s" % (l, rho, sigma, rho),
            "fun dtrue%d : list => (%s) => %s => %s" % (l, rho, sigma, sigma),
            "fun dfalse%d : list => (%s) => %s => %s" % (l, rho, sigma, sigma),
            "fun abv%d : list => (%s) => %s => %s" % (l, rho, sigma, sigma),
            "fun abh%d : list => (%s) => %s => %s => %s" % (l, rho, sigma, sigma, sigma),
            "fun abh2%d : list => (%s) => %s => %s => bool => bool => %s"
            % (l, rho, sigma, sigma, sigma),
            "fun abz%d : list => (%s) => %s => %s" % (l, rho, sigma, sigma),
            "fun abzh%d : list => (%s) => %s => %s => %s" % (l, rho, sigma, sigma, sigma),
            "fun abzh2%d : list => (%s) => %s => %s => bool => bool => %s"
            % (l, rho, sigma, sigma, sigma),
        ]
        rules += [
            "seed%d cs -> allb%d cs" % (l, l),
            "allb%d cs true -> anyidx%d cs" % (l, j),
            "allb%d cs false -> zrep%d cs" % (l, j),
            "zero%d cs f -> zscan%d cs f (seed%d cs)" % (l, l, j),
            "zscan%d cs f i -> zsh%d cs f i (zero%d cs i)" % (l, l, j),
            "zsh%d cs f i true -> true" % l,
            "zsh%d cs f i false -> zsh2%d cs f i (bitset%d cs f i)" % (l, l, l),
            "zsh2%d cs f i true -> false" % l,
            "zsh2%d cs f i false -> zscan%d cs f (pred%d cs i)" % (l, l, j),
            "bitset%d cs f i -> bshelp%d cs f i (eqr%d cs (f true) i) (eqr%d cs (f false) i)"
            % (l, l, j, j),
            "bshelp%d cs f i true b -> true" % l,
            "bshelp%d cs f i b true -> false" % l,
            "bshelp%d cs f i false false -> bitset%d cs f i" % (l, l),
            "pred%d cs f -> pchk%d cs f (posidx%d cs)" % (l, l, j),
            "pchk%d cs f p -> pch%d cs f p (bitset%d cs f p) (noneb%d cs f (pred%d cs p))"
            % (l, l, l, l, j),
            "pch%d cs f p true true -> dclos%d cs f p" % (l, l),
            "noneb%d cs f q -> nbh%d cs f q (zero%d cs q)" % (l, l, j),
            "nbh%d cs f q true -> true" % l,
            "nbh%d cs f q false -> nbh2%d cs f q (bitset%d cs f q)" % (l, l, l),
            "nbh2%d cs f q true -> false" % l,
            "nbh2%d cs f q false -> noneb%d cs f (pred%d cs q)" % (l, l, j),
            "dclos%d cs f p true -> dtrue%d cs f p" % (l, l),
            "dclos%d cs f p false -> dfalse%d cs f p" % (l, l),
            "dtrue%d cs f p -> zrep%d cs" % (l, j),
            "dtrue%d cs f p -> posfrom%d cs (pred%d cs p)" % (l, j, j),
            "dtrue%d cs f p -> abv%d cs f p" % (l, l),
            "abv%d cs f p -> abh%d cs f p (posidx%d cs)" % (l, l, j),
            "abh%d cs f p i -> abh2%d cs f p i (gtr%d cs i p) (bitset%d cs f i)"
            % (l, l, j, l),
            "abh2%d cs f p i true true -> i" % l,
            "dfalse%d cs f p -> zrep%d cs" % (l, j),
            "dfalse%d cs f p -> p" % l,
            "dfalse%d cs f p -> abz%d cs f p" % (l, l),
            "abz%d cs f p -> abzh%d cs f p (posidx%d cs)" % (l, l, j),
            "abzh%d cs f p i -> abzh2%d cs f p i (gtr%d cs i p) (bitset%d cs f i)"
            % (l, l, j, l),
            "abzh2%d cs f p i true false -> i" % l,
        ]
        rep = Arrow(BOOL, rep)

    def bound(n, k=k):
        v = n
        for _ in range(k):
            v = 2 ** v - 1
        return v

    return CountingModule(
        decls, rules, rep, k, "seed%d" % k, "pred%d" % k, "zero%d" % k,
        bound, "P_%d(n)" % k)


# ---------------------------------------------------------------------------
# Walking the pred chain (the seed/pred/zero contract probe)

def make_input(n: int) -> Term:
    """Data term true::...::true::[] of length n."""
    return bits_term("1" * n)


def bits_term(bits: str) -> Term:
    """Bit string -> boolean list data term ('1' is true)."""
    t = Con("nil", (), LIST)
    for c in reversed(bits):
        b = "true" if c == "1" else "false"
        t = Con("cons", (Con(b, (), BOOL), t), LIST)
    return t


TRUE = Con("true", (), BOOL)
FALSE = Con("false", (), BOOL)


def mk_call(p: Program, name: str, args) -> Term:
    typ = p.table.defined[name]
    t = typ
    for _ in args:
        t = t.cod
    return Fun(name, tuple(args), t)


class ChainContractViolation(Exception):
    pass


def chain_length_concrete(cm: CountingModule, n: int,
                          budget: Budget = None) -> int:
    """Walk seed, pred, pred, ... with the enumerator, checking the zero
    flag at every step; returns the chain length.  Every call must have
    exactly one value and a complete enumeration, as in the deterministic
    families; otherwise ChainContractViolation is raised."""
    p = cm.program
    budget = budget or Budget(max_steps=5_000_000)
    cs = make_input(n)
    steps = 0

    def value(name, *args):
        res = eval_all(p, mk_call(p, name, [cs, *args]), budget)
        if len(res.results) != 1 or not res.complete:
            raise ChainContractViolation(
                "%s at step %d returned %d values%s"
                % (name, steps, len(res.results),
                   "" if res.complete else " before the budget ran out"))
        return next(iter(res.results))

    v = value(cm.seed)
    while True:
        z = value(cm.zero, v)
        if z == TRUE:
            return steps
        if z != FALSE:
            raise ChainContractViolation("zero returned %r" % (z,))
        v = value(cm.pred, v)
        steps += 1
        if steps > 10_000_000:
            raise ChainContractViolation("chain did not reach zero")


def chain_length_saturate(cm: CountingModule, n: int,
                          domain_cap: int = 500_000,
                          max_len: int = 1 << 20) -> int:
    """Walk the pred chain in the abstract domain via saturation; works for
    the non-deterministic and non-terminating families too."""
    p = cm.program
    cs = make_input(n)
    engine = SaturationEngine(p, [cs], mode="demand", domain_cap=domain_cap)
    acs = abstract(cs)
    v = _pick(engine.eval_call(cm.seed, (acs,)), "seed")
    steps = 0
    while True:
        z = engine.eval_call(cm.zero, (acs, v))
        if z == {Base(TRUE)}:
            return steps
        if z != {Base(FALSE)}:
            raise ChainContractViolation(
                "zero at step %d returned %d values" % (steps, len(z)))
        v = _pick(engine.eval_call(cm.pred, (acs, v)), "pred")
        steps += 1
        if steps > max_len:
            raise ChainContractViolation("chain did not reach zero")


def _pick(values, what) -> AV:
    """A maximal confirmed value; confirmed sets are closed downwards, so
    non-maximal elements are just partial views of a maximal one."""
    if not values:
        raise ChainContractViolation("%s produced no value" % what)
    maximal = [v for v in values
               if not any(w != v and geq(w, v) for w in values)]
    if len(maximal) == 1:  # av_key prints values: call it only to choose
        return maximal[0]
    return max(maximal, key=av_key)
