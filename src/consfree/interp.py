"""Executable call-by-value semantics.

eval_all enumerates the values of a ground term by one depth-first search
bounded by ``max_depth`` rule applications along each derivation.  A term
whose search space was exhausted is tabled with all of its values and is
never searched again, at any depth.  ``max_steps`` caps the total number of
rule applications: once it is reached, every further rule is treated as
out of depth, and the values found so far come back marked incomplete.
Enlarging either bound never removes results.  It is the oracle the
saturation evaluator is validated against.

Each defined symbol's rules are compiled, when the symbol is first called,
into one generated rule applier (`compile_plan`) that matches the patterns
by name tests and builds each reduct in straight-line code.  An argument
that is data or already tabled is answered without a sub-search.  The
search keeps its suspended frames on a stack of its own, and the plan
compiler walks terms from explicit stacks, so neither the depth of a
derivation nor the length of a list meets Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .lang import (
    Con, Fun, LangError, Pair, Program, Term, Var, apply_term, drive,
    is_data_term, is_value, nodes, spine,
)
from .plan import PlanWriter


@dataclass
class Budget:
    max_depth: int = 60
    max_steps: int = 500_000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_steps <= 0:
            raise ValueError("budget must be positive")


@dataclass
class EvalResult:
    results: frozenset
    complete: bool
    steps_used: int


# ---------------------------------------------------------------------------
# Rule plans: one generated rule applier per defined symbol
#
# `compile_plan` writes the source of one generator function `ev(s, c,
# fuel)` for all the rules of a symbol and compiles it (see `consfree.plan`).
# Each rule is a block that a failed pattern test leaves by `break`.  A rule
# that matches asks the budget for one application; if the budget admits it,
# its reduct is built one statement per right-hand-side node and handed to
# the search.  Ground data is a constant, a subterm equal to a pattern node
# is the value that node matched (so a cons-free program builds no
# constructor term), and the other nodes are built from their children.

def compile_plan(p: Program, f: str):
    """The enumerator's plan of f's rules.  `ev(s, c, fuel)` is a generator
    run by the search s on a tuple c of at least arity(f) values: for each
    rule, in program order, whose patterns match, it counts one step if the
    budget admits one (else the result is not exhausted), yields the
    request (reduct, fuel - 1), with c's arguments past the rule's appended
    to the reduct, and is sent back its (values, exhausted).  It returns the
    union of those values and whether every one was exhausted."""
    return _Plan(p).build(f)


class _Plan(PlanWriter):
    """Writes and compiles the enumerator's plan of one symbol's rules."""

    def __init__(self, p: Program):
        super().__init__(p, {"Con": Con, "Fun": Fun, "Pair": Pair,
                             "apply_term": apply_term})

    def build(self, f: str):
        k = self.p.arity[f]
        head = ["def ev(s, c, fuel):", "    found, ex = set(), True"]
        head += ["    a%d = c[%d]" % (i, i) for i in range(k)]
        over = len(spine(self.p.table.defined[f])[0]) > k
        if over:  # a call may carry arguments past the rules' own
            head.append("    extra = c[%d:]" % k)
        body = []
        for rule in self.p.rules_for(f):
            body += self.rule(rule, over)
        # the bare yield is never reached: ev is a generator even if f has
        # no rule
        return self.compile(head + body + ["    return found, ex", "    yield", ""])

    def rule(self, rule, over) -> list:
        """The lines of one rule, inside a `while True` that a failed
        pattern test or a refused step leaves by `break`."""
        patterns = {t for pat in rule.lhs.args for t in nodes(pat)
                    if t.__class__ is not Var}
        self.used = set()  # variables read outside ground data and patterns
        stack = [rule.rhs]
        while stack:
            t = stack.pop()
            if t._data or t in patterns:
                continue
            if t.__class__ is Pair:
                stack += (t.left, t.right)
            else:
                stack += t.args
                if t.__class__ is Var:
                    self.used.add(t.name)
        self.vars, self.nodes, self.match_lines = {}, {}, []
        for i, pat in enumerate(rule.lhs.args):
            self.match(pat, "a%d" % i, False)
        self.lines = []
        r = drive(self._build, rule.rhs)
        if over:  # into a local of its own: r may hold an argument
            o = self.fresh("r")
            self.lines.append("%s = apply_term(%s, extra)" % (o, r))
            r = o
        return ["    while True:"] + ["        " + line for line in (
            self.match_lines
            + ["if fuel <= 0 or s.steps >= s.budget.max_steps:",
               "    ex = False", "    break",
               "s.steps += 1"]
            + self.lines
            + ["vs, e = yield %s, fuel - 1" % r,
               "found |= vs", "ex = ex and e", "break"])]

    def _build(self, t):
        """A local or constant holding the instance of t; a step run by
        `drive`, which yields the children it needs first, since a
        right-hand side is as deep as its longest list."""
        if t._data:
            return self.const(t)
        node = self.nodes.get(t)
        if node is not None:
            return node[0]
        cls = t.__class__
        if cls is Var and not t.args:
            return self.vars[t.name][0]
        xs = []
        for kid in ((t.left, t.right) if cls is Pair else t.args):
            xs.append((yield kid))
        args = "(%s)" % "".join(x + ", " for x in xs)
        if cls is Var:
            built = "apply_term(%s, %s)" % (self.vars[t.name][0], args)
        elif cls is Pair:
            built = "Pair(%s, %s, %s)" % (xs[0], xs[1], self.const(t.type))
        else:
            built = "%s(%s, %s, %s)" % (cls.__name__, self.const(t.name),
                                        args, self.const(t.type))
        r = self.fresh("r")
        self.lines.append("%s = %s" % (r, built))
        return r


class _Search:
    def __init__(self, program, budget, trace):
        self.p = program
        self.budget = budget
        self.trace = trace
        self.steps = 0
        self.done = {}   # term -> frozenset of values (search space exhausted)
        self.memo = {}   # (term, fuel) -> (frozenset, exhausted)
        self._plans = program._plans.setdefault("enumerate", {})  # symbol -> ev

    def note(self, value):
        if self.trace is not None and is_data_term(value):
            self.trace(value)

    def plan(self, f):
        ev = self._plans.get(f)
        if ev is None:
            ev = self._plans[f] = compile_plan(self.p, f)
        return ev

    def go(self, request):
        """(values, exhausted) of a (term, fuel) request, from the tables
        when they hold it.  Run by `drive`: a sub-search suspends the
        search that asked for it on an explicit stack."""
        term, fuel = request
        vs = self.tabled(term)
        if vs is not None:
            return vs, True
        res = self.memo.get(request)
        if res is None:
            # provisional entry breaks self-referential loops soundly: a
            # cyclic re-entry at the same fuel cannot contribute new finite
            # derivations
            self.memo[request] = (frozenset(), False)
            res = self.memo[request] = yield from self._go(term, fuel)
            if res[1]:
                self.done[term] = res[0]
        return res

    def tabled(self, term):
        """term's values if the tables answer them without a search: a
        term in `done`, or data, which is noted and tabled as exhausted;
        else None."""
        vs = self.done.get(term)
        if vs is None and term._data:
            self.note(term)
            vs = self.done[term] = frozenset([term])
        return vs

    def _go(self, term, fuel):
        """Yields (subterm, fuel) for each sub-search and is sent back its
        (values, exhausted); returns (values, exhausted) of term.  A
        subterm the tables answer needs no sub-search."""
        if is_value(self.p, term):
            self.note(term)
            return frozenset([term]), True
        if isinstance(term, Pair):
            lv, lex = self.tabled(term.left), True
            if lv is None:
                lv, lex = yield term.left, fuel
            rv, rex = self.tabled(term.right), True
            if rv is None:
                rv, rex = yield term.right, fuel
            out = frozenset(Pair(l, r, term.type) for l in lv for r in rv)
            for v in out:
                self.note(v)
            return out, lex and rex
        if not isinstance(term, (Con, Fun)):
            raise LangError("cannot evaluate open term %r" % term.name)
        arg_sets, exhausted = [], True
        for a in term.args:
            vs = self.tabled(a)
            if vs is None:
                vs, ex = yield a, fuel
                exhausted = exhausted and ex
            arg_sets.append(vs)
        combos = [()]
        for vs in arg_sets:
            combos = [c + (v,) for c in combos for v in vs]
        out = set()
        if isinstance(term, Con):
            for c in combos:
                v = Con(term.name, c, term.type)
                self.note(v)
                out.add(v)
            return frozenset(out), exhausted
        arity = self.p.arity[term.name]
        ev = self.plan(term.name)
        for c in combos:
            if len(c) < arity:
                v = Fun(term.name, c, term.type)
                self.note(v)
                out.add(v)
                continue
            # apply every matching rule; a call no rule matches is stuck:
            # the relation has no derivation there, and nothing is left out
            found, found_ex = yield from ev(self, c, fuel)
            out |= frozenset(found)
            exhausted = exhausted and found_ex
        return frozenset(out), exhausted


def eval_all(p: Program, term: Term, budget: Budget = None,
             trace: Callable[[Term], None] = None) -> EvalResult:
    """All values derivable from a ground term, with a completeness flag."""
    budget = budget or Budget()
    search = _Search(p, budget, trace)
    results, complete = drive(search.go, (term, budget.max_depth))
    return EvalResult(results, complete, search.steps)
