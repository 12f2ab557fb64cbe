"""Executable call-by-value semantics.

eval_all enumerates the values of a ground term by one depth-first search
bounded by ``max_depth`` rule applications along each derivation.  A term
whose search space was exhausted is tabled with all of its values and is
never searched again, at any depth.  ``max_steps`` caps the total number of
rule applications: once it is reached, every further rule is treated as
out of depth, and the values found so far come back marked incomplete.
Enlarging either bound never removes results.  It is the oracle the
saturation evaluator is validated against.

The search keeps its suspended frames on a stack of its own, and matching
and substitution walk terms from explicit stacks, so neither the depth of
a derivation nor the length of a list meets Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .lang import (
    Con, Fun, LangError, Pair, Program, Term, Var, apply_term, drive,
    is_data_term, is_value,
)


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


def match_pattern(pattern: Term, value: Term) -> Optional[dict]:
    """The unique substitution with pattern*subst == value, or None."""
    subst = {}
    return subst if _match(pattern, value, subst) else None


def _match(pat, val, subst):
    """Bind pat's variables in subst, left to right; a ground part of the
    pattern is compared with one ==."""
    stack = [(pat, val)]
    while stack:
        pat, val = stack.pop()
        cls = pat.__class__
        if pat._data:
            if pat != val:
                return False
        elif cls is Var:
            subst[pat.name] = val
        elif cls is Fun:
            raise LangError("defined symbol in pattern")
        elif val.__class__ is not cls:
            return False
        elif cls is Pair:
            stack += ((pat.right, val.right), (pat.left, val.left))
        elif val.name != pat.name:
            return False
        else:
            stack += reversed(tuple(zip(pat.args, val.args)))
    return True


def substitute(s: Term, subst: dict) -> Term:
    """s with its variables replaced by their bindings; an applied variable
    gets its arguments appended.  Ground data comes back as it is, and the
    rest is rebuilt children first from an explicit stack."""
    if s._data:
        return s
    built = []  # finished children, in order
    stack = [(s, False)]
    while stack:
        t, ready = stack.pop()
        cls = t.__class__
        if ready:
            n = 2 if cls is Pair else len(t.args)
            args = tuple(built[-n:])
            del built[-n:]
            if cls is Var:
                built.append(apply_term(subst[t.name], args))
            elif cls is Pair:
                built.append(Pair(args[0], args[1], t.type))
            else:
                built.append(cls(t.name, args, t.type))
        elif t._data:
            built.append(t)
        elif cls is Pair:
            stack += ((t, True), (t.right, False), (t.left, False))
        elif not t.args:
            built.append(subst[t.name] if cls is Var else t)
        else:
            stack.append((t, True))
            stack += [(a, False) for a in reversed(t.args)]
    return built[0]


class _Search:
    def __init__(self, program, budget, trace):
        self.p = program
        self.budget = budget
        self.trace = trace
        self.steps = 0
        self.done = {}   # term -> frozenset of values (search space exhausted)
        self.memo = {}   # (term, fuel) -> (frozenset, exhausted)

    def note(self, value):
        if self.trace is not None and is_data_term(value):
            self.trace(value)

    def go(self, request):
        """(values, exhausted) of a (term, fuel) request, from the tables
        when they hold it.  Run by `drive`: a sub-search suspends the
        search that asked for it on an explicit stack."""
        term, fuel = request
        if term in self.done:
            return self.done[term], True
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

    def _go(self, term, fuel):
        """Yields (subterm, fuel) for each sub-search and is sent back its
        (values, exhausted); returns (values, exhausted) of term."""
        if is_value(self.p, term):
            self.note(term)
            return frozenset([term]), True
        if isinstance(term, Pair):
            lv, lex = yield term.left, fuel
            rv, rex = yield term.right, fuel
            out = frozenset(Pair(l, r, term.type) for l in lv for r in rv)
            for v in out:
                self.note(v)
            return out, lex and rex
        if not isinstance(term, (Con, Fun)):
            raise LangError("cannot evaluate open term %r" % term.name)
        arg_sets, exhausted = [], True
        for a in term.args:
            vs, ex = yield a, fuel
            arg_sets.append(vs)
            exhausted = exhausted and ex
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
        rules = self.p.rules_for(term.name)
        for c in combos:
            if len(c) < arity:
                v = Fun(term.name, c, term.type)
                self.note(v)
                out.add(v)
                continue
            # apply every matching rule; a call no rule matches is stuck:
            # the relation has no derivation there, and nothing is left out
            found, found_ex = set(), True
            for rule in rules:
                subst = {}
                if not all(_match(l, v, subst)
                           for l, v in zip(rule.lhs.args, c)):
                    continue
                if fuel <= 0 or self.steps >= self.budget.max_steps:
                    found_ex = False
                    continue
                self.steps += 1
                reduct = apply_term(substitute(rule.rhs, subst), c[arity:])
                vs, ex = yield reduct, fuel - 1
                found |= vs
                found_ex = found_ex and ex
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
