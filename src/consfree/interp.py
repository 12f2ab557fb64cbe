"""Executable call-by-value semantics.

eval_all enumerates the values of a ground term by one depth-first search
bounded by ``max_depth`` rule applications along each derivation.  A term
whose search space was exhausted is tabled with all of its values and is
never searched again, at any depth.  ``max_steps`` caps the total number of
rule applications: once it is reached, every further rule is treated as
out of depth, and the values found so far come back marked incomplete.
Enlarging either bound never removes results.  It is the oracle the
saturation evaluator is validated against.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .lang import (
    Con, Fun, LangError, Pair, Program, Term, Var, apply_term, is_data_term,
    is_value,
)

sys.setrecursionlimit(20000)


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


class EvalStuck(Exception):
    def __init__(self, term):
        self.term = term
        super().__init__("no rule applies and the term is not a value")


class EvalBudget(Exception):
    pass


def match_pattern(pattern: Term, value: Term) -> Optional[dict]:
    """The unique substitution with pattern*subst == value, or None."""
    subst = {}
    if _match(pattern, value, subst):
        return subst
    return None


def _match(pat, val, subst):
    if isinstance(pat, Var):
        subst[pat.name] = val
        return True
    if isinstance(pat, Con):
        return (isinstance(val, Con) and val.name == pat.name
                and all(_match(p, v, subst) for p, v in zip(pat.args, val.args)))
    if isinstance(pat, Pair):
        return (isinstance(val, Pair)
                and _match(pat.left, val.left, subst)
                and _match(pat.right, val.right, subst))
    raise LangError("defined symbol in pattern")


def substitute(s: Term, subst: dict) -> Term:
    if isinstance(s, Var):
        return apply_term(subst[s.name],
                          tuple(substitute(a, subst) for a in s.args))
    if isinstance(s, (Con, Fun)):
        cls = type(s)
        return cls(s.name, tuple(substitute(a, subst) for a in s.args), s.type)
    return Pair(substitute(s.left, subst), substitute(s.right, subst), s.type)


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

    def go(self, term, fuel):
        if term in self.done:
            return self.done[term], True
        key = (term, fuel)
        if key in self.memo:
            return self.memo[key]
        # provisional entry breaks self-referential loops soundly: a cyclic
        # re-entry at the same fuel cannot contribute new finite derivations
        self.memo[key] = (frozenset(), False)
        res = self._go(term, fuel)
        self.memo[key] = res
        if res[1]:
            self.done[term] = res[0]
        return res

    def _go(self, term, fuel):
        if is_value(self.p, term):
            self.note(term)
            return frozenset([term]), True
        if isinstance(term, Pair):
            lv, lex = self.go(term.left, fuel)
            rv, rex = self.go(term.right, fuel)
            out = frozenset(Pair(l, r, term.type) for l in lv for r in rv)
            for v in out:
                self.note(v)
            return out, lex and rex
        if isinstance(term, (Con, Fun)):
            arg_sets = []
            exhausted = True
            for a in term.args:
                vs, ex = self.go(a, fuel)
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
            for c in combos:
                if len(c) < arity:
                    v = Fun(term.name, c, term.type)
                    self.note(v)
                    out.add(v)
                    continue
                vs, ex = self.apply_rules(term, c, arity, fuel)
                out |= vs
                exhausted = exhausted and ex
            return frozenset(out), exhausted
        raise LangError("cannot evaluate open term %r" % term.name)

    def apply_rules(self, term, values, arity, fuel):
        out = set()
        exhausted = True
        matched = False
        for rule in self.p.rules_for(term.name):
            subst = {}
            ok = all(_match(l, v, subst)
                     for l, v in zip(rule.lhs.args, values[:arity]))
            if not ok:
                continue
            matched = True
            if fuel <= 0 or self.steps >= self.budget.max_steps:
                exhausted = False
                continue
            self.steps += 1
            reduct = apply_term(substitute(rule.rhs, subst), values[arity:])
            vs, ex = self.go(reduct, fuel - 1)
            out |= vs
            exhausted = exhausted and ex
        if not matched:
            # stuck branch: the relation has no derivation here
            return frozenset(), True
        return frozenset(out), exhausted


def eval_all(p: Program, term: Term, budget: Budget = None,
             trace: Callable[[Term], None] = None) -> EvalResult:
    """All values derivable from a ground term, with a completeness flag."""
    budget = budget or Budget()
    search = _Search(p, budget, trace)
    results, complete = search.go(term, budget.max_depth)
    return EvalResult(results, complete, search.steps)


def eval_deterministic(p: Program, term: Term, budget: Budget = None) -> Term:
    """Leftmost-rule evaluation; intended for syntactically deterministic
    programs.  Raises EvalStuck / EvalBudget."""
    budget = budget or Budget()
    state = {"steps": 0}

    def ev(t):
        if is_value(p, t):
            return t
        if isinstance(t, Pair):
            return Pair(ev(t.left), ev(t.right), t.type)
        if isinstance(t, Con):
            return Con(t.name, tuple(ev(a) for a in t.args), t.type)
        if isinstance(t, Fun):
            values = tuple(ev(a) for a in t.args)
            arity = p.arity[t.name]
            if len(values) < arity:
                return Fun(t.name, values, t.type)
            for rule in p.rules_for(t.name):
                subst = {}
                if all(_match(l, v, subst)
                       for l, v in zip(rule.lhs.args, values[:arity])):
                    state["steps"] += 1
                    if state["steps"] > budget.max_steps:
                        raise EvalBudget()
                    return ev(apply_term(substitute(rule.rhs, subst),
                                         values[arity:]))
            raise EvalStuck(Fun(t.name, values, t.type))
        raise LangError("cannot evaluate open term %r" % t.name)

    return ev(term)
