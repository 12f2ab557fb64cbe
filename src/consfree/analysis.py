"""Static restriction checkers: cons-freeness, unary variables,
syntactic determinism and the aggregate classification report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lang import (
    Arrow, Con, Pair, Program, Term, Var, data_order, is_data_term, subterms,
    type_order,
)


def is_cons_free(p: Program):
    """True iff every constructor-headed rhs subterm is a data term or a
    strict subterm of the rule's left-hand side.  Returns (bool, witness)."""
    for rule in p.rules:
        lhs_subs = subterms(rule.lhs) - {rule.lhs}
        for s in subterms(rule.rhs):
            if isinstance(s, Con):
                if is_data_term(s) or s in lhs_subs:
                    continue
                return False, s
    return True, None


def has_unary_variables(p: Program):
    """True iff every rule variable has an order-0 type or a type sigma => iota
    with iota of order 0.  Returns (bool, offending variable name)."""
    for rule in p.rules:
        for name, typ in rule.var_types.items():
            if type_order(typ) == 0:
                continue
            if isinstance(typ, Arrow) and type_order(typ.cod) == 0:
                continue
            return False, name
    return True, None


def is_syntactically_deterministic(p: Program):
    """Conservative check: no two distinct rules have unifiable left-hand
    sides.  Returns (bool, overlapping rule index pair)."""
    for i in range(len(p.rules)):
        for j in range(i + 1, len(p.rules)):
            a, b = p.rules[i].lhs, p.rules[j].lhs
            if a.name != b.name:
                continue
            if _patterns_unifiable(a.args, b.args):
                return False, (i, j)
    return True, None


def _patterns_unifiable(pats_a, pats_b) -> bool:
    # patterns are linear with disjoint variables, so a structural walk
    # suffices (no occurs check or substitution tracking needed); it runs
    # from an explicit stack, since a list pattern is as deep as it is long
    stack = list(zip(pats_a, pats_b))
    while stack:
        a, b = stack.pop()
        if isinstance(a, Var) or isinstance(b, Var):
            continue
        if isinstance(a, Con) and isinstance(b, Con):
            if a.name != b.name:
                return False
            stack += zip(a.args, b.args)
        elif isinstance(a, Pair) and isinstance(b, Pair):
            stack += ((a.left, b.left), (a.right, b.right))
        else:
            return False
    return True


@dataclass
class AnalysisReport:
    cons_free: bool
    cons_free_witness: Optional[Term]
    unary_variables: bool
    unary_witness: Optional[str]
    data_order: int
    deterministic: bool
    overlap: Optional[tuple]

    def to_records(self):
        from .parser import print_term
        rec = {
            "cons_free": "yes" if self.cons_free else "no",
            "unary_variables": "yes" if self.unary_variables else "no",
            "data_order": str(self.data_order),
            "deterministic": "yes" if self.deterministic else "no",
        }
        if self.cons_free_witness is not None:
            rec["cons_free_witness"] = print_term(self.cons_free_witness)
        if self.unary_witness is not None:
            rec["unary_witness"] = self.unary_witness
        if self.overlap is not None:
            rec["overlapping_rules"] = "%d,%d" % self.overlap
        return rec


def classify(p: Program) -> AnalysisReport:
    cf, cfw = is_cons_free(p)
    uv, uvw = has_unary_variables(p)
    det, overlap = is_syntactically_deterministic(p)
    return AnalysisReport(cf, cfw, uv, uvw, data_order(p), det, overlap)


def allowed_data_terms(p: Program, inputs) -> set:
    """The base set B: the data subterms of the inputs and of the right-hand
    sides, added in pre-order, left to right.  B is subterm-closed, and in
    a cons-free program every data term of every derivation lies in it.

    The walk uses an explicit stack and does not enter a data term already
    in B, whose subterms are in B too.  So building B is linear even when
    inputs share equal subterms that were built apart: each of those costs
    one comparison at its root, not one per node."""
    allowed = set()
    for s in [*inputs, *(rule.rhs for rule in p.rules)]:
        stack = [s]
        while stack:
            t = stack.pop()
            if t._data:
                if t in allowed:
                    continue
                allowed.add(t)
            if t.__class__ is Pair:
                stack += (t.right, t.left)
            elif t.args:
                stack += reversed(t.args)
    return allowed
