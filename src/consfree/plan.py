"""Rule plans: what the two engines' generated evaluators share.

The rules of a program are fixed before either engine runs, so each
defined symbol's rules are specialised once into the source of one Python
function (staging, the partial-evaluation technique of Jones, Gomard &
Sestoft 1993).  The enumerator (`interp.compile_plan`) and the saturation
engine (`saturate.compile_plan`) write their own right-hand sides; the
pattern half, constants and fresh names are `PlanWriter`'s.

Only identifiers and integers go into the source.  Symbols, types and
the enumerator's ground terms enter as constants `K<i>` of the function's
namespace, since a program's identifiers may hold `'` or be Python
keywords; the saturation engine's ground data enter as their ids.  The
code stays flat (one statement per pattern node and per right-hand-side
node, loops never nested in loops), so no term size runs into Python's
limits on nested blocks, indentation or parentheses.
"""

from __future__ import annotations

from .lang import Pair, Program, Var


class PlanWriter:
    """Writes and compiles the evaluator of one symbol's rules.  A subclass
    sets, per rule, `used` (the variables its right-hand side reads) and
    empties `vars`, `nodes` and `match_lines` before calling `match`."""

    def __init__(self, p: Program, env: dict):
        self.p = p
        self.env = env    # the generated function's namespace
        self.consts = {}  # (class, object) -> name in self.env
        self.count = 0
        self.needs = set()  # tables the id form reads (`NODE`)

    def const(self, obj) -> str:
        key = (obj.__class__, obj)
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = "K%d" % len(self.consts)
            self.env[name] = obj
        return name

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return "%s%d" % (prefix, self.count)

    def compile(self, lines):
        """The function `ev` that lines define."""
        exec(compile("\n".join(lines), "<plan>", "exec"), self.env)
        return self.env["ev"]

    def match(self, pat, loc, by_id):
        """Guards and bindings that match pat against the value in loc: a
        data term, or if by_id a value's id in the saturation engine's
        tables, whose node tuples the generated code reads from `NODE`.
        A well-typed value's class at a pattern node is fixed by its type,
        so only constructor names are tested, and a ground pattern is one
        comparison: of terms, or of ids, which are canonical (a subclass
        that matches ids gives a ground pattern's id by `data_id`).
        Subpatterns are visited in pre-order, left to right, from an
        explicit stack, since a list pattern is as deep as it is long; each
        one that is not an unused variable is first bound to a local of its
        own, recorded with by_id in `vars` (variables) or `nodes` (the
        others)."""
        stack = []  # (subpattern, expression for its value)
        while True:
            cls, kids = pat.__class__, ()
            if cls is Var:
                self.vars[pat.name] = (loc, by_id)
            else:
                self.nodes[pat] = (loc, by_id)
                kids = (self._id_kids if by_id else self._term_kids)(pat, loc)
            stack += [k for k in reversed(kids)
                      if k[0].__class__ is not Var or k[0].name in self.used]
            if not stack:
                return
            pat, expr = stack.pop()
            loc = self.fresh("t")
            self.match_lines.append("%s = %s" % (loc, expr))

    def _term_kids(self, pat, loc):
        """The guard of a pattern node matched against the term in loc,
        and its subpatterns, each with the expression for its term."""
        if pat.__class__ is Pair:
            return ((pat.left, "%s.left" % loc), (pat.right, "%s.right" % loc))
        if pat.args and pat._data:
            self.match_lines.append("if %s != %s: break" % (loc, self.const(pat)))
            return ()
        self.match_lines.append("if %s.name != %s: break"
                                % (loc, self.const(pat.name)))
        return [(a, "%s.args[%d]" % (loc, j)) for j, a in enumerate(pat.args)]

    def _id_kids(self, pat, loc):
        """The guard of a pattern node matched against the id in loc, and
        its subpatterns, each with the expression for its id: a
        constructor's name is the first field of its node tuple, and its
        children, or a pair's components, follow."""
        if pat._data:
            self.match_lines.append("if %s != %d: break" % (loc, self.data_id(pat)))
            return ()
        self.needs.add("NODE")
        node = "NODE[%s]" % loc
        kids = pat.args if pat.__class__ is not Pair else (pat.left, pat.right)
        if any(k.__class__ is not Var or k.name in self.used for k in kids):
            n = self.fresh("n")
            self.match_lines.append("%s = %s" % (n, node))
            node = n
        if pat.__class__ is not Pair:
            self.match_lines.append("if %s[0] != %s: break"
                                    % (node, self.const(pat.name)))
        return [(k, "%s[%d]" % (node, j)) for j, k in enumerate(kids, 1)]
