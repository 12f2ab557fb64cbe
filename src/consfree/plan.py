"""Rule plans: what the two engines' generated evaluators share.

The rules of a program are fixed before either engine runs, so each
defined symbol's rules are specialised once into the source of one Python
function (staging, the partial-evaluation technique of Jones, Gomard &
Sestoft 1993).  The enumerator (`interp.compile_plan`) and the saturation
engine (`saturate.compile_plan`) write their own right-hand sides; the
pattern half, constants and fresh names are `PlanWriter`'s.

Only identifiers and integers made here go into the source.  Symbols,
types and ground terms enter as constants `K<i>` of the function's
namespace, since a program's identifiers may hold `'` or be Python
keywords.  The code stays flat (one statement per pattern node and per
right-hand-side node, loops never nested in loops), so no term size runs
into Python's limits on nested blocks, indentation or parentheses.
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

    def match(self, pat, loc, at_av):
        """Guards and bindings that match pat against the value in loc: an
        abstract value if at_av, else a data term.  A well-typed value's
        class at a pattern node is fixed by its type, so a data term needs
        only name tests, and a ground pattern is one comparison.
        Subpatterns are visited in pre-order, left to right, from an
        explicit stack, since a list pattern is as deep as it is long; each
        one that is not an unused variable is first bound to a local of its
        own, recorded in `vars` (variables) or `nodes` (the others)."""
        stack = []  # (subpattern, expression for its value, at_av)
        while True:
            cls, kids = pat.__class__, ()
            if cls is Var:
                self.vars[pat.name] = (loc, at_av)
            elif cls is Pair:
                self.nodes[pat] = (loc, at_av)
                if at_av:
                    self.match_lines.append(
                        "if %s.__class__ is not PairAV: break" % loc)
                kids = ((pat.left, "%s.left" % loc, at_av),
                        (pat.right, "%s.right" % loc, at_av))
            else:
                self.nodes[pat] = (loc, at_av)
                term = loc + ".term" if at_av else loc
                test = "%s.__class__ is not Base or " % loc if at_av else ""
                if pat.args and pat._data:  # a ground pattern: one comparison
                    test += "%s != %s" % (term, self.const(pat))
                else:
                    test += "%s.name != %s" % (term, self.const(pat.name))
                self.match_lines.append("if %s: break" % test)
                if not pat._data:
                    if at_av:
                        term = self.fresh("t")
                        self.match_lines.append("%s = %s.term" % (term, loc))
                    kids = [(a, "%s.args[%d]" % (term, j), False)
                            for j, a in enumerate(pat.args)]
            stack += [k for k in reversed(kids)
                      if k[0].__class__ is not Var or k[0].name in self.used]
            if not stack:
                return
            pat, expr, at_av = stack.pop()
            loc = self.fresh("t")
            self.match_lines.append("%s = %s" % (loc, expr))
