"""The enumerating evaluator and its oracle-grade guarantees."""

import pytest
from hypothesis import given, settings, strategies as st

from consfree import interp
from consfree.counting import bits_term, gen_lincount, make_input, mk_call
from consfree.interp import Budget, eval_all
from consfree.lang import (
    Con, Pair, Product, Sort, Var, apply_term, is_data_term,
)
from consfree.parser import parse_data_term, parse_program, print_term
from corpus import CORPUS, PRELUDE, bitset_probe_programs

BOOL = Sort("bool")
LIST = Sort("list")
TRUE = Con("true", (), BOOL)
FALSE = Con("false", (), BOOL)

PROGRAMS = [(name, parse_program(src)) for name, src in CORPUS]
BY_NAME = dict(PROGRAMS)
# calls whose enumeration never completes: the non-terminating bit reads of
# the level-1 non-deterministic counter
PROBES = [(p, n) for _, p, _, ns in bitset_probe_programs() for n in ns]


def start(p, bits):
    return mk_call(p, "start", [bits_term(bits)])


def names(result):
    return {print_term(v) for v in result.results}


# -- a reference reading of the rules -----------------------------------------
#
# The enumerator's plans share their pattern matcher with the saturation
# engine's (`consfree.plan`), so a fault there could make the two engines
# agree wrongly.  This walk is the enumerator's reading without plans: on
# every rule application it matches the patterns against the values and
# substitutes the bindings into the right-hand side.

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
        elif val.__class__ is not cls:
            return False
        elif cls is Pair:
            stack += ((pat.right, val.right), (pat.left, val.left))
        elif val.name != pat.name:
            return False
        else:
            stack += reversed(tuple(zip(pat.args, val.args)))
    return True


def match_pattern(pattern, value):
    """The unique substitution with pattern*subst == value, or None."""
    subst = {}
    return subst if _match(pattern, value, subst) else None


def substitute(s, subst):
    """s with its variables replaced by their bindings; an applied variable
    gets its arguments appended."""
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


def _walk(p, f):
    """The rule walk of f, with the protocol of `interp.compile_plan`."""
    arity, rules = p.arity[f], p.rules_for(f)

    def ev(s, c, fuel):
        found, found_ex = set(), True
        for rule in rules:
            subst = {}
            if not all(_match(l, v, subst) for l, v in zip(rule.lhs.args, c)):
                continue
            if fuel <= 0 or s.steps >= s.budget.max_steps:
                found_ex = False
                continue
            s.steps += 1
            reduct = apply_term(substitute(rule.rhs, subst), c[arity:])
            vs, ex = yield reduct, fuel - 1
            found |= vs
            found_ex = found_ex and ex
        return found, found_ex
    return ev


class _WalkSearch(interp._Search):
    def plan(self, f):
        return _walk(self.p, f)


def _traced(p, term, budget):
    seen = []
    res = eval_all(p, term, budget, trace=seen.append)
    return res.results, res.complete, res.steps_used, seen


def test_match_pattern():
    p = parse_program(PRELUDE)
    pat_src = parse_program(PRELUDE + """\
fun f : list => list
rules:
f (x::xs) -> xs
""")
    pat = pat_src.rules[0].lhs.args[0]
    val = parse_data_term("true::[]", LIST, p.table)
    subst = match_pattern(pat, val)
    assert subst == {"x": TRUE, "xs": parse_data_term("[]", LIST, p.table)}
    nil = parse_data_term("[]", LIST, p.table)
    assert match_pattern(pat, nil) is None
    assert match_pattern(nil, val) is None


def test_match_pair_pattern():
    p = gen_lincount().program
    pat = p.rules_for("pred")[0].lhs.args[1]  # (xs, y::ys)
    v = Pair(parse_data_term("[]", LIST, p.table),
             parse_data_term("false::[]", LIST, p.table),
             Product(LIST, LIST))
    subst = match_pattern(pat, v)
    assert subst is not None and print_term(subst["y"]) == "false"


# not cons-free: its reducts build lists and pairs, apply a variable, reuse
# a matched pair, and apply closures past their symbols' arity, among them a
# bare argument (`pickf g -> g`) that a later rule reads again
BUILDER = parse_program(PRELUDE + """\
fun start : list => bool
fun rev : list => list => list
fun twice : (list => list) => list => list
fun head : list => bool
fun pick : list * list => list
fun swap : list * list => list * list
fun sel : bool => list => bool
fun always : list => bool
fun pickf : (bool => bool) => bool => bool
fun negf : (bool => bool) => bool => bool
fun notb : bool => bool
rules:
start cs -> head (pick (swap (twice (rev []) cs, true::cs)))
start (c::cs) -> sel c (c::cs)
start (c::cs) -> pickf notb c
rev acc [] -> acc
rev acc (x::xs) -> rev (x::acc) xs
twice f xs -> f (f xs)
head [] -> false
head (x::xs) -> x
pick (xs, ys) -> xs
pick (xs, ys) -> ys
swap (xs, ys) -> (ys, false::xs)
swap (xs, ys) -> (xs, ys)
sel true -> always
sel false -> head
always xs -> true
pickf g -> g
pickf g -> negf g
negf g x -> notb (g x)
notb true -> false
notb false -> true
""")


def test_plans_match_the_rule_walk(monkeypatch):
    # results, flags, step counts and traces, including budgets whose step
    # cap binds, so that the steps are counted in the same order too
    budgets = [Budget(max_depth=40, max_steps=200_000),
               Budget(max_depth=5, max_steps=50_000),
               Budget(max_depth=3, max_steps=50_000),
               Budget(max_depth=40, max_steps=7)]
    inputs = [""] + ["{:0{}b}".format(i, n) for n in (1, 2, 3)
                     for i in range(1 << n)]
    runs = [(name, p, start(p, bits), budget)
            for name, p in PROGRAMS + [("builder", BUILDER)]
            for bits in inputs for budget in budgets]
    # closures applied past their arity and calls that never finish
    runs += [("probe", p, mk_call(p, "go", [make_input(n)]), budget)
             for p, n in PROBES for budget in budgets]
    capped = 0
    for name, p, term, budget in runs:
        planned = _traced(p, term, budget)
        with monkeypatch.context() as m:
            m.setattr(interp, "_Search", _WalkSearch)
            walked = _traced(p, term, budget)
        assert planned == walked, (name, print_term(term), budget)
        capped += planned[2] == budget.max_steps
    assert capped > 100, capped


def test_choose_complete():
    res = eval_all(BY_NAME["choose"], start(BY_NAME["choose"], "1"))
    assert names(res) == {"true", "false"}
    assert res.complete


def test_lincount_zero_of_seed():
    p = gen_lincount().program
    cs = bits_term("10")
    term = mk_call(p, "zero", [cs, mk_call(p, "seed", [cs])])
    res = eval_all(p, term)
    assert names(res) == {"false"}  # seed represents 8, not 0
    assert res.complete


def test_stuck_term_has_no_results():
    p = gen_lincount().program
    cs = bits_term("10")
    nil = parse_data_term("[]", LIST, p.table)
    bad = mk_call(p, "pred", [cs, Pair(nil, nil, Product(LIST, LIST))])
    res = eval_all(p, bad)
    assert res.results == frozenset()
    assert res.complete


def test_incomplete_reported_not_divergence():
    p = BY_NAME["loop_with_escape"]
    res = eval_all(p, start(p, "1"), Budget(max_depth=12, max_steps=10_000))
    assert names(res) == {"true"}
    assert not res.complete


def test_deterministic_programs_have_at_most_one_result():
    from consfree.analysis import is_syntactically_deterministic
    for name, p in PROGRAMS:
        if not is_syntactically_deterministic(p)[0]:
            continue
        for bits in ("", "0", "10", "011"):
            res = eval_all(p, start(p, bits),
                           Budget(max_depth=30, max_steps=50_000))
            assert len(res.results) <= 1, (name, bits)


def test_type_preservation():
    for name, p in PROGRAMS:
        term = start(p, "01")
        res = eval_all(p, term, Budget(max_depth=20, max_steps=50_000))
        for v in res.results:
            assert v.type == term.type, name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(CORPUS) - 1), st.text(alphabet="01", max_size=4),
       st.integers(1, 5), st.integers(1, 5))
def test_budget_monotone(idx, bits, d1, d2):
    name, p = PROGRAMS[idx]
    lo, hi = sorted((d1, d2))
    small = eval_all(p, start(p, bits), Budget(max_depth=lo, max_steps=50_000))
    big = eval_all(p, start(p, bits), Budget(max_depth=hi, max_steps=50_000))
    assert small.results <= big.results, name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, len(CORPUS) + len(PROBES) - 1),
       st.text(alphabet="01", max_size=4), st.integers(1, 40),
       st.integers(1, 300), st.integers(1, 300))
def test_step_cap_monotone(idx, bits, depth, s1, s2):
    if idx < len(CORPUS):
        p = PROGRAMS[idx][1]
        term = start(p, bits)
    else:
        p, n = PROBES[idx - len(CORPUS)]
        term = mk_call(p, "go", [make_input(n)])
    lo, hi = sorted((s1, s2))
    small = eval_all(p, term, Budget(max_depth=depth, max_steps=lo))
    big = eval_all(p, term, Budget(max_depth=depth, max_steps=hi))
    assert small.steps_used <= lo and big.steps_used <= hi
    assert small.results <= big.results


def test_binding_step_cap_returns_a_subset():
    p = BY_NAME["suffix_tail_swap"]
    full = eval_all(p, start(p, "0110"), Budget(max_depth=40))
    capped = eval_all(p, start(p, "0110"),
                      Budget(max_depth=40, max_steps=20))
    assert names(full) == {"true", "false"} and full.complete
    assert full.steps_used > 20
    assert names(capped) == {"false"}
    assert not capped.complete and capped.steps_used == 20


def test_trace_sees_only_data_terms():
    p = BY_NAME["parity"]
    seen = []
    eval_all(p, start(p, "101"), trace=seen.append)
    assert seen
    assert all(is_data_term(v) for v in seen)


def test_deterministic_program_has_one_value():
    p = BY_NAME["parity"]
    for bits, value in (("101", FALSE), ("011", FALSE), ("1", TRUE)):
        res = eval_all(p, start(p, bits))
        assert res.results == {value} and res.complete, bits


def test_stuck_call_has_no_values():
    # no rule for [] at the end of the list: no derivation, and nothing
    # left to search
    p = BY_NAME["no_nil_rule"]
    res = eval_all(p, start(p, "11"))
    assert res.results == frozenset() and res.complete


def test_over_application():
    # a rule producing a closure that is then fed its final argument
    p = parse_program(PRELUDE + """\
fun ap : (bool => bool) => bool => bool
fun konst : bool => bool => bool
fun f : bool => bool
rules:
ap g x -> g x
konst a b -> a
f x -> ap (konst x) false
""")
    res = eval_all(p, mk_call(p, "f", [TRUE]))
    assert names(res) == {"true"} and res.complete


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_depth=0)
