"""The enumerating evaluator and its oracle-grade guarantees."""

import pytest
from hypothesis import given, settings, strategies as st

from consfree.counting import bits_term, gen_lincount, make_input, mk_call
from consfree.interp import (
    Budget, EvalStuck, eval_all, eval_deterministic, match_pattern,
)
from consfree.lang import Con, Pair, Product, Sort, is_data_term
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


def test_eval_deterministic():
    p = BY_NAME["parity"]
    assert eval_deterministic(p, start(p, "101")) == FALSE
    assert eval_deterministic(p, start(p, "011")) == FALSE
    assert eval_deterministic(p, start(p, "1")) == TRUE


def test_eval_deterministic_stuck():
    p = BY_NAME["no_nil_rule"]
    with pytest.raises(EvalStuck):
        eval_deterministic(p, start(p, "11"))


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
