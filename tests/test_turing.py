"""Turing machine simulation and compilation to cons-free programs."""

import pytest

from consfree.analysis import classify
from consfree.counting import bits_term, mk_call
from consfree.interp import Budget, eval_all
from consfree.lang import Con, Sort
from consfree.parser import print_term
from consfree.saturate import saturate
from consfree.turing import (
    TMError, TMStepBound, TuringMachine, compile_tm, counting_module_for_bound,
    parse_tm, simulate_tm, tm_contains_11, tm_parity,
)

TRUE = Con("true", (), Sort("bool"))
FALSE = Con("false", (), Sort("bool"))


def all_bits(n):
    return [format(i, "0%db" % n) for i in range(2 ** n)] if n else [""]


def test_parity_simulation_against_python_model():
    tm = tm_parity()
    for n in range(0, 7):
        for bits in all_bits(n):
            accepted, steps = simulate_tm(tm, bits)
            assert accepted == (bits.count("1") % 2 == 0), bits
            assert steps == n + 1  # one sweep plus the final blank read


def test_contains_11_simulation_against_python_model():
    tm = tm_contains_11()
    for n in range(0, 7):
        for bits in all_bits(n):
            accepted, _ = simulate_tm(tm, bits)
            assert accepted == ("11" in bits), bits


def test_simulate_rejects_bad_input():
    with pytest.raises(TMError):
        simulate_tm(tm_parity(), "012")


def test_simulate_step_bound():
    loop = TuringMachine(
        states=["a", "acc", "rej"], start="a", accept="acc", reject="rej",
        transitions={("a", "_"): ("a", "_", "L"),
                     ("a", "0"): ("a", "0", "L"),
                     ("a", "1"): ("a", "1", "L")})
    with pytest.raises(TMStepBound):
        simulate_tm(loop, "1", max_steps=50)


def test_machine_validation():
    with pytest.raises(TMError):
        TuringMachine(states=["a"], start="a", accept="b", reject="a",
                      transitions={})
    with pytest.raises(TMError):
        TuringMachine(states=["a", "b", "c"], start="a", accept="b",
                      reject="c",
                      transitions={("b", "0"): ("a", "0", "R")})
    with pytest.raises(TMError):
        TuringMachine(states=["a", "b", "c"], start="a", accept="b",
                      reject="c",
                      transitions={("a", "0"): ("a", "0", "down")})


PARITY_TEXT = """\
-- accepts inputs with an even number of ones
states: even odd acc rej
start: even
accept: acc
reject: rej
bound: lin
transitions:
even 0 -> even 0 R
even 1 -> odd 1 R
odd 0 -> odd 0 R
odd 1 -> even 1 R
even _ -> acc _ L
odd _ -> rej _ L
"""


def test_parse_tm():
    tm = parse_tm(PARITY_TEXT)
    assert tm.states == ["even", "odd", "acc", "rej"]
    assert tm.bound == "lin"
    for bits in ("", "1", "11", "101"):
        assert simulate_tm(tm, bits) == simulate_tm(tm_parity(), bits)


def test_parse_tm_errors():
    with pytest.raises(TMError):
        parse_tm("states: a b c\nstart: a\naccept: b\n")  # missing reject
    with pytest.raises(TMError):
        parse_tm(PARITY_TEXT + "even 0 -> even 0 R\n")    # duplicate
    with pytest.raises(TMError):
        parse_tm(PARITY_TEXT.replace("even 0 -> even 0 R", "even 0 even 0 R"))


def test_counting_module_for_bound():
    assert counting_module_for_bound("lin").bound(2) == 8
    assert counting_module_for_bound("poly 2 1").bound(2) == 5
    assert counting_module_for_bound("bin 1 1 1").bound(3) == 7
    assert counting_module_for_bound("nondet 1").bound(3) == 7
    with pytest.raises(TMError):
        counting_module_for_bound("exp 3")


def test_parity_under_nondet_bound():
    # a nondet module loops on bit reads, so only saturation decides; start
    # is true iff the machine accepts within the range 2^n - 1
    tm = tm_parity()
    tm.bound = "nondet 1"
    comp = compile_tm(tm)
    for n in range(5):
        for bits in all_bits(n):
            accepted, steps = simulate_tm(tm, bits)
            expected = TRUE if accepted and steps <= comp.module.bound(n) else FALSE
            cs = bits_term(bits)
            assert saturate(comp.program, "start", [cs]) == {expected}, bits


def test_compiled_program_classifies():
    comp = compile_tm(tm_parity())
    rep = classify(comp.program)
    assert rep.cons_free
    assert rep.unary_variables
    assert rep.data_order == 0


def test_one_trans_rule_per_transition():
    tm = tm_contains_11()
    p = compile_tm(tm).program
    # one rule per transition plus one absorbing rule per final state
    assert len(p.rules_for("trans")) == len(tm.transitions) + 2


def test_compiled_agrees_with_simulator_small():
    # nonempty inputs only: a length-0 input gives the counter range {0},
    # which cannot represent even the first step of the run
    for tm in (tm_parity(), tm_contains_11()):
        p = compile_tm(tm).program
        for n in range(1, 3):
            for bits in all_bits(n):
                expected = {TRUE} if simulate_tm(tm, bits)[0] else {FALSE}
                assert saturate(p, "start", [bits_term(bits)]) == expected, \
                    (tm.start, bits)


def test_compiled_program_runs_under_enumeration():
    p = compile_tm(tm_parity()).program
    res = eval_all(p, mk_call(p, "start", [bits_term("11")]),
                   Budget(max_depth=60, max_steps=500_000))
    assert res.complete
    assert {print_term(v) for v in res.results} == {"true"}
