"""Static restriction checkers and the classification report."""

from consfree.analysis import (
    allowed_data_terms, classify, has_unary_variables, is_cons_free,
    is_syntactically_deterministic,
)
from consfree.counting import (
    bits_term, gen_bincount, gen_lincount, gen_nondetcount, gen_polycount,
)
from consfree.lang import Con
from consfree.parser import parse_program, print_term
from corpus import CORPUS, PRELUDE


def test_cons_free_violation_with_witness():
    p = parse_program(PRELUDE + """\
fun g : list => list
rules:
g xs -> true::xs
""")
    ok, witness = is_cons_free(p)
    assert not ok
    assert print_term(witness) == "true::xs"


def test_ground_rhs_data_is_cons_free():
    p = parse_program(PRELUDE + """\
fun f : bool => list
rules:
f x -> true::false::[]
""")
    assert is_cons_free(p) == (True, None)


def test_lhs_subterms_are_allowed_on_the_right():
    p = parse_program(PRELUDE + """\
fun f : list => list
rules:
f (x::xs) -> x::xs
""")
    assert is_cons_free(p)[0]


def test_whole_corpus_is_cons_free():
    for name, src in CORPUS:
        assert is_cons_free(parse_program(src))[0], name


def test_lincount_classification():
    rep = classify(gen_lincount().program)
    assert rep.cons_free
    assert rep.unary_variables
    assert rep.data_order == 0
    assert rep.deterministic


def test_bincount_data_order_is_level():
    for k in (1, 2):
        cm = gen_bincount(k, 1, 1)
        rep = classify(cm.program)
        assert rep.cons_free, k
        assert rep.unary_variables, k
        assert rep.data_order == k


def test_nondetcount_level2_is_non_unary():
    rep = classify(gen_nondetcount(2).program)
    assert rep.cons_free
    assert not rep.unary_variables
    assert rep.unary_witness is not None
    # the witness variable really does have a non-unary type
    p = gen_nondetcount(2).program
    ok, name = has_unary_variables(p)
    assert not ok
    types = [r.var_types[name] for r in p.rules if name in r.var_types]
    assert types


def test_nondetcount_level1_is_unary():
    assert classify(gen_nondetcount(1).program).unary_variables


def test_polycount_is_order0_unary():
    rep = classify(gen_polycount(3, 2).program)
    assert rep.cons_free and rep.unary_variables and rep.data_order == 0


def test_choose_overlap_detected():
    p = parse_program(PRELUDE + """\
fun choose : bool => bool => bool
rules:
choose x y -> x
choose x y -> y
""")
    det, overlap = is_syntactically_deterministic(p)
    assert not det
    assert overlap == (0, 1)


def test_disjoint_constructor_patterns_are_deterministic():
    det, _ = is_syntactically_deterministic(gen_lincount().program)
    assert det


def test_single_rule_is_deterministic():
    p = parse_program(PRELUDE + "fun f : list => list\nrules:\nf xs -> xs\n")
    assert is_syntactically_deterministic(p) == (True, None)


def test_report_records():
    rec = classify(gen_lincount().program).to_records()
    assert rec["cons_free"] == "yes"
    assert rec["data_order"] == "0"
    assert "cons_free_witness" not in rec


def test_allowed_data_terms():
    p = gen_lincount().program
    cs = bits_term("10")
    allowed = allowed_data_terms(p, [cs])
    names = {print_term(t) for t in allowed}
    # all suffixes of the input, its elements, and the rhs constants
    assert {"true::false::[]", "false::[]", "[]", "true", "false"} <= names


def test_allowed_data_terms_is_linear_in_shared_inputs(monkeypatch):
    # two equal 2000-bit lists built apart: the second costs one comparison
    # at its root, not one walk per cell (2.6 s when it was quadratic)
    p = parse_program(PRELUDE)
    bits = "1101" * 500
    first, second = bits_term(bits), bits_term(bits)
    calls = []
    term_eq = Con.__eq__

    def counted(a, b):
        calls.append(1)
        return term_eq(a, b)

    monkeypatch.setattr(Con, "__eq__", counted)
    alone = allowed_data_terms(p, [first])
    in_first = len(calls)  # a fresh true or false leaf meets an equal one
    both = allowed_data_terms(p, [first, second])
    assert len(calls) - 2 * in_first == 1
    assert list(both) == list(alone)  # the same set, in the same order
