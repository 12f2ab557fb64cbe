"""Types, terms, rule conditions and program assembly."""

import sys

import pytest

from consfree.lang import (
    Arrow, Con, Fun, LangError, Pair, Product, Sort, SymbolTable, Var,
    apply_term, arrow, check_rule, data_order, free_vars, is_data_term,
    is_value, product, spine, subterms, type_order,
)
from consfree.parser import parse_program

BOOL = Sort("bool")
LIST = Sort("list")
TRUE = Con("true", (), BOOL)
FALSE = Con("false", (), BOOL)
NIL = Con("nil", (), LIST)


def cons(x, xs):
    return Con("cons", (x, xs), LIST)


def test_type_order_base_cases():
    assert type_order(BOOL) == 0
    assert type_order(Product(BOOL, LIST)) == 0
    assert type_order(Arrow(BOOL, BOOL)) == 1
    assert type_order(Arrow(Arrow(BOOL, BOOL), LIST)) == 2
    assert type_order(Arrow(BOOL, Arrow(BOOL, BOOL))) == 1
    assert type_order(Product(Arrow(BOOL, BOOL), BOOL)) == 1


def test_spine_arrow_roundtrip():
    t = Arrow(BOOL, Arrow(Product(BOOL, LIST), LIST))
    args, cod = spine(t)
    assert args == [BOOL, Product(BOOL, LIST)]
    assert cod == LIST
    assert arrow(args, cod) == t


def test_product_right_nested():
    assert product([BOOL, BOOL, LIST]) == Product(BOOL, Product(BOOL, LIST))
    with pytest.raises(ValueError):
        product([])


def test_subterms_of_pair():
    p = Pair(TRUE, NIL, Product(BOOL, LIST))
    assert subterms(p) == {p, TRUE, NIL}


def test_subterms_excludes_application_heads():
    # `f true` has subterms {f true, true}; the bare head is not a subterm
    f = Fun("f", (TRUE,), BOOL)
    assert subterms(f) == {f, TRUE}


def test_free_vars():
    x = Var("x", (), BOOL)
    t = Con("cons", (x, Var("xs", (), LIST)), LIST)
    assert free_vars(t) == {"x", "xs"}
    assert free_vars(TRUE) == set()


def test_is_data_term():
    assert is_data_term(cons(TRUE, NIL))
    assert is_data_term(Pair(TRUE, NIL, Product(BOOL, LIST)))
    assert not is_data_term(Var("x", (), BOOL))
    assert not is_data_term(Fun("f", (), BOOL))


def test_constructor_declarations_are_checked():
    table = SymbolTable()
    table.declare_sort("bool")
    table.declare_con("true", BOOL)
    # duplicate
    with pytest.raises(LangError):
        table.declare_con("true", BOOL)
    # must target a sort
    with pytest.raises(LangError):
        table.declare_con("bad", Product(BOOL, BOOL))
    # arguments must have order 0
    with pytest.raises(LangError):
        table.declare_con("hof", Arrow(Arrow(BOOL, BOOL), BOOL))
    # unknown sort
    with pytest.raises(LangError):
        table.declare_con("x", Sort("mystery"))


def test_apply_term_extends_application():
    f = Fun("f", (), Arrow(BOOL, Arrow(BOOL, BOOL)))
    g = apply_term(f, (TRUE,))
    assert g == Fun("f", (TRUE,), Arrow(BOOL, BOOL))
    h = apply_term(g, (FALSE,))
    assert h.type == BOOL
    with pytest.raises(LangError):
        apply_term(h, (TRUE,))


SMALL = """\
sort bool
con true : bool
con false : bool
fun choose : bool => bool => bool
rules:
choose x y -> x
choose x y -> y
"""


def test_values():
    p = parse_program(SMALL)
    choose = Fun("choose", (), p.table.defined["choose"])
    assert is_value(p, TRUE)
    assert is_value(p, apply_term(choose, (TRUE,)))          # under-applied
    assert not is_value(p, apply_term(choose, (TRUE, FALSE)))  # fully applied


def test_values_in_pairs():
    p = parse_program(SMALL)
    choose = Fun("choose", (), p.table.defined["choose"])
    closure = apply_term(choose, (TRUE,))
    full = apply_term(choose, (TRUE, FALSE))
    assert is_value(p, Pair(closure, TRUE, Product(closure.type, BOOL)))
    assert is_value(p, Pair(TRUE, Pair(FALSE, closure, Product(BOOL, closure.type)),
                            Product(BOOL, Product(BOOL, closure.type))))
    assert not is_value(p, Pair(full, TRUE, Product(BOOL, BOOL)))
    assert not is_value(p, apply_term(choose, (full,)))  # argument not a value
    assert not is_data_term(Pair(closure, TRUE, Product(closure.type, BOOL)))


def test_check_rule_conditions():
    p = parse_program(SMALL)
    table = p.table
    ct = table.defined["choose"]
    x = Var("x", (), BOOL)
    y = Var("y", (), BOOL)

    # well-formed rule: no violations
    assert check_rule(table, Fun("choose", (x, y), BOOL), x) == []

    # (a) lhs head must be a defined symbol
    v = check_rule(table, TRUE, TRUE)
    assert [l for l, _ in v] == ["a"]
    # (b) no defined symbols or applied variables in patterns
    bad_pat = Fun("choose", (Fun("choose", (x, y), BOOL), y), BOOL)
    assert "b" in [l for l, _ in check_rule(table, bad_pat, x)]
    # (c) left-linear
    dup = Fun("choose", (x, Var("x", (), BOOL)), BOOL)
    assert "c" in [l for l, _ in check_rule(table, dup, x)]
    # (d) rhs variables bound on the left
    assert "d" in [l for l, _ in
                   check_rule(table, Fun("choose", (x, y), BOOL),
                              Var("z", (), BOOL))]
    # (e) types agree
    assert "e" in [l for l, _ in
                   check_rule(table, Fun("choose", (x, y), BOOL), NIL)]


def test_non_pattern_reports_leftmost_violation():
    p = parse_program(SMALL)
    x = Var("x", (), BOOL)
    applied = Var("g", (TRUE,), BOOL)
    call = Fun("choose", (x, TRUE), BOOL)
    # the applied variable sits left of (and deeper than) the defined symbol
    left = Pair(Pair(TRUE, applied, Product(BOOL, BOOL)), call,
                Product(Product(BOOL, BOOL), BOOL))
    lhs = Fun("choose", (left, Fun("choose", (), BOOL)), BOOL)
    v = check_rule(p.table, lhs, TRUE)
    assert v[:2] == [("b", "applied variable 'g' in a pattern"),
                     ("b", "defined symbol 'choose' occurs in a pattern")]


def test_inconsistent_arities_rejected():
    src = SMALL + "choose x -> x\n"
    with pytest.raises(Exception):
        parse_program(src)


def test_data_order_first_order_program():
    assert data_order(parse_program(SMALL)) == 0


def test_hash_is_cached_and_not_recursive():
    from consfree.counting import bits_term
    deep = bits_term("1" * 100_000)  # 100 000 cons cells deep
    assert hash(deep) == hash(bits_term("1" * 100_000))
    assert hash(deep) != hash(bits_term("1" * 99_999))


def test_equality_is_not_recursive():
    from consfree.counting import bits_term
    # built separately, so == walks all 30 000 cells, deeper than the limit
    a, b = bits_term("1" * 30_000), bits_term("1" * 30_000)
    assert a is not b
    assert a == b and not a != b
    assert a != bits_term("1" * 29_999 + "0")
    assert a != bits_term("1" * 29_999)
    # the hash leaves out the type, so this one differs only at the bottom
    # of the walk, in the type of its innermost nil
    odd = Con("nil", (), Sort("other"))
    for _ in range(30_000):
        odd = Con("cons", (Con("true", (), BOOL), odd), LIST)
    assert hash(odd) == hash(a)
    assert a != odd and not a == odd


def test_equality_against_other_classes():
    assert cons(TRUE, NIL) == cons(TRUE, NIL)
    assert TRUE != FALSE
    assert Con("f", (), BOOL) != Fun("f", (), BOOL)
    assert Pair(TRUE, NIL, Product(BOOL, LIST)) == Pair(TRUE, NIL, Product(BOOL, LIST))
    assert TRUE != "true" and TRUE != None  # noqa: E711


def test_term_walks_do_not_recurse():
    from consfree.counting import bits_term
    deep = bits_term("10" * 50_000)  # 100 000 cons cells deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert is_data_term(deep)
        subs = subterms(deep)
        assert free_vars(deep) == set()
    finally:
        sys.setrecursionlimit(limit)
    assert len(subs) == 100_003  # every suffix, nil, true and false
    x = Var("x", (), BOOL)
    assert not is_data_term(Con("cons", (x, deep), LIST))
