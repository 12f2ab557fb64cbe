"""Counting modules: the seed/pred/zero contract, walked concretely and
through the saturating evaluator, against an integer model."""

import dataclasses

import pytest

from consfree.counting import (
    ChainContractViolation, chain_length_concrete, chain_length_saturate,
    exp2, gen_bincount, gen_lincount, gen_nondetcount, gen_polycount,
    make_input, mk_call,
)
from consfree.interp import Budget, eval_all
from consfree.lang import Pair


def list_len(t):
    n = 0
    while t.name == "cons":
        n += 1
        t = t.args[1]
    return n


def one_value(p, term):
    res = eval_all(p, term)
    assert len(res.results) == 1 and res.complete, res
    return next(iter(res.results))


def test_exp2():
    assert exp2(0, 5) == 5
    assert exp2(1, 3) == 8
    assert exp2(2, 2) == 16


def test_lincount_decode_counts_down_by_one():
    # representation (l1, l2) stands for |l1|*(n+1) + |l2|
    cm = gen_lincount()
    p = cm.program
    for n in (1, 2, 3):
        cs = make_input(n)
        v = one_value(p, mk_call(p, cm.seed, [cs]))
        expected = cm.bound(n)
        while True:
            assert isinstance(v, Pair)
            value = list_len(v.left) * (n + 1) + list_len(v.right)
            assert value == expected, n
            if expected == 0:
                break
            v = one_value(p, mk_call(p, cm.pred, [cs, v]))
            expected -= 1


def test_lincount_zero_only_at_the_end():
    for n in (1, 2, 3):
        assert chain_length_concrete(gen_lincount(), n) == (n + 1) ** 2 - 1


def test_uncorrected_seed_variant_represents_zero():
    cm = gen_lincount(seed_erratum="paper")
    assert chain_length_concrete(cm, 2) == 0
    with pytest.raises(ValueError):
        gen_lincount(seed_erratum="typo")


def test_polycount_chain_lengths():
    for a, b in ((1, 2), (2, 1), (2, 2), (3, 1)):
        cm = gen_polycount(a, b)
        for n in (0, 1, 2):
            assert chain_length_concrete(cm, n) == a * (n + 1) ** b - 1, (a, b, n)


def test_polycount_1_2_matches_lincount():
    for n in (1, 2, 3):
        assert chain_length_concrete(gen_polycount(1, 2), n) == \
            chain_length_concrete(gen_lincount(), n)


def test_bincount_chain_concrete():
    cm = gen_bincount(1, 1, 1)
    for n in (1, 2, 3):
        assert chain_length_concrete(
            cm, n, Budget(max_depth=200, max_steps=5_000_000)) == 2 ** n - 1


def test_bincount_chain_saturate():
    cm = gen_bincount(1, 1, 1)
    for n in (1, 2, 3):
        assert chain_length_saturate(cm, n) == 2 ** n - 1


def test_bincount_parameters():
    assert chain_length_saturate(gen_bincount(1, 2, 1), 1) == 2 ** 2 - 1
    with pytest.raises(ValueError):
        gen_bincount(0, 1, 1)


def test_nondetcount_bounds():
    assert gen_nondetcount(0).bound(5) == 5
    assert gen_nondetcount(1).bound(3) == 7
    assert gen_nondetcount(2).bound(2) == 7
    with pytest.raises(ValueError):
        gen_nondetcount(-1)


def test_nondetcount_chain_saturate():
    for k, ns in ((0, (0, 1, 3)), (1, (1, 2, 3)), (2, (1, 2))):
        cm = gen_nondetcount(k)
        for n in ns:
            assert chain_length_saturate(cm, n) == cm.bound(n), (k, n)


def test_chain_guard_reports_missing_values():
    # pred applied past zero is stuck: its enumeration is complete and empty
    cm = gen_lincount()
    p = cm.program
    cs = make_input(1)
    v = one_value(p, mk_call(p, cm.seed, [cs]))
    for _ in range(cm.bound(1)):
        v = one_value(p, mk_call(p, cm.pred, [cs, v]))
    res = eval_all(p, mk_call(p, cm.pred, [cs, v]))
    assert res.results == frozenset() and res.complete
    # without the borrow rule pred gets stuck before zero, and the walker
    # flags the missing value instead of looping
    borrow = "pred cs (x::xs, []) -> (xs, cs)"
    assert borrow in cm.rules
    broken = dataclasses.replace(
        cm, rules=[r for r in cm.rules if r != borrow], _program=None)
    with pytest.raises(ChainContractViolation, match="returned 0 values"):
        chain_length_concrete(broken, 1)


def test_sources_reparse():
    for cm in (gen_lincount(), gen_polycount(2, 2), gen_bincount(1, 1, 1),
               gen_nondetcount(1), gen_nondetcount(2)):
        p = cm.program
        assert cm.seed in p.table.defined
        assert cm.pred in p.table.defined
        assert cm.zero in p.table.defined
