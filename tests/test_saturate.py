"""The terminating all-results evaluator over finite abstract domains."""

import os
import subprocess
import sys
import types

import pytest

import consfree.saturate as saturate_module
from consfree import counting
from consfree.counting import bits_term, gen_nondetcount, mk_call
from consfree.interp import Budget, eval_all
from consfree.lang import Arrow, Product, Sort
from consfree.parser import parse_program, print_term
from consfree.saturate import (
    Base, DomainCapExceeded, FunAV, PairAV, SaturationEngine,
    SaturationPrecondition, abstract, abstract_match, build_base, concrete,
    downset, geq, interpret_type, saturate,
)
from consfree.turing import compile_tm, tm_parity
from corpus import CORPUS, PRELUDE

BOOL = Sort("bool")
LIST = Sort("list")
PROGRAMS = [(name, parse_program(src)) for name, src in CORPUS]
BY_NAME = dict(PROGRAMS)


def dt(src, typ=LIST):
    from consfree.parser import parse_data_term
    return parse_data_term(src, typ, parse_program(PRELUDE).table)


# -- base set and domains ---------------------------------------------------

def test_build_base_choose():
    p = BY_NAME["choose"]
    base = build_base(p, [dt("true::[]")])
    texts = {print_term(t) for t in base}
    # input subterms plus the rhs data constants true/false
    assert texts == {"true::[]", "true", "[]", "false"}


def test_build_base_empty_rules():
    p = parse_program(PRELUDE)
    base = build_base(p, [dt("[]")])
    assert {print_term(t) for t in base} == {"[]"}


def test_interpret_type_sizes():
    base = build_base(BY_NAME["choose"], [dt("true::[]")])
    bools = interpret_type(BOOL, base)
    assert {print_term(concrete(av)) for av in bools} == {"true", "false"}
    fun_dom = interpret_type(Arrow(BOOL, BOOL), base)
    assert len(fun_dom) == 2 ** (2 * 2)  # powerset of 2x2 graphs
    prod = interpret_type(Product(BOOL, BOOL), base)
    assert len(prod) == 4


def test_geq():
    t, f = Base(dt("true", BOOL)), Base(dt("false", BOOL))
    assert geq(t, t) and not geq(t, f)
    assert geq(PairAV(t, f), PairAV(t, f))
    big = FunAV(frozenset({(t, t), (f, t)}))
    small = FunAV(frozenset({(t, t)}))
    assert geq(big, small) and not geq(small, big)
    assert not geq(t, small)


def test_downset():
    t, f = Base(dt("true", BOOL)), Base(dt("false", BOOL))
    g = FunAV(frozenset({(t, t), (f, t)}))
    below = downset(g)
    assert len(below) == 4
    assert all(geq(g, b) for b in below)


def test_abstract_match():
    p = BY_NAME["head_or_false"]
    pat = p.rules_for("start")[1].lhs.args[0]  # x::xs
    av = abstract(dt("true::[]"))
    [subst] = abstract_match([pat], [av])
    assert subst["x"] == Base(dt("true", BOOL))
    nil_pat = p.rules_for("start")[0].lhs.args[0]
    assert abstract_match([nil_pat], [av]) == []


def test_abstract_match_pair():
    t = Base(dt("true", BOOL))
    xs = Base(dt("[]"))
    p = parse_program(PRELUDE + """\
fun f : (bool * list) => bool
rules:
f (x, ys) -> x
""")
    [subst] = abstract_match(list(p.rules[0].lhs.args), [PairAV(t, xs)])
    assert subst == {"x": t, "ys": xs}


# -- end-to-end saturation --------------------------------------------------

def test_choose_call():
    p = BY_NAME["choose"]
    res = saturate(p, "start", [dt("true::[]")])
    assert {print_term(v) for v in res} == {"true", "false"}


def test_agrees_with_enumeration_on_corpus():
    bits = ["", "0", "1", "01", "110"]
    for name, p in PROGRAMS:
        for b in bits:
            cs = bits_term(b)
            res = eval_all(p, mk_call(p, "start", [cs]),
                           Budget(max_depth=40, max_steps=100_000))
            sat = saturate(p, "start", [cs])
            if res.complete:
                assert set(res.results) == sat, (name, b)
            else:
                assert set(res.results) <= sat, (name, b)


def test_demand_matches_eager():
    bits = ["", "1", "01"]
    for name, p in PROGRAMS:
        for b in bits:
            if (name, b) == ("pair_consumer_var", "01"):
                continue  # eager mode needs a 2^18-element down-set here
            cs = bits_term(b)
            assert saturate(p, "start", [cs]) == \
                saturate(p, "start", [cs], mode="eager"), (name, b)


def test_demand_matches_eager_higher_order():
    p = BY_NAME["const_closure"]
    cs = bits_term("1")
    assert saturate(p, "start", [cs], domain_cap=10 ** 9) == \
        saturate(p, "start", [cs], mode="eager", domain_cap=10 ** 9)


def test_demand_materializes_fewer_statements():
    p = BY_NAME["parity"]
    cs = bits_term("10")
    demand = SaturationEngine(p, [cs], mode="demand")
    demand.call_data("start", [cs])
    eager = SaturationEngine(p, [cs], mode="eager")
    eager.call_data("start", [cs])
    assert demand.stats.keys <= eager.stats.keys


def test_unreachable_symbol_never_materialized():
    p = parse_program(PRELUDE + """\
fun start : list => bool
fun unused : list => bool
rules:
start cs -> true
unused cs -> false
""")
    engine = SaturationEngine(p, [bits_term("1")], mode="demand")
    engine.call_data("start", [bits_term("1")])
    assert all(f != "unused" for f, _ in engine.table)


def test_terminates_on_nonterminating_rules():
    # the enumerating evaluator cannot finish this program; saturation can
    p = BY_NAME["loop_with_escape"]
    cs = bits_term("1")
    assert {print_term(v) for v in saturate(p, "start", [cs])} == {"true"}


def test_bitset_query_single_value():
    cm = gen_nondetcount(1)
    src = "\n".join(
        counting.PRELUDE + cm.decls + ["fun go : list => bool", "rules:"]
        + cm.rules + ["go cs -> bitset1 cs (seed1 cs) (seed0 cs)"]) + "\n"
    p = parse_program(src)
    for n in (1, 2, 3):
        cs = counting.make_input(n)
        sat = saturate(p, "go", [cs])
        assert {print_term(v) for v in sat} == {"true"}, n
        res = eval_all(p, mk_call(p, "go", [cs]),
                       Budget(max_depth=14, max_steps=50_000))
        assert set(res.results) <= sat
        assert not res.complete


def test_statements_dump_marks_confirmed():
    p = BY_NAME["head_or_false"]
    cs = bits_term("1")
    engine = SaturationEngine(p, [cs])
    engine.call_data("start", [cs])
    stmts = list(engine.statements())
    confirmed = [(f, o) for f, avs, o, mark in stmts if mark == "confirmed"]
    assert len(stmts) > len(confirmed) > 0
    assert {print_term(concrete(o)) for _, o in confirmed} == {"true"}


# -- the local solver against the plain worklist -----------------------------

def _goal(p, cs):
    engine = SaturationEngine(p, [cs])
    return engine.call_data("start", [cs]), engine


def _chain_engine(cm, n):
    engines = []

    class Recording(SaturationEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    saved = counting.SaturationEngine
    counting.SaturationEngine = Recording
    try:
        steps = counting.chain_length_saturate(cm, n)
    finally:
        counting.SaturationEngine = saved
    [engine] = engines
    return steps, engine


def _covers(w, v):
    """v lies in the down-set of w, with a graph entry (A, O) below every
    entry (A', O') with A >= A' and O' >= O: the entry that fires on fewer
    arguments, or yields less, adds nothing when applied."""
    if isinstance(w, FunAV) and isinstance(v, FunAV):
        return all(any(_covers(a, a2) and _covers(o2, o) for a2, o2 in w.graph)
                   for a, o in v.graph)
    if isinstance(w, PairAV) and isinstance(v, PairAV):
        return _covers(w.left, v.left) and _covers(w.right, v.right)
    return w == v


def _same_downset(xs, ys):
    # the worklist also keeps the smaller closure graphs it confirmed from
    # provisional results, so confirmed sets agree up to their down-sets
    return (all(any(_covers(y, x) for y in ys) for x in xs)
            and all(any(_covers(x, y) for x in xs) for y in ys))


def _solve_both(monkeypatch, solve):
    """(result, engine) of the local solver, then of the plain worklist:
    with no nesting allowed every new key goes on the worklist."""
    local = solve()
    with monkeypatch.context() as m:
        m.setattr(saturate_module, "MAX_NESTED_EVALUATIONS", 0)
        worklist = solve()
    return local, worklist


def test_local_solver_matches_worklist(monkeypatch):
    # both engines of a run share the program and the input, so comparing
    # their tables finds the same term objects
    parity = compile_tm(tm_parity()).program
    runs = [("%s %r" % (name, b), lambda p=p, cs=bits_term(b): _goal(p, cs))
            for name, p in PROGRAMS for b in ("", "1", "01")]
    cs = bits_term("111111")
    runs.append(("parity 111111", lambda: _goal(parity, cs)))
    bincount, nondet = counting.gen_bincount(2, 1, 1), gen_nondetcount(2)
    inputs = {}
    monkeypatch.setattr(counting, "make_input",
                        lambda n: inputs.setdefault(n, bits_term("1" * n)))
    runs.append(("bin 2 1 1 n=2", lambda: _chain_engine(bincount, 2)))
    runs.append(("nondet 2 n=2", lambda: _chain_engine(nondet, 2)))
    for label, solve in runs:
        (res, local), (ref, worklist) = _solve_both(monkeypatch, solve)
        assert res == ref, label
        for key in local.table.keys() & worklist.table.keys():
            mine, theirs = local.table[key], worklist.table[key]
            assert mine == theirs or _same_downset(mine, theirs), (label, key)
        assert local.stats.evaluations <= worklist.stats.evaluations, label


def test_stack_safe_under_default_recursion_limit():
    # importing consfree.interp raises the limit; put the default back, then
    # saturate an input long enough to reach the nesting bound
    script = """\
import sys
import consfree.saturate as S
from consfree.counting import bits_term
from consfree.turing import compile_tm, simulate_tm, tm_parity
sys.setrecursionlimit(1000)

class Deepest(S.SaturationEngine):
    deepest = 0

    def _evaluate(self, key):
        self.deepest = max(self.deepest, self.depth + 1)
        return super()._evaluate(key)

tm = tm_parity()
bits = "1011010011"
cs = bits_term(bits)
engine = Deepest(compile_tm(tm).program, [cs])
vals = engine.call("start", (S.abstract(cs),))
assert engine.deepest == S.MAX_NESTED_EVALUATIONS, engine.deepest
assert {S.concrete(v).name == "true" for v in vals} == {simulate_tm(tm, bits)[0]}
print("ok", engine.stats.keys, engine.stats.evaluations)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("ok"), res.stdout


def test_package_attribute_is_the_submodule():
    import consfree
    assert isinstance(saturate_module, types.ModuleType)
    assert consfree.saturate is saturate_module
    assert saturate_module.saturate is saturate


def test_domain_cap_in_nested_evaluation_leaves_engine_consistent():
    p = compile_tm(tm_parity()).program
    cs = bits_term("1011")
    engine = SaturationEngine(p, [cs], key_cap=50)
    with pytest.raises(DomainCapExceeded):
        engine.call("start", (abstract(cs),))
    assert engine.current is None and engine.depth == 0
    assert len(engine.table) == 50


# -- resource guards and preconditions --------------------------------------

def test_domain_cap():
    base = [dt('"%s"' % s) for s in ("", "0", "1", "00", "01")]
    with pytest.raises(DomainCapExceeded):
        interpret_type(Arrow(LIST, LIST), base, cap=10)
    with pytest.raises(DomainCapExceeded):
        interpret_type(Product(LIST, LIST), base, cap=10)  # 25 pairs


def test_function_graph_blowup_guarded():
    base = build_base(BY_NAME["self_equal"], [bits_term("11111111")])
    with pytest.raises(DomainCapExceeded):
        interpret_type(Arrow(LIST, LIST), base)


def test_preconditions():
    p = BY_NAME["choose"]
    engine = SaturationEngine(p, [])
    with pytest.raises(SaturationPrecondition):
        engine.call("nosuch", ())
    with pytest.raises(SaturationPrecondition):
        engine.call("start", ())  # wrong argument count
    bad = parse_program(PRELUDE + "fun g : list => list\nrules:\ng xs -> true::xs\n")
    with pytest.raises(SaturationPrecondition):
        SaturationEngine(bad, [])
    with pytest.raises(ValueError):
        SaturationEngine(p, [], mode="wat")
