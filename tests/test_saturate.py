"""The terminating all-results evaluator over finite abstract domains."""

import gc
import os
import subprocess
import sys
import types

import pytest

import consfree.saturate as saturate_module
from consfree import counting, interp
from consfree.counting import bits_term, gen_nondetcount, mk_call
from consfree.interp import Budget, eval_all
from consfree.lang import Arrow, Product, Sort
from consfree.parser import parse_program, print_term
from consfree.saturate import (
    Base, DomainCapExceeded, FunAV, PairAV, SaturationEngine,
    SaturationPrecondition, abstract, build_base, compile_plan, concrete,
    downset, geq, interpret_type, saturate,
)
from consfree.turing import compile_tm, tm_parity
from corpus import CORPUS, PRELUDE, bitset_probe_programs

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


def _matched(decls, rule, avs):
    """What one rule's plan returns on avs: its right-hand side lists the
    values its pattern variables were bound to, or nothing matched."""
    p = parse_program(PRELUDE + decls + "rules:\n" + rule + "\n")
    ev = compile_plan(p, p.rules[0].lhs.name, "demand")
    engine = SaturationEngine(p, [])
    return engine._drive(None, ev(engine, tuple(avs)))


def test_abstract_match():
    av = abstract(dt("true::[]"))
    decls = "fun m : list => bool * list\n"
    assert _matched(decls, "m (x::xs) -> (x, xs)", [av]) == {
        PairAV(Base(dt("true", BOOL)), Base(dt("[]")))}
    assert _matched(decls, "m [] -> (false, [])", [av]) == set()


def test_abstract_match_pair():
    t = Base(dt("true", BOOL))
    xs = Base(dt("[]"))
    decls = "fun f : (bool * list) => bool * list\n"
    assert _matched(decls, "f (x, ys) -> (x, ys)", [PairAV(t, xs)]) == {
        PairAV(t, xs)}


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


# -- generated plans: names and sizes the generated source must survive ------

def test_every_plan_compiles():
    # plans compile when their symbol is first called, so a symbol no other
    # test calls would hide a plan that does not compile
    generated = [("parity machine", compile_tm(tm_parity()).program),
                 ("bin 2 1 1", counting.gen_bincount(2, 1, 1).program),
                 ("nondet 2", gen_nondetcount(2).program)]
    for name, p in PROGRAMS + generated:
        for f in p.table.defined:
            assert callable(interp.compile_plan(p, f)), (name, f)
            for mode in ("demand", "eager"):
                assert callable(compile_plan(p, f, mode)), (name, f, mode)


def _agrees_with_enumeration(src, inputs, results=None):
    """Saturation equals the complete enumeration on each input."""
    p = parse_program(PRELUDE + src)
    for cs in inputs:
        res = eval_all(p, mk_call(p, "start", [cs]),
                       Budget(max_depth=1000, max_steps=100_000))
        sat = saturate(p, "start", [cs])
        assert res.complete and set(res.results) == sat, print_term(cs)
        if results is not None:
            assert {print_term(v) for v in sat} == results.pop(0)


def test_plan_python_keywords_as_names():
    inputs = [bits_term(b) for b in ("", "1", "10", "0110")]
    # defined symbols named like Python keywords and builtins
    _agrees_with_enumeration("""\
fun start : list => bool
fun def : list => bool
fun lambda : bool => bool => bool
fun x' : list => bool
fun __import__ : bool => bool
rules:
start cs -> def cs
def [] -> false
def (b::bs) -> lambda b (x' bs)
lambda true c -> __import__ c
lambda false c -> c
x' [] -> true
x' (b::bs) -> def bs
__import__ b -> b
""", inputs, [{"false"}, {"true"}, {"false"}, {"false"}])
    # and variables
    _agrees_with_enumeration("""\
fun start : list => bool
fun pick : bool => bool => bool
rules:
start [] -> false
start (def::lambda) -> pick def (start lambda)
pick x' __import__ -> x'
pick x' __import__ -> __import__
""", inputs, [{"false"}, {"true", "false"}, {"true", "false"},
              {"true", "false"}])


def test_plan_long_literal_pattern():
    bits = "1011001110" * 20
    cells = "::".join("true" if b == "1" else "false" for b in bits[:150])
    _agrees_with_enumeration("""\
fun start : list => bool
rules:
start "%s" -> true
start (%s::rest) -> false
start cs -> false
""" % (bits, cells), [bits_term(bits), bits_term(bits[:-1] + "1"),
                      bits_term(bits[:150]), bits_term("1")],
        [{"true", "false"}, {"false"}, {"false"}, {"false"}])


def test_plan_wide_application_of_calls():
    xs = " ".join("x%d" % i for i in range(25))
    calls = " ".join("(h%d cs)" % (i % 2) for i in range(25))
    _agrees_with_enumeration("""\
fun start : list => bool
fun big : %s => bool
fun h0 : list => bool
fun h1 : list => bool
rules:
start cs -> big %s
big %s -> x24
big true %s -> x1
h0 [] -> true
h0 (x::xs) -> x
h1 [] -> false
h1 (x::xs) -> true
h1 (x::xs) -> false
""" % (" => ".join(["bool"] * 25), calls, xs, xs.split(" ", 1)[1]),
        [bits_term(b) for b in ("", "0", "1")],
        [{"true", "false"}, {"false"}, {"true", "false"}])


def test_plan_deep_pair_on_the_right():
    # 300 pairs, each left component a call: the right of each pair is
    # evaluated only when its left has a value
    n = 300
    typ = " * ".join(["bool"] * (n + 1))
    for last, seen in (("g cs", 1), ("none cs", 0)):
        comps = ", ".join(["g cs"] * n + [last])
        p_src = """\
fun start : list => %s
fun g : list => bool
fun none : list => bool
rules:
start cs -> (%s)
g [] -> true
g (x::xs) -> x
none (x::xs) -> none xs
""" % (typ, comps)
        _agrees_with_enumeration(p_src, [bits_term("1"), bits_term("")])
        p = parse_program(PRELUDE + p_src)
        cs = bits_term("0")
        assert len(saturate(p, "start", [cs])) == seen
    # an empty left skips every query on its right
    p = parse_program(PRELUDE + p_src.replace("(g cs, ", "(none cs, ", 1))
    engine = SaturationEngine(p, [cs])
    assert engine.call_data("start", [cs]) == set()
    assert {f for f, _ in engine.table} == {"start", "none"}


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


class _Worklist(SaturationEngine):
    """The plain worklist: a query of a new key puts it on the queue and is
    sent its empty set, and the querying evaluation runs again when the key
    grows."""

    def _drive(self, rec, gen):
        res = None
        while True:
            try:
                q = gen.send(res)
            except StopIteration as stop:
                if rec is None:
                    return stop.value
                return self._confirm(rec, stop.value)
            res = self.table.get(q)
            if res is None:
                res = self._register(q)
                self._enqueue(res)
            if rec is not None:
                res.deps[rec.index] = None


def _solve_both(monkeypatch, solve):
    """(result, engine) of the local solver, then of the plain worklist,
    which `_goal` and `_chain_engine` build through this module's name."""
    local = solve()
    with monkeypatch.context() as m:
        m.setitem(globals(), "SaturationEngine", _Worklist)
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
        assert isinstance(worklist, _Worklist), label
        assert res == ref, label
        for key in local.table.keys() & worklist.table.keys():
            mine, theirs = local.table[key], worklist.table[key]
            assert mine == theirs or _same_downset(mine, theirs), (label, key)
        assert local.stats.evaluations <= worklist.stats.evaluations, label
        if label == "parity 111111":
            # what the plain worklist counted before the local solver came
            stats = worklist.stats
            assert (stats.keys, stats.evaluations) == (2218, 4568), stats


# -- statement records ----------------------------------------------------------

def test_a_query_hashes_its_key_once(monkeypatch):
    # the table maps each key to its record, and the frames, the worklist
    # and the dependants work on records.  An engine that hashed a key again
    # for each of its dicts made 38 654 Base and 40 626 PairAV hashes here
    cs = bits_term("111111")
    p, acs = compile_tm(tm_parity()).program, abstract(cs)
    counts = {Base: 0, PairAV: 0}
    for cls in counts:
        def counted(self, cls=cls, orig=cls.__hash__):
            counts[cls] += 1
            return orig(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    engine = SaturationEngine(p, [cs])
    engine.call("start", (acs,))
    assert engine.stats.keys == 2218
    assert counts[Base] <= 38_654 // 3 and counts[PairAV] <= 40_626 // 3, counts


def test_discarded_engine_leaves_no_cyclic_garbage():
    # dependants are held by registration index, so records never refer to
    # each other and an engine is freed by reference counting alone
    cm = gen_nondetcount(2)
    gc.collect()
    gc.disable()
    try:
        assert counting.chain_length_saturate(cm, 2) == 7
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the finished table is a fixpoint ------------------------------------------

def _assert_closed(engine, label):
    """Every key's plan, run once more with each query answered from the
    finished table, queries only known keys and returns nothing its key has
    not confirmed.  Results alone cannot show a key that missed its
    re-evaluation after a key it read grew; this check can."""
    table = engine.table
    size = len(table)
    for key, rec in list(table.items()):
        f, avs = key
        gen, res = engine._plans[f](engine, avs), None
        while True:
            try:
                q = gen.send(res)
            except StopIteration as stop:
                assert stop.value <= rec, (label, key)
                break
            res = table.get(q)
            assert res is not None, (label, key, q)
    assert len(table) == size, label


def test_finished_tables_are_closed_on_the_corpus():
    inputs = [""] + ["{:0{}b}".format(i, n) for n in (1, 2, 3)
                     for i in range(1 << n)]
    checked = 0
    for name, p in PROGRAMS:
        for b in inputs:
            cs = bits_term(b)
            for mode in ("demand", "eager"):
                try:  # eager mode seeds every key when the engine is built
                    engine = SaturationEngine(p, [cs], mode=mode)
                    engine.call("start", (abstract(cs),))
                except DomainCapExceeded:
                    assert mode == "eager", (name, b)
                    continue
                _assert_closed(engine, (name, b, mode))
                checked += 1
    assert checked > 2 * len(PROGRAMS) * len(inputs) - 20, checked


def test_finished_tables_are_closed_on_probes_and_chains():
    for name, p, _, ns in bitset_probe_programs():
        for n in ns:
            cs = counting.make_input(n)
            engine = SaturationEngine(p, [cs])
            engine.call("go", (abstract(cs),))
            _assert_closed(engine, (name, n))
    cs = bits_term("111111")
    engine = SaturationEngine(compile_tm(tm_parity()).program, [cs])
    engine.call("start", (abstract(cs),))
    _assert_closed(engine, "parity 111111")
    for label, cm, n, steps in (("bin 2 1 1", counting.gen_bincount(2, 1, 1), 2, 15),
                                ("nondet 2", gen_nondetcount(2), 3, 127)):
        walked, engine = _chain_engine(cm, n)
        assert walked == steps, label
        _assert_closed(engine, label)


def test_stack_safe_under_default_recursion_limit():
    # under Python's default recursion limit, more evaluations are nested
    # than the limit allows Python frames, and every key is evaluated once
    script = """\
import sys
import consfree.saturate as S
from consfree.counting import bits_term
from consfree.turing import compile_tm, simulate_tm, tm_parity
sys.setrecursionlimit(1000)

class Deepest(S.SaturationEngine):
    live = deepest = 0

    def _evaluation(self, rec):
        return self._counted(super()._evaluation(rec))

    def _counted(self, gen):
        self.live += 1
        self.deepest = max(self.deepest, self.live)
        try:
            return (yield from gen)
        finally:
            self.live -= 1

tm = tm_parity()
bits = "1" * 16
cs = bits_term(bits)
engine = Deepest(compile_tm(tm).program, [cs])
vals = engine.call("start", (S.abstract(cs),))
assert engine.deepest > 1000, engine.deepest
assert engine.stats.evaluations == engine.stats.keys == 24493, engine.stats
assert {S.concrete(v).name == "true" for v in vals} == {simulate_tm(tm, bits)[0]}
print("ok", engine.deepest, engine.stats.keys, engine.stats.evaluations)
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
    assert len(engine.table) == 50
    # the unfinished evaluations were queued again, so the engine can go on
    # once the cap is raised, and answers as a fresh engine does
    engine.key_cap = 2_000_000
    vals = engine.call("start", (abstract(cs),))
    assert {concrete(v).name for v in vals} == {"false"}
    assert engine.stats.keys == 951


class _Stop(Exception):
    pass


class _Fused(SaturationEngine):
    """Raises _Stop in the fuse-th evaluation, when it first runs."""

    fuse = 0

    def _evaluation(self, rec):
        gen = super()._evaluation(rec)
        self.fuse -= 1
        return self._stop() if self.fuse == 0 else gen

    def _stop(self):
        raise _Stop
        yield


def test_engine_answers_after_an_exception_in_any_evaluation():
    # loop_with_escape evaluates `start cs`, then `loop cs` nested in it,
    # then `loop cs` again from the worklist, as it queries itself: the
    # exception hits each of the three in turn
    p = BY_NAME["loop_with_escape"]
    cs = bits_term("1")
    fresh = SaturationEngine(p, [cs])
    want = fresh.call("start", (abstract(cs),))
    assert (fresh.stats.keys, fresh.stats.evaluations) == (2, 3)
    for fuse in (1, 2, 3):
        engine = _Fused(p, [cs])
        engine.fuse = fuse
        with pytest.raises(_Stop):
            engine.call("start", (abstract(cs),))
        assert engine.call("start", (abstract(cs),)) == want, fuse


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
