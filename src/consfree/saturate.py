"""Terminating all-results evaluation by statement saturation.

Values are abstracted into finite domains: base data terms for sorts,
pairs componentwise, and function graphs (sets of argument/result pairs)
for arrows.  Claims `f A1 ... Am ~ O` are confirmed monotonically to a
fixpoint; the data results of the goal call are read off the table.

A key `(f, avs)` is evaluated by a generated evaluator, one per defined
symbol and mode (`compile_plan`): the source of one Python function that
matches all of f's rules against the arguments and evaluates their
right-hand sides, compiled when f is first evaluated and kept on the
`Program`.  Two modes are two variants of that plan:

* demand   -- only statements reachable from the goal are materialized,
              and only maximal abstract values are propagated.  Down-set
              slack is recovered at application sites, which compare
              function-graph arguments up to the superset order.
* eager    -- the paper's literal algorithm, kept as the reference: demand
              mode plus two things.  Every statement over the fully
              enumerated domains is seeded when the engine is built, and
              the plan closes the values of a higher-order variable or a
              closure under down-sets.  Only feasible for small base sets
              and low data order.

The fixpoint is solved locally, top-down (Le Charlier & Van Hentenryck
1992; Fecht & Seidl 1999): a statement key is evaluated when it is first
queried, and the caller gets its value rather than an empty set.  A plan is
a generator that yields each key it queries, so evaluations nest as frames
on one explicit stack (`SaturationEngine._drive`), at any depth and without
Python recursion.  Whenever a key's confirmed set grows, the worklist
re-evaluates the keys that queried it, which keeps cyclic dependencies
sound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

from .analysis import allowed_data_terms, is_cons_free
from .lang import (
    Con, LangError, Pair, Product, Program, Sort, Term, Type, Var, drive,
    spine, type_order,
)
from .parser import print_term
from .plan import PlanWriter


class DomainCapExceeded(Exception):
    """An abstract domain grew past the configured cap."""


class SaturationPrecondition(Exception):
    """The program or call does not meet the algorithm's preconditions."""


# ---------------------------------------------------------------------------
# Abstract values.  Hashing is O(1): Base reuses its term's cached hash,
# PairAV caches one built from its components' hashes, and FunAV's frozenset
# caches its own.

@dataclass(frozen=True, slots=True)
class Base:
    term: Term  # sort-typed data term

    def __hash__(self):
        return self.term._hash


@dataclass(frozen=True, slots=True)
class PairAV:
    left: "AV"
    right: "AV"
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class FunAV:
    graph: frozenset  # of (AV, AV) pairs


AV = object


def abstract(d: Term) -> AV:
    """Data term -> abstract value."""
    if isinstance(d, Pair):
        return PairAV(abstract(d.left), abstract(d.right))
    return Base(d)


def concrete(av: AV) -> Term:
    if isinstance(av, Base):
        return av.term
    if isinstance(av, PairAV):
        l, r = concrete(av.left), concrete(av.right)
        return Pair(l, r, Product(l.type, r.type))
    raise ValueError("no data term for a function value")


def geq(a: AV, b: AV) -> bool:
    if a is b:
        return True
    if isinstance(a, Base) and isinstance(b, Base):
        return a == b
    if isinstance(a, PairAV) and isinstance(b, PairAV):
        return geq(a.left, b.left) and geq(a.right, b.right)
    if isinstance(a, FunAV) and isinstance(b, FunAV):
        return a.graph >= b.graph
    return False


def av_key(av: AV):
    """Total order on abstract values, built by printing them.  It is for
    display, the domains `interpret_type` enumerates and `counting._pick`
    only; it never orders values that go into a set."""
    if isinstance(av, Base):
        return (0, print_term(av.term))
    if isinstance(av, PairAV):
        return (1, av_key(av.left), av_key(av.right))
    return (2, len(av.graph), sorted((av_key(a), av_key(b)) for a, b in av.graph))


def print_av(av: AV) -> str:
    if isinstance(av, Base):
        return print_term(av.term)
    if isinstance(av, PairAV):
        return "(%s, %s)" % (print_av(av.left), print_av(av.right))
    pairs = sorted(av.graph, key=lambda p: (av_key(p[0]), av_key(p[1])))
    return "{%s}" % "; ".join("%s -> %s" % (print_av(a), print_av(b))
                              for a, b in pairs)


# ---------------------------------------------------------------------------
# Base set and type interpretation

# the engine's base set B, under the name the benchmark's tracer wraps
build_base = allowed_data_terms


def interpret_type(t: Type, base, cap: int = 1_000_000) -> list:
    """Fully enumerated abstract domain for a type: a sort's base terms,
    the pairs of a product's domains, every graph below an arrow's full one.
    A sort's terms are listed in `av_key` order, so every domain has a
    canonical order."""
    if isinstance(t, Sort):
        return sorted((Base(d) for d in base if d.type == t), key=av_key)
    if isinstance(t, Product):
        return [PairAV(a, b) for a, b in _pairs(t, t.left, t.right, base, cap)]
    return downset(FunAV(frozenset(_pairs(t, t.dom, t.cod, base, cap))), cap)


def _pairs(t, left, right, base, cap) -> list:
    ls, rs = interpret_type(left, base, cap), interpret_type(right, base, cap)
    if len(ls) * len(rs) > cap:
        raise DomainCapExceeded(
            "%d pairs at type %s (cap %d)" % (len(ls) * len(rs), t, cap))
    return [(a, b) for a in ls for b in rs]


def _subsets(items):
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return [frozenset(s) for s in out]


def downset(av: AV, cap: int = 1_000_000) -> list:
    if isinstance(av, Base):
        return [av]
    if isinstance(av, PairAV):
        return [PairAV(a, b)
                for a in downset(av.left, cap) for b in downset(av.right, cap)]
    if len(av.graph) > 60 or 2 ** len(av.graph) > cap:
        raise DomainCapExceeded("down-set of a %d-pair graph" % len(av.graph))
    return [FunAV(s) for s in _subsets(av.graph)]


# ---------------------------------------------------------------------------
# Rule plans: one generated evaluator per defined symbol
#
# `compile_plan` writes the source of one generator function `ev(engine,
# avs)` for all the rules of a symbol and compiles it (see `consfree.plan`).
# A rule's patterns become class and name tests on the arguments that bind
# each variable to a local, and its right-hand side becomes straight-line
# code that yields the keys it queries in the order the rules' semantics
# fixes: arguments left to right, every argument's set built before their
# product, the first argument outermost, and the right of a pair only when
# its left has a value.  The order of queries also follows the iteration
# order of each set of values, which depends on the operations that built
# the set, so every set is built one fixed way: a comprehension for a pair,
# `set()` and `|=` per argument combination for a call, `|=` per rule for
# the result.  The counters pinned in `tests/test_determinism.py` hold the
# plans to that.

_ONE, _SET = "one", "set"  # a subject's values: one value, or a set of them


def apply_values(funs, arg_values) -> set:
    """Apply confirmed function values to confirmed argument values.
    A graph entry (A, O) fires when some argument value dominates A."""
    args = list(arg_values)
    out = set()
    for g in funs:
        if not isinstance(g, FunAV):
            raise LangError("applying a non-function abstract value")
        for a, o in g.graph:
            for v in args:
                if geq(v, a):
                    out.add(o)
                    break
    return out


def compile_plan(p: Program, f: str, mode: str):
    """The evaluator of f's rules: `ev(engine, avs)` is a generator that
    yields each key it queries, is sent back that key's confirmed set, and
    returns the values confirmed now for the key (f, avs), where avs holds
    at least arity(f) values.  In eager mode the plan closes the values of
    higher-order variables and of closures under down-sets."""
    return _Plan(p, mode == "eager").build(f)


def _iterable(kind, x) -> str:
    return x if kind is _SET else "(%s,)" % x


class _Plan(PlanWriter):
    """Writes and compiles the saturation evaluator of one symbol's rules."""

    def __init__(self, p: Program, eager: bool):
        super().__init__(p, {"Base": Base, "PairAV": PairAV, "FunAV": FunAV,
                             "abstract": abstract, "ap": apply_values,
                             "downset": downset, "product": product})
        self.eager = eager

    def build(self, f: str):
        k = self.p.arity[f]
        over = len(spine(self.p.table.defined[f])[0]) > k
        body = []
        for rule in self.p.rules_for(f):
            body += self.rule(rule, over)
        head = ["def ev(engine, avs):", "    out = set()"]
        head += ["    a%d = avs[%d]" % (i, i) for i in range(k)]
        if over:  # keys may carry arguments past the rules' own
            head.append("    extra = avs[%d:]" % k)
        # the bare yield is never reached: ev is a generator even if no rule
        # queries a key
        return self.compile(head + body + ["    return out", "    yield", ""])

    # -- one rule -------------------------------------------------------------

    def rule(self, rule, over) -> list:
        """The lines of one rule: the guards that match its patterns, then
        its right-hand side, inside a `while True` that a failed guard
        leaves by `break`."""
        self.var_types = rule.var_types
        self.vars = {}    # variable -> (local, whether it holds an AV)
        self.nodes = {}   # pattern node -> (local, whether it holds an AV)
        self.avs = {}     # term local -> local holding its AV
        self.used = set()  # variables used outside a right-hand Con
        stack = [rule.rhs]
        while stack:
            t = stack.pop()
            if t.__class__ is Pair:
                stack += (t.left, t.right)
            elif t.__class__ is not Con:
                stack += t.args
                if t.__class__ is Var:
                    self.used.add(t.name)
        self.match_lines, self.prologue, self.lines = [], [], []
        for i, pat in enumerate(rule.lhs.args):
            self.match(pat, "a%d" % i, True)
        guarded = any(line.startswith("if ") for line in self.match_lines)
        self.indent = "        " if guarded else "    "
        self.guard = None
        kind, x = self.subject(rule.rhs)
        if kind is _ONE:
            x = "{%s}" % x
        if over:
            r = self.fresh("r")
            self.emit("%s = %s" % (r, x), "for e in extra:",
                      "    %s = ap(%s, (e,))" % (r, r))
            x = r
        self.emit("out |= %s" % x)
        pre = [self.indent + line for line in self.match_lines + self.prologue]
        if not guarded:
            return pre + self.lines
        return ["    while True:"] + pre + self.lines + ["        break"]

    def emit(self, *block):
        """Append a statement (a line and the indented lines of its body)
        under the current guard."""
        indent = self.indent
        if self.guard is not None:
            self.lines.append(indent + "if %s:" % self.guard)
            indent += "    "
        self.lines += [indent + line for line in block]

    def av(self, loc, at_av, typ) -> str:
        """A local holding the abstract value of what loc holds."""
        if at_av:
            return loc
        v = self.avs.get(loc)
        if v is None:
            v = self.avs[loc] = self.fresh("v")
            wrap = "abstract" if isinstance(typ, Product) else "Base"
            self.prologue.append("%s = %s(%s)" % (v, wrap, loc))
        return v

    # -- right-hand sides -----------------------------------------------------

    def subject(self, s):
        """Emit the code for s; returns (_ONE, a local or constant holding
        its only value) or (_SET, a local holding the set of its values).
        Each subterm's code is written by a `_subject` step that yields the
        subterms it needs, so a deeply nested right-hand side does not
        recurse."""
        return drive(self._subject, s)

    def _subject(self, s):
        cls = s.__class__
        if s._data:  # ground data, built once
            return _ONE, self.const(abstract(s))
        if cls is Con:  # in a cons-free program, a subterm of the left-hand side
            loc, at_av = self.nodes[s]
            return _ONE, self.av(loc, at_av, s.type)
        if cls is Var:
            typ = self.var_types[s.name]
            v = self.av(*self.vars[s.name], typ)
            if not s.args:
                if self.eager and type_order(typ) > 0:
                    r = self.fresh("r")
                    self.emit("%s = set(downset(%s, engine.cap))" % (r, v))
                    return _SET, r
                return _ONE, v
            r, funs = self.fresh("r"), "(%s,)" % v
            for a in s.args:
                self.emit("%s = ap(%s, %s)" % (r, funs, _iterable(*(yield a))))
                funs = r
            return _SET, r
        if cls is Pair:
            return (yield from self.pair(s))
        return (yield from self.call(s))

    def pair(self, s):
        lk, left = yield s.left
        if lk is _ONE:
            rk, right = yield s.right
            r = self.fresh("r")
            if rk is _ONE:
                self.emit("%s = PairAV(%s, %s)" % (r, left, right))
                return _ONE, r
            self.emit("%s = {PairAV(x, y) for x, y in product((%s,), %s)}"
                      % (r, left, right))
            return _SET, r
        # the right is evaluated only when the left has a value: a flag,
        # set outside every guard, guards each statement of the right
        g, outer = self.fresh("g"), self.guard
        self.lines.append(self.indent + "%s = %sbool(%s)" % (
            g, "" if outer is None else outer + " and ", left))
        self.guard = g
        right = _iterable(*(yield s.right))
        self.guard = outer
        r = self.fresh("r")
        self.emit("%s = {PairAV(x, y) for x, y in product(%s, %s)} if %s else set()"
                  % (r, left, right, g))
        return _SET, r

    def call(self, s):
        """A defined-symbol application: from arity(f) arguments on it
        reduces and each result is a separate value; below it, it is a
        closure."""
        args = []
        for a in s.args:
            args.append((yield a))
        f, r = self.const(s.name), self.fresh("r")
        if all(kind is _ONE for kind, _ in args):
            key, loop = "(%s)" % "".join(x + ", " for _, x in args), None
        else:
            key = "c"
            loop = "for c in product(%s):" % ", ".join(
                _iterable(kind, x) for kind, x in args)
        if len(s.args) >= self.p.arity[s.name]:
            vals = "(yield (%s, %s))" % (f, key)
        else:
            arg_types = self.const(tuple(spine(self.p.table.defined[s.name])[0]))
            if self.eager:
                vals = "(yield from engine._partial_values(%s, %s, %s))" % (
                    f, key, arg_types)
            else:
                gm = "FunAV((yield from engine._gmax(%s, %s, %s)))" % (
                    f, key, arg_types)
                if loop is None:
                    self.emit("%s = %s" % (r, gm))
                    return _ONE, r
                vals = "{%s}" % gm
        if loop is None:
            self.emit("%s = set(%s)" % (r, vals))
        else:
            self.emit("%s = set()" % r)
            self.emit(loop, "    %s |= %s" % (r, vals))
        return _SET, r


# ---------------------------------------------------------------------------
# The engine

@dataclass
class SaturationStats:
    base_size: int = 0
    keys: int = 0
    confirmed: int = 0
    evaluations: int = 0
    passes: int = 0

    def to_records(self):
        return {
            "base_size": str(self.base_size),
            "statement_keys": str(self.keys),
            "confirmed_statements": str(self.confirmed),
            "evaluations": str(self.evaluations),
        }


class SaturationEngine:
    """Monotone statement-confirmation fixpoint over abstract values.

    One engine instance is tied to a program and the inputs its base set
    was built from; `call` may be invoked repeatedly (the table persists
    and only ever grows)."""

    def __init__(self, program: Program, inputs, mode: str = "demand",
                 domain_cap: int = 200_000, key_cap: int = 2_000_000):
        if mode not in ("demand", "eager"):
            raise ValueError("mode must be 'demand' or 'eager'")
        if not is_cons_free(program)[0]:
            raise SaturationPrecondition("program is not cons-free")
        self.p = program
        self.mode = mode
        self.cap = domain_cap
        self.key_cap = key_cap
        self.base = build_base(program, inputs)
        self.stats = SaturationStats(base_size=len(self.base))
        self.table = {}    # (f, avs) -> set of AV
        self.deps = {}     # key -> keys to re-evaluate when it grows, in an
                           # insertion-ordered dict: a set of keys would
                           # iterate in an order set by PYTHONHASHSEED
        self.queue = deque()
        self.queued = set()
        self._domains = {}
        self._plans = program._plans.setdefault(mode, {})  # symbol -> ev
        if mode == "eager":
            self._seed_all()

    # -- domains ----------------------------------------------------------

    def domain(self, t: Type) -> list:
        if t not in self._domains:
            self._domains[t] = interpret_type(t, self.base, self.cap)
        return self._domains[t]

    # -- public entry points ----------------------------------------------

    def call(self, fname: str, avs) -> set:
        """Saturate and return the confirmed result values of f applied to
        the given abstract arguments (must saturate the full arity)."""
        if fname not in self.p.table.defined:
            raise SaturationPrecondition("unknown defined symbol %r" % fname)
        arg_types, cod = spine(self.p.table.defined[fname])
        if len(avs) != len(arg_types):
            raise SaturationPrecondition(
                "%r expects %d arguments, got %d"
                % (fname, len(arg_types), len(avs)))
        if type_order(cod) != 0:
            raise SaturationPrecondition(
                "result type %s of %r has order > 0" % (cod, fname))
        return self._solve((fname, tuple(avs)))

    def eval_call(self, fname: str, avs) -> set:
        """Confirmed values of f applied to abstract arguments.  Unlike
        `call` the application may be partial, in which case the results
        are function values."""
        if fname not in self.p.table.defined:
            raise SaturationPrecondition("unknown defined symbol %r" % fname)
        arg_types, _ = spine(self.p.table.defined[fname])
        avs = tuple(avs)
        if len(avs) > len(arg_types):
            raise SaturationPrecondition(
                "%r takes at most %d arguments, got %d"
                % (fname, len(arg_types), len(avs)))
        if len(avs) >= self.p.arity[fname]:
            return self._solve((fname, avs))
        # the closure's graph ranges over fixed domains, so the second read
        # opens no key and sees every key at its fixpoint
        self._drive(None, self._partial_values(fname, avs, arg_types))
        self._run()
        return self._drive(None, self._partial_values(fname, avs, arg_types))

    def call_data(self, fname: str, inputs) -> set:
        """Goal call on data arguments; returns a set of data terms."""
        avs = tuple(abstract(v) for v in inputs)
        return {concrete(av) for av in self.call(fname, avs)}

    def statements(self):
        """(f, arguments, claim, mark) per table statement.  A claim of an
        order-0 type lists its whole domain, each value marked "confirmed"
        or "unconfirmed".  A claim of a higher type lists only its maximal
        confirmed values, marked "maximal": each stands for its down-set,
        and that type's whole domain may be past the cap."""
        for (f, avs), confirmed in sorted(
                self.table.items(), key=lambda kv: (kv[0][0], [av_key(a) for a in kv[0][1]])):
            cod = _result_type(self.p.table.defined[f], len(avs))
            if type_order(cod) == 0:
                for o in self.domain(cod):
                    yield (f, avs, o, "confirmed" if o in confirmed else "unconfirmed")
                continue
            tops = []  # the confirmed values no other confirmed value is above
            for o in confirmed:
                if not any(geq(w, o) for w in tops):
                    tops = [w for w in tops if not geq(o, w)] + [o]
            for o in sorted(tops, key=av_key):
                yield (f, avs, o, "maximal")

    # -- worklist ----------------------------------------------------------

    def _seed_all(self):
        for f, typ in self.p.table.defined.items():
            arg_types, cod = spine(typ)
            if type_order(cod) != 0:
                raise SaturationPrecondition(
                    "result type %s of %r has order > 0" % (cod, f))
            combos = [()]
            for j, t in enumerate(arg_types):
                if j >= self.p.arity[f]:
                    for c in combos:
                        self._enqueue((f, c))
                dom = self.domain(t)
                combos = [c + (a,) for c in combos for a in dom]
            for c in combos:
                self._enqueue((f, c))

    def _solve(self, key) -> set:
        if key not in self.table:
            self._register(key)
            self._drive(key, self._evaluation(key))
        self._run()
        return set(self.table[key])

    def _register(self, key):
        if len(self.table) >= self.key_cap:
            raise DomainCapExceeded(
                "statement table exceeded %d keys" % self.key_cap)
        self.table[key] = set()
        self.deps[key] = {}
        self.stats.keys += 1

    def _enqueue(self, key):
        if key not in self.table:
            self._register(key)
        if key not in self.queued:
            self.queued.add(key)
            self.queue.append(key)

    def _run(self):
        while self.queue:
            key = self.queue.popleft()
            self.queued.discard(key)
            self._drive(key, self._evaluation(key))
        self.stats.passes += 1

    # -- statement confirmation --------------------------------------------

    def _drive(self, key, gen):
        """Run gen, the evaluation of key (None: a read that is no key's
        evaluation), and return its result.  Evaluations are frames on an
        explicit stack.  A query of a known key, even one on the stack, is
        sent that key's set as it stands, and the querying key becomes its
        dependant.  A new key's frame is pushed; when it ends, its results
        are confirmed, the caller is sent its set and only then becomes a
        dependant, so this first growth does not re-queue the caller.  An
        exception (a cap, an interrupt) re-queues every keyed frame it
        leaves unfinished, so a later call evaluates those keys again."""
        table, deps = self.table, self.deps
        frames, res = [(key, gen)], None
        try:
            while True:
                top, gen = frames[-1]
                try:
                    q = gen.send(res)
                except StopIteration as stop:
                    frames.pop()
                    if top is None:  # only the first frame may have no key
                        return stop.value
                    res = self._confirm(top, stop.value)
                    if not frames:
                        return res
                    if frames[-1][0] is not None:
                        deps[top][frames[-1][0]] = None
                    continue
                res = table.get(q)
                if res is None:
                    self._register(q)
                    frames.append((q, self._evaluation(q)))
                elif top is not None:
                    deps[q][top] = None
        except BaseException:
            for k, _ in frames:
                if k is not None:
                    self._enqueue(k)
            raise

    def _evaluation(self, key):
        # keys carry at least arity(f) arguments, so every rule applies to a
        # prefix and any remaining arguments are fed to the resulting graphs
        f, avs = key
        ev = self._plans.get(f)
        if ev is None:
            ev = self._plans[f] = compile_plan(self.p, f, self.mode)
        self.stats.evaluations += 1
        return ev(self, avs)

    def _confirm(self, key, new):
        old = self.table[key]
        if not new <= old:
            self.stats.confirmed += len(new - old)
            old |= new
            for dep in self.deps[key]:
                self._enqueue(dep)
        return old

    def _partial_values(self, f, avs, arg_types):
        """The values of the closure f avs: its maximal graph, and in eager
        mode every graph below it.  It and `_gmax` are generators that
        query keys as a plan does."""
        g = FunAV((yield from self._gmax(f, avs, arg_types)))
        if self.mode == "eager":
            return set(downset(g, self.cap))
        return {g}

    def _gmax(self, f, avs, arg_types):
        """Maximal graph of the closure f avs (with fewer than arity(f)
        arguments captured): all (A, w) with w a confirmed result of
        f avs A -- or a nested closure graph while still under arity."""
        n = len(avs)
        next_dom = self.domain(arg_types[n])
        graph = set()
        for a in next_dom:
            if n + 1 >= self.p.arity[f]:
                ws = yield (f, avs + (a,))
            else:
                ws = yield from self._partial_values(f, avs + (a,), arg_types)
            graph.update((a, w) for w in ws)
        return frozenset(graph)


def _result_type(typ, n):
    t = typ
    for _ in range(n):
        t = t.cod
    return t


# ---------------------------------------------------------------------------
# Convenience wrappers

def saturate(p: Program, fname: str, inputs, mode: str = "demand",
             domain_cap: int = 200_000) -> set:
    """All data terms derivable from f applied to the given data inputs."""
    engine = SaturationEngine(p, inputs, mode=mode, domain_cap=domain_cap)
    return engine.call_data(fname, inputs)
