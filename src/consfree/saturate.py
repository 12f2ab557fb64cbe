"""Terminating all-results evaluation by statement saturation.

Values are abstracted into finite domains: base data terms for sorts,
pairs componentwise, and function graphs (sets of argument/result pairs)
for arrows.  Claims `f A1 ... Am ~ O` are confirmed monotonically to a
fixpoint; the data results of the goal call are read off the table.

Two modes share one engine:

* demand   -- only statements reachable from the goal are materialized,
              and only maximal abstract values are propagated.  Down-set
              slack is recovered at application sites, which compare
              function-graph arguments up to the superset order.
* eager    -- the paper's literal algorithm, kept as the reference: demand
              mode plus two things.  Every statement over the fully
              enumerated domains is seeded when the engine is built, and
              the values of a variable subject or a closure are closed
              under down-sets (`_close`).  Only feasible for small base
              sets and low data order.

The fixpoint is solved locally, top-down (Le Charlier & Van Hentenryck
1992; Fecht & Seidl 1999): a statement key is evaluated when it is first
queried, nested inside the evaluation that queried it, and the caller gets
its value rather than an empty set.  Nesting is bounded
(`MAX_NESTED_EVALUATIONS`); past the bound a new key goes on the worklist.
Whenever a key's confirmed set grows, the worklist re-evaluates the keys
that queried it, which keeps cyclic dependencies sound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .analysis import allowed_data_terms, is_cons_free
from .lang import (
    Con, LangError, Pair, Product, Program, Sort, Term, Type, Var, spine,
    type_order,
)
from .parser import print_term


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
# Abstract pattern matching

def abstract_match(patterns, avs) -> list:
    """All substitutions (at most one: patterns are linear) mapping the
    pattern variables to abstract values with pattern*subst == value."""
    subst = {}
    for pat, av in zip(patterns, avs):
        if not _amatch(pat, av, subst):
            return []
    return [subst]


def _amatch(pat, av, subst):
    if isinstance(pat, Var):
        subst[pat.name] = av
        return True
    if isinstance(pat, Con):
        if not isinstance(av, Base):
            return False
        d = av.term
        if not isinstance(d, Con) or d.name != pat.name:
            return False
        return all(_amatch(p, abstract(a), subst)
                   for p, a in zip(pat.args, d.args))
    if isinstance(pat, Pair):
        return (isinstance(av, PairAV)
                and _amatch(pat.left, av.left, subst)
                and _amatch(pat.right, av.right, subst))
    return False


# ---------------------------------------------------------------------------
# The engine

# A new key is solved in place, nested inside the evaluation that queried it,
# while fewer than this many evaluations are nested; deeper new keys go on the
# worklist instead, so the nesting does not grow with the input.  One level
# costs 4 to 6 Python frames (_query, _evaluate, _eval_key and the walk over
# the rule's right-hand side, measured on the compiled TM programs and the
# counting chains), so 40 levels take about 240 frames, well below Python's
# default recursion limit of 1000.
MAX_NESTED_EVALUATIONS = 40


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
        self.current = None  # key under evaluation, the dependant of queries
        self.depth = 0       # evaluations nested on the Python stack
        self._domains = {}
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
        self._partial_values(fname, avs, arg_types)
        self._run()
        return self._partial_values(fname, avs, arg_types)

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
        self._query(key)
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
            self._evaluate(key)
        self.stats.passes += 1

    def _evaluate(self, key):
        prev = self.current
        self.current = key
        self.depth += 1
        self.stats.evaluations += 1
        try:
            new = self._eval_key(key)
        finally:
            self.current = prev
            self.depth -= 1
        old = self.table[key]
        if not new <= old:
            self.stats.confirmed += len(new - old)
            old |= new
            for dep in self.deps[key]:
                self._enqueue(dep)

    def _query(self, key):
        vals = self.table.get(key)
        if vals is None:
            if self.depth < MAX_NESTED_EVALUATIONS:
                # solve a new key on the spot and hand the caller its value;
                # the caller becomes a dependant afterwards, so this first
                # growth does not re-queue it
                self._register(key)
                self._evaluate(key)
            else:
                self._enqueue(key)
            vals = self.table[key]
        if self.current is not None:
            self.deps[key][self.current] = None
        return vals

    # -- statement confirmation --------------------------------------------

    def _eval_key(self, key):
        # keys carry at least arity(f) arguments, so every rule applies to a
        # prefix and any remaining arguments are fed to the resulting graphs
        f, avs = key
        n = len(avs)
        out = set()
        for rule in self.p.rules_for(f):
            k = len(rule.lhs.args)
            if k > n:
                continue
            for subst in abstract_match(rule.lhs.args, avs[:k]):
                vals = self._subject_values(rule.rhs, subst)
                for extra in avs[k:]:
                    vals = self._apply_values(vals, [extra])
                out |= vals
        return out

    def _subject_values(self, s: Term, subst: dict) -> set:
        """All claims confirmed (now) for the subject s under subst."""
        if isinstance(s, Var):
            if not s.args:
                return self._close(subst[s.name])
            vals = {subst[s.name]}
            for a in s.args:
                vals = self._apply_values(vals, self._subject_values(a, subst))
            return vals
        if isinstance(s, Pair):
            return {PairAV(l, r)
                    for l in self._subject_values(s.left, subst)
                    for r in self._subject_values(s.right, subst)}
        if isinstance(s, Con):
            combos = [()]
            for a in s.args:
                vs = self._subject_values(a, subst)
                combos = [c + (concrete(v),) for c in combos for v in vs]
            return {Base(Con(s.name, c, s.type)) for c in combos}
        # defined-symbol application: below arity(f) it is a closure value,
        # from arity(f) on it reduces and each result is a separate value
        arg_types, _ = spine(self.p.table.defined[s.name])
        arity = self.p.arity[s.name]
        combos = [()]
        for a in s.args:
            vs = self._subject_values(a, subst)
            combos = [c + (v,) for c in combos for v in vs]
        out = set()
        for c in combos:
            if len(c) >= arity:
                out |= self._query((s.name, c))
            else:
                out |= self._partial_values(s.name, c, arg_types)
        return out

    def _apply_values(self, funs, arg_values) -> set:
        """Apply confirmed function values to confirmed argument values.
        A graph entry (A, O) fires when some argument value dominates A."""
        args = list(arg_values)
        out = set()
        for g in funs:
            if not isinstance(g, FunAV):
                raise LangError("applying a non-function abstract value")
            for a, o in g.graph:
                if any(geq(v, a) for v in args):
                    out.add(o)
        return out

    def _close(self, av) -> set:
        """The values a variable subject or a closure stands for: every
        value below av in eager mode, av alone in demand mode."""
        if self.mode == "eager":
            return set(downset(av, self.cap))
        return {av}

    def _partial_values(self, f, avs, arg_types) -> set:
        return self._close(FunAV(self._gmax(f, avs, arg_types)))

    def _gmax(self, f, avs, arg_types) -> frozenset:
        """Maximal graph of the closure f avs (with fewer than arity(f)
        arguments captured): all (A, w) with w a confirmed result of
        f avs A -- or a nested closure graph while still under arity."""
        n = len(avs)
        next_dom = self.domain(arg_types[n])
        graph = set()
        for a in next_dom:
            if n + 1 >= self.p.arity[f]:
                for w in self._query((f, avs + (a,))):
                    graph.add((a, w))
            else:
                for w in self._partial_values(f, avs + (a,), arg_types):
                    graph.add((a, w))
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
