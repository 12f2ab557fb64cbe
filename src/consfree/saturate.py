"""Terminating all-results evaluation by statement saturation.

Values are abstracted into finite domains: base data terms for sorts,
pairs componentwise, and function graphs (sets of argument/result pairs)
for arrows (`consfree.values`).  Claims `f A1 ... Am ~ O` are confirmed
monotonically to a fixpoint; the data results of the goal call are read
off the table.

Inside an engine every abstract value is a small int, its id in the
engine's intern tables (`values.Values`).  A data term gets its id in the
walk that builds the base set B (`build_base`), a pair from its
components' ids, and a function value from its graph, an int bitset.  So
a statement key is a symbol and a tuple of ints, a confirmed set is a set
of ints, data are compared as ints and graphs as bitsets.  The public
methods (`call`, `eval_call`, `call_data`, `statements`) take and return
value objects (`Base`, `PairAV`, `FunAV`), converted once per call; the
fixpoint never hashes or compares one.

A key `(f, ids)` is evaluated by a generated evaluator, one per defined
symbol and mode (`compile_plan`): the source of one Python function that
matches all of f's rules against the arguments and evaluates their
right-hand sides, compiled when f is first evaluated and kept on the
`Program`.  The program's own ground data get the first ids in every
engine, so a plan holds them as int constants.  Two modes are two variants
of that plan:

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

The table maps each key to its statement record (`Statement`): the
confirmed set itself, with the key, its registration index and its
dependants.  A queried key is hashed once to find its record, and a new
key once more to insert it; the frames, the worklist and confirmation
then work on records.  Dependants are held by registration index, not as
records, so records never refer to each other and a discarded engine is
freed by reference counting alone, with no cycles for the collector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .analysis import is_cons_free
from .lang import Con, Pair, Program, Type, Var, drive, spine, type_order
from .plan import PlanWriter
from .values import DomainCapExceeded, Values, abstract, av_key, concrete


class SaturationPrecondition(Exception):
    """The program or call does not meet the algorithm's preconditions."""


def _program_values(p: Program) -> Values:
    """The tables every engine on p starts from: p's own ground data,
    interned once per program and kept with its plans, which hold these
    ids as constants.  The right-hand sides' data are in B; the ground
    patterns follow, and enter B only when an input holds them."""
    values = p._plans.get("values")
    if values is None:
        values = p._plans["values"] = Values()
        values.intern([rule.rhs for rule in p.rules], True)
        values.intern([a for rule in p.rules for a in rule.lhs.args])
    return values


def build_base(p: Program, inputs, values: Values = None) -> list:
    """The base set B: the data subterms of the inputs and of p's
    right-hand sides, as a list of terms.  B is subterm-closed, and in a
    cons-free program every data term of every derivation lies in it.  The
    walk that builds it gives each term its id in `values` (new tables for
    p when None), so building B costs one lookup per term and none inside
    a term already in it, even when inputs share equal subterms built
    apart."""
    if values is None:
        values = _program_values(p).copy()
    values.intern(list(inputs), True)
    return values.base


# ---------------------------------------------------------------------------
# Rule plans: one generated evaluator per defined symbol
#
# `compile_plan` writes the source of one generator function `ev(engine,
# avs)` for all the rules of a symbol and compiles it (see `consfree.plan`).
# A rule's patterns become comparisons and name tests on the arguments' ids
# that bind each variable to a local, and its right-hand side becomes
# straight-line code that yields the keys it queries in the order the
# rules' semantics fixes: arguments left to right, every argument's set
# built before their product, the first argument outermost, and the right
# of a pair only when its left has a value.  The order of queries also
# follows the iteration order of each set of values, which depends on the
# operations that built the set, so every set is built one fixed way: a
# comprehension for a pair, `set()` and `|=` per argument combination for a
# call, `|=` per rule for the result.  The counters pinned in
# `tests/test_determinism.py` hold the plans to that.

_ONE, _SET = "one", "set"  # a subject's values: one value, or a set of them

# what a plan's head binds from the engine's `Values`, when the plan uses it
_TABLES = (("NODE", "node"), ("pair", "pair"), ("ap", "apply"),
           ("apg", "apply_geq"))


def compile_plan(p: Program, f: str, mode: str):
    """The evaluator of f's rules: `ev(engine, avs)` is a generator that
    yields each key it queries, is sent back that key's confirmed set, and
    returns the values confirmed now for the key (f, avs), where avs holds
    the ids of at least arity(f) values.  In eager mode the plan closes the
    values of higher-order variables and of closures under down-sets."""
    return _Plan(p, mode == "eager").build(f)


def _iterable(kind, x) -> str:
    return x if kind is _SET else "(%s,)" % x


class _Plan(PlanWriter):
    """Writes and compiles the saturation evaluator of one symbol's rules."""

    def __init__(self, p: Program, eager: bool):
        super().__init__(p, {"product": product})
        self.eager = eager
        self.ids = _program_values(p).ids

    def data_id(self, t) -> int:
        return self.ids[t]

    def build(self, f: str):
        k = self.p.arity[f]
        arg_types = spine(self.p.table.defined[f])[0]
        over = len(arg_types) > k
        # the arguments past the rules' own are applied one at a time
        self.extra_ap = self.ap(*arg_types[k:]) if over else None
        body = []
        for rule in self.p.rules_for(f):
            body += self.rule(rule, over)
        head = ["def ev(engine, avs):", "    out = set()"]
        if self.needs:
            head.append("    V = engine.values")
        head += ["    %s = V.%s" % table for table in _TABLES if table[0] in self.needs]
        head += ["    a%d = avs[%d]" % (i, i) for i in range(k)]
        if over:  # keys may carry arguments past the rules' own
            head.append("    extra = avs[%d:]" % k)
        # the bare yield is never reached: ev is a generator even if no rule
        # queries a key
        return self.compile(head + body + ["    return out", "    yield", ""])

    def ap(self, *arg_types) -> str:
        """The application of graphs to arguments of these types."""
        name = "apg" if any(type_order(t) > 0 for t in arg_types) else "ap"
        self.needs.add(name)
        return name

    # -- one rule -------------------------------------------------------------

    def rule(self, rule, over) -> list:
        """The lines of one rule: the guards that match its patterns, then
        its right-hand side, inside a `while True` that a failed guard
        leaves by `break`."""
        self.var_types = rule.var_types
        self.vars = {}    # variable -> (local holding its id, True)
        self.nodes = {}   # pattern node -> (local holding its id, True)
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
        self.match_lines, self.lines = [], []
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
                      "    %s = %s(%s, (e,))" % (r, self.extra_ap, r))
            x = r
        self.emit("out |= %s" % x)
        pre = [self.indent + line for line in self.match_lines]
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

    # -- right-hand sides -----------------------------------------------------

    def subject(self, s):
        """Emit the code for s; returns (_ONE, a local or constant holding
        the id of its only value) or (_SET, a local holding the set of its
        values' ids).  Each subterm's code is written by a `_subject` step
        that yields the subterms it needs, so a deeply nested right-hand
        side does not recurse."""
        return drive(self._subject, s)

    def _subject(self, s):
        cls = s.__class__
        if s._data:  # ground data: its id, the same in every engine
            return _ONE, str(self.data_id(s))
        if cls is Var:
            typ = self.var_types[s.name]
            v = self.vars[s.name][0]
            if not s.args:
                if self.eager and type_order(typ) > 0:
                    r = self.fresh("r")
                    self.needs.add("V")
                    self.emit("%s = set(V.downset(%s, engine.cap))" % (r, v))
                    return _SET, r
                return _ONE, v
            r, funs = self.fresh("r"), "(%s,)" % v
            for a, t in zip(s.args, spine(typ)[0]):
                args = _iterable(*(yield a))
                self.emit("%s = %s(%s, %s)" % (r, self.ap(t), funs, args))
                funs = r
            return _SET, r
        if cls is Con:  # in a cons-free program, a subterm of the left-hand side
            return _ONE, self.nodes[s][0]
        if cls is Pair:
            return (yield from self.pair(s))
        return (yield from self.call(s))

    def pair(self, s):
        self.needs.add("pair")
        lk, left = yield s.left
        if lk is _ONE:
            rk, right = yield s.right
            r = self.fresh("r")
            if rk is _ONE:
                self.emit("%s = pair(%s, %s)" % (r, left, right))
                return _ONE, r
            self.emit("%s = {pair(x, y) for x, y in product((%s,), %s)}"
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
        self.emit("%s = {pair(x, y) for x, y in product(%s, %s)} if %s else set()"
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
                gm = "(yield from engine._gmax(%s, %s, %s))" % (f, key, arg_types)
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


class Statement(set):
    """The record of one statement key: the set of its confirmed values' ids
    (the record is that set), the key, its registration index and its
    dependants, the indices of the keys to re-evaluate when the set grows.
    The dependants sit in an insertion-ordered dict, so they are re-queued
    in the order they first read the key, the order the pinned counters
    follow (a set of indices would iterate by value).  Indices, not
    records, keep records from referring to each other."""

    __slots__ = ("key", "index", "deps", "queued")

    def __init__(self, key, index):
        self.key = key
        self.index = index
        self.deps = {}        # index of a dependant -> None
        self.queued = False   # on the worklist


class SaturationEngine:
    """Monotone statement-confirmation fixpoint over abstract values.

    One engine instance is tied to a program and the inputs its base set
    was built from; `call` may be invoked repeatedly (the table persists
    and only ever grows)."""

    def __init__(self, program: Program, inputs, mode: str = "demand",
                 domain_cap: int = 200_000, key_cap: int = 2_000_000):
        if mode not in ("demand", "eager"):
            raise ValueError("mode must be 'demand' or 'eager'")
        if program._cons_free is None:
            program._cons_free = is_cons_free(program)[0]
        if not program._cons_free:
            raise SaturationPrecondition("program is not cons-free")
        self.p = program
        self.mode = mode
        self.cap = domain_cap
        self.key_cap = key_cap
        self.values = _program_values(program).copy()
        self.base = build_base(program, inputs, self.values)
        self.stats = SaturationStats(base_size=len(self.base))
        self.table = {}    # (f, ids) -> its Statement
        self.stmts = []    # registration index -> Statement
        self.queue = deque()  # Statements to re-evaluate, each at most once
        self._display = {}  # type -> its domain, as ids in av_key order
        self._plans = program._plans.setdefault(mode, {})  # symbol -> ev
        if mode == "eager":
            self._seed_all()

    # -- domains ----------------------------------------------------------

    def domain(self, t: Type) -> list:
        """The domain of a type, as value objects in `av_key` order."""
        return [self.values.public(i) for i in self._shown(t)]

    def _shown(self, t: Type) -> list:
        """The domain of a type, as ids in `av_key` order, for display."""
        shown = self._display.get(t)
        if shown is None:
            public = self.values.public
            shown = self._display[t] = sorted(
                self.values.domain(t, self.cap), key=lambda i: av_key(public(i)))
        return shown

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
        values = self.values
        rec = self._solve((fname, tuple(map(values.from_public, avs))))
        return set(map(values.public, rec))

    def eval_call(self, fname: str, avs) -> set:
        """Confirmed values of f applied to abstract arguments.  Unlike
        `call` the application may be partial, in which case the results
        are function values."""
        if fname not in self.p.table.defined:
            raise SaturationPrecondition("unknown defined symbol %r" % fname)
        arg_types, _ = spine(self.p.table.defined[fname])
        values = self.values
        avs = tuple(map(values.from_public, avs))
        if len(avs) > len(arg_types):
            raise SaturationPrecondition(
                "%r takes at most %d arguments, got %d"
                % (fname, len(arg_types), len(avs)))
        if len(avs) >= self.p.arity[fname]:
            return set(map(values.public, self._solve((fname, avs))))
        # the closure's graph ranges over fixed domains, so the second read
        # opens no key and sees every key at its fixpoint
        self._drive(None, self._partial_values(fname, avs, arg_types))
        self._run()
        vals = self._drive(None, self._partial_values(fname, avs, arg_types))
        return set(map(values.public, vals))

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
        values = self.values
        public = values.public
        rows = sorted(((f, tuple(map(public, avs)), rec)
                       for (f, avs), rec in self.table.items()),
                      key=lambda row: (row[0], [av_key(a) for a in row[1]]))
        for f, avs, confirmed in rows:
            cod = _result_type(self.p.table.defined[f], len(avs))
            if type_order(cod) == 0:
                for o in self._shown(cod):
                    yield (f, avs, public(o),
                           "confirmed" if o in confirmed else "unconfirmed")
                continue
            tops = []  # the confirmed values no other confirmed value is above
            for o in confirmed:
                if not any(values.geq(w, o) for w in tops):
                    tops = [w for w in tops if not values.geq(o, w)] + [o]
            for o in sorted(map(public, tops), key=av_key):
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
                        self._enqueue(self._register((f, c)))
                dom = self.values.domain(t, self.cap)
                combos = [c + (a,) for c in combos for a in dom]
            for c in combos:
                self._enqueue(self._register((f, c)))

    def _solve(self, key) -> Statement:
        rec = self.table.get(key)
        if rec is None:
            rec = self._register(key)
            self._drive(rec, self._evaluation(rec))
        self._run()
        return rec

    def _register(self, key) -> Statement:
        """The record of a key not in the table, entered in it."""
        stmts = self.stmts
        if len(stmts) >= self.key_cap:
            raise DomainCapExceeded(
                "statement table exceeded %d keys" % self.key_cap)
        rec = self.table[key] = Statement(key, len(stmts))
        stmts.append(rec)
        self.stats.keys += 1
        return rec

    def _enqueue(self, rec):
        if not rec.queued:
            rec.queued = True
            self.queue.append(rec)

    def _run(self):
        queue = self.queue
        while queue:
            rec = queue.popleft()
            rec.queued = False
            self._drive(rec, self._evaluation(rec))
        self.stats.passes += 1

    # -- statement confirmation --------------------------------------------

    def _drive(self, rec, gen):
        """Run gen, the evaluation of rec's key (rec None: a read that is no
        key's evaluation), and return its result.  Evaluations are frames
        on an explicit stack.  A query of a known key, even one on the
        stack, is sent that key's record as it stands, and the querying key
        becomes its dependant.  A new key's frame is pushed; when it ends,
        its results are confirmed, the caller is sent its record and only
        then becomes a dependant, so this first growth does not re-queue
        the caller.  An exception (a cap, an interrupt) re-queues every
        keyed frame it leaves unfinished, so a later call evaluates those
        keys again."""
        table = self.table
        frames, res = [(rec, gen)], None
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
                    caller = frames[-1][0]
                    if caller is not None:
                        res.deps[caller.index] = None
                    continue
                res = table.get(q)
                if res is None:  # sent None: the new frame starts
                    new = self._register(q)
                    frames.append((new, self._evaluation(new)))
                elif top is not None:
                    res.deps[top.index] = None
        except BaseException:
            for r, _ in frames:
                if r is not None:
                    self._enqueue(r)
            raise

    def _evaluation(self, rec):
        # keys carry at least arity(f) arguments, so every rule applies to a
        # prefix and any remaining arguments are fed to the resulting graphs
        f, avs = rec.key
        ev = self._plans.get(f)
        if ev is None:
            ev = self._plans[f] = compile_plan(self.p, f, self.mode)
        self.stats.evaluations += 1
        return ev(self, avs)

    def _confirm(self, rec, new):
        if not new <= rec:
            self.stats.confirmed += len(new - rec)
            rec |= new
            stmts = self.stmts
            for i in rec.deps:
                self._enqueue(stmts[i])
        return rec

    def _partial_values(self, f, avs, arg_types):
        """The values of the closure f avs: its maximal graph, and in eager
        mode every graph below it.  It and `_gmax` are generators that
        query keys as a plan does."""
        g = yield from self._gmax(f, avs, arg_types)
        if self.mode == "eager":
            return set(self.values.downset(g, self.cap))
        return {g}

    def _gmax(self, f, avs, arg_types):
        """Maximal graph of the closure f avs (with fewer than arity(f)
        arguments captured): all (A, w) with w a confirmed result of
        f avs A -- or a nested closure graph while still under arity."""
        n = len(avs)
        entries = []
        for a in self.values.domain(arg_types[n], self.cap):
            if n + 1 >= self.p.arity[f]:
                ws = yield (f, avs + (a,))
            else:
                ws = yield from self._partial_values(f, avs + (a,), arg_types)
            entries += [(a, w) for w in ws]
        return self.values.fun(entries)


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
