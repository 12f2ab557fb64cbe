"""Core language: simple types, terms, rules and programs.

Everything here is immutable after construction; all operations are pure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Union


class LangError(Exception):
    """Raised on ill-typed terms or malformed declarations."""

    def __init__(self, msg, pos=None):
        self.msg = msg
        self.pos = pos  # (line, col) or None
        super().__init__(msg if pos is None else "%d:%d: %s" % (pos[0], pos[1], msg))


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class Sort:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Product:
    left: "Type"
    right: "Type"

    def __str__(self):
        return "%s * %s" % (_paren(self.left, 1), _paren(self.right, 0))


@dataclass(frozen=True)
class Arrow:
    dom: "Type"
    cod: "Type"

    def __str__(self):
        return "%s => %s" % (_paren(self.dom, 0), str(self.cod))


Type = Union[Sort, Product, Arrow]


def _paren(t: Type, level: int) -> str:
    # level 0: parenthesize arrows; level 1: parenthesize arrows and products
    if isinstance(t, Arrow) or (level >= 1 and isinstance(t, Product)):
        return "(%s)" % t
    return str(t)


def type_order(t: Type) -> int:
    if isinstance(t, Sort):
        return 0
    if isinstance(t, Product):
        return max(type_order(t.left), type_order(t.right))
    return max(type_order(t.dom) + 1, type_order(t.cod))


def spine(t: Type) -> tuple[list[Type], Type]:
    """Flatten nested arrows: returns (argument types, final codomain)."""
    args = []
    while isinstance(t, Arrow):
        args.append(t.dom)
        t = t.cod
    return args, t


def arrow(args: list[Type], cod: Type) -> Type:
    for a in reversed(args):
        cod = Arrow(a, cod)
    return cod


def product(parts: list[Type]) -> Type:
    """Right-nested n-ary product."""
    if not parts:
        raise ValueError("empty product")
    t = parts[-1]
    for p in reversed(parts[:-1]):
        t = Product(p, t)
    return t


# ---------------------------------------------------------------------------
# Terms.  All terms carry their type.  Constructor applications (Con) are
# always fully applied; Fun/Var applications may be partial.
#
# Each term caches its hash, computed once from its children's cached hashes,
# so hashing is O(1) per node and never recurses.  The hash leaves out the
# type (fixed by the head and the arguments within a program) and hashes
# names with crc32, so it does not depend on PYTHONHASHSEED: set iteration
# order, and every count or trace that follows it, is the same under any
# seed.  Equality (`_term_eq`) compares with an explicit stack, so it does
# not recurse on term depth either.  Con and Pair also cache whether they
# are data (`_data`), from their children's flags; Fun and Var never are.

_NAME_HASH = {}  # name -> crc32 of the name; a pure memo


def _name_hash(name: str) -> int:
    h = _NAME_HASH.get(name)
    if h is None:
        h = _NAME_HASH[name] = zlib.crc32(name.encode())
    return h


def _term_eq(self, other):
    """Structural equality of two terms.  Identical subterms are skipped, a
    class or cached-hash mismatch rejects at once, and the remaining
    children are compared from an explicit stack, since a bit list is as
    deep as it is long."""
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = []
    a, b = self, other
    while True:
        if a._hash != b._hash or (a.type is not b.type and a.type != b.type):
            return False
        if a.__class__ is Pair:
            kids = ((a.left, b.left), (a.right, b.right))
        elif a.name != b.name or len(a.args) != len(b.args):
            return False
        else:
            kids = zip(a.args, b.args)
        for x, y in kids:
            if x is not y:
                if x.__class__ is not y.__class__:
                    return False
                stack.append((x, y))
        if not stack:
            return True
        a, b = stack.pop()


@dataclass(frozen=True, slots=True)
class Con:
    name: str
    args: tuple
    type: Type
    _hash: int = field(init=False, compare=False, repr=False)
    _data: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((1, _name_hash(self.name), self.args)))
        for a in self.args:
            if not a._data:
                object.__setattr__(self, "_data", False)
                break
        else:
            object.__setattr__(self, "_data", True)

    def __hash__(self):
        return self._hash

    __eq__ = _term_eq


@dataclass(frozen=True, slots=True)
class Fun:
    name: str
    args: tuple
    type: Type
    _hash: int = field(init=False, compare=False, repr=False)
    _data = False

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((2, _name_hash(self.name), self.args)))

    def __hash__(self):
        return self._hash

    __eq__ = _term_eq


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    args: tuple
    type: Type
    _hash: int = field(init=False, compare=False, repr=False)
    _data = False

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((3, _name_hash(self.name), self.args)))

    def __hash__(self):
        return self._hash

    __eq__ = _term_eq


@dataclass(frozen=True, slots=True)
class Pair:
    left: "Term"
    right: "Term"
    type: Type
    _hash: int = field(init=False, compare=False, repr=False)
    _data: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((4, self.left, self.right)))
        object.__setattr__(self, "_data", self.left._data and self.right._data)

    def __hash__(self):
        return self._hash

    __eq__ = _term_eq


Term = Union[Con, Fun, Var, Pair]


def nodes(s: Term):
    """s and its subterms in pre-order, left to right, from an explicit
    stack; the head of an application is not a subterm.  A subterm that
    occurs twice is visited twice."""
    stack = [s]
    while stack:
        t = stack.pop()
        yield t
        if t.__class__ is Pair:
            stack += (t.right, t.left)
        elif t.args:
            stack += reversed(t.args)


def drive(step, first):
    """The return value of the generator step(first).  A step yields the
    argument of each sub-step it needs and is sent back that sub-step's
    return value; suspended steps wait on an explicit stack, so how deep
    steps nest is not limited by Python's recursion limit."""
    frames, res = [step(first)], None
    while True:
        try:
            frames.append(step(frames[-1].send(res)))
            res = None
        except StopIteration as stop:
            frames.pop()
            if not frames:
                return stop.value
            res = stop.value


def subterms(s: Term) -> set:
    """Reflexive subterm closure; the head of an application is excluded."""
    return set(nodes(s))


def free_vars(s: Term) -> set:
    return {t.name for t in nodes(s) if t.__class__ is Var}


def is_data_term(s: Term) -> bool:
    """Ground term built only from constructors and pairs."""
    return s._data


def apply_term(s: Term, extra: tuple) -> Term:
    """Append arguments to an application (used for over-application)."""
    if not extra:
        return s
    t = s.type
    for _ in extra:
        if not isinstance(t, Arrow):
            raise LangError("cannot apply term of type %s" % s.type)
        t = t.cod
    if isinstance(s, Fun):
        return Fun(s.name, s.args + extra, t)
    if isinstance(s, Var):
        return Var(s.name, s.args + extra, t)
    raise LangError("cannot apply a %s" % type(s).__name__)


# ---------------------------------------------------------------------------
# Symbol tables and programs

@dataclass
class SymbolTable:
    sorts: set = field(default_factory=set)
    constructors: dict = field(default_factory=dict)  # name -> Type
    defined: dict = field(default_factory=dict)       # name -> Type

    def declare_sort(self, name, pos=None):
        if name in self.sorts:
            raise LangError("duplicate sort %r" % name, pos)
        self.sorts.add(name)

    def declare_con(self, name, typ, pos=None):
        self._fresh(name, pos)
        args, cod = spine(typ)
        if not isinstance(cod, Sort):
            raise LangError("constructor %r must target a sort" % name, pos)
        for a in args:
            if type_order(a) != 0:
                raise LangError(
                    "constructor %r takes an argument of order > 0" % name, pos)
        self._check_sorts(typ, pos)
        self.constructors[name] = typ

    def declare_fun(self, name, typ, pos=None):
        self._fresh(name, pos)
        self._check_sorts(typ, pos)
        self.defined[name] = typ

    def _fresh(self, name, pos):
        if name in self.constructors or name in self.defined:
            raise LangError("duplicate symbol %r" % name, pos)

    def _check_sorts(self, typ, pos):
        if isinstance(typ, Sort):
            if typ.name not in self.sorts:
                raise LangError("unknown sort %r" % typ.name, pos)
        elif isinstance(typ, Product):
            self._check_sorts(typ.left, pos)
            self._check_sorts(typ.right, pos)
        else:
            self._check_sorts(typ.dom, pos)
            self._check_sorts(typ.cod, pos)


@dataclass
class Rule:
    lhs: Term
    rhs: Term
    var_types: dict  # name -> Type


@dataclass
class Program:
    table: SymbolTable
    rules: list
    arity: dict = field(default_factory=dict)  # defined name -> nat
    _by_head: dict = field(init=False, repr=False, compare=False)
    # generated evaluators by reading ("enumerate" for the enumerator, the
    # saturation engine's "demand" and "eager") and symbol, compiled when a
    # symbol is first evaluated
    _plans: dict = field(init=False, repr=False, compare=False)
    # whether the program is cons-free, once the saturation engine has asked
    _cons_free: Optional[bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._plans = {}
        self._cons_free = None
        self._by_head = {}
        for r in self.rules:
            self._by_head.setdefault(r.lhs.name, []).append(r)

    def rules_for(self, name) -> list:
        """The rules whose left-hand side has head `name`, in program order."""
        return self._by_head.get(name, [])


def make_program(table: SymbolTable, rules: list) -> Program:
    """Assemble a program, checking rule consistency and assigning arities."""
    arity = {}
    for r in rules:
        f = r.lhs.name
        k = len(r.lhs.args)
        if f in arity and arity[f] != k:
            raise LangError(
                "inconsistent rules: %r used with %d and %d arguments"
                % (f, arity[f], k))
        arity[f] = k
    for f, typ in table.defined.items():
        if f not in arity:
            arity[f] = len(spine(typ)[0])
    return Program(table, rules, arity)


# ---------------------------------------------------------------------------
# Raw (untyped) terms, produced by the parser, and the type checker

@dataclass
class RawApp:
    head: str
    args: list
    pos: Optional[tuple] = None


@dataclass
class RawPair:
    left: "Raw"
    right: "Raw"
    pos: Optional[tuple] = None


Raw = Union[RawApp, RawPair]


def type_check(table: SymbolTable, raw: Raw, var_types: dict,
               expected: Optional[Type] = None) -> Term:
    """Resolve identifiers against the table and compute the unique type.

    var_types gives the (already determined) types of the rule's variables;
    unknown identifiers are an error here.
    """
    term = _check(table, raw, var_types)
    if expected is not None and term.type != expected:
        raise LangError(
            "expected type %s, found %s" % (expected, term.type),
            getattr(raw, "pos", None))
    return term


def _check(table, raw, var_types):
    """Type-check raw children first, from an explicit stack, since a list
    is as deep as it is long.  Errors come in the order a left-to-right,
    children-first walk meets them."""
    done = []  # checked terms of the finished children, in order
    stack = [(raw, False)]
    while stack:
        r, ready = stack.pop()
        pair = isinstance(r, RawPair)
        if not ready:
            stack.append((r, True))
            kids = (r.left, r.right) if pair else r.args
            stack += [(k, False) for k in reversed(kids)]
            continue
        n = 2 if pair else len(r.args)
        args = done[len(done) - n:]
        del done[len(done) - n:]
        if pair:
            l, rt = args
            done.append(Pair(l, rt, Product(l.type, rt.type)))
        else:
            done.append(_check_app(table, r, args, var_types))
    return done[0]


def _check_app(table, raw, args, var_types):
    name = raw.head
    if name in table.constructors:
        typ = table.constructors[name]
        arg_types, cod = spine(typ)
        if len(args) != len(arg_types):
            raise LangError(
                "constructor %r expects %d arguments, got %d"
                % (name, len(arg_types), len(args)), raw.pos)
        _check_args(name, args, arg_types, raw.pos)
        return Con(name, tuple(args), cod)
    if name in table.defined:
        typ = table.defined[name]
        return _apply(Fun, name, typ, args, raw.pos)
    if name in var_types:
        return _apply(Var, name, var_types[name], args, raw.pos)
    raise LangError("unknown identifier %r" % name, raw.pos)


def _apply(ctor, name, typ, args, pos):
    arg_types, _ = spine(typ)
    if len(args) > len(arg_types):
        raise LangError("%r applied to too many arguments" % name, pos)
    _check_args(name, args, arg_types[: len(args)], pos)
    t = typ
    for _ in args:
        t = t.cod
    return ctor(name, tuple(args), t)


def _check_args(name, args, arg_types, pos):
    for i, (a, t) in enumerate(zip(args, arg_types)):
        if a.type != t:
            raise LangError(
                "argument %d of %r has type %s, expected %s"
                % (i + 1, name, a.type, t), pos)


# ---------------------------------------------------------------------------
# Rule well-formedness: conditions (a)-(e)

def check_rule(table: SymbolTable, lhs: Term, rhs: Term) -> list:
    """Returns a list of (letter, message) pairs, empty when well-formed."""
    violations = []
    if not isinstance(lhs, Fun):
        violations.append(("a", "left-hand side head is not a defined symbol"))
        return violations
    for pat in lhs.args:
        bad = _non_pattern(pat)
        if bad is not None:
            violations.append(("b", bad))
    for v, n in _var_counts(lhs).items():
        if n > 1:
            violations.append(("c", "variable %r occurs %d times in the left-hand side" % (v, n)))
    extra = free_vars(rhs) - free_vars(lhs)
    if extra:
        violations.append(("d", "right-hand side uses unbound variables: %s"
                           % ", ".join(sorted(extra))))
    if lhs.type != rhs.type:
        violations.append(("e", "left-hand side has type %s, right-hand side %s"
                           % (lhs.type, rhs.type)))
    return violations


def _non_pattern(pat):
    """The leftmost reason why pat is not a pattern, or None."""
    for t in nodes(pat):
        if t.__class__ is Fun:
            return "defined symbol %r occurs in a pattern" % t.name
        if t.__class__ is Var and t.args:
            return "applied variable %r in a pattern" % t.name
    return None


def _var_counts(s) -> dict:
    counts = {}
    for t in nodes(s):
        if t.__class__ is Var:
            counts[t.name] = counts.get(t.name, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Data order and values

def data_order(p: Program) -> int:
    orders = [0]
    for typ in p.table.defined.values():
        args, _ = spine(typ)
        orders.extend(type_order(a) for a in args)
    for r in p.rules:
        orders.extend(type_order(t) for t in r.var_types.values())
    return max(orders)


def is_value(p: Program, s: Term) -> bool:
    """Data, an under-applied function whose arguments are values, or a pair
    of values.  Constructor arguments have order-0 types, so a value under a
    constructor is data; the pairs and closures above it are walked from an
    explicit stack, since closures can nest as deep as a derivation."""
    if s._data:
        return True
    stack = [s]
    while stack:
        t = stack.pop()
        if t._data:
            continue
        if t.__class__ is Pair:
            stack += (t.left, t.right)
        elif t.__class__ is Fun and len(t.args) < p.arity[t.name]:
            stack += t.args
        else:
            return False
    return True
