"""Abstract values of the saturation engine, and their int ids.

A sort is read over the base set B of data terms, a product over pairs
and an arrow over function graphs, sets of (argument, result) pairs; every
such domain is finite once B is known.  The engine's public methods take
and return these values as objects (`Base`, `PairAV`, `FunAV`).  Inside an
engine each value is a small int, its id in the engine's intern tables
(`Values`), which give equal values one id (hash-consing, Filliâtre &
Conchon 2006).  A data term is numbered by itself, a pair by its
components' ids, and a function by its graph: an int bitset over the
tables' index of (argument, result) entries.  So equal data are equal
ints, and one graph lies above another when it has every bit of the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import Pair, Product, Sort, Term, Type
from .parser import print_term


class DomainCapExceeded(Exception):
    """An abstract domain grew past the configured cap."""


# ---------------------------------------------------------------------------
# Value objects: what the engine's public methods take and return, and what
# `counting` and the CLI work with.  Hashing one is O(1): Base reuses its
# term's cached hash, and PairAV and FunAV cache the hash a dataclass would
# compute from their fields.  The engine's fixpoint neither hashes nor
# compares them: it works on ids, and converts a call's arguments and
# results at its boundary (`Values.from_public`, `Values.public`).

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
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.graph,)))

    def __hash__(self):
        return self._hash


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
    display, the domains `interpret_type` lists and `counting._pick` only;
    it never orders values that go into a set."""
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


def downset(av: AV, cap: int = 1_000_000) -> list:
    """The values below av."""
    values = Values()
    return [values.public(i) for i in values.downset(values.from_public(av), cap)]


# ---------------------------------------------------------------------------
# Interned values: the engine's ids

class Values:
    """The intern tables of one engine: every abstract value it meets, as
    an int id.  `node[i]` is value i made of ids:

    * a data term: (its constructor's name, its children's ids...), with
      the term itself in `terms[i]`;
    * a pair: (None, left, right);
    * a function: (bits, entries), where bit k stands for the (argument,
      result) entry `entry[k]` and entries lists the graph's entries in bit
      order.

    A data term gets its id from `ids` (keyed by the term), a pair from
    `pair_ids` (keyed by its components) and a function from `fun_ids`
    (keyed by its bits), so equal values have one id.  A data pair is a
    pair, under its term in `ids` too.  The base set B is `base` (its
    terms) and `base_ids`."""

    def __init__(self):
        self.node = []
        self.ids = {}       # data term -> id
        self.terms = {}     # id of a data term -> the term
        self.pair_ids = {}  # (left, right) -> id
        self.fun_ids = {}   # bits -> id
        self.entry = []     # bit -> (argument, result)
        self.entry_bit = {}  # (argument, result) -> bit
        self.base = []      # the terms of B, in the order they entered it
        self.base_ids = set()
        self.downsets = {}  # id -> the ids below it
        self.domains = {}   # type -> its domain, as ids
        self.pub = {}       # id -> its value object
        self.pub_ids = {}   # id() of a value object in pub -> its id

    def copy(self) -> "Values":
        """New tables holding the values of these."""
        new = Values()
        new.node, new.entry = list(self.node), list(self.entry)
        new.ids, new.terms = dict(self.ids), dict(self.terms)
        new.pair_ids, new.fun_ids = dict(self.pair_ids), dict(self.fun_ids)
        new.entry_bit = dict(self.entry_bit)
        new.base, new.base_ids = list(self.base), set(self.base_ids)
        return new

    # -- interning ------------------------------------------------------------

    def intern(self, roots, in_base=False) -> list:
        """The ids of the roots, data terms interned with their subterms
        (None for a root that is not data, whose data subterms are
        interned).  The walk goes in pre-order from an explicit stack, as a
        list is as deep as it is long, and does not enter a term already
        interned; a term gets its id when its children have theirs.  With
        in_base, every data term met enters B."""
        ids, node, terms = self.ids, self.node, self.terms
        vals = []  # the ids of the subterms finished so far
        stack = [(t, False) for t in reversed(roots)]
        while stack:
            t, done = stack.pop()
            if not done:
                if t._data:
                    i = ids.get(t)
                    if i is not None:
                        if in_base and i not in self.base_ids:
                            self._enter_base(i)
                        vals.append(i)
                        continue
                stack.append((t, True))
                if t.__class__ is Pair:
                    stack += ((t.right, False), (t.left, False))
                else:
                    stack += [(a, False) for a in reversed(t.args)]
                continue
            n = 2 if t.__class__ is Pair else len(t.args)
            kids = vals[len(vals) - n:]
            del vals[len(vals) - n:]
            if not t._data:
                vals.append(None)
                continue
            if t.__class__ is Pair:
                i = self.pair(*kids)
            else:
                i = len(node)
                node.append((t.name, *kids))
            ids[t] = i
            terms[i] = t
            if in_base:
                self.base.append(t)
                self.base_ids.add(i)
            vals.append(i)
        return vals

    def _enter_base(self, i):
        """Enter the interned data term i and its subterms into B."""
        stack = [i]
        while stack:
            i = stack.pop()
            if i not in self.base_ids:
                self.base_ids.add(i)
                self.base.append(self.terms[i])
                stack += self.node[i][1:]

    def pair(self, left, right) -> int:
        i = self.pair_ids.get((left, right))
        if i is None:
            i = self.pair_ids[(left, right)] = len(self.node)
            self.node.append((None, left, right))
        return i

    def fun(self, entries) -> int:
        """The function whose graph holds the given (argument, result)
        entries."""
        index, bits = self.entry_bit, 0
        for e in entries:
            k = index.get(e)
            if k is None:
                k = index[e] = len(self.entry)
                self.entry.append(e)
            bits |= 1 << k
        return self.fun_of_bits(bits)

    def fun_of_bits(self, bits) -> int:
        i = self.fun_ids.get(bits)
        if i is None:
            graph, b = [], bits
            while b:
                low = b & -b
                graph.append(self.entry[low.bit_length() - 1])
                b ^= low
            i = self.fun_ids[bits] = len(self.node)
            self.node.append((bits, tuple(graph)))
        return i

    # -- the algebra ----------------------------------------------------------

    def geq(self, a, b) -> bool:
        """a lies above b (both of one type): equal data, pairs
        componentwise, a graph with every entry of b's."""
        if a == b:
            return True
        na, nb = self.node[a], self.node[b]
        if na[0] is None:
            return self.geq(na[1], nb[1]) and self.geq(na[2], nb[2])
        if na[0].__class__ is int:
            return nb[0] & ~na[0] == 0
        return False

    def apply(self, funs, args) -> set:
        """The results of function ids applied to argument ids of an
        order-0 type, where lying above is being equal: an entry (A, O)
        fires when A is one of the arguments."""
        node, out = self.node, set()
        for g in funs:
            for a, o in node[g][1]:
                if a in args:
                    out.add(o)
        return out

    def apply_geq(self, funs, args) -> set:
        """The same for arguments of a higher type: an entry (A, O) fires
        when some argument lies above A."""
        node, out = self.node, set()
        heads = [node[v][0] for v in args]
        if heads and heads[0].__class__ is int:
            # graph arguments: one lies above A when A has no bit outside it
            outside = [~bits for bits in heads]
            for g in funs:
                for a, o in node[g][1]:
                    bits = node[a][0]
                    for m in outside:
                        if not bits & m:
                            out.add(o)
                            break
            return out
        geq = self.geq
        for g in funs:
            for a, o in node[g][1]:
                for v in args:
                    if geq(v, a):
                        out.add(o)
                        break
        return out

    def downset(self, i, cap) -> list:
        """The ids of the values below value i."""
        d = self.downsets.get(i)
        if d is None:
            n = self.node[i]
            if n[0] is None:
                d = [self.pair(a, b) for a in self.downset(n[1], cap)
                     for b in self.downset(n[2], cap)]
            elif n[0].__class__ is int:
                k = len(n[1])
                if k > 60 or 2 ** k > cap:
                    raise DomainCapExceeded("down-set of a %d-pair graph" % k)
                masks, b = [0], n[0]
                while b:
                    low = b & -b
                    masks += [m | low for m in masks]
                    b ^= low
                d = [self.fun_of_bits(m) for m in masks]
            else:
                d = [i]
            self.downsets[i] = d
        return d

    def domain(self, t: Type, cap: int) -> list:
        """The fully enumerated domain of a type, as ids: the terms of B
        of a sort in id order, the pairs of a product's domains, every
        graph below an arrow's full one.  Made once, under one cap."""
        d = self.domains.get(t)
        if d is None:
            if isinstance(t, Sort):  # terms holds a sort's terms in id order
                base = self.base_ids
                d = [i for i, u in self.terms.items() if u.type == t and i in base]
            elif isinstance(t, Product):
                d = [self.pair(a, b) for a, b in self._product(t, t.left, t.right, cap)]
            else:
                d = self.downset(self.fun(self._product(t, t.dom, t.cod, cap)), cap)
            self.domains[t] = d
        return d

    def _product(self, t, left, right, cap) -> list:
        ls, rs = self.domain(left, cap), self.domain(right, cap)
        if len(ls) * len(rs) > cap:
            raise DomainCapExceeded(
                "%d pairs at type %s (cap %d)" % (len(ls) * len(rs), t, cap))
        return [(a, b) for a in ls for b in rs]

    # -- value objects --------------------------------------------------------

    def public(self, i) -> AV:
        """The value object of id i, made once."""
        av = self.pub.get(i)
        if av is None:
            n = self.node[i]
            if n[0] is None:
                av = PairAV(self.public(n[1]), self.public(n[2]))
            elif n[0].__class__ is int:
                av = FunAV(frozenset((self.public(a), self.public(o))
                                     for a, o in n[1]))
            else:
                av = Base(self.terms[i])
            self.pub[i] = av
            self.pub_ids[id(av)] = i
        return av

    def from_public(self, av) -> int:
        """The id of a value object, interned if new.  An object `public`
        made is found by identity, without hashing it."""
        i = self.pub_ids.get(id(av))
        if i is not None and self.pub[i] is av:
            return i
        if av.__class__ is PairAV:
            return self.pair(self.from_public(av.left), self.from_public(av.right))
        if av.__class__ is FunAV:
            # entries new to the index are numbered in a fixed order, not in
            # the frozenset's
            return self.fun(sorted((self.from_public(a), self.from_public(o))
                                   for a, o in av.graph))
        i = self.ids.get(av.term)
        return self.intern([av.term])[0] if i is None else i


def interpret_type(t: Type, base, cap: int = 1_000_000) -> list:
    """The domain of a type over the base terms `base`, as value objects in
    `av_key` order, so every domain has a canonical order: a sort's base
    terms, the pairs of a product's domains, every graph below an arrow's
    full one.  For display and the public domain API; an engine lists its
    domains as ids (`Values.domain`)."""
    values = Values()
    values.base_ids.update(i for i in values.intern(list(base)) if i is not None)
    return sorted(map(values.public, values.domain(t, cap)), key=av_key)
