"""Exact-arithmetic ReLU networks, stored as atom DAGs, and a circuit builder.

An Rfnn reads `input_width` inputs, the atoms 0 .. input_width - 1.  Every
entry of `layers` but the last is a level of ReLU atoms, numbered on from
the last atom of the level before: each row is an integer affine form over
atoms of earlier levels, inputs included, and its atom is the ReLU of that
form.  The last entry holds the output rows, affine forms without a ReLU
over any atom.  Rows are stored sparsely, as (atom, coefficient) pairs.

The CircuitBuilder lets the compiler write arithmetic over named inputs
(linear combinations plus explicit relu nodes, hash-consed) and emits every
relu node it built as such a network, each at its depth: one more than the
deepest atom it reads.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple


class Rfnn(NamedTuple):
    """`layers` is ((rows, bias), ...), one entry per level and the outputs
    last.  A row is a tuple of (atom, coef) pairs: only nonzero
    coefficients, in increasing atom order."""

    layers: tuple
    input_width: int


def rfnn_eval(f: Rfnn, x) -> list:
    """Exact evaluation over integers or Fractions."""
    v = list(x)
    if len(v) != f.input_width:
        raise ValueError(f"input width {len(v)}, network reads {f.input_width}")
    last = len(f.layers) - 1
    for li, (rows, b) in enumerate(f.layers):
        z = [sum(c * v[j] for j, c in row) + bi for row, bi in zip(rows, b)]
        if li == last:
            return z
        v += [max(0, a) for a in z]


# ---------------------------------------------------------------------------
# Circuit builder


class LinExpr:
    """Integer linear combination of atoms plus a constant."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict, const: int = 0):
        self.terms = terms
        self.const = const

    def __add__(self, other):
        if isinstance(other, int):
            return LinExpr(self.terms, self.const + other)
        t = dict(self.terms)
        for a, c in other.terms.items():
            t[a] = t.get(a, 0) + c
            if t[a] == 0:
                del t[a]
        return LinExpr(t, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return LinExpr({a: -c for a, c in self.terms.items()}, -self.const)

    def __sub__(self, other):
        if isinstance(other, int):
            return LinExpr(self.terms, self.const - other)
        return self + (-other)

    def __rsub__(self, other):  # int - expr
        return (-self) + other

    def key(self):
        return (tuple(sorted(self.terms.items())), self.const)


class CircuitBuilder:
    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        # atom i < n_inputs is input coordinate i; others are relu nodes
        self.relu_exprs: list[LinExpr] = []
        self.levels: list[int] = [0] * n_inputs
        self._relu_cache: dict = {}

    def inp(self, i: int) -> LinExpr:
        if not 0 <= i < self.n_inputs:
            raise ValueError(f"input {i} out of range")
        return LinExpr({i: 1})

    def const(self, c: int) -> LinExpr:
        return LinExpr({}, c)

    def relu(self, e: LinExpr) -> LinExpr:
        if not e.terms:
            return LinExpr({}, max(0, e.const))
        if e.const == 0 and len(e.terms) == 1:
            ((a, c),) = e.terms.items()
            if c == 1 and a >= self.n_inputs:  # a ReLU atom is its own ReLU
                return e
        key = e.key()
        aid = self._relu_cache.get(key)
        if aid is None:
            aid = self.n_inputs + len(self.relu_exprs)
            self.relu_exprs.append(e)
            self.levels.append(1 + max(self.levels[a] for a in e.terms))
            self._relu_cache[key] = aid
        return LinExpr({aid: 1})

    # -- boolean / arithmetic gates (arguments are 0/1 unless noted)

    def clip(self, e: LinExpr) -> LinExpr:
        """min(1, relu(x)) for any integer x."""
        return self.relu(e) - self.relu(e - 1)

    def band(self, *es) -> LinExpr:
        return self._gate(es, 1, lambda s: self.relu(s - (len(es) - 1)))

    def bor(self, *es) -> LinExpr:
        return self._gate(es, 0, self.clip)

    def _gate(self, es, empty: int, fire) -> LinExpr:
        """`empty` of no argument, the one argument itself, or `fire` of the sum."""
        if len(es) < 2:
            return es[0] if es else self.const(empty)
        return fire(sum(es[1:], es[0]))

    def eqb(self, a: LinExpr, b: LinExpr) -> LinExpr:
        """1 iff booleans a and b agree."""
        both = self.band(a, b)
        return 1 - a - b + both + both

    def geq_const(self, e: LinExpr, c: int) -> LinExpr:
        """1 iff natural-valued x >= c."""
        return self.clip(e - (c - 1))

    # -- emit as an Rfnn

    def build(self, outputs: list[LinExpr]) -> Rfnn:
        n_in = self.n_inputs
        # Atoms are numbered level by level after the inputs.  A relu atom's
        # deepest source is one level down, so no level is empty.
        groups = [[] for _ in range(max(self.levels[n_in:], default=0))]
        for a in range(n_in, len(self.levels)):
            groups[self.levels[a] - 1].append(a)
        atom = {a: i for i, a in enumerate(chain(range(n_in), *groups))}

        def level(es):
            rows = tuple(tuple(sorted((atom[a], c) for a, c in e.terms.items())) for e in es)
            return rows, tuple(e.const for e in es)

        exprs = [[self.relu_exprs[a - n_in] for a in g] for g in groups] + [outputs]
        return Rfnn(tuple(map(level, exprs)), n_in)


# ---------------------------------------------------------------------------
# Standalone gadget networks


def clip_net() -> Rfnn:
    b = CircuitBuilder(1)
    return b.build([b.clip(b.inp(0))])


def gt_net() -> Rfnn:
    b = CircuitBuilder(2)
    return b.build([b.clip(b.inp(0) - b.inp(1))])


def geq_net() -> Rfnn:
    b = CircuitBuilder(2)
    return b.build([1 - b.clip(b.inp(1) - b.inp(0))])


def and_net() -> Rfnn:
    b = CircuitBuilder(2)
    return b.build([b.band(b.inp(0), b.inp(1))])


def or_net() -> Rfnn:
    b = CircuitBuilder(2)
    return b.build([b.bor(b.inp(0), b.inp(1))])


def not_net() -> Rfnn:
    b = CircuitBuilder(1)
    return b.build([1 - b.inp(0)])


def mux_net() -> Rfnn:
    """(g, a, b) -> a if g else b, for boolean a, b."""
    b = CircuitBuilder(3)
    g, x, y = b.inp(0), b.inp(1), b.inp(2)
    return b.build([b.relu(x + g - 1) + b.relu(y - g)])
