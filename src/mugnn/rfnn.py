"""Exact-arithmetic ReLU networks, stored as atom DAGs, and a circuit builder.

An Rfnn reads `input_width` inputs, the atoms 0 .. input_width - 1.  Its rows
come in levels, `sizes[i]` rows in level i.  Every level but the last is a
level of ReLU atoms, numbered on from the last atom of the level before: each
row is an integer affine form over atoms of earlier levels, inputs included,
and its atom is the ReLU of that form.  The last level holds the output rows,
affine forms without a ReLU over any atom.

The whole network is one flat set of int64 arrays in compressed sparse row
form, the rows of all levels in order: row r has `nnz[r]` entries, the next
ones of `cols` (atoms, increasing within a row) and `coefs` (their nonzero
coefficients), and the bias `bias[r]`.  The builder, the model file's loader
and writer and the run's level program all read and write these arrays;
only `rfnn_eval`, which is exact, and the `layers` view go through Python ints.

The CircuitBuilder lets the compiler write arithmetic over named inputs
(linear combinations plus explicit relu nodes, hash-consed) and emits every
relu node it built as such a network, each at its depth: one more than the
deepest atom it reads.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np


class Rfnn(NamedTuple):
    """The network's flat arrays; see the module docstring.  The arrays make
    `==` between two networks ambiguous: compare the fields instead."""

    sizes: tuple         # rows per level, the outputs last
    nnz: np.ndarray      # entries per row
    cols: np.ndarray     # the atom of each entry
    coefs: np.ndarray    # the coefficient of each entry
    bias: np.ndarray     # per row
    input_width: int

    @property
    def layers(self) -> tuple:
        """The network as ((rows, bias), ...), one entry per level and the
        outputs last, each row a tuple of (atom, coef) pairs: a view in
        Python ints, built on each read.  Nothing in the package reads it;
        `bench/run.py` counts the network's shape from it."""
        pairs = list(zip(self.cols.tolist(), self.coefs.tolist()))
        at = list(accumulate(self.nnz.tolist(), initial=0))
        rows = [tuple(pairs[a:b]) for a, b in zip(at, at[1:])]
        bias, ends = self.bias.tolist(), list(accumulate(self.sizes, initial=0))
        return tuple((tuple(rows[a:b]), tuple(bias[a:b])) for a, b in zip(ends, ends[1:]))


def rfnn_eval(f: Rfnn, x) -> list:
    """Exact evaluation over integers or Fractions."""
    v = list(x)
    if len(v) != f.input_width:
        raise ValueError(f"input width {len(v)}, network reads {f.input_width}")
    cols, coefs, bias = f.cols.tolist(), f.coefs.tolist(), f.bias.tolist()
    at = list(accumulate(f.nnz.tolist(), initial=0))  # row r's entries are at[r]:at[r + 1]
    ends = list(accumulate(f.sizes, initial=0))  # level i's rows are ends[i]:ends[i + 1]
    last = len(f.sizes) - 1
    for li in range(last + 1):
        z = [sum(c * v[j] for j, c in zip(cols[at[r]:at[r + 1]], coefs[at[r]:at[r + 1]])) + bias[r]
             for r in range(ends[li], ends[li + 1])]
        if li == last:
            return z
        v += [max(0, a) for a in z]


# ---------------------------------------------------------------------------
# Circuit builder


class LinExpr:
    """Integer linear combination of atoms plus a constant; `terms` holds
    only nonzero coefficients and is never changed once built."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict, const: int = 0):
        self.terms = terms
        self.const = const

    def __add__(self, other):
        if isinstance(other, int):
            return LinExpr(self.terms, self.const + other)
        t = self.terms.copy()
        for a, c in other.terms.items():
            if c := t.get(a, 0) + c:
                t[a] = c
            else:
                del t[a]
        return LinExpr(t, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return LinExpr(self.terms, self.const - other)
        t = self.terms.copy()
        for a, c in other.terms.items():
            if c := t.get(a, 0) - c:
                t[a] = c
            else:
                del t[a]
        return LinExpr(t, self.const - other.const)

    def __rsub__(self, other):  # int - expr
        return LinExpr({a: -c for a, c in self.terms.items()}, other - self.const)


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

    def relu(self, e: LinExpr) -> LinExpr:
        terms, const, levels = e.terms, e.const, self.levels
        if not terms:
            return LinExpr({}, max(0, const))
        if const == 0 and len(terms) == 1:
            ((a, c),) = terms.items()
            if c == 1 and a >= self.n_inputs:  # a ReLU atom is its own ReLU
                return e
        key = (frozenset(terms.items()), const)  # canonical, with no sort
        aid = self._relu_cache.get(key)
        if aid is None:
            aid = self._relu_cache[key] = len(levels)
            self.relu_exprs.append(e)
            levels.append(1 + max(map(levels.__getitem__, terms)))
        return LinExpr({aid: 1})

    # -- boolean / arithmetic gates (arguments are 0/1 unless noted)

    def clip(self, e: LinExpr) -> LinExpr:
        """min(1, relu(x)) for any integer x."""
        return self.relu(e) - self.relu(e - 1)

    def band(self, *es) -> LinExpr:
        """1 of no argument, the one argument, or the ReLU of the sum less all but one."""
        if len(es) < 2:
            return es[0] if es else LinExpr({}, 1)
        return self.relu(sum(es[1:], es[0]) - (len(es) - 1))

    def bor(self, *es) -> LinExpr:
        """0 of no argument, the one argument, or the clip of the sum."""
        if len(es) < 2:
            return es[0] if es else LinExpr({}, 0)
        return self.clip(sum(es[1:], es[0]))

    def eqb(self, a: LinExpr, b: LinExpr) -> LinExpr:
        """1 iff booleans a and b agree."""
        both = self.band(a, b)
        return 1 - a - b + both + both

    # -- emit as an Rfnn

    def build(self, outputs: list[LinExpr]) -> Rfnn:
        """Raises OverflowError if a coefficient or constant is beyond int64."""
        n_in, n_atoms = self.n_inputs, len(self.levels)
        # Atoms are numbered level by level after the inputs, in the order
        # they were made within a level.  A relu atom's deepest source is one
        # level down, so no level is empty.
        depth = np.array(self.levels[n_in:], dtype=np.int64)
        made = np.argsort(depth, kind="stable")  # the relu atoms in level order
        atom = np.arange(n_atoms)  # the number of each atom the builder made
        atom[n_in + made] = np.arange(n_in, n_atoms)
        exprs = [*map(self.relu_exprs.__getitem__, made.tolist()), *outputs]
        terms = [e.terms for e in exprs]
        nnz = np.fromiter(map(len, terms), np.int64, len(terms))
        total = int(nnz.sum())
        cols = atom[np.fromiter(chain.from_iterable(terms), np.int64, total)]
        coefs = np.fromiter(chain.from_iterable(map(dict.values, terms)), np.int64, total)
        rows = np.arange(0, len(terms) * n_atoms, n_atoms).repeat(nnz)  # row times n_atoms
        order = np.argsort(rows + cols, kind="stable")  # by row, then atom
        return Rfnn(
            (*np.bincount(depth - 1).tolist(), len(outputs)), nnz, cols[order], coefs[order],
            np.array([e.const for e in exprs], np.int64), n_in,
        )


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
