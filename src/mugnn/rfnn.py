"""Exact-arithmetic ReLU feedforward networks and a circuit builder.

An Rfnn is a chain of integer affine layers with ReLU between consecutive
layers (not after the last).  The CircuitBuilder lets the compiler write
arithmetic over named inputs (linear combinations plus explicit relu
nodes, hash-consed) and then lays the resulting DAG out as an Rfnn:
each relu node gets a depth level, values still needed later are carried
forward through identity rows (safe because every carried value here is
nonnegative).  Rows are stored sparsely, as (column, coefficient) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rfnn:
    """`layers` is ((rows, bias), ...).  A row is a tuple of (col, coef)
    pairs over the previous layer's outputs (the network's inputs for the
    first layer): only nonzero coefficients, in increasing column order."""

    layers: tuple
    input_width: int


def rfnn_eval(f: Rfnn, x) -> list:
    """Exact evaluation; works for ints, Fractions, floats alike."""
    v = list(x)
    if len(v) != f.input_width:
        raise ValueError(f"input width {len(v)}, network reads {f.input_width}")
    last = len(f.layers) - 1
    for li, (rows, b) in enumerate(f.layers):
        v = [sum(c * v[j] for j, c in row) + bi for row, bi in zip(rows, b)]
        if li != last:
            v = [max(0, a) if not isinstance(a, float) else max(0.0, a) for a in v]
    return v


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

    def __mul__(self, c: int):
        if c == 0:
            return LinExpr({}, 0)
        return LinExpr({a: co * c for a, co in self.terms.items()}, self.const * c)

    __rmul__ = __mul__

    def key(self):
        return (tuple(sorted(self.terms.items())), self.const)


class CircuitBuilder:
    def __init__(self, n_inputs: int, nonneg_inputs: bool = True):
        self.n_inputs = n_inputs
        self.nonneg_inputs = nonneg_inputs
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
        es = [e for e in es]
        if not es:
            return self.const(1)
        if len(es) == 1:
            return es[0]
        s = es[0]
        for e in es[1:]:
            s = s + e
        return self.relu(s - (len(es) - 1))

    def bor(self, *es) -> LinExpr:
        if not es:
            return self.const(0)
        if len(es) == 1:
            return es[0]
        s = es[0]
        for e in es[1:]:
            s = s + e
        return self.clip(s)

    def bnot(self, e: LinExpr) -> LinExpr:
        return 1 - e

    def eqb(self, a: LinExpr, b: LinExpr) -> LinExpr:
        """1 iff booleans a and b agree."""
        return 1 - a - b + 2 * self.band(a, b)

    def geq_const(self, e: LinExpr, c: int) -> LinExpr:
        """1 iff natural-valued x >= c."""
        return self.clip(e - (c - 1))

    def exmux(self, default: LinExpr, cases) -> LinExpr:
        """Select among boolean values by mutually exclusive boolean gates."""
        gates = [g for g, _ in cases]
        gsum = self.const(0)
        for g in gates:
            gsum = gsum + g
        out = self.relu(default - gsum)
        for g, v in cases:
            out = out + self.relu(v + g - 1)
        return out

    # -- layout as an Rfnn

    def build(self, outputs: list[LinExpr]) -> Rfnn:
        n_in = self.n_inputs
        n_atoms = n_in + len(self.relu_exprs)
        needed = [False] * n_atoms
        stack = []
        for e in outputs:
            stack.extend(e.terms)
        while stack:
            a = stack.pop()
            if needed[a]:
                continue
            needed[a] = True
            if a >= n_in:
                stack.extend(self.relu_exprs[a - n_in].terms)

        L = max((self.levels[a] for a in range(n_atoms) if needed[a]), default=0)

        last_use = [self.levels[a] for a in range(n_atoms)]
        for a in range(n_in, n_atoms):
            if not needed[a]:
                continue
            for dep in self.relu_exprs[a - n_in].terms:
                last_use[dep] = max(last_use[dep], self.levels[a] - 1)
        for e in outputs:
            for a in e.terms:
                last_use[a] = max(last_use[a], L)

        if not self.nonneg_inputs:
            for a in range(n_in):
                if needed[a] and last_use[a] > 0:
                    raise ValueError("cannot carry a possibly-negative input across ReLU")

        # slots per level; level 0 is all inputs so widths line up with callers.
        # A level lists its atoms in increasing id, so a row whose terms are
        # taken in atom order has increasing columns.
        slots = [list(range(n_in))] + [[] for _ in range(L)]
        for a in range(n_atoms):
            if needed[a]:
                for t in range(max(self.levels[a], 1), last_use[a] + 1):
                    slots[t].append(a)
        slot_pos = [{a: i for i, a in enumerate(atoms)} for atoms in slots]

        def row(e, prev):
            return tuple((prev[a], c) for a, c in sorted(e.terms.items()))

        layers = []
        for t in range(1, L + 1):
            prev = slot_pos[t - 1]
            rows = []
            bias = []
            for a in slots[t]:
                if self.levels[a] == t:
                    e = self.relu_exprs[a - n_in]
                    rows.append(row(e, prev))
                    bias.append(e.const)
                else:
                    rows.append(((prev[a], 1),))
                    bias.append(0)
            layers.append((tuple(rows), tuple(bias)))
        prev = slot_pos[L]
        layers.append((tuple(row(e, prev) for e in outputs), tuple(e.const for e in outputs)))
        return Rfnn(tuple(layers), n_in)


# ---------------------------------------------------------------------------
# Standalone gadget networks


def clip_net() -> Rfnn:
    b = CircuitBuilder(1, nonneg_inputs=False)
    return b.build([b.clip(b.inp(0))])


def gt_net() -> Rfnn:
    b = CircuitBuilder(2, nonneg_inputs=False)
    return b.build([b.clip(b.inp(0) - b.inp(1))])


def geq_net() -> Rfnn:
    b = CircuitBuilder(2, nonneg_inputs=False)
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


def add_net() -> Rfnn:
    b = CircuitBuilder(2, nonneg_inputs=False)
    return b.build([b.inp(0) + b.inp(1)])


def sub_net() -> Rfnn:
    b = CircuitBuilder(2, nonneg_inputs=False)
    return b.build([b.inp(0) - b.inp(1)])


def const_net(c: int, width: int = 1) -> Rfnn:
    b = CircuitBuilder(width, nonneg_inputs=False)
    return b.build([b.const(c)])


def gadgets() -> dict:
    return {
        "clip": clip_net(),
        "gt": gt_net(),
        "geq": geq_net(),
        "and": and_net(),
        "or": or_net(),
        "not": not_net(),
        "mux": mux_net(),
        "add": add_net(),
        "sub": sub_net(),
        "const": const_net,
    }
