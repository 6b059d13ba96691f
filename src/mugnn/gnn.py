"""Compilation of sentences to exact-integer halting recurrent GNNs.

Each node carries its local slice of an extended configuration as a feature
vector.  The single aggregate-combine layer receives the node's own vector x
and the coordinatewise sum y of its out-neighbors' vectors, and computes the
next local state: stage "3,1" applies the restart-at-k+1 and recompute
transitions, stage "2" ticks/resets fixpoint counters, stage "r" performs one
counter decrement for variables in the residual set.  The always-1 pad
coordinate makes y's pad entry the node's out-degree, which the graded box
clause needs.  A final halt coordinate goes positive exactly when the
embedded configuration is complete, stable at this node, and has an empty
residual set.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .counting import (
    Configuration,
    ExtendedConfiguration,
    SafeguardExceeded,
    initial_configuration,
    safeguard,
)
from .formula import Formula, FormulaError, SubformulaIndex, sentence, to_text
from .formula import index, parse  # noqa: F401  names the benchmark's traced run patches
from .graph import LabeledGraph
from .rfnn import CircuitBuilder, LinExpr, Rfnn

MAX_WEIGHT = 2**40
_BEYOND_MAX_WEIGHT = f"weight magnitude bound exceeded: a weight or bias beyond {MAX_WEIGHT}"
_MAX, _MIN = np.maximum.reduce, np.minimum.reduce


class GnnError(ValueError):
    pass


class DecodeError(GnnError):
    pass


# ---------------------------------------------------------------------------
# Feature layout


class FeatureLayout(NamedTuple):
    """Deterministic coordinate assignment for local extended configurations."""

    props: tuple[str, ...]
    n_rsub: int
    n_fp: int
    prop_coord: tuple[int, ...]   # aligned with props
    k_coord: int
    c_coord: tuple[int, ...]      # per fixpoint
    v_coord: tuple[int, ...]      # per variable
    r_coord: tuple[int, ...]      # per subformula
    f_coord: tuple[int, ...]
    s_coord: tuple[int, ...]
    t_coord: tuple[int, ...]      # per fixpoint
    d_coord: tuple[int, ...]      # per variable
    pad_coord: int
    halt_coord: int
    dim: int


def make_layout(idx: SubformulaIndex, props) -> FeatureLayout:
    """Raises GnnError unless `props` covers the formula's propositions."""
    if not idx.props <= set(props):
        raise GnnError("proposition universe must cover the formula's propositions")
    props = tuple(sorted(set(props)))
    # the width of each *_coord field in field order; None is one int coordinate
    widths = (len(props), None, idx.n_fp, idx.n_fp, idx.n, idx.n, idx.n, idx.n_fp, idx.n_fp, None, None)
    groups, c = [], 0
    for w in widths:
        groups.append(c if w is None else tuple(range(c, c + w)))
        c += 1 if w is None else w
    return FeatureLayout(props, idx.n, idx.n_fp, *groups, dim=c)


def layout_to_json(lay: FeatureLayout) -> dict:
    """The layout's fields in order, `prop_coord` written as "prop"."""
    return {name.removesuffix("_coord"): list(value) if isinstance(value, tuple) else value
            for name, value in zip(lay._fields, lay)}


# ---------------------------------------------------------------------------
# Encoding extended configurations as states
#
# A state is one (dim x n) int array with a row per coordinate and a column
# per node.  The props and the node masks V, T, R and S are bit rows; k, C
# and the bits of F and D are global values, each broadcast along its row.


def _global_rows(lay: FeatureLayout) -> list[int]:
    return [lay.k_coord, *lay.c_coord, *lay.f_coord, *lay.d_coord]


def _mask_rows(lay: FeatureLayout) -> tuple[tuple[int, ...], ...]:
    return lay.v_coord, lay.t_coord, lay.r_coord, lay.s_coord


def _bits(masks: list[int], n: int) -> np.ndarray:
    """A row per mask, holding bit j of the mask in column j < n."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(raw, np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _masks(rows: np.ndarray) -> tuple[int, ...]:
    """The inverse of `_bits`: per 0/1 row, the mask with bit j from column j."""
    packed = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _check_state(X, dim: int, n: int, error: type[GnnError]) -> None:
    """Raises `error` unless X is a state: an int array of shape (dim, n)."""
    if not isinstance(X, np.ndarray) or X.dtype.kind not in "iu" or X.ndim != 2 or len(X) != dim:
        raise error(f"the state is not an int array of {dim} rows")
    if X.shape[1] != n:
        raise error(f"node count mismatch: {X.shape[1]} columns for {n} nodes")


def encode(x: ExtendedConfiguration, layout: FeatureLayout) -> np.ndarray:
    """x as a (dim x n) int64 state: column n is node n's slice of x."""
    lay, cfg = layout, x.config
    idx, G = cfg.idx, cfg.G
    X = np.zeros((lay.dim, G.n), dtype=np.int64)
    masks = [*map(G.prop_mask, lay.props), *cfg.V, *cfg.T, *cfg.R, *cfg.S]
    X[[*lay.prop_coord, *chain(*_mask_rows(lay))]] = _bits(masks, G.n)
    F, D = (cfg.F >> p & 1 for p in range(idx.n)), (fi in x.D for fi in range(idx.n_fp))
    X[_global_rows(lay)] = np.array([cfg.k, *cfg.C, *F, *D])[:, None]
    X[lay.pad_coord] = 1
    if cfg.complete and not x.D:
        X[lay.halt_coord] = X[lay.s_coord[idx.root]]
    return X


def decode(
    X: np.ndarray, layout: FeatureLayout, idx: SubformulaIndex, G: LabeledGraph
) -> ExtendedConfiguration:
    """The extended configuration whose encoding is the state X.  Raises
    DecodeError unless X is an int array of shape (dim, G.n) with G.n > 0,
    every global row is equal across nodes, k >= 1, every bit row is 0 or 1
    and the pad row is all 1."""
    lay = layout
    _check_state(X, lay.dim, G.n, DecodeError)
    if G.n == 0:
        raise DecodeError("cannot decode an empty graph")
    glob = _global_rows(lay)
    split = (X[glob] != X[glob, :1]).any(axis=1)
    if split.any():
        row = glob[split.argmax()]
        raise DecodeError(f"coordinate {row} disagrees across nodes: {sorted(set(X[row].tolist()))}")
    col = X[:, 0].tolist()
    k = col[lay.k_coord]
    if k < 1:
        raise DecodeError(f"bound k={k} < 1")
    bit_rows = [*lay.f_coord, *lay.d_coord, *chain(*_mask_rows(lay))]
    not_bit = np.argwhere((X[bit_rows] != 0) & (X[bit_rows] != 1))
    if len(not_bit):
        i, n = not_bit[0]
        raise DecodeError(f"coordinate {bit_rows[i]} at node {n} is {X[bit_rows[i], n]}, not a bit")
    if (X[lay.pad_coord] != 1).any():
        n = (X[lay.pad_coord] != 1).argmax()
        raise DecodeError(f"pad coordinate at node {n} is {X[lay.pad_coord, n]}")
    V, T, R, S = (_masks(X[list(rows)]) for rows in _mask_rows(lay))
    cfg = Configuration(
        idx=idx, G=G, k=k, C=tuple(col[c] for c in lay.c_coord), V=V, R=R, S=S, T=T,
        F=sum(col[c] << p for p, c in enumerate(lay.f_coord)),
    )
    D = frozenset(fi for fi, c in enumerate(lay.d_coord) if col[c])
    return ExtendedConfiguration(cfg, D)


# ---------------------------------------------------------------------------
# The compiled model


def _check_network(comb: Rfnn, dim: int) -> None:
    """Raises GnnError unless `comb` is a combine network over `dim`
    coordinates: 2 * dim inputs and dim outputs, arrays of matching lengths,
    every row reading only atoms before its own level, and no weight or bias
    beyond MAX_WEIGHT in magnitude."""
    sizes, nnz, cols, coefs, bias, n_in = comb
    if n_in != 2 * dim:
        raise GnnError(f"combine network reads {n_in} inputs, not {2 * dim}")
    if not sizes or sizes[-1] != dim:
        raise GnnError(f"combine network outputs {sizes[-1] if sizes else 0} values, not {dim}")
    mismatch = GnnError("combine network arrays do not match in length")
    if not len(nnz) == len(bias) == sum(sizes) or not len(cols) == len(coefs) == nnz.sum():
        raise mismatch
    try:  # the first atom of each entry's level
        first = np.array([*accumulate(sizes[:-1], initial=n_in)]).repeat(sizes).repeat(nnz)
    except ValueError:  # a count below zero
        raise mismatch from None
    bad = (cols < 0) | (cols >= first)
    if bad.any():
        e = bad.argmax()
        raise GnnError(f"a combine row reads atom {cols[e]}, not one of the {first[e]} atoms "
                       "before its level")
    if (min(_MIN(coefs, initial=0), _MIN(bias, initial=0)) < -MAX_WEIGHT
            or max(_MAX(coefs, initial=0), _MAX(bias, initial=0)) > MAX_WEIGHT):
        raise GnnError(_BEYOND_MAX_WEIGHT)


class RecurrentGnn:
    def __init__(self, formula_text: str, idx: SubformulaIndex, layout: FeatureLayout, comb: Rfnn):
        """Raises GnnError unless `comb` is a combine network for `layout`
        (`_check_network`)."""
        _check_network(comb, layout.dim)
        self.formula_text, self.idx, self.layout, self.comb = formula_text, idx, layout, comb

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def hlt_index(self) -> int:
        return self.layout.halt_coord

    @property
    def out_index(self) -> int:
        return self.layout.r_coord[self.idx.root]

    @property
    def props(self) -> tuple[str, ...]:
        return self.layout.props

    @cached_property
    def program(self) -> LevelProgram:
        """The combine network compiled for runs: built on first use and then
        kept with the model."""
        return LevelProgram(self.comb)


def compile_formula(phi: str | Formula | SubformulaIndex, props=None) -> RecurrentGnn:
    """One extended step (`etrans_step`) of a sentence as a ReLU layer,
    emitted stage by stage from the clause table (`ops`) of its index, the
    one `trans1` reads.  Takes what `sentence` takes."""
    idx = sentence(phi)
    lay = make_layout(idx, idx.props if props is None else props)

    b = CircuitBuilder(2 * lay.dim)
    P = {a: b.inp(c) for a, c in zip(lay.props, lay.prop_coord)}
    K = b.inp(lay.k_coord)
    R, F, S, V, T, C, D = (
        [b.inp(c) for c in coords]
        for coords in (lay.r_coord, lay.f_coord, lay.s_coord, lay.v_coord, lay.t_coord,
                       lay.c_coord, lay.d_coord)
    )
    # the neighbour sums: of R, the neighbours in R; of the pad, the degree
    Ry = [b.inp(lay.dim + c) for c in lay.r_coord]
    degree = b.inp(lay.dim + lay.pad_coord)
    root = idx.root

    # ---- stage 3,1: restart at k+1 (g3, partial type-3) or recompute (g1,
    # type-1), exclusive, and neither while D is non-empty.  A bit field
    # keeps its value under no gate, takes the type-1 value under g1 and 0
    # under g3.
    d_empty = 1 - b.bor(*D)
    g3 = b.band(d_empty, F[root])
    g1 = d_empty - g3
    k1 = K + g3
    g1_1 = g1 - 1  # with d_empty, which is g1 + g3, what every `gated` reads

    def gated(old, new):
        return b.relu(old - d_empty) + b.relu(new + g1_1)

    Rn, Fn, Sn = [], [], []
    for p, (op, a, a2, _, _) in enumerate(idx.ops):
        f = b.band(*(F[c] for c in idx.sub[p]))
        s = b.band(*(S[c] for c in idx.sub[p]))
        if op == "Prop":
            r = P[a]
        elif op == "NegProp":
            r = 1 - P[a]
        elif op == "Var":
            r = V[a]
        elif op == "And":
            r = b.band(R[a], R[a2])
        elif op == "Or":
            r = b.bor(R[a], R[a2])
        elif op == "AtLeast":
            r = b.clip(Ry[a] - (a2 - 1))  # 1 iff count >= grade
        elif op == "AllBut":  # |G[n] \ R(body)| = degree - count < grade
            r = b.clip(Ry[a] - degree + a2)
        else:  # a fixpoint with body a and index a2, valid once C = k-1
            r = R[a]
            s = b.band(s, T[a2], b.eqb(V[a2], Rn[a]))
            f = b.band(f, b.clip(C[a2] - K + 2))
        Rn.append(r)
        Fn.append(f)
        Sn.append(s)
    R1, F1, S1 = ([gated(o, n) for o, n in zip(old, new)] for old, new in ((R, Rn), (F, Fn), (S, Sn)))
    V1 = [b.clip(v + g3) if idx.nu >> i & 1 else b.relu(v - g3) for i, v in enumerate(V)]
    T1, D1 = ([b.clip(z + g3) for z in field] for field in (T, D))

    # ---- stage 2: the ticks, then each variable's reset as one OR over the
    # ticks that reset it, all gated on D still being empty
    g2 = 1 - b.bor(*D1)
    tick = [
        b.band(F1[body], b.clip(k1 - C[i] - 1), *(b.clip(C[j] - k1 + 2) for j in tfp))
        for i, (body, (_, tfp)) in enumerate(zip(idx.body_pos, idx.binders))
    ]

    def reset(variables: int):
        return b.bor(*(t for t, m in zip(tick, idx.resets) if m & variables))

    # a tick resets its own variable, so dep = reset - tick is a bit
    dep = [reset(1 << i) - t for i, t in enumerate(tick)]
    ga = [b.band(g2, t) for t in tick]
    gb = [b.band(g2, d) for d in dep]
    V2, T2 = [], []
    for i, body in enumerate(idx.body_pos):
        gab, ga_1 = ga[i] + gb[i], ga[i] - 1
        V2.append(b.relu(V1[i] - gab) + b.relu(R1[body] + ga_1)
                  + (gb[i] if idx.nu >> i & 1 else 0))
        T2.append(b.relu(T1[i] - gab) + b.relu(b.band(T1[i], S1[body]) + ga_1) + gb[i])
    F2 = list(F1)
    for bit, free in idx.open:
        p = bit.bit_length() - 1
        F2[p] = b.relu(F1[p] - b.band(g2, reset(free)))
    D2 = [b.relu(d - g2) + b.relu(e + g2 - 1) for d, e in zip(D1, dep)]
    C2 = [c + a for c, a in zip(C, ga)]  # dep counters retained

    # ---- stage r: one decrement of residual counters
    C3 = [c - b.band(d, b.clip(c)) for c, d in zip(C2, D2)]
    D3 = [b.band(d, b.clip(c - 1)) for c, d in zip(C2, D2)]
    halt = b.band(F2[root], S1[root], 1 - b.bor(*D3))

    outputs = [None] * lay.dim
    for coords, values in (
        (lay.prop_coord, P.values()), ((lay.k_coord,), (k1,)), (lay.c_coord, C3),
        (lay.v_coord, V2), (lay.r_coord, R1), (lay.f_coord, F2), (lay.s_coord, S1),
        (lay.t_coord, T2), (lay.d_coord, D3), ((lay.pad_coord,), (LinExpr({}, 1),)),
        ((lay.halt_coord,), (halt,)),
    ):
        for c, e in zip(coords, values):
            outputs[c] = e
    try:
        comb = b.build(outputs)
    except OverflowError:  # beyond int64, so beyond MAX_WEIGHT as well
        raise GnnError(_BEYOND_MAX_WEIGHT) from None

    return RecurrentGnn(formula_text=to_text(idx.root_formula), idx=idx, layout=lay, comb=comb)


# ---------------------------------------------------------------------------
# Execution
#
# A run keeps every value it computes in one float64 buffer V with a row per
# atom and a column per node: rows [0, dim) are the node states x, rows
# [dim, 2*dim) the neighbour sums y, the rows after them the ReLU atoms of
# the combine network, level by level, and the last row is all ones.


class LevelProgram:
    """A combine network that `_check_network` accepts, compiled to one dense
    float64 matrix per level, over the atoms that level reads in a buffer V
    of `n_atoms` rows and a column per sample.
    Row a of V is atom a of the network, its inputs first, and the row after
    the last atom, all ones, is the one the biases multiply.

    If no input exceeds M in magnitude, no atom exceeds alpha*M + beta: (1, 0)
    for an input, (0, 1) for the ones row, and for a computed row the sums
    of |w|*alpha and |w|*beta over the atoms it reads.  That sum bounds every
    product and partial sum of the row in any order, so while it is <= 2**52
    (2**53 less a bit for the bound's own rounding) the integer arithmetic is
    exact.  `max_input` is the largest such M."""

    def __init__(self, comb: Rfnn):
        sizes, n_in, last, n_rows = comb.sizes, comb.input_width, len(comb.sizes) - 1, len(comb.bias)
        lo = n_in + np.cumsum((0, *sizes[:-1]))  # the first atom of each level
        lay = np.repeat(np.arange(last + 1), sizes)  # the level of each row
        self.n_atoms = lo[last] + 1
        # Entries (row, atom, weight), a bias as a weight on the ones row;
        # bincount sums two entries of a row on one atom.
        r = np.concatenate([np.repeat(np.arange(n_rows), comb.nnz), np.arange(n_rows)])
        a = np.concatenate([comb.cols, np.full(n_rows, self.n_atoms - 1)])
        w = np.concatenate([comb.coefs, comb.bias])
        r, a, w = r[w != 0], a[w != 0], w[w != 0]
        lv = lay[r]
        read = np.zeros((last + 1, self.n_atoms), dtype=bool)
        read[lv, a] = True
        u = read.sum(axis=1)  # the number of atoms each level reads
        size = np.array(sizes) * u
        off = np.cumsum(size) - size
        at = off[lv] + (n_in + r - lo[lv]) * u[lv] + (np.cumsum(read, axis=1) - 1)[lv, a]
        weights = np.bincount(at, weights=w, minlength=size.sum())
        AB = np.zeros((self.n_atoms, 2))  # (alpha, beta) per atom
        AB[:n_in, 0] = AB[-1, 1] = 1
        self.hidden = []  # (first atom, end, matrix, atoms read) per hidden level
        for li, k in enumerate(sizes):
            used = np.flatnonzero(read[li])
            M = weights[off[li] : off[li] + size[li]].reshape(k, u[li])
            ab = np.abs(M) @ AB[used]
            if li < last:
                AB[lo[li] : lo[li] + k] = ab
                if k:
                    self.hidden.append((lo[li], lo[li] + k, M, used))
        self.last = (M, used)
        AB = np.concatenate([AB, ab])  # and the outputs
        self.input_read = read[:, :n_in].any(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # alpha = 0: no limit
            self.max_input = float(np.fmin.reduce((2.0**52 - AB[:, 1]) / AB[:, 0]))

    def bind(self, V: np.ndarray, out: np.ndarray):
        """A function that fills the ReLU rows of V from its input rows, and
        `out` with the outputs, exact if no input exceeds `max_input` in
        magnitude.  Each level's matrix, the atoms it reads and the rows it
        writes are bound here once, so a call makes only the levels' numpy
        calls; the ReLUs share one zero operand."""
        hidden = [(M, used, V[lo:hi]) for lo, hi, M, used in self.hidden]
        last, used_last = self.last
        take, dot, relu, zero = V.take, np.dot, np.maximum, np.zeros(())

        def evaluate():
            for M, used, Z in hidden:
                dot(M, take(used, axis=0), out=Z)
                relu(Z, zero, out=Z)
            dot(last, take(used_last, axis=0), out=out)

        return evaluate


class _Rounds:
    """Rounds of one model on one graph from the (dim x n) state X0.  The
    state X, the first `dim` rows of the atom buffer, is checked to stay below
    `limit`, so that a neighbour sum stays within the program's `max_input`.
    Everything a round reads or writes is bound here once per run."""

    def __init__(self, gnn: RecurrentGnn, G: LabeledGraph, X0: np.ndarray):
        dim, prog, E = gnn.dim, gnn.program, G.edge_index
        ys = dim + np.flatnonzero(prog.input_read[dim:])  # the sums the network reads
        self.limit = min(MAX_WEIGHT, prog.max_input / max(1, E.max_degree))
        self.V = np.zeros((prog.n_atoms, G.n))
        self.V[-1] = 1  # the ones row
        self.X = self.V[:dim]
        self.X[...] = X0
        self.flat = self.X.reshape(-1)  # a view: V is C-contiguous
        # Flat indices into V of the states each neighbour sum adds up and of
        # the sums of the nodes with an out-edge; sinks keep their zero sums.
        self.sums = len(E.dst) > 0 and len(ys) > 0
        self.gather = (ys[:, None] - dim) * G.n + E.dst
        self.scatter, self.starts = ys[:, None] * G.n + E.sources, E.starts
        self.evaluate = prog.bind(self.V, self.X)
        self.check()

    def check(self) -> None:
        flat, limit = self.flat, self.limit
        if _MAX(flat, initial=0.0) >= limit or _MIN(flat, initial=0.0) <= -limit:
            raise GnnError("activation magnitude bound exceeded")

    def step(self) -> None:
        V = self.V
        if self.sums:
            V.put(self.scatter, np.add.reduceat(V.take(self.gather), self.starts, axis=1))
        self.evaluate()
        self.check()


def apply_layer(gnn: RecurrentGnn, G: LabeledGraph, X: np.ndarray) -> np.ndarray:
    """One synchronous round on the state X: every node combines (own,
    neighbor-sum).  Raises GnnError unless X is an int array of shape
    (dim, G.n)."""
    _check_state(X, gnn.dim, G.n, GnnError)
    rounds = _Rounds(gnn, G, X)
    rounds.step()
    return rounds.X.astype(np.int64)


def run_gnn(gnn: RecurrentGnn, G: LabeledGraph, on_config=None, max_steps: int | None = None):
    """Run from the encoding of the initial configuration at k = 1 to the
    first round where every node's halt coordinate is positive, and return
    (out, rounds, the final (dim x n) int64 state).  A round is one extended
    step, but a graph with no nodes halts at once, where `run_extended` steps on.

    on_config, when given, is called as on_config("init", x0) with the
    initial extended configuration and as on_config("round", x) with the
    decoded state after every round.
    """
    if tuple(G.props) != gnn.props:
        raise GnnError(
            f"graph universe {list(G.props)} does not match model universe {list(gnn.props)}"
        )
    limit = max_steps if max_steps is not None else safeguard(gnn.idx, G)
    x0 = ExtendedConfiguration(initial_configuration(gnn.idx, G, 1), frozenset())
    rounds = _Rounds(gnn, G, encode(x0, gnn.layout))
    if on_config:
        on_config("init", x0)
    halt = rounds.X[gnn.hlt_index]
    iters = 0
    while _MIN(halt, initial=1.0) <= 0:  # some node has not halted
        if iters >= limit:
            raise SafeguardExceeded(f"GNN run exceeded {limit} iterations")
        rounds.step()
        iters += 1
        if on_config:
            on_config("round", decode(rounds.X.astype(np.int64), gnn.layout, gnn.idx, G))
    out = (rounds.X[gnn.out_index] > 0).tolist()
    return out, iters, rounds.X.astype(np.int64)


# ---------------------------------------------------------------------------
# Serialization


MODEL_FORMAT = 3


def gnn_to_json(gnn: RecurrentGnn) -> dict:
    """The model file: each combine row is a flat [atom, coef, atom, coef, ...]
    list of its nonzero coefficients; atoms 0 .. 2*dim - 1 are the inputs and
    the rows of each level are the atoms after those of the level before."""
    comb = gnn.comb
    flat = np.empty(2 * len(comb.cols), np.int64)
    flat[0::2], flat[1::2] = comb.cols, comb.coefs
    flat = flat.tolist()
    at = list(accumulate((2 * comb.nnz).tolist(), initial=0))  # where each row starts in flat
    rows = [flat[a:b] for a, b in zip(at, at[1:])]
    bias, ends = comb.bias.tolist(), list(accumulate(comb.sizes, initial=0))
    return {
        "format": MODEL_FORMAT,
        "dim": gnn.dim,
        "formula": gnn.formula_text,
        "layout": layout_to_json(gnn.layout),
        "layer": [
            {"rows": b - a, "weights": rows[a:b], "bias": bias[a:b]}
            for a, b in zip(ends, ends[1:])
        ],
        "hlt_index": gnn.hlt_index,
        "out_index": gnn.out_index,
    }


def gnn_from_json(data) -> RecurrentGnn:
    """Rebuild a model from `gnn_to_json` output.  Raises GnnError if the file is
    malformed, of another format, its formula is not the text of a sentence over the
    layout's props, a layer's "rows" is not its row count, its combine network is not
    one `_check_network` accepts, or its layout or indices do not belong to it."""
    if not isinstance(data, dict):
        raise GnnError("model file is not a JSON object")
    if data.get("format") != MODEL_FORMAT:
        raise GnnError(
            f"model file format {data.get('format')!r} is not {MODEL_FORMAT}; "
            "re-run `mugnn compile` to rebuild it"
        )
    text = data.get("formula")
    if not isinstance(text, str):
        raise GnnError('"formula" is not a string')
    try:
        idx = sentence(text)
    except FormulaError as e:
        raise GnnError(f"model formula: {e}") from None
    lay = data.get("layout")
    if not isinstance(lay, dict):
        raise GnnError('"layout" is not an object')
    props = lay.get("props")
    if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
        raise GnnError("layout props are not a list of strings")
    layout = make_layout(idx, props)
    if layout_to_json(layout) != lay or data.get("dim") != layout.dim:
        raise GnnError("layout does not match the formula")
    if not isinstance(data.get("layer"), list) or not data["layer"]:
        raise GnnError('"layer" is not a non-empty list')
    rows, biases, sizes = [], [], []
    for li, layer in enumerate(data["layer"]):
        W = layer.get("weights") if isinstance(layer, dict) else None
        bias = layer.get("bias") if isinstance(layer, dict) else None
        if not isinstance(W, list) or not isinstance(bias, list) or len(bias) != len(W):
            raise GnnError(f"layer {li} needs a weights list and as many biases")
        if type(layer.get("rows")) is not int or layer["rows"] != len(W):
            raise GnnError(f'layer {li}: "rows" is not its number of rows, {len(W)}')
        rows += W
        biases += bias
        sizes.append(len(W))
    if not set(map(type, rows)) <= {list}:
        raise GnnError("a combine row is not a list")
    lens = np.fromiter(map(len, rows), np.int64, len(rows))
    values = [*chain.from_iterable(rows), *biases]
    if (lens & 1).any() or not set(map(type, values)) <= {int}:  # not a bool, not a float
        raise GnnError("a combine row is not an even-length list of ints, or a bias not an int")
    try:
        values = np.fromiter(values, np.int64, len(values))
    except OverflowError:
        raise GnnError("a column, weight or bias beyond 64 bits") from None
    n = len(values) - len(biases)  # the row entries, then the biases
    comb = Rfnn(tuple(sizes), lens >> 1, values[:n:2], values[1:n:2], values[n:], 2 * layout.dim)
    gnn = RecurrentGnn(text, idx, layout, comb)
    if (data.get("hlt_index"), data.get("out_index")) != (gnn.hlt_index, gnn.out_index):
        raise GnnError("halt or output index does not match the formula")
    return gnn


def save_gnn(gnn: RecurrentGnn, path) -> None:
    # gnn_to_json builds a fresh tree with no cycle, so the check is skipped
    with open(path, "w") as fh:
        fh.write(json.dumps(gnn_to_json(gnn), separators=(",", ":"), check_circular=False) + "\n")


def load_gnn(path) -> RecurrentGnn:
    """Read a model file.  Raises OSError if it cannot be read, and what
    `gnn_from_json` raises, GnnError among it for a file that is not UTF-8
    JSON or is nested too deeply for the parser."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise GnnError(f"malformed model JSON: {e}") from None
    return gnn_from_json(data)
