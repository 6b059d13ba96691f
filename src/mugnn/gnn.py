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
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .counting import (
    Configuration,
    ExtendedConfiguration,
    SafeguardExceeded,
    initial_configuration,
    safeguard,
)
from .formula import (
    Formula,
    FormulaError,
    SubformulaIndex,
    index,
    parse,
    to_text,
    well_name,
)
from .graph import LabeledGraph
from .rfnn import CircuitBuilder, Rfnn

MAX_WEIGHT = 2**40


class GnnError(ValueError):
    pass


class DecodeError(GnnError):
    pass


# ---------------------------------------------------------------------------
# Feature layout


@dataclass(frozen=True)
class FeatureLayout:
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
    props = tuple(sorted(props))
    # the width of each *_coord field in field order; None is one int coordinate
    widths = (len(props), None, idx.n_fp, idx.n_fp, idx.n, idx.n, idx.n, idx.n_fp, idx.n_fp, None, None)
    groups, c = [], 0
    for w in widths:
        groups.append(c if w is None else tuple(range(c, c + w)))
        c += 1 if w is None else w
    return FeatureLayout(props, idx.n, idx.n_fp, *groups, dim=c)


def layout_to_json(lay: FeatureLayout) -> dict:
    """The layout's fields in order, `prop_coord` written as "prop"."""
    out = {}
    for field in fields(lay):
        value = getattr(lay, field.name)
        out[field.name.removesuffix("_coord")] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# Encoding extended configurations as per-node vectors
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


def _tuples(X: np.ndarray) -> tuple:
    """The columns of a (dim x n) state as per-node tuples of Python ints."""
    return tuple(map(tuple, X.T.astype(np.int64).tolist()))


def _encode(x: ExtendedConfiguration, lay: FeatureLayout) -> np.ndarray:
    cfg = x.config
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


def encode(x: ExtendedConfiguration, layout: FeatureLayout) -> tuple:
    """x as per-node vectors: node n's vector is its slice of x."""
    return _tuples(_encode(x, layout))


def decode(
    vectors, layout: FeatureLayout, idx: SubformulaIndex, G: LabeledGraph
) -> ExtendedConfiguration:
    """The extended configuration whose encoding is `vectors`.  Raises
    DecodeError unless there is one vector of `dim` ints per node, every
    global row is equal across nodes, k >= 1, every bit row is 0 or 1 and
    the pad row is all 1."""
    lay = layout
    if len(vectors) != G.n:
        raise DecodeError("node count mismatch")
    if G.n == 0:
        raise DecodeError("cannot decode an empty graph")
    X = np.array(vectors)
    if X.shape != (G.n, lay.dim) or X.dtype.kind not in "biu":
        raise DecodeError(f"the vectors are not {lay.dim} machine ints per node")
    X, glob = X.T, _global_rows(lay)
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


@dataclass(frozen=True)
class RecurrentGnn:
    formula_text: str
    idx: SubformulaIndex
    layout: FeatureLayout
    comb: Rfnn
    hlt_index: int
    out_index: int

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def props(self) -> tuple[str, ...]:
        return self.layout.props

    @cached_property
    def program(self) -> LevelProgram:
        """The combine network compiled for runs: built on first use and then
        kept with the model.  Raises GnnError if the network does not read
        `2 * dim` inputs and write `dim` outputs, or an index is outside them."""
        dim = self.dim
        if self.comb.input_width != 2 * dim:
            raise GnnError(f"combine network reads {self.comb.input_width} inputs, not {2 * dim}")
        prog = LevelProgram(self.comb)
        if prog.out_width != dim:
            raise GnnError(f"combine network outputs {prog.out_width} values, not {dim}")
        if not (0 <= self.hlt_index < dim and 0 <= self.out_index < dim):
            raise GnnError("halt or output index outside the feature vector")
        return prog


def compile_formula(phi: Formula | str, props=None) -> RecurrentGnn:
    if isinstance(phi, str):
        phi = parse(phi)
    phi = well_name(phi)
    idx = index(phi)
    if not idx.is_sentence:
        raise FormulaError("only sentences can be compiled")
    ops = idx.step.ops  # the counting step's program: each clause resolved once
    formula_props = {a for op, a, *_ in ops if op == "Prop" or op == "NegProp"}
    if props is None:
        props = formula_props
    elif not formula_props <= set(props):
        raise GnnError("proposition universe must cover the formula's propositions")
    lay = make_layout(idx, props)

    b = CircuitBuilder(2 * lay.dim)
    x = [b.inp(i) for i in range(lay.dim)]
    y = [b.inp(lay.dim + i) for i in range(lay.dim)]

    n_fp = idx.n_fp
    root = idx.root
    fps = idx.fp_positions

    # ---- gates for the composite step
    d_any0 = b.bor(*(x[lay.d_coord[fi]] for fi in range(n_fp)))
    d_empty0 = 1 - d_any0
    complete0 = x[lay.f_coord[root]]
    g3 = b.band(d_empty0, complete0)     # restart at k+1 (partial type-3)
    g1 = d_empty0 - g3                   # recompute (type-1); exclusive with g3

    k_old = x[lay.k_coord]
    k1 = k_old + g3

    # ---- stage 3,1: type-3 re-initialization folded with the type-1 update.
    # Every boolean field z gets  z' = relu(z - g1 - g3) + relu(new + g1 - 1):
    # keep when no gate fires, type-1 value under g1, its initial 0 under g3.

    def gated(old, new):
        return b.relu(old - g1 - g3) + b.relu(new + g1 - 1)

    R1val: dict[int, object] = {}
    for p, (op, a, a2, _, _) in enumerate(ops):
        if op == "Prop":
            val = x[lay.prop_coord[lay.props.index(a)]]
        elif op == "NegProp":
            val = 1 - x[lay.prop_coord[lay.props.index(a)]]
        elif op == "Var":
            val = x[lay.v_coord[a]]
        elif op == "And":
            val = b.band(x[lay.r_coord[a]], x[lay.r_coord[a2]])
        elif op == "Or":
            val = b.bor(x[lay.r_coord[a]], x[lay.r_coord[a2]])
        elif op == "AtLeast":
            # y's r(body) entry sums neighbor bits: |G[n] ∩ R(body)|
            val = b.geq_const(y[lay.r_coord[a]], a2)
        elif op == "AllBut":
            # |G[n] \ R(body)| = degree - count < grade
            val = b.clip(y[lay.r_coord[a]] - y[lay.pad_coord] + a2)
        else:  # a fixpoint: its body's result
            val = x[lay.r_coord[a]]
        R1val[p] = val

    F1val: dict[int, object] = {}
    for p in range(idx.n):
        subs = [x[lay.f_coord[c]] for c in idx.sub[p]]
        val = b.band(*subs)
        if idx.is_fp[p]:
            fi = idx.fp_index[p]
            at_max = b.clip(x[lay.c_coord[fi]] - k_old + 2)  # C = k-1
            val = b.band(val, at_max)
        F1val[p] = val

    S1val: dict[int, object] = {}
    for p in range(idx.n):
        if idx.is_fp[p]:
            fi = idx.fp_index[p]
            bp = idx.body_pos[fi]
            agree = b.eqb(x[lay.v_coord[fi]], R1val[bp])
            S1val[p] = b.band(x[lay.s_coord[bp]], x[lay.t_coord[fi]], agree)
        else:
            S1val[p] = b.band(*(x[lay.s_coord[c]] for c in idx.sub[p]))

    r1 = {p: gated(x[lay.r_coord[p]], R1val[p]) for p in range(idx.n)}
    F1 = {p: gated(x[lay.f_coord[p]], F1val[p]) for p in range(idx.n)}
    s1 = {p: gated(x[lay.s_coord[p]], S1val[p]) for p in range(idx.n)}
    t1 = {fi: b.clip(x[lay.t_coord[fi]] + g3) for fi in range(n_fp)}
    v1 = {}
    for fi in range(n_fp):
        old = x[lay.v_coord[fi]]
        if idx.is_mu[fps[fi]]:
            v1[fi] = b.relu(old - g3)
        else:
            v1[fi] = b.clip(old + g3)
    D1 = {fi: b.clip(x[lay.d_coord[fi]] + g3) for fi in range(n_fp)}
    C1 = {fi: x[lay.c_coord[fi]] for fi in range(n_fp)}  # untouched so far

    # ---- stage 2: tick / reset, gated on the residual set still being empty
    g2 = 1 - b.bor(*(D1[fi] for fi in range(n_fp)))

    tick = {}
    for fi in range(n_fp):
        p = fps[fi]
        parts = [F1[c] for c in idx.sub[p]]
        parts.append(b.clip(k1 - C1[fi] - 1))                   # C < k-1
        for bj in idx.tfp[p]:
            parts.append(b.clip(C1[bj] - k1 + 2))               # C(beta) = k-1
        tick[fi] = b.band(*parts)

    # layered closure of the reset set
    delta = {fi: b.bor(*(tick[idx.var_index[z]] for z in idx.free[fps[fi]])) for fi in range(n_fp)}
    for _ in range(idx.q):
        delta = {
            fi: b.bor(
                delta[fi],
                *(delta[idx.var_index[z]] for z in idx.free[fps[fi]]),
            )
            for fi in range(n_fp)
        }
    reset = {fi: b.bor(tick[fi], delta[fi]) for fi in range(n_fp)}
    dep = {fi: b.relu(delta[fi] - tick[fi]) for fi in range(n_fp)}

    ga = {fi: b.band(g2, tick[fi]) for fi in range(n_fp)}
    gb = {fi: b.band(g2, dep[fi]) for fi in range(n_fp)}

    C2 = {fi: C1[fi] + ga[fi] for fi in range(n_fp)}  # dep counters retained
    v2 = {}
    t2 = {}
    for fi in range(n_fp):
        bp = idx.body_pos[fi]
        keep = b.relu(v1[fi] - ga[fi] - gb[fi])
        ticked = b.relu(r1[bp] + ga[fi] - 1)
        v2[fi] = keep + ticked
        if not idx.is_mu[fps[fi]]:
            v2[fi] = v2[fi] + gb[fi]
        tkeep = b.relu(t1[fi] - ga[fi] - gb[fi])
        tticked = b.relu(b.band(t1[fi], s1[bp]) + ga[fi] - 1)
        t2[fi] = tkeep + tticked + gb[fi]
    F2 = {}
    for p in range(idx.n):
        frees = [reset[idx.var_index[z]] for z in idx.free[p]]
        if frees:
            F2[p] = b.relu(F1[p] - b.band(g2, b.bor(*frees)))
        else:
            F2[p] = F1[p]
    D2 = {fi: b.relu(D1[fi] - g2) + b.relu(dep[fi] + g2 - 1) for fi in range(n_fp)}

    # ---- stage r: one decrement of residual counters
    dec = {fi: b.band(D2[fi], b.clip(C2[fi])) for fi in range(n_fp)}
    C3 = {fi: C2[fi] - dec[fi] for fi in range(n_fp)}
    D3 = {fi: b.band(D2[fi], b.clip(C2[fi] - 1)) for fi in range(n_fp)}

    halt = b.band(F2[root], s1[root], 1 - b.bor(*(D3[fi] for fi in range(n_fp))))

    outputs = [None] * lay.dim
    for pi in range(len(lay.props)):
        outputs[lay.prop_coord[pi]] = x[lay.prop_coord[pi]]
    outputs[lay.k_coord] = k1
    for fi in range(n_fp):
        outputs[lay.c_coord[fi]] = C3[fi]
        outputs[lay.v_coord[fi]] = v2[fi]
        outputs[lay.t_coord[fi]] = t2[fi]
        outputs[lay.d_coord[fi]] = D3[fi]
    for p in range(idx.n):
        outputs[lay.r_coord[p]] = r1[p]
        outputs[lay.f_coord[p]] = F2[p]
        outputs[lay.s_coord[p]] = s1[p]
    outputs[lay.pad_coord] = b.const(1)
    outputs[lay.halt_coord] = halt

    comb = b.build(outputs)
    for rows, bias in comb.layers:
        if max(map(abs, chain(bias, (c for row in rows for _, c in row))), default=0) > MAX_WEIGHT:
            raise GnnError("weight magnitude bound exceeded")

    return RecurrentGnn(
        formula_text=to_text(phi),
        idx=idx,
        layout=lay,
        comb=comb,
        hlt_index=lay.halt_coord,
        out_index=lay.r_coord[root],
    )


# ---------------------------------------------------------------------------
# Execution
#
# A run keeps every value it computes in one float64 buffer V with a row per
# atom and a column per node: rows [0, dim) are the node states x, rows
# [dim, 2*dim) the neighbour sums y, the rows after them the ReLU atoms of
# the combine network, level by level, and the last row is all ones.


class LevelProgram:
    """An Rfnn compiled to one dense float64 matrix per level, over the atoms
    that level reads in a buffer V of `n_atoms` rows and a column per sample.
    Row a of V is atom a of the network, its inputs first, and the row after
    the last atom, all ones, is the one the biases multiply.

    If no input exceeds M in magnitude, no atom exceeds alpha*M + beta: (1, 0)
    for an input, (0, 1) for the ones row, and for a computed row the sums
    of |w|*alpha and |w|*beta over the atoms it reads.  That sum bounds every
    product and partial sum of the row in any order, so while it is <= 2**52
    (2**53 less a bit for the bound's own rounding) the integer arithmetic is
    exact.  `max_input` is the largest such M.  Raises GnnError on malformed
    levels, among them a row that reads an atom of its own level or a later
    one."""

    def __init__(self, comb: Rfnn):
        layers = comb.layers
        if not layers:
            raise GnnError("combine network has no layers")
        try:
            sizes = [len(W) for W, _ in layers]
            if [len(b) for _, b in layers] != sizes:
                raise ValueError("a layer has not one bias per row")
            rows = tuple(chain.from_iterable(W for W, _ in layers))
            nnz = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
            if set(map(len, chain.from_iterable(rows))) - {2}:
                raise ValueError("a row entry is not a (column, coefficient) pair")
            flat = chain.from_iterable(chain.from_iterable(rows))
            pairs = np.fromiter(flat, dtype=np.int64, count=2 * nnz.sum())
            bias = np.fromiter(chain.from_iterable(b for _, b in layers), np.int64, len(rows))
        except (ValueError, TypeError, OverflowError) as e:
            raise GnnError(f"combine network is malformed: {e}") from None
        n_in, last = comb.input_width, len(layers) - 1
        cols, coefs = pairs[0::2], pairs[1::2]
        lo = n_in + np.cumsum([0] + sizes[:-1])  # the first atom of each level
        lay = np.repeat(np.arange(last + 1), sizes)  # the level of each row
        entry_row = np.repeat(np.arange(len(rows)), nnz)
        if ((cols < 0) | (cols >= lo[lay[entry_row]])).any():
            raise GnnError("a combine row reads an atom of its own level or a later one")
        self.n_atoms = lo[last] + 1
        # Entries (row, atom, weight), a bias as a weight on the ones row;
        # bincount sums two entries of a row on one atom.
        r = np.concatenate([entry_row, np.arange(len(rows))])
        a = np.concatenate([cols, np.full(len(rows), self.n_atoms - 1)])
        w = np.concatenate([coefs, bias])
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
        self.out_width = sizes[-1]
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


_MAX, _MIN = np.maximum.reduce, np.minimum.reduce


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


def apply_layer(gnn: RecurrentGnn, G: LabeledGraph, vectors):
    """One synchronous round on per-node vectors: every node combines (own,
    neighbor-sum)."""
    rounds = _Rounds(gnn, G, np.array(vectors, dtype=np.float64).reshape(G.n, gnn.dim).T)
    rounds.step()
    return _tuples(rounds.X)


def run_gnn(
    gnn: RecurrentGnn,
    G: LabeledGraph,
    max_steps: int | None = None,
    want_trace: bool = False,
):
    """Run from the encoding of the initial configuration at k = 1 to the
    first round where every node's halt coordinate is positive."""
    if tuple(G.props) != gnn.props:
        raise GnnError(
            f"graph universe {list(G.props)} does not match model universe {list(gnn.props)}"
        )
    limit = max_steps if max_steps is not None else safeguard(gnn.idx, G) + 1
    x0 = ExtendedConfiguration(initial_configuration(gnn.idx, G, 1), frozenset())
    rounds = _Rounds(gnn, G, _encode(x0, gnn.layout))
    trace = [_tuples(rounds.X)] if want_trace else None
    halt = rounds.X[gnn.hlt_index]
    iters = 0
    while _MIN(halt, initial=1.0) <= 0:  # some node has not halted
        if iters >= limit:
            raise SafeguardExceeded(f"GNN run exceeded {limit} iterations")
        rounds.step()
        if want_trace:
            trace.append(_tuples(rounds.X))
        iters += 1
    out = (rounds.X[gnn.out_index] > 0).tolist()
    return out, iters, trace


# ---------------------------------------------------------------------------
# Serialization


MODEL_FORMAT = 3


def gnn_to_json(gnn: RecurrentGnn) -> dict:
    """The model file: each combine row is a flat [atom, coef, atom, coef, ...]
    list of its nonzero coefficients; atoms 0 .. 2*dim - 1 are the inputs and
    the rows of each level are the atoms after those of the level before."""
    return {
        "format": MODEL_FORMAT,
        "dim": gnn.dim,
        "formula": gnn.formula_text,
        "layout": layout_to_json(gnn.layout),
        "layer": [
            {
                "rows": len(W),
                "weights": [list(chain.from_iterable(row)) for row in W],
                "bias": list(bias),
            }
            for W, bias in gnn.comb.layers
        ],
        "hlt_index": gnn.hlt_index,
        "out_index": gnn.out_index,
    }


def _is_ints(values) -> bool:
    return isinstance(values, list) and set(map(type, values)) <= {int}


def gnn_from_json(data) -> RecurrentGnn:
    """Rebuild a model from `gnn_to_json` output.  Raises GnnError (or
    FormulaError for the formula text) if the file is malformed, of another
    format, or its layout, width or indices do not belong to its formula."""
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
    idx = index(well_name(parse(text)))
    if not idx.is_sentence:
        raise GnnError("model formula is not a sentence")
    lay = data.get("layout")
    if not isinstance(lay, dict):
        raise GnnError('"layout" is not an object')
    props = lay.get("props")
    if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
        raise GnnError("layout props are not a list of strings")
    layout = make_layout(idx, props)
    if layout_to_json(layout) != lay or data.get("dim") != layout.dim:
        raise GnnError("layout does not match the formula")
    out_index = layout.r_coord[idx.root]
    if data.get("hlt_index") != layout.halt_coord or data.get("out_index") != out_index:
        raise GnnError("halt or output index does not match the formula")
    if not isinstance(data.get("layer"), list) or not data["layer"]:
        raise GnnError('"layer" is not a non-empty list')
    layers = []
    first = 2 * layout.dim  # the first atom of each level, after the inputs
    for li, layer in enumerate(data["layer"]):
        W = layer.get("weights") if isinstance(layer, dict) else None
        bias = layer.get("bias") if isinstance(layer, dict) else None
        if not isinstance(W, list) or not _is_ints(bias) or len(bias) != len(W):
            raise GnnError(f"layer {li} needs a weights list and as many int biases")
        bad_row = f"layer {li}: a row is not an even-length list of ints"
        if not set(map(type, W)) <= {list}:
            raise GnnError(bad_row)
        lens = list(map(len, W))
        flat = list(chain.from_iterable(W))
        if any(map((1).__and__, lens)) or not _is_ints(flat):
            raise GnnError(bad_row)
        cols = flat[0::2]
        if cols and (min(cols) < 0 or max(cols) >= first):
            raise GnnError(f"layer {li}: a column is not one of the {first} atoms before it")
        # Every row has even length, so the layer's flat list pairs up as a
        # whole; each row is then one slice of those pairs.
        it = iter(flat)
        pairs = tuple(zip(it, it))
        ends = list(accumulate(n >> 1 for n in lens))
        rows = tuple(map(pairs.__getitem__, map(slice, [0] + ends[:-1], ends)))
        layers.append((rows, tuple(bias)))
        first += len(W)
    if len(W) != layout.dim:
        raise GnnError(f"combine network outputs {len(W)} values, not {layout.dim}")
    return RecurrentGnn(
        formula_text=text,
        idx=idx,
        layout=layout,
        comb=Rfnn(tuple(layers), 2 * layout.dim),
        hlt_index=layout.halt_coord,
        out_index=out_index,
    )


def save_gnn(gnn: RecurrentGnn, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(gnn_to_json(gnn)) + "\n")


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
