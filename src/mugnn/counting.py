"""The counting algorithm as an explicit transition system.

A configuration snapshots the whole model-checking state for a bound k:
per-fixpoint iteration counters C, the valuation V of bound variables,
per-subformula result sets R, the validity set F (subformulas whose R entry
is currently trusted), and the stability maps S (per subformula) and T
(per fixpoint, tracking stability of the iterations performed so far).

Transitions:
  type 1  recompute R/F/S bottom-up for the current valuation;
  type 2  advance ("tick") ready fixpoint counters and reset dependents;
  type 3  restart everything at bound k+1 once the configuration is complete.

The extended system threads a residual set D of variables whose counters
are being counted back down to zero one step at a time; this is the form
a ReLU network can simulate (counters only ever change by +-1).

Steps run from the subformula index, built in one pass over the formula:
one opcode per position with its operands resolved, child masks for the
validity test, and variable sets as masks over fixpoint indices, among
them the variables each tick resets.  Graded clauses count on the graph
(`LabeledGraph.at_least` and `all_but`).
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import SubformulaIndex, index, sentence  # noqa: F401  the bench traces `index`
from .graph import LabeledGraph
from .semantics import Evaluator


class SafeguardExceeded(RuntimeError):
    pass


class Configuration(NamedTuple):
    idx: SubformulaIndex
    G: LabeledGraph
    k: int
    C: tuple[int, ...]      # per fixpoint
    V: tuple[int, ...]      # per variable (= per fixpoint), node masks
    R: tuple[int, ...]      # per subformula, node masks
    F: int                  # bitmask over subformula positions
    S: tuple[int, ...]      # per subformula, node masks
    T: tuple[int, ...]      # per fixpoint, node masks

    @property
    def complete(self) -> bool:
        return bool(self.F >> self.idx.root & 1)

    @property
    def stable(self) -> bool:
        return self.S[self.idx.root] == self.G.full_mask


class ExtendedConfiguration(NamedTuple):
    config: Configuration
    D: frozenset[int]       # variable indices awaiting counter rundown


def initial_configuration(idx: SubformulaIndex, G: LabeledGraph, k: int) -> Configuration:
    if k < 1:
        raise ValueError("bound k must be >= 1")
    n_fp = idx.n_fp
    # T starts at the full node set: with C = 0 there are no performed
    # iterations to certify, so every node is vacuously covered.
    return Configuration(
        idx=idx,
        G=G,
        k=k,
        C=(0,) * n_fp,
        V=tuple(G.full_mask if idx.nu >> i & 1 else 0 for i in range(n_fp)),
        R=(0,) * idx.n,
        F=0,
        S=(0,) * idx.n,
        T=(G.full_mask,) * n_fp,
    )


# ---------------------------------------------------------------------------
# Type-1: recompute results, validity, and stability bottom-up.


def trans1(cfg: Configuration) -> Configuration:
    G = cfg.G
    full = G.full_mask
    R, V, C, F, S, T = cfg.R, cfg.V, cfg.C, cfg.F, cfg.S, cfg.T
    top = cfg.k - 1
    # R' is one synchronous update reading only the old maps; composite
    # clauses therefore take several type-1 passes to propagate upward
    R2, S2, F2 = [], [], 0
    for op, a, b, bit, sub in cfg.idx.ops:
        if op == "Or":
            r, s = R[a] | R[b], S[a] & S[b] & full
        elif op == "And":
            r, s = R[a] & R[b], S[a] & S[b] & full
        elif op == "Var":
            r, s = V[a], full
        elif op == "Prop":
            r, s = G.prop_mask(a), full
        elif op == "AtLeast":
            r, s = G.at_least(R[a], b), S[a] & full
        elif op == "AllBut":
            r, s = G.all_but(R[a], b), S[a] & full
        elif op == "NegProp":
            r, s = full & ~G.prop_mask(a), full
        else:  # a fixpoint with body a and index b
            r, s = R[a], S[a] & T[b] & ~(V[b] ^ R2[a]) & full
            if C[b] < top:  # not valid before its counter reaches k-1
                bit = 0
        R2.append(r)
        S2.append(s)
        if F & sub == sub:
            F2 |= bit
    return Configuration(cfg.idx, G, cfg.k, C, V, tuple(R2), F2, tuple(S2), T)


# ---------------------------------------------------------------------------
# Type-2: tick ready fixpoints, reset dependents.


def _ticks_reset(cfg: Configuration) -> tuple[int, int]:
    """(ticking fixpoints, reset variables) as masks over fixpoint indices."""
    idx = cfg.idx
    F, C, top = cfg.F, cfg.C, cfg.k - 1
    ticks = reset = 0
    for fi, (sub, tfp) in enumerate(idx.binders):
        if F & sub == sub and C[fi] < top and all(C[j] == top for j in tfp):
            ticks |= 1 << fi
            reset |= idx.resets[fi]
    return ticks, reset


def _indices(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _trans2(cfg: Configuration, keep_dep_counters: bool):
    ticks, reset = _ticks_reset(cfg)
    if not ticks:
        return cfg, frozenset()
    idx, full = cfg.idx, cfg.G.full_mask
    C2, V2, T2 = list(cfg.C), list(cfg.V), list(cfg.T)
    dep = reset & ~ticks
    for fi, b in enumerate(idx.body_pos):
        if ticks >> fi & 1:
            C2[fi] += 1
            V2[fi] = cfg.R[b]
            T2[fi] &= cfg.S[b]
        elif dep >> fi & 1:
            if not keep_dep_counters:
                C2[fi] = 0
            V2[fi] = full if idx.nu >> fi & 1 else 0
            T2[fi] = full
    F2 = cfg.F
    for bit, free in idx.open:
        if free & reset:
            F2 &= ~bit
    cfg2 = Configuration(idx, cfg.G, cfg.k, tuple(C2), tuple(V2), cfg.R, F2, cfg.S, tuple(T2))
    return cfg2, _indices(dep)


def trans2(cfg: Configuration) -> Configuration:
    return _trans2(cfg, keep_dep_counters=False)[0]


def partial_trans2(cfg: Configuration) -> ExtendedConfiguration:
    return ExtendedConfiguration(*_trans2(cfg, keep_dep_counters=True))


# ---------------------------------------------------------------------------
# Type-3: restart at k+1 once complete.


def trans3(cfg: Configuration) -> Configuration:
    if not cfg.complete:
        return cfg
    return initial_configuration(cfg.idx, cfg.G, cfg.k + 1)


def partial_trans3(cfg: Configuration) -> ExtendedConfiguration:
    if not cfg.complete:
        return ExtendedConfiguration(cfg, frozenset())
    fresh = initial_configuration(cfg.idx, cfg.G, cfg.k + 1)
    return ExtendedConfiguration(fresh._replace(C=cfg.C), frozenset(range(cfg.idx.n_fp)))


# ---------------------------------------------------------------------------
# Extended system: one synchronous step of 3;1;2;reset.


def etrans_step(x: ExtendedConfiguration) -> ExtendedConfiguration:
    cfg, D = x.config, x.D
    if not D and cfg.complete:
        cfg, D = partial_trans3(cfg)
    if not D:
        cfg = trans1(cfg)
    if not D:
        cfg, D = partial_trans2(cfg)
    if D:
        C2 = list(cfg.C)
        for vi in D:
            if C2[vi] > 0:
                C2[vi] -= 1
        D = frozenset(vi for vi in D if C2[vi] > 0)
        cfg = Configuration(cfg.idx, cfg.G, cfg.k, tuple(C2), cfg.V, cfg.R, cfg.F, cfg.S, cfg.T)
    return ExtendedConfiguration(cfg, D)


# ---------------------------------------------------------------------------
# Coherence diagnosis.


def check_coherent(cfg: Configuration, ev: Evaluator | None = None) -> str | None:
    """None when coherent, otherwise a description of the first violation.
    `ev`, when given, is an `Evaluator` of cfg's index and graph."""
    idx, k, V = cfg.idx, cfg.k, cfg.V
    if ev is None:
        ev = Evaluator(idx, cfg.G)

    for fi, p in enumerate(idx.fp_positions):
        if not 0 <= cfg.C[fi] <= k - 1:
            return f"counter C({idx.var_names[fi]})={cfg.C[fi]} outside [0,{k-1}]"
        expect = ev.approx_chain(p, cfg.C[fi], k, V)[-1]
        if V[fi] != expect:
            return (
                f"soundness: V({idx.var_names[fi]})={V[fi]:b} but "
                f"iteration {cfg.C[fi]} of its binder gives {expect:b}"
            )

    valid = [p for p in range(idx.n) if cfg.F >> p & 1]
    for p in valid:
        expect = ev.evaluate(p, V, k)
        if cfg.R[p] != expect:
            return f"consistency: R at position {p} is {cfg.R[p]:b}, expected {expect:b}"
        if not all(cfg.F >> c & 1 for c in idx.sub[p]):
            return f"consistency: position {p} valid but a direct subformula is not"
        if idx.ops[p][0] in ("Mu", "Nu") and cfg.C[idx.ops[p][2]] != k - 1:
            return f"consistency: valid fixpoint at position {p} has counter < k-1"

    for p in valid:
        expect = ev.stable_set(p, V, k)
        if cfg.S[p] != expect:
            return f"stability: S at position {p} is {cfg.S[p]:b}, expected {expect:b}"
    for fi, p in enumerate(idx.fp_positions):
        expect = ev.jk_stable_set(p, cfg.C[fi], k, V)
        if cfg.T[fi] != expect:
            return (
                f"stability: T({idx.var_names[fi]})={cfg.T[fi]:b}, "
                f"expected {expect:b} at ({cfg.C[fi]},{k})"
            )
    return None


# ---------------------------------------------------------------------------
# Runners.


def safeguard(idx: SubformulaIndex, G: LabeledGraph) -> int:
    return 16 * (idx.n + 2) * (G.n + 2) ** (idx.n_fp + 2)


def run_counting(phi, G: LabeledGraph, on_config=None, max_steps: int | None = None):
    """Iterate 3;1;2 from bound 1 until complete and stable.

    on_config, when given, is called as on_config(kind, cfg) after every
    individual transition ('t3', 't1', 't2').
    """
    idx = sentence(phi)
    limit = max_steps if max_steps is not None else safeguard(idx, G)
    cfg = initial_configuration(idx, G, 1)
    if on_config:
        on_config("init", cfg)
    steps = 0
    while not (cfg.complete and cfg.stable):
        if steps >= limit:
            raise SafeguardExceeded(f"counting run exceeded {limit} steps")
        cfg = trans3(cfg)
        if on_config:
            on_config("t3", cfg)
        cfg = trans1(cfg)
        if on_config:
            on_config("t1", cfg)
        cfg = trans2(cfg)
        if on_config:
            on_config("t2", cfg)
        steps += 1
    return cfg, steps


def run_extended(phi, G: LabeledGraph, on_config=None, max_steps: int | None = None):
    """Iterate the extended step until complete, stable, and D empty."""
    idx = sentence(phi)
    limit = max_steps if max_steps is not None else safeguard(idx, G)
    x = ExtendedConfiguration(initial_configuration(idx, G, 1), frozenset())
    if on_config:
        on_config("init", x)
    steps = 0
    while not (x.config.complete and x.config.stable and not x.D):
        if steps >= limit:
            raise SafeguardExceeded(f"extended run exceeded {limit} steps")
        x = etrans_step(x)
        if on_config:
            on_config("estep", x)
        steps += 1
    return x, steps
