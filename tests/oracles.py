"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own algorithms: fixpoints are found
by enumerating candidate node sets, not by Kleene iteration, graded
bisimilarity by searching bijections, and the counting step is restated
clause by clause, so agreement is evidence rather than tautology.  Usable
on small graphs only.  `is_well_named` restates the well-naming rule that
the library checks only inside its index walk.

The reference step reads the index's order of subformulas and fixpoints,
but derives every fact about a subformula from its tree (`tree_facts`), not
from the masks the library's step runs on.

The last section holds helpers over the library's own code that only the
tests call: graded bisimilarity by color refinement, writing a graph file,
and the type-2 step's tick and reset sets as index sets.
"""

import json
from functools import lru_cache
from itertools import combinations, permutations
from types import SimpleNamespace

from mugnn.bisim import color_refinement
from mugnn.counting import ExtendedConfiguration, _indices, _ticks_reset, initial_configuration
from mugnn.formula import (
    AllBut,
    And,
    AtLeast,
    Mu,
    NegProp,
    Nu,
    Or,
    Prop,
    Var,
    children,
    free_vars,
)
from mugnn.graph import GraphError, disjoint_union, graph_to_json


def all_subsets(n):
    full = list(range(n))
    for size in range(n + 1):
        for combo in combinations(full, size):
            yield frozenset(combo)


def naive_evaluate(phi, G, V):
    """Set semantics with fixpoints via intersection/union over pre/post-fixpoints."""
    n = G.n
    if isinstance(phi, Prop):
        return frozenset(i for i in range(n) if phi.name in G.labels[i])
    if isinstance(phi, NegProp):
        return frozenset(i for i in range(n) if phi.name not in G.labels[i])
    if isinstance(phi, Var):
        return V[phi.name]
    if isinstance(phi, And):
        return naive_evaluate(phi.lhs, G, V) & naive_evaluate(phi.rhs, G, V)
    if isinstance(phi, Or):
        return naive_evaluate(phi.lhs, G, V) | naive_evaluate(phi.rhs, G, V)
    if isinstance(phi, AtLeast):
        body = naive_evaluate(phi.body, G, V)
        return frozenset(
            i for i in range(n) if len([m for m in G.adj[i] if m in body]) >= phi.grade
        )
    if isinstance(phi, AllBut):
        body = naive_evaluate(phi.body, G, V)
        return frozenset(
            i for i in range(n) if len([m for m in G.adj[i] if m not in body]) < phi.grade
        )
    if isinstance(phi, Mu):
        # least fixpoint = intersection of all prefixpoints
        result = frozenset(range(n))
        for S in all_subsets(n):
            if naive_evaluate(phi.body, G, {**V, phi.var: S}) <= S:
                result &= S
        return result
    if isinstance(phi, Nu):
        # greatest fixpoint = union of all postfixpoints
        result = frozenset()
        for S in all_subsets(n):
            if S <= naive_evaluate(phi.body, G, {**V, phi.var: S}):
                result |= S
        return result
    raise TypeError(phi)


def to_mask(nodes):
    out = 0
    for i in nodes:
        out |= 1 << i
    return out


def is_well_named(phi):
    """Each variable bound once and none also free, read off the tree: the
    reference for the check in the index walk."""
    bound, stack = [], [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, (Mu, Nu)):
            bound.append(f.var)
        stack.extend(children(f))
    return len(set(bound)) == len(bound) and free_vars(phi).isdisjoint(bound)


# ---------------------------------------------------------------------------
# The counting step clause by clause: one isinstance dispatch per subformula
# and per-node graded counts, the reference for `mugnn.counting`'s compiled
# step.


@lru_cache(maxsize=256)
def tree_facts(idx):
    """Per position of `idx.formulas`, read off its tree: its free variables
    by name (`free`), whether it is a fixpoint (`is_fp`) and a mu (`is_mu`),
    and the fixpoint indices of its strict fixpoint subformulas (`tfp`).
    Also the fixpoint index of each fixpoint position (`fp_index`) and of
    each bound variable (`var_index`), fixpoints numbered in index order."""
    forms = idx.formulas
    is_fp = tuple(isinstance(f, (Mu, Nu)) for f in forms)
    fps = [p for p, fp in enumerate(is_fp) if fp]
    fp_index = {p: i for i, p in enumerate(fps)}
    at = {f: p for p, f in enumerate(forms)}

    def strict(f):
        below, stack = set(), list(children(f))
        while stack:
            g = stack.pop()
            if isinstance(g, (Mu, Nu)):
                below.add(fp_index[at[g]])
            stack.extend(children(g))
        return frozenset(below)

    return SimpleNamespace(
        free=tuple(free_vars(f) for f in forms),
        is_fp=is_fp,
        is_mu=tuple(isinstance(f, Mu) for f in forms),
        tfp=tuple(map(strict, forms)),
        fp_index=fp_index,
        var_index={forms[p].var: i for i, p in enumerate(fps)},
    )


def reference_trans1(cfg):
    idx, G = cfg.idx, cfg.G
    full = G.full_mask
    k = cfg.k
    t = tree_facts(idx)

    R2 = []
    for p, f in enumerate(idx.formulas):
        if isinstance(f, Prop):
            r = G.prop_mask(f.name)
        elif isinstance(f, NegProp):
            r = full & ~G.prop_mask(f.name)
        elif isinstance(f, Var):
            r = cfg.V[t.var_index[f.name]]
        elif isinstance(f, And):
            r = cfg.R[idx.pos[f.lhs]] & cfg.R[idx.pos[f.rhs]]
        elif isinstance(f, Or):
            r = cfg.R[idx.pos[f.lhs]] | cfg.R[idx.pos[f.rhs]]
        elif isinstance(f, AtLeast):
            body = cfg.R[idx.pos[f.body]]
            r = 0
            for n in range(G.n):
                if sum(body >> m & 1 for m in G.adj[n]) >= f.grade:
                    r |= 1 << n
        elif isinstance(f, AllBut):
            body = cfg.R[idx.pos[f.body]]
            r = 0
            for n in range(G.n):
                if sum(1 - (body >> m & 1) for m in G.adj[n]) < f.grade:
                    r |= 1 << n
        elif isinstance(f, (Mu, Nu)):
            r = cfg.R[idx.pos[f.body]]
        else:
            raise TypeError(f"not a formula: {f!r}")
        R2.append(r)

    F2 = 0
    for p in range(idx.n):
        if all(cfg.F >> c & 1 for c in idx.sub[p]):
            if t.is_fp[p] and cfg.C[t.fp_index[p]] < k - 1:
                continue
            F2 |= 1 << p

    S2 = []
    for p, f in enumerate(idx.formulas):
        if t.is_fp[p]:
            fi = t.fp_index[p]
            b = idx.body_pos[fi]
            s = cfg.S[b] & cfg.T[fi] & ~(cfg.V[fi] ^ R2[b]) & full
        else:
            s = full
            for c in idx.sub[p]:
                s &= cfg.S[c]
        S2.append(s)

    return cfg._replace(R=tuple(R2), F=F2, S=tuple(S2))


def reference_ticks_reset_dep(cfg):
    idx = cfg.idx
    k = cfg.k
    t = tree_facts(idx)
    ticks = set()
    for fi, p in enumerate(idx.fp_positions):
        if not all(cfg.F >> c & 1 for c in idx.sub[p]):
            continue
        if cfg.C[fi] >= k - 1:
            continue
        if all(cfg.C[bj] == k - 1 for bj in t.tfp[p]):
            ticks.add(fi)

    reset = set(ticks)
    changed = True
    while changed:
        changed = False
        for vi, p in enumerate(idx.fp_positions):
            if vi in reset:
                continue
            if t.free[p] & {idx.var_names[r] for r in reset}:
                reset.add(vi)
                changed = True
    dep = reset - ticks
    return frozenset(ticks), frozenset(reset), frozenset(dep)


def reference_trans2(cfg, keep_dep_counters=False):
    """The type-2 step; with keep_dep_counters, the extended system's
    partial step, which also returns the variables left to count down."""
    idx, G = cfg.idx, cfg.G
    t = tree_facts(idx)
    ticks, reset, dep = reference_ticks_reset_dep(cfg)
    if not ticks:
        return cfg, frozenset()
    C2 = list(cfg.C)
    V2 = list(cfg.V)
    T2 = list(cfg.T)
    for fi in ticks:
        b = idx.body_pos[fi]
        C2[fi] = cfg.C[fi] + 1
        V2[fi] = cfg.R[b]
        T2[fi] = cfg.T[fi] & cfg.S[b]
    for fi in dep:
        if not keep_dep_counters:
            C2[fi] = 0
        V2[fi] = 0 if t.is_mu[idx.fp_positions[fi]] else G.full_mask
        T2[fi] = G.full_mask
    reset_names = {idx.var_names[r] for r in reset}
    F2 = cfg.F
    for p in range(idx.n):
        if F2 >> p & 1 and t.free[p] & reset_names:
            F2 &= ~(1 << p)
    cfg2 = cfg._replace(C=tuple(C2), V=tuple(V2), F=F2, T=tuple(T2))
    return cfg2, dep


def reference_trans3(cfg):
    if not cfg.complete:
        return cfg
    return initial_configuration(cfg.idx, cfg.G, cfg.k + 1)


def reference_etrans_step(x):
    cfg, D = x.config, x.D
    if not D and cfg.complete:
        fresh = initial_configuration(cfg.idx, cfg.G, cfg.k + 1)
        cfg, D = fresh._replace(C=cfg.C), frozenset(range(cfg.idx.n_fp))
    if not D:
        cfg = reference_trans1(cfg)
    if not D:
        cfg, D = reference_trans2(cfg, keep_dep_counters=True)
    if D:
        C2 = list(cfg.C)
        D2 = set()
        for vi in D:
            c = cfg.C[vi]
            if c > 0:
                C2[vi] = c - 1
            if c - 1 > 0:
                D2.add(vi)
        cfg = cfg._replace(C=tuple(C2))
        D = frozenset(D2)
    return ExtendedConfiguration(cfg, D)


def brute_force_g_bisimilar(G, n, H, m):
    """Greatest-fixpoint search for a graded bisimulation; small graphs only."""
    if G.props != H.props:
        raise GraphError("g-bisimilarity needs a common proposition universe")
    Z = {
        (a, c)
        for a in range(G.n)
        for c in range(H.n)
        if G.labels[a] == H.labels[c]
    }

    def ok(a, c, rel):
        ga, hc = G.adj[a], H.adj[c]
        if len(ga) != len(hc):
            return False
        # a Z-respecting bijection between out-neighbor lists
        return any(
            all((u, v) in rel for u, v in zip(ga, perm))
            for perm in permutations(hc)
        )

    while True:
        keep = {(a, c) for a, c in Z if ok(a, c, Z)}
        if keep == Z:
            return (n, m) in Z
        Z = keep


# ---------------------------------------------------------------------------
# Helpers over the library's own code.


def g_bisimilar(G, n, H, m):
    """Whether node n of G and node m of H are graded bisimilar: their colors
    agree in the refinement of the disjoint union."""
    coloring = color_refinement(disjoint_union(G, H))
    return coloring.colors[n] == coloring.colors[G.n + m]


def save_graph(G, path):
    with open(path, "w") as fh:
        json.dump(graph_to_json(G), fh, indent=2)
        fh.write("\n")


def ticks_reset_dep(cfg):
    """The library's (ticking fixpoints, reset variables, dependent
    fixpoints) of a configuration, all as index sets."""
    ticks, reset = _ticks_reset(cfg)
    return _indices(ticks), _indices(reset), _indices(reset & ~ticks)
