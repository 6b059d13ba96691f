"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (visible even under output capture)
and then asserts, so a failing criterion fails the suite honestly.
"""

import random
import time
from itertools import permutations, product

import numpy as np
import pytest

from mugnn.bisim import color_refinement
from mugnn.counting import (
    ExtendedConfiguration,
    check_coherent,
    etrans_step,
    initial_configuration,
    run_counting,
    run_extended,
    safeguard,
)
from mugnn.formula import index, parse, sentence, well_name
from mugnn.gen import path_graph, random_formula, random_graph
from mugnn.gnn import apply_layer, compile_formula, encode, run_gnn
from mugnn.graph import disjoint_union, make_graph
from mugnn.rfnn import (
    and_net,
    clip_net,
    geq_net,
    gt_net,
    mux_net,
    not_net,
    or_net,
    rfnn_eval,
)
from mugnn.semantics import Evaluator, evaluate, model_check_stable


@pytest.fixture
def announce(capsys):
    def _announce(num, desc, ok, extra=""):
        line = f"acceptance {num:02d} {desc}: {'PASS' if ok else 'FAIL'}"
        if extra:
            line += f" ({extra})"
        with capsys.disabled():
            print(line)

    return _announce


def make_corpus(seed, count):
    rng = random.Random(seed)
    return [
        (
            random_formula(
                rng,
                props=("p", "q", "r"),
                max_fixpoints=3,
                max_grade=3,
                max_size=25,
            ),
            random_graph(rng, max_nodes=10, edge_prob=0.3, props=("p", "q", "r")),
        )
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def corpus500():
    return make_corpus(2026, 500)


def out_mask(out):
    return sum(1 << n for n, bit in enumerate(out) if bit)


def test_01_gnn_matches_semantics_on_500_pairs(corpus500, announce):
    t0 = time.perf_counter()
    bad = 0
    for phi, G in corpus500:
        gnn = compile_formula(phi, props=G.props)
        out, _, _ = run_gnn(gnn, G)
        if out_mask(out) != evaluate(phi, G):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 180
    announce(1, "compiled GNN equals semantics on 500 seeded pairs", ok,
             f"{elapsed:.1f}s, {bad} mismatches")
    assert ok


def test_02_lockstep_simulation_on_100_runs(corpus500, announce):
    bad = 0
    for phi, G in corpus500[:100]:
        gnn = compile_formula(phi, props=G.props)
        x = ExtendedConfiguration(initial_configuration(gnn.idx, G, 1), frozenset())
        _, esteps = run_extended(phi, G)
        for _ in range(esteps):
            got = apply_layer(gnn, G, encode(x, gnn.layout))
            x = etrans_step(x)
            if not np.array_equal(got, encode(x, gnn.layout)):
                bad += 1
                break
    announce(2, "one GNN layer simulates one extended step, bit-exact, 100 runs",
             bad == 0, f"{bad} divergent runs")
    assert bad == 0


def test_03_extended_equals_plain_on_200_instances(corpus500, announce):
    bad = 0
    for phi, G in corpus500[:200]:
        cfg, _ = run_counting(phi, G)
        x, _ = run_extended(phi, G)
        if x.config != cfg:
            bad += 1
    announce(3, "extended and plain runs reach identical final configurations, 200 instances",
             bad == 0, f"{bad} mismatches")
    assert bad == 0


def test_04_coherence_after_every_transition_on_50_runs(corpus500, announce):
    bad = []

    for phi, G in corpus500[:50]:
        idx = sentence(phi)
        ev = Evaluator(idx, G)

        def on_config(kind, cfg):
            diag = check_coherent(cfg, ev)
            if diag is not None:
                bad.append((kind, diag))

        run_counting(idx, G, on_config=on_config)
    announce(4, "coherence holds after every transition along 50 full runs",
             not bad, f"{len(bad)} violations")
    assert not bad


def test_05_stable_bound_is_exact_and_small(corpus500, announce):
    bad = 0
    for phi, G in corpus500:
        mask, k = model_check_stable(phi, G)
        if mask != evaluate(phi, G) or k > G.n + 1:
            bad += 1
    announce(5, "everywhere-stable bound gives exact semantics with k <= |N|+1, 500 instances",
             bad == 0, f"{bad} violations")
    assert bad == 0


def test_06_stability_preserved_upward_on_200_instances(announce):
    bad = 0
    for phi, G in make_corpus(2027, 200):
        idx = sentence(phi)
        ev, V = Evaluator(idx, G), (0,) * idx.n_fp
        _, k = model_check_stable(idx, G)
        up = ev.stable_set(idx.root, V, k + 1) == G.full_mask
        same = ev.evaluate(idx.root, V, k) == ev.evaluate(idx.root, V, k + 1)
        if not (up and same):
            bad += 1
    announce(6, "everywhere k-stable implies (k+1)-stable with equal approximants, 200 instances",
             bad == 0, f"{bad} violations")
    assert bad == 0


def cycle_graph(n, label):
    return make_graph(
        ("p", "q"),
        [str(i) for i in range(n)],
        [list(label) for _ in range(n)],
        [(i, (i + 1) % n) for i in range(n)],
    )


def test_07_gnn_invariant_under_bisimilarity_on_100_pairs(announce):
    rng = random.Random(2028)
    bad = 0
    pairs = 0
    # 50 pairs by disjoint duplication: each node is bisimilar to its copy
    for _ in range(50):
        phi = random_formula(rng, props=("p", "q"), max_size=15)
        G = random_graph(rng, max_nodes=5, props=("p", "q"))
        U = disjoint_union(G, G)
        gnn = compile_formula(phi, props=G.props)
        out_g, _, _ = run_gnn(gnn, G)
        out_u, _, _ = run_gnn(gnn, U)
        pairs += 1
        if any(
            not (out_g[n] == out_u[n] == out_u[G.n + n]) for n in range(G.n)
        ):
            bad += 1
    # 50 pairs by cycle-length variation: uniformly labeled simple cycles of
    # different lengths are pointwise bisimilar
    for _ in range(50):
        phi = random_formula(rng, props=("p", "q"), max_size=15)
        label = rng.choice([(), ("p",), ("q",), ("p", "q")])
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        Ca, Cb = cycle_graph(a, label), cycle_graph(b, label)
        gnn = compile_formula(phi, props=Ca.props)
        out_a, _, _ = run_gnn(gnn, Ca)
        out_b, _, _ = run_gnn(gnn, Cb)
        pairs += 1
        if len(set(out_a) | set(out_b)) != 1:
            bad += 1
    announce(7, "GNN outputs agree across 100 graded-bisimilar pointed pairs",
             bad == 0, f"{pairs} pairs, {bad} violations")
    assert bad == 0


def test_08_gadget_exactness(announce):
    bad = 0
    clip, gt, geq = clip_net(), gt_net(), geq_net()
    anet, onet, nnet, mnet = and_net(), or_net(), not_net(), mux_net()
    for a in (0, 1):
        if rfnn_eval(nnet, [a]) != [1 - a]:
            bad += 1
        for b in (0, 1):
            if rfnn_eval(anet, [a, b]) != [a & b]:
                bad += 1
            if rfnn_eval(onet, [a, b]) != [a | b]:
                bad += 1
            for g in (0, 1):
                if rfnn_eval(mnet, [g, a, b]) != [a if g else b]:
                    bad += 1
    for x in range(-1000, 1001):
        if rfnn_eval(clip, [x]) != [max(0, min(1, x))]:
            bad += 1
        for y in (x - 1, x, x + 1, 0, -1000, 1000):
            if rfnn_eval(gt, [x, y]) != [1 if x > y else 0]:
                bad += 1
            if rfnn_eval(geq, [x, y]) != [1 if x >= y else 0]:
                bad += 1
    announce(8, "gadgets exact on booleans and on [-1000, 1000]", bad == 0,
             f"{bad} errors")
    assert bad == 0


def test_09_halting_growth_on_paths(announce):
    iters_by_n = []
    ok = True
    phi = well_name(parse("mu X.(p | <>X)"))
    for n in range(2, 13):
        G = path_graph(n)
        gnn = compile_formula(phi, props=G.props)
        out, iters, _ = run_gnn(gnn, G)
        bound = safeguard(index(phi), G)
        if not (out == [True] * n and 0 < iters <= bound):
            ok = False
        iters_by_n.append(iters)
    if iters_by_n != sorted(iters_by_n):
        ok = False
    announce(9, "reachability GNN halts under the safeguard, monotone in path length",
             ok, f"iterations N=2..12: {iters_by_n}")
    assert ok


def all_one_prop_graphs_up_to_iso(max_nodes=3):
    """One representative per isomorphism class of digraphs with a single
    proposition; bisimilarity is isomorphism-invariant, so representatives
    cover every pointed-graph pair."""
    reps = []
    for n in range(1, max_nodes + 1):
        seen = set()
        for adj_bits in range(1 << (n * n)):
            for lab_bits in range(1 << n):
                key = min(
                    (
                        tuple(sorted(
                            (perm[a], perm[b])
                            for a in range(n)
                            for b in range(n)
                            if adj_bits >> (a * n + b) & 1
                        )),
                        tuple(sorted(perm[a] for a in range(n) if lab_bits >> a & 1)),
                    )
                    for perm in permutations(range(n))
                )
                if key in seen:
                    continue
                seen.add(key)
                reps.append(
                    make_graph(
                        ("p",),
                        [str(i) for i in range(n)],
                        [["p"] if lab_bits >> i & 1 else [] for i in range(n)],
                        [
                            (a, b)
                            for a in range(n)
                            for b in range(n)
                            if adj_bits >> (a * n + b) & 1
                        ],
                    )
                )
    return reps


def brute_relation(G, H):
    """Greatest graded bisimulation between G-nodes and H-nodes."""
    Z = {
        (a, c)
        for a in range(G.n)
        for c in range(H.n)
        if G.labels[a] == H.labels[c] and len(G.adj[a]) == len(H.adj[c])
    }

    def ok(a, c):
        return any(
            all((u, v) in Z for u, v in zip(G.adj[a], perm))
            for perm in permutations(H.adj[c])
        )

    while True:
        drop = {(a, c) for a, c in Z if not ok(a, c)}
        if not drop:
            return Z
        Z -= drop


def test_10_refinement_matches_brute_force_exhaustively(announce):
    reps = all_one_prop_graphs_up_to_iso(3)
    bad = 0
    pairs = 0
    points = 0
    for i, G in enumerate(reps):
        for H in reps[i:]:
            if G.n + H.n > 6:
                continue
            colors = color_refinement(disjoint_union(G, H)).colors
            Z = brute_relation(G, H)
            pairs += 1
            for n in range(G.n):
                for m in range(H.n):
                    points += 1
                    if (colors[n] == colors[G.n + m]) != ((n, m) in Z):
                        bad += 1
    announce(10, "color refinement equals brute-force search, exhaustive <=6-node pairs",
             bad == 0, f"{pairs} graph pairs, {points} pointed pairs, {bad} mismatches")
    assert bad == 0
