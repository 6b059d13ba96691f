import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mugnn.bisim import color_refinement
from mugnn.counting import run_counting, run_extended
from mugnn.formula import parse, sentence, to_text
from mugnn.gen import path_graph, random_formula, random_graph
from mugnn.gnn import compile_formula, run_gnn
from mugnn.graph import WIDE_GRAPH, GraphError, disjoint_union, graph_to_json, make_graph, mask_of
from mugnn.semantics import evaluate, model_check_stable

from oracles import brute_force_g_bisimilar, g_bisimilar, random_lift
from test_graph import sparse_graph


def cycle(n, props=("p",)):
    return make_graph(
        props,
        [str(i) for i in range(n)],
        [[] for _ in range(n)],
        [(i, (i + 1) % n) for i in range(n)],
    )


def test_reflexive(g1):
    for n in range(g1.n):
        assert g_bisimilar(g1, n, g1, n)


def test_disjoint_duplication(g1):
    U = disjoint_union(g1, g1)
    for n in range(g1.n):
        assert g_bisimilar(g1, n, U, g1.n + n)


def test_cycle_lengths_bisimilar():
    C2, C3 = cycle(2), cycle(3)
    assert g_bisimilar(C2, 0, C3, 0)
    sink = make_graph(("p",), ["0"], [[]], [])
    assert not g_bisimilar(C2, 0, sink, 0)


def test_different_labels_not_bisimilar():
    a = make_graph(("p",), ["0"], [["p"]], [])
    b = make_graph(("p",), ["0"], [[]], [])
    assert not g_bisimilar(a, 0, b, 0)


def test_grading_matters():
    # one successor vs two bisimilar successors: graded logic distinguishes
    one = make_graph(("p",), ["0", "1"], [[], ["p"]], [(0, 1)])
    two = make_graph(("p",), ["0", "1", "2"], [[], ["p"], ["p"]], [(0, 1), (0, 2)])
    assert not g_bisimilar(one, 0, two, 0)
    assert not brute_force_g_bisimilar(one, 0, two, 0)
    assert evaluate(parse("<2>p"), one) >> 0 & 1 == 0
    assert evaluate(parse("<2>p"), two) >> 0 & 1 == 1


def test_universe_mismatch():
    a = make_graph(("p",), ["0"], [[]], [])
    b = make_graph(("q",), ["0"], [[]], [])
    with pytest.raises(GraphError):
        g_bisimilar(a, 0, b, 0)


def test_refinement_monotone_rounds(g1):
    col = color_refinement(g1)
    assert col.rounds <= g1.n + 1
    assert len(col.colors) == g1.n


def test_equivalence_relation():
    rng = random.Random(61)
    graphs = [random_graph(rng, max_nodes=4, props=("p",)) for _ in range(6)]
    pts = [(G, n) for G in graphs for n in range(G.n)]
    rng.shuffle(pts)
    pts = pts[:8]
    for (G, n), (H, m) in product(pts, repeat=2):
        assert g_bisimilar(G, n, H, m) == g_bisimilar(H, m, G, n)
    for (G, n), (H, m), (I, o) in product(pts, repeat=3):
        if g_bisimilar(G, n, H, m) and g_bisimilar(H, m, I, o):
            assert g_bisimilar(G, n, I, o)


def test_formula_invariance():
    rng = random.Random(62)
    for _ in range(25):
        phi = random_formula(rng, max_size=12, props=("p", "q"))
        G = random_graph(rng, max_nodes=5, props=("p", "q"))
        U = disjoint_union(G, G)
        got = evaluate(phi, U)
        for n in range(G.n):
            assert (got >> n & 1) == (got >> (G.n + n) & 1)


def all_small_graphs(rng, count, max_nodes=3):
    out = []
    for _ in range(count):
        out.append(random_graph(rng, max_nodes=max_nodes, props=("p",)))
    return out


def test_brute_force_equivalence_sweep():
    rng = random.Random(63)
    pairs = 0
    for G in all_small_graphs(rng, 12):
        for H in all_small_graphs(rng, 12):
            if G.n + H.n > 6:
                continue
            for n in range(G.n):
                for m in range(H.n):
                    assert g_bisimilar(G, n, H, m) == brute_force_g_bisimilar(G, n, H, m)
                    pairs += 1
    assert pairs > 100


def _run_all(phi, G, gnn):
    """The answer masks of the five engines, then stable's, counting's and
    extended's k, the counting and extended steps and the GNN rounds."""
    idx = sentence(phi)
    stable, stable_k = model_check_stable(idx, G)
    cfg, steps = run_counting(idx, G)
    x, esteps = run_extended(idx, G)
    out, rounds, _ = run_gnn(gnn, G)
    answers = (evaluate(idx, G), stable, cfg.R[idx.root], x.config.R[idx.root],
               mask_of(i for i, bit in enumerate(out) if bit))
    return answers, (stable_k, cfg.k, x.config.k, steps, esteps, rounds)


LIFT_SENTENCES = ["mu X.(p | <>X)", "nu X.([2]X & mu Y.(q | <>Y))", "nu X.(<2>X | [3]~p)",
                  "mu X.(q | ([1]X & <2>p))", "nu X.(mu Y.((p & <>X) | <>Y))"]


# (nodes of G, copies): lifts across the mask byte boundaries 8 and 16 and
# across WIDE_GRAPH, where graded counts leave the byte tables and node loop
@pytest.mark.parametrize("n, m", [(3, 3), (5, 2), (8, 2), (6, 3), (12, 2), (16, 3), (33, 3),
                                  (WIDE_GRAPH // 2 + 1, 2)])
def test_engines_are_oblivious_to_covering_graphs(n, m):
    # The paper's size-obliviousness: on an m-fold lift H of G, every copy of
    # a node gets the node's answer from all five engines, and k, the
    # counting and extended steps and the GNN rounds are those of G.  On the
    # path, reach climbs to k = n + 1 on H too, not to m * n + 1.
    rng = random.Random(100 * n + m)
    path = path_graph(n)
    cases = [(path, "mu X.(p | <>X)")]
    for G in (sparse_graph(rng, n, 1), sparse_graph(rng, n, 3)):
        phi = random_formula(rng, props=G.props, max_fixpoints=2, max_size=12)
        cases += [(G, text) for text in (*LIFT_SENTENCES, phi)]
    for G, phi in cases:
        H = random_lift(G, m, rng)
        colors = color_refinement(disjoint_union(G, H)).colors
        assert H.n == m * n and colors[n:] == colors[:n] * m  # a covering
        gnn = compile_formula(phi, props=G.props)
        answers, counts = _run_all(phi, G, gnn)
        lifted = tuple(sum(a << i * n for i in range(m)) for a in answers)
        assert len(set(answers)) == 1 and counts[:3] == (counts[0],) * 3
        assert counts[0] == n + 1 if G is path else counts[0] <= n + 1
        assert _run_all(phi, H, gnn) == (lifted, counts), (to_text(sentence(phi)), n, m)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_k_at_most_refinement_classes_plus_one(seed):
    # k never exceeds the number of graded-bisimulation classes plus one, a
    # bound far below |N| + 1 on a lift, whose classes are those of its base.
    rng = random.Random(seed)
    base = rng.choice([random_graph(rng, max_nodes=7), path_graph(rng.randint(1, 7))])
    G = rng.choice([random_graph(rng, max_nodes=14), random_lift(base, rng.randint(1, 3), rng)])
    phi = rng.choice([random_formula(rng, props=G.props, max_fixpoints=2, max_size=14),
                      *LIFT_SENTENCES[:2]])
    classes = len(set(color_refinement(G).colors))
    cfg, _ = run_counting(phi, G)
    assert cfg.k <= classes + 1, (to_text(sentence(phi)), graph_to_json(G))
