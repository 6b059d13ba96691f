import random
from itertools import product

import pytest

from mugnn.bisim import color_refinement
from mugnn.formula import parse
from mugnn.gen import random_formula, random_graph
from mugnn.graph import GraphError, disjoint_union, make_graph
from mugnn.semantics import evaluate

from oracles import brute_force_g_bisimilar, g_bisimilar


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
