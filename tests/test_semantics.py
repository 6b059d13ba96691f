import random

import pytest

from mugnn.formula import FormulaError, Mu, Nu, parse, well_name
from mugnn.gen import random_formula, random_graph
from mugnn.graph import make_graph
from mugnn.semantics import (
    Evaluator,
    SemanticsError,
    evaluate,
    model_check_stable,
)

from oracles import naive_evaluate, to_mask


def test_reach_fixture(g1, phi_reach):
    assert evaluate(phi_reach, g1) == 0b111


def test_empty_and_full_fixpoints(g1):
    assert evaluate(parse("mu X.X"), g1) == 0
    assert evaluate(parse("nu X.X"), g1) == g1.full_mask


def test_diamond(g1):
    assert evaluate(parse("<>p"), g1) == 0b010


def test_missing_free_variable(g1):
    with pytest.raises(SemanticsError):
        evaluate(parse("X"), g1, {})


def test_against_naive_oracle():
    rng = random.Random(11)
    for _ in range(60):
        phi = random_formula(rng, max_size=12, max_fixpoints=2)
        G = random_graph(rng, max_nodes=5)
        assert evaluate(phi, G) == to_mask(naive_evaluate(phi, G, {}))


def test_adorn_outer_top_inner_nested(g1):
    # the outer count unfolds mu X, the inner one mu Y, by hand on g1
    phi = well_name(parse("mu X.(p | mu Y.(X | <>Y))"))
    p = g1.prop_mask("p")
    ev = Evaluator(g1)

    def by_hand(outer, inner):
        X = 0
        for _ in range(outer):
            Y = 0
            for _ in range(inner):
                Y = X | g1.at_least(Y, 1)
            X = p | Y
        return X

    for outer in range(5):
        for inner in range(5):
            assert ev.approx_chain(phi, outer, inner, {})[-1] == by_hand(outer, inner)
    assert ev.approx_chain(phi, 2, 0, {})[-1] == p  # inner 0: mu Y is empty
    assert ev.approx_chain(phi, 0, 2, {})[-1] == 0  # outer 0: mu X is empty
    assert ev.approx_chain(phi, 2, 2, {})[-1] == 0b110
    assert ev.approx_chain(phi, 2, 5, {})[-1] == 0b111


def test_adorn_non_fixpoint_top(g1):
    # nu X.<>X after j rounds: nodes with a path of j edges; with no binder
    # at the top, every fixpoint is iterated the same k times
    phi = parse("p | nu X.<>X")
    ev = Evaluator(g1)
    assert ev.evaluate(phi, {}, 2) == 0b101
    assert ev.evaluate(phi, {}, 3) == 0b100


def test_adorn_zero(g1):
    ev = Evaluator(g1)
    assert ev.approx_chain(parse("mu X.p"), 0, 3, {})[-1] == 0
    assert ev.approx_chain(parse("nu X.p"), 0, 3, {})[-1] == g1.full_mask
    assert ev.approx_chain(parse("mu X.p"), 1, 3, {})[-1] == 0b100


def test_adorned_chain_fixture(g1, phi_reach):
    ev = Evaluator(g1)
    assert ev.evaluate(phi_reach, {}, 1) == 0b100
    assert ev.evaluate(phi_reach, {}, 2) == 0b110
    assert ev.evaluate(phi_reach, {}, 3) == 0b111


def test_adorned_base_cases(g1):
    ev = Evaluator(g1)
    assert ev.approx_chain(parse("nu X.<>X"), 0, 0, {})[-1] == g1.full_mask
    assert ev.approx_chain(parse("mu X.<>X"), 0, 0, {})[-1] == 0


def test_adorned_unfolds_match_manual(g1, phi_reach):
    # i unfoldings of the body from the init set, by hand
    ev = Evaluator(g1)
    S = 0
    for i in range(4):
        assert ev.approx_chain(phi_reach, i, 4, {})[-1] == S
        S = ev.evaluate(phi_reach.body, {"X": S})


def test_atoms_always_stable(g1):
    for text in ("p", "~p"):
        for k in (1, 2, 5):
            for n in range(3):
                assert Evaluator(g1).stable_set(parse(text), {}, k) >> n & 1
    for k in (1, 2, 5):
        assert Evaluator(g1).stable_set(parse("X"), {"X": 0b010}, k) >> 1 & 1


def test_reach_stability_fixture(g1, phi_reach):
    assert not Evaluator(g1).stable_set(phi_reach, {}, 3) >> 0 & 1
    assert Evaluator(g1).stable_set(phi_reach, {}, 4) >> 0 & 1


def test_stability_at_n_plus_one():
    rng = random.Random(21)
    for _ in range(40):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        k = G.n + 1
        for n in range(G.n):
            assert Evaluator(G).stable_set(phi, {}, k) >> n & 1


def test_k_zero_rejected(g1, phi_reach):
    with pytest.raises(SemanticsError):
        Evaluator(g1).stable_set(phi_reach, {}, 0)


def test_jk_vacuous(g1, phi_reach):
    for n in range(3):
        assert Evaluator(g1).jk_stable_set(phi_reach, 0, 1, {}) >> n & 1


def test_jk_follows_from_k(g1):
    rng = random.Random(22)
    for _ in range(40):
        phi = random_formula(rng, max_size=12)
        if not isinstance(phi, (Mu, Nu)):
            continue
        G = random_graph(rng, max_nodes=5)
        for k in (1, 2, 3):
            full = Evaluator(G).stable_set(phi, {}, k)
            jk = Evaluator(G).jk_stable_set(phi, k, k, {})
            assert full & ~jk == 0  # k-stable nodes are (k,k)-stable


def test_jk_brute_force_cross_check(g1, phi_reach):
    # unfold Def 4 by hand: body stable under V_i for i < j
    ev = Evaluator(g1)
    j, k = 2, 2
    chain = ev.approx_chain(phi_reach, j - 1, k, {})
    expect = g1.full_mask
    for i in range(j):
        expect &= ev.stable_set(phi_reach.body, {"X": chain[i]}, k)
    got = ev.jk_stable_set(phi_reach, j, k, {})
    assert got == expect
    assert Evaluator(g1).jk_stable_set(phi_reach, j, k, {}) >> 1 & 1 == got >> 1 & 1


def test_jk_requires_fixpoint(g1):
    with pytest.raises(SemanticsError):
        Evaluator(g1).jk_stable_set(parse("p"), 1, 1, {})


def test_model_check_stable_fixture(g1, phi_reach):
    assert model_check_stable(phi_reach, g1) == (0b111, 4)


def test_model_check_stable_fixpoint_free(g1):
    assert model_check_stable(parse("p & q"), g1) == (0b100, 1)


def test_model_check_stable_rejects_open_formula(g1):
    with pytest.raises(FormulaError, match="no free variables"):
        model_check_stable(parse("mu X.(p | <>Y)"), g1)


def test_model_check_stable_nu_single_node():
    G = make_graph(["p"], ["0"], [[]], [])
    assert model_check_stable(parse("nu X.<>X"), G) == (0, 2)


def test_chain_monotonicity():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        phi = random_formula(rng, max_size=12)
        if not isinstance(phi, (Mu, Nu)):
            continue
        G = random_graph(rng, max_nodes=6)
        ev = Evaluator(G)
        k = G.n + 1
        chain = ev.approx_chain(phi, k, k, {})
        assert chain[-1] == ev.evaluate(phi, {}, k)
        for a, b in zip(chain, chain[1:]):
            if isinstance(phi, Mu):
                assert a & ~b == 0
            else:
                assert b & ~a == 0
        checked += 1


def test_stable_everywhere_implies_exact():
    rng = random.Random(24)
    for _ in range(40):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=6)
        mask, k = model_check_stable(phi, G)
        assert mask == evaluate(phi, G)
        assert k <= G.n + 1


def test_stability_preserved_upward():
    rng = random.Random(25)
    for _ in range(40):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        ev = Evaluator(G)
        mask, k = model_check_stable(phi, G)
        assert ev.stable_set(phi, {}, k + 1) == G.full_mask
        assert ev.evaluate(phi, {}, k) == ev.evaluate(phi, {}, k + 1)
