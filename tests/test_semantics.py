import random

import pytest

from mugnn.formula import FormulaError, Mu, Nu, index, parse, sentence, well_name
from mugnn.gen import random_formula, random_graph
from mugnn.graph import make_graph
from mugnn.semantics import (
    Evaluator,
    SemanticsError,
    evaluate,
    model_check_stable,
)

from oracles import naive_evaluate, to_mask


def at_root(phi, G):
    """An evaluator of the sentence phi on G, its root position and a
    valuation with one empty set per variable."""
    idx = sentence(phi)
    return Evaluator(idx, G), idx.root, (0,) * idx.n_fp


def test_reach_fixture(g1, phi_reach):
    assert evaluate(phi_reach, g1) == 0b111


def test_empty_and_full_fixpoints(g1):
    assert evaluate(parse("mu X.X"), g1) == 0
    assert evaluate(parse("nu X.X"), g1) == g1.full_mask


def test_diamond(g1):
    assert evaluate(parse("<>p"), g1) == 0b010


def test_missing_free_variable(g1):
    with pytest.raises(FormulaError, match="no free variables"):
        evaluate(parse("X"), g1)


def test_against_naive_oracle():
    rng = random.Random(11)
    for _ in range(60):
        phi = random_formula(rng, max_size=12, max_fixpoints=2)
        G = random_graph(rng, max_nodes=5)
        assert evaluate(phi, G) == to_mask(naive_evaluate(phi, G, {}))


def test_every_position_against_naive_oracle():
    # each subformula under valuations of its free variables, drawn by
    # variable number and named for the oracle.  One evaluator per sentence
    # shares its memo among them all, and sets are drawn from few, so that
    # two valuations often agree on some variables and differ on others.
    # Random sentences seldom have a subformula with two free variables, so
    # three with some follow them.
    rng = random.Random(12)
    phis = [random_formula(rng, max_size=12, max_fixpoints=2) for _ in range(60)]
    phis += map(parse, ("mu X.(p | mu Y.(X | <>Y))", "nu X.mu Y.(q & <>X | [2]Y)",
                        "nu X.(mu Y.(p | <>(Y & X))) & mu Z.(X | nu W.(W & <2>Z | ~q))"))
    for phi in phis:
        idx = sentence(phi)
        G = random_graph(rng, max_nodes=5)
        ev = Evaluator(idx, G)
        some = (0, G.full_mask, rng.getrandbits(G.n))
        for p, f in enumerate(idx.formulas):
            free = [i for i in range(idx.n_fp) if idx.free[p] >> i & 1]
            for _ in range(3):
                V = [0] * idx.n_fp
                for i in free:
                    V[i] = rng.choice(some)
                named = {idx.var_names[i]: frozenset(n for n in range(G.n) if V[i] >> n & 1)
                         for i in free}
                assert ev.evaluate(p, tuple(V), None) == to_mask(naive_evaluate(f, G, named))


def test_adorn_outer_top_inner_nested(g1):
    # the outer count unfolds mu X, the inner one mu Y, by hand on g1
    phi = well_name(parse("mu X.(p | mu Y.(X | <>Y))"))
    p = g1.prop_mask("p")
    ev, root, V = at_root(phi, g1)

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
            assert ev.approx_chain(root, outer, inner, V)[-1] == by_hand(outer, inner)
    assert ev.approx_chain(root, 2, 0, V)[-1] == p  # inner 0: mu Y is empty
    assert ev.approx_chain(root, 0, 2, V)[-1] == 0  # outer 0: mu X is empty
    assert ev.approx_chain(root, 2, 2, V)[-1] == 0b110
    assert ev.approx_chain(root, 2, 5, V)[-1] == 0b111


def test_adorn_non_fixpoint_top(g1):
    # nu X.<>X after j rounds: nodes with a path of j edges; with no binder
    # at the top, every fixpoint is iterated the same k times
    ev, root, V = at_root(parse("p | nu X.<>X"), g1)
    assert ev.evaluate(root, V, 2) == 0b101
    assert ev.evaluate(root, V, 3) == 0b100


def test_adorn_zero(g1):
    ev, mu, V = at_root(parse("mu X.p"), g1)
    assert ev.approx_chain(mu, 0, 3, V)[-1] == 0
    assert ev.approx_chain(mu, 1, 3, V)[-1] == 0b100
    ev, nu, V = at_root(parse("nu X.p"), g1)
    assert ev.approx_chain(nu, 0, 3, V)[-1] == g1.full_mask


def test_adorned_chain_fixture(g1, phi_reach):
    ev, root, V = at_root(phi_reach, g1)
    assert ev.evaluate(root, V, 1) == 0b100
    assert ev.evaluate(root, V, 2) == 0b110
    assert ev.evaluate(root, V, 3) == 0b111


def test_adorned_base_cases(g1):
    ev, nu, V = at_root(parse("nu X.<>X"), g1)
    assert ev.approx_chain(nu, 0, 0, V)[-1] == g1.full_mask
    ev, mu, V = at_root(parse("mu X.<>X"), g1)
    assert ev.approx_chain(mu, 0, 0, V)[-1] == 0


def test_adorned_unfolds_match_manual(g1, phi_reach):
    # i unfoldings of the body from the init set, by hand
    ev, root, V = at_root(phi_reach, g1)
    body = ev.idx.body_pos[0]
    S = 0
    for i in range(4):
        assert ev.approx_chain(root, i, 4, V)[-1] == S
        S = ev.evaluate(body, (S,))


def test_atoms_always_stable(g1):
    for text in ("p", "~p"):
        for k in (1, 2, 5):
            for n in range(3):
                ev, root, V = at_root(parse(text), g1)
                assert ev.stable_set(root, V, k) >> n & 1
    idx = index(parse("X"))  # an open formula: its free variable is number 0
    for k in (1, 2, 5):
        assert Evaluator(idx, g1).stable_set(idx.root, (0b010,), k) >> 1 & 1


def test_reach_stability_fixture(g1, phi_reach):
    ev, root, V = at_root(phi_reach, g1)
    assert not ev.stable_set(root, V, 3) >> 0 & 1
    ev, root, V = at_root(phi_reach, g1)
    assert ev.stable_set(root, V, 4) >> 0 & 1


def test_stability_at_n_plus_one():
    rng = random.Random(21)
    for _ in range(40):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        k = G.n + 1
        for n in range(G.n):
            ev, root, V = at_root(phi, G)
            assert ev.stable_set(root, V, k) >> n & 1


def test_k_zero_rejected(g1, phi_reach):
    ev, root, V = at_root(phi_reach, g1)
    with pytest.raises(SemanticsError):
        ev.stable_set(root, V, 0)


def test_jk_vacuous(g1, phi_reach):
    for n in range(3):
        ev, root, V = at_root(phi_reach, g1)
        assert ev.jk_stable_set(root, 0, 1, V) >> n & 1


def test_jk_follows_from_k(g1):
    rng = random.Random(22)
    for _ in range(40):
        phi = random_formula(rng, max_size=12)
        if not isinstance(phi, (Mu, Nu)):
            continue
        G = random_graph(rng, max_nodes=5)
        for k in (1, 2, 3):
            ev, root, V = at_root(phi, G)
            full = ev.stable_set(root, V, k)
            ev, root, V = at_root(phi, G)
            jk = ev.jk_stable_set(root, k, k, V)
            assert full & ~jk == 0  # k-stable nodes are (k,k)-stable


def test_jk_brute_force_cross_check(g1, phi_reach):
    # unfold Def 4 by hand: body stable under V_i for i < j
    ev, root, V = at_root(phi_reach, g1)
    body = ev.idx.body_pos[0]
    j, k = 2, 2
    chain = ev.approx_chain(root, j - 1, k, V)
    expect = g1.full_mask
    for i in range(j):
        expect &= ev.stable_set(body, (chain[i],), k)
    got = ev.jk_stable_set(root, j, k, V)
    assert got == expect
    ev, root, V = at_root(phi_reach, g1)
    assert ev.jk_stable_set(root, j, k, V) >> 1 & 1 == got >> 1 & 1


def test_jk_requires_fixpoint(g1):
    ev, root, V = at_root(parse("p"), g1)
    with pytest.raises(SemanticsError):
        ev.jk_stable_set(root, 1, 1, V)


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
        ev, root, V = at_root(phi, G)
        k = G.n + 1
        chain = ev.approx_chain(root, k, k, V)
        assert chain[-1] == ev.evaluate(root, V, k)
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
        ev, root, V = at_root(phi, G)
        mask, k = model_check_stable(phi, G)
        assert ev.stable_set(root, V, k + 1) == G.full_mask
        assert ev.evaluate(root, V, k) == ev.evaluate(root, V, k + 1)
