import random
from collections import Counter

import pytest

import mugnn.formula
from mugnn.counting import (
    Configuration,
    ExtendedConfiguration,
    SafeguardExceeded,
    check_coherent,
    etrans_step,
    initial_configuration,
    partial_trans2,
    partial_trans3,
    run_counting,
    run_extended,
    safeguard,
    trans1,
    trans2,
    trans3,
)
from mugnn.formula import index, parse, sentence, to_text, well_name
from mugnn.gen import random_formula, random_graph
from mugnn.gnn import compile_formula, run_gnn
from mugnn.graph import WIDE_GRAPH, mask_of
from mugnn.semantics import Evaluator, evaluate, model_check_stable

from oracles import (
    reference_etrans_step,
    reference_ticks_reset_dep,
    reference_trans1,
    reference_trans2,
    reference_trans3,
    ticks_reset_dep,
    tree_facts,
)
from test_graph import sparse_graph


def idx_of(text):
    return index(well_name(parse(text)))


def test_initial_configuration(g1, phi_reach):
    idx = index(phi_reach)
    cfg = initial_configuration(idx, g1, 1)
    assert cfg.C == (0,)
    assert cfg.V == (0,)
    assert cfg.F == 0
    assert not cfg.complete


def test_initial_nu_full(g1):
    idx = idx_of("nu X.<>X")
    cfg = initial_configuration(idx, g1, 2)
    assert cfg.V == (g1.full_mask,)


def test_initial_coherent(g1):
    rng = random.Random(31)
    for _ in range(20):
        idx = index(random_formula(rng, max_size=12))
        for k in (1, 2, 3):
            assert check_coherent(initial_configuration(idx, g1, k)) is None


def test_no_ticks_at_k1_initial(g1, phi_reach):
    cfg = initial_configuration(index(phi_reach), g1, 1)
    ticks, reset, dep = ticks_reset_dep(cfg)
    assert ticks == frozenset() and reset == frozenset() and dep == frozenset()


def test_reset_closure_nested(g1):
    # inner fixpoint mentions the outer variable free, so when the outer
    # variable resets the inner one follows by closure
    idx = idx_of("mu Y.(p | <>(mu X.(Y | <>X)))")
    cfg = initial_configuration(idx, g1, 3)
    yi = idx.var_names.index("Y")
    xi = idx.var_names.index("X")
    free = tree_facts(idx).free
    # drive to a state where Y ticks: fabricate validity for Y's body
    cfg = trans1(trans1(trans1(trans1(cfg))))
    ticks, reset, dep = ticks_reset_dep(cfg)
    if yi in ticks:
        assert xi in reset
        assert xi in dep or xi in ticks
    # naive closure recomputation agrees
    naive = set(ticks)
    for _ in range(idx.n_fp + 1):
        for vi in range(idx.n_fp):
            if free[idx.fp_positions[vi]] & {idx.var_names[r] for r in naive}:
                naive.add(vi)
    assert reset == frozenset(naive)


def test_tick_exclusivity():
    rng = random.Random(32)
    for _ in range(25):
        phi = random_formula(rng, max_size=15)
        G = random_graph(rng, max_nodes=5)

        def on_config(kind, cfg):
            ticks, _, _ = ticks_reset_dep(cfg)
            for fi in ticks:
                assert not (tfp[idx.fp_positions[fi]] & ticks)

        idx = index(phi)
        tfp = tree_facts(idx).tfp
        run_counting(phi, G, on_config=on_config)


def test_trans1_atoms(g1, phi_reach):
    cfg = trans1(initial_configuration(index(phi_reach), g1, 1))
    idx = cfg.idx
    p_pos = next(p for p, f in enumerate(idx.formulas) if to_text(f) == "p")
    assert cfg.R[p_pos] == 0b100


def test_trans1_preserves_coherence_and_f(g1):
    rng = random.Random(33)
    for _ in range(20):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        cfg = initial_configuration(index(phi), G, 1)
        for _ in range(6):
            nxt = trans1(cfg)
            assert check_coherent(nxt) is None
            assert cfg.F & ~nxt.F == 0  # F only grows under type-1
            cfg = trans2(nxt)


def test_trans1_fixed_on_complete(g1, phi_reach):
    cfg, _ = run_counting(phi_reach, g1)
    again = trans1(cfg)
    assert again == cfg


def test_trans2_noop_without_ticks(g1, phi_reach):
    cfg = initial_configuration(index(phi_reach), g1, 1)
    assert trans2(cfg) == cfg


def test_trans2_first_tick_matches_adorned(g1, phi_reach):
    # validity climbs one level per type-1 pass, so iterate to the first tick
    idx = index(phi_reach)
    cfg = initial_configuration(idx, g1, 2)
    for _ in range(idx.n):
        cfg = trans2(trans1(cfg))
        if cfg.C == (1,):
            break
    assert cfg.C == (1,)
    expect = Evaluator(idx, g1).approx_chain(idx.root, 1, 2, (0,))[-1]
    assert cfg.V == (expect,)
    assert cfg.V == (0b100,)


def test_trans3_identity_when_incomplete(g1, phi_reach):
    cfg = initial_configuration(index(phi_reach), g1, 1)
    assert trans3(cfg) == cfg


def test_trans3_restarts_when_complete(g1):
    cfg, _ = run_counting(parse("p"), g1)
    nxt = trans3(cfg)
    assert nxt.k == cfg.k + 1
    assert nxt == initial_configuration(cfg.idx, g1, cfg.k + 1)
    assert check_coherent(nxt) is None


def test_configuration_replace_keeps_type_and_equality(g1, phi_reach):
    cfg = initial_configuration(index(phi_reach), g1, 2)
    same = cfg._replace(C=tuple(cfg.C))
    assert type(same) is Configuration and same == cfg and hash(same) == hash(cfg)
    later = cfg._replace(k=3)
    assert type(later) is Configuration and later != cfg and not later.complete
    assert later == initial_configuration(index(phi_reach), g1, 3)


def test_check_coherent_catches_tampering(g1, phi_reach):
    cfg, _ = run_counting(phi_reach, g1)
    bad = cfg._replace(R=cfg.R[:-1] + (cfg.R[-1] ^ 0b001,))
    diag = check_coherent(bad)
    assert diag is not None and "consistency" in diag


def test_run_counting_fixture(g1, phi_reach):
    cfg, steps = run_counting(phi_reach, g1)
    assert cfg.R[cfg.idx.root] == 0b111
    assert cfg.k == 4
    assert check_coherent(cfg) is None
    assert steps <= safeguard(cfg.idx, g1)


def test_run_counting_atom(g1):
    cfg, _ = run_counting(parse("p"), g1)
    assert cfg.k == 1
    assert cfg.R[cfg.idx.root] == 0b100


def test_run_counting_matches_oracle():
    rng = random.Random(34)
    for _ in range(30):
        phi = random_formula(rng, max_size=15)
        G = random_graph(rng, max_nodes=6)
        cfg, _ = run_counting(phi, G)
        assert cfg.R[cfg.idx.root] == evaluate(phi, G)
        assert cfg.k <= G.n + 1


@pytest.mark.parametrize("text", [
    "mu X.(p | <>X)",
    "nu X.([2]X & mu Y.(q | <>Y))",
    "nu X.(<2>X | [3]~p)",
    "mu X.(q | ([1]X & <2>p))",
])
def test_engines_agree_on_a_wide_graph(text):
    # the set-based engines count over the edge index here, the GNN by aggregation
    G = sparse_graph(random.Random(36), 200, 3)
    assert G.n > WIDE_GRAPH
    phi = well_name(parse(text))
    want = evaluate(phi, G)
    stable, stable_k = model_check_stable(phi, G)
    cfg, _ = run_counting(phi, G)
    x, _ = run_extended(phi, G)
    out, _, _ = run_gnn(compile_formula(phi, props=G.props), G)
    assert stable == cfg.R[cfg.idx.root] == x.config.R[x.config.idx.root] == want
    assert mask_of(n for n, bit in enumerate(out) if bit) == want
    assert stable_k == cfg.k


def test_a_formula_is_indexed_once_across_runs(monkeypatch, g1):
    calls = []
    real = mugnn.formula.index
    monkeypatch.setattr(mugnn.formula, "index", lambda phi: calls.append(phi) or real(phi))
    phi = parse("nu X.([2]X & mu Y.(q | <>Y))")
    model_check_stable(phi, g1)
    assert len(calls) == 1
    assert well_name(phi) is phi
    first, _ = run_counting(phi, g1)
    again, _ = run_counting(phi, g1)
    run_extended(phi, g1)
    compile_formula(phi)
    assert len(calls) == 1
    assert again == first


@pytest.mark.parametrize("text, k", [
    ("(mu X.(p | <>X)) & nu X.(q | [1]X)", 4),
    ("mu X.(p | <>mu X.(X | q))", 2),
])
def test_model_check_stable_renames_clashing_binders(g1, text, k):
    # binders that clash are renamed before the stability scan
    phi = parse(text)
    expected = (evaluate(phi, g1), k)
    assert model_check_stable(phi, g1) == expected
    assert model_check_stable(text, g1) == model_check_stable(sentence(text), g1) == expected


def test_no_repeat_within_k_phase(g1):
    rng = random.Random(35)
    for _ in range(10):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        seen = {}

        def on_config(kind, cfg):
            if kind != "t2":
                return
            key = (cfg.k, cfg.C, cfg.V, cfg.R, cfg.F, cfg.S, cfg.T)
            assert key not in seen or cfg.complete, "configuration repeated mid-phase"
            seen[key] = True

        run_counting(phi, G, on_config=on_config)


def test_partial_trans2_plain_agreement(g1, phi_reach):
    cfg = trans1(initial_configuration(index(phi_reach), g1, 1))
    ext = partial_trans2(cfg)
    assert ext.D == frozenset()
    assert ext.config == trans2(cfg)


def test_partial_trans3_complete(g1):
    cfg, _ = run_counting(parse("p | mu X.<>X"), g1)
    ext = partial_trans3(cfg)
    assert ext.D == frozenset(range(cfg.idx.n_fp))
    assert ext.config.k == cfg.k + 1
    assert ext.config.C == cfg.C  # counters retained
    fresh = initial_configuration(cfg.idx, g1, cfg.k + 1)
    assert ext.config == fresh._replace(C=cfg.C)


def test_partial_trans3_incomplete(g1, phi_reach):
    cfg = initial_configuration(index(phi_reach), g1, 1)
    ext = partial_trans3(cfg)
    assert ext.config == cfg and ext.D == frozenset()


def test_etrans_reset_arithmetic(g1, phi_reach):
    idx = index(phi_reach)
    base = initial_configuration(idx, g1, 4)
    cfg = base._replace(C=(3,))
    x = etrans_step(ExtendedConfiguration(cfg, frozenset({0})))
    assert x.config.C == (2,) and x.D == frozenset({0})
    cfg = base._replace(C=(1,))
    x = etrans_step(ExtendedConfiguration(cfg, frozenset({0})))
    assert x.config.C == (0,) and x.D == frozenset()


def test_etrans_open_gates_match_plain(g1, phi_reach):
    cfg = initial_configuration(index(phi_reach), g1, 1)
    x = etrans_step(ExtendedConfiguration(cfg, frozenset()))
    assert x.D == frozenset()
    assert x.config == trans2(trans1(cfg))


def test_run_extended_equals_run_counting():
    rng = random.Random(36)
    for _ in range(30):
        phi = random_formula(rng, max_size=15)
        G = random_graph(rng, max_nodes=6)
        cfg, steps = run_counting(phi, G)
        x, esteps = run_extended(phi, G)
        assert x.config == cfg
        assert esteps >= steps


def test_fixpoint_free_identical_traces(g1):
    phi = parse("p & <>q")
    plain = []
    ext = []
    run_counting(phi, g1, on_config=lambda kind, c: plain.append((kind, c)))
    run_extended(phi, g1, on_config=lambda kind, x: ext.append(x))
    assert all(x.D == frozenset() for x in ext)
    after_t2 = [c for kind, c in plain if kind == "t2"]
    assert [x.config for x in ext[1:]] == after_t2  # ext[0] is the initial snapshot


def test_safeguard_trips(g1, phi_reach):
    with pytest.raises(SafeguardExceeded):
        run_counting(phi_reach, g1, max_steps=2)


def test_coherence_along_runs():
    rng = random.Random(37)
    for _ in range(10):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        idx = sentence(phi)
        ev = Evaluator(idx, G)

        def on_config(kind, cfg):
            diag = check_coherent(cfg, ev)
            assert diag is None, f"{kind}: {diag}"

        run_counting(idx, G, on_config=on_config)


def test_step_matches_reference():
    # every configuration of both runs is the clause-by-clause reference step
    # applied to the one before it
    rng = random.Random(37)
    plain_steps = {
        "t3": reference_trans3,
        "t1": reference_trans1,
        "t2": lambda cfg: reference_trans2(cfg)[0],
    }
    seen = Counter()
    for _ in range(100):
        phi = random_formula(rng, max_size=16, max_grade=3)
        G = random_graph(rng, max_nodes=6, edge_prob=rng.choice((0.2, 0.4)))
        prev = []

        def on_plain(kind, cfg):
            if prev:
                assert cfg == plain_steps[kind](prev[-1]), (to_text(phi), kind)
            assert ticks_reset_dep(cfg) == reference_ticks_reset_dep(cfg)
            prev.append(cfg)
            seen["plain"] += 1

        def on_extended(kind, x):
            if prev:
                assert x == reference_etrans_step(prev[-1]), to_text(phi)
            prev.append(x)
            seen["extended"] += 1

        run_counting(phi, G, on_config=on_plain)
        prev.clear()
        run_extended(phi, G, on_config=on_extended)
        idx = index(phi)
        seen["nested"] += any(tfp for _, tfp in idx.binders)
        seen["mu and nu"] += 0 < idx.nu.bit_count() < idx.n_fp
        seen["grade 3"] += "3" in to_text(phi)
        seen["sink"] += () in G.adj
        seen["self-loop"] += any(n in out for n, out in enumerate(G.adj))
    assert seen["plain"] > 3000 and seen["extended"] > 1000
    for kind in ("nested", "mu and nu", "grade 3", "sink", "self-loop"):
        assert seen[kind] >= 20, (kind, seen)


def test_step_matches_reference_on_any_configuration():
    # configurations no run reaches, so a check that coherence makes
    # redundant on reachable ones (the tick's test of inner counters, the
    # reset closure beyond one level) still has to agree with the reference
    rng = random.Random(38)
    chains = [  # each binder mentions only the one directly outside it
        idx_of("mu X.(p | <>nu Y.(X & [2]mu Z.(Y | <>Z)))"),
        idx_of("nu X.(q & []mu Y.(X | <>nu Z.(Y & [](Z | p))))"),
    ]
    for trial in range(300):
        if trial % 3:
            idx = index(random_formula(rng, max_size=16, max_grade=3))
        else:
            idx = rng.choice(chains)
        G = random_graph(rng, max_nodes=5, edge_prob=0.3)
        k = rng.randint(1, 4)
        masks = lambda n: tuple(rng.randrange(G.full_mask + 1) for _ in range(n))
        cfg = Configuration(
            idx, G, k,
            C=tuple(rng.randrange(k) for _ in range(idx.n_fp)),
            V=masks(idx.n_fp),
            R=masks(idx.n),
            F=rng.randrange(1 << idx.n),
            S=masks(idx.n),
            T=masks(idx.n_fp),
        )
        assert trans1(cfg) == reference_trans1(cfg)
        assert ticks_reset_dep(cfg) == reference_ticks_reset_dep(cfg)
        assert trans2(cfg) == reference_trans2(cfg)[0]
        assert partial_trans2(cfg) == ExtendedConfiguration(*reference_trans2(cfg, True))
        D = frozenset(fi for fi in range(idx.n_fp) if rng.random() < 0.3)
        x = ExtendedConfiguration(cfg, D)
        assert etrans_step(x) == reference_etrans_step(x)
