import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mugnn.counting import (
    ExtendedConfiguration,
    SafeguardExceeded,
    etrans_step,
    initial_configuration,
    run_extended,
)
from mugnn.formula import AllBut, AtLeast, Prop, index, parse, to_text, well_name
from mugnn.gen import path_graph, random_formula, random_graph
from mugnn.gnn import (
    DecodeError,
    GnnError,
    apply_layer,
    compile_formula,
    decode,
    encode,
    gnn_from_json,
    gnn_to_json,
    LevelProgram,
    RecurrentGnn,
    load_gnn,
    run_gnn,
    save_gnn,
)
from mugnn.graph import make_graph
from mugnn.rfnn import rfnn_eval
from mugnn.semantics import evaluate
from nets import from_pairs, replace_row, same_net


def out_mask(out):
    return sum(1 << n for n, bit in enumerate(out) if bit)


def random_reachable_ext(rng, phi, G, steps=None):
    idx = index(phi)
    x = ExtendedConfiguration(initial_configuration(idx, G, 1), frozenset())
    _, total = run_extended(phi, G)
    cut = rng.randint(0, total) if steps is None else steps
    for _ in range(cut):
        x = etrans_step(x)
    return x


def run_states(gnn, G):
    """(out, rounds, states) of a run, the states read through `on_config`:
    the initial state, then each round's, decoded and encoded again."""
    states = []
    out, iters, last = run_gnn(
        gnn, G, on_config=lambda kind, x: states.append(encode(x, gnn.layout)))
    assert len(states) == iters + 1 and np.array_equal(states[-1], last)
    return out, iters, states


def test_every_hidden_atom_is_read_by_a_later_row():
    # The builder emits every ReLU atom the compiler asked for, so the
    # compiler must ask for none that no later row reads.
    rng = random.Random(2026)
    formulas = ["mu X.(p | <>X)", "nu X.([2]X & mu Y.(q | <>Y))",
                "mu X1.(p | <>mu X2.(X1 | <>mu X3.(X2 | <>mu X4.(X3 | <>X4))))"]
    formulas += [random_formula(rng, max_fixpoints=4, max_size=30) for _ in range(150)]
    for phi in formulas:
        comb = compile_formula(phi).comb
        read, start = set(), comb.input_width
        for rows, _ in comb.layers:
            atoms = {a for row in rows for a, _ in row}
            assert max(atoms, default=-1) < start  # a row reads earlier atoms only
            read |= atoms
            start += len(rows)
        unread = set(range(comb.input_width, start - len(rows))) - read  # not outputs
        assert not unread, (phi if isinstance(phi, str) else to_text(phi), unread)


def test_encode_initial(g1, phi_reach):
    # A run starts from the encoding of the initial configuration at k = 1:
    # the labels, k = 1, V all 1 for a nu variable, T and pad all 1.
    no_p = make_graph(["p", "q"], ["0", "1"], [["q"], []], [(0, 1), (1, 1)])
    cases = [(g1, phi_reach), (EDGELESS, phi_reach), (no_p, phi_reach),
             (g1, "nu X.(q & <>X | mu Y.(p | <>Y))")]
    for G, phi in cases:
        gnn = compile_formula(phi, props=G.props)
        lay, idx = gnn.layout, gnn.idx
        x = ExtendedConfiguration(initial_configuration(idx, G, 1), frozenset())
        X = encode(x, lay)
        seen = []
        run_gnn(gnn, G, on_config=lambda kind, y: seen.append(y))
        assert seen[0] == x
        if len(seen) > 1:  # the first round is one layer from the encoding of x
            assert decode(apply_layer(gnn, G, X), lay, idx, G) == seen[1]
        nu = [idx.nu >> i & 1 for i in range(idx.n_fp)]
        assert X.shape == (lay.dim, G.n)
        for labels, v in zip(G.labels, X.T.tolist()):
            assert [v[c] for c in lay.prop_coord] == [int(p in labels) for p in lay.props]
            assert [v[c] for c in lay.v_coord] == nu
            assert [v[c] for c in lay.t_coord] == [1] * idx.n_fp
            assert v[lay.k_coord] == v[lay.pad_coord] == 1
            assert sum(v) == len(labels & set(lay.props)) + sum(nu) + idx.n_fp + 2
    assert nu == [0, 1]  # the last case's V rows: 0 for the inner mu Y, 1 for nu X


def encode_per_coordinate(x, lay):
    """The encoding written coordinate by coordinate: the reference for the
    array-built `encode`."""
    cfg = x.config
    idx, G = cfg.idx, cfg.G
    vectors = []
    for n in range(G.n):
        v = [0] * lay.dim
        for pi, p in enumerate(lay.props):
            v[lay.prop_coord[pi]] = int(p in G.labels[n])
        v[lay.k_coord] = cfg.k
        for fi in range(idx.n_fp):
            v[lay.c_coord[fi]] = cfg.C[fi]
            v[lay.v_coord[fi]] = cfg.V[fi] >> n & 1
            v[lay.t_coord[fi]] = cfg.T[fi] >> n & 1
            v[lay.d_coord[fi]] = int(fi in x.D)
        for p in range(idx.n):
            v[lay.r_coord[p]] = cfg.R[p] >> n & 1
            v[lay.f_coord[p]] = cfg.F >> p & 1
            v[lay.s_coord[p]] = cfg.S[p] >> n & 1
        v[lay.pad_coord] = 1
        v[lay.halt_coord] = (cfg.F >> idx.root & 1) & (cfg.S[idx.root] >> n & 1) & (not x.D)
        vectors.append(v)
    return np.array(vectors, dtype=np.int64).reshape(G.n, lay.dim).T


def test_encode_decode_roundtrip_random():
    rng = random.Random(51)
    for _ in range(100):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        gnn = compile_formula(phi, props=G.props)
        x = random_reachable_ext(rng, phi, G)
        X = encode(x, gnn.layout)
        assert X.dtype == np.int64
        assert np.array_equal(X, encode_per_coordinate(x, gnn.layout))
        assert decode(X, gnn.layout, gnn.idx, G) == x


def test_decode_rejects_global_disagreement(g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    x = ExtendedConfiguration(initial_configuration(gnn.idx, g1, 1), frozenset())
    X = encode(x, gnn.layout)
    X[gnn.layout.k_coord, 1] = 2
    with pytest.raises(DecodeError):
        decode(X, gnn.layout, gnn.idx, g1)


def test_decode_rejects_non_boolean(g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    x = ExtendedConfiguration(initial_configuration(gnn.idx, g1, 1), frozenset())
    X = encode(x, gnn.layout)
    X[gnn.layout.r_coord[0], 0] = 2
    with pytest.raises(DecodeError):
        decode(X, gnn.layout, gnn.idx, g1)


def test_decode_rejects_bad_pad_and_node_count(g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    x = ExtendedConfiguration(initial_configuration(gnn.idx, g1, 1), frozenset())
    X = encode(x, gnn.layout)
    assert decode(X, gnn.layout, gnn.idx, g1) == x
    for pad in (0, 2, -1):
        bad = X.copy()
        bad[gnn.layout.pad_coord, 2] = pad
        with pytest.raises(DecodeError, match="pad"):
            decode(bad, gnn.layout, gnn.idx, g1)
    for count in (X[:, :2], np.concatenate([X, X[:, :1]], axis=1), X[:, :0]):
        with pytest.raises(DecodeError, match="node count"):
            decode(count, gnn.layout, gnn.idx, g1)
    # per-node vectors, a float array and the transpose are not states
    for other in (tuple(map(tuple, X.T.tolist())), X.astype(np.float64), X.T):
        with pytest.raises(DecodeError, match="not an int array"):
            decode(other, gnn.layout, gnn.idx, g1)


def test_compile_atom(g1):
    gnn = compile_formula(parse("p"), props=g1.props)
    out, iters, _ = run_gnn(gnn, g1)
    assert out_mask(out) == evaluate(parse("p"), g1)
    assert iters >= 1


def test_compile_reach_fixture(g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    out, iters, _ = run_gnn(gnn, g1)
    assert out == [True, True, True]
    _, esteps = run_extended(phi_reach, g1)
    assert iters == esteps


def test_compile_mu_self_loop(g1):
    gnn = compile_formula(parse("mu X.X"), props=g1.props)
    out, _, _ = run_gnn(gnn, g1)
    assert out == [False, False, False]


def test_compile_paper_nested_formula():
    phi = well_name(parse("mu Y.((p | <>Y) | mu X.(q & <>(Y | <>X)))"))
    rng = random.Random(52)
    for _ in range(50):
        G = random_graph(rng, max_nodes=8, props=("p", "q"))
        gnn = compile_formula(phi, props=G.props)
        out, _, _ = run_gnn(gnn, G)
        assert out_mask(out) == evaluate(phi, G)


def reset_chain(m: int) -> str:
    """mu X1.(p | <>mu X2.(X1 | <>... mu Xm.(X(m-1) | <>Xm))): binder i+1
    mentions Xi free, so a tick of X1 resets all m variables in turn."""
    text = f"X{m}"
    for i in range(m, 1, -1):
        text = f"mu X{i}.(X{i - 1} | <>{text})"
    return f"mu X1.(p | <>{text})"


def test_depth_does_not_grow_with_reset_chain():
    depth = {m: len(compile_formula(reset_chain(m)).comb.sizes) for m in (2, 5)}
    assert depth[5] <= depth[2] + 1


@pytest.mark.parametrize("text, depth, rows", [
    ("mu X.(p | <>X)", 8, 90),
    ("nu X.([2]X & mu Y.(q | <>Y))", 10, 174),
])
def test_compiled_size_does_not_rise(text, depth, rows):
    # levels and rows of the compiler that unrolled the reset closure
    sizes = compile_formula(text).comb.sizes
    assert len(sizes) <= depth
    assert sum(sizes) <= rows


def test_duplicate_props_compile_to_the_same_model(phi_reach):
    twice = compile_formula(phi_reach, props=["q", "p", "p"])
    assert gnn_to_json(twice) == gnn_to_json(compile_formula(phi_reach, props=["p", "q"]))


def test_universe_mismatch_rejected(g1):
    gnn = compile_formula(parse("p"), props=["p"])
    with pytest.raises(GnnError):
        run_gnn(gnn, g1)


def test_compile_rejects_open_formula():
    from mugnn.formula import FormulaError

    with pytest.raises(FormulaError):
        compile_formula(parse("X | p"))


@pytest.mark.parametrize("clause", [AtLeast, AllBut])
def test_compile_rejects_grade_beyond_max_weight(clause):
    # a grade is a weight of the layer, and 2**41 is beyond MAX_WEIGHT = 2**40
    with pytest.raises(GnnError, match="weight magnitude bound exceeded"):
        compile_formula(clause(2**41, Prop("p")))


def test_lockstep_simulation():
    rng = random.Random(53)
    for _ in range(20):
        phi = random_formula(rng, max_size=14)
        G = random_graph(rng, max_nodes=5)
        gnn = compile_formula(phi, props=G.props)
        x = ExtendedConfiguration(initial_configuration(gnn.idx, G, 1), frozenset())
        _, esteps = run_extended(phi, G)
        for _ in range(esteps):
            got = apply_layer(gnn, G, encode(x, gnn.layout))
            x = etrans_step(x)
            assert np.array_equal(got, encode(x, gnn.layout))


def test_trace_decodes_to_extended_run(g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    calls = []
    _, iters, X = run_gnn(gnn, g1, on_config=lambda kind, x: calls.append((kind, x)))
    xs = []
    run_extended(phi_reach, g1, on_config=lambda kind, x: xs.append(x))
    assert [kind for kind, _ in calls] == ["init"] + ["round"] * iters
    assert len(xs) == len(calls)
    assert [x for _, x in calls] == xs
    assert decode(X, gnn.layout, gnn.idx, g1) == xs[-1]


def test_final_state_decodes_to_extended_result():
    rng = random.Random(57)
    for _ in range(50):
        phi = random_formula(rng, max_size=14)
        G = random_graph(rng, max_nodes=8)
        gnn = compile_formula(phi, props=G.props)
        X = run_gnn(gnn, G)[2]
        assert X.dtype == np.int64 and X.shape == (gnn.dim, G.n)
        assert decode(X, gnn.layout, gnn.idx, G) == run_extended(phi, G)[0]


# Nodes 1, 4 and 5 are sinks; 0 and 3 have self-loops.
SINKS_AND_LOOPS = make_graph(
    ["p", "q"],
    ["0", "1", "2", "3", "4", "5"],
    [[], ["p"], ["q"], [], ["p", "q"], []],
    [(0, 0), (0, 1), (0, 2), (2, 3), (3, 3), (3, 4), (2, 5)],
)
EDGELESS = make_graph(["p", "q"], ["0", "1", "2"], [["p"], [], ["q"]], [])
# Every node has an out-edge, so no neighbour sum stays zero.
ALL_SOURCES = make_graph(
    ["p", "q"],
    ["0", "1", "2", "3"],
    [["q"], ["p"], [], ["p", "q"]],
    [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (1, 0)],
)
SENTENCES = [
    "mu X.(p | <>X)",
    "nu X.([2]X & mu Y.(q | <>Y))",
    "nu X.(mu Y.(p & <>X | <>Y))",
    "mu X.(q | [1]X)",
]


def test_numpy_path_matches_exact_eval():
    # Every round of every run must equal exact integer evaluation of the
    # combine network, all of its levels, on (x, neighbour sum).
    rng = random.Random(56)
    for G in (SINKS_AND_LOOPS, EDGELESS, ALL_SOURCES):
        randoms = [random_formula(rng, props=G.props, max_size=12) for _ in range(6)]
        for phi in SENTENCES + randoms:
            gnn = compile_formula(phi, props=G.props)
            _, _, states = run_states(gnn, G)
            for X, nxt in zip(states, states[1:]):
                for n in range(G.n):
                    sums = X[:, G.adj[n]].sum(axis=1)
                    got = rfnn_eval(gnn.comb, [*X[:, n].tolist(), *sums.tolist()])
                    assert got == nxt[:, n].tolist()


@st.composite
def small_rfnns(draw, coef=3, max_layers=4):
    """Integer atom DAGs whose rows are dense over every earlier atom
    (coefficients and bias in [-coef, coef]), copies of one earlier atom or
    all zero.  A level or the outputs may copy an input, which can be
    negative, or read it next to atoms of the levels between."""
    n_in = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, max_layers)))]
    layers = []
    first = n_in  # the first atom of the level being drawn
    for rows in sizes:
        W, bias = [], []
        for _ in range(rows):
            kind = draw(st.sampled_from(["dense", "identity", "zero"]))
            if kind == "identity":
                row = ((draw(st.integers(0, first - 1)), 1),)
                b = 0
            else:
                w = st.integers(-coef, coef) if kind == "dense" else st.just(0)
                dense = draw(st.lists(w, min_size=first, max_size=first))
                row = tuple((j, c) for j, c in enumerate(dense) if c)
                b = draw(st.integers(-coef, coef))
            W.append(row)
            bias.append(b)
        layers.append((tuple(W), tuple(bias)))
        first += rows
    return from_pairs(tuple(layers), n_in)


def eval_levels(net, samples):
    prog = LevelProgram(net)
    V = np.zeros((prog.n_atoms, len(samples)))
    V[: net.input_width] = np.array(samples, dtype=np.float64).T
    V[-1] = 1  # the ones row
    out = np.empty((net.sizes[-1], len(samples)))
    prog.bind(V, out)()
    return out.T.tolist()


@given(small_rfnns(), st.data())
def test_level_program_matches_rfnn_eval(net, data):
    n_in = net.input_width
    inputs = st.lists(st.integers(-5, 5), min_size=n_in, max_size=n_in)
    samples = data.draw(st.lists(inputs, min_size=1, max_size=4))
    assert eval_levels(net, samples) == [rfnn_eval(net, x) for x in samples]


@given(small_rfnns(coef=2**20, max_layers=3), st.data())
def test_level_program_exact_up_to_proved_bound(net, data):
    # Float64 levels must equal exact integer evaluation on every input up
    # to the proved bound, the bound itself included.
    bound = LevelProgram(net).max_input
    assume(bound >= 0)
    m = int(bound)
    x = st.one_of(st.sampled_from([m, -m]), st.integers(-m, m))
    inputs = st.lists(x, min_size=net.input_width, max_size=net.input_width)
    samples = data.draw(st.lists(inputs, min_size=1, max_size=4))
    assert eval_levels(net, samples) == [rfnn_eval(net, x) for x in samples]


def test_level_program_bound_values():
    # One row 3*x0 - 5*x1 + 7: alpha = 8 and beta = 7, so M* = (2**52 - 7) / 8.
    row = ((0, 3), (1, -5))
    assert LevelProgram(from_pairs((((row,), (7,)),), 2)).max_input == (2**52 - 7) / 8
    # Levels compose: atom 1 = relu(2*x0) read with weight 3 and bias 1 gives (6, 1).
    hidden, out = (((0, 2),),), (((1, 3),),)
    net = from_pairs(((hidden, (0,)), (out, (1,))), 1)
    assert LevelProgram(net).max_input == (2**52 - 1) / 6


def test_level_program_edge_rows():
    # Level 0 (atoms 2-4) copies inputs that may be negative, so its ReLU
    # must run; level 1 (atoms 5-7) copies ReLU atoms, has an all-zero row
    # with a bias and reads input 1 next to atom 2; the outputs copy atoms,
    # copy a raw input, have an all-zero row and read atoms of both levels.
    net = from_pairs((
        ((((0, 1),), ((1, 1),), ((0, 1), (1, -1))), (0, 0, 0)),
        ((((2, 1),), (), ((1, 2), (2, 1), (4, 1))), (0, 2, -1)),
        ((((5, 1),), ((6, 1),), (), ((1, 1),), ((2, 1), (5, 1), (6, 1), (7, -1))),
         (0, 0, 7, 0, 0)),
    ), 2)
    samples = [[-3, 2], [4, -1], [0, 0], [-2, -5]]
    assert eval_levels(net, samples) == [rfnn_eval(net, x) for x in samples]
    prog = LevelProgram(net)
    assert prog.n_atoms == 2 + 3 + 3 + 1  # inputs, level 0, level 1, the ones row


def _with_comb(gnn, comb):
    return RecurrentGnn(gnn.formula_text, gnn.idx, gnn.layout, comb)


def test_malformed_combine_network_rejected(g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    run_gnn(gnn, g1)  # the model's own program is built and kept
    comb = gnn.comb
    level1 = comb.input_width + comb.sizes[0]  # the first atom of level 1
    nnz = comb.nnz.copy()
    nnz[:2] = -1, nnz[0] + nnz[1] + 1  # as many entries in all
    broken = [
        from_pairs(comb.layers[:-1], comb.input_width),  # outputs the wrong width
        replace_row(comb, 0, 0, ((comb.input_width, 1),)),  # an atom of its own level
        replace_row(comb, 1, 0, ((level1 + 1, 1),)),  # an atom of its own level
        replace_row(comb, 0, 0, ((level1, 1),)),  # an atom of a later level
        replace_row(comb, 1, 0, ((-1, 1),)),  # negative column
        replace_row(comb, 1, 0, ((0, 2**41),)),  # a weight beyond MAX_WEIGHT
        comb._replace(coefs=comb.coefs[:-1]),  # fewer coefficients than columns
        comb._replace(nnz=comb.nnz + 1),  # more entries counted than there are
        comb._replace(bias=comb.bias[:-1]),  # a row without a bias
        comb._replace(nnz=nnz),  # an entry count below zero
        comb._replace(sizes=(comb.sizes[0] + 1, *comb.sizes[1:])),  # more rows than biases
        comb._replace(input_width=comb.input_width - 1),  # wrong input width
    ]
    for net in broken:
        with pytest.raises(GnnError):
            run_gnn(_with_comb(gnn, net), g1)


def test_compiled_rows_are_sparse_and_sorted():
    rng = random.Random(55)
    for _ in range(30):
        phi = random_formula(rng, max_size=14)
        gnn = compile_formula(phi)
        assert gnn.comb.input_width == 2 * gnn.dim
        first = gnn.comb.input_width  # the first atom of each level
        for li, (W, bias) in enumerate(gnn.comb.layers):
            for row, bi in zip(W, bias):
                cols = [c for c, _ in row]
                assert all(a < b for a, b in zip(cols, cols[1:]))
                assert all(c != 0 for _, c in row)
                assert all(0 <= c < first for c in cols)
                if li < len(gnn.comb.layers) - 1:  # no hidden row copies a ReLU atom
                    assert not (bi == 0 and len(row) == 1 and row[0][1] == 1
                                and row[0][0] >= gnn.comb.input_width)
            first += len(W)


def test_program_built_once_per_model(monkeypatch, g1, phi_reach):
    import mugnn.gnn as gnn_mod

    builds = []

    class Counted(LevelProgram):
        def __init__(self, comb):
            builds.append(comb)
            super().__init__(comb)

    monkeypatch.setattr(gnn_mod, "LevelProgram", Counted)
    gnn = compile_formula(phi_reach, props=g1.props)
    loaded = gnn_from_json(gnn_to_json(gnn))
    assert builds == []  # compiling and loading do not build it
    _, _, states = run_states(gnn, g1)
    for before, after in zip(states, states[1:5]):
        assert np.array_equal(apply_layer(gnn, g1, before), after)
    run_gnn(gnn, g1)
    assert len(builds) == 1 and builds[0] is gnn.comb
    run_gnn(loaded, g1)
    assert len(builds) == 2
    # A copy with another network gets a program of its own.
    W, bias = gnn.comb.layers[-1]
    comb = from_pairs(gnn.comb.layers[:-1] + ((W, bias[:-1] + (5,)),), gnn.comb.input_width)
    changed = _with_comb(gnn, comb)
    assert apply_layer(changed, g1, states[0])[-1, 0] == 5
    assert len(builds) == 3 and builds[-1] is comb


def test_edge_index_built_once_per_graph(monkeypatch, g1, phi_reach):
    import mugnn.graph as graph_mod

    builds = []

    class Counted(graph_mod.EdgeIndex):
        def __init__(self, adj):
            builds.append(adj)
            super().__init__(adj)

    monkeypatch.setattr(graph_mod, "EdgeIndex", Counted)
    gnn = compile_formula(phi_reach, props=g1.props)
    _, _, states = run_states(gnn, g1)
    for before, after in zip(states, states[1:5]):
        assert np.array_equal(apply_layer(gnn, g1, before), after)
    assert builds == [g1.adj]
    # An equal graph built anew gets an index of its own.
    copy = make_graph(g1.props, g1.node_ids, g1.labels, [(0, 1), (1, 2)])
    assert copy == g1
    assert run_gnn(gnn, copy)[:2] == run_gnn(gnn, g1)[:2]
    assert len(builds) == 2


@pytest.mark.parametrize("text", SENTENCES)
def test_trace_with_sinks_and_self_loops(text):
    G = SINKS_AND_LOOPS
    phi = well_name(parse(text))
    gnn = compile_formula(phi, props=G.props)
    seen = []
    out, iters, X = run_gnn(gnn, G, on_config=lambda kind, x: seen.append(x))
    xs = []
    run_extended(phi, G, on_config=lambda kind, x: xs.append(x))
    assert len(seen) == len(xs) == iters + 1
    assert seen == xs
    assert decode(X, gnn.layout, gnn.idx, G) == xs[-1]
    assert out_mask(out) == evaluate(phi, G)


def test_integrality_and_bounds():
    rng = random.Random(54)
    for _ in range(10):
        phi = random_formula(rng, max_size=12)
        G = random_graph(rng, max_nodes=5)
        gnn = compile_formula(phi, props=G.props)
        _, _, states = run_states(gnn, G)
        for X in states:
            assert X.dtype == np.int64
            for v in X.T.tolist():
                k = v[gnn.layout.k_coord]
                assert k <= G.n + 1
                for fi in range(gnn.idx.n_fp):
                    assert v[gnn.layout.c_coord[fi]] <= k - 1 <= G.n


def test_states_are_int64_arrays(g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    _, _, states = run_states(gnn, g1)
    stepped = apply_layer(gnn, g1, states[0])
    assert np.array_equal(stepped, states[1])
    for X in states + [stepped, run_gnn(gnn, g1)[2]]:
        assert isinstance(X, np.ndarray)
        assert X.dtype == np.int64 and X.shape == (gnn.dim, g1.n)


@pytest.mark.parametrize("state", [
    lambda X: X + 0.5,  # a float array, which a cast would truncate
    lambda X: X.T.reshape(-1).tolist(),  # n * dim ints in one flat list
    lambda X: X.T.tolist(),  # per-node vectors
    lambda X: X.T.copy(),  # a row per node
], ids=["float", "flat-list", "per-node-lists", "transposed"])
def test_apply_layer_takes_only_int_states(g1, phi_reach, state):
    gnn = compile_formula(phi_reach, props=g1.props)
    x = ExtendedConfiguration(initial_configuration(gnn.idx, g1, 1), frozenset())
    X = encode(x, gnn.layout)
    with pytest.raises(GnnError, match="not an int array"):
        apply_layer(gnn, g1, state(X))


@pytest.mark.parametrize("G, text", [(SINKS_AND_LOOPS, text) for text in SENTENCES]
                         + [(EDGELESS, SENTENCES[0])])
def test_gnn_and_extended_share_the_run_limit(monkeypatch, G, text):
    # A round is one extended step, so both runners stop at the same limit.
    import mugnn.counting as counting_mod
    import mugnn.gnn as gnn_mod

    gnn = compile_formula(text, props=G.props)
    _, esteps = run_extended(text, G)
    runs = (lambda: run_extended(text, G), lambda: run_gnn(gnn, G))
    for limit in (esteps - 1, esteps):
        for mod in (counting_mod, gnn_mod):
            monkeypatch.setattr(mod, "safeguard", lambda idx, G, limit=limit: limit)
        for run in runs:
            if limit < esteps:
                with pytest.raises(SafeguardExceeded):
                    run()
            else:
                assert run()[1] == esteps


def test_state_beyond_run_limit_raises():
    # Scaling the halt row by 2**30 leaves the halting rule as it is but cuts
    # the proved input bound to below 2**16, far below MAX_WEIGHT.  A state
    # at or beyond the run limit, max_input over the largest out-degree
    # (2 here), must raise GnnError rather than yield a value.
    G = make_graph(["p", "q"], ["a", "b", "c"], [[], ["q"], ["p"]], [(0, 1), (0, 2), (1, 2)])
    gnn = compile_formula(parse("mu X.(p | <>X)"), props=G.props)
    last = len(gnn.comb.layers) - 1
    (W, bias), h = gnn.comb.layers[last], gnn.layout.halt_coord
    assert bias[h] == 0
    row = tuple((c, w * 2**30) for c, w in W[h])
    gnn = _with_comb(gnn, replace_row(gnn.comb, last, h, row))
    bound = LevelProgram(gnn.comb).max_input
    assert 2**10 < bound < 2**16
    x = ExtendedConfiguration(initial_configuration(gnn.idx, G, 1), frozenset())
    X = encode(x, gnn.layout)
    k = gnn.layout.k_coord
    X[k, 0] = int(bound / 2) - 1  # inside the limit: runs
    assert apply_layer(gnn, G, X)[k, 0] == X[k, 0]
    for i, value in [(k, int(bound / 2) + 1), (k, -int(bound / 2) - 1), (k, 2**40), (k, 2**70),
                     (h, int(bound / 2) + 1)]:  # an input the network ignores
        bad = X.astype(object) if value >= 2**63 else X.copy()  # beyond int64: not a state
        bad[i, 0] = value
        with pytest.raises(GnnError):
            apply_layer(gnn, G, bad)
    with pytest.raises(GnnError):  # the halt row reaches 2**30 when the run halts
        run_gnn(gnn, G)


def test_run_on_empty_graph():
    # The one place where a round is not an extended step: every node of no
    # nodes has halted before the first round, while the extended run still
    # steps to a complete and stable configuration.
    G = make_graph(["p"], [], [], [])
    gnn = compile_formula(parse("mu X.(p | <>X)"), props=["p"])
    out, iters, _ = run_gnn(gnn, G)
    assert out == [] and iters == 0
    assert run_extended(parse("mu X.(p | <>X)"), G)[1] == 4
    calls = []
    out, iters, X = run_gnn(gnn, G, on_config=lambda kind, x: calls.append((kind, x)))
    assert (out, iters) == ([], 0)
    assert X.dtype == np.int64 and X.shape == (gnn.dim, 0)
    x0 = ExtendedConfiguration(initial_configuration(gnn.idx, G, 1), frozenset())
    assert calls == [("init", x0)]


def test_halting_monotone_on_paths(phi_reach):
    iters_by_n = []
    for n in range(2, 13):
        G = path_graph(n)
        gnn = compile_formula(phi_reach, props=G.props)
        out, iters, _ = run_gnn(gnn, G)
        assert out == [True] * n
        iters_by_n.append(iters)
    assert iters_by_n == sorted(iters_by_n)


def test_serialization_roundtrip(tmp_path, g1, phi_reach):
    gnn = compile_formula(phi_reach, props=g1.props)
    path = tmp_path / "model.json"
    save_gnn(gnn, path)
    loaded = load_gnn(path)
    assert same_net(loaded.comb, gnn.comb)
    assert loaded.layout == gnn.layout
    assert loaded.out_index == gnn.out_index
    out1, it1, _ = run_gnn(gnn, g1)
    out2, it2, _ = run_gnn(loaded, g1)
    assert (out1, it1) == (out2, it2)
    # bit-exact JSON round trip
    assert gnn_to_json(gnn_from_json(gnn_to_json(gnn))) == gnn_to_json(gnn)


@pytest.mark.parametrize("text, digest", [
    ("mu X.(p | <>X)", "8b4eda28bda2f0d6893b041143391e4df9539f4b691125a827b78ce3a694f34d"),
    ("nu X.([2]X & mu Y.(q | <>Y))",
     "c35df72489b68abfdb9bacb2561537ca25617913f27956f293f14647ecd873aa"),
    (reset_chain(4), "3ea28fb6e4fa2f759f2182aac20625b4a44815f22b32560db07e605264a32cb8"),
], ids=["reach", "graded", "reset-chain-4"])
def test_model_file_bytes_are_pinned(tmp_path, text, digest):
    # The files `mugnn compile` writes for the three formulas CI compiles:
    # a change to the builder, the writer or the compiler shows here.
    path = tmp_path / "model.json"
    save_gnn(compile_formula(text), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_compiled_corpus_digest_is_pinned(tmp_path):
    # One digest over the model files of 200 random sentences: they reach far
    # more of the builder than the three formulas above, so an atom built in
    # another order, at another level or with another row order shows here.
    path, h = tmp_path / "model.json", hashlib.sha256()
    for seed in range(200):
        save_gnn(compile_formula(random_formula(random.Random(seed))), path)
        h.update(path.read_bytes())
    assert h.hexdigest() == "33e486b62439115e1ccfbf2dd2e6784caf3978d0f8126bd81598f131c2bcaa4e"


def test_compiled_network_digest_is_pinned():
    # One digest over the `Rfnn` arrays of the same 200 sentences, as
    # little-endian int64: it pins the network itself, so a change to the
    # file format alone leaves it as it is.
    h = hashlib.sha256()
    for seed in range(200):
        comb = compile_formula(random_formula(random.Random(seed))).comb
        for a in (comb.sizes, comb.nnz, comb.cols, comb.coefs, comb.bias):
            h.update(np.asarray(a, "<i8").tobytes())
    assert h.hexdigest() == "323eb41c5bc6549442b5ddc9fe668d040451a421b7ee4f9ae7d779d0a771a658"


def _program_arrays(prog):
    return [prog.n_atoms, prog.max_input, prog.input_read, *prog.last,
            *(x for level in prog.hidden for x in level)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_save_load_save_is_byte_identical(tmp_path_factory, seed):
    # The loaded network is the compiled one: the same file written again and
    # the same level program, array for array.
    rng = random.Random(seed)
    gnn = compile_formula(random_formula(rng, max_fixpoints=3, max_size=16))
    path = tmp_path_factory.mktemp("models") / "model.json"
    save_gnn(gnn, path)
    first = path.read_bytes()
    loaded = load_gnn(path)
    save_gnn(loaded, path)
    assert path.read_bytes() == first
    assert same_net(loaded.comb, gnn.comb)
    want, got = _program_arrays(gnn.program), _program_arrays(loaded.program)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_layers_view_is_the_pair_rows(phi_reach):
    # `Rfnn.layers` reads the arrays back as ((rows, bias), ...) pair rows,
    # which `from_pairs` turns into the same network.
    comb = compile_formula(phi_reach).comb
    layers = comb.layers
    assert [len(W) for W, _ in layers] == list(comb.sizes)
    assert all(type(a) is int and type(c) is int for W, _ in layers for row in W for a, c in row)
    assert same_net(from_pairs(layers, comb.input_width), comb)


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"{"], ids=["not-utf8", "truncated"])
def test_load_gnn_malformed_json_is_gnn_error(tmp_path, raw):
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    with pytest.raises(GnnError, match="malformed model JSON"):
        load_gnn(path)


def _set(path, value):
    def damage(data):
        *keys, last = path
        target = data
        for key in keys:
            target = target[key]
        target[last] = value
        return data

    return damage


def _dim(data):
    """The state width of a model file: the number of output rows."""
    return len(data["layer"][-1]["weights"])


def _atoms(data):
    """The number of atoms of a model file: inputs and every hidden row."""
    return 2 * _dim(data) + sum(len(layer["weights"]) for layer in data["layer"][:-1])


# the cases that only the digest catches: each is a well-formed model file
_DIGEST_CASES = {"swapped-formula", "weight-plus-1", "no-sha256"}


@pytest.mark.parametrize(
    "damage",
    [
        _set(["format"], 1),
        _set(["formula"], ["mu X.(p | <>X)"]),
        _set(["layout"], {"props": ["p", "q"], "k": 0}),
        _set(["props"], "pq"),
        _set(["dim"], 24),
        _set(["out_index"], 9),
        _set(["hlt_index"], 23),
        _set(["layer", 0], []),
        _set(["layer", 0, "bias"], [0]),
        _set(["layer", 0, "weights", 0], 5),
        _set(["layer", 0, "weights", 0], [0, 1, 2]),
        _set(["layer", 0, "weights", 0], [0, 1.0]),
        _set(["layer", 0, "weights", 0], [0, True]),
        _set(["layer", 0, "weights", 0], [48, 1]),
        _set(["layer", 1, "weights", 0], [-1, 1]),
        lambda data: {**data, "layer": data["layer"][:-1]},
        _set(["format"], 2),
        lambda data: _set(["layer", 1, "weights", 0], [48 + len(data["layer"][0]["weights"]), 1])(data),
        lambda data: _set(["layer", 0, "weights", 0], [48 + len(data["layer"][0]["weights"]), 1])(data),
        lambda data: _set(["layer", -1, "weights", 0], [_atoms(data), 1])(data),
        _set(["formula"], "mu X.(p | <>Y)"),
        _set(["formula"], "mu X.(z | <>X)"),
        _set(["layer", 0, "weights", 0, 1], 2**45),
        _set(["layer", 0, "bias", 0], 2**70),
        _set(["layer", 1, "weights", 0, 0], 2**70),
        _set(["layer", 2, "weights", 0], [0, 1, 2]),
        _set(["layer", 1, "weights", 0], [True, 1]),
        _set(["layer", 1, "weights", 0], [1.0, 1]),
        lambda data: {**data, "layer": [{**layer, "rows": 99} for layer in data["layer"]]},
        lambda data: {**data, "layer": [{**layer, "rows": len(layer["weights"])}
                                        for layer in data["layer"]]},
        _set(["format"], 3),
        _set(["props"], ["q", "p"]),
        _set(["props"], ["p", "p", "q"]),
        _set(["props"], ["p"]),
        _set(["formula"], "nu X.(q | <>X)"),
        lambda data: _set(["layer", 0, "weights", 0, 1], data["layer"][0]["weights"][0][1] + 1)(data),
        lambda data: {key: value for key, value in data.items() if key != "sha256"},
    ],
    ids=["format-1", "formula-list", "layout-changed", "string-props", "dim", "out-index",
         "hlt-index", "layer-not-an-object", "bias-length", "row-not-a-list", "odd-row",
         "float-coef", "bool-coef", "first-layer-column-2dim", "negative-column",
         "output-width", "format-2", "own-level-atom", "later-level-atom",
         "output-reads-past-atoms", "open-formula", "prop-outside-layout",
         "coef-beyond-max-weight", "bias-beyond-int64", "column-beyond-int64",
         "odd-row-in-a-later-layer", "bool-column", "float-column", "rows-not-the-row-count",
         "rows-key", "format-3", "props-unsorted", "props-duplicate", "props-short",
         "swapped-formula", "weight-plus-1", "no-sha256"],
)
def test_malformed_model_json_rejected(request, g1, phi_reach, damage):
    # The digest is checked last, so every other case has a message of its own.
    data = gnn_to_json(compile_formula(phi_reach, props=g1.props))
    assert _dim(data) == 24 and gnn_from_json(json.loads(json.dumps(data))).dim == 24
    with pytest.raises(GnnError) as err:
        gnn_from_json(damage(data))
    assert ('"sha256"' in str(err.value)) == (request.node.callspec.id in _DIGEST_CASES)


def test_model_json_shape(g1, phi_reach):
    data = gnn_to_json(compile_formula(phi_reach, props=g1.props))
    assert list(data) == ["format", "formula", "props", "layer", "sha256"]
    json.dumps(data)  # serializable
    assert data["format"] == 4 and data["props"] == ["p", "q"]
    assert all(list(layer) == ["weights", "bias"] for layer in data["layer"])
    first = 2 * _dim(data)  # the first atom of each level
    for layer in data["layer"]:
        assert all(len(row) % 2 == 0 for row in layer["weights"])
        assert all(0 <= col < first for row in layer["weights"] for col in row[0::2])
        first += len(layer["weights"])
    assert _atoms(data) == first - len(layer["weights"])
