import json
import random

import pytest
from hypothesis import given, strategies as st

from mugnn.gen import random_graph
from mugnn.graph import (
    WIDE_GRAPH,
    GraphError,
    disjoint_union,
    graph_from_json,
    graph_to_json,
    load_graph,
    make_graph,
    mask_of,
)

from oracles import save_graph

G1_JSON = {
    "props": ["p", "q"],
    "nodes": [
        {"id": "0", "props": ["q"]},
        {"id": "1", "props": []},
        {"id": "2", "props": ["p", "q"]},
    ],
    "edges": [["0", "1"], ["1", "2"]],
}


def test_load_fixture(tmp_path):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(G1_JSON))
    G = load_graph(path)
    assert G.n == 3
    assert G.prop_mask("p") == 0b100
    assert G.prop_mask("q") == 0b101
    assert G.adj == ((1,), (2,), ())


def test_load_empty_graph():
    G = graph_from_json({"props": ["p"], "nodes": [], "edges": []})
    assert G.n == 0
    assert G.full_mask == 0


def test_dangling_edge_rejected():
    data = dict(G1_JSON, edges=[["0", "5"]])
    with pytest.raises(GraphError):
        graph_from_json(data)


def test_duplicate_node_id_rejected():
    data = dict(G1_JSON, nodes=G1_JSON["nodes"] + [{"id": "0", "props": []}])
    with pytest.raises(GraphError):
        graph_from_json(data)


def test_duplicate_edge_rejected():
    data = dict(G1_JSON, edges=[["0", "1"], ["0", "1"]])
    with pytest.raises(GraphError):
        graph_from_json(data)


def test_node_without_id_rejected():
    data = dict(G1_JSON, nodes=[{"name": "a"}], edges=[])
    with pytest.raises(GraphError):
        graph_from_json(data)


@pytest.mark.parametrize("nid", [None, {"x": 1}, [1], 1.0, True, False])
def test_node_id_neither_string_nor_int_rejected(nid):
    # str() would load them as nodes "None", "{'x': 1}", "[1]", "1.0", "True" and "False"
    with pytest.raises(GraphError, match="must be a string or an int"):
        graph_from_json({"props": [], "nodes": [{"id": nid}], "edges": []})


@pytest.mark.parametrize("edge", [[1.0, 1], [1, None], [True, 1], [1, [1]]])
def test_edge_endpoint_neither_string_nor_int_rejected(edge):
    with pytest.raises(GraphError, match="must be a string or an int"):
        graph_from_json({"props": [], "nodes": [{"id": 1}, {"id": "True"}], "edges": [edge]})


def test_int_node_ids_load_as_decimal_strings():
    G = graph_from_json({"props": [], "nodes": [{"id": 1}, {"id": "a"}], "edges": [[1, "a"], ["1", 1]]})
    assert G.node_ids == ("1", "a") and G.adj == ((1, 0), ())


def test_nodes_not_a_list_rejected():
    with pytest.raises(GraphError):
        graph_from_json(dict(G1_JSON, nodes=5))


def test_edge_not_a_pair_rejected():
    # read by its keys, the object would be the edge 1 -> 0
    for edge in (["0"], {"1": 0, "0": 2}):
        with pytest.raises(GraphError, match="must be a pair"):
            graph_from_json(dict(G1_JSON, edges=[edge]))


def test_string_props_rejected():
    with pytest.raises(GraphError):
        graph_from_json({"props": "pq", "nodes": [{"id": "a"}], "edges": []})


def test_string_node_props_rejected():
    data = {"props": ["p", "q"], "nodes": [{"id": "a", "props": "pq"}], "edges": []}
    with pytest.raises(GraphError):
        graph_from_json(data)


def test_object_node_props_rejected():
    # read by its keys, the object would be the label p
    data = {"props": ["p"], "nodes": [{"id": "a", "props": {"p": 0}}], "edges": []}
    with pytest.raises(GraphError, match="must be a list"):
        graph_from_json(data)


def test_label_outside_universe_rejected():
    with pytest.raises(GraphError):
        make_graph(["p"], ["0"], [["z"]], [])


def test_self_loop():
    G = make_graph(["p"], ["0"], [[]], [(0, 0)])
    assert G.adj == ((0,),)
    assert G.at_least(0b1, 1) == 0b1 and G.all_but(0b0, 1) == 0


def test_save_load_roundtrip(tmp_path, g1):
    path = tmp_path / "out.json"
    save_graph(g1, path)
    assert load_graph(path) == g1


def test_disjoint_union(g1):
    U = disjoint_union(g1, g1)
    assert U.n == 6
    assert U.adj == ((1,), (2,), (), (4,), (5,), ())
    assert U.labels[3:] == g1.labels


def test_disjoint_union_empty(g1):
    empty = make_graph(["p", "q"], [], [], [])
    U = disjoint_union(g1, empty)
    assert U.adj == g1.adj and U.labels == g1.labels


def test_disjoint_union_universe_mismatch(g1):
    other = make_graph(["p"], ["0"], [[]], [])
    with pytest.raises(GraphError):
        disjoint_union(g1, other)


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(GraphError):
        load_graph(path)


def test_nodes_mask_roundtrip():
    rng = random.Random(0)
    for _ in range(100):
        nodes = {rng.randrange(64) for _ in range(rng.randrange(10))}
        mask = mask_of(nodes)
        assert {i for i in range(mask.bit_length()) if mask >> i & 1} == nodes


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_mask_boolean_algebra(a, b, c):
    full = 2**16 - 1
    assert a & (b | c) == (a & b) | (a & c)
    assert a | (b & c) == (a | b) & (a | c)
    assert full & ~(a | b) == (full & ~a) & (full & ~b)
    assert (a ^ b) == (a | b) & ~(a & b) & full


def sparse_graph(rng, n, out_degree, props=("p", "q")):
    """n nodes, each with `out_degree` edges to random targets, self-loops
    kept and repeats dropped, and each prop with probability 1/2."""
    labels = [[p for p in props if rng.random() < 0.5] for _ in range(n)]
    edges = {(a, rng.randrange(n)) for a in range(n) for _ in range(out_degree)}
    return make_graph(props, [str(i) for i in range(n)], labels, sorted(edges))


def byte_boundary_graphs(rng):
    """The empty graph, then graphs at and around the byte boundaries of a mask
    up to WIDE_GRAPH nodes: random, a path, self-loops, and all edges into one
    sink, so that most nodes have no in-neighbour."""
    yield make_graph(["p"], [], [], [])
    for n in (8, 9, 15, 16, 17, 40, WIDE_GRAPH):
        ids, labels = [str(i) for i in range(n)], [[]] * n
        yield sparse_graph(rng, n, 3)
        yield make_graph(["p"], ids, labels, [(a, a + 1) for a in range(n - 1)])
        yield make_graph(["p"], ids, labels, [(a, a) for a in range(n)])
        yield make_graph(["p"], ids, labels, [(a, n - 1) for a in range(n - 1)])


def graded_cases(rng):
    """(graph, masks, grades): small random graphs and graphs at the byte
    boundaries, which look up grade 1 in byte tables and count higher grades
    in a loop over nodes, then graphs above WIDE_GRAPH nodes, which count over
    the edge index."""
    small = [random_graph(rng, max_nodes=7, edge_prob=rng.choice((0.2, 0.5))) for _ in range(40)]
    for G in small + list(byte_boundary_graphs(rng)):
        assert G.n <= WIDE_GRAPH
        top = max(map(len, G.adj), default=0) + 2  # a grade above every out-degree
        yield G, [0, G.full_mask] + [rng.randrange(G.full_mask + 1) for _ in range(6)], range(1, top + 1)
    # a count past 255 at the hub, so counts must not wrap around a byte
    hub = make_graph(["p"], [str(i) for i in range(301)], [[]] * 301, [(0, i) for i in range(1, 301)])
    n = WIDE_GRAPH + 5
    edgeless = make_graph(["p"], [str(i) for i in range(n)], [[]] * n, [])
    loops = make_graph(["p"], [str(i) for i in range(n)], [[]] * n,
                       [(a, b) for a in range(n) for b in {a, (3 * a + 1) % n}])
    wide = [(hub, [mask_of(range(1, 256)), mask_of(range(1, 257))], (1, 255, 256, 300, 301))]
    wide += [(G, [], range(1, 5)) for G in (edgeless, loops, sparse_graph(rng, 200, 3))]
    for G, masks, grades in wide:
        assert G.n > WIDE_GRAPH
        masks += [0, G.full_mask] + [rng.randrange(G.full_mask + 1) for _ in range(6)]
        yield G, masks, grades


def test_graded_counting_matches_brute_force():
    rng, extra = random.Random(5), random.Random(6)
    for G, masks, grades in graded_cases(rng):
        high = extra.getrandbits(64) << G.n  # bits above the nodes count for nothing
        for mask in masks:
            for grade in grades:
                assert G.at_least(mask | high, grade) == G.at_least(mask, grade)
                assert G.all_but(mask | high, grade) == G.all_but(mask, grade)
                inside = [sum(mask >> m & 1 for m in out) for out in G.adj]
                expect_at_least = mask_of(n for n in range(G.n) if inside[n] >= grade)
                outside = [len(out) - c for out, c in zip(G.adj, inside)]
                expect_all_but = mask_of(n for n in range(G.n) if outside[n] < grade)
                assert G.at_least(mask, grade) == expect_at_least
                assert G.all_but(mask, grade) == expect_all_but
    assert G.at_least(0, 1) == 0 and G.all_but(G.full_mask, 1) == G.full_mask


def test_byte_tables_built_only_by_a_grade_one_count():
    # a caller that loads a graph and counts no grade-1 clause pays nothing for them
    G = graph_from_json(G1_JSON)
    assert "_pre_tables" not in vars(G)
    assert G.at_least(0b110, 2) == 0 and G.all_but(0b001, 2) == G.full_mask
    assert "_pre_tables" not in vars(G)
    assert G.at_least(0b110, 1) == 0b011
    assert "_pre_tables" in vars(G)
