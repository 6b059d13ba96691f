"""Finite labeled digraphs, node sets as int bitmasks, and JSON I/O."""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain

import numpy as np


class GraphError(ValueError):
    pass


# A NodeSet is a plain int used as a bitmask over node indices 0..n-1.


def mask_of(nodes) -> int:
    out = 0
    for n in nodes:
        out |= 1 << n
    return out


# Above this many nodes, graded clauses count with numpy over the edge index; up to it,
# grade 1 is a byte-table lookup and higher grades a loop over nodes.  µs per `at_least`
# call, table g1 / loop g2 / numpy, 3 edges per node, best of 5x2,000, 2-vCPU host:
# 10 nodes 0.21/0.47/4.4, 64: 0.82/4.5/5.1, 96: 1.2/5.6/5.3, 128: 1.5/8.3/5.5, 1,000: 14/126/12.
WIDE_GRAPH = 96


class EdgeIndex:
    """Edges sorted by source, as numpy arrays: their sources `src`, targets `dst`,
    the nodes with an out-edge `sources`, and where each one's edges begin, `starts`."""

    def __init__(self, adj: tuple[tuple[int, ...], ...]):
        deg = np.fromiter(map(len, adj), dtype=np.intp, count=len(adj))
        self.src = np.repeat(np.arange(len(adj)), deg)
        self.dst = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=int(deg.sum()))
        self.sources = np.flatnonzero(deg)
        self.starts = (np.cumsum(deg) - deg)[self.sources]
        self.max_degree = int(deg.max(initial=0))


class LabeledGraph:
    def __init__(self, props: tuple[str, ...], node_ids: tuple[str, ...],
                 labels: tuple[frozenset[str], ...], adj: tuple[tuple[int, ...], ...]):
        self.props, self.node_ids, self.labels, self.adj = props, node_ids, labels, adj
        self.n = len(node_ids)
        self._key = (props, node_ids, labels, adj)  # equality and hash are over these

    def __eq__(self, other):
        return isinstance(other, LabeledGraph) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def edge_index(self) -> EdgeIndex:
        return EdgeIndex(self.adj)

    @cached_property
    def _prop_masks(self) -> dict[str, int]:
        out = {p: 0 for p in self.props}
        for i, lab in enumerate(self.labels):
            for p in lab:
                out[p] |= 1 << i
        return out

    def prop_mask(self, p: str) -> int:
        try:
            return self._prop_masks[p]
        except KeyError:
            raise GraphError(f"proposition {p!r} not in universe {list(self.props)}")

    @cached_property
    def _out_masks(self) -> tuple[tuple[int, int], ...]:
        """(node bit, out-neighbour mask) per node."""
        return tuple((1 << n, mask_of(out)) for n, out in enumerate(self.adj))

    @cached_property
    def _pre_tables(self) -> list[list[int]]:
        """Per 8-node chunk, 256 masks: entry v is the union of the in-neighbours of
        the chunk's nodes that v names, so `<>` is one lookup per byte (Four Russians)."""
        pre = [0] * (self.n + -self.n % 8)  # padded, so mask bits at n and above name no node
        for a, out in enumerate(self.adj):
            for b in out:
                pre[b] |= 1 << a
        tables = [[0] for _ in range(0, len(pre), 8)]
        for i, p in enumerate(pre):  # doubling: the entries that name node i gain p
            t = tables[i >> 3]
            t += [x | p for x in t] if p else t
        return tables

    def at_least(self, mask: int, grade: int) -> int:
        """Nodes with at least `grade` out-neighbours in `mask`."""
        if self.n > WIDE_GRAPH:  # one count of edge sources, each weighted by its target's bit
            n, E = self.n, self.edge_index
            raw = (mask & self.full_mask).to_bytes((n + 7) // 8, "little")
            bits = np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little")
            hits = np.bincount(E.src, weights=bits[E.dst], minlength=n) >= grade
            return int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")
        out = 0
        if grade == 1:  # the common case: one table lookup per byte of the mask
            for t in self._pre_tables:
                out |= t[mask & 255]
                mask >>= 8
            return out
        for bit, succ in self._out_masks:
            if (succ & mask).bit_count() >= grade:
                out |= bit
        return out

    def all_but(self, mask: int, grade: int) -> int:
        """Nodes with fewer than `grade` out-neighbours outside `mask`."""
        full = self.full_mask
        return full & ~self.at_least(full & ~mask, grade)


def make_graph(props, node_ids, labels, edges) -> LabeledGraph:
    """Validate and build a graph from raw pieces (edges as index pairs)."""
    props = tuple(sorted(set(props)))
    node_ids = tuple(node_ids)
    if len(set(node_ids)) != len(node_ids):
        raise GraphError("duplicate node id")
    n = len(node_ids)
    try:
        labels = tuple(frozenset(l) for l in labels)
    except TypeError:
        raise GraphError("node labels must be lists of proposition names") from None
    if len(labels) != n:
        raise GraphError("labels/nodes length mismatch")
    for lab in labels:
        for p in lab:
            if p not in props:
                raise GraphError(f"label {p!r} outside proposition universe")
    out: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a},{b}) endpoint out of range")
        if (a, b) in seen:
            raise GraphError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        out[a].append(b)
    return LabeledGraph(props, node_ids, labels, tuple(tuple(o) for o in out))


def _node_id(x) -> str:
    if isinstance(x, str) or type(x) is int:  # not a bool; an int loads as its decimal string
        return str(x)
    raise GraphError(f"node id {x!r} must be a string or an int")


def graph_from_json(data) -> LabeledGraph:
    if not isinstance(data, dict):
        raise GraphError("graph JSON must be an object")
    try:
        props = data["props"]
        nodes = data["nodes"]
        edges = data["edges"]
    except KeyError as e:
        raise GraphError(f"missing graph field: {e}")
    if not isinstance(props, (list, tuple)) or not all(isinstance(p, str) for p in props):
        raise GraphError(f"props must be a list of names, not {props!r}")
    if not isinstance(nodes, (list, tuple)):
        raise GraphError(f"nodes must be a list, not {nodes!r}")
    if not isinstance(edges, (list, tuple)):
        raise GraphError(f"edges must be a list, not {edges!r}")
    node_ids = []
    labels = []
    for nd in nodes:
        try:
            node_ids.append(_node_id(nd["id"]))
            lab = nd.get("props", [])
        except (KeyError, TypeError, AttributeError):
            raise GraphError(f"node {nd!r} must be an object with an id") from None
        # a string would split into one-letter props, an object into its keys
        if not isinstance(lab, (list, tuple)):
            raise GraphError(f"props of node {node_ids[-1]!r} must be a list, not {lab!r}")
        labels.append(lab)
    id_to_idx = {nid: i for i, nid in enumerate(node_ids)}
    if len(id_to_idx) != len(node_ids):
        dup = next(nid for i, nid in enumerate(node_ids) if id_to_idx[nid] != i)
        raise GraphError(f"duplicate node id {dup!r}")
    idx_edges = []
    for e in edges:
        try:
            # a two-letter string, or an object of two keys, would unpack into a pair
            if not isinstance(e, (list, tuple)):
                raise TypeError
            a, b = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} must be a pair of node ids") from None
        try:
            idx_edges.append((id_to_idx[_node_id(a)], id_to_idx[_node_id(b)]))
        except KeyError:
            raise GraphError(f"edge ({str(a)!r},{str(b)!r}) references unknown node") from None
    return make_graph(props, node_ids, labels, idx_edges)


def graph_to_json(G: LabeledGraph) -> dict:
    return {
        "props": list(G.props),
        "nodes": [
            {"id": nid, "props": sorted(G.labels[i])}
            for i, nid in enumerate(G.node_ids)
        ],
        "edges": [
            [G.node_ids[a], G.node_ids[b]]
            for a in range(G.n)
            for b in G.adj[a]
        ],
    }


def load_graph(path) -> LabeledGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise GraphError(f"cannot read graph file: {e}")
    # RecursionError: nested too deeply
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise GraphError(f"malformed graph JSON: {e}")
    return graph_from_json(data)


def disjoint_union(G: LabeledGraph, H: LabeledGraph) -> LabeledGraph:
    if G.props != H.props:
        raise GraphError("disjoint union requires the same proposition universe")
    off = G.n
    taken = set(G.node_ids)
    new_ids = list(G.node_ids)
    for nid in H.node_ids:
        cand = nid
        while cand in taken:
            cand = cand + "'"
        taken.add(cand)
        new_ids.append(cand)
    labels = G.labels + H.labels
    adj = G.adj + tuple(tuple(b + off for b in out) for out in H.adj)
    return LabeledGraph(G.props, tuple(new_ids), labels, adj)
