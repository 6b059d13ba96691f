"""Seeded inputs for the benchmark, made without any code from `mugnn`.

Formulas are small trees of tuples:

    ("prop", name)  ("neg", name)  ("var", name)
    ("and", lhs, rhs)  ("or", lhs, rhs)
    ("dia", grade, body)  ("box", grade, body)
    ("mu", var, body)  ("nu", var, body)

`to_text` prints a tree in the concrete syntax `mugnn.parse` reads, and
graphs are the JSON objects `mugnn.graph_from_json` reads.  The program
under test receives only that text and those objects; the trees stay with
the benchmark's reference evaluator.
"""

from __future__ import annotations

import math
import random

PROPS_SMALL = ("p", "q", "r")
PROPS_LARGE = ("p", "q")

REACH = ("mu", "X", ("or", ("prop", "p"), ("dia", 1, ("var", "X"))))
GRADED = (
    "nu", "X",
    ("and",
     ("box", 2, ("var", "X")),
     ("mu", "Y", ("or", ("prop", "q"), ("dia", 1, ("var", "Y"))))),
)


def to_text(f) -> str:
    kind = f[0]
    if kind == "prop" or kind == "var":
        return f[1]
    if kind == "neg":
        return "~" + f[1]
    if kind == "and" or kind == "or":
        op = " & " if kind == "and" else " | "
        return "(" + to_text(f[1]) + op + to_text(f[2]) + ")"
    if kind == "dia":
        return f"<{f[1]}>({to_text(f[2])})"
    if kind == "box":
        return f"[{f[1]}]({to_text(f[2])})"
    if kind == "mu" or kind == "nu":
        return f"({kind} {f[1]}.({to_text(f[2])}))"
    raise ValueError(f"not a formula tree: {f!r}")


def tree_size(f) -> int:
    kind = f[0]
    if kind in ("prop", "neg", "var"):
        return 1
    if kind in ("and", "or"):
        return 1 + tree_size(f[1]) + tree_size(f[2])
    return 1 + tree_size(f[2])


def random_sentence(rng, props, max_size, max_fixpoints, max_nesting, max_grade):
    """A random closed formula of at most `max_size` nodes.

    Every binder gets a fresh variable name, so the text is already
    well named, and variables occur only under their binder.
    """
    fp_left = [max_fixpoints]
    names = iter(f"X{i}" for i in range(max_fixpoints))

    def leaf(scope):
        kind = rng.choice(("prop", "neg", "var") if scope else ("prop", "neg"))
        if kind == "var":
            return ("var", rng.choice(scope))
        return (kind, rng.choice(props))

    def grow(budget, scope, depth):
        if budget <= 1:
            return leaf(scope)
        kinds = ["dia", "box", "leaf"]
        if budget >= 3:
            kinds += ["and", "or"]
        if fp_left[0] and depth < max_nesting:
            kinds += ["mu", "nu"]
        kind = rng.choice(kinds)
        if kind == "leaf":
            return leaf(scope)
        if kind in ("and", "or"):
            lhs = grow(rng.randint(1, budget - 2), scope, depth)
            rhs = grow(budget - 1 - tree_size(lhs), scope, depth)
            return (kind, lhs, rhs)
        if kind in ("dia", "box"):
            return (kind, rng.randint(1, max_grade), grow(budget - 1, scope, depth))
        fp_left[0] -= 1
        var = next(names)
        return (kind, var, grow(budget - 1, scope + [var], depth + 1))

    return grow(max_size, [], 0)


def rename(f, props: dict, variables: dict, rng):
    """The same sentence with props and variables renamed and operands of
    some conjunctions and disjunctions swapped, chosen by `rng`."""
    kind = f[0]
    if kind in ("prop", "neg"):
        return (kind, props[f[1]])
    if kind == "var":
        return (kind, variables[f[1]])
    if kind in ("and", "or"):
        lhs = rename(f[1], props, variables, rng)
        rhs = rename(f[2], props, variables, rng)
        return (kind, rhs, lhs) if rng.random() < 0.5 else (kind, lhs, rhs)
    if kind in ("dia", "box"):
        return (kind, f[1], rename(f[2], props, variables, rng))
    return (kind, variables[f[1]], rename(f[2], props, variables, rng))


def graph_json(props, labels, edges, rng=None) -> dict:
    """A graph object.  With `rng`, nodes and edges are listed in a shuffled
    order, which moves every node to another bit of the program's masks."""
    n = len(labels)
    ids = [f"v{i}" for i in range(n)]
    order = list(range(n))
    edges = list(edges)
    if rng is not None:
        rng.shuffle(order)
        rng.shuffle(edges)
    return {
        "props": list(props),
        "nodes": [{"id": ids[i], "props": sorted(labels[i])} for i in order],
        "edges": [[ids[a], ids[b]] for a, b in edges],
    }


def random_labels(rng, n, props, density):
    return [{p for p in props if rng.random() < density} for _ in range(n)]


def dense_random_edges(rng, n, edge_prob):
    return [(a, b) for a in range(n) for b in range(n) if rng.random() < edge_prob]


def sparse_random_edges(rng, n, edge_prob):
    """Each ordered pair independently with `edge_prob`, by geometric skips."""
    log_miss = math.log(1.0 - edge_prob)
    edges = []
    for a in range(n):
        b = -1
        while True:
            b += 1 + int(math.log(1.0 - rng.random()) / log_miss)
            if b >= n:
                break
            edges.append((a, b))
    return edges


def distance_to(n, edges, targets):
    """Shortest distance from every node to the set `targets`; None if unreachable."""
    pred = [[] for _ in range(n)]
    for a, b in edges:
        pred[b].append(a)
    dist = [None] * n
    frontier = sorted(targets)
    for v in frontier:
        dist[v] = 0
    while frontier:
        following = []
        for v in frontier:
            for u in pred[v]:
                if dist[u] is None:
                    dist[u] = dist[v] + 1
                    following.append(u)
        frontier = following
    return dist


# ---------------------------------------------------------------------------
# Workloads
#
# Each returns a list of instances (name, formula tree, graph object, the
# bound k every engine must end at, or None where the workload fixes none).  A
# workload does the same amount of work whatever the seed: run-to-run spread
# between seeds would otherwise swamp the changes the benchmark must detect.

DIFF_SMALL_INSTANCES = 40
GNN_LARGE_NODES = 1000
DEEP_PATH_LENGTHS = (24, 32, 40)


def diff_small(seed: int):
    """Random sentences on random small graphs, the differential-test mix.

    The step counts of these instances are heavy-tailed, so a set drawn
    afresh for every seed would differ in total cost by tens of percent.
    The shapes are therefore drawn once, and the seed draws an isomorphic
    copy of each: props and variables renamed, operands swapped, nodes
    and edges listed in another order.
    """
    shapes = random.Random("diff-small")
    rng = random.Random(f"diff-small/{seed}")
    out = []
    for i in range(DIFF_SMALL_INSTANCES):
        phi = random_sentence(shapes, PROPS_SMALL, max_size=25, max_fixpoints=3,
                              max_nesting=3, max_grade=3)
        n = 1 + i % 10
        labels = random_labels(shapes, n, PROPS_SMALL, 0.5)
        edges = dense_random_edges(shapes, n, 0.3)

        props = dict(zip(PROPS_SMALL, rng.sample(PROPS_SMALL, len(PROPS_SMALL))))
        names = [f"X{j}" for j in range(3)]
        variables = dict(zip(names, rng.sample(["X", "Y", "Z"], 3)))
        phi = rename(phi, props, variables, rng)
        labels = [{props[p] for p in lab} for lab in labels]
        out.append((f"small{i}", phi, graph_json(PROPS_SMALL, labels, edges, rng), None))
    return out


def gnn_large(seed: int):
    """Reach and graded sentences on one sparse random graph of 1,000 nodes.

    At 2,000 nodes one pass of the GNN took 7 to 9 s, so a 40-s run held
    three or four rounds and timed each GNN call only three or four times.
    At 1,000 nodes a run holds about ten rounds.

    The GNN runs one round per extended step, and the step count grows with
    the bound k at which the run halts, so the graph is shaped to fix k:
    - reach halts at k=3: p is added to every node more than one step
      from a p-node, so no node that reaches p is farther than one step.
    - graded halts at k=2: q holds outside a region Z of about a tenth of
      the nodes; no edge leaves Z and no node outside Z has more than one
      edge into Z, so both fixpoints are reached after one iteration.
    """
    rng = random.Random(f"gnn-large/{seed}")
    n = GNN_LARGE_NODES
    labels = random_labels(rng, n, ("p",), 0.5)
    in_z = [rng.random() < 0.1 for _ in range(n)]
    edges = []
    into_z = [False] * n
    for a, b in sparse_random_edges(rng, n, 3.0 / n):
        if in_z[a] and not in_z[b]:
            continue
        if in_z[b] and not in_z[a]:
            if into_z[a]:
                continue
            into_z[a] = True
        edges.append((a, b))
    dist = distance_to(n, edges, [v for v in range(n) if "p" in labels[v]])
    for v in range(n):
        if dist[v] is not None and dist[v] > 1:
            labels[v].add("p")
        if not in_z[v]:
            labels[v].add("q")
    g = graph_json(PROPS_LARGE, labels, edges)
    return [("reach", REACH, g, None), ("graded", GRADED, g, None)]


def deep_path(seed: int):
    """Reachability along directed paths, with p only at the far end.

    Every node is true, and k climbs to N+1.  The seed only changes the
    order in which nodes and edges are listed, so every seed does the same
    work.
    """
    rng = random.Random(f"deep-path/{seed}")
    out = []
    for n in DEEP_PATH_LENGTHS:
        labels = [set() for _ in range(n - 1)] + [{"p"}]
        edges = [(i, i + 1) for i in range(n - 1)]
        out.append((f"path{n}", REACH, graph_json(PROPS_LARGE, labels, edges, rng), n + 1))
    return out


WORKLOADS = {
    "diff-small": diff_small,
    "gnn-large": gnn_large,
    "deep-path": deep_path,
}
