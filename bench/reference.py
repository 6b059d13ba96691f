"""Reference evaluator for the benchmark's formula trees.

It shares no code with `mugnn`: node sets are Python sets, graphs are read
straight from their JSON objects, and every fixpoint is found by plain
Kleene iteration from the empty or the full set.
"""

from __future__ import annotations


class Graph:
    def __init__(self, data: dict):
        ids = [node["id"] for node in data["nodes"]]
        where = {nid: i for i, nid in enumerate(ids)}
        self.n = len(ids)
        self.labels = [frozenset(node["props"]) for node in data["nodes"]]
        self.succ = [[] for _ in ids]
        for a, b in data["edges"]:
            self.succ[where[a]].append(where[b])


def holds(f, g: Graph) -> list[bool]:
    """Truth value of sentence `f` at every node of `g`, in node order."""
    true_at = _eval(f, g, {})
    return [i in true_at for i in range(g.n)]


def _eval(f, g: Graph, env: dict) -> frozenset:
    kind = f[0]
    if kind == "prop":
        return frozenset(i for i in range(g.n) if f[1] in g.labels[i])
    if kind == "neg":
        return frozenset(i for i in range(g.n) if f[1] not in g.labels[i])
    if kind == "var":
        return env[f[1]]
    if kind == "and":
        return _eval(f[1], g, env) & _eval(f[2], g, env)
    if kind == "or":
        return _eval(f[1], g, env) | _eval(f[2], g, env)
    if kind == "dia":
        body = _eval(f[2], g, env)
        return frozenset(
            i for i in range(g.n) if sum(m in body for m in g.succ[i]) >= f[1]
        )
    if kind == "box":
        body = _eval(f[2], g, env)
        return frozenset(
            i for i in range(g.n) if sum(m not in body for m in g.succ[i]) < f[1]
        )
    if kind == "mu" or kind == "nu":
        current = frozenset() if kind == "mu" else frozenset(range(g.n))
        while True:
            following = _eval(f[2], g, {**env, f[1]: current})
            if following == current:
                return current
            current = following
    raise ValueError(f"not a formula tree: {f!r}")
