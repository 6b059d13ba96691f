"""Graded bisimulation via color refinement.

Refinement: start from label sets, then repeatedly refine each node's color
by the multiset of its out-neighbors' colors.  Two pointed graphs are graded
bisimilar exactly when their roots end up in the same refinement class of
the disjoint union (the bijection clause of graded bisimulation corresponds
to multiset equality of refined neighbor colors on finite graphs).
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import LabeledGraph


class Coloring(NamedTuple):
    colors: tuple[int, ...]
    rounds: int


def color_refinement(G: LabeledGraph) -> Coloring:
    palette: dict = {}

    def dense(keys):
        out = []
        for key in keys:
            if key not in palette:
                palette[key] = len(palette)
            out.append(palette[key])
        return tuple(out)

    colors = dense(tuple(sorted(G.labels[n])) for n in range(G.n))
    rounds = 0
    while True:
        keys = [
            (colors[n], tuple(sorted(colors[m] for m in G.adj[n])))
            for n in range(G.n)
        ]
        new = dense(keys)
        rounds += 1
        if len(set(new)) == len(set(colors)):
            return Coloring(new, rounds)
        colors = new
