"""Seeded random instance generators for differential testing.  Each binder of
`random_formula` gets a fresh `X{i}`, so its sentences come out well named."""

from __future__ import annotations

import random

from .formula import (
    AllBut,
    And,
    AtLeast,
    Formula,
    Mu,
    NegProp,
    Nu,
    Or,
    Prop,
    Var,
    ast_size,
)
from .graph import LabeledGraph, make_graph

MAX_NESTING = 3


def random_formula(
    rng: random.Random,
    props=("p", "q", "r"),
    max_fixpoints: int = 3,
    max_grade: int = 3,
    max_size: int = 25,
) -> Formula:
    """A random well-named NNF sentence within the bounds, at most MAX_NESTING binders deep."""
    props = list(props)
    state = {"fp_left": max_fixpoints, "next_var": 0}

    def leaf(scope):
        choices = ["prop", "negprop"]
        if scope:
            choices.append("var")
        kind = rng.choice(choices)
        if kind == "prop":
            return Prop(rng.choice(props))
        if kind == "negprop":
            return NegProp(rng.choice(props))
        return Var(rng.choice(scope))

    def go(budget, scope, nest):
        if budget <= 1:
            return leaf(scope)
        choices = ["dia", "box", "leaf"]
        if budget >= 3:
            choices += ["and", "or"]
        if state["fp_left"] > 0 and nest < MAX_NESTING:
            choices += ["mu", "nu"]
        kind = rng.choice(choices)
        if kind == "leaf":
            return leaf(scope)
        if kind in ("and", "or"):
            left_budget = rng.randint(1, budget - 2)
            lhs = go(left_budget, scope, nest)
            rhs = go(budget - 1 - ast_size(lhs), scope, nest)
            return (And if kind == "and" else Or)(lhs, rhs)
        if kind in ("dia", "box"):
            grade = rng.randint(1, max_grade)
            body = go(budget - 1, scope, nest)
            return (AtLeast if kind == "dia" else AllBut)(grade, body)
        # fixpoint
        state["fp_left"] -= 1
        var = f"X{state['next_var']}"
        state["next_var"] += 1
        body = go(budget - 1, scope + [var], nest + 1)
        return (Mu if kind == "mu" else Nu)(var, body)

    return go(max_size, [], 0)


def random_graph(
    rng: random.Random,
    max_nodes: int = 10,
    edge_prob: float = 0.3,
    props=("p", "q", "r"),
) -> LabeledGraph:
    n = rng.randint(1, max_nodes)
    node_ids = [str(i) for i in range(n)]
    labels = [
        [p for p in props if rng.random() < 0.5]
        for _ in range(n)
    ]
    edges = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if rng.random() < edge_prob
    ]
    return make_graph(props, node_ids, labels, edges)


def path_graph(n: int, props=("p", "q")) -> LabeledGraph:
    """Directed path 0 -> 1 -> ... -> n-1 with p only on the last node."""
    node_ids = [str(i) for i in range(n)]
    labels = [[] for _ in range(n)]
    if n:
        labels[-1] = ["p"]
    edges = [(i, i + 1) for i in range(n - 1)]
    return make_graph(props, node_ids, labels, edges)
