"""Ground-truth fixpoint semantics, k-approximations, and stability.

This is the oracle layer: everything downstream (the counting machine, the
compiled networks) is checked against these functions.  An approximant is
a count on the binders, not a second syntax: `Evaluator.evaluate(f, V, k)`
iterates every fixpoint of f k times, or to convergence when k is None, and
`Evaluator.approx_chain(f, j, k, V)[-1]` is the j-th iterate of the fixpoint
f with every fixpoint below it iterated k times.
"""

from __future__ import annotations

from itertools import count

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
    SubformulaIndex,
    Var,
    children,
    sentence,
)
from .graph import LabeledGraph


class SemanticsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Evaluator with shared memo tables (one instance per graph)


class Evaluator:
    def __init__(self, G: LabeledGraph):
        self.G = G
        self._entries: dict = {}

    # -- helpers

    def _entry(self, f: Formula) -> tuple[tuple[str, ...], bool, dict, dict]:
        """f's free variables, sorted, whether f is free of fixpoints, and
        its memo tables of values and of stable sets."""
        got = self._entries.get(f)
        if got is None:
            # from its children's entries, so that each is computed once
            kids = [self._entry(c) for c in children(f)]
            free = {f.name} if isinstance(f, Var) else set().union(*(e[0] for e in kids))
            fixpoint = isinstance(f, (Mu, Nu))
            free.discard(f.var if fixpoint else None)  # a binder's own variable
            got = (tuple(sorted(free)), not fixpoint and all(e[1] for e in kids), {}, {})
            self._entries[f] = got
        return got

    @staticmethod
    def _key(names: tuple[str, ...], V: dict, k: int | None) -> tuple:
        try:
            return k, *[V[x] for x in names]
        except KeyError as e:
            raise SemanticsError(f"free variable {e.args[0]!r} missing from valuation")

    # -- evaluation

    def evaluate(self, f: Formula, V: dict, k: int | None = None) -> int:
        """The nodes where f holds under V, every fixpoint iterated k times,
        or to convergence when k is None."""
        names, closed, memo, _ = self._entry(f)
        # a subformula without fixpoints means the same at every k
        key = self._key(names, V, None if closed else k)
        got = memo.get(key)
        if got is not None:
            return got
        G = self.G
        if isinstance(f, Prop):
            r = G.prop_mask(f.name)
        elif isinstance(f, NegProp):
            r = G.full_mask & ~G.prop_mask(f.name)
        elif isinstance(f, Var):
            r = V[f.name]
        elif isinstance(f, And):
            r = self.evaluate(f.lhs, V, k) & self.evaluate(f.rhs, V, k)
        elif isinstance(f, Or):
            r = self.evaluate(f.lhs, V, k) | self.evaluate(f.rhs, V, k)
        elif isinstance(f, AtLeast):
            r = G.at_least(self.evaluate(f.body, V, k), f.grade)
        elif isinstance(f, AllBut):
            r = G.all_but(self.evaluate(f.body, V, k), f.grade)
        elif isinstance(f, (Mu, Nu)):
            # Kleene iteration; converges within |N| rounds by monotonicity,
            # and past convergence a round changes nothing
            r = 0 if isinstance(f, Mu) else G.full_mask
            for _ in count() if k is None else range(k):
                S = self.evaluate(f.body, {**V, f.var: r}, k)
                if S == r:
                    break
                r = S
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = r
        return r

    # -- approximation chains and stability

    def approx_chain(self, f: Formula, i: int, k: int, V: dict) -> list[int]:
        """[[f^(0,k)]], ..., [[f^(i,k)]] for a fixpoint formula f."""
        S = 0 if isinstance(f, Mu) else self.G.full_mask
        chain = [S]
        for _ in range(i):
            S = self.evaluate(f.body, {**V, f.var: S}, k)
            chain.append(S)
        return chain

    def stable_set(self, f: Formula, V: dict, k: int) -> int:
        """Nodes at which f is k-stable (per-node certificate of convergence)."""
        if k < 1:
            raise SemanticsError("stability requires k >= 1")
        names, closed, _, memo = self._entry(f)
        key = self._key(names, V, None if closed else k)
        got = memo.get(key)
        if got is not None:
            return got
        r = self.G.full_mask
        if isinstance(f, (Mu, Nu)):
            chain = self.approx_chain(f, k, k, V)
            r &= ~(chain[k] ^ chain[k - 1])
            for i in range(k):
                r &= self.stable_set(f.body, {**V, f.var: chain[i]}, k)
        else:  # atoms are stable everywhere
            for c in children(f):
                r &= self.stable_set(c, V, k)
        memo[key] = r
        return r

    def jk_stable_set(self, alpha: Formula, j: int, k: int, V: dict) -> int:
        """Nodes at which fixpoint alpha is (j,k)-stable; j=0 is vacuous."""
        if not isinstance(alpha, (Mu, Nu)):
            raise SemanticsError("(j,k)-stability is defined on fixpoint formulas")
        if k < 1:
            raise SemanticsError("stability requires k >= 1")
        r = self.G.full_mask
        if j == 0:
            return r
        chain = self.approx_chain(alpha, j - 1, k, V)
        for i in range(j):
            r &= self.stable_set(alpha.body, {**V, alpha.var: chain[i]}, k)
        return r


# ---------------------------------------------------------------------------
# Public functions


def evaluate(phi: Formula, G: LabeledGraph, V: dict | None = None) -> int:
    return Evaluator(G).evaluate(phi, V or {})


def model_check_stable(phi: str | Formula | SubformulaIndex, G: LabeledGraph) -> tuple[int, int]:
    """Smallest k with phi k-stable at every node, and the k-approximation
    there.  phi is whatever `sentence` accepts, and is well-named by it."""
    phi = sentence(phi).root_formula
    ev = Evaluator(G)
    k = 1
    while True:
        if ev.stable_set(phi, {}, k) == G.full_mask:
            return ev.evaluate(phi, {}, k), k
        if k > G.n + 1:  # termination guaranteed at |N|+1; beyond it is a bug
            raise AssertionError("stability scan exceeded |N|+1")
        k += 1
