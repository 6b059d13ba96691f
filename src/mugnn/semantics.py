"""Ground-truth fixpoint semantics, k-approximations, and stability.

This is the oracle layer: everything downstream (the counting machine, the
compiled networks) is checked against these functions.  `Evaluator(idx, G)`
reads the clause table of a subformula index (`SubformulaIndex.ops`), as
the counting step and the compiler do, and works on positions of that
index.  A valuation V is a sequence of node masks indexed by variable
number, the form of `Configuration.V`: fixpoint i binds variable i, and
an open formula's free variables are numbered after its fixpoints.

An approximant is a count on the binders, not a second syntax:
`Evaluator.evaluate(p, V, k)` iterates every fixpoint at or below p k
times, or to convergence when k is None, and
`Evaluator.approx_chain(p, j, k, V)[-1]` is the j-th iterate of the
fixpoint at p with every fixpoint below it iterated k times.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import count

from .formula import Formula, SubformulaIndex, sentence
from .graph import LabeledGraph


class SemanticsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Evaluator with shared memo tables (one instance per index and graph)


class Evaluator:
    """Values and stable sets of the positions of `idx` on G, memoised for
    the life of the instance."""

    def __init__(self, idx: SubformulaIndex, G: LabeledGraph):
        self.idx = idx
        self.G = G
        # per position, the numbers of its free variables
        self._free = [tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in idx.free]
        self._values: dict = {}
        self._stable: dict = {}

    def _key(self, p: int, V: Sequence[int], k: int | None) -> tuple:
        # a position without fixpoints at or below it means the same at every k
        return p, k if self.idx.fp_below[p] else None, *[V[i] for i in self._free[p]]

    # -- evaluation

    def evaluate(self, p: int, V: Sequence[int], k: int | None = None) -> int:
        """The nodes where position p holds under V, every fixpoint iterated
        k times, or to convergence when k is None."""
        key = self._key(p, V, k)
        got = self._values.get(key)
        if got is not None:
            return got
        G = self.G
        op, a, b, _, _ = self.idx.ops[p]
        if op == "Prop":
            r = G.prop_mask(a)
        elif op == "NegProp":
            r = G.full_mask & ~G.prop_mask(a)
        elif op == "Var":
            r = V[a]
        elif op == "And":
            r = self.evaluate(a, V, k) & self.evaluate(b, V, k)
        elif op == "Or":
            r = self.evaluate(a, V, k) | self.evaluate(b, V, k)
        elif op == "AtLeast":
            r = G.at_least(self.evaluate(a, V, k), b)
        elif op == "AllBut":
            r = G.all_but(self.evaluate(a, V, k), b)
        else:
            # a fixpoint with body a and variable b: Kleene iteration, which
            # converges within |N| rounds by monotonicity, and past
            # convergence a round changes nothing
            r = 0 if op == "Mu" else G.full_mask
            V = list(V)
            for _ in count() if k is None else range(k):
                V[b] = r
                S = self.evaluate(a, V, k)
                if S == r:
                    break
                r = S
        self._values[key] = r
        return r

    # -- approximation chains and stability

    def approx_chain(self, p: int, i: int, k: int, V: Sequence[int]) -> list[int]:
        """[[f^(0,k)]], ..., [[f^(i,k)]] for the fixpoint f at position p."""
        op, a, b, _, _ = self.idx.ops[p]
        S = 0 if op == "Mu" else self.G.full_mask
        chain = [S]
        V = list(V)
        for _ in range(i):
            V[b] = S
            S = self.evaluate(a, V, k)
            chain.append(S)
        return chain

    def stable_set(self, p: int, V: Sequence[int], k: int) -> int:
        """Nodes at which position p is k-stable (per-node certificate of
        convergence)."""
        if k < 1:
            raise SemanticsError("stability requires k >= 1")
        key = self._key(p, V, k)
        got = self._stable.get(key)
        if got is not None:
            return got
        if self.idx.ops[p][0] in ("Mu", "Nu"):
            chain = self.approx_chain(p, k, k, V)
            r = self._body_stable(p, chain[:k], k, V) & ~(chain[k] ^ chain[k - 1])
        else:  # atoms are stable everywhere
            r = self.G.full_mask
            for c in self.idx.sub[p]:
                r &= self.stable_set(c, V, k)
        self._stable[key] = r
        return r

    def jk_stable_set(self, p: int, j: int, k: int, V: Sequence[int]) -> int:
        """Nodes at which the fixpoint at position p is (j,k)-stable; j=0 is
        vacuous."""
        if self.idx.ops[p][0] not in ("Mu", "Nu"):
            raise SemanticsError("(j,k)-stability is defined on fixpoint formulas")
        if k < 1:
            raise SemanticsError("stability requires k >= 1")
        if j == 0:
            return self.G.full_mask
        return self._body_stable(p, self.approx_chain(p, j - 1, k, V), k, V)

    def _body_stable(self, p: int, sets: list[int], k: int, V: Sequence[int]) -> int:
        """Nodes where the body of the fixpoint at p is k-stable with its
        variable bound to each of `sets` in turn."""
        _, a, b, _, _ = self.idx.ops[p]
        r = self.G.full_mask
        V = list(V)
        for S in sets:
            V[b] = S
            r &= self.stable_set(a, V, k)
        return r


# ---------------------------------------------------------------------------
# Public functions


def evaluate(phi: str | Formula | SubformulaIndex, G: LabeledGraph) -> int:
    """The nodes where phi holds.  phi is whatever `sentence` accepts."""
    idx = sentence(phi)
    return Evaluator(idx, G).evaluate(idx.root, (0,) * idx.n_fp)


def model_check_stable(phi: str | Formula | SubformulaIndex, G: LabeledGraph) -> tuple[int, int]:
    """Smallest k with phi k-stable at every node, and the k-approximation
    there.  phi is whatever `sentence` accepts, and is well-named by it."""
    idx = sentence(phi)
    ev, V = Evaluator(idx, G), (0,) * idx.n_fp
    k = 1
    while True:
        if ev.stable_set(idx.root, V, k) == G.full_mask:
            return ev.evaluate(idx.root, V, k), k
        if k > G.n + 1:  # termination guaranteed at |N|+1; beyond it is a bug
            raise AssertionError("stability scan exceeded |N|+1")
        k += 1
