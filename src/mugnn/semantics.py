"""Ground-truth fixpoint semantics, adorned approximations, and stability.

This is the oracle layer: everything downstream (the counting machine, the
compiled networks) is checked against these functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    AllBut,
    And,
    AtLeast,
    Formula,
    FormulaError,
    Mu,
    NegProp,
    Nu,
    Or,
    Prop,
    Var,
    is_fixpoint,
)
from .graph import LabeledGraph


class SemanticsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Adorned formulas: fixpoints carry an explicit iteration count.


@dataclass(frozen=True)
class AdornedMu:
    iters: int
    var: str
    body: object


@dataclass(frozen=True)
class AdornedNu:
    iters: int
    var: str
    body: object


def _adorn_all(f: Formula, i: int):
    if isinstance(f, Mu):
        return AdornedMu(i, f.var, _adorn_all(f.body, i))
    if isinstance(f, Nu):
        return AdornedNu(i, f.var, _adorn_all(f.body, i))
    if isinstance(f, (And, Or)):
        return type(f)(_adorn_all(f.lhs, i), _adorn_all(f.rhs, i))
    if isinstance(f, (AtLeast, AllBut)):
        return type(f)(f.grade, _adorn_all(f.body, i))
    return f


def adorn(phi: Formula, outer: int, inner: int):
    """Adorn the top-level fixpoint (if any) with `outer`, all inner ones with `inner`."""
    if isinstance(phi, Mu):
        return AdornedMu(outer, phi.var, _adorn_all(phi.body, inner))
    if isinstance(phi, Nu):
        return AdornedNu(outer, phi.var, _adorn_all(phi.body, inner))
    return _adorn_all(phi, inner)


def uniform(phi: Formula, k: int):
    return adorn(phi, k, k)


def free_of(f) -> frozenset[str]:
    """Free variables of a plain, adorned, or mixed formula tree."""
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (AdornedMu, AdornedNu, Mu, Nu)):
        return free_of(f.body) - {f.var}
    if isinstance(f, (And, Or)):
        return free_of(f.lhs) | free_of(f.rhs)
    if isinstance(f, (AtLeast, AllBut)):
        return free_of(f.body)
    return frozenset()


# ---------------------------------------------------------------------------
# Evaluator with shared memo tables (one instance per graph)


class Evaluator:
    def __init__(self, G: LabeledGraph):
        self.G = G
        self._free: dict = {}
        self._memo: dict = {}
        self._stable: dict = {}
        self._uniform: dict = {}

    # -- helpers

    def _free_of(self, f) -> frozenset[str]:
        got = self._free.get(f)
        if got is None:
            got = free_of(f)
            self._free[f] = got
        return got

    def _fp(self, f, V: dict) -> tuple:
        try:
            return tuple(sorted((x, V[x]) for x in self._free_of(f)))
        except KeyError as e:
            raise SemanticsError(f"free variable {e.args[0]!r} missing from valuation")

    # -- plain and adorned evaluation (one recursion handles both)

    def evaluate(self, f, V: dict) -> int:
        key = (f, self._fp(f, V))
        got = self._memo.get(key)
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
            r = self.evaluate(f.lhs, V) & self.evaluate(f.rhs, V)
        elif isinstance(f, Or):
            r = self.evaluate(f.lhs, V) | self.evaluate(f.rhs, V)
        elif isinstance(f, AtLeast):
            r = G.at_least(self.evaluate(f.body, V), f.grade)
        elif isinstance(f, AllBut):
            r = G.all_but(self.evaluate(f.body, V), f.grade)
        elif isinstance(f, (Mu, Nu)):
            # Kleene iteration; converges within |N| rounds by monotonicity
            S = 0 if isinstance(f, Mu) else G.full_mask
            while True:
                S2 = self.evaluate(f.body, {**V, f.var: S})
                if S2 == S:
                    break
                S = S2
            r = S
        elif isinstance(f, (AdornedMu, AdornedNu)):
            S = 0 if isinstance(f, AdornedMu) else G.full_mask
            for _ in range(f.iters):
                S = self.evaluate(f.body, {**V, f.var: S})
            r = S
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[key] = r
        return r

    # -- approximation chains and stability

    def _uniform_body(self, f, k: int):
        key = (f.body, k)
        got = self._uniform.get(key)
        if got is None:
            got = _adorn_all(f.body, k)
            self._uniform[key] = got
        return got

    def approx_chain(self, f, i: int, k: int, V: dict) -> list[int]:
        """[[f^(0,k)]], ..., [[f^(i,k)]] for a fixpoint formula f."""
        body = self._uniform_body(f, k)
        S = 0 if isinstance(f, Mu) else self.G.full_mask
        chain = [S]
        for _ in range(i):
            S = self.evaluate(body, {**V, f.var: S})
            chain.append(S)
        return chain

    def stable_set(self, f: Formula, V: dict, k: int) -> int:
        """Nodes at which f is k-stable (per-node certificate of convergence)."""
        if k < 1:
            raise SemanticsError("stability requires k >= 1")
        key = (f, k, self._fp(f, V))
        got = self._stable.get(key)
        if got is not None:
            return got
        full = self.G.full_mask
        if isinstance(f, (Prop, NegProp, Var)):
            r = full
        elif isinstance(f, (And, Or)):
            r = self.stable_set(f.lhs, V, k) & self.stable_set(f.rhs, V, k)
        elif isinstance(f, (AtLeast, AllBut)):
            r = self.stable_set(f.body, V, k)
        elif isinstance(f, (Mu, Nu)):
            chain = self.approx_chain(f, k, k, V)
            r = full & ~(chain[k] ^ chain[k - 1])
            for i in range(k):
                r &= self.stable_set(f.body, {**V, f.var: chain[i]}, k)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._stable[key] = r
        return r

    def jk_stable_set(self, alpha: Formula, j: int, k: int, V: dict) -> int:
        """Nodes at which fixpoint alpha is (j,k)-stable; j=0 is vacuous."""
        if not is_fixpoint(alpha):
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


def model_check_stable(phi: Formula, G: LabeledGraph) -> tuple[int, int]:
    """Smallest k with phi k-stable at every node, and the k-approximation there."""
    from .formula import free_vars, well_name

    phi = well_name(phi)
    if free_vars(phi):
        raise FormulaError("model_check_stable requires a sentence")
    ev = Evaluator(G)
    k = 1
    while True:
        if ev.stable_set(phi, {}, k) == G.full_mask:
            return ev.evaluate(uniform(phi, k), {}), k
        if k > G.n + 1:  # termination guaranteed at |N|+1; beyond it is a bug
            raise AssertionError("stability scan exceeded |N|+1")
        k += 1
