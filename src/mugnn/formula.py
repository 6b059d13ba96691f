"""Graded modal mu-calculus formulas.

AST in negation normal form, a parser for the ASCII concrete syntax, a
round-trip printer, deterministic renaming of bound variables, and the
subformula index, whose walk alone checks well-naming; `well_name` and
`sentence`, which every sentence engine calls, build it once per formula.
"""

from __future__ import annotations

import re

MAX_GRADE = 2**31 - 1
MAX_DEPTH = 128  # syntax-tree levels `parse` accepts


class FormulaError(ValueError):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST


class Formula:
    """An immutable syntax-tree node, equal to a node of the same clause with equal
    fields and hashed once, when built; a clause lists its fields in `__slots__`.
    `_index` is unset until `sentence` stores the node's index there."""

    __slots__ = ("_hash", "_index")

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((type(self).__name__, values)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and other._hash == self._hash
            and all(getattr(self, n) == getattr(other, n) for n in self.__slots__)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):  # rebuilt by the constructor: hashed by the reading process
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


class Prop(Formula):
    __slots__ = ("name",)


class NegProp(Formula):
    __slots__ = ("name",)


class Var(Formula):
    __slots__ = ("name",)


class And(Formula):
    __slots__ = ("lhs", "rhs")


class Or(Formula):
    __slots__ = ("lhs", "rhs")


class AtLeast(Formula):
    """Diamond with a grade: true at n when at least `grade` out-neighbors satisfy body."""
    __slots__ = ("grade", "body")


class AllBut(Formula):
    """Box with a grade: true at n when fewer than `grade` out-neighbors falsify body."""
    __slots__ = ("grade", "body")


class Mu(Formula):
    __slots__ = ("var", "body")


class Nu(Formula):
    __slots__ = ("var", "body")


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return (f.lhs, f.rhs)
    if isinstance(f, (AtLeast, AllBut, Mu, Nu)):
        return (f.body,)
    return ()


def ast_size(f: Formula) -> int:
    return 1 + sum(ast_size(c) for c in children(f))


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (Mu, Nu)):
        return free_vars(f.body) - {f.var}
    if isinstance(f, (And, Or)):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, (AtLeast, AllBut)):
        return free_vars(f.body)
    return frozenset()


# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<dia><\s*(?P<dgrade>\d+)\s*>|<>)
    | (?P<box>\[\s*(?P<bgrade>\d+)\s*\]|\[\])
    | (?P<name>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>[&|~().])
    """,
    re.VERBOSE,
)

_KEYWORDS = ("mu", "nu")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "dia" or kind == "box":
                raw = m.group("dgrade" if kind == "dia" else "bgrade")
                grade = 1 if raw is None else int(raw)
                if grade < 1:
                    raise ParseError("grade must be at least 1", pos)
                if grade > MAX_GRADE:
                    raise ParseError(f"grade exceeds {MAX_GRADE}", pos)
                tokens.append((kind, grade, pos))
            elif kind == "name":
                word = m.group("name")
                if word in _KEYWORDS:
                    tokens.append((word, word, pos))
                elif word[0].isupper():
                    tokens.append(("var", word, pos))
                else:
                    tokens.append(("prop", word, pos))
            else:
                tokens.append((m.group("punct"), m.group("punct"), pos))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent; `formula` and `unary` return a tree and its depth."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nest = 0  # parentheses, modalities and binders open

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def above(self, depth: int, pos: int) -> int:
        if depth >= MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    def formula(self) -> tuple[Formula, int]:
        """Operands joined by `|` and `&`, `&` binding tighter."""
        f = d = None
        while True:
            g, e = self.unary()
            while self.peek()[0] == "&":
                pos = self.take()[2]
                h, c = self.unary()
                g, e = And(g, h), self.above(max(e, c), pos)
            f, d = (g, e) if f is None else (Or(f, g), self.above(max(d, e), or_pos))
            if self.peek()[0] != "|":
                return f, d
            or_pos = self.take()[2]

    def unary(self) -> tuple[Formula, int]:
        kind, value, pos = self.take()
        if kind == "~":
            k2, v2, p2 = self.take()
            if k2 != "prop":
                raise ParseError("negation is only allowed on propositions", p2)
            return NegProp(v2), 1
        if kind == "prop":
            return Prop(value), 1
        if kind == "var":
            return Var(value), 1
        if kind not in ("dia", "box", "(", *_KEYWORDS):
            raise ParseError(f"unexpected token {kind!r}", pos)
        # checked before descending, so the parser's own recursion is bounded
        if self.nest >= 2 * MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        self.nest += 1
        if kind == "(":
            f, d = self.formula()
            self.expect(")")
            self.nest -= 1
            return f, d
        if kind == "dia" or kind == "box":
            body, d = self.unary()
            f = AtLeast(value, body) if kind == "dia" else AllBut(value, body)
        else:
            var = self.expect("var")[1]
            self.expect(".")
            body, d = self.formula()  # fixpoint scope extends maximally right
            f = Mu(var, body) if kind == "mu" else Nu(var, body)
        self.nest -= 1
        return f, self.above(d, pos)


def parse(text: str) -> Formula:
    """Parse the concrete syntax, into a tree at most MAX_DEPTH deep.  An
    atom is one level; each modality, binder and binary operator adds one
    above its deepest operand, parentheses none.  At most 2 * MAX_DEPTH
    parentheses, modalities and binders may be open at once, more than
    `to_text` ever prints for such a tree.  So no recursive pass over a
    parsed formula reaches Python's recursion limit."""
    p = _Parser(text)
    f, _ = p.formula()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input starting with {tok[0]!r}", tok[2])
    return f


# ---------------------------------------------------------------------------
# Printer

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3


def _pp(f: Formula, min_prec: int) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, NegProp):
        return "~" + f.name
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Or):
        s = f"{_pp(f.lhs, _PREC_OR)} | {_pp(f.rhs, _PREC_OR + 1)}"
        return f"({s})" if _PREC_OR < min_prec else s
    if isinstance(f, And):
        s = f"{_pp(f.lhs, _PREC_AND)} & {_pp(f.rhs, _PREC_AND + 1)}"
        return f"({s})" if _PREC_AND < min_prec else s
    if isinstance(f, AtLeast):
        op = "<>" if f.grade == 1 else f"<{f.grade}>"
        return op + _pp(f.body, _PREC_UNARY)
    if isinstance(f, AllBut):
        op = "[]" if f.grade == 1 else f"[{f.grade}]"
        return op + _pp(f.body, _PREC_UNARY)
    if isinstance(f, (Mu, Nu)):
        kw = "mu" if isinstance(f, Mu) else "nu"
        # binder scope runs maximally right, so any operand position needs parens
        s = f"{kw} {f.var}.{_pp(f.body, 0)}"
        return f"({s})" if min_prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


def to_text(f: Formula) -> str:
    return _pp(f, 0)


# ---------------------------------------------------------------------------
# Well-naming


def well_name(phi: Formula) -> Formula:
    """Rename bound variables so each is bound once and none is also free.

    Deterministic: a clashing binder gets the smallest fresh integer suffix,
    binders visited left to right.  A well-named formula is returned itself;
    either way the result keeps its index (`_kept_index`)."""
    return _kept_index(phi).root_formula


def _rename(phi: Formula) -> Formula:
    used = set(free_vars(phi))

    def fresh(name: str) -> str:
        i = 1
        while f"{name}{i}" in used:
            i += 1
        return f"{name}{i}"

    def go(f: Formula, env: dict[str, str]) -> Formula:
        if isinstance(f, Var):
            return Var(env.get(f.name, f.name))
        if isinstance(f, (Mu, Nu)):
            name = f.var
            new = fresh(name) if name in used else name
            used.add(new)
            body = go(f.body, {**env, name: new})
            return type(f)(new, body)
        if isinstance(f, (And, Or)):
            return type(f)(go(f.lhs, env), go(f.rhs, env))
        if isinstance(f, (AtLeast, AllBut)):
            return type(f)(f.grade, go(f.body, env))
        return f

    return go(phi, {})


# ---------------------------------------------------------------------------
# Subformula index


class SubformulaIndex:
    """All distinct subformulas of a well-named formula, compiled for the
    evaluator (`mugnn.semantics`), the counting step (`mugnn.counting`) and
    the compiler (`mugnn.gnn`).

    Order is post-order, left to right, duplicates dropped keeping the first
    occurrence; children therefore always precede their parents, and the root
    is last.  Fixpoint i is the i-th fixpoint in that order and binds variable
    i; a free variable of an open formula is numbered after the fixpoints.
    Variable sets are masks over those numbers.

    ops[p] is (clause, a, b, 1 << p, mask of p's direct subformulas): clause
    is the name of the formula's class, and a, b are the name (Prop, NegProp),
    the variable's number (Var), the operand positions (And, Or), the body
    position and grade (AtLeast, AllBut), or the body position and fixpoint
    index (Mu, Nu).  Fixpoint i has binders[i] = (mask of its direct
    subformulas, its strict fixpoint subformulas) and resets[i], the
    variables a tick of it resets: i itself, and every binder that mentions
    a resetting variable free.  free[p] is p's free variables and
    fp_below[p] the fixpoints at or below p; `open` is (1 << p, free[p]) for
    every position with some, `nu` the nu fixpoints and `props` the
    propositions.  `mugnn.semantics.Evaluator` reads the same table, with
    valuations indexed by variable number.
    """

    def __init__(self, phi: Formula):
        self.root_formula = phi
        order: list[Formula] = []
        pos: dict[Formula, int] = {}
        ops, sub, fps, props, nu, bound = [], [], [], set(), 0, []
        # Bottom-up masks: per position its free variables, as bits numbered
        # in order of first sight (renumbered below), and the fixpoints at or
        # below it; per fixpoint the fixpoints strictly below it.
        free, below, strict, first_seen = [], [], [], {}

        def visit(f: Formula) -> int:
            nonlocal nu
            kids = [visit(c) for c in children(f)]
            if isinstance(f, (Mu, Nu)):
                bound.append(f.var)  # every occurrence, before the dedup below
            p = pos.setdefault(f, len(order))
            if p < len(order):
                return p
            order.append(f)
            m = fv = fb = 0
            for c in kids:
                m |= 1 << c
                fv |= free[c]
                fb |= below[c]
            if isinstance(f, (Prop, NegProp)):
                a, b = f.name, 0
                props.add(f.name)
            elif isinstance(f, Var):
                a, b = f.name, 0  # numbered once the fixpoints are known
                fv = 1 << first_seen.setdefault(f.name, len(first_seen))
            elif isinstance(f, (And, Or)):
                a, b = kids
            elif isinstance(f, (AtLeast, AllBut)):
                a, b = kids[0], f.grade
            else:
                a, b = kids[0], len(fps)
                fv &= ~(1 << first_seen.setdefault(f.var, len(first_seen)))
                strict.append(fb)
                fb |= 1 << b
                if isinstance(f, Nu):
                    nu |= 1 << b
                fps.append(p)
            ops.append((type(f).__name__, a, b, 1 << p, m))
            sub.append(tuple(sorted(set(kids))))
            free.append(fv)
            below.append(fb)
            return p

        self.root = visit(phi)
        # well-named: each variable bound once, and none also free
        if len(set(bound)) < len(bound) or any(free[self.root] >> first_seen[x] & 1 for x in bound):
            raise FormulaError("index requires a well-named formula")
        self.formulas: tuple[Formula, ...] = tuple(order)
        self.pos = pos
        self.n = len(order)
        self.sub: tuple[tuple[int, ...], ...] = tuple(sub)
        self.fp_positions: tuple[int, ...] = tuple(fps)
        self.n_fp = len(fps)
        self.var_names: tuple[str, ...] = tuple(order[p].var for p in fps)
        self.body_pos: tuple[int, ...] = tuple(ops[p][1] for p in fps)
        self.is_sentence = not free[self.root]

        number = {x: i for i, x in enumerate(self.var_names)}
        bits = [1 << number.setdefault(x, len(number)) for x in first_seen]
        self.ops = tuple((op, number[a], *rest) if op == "Var" else (op, a, *rest)
                         for op, a, *rest in ops)
        self.binders = tuple(
            (ops[p][4], tuple(j for j in range(i) if s >> j & 1))
            for i, (p, s) in enumerate(zip(fps, strict))
        )
        self.free = tuple(sum(bit for s, bit in enumerate(bits) if m >> s & 1) for m in free)
        self.open = tuple((1 << p, m) for p, m in enumerate(self.free) if m)
        self.fp_below = tuple(below)
        # A binder that mentions variable i free is nested in binder i, so its
        # index is smaller: in ascending order its resets are already known.
        resets = []
        for i in range(self.n_fp):
            m = 1 << i
            for j in range(i):
                if self.free[fps[j]] >> i & 1:
                    m |= resets[j]
            resets.append(m)
        self.resets = tuple(resets)
        self.nu = nu
        self.props = frozenset(props)

    # construction is deterministic in the root formula, so two indexes for
    # the same formula are interchangeable
    def __eq__(self, other):
        return isinstance(other, SubformulaIndex) and self.root_formula == other.root_formula

    def __hash__(self):
        return hash(self.root_formula)


def index(phi: Formula) -> SubformulaIndex:
    return SubformulaIndex(phi)


def _kept_index(phi: Formula) -> SubformulaIndex:
    """The index of phi, well-named first if it has to be, built once: it is
    stored on phi and, when phi had to be renamed, on the well-named root it
    indexes, so a later call on either object returns it."""
    try:
        return phi._index
    except AttributeError:
        try:  # the index walk checks well-naming, so a well-named phi is walked once
            idx = index(phi)
        except FormulaError:
            idx = index(_rename(phi))
            object.__setattr__(idx.root_formula, "_index", idx)
        object.__setattr__(phi, "_index", idx)
        return idx


def sentence(phi: str | Formula | SubformulaIndex) -> SubformulaIndex:
    """The index of a sentence given as text, a formula or an index: text is
    parsed, a formula well-named and indexed, and an index kept as it is.

    A formula's index is kept with it (`_kept_index`), so only a caller that
    passes the same formula object again gains; one that holds the index can
    pass it instead.  Raises FormulaError on an open formula, on every call."""
    if isinstance(phi, SubformulaIndex):
        idx = phi
    else:
        idx = _kept_index(parse(phi) if isinstance(phi, str) else phi)
    if not idx.is_sentence:
        raise FormulaError("a sentence (no free variables) is required")
    return idx
