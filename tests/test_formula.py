import copy
import pickle
import random
import re

import pytest

import mugnn.formula
from mugnn.formula import (
    MAX_DEPTH,
    AllBut,
    And,
    AtLeast,
    FormulaError,
    Mu,
    NegProp,
    Nu,
    Or,
    ParseError,
    Prop,
    Var,
    ast_size,
    children,
    free_vars,
    index,
    parse,
    sentence,
    to_text,
    well_name,
)
from mugnn.gen import random_formula

from oracles import is_well_named, tree_facts


def test_parse_reach():
    assert parse("mu X.(p | <>X)") == Mu("X", Or(Prop("p"), AtLeast(1, Var("X"))))


def test_parse_nested_two_fixpoints():
    got = parse("mu Y.((p | <>Y) | mu X.(q & <>(Y | <>X)))")
    want = Mu(
        "Y",
        Or(
            Or(Prop("p"), AtLeast(1, Var("Y"))),
            Mu("X", And(Prop("q"), AtLeast(1, Or(Var("Y"), AtLeast(1, Var("X")))))),
        ),
    )
    assert got == want


def test_parse_negation_on_compound_rejected():
    with pytest.raises(ParseError):
        parse("~(p & q)")


def test_parse_precedence_and_tighter_than_or():
    assert parse("p & q | r") == Or(And(Prop("p"), Prop("q")), Prop("r"))
    assert parse("p | q & r") == Or(Prop("p"), And(Prop("q"), Prop("r")))


def test_parse_fixpoint_scope_maximal_right():
    assert parse("mu X.p | <>X") == parse("mu X.(p | <>X)")


def test_parse_grades():
    assert parse("<3>p") == AtLeast(3, Prop("p"))
    assert parse("[2]p") == AllBut(2, Prop("p"))
    assert parse("<>p") == AtLeast(1, Prop("p"))
    assert parse("[]p") == AllBut(1, Prop("p"))


def test_parse_grade_zero_rejected():
    with pytest.raises(ParseError):
        parse("<0>p")


def test_parse_huge_grade_rejected():
    with pytest.raises(ParseError):
        parse(f"<{2**31}>p")


def test_parse_errors_have_position():
    with pytest.raises(ParseError) as ei:
        parse("p |")
    assert ei.value.position == 3


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse("p q")


def test_well_name_noop_when_clean():
    phi = parse("mu X.(p | <>X)")
    assert well_name(phi) == phi


def test_well_name_duplicate_binders():
    got = well_name(parse("(mu X.<>X) | (mu X.p)"))
    assert got == parse("(mu X.<>X) | (mu X1.p)")


def test_well_name_nested_duplicate():
    got = well_name(parse("mu X.(X | mu X.p)"))
    assert got == parse("mu X.(X | mu X1.p)")


def test_well_name_free_bound_clash():
    # free X elsewhere forces the binder to rename
    phi = Or(Var("X"), Mu("X", Prop("p")))
    got = well_name(phi)
    assert got == Or(Var("X"), Mu("X1", Prop("p")))


def test_well_name_idempotent_random():
    rng = random.Random(1)
    seen = set()
    for _ in range(200):
        phi = random_formula(rng, max_size=15)
        named = well_name(phi)
        assert named is phi  # already well named, so no node is rebuilt
        assert is_well_named(named)
        assert well_name(named) == named
        # binders merged at random, so some clash: the index checks the same rule
        clashing = parse(re.sub(r"X\d", lambda m: rng.choice(("X0", "X1")), to_text(phi)))
        clashing = Or(clashing, Var("X1")) if rng.random() < 0.3 else clashing
        try:
            index(clashing)
            indexed = True
        except FormulaError:
            indexed = False
        assert indexed == is_well_named(clashing)
        seen.add(indexed)
    assert seen == {True, False}


def test_print_parse_roundtrip_random():
    rng = random.Random(2)
    for _ in range(1000):
        phi = random_formula(rng, max_size=20)
        assert parse(to_text(phi)) == phi


def test_index_tsub_dedup():
    # ~p | (X & <1>q): distinct subformulas counted once
    phi = Or(NegProp("p"), And(Var("X"), AtLeast(1, Prop("q"))))
    idx = index(phi)
    texts = {to_text(f) for f in idx.formulas}
    assert texts == {"~p", "X", "q", "<>q", "X & <>q", "~p | X & <>q"}


def test_index_atom_has_no_subs():
    idx = index(parse("p"))
    assert idx.sub[idx.root] == ()


def test_index_single_binder(phi_reach):
    idx = index(phi_reach)
    assert idx.fp_positions == (idx.root,)
    assert idx.var_names == ("X",)
    assert idx.resets == (1,)  # a tick of X resets X alone
    assert idx.is_sentence


def test_step_resets_close_over_binders_that_mention_a_reset():
    # fixpoint indices are in post-order, inner binders first
    chain = index(parse("mu X1.(p | <>mu X2.(X1 | <>mu X3.(X2 | <>X3)))"))
    assert chain.var_names == ("X3", "X2", "X1")
    assert chain.resets == (0b001, 0b011, 0b111)  # X3 resets with X1 through X2
    graded = index(parse("nu X.([2]X & mu Y.(q | <>Y))"))
    assert graded.resets == (0b01, 0b10)  # Y's binder does not mention X


def test_index_requires_well_named():
    for text in ("(mu X.<>X) | (mu X.p)",
                 "(mu X.X) & (mu X.X)",  # one binder twice: the index keeps it once
                 "mu X.(X | mu X.p)",
                 "X | mu X.p"):  # bound and free
        with pytest.raises(FormulaError, match="well-named"):
            index(parse(text))


def test_sentence_renames_a_twice_bound_subtree():
    idx = sentence("(mu X.X) & (mu X.X)")
    assert idx.root_formula == parse("(mu X.X) & (mu X1.X1)")
    assert idx.var_names == ("X", "X1")


def test_index_postorder_children_first():
    rng = random.Random(3)
    for _ in range(100):
        idx = index(random_formula(rng, max_size=20))
        for p in range(idx.n):
            assert all(c < p for c in idx.sub[p])
        assert idx.root == idx.n - 1
        assert idx.n <= ast_size(idx.formulas[idx.root])


def test_index_binder_bijection():
    rng = random.Random(4)
    for _ in range(100):
        idx = index(random_formula(rng, max_size=20))
        assert len(set(idx.var_names)) == idx.n_fp
        for fi, p in enumerate(idx.fp_positions):
            assert idx.formulas[p].var == idx.var_names[fi]


def _subtrees(f):
    yield f
    for c in children(f):
        yield from _subtrees(c)


def _unbind(f, var):
    """f with the binder of `var` dropped, so that `var` occurs free."""
    if isinstance(f, (Mu, Nu)) and f.var == var:
        return _unbind(f.body, var)
    if isinstance(f, (And, Or)):
        return type(f)(_unbind(f.lhs, var), _unbind(f.rhs, var))
    if isinstance(f, (AtLeast, AllBut)):
        return type(f)(f.grade, _unbind(f.body, var))
    if isinstance(f, (Mu, Nu)):
        return type(f)(f.var, _unbind(f.body, var))
    return f


def test_one_pass_index_matches_the_trees():
    # the masks of the index, against the same facts read off each subtree;
    # a free variable is numbered after the fixpoints
    rng = random.Random(5)
    for trial in range(300):
        phi = random_formula(rng, max_size=20)
        used = sorted({f.name for f in _subtrees(phi) if isinstance(f, Var)})
        if trial % 2 and used:
            phi = _unbind(phi, rng.choice(used))
        idx = index(phi)
        t = tree_facts(idx)
        forms, fps = idx.formulas, [p for p, fp in enumerate(t.is_fp) if fp]
        assert len(free_vars(phi)) <= 1
        number = {**t.var_index, **dict.fromkeys(free_vars(phi), len(fps))}

        assert idx.is_sentence == (not free_vars(phi))
        assert idx.free == tuple(sum(1 << number[x] for x in free) for free in t.free)
        assert idx.open == tuple((1 << p, sum(1 << number[x] for x in free))
                                 for p, free in enumerate(t.free) if free)
        assert idx.fp_below == tuple(
            sum(1 << i for i in t.tfp[p]) | (1 << t.fp_index[p] if t.is_fp[p] else 0)
            for p in range(idx.n))
        assert idx.binders == tuple(
            (1 << forms.index(forms[p].body), tuple(sorted(t.tfp[p]))) for p in fps)
        assert idx.nu == sum(1 << i for i, p in enumerate(fps) if not t.is_mu[p])
        assert idx.props == {f.name for f in forms if isinstance(f, (Prop, NegProp))}


def test_sentence_takes_text_a_formula_or_an_index():
    text = "(mu X.<>X) | (mu X.p)"  # well-named on the way in
    idx = sentence(text)
    assert idx.root_formula == well_name(parse(text))
    assert sentence(parse(text)) == idx
    assert sentence(idx) is idx
    for open_formula in ("p | X", parse("p | X"), index(parse("p | X"))):
        with pytest.raises(FormulaError, match="no free variables"):
            sentence(open_formula)


def test_sentence_indexes_a_formula_once():
    text = "(mu X.(p | <>X)) & nu X.(q | [1]X)"  # renamed on the way in
    phi = parse(text)
    idx = sentence(phi)
    assert sentence(phi) is idx
    assert sentence(idx.root_formula) is idx
    assert idx.root_formula is not phi
    well = parse("mu X.(p | <>X)")
    assert sentence(well).root_formula is well  # indexed as it is
    named = sentence(text)
    assert sentence(named.root_formula) is named and named == idx


def test_sentence_rejects_an_open_formula_on_every_call():
    phi = parse("mu X.(p | <>Y)")
    for _ in range(2):
        with pytest.raises(FormulaError, match="no free variables"):
            sentence(phi)


def test_a_kept_index_changes_no_equality_hash_or_repr():
    rng = random.Random(12)
    for _ in range(50):
        f = random_formula(rng)
        sentence(f)
        fresh = parse(to_text(f))
        assert f == fresh and fresh == f
        assert hash(f) == hash(fresh) and repr(f) == repr(fresh)
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g == f
            with pytest.raises(AttributeError):
                g._index  # rebuilt by the constructor, so indexed again when asked


def test_free_vars():
    assert free_vars(parse("mu X.(X | Y)")) == {"Y"}
    assert free_vars(parse("mu X.(p | <>X)")) == set()


def test_nodes_of_different_clauses_are_unequal():
    a, b = Prop("p"), Var("X")
    for f, g in [(Prop("p"), NegProp("p")), (Prop("p"), Var("p")), (NegProp("p"), Var("p")),
                 (And(a, b), Or(a, b)), (AtLeast(2, a), AllBut(2, a)), (Mu("X", a), Nu("X", a))]:
        assert f != g and g != f


def test_nodes_built_apart_are_equal_with_equal_hashes():
    rng = random.Random(11)
    for _ in range(100):
        f = random_formula(rng)
        for g in (parse(to_text(f)), pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g is not f and g == f and hash(g) == hash(f)


def test_nodes_are_immutable():
    f = And(Prop("p"), AtLeast(2, Var("X")))
    with pytest.raises(AttributeError):
        f.lhs = Prop("q")
    with pytest.raises(AttributeError):
        del f.rhs
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(TypeError):
        And(Prop("p"))
    assert f == And(Prop("p"), AtLeast(2, Var("X")))


def test_node_repr():
    assert repr(parse("(mu X.(p | <2>X)) & [3]~q")) == (
        "And(lhs=Mu(var='X', body=Or(lhs=Prop(name='p'), rhs=AtLeast(grade=2, body=Var(name='X')))), "
        "rhs=AllBut(grade=3, body=NegProp(name='q')))"
    )


def test_deep_chain_hashes_without_recursion():
    # built with constructors, far deeper than `parse` accepts
    f = g = Prop("p")
    for i in range(5000):
        f, g = And(f, Prop(f"q{i % 3}")), And(g, Prop(f"q{i % 3}"))
    assert {f: 1}[f] == 1 and hash(f) == hash(g)


TOO_DEEP = {
    "parentheses": "(" * 400 + "p" + ")" * 400,
    "modalities": "<>" * 1000 + "p",
    "binders": "".join(f"mu X{i}.(p | <>X{i} | " for i in range(150)) + "q" + ")" * 150,
    "flat-or": " | ".join(["p"] * 2000),
}


@pytest.mark.parametrize("name", sorted(TOO_DEEP))
def test_parse_too_deep_rejected(name):
    with pytest.raises(ParseError, match="nested deeper than"):
        parse(TOO_DEEP[name])


@pytest.mark.parametrize(
    "text, depth",
    [
        ("((<>p))", 2),
        ("<>[2]~p", 3),
        ("p | q | r", 3),
        ("p | q & r", 3),
        ("(p | q) & r", 3),
        ("mu X.(p | <>X)", 4),
        ("nu X.mu Y.(X & <>Y)", 5),
    ],
)
def test_parse_depth_counts_levels(monkeypatch, text, depth):
    monkeypatch.setattr(mugnn.formula, "MAX_DEPTH", depth)
    parse(text)
    monkeypatch.setattr(mugnn.formula, "MAX_DEPTH", depth - 1)
    with pytest.raises(ParseError):
        parse(text)


def test_parse_parentheses_budget():
    parse("(" * 2 * MAX_DEPTH + "p" + ")" * 2 * MAX_DEPTH)
    with pytest.raises(ParseError):
        parse("(" * (2 * MAX_DEPTH + 1) + "p" + ")" * (2 * MAX_DEPTH + 1))


def test_print_parse_roundtrip_at_depth_limit():
    # the printer adds parentheses, never levels, so a formula at the limit
    # still parses back from its text
    binders = (MAX_DEPTH - 4) // 2
    for text in (
        "<>" + "".join(f"mu X{i}.(p | <>X{i} | " for i in range(binders)) + "q" + ")" * binders,
        "".join(f"nu X{i}.<>" for i in range(MAX_DEPTH // 2 - 1)) + "(p | q)",
    ):
        phi = parse(text)
        assert parse(to_text(phi)) == phi
        with pytest.raises(ParseError):
            parse("<>" + text)
