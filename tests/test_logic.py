"""Formula AST, parser, and printer tests.

The round-trip property (parse . format == identity on ASTs) is the main
correctness argument for both directions, with random formulas generated
over a small machine-flavoured signature.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gseqa import logic, satisfaction
from gseqa.errors import ArityMismatch, ParseError, Unsupported
from gseqa.logic import (
    And,
    Apply,
    Const,
    Equal,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    OrdinalLiteral,
    Signature,
    SymbolDecl,
    Truth,
    Var,
    cst,
    eq,
    ex,
    fa,
    format_formula,
    free_vars,
    is_binary,
    land,
    lit,
    lnot,
    lor,
    lt,
    map_formula,
    nodes,
    ordinal_literals,
    parse_formula,
    quantifier_rank,
    rel,
    static_facts,
    substitute,
    symbol_refs,
    v,
    with_copy,
)
from gseqa.satisfaction import Interned

SIGMA = Signature(
    [
        SymbolDecl("h", "Constant"),
        SymbolDecl("t", "Constant"),
        SymbolDecl("R", "Relation", 1),
        SymbolDecl("E", "Relation", 2),
        SymbolDecl("f", "Relation", 1),
    ]
)


def test_signature_distinguished_built_in():
    assert "in" in SIGMA and "In" in SIGMA and "Out" in SIGMA
    assert SIGMA.decl("in").distinguished == "Membership"
    assert SIGMA.decl("In").arity == 1
    assert {d.name for d in SIGMA.extras()} == {"h", "t", "R", "E", "f"}
    assert "in" not in {d.name for d in SIGMA.doubled_symbols()}


def test_signature_rejects_redeclaration_and_reserved():
    with pytest.raises(ValueError):
        Signature([SymbolDecl("In", "Constant")])
    with pytest.raises(ValueError):
        Signature([SymbolDecl("forall", "Constant")])
    # re-listing a distinguished symbol with the same shape is harmless
    Signature([SymbolDecl("In", "Relation", 1, "In")])


def test_parse_simple_atoms():
    assert parse_formula("x < y", SIGMA) == Apply("in", (Var("x"), Var("y")), None)
    assert parse_formula("in(x, y)", SIGMA) == parse_formula("x<y", SIGMA)
    assert parse_formula("h = 3", SIGMA) == Equal(Const("h"), OrdinalLiteral(3))
    assert parse_formula("In(x)", SIGMA) == Apply("In", (Var("x"),), None)
    assert parse_formula("true", SIGMA) == Truth(True)


# How `A op1 B op2 C` groups, written out by hand for every ordered pair of
# binary connectives, so that a wrong entry in the table the parser and the
# printer share shows here: loosest to tightest they are <->, ->, |, &, and
# only -> groups to the right.
GROUPING = {
    ("&", "&"): "left", ("&", "|"): "left", ("&", "->"): "left", ("&", "<->"): "left",
    ("|", "&"): "right", ("|", "|"): "left", ("|", "->"): "left", ("|", "<->"): "left",
    ("->", "&"): "right", ("->", "|"): "right", ("->", "->"): "right", ("->", "<->"): "left",
    ("<->", "&"): "right", ("<->", "|"): "right", ("<->", "->"): "right", ("<->", "<->"): "left",
}
CONNECTIVES = {"&": And, "|": Or, "->": Implies, "<->": Iff}


def test_parse_precedence_and_associativity():
    f = parse_formula("In(x) & Out(x) | R(x)", SIGMA)
    assert isinstance(f, Or) and isinstance(f.left, And)
    g = parse_formula("In(x) -> Out(x) -> R(x)", SIGMA)
    assert isinstance(g, Implies) and isinstance(g.right, Implies)
    h = parse_formula("~In(x) & R(x)", SIGMA)
    assert isinstance(h, And) and isinstance(h.left, Not)
    # a negation first and a quantifier last, whose body takes the rest
    a = Not(Apply("In", (Var("x"),)))
    b = Apply("R", (Var("x"),))
    c = Forall("y", Apply("E", (Var("x"), Var("y"))))
    for (op1, op2), side in GROUPING.items():
        one, two = CONNECTIVES[op1], CONNECTIVES[op2]
        tree = two(one(a, b), c) if side == "left" else one(a, two(b, c))
        assert parse_formula(f"~In(x) {op1} R(x) {op2} forall y. E(x, y)", SIGMA) == tree
        assert format_formula(tree) == f"~In(x) {op1} R(x) {op2} (forall y. (E(x, y)))"


def test_parse_quantifier_scope_extends_right():
    f = parse_formula("forall x. In(x) -> Out(x)", SIGMA)
    assert isinstance(f, Forall) and isinstance(f.body, Implies)
    g = parse_formula("(forall x. In(x)) -> Out(y)", SIGMA)
    assert isinstance(g, Implies)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("In(x", SIGMA)
    with pytest.raises(ParseError):
        parse_formula("In(x)) ", SIGMA)
    with pytest.raises(ParseError):
        parse_formula("forall In. In(In)", SIGMA)
    with pytest.raises(ParseError):
        parse_formula("R(x) %", SIGMA)
    with pytest.raises(ArityMismatch):
        parse_formula("E(x)", SIGMA)
    with pytest.raises(ParseError):
        parse_formula("", SIGMA)


@pytest.mark.parametrize(
    "text, message",
    [
        ("E(x) | In(x)", "E expects 2 arguments, got 1"),
        ("E(x, y, x)", "E expects 2 arguments, got 3"),
        ("g(x) = h", "g expects 2 arguments, got 1"),
        ("g(x, y, x) = h", "g expects 2 arguments, got 3"),
        ("f(x, y) = h", "f expects 1 arguments, got 2"),
    ],
)
def test_an_argument_count_mismatch_names_the_symbol_and_both_counts(text, message):
    sigma = Signature([*SIGMA.extras(), SymbolDecl("g", "Relation", 2)])
    with pytest.raises(ArityMismatch, match=rf"^{re.escape(message)}$"):
        parse_formula(text, sigma)


DEEP = {
    "3000 parentheses": "(" * 3000 + "In(x)" + ")" * 3000,
    "3000 negations": "~" * 3000 + "In(x)",
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_a_parse_error_with_its_position(text):
    with pytest.raises(ParseError, match=r"^formula is nested too deeply at position \d+ in"):
        parse_formula(text, SIGMA)


def test_parse_errors_quote_an_excerpt_of_a_long_text():
    with pytest.raises(ParseError) as short:
        parse_formula("In(x) &", SIGMA)
    assert str(short.value) == "expected a formula at position 7 in 'In(x) &'"
    text = "(" * 3000 + "In(x)" + ")" * 3000
    with pytest.raises(ParseError) as deep:
        parse_formula(text, SIGMA)
    message = str(deep.value)
    assert len(message) < 200
    where = int(re.search(r"at position (\d+) in \.\.\.'", message).group(1))
    assert message.endswith(f"{text[where - 30:where + 30]!r}...")
    # the tokenizer's own error quotes the same excerpt
    text = " & ".join(["In(x)"] * 12) + " $ " + " & ".join(["Out(x)"] * 12)
    where = text.index("$")
    with pytest.raises(ParseError) as stray:
        parse_formula(text, SIGMA)
    assert str(stray.value) == (
        f"unexpected character '$' at position {where} in "
        f"...{text[where - 30:where + 30]!r}..."
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("In(x)   In(x)", "trailing input at position 8"),
        ("In(x) &   ) ", "expected a term, got ')' at position 10"),
        ("x <  forall", "'forall' cannot appear in a term at position 5"),
        ("x = In", "relation 'In' used as a term at position 4"),
        ("forall   In. In(x)", "variable 'In' shadows a signature symbol at position 9"),
        ("exists  3. In(x)", "expected a variable name after quantifier at position 8"),
        ("In(x)  $", "unexpected character '$' at position 7 in 'In(x)  $'"),
    ],
)
def test_a_parse_error_points_at_the_offending_token(text, message):
    # past the whitespace before the token, and at a token already taken
    with pytest.raises(ParseError) as exc:
        parse_formula(text, SIGMA)
    assert str(exc.value).startswith(message)


def test_doubled_mode_requires_copies():
    f = parse_formula("In@1(x) <-> ~Out@0(x)", SIGMA, doubled=True)
    assert is_binary(f)
    with pytest.raises(ParseError):
        parse_formula("In(x)", SIGMA, doubled=True)
    # membership never takes a copy index
    g = parse_formula("forall x. (x < h@0)", SIGMA, doubled=True)
    assert is_binary(g)
    with pytest.raises(ParseError, match="^copy index must be 0 or 1 at position 2 in"):
        parse_formula("h@2 = 0", SIGMA, doubled=True)


def test_free_vars_and_rank():
    f = parse_formula("forall x. (In(x) <-> exists y. (E(x, y) & y < h))", SIGMA)
    assert free_vars(f) == frozenset()
    assert quantifier_rank(f) == 2
    g = parse_formula("E(x, y) & In(x)", SIGMA)
    assert free_vars(g) == {"x", "y"}
    assert quantifier_rank(g) == 0


def test_support_and_literals():
    f = parse_formula("h = 3 & exists z. (z < t | z = 7)", SIGMA)
    assert ordinal_literals(f) == {lit(3).value, lit(7).value}


def test_nodes_is_pre_order_and_map_formula_bottom_up():
    f = parse_formula("E(h, t) & ~(exists y. y < 3)", SIGMA)
    assert [type(n).__name__ for n in nodes(f)] == [
        "And", "Apply", "Const", "Const", "Not", "Exists", "Apply", "Var",
        "OrdinalLiteral",
    ]
    seen = []

    def record(n):
        seen.append(type(n).__name__)
        return n

    assert map_formula(f, record) == f
    assert seen == [
        "Const", "Const", "Apply", "Var", "OrdinalLiteral", "Apply", "Exists",
        "Not", "And",
    ]
    # nodes keeps its own stack, so depth is no limit
    deep = land(*[rel("R", lit(i)) for i in range(5000)])
    assert sum(isinstance(n, Apply) for n in nodes(deep)) == 5000


def test_substitute_basics():
    f = parse_formula("In(x) & exists y. E(x, y)", SIGMA)
    g = substitute(f, {"x": Const("h")})
    assert free_vars(g) == frozenset()
    assert format_formula(g) == "In(h) & (exists y. (E(h, y)))"
    # substituting under a binder of the same name leaves it alone
    h = substitute(parse_formula("exists x. In(x)", SIGMA), {"x": Const("h")})
    assert h == parse_formula("exists x. In(x)", SIGMA)


def test_substitute_capture_is_refused():
    f = parse_formula("exists y. E(x, y)", SIGMA)
    with pytest.raises(Unsupported):
        substitute(f, {"x": Var("y")})


def test_with_copy_stamps_bare_refs():
    f = parse_formula("In(x) & x < h", SIGMA)
    g = with_copy(f, 0)
    assert is_binary(g)
    assert ("In", 0) in set(symbol_refs(g))
    assert ("h", 0) in set(symbol_refs(g))
    # already-stamped references are kept
    mixed = Apply("In", (Var("x"),), 1)
    assert with_copy(mixed, 0).copy == 1


def test_format_examples():
    f = parse_formula("forall x. (In@1(x) <-> ~In@0(x))", SIGMA, doubled=True)
    assert format_formula(f) == "forall x. (In@1(x) <-> ~In@0(x))"
    assert format_formula(parse_formula("in(x,y)", SIGMA)) == "x < y"
    assert format_formula(land(rel("In", v("x")), lnot(rel("R", v("x"))))) == "In(x) & ~R(x)"


# random AST round-trip ------------------------------------------------------

VARS = ("x", "y", "z")

terms = st.one_of(
    st.sampled_from([Var(n) for n in VARS]),
    st.sampled_from([Const("h"), Const("t")]),
    st.integers(min_value=0, max_value=9).map(lit),
)

atoms = st.one_of(
    st.builds(Equal, terms, terms),
    st.builds(lambda a, b: Apply("in", (a, b), None), terms, terms),
    st.builds(lambda a: Apply("In", (a,), None), terms),
    st.builds(lambda a: Apply("R", (a,), None), terms),
    st.builds(lambda a, b: Apply("E", (a, b), None), terms, terms),
    st.sampled_from([Truth(True), Truth(False)]),
)

formulas = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Iff, inner, inner),
        st.builds(Exists, st.sampled_from(VARS), inner),
        st.builds(Forall, st.sampled_from(VARS), inner),
    ),
    max_leaves=12,
)


@given(formulas)
@settings(max_examples=300)
def test_print_parse_roundtrip(f):
    assert parse_formula(format_formula(f), SIGMA) == f


@given(formulas)
@settings(max_examples=150)
def test_doubled_print_parse_roundtrip(f):
    g = with_copy(f, 0)
    assert parse_formula(format_formula(g), SIGMA, doubled=True) == g


@given(formulas)
def test_rank_never_negative_and_subformula_monotone(f):
    assert quantifier_rank(f) >= 0
    assert quantifier_rank(Not(f)) == quantifier_rank(f)
    assert quantifier_rank(Exists("x", f)) == quantifier_rank(f) + 1


def reference_free_vars(f, bound=frozenset()):
    """Variables occurring outside the scope of a binder of the same name."""
    if isinstance(f, Var):
        return set() if f.name in bound else {f.name}
    if isinstance(f, (Exists, Forall)):
        return reference_free_vars(f.body, bound | {f.var})
    if isinstance(f, Apply):
        kids = f.args
    elif isinstance(f, Not):
        kids = (f.body,)
    elif isinstance(f, (Equal, And, Or, Implies, Iff)):
        kids = (f.left, f.right)
    else:
        kids = ()
    return set().union(*(reference_free_vars(k, bound) for k in kids))


def reference_rank(f):
    """Deepest nesting of quantifiers."""
    if isinstance(f, (Exists, Forall)):
        return 1 + reference_rank(f.body)
    if isinstance(f, Not):
        return reference_rank(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return max(reference_rank(f.left), reference_rank(f.right))
    return 0


def reference_facts(f):
    """What static_facts should give, from the reference walks."""
    literals = {n.value for n in nodes(f) if isinstance(n, OrdinalLiteral)}
    return reference_free_vars(f), reference_rank(f), literals


@given(formulas)
@settings(max_examples=300)
def test_static_facts_agree_with_references(f):
    literals = {n.value for n in nodes(f) if isinstance(n, OrdinalLiteral)}
    expected = (reference_free_vars(f), reference_rank(f), literals)
    assert static_facts(f) == expected
    # the second call reads the stored answers; so does the second call on
    # each quantifier body, asked after the root
    assert (free_vars(f), quantifier_rank(f), ordinal_literals(f)) == expected
    for node in nodes(f):
        if isinstance(node, (Exists, Forall)):
            body = node.body
            literals = {n.value for n in nodes(body) if isinstance(n, OrdinalLiteral)}
            want = (reference_free_vars(body), reference_rank(body), literals)
            assert static_facts(body) == want
            assert static_facts(body) == want
    # the root's fold stored facts on every formula node it reached
    for node in nodes(f):
        if not isinstance(node, (Var, Const, OrdinalLiteral)):
            assert static_facts(node) == reference_facts(node)


def test_static_facts_are_stored_on_the_formula():
    f = parse_formula("forall x. (In(x) <-> exists y. (E(x, y) & y < 3))", SIGMA)
    assert static_facts(f) is static_facts(f)
    body = f.body
    assert quantifier_rank(body) == 1
    assert static_facts(body) is static_facts(body)


def test_stored_facts_leave_equality_hash_and_repr_alone():
    text = "forall x. (In(x) <-> exists y. (E(x, y) & y < 3))"
    f = parse_formula(text, SIGMA)
    static_facts(f)
    static_facts(f.body)
    fresh = parse_formula(text, SIGMA)
    assert f == fresh and fresh == f
    assert hash(f) == hash(fresh)
    assert repr(f) == repr(fresh)
    assert {f: 1}[fresh] == 1


def test_a_rebuilt_formula_gets_facts_of_its_own():
    f = parse_formula("exists y. (E(x, y) & y < 3)", SIGMA)
    assert static_facts(f) == (frozenset({"x"}), 1, frozenset({lit(3).value}))
    stamped = with_copy(f, 0)
    assert stamped != f
    assert static_facts(stamped) == static_facts(f)
    assert static_facts(stamped) is not static_facts(f)
    renamed = map_formula(f, lambda n: Var("z") if n == Var("x") else n)
    assert static_facts(renamed) == (frozenset({"z"}), 1, frozenset({lit(3).value}))
    rebound = dataclasses.replace(f, var="x")
    assert static_facts(rebound) == (frozenset({"y"}), 1, frozenset({lit(3).value}))
    assert static_facts(f) == (frozenset({"x"}), 1, frozenset({lit(3).value}))


# interning --------------------------------------------------------------------


@given(st.lists(formulas, min_size=1, max_size=3))
@settings(max_examples=200)
def test_interned_facts_agree_with_static_facts(fs):
    table = Interned()
    shared = {}
    for f in fs:
        g = table.add(f)
        assert g == f
        for node in nodes(g):
            assert shared.setdefault(node, node) is node
            if not isinstance(node, (Var, Const, OrdinalLiteral)):
                assert static_facts(node) == reference_facts(node)


def test_interning_a_long_chain_makes_no_static_walk(monkeypatch):
    calls = [0]
    fold = logic.static_facts

    def counted(f):
        calls[0] += 1
        return fold(f)

    monkeypatch.setattr(logic, "static_facts", counted)
    monkeypatch.setattr(satisfaction, "static_facts", counted)
    chain = land(*(rel("In", v("x")) for _ in range(400)))
    table = Interned()
    interned = table.add(chain)
    assert table.add(chain) is interned
    # x, In(x) and the 399 conjunctions
    assert len(table) == 401
    # a new node's facts are folded from its children's stored ones: one
    # call for the node and one per child, so no node walks its subtree
    assert calls[0] <= 3 * len(table)
    assert fold(interned) == (frozenset({"x"}), 0, frozenset())
