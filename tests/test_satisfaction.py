"""Evaluator tests: vectorized engine against the plain oracle, Omega
semantics on hand-checked formulas, and the defined-set machinery."""

from __future__ import annotations

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_tools import (
    CORPUS_SIGMA,
    brute_sat,
    random_formula,
    random_state,
    stamp_random_copies,
)
from gseqa import OMEGA, OrdinalSet, satisfaction
from gseqa.errors import MissingSymbol, NotClosed, Unrepresentable, Unsupported
from gseqa.logic import (
    MEMBERSHIP,
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
    free_vars,
    parse_formula,
    with_copy,
)
from gseqa.satisfaction import (
    EvalContext,
    EvalDomain,
    Interned,
    defined_relation,
    defined_set,
    sat,
    sat2,
    threshold_bound,
)
from gseqa.states import State, parse_state


def P(text: str, doubled: bool = False):
    return parse_formula(text, CORPUS_SIGMA, doubled=doubled)


def base_state() -> State:
    return State.make(
        OMEGA,
        {
            "h": 3,
            "t": 1,
            "In": OrdinalSet.finite({1, 3}),
            "Out": OrdinalSet.cofinite({2}),
            "R": OrdinalSet.finite(),
            "E": {(0, 1), (1, 2)},
        },
    )


# -- the vectorized surrogate engine against the plain recursive oracle -----


def test_surrogate_agrees_with_brute_oracle_on_random_corpus():
    rng = random.Random(20260815)
    views = None
    for trial in range(400):
        state = random_state(rng)
        f = random_formula(rng, rank=3, guarded=False)
        views = {None: state, 0: state}
        for n in (1, 2, 3, 7, 12):
            got = sat(f, state, EvalDomain.surrogate(n))
            want = brute_sat(f, views, n)
            assert got == want, (trial, n, f)


def test_surrogate_two_state_agrees_with_oracle():
    rng = random.Random(77)
    for trial in range(200):
        s1, s2 = random_state(rng), random_state(rng)
        f = stamp_random_copies(random_formula(rng, rank=2, guarded=False), rng)
        views = {0: s1, 1: s2}
        got = sat2(f, (s1, s2), EvalDomain.surrogate(9))
        assert got == brute_sat(f, views, 9), (trial, f)


# -- Omega mode on formulas with hand-computed truth ------------------------


def test_omega_every_element_has_a_successor():
    f = P("forall x. exists y. x < y")
    s = base_state()
    assert sat(f, s, EvalDomain.omega()) is True
    assert sat(f, s, EvalDomain.surrogate(5)) is False


def test_omega_no_maximum_exists():
    f = P("exists y. forall x. (x < y | x = y)")
    s = base_state()
    assert sat(f, s, EvalDomain.omega()) is False
    assert sat(f, s, EvalDomain.surrogate(5)) is True


def test_omega_cofinite_relation_truths():
    s = base_state()
    assert sat(P("forall x. (Out(x) | x = 2)"), s, EvalDomain.omega())
    assert not sat(P("forall x. Out(x)"), s, EvalDomain.omega())
    assert sat(P("exists x. (h < x & Out(x))"), s, EvalDomain.omega())
    assert sat(P("forall x. (In(x) -> x < 4)"), s, EvalDomain.omega())


def test_omega_least_element_reasoning():
    s = base_state()
    least_in = P("exists x. (In(x) & forall y. (y < x -> ~In(y)))")
    assert sat(least_in, s, EvalDomain.omega())
    # the least element of a cofinite set exists too
    least_out = P("exists x. (Out(x) & forall y. (y < x -> ~Out(y)))")
    assert sat(least_out, s, EvalDomain.omega())


@pytest.mark.parametrize("items", ["In={1}", "In={1} h={2}"])
def test_a_symbol_the_state_lacks_is_named(items):
    # the constant h is missing, or held as a unary relation
    sigma = Signature([SymbolDecl("h", "Constant")])
    state = parse_state(f"state kappa=w\nunary: {items}")
    with pytest.raises(MissingSymbol, match="'h'") as exc:
        sat(parse_formula("h = 1", sigma), state, EvalDomain.omega())
    assert exc.value.symbol == "h"


def test_omega_finite_kappa_state_is_rejected():
    s = State.make(OrdinalSet.finite().support_bound() and OMEGA)  # placeholder
    fin = State.make(
        __import__("gseqa").OrdinalNotation.from_int(6),
        {"In": OrdinalSet.finite(), "Out": OrdinalSet.finite()},
    )
    with pytest.raises(Unsupported):
        sat(P("forall x. exists y. x < y"), fin, EvalDomain.omega())


def test_long_right_nested_chains_evaluate():
    # implication chains parse right-nested; the evaluator must not take
    # more than one Python frame per level to reach the right operand
    f = P(" -> ".join(["In(1)"] * 600))
    assert sat(f, base_state(), EvalDomain.omega())
    assert defined_set(P(" -> ".join(["In(x)"] * 600)), base_state(), EvalDomain.omega()) == (
        OrdinalSet.cofinite()
    )


def test_too_deep_a_chain_is_unsupported_not_a_recursion_error():
    # the parser takes a flat chain of any length; the recursive walks
    # behind evaluation do not, and must say so with a GseqaError
    with pytest.raises(Unsupported, match="nested too deeply to evaluate"):
        sat(P(" & ".join(["In(1)"] * 1200)), base_state(), EvalDomain.omega())
    with pytest.raises(Unsupported, match="nested too deeply to evaluate"):
        defined_set(P(" & ".join(["In(x)"] * 1200)), base_state(), EvalDomain.omega())


def test_closedness_is_enforced():
    with pytest.raises(NotClosed):
        sat(P("In(x)"), base_state(), EvalDomain.omega())


def test_copy_discipline():
    s = base_state()
    with pytest.raises(Unsupported):
        sat(P("exists x. In@1(x)", doubled=True), s, EvalDomain.omega())
    with pytest.raises(Unsupported):
        sat2(P("exists x. In(x)"), (s, s), EvalDomain.omega())


def test_sat2_bit_flip_sentence():
    s = base_state()
    flipped = s.with_updates({"In": OrdinalSet.cofinite({1, 3})})
    sentence = P("forall x. (In@1(x) <-> ~In@0(x))", doubled=True)
    assert sat2(sentence, (s, flipped), EvalDomain.omega())
    assert not sat2(sentence, (s, s), EvalDomain.omega())


# -- guarded-fragment differential: Omega equals every surrogate past B -----


def test_omega_matches_surrogate_window_on_guarded_corpus():
    rng = random.Random(4127)
    for trial in range(250):
        state = random_state(rng)
        f = random_formula(rng, rank=3, guarded=True)
        b = threshold_bound(f, state)
        omega_verdict = sat(f, state, EvalDomain.omega())
        for n in range(b, b + 9):
            assert sat(f, state, EvalDomain.surrogate(n)) == omega_verdict, (
                trial,
                n,
                f,
            )


def test_tail_decomposable_biconditional_shapes_match_window():
    # stall-style sentences: unguarded quantifier over a tail-constant body
    s = base_state()
    shapes = [
        "forall x. (In(x) <-> In(x))",
        "forall x. (R(x) <-> In(x) & x < h)",
        "forall x. (Out(x) <-> ~(x = 2))",
        "exists x. (Out(x) & ~In(x))",
        "forall x. (x < h -> (In(x) | Out(x)))",
    ]
    for text in shapes:
        f = P(text)
        b = threshold_bound(f, s)
        omega_verdict = sat(f, s, EvalDomain.omega())
        for n in range(b, b + 9):
            assert sat(f, s, EvalDomain.surrogate(n)) == omega_verdict, text


# -- defined sets and relations ---------------------------------------------


def test_defined_set_finite_and_cofinite():
    s = base_state()
    assert defined_set(P("In(x)"), s, EvalDomain.omega()) == OrdinalSet.finite({1, 3})
    assert defined_set(P("~In(x)"), s, EvalDomain.omega()) == OrdinalSet.cofinite({1, 3})
    assert defined_set(P("x < h"), s, EvalDomain.omega()) == OrdinalSet.finite({0, 1, 2})
    assert defined_set(P("h < x"), s, EvalDomain.omega()) == OrdinalSet.cofinite(
        {0, 1, 2, 3}
    )
    assert defined_set(P("x = h"), s, EvalDomain.omega()) == OrdinalSet.finite({3})


def test_defined_set_with_quantified_body():
    s = base_state()
    # strict upper bounds of In: everything above its maximum element 3
    ub = P("forall y. (In(y) -> y < x)")
    assert defined_set(ub, s, EvalDomain.omega()) == OrdinalSet.cofinite({0, 1, 2, 3})
    # elements with an E-successor
    has_succ = P("exists y. E(x, y)")
    assert defined_set(has_succ, s, EvalDomain.omega()) == OrdinalSet.finite({0, 1})


def test_defined_set_ignoring_its_variable():
    s = base_state()
    taut = P("x = x")
    assert defined_set(taut, s, EvalDomain.omega()) == OrdinalSet.cofinite()
    assert defined_set(taut, s, EvalDomain.surrogate(4)) == OrdinalSet.finite(
        {0, 1, 2, 3}
    )


def test_defined_set_surrogate_truncates():
    s = base_state()
    assert defined_set(P("~In(x)"), s, EvalDomain.surrogate(5)) == OrdinalSet.finite(
        {0, 2, 4}
    )


def test_defined_set_needs_one_variable():
    s = base_state()
    with pytest.raises(NotClosed):
        defined_set(P("E(x, y)"), s, EvalDomain.omega())
    with pytest.raises(NotClosed):
        defined_set(P("exists x. In(x)"), s, EvalDomain.omega())


def test_defined_set_agrees_with_pointwise_oracle_on_random_corpus():
    rng = random.Random(99)
    for _ in range(150):
        state = random_state(rng)
        f = random_formula(rng, rank=2, guarded=True, scope=["x"], depth=3)
        got = defined_set(f, state, EvalDomain.surrogate(10), var="x")
        want = {a for a in range(10) if brute_sat(f, {None: state, 0: state}, 10, {"x": a})}
        assert set(got.members_below(10)) == want, f


def test_defined_relation_agrees_with_pointwise_oracle_on_random_corpus():
    rng = random.Random(4242)
    ignoring = 0
    for _ in range(150):
        state = random_state(rng)
        views = {None: state, 0: state}
        f = random_formula(rng, rank=2, guarded=False, scope=["x", "y"], depth=3)
        variables = rng.choice([("x", "y"), ("y", "x")])
        ignoring += free_vars(f) != {"x", "y"}
        got = defined_relation(f, state, EvalDomain.surrogate(8), variables)
        want = {
            (a, b)
            for a in range(8)
            for b in range(8)
            if brute_sat(f, views, 8, dict(zip(variables, (a, b))))
        }
        assert got == want, (variables, f)
    assert ignoring > 0


def test_defined_relation_finite():
    s = base_state()
    f = P("E(x, y) & In(x)")
    assert defined_relation(f, s, EvalDomain.omega(), ("x", "y")) == frozenset(
        {(1, 2)}
    )
    swapped = defined_relation(f, s, EvalDomain.omega(), ("y", "x"))
    assert swapped == frozenset({(2, 1)})


def test_defined_relation_infinite_is_refused():
    s = base_state()
    with pytest.raises(Unrepresentable):
        defined_relation(P("x < y"), s, EvalDomain.omega(), ("x", "y"))
    with pytest.raises(Unrepresentable):
        defined_relation(P("In(x)"), s, EvalDomain.omega(), ("x", "y"))


def test_defined_relation_surrogate_expands_ignored_vars():
    s = base_state()
    got = defined_relation(P("In(x)"), s, EvalDomain.surrogate(4), ("x", "y"))
    assert got == frozenset({(1, yy) for yy in range(4)} | {(3, yy) for yy in range(4)})


def test_defined_relation_refuses_a_repeated_variable():
    with pytest.raises(Unsupported, match="rebinding of 'x'"):
        defined_relation(P("x < 2"), base_state(), EvalDomain.omega(), ("x", "x"))


def test_a_wide_atom_whose_codes_pass_int64_is_unsupported():
    # At w the radix passes 2^21, so the codes of a ternary atom's
    # tuples, radix^3 among them, do not fit in an int64
    sigma = Signature([SymbolDecl("T", "Relation", 3)])
    state = State.make(OMEGA, {"T": {(0, 2097152, 2097152)}})
    omega = EvalDomain.omega()
    assert sat(parse_formula("T(0, 2097152, 2097152)", sigma), state, omega) is True
    with pytest.raises(Unsupported, match=r"'T'.*radix 2097160"):
        sat(parse_formula("exists x. T(x, 2097152, 2097152)", sigma), state, omega)


# Each sentence asks, at w, for a bitset over two axes of about 2^21
# candidates each, 2^42 cells: the comparison and the atom straight away,
# the connective when it widens two one-axis values to both axes and the
# function term when it lists its values at every cell.
WIDE = [
    ("exists x. exists y. E(x, y)", "the atom 'E'"),
    ("exists x. exists y. x < y & y < 5", "the comparison '<'"),
    ("exists x. exists y. (x < 5 & y < 5)", "a connective"),
    ("exists x. exists y. f(x, y) = 0", "a function term"),
]


@pytest.mark.parametrize("text, node", WIDE)
def test_a_table_past_the_cell_cap_is_unsupported_at_once(text, node):
    sigma = Signature([SymbolDecl("E", "Relation", 2), SymbolDecl("f", "Function", 2)])
    state = State.make(OMEGA, {"E": {(2097152, 2097152)}, "f": {(2097152, 2097152, 0)}})
    omega, table = EvalDomain.omega(), Interned()
    formula = parse_formula(text, sigma)
    entries = [
        lambda: sat(formula, state, omega),
        lambda: EvalContext.single(state, omega, table).sentence(table.add(formula)),
    ]
    for entry in entries:
        start = time.perf_counter()
        with pytest.raises(Unsupported, match=rf"^{node} over x, y needs a table of \d+ cells"):
            entry()
        assert time.perf_counter() - start < 1


def test_contexts_on_one_table_share_read_only_set_up_arrays():
    # a set-up's candidates and quantifier values are a tuple and a range,
    # which nothing can write to, and its patterns are built once for both
    table = Interned()
    g = table.add(P("In(x) & (exists y. x < y)"))
    s, omega = base_state(), EvalDomain.omega()
    first, second = (EvalContext.single(s, omega, table) for _ in range(2))
    first.defined_set(g, "x")
    built = dict(table.setup(omega, 3, 1, 3).patterns)
    second.defined_set(g, "x")
    (ev1, candidates1), (ev2, candidates2) = (ctx._setups[(3, 1, 3)] for ctx in (first, second))
    assert candidates1 is candidates2 and ev1.quant_values is ev2.quant_values
    assert ev1.patterns is ev2.patterns and built and ev2.patterns == built
    for values in (candidates1, ev1.quant_values):
        with pytest.raises(TypeError, match="does not support item assignment"):
            values[0] = 1


def _deep_bytes(obj, seen: set) -> int:
    """The bytes of obj and of every int, container and axis it holds,
    each object counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list)):
        size += sum(_deep_bytes(item, seen) for item in obj)
    elif isinstance(obj, dict):
        size += sum(_deep_bytes(k, seen) + _deep_bytes(v, seen) for k, v in obj.items())
    elif hasattr(obj, "__slots__"):
        size += sum(_deep_bytes(getattr(obj, name), seen) for name in obj.__slots__)
    return size


def _held_bytes(table: Interned) -> int:
    """The bytes that the table's set-ups hold: candidates, quantifier
    ranges and every pattern kept with them."""
    seen: set = set()
    return sum(_deep_bytes(setup, seen) for setup in table._setups.values())


def test_a_table_holds_a_fixed_multiple_of_its_largest_set_up():
    # Stepping ever new anchors keeps at most _KEPT times the longest
    # quantifier range in candidates, and one set-up past the budget. A
    # table that kept every anchor would hold about 200 times its largest
    # set-up after 800 anchors.
    table = Interned()
    g = table.add(P("In(x)"))
    omega = EvalDomain.omega()
    for top in (400, 800):
        for k in range(1, top + 1):
            state = State.make(OMEGA, {"In": OrdinalSet.finite({k})})
            EvalContext.single(state, omega, table).defined_set(g, "x")
        largest = _deep_bytes(table.setup(omega, top, 0, 3), set())
        assert _held_bytes(table) <= 2 * (satisfaction._KEPT + 3) * largest


def test_threshold_bound_shape():
    s = base_state()
    f0 = P("In(h)")
    f2 = P("forall x. exists y. E(x, y)")
    assert threshold_bound(f0, s) == s.support_bound() - 1 + 2**1 + 1
    assert threshold_bound(f2, s) > threshold_bound(f0, s)
    lit = P("x = 40")
    assert threshold_bound(lit, s) >= 40


FUNCTION_SIGMA = Signature([SymbolDecl("f", "Function", 1)])


@pytest.mark.parametrize(
    "stored, sigma, sentence, message",
    [
        ("E={(1),(2,3)}", CORPUS_SIGMA, "exists x. exists y. E(x, y)", r"'E' holds \(1,\)"),
        ("E={(1,2,3)}", CORPUS_SIGMA, "exists x. exists y. E(x, y)", r"'E' holds \(1, 2, 3\)"),
        ("f={(0,1),(1,)}", FUNCTION_SIGMA, "f(0) = 1", r"'f' holds \(1,\)"),
    ],
)
def test_tuples_of_the_wrong_width_are_unrepresentable(stored, sigma, sentence, message):
    state = parse_state(f"state kappa=w\nnary: {stored}")
    with pytest.raises(Unrepresentable, match=message + ", which is not a"):
        sat(parse_formula(sentence, sigma), state, EvalDomain.omega())


# -- closed sentences, which evaluate to plain ints and bools --------------

closed_terms = st.one_of(
    st.sampled_from([Const("h"), Const("t")]),
    st.integers(min_value=0, max_value=13).map(lambda n: OrdinalLiteral(n)),
)

closed_atoms = st.one_of(
    st.builds(lambda a: Apply("R", (a,), None), closed_terms),
    st.builds(lambda a: Apply("Out", (a,), None), closed_terms),
    st.builds(lambda a, b: Apply("E", (a, b), None), closed_terms, closed_terms),
    st.builds(lambda a, b: Apply(MEMBERSHIP, (a, b), None), closed_terms, closed_terms),
    st.builds(Equal, closed_terms, closed_terms),
    st.sampled_from([Truth(True), Truth(False)]),
)

closed_sentences = st.recursive(
    closed_atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(Implies, inner, inner),
        st.builds(Iff, inner, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
    ),
    max_leaves=10,
)


@given(closed_sentences, st.integers(min_value=0, max_value=2**32))
@settings(max_examples=300)
def test_closed_sentences_agree_with_brute_oracle(f, seed):
    state = random_state(random.Random(seed))
    views = {None: state, 0: state}
    want = brute_sat(f, views, 1)
    table = Interned()
    compiled = table.add(f)
    for domain in (EvalDomain.omega(), EvalDomain.surrogate(3), EvalDomain.surrogate(16)):
        assert sat(f, state, domain) is want
        assert EvalContext.single(state, domain, table).sentence(compiled) is want


# -- membership atoms against the oracle, pointwise --------------------------

# The states' support lies below K; literals reach past it, and surrogate
# sizes run from below the largest anchor to past it, so the largest value
# an evaluator indexes by (radix - 1) is both a candidate and an argument.
K = 6


@st.composite
def membership_states(draw):
    def unary():
        elements = draw(st.frozensets(st.integers(0, K - 1), max_size=4))
        return OrdinalSet.cofinite(elements) if draw(st.booleans()) else OrdinalSet.finite(elements)

    def tuples(width):
        row = st.tuples(*[st.integers(0, K - 1)] * width)
        return draw(st.frozensets(row, max_size=5))

    return State.make(
        OMEGA,
        {
            "h": draw(st.integers(0, K - 1)),
            "t": draw(st.integers(0, K - 1)),
            "In": unary(),
            "Out": unary(),
            "E": tuples(2),
            "T": tuples(3),
        },
    )


def membership_formulas(variables):
    """Quantifier-free formulas over unary, binary and ternary atoms."""
    terms = st.one_of(
        st.sampled_from([Var(x) for x in variables] + [Const("h"), Const("t")]),
        st.integers(0, K + 2).map(OrdinalLiteral),
    )
    atoms = st.one_of(
        st.builds(lambda a: Apply("In", (a,), None), terms),
        st.builds(lambda a: Apply("Out", (a,), None), terms),
        st.builds(lambda a, b: Apply("E", (a, b), None), terms, terms),
        st.builds(lambda a, b, c: Apply("T", (a, b, c), None), terms, terms, terms),
        st.builds(lambda a, b: Apply(MEMBERSHIP, (a, b), None), terms, terms),
        st.builds(Equal, terms, terms),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
            st.builds(Iff, inner, inner),
        ),
        max_leaves=6,
    )


def _set_and_relation_paths(fx, fxy, state, domain):
    """(defined set, defined relation or its error type) on the raw path,
    then on the interned one."""
    table = Interned()
    gx, gxy = table.add(fx), table.add(fxy)
    ctx = EvalContext.single(state, domain, table)
    for set_of, relation_of in (
        (lambda: defined_set(fx, state, domain, "x"), lambda: defined_relation(fxy, state, domain, ("x", "y"))),
        (lambda: ctx.defined_set(gx, "x"), lambda: ctx.defined_relation(gxy, ("x", "y"))),
    ):
        try:
            relation = relation_of()
        except Unrepresentable:
            relation = Unrepresentable
        yield set_of(), relation


def _check_against_the_oracle(fx, fxy, state, domains):
    """defined_set of fx over x and defined_relation of fxy over (x, y), on
    the raw and the interned path, against brute_sat at every candidate.
    brute_sat quantifies over the surrogate, so at w the formulas must be
    quantifier-free."""
    views = {None: state, 0: state}

    for domain in domains:
        size = 1 if domain.is_omega else domain.size

        def holds(f, **env):
            return brute_sat(f, views, size, env)

        if domain.is_omega:
            # [0, B], then the far representatives: B + 3, 6 and 9 for a
            # set, B + 3 for a relation
            set_candidates = range(threshold_bound(fx, state) + 10)
            pair_candidates = range(threshold_bound(fxy, state) + 4)
        else:
            set_candidates = pair_candidates = range(domain.size)
        for got_set, got_relation in _set_and_relation_paths(fx, fxy, state, domain):
            for a in set_candidates:
                assert got_set.member(a) == holds(fx, x=a), (a, fx)
            pairs = [(a, b) for a in pair_candidates for b in pair_candidates]
            if got_relation is Unrepresentable:
                far = pair_candidates[-1]
                assert domain.is_omega and any(
                    holds(fxy, x=a, y=b) for a, b in pairs if far in (a, b)
                ), fxy
            else:
                for a, b in pairs:
                    assert ((a, b) in got_relation) == holds(fxy, x=a, y=b), (a, b, fxy)


@given(
    membership_formulas(("x",)),
    membership_formulas(("x", "y")),
    membership_states(),
    st.integers(1, K + 4),
)
@settings(max_examples=150, deadline=None)
def test_membership_agrees_with_brute_oracle_at_every_candidate(fx, fxy, state, n):
    _check_against_the_oracle(fx, fxy, state, (EvalDomain.omega(), EvalDomain.surrogate(n)))


SURROGATES = (EvalDomain.surrogate(1), EvalDomain.surrogate(5))


@pytest.mark.parametrize(
    "fx, fxy, domains",
    [
        ("In(h)", "In(y)", (EvalDomain.omega(), *SURROGATES)),
        ("R(h) | h < t", "E(x, 1) & x < 2", (EvalDomain.omega(), *SURROGATES)),
        ("false", "y = y & ~Out(t)", (EvalDomain.omega(), *SURROGATES)),
        ("exists z. In(z) & h < z", "exists z. E(x, z) & E(z, 2)", SURROGATES),
        ("forall z. z < h", "forall z. E(z, y) -> In(z)", SURROGATES),
    ],
)
def test_a_body_that_ignores_its_variable_spans_every_candidate(fx, fxy, domains):
    # fx never reads x and each fxy reads only one of x and y, so their
    # truth tables are broadcast across the candidates they ignore
    _check_against_the_oracle(P(fx), P(fxy), base_state(), domains)


# -- bitsets past one machine word, against the oracle ----------------------

# Closed guards to the left of a connective: true, false, or an atom over
# constants, so that some settle it and some pass the right operand on.
closed_guards = st.sampled_from(
    [P(text) for text in ("true", "false", "In(h)", "R(t)", "h < t", "t = 3")]
)
NESTED = ("x", "y", "z")


@st.composite
def guarded_nests(draw, free=()):
    """A formula whose quantifiers bind NESTED after the free variables,
    each bounded by an anchor or by the variable bound before it, and each
    to the right of a closed guard in an And, Or or Implies. The innermost
    body joins an atom over x and z with one over y and z, so it reads
    every bound variable: 125 cells over a five-element universe."""
    anchors = st.sampled_from([Const("h"), Const("t"), OrdinalLiteral(4), OrdinalLiteral(9)])

    def atom(a, b):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return Apply("E", (Var(a), Var(b)), None)
        if kind == 1:
            return Apply(MEMBERSHIP, (Var(a), Var(b)), None)
        if kind == 2:
            return Apply(MEMBERSHIP, (Var(b), Var(a)), None)
        if kind == 3:
            return Equal(Var(a), Var(b))
        return Apply(draw(st.sampled_from(["In", "Out", "R"])), (Var(b),), None)

    def level(scope):
        if len(scope) == len(free) + len(NESTED):
            join = draw(st.sampled_from([And, Or, Implies, Iff]))
            return join(atom("x", "z"), atom("y", "z"))
        v = NESTED[len(scope) - len(free)]
        body = level(scope + (v,))
        if scope and draw(st.booleans()):
            body = draw(st.sampled_from([And, Or, Iff]))(body, atom(scope[-1], v))
        bound = Var(scope[-1]) if scope and draw(st.booleans()) else draw(anchors)
        guard = Apply(MEMBERSHIP, (Var(v), bound), None)
        if draw(st.booleans()):
            quantified = Exists(v, And(guard, body))
        else:
            quantified = Forall(v, Implies(guard, body))
        return draw(st.sampled_from([And, Or, Implies]))(draw(closed_guards), quantified)

    return level(tuple(free))


@given(guarded_nests(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_nested_sentences_agree_with_brute_oracle_and_across_the_bound(f, seed):
    state = random_state(random.Random(seed))
    views = {None: state, 0: state}
    table = Interned()
    g = table.add(f)
    for n in (1, 2, 5):
        want = brute_sat(f, views, n)
        domain = EvalDomain.surrogate(n)
        assert sat(f, state, domain) is want
        assert EvalContext.single(state, domain, table).sentence(g) is want
    omega = EvalDomain.omega()
    at_w = sat(f, state, omega)
    assert EvalContext.single(state, omega, table).sentence(g) is at_w
    b = threshold_bound(f, state)
    for n in range(b, b + 9):
        assert sat(f, state, EvalDomain.surrogate(n)) is at_w, n


@given(guarded_nests(free=("w",)), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_nested_defined_sets_agree_with_brute_oracle(f, seed):
    # w is free and x, y, z are bound inside: four axes deep
    state = random_state(random.Random(seed))
    views = {None: state, 0: state}
    table = Interned()
    g = table.add(f)
    for n in (1, 2, 5):
        domain = EvalDomain.surrogate(n)
        want = {a for a in range(n) if brute_sat(f, views, n, {"w": a})}
        assert set(defined_set(f, state, domain, "w").members_below(n)) == want
        assert set(EvalContext.single(state, domain, table).defined_set(g, "w").members_below(n)) == want


# -- connective order: compiled closures against the interpreter -------------

chain_operands = st.sampled_from(
    [P(text) for text in ("true", "false", "In(h)", "R(h)", "In(x)", "Out(x)", "h = w")]
)
chain_nested = st.recursive(
    chain_operands,
    lambda inner: st.builds(And, inner, inner) | st.builds(Or, inner, inner),
    max_leaves=4,
)


def _outcome(evaluate):
    try:
        return evaluate()
    except Unsupported as exc:
        return type(exc)


def _raw_and_compiled(f):
    s, omega = base_state(), EvalDomain.omega()
    table = Interned()
    g = table.add(f)
    raw = _outcome(lambda: defined_set(f, s, omega, "x"))
    compiled = _outcome(lambda: EvalContext.single(s, omega, table).defined_set(g, "x"))
    return raw, compiled


@pytest.mark.parametrize(
    "text, raises",
    [
        ("(In(x) | true) | h = w", True),
        ("In(x) | (true | h = w)", False),
        ("(In(x) & false) & h = w", True),
        ("In(x) & (false & h = w)", False),
        ("((true | h = w) & In(x)) | Out(x)", False),
    ],
)
def test_connectives_settle_and_raise_as_the_interpreter_does(text, raises):
    raw, compiled = _raw_and_compiled(P(text))
    assert raw == compiled
    assert (compiled is Unsupported) == raises


def test_one_element_universe_settles_on_a_quantifier_that_reads_an_outer_variable():
    # Over {0} every axis has length 1, so `exists z. y = z` is a plain bool
    # although it reads y, and the disjunction settles on it before it
    # reaches the infinite literal. Over {0, 1} it stays a table over y.
    f, s = P("forall y. ((exists z. y = z) | R(w))"), base_state()
    table = Interned()
    g = table.add(f)
    assert sat(f, s, EvalDomain.surrogate(1)) is True
    assert EvalContext.single(s, EvalDomain.surrogate(1), table).sentence(g) is True
    with pytest.raises(Unsupported, match="infinite literal"):
        sat(f, s, EvalDomain.surrogate(2))


@given(st.lists(st.tuples(st.sampled_from([And, Or]), chain_nested), min_size=1, max_size=6), chain_nested)
@settings(max_examples=300)
def test_left_deep_chains_agree_with_the_interpreter(links, first):
    f = first
    for kind, operand in links:
        f = kind(f, operand)
    raw, compiled = _raw_and_compiled(f)
    assert raw == compiled, f


# -- function terms on bound variables, against the oracle -------------------

FUNCTION_TERM_SIGMA = Signature(
    [
        SymbolDecl("h", "Constant"),
        SymbolDecl("f", "Function", 1),
        SymbolDecl("g", "Function", 2),
        SymbolDecl("R", "Relation", 1),
        SymbolDecl("E", "Relation", 2),
    ]
)


def function_state(g_missing=()) -> State:
    """f and g total on [0, 5), the largest surrogate below, with their
    values there too, so that nested applications stay on the graphs;
    g_missing takes keys out of g's graph."""
    return State.make(
        OMEGA,
        {
            "h": 2,
            "f": {(a, (3 * a + 1) % 5) for a in range(5)},
            "g": {
                (a, b, (a + 2 * b) % 5)
                for a in range(5)
                for b in range(5)
                if (a, b) not in g_missing
            },
            "R": OrdinalSet.finite({1, 3}),
            "E": {(0, 1), (1, 2), (2, 4), (4, 0), (3, 3)},
        },
    )


# Bodies over x and y: function terms inside unary, binary and membership
# atoms and equalities, nested, on constants and under a quantifier.
FUNCTION_BODIES = [
    "R(f(x))",
    "R(g(y, x))",
    "E(f(x), y)",
    "E(g(x, y), f(y))",
    "f(x) < y",
    "x < f(y)",
    "g(x, y) < f(x)",
    "in(f(y), g(y, x))",
    "f(f(x)) = y",
    "f(g(x, y)) = x",
    "R(f(g(y, x)))",
    "f(x) = g(y, y)",
    "g(f(y), h) < 3",
    "f(h) < x & ~R(g(x, x))",
    "exists z. g(x, z) = f(y)",
    "forall z. (f(z) < x | E(z, g(z, y)))",
    "exists z. (R(f(z)) & f(z) = g(x, y))",
]
QUANTIFIER_PAIRS = [("exists", "forall"), ("forall", "exists"), ("exists", "exists")]
PUBLIC_ENTRIES = {"sentence": sat, "defined_set": defined_set, "defined_relation": defined_relation}


@pytest.mark.parametrize("body", FUNCTION_BODIES)
def test_function_terms_agree_with_brute_oracle(body):
    state = function_state()
    views = {None: state, 0: state}
    table = Interned()

    def both(entry, f, domain, *args):
        """The entry's answer on the raw path and on the interned one."""
        raw = PUBLIC_ENTRIES[entry](f, state, domain, *args)
        ctx = EvalContext.single(state, domain, table)
        return raw, getattr(ctx, entry)(table.add(f), *args)

    def parse(text):
        return parse_formula(text, FUNCTION_TERM_SIGMA)

    phi = parse(body)
    sentences = [parse(f"{q} x. {r} y. {body}") for q, r in QUANTIFIER_PAIRS]
    sets = [(v, parse(f"{q} {u}. {body}")) for v, u in (("x", "y"), ("y", "x")) for q in ("exists", "forall")]
    for n in (1, 2, 3, 5):
        domain = EvalDomain.surrogate(n)

        def holds(f, **env):
            return brute_sat(f, views, n, env)

        for f in sentences:
            assert both("sentence", f, domain) == (holds(f),) * 2, (f, n)
        for var, f in sets:
            want = OrdinalSet.finite(a for a in range(n) if holds(f, **{var: a}))
            assert both("defined_set", f, domain, var) == (want,) * 2, (f, n)
        pairs = {(a, b) for a in range(n) for b in range(n) if holds(phi, x=a, y=b)}
        for order, want in (
            (("x", "y"), frozenset(pairs)),
            (("y", "x"), frozenset((b, a) for a, b in pairs)),
        ):
            assert both("defined_relation", phi, domain, order) == (want,) * 2, (body, order, n)


@pytest.mark.parametrize(
    "sentence, g_missing, domain, message",
    [
        # at w the quantifiers run past every graph entry
        (
            "exists x. exists y. f(y) < g(y, x)",
            (),
            EvalDomain.omega(),
            "function 'f' has no graph entry for (5,)",
        ),
        # the shallowest variable, x, is the fastest digit of the cells, so
        # g(y, x) misses (0, 2) before (1, 0)
        (
            "exists x. exists y. g(y, x) = 0",
            ((1, 0), (0, 2)),
            EvalDomain.surrogate(3),
            "function 'g' has no graph entry for (0, 2)",
        ),
    ],
)
def test_a_missing_graph_entry_is_named_in_cell_order(sentence, g_missing, domain, message):
    f, state = parse_formula(sentence, FUNCTION_TERM_SIGMA), function_state(g_missing)
    table = Interned()
    g = table.add(f)
    for evaluate in (
        lambda: sat(f, state, domain),
        lambda: EvalContext.single(state, domain, table).sentence(g),
    ):
        with pytest.raises(Unrepresentable) as caught:
            evaluate()
        assert str(caught.value) == message
