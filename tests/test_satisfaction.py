"""Evaluator tests: vectorized engine against the plain oracle, Omega
semantics on hand-checked formulas, and the defined-set machinery."""

from __future__ import annotations

import random
import sys
import time
import tracemalloc

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
from gseqa.errors import (
    MachineInvalid,
    MissingSymbol,
    NotClosed,
    ThresholdViolation,
    Unrepresentable,
    Unsupported,
)
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
from gseqa.validator import GSEQA, MachineSpec, check_machine


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
    # behind evaluation do not, and must say so with a GseqaError; a walk
    # that overflows stores no facts, so a second call refuses again
    f = P(" & ".join(["In(1)"] * 1200))
    for _ in range(2):
        with pytest.raises(Unsupported, match="nested too deeply to evaluate"):
            sat(f, base_state(), EvalDomain.omega())
        with pytest.raises(Unsupported, match="nested too deeply to evaluate"):
            threshold_bound(f, base_state())
    with pytest.raises(Unsupported, match="nested too deeply to evaluate"):
        defined_set(P(" & ".join(["In(x)"] * 1200)), base_state(), EvalDomain.omega())


def test_closedness_is_enforced():
    with pytest.raises(NotClosed):
        sat(P("In(x)"), base_state(), EvalDomain.omega())
    # the second call on a formula reads its stored static facts, and
    # still checks them, at w and on a surrogate
    f = P("exists y. E(x, y)")
    g = P("exists y. E@0(x, y) & In@1(y)", doubled=True)
    for domain in (EvalDomain.omega(), EvalDomain.surrogate(5)):
        for _ in range(2):
            with pytest.raises(NotClosed, match=r"\['x'\]"):
                sat(f, base_state(), domain)
            with pytest.raises(NotClosed, match=r"\['x'\]"):
                sat2(g, (base_state(), base_state()), domain)


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
    with pytest.raises(NotClosed, match=r"extra free variables \['y'\]"):
        defined_set(P("E(x, y)"), s, EvalDomain.omega(), var="x")


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


def test_defined_relation_orders_its_tuples_alphabetically_by_default():
    s = State.make(OMEGA, {"E": {(1, 2), (3, 0)}})
    assert defined_relation(P("E(y, x)"), s, EvalDomain.omega()) == {(0, 3), (2, 1)}


def test_defined_relation_needs_every_free_variable_listed():
    s = base_state()
    with pytest.raises(NotClosed, match=r"misses free variables \['y'\]"):
        defined_relation(P("E(x, y)"), s, EvalDomain.omega(), ("x",))
    with pytest.raises(NotClosed, match="at least one variable"):
        defined_relation(P("true"), s, EvalDomain.omega(), ())


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


def test_a_wide_atom_over_one_bound_variable_is_evaluated():
    # The cap is for two or more axes, so an atom over one bound variable,
    # like R(x) and x = c, is evaluated however large its other arguments
    # are, and however many cells x's axis has: at w about 2^21 with the
    # first tuple stored, and more than 2^24 with the second
    sigma = Signature([SymbolDecl("T", "Relation", 3)])
    omega, table = EvalDomain.omega(), Interned()
    for stored, text, want in [
        ((0, 2097152, 2097152), "T(0, 2097152, 2097152)", True),
        ((0, 2097152, 2097152), "exists x. T(x, 2097152, 2097152)", True),
        ((0, 2097152, 2097152), "exists x. T(x, 2097152, 2097151)", False),
        ((16777300, 0, 0), "exists x. T(x, 0, 0)", True),
        ((16777300, 0, 0), "exists x. T(x, 1, 0)", False),
    ]:
        state = State.make(OMEGA, {"T": {stored}})
        formula = parse_formula(text, sigma)
        assert sat(formula, state, omega) is want
        assert EvalContext.single(state, omega).sentence(table.add(formula)) is want


# Each sentence asks, at w, for a bitset over two axes of about 2^21
# candidates each, 2^42 cells: the comparison and the atoms straight away,
# and the connective when it widens two one-axis values to both axes.
WIDE = [
    ("exists x. exists y. E(x, y)", "the atom 'E'"),
    ("exists x. exists y. T(x, y, 2097152)", "the atom 'T'"),
    ("exists x. exists y. x < y & y < 5", "the comparison '<'"),
    ("exists x. exists y. (x < 5 & y < 5)", "a connective"),
]


@pytest.mark.parametrize("text, node", WIDE)
def test_a_table_past_the_cell_cap_is_unsupported_at_once(text, node):
    sigma = Signature(
        [
            SymbolDecl("E", "Relation", 2),
            SymbolDecl("T", "Relation", 3),
        ]
    )
    state = State.make(
        OMEGA, {"E": {(2097152, 2097152)}, "T": {(2097152, 2097152, 2097152)}}
    )
    omega, table = EvalDomain.omega(), Interned()
    formula = parse_formula(text, sigma)
    entries = [
        lambda: sat(formula, state, omega),
        lambda: EvalContext.single(state, omega).sentence(table.add(formula)),
    ]
    for entry in entries:
        start = time.perf_counter()
        with pytest.raises(Unsupported, match=rf"^{node} over x, y needs a table of \d+ cells"):
            entry()
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text", ["true", "false"])
def test_a_closed_table_past_the_cell_cap_is_unsupported_at_once(text):
    # the all-ones or zero table over x and y would have about 2^42 cells
    sigma = Signature([SymbolDecl("E", "Relation", 2)])
    state = State.make(OMEGA, {"E": {(2097152, 2097152)}})
    omega, table = EvalDomain.omega(), Interned()
    formula = parse_formula(text, sigma)
    entries = [
        lambda: defined_relation(formula, state, omega, ("x", "y")),
        lambda: EvalContext.single(state, omega).defined_relation(
            table.add(formula), ("x", "y")
        ),
    ]
    for entry in entries:
        start = time.perf_counter()
        with pytest.raises(Unsupported, match=r"^the formula over x, y needs a table of \d+ cells"):
            entry()
        assert time.perf_counter() - start < 1


def test_a_support_near_two_to_the_21_builds_no_candidate_per_element():
    # at w each candidate of [0, B] is computed when it is read; a tuple of
    # them took about 0.1 s and a 103 MB peak here
    far = 1 << 21
    state = State.make(OMEGA, {"R": OrdinalSet.finite({3, far}), "E": {(far, far)}})
    omega = EvalDomain.omega()
    tracemalloc.start()
    try:
        got = defined_set(P("R(x)"), state, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got) == "{3,2097152}" and peak < 10 * 2**20
    with pytest.raises(Unsupported, match=r"^the formula over x, y needs a table of \d+ cells"):
        defined_relation(P("true"), state, omega, ("x", "y"))


def _rowwise_pair(less, x, y):
    """_pair's pattern built as it was before rows were joined in one
    pass: each row ORed into the bits so far."""
    low, high = (x, y) if x.depth < y.depth else (y, x)
    bits = 0
    for j, value in enumerate(high.values):
        if not less:
            i = low.index(value)
            row = 0 if i is None else 1 << i
        elif x is low:
            row = (1 << low.below(value)) - 1
        else:
            row = low.full ^ ((1 << low.below(value + 1)) - 1)
        bits |= row << j * low.size
    return bits


def _rowwise_bound_mask(ev, own, reads, cells, body_rank):
    """_bound_mask's mask built as it was before rows were joined in one
    pass: each row ORed into the bits so far."""
    margin = satisfaction._margin(body_rank)
    low = ev.anchor_max + margin
    axes = [a for a in ev.bound.values() if reads & a.bit]
    bits = count = 0
    for value in own.values:
        if value <= low:
            block = (1 << cells) - 1
        else:
            block, stride = 0, 1
            for a in axes:
                lo = a.below(value - margin)
                if lo < a.size:
                    run = ((1 << (a.size - lo) * stride) - 1) << lo * stride
                    span = stride * a.size
                    block |= satisfaction._tile(run, span, cells // span)
                stride *= a.size
            if not block:
                break
        bits |= block << count * cells
        count += 1
    return bits, count


@pytest.mark.parametrize(
    "domain, anchor_max, rank, reps",
    [
        (EvalDomain.omega(), 0, 0, 1),
        (EvalDomain.omega(), 3, 1, 3),
        (EvalDomain.omega(), 9, 2, 1),
        (EvalDomain.omega(), 40, 3, 3),
        (EvalDomain.surrogate(1), 0, 1, 1),
        (EvalDomain.surrogate(2), 1, 1, 1),
        (EvalDomain.surrogate(5), 3, 2, 1),
    ],
)
def test_patterns_match_a_row_by_row_build(domain, anchor_max, rank, reps):
    quant_values, candidates = satisfaction._setup_values(domain, anchor_max, rank, reps)
    for outer in (candidates, quant_values):
        for inner in (candidates, quant_values):
            # a new context builds its set-up's patterns afresh
            ctx = EvalContext.single(State.make(OMEGA, {}), domain)
            ctx._use(anchor_max, rank, reps)
            x, y = ctx.bind("x", outer), ctx.bind("y", inner)
            for less, left, right in [(True, x, y), (True, y, x), (False, x, y), (False, y, x)]:
                assert ctx._pair(less, left, right)[0] == _rowwise_pair(less, left, right)
            own = satisfaction._Axis(2, quant_values)
            for reads in (x.bit, y.bit, x.bit | y.bit):
                cells = (x.size if reads & x.bit else 1) * (y.size if reads & y.bit else 1)
                for body_rank in range(rank + 1):
                    want = _rowwise_bound_mask(ctx, own, reads, cells, body_rank)
                    assert ctx._bound_mask(own, reads, cells, body_rank) == want


@pytest.mark.parametrize("anchor_max, rank, reps", [(0, 0, 1), (3, 1, 3), (40, 3, 3)])
def test_candidates_at_w_read_as_a_tuple_of_them_would(anchor_max, rank, reps):
    _, candidates = satisfaction._setup_values(EvalDomain.omega(), anchor_max, rank, reps)
    bound, margin = satisfaction._bound(anchor_max, rank), satisfaction._margin(rank)
    want = (*range(bound + 1), *range(bound + margin, bound + margin * reps + 1, margin))
    every = range(-len(want), len(want))
    assert len(candidates) == len(want) and tuple(candidates) == want
    assert [candidates[i] for i in every] == [want[i] for i in every]
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            candidates[i]


def test_a_pattern_near_the_cell_cap_is_built_in_under_two_seconds():
    # x < y over about 4 000 candidates each, 16 million cells: OR-ing its
    # rows into the bits one at a time took 4.4 s on a 2-core VM
    start = time.perf_counter()
    assert sat(P("exists x. exists y. x < y & y < 4000"), base_state(), EvalDomain.omega())
    assert time.perf_counter() - start < 2


def test_contexts_on_one_table_share_read_only_set_up_arrays():
    # a set-up's candidates and quantifier values are read-only sequences,
    # which nothing can write to, and its patterns are built once for both
    table = Interned()
    g = table.add(P("In(x) & (exists y. x < y)"))
    s, omega = base_state(), EvalDomain.omega()
    first, second = (EvalContext.single(s, omega) for _ in range(2))
    first.defined_set(g, "x")
    built = dict(satisfaction._setup(omega, 3, 1, 3).patterns)
    second.defined_set(g, "x")
    assert first.key == second.key == (3, 1, 3)
    candidates1, candidates2 = (ctx.setup.candidates for ctx in (first, second))
    one, two = first.setup, second.setup
    assert candidates1 is candidates2 and one.quant_values is two.quant_values
    assert one.patterns is two.patterns and built and two.patterns == built
    for values in (candidates1, one.quant_values):
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


def _held_bytes(table: dict) -> int:
    """The bytes that the table's set-ups hold: candidates, quantifier
    ranges and every pattern kept with them."""
    seen: set = set()
    return sum(_deep_bytes(setup, seen) for setup in table.values())


def _within_the_bit_budget(table: dict) -> bool:
    """Whether the table holds at most its newest set-up and _MAX_CELLS
    bits more, read in bytes with room for twice the bits."""
    newest = list(table.values())[-1]
    return _held_bytes(table) <= _deep_bytes(newest, set()) + satisfaction._MAX_CELLS // 4


def _setup_table(monkeypatch) -> dict:
    """An empty table in place of the process's table of set-ups."""
    table: dict = {}
    monkeypatch.setattr(satisfaction, "_SETUPS", table)
    return table


# about 2 k^2 bits of patterns at anchor k: x < y and y's probe bound
NEXT_MEMBER = "In(x) & (exists y. x < y)"


def test_a_machine_table_keeps_its_newest_set_up_and_the_bit_budget(monkeypatch):
    # Stepping ever new anchors, the table empties when its set-ups would
    # pass _MAX_CELLS bits. A table that kept every anchor would hold about
    # 27 MB here, and 2 MB of bits is about 4 MB of set-ups.
    setups = _setup_table(monkeypatch)
    g = Interned().add(P(NEXT_MEMBER))
    omega = EvalDomain.omega()
    for k in range(1, 601):
        state = State.make(OMEGA, {"In": OrdinalSet.finite({k})})
        assert EvalContext.single(state, omega).defined_set(g, "x").elements == {k}
        if k in (300, 600):
            assert _within_the_bit_budget(setups)


def test_a_table_of_sentence_set_ups_keeps_its_newest_and_the_bit_budget(monkeypatch):
    # A sentence's set-up has quantifier values and patterns but no
    # candidates; at anchors 1..800 a table that never emptied kept all 800
    # set-ups, about 222 MB.
    shared = _setup_table(monkeypatch)
    f = P("exists y. In(y) & (forall z. z < y -> ~In(z))")
    g = Interned().add(f)
    omega = EvalDomain.omega()
    for k in range(1, 801):
        state = State.make(OMEGA, {"In": OrdinalSet.finite({k})})
        assert EvalContext.single(state, omega).sentence(g)
        assert sat(f, state, omega)
        if k in (400, 800):
            assert _within_the_bit_budget(shared)


def test_the_sentence_table_keeps_few_set_ups_at_large_anchors(monkeypatch):
    # A pattern over a sentence's axes grows with the square of its anchor:
    # each set-up here holds about 6 MB. Kept by any rule that does not
    # count pattern bits, the 40 set-ups held 243 MB for the life of the
    # process. A sentence at a far larger anchor counts its quantifier
    # values, more than _MAX_CELLS of them, so the next set-up drops it.
    table = _setup_table(monkeypatch)
    omega = EvalDomain.omega()
    far = State.make(OMEGA, {"In": OrdinalSet.finite({1 << 24})})
    assert not sat(P("In(0)"), far, omega)
    state = State.make(OMEGA, {"In": OrdinalSet.finite({1})})
    for c in range(2000, 2040):
        assert sat(P(f"exists x. exists y. x < y & y < {c}"), state, omega)
    assert _within_the_bit_budget(table)
    assert all(len(setup.quant_values) < 2100 for setup in table.values())


def test_a_set_up_without_patterns_counts_its_quantifier_values(monkeypatch):
    # a rank-0 sentence builds no pattern, but its set-up counts one bit
    # per quantifier value, so set-ups at far anchors do not pile up
    table = _setup_table(monkeypatch)
    omega = EvalDomain.omega()
    for k in range(1, 9):
        assert not sat(P("In(0)"), State.make(OMEGA, {"In": OrdinalSet.finite({k << 22})}), omega)
    assert len(table) == 1


def test_raw_sentences_with_one_set_up_key_share_its_patterns(monkeypatch):
    table = _setup_table(monkeypatch)
    setups = []
    use = EvalContext._use

    def spy(ctx, *key):
        candidates = use(ctx, *key)
        setups.append(ctx.setup)
        return candidates

    monkeypatch.setattr(EvalContext, "_use", spy)
    f = P("exists y. In(y) & (forall z. z < y -> ~In(z))")
    omega = EvalDomain.omega()
    # equal domain, support top and rank: one set-up key
    assert sat(f, State.make(OMEGA, {"In": OrdinalSet.finite({2, 5})}), omega)
    built = dict(setups[0].patterns)
    assert sat(f, State.make(OMEGA, {"In": OrdinalSet.finite({5})}), omega)
    # another support top is another key
    assert sat(f, State.make(OMEGA, {"In": OrdinalSet.finite({6})}), omega)
    first, second, third = setups
    assert first is second and third is not first
    assert list(table.values()) == [first, third]
    assert built and second.patterns.keys() == built.keys()
    assert all(second.patterns[key] is value for key, value in built.items())


def test_raw_defined_sets_and_relations_share_set_ups_within_the_bit_budget(monkeypatch):
    # their candidates hold a few ints whatever the support, so the
    # table keeps their set-ups as it keeps a sentence's: a second call
    # with the same key builds none, and ever new anchors stay in budget
    table = _setup_table(monkeypatch)
    omega = EvalDomain.omega()
    between = P("x < y & E(x, y)")

    def answer(k):
        state = State.make(OMEGA, {"In": OrdinalSet.finite({k}), "E": {(0, k)}})
        assert defined_set(P(NEXT_MEMBER), state, omega, "x").elements == {k}
        assert defined_relation(between, state, omega, ("x", "y")) == {(0, k)}

    answer(1)
    kept = dict(table)
    answer(1)
    assert len(kept) == 2 and table == kept
    for k in range(2, 601):
        answer(k)
        if k in (300, 600):
            assert _within_the_bit_budget(table)


def test_sentence_verdicts_do_not_depend_on_the_shared_tables_warmth(monkeypatch):
    # criterion 1's sentences, and raw defined sets and relations of
    # formulas like them, at w and at every surrogate size up to nine past
    # the bound (below it, a verdict may depend on the size), once on one
    # table kept warm throughout and once on a table emptied before each call
    rng = random.Random(2718)
    calls = []
    for i in range(300):
        states = (random_state(rng), random_state(rng)) if i % 2 else (random_state(rng),)
        f = random_formula(rng, rank=3, guarded=True)
        if i % 2:
            f = stamp_random_copies(f, rng)
        b = threshold_bound(f, *states)
        for domain in (EvalDomain.omega(), *map(EvalDomain.surrogate, range(1, b + 9))):
            calls.append((f, states, domain, ()))
    for variables in [("x",)] * 60 + [("x", "y")] * 60:
        state = random_state(rng)
        f = random_formula(rng, rank=2, guarded=True, scope=list(variables))
        b = threshold_bound(f, state)
        for domain in (EvalDomain.omega(), *map(EvalDomain.surrogate, range(1, b + 9))):
            calls.append((f, (state,), domain, variables))

    def verdict(f, states, domain, variables):
        if len(states) == 2:
            return sat2(f, states, domain)
        if not variables:
            return sat(f, states[0], domain)
        try:
            if len(variables) == 1:
                return defined_set(f, states[0], domain, variables[0])
            return defined_relation(f, states[0], domain, variables)
        except (ThresholdViolation, Unrepresentable) as exc:
            return type(exc), str(exc)

    warm = _setup_table(monkeypatch)
    warm_verdicts = [verdict(*call) for call in calls]
    assert len(warm) < len(calls)
    cold_verdicts = []
    for call in calls:
        _setup_table(monkeypatch)
        cold_verdicts.append(verdict(*call))
    assert warm_verdicts == cold_verdicts


def test_the_interpreter_refuses_what_is_not_a_formula_or_a_term(monkeypatch):
    _setup_table(monkeypatch)
    ctx = EvalContext.single(base_state(), EvalDomain.omega())
    ctx._use(0, 0, 0)
    with pytest.raises(TypeError, match="not a formula: Var"):
        ctx.eval(Var("x"))
    with pytest.raises(TypeError, match="not a term: Truth"):
        ctx.term(Truth(True))


def test_the_tail_check_fires_when_the_bound_is_too_small(monkeypatch):
    """A planted defect: B halved, so that the far representatives lie
    within the anchors' reach, where they can disagree. _read_set must
    then raise, for a public entry and for a step at admission. The
    formulas compare x with h: unary masks a relation's elements to the
    dense candidate prefix, so an atom such as In(x) cannot split the far
    representatives, even with a wrong bound."""
    monkeypatch.setattr(satisfaction, "_bound", lambda anchor_max, rank: anchor_max // 2)
    # set-ups kept from earlier calls hold candidates built with the true bound
    _setup_table(monkeypatch)
    omega = EvalDomain.omega()
    with pytest.raises(ThresholdViolation, match=r"tail representatives at \[10, 13, 16\] disagree"):
        defined_set(P("x < h"), State.make(OMEGA, {"h": 15}), omega)
    sigma = Signature([SymbolDecl("h", "Constant"), SymbolDecl("R", "Relation", 1)])
    tau = {"In": "In(x)", "Out": "Out(x)", "h": "x = h", "R": "x < h"}
    spec = MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
        defaultWitnesses={"h": parse_formula("x = 0", sigma), "R": parse_formula("x < 0", sigma)},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    (issue,) = info.value.issues
    assert str(issue).startswith("ThresholdViolation: symbol=h: tail representatives at")


def test_threshold_bound_shape():
    s = base_state()
    f0 = P("In(h)")
    f2 = P("forall x. exists y. E(x, y)")
    assert threshold_bound(f0, s) == s.support_bound() - 1 + 2**1 + 1
    assert threshold_bound(f2, s) > threshold_bound(f0, s)
    lit = P("x = 40")
    assert threshold_bound(lit, s) >= 40


# the graph relation of a unary function: f(x) = y is f(x, y)
GRAPH_SIGMA = Signature([SymbolDecl("f", "Relation", 2)])


@pytest.mark.parametrize(
    "stored, sigma, sentence, message",
    [
        ("E={(1),(2,3)}", CORPUS_SIGMA, "exists x. exists y. E(x, y)", r"'E' holds \(1,\)"),
        ("E={(1,2,3)}", CORPUS_SIGMA, "exists x. exists y. E(x, y)", r"'E' holds \(1, 2, 3\)"),
        ("f={(0,1),(1,)}", GRAPH_SIGMA, "f(0, 1)", r"'f' holds \(1,\)"),
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
        assert EvalContext.single(state, domain).sentence(compiled) is want


# -- membership atoms against the oracle, pointwise --------------------------

# The states' support lies below K; literals reach past it, and surrogate
# sizes run from below the largest anchor to past it, so an axis's last
# candidate is also an argument.
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
    ctx = EvalContext.single(state, domain)
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
        assert EvalContext.single(state, domain).sentence(g) is want
    omega = EvalDomain.omega()
    at_w = sat(f, state, omega)
    assert EvalContext.single(state, omega).sentence(g) is at_w
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
        assert set(EvalContext.single(state, domain).defined_set(g, "w").members_below(n)) == want


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
    compiled = _outcome(lambda: EvalContext.single(s, omega).defined_set(g, "x"))
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
    assert EvalContext.single(s, EvalDomain.surrogate(1)).sentence(g) is True
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
