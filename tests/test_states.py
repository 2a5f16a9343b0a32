"""State representation, typing constraints, and snapshot tests."""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gseqa import OMEGA, OrdinalNotation, OrdinalSet, parse_ordinal
from gseqa.errors import MissingSymbol, ParseError
from gseqa.logic import Signature, SymbolDecl
from gseqa.states import (
    State,
    Tci,
    format_state,
    models_tci,
    parse_state,
)

SIGMA = Signature(
    [
        SymbolDecl("h", "Constant"),
        SymbolDecl("R", "Relation", 1),
        SymbolDecl("E", "Relation", 2),
    ]
)


def sample_state() -> State:
    return State.make(
        OMEGA,
        {
            "h": 3,
            "In": OrdinalSet.finite({1, 3}),
            "Out": OrdinalSet.cofinite({0}),
            "R": OrdinalSet.finite(),
            "E": {(0, 1), (2, 2)},
        },
    )


def test_state_accessors_and_hashing():
    s = sample_state()
    assert s.constant("h") == 3
    assert s.relation("In").member(3)
    assert (2, 2) in s.tuples("E")
    assert s.support_bound() == 4
    t = State.make(
        OMEGA,
        {**dict(s.items), "h": 3, "E": {(2, 2), (0, 1)}},
    )
    assert s == t and hash(s) == hash(t)
    with pytest.raises(KeyError):
        s.constant("zz")


def test_with_updates_is_functional():
    s = sample_state()
    t = s.with_updates({"h": 5, "In": OrdinalSet.finite()})
    assert t.constant("h") == 5
    assert s.constant("h") == 3
    assert not t.relation("In").member(1)
    assert t.relation("Out") == s.relation("Out")


def test_models_tci_accepts_well_typed_state():
    verdict = models_tci(sample_state(), SIGMA, Tci(OMEGA, "GSeqA"))
    assert verdict.ok, verdict.reasons


def test_models_tci_universe_mismatch():
    verdict = models_tci(sample_state(), SIGMA, Tci(parse_ordinal("w*2"), "GSeqA"))
    assert not verdict.ok
    assert any("universe" in r for r in verdict.reasons)


def test_models_tci_range_under_finite_surrogate():
    s = State.make(
        OrdinalNotation.from_int(4),
        {"h": 9, "In": OrdinalSet.finite({1}), "Out": OrdinalSet.finite()},
    )
    verdict = models_tci(s, SIGMA, Tci(OrdinalNotation.from_int(4), "GSeqA"))
    assert not verdict.ok
    assert any("range" in r for r in verdict.reasons)


def test_models_tci_parameter_pinning():
    tci = Tci(OMEGA, "GSeqAP", (("h", OrdinalNotation.from_int(3)),))
    assert models_tci(sample_state(), SIGMA, tci).ok
    bad = models_tci(
        sample_state().with_updates({"h": 4}), SIGMA, tci
    )
    assert not bad.ok
    assert any("ParameterMismatch" in r for r in bad.reasons)
    missing = State.make(OMEGA, {"In": OrdinalSet.finite(), "Out": OrdinalSet.finite()})
    assert models_tci(missing, SIGMA, tci).reasons == ("ParameterMismatch: h missing, pinned to 3",)


def test_models_tci_undeclared_symbol():
    s = sample_state().with_updates({"ghost": 1})
    verdict = models_tci(s, SIGMA, Tci(OMEGA, "GSeqA"))
    assert not verdict.ok
    assert any("BadConstraint" in r for r in verdict.reasons)


def test_models_tci_rejects_tuples_of_the_wrong_arity():
    sigma = SIGMA.extend([SymbolDecl("g", "Relation", 2)])
    s = parse_state("state kappa=w\nnary: E={(1),(2,3),(4,5,6)} g={(1,2),(3)}")
    verdict = models_tci(s, sigma, Tci(OMEGA, "GSeqA"))
    assert not verdict.ok
    assert verdict.reasons == (
        "arity: E holds (1,), which is not a 2-tuple",
        "arity: E holds (4, 5, 6), which is not a 2-tuple",
        "arity: g holds (3,), which is not a 2-tuple",
    )


def test_models_tci_rejects_a_unary_relation_held_as_tuples():
    # a step reads In as a set, so a state holding it as tuples fails there
    sigma = Signature([SymbolDecl("E", "Relation", 2)])
    s = parse_state("state kappa=w\nnary: In={(1,)} Out={} E={}")
    verdict = models_tci(s, sigma, Tci(OMEGA, "GSeqA"))
    assert verdict.reasons == (
        "BadConstraint: 'In' is not a declared relation of arity 2 or more",
        "BadConstraint: 'Out' is not a declared relation of arity 2 or more",
    )
    # the same kind words the error for a unary relation read as tuples
    unary = State.make(OMEGA, {"E": OrdinalSet.finite({1})})
    with pytest.raises(MissingSymbol) as info:
        unary.tuples("E")
    assert str(info.value) == "no relation of arity 2 or more 'E' in state"
    assert info.value.symbol == "E"


def test_gseqa_schema_cannot_pin():
    with pytest.raises(ValueError):
        Tci(OMEGA, "GSeqA", (("h", OrdinalNotation.from_int(3)),))


def test_snapshot_roundtrip_exact():
    s = sample_state()
    text = format_state(s)
    assert "state kappa=w" in text
    assert parse_state(text) == s


sets_ = st.builds(
    lambda el, co: OrdinalSet.cofinite(el) if co else OrdinalSet.finite(el),
    st.frozensets(st.integers(min_value=0, max_value=20), max_size=5),
    st.booleans(),
)


@given(
    st.dictionaries(st.sampled_from(["h", "t", "g"]), st.integers(0, 30), max_size=3),
    st.dictionaries(st.sampled_from(["In", "Out", "R"]), sets_, max_size=3),
)
def test_snapshot_roundtrip_random(consts, unaries):
    s = State.make(OMEGA, {**consts, **unaries, "E": {(1, 2)}})
    assert parse_state(format_state(s)) == s


def test_make_rejects_negative_entries():
    # Such a state would print as a snapshot parse_state refuses.
    with pytest.raises(ValueError, match="naturals"):
        State.make(OMEGA, {"h": -1})
    with pytest.raises(ValueError, match="naturals"):
        State.make(OMEGA, {"E": {(1, -2)}})


def test_parse_state_rejects_junk():
    with pytest.raises(ParseError):
        parse_state("constants: h=3")
    with pytest.raises(ParseError):
        parse_state("state kappa=w\nwhat: ever")


@pytest.mark.parametrize(
    "line, item",
    [
        ("constants: h=abc", "h=abc"),
        ("constants: h=-1", "h=-1"),
        ("nary: R={(1,x)}", "R={(1,x)}"),
        ("unary: In={1,x}", "In={1,x}"),
    ],
)
def test_parse_state_names_the_bad_item(line, item):
    with pytest.raises(ParseError, match=re.escape(repr(item))):
        parse_state(f"state kappa=w\n{line}")


@pytest.mark.parametrize(
    "text, named",
    [
        ("state kappa=w\nconstants: =3", "=3"),
        ("state kappa=w\nconstants: h=1 h=2", "h=2"),
        ("state kappa=w\nconstants: h=1\nconstants: h=2", "h=2"),
        ("state kappa=w\nnary: E={(1,,2)}", "E={(1,,2)}"),
        ("state kappa=w\nnary: E={(,)}", "E={(,)}"),
        ("states kappa=w\nconstants: h=1", "states kappa=w"),
        ("state kappa=w\nconstants: h=1\nunary: h={2}", "h"),
        ("state kappa=w\nstate kappa=5\nconstants: h=1", "state kappa=5"),
        ("state foo", "state foo"),
        ("state\nconstants: h=1", "state"),
        ("state kappa=w+\nconstants: h=1", "state kappa=w+"),
    ],
)
def test_parse_state_refuses_what_it_would_drop(text, named):
    with pytest.raises(ParseError, match=re.escape(repr(named))):
        parse_state(text)


BAD_SET = "{" + ",".join("5x00" if i == 5000 else str(i) for i in range(10_000)) + "}"
BAD_TUPLES = "{" + ",".join(f"({i},{'5x01' if i == 5000 else i + 1})" for i in range(10_000)) + "}"
LONG = {
    "a set with one bad element": (
        f"unary: R={BAD_SET}",
        f"unary item {'R=' + BAD_SET!r}: bad set element '5x00' in {BAD_SET!r}",
    ),
    "a tuple set with one bad tuple": (
        f"nary: E={BAD_TUPLES}",
        f"nary item {'E=' + BAD_TUPLES!r}: expected a natural number, got '5x01'",
    ),
    "10 000 constants, one bad": (
        "constants: " + " ".join(f"c{i}={'9x' if i == 5000 else i}" for i in range(10_000)),
        "constants item 'c5000=9x': expected a natural number, got '9x'",
    ),
}


@pytest.mark.parametrize("line, message", LONG.values(), ids=LONG.keys())
def test_a_long_snapshot_line_fails_in_linear_time(line, message):
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_state(f"state kappa=w\n{line}")
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == message


def test_parse_state_reads_one_tuples_in_both_forms():
    s = parse_state("state kappa=w\nnary: E={(1,),(2)}")
    assert s.tuples("E") == frozenset({(1,), (2,)})
