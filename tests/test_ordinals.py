"""Ordinal notation and set-representation tests.

The pairing function is checked against an enumeration oracle built from
its defining order (sort all pairs by max, then lexicographically) rather
than against the closed form it is implemented with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gseqa import (
    OMEGA,
    ZERO,
    OrdinalNotation,
    OrdinalSet,
    ParseError,
    Unsupported,
    godel_pair,
    godel_unpair,
    next_limit,
    ord_compare,
    parse_ordinal,
    parse_ordinal_set,
)


def enumerate_pairs(bound: int) -> list[tuple[int, int]]:
    """All pairs with components < bound, in max-then-lex order."""
    pairs = [(a, b) for a in range(bound) for b in range(bound)]
    pairs.sort(key=lambda p: (max(p), p[0], p[1]))
    return pairs


def test_pairing_matches_enumeration_order():
    for index, (a, b) in enumerate(enumerate_pairs(40)):
        assert godel_pair(a, b) == index, (a, b)


def test_pairing_frozen_values():
    assert godel_pair(0, 0) == 0
    assert godel_pair(0, 1) == 1
    assert godel_pair(1, 0) == 2
    assert godel_pair(1, 1) == 3
    assert godel_pair(3, 1) == 13
    assert godel_pair(4, 0) == 20


def test_pairing_rejects_infinite_input():
    with pytest.raises(Unsupported):
        godel_pair(OMEGA, 1)
    with pytest.raises(Unsupported):
        godel_pair(2, OMEGA.add(OrdinalNotation.from_int(3)))


@given(st.integers(min_value=0, max_value=10**6))
def test_unpair_inverts_pair(n):
    a, b = godel_unpair(n)
    assert godel_pair(a, b) == n


@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=2000))
def test_pair_then_unpair(a, b):
    assert godel_unpair(godel_pair(a, b)) == (a, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda: godel_pair(-1, 0),
        lambda: godel_pair(0, -3),
        lambda: godel_unpair(-1),
    ],
    ids=["pair-left", "pair-right", "unpair"],
)
def test_negative_integers_are_rejected(call):
    with pytest.raises(ValueError, match="needs a natural number"):
        call()


def cnf(*terms: tuple[int, int]) -> OrdinalNotation:
    return OrdinalNotation(tuple(terms))


ordinals = st.builds(
    lambda pairs: OrdinalNotation(
        tuple(sorted({e: c for e, c in pairs}.items(), reverse=True))
    ),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=9)),
        max_size=4,
    ),
)


def test_notation_invariants_enforced():
    with pytest.raises(ValueError):
        OrdinalNotation(((0, 3), (1, 1)))
    with pytest.raises(ValueError):
        OrdinalNotation(((2, 0),))


@given(ordinals, ordinals)
def test_compare_antisymmetric(a, b):
    assert ord_compare(a, b) == -ord_compare(b, a)
    assert (ord_compare(a, b) == 0) == (a == b)


@given(ordinals, ordinals, ordinals)
def test_compare_transitive(a, b, c):
    x, y, z = sorted([a, b, c])
    assert x <= y <= z
    assert ord_compare(x, z) <= 0


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_compare_agrees_with_integers(m, n):
    cm = ord_compare(OrdinalNotation.from_int(m), OrdinalNotation.from_int(n))
    assert cm == (m > n) - (m < n)


def test_finite_below_infinite():
    assert OrdinalNotation.from_int(10**9) < OMEGA
    assert OMEGA < cnf((1, 1), (0, 1))
    assert cnf((1, 2)) < cnf((2, 1))


@pytest.mark.parametrize(
    "start, expected",
    [
        ("0", "w"),
        ("5", "w"),
        ("w", "w*2"),
        ("w+3", "w*2"),
        ("w*2+3", "w*3"),
        ("w^2", "w^2+w"),
        ("w^2+3", "w^2+w"),
        ("w^3*4+w+1", "w^3*4+w*2"),
    ],
)
def test_next_limit_cases(start, expected):
    assert str(next_limit(parse_ordinal(start))) == expected


@given(ordinals)
def test_next_limit_is_a_larger_limit(a):
    lim = next_limit(a)
    assert lim.is_limit
    assert a < lim


@given(ordinals, ordinals)
def test_next_limit_minimality(a, other):
    lim = next_limit(a)
    if other.is_limit and a < other:
        assert lim <= other


@given(ordinals)
def test_addition_identity(a):
    assert a.add(ZERO) == a
    assert ZERO.add(a) == a


@given(ordinals, ordinals, ordinals)
def test_addition_associative(a, b, c):
    assert a.add(b).add(c) == a.add(b.add(c))


@given(ordinals, ordinals, ordinals)
def test_addition_right_monotone(a, b, c):
    if b < c:
        assert a.add(b) < a.add(c)


@given(st.integers(min_value=0, max_value=100))
def test_successor_on_finite(n):
    o = OrdinalNotation.from_int(n)
    assert o.succ().to_int() == n + 1
    assert o.succ().is_successor


def test_limit_successor_classification():
    assert ZERO.is_finite and not ZERO.is_limit and not ZERO.is_successor
    assert OMEGA.is_limit and not OMEGA.is_successor
    assert OMEGA.succ().is_successor
    assert parse_ordinal("w^2+w").is_limit


@pytest.mark.parametrize("text", ["0", "7", "w", "w*2+3", "w^2", "w^3*4+w+1", "w^2+w+5"])
def test_parse_format_roundtrip(text):
    assert str(parse_ordinal(text)) == text


@given(ordinals)
def test_format_parse_roundtrip(a):
    assert parse_ordinal(str(a)) == a


@pytest.mark.parametrize("text", ["", "w^", "3+w", "w*0", "x", "w**2", "1+1+w"])
def test_parse_rejects_junk(text):
    with pytest.raises(ParseError):
        parse_ordinal(text)


def test_to_int_guards():
    with pytest.raises(Unsupported):
        OMEGA.to_int()
    assert parse_ordinal("12").to_int() == 12


finite_sets = st.frozensets(st.integers(min_value=0, max_value=24), max_size=8)
ordsets = st.builds(
    lambda el, co: OrdinalSet.cofinite(el) if co else OrdinalSet.finite(el),
    finite_sets,
    st.booleans(),
)


@given(ordsets)
def test_complement_involution(s):
    assert s.complement().complement() == s


@given(ordsets, st.integers(min_value=0, max_value=64))
def test_complement_flips_membership(s, x):
    assert s.member(x) != s.complement().member(x)


def reference_members(s: OrdinalSet, bound: int) -> set[int]:
    return {x for x in range(bound) if (x in s.elements) == s.is_finite}


@given(ordsets, ordsets)
def test_set_algebra_against_pointwise_oracle(a, b):
    bound = 40
    ra, rb = reference_members(a, bound), reference_members(b, bound)
    assert reference_members(a.union(b), bound) == ra | rb
    assert reference_members(a.intersection(b), bound) == ra & rb
    assert reference_members(a.difference(b), bound) == ra - rb
    assert reference_members(a.symmetric_difference(b), bound) == ra ^ rb


@given(ordsets, ordsets)
def test_de_morgan(a, b):
    lhs = a.union(b).complement()
    rhs = a.complement().intersection(b.complement())
    assert lhs == rhs


def test_set_parse_and_format():
    s = parse_ordinal_set("{1,3,5}")
    assert s == OrdinalSet.finite({1, 3, 5})
    assert str(s) == "{1,3,5}"
    c = parse_ordinal_set("co{0,2}")
    assert c == OrdinalSet.cofinite({0, 2})
    assert str(c) == "co{0,2}"
    assert parse_ordinal_set("{}") == OrdinalSet.finite()
    assert not c.member(0)
    assert c.member(1)
    with pytest.raises(ParseError):
        parse_ordinal_set("1,2")


def test_members_below_and_support_bound():
    s = OrdinalSet.cofinite({0, 2})
    assert list(s.members_below(6)) == [1, 3, 4, 5]
    assert s.support_bound() == 3
    assert OrdinalSet.finite().support_bound() == 0
