"""Every text reader fails on malformed input with a GseqaError, never with
a bare ValueError, KeyError or IndexError. The texts are short strings
over each reader's own vocabulary: its pieces strung together, or a
well-formed sample with a slice replaced by pieces. A seeded corpus of
printed random formulas and states, each with a few single-character
edits, pins the same contract for the formula and state readers, and that
what they do read prints back to itself."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gseqa.errors import GseqaError
from gseqa.logic import Signature, SymbolDecl, format_formula, parse_formula
from gseqa.ordinals import parse_ordinal, parse_ordinal_set
from gseqa.specfiles import parse_machine
from gseqa.states import format_state, parse_state

from corpus_tools import CORPUS_SIGMA, mutate, random_formula, random_state, stamp_random_copies
from gseqa.transforms import parse_tm

SIGMA = Signature(
    [
        SymbolDecl("h", "Constant"),
        SymbolDecl("R", "Relation", 1),
        SymbolDecl("E", "Relation", 2),
        SymbolDecl("f", "Relation", 2),
    ]
)


def texts(pieces: list[str], samples: list[str]) -> st.SearchStrategy[str]:
    strung = st.lists(st.sampled_from(pieces), max_size=12).map("".join)

    def splice(sample: str, i: int, j: int, middle: str) -> str:
        i, j = sorted((i % (len(sample) + 1), j % (len(sample) + 1)))
        return sample[:i] + middle + sample[j:]

    index = st.integers(0, 1000)
    return st.one_of(strung, st.builds(splice, st.sampled_from(samples), index, index, strung))


ORDINAL = ["w", "^", "*", "+", "0", "1", "2", "12", " "]
ORDINAL_SET = ["co", "{", "}", ",", "0", "1", "12", " ", "w"]
FORMULA = [
    *"xyh()<=,.~&|@01",
    *["->", "<->", "12", "w", " ", "R", "E", "f", "in", "In", "Out"],
    *["exists ", "forall ", "true", "false", "@0", "@1"],
]
STATE = [
    *["state", " kappa=", "w", "w+1", "5", "constants:", "unary:", "nary:", "\n", " "],
    *["h", "E", "=", "{", "}", "(", ")", ",", "co", "1", "#"],
]
TM = [
    *["states:", "initial:", "final:", "params:", " q0", " q1", "q0", "q1", "\n"],
    *["(", ")", ",", " ", "0", "1", "->", "L", "R", "oracle-read", "jump", "#", "x"],
]
MACHINE = [
    *["kappa:", " w", " 3", "flavor:", " gseqa", " gseqap", "signature:", "params:"],
    *["\n", "  ", "h: Constant", "R: Relation/1", "f: Function/", "Relation", "/", ":"],
    *["default {", "tau {", "}", "In: ", "R: ", "In(x)", "R(x) | x = h", "p = w", "#"],
]

MACHINE_SAMPLE = """\
kappa: w
flavor: gseqa
signature:
  h: Constant
  R: Relation/1
params:
  p = w+3
default {
  R: false
}
tau {
  In: In(x)
  R: R(x) | x = h
  Out: exists y. (In(y) & x < y)
}
"""

TM_SAMPLE = """\
states: q0 q1 q2
initial: q0
final: q2
params: 3
(q0, 0) -> (q1, 0, R)
(q0, 1) -> oracle-read(q2, q1)
(q1, 0) -> jump(0, q0)
(q1, 1) -> (q2, 1, L)
"""

READERS = {
    "parse_ordinal": (parse_ordinal, ORDINAL, ["w^2*3+w+5", "0", "12"]),
    "parse_ordinal_set": (parse_ordinal_set, ORDINAL_SET, ["co{0,2}", "{}", "{1,3,5}"]),
    "parse_formula": (
        lambda text: parse_formula(text, SIGMA),
        FORMULA,
        ["forall x. (In(x) -> exists y. (x < y & E(x, y)))", "f(h, 3) | ~R(w)"],
    ),
    "parse_formula doubled": (
        lambda text: parse_formula(text, SIGMA, doubled=True),
        FORMULA,
        ["in(x, 3) <-> x = h@0", "R@1(x) & f@0(x, h@1) & In@0(x)"],
    ),
    "parse_state": (
        parse_state,
        STATE,
        ["state kappa=w\nconstants: h=1\nunary: In={1,3} Out=co{2}\nnary: E={(1,2),(3,)}"],
    ),
    "parse_tm": (parse_tm, TM, [TM_SAMPLE]),
    "parse_machine": (parse_machine, MACHINE, [MACHINE_SAMPLE]),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_sample_is_well_formed(reader):
    read, _, samples = READERS[reader]
    for sample in samples:
        read(sample)


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_reader_raises_nothing_but_gseqa_errors(reader, data):
    read, pieces, samples = READERS[reader]
    text = data.draw(texts(pieces, samples), label="text")
    try:
        read(text)
    except GseqaError:
        pass


def _mutated(seed: int, count: int) -> tuple[list[tuple[str, bool]], list[str]]:
    """count printed random formulas (every third doubled) and count
    printed random states, each after 0 to 3 single-character edits."""
    rng = random.Random(seed)
    formulas = []
    for i in range(count):
        f = random_formula(rng)
        if doubled := i % 3 == 0:
            f = stamp_random_copies(f, rng)
        formulas.append((mutate(format_formula(f), rng, rng.randrange(4)), doubled))
    snapshots = [
        mutate(format_state(random_state(rng)), rng, rng.randrange(4)) for _ in range(count)
    ]
    return formulas, snapshots


FORMULA_TEXTS, STATE_TEXTS = _mutated(30, 3000)


def test_a_mutated_formula_reads_as_itself_printed_or_fails_cleanly():
    read = []
    for text, doubled in FORMULA_TEXTS:
        try:
            f = parse_formula(text, CORPUS_SIGMA, doubled=doubled)
        except GseqaError:
            continue
        assert parse_formula(format_formula(f), CORPUS_SIGMA, doubled=doubled) == f, text
        read.append(text)
    assert 0.2 < len(read) / len(FORMULA_TEXTS) < 0.8


def test_a_mutated_state_reads_as_itself_printed_or_fails_cleanly():
    read = []
    for text in STATE_TEXTS:
        try:
            s = parse_state(text)
        except GseqaError:
            continue
        assert parse_state(format_state(s)) == s, text
        read.append(text)
    assert 0.2 < len(read) / len(STATE_TEXTS) < 0.8
