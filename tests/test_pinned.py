"""Pinned behaviour: the text every construction and a few runs produce.

Each case hashes deterministic output only: the machine file, the two
assembled sentences, or a dump_trace. A refactor of the formula code is
behaviour-preserving exactly when every digest here stays the same. When
a change means to alter one of these texts, print the new digests with
`pytest tests/test_pinned.py -k digests -s` and say why in the change.
"""

import dataclasses
import hashlib

import pytest

from gseqa.alpharef import parse_alpha_program, simulate_alpha_as_gseqap
from gseqa.logic import format_formula
from gseqa.ordinals import OrdinalNotation, OrdinalSet
from gseqa.runtime import Budget, dump_trace, run
from gseqa.specfiles import format_machine
from gseqa.states import State, format_state, parse_state
from gseqa.transforms import compile_tm, compose, dovetail, flip, lift
from gseqa.validator import _memoised, _step, check_machine, check_simple, domain_for
from tm_tools import EVEN_HALTING, WRITER

# The two oracle-machine programs of acceptance criterion 9.
PARITY = (
    "states: even odd loop done\ninitial: even\nfinal: done\n"
    "(even, 0) -> (odd, 0, R)\n(even, 1) -> (done, 1, R)\n"
    "(odd, 0) -> (even, 0, R)\n(odd, 1) -> (loop, 1, R)\n"
    "(loop, 0) -> (loop, 0, R)\n(loop, 1) -> (loop, 1, R)\n"
)
ASK3 = (
    "states: s0 s1 s2 s3 yes no done\ninitial: s0\nfinal: done\n"
    "(s0, 0) -> (s1, 0, R)\n(s0, 1) -> (s1, 1, R)\n"
    "(s1, 0) -> (s2, 0, R)\n(s1, 1) -> (s2, 1, R)\n"
    "(s2, 0) -> (s3, 0, R)\n(s2, 1) -> (s3, 1, R)\n"
    "(s3, 0) -> oracle-read(yes, no)\n(s3, 1) -> oracle-read(yes, no)\n"
    "(yes, 0) -> (done, 1, R)\n(yes, 1) -> (done, 1, R)\n"
    "(no, 0) -> (no, 0, R)\n(no, 1) -> (no, 1, R)\n"
)

PINNED = {
    "compile_tm(EVEN_HALTING)": "251a6b9103cb70d65d49a3a13337932d3ebcd72352fe31541c931daaa5162d99",
    "compile_tm(WRITER)": "b957d8b0a1e1ba44d02fe84da585126e043933f3790c02973c524889daff517b",
    "compose(WRITER,EVEN_HALTING)": "6d0244e9157c39936eb1206c735ff1d120e3d3bcc6e36cf06af33a3537e37df5",
    "flip(WRITER)": "363a52de8bb07b9bbe719b10d4c1ec78e6cdb655f69761dff32982dd73cd1725",
    "lift(WRITER@6,12)": "ec182fae71d775ba69dcefff7daf8e7d9454679ff3ae26f5b42ee3ed86ae4c1f",
    "dovetail(EVEN_HALTING)": "53b1101985e402ff07f551049db41cc87aff889a1246d9581725801c7cbc667f",
    "alpha(parity)": "2292fdb9c315e2c80f571115fc10a99a9e7521edba4845556bdbbfcea707a88f",
    "alpha(ask3)": "95848f996fa106a18e04516afd056cb0fb96e6c7526a4a6cacb01e0103b8bd9f",
    "run compile_tm(EVEN_HALTING) [2]": "eadb23f2264e050f056ff5c00605dcbc9f0acb18f5f6bd52aff506edbd43e817",
    "run compile_tm(EVEN_HALTING) [1]": "73c107666546a8d9458d6736c98de7a6c69937b4e50128884f37aa39e10aea3b",
    "run compile_tm(WRITER) [0, 3]": "ac9b7b7d2b8dbac3852f2f278f413ae3db718683138450c95e39584f3c921e90",
    "run compose(WRITER,EVEN_HALTING) [1]": "0b605c17f2fb7c688514d483c5685962128135d7936b978a814c70f6041702b0",
    "run flip(WRITER) [2]": "836524e54f7e818ec1fc34af3d2e4c8bae70ea87250a3a341f31e927f52950f4",
    "run lift(WRITER@6,12) [1, 4]": "8b362e23959ed077040657548123e6f9cc3fd547092738df1d903ae7e2ace286",
    "run dovetail(EVEN_HALTING) []": "9cea2b2272e7a1bc53236ae0ab48b3fea73edc4a6054bfdc4c2a867bd59e5880",
    "run alpha(parity) [2]": "e51937d0ab023e1435a6b9195c0502b461afeea621b174fce7fbb2d9327f3b0a",
    "run alpha(ask3) [3]": "85502a264a85ffcbe85f6d98206ecec833358a00af2c098fed0efd04b2619457",
}


def _constructions():
    even = compile_tm(EVEN_HALTING)
    writer = compile_tm(WRITER)
    writer6 = dataclasses.replace(writer, kappa=OrdinalNotation.from_int(6))
    return {
        "compile_tm(EVEN_HALTING)": even,
        "compile_tm(WRITER)": writer,
        "compose(WRITER,EVEN_HALTING)": compose(writer, even),
        "flip(WRITER)": flip(writer),
        "lift(WRITER@6,12)": lift(writer6, 12),
        "dovetail(EVEN_HALTING)": dovetail(even),
        "alpha(parity)": simulate_alpha_as_gseqap(parse_alpha_program(PARITY)),
        "alpha(ask3)": simulate_alpha_as_gseqap(parse_alpha_program(ASK3)),
    }


# (construction, input elements, successor steps per segment)
RUNS = [
    ("compile_tm(EVEN_HALTING)", {2}, 40),
    ("compile_tm(EVEN_HALTING)", {1}, 40),
    ("compile_tm(WRITER)", {0, 3}, 40),
    ("compose(WRITER,EVEN_HALTING)", {1}, 60),
    ("flip(WRITER)", {2}, 40),
    ("lift(WRITER@6,12)", {1, 4}, 40),
    ("dovetail(EVEN_HALTING)", set(), 120),
    ("alpha(parity)", {2}, 48),
    ("alpha(ask3)", {3}, 48),
]


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def machines():
    return {
        name: check_machine(spec, allow_finite_kappa=True, sample_size=8)
        for name, spec in _constructions().items()
    }


@pytest.fixture(scope="module")
def pinned(machines):
    """The digest of each case, and the trace of each run."""
    specs = _constructions()
    digests, traces = {}, []
    for name, vm in machines.items():
        digests[name] = _digest(
            format_machine(specs[name]),
            format_formula(vm.phi_tau),
            format_formula(check_simple(specs[name])),
        )
    for name, elements, steps in RUNS:
        budget = Budget(maxSuccessorStepsPerSegment=steps, maxLimitJumps=2)
        trace = run(machines[name], OrdinalSet.finite(elements), budget)
        digests[f"run {name} {sorted(elements)}"] = _digest(dump_trace(trace))
        traces.append(trace)
    return digests, traces


def test_pinned_digests(pinned):
    digests, _ = pinned
    for key, value in digests.items():
        print(f"    {key!r}: {value!r},")
    assert digests == PINNED


def test_pinned_snapshots_round_trip(pinned):
    _, traces = pinned
    for trace in traces:
        for _, state in trace.snapshots:
            assert parse_state(format_state(state)) == state


def test_a_step_builds_the_items_that_state_make_would(machines):
    # The step builds its successor's items in an order fixed at admission,
    # with neither a sort nor a check; State.make sorts and checks. Every
    # state the runs reach is stepped with and without a footprint memo.
    for name, elements, steps in RUNS:
        vm = machines[name]
        budget = Budget(maxSuccessorStepsPerSegment=steps, maxLimitJumps=2, snapshotPolicy="all")
        trace = run(vm, OrdinalSet.finite(elements), budget)
        domain = domain_for(vm.kappa)
        for transition in (vm._transition, _memoised(vm)._transition):
            for _, state in trace.snapshots:
                successor = _step(transition, state, domain)
                assert successor.items == State.make(state.kappa, dict(successor.items)).items
                assert hash(successor) == hash(parse_state(format_state(successor)))
