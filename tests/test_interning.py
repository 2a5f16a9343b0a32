"""The interned transition table against walks of the witness trees.

Admission interns each witness in one pass and runs its checks on the
table's distinct nodes. For every machine the acceptance tests and
tests/test_transforms.py admit, each interned body's static facts, each
part's footprint and literal top, and the table's size must be what
walks of the printed and reparsed trees give.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from gseqa.alpharef import parse_alpha_program, simulate_alpha_as_gseqap
from gseqa.logic import (
    MEMBERSHIP,
    OrdinalLiteral,
    Signature,
    SymbolDecl,
    format_formula,
    nodes,
    parse_formula,
    static_facts,
    symbol_refs,
)
from gseqa.ordinals import OMEGA, OrdinalNotation, parse_ordinal
from gseqa.specfiles import parse_machine
from gseqa.transforms import TmSpec, compile_tm, compose, dovetail, flip, lift
from gseqa.satisfaction import Interned
from gseqa.validator import GSEQAP, MachineSpec, _collect_default, _collect_tau, check_machine
from test_logic import reference_facts
from tm_tools import EVEN_HALTING, WRITER, generated_halting_tms

# criterion 7's machines
COUNTER = (
    "kappa: w\nflavor: gseqa\nsignature:\n  h: Constant\ndefault {\n  h: x = 0\n}\n"
    "tau {\n  In: In(x)\n  Out: Out(x)\n"
    "  h: h < x & (forall y. (y < x -> (y < h | y = h)))\n}\n"
)
BITFLIP = "kappa: w\nflavor: gseqa\nsignature:\ndefault {\n}\ntau {\n  In: ~In(x)\n  Out: ~Out(x)\n}\n"
# criterion 9's programs are the benchmark's parity.apg and ask3.apg
INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _pinned() -> MachineSpec:
    """Criterion 8's pinned constant under the parameterized flavor."""
    sigma = Signature([SymbolDecl("h", "Constant")])
    tau = {"In": "In(x)", "Out": "Out(x)", "h": "x = h"}
    return MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQAP,
        params={"h": OrdinalNotation.from_int(3)},
        tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
        defaultWitnesses={"h": parse_formula("x = 3", sigma)},
    )


def _specs() -> dict[str, MachineSpec]:
    tables = [compile_tm(t) for t in generated_halting_tms()]
    writer, even = compile_tm(WRITER), compile_tm(EVEN_HALTING)
    writer6 = dataclasses.replace(writer, kappa=OrdinalNotation.from_int(6))
    specs = {f"table{i}": spec for i, spec in enumerate(tables)}
    specs.update({
        "compose01": compose(tables[0], tables[1]),
        "compose23": compose(tables[2], tables[3]),
        "compose40": compose(tables[4], tables[0]),
        "compose(01)2": compose(compose(tables[0], tables[1]), tables[2]),
        "compose0(12)": compose(tables[0], compose(tables[1], tables[2])),
        "writer": writer,
        "writer;writer": compose(writer, writer),
        "flip0": flip(tables[0]),
        "flipflip0": flip(flip(tables[0])),
        "flipwriter": flip(writer),
        "flipflipwriter": flip(flip(writer)),
        "writer6": writer6,
        "writer12": lift(writer6, 12),
        "writer w*2": lift(writer, parse_ordinal("w*2")),
        "even": even,
        "one state": compile_tm(TmSpec(("q0",), ())),
        "dovetail": dovetail(even),
        "counter": parse_machine(COUNTER),
        "bitflip": parse_machine(BITFLIP),
        "pinned": _pinned(),
        **{
            name: simulate_alpha_as_gseqap(parse_alpha_program((INPUTS / f"{name}.apg").read_text()))
            for name in ("parity", "ask3")
        },
    })
    return specs


SPECS = _specs()


@pytest.mark.parametrize("name", list(SPECS))
def test_the_interned_table_agrees_with_tree_walks(name):
    spec = SPECS[name]
    transition = check_machine(spec, allow_finite_kappa=spec.kappa.is_finite, sample_size=4)._transition
    distinct = set()
    for part in transition.parts:
        tree = parse_formula(format_formula(part.body), spec.sigma, doubled=True)
        assert tree == part.body
        assert static_facts(part.body) == reference_facts(tree)
        names = {sym for sym, _ in symbol_refs(tree)} - {MEMBERSHIP}
        assert part.footprint == tuple(sorted(names))
        distinct.update(nodes(tree))
    assert len(transition.interned) == len(distinct)


def test_each_part_keeps_its_largest_literal():
    seen = set()
    for spec in SPECS.values():
        tau, _ = _collect_tau(spec, Interned())
        defaults, _ = _collect_default(spec)
        for part in tau + defaults:
            finite = [
                n.value.to_int()
                for n in nodes(part.body)
                if isinstance(n, OrdinalLiteral) and n.value.is_finite
            ]
            assert part.literal_top == max(finite, default=0)
            seen.add(part.literal_top)
    assert len(seen) > 2
