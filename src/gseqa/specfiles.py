"""Reading and writing machine descriptions as plain text.

A machine file carries six sections.  Single-line sections use a colon
(kappa, flavor), listing sections use a colon followed by indented
entries (signature, params), and the witness sections wrap their entries
in braces (default, tau) with one `Symbol: formula` entry per line.
Anything else at the top level is an unknown section and is rejected
rather than skipped, so typos fail loudly.
"""

from __future__ import annotations

from .errors import ArityMismatch, ParseError
from .logic import Signature, SymbolDecl, format_formula, parse_formula
from .ordinals import OrdinalNotation, parse_ordinal
from .validator import GSEQA, GSEQAP, MachineSpec

__all__ = ["format_machine", "parse_machine"]

_KINDS = ("Relation", "Constant")


def _entry(line: str, lineno: int) -> tuple[str, str]:
    head, sep, tail = line.partition(":")
    if not sep or not head.strip():
        raise ParseError(f"line {lineno}: expected 'name: ...', got {line!r}")
    return head.strip(), tail.strip()


def parse_machine(text: str) -> MachineSpec:
    """Parse a machine file into an unvalidated MachineSpec."""
    kappa: OrdinalNotation | None = None
    flavor: str | None = None
    decls: list[SymbolDecl] = []
    params: dict[str, OrdinalNotation] = {}
    witnesses: dict[str, list[tuple[int, str, str]]] = {"default": [], "tau": []}
    section: str | None = None
    brace: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if brace is not None:
            if line.strip() == "}":
                brace = None
                continue
            name, body = _entry(line.strip(), lineno)
            witnesses[brace].append((lineno, name, body))
            continue
        indented = line[0] in " \t"
        line = line.strip()
        if not indented:
            section = None
            key, _, rest = line.partition(":")
            key = key.strip()
            rest = rest.strip()
            if line.endswith("{"):
                key = line[:-1].strip()
                if key not in ("default", "tau"):
                    raise ParseError(f"line {lineno}: unknown section {key!r}")
                brace = key
                continue
            if {"kappa": kappa, "flavor": flavor}.get(key) is not None:
                raise ParseError(f"line {lineno}: second '{key}:' line")
            if key == "kappa":
                try:
                    kappa = parse_ordinal(rest)
                except (ParseError, ValueError) as exc:
                    raise ParseError(f"line {lineno}: {exc}") from exc
            elif key == "flavor":
                if rest not in (GSEQA, GSEQAP):
                    raise ParseError(f"line {lineno}: flavor must be {GSEQA} or {GSEQAP}")
                flavor = rest
            elif key in ("signature", "params"):
                if rest:
                    raise ParseError(f"line {lineno}: {key} entries go on indented lines")
                section = key
            else:
                raise ParseError(f"line {lineno}: unknown section {key!r}")
            continue
        if section == "signature":
            name, kind = _entry(line, lineno)
            kind, _, arity = kind.partition("/")
            if kind not in _KINDS:
                raise ParseError(f"line {lineno}: symbol kind must be one of {_KINDS}")
            try:
                decls.append(SymbolDecl(name, kind, int(arity) if arity else 0))
                Signature(decls)  # the signature so far, so that a clash names its line
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        elif section == "params":
            name, eq, value = (part.strip() for part in line.partition("="))
            if not eq or not name:
                raise ParseError(f"line {lineno}: expected 'name = ordinal'")
            if name in params:
                raise ParseError(f"line {lineno}: duplicate parameter {name!r}")
            try:
                params[name] = parse_ordinal(value)
            except (ParseError, ValueError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        else:
            raise ParseError(f"line {lineno}: indented line outside a section")

    if brace is not None:
        raise ParseError(f"unterminated {brace} section")
    for field, value in (("kappa", kappa), ("flavor", flavor)):
        if value is None:
            raise ParseError(f"machine file is missing its {field} section")
    sigma = Signature(decls)

    parsed: dict[str, dict[str, object]] = {"default": {}, "tau": {}}
    for kind in ("default", "tau"):
        for lineno, name, body in witnesses[kind]:
            if name in parsed[kind]:
                raise ParseError(f"line {lineno}: duplicate {kind} witness for {name!r}")
            if name not in sigma:
                raise ParseError(f"line {lineno}: witness for undeclared symbol {name!r}")
            try:
                parsed[kind][name] = parse_formula(body, sigma)
            except (ParseError, ArityMismatch) as exc:
                raise type(exc)(f"line {lineno} ({name}): {exc}") from exc

    assert kappa is not None and flavor is not None
    return MachineSpec(
        kappa=kappa,
        sigma=sigma,
        flavor=flavor,
        params=params,
        tauWitnesses=parsed["tau"],
        defaultWitnesses=parsed["default"],
    )


def format_machine(spec: MachineSpec) -> str:
    """Render a MachineSpec so parse_machine reads back an equal one."""
    lines = [f"kappa: {spec.kappa}", f"flavor: {spec.flavor}", "signature:"]
    for d in spec.sigma.extras():
        suffix = f"/{d.arity}" if d.kind != "Constant" else ""
        lines.append(f"  {d.name}: {d.kind}{suffix}")
    if spec.params:
        lines.append("params:")
        for name in sorted(spec.params):
            lines.append(f"  {name} = {spec.params[name]}")
    for kind, table in (("default", spec.defaultWitnesses), ("tau", spec.tauWitnesses)):
        lines.append(kind + " {")
        for name, body in table.items():
            lines.append(f"  {name}: {format_formula(body)}")
        lines.append("}")
    return "\n".join(lines) + "\n"
