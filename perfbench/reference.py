"""Independent references for the machine workloads.

Nothing here goes through formulas, states or the gseqa table types: a
rule table is a plain dict read from the same text the system parses, and
a run is a loop over a Python set. Step semantics match the compiled
machines: the head starts at cell 0, a left move at the edge stays put,
and a run halts when it enters the final state.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

_ROW = re.compile(r"\(\s*(\w+)\s*,\s*([01])\s*\)\s*->\s*\(\s*(\w+)\s*,\s*([01])\s*,\s*([LR])\s*\)")


@dataclass(frozen=True)
class Table:
    """A rule table: (state, bit) -> (state, bit, move)."""

    initial: str
    final: str
    rules: dict

    def text(self) -> str:
        """The table in the `.tm` format that gseqa's parse_tm reads."""
        names = [self.initial] + sorted({q for q, _ in self.rules} - {self.initial}) + [self.final]
        lines = [f"states: {' '.join(names)}", f"initial: {self.initial}", f"final: {self.final}"]
        for (q, b), (t, w, m) in sorted(self.rules.items()):
            lines.append(f"({q}, {b}) -> ({t}, {w}, {m})")
        return "\n".join(lines) + "\n"


def read_table(text: str) -> Table:
    """Read a `.tm` file without gseqa: header lines and move rows."""
    header = {}
    rules = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        row = _ROW.fullmatch(line)
        if row:
            rules[row[1], int(row[2])] = (row[3], int(row[4]), row[5])
        else:
            key, _, value = line.partition(":")
            header[key.strip()] = value.split()
    return Table(header["initial"][0], header["final"][0], rules)


def simulate(table: Table, tape: set, cap: int) -> tuple[int | None, frozenset]:
    """Run from cell 0: (steps to halt or None within cap, final tape)."""
    cells = set(tape)
    head = 0
    q = table.initial
    for n in range(cap + 1):
        if q == table.final:
            return n, frozenset(cells)
        if n == cap:
            break
        q, write, move = table.rules[q, 1 if head in cells else 0]
        if write:
            cells.add(head)
        else:
            cells.discard(head)
        head = head + 1 if move == "R" else max(head - 1, 0)
    return None, frozenset(cells)


def dovetail_rounds(table: Table, steps: int) -> int:
    """Rounds the dovetailer of `table` completes within `steps` stages.

    A model of the schedule that `gseqa.transforms.dovetail` documents:
    one start-up stage, then per candidate one stage to load it, one per
    table step (at most the round number), and one to move on. Round r
    tries the least unfinished candidate and then each unfinished one up
    to r; a candidate that halts joins the finished set for good.
    """
    used = 1
    finished: set[int] = set()
    r = 1
    cand = 0
    while True:
        halt, _ = simulate(table, {cand}, r)
        used += 2 + (r if halt is None else halt)
        if used > steps:
            return r - 1
        if halt is not None:
            finished.add(cand)
        later = [y for y in range(cand + 1, r + 1) if y not in finished]
        if later:
            cand = later[0]
        else:
            r += 1
            cand = next(y for y in itertools.count() if y not in finished)
