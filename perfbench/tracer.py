"""Span tracing of gseqa layers, installed from outside the package.

Each traced function is replaced, in every gseqa module namespace that
binds it, by a wrapper that records a span: name, start, end and the
span that was open when it began. Spans stay in memory in flat arrays
and are written out once, at the end. Calls, inclusive time and self
time (inclusive time minus the time of child spans) are summed per
name as the spans close, so reports need no second pass.
"""

from __future__ import annotations

import sys
from array import array

# (module, function, modules whose binding is replaced). None replaces
# every gseqa binding of the function; the static analyses are traced
# only where `satisfaction` calls them, which leaves their own recursion
# unwrapped.
LAYERS = [
    ("logic", "free_vars", ("satisfaction",)),
    ("logic", "quantifier_rank", ("satisfaction",)),
    ("logic", "ordinal_literals", ("satisfaction",)),
    ("satisfaction", "defined_set", None),
    ("satisfaction", "defined_relation", None),
    ("satisfaction", "sat", None),
    ("satisfaction", "sat2", None),
    ("satisfaction", "threshold_bound", None),
    ("validator", "apply_transition", None),
    ("validator", "check_machine", None),
    ("runtime", "run", None),
    ("runtime", "limit_state", None),
    ("runtime", "classify_tail", None),
    ("runtime", "dump_trace", None),
    ("transforms", "parse_tm", None),
    ("transforms", "compile_tm", None),
    ("transforms", "compose", None),
    ("transforms", "flip", None),
    ("transforms", "lift", None),
    ("transforms", "dovetail", None),
    ("specfiles", "parse_machine", None),
    ("specfiles", "format_machine", None),
    ("alpharef", "parse_alpha_program", None),
    ("alpharef", "run_alpha_machine", None),
    ("alpharef", "simulate_alpha_as_gseqap", None),
]


class Tracer:
    def __init__(self, now, observers=None):
        self.now = now
        self.names = [f"{mod}.{fn}" for mod, fn, _ in LAYERS]
        self.calls = [0] * len(LAYERS)
        self.total = [0.0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[list] = []  # [span id, child time] per open span
        self._observers = observers or {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        tracer = self
        now = self.now
        observe = self._observers.get(self.names[idx])

        def traced(*args, **kwargs):
            stack = tracer._open
            parent = stack[-1][0] if stack else -1
            span = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(parent)
            frame = [span, 0.0]
            stack.append(frame)
            start = now()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                took = end - start
                tracer.span_end[span] = end
                tracer.calls[idx] += 1
                tracer.total[idx] += took
                tracer.self_s[idx] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "gseqa" or name.startswith("gseqa.")}
        for idx, (mod, fn, sites) in enumerate(LAYERS):
            original = getattr(modules[f"gseqa.{mod}"], fn)
            wrapper = self._wrap(idx, original)
            targets = modules.values() if sites is None else [modules[f"gseqa.{s}"] for s in sites]
            for module in targets:
                if getattr(module, fn, None) is original:
                    setattr(module, fn, wrapper)
                    self._patched.append((module, fn, original))

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._patched):
            setattr(module, fn, original)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """Calls, inclusive seconds and self seconds per layer so far."""
        return {n: (c, t, s) for n, c, t, s in zip(self.names, self.calls, self.total, self.self_s)}

    def write_spans(self, path) -> int:
        """Write every span as `id name start end parent` lines; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                fh.write(f"{i}\t{self.names[n]}\t{s:.9f}\t{e:.9f}\t{p}\n")
        return len(self.span_start)


def diff(after: dict, before: dict) -> dict[str, tuple[int, float, float]]:
    return {n: tuple(a - b for a, b in zip(after[n], before[n])) for n in after}
