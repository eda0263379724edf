"""Spans around the program's public functions, recorded from outside it.

Modules bind each other's functions with ``from .x import f``, so wrapping a
function means rebinding every name in every ``disclosuregame`` module that
refers to it; ``uninstall`` restores them all.  A function missing from the
program (renamed or deleted later) is skipped and reports zero calls.

Spans stay in memory as tuples ``(op, parent, name, start, end, outcome)``,
where ``parent`` is the index of the enclosing span (-1 for a root) and
``outcome`` is what ``OUTCOMES`` extracts from the result (None otherwise).
A span's self time is its duration minus the durations of its children; calls
are synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Wrapped functions, by module.  step_eval and the IntervalUnion methods are
# left out on purpose: they run too often for an outside wrapper to stay
# cheap, and their cost lands in their callers' self time.
TARGETS = {
    "verifiability": ("max_min_available", "skeptical_type_map", "messages_at"),
    "piecewise": ("upper_hull_points", "cav", "contact_set"),
    "equilibrium": (
        "skeptical_value", "value_hull", "equilibrium_value", "pnbp", "solve",
        "verify_equilibrium", "w_beta_step",
    ),
    "oracle": ("critical_grid", "best_deviation", "exhaustive_search", "discrete_cav"),
    "comparative": ("geq_lc", "geq_sep", "separating_instance"),
    "gamefile": ("load_game", "load_structure", "equilibrium_to_obj"),
    "figures": ("render_game_svg",),
    "cli": ("main",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
OUTCOMES = {"equilibrium.verify_equilibrium": lambda report: bool(report.ok)}
PACKAGE = "disclosuregame"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, parent, name, start, end,
                              outcome(result) if outcome and result is not None else None)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == PACKAGE]
        for name in NAMES:
            mod, fn_name = name.split(".")
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._saved):
            setattr(m, attr, value)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its child spans cover."""
    out = [end - start for (_, _, _, start, end, _) in spans]
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def write_spans(spans, path) -> None:
    """One tab-separated line per span: index, op, parent, name, start, end, outcome."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\top\tparent\tname\tstart_s\tend_s\toutcome\n")
        for i, (op, parent, name, start, end, outcome) in enumerate(spans):
            fh.write(f"{i}\t{op}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{'' if outcome is None else int(outcome)}\n")
