"""Span tracing of grainkit's public functions, from outside the package.

The tracer replaces each public function of the traced modules with a
wrapper, in the defining module and in every grainkit module that
imported it by name (``grain`` holds its own ``run`` and
``map_initial_state``, ``transform`` its own ``step`` and ``evaluate``),
so no call path slips past it.  ``uninstall`` puts the originals back.

Each call's self time is its duration minus the time spent in traced
calls it made.  Spans stay in memory and are written out by the caller
at the end.  Functions called once per simulated cycle or per evaluated
term are only aggregated into counts and totals: a span each would cost
more memory than the work they describe.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "bits", "specfile", "grain", "variants", "engine", "transform", "anf")
AGGREGATE_ONLY = frozenset(
    {
        "engine.step",
        "engine.output_values",
        "engine.shift_expr",
        "anf.evaluate",
        "anf.remap_indices",
        "anf.term_sort_key",
        "anf.xor_merge",
        "transform.feedback_tail",
        "transform.terminal_bit",
    }
)
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (request, id, parent, name, start, end, self_s)
        self.request = 0
        self._stack: list[list] = []  # per open call: [child_s, span id]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()

    def stat(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])

    def _wrap(self, name: str, fn):
        stats = self.stats
        stack = self._stack
        spans = self.spans
        keep = name not in AGGREGATE_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                own = took - frame[0]
                if stack:
                    stack[-1][0] += took
                row = stats.get(name)
                if row is None:
                    row = stats[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += took
                row[2] += own
                if keep and len(spans) < SPAN_CAP:
                    spans.append((self.request, span_id, parent, name, start, end, own))

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn`` as a top-level request with its own span."""
        self.request += 1
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "grainkit" or n.startswith("grainkit.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"grainkit.{layer}")
            if module is None:
                continue  # never imported, so never called
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_table(self) -> dict[str, dict]:
        return {
            name: {
                "calls": calls,
                "total_s": total,
                "self_s": own,
                "us_per_call": own / calls * 1e6 if calls else 0.0,
            }
            for name, (calls, total, own) in sorted(self.stats.items())
        }
