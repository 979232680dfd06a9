"""Span tracing of the library's layers, installed from outside.

Each layer is one module of ``logtoric``.  ``Tracer.install`` replaces
every public function of a layer, in every ``logtoric`` module namespace
that holds it (``from .lattice import kernel`` copies the function into
the importing module), by a wrapper that records a span (name, start,
end, parent).  Spans stay in memory until the problem ends; ``fold``
then turns them into per-function call counts and self times (span
duration minus the time its child spans cover).  ``remove`` restores
the original functions.

Calls from a module to its own private helpers are not spans, so a
helper's time counts as its public caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "serialize", "toric_chart", "log_morphism", "base_change",
          "monoid", "cone", "lattice")

# Vector arithmetic that costs less per call than a span does; tracing it
# would mostly measure the tracer.  Its time is its caller's self time.
UNTRACED = {
    "lattice": {"dot", "vec_add", "vec_sub", "vec_scale", "vec_neg",
                "is_zero", "content", "primitive"},
    "monoid": {"dominates"},
}

# Functions whose result length is recorded as `<name>.returned`.
COUNT_RETURNED = {"cone.faces"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.returned: Counter = Counter()
        self.root_s = 0.0
        self._bindings = self._patches()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        returned = self.returned if name in COUNT_RETURNED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if returned is not None:
                returned[name] += len(result)
            return result

        return traced

    def _patches(self):
        """(module, attribute, original, wrapper) for every binding of a
        traced function in a logtoric module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"logtoric.{layer}")
            skip = UNTRACED.get(layer, set())
            for attr, fn in vars(module).items():
                public = not attr.startswith("_") and attr not in skip
                if public and inspect.isfunction(fn) \
                        and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        patches = []
        for name, module in list(sys.modules.items()):
            if name != "logtoric" and not name.startswith("logtoric."):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((module, attr, value, wrappers[value]))
        return patches

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def fold(self):
        """Add the spans recorded since the last fold to the totals."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent < 0:
                self.root_s += end - start
            else:
                covered[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - covered[index]
        self.spans.clear()

    def layer_totals(self):
        """(calls, self seconds) per layer."""
        calls, self_s = Counter(), defaultdict(float)
        for name, n in self.calls.items():
            layer = name.split(".")[0]
            calls[layer] += n
            self_s[layer] += self.self_s[name]
        return calls, self_s
