"""Spans around the public functions of shormeter's six modules.

The tracer wraps each function listed in a module's ``__all__`` from the
outside and rebinds the wrapper at every binding site: the defining module,
the package's re-exports, and every ``from``-import in sibling modules (the
CLI binds ``recover_order``, ``extract_factors`` and ``register_sizes`` that
way).  Spans stay in memory as (name, start, end, parent, op id) and are
written out once the run ends.  Nothing here changes what a function
returns.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

PACKAGE = "shormeter"
LAYERS = ("cli", "numtheory", "statevec", "measures", "entanglement", "theorems")

GATES = ("apply_hadamard_layer", "apply_modexp_unitary", "apply_inverse_qft_A", "apply_qft_A")
PURE_MEASURES = ("tsallis_coherence_pure", "l1p_coherence_pure", "geometric_coherence_pure")


def _first_arg(args: tuple, kwargs: dict, key: str):
    return args[0] if args else kwargs[key]


def _amps_read(args, kwargs, result) -> tuple[str, int]:
    return "measures.amps_read", int(getattr(_first_arg(args, kwargs, "state"), "size", 0))


def _amps_touched(args, kwargs, result) -> tuple[str, int]:
    return "statevec.amps_touched", _first_arg(args, kwargs, "state").layout.dim


def _order_hit(args, kwargs, result) -> tuple[str, int]:
    return "numtheory.order_hits", int(result is not None)


# Computed counts taken at the same boundaries as the spans.
COUNTERS: dict[str, Callable] = {
    **{f"measures.{name}": _amps_read for name in PURE_MEASURES},
    **{f"statevec.{name}": _amps_touched for name in GATES},
    "numtheory.recover_order": _order_hit,
}


class Tracer:
    """Records spans and counts while installed; uninstalling restores the code."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # exceptions leaving a layer, by layer
        self.op_id: Optional[int] = None
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.sites = 0  # binding sites rewritten by the last install

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, counts, errors = self.spans, self._stack, self.counts, self.errors
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                if not stack or stack[-1][1] != layer:
                    errors[layer] += 1
                spans[index] = (name, start, clock(), parent, self.op_id)
                raise
            spans[index] = (name, start, clock(), parent, self.op_id)
            stack.pop()
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                counts[key] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every public function and rebind it wherever it is bound."""
        if self._patches:
            return
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self.sites = len(self._patches)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per function name over all recorded spans.

        Self time is a span's duration minus the durations of its direct
        children, which is the part of the interval no child covers.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
        return dict(calls), dict(self_s)

    def write(self, path: str) -> None:
        """Spans as JSON lines: [name, start_s, end_s, parent_index, op_id]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
