"""Call-boundary tracing from outside the program.

:class:`Tracer` replaces a layer's public function, at the name the
program calls it by, with a wrapper that records one span per call:
name, start, end and parent.  A span's *self time* is its duration minus
its children's.  Optional hooks turn a call's arguments and result into
counts (blocks mapped, bytes emitted, cache hits); the time hooks take
is excluded from every open span and from the operation being timed, so
bookkeeping never shows up as layer time.

Single-threaded by design: the traced workloads call the library from
one thread (the ``server-mix`` layers come from job timestamps instead).
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import perf

#: hook(result, args, kwargs) -> {count metric: sample}
Hook = Callable[[object, tuple, dict], Dict[str, float]]
#: scale(moment) -> factor applied to a span that started at ``moment``
Scale = Callable[[float], float]


def _unscaled(moment: float) -> float:
    return 1.0


@dataclass(frozen=True)
class Layer:
    """One wrapped function and the per-layer metric its self time feeds."""

    target: str  # "module:attr" or "module:Class.method"
    metric: str
    hook: Optional[Hook] = None


class _Open:
    __slots__ = ("index", "excluded")

    def __init__(self, index: int) -> None:
        self.index = index
        self.excluded = 0.0


class Tracer:
    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)
        #: (metric, start, end, parent index or -1); end already net of
        #: excluded hook time.
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, List[float]] = {}
        #: Hook time spent so far (subtracted from operation walls).
        self.excluded = 0.0
        self._stack: List[_Open] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def install(self) -> "Tracer":
        for layer in self.layers:
            module_name, _, path = layer.target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, layer: Layer):
        spans = self.spans
        stack = self._stack
        metric = layer.metric
        hook = layer.hook

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1].index if stack else -1
            index = len(spans)
            spans.append((metric, 0.0, 0.0, parent))
            frame = _Open(index)
            stack.append(frame)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (metric, start, end - frame.excluded, parent)
                # A child's excluded time is excluded from its parents too.
                if stack and frame.excluded:
                    stack[-1].excluded += frame.excluded
            if hook is not None:
                hook_start = perf()
                for name, value in hook(result, args, kwargs).items():
                    self.counts.setdefault(name, []).append(value)
                spent = perf() - hook_start
                self.excluded += spent
                if stack:
                    stack[-1].excluded += spent
            return result

        return traced

    # -- aggregation ------------------------------------------------------
    def self_times(self, scale: Scale = _unscaled) -> Dict[str, float]:
        """Total self seconds per metric name; ``scale(start)`` converts a
        span's seconds to reference host speed."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {layer.metric: 0.0 for layer in self.layers}
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += ((end - start) - child_time[index]) * scale(start)
        return totals

    def covered(self, scale: Scale = _unscaled) -> float:
        """Seconds covered by root spans (calls made by the benchmark)."""
        return sum(
            (end - start) * scale(start)
            for _, start, end, parent in self.spans
            if parent < 0
        )

    def mean_count(self, name: str) -> float:
        samples = self.counts.get(name, [])
        return sum(samples) / len(samples) if samples else 0.0

    def total_count(self, name: str) -> float:
        return float(sum(self.counts.get(name, [])))
