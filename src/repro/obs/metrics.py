"""Metrics registry: counters, gauges, and timers with JSON export.

The registry is deliberately minimal — three metric families that cover
everything the synthesis flow and the simulators need to report:

- **counters** accumulate monotonically (``incr``): rule firings, channels
  inferred, simulation steps executed;
- **gauges** hold the last observed value (``gauge``): steps/second,
  block census, trace-link counts;
- **timers** aggregate duration observations (``observe`` /
  :meth:`MetricsRegistry.timer`): count, total, min, max, mean — every
  closed span feeds its duration here automatically, so per-pass timings
  appear in the metrics JSON without extra call-site code;
- **histograms** (``hist``) additionally retain a bounded reservoir of
  raw observations so tail latency (p50/p95/p99) can be reported — the
  batch server records per-job latency here (``server.job.latency``).

All values are plain floats/ints and the whole registry serializes with
:meth:`MetricsRegistry.to_json`, which is what ``repro --metrics-out``
writes and what ``benchmarks/conftest.py`` persists as ``BENCH_obs.json``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional


@dataclass
class TimerStat:
    """Aggregate of duration observations for one timer name (seconds)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one duration observation into the aggregate."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Average observed duration (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        """The aggregate as a JSON-ready mapping."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
        }


class HistogramStat:
    """Aggregate plus a bounded reservoir of raw observations.

    Exact ``count``/``total``/``min``/``max`` like :class:`TimerStat`;
    percentiles come from a reservoir capped at ``reservoir`` samples
    (uniform reservoir sampling beyond the cap), so a long-lived server
    can record millions of jobs in constant memory while p50/p95 stay
    statistically honest.
    """

    __slots__ = ("count", "total", "min", "max", "reservoir", "_samples", "_rng")

    def __init__(self, reservoir: int = 2048) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.reservoir = reservoir
        self._samples: List[float] = []
        self._rng = random.Random(0x5EED)  # reproducible sampling

    def observe(self, value: float) -> None:
        """Fold one observation into the aggregate and the reservoir."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.reservoir:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        """Average observed value (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the reservoir, interpolated.

        Well-defined on every input: an empty reservoir answers 0.0, a
        single-sample reservoir answers that sample for every ``q``, and
        ``q`` outside [0, 1] is clamped to the nearest bound — never an
        index error, never an extrapolation past the observed min/max.
        """
        return _interpolate(sorted(self._samples), q)

    def fraction_over(self, threshold: float) -> float:
        """Fraction of reservoir samples strictly above ``threshold``.

        This is the violation estimator the SLO engine uses: with a
        uniform reservoir the sample fraction is an unbiased estimate of
        the true fraction of *all* observations over the bound.  An empty
        reservoir answers 0.0 (no observations, no violations).
        """
        if not self._samples:
            return 0.0
        over = sum(1 for value in self._samples if value > threshold)
        return over / len(self._samples)

    def to_dict(self) -> Dict[str, float]:
        """The aggregate (with p50/p95/p99) as a JSON-ready mapping.

        The reservoir is sorted once for all three percentiles.
        """
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": _interpolate(ordered, 0.50),
            "p95": _interpolate(ordered, 0.95),
            "p99": _interpolate(ordered, 0.99),
        }


def _interpolate(ordered: List[float], q: float) -> float:
    """The ``q``-quantile of already-sorted samples (see ``percentile``)."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    q = min(1.0, max(0.0, q))
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


class _Timer:
    """Context manager recording one wall-clock observation on exit."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._registry.observe(self._name, time.perf_counter() - self._start)
        return False


class MetricsRegistry:
    """Named counters, gauges, and timers with a JSON snapshot.

    Names are dotted paths by convention (``optimize.channels.intra``,
    ``simulink.sim.steps_per_sec``); the documented key set lives in
    ``docs/observability.md``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, TimerStat] = {}
        self._histograms: Dict[str, HistogramStat] = {}
        self._tracked: set = set()
        # Writes are read-modify-write on shared dicts/stats; the batch
        # server observes from many worker threads into one registry, so
        # every write path takes this (uncontended-cheap) lock.
        self._lock = threading.Lock()

    # -- writing ----------------------------------------------------------
    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest observed value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation on the named timer.

        Names registered with :meth:`track_percentiles` are additionally
        mirrored into a histogram of the same name, so tail latency of a
        timer-instrumented stage (e.g. ``flow.synthesize``) becomes
        available to the SLO engine without re-instrumenting call sites.
        """
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.observe(seconds)
            if name in self._tracked:
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = HistogramStat()
                hist.observe(seconds)

    def timer(self, name: str) -> _Timer:
        """Context manager timing its body into the named timer."""
        return _Timer(self, name)

    def hist(self, name: str, value: float) -> None:
        """Record one observation on the named histogram."""
        with self._lock:
            stat = self._histograms.get(name)
            if stat is None:
                stat = self._histograms[name] = HistogramStat()
            stat.observe(value)

    def track_percentiles(self, names: Iterable[str]) -> None:
        """Mirror future ``observe`` calls on ``names`` into histograms.

        The SLO engine calls this for latency targets whose source is a
        timer-backed span name; observations recorded *before* tracking
        started are not recoverable (timers keep no reservoir).
        """
        with self._lock:
            self._tracked.update(names)

    # -- reading ----------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of a counter (0.0 when never incremented)."""
        return self._counters.get(name, 0.0)

    def gauge_value(self, name: str) -> Optional[float]:
        """Latest value of a gauge, or ``None`` when never set."""
        return self._gauges.get(name)

    def timer_stat(self, name: str) -> Optional[TimerStat]:
        """Aggregate for a timer, or ``None`` when never observed."""
        return self._timers.get(name)

    def histogram_stat(self, name: str) -> Optional[HistogramStat]:
        """Aggregate for a histogram, or ``None`` when never observed."""
        return self._histograms.get(name)

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._timers)
            + len(self._histograms)
        )

    def to_dict(self) -> Dict[str, Any]:
        """Snapshot: counters, gauges, timers, and histograms."""
        with self._lock:
            snapshot: Dict[str, Any] = {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "timers": {
                    name: stat.to_dict()
                    for name, stat in sorted(self._timers.items())
                },
            }
            if self._histograms:
                snapshot["histograms"] = {
                    name: stat.to_dict()
                    for name, stat in sorted(self._histograms.items())
                }
        return snapshot

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str) -> None:
        """Write the JSON snapshot to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
