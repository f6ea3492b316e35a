"""Shared plumbing: statistics, set-up timing, memory, digests, outcomes.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5

perf = time.perf_counter


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` and no
    ``REPRO_*`` overrides, so every run uses the program's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (NumPy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_summary(values_s: Sequence[float], tail_pct: float) -> Dict[str, float]:
    """Median and ``tail_pct`` percentile of per-operation latencies (ms).

    Each workload fixes its tail percentile (its module says why), so the
    same percentile is compared across runs.  The number of samples
    actually beyond it is reported with it.
    """
    ms = [v * 1e3 for v in values_s]
    return {
        "p50_ms": statistics.median(ms),
        "tail_ms": percentile(ms, tail_pct),
        "tail_pct": tail_pct,
        "samples": len(ms),
        "beyond_tail": int(len(ms) * (100.0 - tail_pct) / 100.0),
    }


# -- host speed ---------------------------------------------------------------
#
# The host's speed drifts: on the 2-core host this benchmark was built on,
# a fixed workload took anywhere from 22 to 31 ms within one minute, in
# regimes lasting tens of seconds.  Every timed operation is therefore
# normalized to a reference host speed: a fixed slice of interpreter work
# that belongs to the benchmark (ElementTree parsing, dict and list
# building -- the same kind of work the program does, but none of its
# code) is timed every half second, and a time measured at moment ``t``
# is scaled by ``REFERENCE_SLICE_S / (slice time near t)``.  The raw,
# unscaled figures are printed in the run's context line.

#: Median slice time on the host the benchmark was defined on.
REFERENCE_SLICE_S = 0.0027

_SLICE_XML = "<doc>" + "".join(
    f'<item id="i{i}" kind="k{i % 7}" weight="{i * 0.5}">text {i}</item>'
    for i in range(400)
) + "</doc>"


def _calibration_slice() -> int:
    """A fixed slice of interpreter work independent of the program."""
    root = ET.fromstring(_SLICE_XML)
    index = {el.get("id"): (el.get("kind"), float(el.get("weight"))) for el in root}
    rows = [{"id": key, "w": value[1], "tags": [value[0], key]} for key, value in index.items()]
    return len(rows) + sum(len(ET.tostring(el)) for el in root[:50])


def _fastest(burst: int) -> float:
    best = float("inf")
    for _ in range(burst):
        begin = perf()
        _calibration_slice()
        best = min(best, perf() - begin)
    return best


class Calibration:
    """Host-speed samples: ``(moment, slice seconds)`` every ``interval``."""

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []
        self.next_sample = 0.0

    def sample(self, burst: int = 2) -> None:
        """Time ``burst`` slices back to back and keep the fastest, which
        a momentary preemption cannot inflate."""
        start = perf()
        self.samples.append((start, _fastest(burst)))
        self.next_sample = perf() + self.interval

    def maybe(self) -> None:
        """Take a sample if ``interval`` has passed since the last one."""
        if perf() >= self.next_sample:
            self.sample()

    def factor(self, moment: float) -> float:
        """Scale factor to reference speed at ``moment``, from the two
        samples on each side of it.  (Wider windows, or one factor for the
        whole run, tracked the host's swings worse.)"""
        if not self.samples:
            self.sample()
        at = bisect.bisect(self.samples, (moment, 0.0))
        return self.factor_of(self.samples[max(0, at - 2) : at + 2])

    @staticmethod
    def factor_of(samples: Sequence[Tuple[float, float]]) -> float:
        return REFERENCE_SLICE_S / statistics.median(d for _, d in samples)

    def median_slice(self) -> float:
        return statistics.median(d for _, d in self.samples) if self.samples else 0.0


# -- set-up and memory ------------------------------------------------------


def import_probe(modules: Iterable[str]) -> None:
    """Import ``modules`` in a fresh interpreter.

    A user of the flow pays interpreter start-up and imports on every CLI
    invocation, so each set-up repetition includes one probe: work moved
    to import time shows in ``setup_s``.
    """
    code = "".join(f"import {name}\n" for name in modules)
    subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=str(ROOT),
        check=True,
        timeout=120,
    )


def repeated_setup(
    build: Callable[[], object], calibration: "Calibration", reps: int = SETUP_REPS
):
    """Run ``build`` ``reps`` times; ``(median normalized seconds, median
    raw seconds, last result)``."""
    raw: List[float] = []
    starts: List[float] = []
    result = None
    for _ in range(reps):
        calibration.sample()
        start = perf()
        result = build()
        raw.append(perf() - start)
        starts.append(start)
    calibration.sample()
    scaled = [t * calibration.factor(s) for t, s in zip(raw, starts)]
    return statistics.median(scaled), statistics.median(raw), result


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- digests ----------------------------------------------------------------


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def float_bits(samples: Sequence[float]) -> bytes:
    """Exact IEEE-754 bytes of a sample list (sign of zero, NaN payload)."""
    return array("d", samples).tobytes()


def episode_digest(result) -> str:
    """Bit-exact digest of one :class:`SimulationResult`."""
    hasher = hashlib.sha256(str(result.steps).encode("ascii"))
    for group in (result.outputs, result.signals):
        for name in sorted(group):
            hasher.update(name.encode("utf-8") + b"\0")
            hasher.update(float_bits(group[name]))
    for name in sorted(result.scopes):
        hasher.update(name.encode("utf-8") + b"\0")
        hasher.update(repr(result.scopes[name]).encode("utf-8"))
    return hasher.hexdigest()


def combined(entries: Dict[str, str]) -> str:
    """One digest over a ``name -> digest`` mapping."""
    return sha("\n".join(f"{k} {entries[k]}" for k in sorted(entries)))


def matched_overhead_ms(traced: Dict[str, List[float]], plain: Dict[str, List[float]]) -> float:
    """Tracing overhead per operation: traced minus untraced mean wall of
    the same input, averaged over inputs timed both ways (the halves of a
    traced run cover different parts of the corpus)."""
    common_keys = [key for key in traced if key in plain]
    if not common_keys:
        return 0.0
    return 1e3 * statistics.fmean(
        statistics.fmean(traced[key]) - statistics.fmean(plain[key])
        for key in common_keys
    )


class Ops:
    """Timed operations: ``(key, start, seconds)`` as measured."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float]] = []
        self.failures = 0

    def add(self, key: str, start: float, seconds: float) -> None:
        self.records.append((key, start, seconds))

    def attempted(self) -> int:
        return len(self.records) + self.failures

    def walls(self, calibration: Optional["Calibration"] = None) -> List[float]:
        """Seconds per operation, scaled to reference host speed when a
        ``calibration`` is given."""
        if calibration is None:
            return [seconds for _, _, seconds in self.records]
        return [seconds * calibration.factor(start) for _, start, seconds in self.records]

    def by_key(self, calibration: "Calibration") -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for (key, _, _), wall in zip(self.records, self.walls(calibration)):
            grouped.setdefault(key, []).append(wall)
        return grouped


#: Throughput is the median over this many consecutive chunks of a run,
#: so a few seconds of a slow host spell move it less.
CHUNKS = 5


def chunked_rate(walls: Sequence[float], chunks: int = CHUNKS) -> float:
    """Median over consecutive chunks of operations per busy second."""
    size = max(1, len(walls) // chunks)
    rates = [
        len(walls[i : i + size]) / sum(walls[i : i + size])
        for i in range(0, size * chunks, size)
        if walls[i : i + size]
    ]
    return statistics.median(rates)


def put_e2e(outcome: "Outcome", ops: Ops, tail_pct: float) -> None:
    """Throughput, median and tail over ``ops``: scaled to reference
    speed as metrics, and as measured in the context line."""
    for label, walls in (("raw", ops.walls()), ("scaled", ops.walls(outcome.calibration))):
        summary = latency_summary(walls, tail_pct)
        values = {
            "throughput_per_s": chunked_rate(walls),
            "p50_ms": summary["p50_ms"],
            "tail_ms": summary["tail_ms"],
        }
        if label == "raw":
            outcome.context["raw"] = values
            for key in ("tail_pct", "samples", "beyond_tail"):
                outcome.context[key] = summary[key]
        else:
            for name, value in values.items():
                outcome.put(name, value, "1/s" if name == "throughput_per_s" else "ms")


# -- outcome ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    context: Dict[str, object] = field(default_factory=dict)
    calibration: Calibration = field(default_factory=Calibration)

    def problem(self, message: str) -> None:
        """Record a failed check or operation (counted in ``failed``)."""
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
