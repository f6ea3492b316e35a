"""The per-run observability report attached to :class:`SynthesisResult`.

Library users get the run's share of what the CLI writes to
``--trace-out``, without touching files:

- ``census`` is always populated (it is derived from artifacts the flow
  builds anyway, so it costs nothing extra even with the null recorder):
  channel counts, mapping trace statistics, barrier count, block census;
- ``spans`` is populated only when a recorder was active during the run;
- ``parallel`` carries the run's synthesis-cache verdict.

Process-wide facts (counters, timers, SLO gauges) live in one place only,
the recorder's :class:`~repro.obs.metrics.MetricsRegistry`: a caller who
installed a recorder reads ``recorder.metrics``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from .chrometrace import to_chrome_trace, write_chrome_trace
from .recorder import Span


@dataclass
class ObservabilityReport:
    """What one run recorded: census, spans, cache verdict."""

    #: Structural counts derived from the run's artifacts (always filled).
    census: Dict[str, Any] = field(default_factory=dict)
    #: Closed spans recorded during the run (empty when obs is disabled).
    spans: List[Span] = field(default_factory=list)
    #: Synthesis-cache data (see :mod:`repro.parallel`): the cache verdict
    #: for this run (``status`` is ``"hit"``, ``"miss"`` or ``"bypass"``).
    #: Empty when the run did not consult the cache.
    parallel: Dict[str, Any] = field(default_factory=dict)

    @property
    def recorded(self) -> bool:
        """Whether a live recorder captured spans for this run."""
        return bool(self.spans)

    def span_named(self, name: str) -> List[Span]:
        """All spans with the given name (e.g. ``"flow.map"``)."""
        return [s for s in self.spans if s.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-ready mapping."""
        return {
            "census": self.census,
            "spans": [s.to_dict() for s in self.spans],
            "parallel": self.parallel,
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def chrome_trace(self) -> Dict[str, Any]:
        """The run's spans as a Trace Event Format document."""
        return to_chrome_trace(self.spans)

    def write_trace(self, path: str) -> None:
        """Write the Perfetto-loadable trace JSON to ``path``."""
        write_chrome_trace(self.spans, path)
