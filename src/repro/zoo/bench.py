""""Synthesize the zoo": corpus-throughput measurement.

One shared implementation feeds both ``repro zoo bench`` and the
``"zoo"`` section of ``BENCH_obs.json`` (benchmarks/conftest.py), so the
CLI and CI report the same numbers: models/sec through the full
map → optimize → mdl flow, cold (cache off) and warm (passes over a
populated content-addressed cache), each the fastest of a few passes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..core import synthesize
from ..parallel import cache
from .generator import FAMILIES, Scenario, generate_corpus


#: Timed passes over the corpus; the fastest pass per mode counts.
PASSES = 3


def measure_zoo(
    seed: int,
    count: int,
    families: Sequence[str] = FAMILIES,
) -> Dict[str, object]:
    """Time full-flow synthesis over a fixed-seed corpus.

    Generation is excluded from the timings (it is the workload's setup,
    not the flow under measurement), and synthesis runs *without*
    behaviors — attaching callables bypasses the content-addressed cache
    by design, and the structural flow is what's being measured.

    Each model is synthesized cold (cache off) and then warm (a hit on a
    populated cache) back to back, so a change in host speed slows both
    modes alike and leaves ``cache_speedup`` (which
    ``tools/validate_trace.py`` gates on) steady.  Of :data:`PASSES`
    passes the fastest per mode counts.  The warm calls must be 100%
    cache hits and byte-identical to the cold artifacts; both facts are
    recorded so the benchmark validator can gate on them.
    """
    scenarios: List[Scenario] = list(generate_corpus(seed, count, families))
    cold_s = warm_s = float("inf")
    hits = 0
    identical = True
    state = cache.snapshot()
    try:
        # use_cache pins each call's mode; the process-wide switch stays off.
        cache.configure(enabled=False)
        for scenario in scenarios:  # populate
            synthesize(
                scenario.model,
                auto_allocate=scenario.params.auto_allocate,
                use_cache=True,
            )
        for _ in range(PASSES):
            cold_pass = warm_pass = 0.0
            for scenario in scenarios:
                auto_allocate = scenario.params.auto_allocate
                start = time.perf_counter()
                cold_mdl = synthesize(
                    scenario.model, auto_allocate=auto_allocate, use_cache=False
                ).mdl_text
                middle = time.perf_counter()
                warm = synthesize(
                    scenario.model, auto_allocate=auto_allocate, use_cache=True
                )
                warm_mdl = warm.mdl_text
                end = time.perf_counter()
                cold_pass += middle - start
                warm_pass += end - middle
                hits += warm.obs.parallel["cache"]["status"] == "hit"
                identical = identical and warm_mdl == cold_mdl
            cold_s = min(cold_s, cold_pass)
            warm_s = min(warm_s, warm_pass)
    finally:
        cache.restore(state)

    return {
        "seed": seed,
        "models": count,
        "families": list(families),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "models_per_sec_cold": count / cold_s if cold_s else None,
        "models_per_sec_warm": count / warm_s if warm_s else None,
        "cache_speedup": cold_s / warm_s if warm_s else None,
        "warm_hit_rate": hits / (count * PASSES) if count else None,
        "artifacts_identical": identical,
    }
