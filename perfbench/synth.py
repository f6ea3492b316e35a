"""``synth-cold`` and ``edit-loop``: XMI text in, ``.mdl`` text out.

One operation is what a designer's tool does per save: parse the XMI
(``repro.uml.xmi.from_xmi_string``), run the flow
(``repro.core.flow.synthesize``) and render the artifact
(``SynthesisResult.mdl_text``).  Operations run back to back on one
thread; each is timed on its own.
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterator, Tuple

from repro.core import flow
from repro.parallel import cache as synth_cache
from repro.simulink.mdl import from_mdl, to_mdl
from repro.uml import xmi as xmi_module

import inputs
from common import (
    Outcome,
    combined,
    import_probe,
    SETUP_REPS,
    Ops,
    put_e2e,
    matched_overhead_ms,
    peak_rss_mb,
    perf,
    repeated_setup,
    sha,
)
from tracer import Layer, Tracer

IMPORTS = ("repro.core.flow", "repro.uml.xmi", "repro.simulink.mdl")

#: Zoo models per (family, thread count) stratum: 4 in synth-cold (92
#: models, so the median model differs little between seeds), 2 in
#: edit-loop (46, so the working set stays below the cache's capacity).
COLD_PER_STRATUM = 4
EDIT_PER_STRATUM = 2
#: Tail percentiles.  ~900 synth-cold operations per 15 s run leave ~45
#: samples beyond p95.  edit-loop's ~3400 would allow p99, but its top 1%
#: is a handful of edits to the largest models, so it swung ~20% from seed
#: to seed; p95 (~170 samples beyond) still sits among the edits.
COLD_TAIL_PCT = 95.0
EDIT_TAIL_PCT = 95.0

#: edit-loop working set: the stratified zoo plus two case studies -- 48
#: live models, below the synthesis cache's 64 entries.
EDIT_CASE_STUDIES = ("crane", "didactic")
EDIT_RATE = 1.0 / 8.0
#: Submissions replayed for the pinned-seed digest of edit-loop.
PINNED_SUBMISSIONS = 96


def _channels(report) -> int:
    channels = report.channels
    return channels.intra_count + channels.inter_count if channels else 0


def _barriers(report) -> int:
    return report.barriers.count if report.barriers else 0


def _put_bytes(result, args, kwargs):
    value = args[2] if len(args) > 2 else kwargs["value"]
    return {
        "parallel.cache.entry_bytes": len(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )
    }


LAYERS = (
    Layer("repro.uml.xmi:from_xmi_string", "uml.xmi.parse_ms"),
    Layer("repro.core.flow:synthesize", "core.flow.synthesize_ms"),
    Layer("repro.core.flow:check_model", "uml.validate.check_ms"),
    Layer("repro.core.flow:resolve_plan", "core.allocation.resolve_ms"),
    Layer(
        "repro.core.flow:map_model",
        "core.mapping.map_ms",
        lambda r, a, k: {"core.mapping.blocks": r.caam.count_blocks()},
    ),
    Layer(
        "repro.core.flow:to_ecore_string",
        "simulink.ecore.intermediate_ms",
        lambda r, a, k: {"simulink.ecore.bytes": len(r)},
    ),
    Layer(
        "repro.core.optimize:OptimizationPipeline.run",
        "core.optimize.run_ms",
        lambda r, a, k: {
            "core.optimize.channels": _channels(r),
            "core.optimize.barriers": _barriers(r),
        },
    ),
    Layer("repro.simulink.layout:layout_model", "simulink.layout.layout_ms"),
    Layer(
        "repro.core.flow:to_mdl",
        "simulink.mdl.emit_ms",
        lambda r, a, k: {"simulink.mdl.bytes": len(r)},
    ),
    Layer(
        "repro.core.flow:synthesis_cache_key", "parallel.fingerprint.key_ms"
    ),
    Layer(
        "repro.parallel.cache:ContentCache.get",
        "parallel.cache.get_ms",
        lambda r, a, k: {"parallel.cache.hit_ratio": 0.0 if r is None else 1.0},
    ),
    Layer("repro.parallel.cache:ContentCache.put", "parallel.cache.put_ms", _put_bytes),
)

#: Hook metrics, reported as the mean per call of their layer.
COUNTS = {
    "core.mapping.blocks": "count",
    "simulink.ecore.bytes": "bytes",
    "core.optimize.channels": "count",
    "core.optimize.barriers": "count",
    "simulink.mdl.bytes": "bytes",
    "parallel.cache.hit_ratio": "share",
    "parallel.cache.entry_bytes": "bytes",
}


def submit(text: str, auto_allocate: bool) -> str:
    """One operation: XMI text -> flow -> ``.mdl`` text."""
    model = xmi_module.from_xmi_string(text)
    return flow.synthesize(model, auto_allocate=auto_allocate).mdl_text


def timed_loop(
    stream: Iterator[Tuple[str, str, bool]],
    seconds: float,
    digests: Dict[str, str],
    outcome: Outcome,
    tracer: Tracer = None,
) -> Ops:
    """Submit from ``stream`` for ``seconds``; record walls and digests.

    ``stream`` yields ``(key, xmi, auto_allocate)``.  The first ``.mdl``
    digest seen per key is kept; a later submission of the same key must
    reproduce it byte for byte (cold flow, cache hit, traced run alike).
    """
    ops = Ops()
    deadline = perf() + seconds
    for key, text, auto_allocate in stream:
        outcome.calibration.maybe()
        excluded = tracer.excluded if tracer else 0.0
        start = perf()
        try:
            mdl = submit(text, auto_allocate)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            end = perf()
            ops.failures += 1
            outcome.problem(f"{key}: {type(exc).__name__}: {exc}")
        else:
            end = perf()
            hooks = tracer.excluded - excluded if tracer else 0.0
            # A model version's first submission misses the cache; later
            # ones may hit.  Keep them apart for the overhead comparison.
            repeat = "repeat" if key in digests else "first"
            ops.add(f"{key}#{repeat}", start, end - start - hooks)
            digest = sha(mdl)
            if digests.setdefault(key, digest) != digest:
                outcome.problem(f"{key}: .mdl bytes differ between submissions")
        if end >= deadline:
            break
    outcome.calibration.sample()
    return ops


def check_outputs(
    xmis: Dict[str, Tuple[str, bool]], digests: Dict[str, str], outcome: Outcome
) -> None:
    """Cold flow (cache off) reproduces every recorded digest, and every
    ``.mdl`` round-trips through ``from_mdl``/``to_mdl``."""
    for key, digest in digests.items():
        text, auto_allocate = xmis[key]
        model = xmi_module.from_xmi_string(text)
        mdl = flow.synthesize(model, auto_allocate=auto_allocate, use_cache=False).mdl_text
        if sha(mdl) != digest:
            outcome.problem(f"{key}: .mdl differs from the cold flow")
        elif to_mdl(from_mdl(mdl)) != mdl:
            outcome.problem(f"{key}: .mdl does not round-trip")


def _measure(outcome, stream_factory, seconds, trace, digests, tail_pct, cache=None):
    """Untraced timing (e2e metrics) or split untraced/traced (per layer)."""
    if not trace:
        ops = timed_loop(stream_factory(), seconds, digests, outcome)
        outcome.attempted += ops.attempted()
        if ops.records:
            put_e2e(outcome, ops, tail_pct)
        return
    stream = stream_factory()
    plain = timed_loop(stream, seconds / 2, digests, outcome)
    tracer = Tracer(LAYERS)
    entries = len(cache) if cache is not None else 0
    with tracer:
        traced = timed_loop(stream, seconds / 2, digests, outcome, tracer)
    outcome.attempted += plain.attempted() + traced.attempted()
    if not traced.records or not plain.records:
        return  # every operation failed; the failures are the result
    cal = outcome.calibration
    count = len(traced.records)
    wall = sum(traced.walls(cal))
    for metric, spent in tracer.self_times(cal.factor).items():
        outcome.put(metric, spent * 1e3 / count, "ms")
    for name, unit in COUNTS.items():
        outcome.put(name, tracer.mean_count(name), unit)
    covered = tracer.covered(cal.factor)
    outcome.put("unattributed_ms", (wall - covered) * 1e3 / count, "ms")
    outcome.put("trace.coverage", covered / wall, "share")
    outcome.put(
        "trace.overhead_ms", matched_overhead_ms(traced.by_key(cal), plain.by_key(cal)), "ms"
    )
    if cache is not None:
        # Stores minus growth: entries the LRU pushed out (memory-only cache).
        stores = len(tracer.counts.get("parallel.cache.entry_bytes", []))
        outcome.put("parallel.cache.evictions", stores - (len(cache) - entries), "count")


# -- synth-cold ---------------------------------------------------------------


def cold_corpus(seed: int, per_stratum: int = COLD_PER_STRATUM, large: bool = True):
    items = inputs.zoo_corpus(seed, per_stratum) + inputs.case_studies()
    if large:
        items += inputs.large_pipelines(seed)
    return items


def cold_stream(items):
    while True:
        for item in items:
            yield item.name, item.xmi, item.auto_allocate


def pinned_cold(seed: int) -> dict:
    got = {i.name: sha(submit(i.xmi, i.auto_allocate)) for i in cold_corpus(seed)}
    return {"mdl": combined(got)}


def run_cold(seed, seconds, trace, smoke=False) -> Outcome:
    outcome = Outcome()
    per_stratum = 1 if smoke else COLD_PER_STRATUM

    def build():
        import_probe(IMPORTS)
        return cold_corpus(seed, per_stratum, large=not smoke)

    setup_s, raw_s, items = repeated_setup(build, outcome.calibration, reps=1 if smoke else SETUP_REPS)
    outcome.put("setup_s", setup_s, "s")
    outcome.context["raw_setup_s"] = raw_s
    outcome.context["models"] = len(items)
    # One untimed pass, so process-wide lazy state is built before timing.
    digests = {item.name: sha(submit(item.xmi, item.auto_allocate)) for item in items}
    _measure(outcome, lambda: cold_stream(items), seconds, trace, digests, COLD_TAIL_PCT)
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    check_outputs({i.name: (i.xmi, i.auto_allocate) for i in items}, digests, outcome)
    return outcome


# -- edit-loop ----------------------------------------------------------------


def edit_items(seed: int, per_stratum: int = EDIT_PER_STRATUM):
    return inputs.zoo_corpus(seed, per_stratum) + inputs.case_studies(EDIT_CASE_STUDIES)


def pinned_edit(seed: int) -> dict:
    """Digests of the first submissions of the seed's edit sequence."""
    state = synth_cache.snapshot()
    try:
        synth_cache.configure(enabled=True)
        items = edit_items(seed)
        auto = {item.name: item.auto_allocate for item in items}
        sequence = inputs.edit_sequence(items, seed, EDIT_RATE)
        got = {}
        for number in range(PINNED_SUBMISSIONS):
            key, text = next(sequence)
            got[f"{number:03d} {key}"] = sha(submit(text, auto[key.rsplit("@", 1)[0]]))
    finally:
        synth_cache.restore(state)
    return {"mdl": combined(got)}


def run_edit(seed, seconds, trace, smoke=False) -> Outcome:
    outcome = Outcome()
    per_stratum = 1 if smoke else EDIT_PER_STRATUM
    state = synth_cache.snapshot()
    try:
        def build():
            import_probe(IMPORTS)
            items = edit_items(seed, per_stratum)
            # A fresh, empty in-memory cache, warmed with the working set
            # (a long-running design tool has seen every model once).
            synth_cache.configure(enabled=True)
            for item in items:
                submit(item.xmi, item.auto_allocate)
            return items

        setup_s, raw_s, items = repeated_setup(build, outcome.calibration, reps=1 if smoke else SETUP_REPS)
        outcome.put("setup_s", setup_s, "s")
        outcome.context["raw_setup_s"] = raw_s
        outcome.context["working_set"] = len(items)
        outcome.context["cache_capacity"] = synth_cache.DEFAULT_CAPACITY
        auto = {item.name: item.auto_allocate for item in items}
        xmis: Dict[str, Tuple[str, bool]] = {
            f"{item.name}@0": (item.xmi, item.auto_allocate) for item in items
        }

        def stream():
            for key, text in inputs.edit_sequence(items, seed, EDIT_RATE):
                name = key.rsplit("@", 1)[0]
                xmis.setdefault(key, (text, auto[name]))
                yield key, text, auto[name]

        digests: Dict[str, str] = {}
        cache = synth_cache.synthesis_cache()
        _measure(outcome, stream, seconds, trace, digests, EDIT_TAIL_PCT, cache=cache)
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        check_outputs(xmis, digests, outcome)
    finally:
        synth_cache.restore(state)
    return outcome
