#!/usr/bin/env python3
"""Validate observability JSON artifacts against their documented schemas.

Usage::

    python tools/validate_trace.py trace.json [--metrics metrics.json] [--tree]
    python tools/validate_trace.py --slo slo.json
    python tools/validate_trace.py --bench BENCH_obs.json

Checks the Chrome-trace document (``--trace-out`` output) for Trace Event
Format conformance — Perfetto loadability — and optionally the metrics
snapshot (``--metrics-out`` output) for the registry schema and the
documented synthesis keys.  ``--tree`` additionally requires the trace's
spans to form a single rooted tree: every ``args.parent_id`` must resolve
to another event in the document (no orphan roots from worker threads or
retries).  ``--slo`` validates a ``GET /slo`` / ``repro slo-report
--json`` document, and ``--bench`` validates the ``"slo"``,
``"zoo"``, ``"analysis"``, ``"codegen"`` and ``"simbatch"`` sections of
``BENCH_obs.json`` (server latency objectives, "synthesize the zoo"
throughput, static-analyzer throughput with its per-pass breakdown,
static-schedule codegen throughput, and looped-vs-batched simulation
rates).  Exits non-zero with a message on the
first violation; CI's smoke jobs run this after real ``repro``
invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

#: Event fields every complete ("X") event must carry.
REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "dur", "pid", "tid")

#: Timer keys a synthesize run must produce (one per flow step that ran).
SYNTHESIS_TIMER_KEYS = (
    "flow.synthesize",
    "flow.map",
    "flow.optimize",
    "optimize.channels",
    "optimize.barriers",
)

#: Counter key prefixes a synthesize run must produce.
SYNTHESIS_COUNTER_PREFIXES = ("mapping.rule.", "optimize.channels.")

#: Counters that mark a synthesis served from the cache (memory / disk).
CACHE_HIT_COUNTERS = ("cache.synthesize.hit", "cache.synthesize.hit_disk")

#: Timer keys a cache-hit synthesize run must produce: the lookup alone.
CACHE_HIT_TIMER_KEYS = ("flow.cache",)

#: Risk levels an SLO record may carry, in increasing severity.
SLO_RISKS = ("ok", "warn", "breach")

#: Fields every SLO record must carry.
SLO_RECORD_FIELDS = (
    "target",
    "objective",
    "target_value",
    "observed",
    "events",
    "errors",
    "attainment_pct",
    "budget_remaining_pct",
    "burn_rate",
    "risk",
)

#: Objectives an SLO record may evaluate.
SLO_OBJECTIVES = ("availability", "p50", "p95", "p99")

#: Per-depth fields the BENCH_obs.json "slo" section must carry.
BENCH_SLO_DEPTH_FIELDS = (
    "p50_s",
    "p95_s",
    "p99_s",
    "attainment_pct",
    "budget_remaining_pct",
    "burn_rate",
    "risk",
)


def validate_trace(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid span trace."""
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("top level must be an object with 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty array")
    complete = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{index} is not an object")
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            raise ValueError(f"event #{index}: unexpected phase {phase!r}")
        complete += 1
        for field in REQUIRED_EVENT_FIELDS:
            if field not in event:
                raise ValueError(f"event #{index} lacks {field!r}")
        if not isinstance(event["ts"], int) or event["ts"] < 0:
            raise ValueError(f"event #{index}: ts must be a non-negative int")
        if not isinstance(event["dur"], int) or event["dur"] < 1:
            raise ValueError(f"event #{index}: dur must be a positive int")
    if complete == 0:
        raise ValueError("trace holds no complete ('X') events")


def validate_span_tree(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless the trace's spans form one rooted tree.

    Every complete event's ``args.parent_id`` must name another complete
    event in the same document (a worker/retry span whose parent was
    never exported is an *orphan root* — the stitching bug this guards
    against), and exactly one span may be parentless.
    """
    events = [
        e
        for e in document.get("traceEvents", [])
        if isinstance(e, dict) and e.get("ph") == "X"
    ]
    ids = {e.get("id") for e in events if e.get("id") is not None}
    roots = []
    for event in events:
        parent = (event.get("args") or {}).get("parent_id")
        if parent is None:
            roots.append(event)
        elif parent not in ids:
            raise ValueError(
                f"span {event.get('name')!r} (id {event.get('id')}) has "
                f"unresolvable parent_id {parent} — orphaned subtree"
            )
    if len(roots) != 1:
        names = sorted(str(e.get("name")) for e in roots)
        raise ValueError(
            f"expected exactly one root span, found {len(roots)}: {names}"
        )


def validate_metrics(document: Dict[str, Any], *, synthesis: bool = True) -> None:
    """Raise ``ValueError`` unless ``document`` is a metrics snapshot.

    With ``synthesis`` (the default) also require the documented keys a
    ``repro synthesize`` run must emit.  A run served from the synthesis
    cache (a ``cache.synthesize.hit`` / ``.hit_disk`` counter) never runs
    the flow: it must carry the ``flow.cache`` timer instead, and the
    flow's keys are required only if the snapshot also records a miss.
    """
    for section in ("counters", "gauges", "timers"):
        if not isinstance(document.get(section), dict):
            raise ValueError(f"metrics must hold a {section!r} object")
    for name, stat in document["timers"].items():
        for field in ("count", "total", "min", "max", "mean"):
            if field not in stat:
                raise ValueError(f"timer {name!r} lacks {field!r}")
    if not synthesis:
        return
    counters = document["counters"]
    if any(counters.get(name) for name in CACHE_HIT_COUNTERS):
        for key in CACHE_HIT_TIMER_KEYS:
            if key not in document["timers"]:
                raise ValueError(f"missing documented cache-hit timer {key!r}")
        if not counters.get("cache.synthesize.miss"):
            return
    for key in SYNTHESIS_TIMER_KEYS:
        if key not in document["timers"]:
            raise ValueError(f"missing documented timer {key!r}")
    for prefix in SYNTHESIS_COUNTER_PREFIXES:
        if not any(name.startswith(prefix) for name in document["counters"]):
            raise ValueError(f"no counter with documented prefix {prefix!r}")


def _check_record(record: Any, where: str) -> None:
    if not isinstance(record, dict):
        raise ValueError(f"{where} is not an object")
    for field in SLO_RECORD_FIELDS:
        if field not in record:
            raise ValueError(f"{where} lacks {field!r}")
    if record["objective"] not in SLO_OBJECTIVES:
        raise ValueError(
            f"{where}: unknown objective {record['objective']!r}"
        )
    if record["risk"] not in SLO_RISKS:
        raise ValueError(f"{where}: unknown risk {record['risk']!r}")
    for field in ("attainment_pct", "budget_remaining_pct"):
        value = record[field]
        if not isinstance(value, (int, float)) or not 0 <= value <= 100:
            raise ValueError(f"{where}: {field} must be in [0, 100]")
    burn = record["burn_rate"]
    if not isinstance(burn, (int, float)) or burn < 0:
        raise ValueError(f"{where}: burn_rate must be non-negative")
    if burn >= 1.0 and record["risk"] != "breach":
        raise ValueError(
            f"{where}: burn_rate {burn} >= 1 must be risk 'breach', "
            f"got {record['risk']!r}"
        )


def validate_slo(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a ``/slo`` report."""
    if not isinstance(document, dict):
        raise ValueError("SLO document must be an object")
    for field in ("window_s", "risk", "targets", "records"):
        if field not in document:
            raise ValueError(f"SLO document lacks {field!r}")
    if document["risk"] not in SLO_RISKS:
        raise ValueError(f"unknown overall risk {document['risk']!r}")
    targets = document["targets"]
    if not isinstance(targets, list) or not targets:
        raise ValueError("'targets' must be a non-empty array")
    names = set()
    for index, target in enumerate(targets):
        if not isinstance(target, dict) or "name" not in target:
            raise ValueError(f"target #{index} lacks 'name'")
        names.add(target["name"])
    records = document["records"]
    if not isinstance(records, list) or not records:
        raise ValueError("'records' must be a non-empty array")
    worst = 0
    for index, record in enumerate(records):
        _check_record(record, f"record #{index}")
        if record["target"] not in names:
            raise ValueError(
                f"record #{index} references undeclared target "
                f"{record['target']!r}"
            )
        worst = max(worst, SLO_RISKS.index(record["risk"]))
    if SLO_RISKS.index(document["risk"]) != worst:
        raise ValueError(
            f"overall risk {document['risk']!r} does not match worst "
            f"record risk {SLO_RISKS[worst]!r}"
        )


def validate_bench_slo(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless BENCH_obs.json carries a valid "slo".

    The section declares the targets and, per benchmarked queue depth,
    the observed p50/p95/p99 with attainment/budget/burn against them.
    """
    section = document.get("slo")
    if not isinstance(section, dict):
        raise ValueError("BENCH document lacks an 'slo' object")
    for field in ("window_s", "targets", "queue_depths"):
        if field not in section:
            raise ValueError(f"'slo' section lacks {field!r}")
    if not isinstance(section["targets"], dict) or not section["targets"]:
        raise ValueError("'slo.targets' must be a non-empty object")
    depths = section["queue_depths"]
    if not isinstance(depths, dict) or not depths:
        raise ValueError("'slo.queue_depths' must be a non-empty object")
    for depth, entry in depths.items():
        if not str(depth).isdigit():
            raise ValueError(f"queue depth {depth!r} is not an integer key")
        if not isinstance(entry, dict):
            raise ValueError(f"queue depth {depth}: entry is not an object")
        for field in BENCH_SLO_DEPTH_FIELDS:
            if field not in entry:
                raise ValueError(f"queue depth {depth}: lacks {field!r}")
        if entry["risk"] not in SLO_RISKS:
            raise ValueError(
                f"queue depth {depth}: unknown risk {entry['risk']!r}"
            )


#: Fields the BENCH_obs.json "zoo" section must carry.
BENCH_ZOO_FIELDS = (
    "seed",
    "models",
    "families",
    "corpus_digest",
    "models_per_sec_cold",
    "models_per_sec_warm",
    "warm_hit_rate",
    "cache_speedup",
    "artifacts_identical",
)


#: Floor for ``zoo.cache_speedup``.  A hit serves the stored ``.mdl``
#: and leaves the graph pickled; if it fell back to rebuilding the
#: result (unpickle the graph, re-render), the speedup would drop to
#: ~2x, the figure measured before hits served stored artifacts.
ZOO_MIN_CACHE_SPEEDUP = 4.0


def validate_bench_zoo(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless BENCH_obs.json carries a valid "zoo".

    The section reports "synthesize the zoo" throughput — models/sec
    over a fixed-seed generated corpus, cold and warm cache — plus the
    corpus digest that pins the workload across PRs.
    """
    section = document.get("zoo")
    if not isinstance(section, dict):
        raise ValueError("BENCH document lacks a 'zoo' object")
    for field in BENCH_ZOO_FIELDS:
        if field not in section:
            raise ValueError(f"'zoo' section lacks {field!r}")
    for rate in ("models_per_sec_cold", "models_per_sec_warm"):
        value = section[rate]
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"'zoo.{rate}' must be a positive number")
    if section["models"] <= 0:
        raise ValueError("'zoo.models' must be positive")
    if not section["artifacts_identical"]:
        raise ValueError(
            "'zoo.artifacts_identical' is false: warm-cache synthesis "
            "diverged from the cold flow"
        )
    hit_rate = section["warm_hit_rate"]
    if not isinstance(hit_rate, (int, float)) or not 0.0 <= hit_rate <= 1.0:
        raise ValueError("'zoo.warm_hit_rate' must be in [0, 1]")
    if hit_rate < 1.0:
        raise ValueError(
            f"'zoo.warm_hit_rate' is {hit_rate}: some corpus models "
            "missed the primed synthesis cache"
        )
    speedup = section["cache_speedup"]
    if not isinstance(speedup, (int, float)) or speedup < ZOO_MIN_CACHE_SPEEDUP:
        raise ValueError(
            f"'zoo.cache_speedup' is {speedup}, below the "
            f"{ZOO_MIN_CACHE_SPEEDUP}x floor: cache hits are rebuilding "
            "results instead of serving the stored artifact"
        )


#: Fields the BENCH_obs.json "analysis" section must carry.
BENCH_ANALYSIS_FIELDS = (
    "corpus_seed",
    "corpus_models",
    "corpus_analyze_s",
    "models_per_sec",
    "diagnostics",
    "error_diagnostics",
    "crane_analyze_s",
    "crane_clean",
    "passes",
)

#: Passes the analyzer registers by default; each must report a timing.
BENCH_ANALYSIS_PASSES = ("structure", "channels", "fsm", "sdf", "dataflow")


def validate_bench_analysis(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless BENCH_obs.json carries a valid "analysis".

    The section reports static-analyzer throughput (models/sec over the
    fixed-seed corpus) plus a per-pass wall-time breakdown, and asserts
    the corpus-wide lint gate: zero error-severity findings.
    """
    section = document.get("analysis")
    if not isinstance(section, dict):
        raise ValueError("BENCH document lacks an 'analysis' object")
    for field in BENCH_ANALYSIS_FIELDS:
        if field not in section:
            raise ValueError(f"'analysis' section lacks {field!r}")
    rate = section["models_per_sec"]
    if not isinstance(rate, (int, float)) or rate <= 0:
        raise ValueError("'analysis.models_per_sec' must be a positive number")
    if section["corpus_models"] <= 0:
        raise ValueError("'analysis.corpus_models' must be positive")
    if section["error_diagnostics"] != 0:
        raise ValueError(
            f"'analysis.error_diagnostics' is "
            f"{section['error_diagnostics']}: the corpus lint gate "
            f"requires zero error-severity findings"
        )
    if not section["crane_clean"]:
        raise ValueError("'analysis.crane_clean' is false")
    passes = section["passes"]
    if not isinstance(passes, dict):
        raise ValueError("'analysis.passes' must be an object")
    for name in BENCH_ANALYSIS_PASSES:
        entry = passes.get(name)
        if not isinstance(entry, dict):
            raise ValueError(f"'analysis.passes' lacks pass {name!r}")
        for field in ("calls", "total_s"):
            if field not in entry:
                raise ValueError(
                    f"'analysis.passes.{name}' lacks {field!r}"
                )
        if entry["calls"] < section["corpus_models"]:
            raise ValueError(
                f"'analysis.passes.{name}' ran {entry['calls']} times for "
                f"{section['corpus_models']} corpus models"
            )


#: Fields the BENCH_obs.json "codegen" section must carry.
BENCH_CODEGEN_FIELDS = (
    "corpus_seed",
    "corpus_models",
    "schedule_s",
    "emit_s",
    "models_per_sec_scheduled",
    "models_per_sec_emitted",
    "languages",
    "buffers",
    "manifest_records",
    "manifests_verified",
    "differential",
)


def validate_bench_codegen(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless BENCH_obs.json carries a valid "codegen".

    The section reports static-schedule backend throughput (models/sec
    scheduled and emitted over the fixed-seed corpus), asserts every
    generated manifest hash-verified, and — when a C compiler was
    available — that every differential check was bit-identical.
    """
    section = document.get("codegen")
    if not isinstance(section, dict):
        raise ValueError("BENCH document lacks a 'codegen' object")
    for field in BENCH_CODEGEN_FIELDS:
        if field not in section:
            raise ValueError(f"'codegen' section lacks {field!r}")
    if section["corpus_models"] <= 0:
        raise ValueError("'codegen.corpus_models' must be positive")
    for rate in ("models_per_sec_scheduled", "models_per_sec_emitted"):
        value = section[rate]
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"'codegen.{rate}' must be a positive number")
    if not section["manifests_verified"]:
        raise ValueError(
            "'codegen.manifests_verified' is false: some generated "
            "manifest failed hash verification"
        )
    languages = section["languages"]
    if not isinstance(languages, list) or "c" not in languages:
        raise ValueError("'codegen.languages' must be a list containing 'c'")
    differential = section["differential"]
    if not isinstance(differential, dict):
        raise ValueError("'codegen.differential' must be an object")
    for field in ("checked", "bit_identical", "compiler"):
        if field not in differential:
            raise ValueError(f"'codegen.differential' lacks {field!r}")
    checked = differential["checked"]
    if checked and differential["bit_identical"] != checked:
        raise ValueError(
            f"'codegen.differential': only {differential['bit_identical']} "
            f"of {checked} checked models were bit-identical"
        )


BENCH_SIMBATCH_ROW_FIELDS = (
    "looped_steps_per_sec",
    "batched_steps_per_sec",
    "speedup",
    "outputs_identical",
)


def validate_bench_simbatch(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless BENCH_obs.json carries a valid "simbatch".

    The section compares looped vs vectorized-batch ``run_many`` steps/sec
    per batch size; every row must assert the two paths produced
    byte-identical episode CSVs (the batch engine's contract is exactness,
    so a divergent row voids the whole measurement).  When NumPy was
    unavailable the section records ``available: false`` and is otherwise
    empty.  The ≥10× speedup requirement at batch 512 is CI's perf-smoke
    gate, not a schema property — a laptop on battery should still be able
    to regenerate a *valid* document.
    """
    section = document.get("simbatch")
    if not isinstance(section, dict):
        raise ValueError("BENCH document lacks a 'simbatch' object")
    if "available" not in section:
        raise ValueError("'simbatch' section lacks 'available'")
    sizes = section.get("batch_sizes")
    if not isinstance(sizes, dict):
        raise ValueError("'simbatch.batch_sizes' must be an object")
    if not section["available"]:
        return
    for expected in ("1", "32", "512"):
        if expected not in sizes:
            raise ValueError(f"'simbatch.batch_sizes' lacks {expected!r}")
    for size, row in sizes.items():
        if not isinstance(row, dict):
            raise ValueError(f"'simbatch.batch_sizes.{size}' must be an object")
        for field in BENCH_SIMBATCH_ROW_FIELDS:
            if field not in row:
                raise ValueError(
                    f"'simbatch.batch_sizes.{size}' lacks {field!r}"
                )
        for rate in ("looped_steps_per_sec", "batched_steps_per_sec"):
            value = row[rate]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"'simbatch.batch_sizes.{size}.{rate}' must be a "
                    f"positive number"
                )
        if not row["outputs_identical"]:
            raise ValueError(
                f"'simbatch.batch_sizes.{size}': batched and looped "
                f"episodes diverged — the measurement is void"
            )


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trace", nargs="?", help="--trace-out JSON file to validate"
    )
    parser.add_argument("--metrics", help="--metrics-out JSON file to validate")
    parser.add_argument(
        "--tree",
        action="store_true",
        help="require the trace's spans to form a single rooted tree",
    )
    parser.add_argument("--slo", help="GET /slo report JSON file to validate")
    parser.add_argument(
        "--bench",
        help="BENCH_obs.json whose 'slo' and 'zoo' sections to validate",
    )
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.slo or args.bench):
        parser.error("nothing to validate: give a trace, --slo, or --bench")
    try:
        if args.trace:
            with open(args.trace, encoding="utf-8") as handle:
                document = json.load(handle)
            validate_trace(document)
            print(f"{args.trace}: valid Chrome-trace document")
            if args.tree:
                validate_span_tree(document)
                print(f"{args.trace}: spans form a single rooted tree")
        elif args.tree:
            parser.error("--tree needs a trace file")
        if args.metrics:
            with open(args.metrics, encoding="utf-8") as handle:
                validate_metrics(json.load(handle))
            print(f"{args.metrics}: valid metrics snapshot")
        if args.slo:
            with open(args.slo, encoding="utf-8") as handle:
                validate_slo(json.load(handle))
            print(f"{args.slo}: valid SLO report")
        if args.bench:
            with open(args.bench, encoding="utf-8") as handle:
                bench = json.load(handle)
            validate_bench_slo(bench)
            print(f"{args.bench}: valid BENCH slo section")
            validate_bench_zoo(bench)
            print(f"{args.bench}: valid BENCH zoo section")
            validate_bench_analysis(bench)
            print(f"{args.bench}: valid BENCH analysis section")
            validate_bench_codegen(bench)
            print(f"{args.bench}: valid BENCH codegen section")
            validate_bench_simbatch(bench)
            print(f"{args.bench}: valid BENCH simbatch section")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
