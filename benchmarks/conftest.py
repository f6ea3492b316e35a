"""Shared benchmark helpers: paper-vs-measured reporting + BENCH_obs.json.

Every benchmark prints a small table comparing what the paper's figure
shows with what this reproduction measures, so `pytest benchmarks/
--benchmark-only -s` regenerates the evaluation section.  The same rows are
appended to EXPERIMENTS-data collected in-session (the EXPERIMENTS.md file
in the repository root is the curated copy).

At the end of every benchmark session :func:`pytest_sessionfinish` runs a
fixed measurement suite through the :mod:`repro.obs` metrics registry and
writes ``BENCH_obs.json`` at the repository root: steps/sec for both
simulators and end-to-end ``synthesize`` wall time on the crane and MJPEG
case studies.  That file is the durable artifact the ROADMAP bench
trajectory tracks across PRs.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Tuple

import pytest

from repro import obs

#: Steps/events per measured simulator run (large enough to dominate setup).
SIM_STEPS = 500


def report(title: str, rows: List[Tuple[str, str, str]]) -> None:
    """Print a paper-vs-measured table (visible with ``-s``)."""
    width_label = max((len(r[0]) for r in rows), default=10)
    width_paper = max((len(r[1]) for r in rows), default=10)
    print(f"\n=== {title} ===")
    print(
        f"{'quantity':<{width_label}} | {'paper':<{width_paper}} | measured"
    )
    print("-" * (width_label + width_paper + 14))
    for label, paper, measured in rows:
        print(f"{label:<{width_label}} | {paper:<{width_paper}} | {measured}")


@pytest.fixture()
def paper_report():
    return report


def _bench_fsm():
    """A small cyclic FSM exercised for the steps/sec measurement."""
    from repro.fsm.model import Fsm

    fsm = Fsm("bench")
    fsm.add_state("idle")
    fsm.add_state("busy")
    fsm.add_variable("n", 0.0)
    fsm.add_transition("idle", "busy", event="go", action="n = n + 1")
    fsm.add_transition("busy", "idle", event="done")
    return fsm


def _collect_obs_metrics(recorder: "obs.Recorder") -> None:
    """Run the fixed measurement suite into ``recorder``'s registry."""
    from repro.apps import crane, mjpeg
    from repro.core import synthesize
    from repro.fsm.simulator import FsmSimulator
    from repro.simulink import Simulator

    with recorder.timer("bench.synthesize.crane"):
        crane_result = synthesize(
            crane.build_model(), behaviors=crane.behaviors()
        )
    with recorder.timer("bench.synthesize.mjpeg"):
        synthesize(
            mjpeg.build_model(), auto_allocate=True,
            behaviors=mjpeg.behaviors(),
        )

    simulator = Simulator(crane_result.caam)
    stimulus = {"In3": [5.0] * SIM_STEPS}
    simulator.run(SIM_STEPS, inputs=stimulus)

    fsm_sim = FsmSimulator(_bench_fsm())
    fsm_sim.run(["go", "done"] * (SIM_STEPS // 2))


def _measure_parallel() -> dict:
    """Time batched vs scalar DSE and cold vs warm cached synthesis.

    The DSE numbers run one exhaustive exploration of the Bell(8)
    subgraph with the vectorized batch estimator, then again with
    batching forced off through ``DSE_BATCH_MIN`` (the scalar per-candidate
    path); the candidate lists must match.  The cache numbers compare a
    full flow run against a hit that serves the stored ``.mdl`` text (the
    object graph stays pickled).
    """
    import importlib

    from repro.apps import crane, synthetic
    from repro.core import TaskGraph, synthesize
    from repro.dse.explore import candidate_sort_key, exhaustive_explore
    from repro.parallel import cache

    # ``repro.dse.explore`` as an attribute is the re-exported function.
    explore_module = importlib.import_module("repro.dse.explore")
    keep = set(synthetic.THREADS[:8])  # Bell(8) = 4140 partitions
    full = synthetic.task_graph()
    graph = TaskGraph()
    for name in sorted(keep):
        graph.add_node(name, full.node_weights[name])
    for (src, dst), weight in full.edges.items():
        if src in keep and dst in keep:
            graph.add_edge(src, dst, weight)

    start = time.perf_counter()
    batched = exhaustive_explore(graph)
    batched_s = time.perf_counter() - start
    batch_min = explore_module.DSE_BATCH_MIN
    explore_module.DSE_BATCH_MIN = 10**9
    try:
        start = time.perf_counter()
        scalar = exhaustive_explore(graph)
        scalar_s = time.perf_counter() - start
    finally:
        explore_module.DSE_BATCH_MIN = batch_min
    identical = [candidate_sort_key(c) for c in batched] == [
        candidate_sort_key(c) for c in scalar
    ]

    state = cache.snapshot()
    try:
        cache.configure(enabled=True)
        start = time.perf_counter()
        cold = synthesize(crane.build_model())
        cold_s = time.perf_counter() - start
        warm_runs = []
        for _ in range(3):  # best-of-3: the hit path is sub-millisecond
            start = time.perf_counter()
            warm = synthesize(crane.build_model())
            warm_runs.append(time.perf_counter() - start)
        warm_s = min(warm_runs)
        cache_hit = warm.obs.parallel.get("cache", {}).get("status") == "hit"
        artifacts_identical = warm.mdl_text == cold.mdl_text
    finally:
        cache.restore(state)

    return {
        "cpu_count": os.cpu_count(),
        "dse_graph_threads": len(keep),
        "dse_candidates": len(batched),
        "dse_batched_s": batched_s,
        "dse_scalar_s": scalar_s,
        "dse_batch_speedup": scalar_s / batched_s if batched_s else None,
        "dse_outputs_identical": identical,
        "synthesize_cold_s": cold_s,
        "synthesize_warm_s": warm_s,
        "cache_speedup": cold_s / warm_s if warm_s else None,
        "cache_hit": cache_hit,
        "cache_artifacts_identical": artifacts_identical,
    }


def _measure_simkernel() -> dict:
    """Slot-compiled vs reference engine throughput (the PR's headline).

    Both engines run the same 500-step workloads (crane and synthetic
    CAAMs); results are asserted byte-identical before timing is trusted.
    The FSM row measures precompiled guard/action throughput on the same
    cyclic machine ``_bench_fsm`` uses.
    """
    from repro.apps import crane, synthetic
    from repro.core import synthesize
    from repro.fsm.simulator import FsmSimulator
    from repro.simulink import ENGINE_REFERENCE, ENGINE_SLOTS, Simulator

    def engine_sweep(caam, stimulus):
        per_engine = {}
        csvs = {}
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            simulator = Simulator(caam, engine=engine)
            best = float("inf")
            for _ in range(3):
                simulator.reset()
                start = time.perf_counter()
                trace = simulator.run(SIM_STEPS, inputs=stimulus)
                best = min(best, time.perf_counter() - start)
            per_engine[engine] = SIM_STEPS / best
            csvs[engine] = trace.to_csv()
        return {
            "slots_steps_per_sec": per_engine[ENGINE_SLOTS],
            "reference_steps_per_sec": per_engine[ENGINE_REFERENCE],
            "speedup": per_engine[ENGINE_SLOTS] / per_engine[ENGINE_REFERENCE],
            "outputs_identical": csvs[ENGINE_SLOTS] == csvs[ENGINE_REFERENCE],
        }

    crane_caam = synthesize(
        crane.build_model(), behaviors=crane.behaviors()
    ).caam
    synthetic_caam = synthesize(
        synthetic.build_model(), auto_allocate=True,
        behaviors=synthetic.behaviors(),
    ).caam

    fsm_events = SIM_STEPS * 20
    fsm_sim = FsmSimulator(_bench_fsm())
    events = ["go", "done"] * (fsm_events // 2)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fsm_sim.run(events)
        best = min(best, time.perf_counter() - start)

    return {
        "sim_steps": SIM_STEPS,
        "crane": engine_sweep(
            crane_caam, {"In3": [5.0] * SIM_STEPS}
        ),
        "synthetic": engine_sweep(synthetic_caam, None),
        "fsm_events": fsm_events,
        "fsm_events_per_sec": fsm_events / best,
    }


#: Batch sizes for the looped-vs-batched `run_many` comparison.
SIMBATCH_SIZES = (1, 32, 512)

#: Steps per episode in the simbatch sweep (smaller than SIM_STEPS so the
#: 512-episode looped leg stays affordable on CI).
SIMBATCH_STEPS = 50


def _measure_simbatch() -> dict:
    """Looped vs batched ``run_many`` steps/sec on the crane CAAM.

    The looped leg is the scalar slot engine with auto-dispatch disabled
    (threshold pushed out of reach); the batched leg is the vectorized
    ``batch`` engine.  Outputs are asserted byte-identical before any
    timing is trusted — the batch engine's contract is bit-identity, so a
    divergence voids the measurement.  Without NumPy the section records
    ``available: false`` and no rates.
    """
    from repro.apps import crane
    from repro.core import synthesize
    from repro.simulink import (
        ENGINE_BATCH,
        ENGINE_SLOTS,
        Simulator,
        numpy_available,
    )
    from repro.simulink import simulator as simulator_module

    if not numpy_available():
        return {
            "available": False,
            "sim_steps": SIMBATCH_STEPS,
            "batch_sizes": {},
        }

    caam = synthesize(crane.build_model(), behaviors=crane.behaviors()).caam

    def best_of_three(simulator, stimuli):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            episodes = simulator.run_many(SIMBATCH_STEPS, stimuli)
            best = min(best, time.perf_counter() - start)
        return (SIMBATCH_STEPS * len(stimuli)) / best, episodes

    sweep = {}
    saved = simulator_module.BATCH_THRESHOLD
    try:
        for size in SIMBATCH_SIZES:
            stimuli = [
                {"In3": [5.0] * SIMBATCH_STEPS, "In1": [0.01 * k] * (k % 60)}
                for k in range(size)
            ]
            simulator_module.BATCH_THRESHOLD = 10**9
            looped_rate, looped = best_of_three(
                Simulator(caam, engine=ENGINE_SLOTS), stimuli
            )
            simulator_module.BATCH_THRESHOLD = saved
            batched_rate, batched = best_of_three(
                Simulator(caam, engine=ENGINE_BATCH), stimuli
            )
            sweep[str(size)] = {
                "looped_steps_per_sec": looped_rate,
                "batched_steps_per_sec": batched_rate,
                "speedup": batched_rate / looped_rate,
                "outputs_identical": [r.to_csv() for r in batched]
                == [r.to_csv() for r in looped],
            }
    finally:
        simulator_module.BATCH_THRESHOLD = saved
    return {
        "available": True,
        "sim_steps": SIMBATCH_STEPS,
        "batch_sizes": sweep,
    }


#: Fixed-seed corpus the "synthesize the zoo" benchmark runs.
ZOO_SEED = 42
ZOO_COUNT = 60


def _measure_zoo() -> dict:
    """"Synthesize the zoo": corpus models/sec, cold and warm cache.

    One shared implementation with `repro zoo bench` (repro.zoo.bench),
    so the CLI and BENCH_obs.json report the same numbers; the corpus
    manifest digest rides along to prove the workload is the same model
    set across PRs.
    """
    from repro.zoo import build_manifest, measure_zoo

    stats = measure_zoo(ZOO_SEED, ZOO_COUNT)
    stats["corpus_digest"] = build_manifest(ZOO_SEED, ZOO_COUNT)[
        "corpus_digest"
    ]
    return stats


@pytest.fixture(scope="session")
def zoo_bench(pytestconfig):
    """Run the zoo sweep once; sessionfinish reuses the same numbers."""
    stats = _measure_zoo()
    pytestconfig._zoo_bench = stats
    return stats


#: Fixed-seed corpus the analyzer throughput benchmark sweeps.
ANALYSIS_SEED = 42
ANALYSIS_COUNT = 30


def _measure_analysis() -> dict:
    """Static-analyzer throughput: models/sec over a fixed zoo corpus.

    Synthesis is done up front (the analyzer is the unit under test, not
    the flow), then every model runs all registered passes; per-pass wall
    time comes from the ``analysis.pass.*`` obs timers so the breakdown
    in BENCH_obs.json matches what any enabled recorder would see.
    """
    from repro.analysis import analyze, analyze_synthesized, pass_names
    from repro.apps import crane
    from repro.core import synthesize
    from repro.zoo import generate_corpus

    recorder = obs.Recorder()
    with obs.use(recorder):
        start = time.perf_counter()
        crane_report = analyze_synthesized(crane.build_model())
        crane_s = time.perf_counter() - start

        pairs = []
        for scenario in generate_corpus(ANALYSIS_SEED, ANALYSIS_COUNT):
            result = synthesize(
                scenario.model,
                auto_allocate=scenario.params.auto_allocate,
                behaviors=scenario.behaviors,
            )
            pairs.append((scenario, result.caam))
        diagnostics = 0
        errors = 0
        start = time.perf_counter()
        for scenario, caam in pairs:
            report = analyze(
                scenario.model, caam, subject=scenario.params.name
            )
            diagnostics += len(report.diagnostics)
            errors += len(report.at_or_above("error"))
        corpus_s = time.perf_counter() - start

    passes = {}
    for name in pass_names():
        stat = recorder.metrics.timer_stat(f"analysis.pass.{name}")
        if stat is not None:
            passes[name] = {"calls": stat.count, "total_s": stat.total}
    return {
        "corpus_seed": ANALYSIS_SEED,
        "corpus_models": ANALYSIS_COUNT,
        "corpus_analyze_s": corpus_s,
        "models_per_sec": ANALYSIS_COUNT / corpus_s if corpus_s else None,
        "diagnostics": diagnostics,
        "error_diagnostics": errors,
        "crane_analyze_s": crane_s,
        "crane_clean": crane_report.clean,
        "passes": passes,
    }


@pytest.fixture(scope="session")
def analysis_bench(pytestconfig):
    """Run the analyzer sweep once; sessionfinish reuses the numbers."""
    stats = _measure_analysis()
    pytestconfig._analysis_bench = stats
    return stats


#: Fixed-seed corpus the codegen throughput benchmark sweeps, and how
#: many of those models get the expensive compile-and-pin differential.
CODEGEN_SEED = 42
CODEGEN_COUNT = 30
CODEGEN_DIFF_COUNT = 5


def _measure_codegen() -> dict:
    """Static-schedule backend throughput: models/sec over the zoo corpus.

    Synthesis is done up front (the backend is the unit under test);
    every model is scheduled and emitted to C and Java, every manifest is
    hash-verified, and — when a C compiler is available — the first few
    models also run the full compile-and-pin differential against the
    slot engine.
    """
    from repro.codegen import (
        build_schedule,
        cc_available,
        differential_check,
        generate,
        verify_manifest,
    )
    from repro.codegen.trace import flatten_artifacts
    from repro.core import synthesize
    from repro.zoo import generate_corpus
    from repro.zoo.generator import stimuli_for

    synthesized = []
    for scenario in generate_corpus(CODEGEN_SEED, CODEGEN_COUNT):
        result = synthesize(
            scenario.model,
            auto_allocate=scenario.params.auto_allocate,
            behaviors=scenario.behaviors,
        )
        synthesized.append((scenario, result))

    start = time.perf_counter()
    schedules = [
        (scenario, result, build_schedule(result.caam))
        for scenario, result in synthesized
    ]
    schedule_s = time.perf_counter() - start

    buffers = 0
    records = 0
    verified = True
    start = time.perf_counter()
    generated = []
    for scenario, result, schedule in schedules:
        run = generate(
            result.caam,
            languages=("c", "java"),
            uml_trace=result.mapping.context.trace,
            schedule=schedule,
        )
        generated.append((scenario, result, run))
        buffers += len(schedule.buffers)
        records += len(run.manifest["records"])
        if verify_manifest(run.manifest, flatten_artifacts(run.artifacts)):
            verified = False
    emit_s = time.perf_counter() - start

    compiler = cc_available()
    checked = identical = 0
    if compiler:
        for scenario, result, run in generated[:CODEGEN_DIFF_COUNT]:
            params = scenario.params
            inports = [b.name for b in run.schedule.inports]
            episodes = stimuli_for(params, inports)
            diff = differential_check(
                result.caam, episodes, params.steps, schedule=run.schedule
            )
            checked += 1
            if diff.ok:
                identical += 1

    return {
        "corpus_seed": CODEGEN_SEED,
        "corpus_models": CODEGEN_COUNT,
        "schedule_s": schedule_s,
        "emit_s": emit_s,
        "models_per_sec_scheduled": (
            CODEGEN_COUNT / schedule_s if schedule_s else None
        ),
        "models_per_sec_emitted": CODEGEN_COUNT / emit_s if emit_s else None,
        "languages": ["c", "java"],
        "buffers": buffers,
        "manifest_records": records,
        "manifests_verified": verified,
        "differential": {
            "checked": checked,
            "bit_identical": identical,
            "compiler": compiler,
        },
    }


@pytest.fixture(scope="session")
def codegen_bench(pytestconfig):
    """Run the codegen sweep once; sessionfinish reuses the numbers."""
    stats = _measure_codegen()
    pytestconfig._codegen_bench = stats
    return stats


#: Admission-queue depths the server benchmark sweeps.
SERVER_QUEUE_DEPTHS = (1, 8, 64)


def _measure_server():
    """Serving overhead: jobs/sec + latency percentiles per queue depth.

    The synthesis cache is primed first so each job's cost is dominated by
    the server machinery (admission, scheduling, completion bookkeeping),
    not by synthesis itself.  Each depth's run is also evaluated against
    the server's default SLO targets — the per-depth p50/p95/p99 and
    budget/burn numbers land in the BENCH document's ``"slo"`` section
    (schema checked by ``tools/validate_trace.py --bench``).
    """
    from repro.core import synthesize
    from repro.apps import didactic
    from repro.parallel import cache
    from repro.server import JobManager, JobSpec

    state = cache.snapshot()
    depths = {}
    slo_depths = {}
    slo_meta = {}
    try:
        cache.configure(enabled=True)
        synthesize(didactic.build_model())  # warm the content cache
        for depth in SERVER_QUEUE_DEPTHS:
            manager = JobManager(workers=2, queue_depth=depth).start()
            try:
                start = time.perf_counter()
                jobs = [
                    manager.submit(JobSpec(kind="synthesize", demo="didactic"))
                    for _ in range(depth)
                ]
                while not all(job.state.terminal for job in jobs):
                    time.sleep(0.002)
                elapsed = time.perf_counter() - start
                stat = manager.metrics.histogram_stat("server.job.latency")
                depths[str(depth)] = {
                    "jobs": depth,
                    "done": sum(
                        1 for job in jobs if job.state.value == "done"
                    ),
                    "jobs_per_sec": depth / elapsed if elapsed else None,
                    "p50_latency_s": stat.percentile(0.50) if stat else None,
                    "p95_latency_s": stat.percentile(0.95) if stat else None,
                }
                slo_depths[str(depth)] = _slo_depth_entry(manager)
                if not slo_meta:
                    slo_meta = {
                        "window_s": manager.slo.window_s,
                        "targets": {
                            t.name: t.to_dict() for t in manager.slo.targets
                        },
                    }
            finally:
                manager.shutdown()
    finally:
        cache.restore(state)
    return {
        "workers": 2,
        "queue_depths": depths,
        "slo": {**slo_meta, "queue_depths": slo_depths},
    }


def _slo_depth_entry(manager) -> dict:
    """One queue depth's observed latency percentiles vs the SLO targets.

    Summarizes the aggregate ``jobs`` target's latency objectives from a
    live :meth:`JobManager.slo_report`: the three observed percentiles,
    plus worst-case attainment/budget/burn/risk across them.
    """
    risks = ("ok", "warn", "breach")
    document = manager.slo_report(publish=True)
    latency = {
        record["objective"]: record
        for record in document["records"]
        if record["target"] == "jobs" and record["objective"] != "availability"
    }
    entry = {
        "p50_s": latency["p50"]["observed"],
        "p95_s": latency["p95"]["observed"],
        "p99_s": latency["p99"]["observed"],
        "attainment_pct": min(r["attainment_pct"] for r in latency.values()),
        "budget_remaining_pct": min(
            r["budget_remaining_pct"] for r in latency.values()
        ),
        "burn_rate": max(r["burn_rate"] for r in latency.values()),
        "risk": max(
            (r["risk"] for r in latency.values()), key=risks.index
        ),
    }
    return entry


@pytest.fixture(scope="session")
def server_bench(pytestconfig):
    """Run the server sweep once; sessionfinish reuses the same numbers."""
    stats = _measure_server()
    pytestconfig._server_bench = stats
    return stats


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_obs.json (repo root) from a fresh metrics registry."""
    recorder = obs.Recorder()
    with obs.use(recorder):
        _collect_obs_metrics(recorder)
    metrics = recorder.metrics
    parallel_stats = _measure_parallel()
    server_stats = getattr(
        session.config, "_server_bench", None
    ) or _measure_server()
    zoo_stats = getattr(session.config, "_zoo_bench", None) or _measure_zoo()
    analysis_stats = getattr(
        session.config, "_analysis_bench", None
    ) or _measure_analysis()
    codegen_stats = getattr(
        session.config, "_codegen_bench", None
    ) or _measure_codegen()

    def total(name):
        stat = metrics.timer_stat(name)
        return stat.total if stat else None

    document = {
        "generated_unix": time.time(),
        "sim_steps": SIM_STEPS,
        "simulink_steps_per_sec": metrics.gauge_value(
            "simulink.sim.steps_per_sec"
        ),
        "fsm_steps_per_sec": metrics.gauge_value("fsm.sim.steps_per_sec"),
        "synthesize_crane_s": total("bench.synthesize.crane"),
        "synthesize_mjpeg_s": total("bench.synthesize.mjpeg"),
        "parallel": parallel_stats,
        # The server's SLO figures are written once, as the top-level
        # "slo" section that tools/validate_trace.py --bench checks:
        # declared targets vs observed percentiles per queue depth.
        "server": {k: v for k, v in server_stats.items() if k != "slo"},
        "slo": server_stats.get("slo", {}),
        "zoo": zoo_stats,
        "analysis": analysis_stats,
        "codegen": codegen_stats,
        "simkernel": _measure_simkernel(),
        "simbatch": _measure_simbatch(),
        "metrics": metrics.to_dict(),
    }
    path = os.path.join(str(session.config.rootpath), "BENCH_obs.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {path}")
