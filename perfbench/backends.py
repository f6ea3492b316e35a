"""``backends``: the paper's heterogeneous back-ends over synthesized models.

Set-up synthesizes the corpus (with behaviours) once.  One operation then
takes one model through four separately timed steps:

1. simulation -- one long episode on the scalar slot engine and one
   32-episode ``run_many`` on the batch engine;
2. ``repro.codegen.generate`` (C + Java + trace manifest);
3. ``repro.analysis.analyze``;
4. ``repro.dse.explore`` plus ``pareto_front`` on the model's task graph.
"""

from __future__ import annotations

import importlib
import json
from typing import Dict, List, Tuple

from repro.analysis import registry
from repro.codegen import backend
from repro.codegen.trace import flatten_artifacts, verify_manifest
from repro.core import flow
from repro.core.taskgraph import task_graph_from_model
from repro.simulink import simulator as sim_module

import inputs
from common import (
    Outcome,
    combined,
    episode_digest,
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

# The package re-exports the function under the submodule's name.
dse = importlib.import_module("repro.dse.explore")

IMPORTS = (
    "repro.core.flow",
    "repro.simulink.simulator",
    "repro.simulink.batch",
    "repro.codegen.backend",
    "repro.analysis.registry",
    "repro.dse.explore",
)

PER_STRATUM = 2
#: ~390 operations per 15 s run leave ~19 samples beyond p95.
TAIL_PCT = 95.0
LONG_STEPS = 1000
BATCH_EPISODES = 32
BATCH_STEPS = 100
STEPS = ("sim_scalar", "sim_batch", "codegen", "analyze", "explore")

LAYERS = (
    Layer("repro.simulink.simulator:Simulator.__init__", "simulink.simulator.compile_ms"),
    Layer("repro.simulink.simulator:Simulator.run", "simulink.simulator.run_ms"),
    Layer("repro.simulink.batch:BatchSimulator.__init__", "simulink.batch.compile_ms"),
    Layer("repro.simulink.batch:BatchSimulator.run_many", "simulink.batch.run_ms"),
    Layer("repro.codegen.backend:generate", "codegen.generate_ms"),
    Layer("repro.codegen.backend:build_schedule", "codegen.schedule_ms"),
    Layer("repro.codegen.cemit:generate_c", "codegen.emit_c_ms"),
    Layer("repro.codegen.javaemit:generate_java", "codegen.emit_java_ms"),
    Layer("repro.codegen.backend:build_manifest", "codegen.manifest_ms"),
    Layer(
        "repro.analysis.registry:analyze",
        "analysis.analyze_ms",
        lambda r, a, k: {"analysis.findings": len(r.diagnostics)},
    ),
    Layer(
        "repro.dse.explore:explore",
        "dse.explore_ms",
        lambda r, a, k: {"dse.candidates": len(r)},
    ),
    Layer(
        "repro.dse.explore:pareto_front",
        "dse.pareto_ms",
        lambda r, a, k: {"dse.front": len(r)},
    ),
)


class Prepared:
    """One synthesized model with everything its four steps consume."""

    def __init__(self, item: inputs.Item) -> None:
        self.item = item
        result = flow.synthesize(
            item.model, behaviors=item.behaviors, auto_allocate=item.auto_allocate
        )
        self.caam = result.caam
        self.trace = result.mapping.context.trace
        self.graph = task_graph_from_model(item.model)
        base = inputs.base_stimuli(item, inputs.root_inports(result.caam))
        self.long = inputs.long_episode(base, LONG_STEPS)
        self.batch = inputs.episode_batch(base, BATCH_EPISODES, BATCH_STEPS)
        self.codegen = item.params is not None or item.name in inputs.CODEGEN_CASE_STUDIES


def corpus(seed: int, per_stratum: int = PER_STRATUM) -> List[Prepared]:
    items = inputs.zoo_corpus(seed, per_stratum) + inputs.case_studies()
    return [Prepared(item) for item in items]


def front_doc(front) -> str:
    return json.dumps(
        [
            [c.cpu_count, c.metric, [sorted(c.plan.threads_on(cpu)) for cpu in c.plan.cpus]]
            for c in front
        ]
    )


class StepFailed(Exception):
    """One of an operation's steps raised; ``step`` names it."""

    def __init__(self, step: str, cause: Exception) -> None:
        super().__init__(f"{step}: {type(cause).__name__}: {cause}")
        self.step = step


def operate(model: Prepared) -> Dict[str, object]:
    """The four steps on one model: outputs plus per-step seconds."""
    where = [STEPS[0]]
    try:
        return _operate(model, where)
    except Exception as exc:  # noqa: BLE001 - re-raised with its step
        raise StepFailed(where[0], exc) from exc


def _operate(model: Prepared, where: List[str]) -> Dict[str, object]:
    t0 = perf()
    scalar = sim_module.Simulator(model.caam, engine="slots").run(
        LONG_STEPS, inputs=model.long
    )
    t1 = perf()
    where[0] = "sim_batch"
    batch = sim_module.Simulator(model.caam, engine="batch").run_many(
        BATCH_STEPS, model.batch
    )
    t2 = perf()
    where[0] = "codegen"
    generated = None
    if model.codegen:
        generated = backend.generate(
            model.caam, languages=("c", "java"), uml_trace=model.trace
        )
    t3 = perf()
    where[0] = "analyze"
    report = registry.analyze(model.item.model, model.caam, subject=model.item.name)
    t4 = perf()
    where[0] = "explore"
    candidates = dse.explore(model.graph)
    front = dse.pareto_front(candidates)
    t5 = perf()
    times = dict(zip(STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)))
    return {
        "start": t0,
        "times": times,
        "scalar": scalar,
        "batch": batch,
        "generated": generated,
        "report": report,
        "candidates": len(candidates),
        "front": front,
    }


def digests_of(out) -> Dict[str, str]:
    """Exact digests of one operation's outputs (computed untimed)."""
    sim = [episode_digest(out["scalar"])] + [episode_digest(r) for r in out["batch"]]
    generated = out["generated"]
    files = {} if generated is None else dict(generated.files)
    return {
        "sim": sha(" ".join(sim)),
        "codegen": sha(json.dumps(files, sort_keys=True)),
        "dse": sha(front_doc(out["front"])),
    }


class Totals(Ops):
    """Timed operations plus per-step seconds and work counts."""

    def __init__(self) -> None:
        super().__init__()
        #: (start, {step: seconds}) per successful operation.
        self.steps: List[Tuple[float, Dict[str, float]]] = []
        self.failed_steps: Dict[str, int] = {}
        self.codegen_models = 0
        self.src_bytes = 0
        self.candidates = 0

    def step_seconds(self, calibration) -> Dict[str, float]:
        """Total seconds per step, scaled to reference host speed."""
        totals = dict.fromkeys(STEPS, 0.0)
        for start, times in self.steps:
            factor = calibration.factor(start)
            for step, seconds in times.items():
                totals[step] += seconds * factor
        return totals


def timed_loop(models, seconds, outcome, first, tracer=None) -> Totals:
    """Cycle over ``models`` for ``seconds``.  The first output of each
    model is kept in ``first`` for the oracle checks; later ones must
    reproduce its digests."""
    totals = Totals()
    deadline = perf() + seconds
    while perf() < deadline:
        for model in models:
            outcome.calibration.maybe()
            excluded = tracer.excluded if tracer else 0.0
            name = model.item.name
            try:
                out = operate(model)
            except StepFailed as exc:
                totals.failures += 1
                totals.failed_steps[exc.step] = totals.failed_steps.get(exc.step, 0) + 1
                outcome.problem(f"{name}: {exc}")
            else:
                hooks = tracer.excluded - excluded if tracer else 0.0
                totals.add(name, out["start"], sum(out["times"].values()) - hooks)
                totals.steps.append((out["start"], out["times"]))
                totals.candidates += out["candidates"]
                if out["generated"] is not None:
                    totals.codegen_models += 1
                    totals.src_bytes += sum(
                        len(text)
                        for text in flatten_artifacts(out["generated"].artifacts).values()
                    )
                out["digests"] = digests_of(out)
                if name not in first:
                    first[name] = out
                elif out["digests"] != first[name]["digests"]:
                    outcome.problem(f"{name}: outputs differ between operations")
            if perf() >= deadline:
                break
    outcome.calibration.sample()
    return totals


def check_oracles(models, first, outcome: Outcome) -> None:
    """Each model's first outputs against the independent oracles: the
    reference interpreter (bit-identical episodes), manifest
    verification, and zero error-severity findings."""
    for model in models:
        out = first.get(model.item.name)
        if out is None:
            continue
        name = model.item.name
        reference = sim_module.Simulator(model.caam, engine="reference")
        want = [episode_digest(reference.run(LONG_STEPS, inputs=model.long))]
        for episode in model.batch:
            reference.reset()
            want.append(episode_digest(reference.run(BATCH_STEPS, inputs=episode)))
        got = [episode_digest(out["scalar"])] + [episode_digest(r) for r in out["batch"]]
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        if bad:
            outcome.problem(f"{name}: episodes {bad[:5]} differ from the reference engine")
        generated = out["generated"]
        if generated is not None:
            problems = verify_manifest(
                generated.manifest, flatten_artifacts(generated.artifacts)
            )
            if problems:
                outcome.problem(f"{name}: manifest: {problems[0]}")
        errors = out["report"].at_or_above("error")
        if errors:
            outcome.problem(f"{name}: {len(errors)} error finding(s): {errors[0]}")


def _layers(outcome, tracer: Tracer, traced: Totals, plain: Totals) -> None:
    if not traced.records or not plain.records:
        return  # every operation failed; the failures are the result
    cal = outcome.calibration
    count = len(traced.records)
    wall = sum(traced.walls(cal))
    for metric, spent in tracer.self_times(cal.factor).items():
        outcome.put(metric, spent * 1e3 / count, "ms")
    candidates = tracer.total_count("dse.candidates")
    outcome.put("dse.candidates", tracer.mean_count("dse.candidates"), "count")
    outcome.put(
        "dse.pareto_ratio",
        tracer.total_count("dse.front") / candidates if candidates else 0.0,
        "share",
    )
    outcome.put("analysis.findings", tracer.mean_count("analysis.findings"), "count")
    outcome.put(
        "codegen.failed",
        sum(t.failed_steps.get("codegen", 0) for t in (plain, traced)),
        "count",
    )
    covered = tracer.covered(cal.factor)
    outcome.put("unattributed_ms", (wall - covered) * 1e3 / count, "ms")
    outcome.put("trace.coverage", covered / wall, "share")
    outcome.put(
        "trace.overhead_ms", matched_overhead_ms(traced.by_key(cal), plain.by_key(cal)), "ms"
    )
    # Step rates come from the untraced half.
    s = plain.step_seconds(cal)
    models = len(plain.records)
    outcome.put("simulink.simulator.steps_per_s", models * LONG_STEPS / s["sim_scalar"], "1/s")
    outcome.put(
        "simulink.batch.steps_per_s",
        models * BATCH_EPISODES * BATCH_STEPS / s["sim_batch"],
        "1/s",
    )
    if plain.codegen_models:
        outcome.put("codegen.models_per_s", plain.codegen_models / s["codegen"], "1/s")
        outcome.put("codegen.src_bytes", plain.src_bytes / plain.codegen_models, "bytes")
    outcome.put("analysis.models_per_s", models / s["analyze"], "1/s")
    outcome.put("dse.candidates_per_s", plain.candidates / s["explore"], "1/s")


def pinned_digests(seed: int) -> dict:
    got: Dict[str, Dict[str, str]] = {"sim": {}, "codegen": {}, "dse": {}}
    for model in corpus(seed):
        for kind, digest in digests_of(operate(model)).items():
            got[kind][model.item.name] = digest
    return {kind: combined(entries) for kind, entries in got.items()}


def run(seed, seconds, trace, smoke=False) -> Outcome:
    outcome = Outcome()
    per_stratum = 1 if smoke else PER_STRATUM

    def build():
        import_probe(IMPORTS)
        return corpus(seed, per_stratum)

    setup_s, raw_s, models = repeated_setup(
        build, outcome.calibration, reps=1 if smoke else SETUP_REPS
    )
    outcome.put("setup_s", setup_s, "s")
    outcome.context["raw_setup_s"] = raw_s
    outcome.context["models"] = len(models)
    outcome.context["steps"] = {
        "long": LONG_STEPS, "batch_episodes": BATCH_EPISODES, "batch_steps": BATCH_STEPS
    }
    # One untimed pass, so process-wide lazy state is built before timing;
    # its outputs are the ones checked against the oracles.
    first: Dict[str, dict] = {}
    for model in models:
        out = operate(model)
        out["digests"] = digests_of(out)
        first[model.item.name] = out
    if trace:
        plain = timed_loop(models, seconds / 2, outcome, first)
        tracer = Tracer(LAYERS)
        with tracer:
            traced = timed_loop(models, seconds / 2, outcome, first, tracer)
        outcome.attempted += plain.attempted() + traced.attempted()
        _layers(outcome, tracer, traced, plain)
    else:
        plain = timed_loop(models, seconds, outcome, first)
        outcome.attempted += plain.attempted()
        if plain.records:
            put_e2e(outcome, plain, TAIL_PCT)
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    check_oracles(models, first, outcome)
    return outcome
