"""The vectorized batch estimator vs the scalar loop, bit for bit.

``estimate_allocations`` replays ``estimate_allocation``'s exact IEEE op
order across a plans axis; these tests pin that equivalence (struct-packed
float comparison, not approximate) and the explorer wiring that uses it.
"""

import importlib
import random
import struct

import pytest

from repro.core.taskgraph import TaskGraph
from repro.dse.estimate import (
    EstimationError,
    estimate_allocation,
    estimate_allocations,
)
from repro.dse.explore import (
    DSE_BATCH_MIN,
    exhaustive_explore,
    greedy_explore,
)
from repro.uml.deployment import DeploymentPlan

pytest.importorskip("numpy")

#: The module itself: ``repro.dse.explore`` resolves to the front-door
#: function re-exported by the package.
explore_module = importlib.import_module("repro.dse.explore")

FIELDS = (
    "makespan_cycles",
    "computation_cycles",
    "inter_cpu_cycles",
    "intra_cpu_cycles",
    "interval_cycles",
)


def _bits(value):
    return struct.pack("<d", value)


def assert_estimates_identical(got, want):
    for field in FIELDS:
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
    assert got.cpu_count == want.cpu_count


def _random_graph(rng, cyclic=False):
    graph = TaskGraph()
    names = [f"t{i}" for i in range(rng.randint(2, 9))]
    for name in names:
        graph.add_node(name, rng.choice([0.5, 1.0, 2.0, 3.25, 7.5]))
    for _ in range(rng.randint(0, 14)):
        a, b = rng.sample(names, 2)
        if not cyclic and names.index(a) > names.index(b):
            a, b = b, a
        if (a, b) not in graph.edges:
            graph.add_edge(a, b, rng.choice([8, 32, 64, 96, 128]))
    return graph, names


def _random_plans(rng, names, count):
    plans = []
    for _ in range(count):
        plan = DeploymentPlan()
        cpus = rng.randint(1, len(names))
        for name in names:
            plan.assign(name, f"cpu{rng.randrange(cpus)}")
        plans.append(plan)
    return plans


def _candidate_key(candidate):
    return (
        tuple(_bits(getattr(candidate.estimate, field)) for field in FIELDS),
        candidate.estimate.cpu_count,
        candidate.objective,
        tuple(sorted(candidate.plan.as_mapping().items())),
        tuple(candidate.plan.cpus),
    )


class TestBatchedEstimates:
    def test_random_graphs_bit_identical_to_loop(self):
        rng = random.Random(7)
        for trial in range(30):
            graph, names = _random_graph(rng, cyclic=(trial % 3 == 0))
            plans = _random_plans(rng, names, rng.randint(2, 25))
            unit = rng.choice([50.0, 1.0, 13.7])
            batched = estimate_allocations(
                graph, plans, cycles_per_unit=unit
            )
            for estimate, plan in zip(batched, plans):
                assert_estimates_identical(
                    estimate,
                    estimate_allocation(graph, plan, cycles_per_unit=unit),
                )

    def test_empty_plan_list(self):
        graph, _ = _random_graph(random.Random(1))
        assert estimate_allocations(graph, []) == []

    def test_single_plan_matches_scalar(self):
        rng = random.Random(2)
        graph, names = _random_graph(rng)
        (plan,) = _random_plans(rng, names, 1)
        (batched,) = estimate_allocations(graph, [plan])
        assert_estimates_identical(batched, estimate_allocation(graph, plan))

    def test_partial_plan_rejected(self):
        rng = random.Random(3)
        graph, names = _random_graph(rng)
        (good,) = _random_plans(rng, names, 1)
        partial = DeploymentPlan()
        partial.assign(names[0], "cpu0")
        with pytest.raises(EstimationError, match="has no CPU"):
            estimate_allocations(graph, [good, partial])


class TestExplorerWiring:
    def _graph(self):
        graph, _ = _random_graph(random.Random(11))
        return graph

    def test_exhaustive_identical_with_batching_disabled(self, monkeypatch):
        graph = self._graph()
        batched = exhaustive_explore(graph)
        monkeypatch.setattr(explore_module, "DSE_BATCH_MIN", 10**9)
        looped = exhaustive_explore(graph)
        assert len(batched) >= DSE_BATCH_MIN  # the batch path engaged
        assert list(map(_candidate_key, batched)) == list(
            map(_candidate_key, looped)
        )

    def test_greedy_identical_with_batching_disabled(self, monkeypatch):
        graph = self._graph()
        batched = greedy_explore(graph)
        monkeypatch.setattr(explore_module, "DSE_BATCH_MIN", 10**9)
        looped = greedy_explore(graph)
        assert list(map(_candidate_key, batched)) == list(
            map(_candidate_key, looped)
        )

    def test_throughput_objective_identical(self, monkeypatch):
        graph = self._graph()
        batched = exhaustive_explore(graph, objective="throughput")
        monkeypatch.setattr(explore_module, "DSE_BATCH_MIN", 10**9)
        looped = exhaustive_explore(graph, objective="throughput")
        assert list(map(_candidate_key, batched)) == list(
            map(_candidate_key, looped)
        )

    def test_candidate_counter_totals_unchanged(self):
        from repro import obs

        graph = self._graph()
        recorder = obs.Recorder()
        with obs.use(recorder):
            candidates = exhaustive_explore(graph)
        metrics = recorder.metrics
        assert metrics.counter("dse.candidates") == len(candidates)
        timer = metrics.to_dict()["timers"]["dse.evaluate"]
        assert timer["count"] == len(candidates)
