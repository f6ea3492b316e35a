"""Unit + property tests for design-space exploration (repro.dse.explore)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TaskGraph
from repro.dse import (
    ExplorationError,
    exhaustive_explore,
    explore,
    greedy_explore,
    pareto_front,
)
from repro.dse.explore import _set_partitions


def _two_chain_graph():
    graph = TaskGraph()
    graph.add_edge("A", "B", 320)
    graph.add_edge("C", "D", 320)
    return graph


class TestSetPartitions:
    def test_bell_numbers(self):
        assert len(list(_set_partitions(["a"]))) == 1
        assert len(list(_set_partitions(["a", "b"]))) == 2
        assert len(list(_set_partitions(["a", "b", "c"]))) == 5
        assert len(list(_set_partitions(list("abcd")))) == 15

    def test_each_partition_covers_all(self):
        for partition in _set_partitions(list("abc")):
            flat = sorted(x for group in partition for x in group)
            assert flat == ["a", "b", "c"]

    def test_empty(self):
        assert list(_set_partitions([])) == [[]]


class TestExhaustive:
    def test_best_first_ordering(self):
        candidates = exhaustive_explore(_two_chain_graph())
        makespans = [c.makespan for c in candidates]
        assert makespans == sorted(makespans)

    def test_parallel_chains_best_on_two_cpus(self):
        best = exhaustive_explore(_two_chain_graph())[0]
        assert best.cpu_count == 2
        assert best.plan.co_located("A", "B")
        assert best.plan.co_located("C", "D")
        assert not best.plan.co_located("A", "C")

    def test_max_cpus_respected(self):
        candidates = exhaustive_explore(_two_chain_graph(), max_cpus=1)
        assert all(c.cpu_count == 1 for c in candidates)

    def test_large_graph_rejected(self):
        graph = TaskGraph()
        for i in range(12):
            graph.add_node(f"T{i}")
        with pytest.raises(ExplorationError):
            exhaustive_explore(graph)


class TestGreedy:
    def test_seeded_with_linear_clustering(self):
        from repro.apps.synthetic import task_graph

        candidates = greedy_explore(task_graph())
        assert candidates  # at least the seed
        best = candidates[0]
        # The critical path must remain co-located in the best solution.
        for a, b in zip("ABCDF", "BCDFJ"):
            assert best.plan.co_located(a, b)

    def test_improves_or_equals_seed(self):
        from repro.apps.synthetic import task_graph
        from repro.core import allocate_threads
        from repro.dse import estimate_allocation

        graph = task_graph()
        seed_estimate = estimate_allocation(
            graph, allocate_threads(graph).plan
        )
        best = greedy_explore(graph)[0]
        assert best.makespan <= seed_estimate.makespan_cycles

    def test_max_cpus_budget(self):
        from repro.apps.synthetic import task_graph

        candidates = greedy_explore(task_graph(), max_cpus=2)
        assert all(c.cpu_count <= 2 for c in candidates)


def _random_graph(rng, threads):
    """A random weighted digraph over ``threads`` nodes (may have cycles)."""
    graph = TaskGraph()
    names = [f"T{i}" for i in range(threads)]
    for name in names:
        graph.add_node(name, float(rng.randint(1, 4)))
    for src in names:
        for dst in names:
            if src != dst and rng.random() < 0.35:
                graph.add_edge(src, dst, float(rng.randint(1, 8) * 32))
    return graph


class TestGreedyVsExhaustive:
    #: Seeds × sizes; ≤8 threads keeps Bell numbers (≤4140) test-friendly.
    CASES = [(seed, 3 + seed % 6) for seed in range(6)]

    @pytest.mark.parametrize("seed,threads", CASES)
    def test_greedy_never_beats_exhaustive_optimum(self, seed, threads):
        graph = _random_graph(random.Random(200 + seed), threads)
        optimum = exhaustive_explore(graph)[0]
        best_greedy = greedy_explore(graph)[0]
        assert optimum.metric <= best_greedy.metric


class TestMaxCpusValidation:
    """A non-positive CPU budget is rejected up front by every explorer."""

    @pytest.mark.parametrize("max_cpus", [0, -1])
    def test_exhaustive_rejects(self, max_cpus):
        with pytest.raises(ExplorationError, match="max_cpus must be >= 1"):
            exhaustive_explore(_two_chain_graph(), max_cpus=max_cpus)

    @pytest.mark.parametrize("max_cpus", [0, -1])
    def test_greedy_rejects(self, max_cpus):
        from repro.apps.synthetic import task_graph

        with pytest.raises(ExplorationError, match="max_cpus must be >= 1"):
            greedy_explore(task_graph(), max_cpus=max_cpus)

    def test_front_door_rejects_on_both_strategies(self):
        from repro.apps.synthetic import task_graph

        for graph in (_two_chain_graph(), task_graph()):
            with pytest.raises(
                ExplorationError, match="max_cpus must be >= 1"
            ):
                explore(graph, max_cpus=0)

    def test_budget_of_one_still_explores(self):
        from repro.apps.synthetic import task_graph

        candidates = greedy_explore(task_graph(), max_cpus=1)
        assert [c.cpu_count for c in candidates] == [1]


class TestPareto:
    def test_front_has_no_dominated_points(self):
        candidates = exhaustive_explore(_two_chain_graph())
        front = pareto_front(candidates)
        for a in front:
            for b in front:
                assert not a.estimate.dominates(b.estimate) or a is b

    def test_front_sorted_by_cpu_count(self):
        front = pareto_front(exhaustive_explore(_two_chain_graph()))
        counts = [c.cpu_count for c in front]
        assert counts == sorted(counts)

    def test_front_covers_extremes(self):
        candidates = exhaustive_explore(_two_chain_graph())
        front = pareto_front(candidates)
        best_makespan = min(c.makespan for c in candidates)
        assert any(c.makespan == best_makespan for c in front)
        assert any(c.cpu_count == 1 for c in front)


class TestFrontDoor:
    def test_small_graph_goes_exhaustive(self):
        candidates = explore(_two_chain_graph())
        # Exhaustive of 4 nodes = bell(4) = 15 partitions.
        assert len(candidates) == 15

    def test_large_graph_goes_greedy(self):
        from repro.apps.synthetic import task_graph

        candidates = explore(task_graph())
        assert len(candidates) < 100  # visited optima only


_node_pool = [f"N{i}" for i in range(6)]


@st.composite
def _random_small_dags(draw):
    graph = TaskGraph()
    count = draw(st.integers(min_value=2, max_value=6))
    names = _node_pool[:count]
    for name in names:
        graph.add_node(name, draw(st.integers(1, 3)))
    for i in range(count):
        for j in range(i + 1, count):
            if draw(st.booleans()):
                graph.add_edge(names[i], names[j], draw(st.integers(1, 10)) * 32)
    return graph


class TestExplorationProperties:
    @given(_random_small_dags())
    @settings(max_examples=25, deadline=None)
    def test_greedy_never_beats_exhaustive(self, graph):
        """The exhaustive optimum lower-bounds every heuristic."""
        best_exhaustive = exhaustive_explore(graph)[0]
        best_greedy = greedy_explore(graph)[0]
        assert best_exhaustive.makespan <= best_greedy.makespan

    @given(_random_small_dags())
    @settings(max_examples=25, deadline=None)
    def test_every_candidate_is_a_full_partition(self, graph):
        for candidate in exhaustive_explore(graph):
            assert sorted(candidate.plan.threads) == sorted(graph.nodes)


class TestThroughputObjective:
    def _pipeline_graph(self):
        from repro.core import TaskGraph

        graph = TaskGraph()
        for index in range(4):
            graph.add_node(f"S{index}", 2.0)
        for index in range(3):
            graph.add_edge(f"S{index}", f"S{index + 1}", 32)
        return graph

    def test_throughput_objective_spreads_pipeline(self):
        """A serial pipeline collapses to 1 CPU under the latency
        objective but spreads across CPUs under throughput."""
        graph = self._pipeline_graph()
        latency_best = exhaustive_explore(graph, objective="latency")[0]
        throughput_best = exhaustive_explore(graph, objective="throughput")[0]
        assert latency_best.cpu_count == 1
        assert throughput_best.cpu_count > 1
        assert throughput_best.interval < latency_best.interval

    def test_metric_property_follows_objective(self):
        graph = self._pipeline_graph()
        candidate = exhaustive_explore(graph, objective="throughput")[0]
        assert candidate.metric == candidate.interval

    def test_unknown_objective_rejected(self):
        from repro.dse import EstimationError, estimate_allocation
        from repro.uml import DeploymentPlan

        graph = self._pipeline_graph()
        plan = DeploymentPlan.from_mapping(
            {n: "CPU0" for n in graph.nodes}
        )
        estimate = estimate_allocation(graph, plan)
        with pytest.raises(EstimationError):
            estimate.metric("power")

    def test_pareto_front_per_objective(self):
        graph = self._pipeline_graph()
        candidates = exhaustive_explore(graph, objective="throughput")
        front = pareto_front(candidates, objective="throughput")
        intervals = [c.interval for c in front]
        # More CPUs on the front must strictly improve the interval.
        assert intervals == sorted(intervals, reverse=True)
