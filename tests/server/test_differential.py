"""Differential guarantee: served artifacts == library artifacts, byte for byte.

The server's executor must call the exact same front doors a library user
calls, so a ``.mdl`` fetched through ``POST /jobs`` + ``GET .../artifact``
is byte-identical to ``synthesize(model).mdl_text`` — with a cold cache,
with a warm cache, and for exploration JSON as well.
"""

import json

import pytest

from repro.apps import crane, didactic
from repro.core.flow import synthesize
from repro.core.taskgraph import task_graph_from_model
from repro.dse.explore import ExplorationError, explore, pareto_front
from repro.parallel import cache as pcache
from repro.server import JobManager, JobSpec, JobState, execute

from .test_manager import wait_for


@pytest.fixture()
def isolated_cache(tmp_path):
    """A private, enabled synthesis cache for the duration of a test."""
    state = pcache.snapshot()
    pcache.configure(enabled=True, directory=str(tmp_path / "cache"))
    try:
        yield
    finally:
        pcache.restore(state)


def run_job(manager, spec):
    job = manager.submit(spec)
    assert wait_for(lambda: job.state.terminal, timeout=60.0)
    assert job.state is JobState.DONE, job.error
    return job


class TestSynthesizeDifferential:
    def test_served_mdl_matches_library_cold_and_warm(self, isolated_cache):
        expected = synthesize(crane.build_model()).mdl_text
        manager = JobManager(workers=1).start()
        try:
            cold = run_job(manager, JobSpec(kind="synthesize", demo="crane"))
            assert cold.outcome.artifact_name == "crane.mdl"
            assert cold.outcome.artifact_text == expected

            # Second run hits the (now warm) content cache; bytes must not
            # change and the payload must say the cache engaged.
            warm = run_job(manager, JobSpec(kind="synthesize", demo="crane"))
            assert warm.outcome.artifact_text == expected
            assert warm.outcome.payload.get("cache", {}).get("status") == "hit"
        finally:
            manager.shutdown()

    def test_cache_disabled_still_byte_identical(self, isolated_cache):
        expected = synthesize(didactic.build_model(), use_cache=False).mdl_text
        manager = JobManager(workers=1).start()
        try:
            job = run_job(
                manager,
                JobSpec(
                    kind="synthesize",
                    demo="didactic",
                    options={"use_cache": False},
                ),
            )
            assert job.outcome.artifact_text == expected
        finally:
            manager.shutdown()


class TestExploreDifferential:
    def test_served_pareto_front_matches_library(self):
        model = didactic.build_model()
        graph = task_graph_from_model(model)
        candidates = explore(graph)
        front = pareto_front(candidates, objective="latency")
        expected = [
            (candidate.cpu_count, candidate.metric) for candidate in front
        ]

        manager = JobManager(workers=1).start()
        try:
            job = run_job(manager, JobSpec(kind="explore", demo="didactic"))
            assert job.outcome.artifact_name.endswith(".pareto.json")
            served = [
                (entry["cpus"], entry["metric"])
                for entry in json.loads(job.outcome.artifact_text)
            ]
            assert served == expected
            assert job.outcome.payload["candidates"] == len(candidates)
        finally:
            manager.shutdown()

    def test_nonpositive_max_cpus_fails_cleanly(self):
        spec = JobSpec(
            kind="explore", demo="synthetic", options={"max_cpus": 0}
        )
        with pytest.raises(ExplorationError, match="max_cpus must be >= 1"):
            execute(spec)

        manager = JobManager(workers=1).start()
        try:
            job = manager.submit(spec)
            assert wait_for(lambda: job.state.terminal, timeout=60.0)
            assert job.state is JobState.FAILED
            assert job.attempts == 1  # deterministic: never retried
            assert job.error.startswith("ExplorationError: max_cpus must")
            assert "IndexError" not in job.error
        finally:
            manager.shutdown()
