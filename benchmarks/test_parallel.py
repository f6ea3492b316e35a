"""Extension experiment E5 — batched DSE and the synthesis cache.

Measures (a) exhaustive exploration of a 9-thread subgraph of the
synthetic Fig. 7(a) task graph with the vectorized batch estimator vs
the scalar per-candidate path (batching forced off through
``DSE_BATCH_MIN``), asserting the candidate lists are identical, and (b)
cold- vs warm-cache ``synthesize()`` on the crane case study, asserting
the warm run returns the same artifact.  Wall-clock speedups depend on
the host; the *correctness* assertions hold everywhere.
"""

import importlib
import os
import time

from repro.apps import crane, synthetic
from repro.core import TaskGraph, synthesize
from repro.dse.explore import candidate_sort_key, exhaustive_explore
from repro.parallel import cache


def _subgraph(threads: int) -> TaskGraph:
    """The synthetic task graph restricted to its first ``threads`` nodes."""
    keep = set(synthetic.THREADS[:threads])
    full = synthetic.task_graph()
    graph = TaskGraph()
    for name in sorted(keep):
        graph.add_node(name, full.node_weights[name])
    for (src, dst), weight in full.edges.items():
        if src in keep and dst in keep:
            graph.add_edge(src, dst, weight)
    return graph


def test_batched_exhaustive_matches_scalar(paper_report, monkeypatch):
    graph = _subgraph(9)  # Bell(9) = 21147 partitions

    start = time.perf_counter()
    batched = exhaustive_explore(graph)
    batched_s = time.perf_counter() - start

    # ``repro.dse.explore`` as an attribute is the re-exported function.
    explore_module = importlib.import_module("repro.dse.explore")
    monkeypatch.setattr(explore_module, "DSE_BATCH_MIN", 10**9)
    start = time.perf_counter()
    scalar = exhaustive_explore(graph)
    scalar_s = time.perf_counter() - start

    assert [candidate_sort_key(c) for c in batched] == [
        candidate_sort_key(c) for c in scalar
    ]
    speedup = scalar_s / batched_s if batched_s else 0.0
    paper_report(
        "E5a: batched DSE estimation (9-thread graph, Bell(9)=21147)",
        [
            ("candidates", "21147", f"{len(batched)}"),
            ("scalar", "baseline", f"{scalar_s:.2f} s"),
            ("batched", "identical output", f"{batched_s:.2f} s"),
            ("speedup", ">=1.2x", f"{speedup:.2f}x"),
        ],
    )


def test_warm_cache_synthesize(paper_report):
    state = cache.snapshot()
    try:
        cache.configure(enabled=True)
        model = crane.build_model()

        start = time.perf_counter()
        cold = synthesize(model)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm = synthesize(crane.build_model())
        warm_s = time.perf_counter() - start
    finally:
        cache.restore(state)

    assert warm.obs.parallel["cache"]["status"] == "hit"
    assert warm.mdl_text == cold.mdl_text
    assert warm_s < cold_s
    speedup = cold_s / warm_s if warm_s else 0.0
    paper_report(
        "E5b: content-addressed synthesis cache (crane)",
        [
            ("cold synthesize", "full flow", f"{cold_s * 1e3:.2f} ms"),
            ("warm synthesize", "cache hit", f"{warm_s * 1e3:.2f} ms"),
            ("speedup", ">=5x", f"{speedup:.1f}x"),
        ],
    )


def test_disk_cache_survives_instances(tmp_path, paper_report):
    directory = str(tmp_path / "cache")
    state = cache.snapshot()
    try:
        cache.configure(enabled=True, directory=directory)
        cold = synthesize(crane.build_model())
        # A fresh instance with cold memory must hit the disk store.
        cache.configure(enabled=True, directory=directory)
        start = time.perf_counter()
        warm = synthesize(crane.build_model())
        disk_s = time.perf_counter() - start
    finally:
        cache.restore(state)

    assert warm.obs.parallel["cache"]["status"] == "hit"
    assert warm.mdl_text == cold.mdl_text
    entries = len(os.listdir(directory))
    paper_report(
        "E5c: on-disk synthesis cache (crane)",
        [
            ("disk entries", ">=1", f"{entries}"),
            ("disk-warm synthesize", "pickle load", f"{disk_s * 1e3:.2f} ms"),
        ],
    )
