""""Synthesize the zoo" — end-to-end flow throughput on a generated corpus.

The zoo generator emits a fixed-seed corpus of full UML scenarios across
all families; this benchmark pushes every one through ``synthesize()``
cold (cache disabled) and then warm (content-addressed cache primed),
back to back per model, and reports models/sec for both.  The numbers land in the ``"zoo"``
section of ``BENCH_obs.json`` (written by ``pytest_sessionfinish``), so
the ROADMAP bench trajectory can track whole-flow throughput across PRs
on an identical workload (pinned by the corpus digest).
"""

from benchmarks.conftest import ZOO_COUNT, ZOO_SEED


def test_synthesize_the_zoo(zoo_bench, paper_report):
    stats = zoo_bench
    assert stats["seed"] == ZOO_SEED
    assert stats["models"] == ZOO_COUNT
    # Warm artifacts must be byte-identical to cold ones — the cache is
    # an optimization, not a re-specification of the flow.
    assert stats["artifacts_identical"]
    # Nothing in the corpus fingerprints ambiguously: every warm
    # synthesis is a cache hit.
    assert stats["warm_hit_rate"] == 1.0
    assert stats["models_per_sec_cold"] > 0
    assert stats["models_per_sec_warm"] > stats["models_per_sec_cold"]

    paper_report(
        f"E6: synthesize the zoo ({ZOO_COUNT} models, seed {ZOO_SEED})",
        [
            ("families", "6", f"{len(stats['families'])}"),
            (
                "cold flow",
                "full map+optimize+mdl",
                f"{stats['models_per_sec_cold']:.0f} models/s",
            ),
            (
                "warm flow",
                "cache hits",
                f"{stats['models_per_sec_warm']:.0f} models/s",
            ),
            ("warm hit rate", "100%", f"{stats['warm_hit_rate']:.0%}"),
            ("cache speedup", ">=4x", f"{stats['cache_speedup']:.2f}x"),
            ("corpus digest", "pinned", stats["corpus_digest"][:12]),
        ],
    )
