"""Unit tests for the new validators in ``tools/validate_trace.py``."""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "tools")
)
from validate_trace import (  # noqa: E402
    main,
    validate_bench_slo,
    validate_bench_zoo,
    validate_metrics,
    validate_slo,
    validate_span_tree,
)


def event(name, id, parent=None):
    args = {} if parent is None else {"parent_id": parent}
    return {
        "ph": "X",
        "name": name,
        "id": id,
        "ts": 0,
        "dur": 1,
        "pid": 1,
        "tid": 1,
        "args": args,
    }


def slo_document(**overrides):
    record = {
        "target": "jobs",
        "objective": "availability",
        "target_value": 99.0,
        "observed": 100.0,
        "events": 10,
        "errors": 0,
        "attainment_pct": 100.0,
        "budget_remaining_pct": 100.0,
        "burn_rate": 0.0,
        "risk": "ok",
    }
    record.update(overrides.pop("record", {}))
    document = {
        "window_s": 300.0,
        "risk": "ok",
        "targets": [{"name": "jobs"}],
        "records": [record],
    }
    document.update(overrides)
    return document


class TestSpanTree:
    def test_single_rooted_tree_passes(self):
        document = {
            "traceEvents": [
                event("root", 1),
                event("child", 2, parent=1),
                event("grandchild", 3, parent=2),
            ]
        }
        validate_span_tree(document)

    def test_orphan_parent_rejected(self):
        document = {
            "traceEvents": [event("root", 1), event("lost", 2, parent=99)]
        }
        with pytest.raises(ValueError, match="orphaned subtree"):
            validate_span_tree(document)

    def test_multiple_roots_rejected(self):
        document = {"traceEvents": [event("a", 1), event("b", 2)]}
        with pytest.raises(ValueError, match="exactly one root"):
            validate_span_tree(document)

    def test_metadata_events_ignored(self):
        document = {
            "traceEvents": [
                {"ph": "M", "name": "process_name", "args": {}},
                event("root", 1),
            ]
        }
        validate_span_tree(document)


def metrics_document(timers=(), counters=()):
    stat = {"count": 1, "total": 0.1, "min": 0.1, "max": 0.1, "mean": 0.1}
    return {
        "counters": {name: 1.0 for name in counters},
        "gauges": {},
        "timers": {name: dict(stat) for name in timers},
    }


MISS_TIMERS = (
    "flow.synthesize",
    "flow.map",
    "flow.optimize",
    "optimize.channels",
    "optimize.barriers",
)
MISS_COUNTERS = ("mapping.rule.thread2subsystem", "optimize.channels.intra")


class TestMetricsValidator:
    @pytest.mark.parametrize(
        "hit", ["cache.synthesize.hit", "cache.synthesize.hit_disk"]
    )
    def test_cache_hit_accepted(self, hit):
        timers = ("cli.synthesize", "flow.cache")
        validate_metrics(metrics_document(timers, (hit,)))

    def test_cache_hit_needs_lookup_timer(self):
        with pytest.raises(ValueError, match="flow.cache"):
            validate_metrics(
                metrics_document(counters=("cache.synthesize.hit",))
            )

    def test_cold_run_accepted(self):
        validate_metrics(metrics_document(MISS_TIMERS, MISS_COUNTERS))

    def test_miss_keeps_every_requirement(self):
        timers = ("flow.cache",) + MISS_TIMERS[1:]
        counters = ("cache.synthesize.miss",) + MISS_COUNTERS
        with pytest.raises(ValueError, match="flow.synthesize"):
            validate_metrics(metrics_document(timers, counters))

    def test_hit_plus_miss_needs_the_flow_keys(self):
        counters = ("cache.synthesize.hit", "cache.synthesize.miss")
        with pytest.raises(ValueError, match="flow.synthesize"):
            validate_metrics(metrics_document(("flow.cache",), counters))

    def test_neither_hit_nor_flow_rejected(self):
        with pytest.raises(ValueError, match="flow.synthesize"):
            validate_metrics(
                metrics_document(
                    ("cli.synthesize",), ("flow.synthesize.calls",)
                )
            )


class TestSloValidator:
    def test_valid_document_passes(self):
        validate_slo(slo_document())

    def test_missing_field_rejected(self):
        document = slo_document()
        del document["records"]
        with pytest.raises(ValueError, match="records"):
            validate_slo(document)

    def test_undeclared_target_rejected(self):
        document = slo_document(record={"target": "ghost"})
        with pytest.raises(ValueError, match="undeclared target"):
            validate_slo(document)

    def test_overall_risk_must_match_worst_record(self):
        document = slo_document(
            record={"risk": "breach", "burn_rate": 2.0,
                    "budget_remaining_pct": 0.0}
        )
        with pytest.raises(ValueError, match="worst"):
            validate_slo(document)
        document["risk"] = "breach"
        validate_slo(document)

    def test_burn_over_one_must_be_breach(self):
        document = slo_document(record={"burn_rate": 1.5})
        with pytest.raises(ValueError, match="breach"):
            validate_slo(document)

    def test_percentages_bounded(self):
        document = slo_document(record={"attainment_pct": 120.0})
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            validate_slo(document)


class TestBenchSloValidator:
    def bench(self):
        return {
            "slo": {
                "window_s": 300.0,
                "targets": {"jobs": {"name": "jobs"}},
                "queue_depths": {
                    "8": {
                        "p50_s": 0.1,
                        "p95_s": 0.2,
                        "p99_s": 0.3,
                        "attainment_pct": 100.0,
                        "budget_remaining_pct": 100.0,
                        "burn_rate": 0.0,
                        "risk": "ok",
                    }
                },
            }
        }

    def test_valid_section_passes(self):
        validate_bench_slo(self.bench())

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError, match="'slo' object"):
            validate_bench_slo({})

    def test_non_integer_depth_rejected(self):
        document = self.bench()
        document["slo"]["queue_depths"]["deep"] = document["slo"][
            "queue_depths"
        ].pop("8")
        with pytest.raises(ValueError, match="integer"):
            validate_bench_slo(document)

    def test_missing_depth_field_rejected(self):
        document = self.bench()
        del document["slo"]["queue_depths"]["8"]["burn_rate"]
        with pytest.raises(ValueError, match="burn_rate"):
            validate_bench_slo(document)


class TestBenchZooValidator:
    def bench(self, **overrides):
        section = {
            "seed": 42,
            "models": 60,
            "families": ["pipeline"],
            "corpus_digest": "0" * 64,
            "models_per_sec_cold": 250.0,
            "models_per_sec_warm": 1100.0,
            "warm_hit_rate": 1.0,
            "cache_speedup": 4.4,
            "artifacts_identical": True,
        }
        section.update(overrides)
        return {"zoo": section}

    def test_valid_section_passes(self):
        validate_bench_zoo(self.bench())

    @pytest.mark.parametrize("speedup", [2.2, 3.99, None])
    def test_cache_speedup_below_floor_rejected(self, speedup):
        with pytest.raises(ValueError, match="cache_speedup"):
            validate_bench_zoo(self.bench(cache_speedup=speedup))


class TestCli:
    def test_requires_something_to_validate(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_slo_flag(self, tmp_path, capsys):
        path = tmp_path / "slo.json"
        path.write_text(__import__("json").dumps(slo_document()))
        assert main(["--slo", str(path)]) == 0
        assert "valid SLO report" in capsys.readouterr().out

    def test_tree_flag_catches_orphans(self, tmp_path, capsys):
        import json

        document = {
            "traceEvents": [event("root", 1), event("lost", 2, parent=9)]
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(document))
        assert main([str(path)]) == 0
        assert main([str(path), "--tree"]) == 1
        assert "orphaned" in capsys.readouterr().err
