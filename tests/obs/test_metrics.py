"""Unit tests for the metrics registry (counters, gauges, timers)."""

import json
import time

from repro.obs import HistogramStat, MetricsRegistry


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.incr("c")
        registry.incr("c", 2.5)
        assert registry.counter("c") == 3.5
        assert registry.counter("absent") == 0.0

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("g", 1.0)
        registry.gauge("g", 7.0)
        assert registry.gauge_value("g") == 7.0
        assert registry.gauge_value("absent") is None


class TestTimers:
    def test_observe_aggregates(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.3, 0.2):
            registry.observe("t", value)
        stat = registry.timer_stat("t")
        assert stat.count == 3
        assert abs(stat.total - 0.6) < 1e-9
        assert stat.min == 0.1 and stat.max == 0.3
        assert abs(stat.mean - 0.2) < 1e-9

    def test_timer_context_accuracy_bounds(self):
        registry = MetricsRegistry()
        with registry.timer("sleep"):
            time.sleep(0.02)
        stat = registry.timer_stat("sleep")
        # Lower bound is hard (the sleep really happened); the upper bound
        # is generous to tolerate loaded CI machines.
        assert stat.count == 1
        assert 0.015 <= stat.total < 2.0

    def test_unobserved_timer_is_none(self):
        assert MetricsRegistry().timer_stat("nope") is None


class TestExport:
    def test_to_dict_sections_and_sorting(self):
        registry = MetricsRegistry()
        registry.incr("b")
        registry.incr("a")
        registry.gauge("g", 1.0)
        registry.observe("t", 0.5)
        snapshot = registry.to_dict()
        assert list(snapshot) == ["counters", "gauges", "timers"]
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["timers"]["t"]["count"] == 1

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.incr("c", 2)
        registry.gauge("g", 3.5)
        registry.observe("t", 0.25)
        loaded = json.loads(registry.to_json())
        assert loaded["counters"]["c"] == 2
        assert loaded["gauges"]["g"] == 3.5
        assert loaded["timers"]["t"]["mean"] == 0.25

    def test_write_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.incr("c")
        path = tmp_path / "m.json"
        registry.write(str(path))
        assert json.loads(path.read_text())["counters"]["c"] == 1

    def test_len_counts_all_families(self):
        registry = MetricsRegistry()
        assert len(registry) == 0
        registry.incr("a")
        registry.gauge("b", 1)
        registry.observe("c", 1)
        assert len(registry) == 3


class TestHistogramEdgeCases:
    """Percentile math must be total: no input may raise or extrapolate."""

    def test_empty_reservoir_percentile_is_zero(self):
        hist = HistogramStat()
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.percentile(q) == 0.0

    def test_single_sample_answers_itself_for_every_q(self):
        hist = HistogramStat()
        hist.observe(3.25)
        for q in (-1.0, 0.0, 0.5, 0.99, 1.0, 2.0):
            assert hist.percentile(q) == 3.25

    def test_q_is_clamped_not_extrapolated(self):
        hist = HistogramStat()
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.percentile(-0.5) == 1.0
        assert hist.percentile(1.5) == 3.0
        assert hist.percentile(0.5) == 2.0

    def test_interpolation_between_samples(self):
        hist = HistogramStat()
        for value in (0.0, 10.0):
            hist.observe(value)
        assert hist.percentile(0.25) == 2.5
        assert hist.percentile(0.75) == 7.5

    def test_fraction_over_empty_is_zero(self):
        assert HistogramStat().fraction_over(1.0) == 0.0

    def test_fraction_over_is_strict(self):
        hist = HistogramStat()
        for value in (1.0, 1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.fraction_over(1.0) == 0.5
        assert hist.fraction_over(0.5) == 1.0
        assert hist.fraction_over(3.0) == 0.0

    def test_to_dict_of_empty_histogram_is_all_zero(self):
        doc = HistogramStat().to_dict()
        assert doc["count"] == 0
        assert doc["min"] == 0.0
        assert doc["p50"] == 0.0
        assert doc["p99"] == 0.0

    def test_to_dict_sorts_once_and_matches_percentile(self, monkeypatch):
        import random

        from repro.obs import metrics as metrics_module

        hist = HistogramStat(reservoir=256)
        rng = random.Random(11)
        for _ in range(1000):
            hist.observe(rng.expovariate(3.0))
        expected = {
            "p50": hist.percentile(0.50),
            "p95": hist.percentile(0.95),
            "p99": hist.percentile(0.99),
        }
        calls = []

        def counting_sorted(values):
            calls.append(len(values))
            return sorted(values)

        monkeypatch.setattr(
            metrics_module, "sorted", counting_sorted, raising=False
        )
        doc = hist.to_dict()
        assert calls == [256]
        assert {key: doc[key] for key in expected} == expected
