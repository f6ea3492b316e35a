"""Unit tests for :class:`repro.parallel.ContentCache` and its wiring."""

import os

import pytest

from repro.obs import Recorder, use
from repro.parallel import cache
from repro.parallel.cache import ContentCache
from repro.parallel.fingerprint import digest


class TestContentCache:
    def test_roundtrip_returns_fresh_copy(self):
        store = ContentCache("t")
        value = {"nested": [1, 2, 3]}
        assert store.put("k", value)
        out = store.get("k")
        assert out == value
        assert out is not value
        out["nested"].append(4)
        assert store.get("k") == value

    def test_miss_returns_none(self):
        assert ContentCache("t").get("absent") is None

    def test_lru_eviction_order(self):
        store = ContentCache("t", capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        store.get("a")  # refresh "a": "b" becomes least-recent
        store.put("c", 3)
        assert "a" in store and "c" in store
        assert "b" not in store
        assert len(store) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ContentCache("t", capacity=0)

    def test_unpicklable_value_is_skipped(self):
        store = ContentCache("t")
        assert store.put("k", lambda: None) is False
        assert "k" not in store

    def test_disk_roundtrip_across_instances(self, tmp_path):
        directory = str(tmp_path / "store")
        first = ContentCache("t", directory=directory)
        first.put("k", {"x": 1})
        assert os.path.exists(os.path.join(directory, "k.pkl"))
        # A brand-new instance (cold memory) hits the disk store.
        second = ContentCache("t", directory=directory)
        assert second.get("k") == {"x": 1}
        assert "k" in second  # promoted into memory

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        directory = str(tmp_path)
        store = ContentCache("t", directory=directory)
        with open(os.path.join(directory, "bad.pkl"), "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("bad") is None

    @pytest.mark.parametrize(
        "foreign",
        [
            # GLOBAL of a module that does not exist: ModuleNotFoundError.
            b"cno_such_module_for_cache_tests\nThing\n.",
            # int("x"): ValueError while reducing.
            b"cbuiltins\nint\n(S'x'\ntR.",
            # int("x", "y"): TypeError while reducing.
            b"cbuiltins\nint\n(S'x'\nS'y'\ntR.",
        ],
        ids=["missing-module", "value-error", "type-error"],
    )
    def test_undecodable_disk_entry_is_a_counted_miss(self, tmp_path, foreign):
        directory = str(tmp_path)
        with open(os.path.join(directory, "bad.pkl"), "wb") as handle:
            handle.write(foreign)
        with use(Recorder()) as rec:
            store = ContentCache("t", directory=directory)
            assert store.get("bad") is None
            counters = rec.metrics.to_dict()["counters"]
        assert counters["cache.t.miss"] == 1
        assert "bad" not in store

    def test_rejected_value_is_a_miss(self, tmp_path):
        directory = str(tmp_path)
        with use(Recorder()) as rec:
            store = ContentCache("t", directory=directory)
            store.put("k", [1])
            assert store.get("k", accept=lambda v: isinstance(v, tuple)) is None
            assert "k" not in store  # dropped from memory
            # The disk copy is rejected the same way, and not promoted.
            assert store.get("k", accept=lambda v: isinstance(v, tuple)) is None
            assert "k" not in store
            assert store.get("k", accept=lambda v: v == [1]) == [1]
            counters = rec.metrics.to_dict()["counters"]
        assert counters["cache.t.miss"] == 2
        assert counters["cache.t.hit_disk"] == 1

    def test_clear_leaves_disk_alone(self, tmp_path):
        store = ContentCache("t", directory=str(tmp_path))
        store.put("k", 1)
        store.clear()
        assert len(store) == 0
        assert store.get("k") == 1  # re-read from disk

    def test_info_is_json_ready(self):
        info = ContentCache("syn", capacity=8).info()
        assert info == {
            "name": "syn",
            "entries": 0,
            "capacity": 8,
            "directory": None,
        }

    def test_counters_feed_the_recorder(self):
        with use(Recorder()) as rec:
            store = ContentCache("unit", capacity=1)
            store.get("k")
            store.put("k", 1)
            store.get("k")
            store.put("k2", 2)  # evicts "k"
            counters = rec.metrics.to_dict()["counters"]
            assert counters["cache.unit.miss"] == 1
            assert counters["cache.unit.store"] == 2
            assert counters["cache.unit.hit"] == 1
            assert counters["cache.unit.evict"] == 1


class TestProcessWideConfig:
    def test_disabled_by_default(self):
        assert cache.synthesis_cache() is None

    def test_configure_enables_and_disables(self):
        cache.configure(enabled=True)
        assert cache.synthesis_cache() is not None
        cache.configure(enabled=False)
        assert cache.synthesis_cache() is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert cache.synthesis_cache() is not None

    def test_no_cache_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache.synthesis_cache() is None

    def test_cache_dir_env_enables_disk_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = cache.synthesis_cache()
        assert store is not None
        assert store.directory == str(tmp_path)

    def test_force_ignores_the_switch_but_is_persistent(self):
        cache.configure(enabled=False)
        forced = cache.force_synthesis_cache()
        assert cache.force_synthesis_cache() is forced
        assert cache.synthesis_cache() is None

    def test_configure_discards_stale_instance(self, tmp_path):
        cache.configure(enabled=True)
        first = cache.force_synthesis_cache()
        cache.configure(enabled=True, directory=str(tmp_path), capacity=4)
        second = cache.force_synthesis_cache()
        assert second is not first
        assert second.directory == str(tmp_path)
        assert second.capacity == 4

    def test_snapshot_restore_roundtrip(self):
        cache.configure(enabled=True, capacity=7)
        instance = cache.force_synthesis_cache()
        state = cache.snapshot()
        cache.configure(enabled=False, capacity=1)
        cache.restore(state)
        assert cache.synthesis_cache() is instance
        assert cache.force_synthesis_cache().capacity == 7


class TestDigest:
    def test_length_prefix_makes_digest_injective(self):
        assert digest("ab", "c") != digest("a", "bc")
        assert digest("ab") != digest("a", "b")

    def test_digest_is_stable(self):
        assert digest("x", "y") == digest("x", "y")
