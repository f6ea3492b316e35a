"""Determinism properties of the content-addressed synthesis cache.

The cache must be *observationally invisible*: for the same model and flow
options, a warm-cache run, a cold-cache run and a cache-off run all hand
back the same ``mdl_text`` and the same mapping report.  Conversely the
cache key must be *sensitive*: changing any flow option or any model
element changes the key, so stale artifacts can never be served.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import didactic
from repro.core import flow
from repro.core.flow import synthesize
from repro.parallel import cache
from repro.parallel.fingerprint import (
    SCHEMA_VERSION,
    options_fingerprint,
    plan_fingerprint,
    synthesis_cache_key,
)
from repro.uml import ModelBuilder

#: The flow options that participate in the cache key, with a non-default
#: value for each (``synthesize``'s keyword defaults flipped).
OPTION_VARIANTS = {
    "auto_allocate": True,
    "infer_channels": False,
    "insert_barriers": False,
    "layout": False,
    "validate": False,
    "strict": True,
    "name": "renamed",
}


def small_model(threads=2, name="prop"):
    b = ModelBuilder(name)
    names = [f"T{i}" for i in range(1, threads + 1)]
    for t in names:
        b.thread(t)
    b.io_device("Dev")
    b.processor("CPU1", threads=names)
    sd = b.interaction("main")
    sd.call(names[0], "Dev", "read", result="v")
    for prev, cur in zip(names, names[1:]):
        sd.call(prev, cur, "push", args=["v"])
    sd.call(names[-1], "Dev", "write", args=["v"])
    return b.build()


class TestCacheTransparency:
    def test_cold_then_warm_identical(self):
        cache.configure(enabled=True)
        model = didactic.build_model()
        cold = synthesize(model)
        warm = synthesize(didactic.build_model())
        assert cold.obs.parallel["cache"]["status"] == "miss"
        assert warm.obs.parallel["cache"]["status"] == "hit"
        assert warm.mdl_text == cold.mdl_text
        assert warm.mapping_report() == cold.mapping_report()
        assert warm.intermediate_xml == cold.intermediate_xml

    def test_cache_on_vs_off_identical(self):
        model = didactic.build_model()
        off = synthesize(model, use_cache=False)
        assert "cache" not in off.obs.parallel
        cache.configure(enabled=True)
        on = synthesize(didactic.build_model())
        assert on.mdl_text == off.mdl_text
        assert on.mapping_report() == off.mapping_report()

    def test_hit_returns_fresh_copy(self):
        cache.configure(enabled=True)
        first = synthesize(didactic.build_model())
        second = synthesize(didactic.build_model())
        assert second is not first
        assert second.caam is not first.caam
        assert second.mapping is not first.mapping
        assert second.plan is not first.plan
        # Sharing inside one graph survives the round trip.
        assert second.mapping.caam is second.caam
        assert second._graph_blob is None  # no bytes kept once materialized
        # Mutating one hit must not poison the next.
        second.caam.name = "mutated"
        third = synthesize(didactic.build_model())
        assert third.caam.name == first.caam.name

    def test_use_cache_true_overrides_disabled_config(self):
        cache.configure(enabled=False)
        synthesize(didactic.build_model(), use_cache=True)
        warm = synthesize(didactic.build_model(), use_cache=True)
        assert warm.obs.parallel["cache"]["status"] == "hit"

    def test_behaviors_bypass_the_cache(self):
        cache.configure(enabled=True)
        with obs.use(obs.Recorder()):
            result = synthesize(
                didactic.build_model(), behaviors=didactic.behaviors()
            )
        assert result.obs.parallel["cache"] == {
            "status": "bypass",
            "reason": "behaviors",
        }
        (span,) = result.obs.span_named("flow.cache")
        assert span.attrs["status"] == "bypass"

    @settings(max_examples=8, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=4),
        auto_allocate=st.booleans(),
        insert_barriers=st.booleans(),
    )
    def test_random_models_cold_vs_warm(
        self, threads, auto_allocate, insert_barriers
    ):
        options = {
            "auto_allocate": auto_allocate,
            "insert_barriers": insert_barriers,
        }
        state = cache.snapshot()
        try:
            cache.configure(enabled=True)
            cold = synthesize(small_model(threads), **options)
            warm = synthesize(small_model(threads), **options)
            assert warm.obs.parallel["cache"]["status"] == "hit"
            assert warm.mdl_text == cold.mdl_text
            assert warm.mapping_report() == cold.mapping_report()
            assert warm.intermediate_xml == cold.intermediate_xml
            assert warm.summary == cold.summary
            assert warm.warnings == cold.warnings
            assert warm.barriers_inserted == cold.barriers_inserted
            assert warm.obs.census == cold.obs.census
        finally:
            cache.restore(state)


class TestLazyHit:
    """A hit serves the stored ``.mdl`` and unpickles the graph on demand."""

    @pytest.fixture()
    def render_count(self, monkeypatch):
        calls = []

        def counting(caam):
            calls.append(caam)
            return render(caam)

        render = flow.to_mdl
        monkeypatch.setattr(flow, "to_mdl", counting)
        return calls

    def test_hit_serves_stored_text_without_rendering(self, render_count):
        cache.configure(enabled=True)
        cold = synthesize(didactic.build_model())
        text = cold.mdl_text
        assert len(render_count) == 1  # the miss rendered once, for both
        warm = synthesize(didactic.build_model())
        assert warm.mdl_text == text
        assert warm._graph is None  # graph still pickled
        assert len(render_count) == 1
        assert text == flow.to_mdl(cold.caam)

    @pytest.mark.parametrize("hit", [False, True], ids=["miss", "hit"])
    def test_mutating_the_graph_reaches_the_artifact(self, hit, tmp_path):
        cache.configure(enabled=True)
        result = synthesize(didactic.build_model())
        if hit:
            result = synthesize(didactic.build_model())
            assert result.obs.parallel["cache"]["status"] == "hit"
        before = result.mdl_text
        caam = result.caam
        caam.name = "mutated"
        assert result.mdl_text != before
        assert result.mdl_text == flow.to_mdl(caam)
        assert 'Name "mutated"' in result.mdl_text
        path = tmp_path / "out.mdl"
        result.write_mdl(str(path))
        assert path.read_text() == result.mdl_text
        # The cache still serves the unmutated artifact.
        assert synthesize(didactic.build_model()).mdl_text == before

    @pytest.mark.parametrize(
        "clone",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_hit_survives_pickle_and_deepcopy(self, clone):
        cache.configure(enabled=True)
        cold = synthesize(didactic.build_model())
        warm = synthesize(didactic.build_model())
        twin = clone(warm)
        assert twin.mdl_text == cold.mdl_text
        assert twin.mapping_report() == cold.mapping_report()
        assert twin.caam is not warm.caam
        assert twin.obs.parallel["cache"]["status"] == "hit"
        # A materialized result clones too.
        assert clone(twin).caam.name == cold.caam.name

    def test_disk_hit_in_a_new_instance_serves_stored_text(
        self, tmp_path, render_count
    ):
        cache.configure(enabled=True, directory=str(tmp_path))
        cold = synthesize(didactic.build_model())
        cache.configure(enabled=True, directory=str(tmp_path))
        del render_count[:]
        with obs.use(obs.Recorder()) as rec:
            warm = synthesize(didactic.build_model())
            counters = rec.metrics.to_dict()["counters"]
        assert counters["cache.synthesize.hit_disk"] == 1
        assert warm.mdl_text == cold.mdl_text
        assert render_count == []

    def test_entry_of_another_layout_is_a_miss(self):
        cache.configure(enabled=True)
        cold = synthesize(didactic.build_model())
        store = cache.synthesis_cache()
        (key,) = list(store._entries)
        store.put(key, ("only", "two"))
        with obs.use(obs.Recorder()) as rec:
            again = synthesize(didactic.build_model())
            counters = rec.metrics.to_dict()["counters"]
        assert again.obs.parallel["cache"]["status"] == "miss"
        assert counters["cache.synthesize.miss"] == 1
        assert "cache.synthesize.hit" not in counters
        assert again.mdl_text == cold.mdl_text
        # The rerun stored a valid entry again.
        assert synthesize(didactic.build_model()).obs.parallel["cache"][
            "status"
        ] == "hit"

    def test_unpicklable_graph_is_not_cached(self, monkeypatch):
        cache.configure(enabled=True)

        def refuse(*args, **kwargs):
            raise pickle.PicklingError("refused")

        monkeypatch.setattr(flow.pickle, "dumps", refuse)
        with obs.use(obs.Recorder()) as rec:
            result = synthesize(didactic.build_model())
            counters = rec.metrics.to_dict()["counters"]
        assert counters["cache.synthesize.unpicklable"] == 1
        assert len(cache.synthesis_cache()) == 0
        assert result.mdl_text == flow.to_mdl(result.caam)

    def test_flow_cache_span_in_report_and_chrome_trace(self):
        cache.configure(enabled=True)
        with obs.use(obs.Recorder()):
            cold = synthesize(didactic.build_model())
            warm = synthesize(didactic.build_model())
        (miss_span,) = cold.obs.span_named("flow.cache")
        assert miss_span.attrs["status"] == "miss"
        assert cold.obs.span_named("flow.synthesize")
        (hit_span,) = warm.obs.span_named("flow.cache")
        assert hit_span.attrs == {
            "status": "hit",
            "key": warm.obs.parallel["cache"]["key"],
        }
        # A hit reports its own run, not the spans of the stored miss.
        assert [s.name for s in warm.obs.spans] == ["flow.cache"]
        assert warm.obs.census == cold.obs.census
        events = [
            e
            for e in warm.obs.chrome_trace()["traceEvents"]
            if e.get("name") == "flow.cache"
        ]
        assert events and events[0]["args"]["status"] == "hit"


class TestKeySensitivity:
    def test_key_is_stable_across_rebuilds(self):
        key_a = synthesis_cache_key(didactic.build_model(), None, {})
        key_b = synthesis_cache_key(didactic.build_model(), None, {})
        assert key_a == key_b

    @pytest.mark.parametrize("option", sorted(OPTION_VARIANTS))
    def test_key_changes_with_each_flow_option(self, option):
        model = didactic.build_model()
        base_options = {
            "auto_allocate": False,
            "infer_channels": True,
            "insert_barriers": True,
            "layout": True,
            "validate": True,
            "strict": False,
            "name": None,
        }
        changed = dict(base_options, **{option: OPTION_VARIANTS[option]})
        assert synthesis_cache_key(
            model, None, base_options
        ) != synthesis_cache_key(model, None, changed)

    def test_key_changes_with_model_elements(self):
        base = synthesis_cache_key(small_model(2), None, {})
        assert synthesis_cache_key(small_model(3), None, {}) != base
        assert (
            synthesis_cache_key(small_model(2, name="other"), None, {}) != base
        )

    def test_key_changes_with_explicit_plan(self):
        model = didactic.build_model()
        from repro.uml import DeploymentPlan

        one_cpu = DeploymentPlan.from_mapping(
            {"T1": "CPU1", "T2": "CPU1", "T3": "CPU1"}
        )
        two_cpu = DeploymentPlan.from_mapping(
            {"T1": "CPU1", "T2": "CPU1", "T3": "CPU2"}
        )
        keys = {
            synthesis_cache_key(model, None, {}),
            synthesis_cache_key(model, one_cpu, {}),
            synthesis_cache_key(model, two_cpu, {}),
        }
        assert len(keys) == 3

    def test_plan_fingerprint_distinguishes_none(self):
        from repro.uml import DeploymentPlan

        plan = DeploymentPlan.from_mapping({"T1": "CPU1"})
        assert plan_fingerprint(None) != plan_fingerprint(plan)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.dictionaries(
            st.sampled_from(sorted(OPTION_VARIANTS)),
            st.one_of(st.booleans(), st.text(max_size=4)),
            max_size=4,
        ),
        b=st.dictionaries(
            st.sampled_from(sorted(OPTION_VARIANTS)),
            st.one_of(st.booleans(), st.text(max_size=4)),
            max_size=4,
        ),
    )
    def test_options_fingerprint_injective_on_dicts(self, a, b):
        if a == b:
            assert options_fingerprint(a) == options_fingerprint(b)
        else:
            assert options_fingerprint(a) != options_fingerprint(b)

    def test_schema_version_bump_invalidates_keys(self, monkeypatch):
        # Bumping SCHEMA_VERSION must invalidate every stored key.
        from repro.parallel import fingerprint

        model = small_model(1)
        before = synthesis_cache_key(model, None, {})
        monkeypatch.setattr(
            fingerprint, "SCHEMA_VERSION", SCHEMA_VERSION + "-test"
        )
        assert synthesis_cache_key(model, None, {}) != before
