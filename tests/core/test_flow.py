"""Unit tests for the end-to-end synthesis flow (repro.core.flow)."""

import copy
import pickle

import pytest

from repro.core import FlowError, flow, resolve_plan, synthesize, synthesize_to_mdl
from repro.simulink import from_mdl, validate_caam
from repro.uml import DeploymentPlan, ModelBuilder, ValidationError


def _simple_model():
    b = ModelBuilder("simple")
    b.thread("T1")
    b.thread("T2")
    b.io_device("Dev")
    b.processor("CPU1", threads=["T1", "T2"])
    sd = b.interaction("main")
    sd.call("T1", "Dev", "getIn", result="x")
    sd.call("T1", "Platform", "gain", args=["x"], result="y")
    sd.call("T1", "T2", "setValue", args=["y"])
    sd.call("T2", "Dev", "setOut", args=["value"])
    return b.build()


class TestResolvePlan:
    def test_explicit_plan_wins(self):
        model = _simple_model()
        explicit = DeploymentPlan.from_mapping({"T1": "X", "T2": "X"})
        plan, allocation = resolve_plan(model, explicit)
        assert plan is explicit
        assert allocation is None

    def test_deployment_diagram_used_by_default(self):
        plan, allocation = resolve_plan(_simple_model())
        assert plan.as_mapping() == {"T1": "CPU1", "T2": "CPU1"}
        assert allocation is None

    def test_auto_allocate_ignores_diagram(self):
        plan, allocation = resolve_plan(_simple_model(), auto_allocate=True)
        assert allocation is not None
        assert set(plan.threads) == {"T1", "T2"}

    def test_no_deployment_no_threads_fails(self):
        b = ModelBuilder("empty")
        b.instance("Obj")
        sd = b.interaction("main")
        with pytest.raises(FlowError):
            resolve_plan(b.build())


class TestSynthesize:
    def test_full_pipeline_produces_valid_caam(self):
        result = synthesize(_simple_model())
        assert validate_caam(result.caam) == []
        assert result.summary.cpus == 1
        assert result.summary.threads == 2
        assert result.summary.intra_cpu_channels == 1

    def test_intermediate_xml_is_pre_optimization(self):
        result = synthesize(_simple_model())
        assert "CommChannel" not in result.intermediate_xml
        assert "caam:Model" in result.intermediate_xml

    def test_mdl_text_parses_back(self):
        result = synthesize(_simple_model())
        loaded = from_mdl(result.mdl_text)
        assert loaded.summary() == result.caam.summary()

    def test_write_mdl(self, tmp_path):
        path = tmp_path / "out.mdl"
        result = synthesize_to_mdl(_simple_model(), str(path))
        assert path.read_text() == result.mdl_text

    def test_write_mdl_rejects_mistyped_keyword(self, tmp_path):
        path = tmp_path / "out.mdl"
        with pytest.raises(TypeError, match="auto_alocate"):
            synthesize_to_mdl(_simple_model(), str(path), auto_alocate=True)
        # The error names the valid options, so the typo is self-correcting.
        with pytest.raises(TypeError, match="auto_allocate"):
            synthesize_to_mdl(_simple_model(), str(path), auto_alocate=True)
        assert not path.exists()

    def test_channels_pass_can_be_disabled(self):
        result = synthesize(_simple_model(), infer_channels=False)
        assert result.caam.channels() == []
        assert result.optimization.channels is None

    def test_barriers_pass_can_be_disabled(self, crane_model):
        from repro.simulink import is_executable

        result = synthesize(crane_model, insert_barriers=False)
        assert result.optimization.barriers is None
        assert not is_executable(result.caam)[0]

    def test_validation_rejects_broken_model(self):
        b = ModelBuilder("bad")
        b.passive_class("C").op("f")
        b.thread("T1")
        b.instance("Obj", "C")
        b.processor("CPU1", threads=["T1"])
        sd = b.interaction("main")
        sd.call("T1", "Obj", "no_such_op")
        with pytest.raises(ValidationError):
            synthesize(b.build())

    def test_validation_can_be_skipped(self):
        b = ModelBuilder("bad")
        b.passive_class("C").op("f")
        b.thread("T1")
        b.instance("Obj", "C")
        b.processor("CPU1", threads=["T1"])
        sd = b.interaction("main")
        sd.call("T1", "Obj", "no_such_op")
        result = synthesize(b.build(), validate=False)
        assert result.caam is not None

    def test_custom_name(self):
        result = synthesize(_simple_model(), name="renamed")
        assert result.caam.name == "renamed"
        assert 'Name "renamed"' in result.mdl_text

    def test_warnings_surface(self):
        b = ModelBuilder("w")
        b.thread("T1")
        b.instance("Obj")
        b.processor("CPU1", threads=["T1"])
        sd = b.interaction("main")
        sd.call("T1", "Obj", "f", args=["ghost"])
        result = synthesize(b.build())
        assert any("ghost" in w for w in result.warnings)

    def test_allocation_result_attached_when_auto(self):
        result = synthesize(_simple_model(), auto_allocate=True)
        assert result.allocation is not None
        assert result.allocation.plan.as_mapping() == result.plan.as_mapping()

    def test_barriers_counted_in_result(self, crane_result):
        assert crane_result.barriers_inserted == 1


class TestMdlMemo:
    """``mdl_text`` renders once, until a caller reads the object graph."""

    @pytest.fixture()
    def renders(self, monkeypatch):
        calls = []
        render = flow.to_mdl
        monkeypatch.setattr(
            flow, "to_mdl", lambda caam: calls.append(caam) or render(caam)
        )
        return calls

    def test_rendered_once_while_graph_untouched(self, renders):
        result = synthesize(_simple_model(), use_cache=False)
        assert result.mdl_text is result.mdl_text
        assert result.intermediate_xml  # an immutable string: memo stays
        result.mdl_text
        assert len(renders) == 1

    @pytest.mark.parametrize(
        "attribute", ["caam", "plan", "mapping", "optimization", "allocation"]
    )
    def test_graph_read_ends_the_memo(self, renders, attribute):
        result = synthesize(_simple_model(), use_cache=False)
        result.mdl_text
        getattr(result, attribute)
        result.mdl_text
        result.mdl_text
        assert len(renders) == 3

    def test_mutation_after_memo_reaches_the_artifact(self, tmp_path):
        result = synthesize(_simple_model(), use_cache=False)
        before = result.mdl_text
        result.caam.name = "edited"
        assert result.mdl_text != before
        assert 'Name "edited"' in result.mdl_text
        path = tmp_path / "out.mdl"
        result.write_mdl(str(path))
        assert 'Name "edited"' in path.read_text()

    def test_derived_views_keep_the_memo(self, renders):
        result = synthesize(_simple_model(), use_cache=False)
        result.mdl_text
        result.summary, result.warnings, result.barriers_inserted
        result.mapping_report()
        result.mdl_text
        assert len(renders) == 1

    @pytest.mark.parametrize(
        "clone",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_result_clones_independently(self, clone):
        result = synthesize(_simple_model(), use_cache=False)
        twin = clone(result)
        assert twin.mdl_text == result.mdl_text
        twin.caam.name = "twin"
        assert result.caam.name == "simple"


class TestMappingReport:
    def test_report_lists_every_trace_link(self, didactic_result):
        report = didactic_result.mapping_report()
        assert "mapping report for 'didactic'" in report
        assert "thread2subsystem" in report
        assert "call2block" in report
        assert "trace links" in report

    def test_report_shows_message_sources(self, didactic_result):
        report = didactic_result.mapping_report()
        assert "T1->Platform.mult" in report
        assert "didactic/CPU1/T1/mult" in report
