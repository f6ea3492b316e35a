"""The vectorized batch slot engine: dispatch, exactness, fallbacks.

The contract under test is *bit*-identity with the scalar slot engine —
including sign-of-zero and NaN payloads — so float comparisons here go
through ``struct.pack`` rather than ``==``.
"""

import math
import struct

import pytest

from repro import obs
from repro.simulink import (
    ENGINE_BATCH,
    ENGINE_REFERENCE,
    ENGINE_SLOTS,
    BatchUnavailableError,
    Block,
    SimulationError,
    Simulator,
    SimulinkModel,
    numpy_available,
)
from repro.simulink import batch as libbatch
from repro.simulink import simulator as simulator_module
from repro.simulink.simulator import BATCH_THRESHOLD

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires NumPy"
)


def _bits(value):
    return struct.pack("<d", value)


def _trace_bits(trace):
    return [_bits(v) for v in trace]


def assert_identical(got, want):
    """Bitwise equality of two SimulationResults (NaN-safe)."""
    assert got.steps == want.steps
    assert set(got.outputs) == set(want.outputs)
    for name in want.outputs:
        assert _trace_bits(got.outputs[name]) == _trace_bits(
            want.outputs[name]
        ), name
    assert set(got.signals) == set(want.signals)
    for path in want.signals:
        assert _trace_bits(got.signals[path]) == _trace_bits(
            want.signals[path]
        ), path
    assert set(got.scopes) == set(want.scopes)
    for name in want.scopes:
        assert _trace_bits(got.scopes[name]) == _trace_bits(
            want.scopes[name]
        ), name
    assert got.to_csv() == want.to_csv()


def _stateful_model():
    """Every vectorizable kernel in one diagram, with signed-zero bait.

    In1 -> Gain(-1) feeds a Sum(+-), a Saturation, Abs, Relay, UnitDelay
    and a Scope; Constant anchors a Product.  Gain(-1) of 0.0 is -0.0, so
    any engine that loses the sign of zero fails here.
    """
    model = SimulinkModel("kernels")
    root = model.root
    inport = root.add(
        Block("In1", "Inport", inputs=0, outputs=1, parameters={"Port": 1})
    )
    neg = root.add(Block("neg", "Gain", parameters={"Gain": -1.0}))
    offset = root.add(
        Block("k", "Constant", inputs=0, outputs=1, parameters={"Value": 0.25})
    )
    diff = root.add(
        Block("diff", "Sum", inputs=2, parameters={"Signs": "+-"})
    )
    prod = root.add(Block("prod", "Product", inputs=2))
    sat = root.add(
        Block(
            "sat",
            "Saturation",
            parameters={"LowerLimit": -0.5, "UpperLimit": 0.5},
        )
    )
    mag = root.add(Block("mag", "Abs"))
    relay = root.add(
        Block(
            "relay",
            "Relay",
            parameters={
                "OnSwitchValue": 0.3,
                "OffSwitchValue": 0.1,
                "OnOutputValue": 1.0,
                "OffOutputValue": 0.0,
            },
        )
    )
    delay = root.add(
        Block("dly", "UnitDelay", parameters={"InitialCondition": 0.0})
    )
    scope = root.add(Block("probe", "Scope", inputs=1, outputs=0))
    out1 = root.add(
        Block("Out1", "Outport", inputs=1, outputs=0, parameters={"Port": 1})
    )
    out2 = root.add(
        Block("Out2", "Outport", inputs=1, outputs=0, parameters={"Port": 2})
    )
    root.connect(inport.output(), neg.input())
    root.connect(neg.output(), diff.input(1))
    root.connect(offset.output(), diff.input(2))
    root.connect(diff.output(), prod.input(1))
    root.connect(neg.output(), prod.input(2))
    root.connect(prod.output(), sat.input())
    root.connect(sat.output(), mag.input())
    root.connect(mag.output(), relay.input())
    root.connect(relay.output(), delay.input())
    root.connect(delay.output(), out1.input())
    root.connect(mag.output(), out2.input())
    root.connect(mag.output(), scope.input())
    return model


RAGGED = [
    {"In1": [0.0, 1.0, -1.0, 0.4]},
    {"In1": []},
    {"In1": [math.nan, 0.2]},
    None,
    {"In1": [-0.0, math.inf, -math.inf, 0.1, 0.6, 0.05, 0.6]},
]


@requires_numpy
class TestDispatch:
    def test_slots_engine_loops_below_threshold(self):
        simulator = Simulator(_stateful_model(), engine=ENGINE_SLOTS)
        simulator.run_many(3, [None] * (BATCH_THRESHOLD - 1))
        assert simulator._batch_sim is None

    def test_slots_engine_batches_at_threshold(self):
        simulator = Simulator(_stateful_model(), engine=ENGINE_SLOTS)
        simulator.run_many(3, [None] * BATCH_THRESHOLD)
        assert simulator._batch_sim is not None

    def test_batch_engine_batches_any_size(self):
        simulator = Simulator(_stateful_model(), engine=ENGINE_BATCH)
        simulator.run_many(3, [None])
        assert simulator._batch_sim is not None

    def test_reference_engine_never_batches(self):
        simulator = Simulator(_stateful_model(), engine=ENGINE_REFERENCE)
        simulator.run_many(3, [None] * (BATCH_THRESHOLD + 4))
        assert simulator._batch_sim is None

    def test_threshold_override(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "BATCH_THRESHOLD", 2)
        simulator = Simulator(_stateful_model(), engine=ENGINE_SLOTS)
        simulator.run_many(3, [None, None])
        assert simulator._batch_sim is not None

    def test_single_run_uses_scalar_path(self):
        batch = Simulator(_stateful_model(), engine=ENGINE_BATCH)
        slots = Simulator(_stateful_model(), engine=ENGINE_SLOTS)
        assert_identical(
            batch.run(5, inputs=RAGGED[0]), slots.run(5, inputs=RAGGED[0])
        )


class TestUnavailable:
    def test_batch_engine_requires_numpy(self, monkeypatch):
        monkeypatch.setattr(libbatch, "_np", None)
        assert not libbatch.numpy_available()
        with pytest.raises(BatchUnavailableError) as excinfo:
            Simulator(_stateful_model(), engine=ENGINE_BATCH)
        message = str(excinfo.value)
        assert "NumPy" in message
        assert "slots" in message  # points at the scalar fallback engines

    def test_scalar_engines_work_without_numpy(self, monkeypatch):
        monkeypatch.setattr(libbatch, "_np", None)
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            simulator = Simulator(_stateful_model(), engine=engine)
            results = simulator.run_many(3, [None] * 20)
            assert len(results) == 20
            assert simulator._batch_sim is None


@requires_numpy
class TestEdgeCases:
    def test_empty_batch(self):
        assert Simulator(_stateful_model(), engine=ENGINE_BATCH).run_many(
            5, []
        ) == []

    def test_zero_steps(self):
        results = Simulator(_stateful_model(), engine=ENGINE_BATCH).run_many(
            0, RAGGED
        )
        assert [r.steps for r in results] == [0] * len(RAGGED)

    def test_negative_steps_rejected(self):
        with pytest.raises(SimulationError, match="steps"):
            Simulator(_stateful_model(), engine=ENGINE_BATCH).run_many(
                -1, [None]
            )

    def test_batch_of_one_equals_cold_single_run(self):
        (episode,) = Simulator(_stateful_model(), engine=ENGINE_BATCH).run_many(
            6, [RAGGED[0]]
        )
        fresh = Simulator(_stateful_model(), engine=ENGINE_SLOTS).run(
            6, inputs=RAGGED[0]
        )
        assert_identical(episode, fresh)


@requires_numpy
class TestBitIdentity:
    def test_ragged_batch_matches_scalar_episode_by_episode(self):
        batch = Simulator(_stateful_model(), engine=ENGINE_BATCH)
        scalar = Simulator(_stateful_model(), engine=ENGINE_SLOTS)
        monitored = batch.run_many(7, RAGGED)
        for episode, stimulus in zip(monitored, RAGGED):
            scalar.reset()
            assert_identical(episode, scalar.run(7, inputs=stimulus))

    def test_monitors_match_scalar(self):
        monitor = ["kernels/mag"]
        batch = Simulator(
            _stateful_model(), monitor=monitor, engine=ENGINE_BATCH
        )
        scalar = Simulator(
            _stateful_model(), monitor=monitor, engine=ENGINE_SLOTS
        )
        for episode, stimulus in zip(batch.run_many(5, RAGGED), RAGGED):
            scalar.reset()
            assert_identical(episode, scalar.run(5, inputs=stimulus))

    def test_warm_state_after_batch_matches_scalar_loop(self):
        """A batched run_many must leave the simulator in the same state
        the scalar loop would — the next single run() pins it."""
        batch = Simulator(_stateful_model(), engine=ENGINE_BATCH)
        scalar = Simulator(_stateful_model(), engine=ENGINE_SLOTS)
        batch.run_many(6, RAGGED)
        scalar.run_many(6, RAGGED)
        probe = {"In1": [0.2, 0.4]}
        assert_identical(
            batch._run_steps_slots(3, probe), scalar._run_steps_slots(3, probe)
        )

    def test_value_slot_census_matches_scalar(self):
        batch = Simulator(_stateful_model(), engine=ENGINE_BATCH)
        scalar = Simulator(_stateful_model(), engine=ENGINE_SLOTS)
        batch.run_many(4, RAGGED)
        scalar.run_many(4, RAGGED)
        assert batch._value_slots == scalar._value_slots

    def test_sfunction_spec_blocks_vectorize_on_crane(self):
        from repro.apps import crane
        from repro.core.flow import synthesize

        caam = synthesize(
            crane.build_model(), behaviors=crane.behaviors()
        ).caam
        batch = Simulator(caam, engine=ENGINE_BATCH)
        scalar = Simulator(caam, engine=ENGINE_SLOTS)
        stimuli = [
            {"Operator_getCommand": [0.1 * k for k in range(n)]}
            for n in (0, 3, 12, 25)
        ]
        episodes = batch.run_many(20, stimuli)
        assert batch._batch_sim.generic_blocks == 0
        for episode, stimulus in zip(episodes, stimuli):
            scalar.reset()
            assert_identical(episode, scalar.run(20, inputs=stimulus))

    def test_generic_fallback_blocks_stay_exact(self):
        """Blocks without batch kernels (extension library) run per
        episode inside the batch — results still bit-identical."""
        model = SimulinkModel("ext")
        root = model.root
        inport = root.add(
            Block(
                "In1", "Inport", inputs=0, outputs=1, parameters={"Port": 1}
            )
        )
        switch = root.add(
            Block("mm", "MinMax", inputs=2, parameters={"Function": "max"})
        )
        gain = root.add(Block("g", "Gain", parameters={"Gain": 3.0}))
        out = root.add(
            Block(
                "Out1", "Outport", inputs=1, outputs=0, parameters={"Port": 1}
            )
        )
        root.connect(inport.output(), switch.input(1))
        root.connect(inport.output(), switch.input(2))
        root.connect(switch.output(), gain.input())
        root.connect(gain.output(), out.input())
        batch = Simulator(model, engine=ENGINE_BATCH)
        scalar = Simulator(model, engine=ENGINE_SLOTS)
        assert batch._batch_engine_for(2).generic_blocks >= 1
        for episode, stimulus in zip(batch.run_many(4, RAGGED), RAGGED):
            scalar.reset()
            assert_identical(episode, scalar.run(4, inputs=stimulus))


@requires_numpy
class TestObservability:
    def test_batch_metrics_reported(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            Simulator(_stateful_model(), engine=ENGINE_BATCH).run_many(
                4, [None, None, None]
            )
        metrics = recorder.metrics
        assert metrics.counter("sim.batch.runs") == 1
        assert metrics.counter("sim.batch.episodes") == 3
        assert metrics.counter("sim.batch.steps") == 12
        assert metrics.gauge_value("sim.batch.steps_per_sec") > 0
        assert metrics.gauge_value("sim.batch.vectorized_blocks") > 0
        assert "sim.batch.run" in [span.name for span in recorder.spans]

    def test_run_many_span_flags_batched_dispatch(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            Simulator(_stateful_model(), engine=ENGINE_BATCH).run_many(
                2, [None, None]
            )
        spans = {span.name: span for span in recorder.spans}
        assert spans["simulink.run_many"].attrs["batched"] is True
