"""Slot-compiled engine: selection, compile-time analysis, batch runs.

The differential properties (bit-identical results across randomized
models) live in ``test_differential.py``; this file pins the engine flag
plumbing, the compile-time error analysis (same exception types and
messages as the reference interpreter), ``run_many`` episode semantics,
the compile census, and the ragged-trace CSV export.
"""

import pytest

from repro import obs
from repro.simulink import (
    ENGINE_REFERENCE,
    ENGINE_SLOTS,
    AlgebraicLoopError,
    Block,
    SemanticsError,
    SimulationError,
    SimulationResult,
    Simulator,
    SimulinkError,
    SimulinkModel,
    SubSystem,
    UnconnectedInputError,
    run_model,
)


def _outport(name="Out1", port=1):
    return Block(name, "Outport", inputs=1, outputs=0, parameters={"Port": port})


def _inport(name="In1", port=1):
    return Block(name, "Inport", inputs=0, outputs=1, parameters={"Port": port})


def _accumulator_model():
    model = SimulinkModel("m")
    c = model.root.add(Block("c", "Constant", inputs=0, parameters={"Value": 1.0}))
    s = model.root.add(Block("s", "Sum", inputs=2, parameters={"Inputs": "++"}))
    z = model.root.add(Block("z", "UnitDelay"))
    o = model.root.add(_outport())
    model.root.connect(c.output(), s.input(1))
    model.root.connect(z.output(), s.input(2))
    model.root.connect(s.output(), z.input(), o.input())
    return model


class TestEngineSelection:
    def test_default_engine_is_slots(self):
        assert Simulator(_accumulator_model()).engine == ENGINE_SLOTS

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError) as excinfo:
            Simulator(_accumulator_model(), engine="turbo")
        assert "turbo" in str(excinfo.value)

    def test_run_model_forwards_engine(self):
        result = run_model(_accumulator_model(), 3, engine=ENGINE_REFERENCE)
        assert result.output("Out1") == [1.0, 2.0, 3.0]


class TestCompileTimeErrorParity:
    """Same exception types and messages as the reference interpreter."""

    def _pair(self, model, monitor=None):
        return (
            Simulator(model, monitor=monitor, engine=ENGINE_SLOTS),
            Simulator(model, monitor=monitor, engine=ENGINE_REFERENCE),
        )

    def test_unconnected_feedthrough_input(self):
        model = SimulinkModel("m")
        model.root.add(Block("g", "Gain"))
        slots, reference = self._pair(model)
        with pytest.raises(UnconnectedInputError) as got:
            slots.run(1)
        with pytest.raises(UnconnectedInputError) as want:
            reference.run(1)
        assert str(got.value) == str(want.value)

    def test_unconnected_update_phase_input(self):
        # A root Outport gathers in the update phase; its unconnected
        # input must raise the same error from both engines.
        model = SimulinkModel("m")
        model.root.add(_outport())
        slots, reference = self._pair(model)
        with pytest.raises(UnconnectedInputError) as got:
            slots.run(1)
        with pytest.raises(UnconnectedInputError) as want:
            reference.run(1)
        assert str(got.value) == str(want.value)

    def test_unconnected_does_not_raise_for_zero_steps(self):
        model = SimulinkModel("m")
        model.root.add(Block("g", "Gain"))
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            result = Simulator(model, engine=engine).run(0)
            assert result.steps == 0

    def test_first_unconnected_input_wins(self):
        # Two defects: the error must name the first gather site in the
        # reference engine's chronological order (output phase first).
        model = SimulinkModel("m")
        model.root.add(Block("g", "Gain"))
        model.root.add(_outport())
        slots, reference = self._pair(model)
        with pytest.raises(UnconnectedInputError) as got:
            slots.run(1)
        with pytest.raises(UnconnectedInputError) as want:
            reference.run(1)
        assert str(got.value) == str(want.value)
        assert "'m/g'" in str(got.value)

    def test_algebraic_loop_message_identical(self):
        messages = []
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            model = SimulinkModel("m")
            a = model.root.add(Block("a", "Gain"))
            b = model.root.add(Block("b", "Gain"))
            model.root.connect(a.output(), b.input())
            model.root.connect(b.output(), a.input())
            with pytest.raises(AlgebraicLoopError) as excinfo:
                Simulator(model, engine=engine)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_sum_sign_mismatch_parity(self):
        # A Sum whose sign string disagrees with its port count is
        # declined by the kernel factory and must fail through the
        # generic path exactly like the interpreter.
        errors = []
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            model = SimulinkModel("m")
            c = model.root.add(
                Block("c", "Constant", inputs=0, parameters={"Value": 1.0})
            )
            s = model.root.add(
                Block("s", "Sum", inputs=1, parameters={"Inputs": "++-"})
            )
            o = model.root.add(_outport())
            model.root.connect(c.output(), s.input())
            model.root.connect(s.output(), o.input())
            with pytest.raises(SemanticsError) as excinfo:
                Simulator(model, engine=engine).run(1)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_underproducing_block_scheduling_error_parity(self):
        # An S-Function declaring two outputs whose callback yields one:
        # the consumer of out2 hits the reference engine's "internal
        # scheduling error"; the slot engine's per-step check must raise
        # the same message.
        errors = []
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            model = SimulinkModel("m")
            i = model.root.add(_inport())
            f = model.root.add(
                Block(
                    "f",
                    "S-Function",
                    inputs=1,
                    outputs=2,
                    parameters={"callback": lambda x: (x,)},
                )
            )
            g = model.root.add(Block("g", "Gain"))
            o = model.root.add(_outport())
            model.root.connect(i.output(), f.input())
            model.root.connect(f.output(2), g.input())
            model.root.connect(g.output(), o.input())
            with pytest.raises(SimulationError) as excinfo:
                Simulator(model, engine=engine).run(1)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "internal scheduling error" in errors[0]

    def test_bad_monitor_path_raises_at_run_not_construction(self):
        model = _accumulator_model()
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            simulator = Simulator(model, monitor=["m/missing"], engine=engine)
            with pytest.raises(SimulinkError):
                simulator.run(1)

    def test_monitor_of_subsystem_reads_zero(self):
        # flatten() drops SubSystems; monitoring one yields the reference
        # engine's 0.0 default from both engines.
        model = SimulinkModel("m")
        sub = SubSystem("S")
        model.root.add(sub)
        sin = sub.add_inport("in")
        g = sub.system.add(Block("g", "Gain", parameters={"Gain": 2.0}))
        sout = sub.add_outport("out")
        sub.system.connect(sin.output(), g.input())
        sub.system.connect(g.output(), sout.input())
        c = model.root.add(
            Block("c", "Constant", inputs=0, parameters={"Value": 3.0})
        )
        o = model.root.add(_outport())
        model.root.connect(c.output(), sub.input(1))
        model.root.connect(sub.output(1), o.input())
        for engine in (ENGINE_SLOTS, ENGINE_REFERENCE):
            result = Simulator(model, monitor=["m/S"], engine=engine).run(2)
            assert result.signal("m/S") == [0.0, 0.0]
            assert result.output("Out1") == [6.0, 6.0]


class TestRunMany:
    def test_episodes_match_cold_runs(self):
        model = SimulinkModel("m")
        i = model.root.add(_inport())
        g = model.root.add(Block("g", "Gain", parameters={"Gain": 2.0}))
        o = model.root.add(_outport())
        model.root.connect(i.output(), g.input())
        model.root.connect(g.output(), o.input())
        stimuli = [{"In1": [1.0, 2.0]}, {"In1": [5.0]}, {}]
        batch = Simulator(model).run_many(3, stimuli)
        for episode, stimulus in zip(batch, stimuli):
            cold = Simulator(model).run(3, inputs=stimulus)
            assert episode.to_csv() == cold.to_csv()

    def test_state_resets_between_episodes(self):
        simulator = Simulator(_accumulator_model())
        first, second = simulator.run_many(3, [None, None])
        assert first.output("Out1") == [1.0, 2.0, 3.0]
        assert second.output("Out1") == [1.0, 2.0, 3.0]

    def test_reference_engine_batches_too(self):
        simulator = Simulator(_accumulator_model(), engine=ENGINE_REFERENCE)
        first, second = simulator.run_many(2, [None, None])
        assert first.output("Out1") == second.output("Out1") == [1.0, 2.0]


class TestCompileCensus:
    def test_specialized_and_generic_counts(self):
        model = SimulinkModel("m")
        i = model.root.add(_inport())
        g = model.root.add(Block("g", "Gain", parameters={"Gain": 2.0}))
        f = model.root.add(
            Block(
                "f",
                "S-Function",
                inputs=1,
                outputs=1,
                parameters={"callback": lambda x: x},
            )
        )
        o = model.root.add(_outport())
        model.root.connect(i.output(), g.input())
        model.root.connect(g.output(), f.input())
        model.root.connect(f.output(), o.input())
        simulator = Simulator(model)
        # Inport is stimulus (neither bucket); Gain + Outport specialize;
        # the S-Function falls back to the generic step contract.
        assert simulator.compiled_specialized == 2
        assert simulator.compiled_generic == 1
        assert simulator.compiled_slots >= 4

    def test_value_slot_census_matches_reference(self):
        model = _accumulator_model()
        slots = Simulator(model, engine=ENGINE_SLOTS)
        reference = Simulator(model, engine=ENGINE_REFERENCE)
        slots.run(2)
        reference.run(2)
        assert slots._value_slots == reference._value_slots

    def test_compile_metrics_reported(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            simulator = Simulator(_accumulator_model())
            simulator.run(5)
        metrics = recorder.metrics
        assert metrics.counter("simulink.compile.models") == 1
        assert metrics.gauge_value("simulink.compile.slots") >= 4
        assert metrics.gauge_value("simulink.compile.specialized") >= 3
        assert "simulink.compile" in [span.name for span in recorder.spans]

    def test_run_many_metrics_reported(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            Simulator(_accumulator_model()).run_many(4, [None, None])
        metrics = recorder.metrics
        assert metrics.counter("simulink.sim.batches") == 1
        assert metrics.counter("simulink.sim.runs") == 2
        assert metrics.counter("simulink.sim.steps") == 8
        assert metrics.gauge_value("simulink.sim.steps_per_sec") > 0


class TestRaggedCsv:
    def test_short_traces_padded_with_empty_cells(self):
        result = SimulationResult(
            steps=3,
            outputs={"A": [1.0, 2.0]},
            signals={"m/s": [5.0]},
        )
        assert result.to_csv() == "step,A,m/s\n0,1,5\n1,2,\n2,,\n"

    def test_long_traces_truncated_to_steps(self):
        result = SimulationResult(steps=2, outputs={"A": [1.0, 2.0, 3.0]})
        assert result.to_csv() == "step,A\n0,1\n1,2\n"

    def test_empty_run_keeps_exact_header(self):
        assert SimulationResult(steps=0).to_csv() == "step,\n"

    def test_negative_zero_formatting_preserved(self):
        result = SimulationResult(steps=1, outputs={"A": [-0.0]})
        assert result.to_csv() == "step,A\n0,-0\n"
