"""Differential tests: slot-compiled engine vs the reference interpreter.

The slot engine is an optimization, not a re-specification: on any model
the two engines must produce bit-identical results — outputs, scope
histories, monitored signals, and the rendered CSV (which also pins the
sign of zero).  Random block diagrams are generated with hypothesis;
the paper's demo pipelines (crane, synthetic) are checked end-to-end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulink import (
    ENGINE_BATCH,
    ENGINE_REFERENCE,
    ENGINE_SLOTS,
    Block,
    Simulator,
    SimulinkModel,
    numpy_available,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires NumPy"
)
from repro.zoo.strategies import scenarios as zoo_scenarios

_FINITE = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _outport(name, port):
    return Block(name, "Outport", inputs=1, outputs=0, parameters={"Port": port})


@st.composite
def _random_models(draw):
    """A random executable dataflow diagram plus a stimulus batch.

    Sources (Inports/Constants) feed a random DAG of arithmetic and
    stateful blocks; wiring only ever reaches backwards, so the diagram
    is loop-free by construction.  Stimulus traces are deliberately
    ragged (shorter or longer than the run) to exercise padding.
    """
    model = SimulinkModel("m")
    signals = []  # output ports available for wiring

    n_in = draw(st.integers(min_value=1, max_value=3))
    for i in range(n_in):
        block = model.root.add(
            Block(
                f"In{i + 1}",
                "Inport",
                inputs=0,
                outputs=1,
                parameters={"Port": i + 1},
            )
        )
        signals.append(block.output())
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        block = model.root.add(
            Block(
                f"k{i}",
                "Constant",
                inputs=0,
                parameters={"Value": draw(_FINITE)},
            )
        )
        signals.append(block.output())

    kinds = ("gain", "sum", "product", "saturation", "delay", "abs", "relay")
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(kinds))
        name = f"b{i}"
        if kind == "gain":
            block = Block(name, "Gain", parameters={"Gain": draw(_FINITE)})
        elif kind == "sum":
            signs = draw(st.sampled_from(["++", "+-", "-+", "--", "+++"]))
            block = Block(
                name, "Sum", inputs=len(signs), parameters={"Inputs": signs}
            )
        elif kind == "product":
            block = Block(name, "Product", inputs=2)
        elif kind == "saturation":
            low = draw(_FINITE)
            high = draw(_FINITE)
            low, high = min(low, high), max(low, high)
            block = Block(
                name,
                "Saturation",
                parameters={"LowerLimit": low, "UpperLimit": high},
            )
        elif kind == "delay":
            block = Block(
                name, "UnitDelay", parameters={"InitialCondition": draw(_FINITE)}
            )
        elif kind == "abs":
            block = Block(name, "Abs")
        else:
            low = draw(_FINITE)
            high = draw(_FINITE)
            block = Block(
                name,
                "Relay",
                parameters={
                    "OnSwitchValue": max(low, high),
                    "OffSwitchValue": min(low, high),
                    "OnOutputValue": draw(_FINITE),
                    "OffOutputValue": draw(_FINITE),
                },
            )
        model.root.add(block)
        for port in range(1, block.num_inputs + 1):
            source = draw(st.sampled_from(signals))
            model.root.connect(source, block.input(port))
        signals.append(block.output())

    for i in range(draw(st.integers(min_value=1, max_value=2))):
        out = model.root.add(_outport(f"Out{i + 1}", i + 1))
        model.root.connect(draw(st.sampled_from(signals)), out.input())
    if draw(st.booleans()):
        scope = model.root.add(Block("scope", "Scope", outputs=0))
        model.root.connect(draw(st.sampled_from(signals)), scope.input())

    steps = draw(st.integers(min_value=0, max_value=12))
    stimuli = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        stimulus = {}
        for i in range(n_in):
            length = draw(st.integers(min_value=0, max_value=steps + 2))
            stimulus[f"In{i + 1}"] = [draw(_FINITE) for _ in range(length)]
        stimuli.append(stimulus)

    monitor = []
    if draw(st.booleans()) and len(model.root.blocks) > n_in:
        target = draw(st.sampled_from(model.root.blocks))
        monitor.append(f"m/{target.name}")
    return model, steps, stimuli, monitor


def _identical(a, b):
    assert a.steps == b.steps
    assert a.outputs == b.outputs
    assert a.signals == b.signals
    assert a.scopes == b.scopes
    assert a.to_csv() == b.to_csv()


class TestRandomizedDifferential:
    @given(_random_models())
    @settings(max_examples=60, deadline=None)
    def test_engines_bit_identical(self, case):
        model, steps, stimuli, monitor = case
        slots = Simulator(model, monitor=monitor, engine=ENGINE_SLOTS)
        reference = Simulator(model, monitor=monitor, engine=ENGINE_REFERENCE)
        for stimulus in stimuli:
            _identical(
                slots.run(steps, inputs=stimulus),
                reference.run(steps, inputs=stimulus),
            )

    @given(_random_models())
    @settings(max_examples=30, deadline=None)
    def test_engines_identical_after_reset(self, case):
        model, steps, stimuli, monitor = case
        slots = Simulator(model, monitor=monitor, engine=ENGINE_SLOTS)
        reference = Simulator(model, monitor=monitor, engine=ENGINE_REFERENCE)
        slots.run(steps, inputs=stimuli[0])
        reference.run(steps, inputs=stimuli[0])
        slots.reset()
        reference.reset()
        _identical(
            slots.run(steps, inputs=stimuli[0]),
            reference.run(steps, inputs=stimuli[0]),
        )

    @given(_random_models())
    @settings(max_examples=30, deadline=None)
    def test_run_many_matches_reference_loop(self, case):
        model, steps, stimuli, monitor = case
        batch = Simulator(model, monitor=monitor, engine=ENGINE_SLOTS).run_many(
            steps, stimuli
        )
        reference = Simulator(model, monitor=monitor, engine=ENGINE_REFERENCE)
        for episode, stimulus in zip(batch, stimuli):
            reference.reset()
            _identical(episode, reference.run(steps, inputs=stimulus))


@requires_numpy
class TestBatchEngineDifferential:
    """The vectorized batch engine against the scalar slot oracle."""

    @given(_random_models())
    @settings(max_examples=60, deadline=None)
    def test_batch_run_many_bit_identical(self, case):
        model, steps, stimuli, monitor = case
        batched = Simulator(
            model, monitor=monitor, engine=ENGINE_BATCH
        ).run_many(steps, stimuli)
        scalar = Simulator(model, monitor=monitor, engine=ENGINE_SLOTS)
        for episode, stimulus in zip(batched, stimuli):
            scalar.reset()
            _identical(episode, scalar.run(steps, inputs=stimulus))

    @given(_random_models())
    @settings(max_examples=20, deadline=None)
    def test_auto_dispatch_above_threshold_bit_identical(self, case):
        model, steps, stimuli, monitor = case
        # Pad the batch past the dispatch threshold so the plain slots
        # engine takes the vectorized path on its own.
        from repro.simulink.simulator import BATCH_THRESHOLD

        stimuli = (stimuli * BATCH_THRESHOLD)[: BATCH_THRESHOLD + 1]
        dispatched = Simulator(
            model, monitor=monitor, engine=ENGINE_SLOTS
        )
        episodes = dispatched.run_many(steps, stimuli)
        assert dispatched._batch_sim is not None
        scalar = Simulator(model, monitor=monitor, engine=ENGINE_REFERENCE)
        for episode, stimulus in zip(episodes, stimuli):
            scalar.reset()
            _identical(episode, scalar.run(steps, inputs=stimulus))


@pytest.fixture(scope="module")
def crane_caam():
    from repro.apps import crane
    from repro.core import synthesize

    return synthesize(crane.build_model(), behaviors=crane.behaviors()).caam


@pytest.fixture(scope="module")
def synthetic_caam():
    from repro.apps import synthetic
    from repro.core import synthesize

    return synthesize(synthetic.build_model()).caam


class TestDemoPipelineDifferential:
    def test_crane_bit_identical(self, crane_caam):
        stimulus = {"In1": [0.0] * 100, "In2": [0.0] * 100, "In3": [5.0] * 100}
        slots = Simulator(crane_caam, engine=ENGINE_SLOTS)
        reference = Simulator(crane_caam, engine=ENGINE_REFERENCE)
        _identical(
            slots.run(100, inputs=stimulus),
            reference.run(100, inputs=stimulus),
        )
        # Warm state after the first run must stay in lockstep too.
        _identical(
            slots.run(50, inputs=stimulus),
            reference.run(50, inputs=stimulus),
        )

    def test_synthetic_bit_identical(self, synthetic_caam):
        slots = Simulator(synthetic_caam, engine=ENGINE_SLOTS)
        reference = Simulator(synthetic_caam, engine=ENGINE_REFERENCE)
        _identical(slots.run(200), reference.run(200))

    @requires_numpy
    def test_crane_batch_engine_bit_identical(self, crane_caam):
        stimuli = [
            {"In1": [0.1 * k] * 60, "In3": [5.0] * (k % 70)}
            for k in range(24)
        ]
        batched = Simulator(crane_caam, engine=ENGINE_BATCH).run_many(
            60, stimuli
        )
        scalar = Simulator(crane_caam, engine=ENGINE_SLOTS)
        for episode, stimulus in zip(batched, stimuli):
            scalar.reset()
            _identical(episode, scalar.run(60, inputs=stimulus))


class TestZooScenarioDifferential:
    """The hypothesis lift from block graphs to full UML scenarios.

    Instead of wiring random Simulink diagrams directly, these draw
    complete zoo scenarios (threads, channels, deployments, feedback)
    and push them through the whole flow before comparing engines —
    the shrunk counterexample is a replayable (seed, index, family)
    triple.
    """

    @given(case=zoo_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_full_flow_engines_bit_identical(self, case):
        from repro.core import synthesize
        from repro.zoo import stimuli_for

        result = synthesize(
            case.model,
            auto_allocate=case.params.auto_allocate,
            behaviors=case.behaviors,
        )
        inports = sorted(
            (b for b in result.caam.root.blocks if b.block_type == "Inport"),
            key=lambda b: int(b.parameters.get("Port", 0)),
        )
        stimuli = stimuli_for(case.params, [b.name for b in inports])
        slots = Simulator(result.caam, engine=ENGINE_SLOTS)
        reference = Simulator(result.caam, engine=ENGINE_REFERENCE)
        for stimulus in stimuli:
            slots.reset()
            reference.reset()
            _identical(
                slots.run(case.params.steps, inputs=stimulus),
                reference.run(case.params.steps, inputs=stimulus),
            )
