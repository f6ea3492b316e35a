"""Discrete-time dataflow execution of Simulink models.

This simulator is what makes the generated CAAMs *executable* without
MATLAB: it flattens the hierarchy, orders blocks by their combinational
(direct-feedthrough) dependencies, and steps the model with fixed-step
synchronous-dataflow semantics.

Deadlock semantics (central to the paper's §4.2.2): a cycle in which every
block is direct-feedthrough has no valid evaluation order — the simulator
raises :class:`AlgebraicLoopError` naming the blocks on the cycle.  After
the temporal-barrier pass has inserted a ``UnitDelay`` into each such cycle
the model schedules and runs.

Three execution engines share the schedule (see ``docs/performance.md``):

- ``"slots"`` (default) — a compile-once plan assigns every signal
  ``(block, port)`` a dense integer slot in one preallocated flat list and
  binds each block to a closure that reads/writes slots directly.  Block
  types in the kernel table (:mod:`repro.simulink.kernels`) get closures
  compiled from their table entry; everything else falls back to the
  generic :class:`~repro.simulink.blocks.BlockSemantics` contract.
  ``run_many`` transparently hands batches of at least
  :data:`BATCH_THRESHOLD` episodes to the ``batch`` engine when NumPy is
  importable.
- ``"batch"`` — the slot plan lowered across a whole episode batch: one
  ``(episodes, slots)`` float64 ndarray replaces the per-episode flat
  list and every table-driven block becomes vectorized array ops
  (:mod:`repro.simulink.batch`; requires NumPy).
- ``"reference"`` — the per-step dict interpreter over the hand-written
  ``step`` functions, kept as the oracle the differential tests compare
  against.

All engines produce bit-identical results; select one with the ``engine=``
argument.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import recorder as _obs
from . import blocks as libblocks
from . import kernels as libkernels
from .model import Block, Port, SimulinkError, SimulinkModel, flatten

#: Engine names accepted by :class:`Simulator`.
ENGINE_SLOTS = "slots"
ENGINE_BATCH = "batch"
ENGINE_REFERENCE = "reference"
ENGINES = (ENGINE_SLOTS, ENGINE_BATCH, ENGINE_REFERENCE)

#: ``run_many`` batches at least this large go to the ``batch`` engine
#: under the default ``slots`` engine.
BATCH_THRESHOLD = 16


class SimulationError(SimulinkError):
    """Base class for simulation failures."""


class AlgebraicLoopError(SimulationError):
    """A cycle of direct-feedthrough blocks prevents scheduling.

    ``cycle`` holds the block paths on one offending cycle.
    """

    def __init__(self, cycle: List[str]) -> None:
        super().__init__(
            "algebraic loop (dataflow deadlock) through blocks: "
            + " -> ".join(cycle)
        )
        self.cycle = cycle


class UnconnectedInputError(SimulationError):
    """An input port has no driver."""


def feedthrough_order(
    blocks: Sequence[Block], in_edges: Mapping[Block, Mapping[int, Port]]
) -> List[Block]:
    """Topologically order ``blocks`` along direct-feedthrough edges.

    This is *the* evaluation order of the fixed-step engines, and the
    static-schedule code generation backend (:mod:`repro.codegen`) calls
    it too, so generated sources fire blocks in exactly the order the
    simulator does.  Raises :class:`AlgebraicLoopError` when a cycle of
    feedthrough blocks admits no order (the §4.2.2 deadlock).
    """
    successors: Dict[Block, List[Block]] = {b: [] for b in blocks}
    indegree: Dict[Block, int] = {b: 0 for b in blocks}
    for dst_block, sources in in_edges.items():
        if dst_block not in indegree:
            continue
        if not libblocks.is_feedthrough(dst_block):
            continue
        for src in sources.values():
            if src.block not in successors:
                continue
            successors[src.block].append(dst_block)
            indegree[dst_block] += 1
    # A deque keeps the FIFO discipline of the original list.pop(0)
    # (same deterministic order) at O(1) per dequeue instead of O(n).
    ready = deque(b for b in blocks if indegree[b] == 0)
    ordered: List[Block] = []
    while ready:
        block = ready.popleft()
        ordered.append(block)
        for succ in successors[block]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(ordered) != len(blocks):
        remaining = [b for b in blocks if indegree[b] > 0]
        cycle = _find_cycle(remaining, in_edges)
        raise AlgebraicLoopError([b.path for b in cycle])
    return ordered


@dataclass
class SimulationResult:
    """Traces recorded over a run.

    ``outputs`` maps root-level Outport block names to their sample lists;
    ``scopes`` maps Scope block paths to recorded histories; ``signals``
    maps monitored block paths to their (first) output traces.
    """

    steps: int
    outputs: Dict[str, List[float]] = field(default_factory=dict)
    scopes: Dict[str, List[object]] = field(default_factory=dict)
    signals: Dict[str, List[float]] = field(default_factory=dict)

    def output(self, name: str) -> List[float]:
        """Samples recorded at the named root Outport."""
        try:
            return self.outputs[name]
        except KeyError:
            raise SimulationError(f"no recorded output {name!r}") from None

    def signal(self, path: str) -> List[float]:
        """Samples of a monitored block path."""
        try:
            return self.signals[path]
        except KeyError:
            raise SimulationError(f"no monitored signal {path!r}") from None

    def to_csv(self) -> str:
        """All recorded traces as CSV (step, outputs..., signals...).

        Each column is formatted once; traces shorter than ``steps``
        (ragged, e.g. a run aborted mid-way) are padded with explicit
        empty cells so every row has one cell per column.
        """
        columns = list(self.outputs) + list(self.signals)
        series = [self.outputs[c] for c in self.outputs] + [
            self.signals[c] for c in self.signals
        ]
        cells = []
        for samples in series:
            column = [f"{value:g}" for value in samples[: self.steps]]
            if len(column) < self.steps:
                column.extend([""] * (self.steps - len(column)))
            cells.append(column)
        lines = ["step," + ",".join(columns)]
        for step in range(self.steps):
            lines.append(
                ",".join([str(step)] + [column[step] for column in cells])
            )
        return "\n".join(lines) + "\n"


class Simulator:
    """Fixed-step simulator for a :class:`SimulinkModel`.

    Parameters
    ----------
    model:
        The model to execute.
    monitor:
        Optional block paths whose first output should be traced.
    engine:
        ``"slots"`` (compiled, default), ``"batch"`` (the slot plan
        vectorized across episode batches; requires NumPy) or
        ``"reference"`` (the original interpreter, kept as the
        differential-test oracle).  ``None`` means ``"slots"``.
    """

    def __init__(
        self,
        model: SimulinkModel,
        monitor: Optional[Sequence[str]] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.model = model
        self.monitor = list(monitor or [])
        self.engine = engine or ENGINE_SLOTS
        if self.engine not in ENGINES:
            raise SimulationError(
                f"unknown simulation engine {self.engine!r}; "
                f"expected one of {ENGINES}"
            )
        if self.engine == ENGINE_BATCH:
            # Fail construction with an actionable message rather than
            # deep inside the first run_many (scalar engines keep working
            # in NumPy-less environments).
            from .batch import require_numpy

            require_numpy()
        self._batch_sim = None
        self._blocks, edges = flatten(model)
        self._in_edges: Dict[Block, Dict[int, Port]] = {}
        for src, dst in edges:
            slot = self._in_edges.setdefault(dst.block, {})
            if dst.index in slot:
                raise SimulationError(
                    f"input {dst!r} is driven by multiple sources"
                )
            slot[dst.index] = src
        self._order = self._schedule()
        self._plan = self._compile_plan()
        self._state: Dict[Block, object] = {}
        #: Live signal slots observed on the last executed step (the
        #: dataflow analogue of queue depth; read by the obs layer).
        self._value_slots = 0
        if self.engine != ENGINE_REFERENCE:
            rec = _obs.get()
            if rec.enabled:
                with rec.span(
                    "simulink.compile",
                    category="sim",
                    model=self.model.name,
                    blocks=len(self._blocks),
                ) as span:
                    self._compile_slots()
                rec.incr("simulink.compile.models")
                rec.gauge("simulink.compile.slots", self.compiled_slots)
                rec.gauge(
                    "simulink.compile.specialized", self.compiled_specialized
                )
                rec.gauge("simulink.compile.generic", self.compiled_generic)
                span.set(
                    slots=self.compiled_slots,
                    specialized=self.compiled_specialized,
                    generic=self.compiled_generic,
                )
            else:
                self._compile_slots()
        self.reset()

    # -- scheduling -----------------------------------------------------------
    def _schedule(self) -> List[Block]:
        """Topologically order blocks along direct-feedthrough edges."""
        return feedthrough_order(self._blocks, self._in_edges)

    def _compile_plan(self) -> List[tuple]:
        """Precompute per-block execution records for the hot loop.

        Each record is ``(block, kind, semantics, sources)`` where ``kind``
        is 0 = root Inport (stimulus), 1 = feedthrough, 2 = stateful, and
        ``sources`` is the ordered tuple of ``(src_block, src_index)`` keys
        for the block's inputs (``None`` marks an unconnected input, which
        raises on first execution).
        """
        plan: List[tuple] = []
        for block in self._order:
            if block.block_type == "Inport" and block.parent is self.model.root:
                plan.append((block, 0, None, ()))
                continue
            semantics = libblocks.semantics_for(block.block_type)
            sources = self._in_edges.get(block, {})
            keys = tuple(
                (
                    (sources[i].block, sources[i].index)
                    if i in sources
                    else None
                )
                for i in range(1, block.num_inputs + 1)
            )
            kind = 1 if libblocks.is_feedthrough(block) else 2
            plan.append((block, kind, semantics, keys))
        return plan

    # -- slot compilation -----------------------------------------------------
    def _compile_slots(self) -> None:
        """Build the dense-slot execution plan (the ``slots`` engine).

        Every block gets a contiguous slot range in one flat ``values``
        list (``max(num_outputs, 1, highest consumed port)`` wide, so
        monitors and odd consumers always have a slot to read), and every
        plan record becomes at most two zero-argument closures — one for
        the output phase, one for the update phase — with all parameters,
        source slots and state indices bound at compile time.

        Unconnected inputs and statically-detectable missing samples are
        found here; matching the reference engine, the error is *raised*
        on the first :meth:`run` that executes at least one step (and the
        update-phase variety even for ``run(0)``-style calls is deferred
        identically, because the reference loop never runs either).
        """
        # Highest port index any consumer (gather, outport, monitor) reads
        # from each block, so the slot range covers phantom reads.
        consumed_max: Dict[Block, int] = {b: 0 for b in self._blocks}
        for sources in self._in_edges.values():
            for src in sources.values():
                if src.block in consumed_max:
                    consumed_max[src.block] = max(
                        consumed_max[src.block], src.index
                    )
        slot_base: Dict[Block, int] = {}
        total = 0
        for block in self._order:
            slot_base[block] = total
            total += max(block.num_outputs, 1, consumed_max[block])
        values = [0.0] * total
        states: List[object] = [None] * len(self._order)
        state_index = {block: i for i, block in enumerate(self._order)}

        # Static output-phase write counts: table entries this engine
        # runs write a fixed number of slots; generic records report
        # theirs per step (``None``).
        writes: Dict[Block, Optional[int]] = {}
        for block, kind, semantics, keys in self._plan:
            entry = libkernels.KERNELS.get(block.block_type)
            if kind == 0:
                writes[block] = 1
            else:
                writes[block] = entry.produced if entry and entry.slots else None

        # Gather-site census in reference chronological order: the output
        # phase visits kind-1 records in plan order, then the update phase
        # visits kind-2 records in plan order.  Because feedthrough
        # consumers are topologically after all their producers, a gather
        # can only fail through an unconnected input or a producer that
        # wrote fewer samples than the consumed port index.
        first_error: Optional[Tuple[tuple, SimulationError]] = None
        runtime_checks: Dict[Block, List[Tuple[tuple, int, str]]] = {}
        for position, (block, kind, semantics, keys) in enumerate(self._plan):
            if kind == 0:
                continue
            phase = 0 if kind == 1 else 1
            for index, key in enumerate(keys, start=1):
                site = (phase, position, index)
                if key is None:
                    error: SimulationError = UnconnectedInputError(
                        f"input {index} of block {block.path!r} "
                        "is not connected"
                    )
                    if first_error is None or site < first_error[0]:
                        first_error = (site, error)
                    continue
                src_block, src_index = key
                produced = writes.get(src_block)
                message = (
                    f"internal scheduling error: value of {src_block.path}."
                    f"out{src_index} not available when evaluating "
                    f"{block.path!r}"
                )
                if produced is None:
                    runtime_checks.setdefault(src_block, []).append(
                        (site, src_index, message)
                    )
                elif src_index > produced:
                    error = SimulationError(message)
                    if first_error is None or site < first_error[0]:
                        first_error = (site, error)
        self._sp_run_error = first_error[1] if first_error else None

        # Monitor resolution is hoisted here, but a bad path must still
        # raise at run() time exactly like the reference engine does.
        self._sp_monitor_error: Optional[Exception] = None
        monitor_slots: List[Tuple[str, Optional[int]]] = []
        try:
            for path in self.monitor:
                block = self.model.find(path)
                base = slot_base.get(block)
                monitor_slots.append((path, base))
        except SimulinkError as exc:
            self._sp_monitor_error = exc
            monitor_slots = []
        self._sp_monitors = monitor_slots

        outports: List[Tuple[str, Optional[int]]] = []
        for block in self._blocks:
            if block.block_type == "Outport" and block.parent is self.model.root:
                src = self._in_edges.get(block, {}).get(1)
                slot = (
                    slot_base[src.block] + src.index - 1
                    if src is not None and src.block in slot_base
                    else None
                )
                outports.append((block.name, slot))
        self._sp_outports = outports
        self._sp_scopes = [
            (block.path, state_index[block])
            for block in self._blocks
            if block.block_type == "Scope"
        ]

        stim: List[Tuple[str, int]] = []
        out_fns: List[object] = []
        upd_fns: List[object] = []
        write_counts: List[int] = []
        static_census = 0
        specialized = 0
        generic = 0
        for block, kind, semantics, keys in self._plan:
            base = slot_base[block]
            if kind == 0:
                stim.append((block.name, base))
                static_census += 1
                continue
            src_slots = tuple(
                slot_base[key[0]] + key[1] - 1 if key is not None else 0
                for key in keys
            )
            index = state_index[block]
            found = table_instance(block, keys, ENGINE_SLOTS)
            if found is not None:
                if block.block_type == "Scope":
                    output_fn, update_fn = None, _scope_recorder(
                        values, states, index, src_slots[0]
                    )
                else:
                    output_fn, update_fn = libkernels.python_kernel(
                        found, values, states, index, src_slots, base
                    )
                if output_fn is not None:
                    out_fns.append(output_fn)
                if update_fn is not None:
                    upd_fns.append(update_fn)
                specialized += 1
                static_census += writes[block] or 0
                continue
            generic += 1
            slot_cap = max(block.num_outputs, 1, consumed_max[block])
            checks = tuple(
                (needed, message)
                for _site, needed, message in sorted(
                    runtime_checks.get(block, [])
                )
            )
            counter_index = len(write_counts)
            write_counts.append(0)
            out_fns.append(
                _generic_output(
                    block,
                    semantics.step,
                    values,
                    states,
                    index,
                    src_slots,
                    base,
                    slot_cap,
                    checks,
                    write_counts,
                    counter_index,
                    feedthrough=kind == 1,
                )
            )
            if kind == 2:
                upd_fns.append(
                    _generic_update(
                        block, semantics.step, values, states, index, src_slots
                    )
                )
        self._sp_values = values
        self._sp_states = states
        self._sp_state_index = state_index
        self._sp_stim = stim
        self._sp_out_fns = out_fns
        self._sp_upd_fns = upd_fns
        self._sp_write_counts = write_counts
        self._sp_static_census = static_census
        # Plan metadata kept for the batch lowering
        # (:mod:`repro.simulink.batch` re-derives its vectorized ops from
        # the very same slot assignment and gather-site analysis).
        self._sp_slot_base = slot_base
        self._sp_consumed_max = consumed_max
        self._sp_runtime_checks = runtime_checks
        self._sp_writes = writes
        self.compiled_slots = total
        self.compiled_specialized = specialized
        self.compiled_generic = generic

    # -- execution --------------------------------------------------------------
    def reset(self) -> None:
        """Reset the running engine's block states to their initial values.

        The reference interpreter keeps a per-block dict, the slot engines
        (and the batch engine, which reads the slot states) a flat list;
        only the one this simulator runs on is filled.
        """
        if self.engine == ENGINE_REFERENCE:
            self._state = {
                block: _initial_state(block) for block in self._blocks
            }
            return
        states = self._sp_states
        for block, index in self._sp_state_index.items():
            states[index] = _initial_state(block)

    def run(
        self,
        steps: int,
        inputs: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> SimulationResult:
        """Run ``steps`` fixed-size steps.

        ``inputs`` maps root-level Inport block names to stimulus sample
        sequences (missing samples default to 0.0).

        With an active observability recorder the run is wrapped in a
        ``simulink.run`` span and reports steps/sec, per-block-type fire
        counts, and the live signal-slot census to the metrics registry;
        with the null recorder (the default) the hot loop is untouched.
        """
        rec = _obs.get()
        if not rec.enabled:
            return self._run_steps(steps, inputs)
        start = time.perf_counter()
        with rec.span(
            "simulink.run",
            category="sim",
            model=self.model.name,
            steps=steps,
            blocks=len(self._blocks),
            engine=self.engine,
        ) as span:
            result = self._run_steps(steps, inputs)
        elapsed = time.perf_counter() - start
        rate = steps / elapsed if elapsed > 0 else 0.0
        rec.incr("simulink.sim.runs")
        rec.incr("simulink.sim.steps", steps)
        rec.gauge("simulink.sim.steps_per_sec", rate)
        rec.gauge("simulink.sim.blocks", len(self._blocks))
        rec.gauge("simulink.sim.value_slots", self._value_slots)
        # Synchronous dataflow: every scheduled block fires once per step.
        fires: Dict[str, int] = {}
        for block in self._order:
            fires[block.block_type] = fires.get(block.block_type, 0) + 1
        for block_type, count in fires.items():
            rec.incr(f"simulink.fires.{block_type}", count * steps)
        span.set(steps_per_sec=round(rate, 1))
        return result

    def run_many(
        self,
        steps: int,
        stimuli: Sequence[Optional[Mapping[str, Sequence[float]]]],
    ) -> List[SimulationResult]:
        """Run a batch of independent episodes, one per stimulus.

        Each episode starts from a fresh :meth:`reset`, so
        ``run_many(n, [a, b])`` equals two cold ``run(n, ...)`` calls on
        separate simulators while paying plan compilation only once —
        the batch entry point the server and DSE sweeps amortize over.

        Batches are handed to the vectorized ``batch`` engine
        (:mod:`repro.simulink.batch`) when that engine was selected
        explicitly, or — under the default ``slots`` engine — when the
        batch is at least :data:`BATCH_THRESHOLD` episodes and NumPy is
        importable.  The batched path is bit-identical to the
        loop it replaces.
        """
        batch = self._batch_engine_for(len(stimuli))
        rec = _obs.get()
        if not rec.enabled:
            if batch is not None:
                return batch.run_many(steps, stimuli)
            results = []
            for inputs in stimuli:
                self.reset()
                results.append(self._run_steps(steps, inputs))
            return results
        start = time.perf_counter()
        with rec.span(
            "simulink.run_many",
            category="sim",
            model=self.model.name,
            episodes=len(stimuli),
            steps=steps,
            engine=self.engine,
            batched=batch is not None,
        ) as span:
            if batch is not None:
                span.set(
                    vectorized_blocks=batch.vectorized_blocks,
                    generic_blocks=batch.generic_blocks,
                )
                results = batch.run_many(steps, stimuli)
            else:
                results = []
                for inputs in stimuli:
                    self.reset()
                    results.append(self._run_steps(steps, inputs))
        elapsed = time.perf_counter() - start
        total = steps * len(stimuli)
        rate = total / elapsed if elapsed > 0 else 0.0
        rec.incr("simulink.sim.batches")
        rec.incr("simulink.sim.runs", len(stimuli))
        rec.incr("simulink.sim.steps", total)
        rec.gauge("simulink.sim.steps_per_sec", rate)
        rec.gauge("simulink.sim.value_slots", self._value_slots)
        span.set(steps_per_sec=round(rate, 1))
        return results

    def _batch_engine_for(self, episodes: int):
        """The :class:`~repro.simulink.batch.BatchSimulator` to use for a
        ``run_many`` of ``episodes`` episodes, or ``None`` for the scalar
        loop.  ``engine="batch"`` always batches; the default ``slots``
        engine auto-dispatches above the batch threshold when NumPy is
        available; ``reference`` never batches (it is the oracle)."""
        if self.engine == ENGINE_REFERENCE:
            return None
        from . import batch as libbatch

        if self.engine != ENGINE_BATCH:
            if episodes < BATCH_THRESHOLD:
                return None
            if not libbatch.numpy_available():
                return None
        if self._batch_sim is None:
            self._batch_sim = libbatch.BatchSimulator(self)
        return self._batch_sim

    def _run_steps(
        self,
        steps: int,
        inputs: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> SimulationResult:
        """Dispatch to the engine selected at construction.

        Single-episode runs under the ``batch`` engine use the scalar
        slot loop — vectorizing across a batch of one would only add
        ndarray overhead, and the two are bit-identical anyway.
        """
        if self.engine == ENGINE_REFERENCE:
            return self._run_steps_reference(steps, inputs)
        return self._run_steps_slots(steps, inputs)

    def _run_steps_slots(
        self,
        steps: int,
        inputs: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> SimulationResult:
        """The slot-compiled execution loop."""
        if steps < 0:
            raise SimulationError(f"steps must be >= 0, got {steps}")
        if self._sp_monitor_error is not None:
            raise self._sp_monitor_error
        inputs = dict(inputs or {})
        result = SimulationResult(steps=steps)
        for name, _slot in self._sp_outports:
            result.outputs[name] = []
        for path in self.monitor:
            result.signals[path] = []
        if steps and self._sp_run_error is not None:
            raise self._sp_run_error

        values = self._sp_values
        out_fns = self._sp_out_fns
        upd_fns = self._sp_upd_fns
        stim = [
            (slot, inputs.get(name, ())) for name, slot in self._sp_stim
        ]
        outs = [
            (result.outputs[name], slot) for name, slot in self._sp_outports
        ]
        sigs = [
            (result.signals[path], slot) for path, slot in self._sp_monitors
        ]
        for step_index in range(steps):
            for slot, samples in stim:
                values[slot] = (
                    float(samples[step_index])
                    if step_index < len(samples)
                    else 0.0
                )
            for fn in out_fns:
                fn()
            for fn in upd_fns:
                fn()
            for trace, slot in outs:
                trace.append(values[slot] if slot is not None else 0.0)
            for trace, slot in sigs:
                trace.append(values[slot] if slot is not None else 0.0)

        if steps:
            self._value_slots = self._sp_static_census + sum(
                self._sp_write_counts
            )
        states = self._sp_states
        for path, index in self._sp_scopes:
            result.scopes[path] = list(states[index] or [])
        return result

    def _run_steps_reference(
        self,
        steps: int,
        inputs: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> SimulationResult:
        """The original interpreted loop, kept as the differential oracle."""
        if steps < 0:
            raise SimulationError(f"steps must be >= 0, got {steps}")
        inputs = dict(inputs or {})
        result = SimulationResult(steps=steps)
        root_outports = [
            b
            for b in self._blocks
            if b.block_type == "Outport" and b.parent is self.model.root
        ]
        for outport in root_outports:
            result.outputs[outport.name] = []
        for path in self.monitor:
            result.signals[path] = []
        monitored = {path: self.model.find(path) for path in self.monitor}

        state = self._state
        for step_index in range(steps):
            values: Dict[Tuple[Block, int], float] = {}
            # Output phase: evaluate in feedthrough-topological order.  A
            # non-feedthrough block's outputs depend only on its state, so
            # its (possibly not-yet-computed) inputs are passed as zeros and
            # its state update is deferred to the update phase below.
            stateful: List[tuple] = []
            for record in self._plan:
                block, kind, semantics, keys = record
                if kind == 0:
                    # Root Inports are model stimulus, fed externally.
                    samples = inputs.get(block.name, ())
                    values[(block, 1)] = (
                        float(samples[step_index])
                        if step_index < len(samples)
                        else 0.0
                    )
                    continue
                if kind == 1:
                    in_values = self._gather(block, keys, values)
                    outputs, new_state = semantics.step(
                        block, in_values, state[block]
                    )
                    state[block] = new_state
                else:
                    outputs, _ = semantics.step(
                        block, [0.0] * block.num_inputs, state[block]
                    )
                    stateful.append(record)
                for position, value in enumerate(outputs, start=1):
                    values[(block, position)] = value
            # Update phase: every signal value is now available; commit the
            # state transitions of the stateful blocks.
            for block, _kind, semantics, keys in stateful:
                in_values = self._gather(block, keys, values)
                _, new_state = semantics.step(block, in_values, state[block])
                state[block] = new_state

            for outport in root_outports:
                sources = self._in_edges.get(outport, {})
                src = sources.get(1)
                sample = values.get((src.block, src.index), 0.0) if src else 0.0
                result.outputs[outport.name].append(sample)
            for path, block in monitored.items():
                result.signals[path].append(values.get((block, 1), 0.0))

        if steps:
            self._value_slots = len(values)
        for block in self._blocks:
            if block.block_type == "Scope":
                result.scopes[block.path] = list(self._state[block] or [])
        return result

    def _gather(
        self,
        block: Block,
        keys,
        values: Dict[Tuple[Block, int], float],
    ) -> List[float]:
        gathered: List[float] = []
        for index, key in enumerate(keys, start=1):
            if key is None:
                raise UnconnectedInputError(
                    f"input {index} of block {block.path!r} is not connected"
                )
            try:
                gathered.append(values[key])
            except KeyError:
                raise SimulationError(
                    f"internal scheduling error: value of {key[0].path}."
                    f"out{key[1]} not available when evaluating "
                    f"{block.path!r}"
                ) from None
        return gathered


def _initial_state(block: Block) -> object:
    """A block's initial state (``None`` for types without semantics)."""
    if libblocks.has_semantics(block.block_type):
        return libblocks.semantics_for(block.block_type).initial_state(block)
    return None


def table_instance(
    block: Block, keys: Sequence[object], engine: str
) -> Optional[libkernels.Instance]:
    """The kernel-table instance ``engine`` (``"slots"`` or ``"batch"``)
    runs ``block`` by, or ``None`` for the generic path.

    Statement-free sinks (Outport, Terminator) compile to nothing: their
    slots stay at 0.0 and the compile-time census already covers the
    reads their update phase would re-gather, so they need no connected
    input.  Single-input Scopes record through engine code; multi-input
    scopes record tuples on the generic path.
    """
    entry = libkernels.KERNELS.get(block.block_type)
    if entry is None or not getattr(entry, engine):
        return None
    found = libkernels.try_instance(block)
    if found is None:
        return None
    if block.block_type == "Scope":
        return found if len(keys) == 1 and None not in keys else None
    kernel = found.kernel
    return None if (kernel.output or kernel.update) and None in keys else found


def _scope_recorder(values, states, index, src):
    def record(v=values, st=states, i=index, s=src):
        st[i].append(v[s])

    return record


def _generic_output(
    block: Block,
    step_fn,
    values: List[float],
    states: List[object],
    state_index: int,
    src_slots: Tuple[int, ...],
    base: int,
    slot_cap: int,
    checks: Tuple[Tuple[int, str], ...],
    write_counts: List[int],
    counter_index: int,
    *,
    feedthrough: bool,
) -> object:
    """Output-phase closure for blocks without a specialized kernel.

    Feedthrough blocks gather live inputs and commit state immediately;
    stateful blocks see zeros and discard the state change (the update
    closure re-runs the step with real inputs), exactly mirroring the
    reference engine's two phases.  ``checks`` raises the reference
    engine's "internal scheduling error" when the block produced fewer
    samples than some consumer reads; surplus slots up to ``slot_cap``
    are zeroed so monitor-style default reads stay at 0.0.
    """
    num_inputs = block.num_inputs
    max_needed = max((needed for needed, _ in checks), default=0)

    def output(
        v=values,
        st=states,
        i=state_index,
        srcs=src_slots,
        step=step_fn,
        block=block,
        base=base,
        cap=slot_cap,
        checks=checks,
        max_needed=max_needed,
        wc=write_counts,
        j=counter_index,
        ni=num_inputs,
        feedthrough=feedthrough,
    ):
        if feedthrough:
            outputs, new_state = step(block, [v[s] for s in srcs], st[i])
            st[i] = new_state
        else:
            outputs, _ = step(block, [0.0] * ni, st[i])
        produced = len(outputs)
        wc[j] = produced
        if produced < max_needed:
            for needed, message in checks:
                if needed > produced:
                    raise SimulationError(message)
        position = base
        limit = base + cap
        for value in outputs:
            if position >= limit:
                break
            v[position] = value
            position += 1
        while position < limit:
            v[position] = 0.0
            position += 1

    return output


def _generic_update(
    block: Block,
    step_fn,
    values: List[float],
    states: List[object],
    state_index: int,
    src_slots: Tuple[int, ...],
) -> object:
    """Update-phase closure: re-step with real inputs, commit state only."""

    def update(
        v=values,
        st=states,
        i=state_index,
        srcs=src_slots,
        step=step_fn,
        block=block,
    ):
        _, new_state = step(block, [v[s] for s in srcs], st[i])
        st[i] = new_state

    return update


def _find_cycle(
    remaining: List[Block], in_edges: Dict[Block, Dict[int, Port]]
) -> List[Block]:
    """Extract one cycle among blocks that could not be scheduled."""
    remaining_set = set(remaining)
    if not remaining:
        return []
    start = remaining[0]
    path: List[Block] = []
    seen: Dict[Block, int] = {}
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        predecessors = [
            p.block
            for p in in_edges.get(node, {}).values()
            if p.block in remaining_set
        ]
        if not predecessors:
            return path
        node = predecessors[0]
    cycle = path[seen[node]:]
    cycle.reverse()
    return cycle


def run_model(
    model: SimulinkModel,
    steps: int,
    inputs: Optional[Mapping[str, Sequence[float]]] = None,
    monitor: Optional[Sequence[str]] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Convenience one-shot: build a :class:`Simulator` and run it."""
    return Simulator(model, monitor=monitor, engine=engine).run(
        steps, inputs=inputs
    )


def is_executable(model: SimulinkModel) -> Tuple[bool, Optional[List[str]]]:
    """Check whether the model schedules (no algebraic loops).

    Returns ``(True, None)`` or ``(False, cycle_block_paths)``.  Used by the
    barrier benchmarks to show models deadlock before §4.2.2 and run after.
    """
    try:
        Simulator(model)
    except AlgebraicLoopError as exc:
        return False, exc.cycle
    return True, None
