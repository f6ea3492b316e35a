"""Vectorized batch execution of slot-compiled plans.

The scalar slot engine (PR 4) made one episode fast; this module makes a
*batch* of episodes fast.  :class:`BatchSimulator` lowers an already
slot-compiled :class:`~repro.simulink.simulator.Simulator` plan to batched
form: the flat per-episode ``values`` list becomes one ``(episodes,
slots)`` float64 ndarray (Fortran order, so each signal slot is a
contiguous column) and each block type in the kernel table becomes
vectorized array ops across the whole batch, rendered from the same table
entry as the scalar closures (:func:`repro.simulink.kernels.numpy_kernel`).
Ragged per-episode stimuli are packed into a
zero-padded ``(episodes, steps)`` tensor plus an active-mask; the mask's
column envelope bounds how long each Inport column still needs refreshing
(one step past the longest stimulus the slot is 0.0 and stays 0.0, exactly
the scalar engine's missing-sample rule).

Blocks without a vectorized kernel — opaque S-functions, ``Sin``/``Step``
sources, extension-library types, instances their entry declines — fall back
to a per-episode Python loop *inside* the batched step, so any model the
scalar engine runs, the batch engine runs too, just with fewer blocks on
the fast path.

Exactness: the scalar slot engine stays the differential oracle exactly as
PR 4 kept the reference interpreter.  Batched results are bit-identical
per episode — including sign-of-zero, NaN propagation, error types and
messages, and the wrapped simulator's post-run state (the last episode's
final state, as if the scalar loop had run).  One caveat is inherent to
vectorization: execution is step-major (all episodes advance together)
rather than episode-major, which is only observable through impure
callbacks — when several episodes would raise *different* data-dependent
exceptions, the batch engine surfaces the earliest ``(step, episode)``
error rather than the earliest episode's.

Engine selection: ``Simulator(engine="batch")`` forces this path for every
``run_many``; the default ``slots`` engine auto-dispatches batches of at
least :data:`~repro.simulink.simulator.BATCH_THRESHOLD` episodes when NumPy
is importable.  Without NumPy the scalar engines keep working and
requesting ``batch`` raises :class:`BatchUnavailableError` with an
actionable message.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import kernels as libkernels
from .simulator import (
    ENGINE_BATCH,
    ENGINE_REFERENCE,
    SimulationError,
    SimulationResult,
    Simulator,
    table_instance,
)

try:  # NumPy is an optional runtime dependency of this engine only.
    import numpy as _np
except Exception:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None


class BatchUnavailableError(SimulationError):
    """The batch engine was requested where NumPy is unavailable."""


def numpy_available() -> bool:
    """Whether the vectorized batch engine can run at all."""
    return _np is not None


def require_numpy():
    """Return the numpy module or raise :class:`BatchUnavailableError`."""
    if _np is None:
        raise BatchUnavailableError(
            "simulation engine 'batch' requires NumPy, which is not "
            "importable in this environment; install numpy (>= 1.22) or "
            "select the scalar 'slots'/'reference' engines (engine=...)"
        )
    return _np


class _BindContext:
    """Per-run binding context: the value array and the batch shape."""

    __slots__ = ("values", "episodes", "steps")

    def __init__(self, values, episodes: int, steps: int) -> None:
        self.values = values
        self.episodes = episodes
        self.steps = steps


class BatchSimulator:
    """The slot plan of one :class:`Simulator`, lowered across episodes.

    Construction is a pure *re-lowering*: the wrapped simulator's slot
    assignment, feedthrough schedule and gather-site analysis are reused
    verbatim, so the batched plan is the scalar plan by construction.
    ``run_many`` then binds the plan to a concrete ``(episodes, slots)``
    array per call.
    """

    def __init__(self, simulator: Simulator) -> None:
        self._np = require_numpy()
        if simulator.engine == ENGINE_REFERENCE:
            raise SimulationError(
                "the reference engine cannot be batch-lowered; build the "
                "simulator with engine='slots' or engine='batch'"
            )
        self._sim = simulator
        self._compile()

    # -- compile ------------------------------------------------------------
    def _compile(self) -> None:
        """Derive vectorized / per-episode op descriptors from the plan."""
        sim = self._sim
        slot_base = sim._sp_slot_base
        consumed_max = sim._sp_consumed_max
        state_index = sim._sp_state_index
        ops: List[tuple] = []
        generic_count = 0
        vectorized_count = 0
        # Write-count slots for blocks on the per-episode path, so the
        # live-slot census matches the scalar engine's dynamic tally.
        write_counts: List[int] = []
        # Statically-known writes of blocks the scalar engine tallies
        # dynamically (vectorized S-functions): the census adds these.
        extra_static = 0
        for block, kind, semantics, keys in sim._plan:
            if kind == 0:
                continue  # root Inport: stimulus tensor, handled per run
            base = slot_base[block]
            src_slots = tuple(
                slot_base[key[0]] + key[1] - 1 if key is not None else 0
                for key in keys
            )
            checks = tuple(
                (needed, message)
                for _site, needed, message in sorted(
                    sim._sp_runtime_checks.get(block, [])
                )
            )
            dynamic = sim._sp_writes.get(block) is None
            found = table_instance(block, keys, ENGINE_BATCH)
            if found is not None and dynamic and any(
                needed > found.kernel.produced for needed, _ in checks
            ):
                # A consumer reads beyond what the kernel statically
                # writes; the per-episode path raises the scalar engine's
                # "internal scheduling error" at the right moment.
                found = None
            if found is not None:
                vectorized_count += 1
                if block.block_type == "Scope":
                    bind = _scope_recorder(src_slots[0])
                elif found.kernel.output or found.kernel.update:
                    bind = libkernels.numpy_kernel(found, src_slots, base)
                else:
                    continue  # a pure sink: nothing to execute
                ops.append(("vector", bind, state_index[block]))
                if dynamic:
                    extra_static += found.kernel.produced
                continue
            counter = len(write_counts)
            write_counts.append(0)
            ops.append(
                (
                    "generic",
                    block,
                    semantics,
                    src_slots,
                    base,
                    max(block.num_outputs, 1, consumed_max[block]),
                    checks,
                    kind == 1,
                    state_index[block],
                    counter,
                )
            )
            generic_count += 1
        self._ops = ops
        self._write_counts = write_counts
        self._extra_static = extra_static
        self.vectorized_blocks = vectorized_count
        self.generic_blocks = generic_count

    # -- per-run binding ----------------------------------------------------
    def _bind(self, ctx: _BindContext):
        """Bind compiled ops to this run's arrays.

        Returns ``(out_fns, upd_fns, snapshots, generic_states)`` where
        ``snapshots`` maps a state index to an ``episode -> state`` view
        of a vectorized stateful kernel and ``generic_states`` maps a
        state index to the per-episode Python state list of a fallback
        block.
        """
        np = self._np
        out_fns: List[object] = []
        upd_fns: List[object] = []
        snapshots: Dict[int, object] = {}
        generic_states: Dict[int, List[object]] = {}
        for op in self._ops:
            if op[0] == "vector":
                _tag, bind, index = op
                output_fn, update_fn, snapshot = bind(ctx)
                if output_fn is not None:
                    out_fns.append(output_fn)
                if update_fn is not None:
                    upd_fns.append(update_fn)
                if snapshot is not None:
                    snapshots[index] = snapshot
                continue
            (
                _tag,
                block,
                semantics,
                src_slots,
                base,
                slot_cap,
                checks,
                feedthrough,
                index,
                counter,
            ) = op
            states = [
                semantics.initial_state(block) for _ in range(ctx.episodes)
            ]
            generic_states[index] = states
            output_fn, update_fn = _bind_generic(
                np,
                ctx,
                block,
                semantics.step,
                states,
                src_slots,
                base,
                slot_cap,
                checks,
                self._write_counts,
                counter,
                feedthrough,
            )
            out_fns.append(output_fn)
            if update_fn is not None:
                upd_fns.append(update_fn)
        return out_fns, upd_fns, snapshots, generic_states

    # -- execution ----------------------------------------------------------
    def run_many(
        self,
        steps: int,
        stimuli: Sequence[Optional[Mapping[str, Sequence[float]]]],
    ) -> List[SimulationResult]:
        """Run the whole batch, one episode per stimulus mapping.

        Bit-identical to ``[fresh-reset run(steps, s) for s in stimuli]``
        on the scalar slot engine, including the error discipline and the
        wrapped simulator's post-run state.  Observability is
        :meth:`Simulator.run_many`'s: its ``simulink.run_many`` span and
        ``simulink.sim.*`` counters account for the batch once.
        """
        np = self._np
        sim = self._sim
        if not stimuli:
            # The scalar loop never resets nor raises on an empty batch.
            return []
        episodes = len(stimuli)
        # The scalar loop resets before each episode and raises after the
        # reset; mirror that so state-after-exception matches too.
        sim.reset()
        if steps < 0:
            raise SimulationError(f"steps must be >= 0, got {steps}")
        if sim._sp_monitor_error is not None:
            raise sim._sp_monitor_error
        if steps and sim._sp_run_error is not None:
            raise sim._sp_run_error

        values = np.zeros((episodes, sim.compiled_slots), order="F")
        ctx = _BindContext(values, episodes, steps)
        out_fns, upd_fns, snapshots, generic_states = self._bind(ctx)
        stim_ops = self._stimulus_tensors(ctx, stimuli)

        # Output / monitor traces, recorded column-per-step like the
        # scalar loop's per-step appends.  A missing driver slot keeps
        # the scalar default of 0.0 (the prefilled array).
        out_traces = [
            (name, slot, np.zeros((episodes, steps), order="F"))
            for name, slot in sim._sp_outports
        ]
        sig_traces = [
            (path, slot, np.zeros((episodes, steps), order="F"))
            for path, slot in sim._sp_monitors
        ]

        for k in range(steps):
            for column, tensor, limit in stim_ops:
                if k < limit:
                    column[:] = tensor[:, k]
            for fn in out_fns:
                fn(k)
            for fn in upd_fns:
                fn(k)
            for _name, slot, trace in out_traces:
                if slot is not None:
                    trace[:, k] = values[:, slot]
            for _path, slot, trace in sig_traces:
                if slot is not None:
                    trace[:, k] = values[:, slot]

        if steps:
            sim._value_slots = (
                sim._sp_static_census
                + self._extra_static
                + sum(self._write_counts)
            )

        results = []
        scope_plan = [
            (path, index, snapshots.get(index), generic_states.get(index))
            for path, index in sim._sp_scopes
        ]
        for episode in range(episodes):
            result = SimulationResult(steps=steps)
            for name, _slot, trace in out_traces:
                result.outputs[name] = trace[episode].tolist()
            for path, _slot, trace in sig_traces:
                result.signals[path] = trace[episode].tolist()
            for path, _index, snapshot, states in scope_plan:
                if snapshot is not None:
                    result.scopes[path] = snapshot(episode)
                elif states is not None:
                    result.scopes[path] = list(states[episode] or [])
                else:  # pragma: no cover - scopes always carry state
                    result.scopes[path] = []
            results.append(result)

        # Leave the wrapped simulator exactly as the scalar loop would:
        # every block state is the *last* episode's final state.
        last = episodes - 1
        sim_states = sim._sp_states
        for index, snapshot in snapshots.items():
            sim_states[index] = snapshot(last)
        for index, states in generic_states.items():
            sim_states[index] = states[last]
        return results

    def _stimulus_tensors(self, ctx: _BindContext, stimuli):
        """Pack ragged stimuli into padded tensors plus active-masks.

        One ``(episodes, steps)`` float64 tensor and boolean mask per root
        Inport.  Padding is 0.0 — literally the scalar engine's rule for a
        missing sample — so the mask is not needed for correctness; its
        column envelope yields ``limit``, the first step index from which
        the Inport column is all-padding *and* already flushed, letting
        the step loop stop refreshing the slot.
        """
        np = self._np
        steps = ctx.steps
        stim_ops = []
        for name, slot in self._sim._sp_stim:
            tensor = np.zeros((ctx.episodes, max(steps, 0)), order="F")
            mask = np.zeros((ctx.episodes, max(steps, 0)), dtype=bool, order="F")
            for episode, inputs in enumerate(stimuli):
                samples = (inputs or {}).get(name, ())
                span = min(len(samples), steps)
                if span:
                    # asarray coerces like the scalar engine's float():
                    # exact for floats, __float__ for everything else.
                    tensor[episode, :span] = np.asarray(
                        samples[:span], dtype=np.float64
                    )
                    mask[episode, :span] = True
            active = np.flatnonzero(mask.any(axis=0))
            # One extra step writes the first all-padding column (zeros);
            # after that the slot already holds 0.0 and stays put.
            limit = min(steps, int(active[-1]) + 2) if active.size else min(
                steps, 1
            )
            stim_ops.append((ctx.values[:, slot], tensor, limit))
        return stim_ops


def _scope_recorder(src: int):
    """Single-input Scope recording: engine code, it has no arithmetic."""

    def bind(ctx: _BindContext):
        column = ctx.values[:, src]
        trace = _np.zeros((ctx.episodes, ctx.steps), order="F")

        def update(k, trace=trace, column=column):
            trace[:, k] = column

        def snapshot(episode, trace=trace):
            return trace[episode].tolist()

        return None, update, snapshot

    return bind


def _bind_generic(
    np,
    ctx: _BindContext,
    block,
    step_fn,
    states: List[object],
    src_slots: Tuple[int, ...],
    base: int,
    slot_cap: int,
    checks: Tuple[Tuple[int, str], ...],
    write_counts: List[int],
    counter: int,
    feedthrough: bool,
):
    """Per-episode fallback closures for one block inside a batched step.

    Mirrors the scalar ``_generic_output`` / ``_generic_update`` pair:
    feedthrough blocks gather live inputs and commit state immediately;
    stateful blocks see zeros in the output phase and re-step with real
    inputs in the update phase.  Inputs are gathered for all episodes in
    one fancy-indexed copy (``.tolist()`` yields exact Python floats), so
    the Python-level loop only pays the semantics call itself.
    """
    values = ctx.values
    episodes = ctx.episodes
    num_inputs = block.num_inputs
    max_needed = max((needed for needed, _ in checks), default=0)
    src_list = list(src_slots)

    def _gather():
        if not src_list:
            return [[] for _ in range(episodes)]
        return values[:, src_list].tolist()

    def _scatter(episode, outputs):
        produced = len(outputs)
        write_counts[counter] = produced
        if produced < max_needed:
            for needed, message in checks:
                if needed > produced:
                    raise SimulationError(message)
        position = base
        limit = base + slot_cap
        for value in outputs:
            if position >= limit:
                break
            values[episode, position] = value
            position += 1
        while position < limit:
            values[episode, position] = 0.0
            position += 1

    if feedthrough:

        def output(k):
            rows = _gather()
            for episode in range(episodes):
                outputs, new_state = step_fn(
                    block, rows[episode], states[episode]
                )
                states[episode] = new_state
                _scatter(episode, outputs)

        return output, None

    zeros = [0.0] * num_inputs

    def output(k):
        for episode in range(episodes):
            outputs, _ = step_fn(block, list(zeros), states[episode])
            _scatter(episode, outputs)

    def update(k):
        rows = _gather()
        for episode in range(episodes):
            _, new_state = step_fn(block, rows[episode], states[episode])
            states[episode] = new_state

    return output, update
