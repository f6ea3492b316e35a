"""Block library semantics.

Maps Simulink ``BlockType`` strings to executable behaviours: the reference
semantics every engine and emitter is differential-tested against, and the
fallback for block types the kernel table (:mod:`repro.simulink.kernels`)
does not cover.  Each behaviour is a :class:`BlockSemantics` with:

- ``feedthrough``: whether outputs depend combinationally on current inputs
  (``False`` for stateful blocks like ``UnitDelay`` — they break cycles,
  which is exactly why the paper's temporal-barrier pass inserts them);
- ``initial_state``: per-instance starting state;
- ``step(block, inputs, state) -> (outputs, new_state)``.

The registry also records which method names on the special ``Platform``
object map to pre-defined blocks (paper §4.1: "to use pre-defined blocks,
the designer needs to indicate its usage by the invocation of a method from
the special object Platform...  When the method name does not match the
pre-defined component names, a user-defined Simulink block called S-function
is instantiated").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import Block, SimulinkError

Number = float
StepFn = Callable[[Block, Sequence[Number], object], Tuple[List[Number], object]]


class SemanticsError(SimulinkError):
    """Raised when a block cannot be executed."""


@dataclass(frozen=True)
class BlockSemantics:
    """Executable semantics of one block type."""

    block_type: str
    feedthrough: bool
    step: StepFn
    initial_state: Callable[[Block], object] = lambda block: None
    #: Default port counts used by factory helpers (None = flexible).
    default_inputs: Optional[int] = 1
    default_outputs: Optional[int] = 1


def _step_constant(block: Block, inputs: Sequence[Number], state: object):
    return [float(block.parameters.get("Value", 0.0))], state


def _step_gain(block: Block, inputs: Sequence[Number], state: object):
    gain = float(block.parameters.get("Gain", 1.0))
    return [gain * inputs[0]], state


def _step_sum(block: Block, inputs: Sequence[Number], state: object):
    signs = str(block.parameters.get("Inputs", "+" * len(inputs)))
    signs = signs.replace("|", "")
    if len(signs) != len(inputs):
        raise SemanticsError(
            f"Sum block {block.name!r}: sign string {signs!r} does not match "
            f"{len(inputs)} input(s)"
        )
    total = 0.0
    for sign, value in zip(signs, inputs):
        total = total + value if sign == "+" else total - value
    return [total], state


def _step_product(block: Block, inputs: Sequence[Number], state: object):
    result = 1.0
    for value in inputs:
        result *= value
    return [result], state


def _step_unit_delay(block: Block, inputs: Sequence[Number], state: object):
    # Output is the *previous* input: the state holds the buffered sample.
    return [float(state)], float(inputs[0])


def _unit_delay_initial(block: Block) -> object:
    return float(block.parameters.get("InitialCondition", 0.0))


def _step_saturation(block: Block, inputs: Sequence[Number], state: object):
    lower = float(block.parameters.get("LowerLimit", -1.0))
    upper = float(block.parameters.get("UpperLimit", 1.0))
    # The C comparison order: NaN saturates to the lower limit and a
    # signed-zero tie keeps the input.
    clipped = inputs[0] if inputs[0] >= lower else lower
    return [clipped if clipped <= upper else upper], state


def _step_abs(block: Block, inputs: Sequence[Number], state: object):
    return [abs(inputs[0])], state


def _step_relay(block: Block, inputs: Sequence[Number], state: object):
    """Relay with hysteresis (used by the crane controller)."""
    on_point = float(block.parameters.get("OnSwitchValue", 0.5))
    off_point = float(block.parameters.get("OffSwitchValue", -0.5))
    on_value = float(block.parameters.get("OnOutputValue", 1.0))
    off_value = float(block.parameters.get("OffOutputValue", 0.0))
    engaged = bool(state)
    value = inputs[0]
    if engaged and value <= off_point:
        engaged = False
    elif not engaged and value >= on_point:
        engaged = True
    return [on_value if engaged else off_value], engaged


def _step_identity(block: Block, inputs: Sequence[Number], state: object):
    return [inputs[0]], state


def _step_terminator(block: Block, inputs: Sequence[Number], state: object):
    return [], state


def _step_scope(block: Block, inputs: Sequence[Number], state: object):
    # Scopes record their history in state; the simulator exposes it.
    history = list(state or [])
    history.append(tuple(inputs) if len(inputs) != 1 else inputs[0])
    return [], history


def _scope_initial(block: Block) -> object:
    return []


def _step_sfunction(block: Block, inputs: Sequence[Number], state: object):
    """Execute an S-function.

    The paper attaches compiled C code to S-function blocks; our executable
    substitution accepts a Python callable under the ``callback`` parameter:

    - stateless: ``callback(*inputs) -> value | tuple``
    - stateful:  ``callback(state, inputs) -> (outputs, new_state)`` when the
      block parameter ``Stateful`` is truthy.

    Without a callback the block acts as a sum of its inputs (a harmless
    placeholder that keeps generated models executable before the designer
    supplies behaviour); its C source, when present, is carried in the
    ``Source`` parameter for the `.mdl` round-trip.
    """
    callback = block.parameters.get("callback")
    if callback is None:
        return [float(sum(inputs)) if inputs else 0.0] * max(
            1, block.num_outputs
        ), state
    if block.parameters.get("Stateful"):
        outputs, new_state = callback(state, list(inputs))
        return [float(v) for v in outputs], new_state
    result = callback(*inputs)
    if isinstance(result, tuple):
        return [float(v) for v in result], state
    return [float(result)], state


def _sfunction_initial(block: Block) -> object:
    return block.parameters.get("InitialState")


def _step_comm_channel(block: Block, inputs: Sequence[Number], state: object):
    """Communication channel (CAAM SWFIFO/GFIFO).

    Value semantics are a combinational pass-through — channels transport,
    they do not buffer samples.  This is deliberate: it means a cyclic
    inter-thread dataflow deadlocks unless the §4.2.2 temporal-barrier pass
    inserted a ``UnitDelay``, which is the behaviour the paper relies on.
    Latency *cost* is modelled separately in :mod:`repro.mpsoc`.
    """
    return [inputs[0]], state


def _step_sine(block: Block, inputs: Sequence[Number], state: object):
    import math

    amplitude = float(block.parameters.get("Amplitude", 1.0))
    frequency = float(block.parameters.get("Frequency", 1.0))
    phase = float(block.parameters.get("Phase", 0.0))
    t = float(state)
    angle = frequency * t + phase
    # C's sin() returns NaN for an infinite angle; math.sin raises.
    value = amplitude * (math.sin(angle) if math.isfinite(angle) else math.nan)
    return [value], t + 1.0


def _step_step_source(block: Block, inputs: Sequence[Number], state: object):
    step_time = float(block.parameters.get("Time", 1.0))
    before = float(block.parameters.get("Before", 0.0))
    after = float(block.parameters.get("After", 1.0))
    t = float(state)
    return [after if t >= step_time else before], t + 1.0


def _zero_initial(block: Block) -> object:
    return 0.0


_REGISTRY: Dict[str, BlockSemantics] = {}


def register(semantics: BlockSemantics) -> BlockSemantics:
    """Register (or override) semantics for a block type."""
    _REGISTRY[semantics.block_type] = semantics
    return semantics


def semantics_for(block_type: str) -> BlockSemantics:
    """The registered semantics of ``block_type`` (raises when unknown)."""
    try:
        return _REGISTRY[block_type]
    except KeyError:
        raise SemanticsError(
            f"no executable semantics registered for block type {block_type!r}"
        ) from None


def has_semantics(block_type: str) -> bool:
    """Whether executable semantics exist for ``block_type``."""
    return block_type in _REGISTRY


def is_feedthrough(block: Block) -> bool:
    """Whether a block's outputs combinationally depend on its inputs."""
    if block.num_inputs == 0 or block.num_outputs == 0:
        return False
    if not has_semantics(block.block_type):
        # Unknown types are conservatively treated as feedthrough so cycle
        # detection errs on the side of inserting barriers.
        return True
    return semantics_for(block.block_type).feedthrough


register(BlockSemantics("Constant", False, _step_constant, default_inputs=0))
register(BlockSemantics("Gain", True, _step_gain))
register(BlockSemantics("Sum", True, _step_sum, default_inputs=2))
register(BlockSemantics("Product", True, _step_product, default_inputs=2))
register(
    BlockSemantics(
        "UnitDelay", False, _step_unit_delay, initial_state=_unit_delay_initial
    )
)
register(BlockSemantics("Saturation", True, _step_saturation))
register(BlockSemantics("Abs", True, _step_abs))
register(
    BlockSemantics(
        "Relay", True, _step_relay, initial_state=lambda b: False
    )
)
register(BlockSemantics("Inport", True, _step_identity, default_inputs=0))
register(BlockSemantics("Outport", True, _step_identity, default_outputs=0))
register(BlockSemantics("Terminator", True, _step_terminator, default_outputs=0))
register(
    BlockSemantics(
        "Scope", True, _step_scope, initial_state=_scope_initial, default_outputs=0
    )
)
register(
    BlockSemantics(
        "S-Function", True, _step_sfunction, initial_state=_sfunction_initial
    )
)
register(BlockSemantics("CommChannel", True, _step_comm_channel))
register(
    BlockSemantics(
        "Sin", False, _step_sine, initial_state=_zero_initial, default_inputs=0
    )
)
register(
    BlockSemantics(
        "Step", False, _step_step_source, initial_state=_zero_initial,
        default_inputs=0,
    )
)


#: Platform-library method names recognized by the mapping (paper §4.1).
#: Method name (lower-case) -> (BlockType, default parameters, inputs).
PLATFORM_BLOCKS: Dict[str, Tuple[str, Dict[str, object], int]] = {
    "mult": ("Product", {}, 2),
    "product": ("Product", {}, 2),
    "add": ("Sum", {"Inputs": "++"}, 2),
    "sum": ("Sum", {"Inputs": "++"}, 2),
    "sub": ("Sum", {"Inputs": "+-"}, 2),
    "gain": ("Gain", {"Gain": 1.0}, 1),
    "abs": ("Abs", {}, 1),
    "saturation": ("Saturation", {}, 1),
    "relay": ("Relay", {}, 1),
    "delay": ("UnitDelay", {"InitialCondition": 0.0}, 1),
    "unitdelay": ("UnitDelay", {"InitialCondition": 0.0}, 1),
    "constant": ("Constant", {"Value": 0.0}, 0),
}


def platform_block_for(method_name: str) -> Optional[Tuple[str, Dict[str, object], int]]:
    """Resolve a ``Platform`` method name to a pre-defined block spec.

    Returns ``None`` when the name does not match any pre-defined component
    (→ the mapping instantiates an S-function instead).
    """
    spec = PLATFORM_BLOCKS.get(method_name.lower())
    if spec is None:
        return None
    block_type, params, inputs = spec
    return block_type, dict(params), inputs
