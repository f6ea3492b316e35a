"""Every kernel-table entry, driven with IEEE edge values, in every engine.

One case per entry of :data:`repro.simulink.kernels.KERNELS` (new entries
are picked up automatically).  Each case is a CAAM holding the entry's
block once per parameter variant — defaults, then every float parameter
set to one edge value — and its stimuli sweep every combination of the
edge values over the block's inputs.  The reference interpreter, the slot
engine and the batch engine must agree bit for bit (NaN sign bits
included), and the generated C must match too when a compiler is present.
"""

import math
import shutil
import struct

import pytest

from repro.simulink import kernels
from repro.simulink.blocks import semantics_for
from repro.simulink.caam import CaamModel
from repro.simulink.model import Block, SimulinkModel
from repro.simulink.simulator import (
    ENGINE_BATCH,
    ENGINE_REFERENCE,
    ENGINE_SLOTS,
    Simulator,
)

#: Overflow and inf - inf are the point here; NumPy's warnings about them
#: are noise.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308)
EPISODES = 32
STEPS = len(EDGES) ** 2

#: Parameters that are not floats, or that shape the case.
OVERRIDES = {"Sum": {"Inputs": "+-"}}


def _affine(x):
    return 1.5 * x + -0.0


_affine.codegen_spec = ("affine", 1.5, -0.0)


def _constant():
    return -0.0


_constant.codegen_spec = ("constant", -0.0)


def _variants(block_type):
    """``(name, inputs, outputs, parameters)`` per block in the case."""
    semantics = semantics_for(block_type)
    inputs = semantics.default_inputs or 0
    outputs = semantics.default_outputs or 0
    base = dict(OVERRIDES.get(block_type, {}))
    entry = kernels.KERNELS[block_type]
    variants = [("defaults", inputs, outputs, base)]
    for index, value in enumerate(EDGES):
        params = dict(base, **{name: value for name, _ in entry.params})
        if entry.params:
            variants.append((f"edge{index}", inputs, outputs, params))
    if block_type == "S-Function":
        variants += [
            ("placeholder", 2, 2, {}),
            ("affine", 1, 1, {"callback": _affine}),
            ("constant", 0, 1, {"callback": _constant}),
        ]
    return variants


def _root_port(model, kind, name):
    count = len(model.root.blocks_of_type(kind)) + 1
    inputs, outputs = (0, 1) if kind == "Inport" else (1, 0)
    return model.root.add(
        Block(name, kind, inputs=inputs, outputs=outputs,
              parameters={"Port": count})
    )


def _case(block_type):
    """The case model: one thread per variant on one CPU."""
    if block_type == "Outport":
        model = SimulinkModel("edges")
        inport = _root_port(model, "Inport", "In1")
        outport = _root_port(model, "Outport", "Out1")
        model.root.connect(inport.output(), outport.input())
        return model, 1
    caam = CaamModel("edges")
    cpu = caam.add_cpu("CPU1")
    variants = _variants(block_type)
    width = max(inputs for _, inputs, _, _ in variants)
    inports = []
    for k in range(width):
        root = _root_port(caam, "Inport", f"In{k + 1}")
        inports.append(cpu.add_inport(f"In{k + 1}"))
        caam.root.connect(root.output(), cpu.input(k + 1))
    for name, inputs, outputs, params in variants:
        thread = caam.add_thread("CPU1", name)
        block = thread.system.add(
            Block("k", block_type, inputs=inputs, outputs=outputs,
                  parameters=params)
        )
        for k in range(inputs):
            port = thread.add_inport(f"i{k + 1}")
            thread.system.connect(port.output(), block.input(k + 1))
            cpu.system.connect(inports[k].output(), thread.input(k + 1))
        for j in range(outputs):
            port = thread.add_outport(f"o{j + 1}")
            thread.system.connect(block.output(j + 1), port.input())
            label = f"{name}_{j + 1}"
            inner = cpu.add_outport(label)
            cpu.system.connect(thread.output(j + 1), inner.input())
            out = _root_port(caam, "Outport", label)
            caam.root.connect(cpu.output(len(cpu.outport_blocks())), out.input())
    return caam, width


def _episodes(width):
    """Every edge-value combination over ``width`` inputs, rotated per
    episode so each batch row differs."""
    n = len(EDGES)
    return [
        {
            f"In{k + 1}": [
                EDGES[(step // n**k + episode) % n] for step in range(STEPS)
            ]
            for k in range(width)
        }
        for episode in range(EPISODES)
    ]


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _fingerprint(result):
    doc = {name: _bits(v) for name, v in result.outputs.items()}
    doc.update(
        {f"scope {path}": _bits(v) for path, v in result.scopes.items()}
    )
    return doc


@pytest.mark.parametrize("block_type", sorted(kernels.KERNELS))
def test_engines_agree_on_edge_values(block_type):
    model, width = _case(block_type)
    episodes = _episodes(width)
    reference = Simulator(model, engine=ENGINE_REFERENCE)
    slots = Simulator(model, engine=ENGINE_SLOTS)
    want = []
    got = []
    for stimulus in episodes:
        reference.reset()
        want.append(_fingerprint(reference.run(STEPS, stimulus)))
        slots.reset()
        got.append(_fingerprint(slots.run(STEPS, stimulus)))
    assert got == want
    batched = Simulator(model, engine=ENGINE_BATCH).run_many(STEPS, episodes)
    assert [_fingerprint(result) for result in batched] == want


@pytest.mark.codegen
@pytest.mark.skipif(
    not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")),
    reason="no C compiler on PATH",
)
@pytest.mark.parametrize(
    "block_type", sorted(t for t, k in kernels.KERNELS.items() if k.code)
)
def test_generated_c_agrees_on_edge_values(block_type):
    from repro.codegen import differential_check

    model, width = _case(block_type)
    report = differential_check(model, _episodes(width), STEPS)
    assert report.ok, [str(m) for m in report.mismatches]


@pytest.mark.parametrize("block_type", sorted(kernels.KERNELS))
def test_entry_statements_are_well_formed(block_type):
    """Non-feedthrough entries read no operand in the output phase, and
    every name a statement uses is an operand, output, the state, the
    temporary or a declared parameter."""
    for name, inputs, outputs, params in _variants(block_type):
        block = Block("k", block_type, inputs=inputs, outputs=outputs,
                      parameters=params)
        found = kernels.try_instance(block)
        if found is None:
            continue
        kernel = found.kernel
        declared = {name for name, _ in kernel.params} | {"s", "t"}
        feedthrough = semantics_for(block_type).feedthrough
        for phase in (kernel.output, kernel.update):
            for text in phase:
                for target, value in kernels.parse(text):
                    for ident in kernels.names_in(value) + [target]:
                        if ident[0] in "xy" and ident[1:].isdigit():
                            continue
                        assert ident in declared, (text, ident)
                    reads = kernels.names_in(value)
                    if phase is kernel.output and not feedthrough:
                        assert not any(n[0] == "x" for n in reads), text
        assert len(found.values) == len(kernel.params)
