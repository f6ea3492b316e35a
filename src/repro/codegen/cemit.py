"""Deterministic C99 emission of a :class:`~repro.codegen.schedule.StaticSchedule`.

The generated translation unit is self-contained and allocation-free:
static signal/state variables, static ring buffers preloaded by
``<model>_init()``, one ``static void <pe>_step(void)`` per processing
element, and one ``<model>_step(inputs, outputs)`` that replays the
analyzer's PASS firing order.  No malloc, no scheduler, no threads.

The statements come from the shared lowering (:mod:`repro.codegen.lower`),
which renders each block's entry of the kernel table
(:mod:`repro.simulink.kernels`); this module owns only the C file layout
and :data:`C_DIALECT`.

**Bit-identity contract.**  The differential harness pins the generated
program's output streams bit-for-bit against the slot-compiled simulator,
which runs the same table entries:

- all numeric literals are C99 hexadecimal floating constants
  (``float.hex()``), which round-trip ``double`` values exactly;
- ``Sum`` accumulates left-to-right from a leading ``0.0`` (including
  the sign-of-zero consequence: ``0.0 + -0.0`` is ``+0.0``);
- ``Saturation`` is ``t = x >= lo ? x : lo; y = t <= hi ? t : hi`` in
  every engine, so NaN saturates to the lower limit;
- compilation must disable FP contraction (``-ffp-contract=off``) so no
  multiply-add fuses — :data:`repro.codegen.differential.CFLAGS` is the
  reference flag set.

The optional ``REPRO_CODEGEN_MAIN`` guard compiles in a stdin/stdout
harness speaking hexfloat (``%la`` / ``%a``) so the differential check
never loses a bit to decimal formatting.
"""

from __future__ import annotations

from math import isinf, isnan
from typing import Dict, List

from .identifiers import sanitize
from .lower import Dialect, lower
from .schedule import StaticSchedule


def c_double(value: float) -> str:
    """Render ``value`` as an exact C99 double constant."""
    value = float(value)
    if isnan(value):
        return "NAN"
    if isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    return value.hex()


C_DIALECT = Dialect(
    double=c_double,
    abs_fn="fabs",
    sin_fn="sin",
    decl_double=lambda name, comment: f"static double {name};  /* {comment} */",
    decl_flag=lambda name, comment: f"static int {name};  /* {comment} */",
    flag_true="1",
    flag_false="0",
)


def generate_c(schedule: StaticSchedule) -> Dict[str, str]:
    """Emit ``{"<model>.c": ..., "<model>.h": ...}`` for ``schedule``."""
    name = sanitize(schedule.name).lower()
    macro = name.upper()
    lowered = lower(schedule, C_DIALECT)
    signals = [f"static double {symbol};" for symbol in lowered.signals]
    pe_functions = [
        f"static void {pe}(void) {{\n" + "\n".join(body) + "\n}"
        for pe, body in lowered.pes
    ]
    buffer_decls: List[str] = []
    for spec, note in zip(schedule.buffers, lowered.buffer_notes):
        n = spec.index
        buffer_decls.append(
            f"static double rb{n}[{spec.capacity}]; "
            f"static int rb{n}_head; static int rb{n}_tail; "
            f"static double rb{n}_pop;  {note}"
        )
    step_body = (
        ([] if schedule.inports else ["    (void)inputs;"])
        + lowered.step
        + ([] if schedule.outports else ["    (void)outputs;"])
    )

    header_name = f"{name}.h"
    lines: List[str] = [
        f"/* {name}.c -- static-schedule realization of CAAM "
        f"{schedule.name!r}.",
        " * Generated by repro.codegen; do not edit.",
        " *",
        " * Periodic admissible sequential schedule (one call of "
        f"{name}_step()",
        f" * is one period): {lowered.order}",
        f" * Repetition vector: {lowered.repetition}",
        " * No malloc, no runtime scheduler; buffers are static rings",
        " * sized from the SDF analyzer's PASS bounds.",
        " *",
        " * Bit-identity: compile with FP contraction disabled",
        " * (e.g. cc -O2 -ffp-contract=off) to match the reference",
        " * simulator stream for stream.",
        " */",
        "#include <math.h>",
        f'#include "{header_name}"',
        "",
        "/* -- stimulus latches and block output signals -- */",
    ]
    lines.extend(signals or ["/* (none) */"])
    lines.append("")
    lines.append("/* -- block state -- */")
    lines.extend(lowered.states or ["/* (stateless) */"])
    lines.append("")
    lines.append("/* -- channel ring buffers -- */")
    lines.extend(buffer_decls or ["/* (no channels) */"])
    lines.append("")
    lines.append(f"void {name}_init(void) {{")
    lines.extend(lowered.inits or ["    /* nothing to reset */"])
    lines.append("}")
    lines.append("")
    lines.extend(pe_functions)
    lines.append("")
    lines.append(
        f"void {name}_step(const double *inputs, double *outputs) {{"
    )
    lines.extend(step_body)
    lines.append("}")
    lines.append("")
    lines.extend(_main_harness(name, macro))

    header = "\n".join(
        [
            f"/* {header_name} -- interface of the generated static "
            f"schedule for {schedule.name!r}.",
            " * Generated by repro.codegen; do not edit.",
            " */",
            f"#ifndef REPRO_{macro}_H",
            f"#define REPRO_{macro}_H",
            "",
            f"#define {macro}_N_INPUTS {len(schedule.inports)}",
            f"#define {macro}_N_OUTPUTS {len(schedule.outports)}",
            "",
            "/* Reset states and reload channel initial tokens. */",
            f"void {name}_init(void);",
            "/* Execute one schedule period (one firing of every PE). */",
            f"void {name}_step(const double *inputs, double *outputs);",
            "",
            f"#endif /* REPRO_{macro}_H */",
        ]
    ) + "\n"
    return {
        f"{name}.c": "\n".join(lines) + "\n",
        header_name: header,
    }


def _main_harness(name: str, macro: str) -> List[str]:
    """The ``REPRO_CODEGEN_MAIN`` stdin/stdout differential driver."""
    return [
        "#ifdef REPRO_CODEGEN_MAIN",
        "/* Differential harness: reads 'episodes steps' then one line of",
        " * hexfloat stimulus samples per step; writes one line of hexfloat",
        " * outputs per step.  %a round-trips doubles exactly. */",
        "#include <stdio.h>",
        "int main(void) {",
        "    int episodes, steps;",
        '    if (scanf("%d %d", &episodes, &steps) != 2) return 2;',
        f"    double inputs[{macro}_N_INPUTS > 0 ? {macro}_N_INPUTS : 1];",
        f"    double outputs[{macro}_N_OUTPUTS > 0 ? {macro}_N_OUTPUTS : 1];",
        "    for (int e = 0; e < episodes; ++e) {",
        f"        {name}_init();",
        "        for (int s = 0; s < steps; ++s) {",
        f"            for (int i = 0; i < {macro}_N_INPUTS; ++i)",
        '                if (scanf("%la", &inputs[i]) != 1) return 2;',
        f"            {name}_step(inputs, outputs);",
        f"            for (int i = 0; i < {macro}_N_OUTPUTS; ++i)",
        '                printf(i ? " %a" : "%a", outputs[i]);',
        '            printf("\\n");',
        "        }",
        "    }",
        "    return 0;",
        "}",
        "#endif /* REPRO_CODEGEN_MAIN */",
    ]
