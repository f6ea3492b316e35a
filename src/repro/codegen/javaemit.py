"""Deterministic Java emission of a :class:`~repro.codegen.schedule.StaticSchedule`.

This is the scheduled counterpart of :mod:`repro.backends.java_backend`:
where the multithreaded backend emits one ``Runnable`` per UML thread and
``ArrayBlockingQueue`` channels, this emitter lowers the *same* CAAM to a
single allocation-free class replaying the SDF analyzer's PASS — fixed
``double[]`` ring buffers, one private method per processing element, one
``step()`` per schedule period.

The statements come from the same lowering as the C emitter
(:func:`repro.codegen.lower.lower`), through :data:`JAVA_DIALECT`: Java
accepts C99 hexadecimal floating literals (``0x1.8p+1``), underscore
identifiers, ``{ ... }`` statement blocks and the ``?:`` operator, so the
two backends render one kernel-table entry per block and cannot drift
apart semantically; this module owns only the class layout.  Java's arithmetic is
strictfp-equivalent for ``double`` on all supported JVMs (JEP 306), so
the streams match the C program and the Python simulator bit for bit.

The generated class also carries a package-private ``main`` speaking the
same hexfloat stdin/stdout protocol as the C harness, so the differential
check can pin a JVM run when one is available.
"""

from __future__ import annotations

from math import isinf, isnan
from typing import Dict, List

from .identifiers import camel, sanitize
from .lower import Dialect, lower
from .schedule import StaticSchedule


def java_double(value: float) -> str:
    """Render ``value`` as an exact Java double constant."""
    value = float(value)
    if isnan(value):
        return "Double.NaN"
    if isinf(value):
        return (
            "Double.POSITIVE_INFINITY"
            if value > 0
            else "Double.NEGATIVE_INFINITY"
        )
    # float.hex() text is valid Java hexadecimal-floating-point syntax.
    return value.hex()


JAVA_DIALECT = Dialect(
    double=java_double,
    abs_fn="Math.abs",
    sin_fn="Math.sin",
    decl_double=lambda name, comment: (
        f"    private double {name};  /* {comment} */"
    ),
    decl_flag=lambda name, comment: (
        f"    private boolean {name};  /* {comment} */"
    ),
    flag_true="true",
    flag_false="false",
)


def class_name_for(schedule: StaticSchedule) -> str:
    """The Java type name emitted for ``schedule`` (``Crane`` for crane)."""
    return camel(sanitize(schedule.name)) + "Schedule"


def generate_java(schedule: StaticSchedule) -> Dict[str, str]:
    """Emit ``{"<Class>.java": source}`` for ``schedule``."""
    cls = class_name_for(schedule)
    lowered = lower(schedule, JAVA_DIALECT)
    signals = [f"    private double {symbol};" for symbol in lowered.signals]
    methods = [
        f"    private void {pe}() {{\n"
        + "\n".join("    " + line for line in body)
        + "\n    }"
        for pe, body in lowered.pes
    ]
    buffer_decls: List[str] = []
    for spec, note in zip(schedule.buffers, lowered.buffer_notes):
        n = spec.index
        buffer_decls.append(
            f"    private final double[] rb{n} = "
            f"new double[{spec.capacity}];  {note}"
        )
        buffer_decls.append(
            f"    private int rb{n}_head; private int rb{n}_tail; "
            f"private double rb{n}_pop;"
        )

    lines: List[str] = [
        f"/* {cls}.java -- static-schedule realization of CAAM "
        f"{schedule.name!r}.",
        " * Generated by repro.codegen; do not edit.",
        " *",
        " * Periodic admissible sequential schedule (one call of step()",
        f" * is one period): {lowered.order}",
        f" * Repetition vector: {lowered.repetition}",
        " * Allocation-free after construction; buffers are fixed arrays",
        " * sized from the SDF analyzer's PASS bounds.",
        " */",
        f"public final class {cls} {{",
        f"    public static final int N_INPUTS = "
        f"{len(schedule.inports)};",
        f"    public static final int N_OUTPUTS = "
        f"{len(schedule.outports)};",
        "",
        "    /* -- stimulus latches and block output signals -- */",
    ]
    lines.extend(signals or ["    /* (none) */"])
    lines.append("")
    lines.append("    /* -- block state -- */")
    lines.extend(lowered.states or ["    /* (stateless) */"])
    lines.append("")
    lines.append("    /* -- channel ring buffers -- */")
    lines.extend(buffer_decls or ["    /* (no channels) */"])
    lines.append("")
    lines.append(f"    public {cls}() {{")
    lines.append("        init();")
    lines.append("    }")
    lines.append("")
    lines.append(
        "    /** Reset states and reload channel initial tokens. */"
    )
    lines.append("    public void init() {")
    lines.extend(
        ["    " + line for line in lowered.inits]
        or ["        /* nothing to reset */"]
    )
    lines.append("    }")
    lines.append("")
    lines.extend(methods)
    lines.append("")
    lines.append(
        "    /** Execute one schedule period (one firing of every PE). */"
    )
    lines.append("    public void step(double[] inputs, double[] outputs) {")
    lines.extend(["    " + line for line in lowered.step] or ["        ;"])
    lines.append("    }")
    lines.append("")
    lines.extend(_java_main(cls))
    lines.append("}")
    return {f"{cls}.java": "\n".join(lines) + "\n"}


def _java_main(cls: str) -> List[str]:
    """Hexfloat stdin/stdout driver matching the C differential harness."""
    return [
        "    /* Differential harness: reads 'episodes steps' then one",
        "     * hexfloat stimulus line per step; writes one hexfloat",
        "     * output line per step (same protocol as the C driver). */",
        "    public static void main(String[] argv) throws Exception {",
        "        java.io.BufferedReader in = new java.io.BufferedReader(",
        "            new java.io.InputStreamReader(System.in));",
        "        StringBuilder out = new StringBuilder();",
        '        String[] head = in.readLine().trim().split("\\\\s+");',
        "        int episodes = Integer.parseInt(head[0]);",
        "        int steps = Integer.parseInt(head[1]);",
        "        double[] inputs = new double[N_INPUTS];",
        "        double[] outputs = new double[N_OUTPUTS];",
        f"        {cls} schedule = new {cls}();",
        "        for (int e = 0; e < episodes; ++e) {",
        "            schedule.init();",
        "            for (int s = 0; s < steps; ++s) {",
        "                if (N_INPUTS > 0) {",
        '                    String[] row = in.readLine().trim()'
        '.split("\\\\s+");',
        "                    for (int i = 0; i < N_INPUTS; ++i)",
        "                        inputs[i] = Double.parseDouble(row[i]);",
        "                } else { in.readLine(); }",
        "                schedule.step(inputs, outputs);",
        "                for (int i = 0; i < N_OUTPUTS; ++i) {",
        "                    if (i > 0) out.append(' ');",
        "                    out.append(Double.toHexString(outputs[i]));",
        "                }",
        "                out.append('\\n');",
        "            }",
        "        }",
        "        System.out.print(out);",
        "    }",
    ]
