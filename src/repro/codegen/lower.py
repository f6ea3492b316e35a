"""The lowering both emitters share: a schedule as statement lines.

:func:`lower` walks a :class:`~repro.codegen.schedule.StaticSchedule` once
per language — ring-buffer pops, each block's statements in simulator
order, pushes, then the deferred state updates, per processing element —
and returns the lines and symbols the C and Java emitters arrange into
their file layouts.  Block statements are rendered from the kernel table
(:mod:`repro.simulink.kernels`), the very entries the slot and batch
engines compile, so a block's arithmetic is written once for every
target; only literals, intrinsics and declaration syntax vary, through
a :class:`Dialect`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..simulink import kernels
from ..simulink.kernels import NOT, SELECT, UNARY, Printed, wrap
from ..simulink.model import Block
from .identifiers import SymbolTable
from .schedule import BufferSpec, CodegenError, StaticSchedule, ValueRef


@dataclass(frozen=True, eq=False)
class Dialect(kernels.Syntax):
    """The language-specific slice of block emission: literals,
    intrinsics and declarations, and the C-family spelling of the kernel
    macros (``?:``, ``!``)."""

    double: Callable[[float], str]
    abs_fn: str
    sin_fn: str
    #: ``decl_double(name, comment)`` / ``decl_flag`` for state variables.
    decl_double: Callable[[str, str], str]
    decl_flag: Callable[[str, str], str]
    flag_true: str
    flag_false: str

    def constant(self, value: object) -> str:
        if isinstance(value, bool):
            return self.flag_true if value else self.flag_false
        return repr(value)

    def call(self, function: str, args: Sequence[str]) -> str:
        name = {"abs": self.abs_fn, "sin": self.sin_fn}[function]
        return f"{name}({', '.join(args)})"

    def select(self, cond: Printed, a: Printed, b: Printed) -> Printed:
        text = f"{wrap(cond, NOT)} ? {wrap(a, NOT)} : {wrap(b, SELECT)}"
        return text, SELECT

    def negate(self, operand: Printed) -> Printed:
        return f"!{wrap(operand, UNARY)}", UNARY


class Namer:
    """Stable symbol assignment for one translation unit."""

    def __init__(self, schedule: StaticSchedule) -> None:
        self._prefix = schedule.name + "/"
        self._signals = SymbolTable("v_")
        self._states = SymbolTable("s_")
        self._stims = SymbolTable("in_")
        self._pes = SymbolTable("pe_")
        self._paths: Dict[Block, str] = {}

    def _rel(self, block: Block) -> str:
        path = self._paths.get(block)
        if path is None:
            path = block.path
            if path.startswith(self._prefix):
                path = path[len(self._prefix):]
            self._paths[block] = path
        return path

    def signal(self, block: Block, port: int = 1) -> str:
        """The variable holding output ``port`` of ``block``."""
        # Extra output ports get their own table entries so a mangled
        # block name can never collide with a port-suffixed sibling.
        key = self._rel(block) if port == 1 else f"{self._rel(block)}.out{port}"
        return self._signals.symbol(key)

    def state(self, block: Block) -> str:
        """The state variable of ``block``."""
        return self._states.symbol(self._rel(block))

    def stim(self, block: Block) -> str:
        """The stimulus latch of root Inport ``block``."""
        return self._stims.symbol(block.name)

    def pe(self, name: str) -> str:
        """The step function of processing element ``name``."""
        return self._pes.symbol(name) + "_step"


@lru_cache(maxsize=None)
def _templates(
    kernel: kernels.Kernel, dialect: Dialect
) -> Tuple[Tuple[str, ...], Tuple[str, ...], str, bool, Tuple[str, ...]]:
    """A kernel's statements as ``str.format`` templates over ``{x0}``,
    ``{y0}``, ``{s}`` and its parameters, rendered once per kernel and
    dialect: (output lines, update lines, state init, state is a flag,
    parameter names).

    A statement whose macro needs the temporary ``t`` gets its own braced
    scope; a flag that selects its own next value (``s = select(s, not
    P, Q)``) prints as the latch ``if (s) { if (P) s = false; } else if
    (Q) s = true;``.
    """
    def name(ident: str) -> str:
        return "t" if ident == "t" else "{" + ident + "}"

    def expr(node: ast.expr) -> str:
        return kernels.render(node, name, dialect)[0]

    def lines(statements: Sequence[str]) -> Tuple[str, ...]:
        out: List[str] = []
        for text in statements:
            assigns = kernels.parse(text)
            if len(assigns) > 1:
                out.append("    {{")
                for target, value in assigns:
                    decl = "double " if target == "t" else ""
                    out.append(f"        {decl}{name(target)} = {expr(value)};")
                out.append("    }}")
                continue
            ((target, value),) = assigns
            latch = _latch(target, value)
            if latch is None:
                out.append(f"    {name(target)} = {expr(value)};")
                continue
            clear, set_ = latch
            s = name(target)
            out += [
                "    if (" + s + ") {{",
                f"        if ({expr(clear)}) {s} = {dialect.flag_false};",
                "    }} else if (" + f"{expr(set_)}) {s} = {dialect.flag_true};",
            ]
        return tuple(out)

    init = ""
    if kernel.state is not None:
        init = f"    {{s}} = {expr(kernels.state_expr(kernel))};"
    flag = kernel.state in ("False", "True")
    keys = tuple(param for param, _ in kernel.params)
    return lines(kernel.output), lines(kernel.update), init, flag, keys


def _latch(
    target: str, value: ast.expr
) -> Optional[Tuple[ast.expr, ast.expr]]:
    """``(P, Q)`` when ``value`` is ``select(target, not P, Q)``."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "select":
        cond, when_set, when_clear = value.args
        if getattr(cond, "id", "") == target and isinstance(
            when_set, ast.UnaryOp
        ):
            return when_set.operand, when_clear
    return None


def _pop_stmt(spec: BufferSpec) -> str:
    n = spec.index
    return (
        f"    rb{n}_pop = rb{n}[rb{n}_head]; "
        f"rb{n}_head = (rb{n}_head + 1) % {spec.capacity};"
    )


def _push_stmt(spec: BufferSpec, expr: str) -> str:
    n = spec.index
    return (
        f"    rb{n}[rb{n}_tail] = {expr}; "
        f"rb{n}_tail = (rb{n}_tail + 1) % {spec.capacity};"
    )


@dataclass
class Lowered:
    """A schedule as lines, ready for one language's file layout."""

    #: Stimulus latches, then every block output, in declaration order.
    signals: List[str] = field(default_factory=list)
    #: Dialect-formatted state declarations.
    states: List[str] = field(default_factory=list)
    #: ``(function name, body lines)`` per processing element.
    pes: List[Tuple[str, List[str]]] = field(default_factory=list)
    #: Body of ``init``: state resets, then ring-buffer reloads.
    inits: List[str] = field(default_factory=list)
    #: Body of one ``step`` period (inputs, pushes, PE calls, outputs).
    step: List[str] = field(default_factory=list)
    #: Declaration comment of each ring buffer, in buffer order.
    buffer_notes: List[str] = field(default_factory=list)
    #: Header-comment renderings of the PE firing order and the SDF
    #: repetition vector.
    order: str = "<empty>"
    repetition: str = "<empty>"


def lower(schedule: StaticSchedule, dialect: Dialect) -> Lowered:
    """Render every statement of ``schedule`` through ``dialect``."""
    names = Namer(schedule)
    out = Lowered()
    if schedule.firing_order:
        out.order = " -> ".join(schedule.firing_order)
    counts = sorted(schedule.analysis.repetition.items())
    if counts:
        out.repetition = ", ".join(f"{actor}:{n}" for actor, n in counts)
    produced = {
        step.block: step.kernel.kernel.produced
        for pe in schedule.pes
        for step in pe.blocks
    }

    def ref(value: ValueRef) -> str:
        if value.kind == "signal":
            assert value.block is not None
            if value.port > max(1, produced[value.block]):
                raise CodegenError(
                    f"block output {value.block.path!r}.out{value.port} is "
                    f"consumed but never produced"
                )
            return names.signal(value.block, value.port)
        if value.kind == "stim":
            assert value.block is not None
            return names.stim(value.block)
        return f"rb{value.buffer_index}_pop"

    out.signals = [names.stim(inport) for inport in schedule.inports]
    for pe in schedule.pes:
        body = [_pop_stmt(schedule.buffers[index]) for index in pe.pops]
        updates: List[str] = []
        for step in pe.blocks:
            block = step.block
            kernel, values = step.kernel
            args = [ref(value) for value in step.inputs]
            # Every block reserves its first signal name, sinks included,
            # so symbol disambiguation never depends on which are sinks.
            fields = {"y0": names.signal(block)}
            if not (kernel.output or kernel.update):
                body.append(
                    f"    /* {block.block_type} {block.path}: "
                    f"no value semantics */"
                )
                continue
            output, update, init, flag, keys = _templates(kernel, dialect)
            fields.update(zip(keys, map(dialect.double, values)))
            fields.update((f"x{k}", arg) for k, arg in enumerate(args))
            for port in range(2, kernel.produced + 1):
                fields[f"y{port - 1}"] = names.signal(block, port)
            if kernel.state is not None:
                fields["s"] = names.state(block)
                declare = dialect.decl_flag if flag else dialect.decl_double
                note = f"{kernel.note} {block.path}"
                out.states.append(declare(fields["s"], note))
                out.inits.append(init.format_map(fields))
            body += [line.format_map(fields) for line in output]
            updates += [line.format_map(fields) for line in update]
            for port in range(1, kernel.produced + 1):
                out.signals.append(names.signal(block, port))
        for index in pe.pushes:
            spec = schedule.buffers[index]
            body.append(_push_stmt(spec, ref(spec.source)))
        body += updates
        if not body:
            body.append("    /* no blocks scheduled on this PE */")
        out.pes.append((names.pe(pe.name), body))

    for spec in schedule.buffers:
        n = spec.index
        tokens = f", {spec.delay} initial token(s)" if spec.delay else ""
        out.buffer_notes.append(f"/* {spec.channel.path}{tokens} */")
        for position, token in enumerate(spec.initial):
            out.inits.append(f"    rb{n}[{position}] = {dialect.double(token)};")
        out.inits.append(
            f"    rb{n}_head = 0; rb{n}_tail = {spec.delay}; "
            f"rb{n}_pop = 0.0;"
        )

    for position, inport in enumerate(schedule.inports):
        out.step.append(f"    {names.stim(inport)} = inputs[{position}];")
    for index in schedule.env_pushes:
        spec = schedule.buffers[index]
        out.step.append(_push_stmt(spec, ref(spec.source)))
    for pe_name in schedule.firing_order:
        out.step.append(f"    {names.pe(pe_name)}();")
    for index in schedule.env_pops:
        out.step.append(_pop_stmt(schedule.buffers[index]))
    for position, value in enumerate(schedule.outport_refs):
        expr = ref(value) if value is not None else "0.0"
        out.step.append(f"    outputs[{position}] = {expr};")
    return out
