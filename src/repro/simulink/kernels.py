"""Block semantics written once: the kernel table.

:data:`KERNELS` holds one :class:`Kernel` per block type the fast engines
and the static-schedule code generators run.  Its statements are
Python-syntax expression text over the operands ``x0..xn``, the outputs
``y0..yk``, the state ``s`` and the block's parameters (named as in the
``.mdl``, each read as ``float(block.parameters.get(name, default))``),
using float and bool literals, ``+ - *``, comparisons, ``abs``, ``sin``
and the macros ``select(c, a, b)`` (``c ? a : b``), ``not c`` and
``sat(x, lo, hi)``.  ``y = sat(x, lo, hi)`` is the statement pair
``t = x >= lo ? x : lo; y = t <= hi ? t : hi``, so NaN saturates to
``lo`` and a signed-zero tie keeps ``x``.  ``output`` statements run in
the output phase (a non-feedthrough block's must not read operands),
``update`` statements once every signal of the step is final.

Three renderers expand an entry: :func:`python_kernel` (the slot
closures of :class:`~repro.simulink.simulator.Simulator`),
:func:`numpy_kernel` (the column ops of
:class:`~repro.simulink.batch.BatchSimulator`) and :func:`render` (C and
Java statements, through :mod:`repro.codegen.lower`).  Sources are
generated once per kernel, on first use.  The hand-written ``step``
functions of :mod:`repro.simulink.blocks` stay the oracle every rendering
is differential-tested against, and run every block the table does not
cover.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional
from typing import Sequence, Set, Tuple

from .model import Block, SimulinkError

Statements = Tuple[str, ...]
Params = Tuple[Tuple[str, float], ...]


class Unsupported(SimulinkError):
    """A block's parameters fall outside what its table entry expresses."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """One block type's semantics (see the module docstring).

    Kernels hash by identity: renderings are cached per kernel, and the
    per-shape variants ``expand`` builds are cached too.
    """

    output: Statements = ()
    update: Statements = ()
    params: Params = ()
    #: Initial-state expression (``None`` = stateless).
    state: Optional[str] = None
    #: What the state is, for comments in generated sources.
    note: str = ""
    #: Output samples written per step.
    produced: int = 1
    #: Which renderers take the entry; the others use the reference step.
    slots: bool = True
    batch: bool = True
    code: bool = True
    #: Per-block statements for parameter- or arity-dependent types.
    expand: Optional[Callable[["Kernel", Block], "Instance"]] = None


class Instance(NamedTuple):
    """A kernel resolved for one block: statements plus parameter values."""

    kernel: Kernel
    values: Tuple[float, ...]


def _bind(kernel: Kernel, block: Block) -> Instance:
    given: Mapping[str, Any] = block.parameters
    values = tuple(float(given.get(n, d)) for n, d in kernel.params)
    return Instance(kernel, values)


@lru_cache(maxsize=None)
def _variant(
    entry: Kernel, output: Statements, params: Params = (), produced: int = 1
) -> Kernel:
    return replace(entry, output=output, params=params, produced=produced)


def _sum(entry: Kernel, block: Block) -> Instance:
    count = block.num_inputs
    signs = str(block.parameters.get("Inputs", "+" * count)).replace("|", "")
    if len(signs) != count or set(signs) - {"+", "-"}:
        raise Unsupported(
            f"Sum block {block.path!r}: sign string {signs!r} does not "
            f"match its {count} input(s)"
        )
    terms = "".join(f" {sign} x{k}" for k, sign in enumerate(signs))
    return _bind(_variant(entry, (f"y0 = 0.0{terms}",)), block)


def _product(entry: Kernel, block: Block) -> Instance:
    factors = " * ".join(f"x{k}" for k in range(block.num_inputs))
    return _bind(_variant(entry, (f"y0 = {factors or '1.0'}",)), block)


def _sfunction(entry: Kernel, block: Block) -> Instance:
    """A callback-less S-function is the sum-of-inputs placeholder on
    every output port; a stateless callback declaring ``codegen_spec =
    ("affine", a, b)`` computes exactly ``a * x + b`` and ``("constant",
    c)`` exactly ``c``.  Anything else is opaque Python."""
    callback = block.parameters.get("callback")
    inputs = block.num_inputs
    if callback is None:
        produced = max(1, block.num_outputs)
        terms = "".join(f" + x{k}" for k in range(inputs))
        copies = tuple(f"y{k} = y0" for k in range(1, produced))
        output = (f"y0 = 0.0{terms}",) + copies
        return Instance(_variant(entry, output, (), produced), ())
    if block.parameters.get("Stateful"):
        raise Unsupported(
            f"S-Function {block.path!r} has an opaque stateful callback; "
            f"static codegen needs declarative behaviour"
        )
    spec = getattr(callback, "codegen_spec", None)
    kind = spec[0] if isinstance(spec, tuple) and spec else None
    if kind == "affine" and len(spec) == 3 and inputs == 1:
        params = (("Scale", 0.0), ("Offset", 0.0))
        kernel = _variant(entry, ("y0 = Scale * x0 + Offset",), params)
        return Instance(kernel, (float(spec[1]), float(spec[2])))
    if kind == "constant" and len(spec) == 2 and inputs == 0:
        kernel = _variant(entry, ("y0 = Value",), (("Value", 0.0),))
        return Instance(kernel, (float(spec[1]),))
    raise Unsupported(
        f"S-Function {block.path!r} carries a Python callback without a "
        f"declarative codegen_spec; static codegen cannot translate opaque "
        f"callables"
    )


#: The table: one entry per block type.
KERNELS: Dict[str, Kernel] = {
    "Constant": Kernel(output=("y0 = Value",), params=(("Value", 0.0),)),
    "Gain": Kernel(output=("y0 = Gain * x0",), params=(("Gain", 1.0),)),
    "Sum": Kernel(expand=_sum),
    "Product": Kernel(expand=_product),
    "Saturation": Kernel(
        output=("y0 = sat(x0, LowerLimit, UpperLimit)",),
        params=(("LowerLimit", -1.0), ("UpperLimit", 1.0)),
    ),
    "Abs": Kernel(output=("y0 = abs(x0)",)),
    # Channels transport, they do not buffer; codegen realizes them as
    # ring buffers instead of block statements.
    "CommChannel": Kernel(output=("y0 = x0",), code=False),
    "UnitDelay": Kernel(
        output=("y0 = s",),
        update=("s = x0",),
        params=(("InitialCondition", 0.0),),
        state="InitialCondition",
        note="UnitDelay",
    ),
    "Relay": Kernel(
        output=(
            "s = select(s, not x0 <= OffSwitchValue, x0 >= OnSwitchValue)",
            "y0 = select(s, OnOutputValue, OffOutputValue)",
        ),
        params=(
            ("OnSwitchValue", 0.5),
            ("OffSwitchValue", -0.5),
            ("OnOutputValue", 1.0),
            ("OffOutputValue", 0.0),
        ),
        state="False",
        note="Relay engaged",
    ),
    # Sources with a step counter stay on the reference step in the
    # Python engines (NumPy's sin need not round like libm's).
    "Sin": Kernel(
        output=(
            "y0 = Amplitude * sin(Frequency * s + Phase)",
            "s = s + 1.0",
        ),
        params=(("Amplitude", 1.0), ("Frequency", 1.0), ("Phase", 0.0)),
        state="0.0",
        note="Sin step counter",
        slots=False,
        batch=False,
    ),
    "Step": Kernel(
        output=("y0 = select(s >= Time, After, Before)", "s = s + 1.0"),
        params=(("Time", 1.0), ("Before", 0.0), ("After", 1.0)),
        state="0.0",
        note="Step counter",
        slots=False,
        batch=False,
    ),
    # The scalar engine keeps S-functions on the reference step.
    "S-Function": Kernel(expand=_sfunction, slots=False),
    # Sinks: no value semantics.  Scope recording is engine code.
    "Scope": Kernel(produced=0),
    "Terminator": Kernel(produced=0),
    "Outport": Kernel(code=False),
}


def instance(block: Block) -> Instance:
    """Resolve ``block`` against its entry (raises :class:`Unsupported`)."""
    entry = KERNELS.get(block.block_type)
    if entry is None:
        raise Unsupported(f"no kernel for block type {block.block_type!r}")
    if entry.expand is not None:
        return entry.expand(entry, block)
    return _bind(entry, block)


def try_instance(block: Block) -> Optional[Instance]:
    """:func:`instance`, or ``None`` when the block falls outside it."""
    try:
        return instance(block)
    except Unsupported:
        return None


# -- parsing ------------------------------------------------------------------

Assign = Tuple[str, ast.expr]


@lru_cache(maxsize=None)
def parse(statement: str) -> Tuple[Assign, ...]:
    """One statement as ``(target, expression)`` assignments.

    ``y = sat(x, lo, hi)`` expands to its two comparisons through the
    temporary ``t``; every other statement is one assignment.
    """
    (node,) = ast.parse(statement).body
    assert isinstance(node, ast.Assign)
    (target,) = node.targets
    assert isinstance(target, ast.Name)
    value = node.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "sat":
        x, lo, hi = (ast.unparse(arg) for arg in value.args)
        return (
            _assign(f"t = select({x} >= {lo}, {x}, {lo})"),
            _assign(f"{target.id} = select(t <= {hi}, t, {hi})"),
        )
    return ((target.id, value),)


def _assign(text: str) -> Assign:
    (pair,) = parse(text)
    return pair


def state_expr(kernel: Kernel) -> ast.expr:
    """The parsed initial-state expression of a stateful kernel."""
    assert kernel.state is not None
    return _assign(f"s = {kernel.state}")[1]


def names_in(node: ast.expr) -> List[str]:
    """Every variable ``node`` reads, with repeats (function names aside)."""
    nodes = list(ast.walk(node))
    calls = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    return [
        n.id for n in nodes if isinstance(n, ast.Name) and id(n) not in calls
    ]


# -- expression printing --------------------------------------------------------

#: Binding strength of each printed form (higher binds tighter).
SELECT, NOT, COMPARE, ADD, MUL, UNARY, ATOM = range(7)
_BINOPS = {ast.Add: ("+", ADD), ast.Sub: ("-", ADD), ast.Mult: ("*", MUL)}
_COMPARES = {ast.GtE: ">=", ast.LtE: "<=", ast.Gt: ">", ast.Lt: "<"}

Printed = Tuple[str, int]


def wrap(printed: Printed, floor: int, strict: bool = False) -> str:
    """Parenthesize ``printed`` when it binds looser than ``floor``."""
    text, strength = printed
    if strength < floor or (strict and strength == floor):
        return f"({text})"
    return text


class Syntax:
    """How a target language spells the non-arithmetic forms (Python)."""

    def constant(self, value: object) -> str:
        """A literal."""
        return repr(value)

    def call(self, function: str, args: Sequence[str]) -> str:
        """``abs``/``sin`` applied to printed arguments."""
        return f"{function}({', '.join(args)})"

    def select(self, cond: Printed, a: Printed, b: Printed) -> Printed:
        """``select(cond, a, b)``: ``a`` where ``cond`` holds, else ``b``."""
        return f"{wrap(a, NOT)} if {wrap(cond, NOT)} else {b[0]}", SELECT

    def negate(self, operand: Printed) -> Printed:
        """``not operand``."""
        return f"not {wrap(operand, NOT)}", NOT


class NumpySyntax(Syntax):
    """Column arithmetic: operators broadcast, macros become ufuncs."""

    FUNCTIONS = {"abs": "absolute", "sin": "sin"}

    def call(self, function: str, args: Sequence[str]) -> str:
        return super().call(self.FUNCTIONS[function], args)

    def select(self, cond: Printed, a: Printed, b: Printed) -> Printed:
        return f"where({cond[0]}, {a[0]}, {b[0]})", ATOM

    def negate(self, operand: Printed) -> Printed:
        return f"logical_not({operand[0]})", ATOM


def render(node: ast.expr, name: Callable[[str], str], syntax: Syntax) -> Printed:
    """Print ``node`` with ``name`` resolving every identifier."""
    if isinstance(node, ast.Name):
        return name(node.id), ATOM
    if isinstance(node, ast.Constant):
        return syntax.constant(node.value), ATOM
    if isinstance(node, ast.BinOp):
        op, strength = _BINOPS[type(node.op)]
        left = wrap(render(node.left, name, syntax), strength)
        right = wrap(render(node.right, name, syntax), strength, strict=True)
        return f"{left} {op} {right}", strength
    if isinstance(node, ast.Compare):
        (op,), (right_node,) = node.ops, node.comparators
        left = wrap(render(node.left, name, syntax), COMPARE, strict=True)
        right = wrap(render(right_node, name, syntax), COMPARE, strict=True)
        return f"{left} {_COMPARES[type(op)]} {right}", COMPARE
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return syntax.negate(render(node.operand, name, syntax))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        args = [render(arg, name, syntax) for arg in node.args]
        if node.func.id == "select":
            return syntax.select(*args)
        return syntax.call(node.func.id, [text for text, _ in args]), ATOM
    raise Unsupported(f"kernel expression {ast.unparse(node)!r}")


# -- Python slot closures -------------------------------------------------------

_PYTHON = Syntax()


def _phase(kernel: Kernel, which: str) -> List[Assign]:
    statements = kernel.output if which == "output" else kernel.update
    return [pair for text in statements for pair in parse(text)]


def _columns(kernel: Kernel, kinds: str) -> List[str]:
    """The operands and/or outputs (``kinds`` in ``"xy"``) a kernel uses."""
    assigns = _phase(kernel, "output") + _phase(kernel, "update")
    used = {n for t, v in assigns for n in [t] + names_in(v) if n[0] in kinds}
    return sorted(used)


def _prologue(kernel: Kernel, operands: int) -> List[str]:
    """Factory lines binding operand slot indices and parameter values."""
    slots = [f"a{k}" for k in range(operands)]
    params = [name for name, _ in kernel.params]
    return [
        "    " + "".join(f"{n}, " for n in names) + f"= {source}"
        for source, names in (("a", slots), ("p", params))
        if names
    ]


def _closure(
    head: str, args: List[str], free: Set[str], body: List[str]
) -> List[str]:
    """A nested ``def`` binding ``free`` names as default arguments."""
    args = args + [f"{n}={n}" for n in sorted(free)]
    return [f"    def {head}({', '.join(args)}):"] + [f"        {b}" for b in body]


@lru_cache(maxsize=None)
def _python_factory(kernel: Kernel, operands: int) -> Callable[..., Any]:
    lines = ["def make(v, st, i, a, d, p):"] + _prologue(kernel, operands)
    lines += [f"    d{n[1:]} = d + {n[1:]}" for n in _columns(kernel, "y")]
    params = {name for name, _ in kernel.params}
    result = []
    for which in ("output", "update"):
        free: Set[str] = set()

        def name(ident: str) -> str:
            if ident in params or ident == "t":
                free.add(ident)
                return ident
            if ident == "s":
                free.update(("st", "i"))
                return "st[i]"
            slot = ("a" if ident[0] == "x" else "d") + ident[1:]
            free.update(("v", slot))
            return f"v[{slot}]"

        body = [
            f"{name(target)} = {render(value, name, _PYTHON)[0]}"
            for target, value in _phase(kernel, which)
        ]
        if body:
            lines += _closure(which, [], free - {"t"}, body)
        result.append(which if body else "None")
    lines.append(f"    return {', '.join(result)}")
    return _compile(lines, {"sin": math.sin})


def _compile(lines: List[str], namespace: Dict[str, Any]) -> Callable[..., Any]:
    exec(compile("\n".join(lines) + "\n", "<kernel>", "exec"), namespace)
    return namespace["make"]


def python_kernel(
    instance: Instance,
    values: List[float],
    states: List[object],
    state_index: int,
    src_slots: Tuple[int, ...],
    out_base: int,
) -> Tuple[Optional[Callable[[], None]], Optional[Callable[[], None]]]:
    """The ``(output, update)`` slot closures of one block instance (each
    ``None`` when its phase has no statements): ``values`` is the flat
    slot list, ``states[state_index]`` the block's state, ``src_slots``
    its operand slots and ``out_base`` its first output slot."""
    make = _python_factory(instance.kernel, len(src_slots))
    return make(
        values, states, state_index, src_slots, out_base, instance.values
    )


# -- NumPy column ops ------------------------------------------------------------

_NUMPY = NumpySyntax()
_UFUNCS = {
    ast.Add: "add",
    ast.Sub: "subtract",
    ast.Mult: "multiply",
    ast.GtE: "greater_equal",
    ast.LtE: "less_equal",
    ast.Gt: "greater",
    ast.Lt: "less",
    ast.Not: "logical_not",
}


def _numpy_statement(target: str, value: ast.expr) -> str:
    """``target = value`` over columns: one in-place ufunc when the
    outermost operation is one, else a copy."""
    text = render(value, str, _NUMPY)[0]
    if target == "t":
        return f"t = {text}"
    if isinstance(value, ast.BinOp):
        ufunc, args = _UFUNCS[type(value.op)], [value.left, value.right]
    elif isinstance(value, ast.Compare):
        ufunc = _UFUNCS[type(value.ops[0])]
        args = [value.left, value.comparators[0]]
    elif isinstance(value, ast.UnaryOp):
        ufunc, args = _UFUNCS[type(value.op)], [value.operand]
    elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        ufunc = NumpySyntax.FUNCTIONS.get(value.func.id, "")
        args = list(value.args)
    else:
        ufunc = ""
    if not ufunc:
        return f"copyto({target}, {text})"
    texts = [render(arg, str, _NUMPY)[0] for arg in args]
    return f"{ufunc}({', '.join(texts)}, out={target})"


@lru_cache(maxsize=None)
def _numpy_factory(kernel: Kernel, operands: int) -> Callable[..., Any]:
    lines = ["def make(values, episodes, a, d, p):"]
    lines += _prologue(kernel, operands)
    for ident in _columns(kernel, "xy"):
        index = f"a{ident[1:]}" if ident[0] == "x" else f"d + {ident[1:]}"
        lines.append(f"    {ident} = values[:, {index}]")
    if kernel.state is not None:
        init = render(state_expr(kernel), str, _NUMPY)[0]
        lines.append(f"    s = full(episodes, {init})")
    params = {name for name, _ in kernel.params}
    result = []
    for which in ("output", "update"):
        free: Set[str] = set()
        body = []
        for target, value in _phase(kernel, which):
            reads = set(names_in(value))
            if which == "output" and reads <= params:
                # A parameter-only right-hand side never changes over a
                # run: write it once, at bind time.
                lines.append(f"    {_numpy_statement(target, value)}")
                continue
            free |= (reads | {target}) - {"t"}
            body.append(_numpy_statement(target, value))
        if body:
            lines += _closure(which, ["k"], free, body)
        result.append(which if body else "None")
    if kernel.state is not None:
        lines += _closure("snapshot", ["e"], {"s"}, ["return s[e].item()"])
    result.append("None" if kernel.state is None else "snapshot")
    lines.append(f"    return {', '.join(result)}")
    return _compile(lines, _numpy_namespace())


@lru_cache(maxsize=1)
def _numpy_namespace() -> Dict[str, Any]:
    import numpy

    names = list(_UFUNCS.values()) + list(NumpySyntax.FUNCTIONS.values())
    names += ["where", "copyto", "full"]
    return {n: getattr(numpy, n) for n in names}


def numpy_kernel(
    instance: Instance, src_slots: Tuple[int, ...], out_base: int
) -> Callable[[Any], Tuple[Any, Any, Any]]:
    """Column ops of one block instance across an episode batch.

    Returns ``bind(run) -> (output, update, snapshot)`` for a run with
    ``run.values`` (the ``(episodes, slots)`` float64 array) and
    ``run.episodes``.  The phase callables take the step index;
    ``snapshot(episode)`` gives a stateful kernel's state as the scalar
    engine holds it.  Each column op replays the scalar statement's IEEE
    operations in order, so batched samples are bit-identical.
    """
    make = _numpy_factory(instance.kernel, len(src_slots))

    def bind(run: Any) -> Tuple[Any, Any, Any]:
        return make(
            run.values, run.episodes, src_slots, out_base, instance.values
        )

    return bind
