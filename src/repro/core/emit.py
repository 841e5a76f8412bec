"""Target code generation, the shared part (Section 3.5).

The paper makes phase 5 the smallest one: i-code is so close to the
target languages that every backend is "a straightforward translation".
This module is that translation, written once:

* :class:`Printer` walks ``Program.body`` — loops, four-tuples,
  comments — and renders operators and operands.  A target subclasses
  it and supplies syntax only: how a constant, an element reference, a
  subscript, a loop header, a comment and a statement line are spelled.
* :func:`plan_inductions` is the strength-reduction *analysis* for an
  innermost loop.  It returns plain data (steps, invariant parts,
  constant offsets), no text; a printer that sets
  :attr:`Printer.induction` renders the plan as ``k = rest`` before the
  loop and ``k += step`` at the end of its body.  It is an analysis and
  not an i-code pass because the NumPy target must see the original
  subscripts to choose slices.

The one affine split both rest on is :meth:`IExpr.split_var`.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from repro.core.errors import SplSemanticError
from repro.core.icode import (
    FConst,
    FVar,
    IExpr,
    Instr,
    Loop,
    Op,
    Operand,
    Program,
    VecRef,
    iter_instrs,
)

#: One induction variable: ``(step, rest, {subscript: constant delta})``
#: — every listed subscript equals ``rest + step * i + delta``.
Induction = tuple[int, IExpr, dict[IExpr, int]]

MIN_INDUCTION_TRIPS = 4
_NO_SUBS: Mapping[IExpr, str] = MappingProxyType({})


def loop_vars(body: list[Instr]) -> list[str]:
    """Every loop variable in ``body``, in order of first appearance."""
    return list(dict.fromkeys(
        inst.var for inst in iter_instrs(body) if isinstance(inst, Loop)))


def plan_inductions(loop: Loop) -> list[Induction]:
    """Induction variables for an innermost loop of at least four trips.

    Every subscript ``step * i + rest`` with a constant non-zero
    ``step`` and ``rest`` free of the loop variable ``i`` joins a group;
    subscripts whose steps agree and whose rests differ by a constant
    share one.  Other subscripts, loops that contain a loop and loops
    too short to pay for the setup get no plan.
    """
    if loop.count < MIN_INDUCTION_TRIPS \
            or any(isinstance(inst, Loop) for inst in loop.body):
        return []
    groups: list[Induction] = []
    seen: set[IExpr] = set()
    for inst in loop.body:
        if not isinstance(inst, Op):
            continue
        for ref in (inst.dest, *inst.operands()):
            if not isinstance(ref, VecRef) or ref.index in seen:
                continue
            seen.add(ref.index)
            split = ref.index.split_var(loop.var)
            if split is None or split[0] == 0:
                continue
            step, rest = split
            for g_step, g_rest, deltas in groups:
                delta = (rest.const_difference(g_rest)
                         if g_step == step else None)
                if delta is not None:
                    deltas[ref.index] = delta
                    break
            else:
                groups.append((step, rest, {ref.index: 0}))
    return groups


def fresh_names(program: Program, prefix: str) -> Iterator[str]:
    """``prefix0, prefix1, ...`` minus every name ``program`` uses."""
    used = {*program.scalar_names(), *loop_vars(program.body),
            *program.vectors, *program.tables}
    for number in itertools.count():
        name = f"{prefix}{number}"
        if name not in used:
            yield name


class Printer:
    """The i-code walker; subclasses supply a target's syntax."""

    language = ""
    margin = ""            # printed before the indentation of every line
    indent = "    "
    terminator = ""        # closes every statement
    loop_close: str | None = None   # None: the block ends by dedent
    empty_body: str | None = None   # what an empty block must contain
    #: ``(name prefix, declaration prefix)`` when innermost loops are
    #: strength-reduced, e.g. ``("k", "long ")``; None to print
    #: subscripts as they are.
    induction: tuple[str, str] | None = None

    def __init__(self, program: Program):
        self.program = program
        if self.induction:
            self._names = fresh_names(program, self.induction[0])

    # -- syntax hooks --------------------------------------------------------

    def const(self, value) -> str:
        raise NotImplementedError

    def index(self, expr: IExpr) -> str:
        return str(expr)

    def element(self, vec: str, index: str) -> str:
        return f"{vec}[{index}]"

    def loop_open(self, loop: Loop) -> str:
        raise NotImplementedError

    def comment(self, pad: str, text: str) -> str:
        raise NotImplementedError

    def statement(self, pad: str, text: str) -> list[str]:
        return [f"{pad}{text}{self.terminator}"]

    # -- the walk ------------------------------------------------------------

    def pad(self, depth: int) -> str:
        return self.margin + self.indent * depth

    def block(self, body: list[Instr], depth: int,
              subs: Mapping[IExpr, str] = _NO_SUBS) -> list[str]:
        """The lines of ``body``.  ``subs`` maps a subscript to what
        :meth:`element` gets in its place (an induction variable)."""
        pad = self.pad(depth)
        lines: list[str] = []
        for inst in body:
            if isinstance(inst, Loop):
                lines.extend(self.loop(inst, depth))
            elif isinstance(inst, Op):
                lines.extend(self.statement(pad, self.op(inst, subs)))
            else:
                lines.append(self.comment(pad, inst.text))
        if not lines and self.empty_body:
            lines.append(pad + self.empty_body)
        return lines

    def loop(self, loop: Loop, depth: int) -> list[str]:
        pad = self.pad(depth)
        setup, subs, bumps = self.inductions(loop, depth) \
            if self.induction else ([], _NO_SUBS, [])
        lines = [*setup, pad + self.loop_open(loop),
                 *self.block(loop.body, depth + 1, subs), *bumps]
        if self.loop_close:
            lines.append(pad + self.loop_close)
        return lines

    def inductions(self, loop: Loop, depth: int
                   ) -> tuple[list[str], dict[IExpr, str], list[str]]:
        """``plan_inductions(loop)`` as text: the statements that set
        the variables up before the loop, the subscripts they replace,
        and the statements that bump them at the end of the body."""
        type_prefix = self.induction[1]
        pad, inner = self.pad(depth), self.pad(depth + 1)
        setup: list[str] = []
        bumps: list[str] = []
        subs: dict[IExpr, str] = {}
        for step, rest, deltas in plan_inductions(loop):
            name = next(self._names)
            setup += self.statement(
                pad, f"{type_prefix}{name} = {self.index(rest)}")
            bumps += self.statement(
                inner, f"{name} += {step}" if step > 0
                else f"{name} -= {-step}")
            for subscript, delta in deltas.items():
                if delta:
                    sign = "+" if delta > 0 else "-"
                    subs[subscript] = f"{name} {sign} {abs(delta)}"
                else:
                    subs[subscript] = name
        return setup, subs, bumps

    def op(self, inst: Op, subs: Mapping[IExpr, str] = _NO_SUBS) -> str:
        dest = self.operand(inst.dest, subs)
        a = self.operand(inst.a, subs)
        if inst.op == "=":
            return f"{dest} = {a}"
        if inst.op == "neg":
            return f"{dest} = -{a}"
        return f"{dest} = {a} {inst.op} {self.operand(inst.b, subs)}"

    def operand(self, operand: Operand,
                subs: Mapping[IExpr, str] = _NO_SUBS) -> str:
        if isinstance(operand, FVar):
            return operand.name
        if isinstance(operand, FConst):
            return self.const(operand.value)
        if isinstance(operand, VecRef):
            return self.element(
                operand.vec,
                subs.get(operand.index) or self.index(operand.index))
        raise SplSemanticError(
            f"cannot emit operand {operand!r} as {self.language} "
            f"(intrinsics must be evaluated before code generation)"
        )

    def table_values(self, values) -> str:
        return ", ".join(self.const(value) for value in values)


def exec_routine(source: str, program: Program, tag: str) -> Callable:
    """Exec generated Python ``source`` and return the routine it defines."""
    namespace: dict = {}
    exec(compile(source, f"<{tag}:{program.name}>", "exec"), namespace)
    return namespace[program.name]
