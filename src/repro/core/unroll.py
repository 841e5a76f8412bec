"""Loop unrolling and scalarization (Section 3.3.1).

Loops are marked for unrolling during code generation (``#unroll``
directives, the global flag, or the ``-B`` size threshold); this pass
performs the expansion.  After full unrolling, temporary vectors whose
subscripts are all constant are replaced by scalar variables — "the use
of scalar variables tends to improve the quality of the code generated
by Fortran and C compilers".
"""

from __future__ import annotations

from repro.core.icode import (
    FVar,
    Instr,
    Loop,
    Op,
    Operand,
    Program,
    VEC_TEMP,
    VecRef,
    iter_ops,
    map_operands,
    subst_indices,
)
from repro.core.limits import CompileBudget


def unroll_loops(program: Program,
                 budget: CompileBudget | None = None) -> Program:
    """Fully expand every loop whose ``unroll`` flag is set.

    The expansion size is **pre-computed arithmetically** from the loop
    bounds and checked against ``max_unroll_statements`` before any
    statement is replicated — an unroll bomb (``#unroll`` on a large
    tensor formula) is rejected with a typed diagnostic instead of
    being discovered mid-OOM.
    """
    budget = budget or CompileBudget()
    total = unrolled_size(program.body)
    budget.check_unroll(total, _worst_construct(program))
    program.body = _unroll(program.body, budget)
    return program


def unrolled_size(body: list[Instr]) -> int:
    """Statement count of ``body`` after unrolling, from bounds alone."""
    total = 0
    for inst in body:
        if isinstance(inst, Loop):
            inner = unrolled_size(inst.body)
            total += inner * inst.count if inst.unroll else inner + 1
        else:
            total += 1
    return total


def _worst_construct(program: Program) -> str:
    """Name the single largest unroll expansion for the diagnostic."""
    worst_size = -1
    worst: Loop | None = None
    stack = list(program.body)
    while stack:
        inst = stack.pop()
        if not isinstance(inst, Loop):
            continue
        if inst.unroll:
            size = unrolled_size([inst])
            if size > worst_size:
                worst_size, worst = size, inst
        stack.extend(inst.body)
    if worst is None:
        return f"program {program.name}"
    return (f"program {program.name} (largest unrolled loop: "
            f"do ${worst.var} = 0, {worst.count - 1} -> "
            f"{worst_size} statements)")


def _unroll(body: list[Instr],
            budget: CompileBudget | None = None) -> list[Instr]:
    result: list[Instr] = []
    for inst in body:
        if isinstance(inst, Loop):
            inner = _unroll(inst.body, budget)
            if inst.unroll:
                for k in range(inst.count):
                    result.extend(subst_indices(inner, {inst.var: k}))
                    if budget is not None and k % 64 == 63:
                        budget.check_deadline("loop unrolling")
            else:
                result.append(Loop(inst.var, inst.count, inner,
                                   unroll=False))
        else:
            result.append(inst)
    return result


def scalarize_temps(program: Program) -> Program:
    """Replace fully-unrolled temporary vectors with scalar variables.

    Only temps whose every subscript is a constant are eligible (after
    full unrolling this is all of them in straight-line code).  Input,
    output and table vectors are never scalarized.
    """
    eligible = {
        info.name for info in program.vectors.values()
        if info.kind == VEC_TEMP
    }
    for op in iter_ops(program.body):
        for item in (op.dest, *op.operands()):
            if isinstance(item, VecRef) and item.vec in eligible:
                if item.index.as_const() is None:
                    eligible.discard(item.vec)
    if not eligible:
        return program

    used_scalars = {
        item.name
        for op in iter_ops(program.body)
        for item in (op.dest, *op.operands())
        if isinstance(item, FVar)
    }
    counter = len(used_scalars)
    names: dict[tuple[str, int], str] = {}

    def fresh() -> str:
        nonlocal counter
        while True:
            name = f"f{counter}"
            counter += 1
            if name not in used_scalars:
                used_scalars.add(name)
                return name

    def rewrite(operand: Operand) -> Operand:
        if isinstance(operand, VecRef) and operand.vec in eligible:
            index = operand.index.as_const()
            assert index is not None
            key = (operand.vec, index)
            if key not in names:
                names[key] = fresh()
            return FVar(names[key])
        return operand

    program.body = map_operands(program.body, rewrite)
    for name in eligible:
        del program.vectors[name]
    return program
