"""Cross-stage loop fusion for compose chains.

The compose template lowers ``(compose A B)`` to two loop nests with a
full temp vector between them: ``B`` writes every element of ``$t``,
then ``A`` reads it back.  A k-stage plan therefore streams k-1
intermediate vectors through memory once per stage.  This module fuses
those stages at the i-code level:

``fuse_conformable_stages``
    Two adjacent perfect nests with identical loop-count vectors, where
    the producer writes exactly one temp and (after renaming the
    consumer's indices onto the producer's) every consumer read of that
    temp matches a producer store syntactically, merge into one nest.
    Values flow through fresh scalars; the original stores are kept for
    any later readers and dead-code elimination removes them when the
    temp dies.

A permutation stage never reaches this module: code generation reads
through it (see :mod:`repro.core.codegen`), so no copy stage is left to
forward.

The pass is *verified* rather than trusted: legality is established by
exact enumeration of the producer's store indices (charged against the
compile budget via :meth:`CompileBudget.charge_fusion`), and the
surrounding pipeline re-derives the program's denoted matrix after the
pass when ``validate_passes`` is on (see :mod:`repro.core.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from repro.core.icode import (
    Comment,
    FVar,
    IExpr,
    Instr,
    Loop,
    Op,
    Operand,
    Program,
    VEC_TEMP,
    VecRef,
    iter_ops,
)
from repro.core.limits import CompileBudget


@dataclass
class FusionStats:
    """What the fusion pass did, for its pass record."""

    loops_fused: int = 0


# ---------------------------------------------------------------------------
# Shared analysis helpers.
# ---------------------------------------------------------------------------


def _vec_writes(body: list[Instr]) -> set[str]:
    return {op.dest.vec for op in iter_ops(body)
            if isinstance(op.dest, VecRef)}


def _vec_reads(body: list[Instr]) -> set[str]:
    names: set[str] = set()
    for op in iter_ops(body):
        for operand in op.operands():
            if isinstance(operand, VecRef):
                names.add(operand.vec)
    return names


def _scalar_names(body: list[Instr]) -> set[str]:
    names: set[str] = set()
    for op in iter_ops(body):
        for item in (op.dest, *op.operands()):
            if isinstance(item, FVar):
                names.add(item.name)
    return names


def _loop_vars(body: list[Instr]) -> set[str]:
    names: set[str] = set()
    stack = list(body)
    while stack:
        inst = stack.pop()
        if isinstance(inst, Loop):
            names.add(inst.var)
            stack.extend(inst.body)
    return names


def _fresh_scalars(program: Program) -> Iterator[FVar]:
    used = _scalar_names(program.body)
    counter = 0
    while True:
        name = f"f{counter}"
        counter += 1
        if name not in used:
            used.add(name)
            yield FVar(name)


# ---------------------------------------------------------------------------
# The pass: fuse adjacent conformable nests, forwarding through scalars.
# ---------------------------------------------------------------------------


def fuse_conformable_stages(program: Program,
                            budget: CompileBudget) -> FusionStats:
    """Merge adjacent identically-shaped nests linked by one temp."""
    stats = FusionStats()
    fresh = _fresh_scalars(program)
    changed = True
    while changed:
        changed = False
        body = program.body
        for idx in range(len(body)):
            nxt = idx + 1
            while nxt < len(body) and isinstance(body[nxt], Comment):
                nxt += 1
            if nxt >= len(body):
                break
            producer, consumer = body[idx], body[nxt]
            if not (isinstance(producer, Loop) and isinstance(consumer, Loop)):
                continue
            fused = _try_fuse(program, producer, consumer, budget, fresh,
                              stats)
            if fused is not None:
                body[idx] = fused
                del body[nxt]
                changed = True
                break
    return stats


def _perfect_nest(loop: Loop) -> tuple[list[str], list[int],
                                       list[Instr]] | None:
    """``(vars, counts, innermost_body)`` for a perfectly nested loop."""
    variables, counts = [], []
    current: Instr = loop
    while isinstance(current, Loop):
        variables.append(current.var)
        counts.append(current.count)
        inner = [i for i in current.body if not isinstance(i, Comment)]
        if len(inner) == 1 and isinstance(inner[0], Loop):
            current = inner[0]
            continue
        if any(isinstance(i, Loop) for i in inner):
            return None
        return variables, counts, inner
    return None


def _try_fuse(program: Program, producer: Loop, consumer: Loop,
              budget: CompileBudget, fresh: Iterator[FVar],
              stats: FusionStats) -> Loop | None:
    nest_p = _perfect_nest(producer)
    nest_c = _perfect_nest(consumer)
    if nest_p is None or nest_c is None:
        return None
    vars_p, counts_p, body_p = nest_p
    vars_c, counts_c, body_c = nest_c
    if counts_p != counts_c:
        return None
    # The producer must write exactly one temp vector.
    dests = {op.dest.vec for op in iter_ops(body_p)
             if isinstance(op.dest, VecRef)}
    if len(dests) != 1:
        return None
    temp = dests.pop()
    info = program.vectors.get(temp)
    if info is None or info.kind != VEC_TEMP:
        return None
    if temp in _vec_reads(body_p):
        return None
    # ... and only there, in the whole program.
    if any(temp in _vec_writes([inst]) for inst in program.body
           if inst is not producer):
        return None
    # Rename the consumer's loop indices onto the producer's.
    if set(vars_p) & (_loop_vars([consumer]) | _loop_vars(body_c)
                      | set(vars_c)) and vars_p != vars_c:
        return None
    renaming = {old: IExpr.var(new) for old, new in zip(vars_c, vars_p)}
    # Alias freedom at vector granularity: the consumer must not write
    # the temp, anything the producer reads, or the temp's twin reads.
    reads_p = _vec_reads(body_p)
    writes_c = _vec_writes(body_c)
    if writes_c & (reads_p | {temp}):
        return None
    if _scalar_names(body_p) & _scalar_names(body_c):
        return None
    store_exprs = {op.dest.index for op in iter_ops(body_p)
                   if isinstance(op.dest, VecRef)}
    # Every consumer read of the temp must be a producer store, verbatim.
    consumer_reads: set[IExpr] = set()
    for op in iter_ops(body_c):
        for operand in op.operands():
            if isinstance(operand, VecRef) and operand.vec == temp:
                renamed = operand.index.subst(renaming)
                if renamed not in store_exprs:
                    return None
                consumer_reads.add(renamed)
    if not consumer_reads:
        return None
    # The store map must be injective across the whole iteration space,
    # otherwise a forwarded scalar could expose a value from the wrong
    # iteration.  Verified by exact enumeration.
    seen: set[int] = set()
    for values in product(*map(range, counts_p)):
        point = dict(zip(vars_p, values))
        for expr in store_exprs:
            budget.charge_fusion(1, f"fusing stages through ${temp}")
            element = expr.at(point)
            if not isinstance(element, int) or element in seen:
                return None
            seen.add(element)
    # Legal: build the fused innermost body.
    forwards: dict[IExpr, FVar] = {}
    fused_body: list[Instr] = []
    for inst in body_p:
        if isinstance(inst, Op) and isinstance(inst.dest, VecRef) \
                and inst.dest.index in consumer_reads:
            scalar = forwards.setdefault(inst.dest.index, next(fresh))
            fused_body.append(Op(inst.op, scalar, inst.a, inst.b))
            fused_body.append(Op("=", inst.dest, scalar))
        else:
            fused_body.append(inst)

    def forward(operand: Operand) -> Operand:
        if isinstance(operand, VecRef):
            renamed = operand.index.subst(renaming)
            if operand.vec == temp:
                return forwards[renamed]
            return VecRef(operand.vec, renamed)
        return operand

    for inst in body_c:
        if isinstance(inst, Comment):
            fused_body.append(inst)
            continue
        dest = forward(inst.dest)
        a = forward(inst.a)
        b = forward(inst.b) if inst.b is not None else None
        fused_body.append(Op(inst.op, dest, a, b))
    nest: list[Instr] = fused_body
    for var, count in zip(reversed(vars_p), reversed(counts_p)):
        nest = [Loop(var, count, nest)]
    stats.loops_fused += 1
    return nest[0]
