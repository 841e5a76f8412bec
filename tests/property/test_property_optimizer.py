"""Property test: the optimizer preserves i-code semantics on random
straight-line and looped programs."""

import copy
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.icode import (
    FConst,
    FVar,
    IExpr,
    Loop,
    Op,
    Program,
    VEC_INPUT,
    VEC_OUTPUT,
    VEC_TEMP,
    VecInfo,
    VecRef,
)
from repro.core.interpreter import run_program
from repro.core.optimizer import optimize

N = 4
SCALARS = ("f0", "f1", "f2")


@st.composite
def operands(draw, defined_scalars):
    kinds = ["x", "const"]
    if defined_scalars:
        kinds.append("scalar")
    kind = draw(st.sampled_from(kinds))
    if kind == "x":
        return VecRef("x", IExpr.const(draw(st.integers(0, N - 1))))
    if kind == "const":
        return FConst(float(draw(st.integers(-3, 3))))
    return FVar(draw(st.sampled_from(sorted(defined_scalars))))


@st.composite
def straight_line(draw, length=8):
    body = []
    defined = set()
    for _ in range(draw(st.integers(1, length))):
        dest_kind = draw(st.sampled_from(["scalar", "y", "t"]))
        if dest_kind == "scalar":
            name = draw(st.sampled_from(SCALARS))
            dest = FVar(name)
        elif dest_kind == "y":
            dest = VecRef("y", IExpr.const(draw(st.integers(0, N - 1))))
        else:
            dest = VecRef("t0", IExpr.const(draw(st.integers(0, N - 1))))
        op = draw(st.sampled_from(["=", "+", "-", "*", "neg"]))
        a = draw(operands(defined))
        b = draw(operands(defined)) if op in ("+", "-", "*") else None
        body.append(Op(op, dest, a, b))
        if dest_kind == "scalar":
            defined.add(dest.name)
        # Reading t0 before writing is fine: it starts zeroed.
        defined_t = True
    # Ensure y is fully defined so outputs are deterministic.
    for k in range(N):
        a = draw(operands(defined))
        body.append(Op("=", VecRef("y", IExpr.const(k)), a))
    return body


def make_program(body):
    program = Program(name="p", in_size=N, out_size=N, datatype="real",
                      body=body)
    program.vectors["x"] = VecInfo("x", N, VEC_INPUT)
    program.vectors["y"] = VecInfo("y", N, VEC_OUTPUT)
    program.vectors["t0"] = VecInfo("t0", N, VEC_TEMP)
    return program


class TestOptimizerPreservesSemantics:
    @settings(max_examples=120, deadline=None)
    @given(straight_line(), st.lists(st.integers(-5, 5), min_size=N,
                                     max_size=N))
    def test_straight_line(self, body, x):
        x = [float(v) for v in x]
        reference = run_program(make_program(copy.deepcopy(body)), list(x))
        optimized = make_program(copy.deepcopy(body))
        optimize(optimized)
        result = run_program(optimized, list(x))
        assert result == reference

    @settings(max_examples=60, deadline=None)
    @given(straight_line(length=5),
           st.lists(st.integers(-5, 5), min_size=N, max_size=N),
           st.integers(1, 3))
    def test_wrapped_in_loop(self, inner, x, count):
        i = IExpr.var("i0")
        body = [
            Op("=", FVar("f0"), VecRef("x", IExpr.const(0))),
            Loop("i0", count, copy.deepcopy(inner)),
            Op("+", VecRef("y", IExpr.const(0)),
               VecRef("y", IExpr.const(0)), FVar("f0")),
        ]
        x = [float(v) for v in x]
        reference = run_program(make_program(copy.deepcopy(body)), list(x))
        optimized = make_program(copy.deepcopy(body))
        optimize(optimized)
        assert run_program(optimized, list(x)) == reference

    @settings(max_examples=60, deadline=None)
    @given(straight_line())
    def test_optimization_never_adds_ops(self, body):
        from repro.core.icode import iter_ops

        before = sum(1 for op in iter_ops(body)
                     if op.op in ("+", "-", "*", "neg"))
        program = make_program(copy.deepcopy(body))
        optimize(program)
        after = sum(1 for op in iter_ops(program.body)
                    if op.op in ("+", "-", "*", "neg"))
        assert after <= before
