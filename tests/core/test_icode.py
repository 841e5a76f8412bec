"""Unit tests for the i-code IR, especially the IExpr polynomial type."""

import pytest

from repro.core.errors import SplSemanticError
from repro.core.icode import (
    FConst,
    FVar,
    IExpr,
    Loop,
    Op,
    Program,
    VEC_INPUT,
    VEC_OUTPUT,
    VecInfo,
    VecRef,
    iter_ops,
    map_operands,
    subst_indices,
)


def var(name):
    return IExpr.var(name)


class TestIExprAlgebra:
    def test_const(self):
        assert IExpr.const(5).as_const() == 5

    def test_zero_is_empty(self):
        assert IExpr.const(0).terms == ()

    def test_addition(self):
        assert (var("i") + 2 + var("i")).as_const() is None
        assert ((var("i") + 2) - var("i")).as_const() == 2

    def test_multiplication_distributes(self):
        e = (var("i") + 1) * (var("j") + 2)
        expanded = (
            var("i") * var("j") + var("i") * 2 + var("j") + 2
        )
        assert e == expanded

    def test_negation(self):
        assert (-(var("i") - var("i"))).as_const() == 0

    def test_cancellation(self):
        assert (var("i") * 3 - var("i") * 3).terms == ()

    def test_radd_rmul(self):
        assert (2 + var("i")) == (var("i") + 2)
        assert (3 * var("i")) == (var("i") * 3)

    def test_rsub(self):
        assert (5 - var("i")) == (IExpr.const(5) - var("i"))

    def test_hashable_and_equal(self):
        assert hash(var("i") + 1) == hash(IExpr.var("i") + 1)

    def test_str_rendering(self):
        assert str(var("i") * 2 + 1) in ("1 + 2*i", "2*i + 1")
        assert str(IExpr.const(0)) == "0"


class TestIExprQueries:
    def test_free_vars(self):
        e = var("i") * var("j") + 3
        assert e.free_vars() == frozenset({"i", "j"})

    def test_split_var(self):
        e = var("i") * 2 + var("j") + 5
        assert e.split_var("i") == (2, var("j") + 5)
        assert e.split_var("j") == (1, var("i") * 2 + 5)
        assert e.split_var("k") == (0, e)

    def test_split_var_leaves_products_of_other_variables_in_rest(self):
        e = var("i") * var("j") + var("k") * 3
        assert e.split_var("k") == (3, var("i") * var("j"))

    def test_split_var_rejects_products_of_the_variable(self):
        assert (var("i") * var("j")).split_var("i") is None
        assert (var("i") * var("i") + var("i")).split_var("i") is None

    def test_split_const(self):
        assert (var("i") + 7).split_const()[1] == 7


class TestSubstitution:
    def test_subst_to_constant(self):
        e = var("i") * 4 + var("j")
        assert e.subst({"i": 2, "j": 1}).as_const() == 9

    def test_partial_subst(self):
        e = var("i") * var("j")
        assert e.subst({"i": 3}) == var("j") * 3

    def test_subst_with_expression(self):
        e = var("i") + 1
        assert e.subst({"i": var("k") * 2}) == var("k") * 2 + 1


class TestInterval:
    def test_affine_interval(self):
        e = var("i") * 4 + 3
        assert e.interval({"i": (0, 7)}) == (3, 31)

    def test_product_interval(self):
        e = var("i") * var("j")
        assert e.interval({"i": (0, 3), "j": (0, 5)}) == (0, 15)

    def test_negative_coefficient(self):
        e = IExpr.const(10) - var("i")
        assert e.interval({"i": (0, 4)}) == (6, 10)

    def test_unknown_variable_raises(self):
        with pytest.raises(SplSemanticError):
            var("k").interval({})


class TestOpValidation:
    def test_binary_requires_two(self):
        with pytest.raises(SplSemanticError):
            Op("+", FVar("f0"), FConst(1.0))

    def test_unary_rejects_two(self):
        with pytest.raises(SplSemanticError):
            Op("=", FVar("f0"), FConst(1.0), FConst(2.0))

    def test_unknown_operator(self):
        with pytest.raises(SplSemanticError):
            Op("%", FVar("f0"), FConst(1.0), FConst(2.0))


def small_program() -> Program:
    body = [
        Op("=", FVar("f0"), VecRef("x", IExpr.const(0))),
        Loop("i0", 4, [
            Op("+", VecRef("y", var("i0")), VecRef("x", var("i0")),
               FVar("f0")),
        ]),
    ]
    program = Program(name="p", in_size=4, out_size=4, datatype="real",
                      body=body)
    program.vectors["x"] = VecInfo("x", 4, VEC_INPUT)
    program.vectors["y"] = VecInfo("y", 4, VEC_OUTPUT)
    return program


class TestProgramHelpers:
    def test_flop_count_multiplies_loops(self):
        assert small_program().flop_count() == 4

    def test_iter_ops_descends(self):
        assert len(list(iter_ops(small_program().body))) == 2

    def test_scalar_names(self):
        assert small_program().scalar_names() == ["f0"]

    def test_io_names(self):
        p = small_program()
        assert p.input_name() == "x"
        assert p.output_name() == "y"

    def test_subst_indices(self):
        p = small_program()
        new_body = subst_indices(p.body, {"i0": 2})
        loop = new_body[1]
        assert isinstance(loop, Loop)
        op = loop.body[0]
        assert op.dest.index.as_const() == 2

    def test_map_operands_rejects_bad_dest(self):
        p = small_program()
        with pytest.raises(SplSemanticError):
            map_operands(p.body, lambda operand: FConst(1.0))
