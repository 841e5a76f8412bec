"""Unit tests for intrinsic evaluation (Section 3.3.2)."""

import math

import pytest

from repro.core.codegen import CodeGenerator
from repro.core.compiler import SplCompiler
from repro.core.errors import SplSemanticError
from repro.core.icode import FConst, Intrinsic, iter_ops
from repro.core.intrinsics import INTRINSICS, evaluate_intrinsics
from repro.core.parser import parse_formula_text
from repro.core.unroll import unroll_loops
from tests.conftest import assert_program_matches_matrix


def generate(text: str, *, unroll_all=False):
    compiler = SplCompiler()
    gen = CodeGenerator(compiler.templates, unroll_all=unroll_all)
    return gen.generate(parse_formula_text(text), "test", "complex")


def has_intrinsics(program) -> bool:
    return any(
        isinstance(operand, Intrinsic)
        for op in iter_ops(program.body)
        for operand in op.operands()
    )


class TestConstantEvaluation:
    def test_unrolled_twiddles_become_constants(self):
        program = generate("(T 8 4)", unroll_all=True)
        unroll_loops(program)
        evaluate_intrinsics(program)
        assert not has_intrinsics(program)
        assert program.tables == {}
        assert_program_matches_matrix(program, "(T 8 4)")

    def test_w_value(self):
        program = generate("(T 4 2)", unroll_all=True)
        unroll_loops(program)
        evaluate_intrinsics(program)
        consts = [
            operand.value
            for op in iter_ops(program.body)
            for operand in op.operands()
            if isinstance(operand, FConst)
        ]
        # T^4_2 contains w_4^1 = -i.
        assert any(abs(value - (-1j)) < 1e-12 for value in consts)


class TestTableGeneration:
    def test_looped_twiddles_tabulated(self):
        program = generate("(T 16 4)")
        evaluate_intrinsics(program)
        assert not has_intrinsics(program)
        assert len(program.tables) == 1
        (values,) = program.tables.values()
        assert len(values) == 16
        assert_program_matches_matrix(program, "(T 16 4)")

    def test_table_values_match_omega(self):
        program = generate("(T 8 2)")
        evaluate_intrinsics(program)
        (values,) = program.tables.values()
        # Table indexed by (i, j) with i outer (4) and j inner (2).
        w = [math.e ** 0]  # placeholder to keep flake quiet
        import cmath
        for i in range(4):
            for j in range(2):
                expected = cmath.exp(-2j * math.pi * (i * j) / 8)
                assert abs(complex(values[i * 2 + j]) - expected) < 1e-12

    def test_identical_tables_shared(self):
        program = generate("(compose (T 16 4) (T 16 4))")
        evaluate_intrinsics(program)
        assert len(program.tables) == 1

    def test_general_f_tabulates_product_index(self):
        program = generate("(F 5)")
        evaluate_intrinsics(program)
        assert len(program.tables) == 1
        (values,) = program.tables.values()
        assert len(values) == 25  # full (i, j) product space
        assert_program_matches_matrix(program, "(F 5)")


class TestRegistry:
    def test_walsh_values(self):
        wh = INTRINSICS["WH"]
        assert wh(0, 0) == 1
        assert wh(1, 1) == -1
        assert wh(3, 3) == 1  # popcount(3) = 2

    def test_dct_intrinsics(self):
        dc2 = INTRINSICS["DC2"]
        assert dc2(4, 0, 0) == pytest.approx(1.0)
        dc4 = INTRINSICS["DC4"]
        assert dc4(1, 0, 0) == pytest.approx(math.cos(math.pi / 4))

    def test_unknown_intrinsic_raises(self):
        from repro.core.icode import IExpr, Op, FVar, Program

        program = Program(name="p", in_size=1, out_size=1, datatype="real")
        program.body = [
            Op("=", FVar("f0"), Intrinsic("NOSUCH", (IExpr.const(1),)))
        ]
        with pytest.raises(SplSemanticError):
            evaluate_intrinsics(program)


class TestDefinitionTemplatesWithIntrinsics:
    @pytest.mark.parametrize("text", ["(WHT 4)", "(DCT2 4)", "(DCT4 4)"])
    def test_transform_definitions(self, text):
        program = generate(text)
        evaluate_intrinsics(program)
        assert_program_matches_matrix(program, text)
