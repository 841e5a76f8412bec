"""Unit tests for the Python, C and Fortran backends and for what all
four printers share (the NumPy target's own tests are in
``test_backend_numpy.py``)."""

import numpy as np
import pytest

from repro.core.backend_c import emit_c
from repro.core.backend_fortran import CONT, emit_fortran
from repro.core.backend_numpy import emit_numpy
from repro.core.backend_python import compile_python, emit_python
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplSemanticError
from repro.formulas.factorization import ct_multi
from repro.core.icode import (
    FVar,
    IExpr,
    Intrinsic,
    Loop,
    Op,
    Program,
    VecInfo,
    VecRef,
)
from tests.conftest import (
    assert_routine_matches_matrix,
    requires_cc,
)

FORMULA_F4 = ("(compose (tensor (F 2) (I 2)) (T 4 2) "
              "(tensor (I 2) (F 2)) (L 4 2))")


def compile_one(text, language, **opts):
    compiler = SplCompiler(CompilerOptions(**opts))
    return compiler.compile_formula(text, "unit", language=language)


class TestPythonBackend:
    def test_emit_and_exec_complex_native(self):
        # The Python backend keeps complex arithmetic native.
        routine = compile_one("(F 2)", "python")
        fn = compile_python(routine.program)
        y = [0j, 0j]
        fn(y, [1 + 0j, 2 + 0j])
        assert y == [3 + 0j, -1 + 0j]

    def test_emit_and_exec_lowered(self):
        routine = compile_one("(F 2)", "python", codetype="real")
        fn = compile_python(routine.program)
        y = [0.0] * 4
        fn(y, [1.0, 0.0, 2.0, 0.0])
        assert y == [3.0, 0.0, -1.0, 0.0]

    def test_source_contains_def(self):
        routine = compile_one("(F 2)", "python")
        assert "def unit(y, x):" in routine.source

    def test_tables_emitted(self):
        routine = compile_one("(T 16 4)", "python")
        assert "d0 = (" in routine.source

    def test_loops_emitted(self):
        routine = compile_one("(I 8)", "python")
        assert "for i0 in range(8):" in routine.source

    def test_matches_matrix(self):
        assert_routine_matches_matrix(compile_one(FORMULA_F4, "python"))

    def test_strided_signature(self):
        compiler = SplCompiler()
        routine = compiler.compile_formula("(F 2)", "cod", language="python",
                                           strided=True)
        assert "istride=1" in routine.source


class TestCBackend:
    def test_signature(self):
        routine = compile_one("(F 2)", "c")
        assert "void unit(double *restrict y, const double *restrict x)" \
            in routine.source

    def test_static_tables(self):
        routine = compile_one("(T 16 4)", "c")
        assert "static const double d0[32]" in routine.source

    def test_temps_declared_when_not_scalarized(self):
        routine = compile_one("(compose (F 2) (F 2))", "c",
                              optimize="none")
        assert "double t0[" in routine.source

    def test_loop_syntax(self):
        routine = compile_one("(I 8)", "c")
        assert "for (i0 = 0; i0 < 8; i0++) {" in routine.source

    def test_complex_requires_lowering(self):
        from repro.core.codegen import CodeGenerator

        compiler = SplCompiler()
        gen = CodeGenerator(compiler.templates)
        from repro.core.parser import parse_formula_text

        program = gen.generate(parse_formula_text("(I 2)"), "t", "complex")
        with pytest.raises(SplSemanticError):
            emit_c(program)

    def test_strided_signature(self):
        compiler = SplCompiler()
        routine = compiler.compile_formula("(F 2)", "cod", language="c",
                                           strided=True)
        assert "int istride, int ostride, int iofs, int oofs" \
            in routine.source

    @requires_cc
    def test_compiled_c_matches_matrix(self):
        from repro.perfeval.runner import build_executable
        from repro.formulas import to_matrix
        from repro.core.parser import parse_formula_text
        from tests.conftest import random_complex

        routine = compile_one(FORMULA_F4, "c", unroll=True)
        executable = build_executable(routine)
        assert executable.backend == "c"
        x = random_complex(4)
        expected = to_matrix(parse_formula_text(FORMULA_F4)) @ x
        np.testing.assert_allclose(executable.apply(x), expected, atol=1e-12)


class TestFortranBackend:
    def test_subroutine_shape(self):
        routine = compile_one("(F 2)", "fortran", codetype="real")
        assert routine.source.startswith("      subroutine unit (y,x)")
        assert "implicit real*8 (f)" in routine.source
        assert "implicit integer (r)" in routine.source
        assert routine.source.rstrip().endswith("end")

    def test_one_based_subscripts(self):
        routine = compile_one("(I 4)", "fortran")
        assert "y(i0 + 1) = x(i0 + 1)" in routine.source

    def test_complex_codetype_declarations(self):
        compiler = SplCompiler(CompilerOptions(codetype="complex"))
        routine = compiler.compile_formula("(T 4 2)", "tw",
                                           language="fortran")
        assert "implicit complex*16 (f)" in routine.source
        assert "complex*16 y(4),x(4)" in routine.source

    def test_complex_constants_as_pairs(self):
        compiler = SplCompiler(CompilerOptions(codetype="complex"))
        routine = compiler.compile_formula("(T 4 2)", "tw",
                                           language="fortran")
        # w_4^1 = -i appears as a (re, im) pair.
        assert "(" in routine.source and "-1.0d0)" in routine.source

    def test_real_codetype_doubles_arrays(self):
        routine = compile_one("(F 2)", "fortran", codetype="real")
        assert "real*8 y(4),x(4)" in routine.source

    def test_data_statements_for_tables(self):
        routine = compile_one("(T 16 4)", "fortran")
        assert "data d0 /" in routine.source

    def test_automatic_storage_flag(self):
        compiler = SplCompiler(CompilerOptions(automatic_storage=True))
        routine = compiler.compile_formula("(compose (F 2) (F 2))", "a",
                                           language="fortran")
        assert "automatic f" in routine.source

    def test_do_loops(self):
        routine = compile_one("(I 8)", "fortran")
        assert "do i0 = 0, 7" in routine.source
        assert "end do" in routine.source

    def test_fortran_exponent_format(self):
        routine = compile_one("(diagonal (1e-3 1))", "fortran",
                              datatype="real")
        assert "d-" in routine.source or "d0" in routine.source


    def test_long_statements_continue_before_column_73(self):
        # A 256-point FFT as real code at -B 16 nests three loops
        # around subscripts like t1(128*i0 + 2*i1 + 32*i2 + 1): well
        # past column 72 unwrapped.
        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll_threshold=16))
        routine = compiler.compile_formula(
            ct_multi((4, 4, 4, 4)).to_spl(), "fft256", datatype="complex",
            language="fortran")
        lines = routine.source.splitlines()
        assert max(len(line) for line in lines) <= 72
        wrapped = [i for i, line in enumerate(lines)
                   if line.startswith(CONT) and " = " in lines[i - 1]]
        assert wrapped
        for i in wrapped:
            # The break sits in front of an operator, not inside a token.
            assert lines[i][len(CONT):].startswith((" + ", " - ", " * ",
                                                    " / ", " = "))

    def test_continuation_lines_join_back_to_the_statement(self):
        i, j, k = (IExpr.var(name) for name in ("i0", "i1", "i2"))
        index = i * 1024 + j * 256 + k * 64
        program = Program(
            name="wide", in_size=8192, out_size=8192, datatype="real",
            body=[Loop("i0", 2, [Loop("i1", 2, [Loop("i2", 2, [
                Op("*", VecRef("y", index + 4095), VecRef("x", index + 17),
                   VecRef("x", index + 4000)),
            ])])])],
            vectors={"x": VecInfo("x", 8192, "in"),
                     "y": VecInfo("y", 8192, "out")},
        )
        lines = emit_fortran(program).splitlines()
        first = next(n for n, line in enumerate(lines) if " = x(" in line)
        assert [line[:len(CONT)] for line in lines[first:first + 3]] == \
            ["      ", CONT, "      "]
        assert all(len(line) <= 72 for line in lines)
        assert lines[first] + lines[first + 1][len(CONT):] == (
            "            y(1024*i0 + 256*i1 + 64*i2 + 4096) = "
            "x(1024*i0 + 256*i1 + 64*i2 + 18) * "
            "x(1024*i0 + 256*i1 + 64*i2 + 4001)")


class TestSharedPrinter:
    @pytest.mark.parametrize(
        "emit", [emit_c, emit_fortran, emit_python, emit_numpy])
    def test_intrinsic_operand_raises(self, emit):
        # Intrinsics are evaluated before code generation; one that
        # survives is a typed error in every target, never a traceback.
        program = Program(
            name="w", in_size=1, out_size=1, datatype="real",
            body=[Op("=", VecRef("y", IExpr.const(0)),
                     Intrinsic("W", (IExpr.const(4), IExpr.const(1))))],
            vectors={"x": VecInfo("x", 1, "in"), "y": VecInfo("y", 1, "out")},
        )
        with pytest.raises(SplSemanticError, match="cannot emit operand"):
            emit(program)

    def test_c_and_numpy_render_the_same_induction_plan(self):
        # The loop-invariant scalar keeps NumPy on its fallback loop, so
        # both targets print plan_inductions' variables: same steps,
        # same offsets, only the spelling differs.
        i = IExpr.var("i0")
        program = Program(
            name="scale", in_size=17, out_size=16, datatype="real",
            body=[
                Op("=", FVar("f0"), VecRef("x", IExpr.const(16))),
                Loop("i0", 8, [
                    Op("*", VecRef("y", i * 2 + 1), VecRef("x", i * 2),
                       FVar("f0")),
                    Op("=", VecRef("y", i * 2), VecRef("x", 15 - i)),
                ]),
            ],
            vectors={"x": VecInfo("x", 17, "in"),
                     "y": VecInfo("y", 16, "out")},
        )
        assert emit_c(program).splitlines()[4:] == [
            "    f0 = x[16];",
            "    long k0 = 1;",
            "    long k1 = 15;",
            "    for (i0 = 0; i0 < 8; i0++) {",
            "        y[k0] = x[k0 - 1] * f0;",
            "        y[k0 - 1] = x[k1];",
            "        k0 += 2;",
            "        k1 -= 1;",
            "    }",
            "}",
        ]
        assert emit_numpy(program).splitlines()[4:] == [
            "    f0 = x[:, 16]",
            "    _k0 = 1",
            "    _k1 = 15",
            "    for i0 in range(8):",
            "        y[:, _k0] = x[:, _k0 - 1] * f0",
            "        y[:, _k0 - 1] = x[:, _k1]",
            "        _k0 += 2",
            "        _k1 -= 1",
        ]


class TestBackendAgreement:
    """All executable paths must agree with the dense semantics."""

    CASES = [
        "(F 2)",
        "(F 4)",
        FORMULA_F4,
        "(tensor (I 4) (F 2))",
        "(direct-sum (F 2) (J 3))",
        "(WHT 8)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_python_matches(self, text):
        assert_routine_matches_matrix(compile_one(text, "python"))

    @pytest.mark.parametrize("text", CASES)
    @requires_cc
    def test_c_matches(self, text):
        from repro.perfeval.runner import build_executable
        from repro.formulas import to_matrix
        from repro.core.parser import parse_formula_text
        from tests.conftest import random_complex

        routine = compile_one(text, "c")
        executable = build_executable(routine)
        x = random_complex(routine.in_size)
        expected = to_matrix(parse_formula_text(text)) @ x
        np.testing.assert_allclose(executable.apply(x), expected,
                                   atol=1e-9)
