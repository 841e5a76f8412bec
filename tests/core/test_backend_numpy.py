"""Unit tests for the NumPy batch backend and its affine loop lowering."""

import numpy as np

from repro.core.backend_numpy import (
    compile_numpy,
    emit_numpy,
    loop_is_lowerable,
)
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.icode import (
    FVar,
    IExpr,
    Loop,
    Op,
    Program,
    VecInfo,
    VecRef,
)
from repro.formulas import to_matrix
from repro.core.parser import parse_formula_text
from tests.conftest import assert_routine_matches_matrix

FORMULA_F4 = ("(compose (tensor (F 2) (I 2)) (T 4 2) "
              "(tensor (I 2) (F 2)) (L 4 2))")


def compile_one(text, **opts):
    compiler = SplCompiler(CompilerOptions(**opts))
    return compiler.compile_formula(text, "unit", language="numpy")


def run_batch(routine, X):
    """Execute a numpy-language routine on a (B, n) logical batch."""
    program = routine.program
    width = program.element_width
    batch = X.shape[0]
    fn = compile_numpy(program)
    if width == 2:
        xp = np.zeros((batch, 2 * program.in_size))
        xp[:, 0::2] = X.real
        xp[:, 1::2] = X.imag
        y = np.zeros((batch, 2 * program.out_size))
        fn(y, xp)
        return y[:, 0::2] + 1j * y[:, 1::2]
    xp = np.array(X, dtype=complex if program.datatype == "complex"
                  else float)
    y = np.zeros((batch, program.out_size), dtype=xp.dtype)
    fn(y, xp)
    return y


class TestEmission:
    def test_signature_and_import(self):
        routine = compile_one("(F 2)")
        assert routine.source.startswith("import numpy as np")
        assert "def unit(y, x):" in routine.source

    def test_tables_are_numpy_arrays(self):
        routine = compile_one("(T 16 4)", codetype="real")
        assert "d0 = np.array([" in routine.source

    def test_complex_table_constants(self):
        routine = compile_one("(T 4 2)")  # complex-native twiddles
        assert "complex(" in routine.source

    def test_temps_carry_batch_axis(self):
        routine = compile_one(FORMULA_F4, codetype="real")
        assert "np.zeros((x.shape[0], " in routine.source

    def test_strided_signature(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 2)", "cod",
                                           language="numpy", strided=True)
        assert "istride=1, ostride=1, iofs=0, oofs=0" in routine.source

    def test_language_recorded(self):
        assert compile_one("(F 2)").language == "numpy"


class TestLoopLowering:
    def test_affine_loops_become_slices(self):
        # (I 8) (x) F 2: one innermost loop, all subscripts affine.
        routine = compile_one("(tensor (I 8) (F 2))", codetype="real")
        assert "lowered to slices" in routine.source
        assert "for " not in routine.source

    def test_reversal_uses_negative_step(self):
        routine = compile_one("(J 8)", codetype="real")
        assert "::-2]" in routine.source or ":-2]" in routine.source
        assert "for " not in routine.source

    def test_symbolic_stride_falls_back_to_loop(self):
        # Strided entry points index by runtime istride: the step is
        # not a compile-time constant, so the loop survives — but the
        # body is still batch-vectorized column ops.
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula(
            "(tensor (I 4) (F 2))", "cod", language="numpy", strided=True)
        assert "for i" in routine.source
        assert "[:, " in routine.source

    def test_non_affine_subscript_rejected(self):
        # y[i*i] is not affine in i: the loop must not be lowered.
        i = IExpr.var("i0")
        program = Program(
            name="sq", in_size=4, out_size=4, datatype="real",
            body=[Loop("i0", 2, [
                Op("=", VecRef("y", i * i), VecRef("x", i)),
            ])],
            vectors={"x": VecInfo("x", 4, "in"), "y": VecInfo("y", 4, "out")},
        )
        assert not loop_is_lowerable(program, program.body[0])
        assert "for i0 in range(2):" in emit_numpy(program)

    def test_scalar_escaping_loop_rejected(self):
        # f0 is written in the loop but read after it: the final-value
        # semantics cannot be expressed as a slice assignment.
        i = IExpr.var("i0")
        loop = Loop("i0", 4, [
            Op("=", FVar("f0"), VecRef("x", i)),
            Op("=", VecRef("y", i), FVar("f0")),
        ])
        program = Program(
            name="esc", in_size=4, out_size=4, datatype="real",
            body=[loop, Op("=", VecRef("y", IExpr.const(0)), FVar("f0"))],
            vectors={"x": VecInfo("x", 4, "in"), "y": VecInfo("y", 4, "out")},
        )
        assert not loop_is_lowerable(program, loop)

    def test_loop_local_scalars_allowed(self):
        i = IExpr.var("i0")
        loop = Loop("i0", 4, [
            Op("=", FVar("f0"), VecRef("x", i)),
            Op("+", VecRef("y", i), FVar("f0"), FVar("f0")),
        ])
        program = Program(
            name="loc", in_size=4, out_size=4, datatype="real",
            body=[loop],
            vectors={"x": VecInfo("x", 4, "in"), "y": VecInfo("y", 4, "out")},
        )
        assert loop_is_lowerable(program, loop)
        fn = compile_numpy(program)
        x = np.arange(4.0)[None, :]
        y = np.zeros((1, 4))
        fn(y, x)
        np.testing.assert_allclose(y[0], 2 * np.arange(4.0))

    def test_overlapping_stores_rejected(self):
        # y[i] then y[i+1]: iteration i+1's first store collides with
        # iteration i's second — slice execution would reorder them.
        i = IExpr.var("i0")
        loop = Loop("i0", 4, [
            Op("=", VecRef("y", i), VecRef("x", i)),
            Op("=", VecRef("y", i + 1), VecRef("x", i)),
        ])
        program = Program(
            name="ovl", in_size=8, out_size=8, datatype="real",
            body=[loop],
            vectors={"x": VecInfo("x", 8, "in"), "y": VecInfo("y", 8, "out")},
        )
        assert not loop_is_lowerable(program, loop)

    def test_far_apart_stores_allowed(self):
        # y[2i] and y[2i+8] with 4 iterations never collide: the rests
        # are congruent mod 2 but 8 >= 2*4.
        i = IExpr.var("i0")
        loop = Loop("i0", 4, [
            Op("=", VecRef("y", i * 2), VecRef("x", i)),
            Op("=", VecRef("y", i * 2 + 8), VecRef("x", i)),
        ])
        program = Program(
            name="far", in_size=4, out_size=16, datatype="real",
            body=[loop],
            vectors={"x": VecInfo("x", 4, "in"),
                     "y": VecInfo("y", 16, "out")},
        )
        assert loop_is_lowerable(program, loop)


class TestExecution:
    def test_matches_matrix_single(self):
        assert_routine_matches_matrix(compile_one(FORMULA_F4,
                                                  codetype="real"))

    def test_matches_matrix_complex_native(self):
        assert_routine_matches_matrix(compile_one(FORMULA_F4))

    def test_batch_matches_matrix(self):
        routine = compile_one(FORMULA_F4, codetype="real")
        matrix = to_matrix(parse_formula_text(FORMULA_F4))
        rng = np.random.default_rng(5)
        X = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        np.testing.assert_allclose(run_batch(routine, X), X @ matrix.T,
                                   atol=1e-10)

    def test_unrolled_program_runs(self):
        routine = compile_one(FORMULA_F4, codetype="real", unroll=True)
        assert_routine_matches_matrix(routine)
