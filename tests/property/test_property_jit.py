"""Property tests for the in-process codelet JIT: for random unrolled
formulas the JIT backend agrees with the i-code interpreter and the
pure-Python backend, and is *bit-identical* to the gcc-compiled C
backend — for real and (type-transformed) complex programs and batch
sizes {1, 7, 64}.  Strided and looped programs must fall back, never
mis-execute."""

import ctypes

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.backend_python import compile_python
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.icode import Op
from repro.core.interpreter import run_program
from repro.core.parser import parse_formula_text
from repro.perfeval import jit
from repro.perfeval.ccompile import have_c_compiler
from repro.perfeval.runner import build_executable

from tests.property.test_property_batch import formulas

BATCH_SIZES = (1, 7, 64)
ATOL = 1e-10

# Real-datatype coverage: formulas whose constants are all real (F_2
# butterflies and permutations), since only the complex datatype goes
# through the complex-to-real type transformation.
REAL_FORMULAS = (
    "(F 2)",
    "(tensor (F 2) (F 2))",
    "(compose (tensor (F 2) (I 2)) (L 4 2) (tensor (F 2) (I 2)))",
)

needs_jit = pytest.mark.skipif(
    not jit.jit_supported(),
    reason="in-process JIT unsupported on this host",
)
needs_cc = pytest.mark.skipif(
    not have_c_compiler(), reason="no C compiler on PATH",
)

_DP = ctypes.POINTER(ctypes.c_double)


def _jit_rows(jitted, Xp, out_len):
    rows = []
    for row in Xp:
        x = np.ascontiguousarray(row, dtype=np.float64)
        y = np.zeros(out_len, dtype=np.float64)
        jitted.fn(y.ctypes.data_as(_DP), x.ctypes.data_as(_DP))
        rows.append(y)
    return np.array(rows)


def _jit_batch(jitted, Xp, out_len):
    Xp = np.ascontiguousarray(Xp, dtype=np.float64)
    Y = np.zeros((Xp.shape[0], out_len), dtype=np.float64)
    jitted.batch_fn(Y.ctypes.data_as(_DP), Xp.ctypes.data_as(_DP),
                    Xp.shape[0])
    return Y


#: ``formulas()`` can draw this: 45 441 four-tuples unrolled, past
#: ``jit.MAX_JIT_STATEMENTS`` — the cap's far side, kept as an example.
OVER_THE_CAP = parse_formula_text(
    "(tensor (tensor (L 9 3) (T 9 3)) (tensor (F 4) (T 9 3)))", {})


def _jittable(program) -> bool:
    """``can_jit`` says yes exactly up to the statement cap; a caller
    that needs the JIT returns early past it (no ``assume``: the far
    side of the boundary is a tested answer, not a discarded draw)."""
    assert program.is_straight_line()
    ops = sum(isinstance(inst, Op) for inst in program.body)
    assert jit.can_jit(program) == (ops <= jit.MAX_JIT_STATEMENTS)
    return ops <= jit.MAX_JIT_STATEMENTS


def _compile_unrolled(formula, codetype="real", datatype=None):
    compiler = SplCompiler(CompilerOptions(codetype=codetype,
                                           unroll=True))
    return compiler.compile_formula(formula, "jprop", language="c",
                                    datatype=datatype)


@needs_jit
class TestJitAgreesWithOracles:
    """JIT vs interpreter vs pure Python, scalar and batch entries."""

    @given(formula=formulas(), data=st.data())
    @example(formula=OVER_THE_CAP, data=None)
    @settings(max_examples=15, deadline=None)
    def test_oracle_agreement(self, formula, data):
        routine = _compile_unrolled(formula, datatype="complex")
        program = routine.program
        if not _jittable(program):
            return
        jitted = jit.compile_jit(program)

        width = program.element_width
        in_len = program.in_size * width
        out_len = program.out_size * width
        seed = data.draw(st.integers(0, 2**32 - 1))
        X = np.random.default_rng(seed).standard_normal(
            (max(BATCH_SIZES), in_len))

        expected = np.array([run_program(program, list(row)) for row in X])
        python_fn = compile_python(program)
        py = []
        for row in X:
            y = [0.0] * out_len
            python_fn(y, list(row))
            py.append(y)
        py = np.array(py)
        np.testing.assert_allclose(py, expected, atol=ATOL)

        got = _jit_rows(jitted, X, out_len)
        np.testing.assert_allclose(got, expected, atol=ATOL)
        for batch in BATCH_SIZES:
            got_b = _jit_batch(jitted, X[:batch], out_len)
            np.testing.assert_allclose(got_b, expected[:batch], atol=ATOL)
            # Scalar and batch entries run the same machine code on the
            # same operands: bitwise equal, not merely close.
            assert np.array_equal(got_b, got[:batch])

    @pytest.mark.parametrize("formula", REAL_FORMULAS)
    def test_real_datatype_agreement(self, formula):
        routine = _compile_unrolled(formula, datatype="real")
        program = routine.program
        assert jit.can_jit(program)
        jitted = jit.compile_jit(program)
        X = np.random.default_rng(5).standard_normal(
            (max(BATCH_SIZES), program.in_size))
        expected = np.array([run_program(program, list(row)) for row in X])
        np.testing.assert_allclose(
            _jit_rows(jitted, X, program.out_size), expected, atol=ATOL)
        for batch in BATCH_SIZES:
            np.testing.assert_allclose(
                _jit_batch(jitted, X[:batch], program.out_size),
                expected[:batch], atol=ATOL)

    def test_zero_batch_is_a_no_op(self):
        routine = _compile_unrolled("(F 4)")
        jitted = jit.compile_jit(routine.program)
        Y = np.full((3, 8), 7.0)
        X = np.zeros((3, 8))
        jitted.batch_fn(Y.ctypes.data_as(_DP), X.ctypes.data_as(_DP), 0)
        assert np.all(Y == 7.0)


@needs_jit
@needs_cc
class TestJitBitIdenticalToC:
    """The acceptance bar: JIT output == C backend output, every bit."""

    @given(formula=formulas(), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_bit_identity(self, formula, data):
        routine = _compile_unrolled(formula, datatype="complex")
        program = routine.program
        if not _jittable(program):
            return
        jitted = jit.compile_jit(program)
        executable = build_executable(routine, prefer="c")
        assert executable.backend == "c"

        width = program.element_width
        in_len = program.in_size * width
        out_len = program.out_size * width
        seed = data.draw(st.integers(0, 2**32 - 1))
        X = np.random.default_rng(seed).standard_normal(
            (max(BATCH_SIZES), in_len))

        c_double_p = _DP
        c_rows = []
        for row in X:
            x = np.ascontiguousarray(row)
            y = np.zeros(out_len)
            executable._tier.native(y.ctypes.data_as(c_double_p),
                                    x.ctypes.data_as(c_double_p))
            c_rows.append(y)
        c_rows = np.array(c_rows)
        assert np.array_equal(_jit_rows(jitted, X, out_len), c_rows)
        for batch in BATCH_SIZES:
            assert np.array_equal(
                _jit_batch(jitted, X[:batch], out_len), c_rows[:batch])


class TestIneligibleProgramsFallBack:
    """Programs the emitter cannot lower must reach another backend."""

    def test_looped_program_is_not_jittable(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula(
            "(tensor (I 8) (F 4))", "jloop", language="c")
        assert not routine.program.is_straight_line()
        assert not jit.can_jit(routine.program)
        with pytest.raises(jit.JitError):
            jit.compile_jit(routine.program)

    def test_strided_program_is_not_jittable(self):
        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll=True))
        routine = compiler.compile_formula("(F 4)", "jstr", language="c",
                                           strided=True)
        assert not jit.can_jit(routine.program)

    def test_complex_native_program_is_not_jittable(self):
        compiler = SplCompiler(CompilerOptions(codetype="complex",
                                               unroll=True))
        routine = compiler.compile_formula("(F 4)", "jcx",
                                           language="python")
        assert routine.program.element_width == 1
        assert not jit.can_jit(routine.program)

    def test_build_executable_falls_through(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula(
            "(tensor (I 8) (F 4))", "jfall", language="cjit")
        executable = build_executable(routine, prefer="cjit")
        assert executable.backend != "cjit"
        x = np.random.default_rng(0).standard_normal(32) + 0j
        got = executable.apply(x)
        ref = np.array(routine.run(list(x)))
        np.testing.assert_allclose(got, ref, atol=ATOL)


@needs_cc
class TestCodeletLoopParity:
    """A codelet-unrolled plan is bit-identical to its looped form."""

    FORMULA = ("(compose (tensor (F 4) (I 4)) (T 16 4) "
               "(tensor (I 4) (F 4)) (L 16 4))")

    def _batch(self, seed=11, batch=32, n=16):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((batch, n))
                + 1j * rng.standard_normal((batch, n)))

    def test_unrolled_plan_matches_looped_plan_bitwise(self):
        X = self._batch()
        results = {}
        for unroll in (False, True):
            compiler = SplCompiler(CompilerOptions(codetype="real",
                                                   unroll=unroll))
            routine = compiler.compile_formula(
                self.FORMULA, f"par{int(unroll)}", language="c")
            assert routine.program.is_straight_line() == unroll
            executable = build_executable(routine, prefer="c")
            results[unroll] = executable.apply_many(X)
        assert np.array_equal(results[False], results[True])
