"""Integration tests for the compiler driver and its options."""

import re

import pytest

from repro.core.compiler import (
    CompiledRoutine,
    CompilerOptions,
    SplCompiler,
    compile_text,
)
from repro.core.errors import SplSemanticError
from repro.core.icode import Loop, Op, iter_ops
from tests.conftest import assert_routine_matches_matrix

F4 = ("(compose (tensor (F 2) (I 2)) (T 4 2) "
      "(tensor (I 2) (F 2)) (L 4 2))")


class TestOptions:
    def test_invalid_opt_level_rejected(self):
        with pytest.raises(SplSemanticError):
            CompilerOptions(optimize="hard")

    def test_language_override(self):
        compiler = SplCompiler(CompilerOptions(language="c"))
        (routine,) = compiler.compile_text("#language fortran\n(F 2)")
        assert routine.language == "c"

    def test_datatype_override(self):
        compiler = SplCompiler(CompilerOptions(datatype="real"))
        (routine,) = compiler.compile_text("(F 2)")
        assert routine.program.datatype == "real"
        assert routine.program.element_width == 1

    def test_unroll_threshold(self):
        compiler = SplCompiler(CompilerOptions(unroll_threshold=4,
                                               language="python"))
        routine = compiler.compile_formula("(tensor (I 8) (F 4))", "t")
        # Outer loop (input 32 > 4) survives; inner F4 loops unrolled.
        loops = [i for i in routine.program.body if isinstance(i, Loop)]
        assert len(loops) == 1
        assert not any(isinstance(i, Loop) for i in loops[0].body)


class TestOptimizationLevels:
    """The three code versions of Figure 2."""

    def compile(self, level):
        compiler = SplCompiler(CompilerOptions(optimize=level, unroll=True,
                                               language="python"))
        return compiler.compile_formula(F4, "t")

    def test_none_keeps_temp_arrays(self):
        routine = self.compile("none")
        assert routine.program.temp_vectors()

    def test_scalars_removes_temp_arrays(self):
        routine = self.compile("scalars")
        assert not routine.program.temp_vectors()

    def test_default_reduces_ops(self):
        ops_scalars = len(list(iter_ops(self.compile("scalars").program.body)))
        ops_default = len(list(iter_ops(self.compile("default").program.body)))
        assert ops_default < ops_scalars

    @pytest.mark.parametrize("level", ["none", "scalars", "default"])
    def test_all_levels_correct(self, level):
        assert_routine_matches_matrix(self.compile(level))


class TestPeephole:
    def test_no_unary_minus_with_peephole(self):
        compiler = SplCompiler(CompilerOptions(peephole=True, unroll=True,
                                               language="fortran"))
        routine = compiler.compile_formula("(T 8 2)", "t")
        assert not any(op.op == "neg"
                       for op in iter_ops(routine.program.body))

    def test_peephole_preserves_semantics(self):
        compiler = SplCompiler(CompilerOptions(peephole=True, unroll=True,
                                               language="python"))
        routine = compiler.compile_formula(F4, "t")
        assert_routine_matches_matrix(routine)


class TestSession:
    def test_defines_persist_across_compiles(self):
        compiler = SplCompiler()
        compiler.compile_text("(define TWO (F 2))")
        routine = compiler.compile_formula("(tensor (I 2) TWO)", "t",
                                           language="python")
        assert routine.in_size == 4

    def test_templates_persist(self):
        compiler = SplCompiler()
        compiler.parse("""
        (template (DOUBLE n_) [n_ > 0]
          (
            do $i0 = 0, n_ - 1
              $out($i0) = 2.0 * $in($i0)
            end
          ))
        """)
        routine = compiler.compile_formula("(DOUBLE 4)", "t",
                                           language="python",
                                           datatype="real")
        assert routine.run([1.0, 1.0, 1.0, 1.0]) == [2.0] * 4

    def test_add_definitions_rejects_formulas(self):
        compiler = SplCompiler()
        with pytest.raises(SplSemanticError):
            compiler.add_definitions("(F 2)")

    def test_compile_text_convenience(self):
        routines = compile_text("#subname a\n(F 2)\n#subname b\n(I 2)")
        assert [r.name for r in routines] == ["a", "b"]


class TestCompiledRoutine:
    def test_run_validates_length(self):
        compiler = SplCompiler()
        routine = compiler.compile_formula("(F 2)", "t", language="python")
        with pytest.raises(SplSemanticError):
            routine.run([1.0])

    def test_flop_count_positive(self):
        compiler = SplCompiler()
        routine = compiler.compile_formula("(F 4)", "t", language="python")
        assert routine.flop_count > 0

    def test_sizes_exposed(self):
        compiler = SplCompiler()
        routine = compiler.compile_formula("(L 8 2)", "t", language="python")
        assert (routine.in_size, routine.out_size) == (8, 8)

    def test_callable_cached(self):
        compiler = SplCompiler()
        routine = compiler.compile_formula("(I 2)", "t", language="python")
        assert routine.callable() is routine.callable()


class TestLiterals:
    """Matrix, permutation and diagonal literals through the whole
    compiler, rectangular ones included: a restriction and a zero-pad
    around an FFT (Bluestein's shape) and a permuted direct sum with a
    dense border row (Rader's)."""

    @pytest.mark.parametrize("text", [
        "(matrix (1 2 3) (4 5 6))",
        "(matrix (1 0) (0 i) (1 1))",
        "(compose (matrix (1 0 0 0) (0 1 0 0) (0 0 1 0)) (F 4)"
        " (diagonal (1 i -1 -i)) (F 4)"
        " (matrix (1 0 0) (0 1 0) (0 0 1) (0 0 0)))",
        "(compose (permutation (1 3 2)) (matrix (1 1 1) (1 -1 0) (1 0 -1))"
        " (direct-sum (diagonal (1)) (F 2)) (permutation (1 3 2)))",
    ])
    @pytest.mark.parametrize("unroll", [False, True])
    def test_matches_the_matrix(self, text, unroll):
        compiler = SplCompiler(CompilerOptions(unroll=unroll))
        routine = compiler.compile_formula(text, "lit", language="python")
        assert_routine_matches_matrix(routine, text)


class TestPassReport:
    def routine(self):
        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll_threshold=4))
        return compiler.compile_formula(
            "(compose (tensor (F 4) (I 4)) (T 16 4) (tensor (I 4) (F 4)) "
            "(L 16 4))", "t", language="c")

    def test_each_pass_starts_from_the_previous_pass_output(self):
        passes = self.routine().pass_summary()
        assert len(passes) >= 8
        for before, after in zip(passes, passes[1:]):
            for column in ("icode", "temps", "scratch"):
                assert after[f"{column}_in"] == before[f"{column}_out"]

    def test_report_ends_with_a_total_that_sums_to_the_compile_time(self):
        routine = self.routine()
        in_passes = sum(record.micros for record in routine.passes)
        assert routine.compile_micros >= in_passes > 0
        total_line = routine.describe_passes().splitlines()[-1]
        assert total_line.startswith(
            f"; total {routine.compile_micros} us = {in_passes} us in "
            f"passes + {routine.compile_micros - in_passes} us outside")
        shares = re.findall(r"([\w-]+) (\d+\.\d)%", total_line)
        assert [name for name, _ in shares] \
            == [record.name for record in routine.passes] + ["outside"]
        assert sum(float(share) for _, share in shares) \
            == pytest.approx(100.0, abs=0.1 * len(shares))


class TestVectorize:
    """Section 3.5: vectorization wraps A into A (x) I_m."""

    def test_sizes_scale(self):
        compiler = SplCompiler()
        routine = compiler.compile_formula("(F 4)", "v", language="python",
                                           vectorize=4)
        assert routine.in_size == 16

    def test_semantics(self):
        import numpy as np

        compiler = SplCompiler()
        routine = compiler.compile_formula("(F 2)", "v2", language="python",
                                           vectorize=3)
        # Three interleaved 2-point signals.
        x = np.arange(6, dtype=float) + 0j
        y = np.asarray(routine.run(list(x)))
        for lane in range(3):
            np.testing.assert_allclose(y[lane::3], np.fft.fft(x[lane::3]),
                                       atol=1e-12)

    def test_invalid_factor(self):
        compiler = SplCompiler()
        with pytest.raises(SplSemanticError):
            compiler.compile_formula("(F 2)", "v3", vectorize=0)
