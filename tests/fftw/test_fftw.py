"""Tests for the FFTW-substitute library (codelets, planner, executor)."""

import numpy as np
import pytest

from repro.fftw.codelets import CodeletSet, default_codelet_formula
from repro.formulas import to_matrix
from repro.formulas.transforms import dft_matrix
from tests.conftest import HAS_CC, requires_cc


class TestCodeletFormulas:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_formulas_compute_dft(self, n):
        np.testing.assert_allclose(to_matrix(default_codelet_formula(n)),
                                   dft_matrix(n), atol=1e-9)

    def test_codelet_set_builds(self):
        codelets = CodeletSet.build(sizes=(2, 4))
        assert codelets.sizes == (2, 4)
        assert "spl_cod2" in codelets.c_source()
        assert codelets.flops(4) > 0

    def test_codelets_are_strided(self):
        codelets = CodeletSet.build(sizes=(2,))
        assert codelets.routines[2].program.strided

    def test_codelet_python_semantics_with_strides(self):
        from repro.core.interpreter import run_program

        codelets = CodeletSet.build(sizes=(4,))
        program = codelets.routines[4].program
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        buf = np.zeros(16)
        buf[0::4] = x.real  # complex stride 2: re at 4k, im at 4k+1
        buf[1::4] = x.imag
        out = run_program(program, list(buf), istride=2, ostride=1)
        got = np.array(out[0:8:2]) + 1j * np.array(out[1:8:2])
        np.testing.assert_allclose(got, np.fft.fft(x), atol=1e-10)


@pytest.fixture(scope="module")
def library():
    if not HAS_CC:
        pytest.skip("no C compiler")
    from repro.fftw import FftwLibrary

    return FftwLibrary(CodeletSet.build(sizes=(2, 4, 8, 16)))


@requires_cc
class TestExecutor:
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_estimate_plans_correct(self, library, n):
        from repro.fftw import Planner

        planner = Planner(library)
        plan = planner.plan_estimate(n)
        transform = library.transform(plan)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(transform.apply(x), np.fft.fft(x),
                                   atol=1e-8)

    def test_codelet_leaf_plan(self, library):
        from repro.fftw import Plan

        plan = Plan.from_radices(16, (), library.codelet_sizes)
        transform = library.transform(plan)
        x = np.random.default_rng(0).standard_normal(16) * (1 + 0.5j)
        np.testing.assert_allclose(transform.apply(x), np.fft.fft(x),
                                   atol=1e-9)

    def test_deep_plan(self, library):
        from repro.fftw import Plan

        plan = Plan.from_radices(256, (4, 4), library.codelet_sizes)
        transform = library.transform(plan)
        x = np.random.default_rng(1).standard_normal(256) * (1 - 1j)
        np.testing.assert_allclose(transform.apply(x), np.fft.fft(x),
                                   atol=1e-8)

    def test_apply_rejects_wrong_length(self, library):
        from repro.fftw import Plan

        plan = Plan.from_radices(16, (), library.codelet_sizes)
        with pytest.raises(ValueError):
            library.transform(plan).apply(np.zeros(8))

    def test_apply_many_matches_apply(self, library):
        from repro.fftw import Planner

        transform = library.transform(Planner(library).plan_estimate(64))
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        Y = transform.apply_many(X)
        assert Y.shape == (5, 64)
        np.testing.assert_allclose(Y, np.fft.fft(X, axis=1), atol=1e-8)
        for b in range(5):
            np.testing.assert_allclose(Y[b], transform.apply(X[b]),
                                       atol=1e-8)

    def test_apply_many_leaves_single_buffers_alone(self, library):
        # apply/apply_many interleave safely: neither keeps a buffer
        # the other (or a later call) could overwrite.
        from repro.fftw import Planner

        transform = library.transform(Planner(library).plan_estimate(32))
        rng = np.random.default_rng(8)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        kept = x.copy()
        y1 = transform.apply(x)
        expected = y1.copy()
        X = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        Y = transform.apply_many(X)
        assert not np.shares_memory(y1, Y)
        assert not np.shares_memory(y1, x)
        np.testing.assert_array_equal(y1, expected)
        np.testing.assert_array_equal(x, kept)  # the input is only read
        np.testing.assert_allclose(transform.apply(x), y1, atol=0)

    def test_apply_many_reuses_workspaces(self, library):
        # What reused workspaces must never have shown through: every
        # call's result is its own memory, whatever the batch size.
        from repro.fftw import Planner

        transform = library.transform(Planner(library).plan_estimate(32))
        rng = np.random.default_rng(9)
        X = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        kept = X.copy()
        first = transform.apply_many(X)
        expected = first.copy()
        second = transform.apply_many(X * 2)
        third = transform.apply_many(X[:2])
        results = [first, second, third]
        for i, a in enumerate(results):
            assert not np.shares_memory(a, X)
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(first, expected)
        first[:] = 0.0  # the caller owns what it was given
        np.testing.assert_array_equal(transform.apply_many(X), expected)
        np.testing.assert_array_equal(X, kept)

    def test_apply_many_rejects_wrong_shape(self, library):
        from repro.fftw import Plan

        transform = library.transform(
            Plan.from_radices(16, (), library.codelet_sizes))
        with pytest.raises(ValueError):
            transform.apply_many(np.zeros((3, 8)))
        with pytest.raises(ValueError):
            transform.apply_many(np.zeros(16))


@requires_cc
class TestPlanner:
    def test_measure_mode_returns_valid_plan(self, library):
        from repro.fftw import Planner

        planner = Planner(library, min_time=0.001)
        plan = planner.plan_measure(64)
        assert plan.n == 64
        x = np.random.default_rng(2).standard_normal(64) * (1 + 1j)
        np.testing.assert_allclose(library.transform(plan).apply(x),
                                   np.fft.fft(x), atol=1e-8)

    def test_measure_mode_caches(self, library):
        from repro.fftw import Planner

        planner = Planner(library, min_time=0.001)
        assert planner.plan_measure(64) is planner.plan_measure(64)

    def test_planning_memory_tracked(self, library):
        from repro.fftw import Planner

        planner = Planner(library, min_time=0.001)
        planner.plan_measure(64)
        assert planner.planning_bytes > 0

    def test_estimate_uses_no_planning_memory(self, library):
        from repro.fftw import Planner

        planner = Planner(library)
        planner.plan_estimate(256)
        assert planner.planning_bytes == 0

    def test_unfactorable_size_rejected(self, library):
        from repro.fftw import Planner

        planner = Planner(library)
        with pytest.raises(ValueError):
            planner.plan_estimate(24 * 5)


class _CountingLibrary:
    """Duck-typed FftwLibrary with no-op transforms (no C needed)."""

    codelet_sizes = (2, 4, 8)

    def __init__(self):
        self.timed = 0

    def codelet_flops(self, n):
        return 5 * n

    def transform(self, plan):
        outer = self

        class _Transform:
            def timer_closure(self):
                outer.timed += 1
                return lambda: None

        return _Transform()


class TestPlanningMemoryAttribution:
    def test_bytes_attributed_exactly_once(self):
        # Regression: recursive plan_measure(s) used to add child bytes
        # inside the parent's accounting window, so planning_bytes_by_n
        # attributed them to both the child and every ancestor.
        from repro.fftw import Planner

        planner = Planner(_CountingLibrary(), min_time=1e-5)
        planner.plan_measure(64)
        assert set(planner.planning_bytes_by_n) == {16, 32, 64}
        assert planner.planning_bytes == sum(
            planner.planning_bytes_by_n.values()
        )

    def test_child_bytes_independent_of_entry_point(self):
        from repro.fftw import Planner

        direct = Planner(_CountingLibrary(), min_time=1e-5)
        direct.plan_measure(16)
        nested = Planner(_CountingLibrary(), min_time=1e-5)
        nested.plan_measure(64)  # plans 16 as a grandchild
        assert (direct.planning_bytes_by_n[16]
                == nested.planning_bytes_by_n[16])


class TestPlanStructure:
    def test_radices_and_leaf(self):
        from repro.fftw import Plan

        plan = Plan.from_radices(128, (4, 4), (2, 4, 8, 16, 32, 64))
        assert plan.radices == (4, 4)
        assert plan.leaf == 8
        assert plan.work_len == 2 * 128 + 2 * 32

    def test_twiddle_layout(self):
        import cmath
        import math

        from repro.fftw import Plan

        plan = Plan.from_radices(8, (4,), (2, 4, 8))
        # Level-0 table: w_8^(i*j) at complex index i*2 + j, i<4, j<2.
        for i in range(4):
            for j in range(2):
                expected = cmath.exp(-2j * math.pi * i * j / 8)
                k = i * 2 + j
                got = complex(plan.twiddles[2 * k], plan.twiddles[2 * k + 1])
                assert abs(got - expected) < 1e-12

    def test_invalid_radix_rejected(self):
        from repro.fftw import Plan

        with pytest.raises(ValueError):
            Plan.from_radices(64, (5,), (2, 4, 8))

    def test_missing_codelet_rejected(self):
        from repro.fftw import Plan

        with pytest.raises(ValueError):
            Plan.from_radices(64, (2,), (2, 4, 8))  # leaf 32 missing

    def test_describe(self):
        from repro.fftw import Plan

        plan = Plan.from_radices(64, (4,), (2, 4, 8, 16))
        assert "r4" in plan.describe()
        assert "cod16" in plan.describe()

    def test_memory_bytes(self):
        from repro.fftw import Plan

        plan = Plan.from_radices(64, (4,), (2, 4, 8, 16))
        assert plan.memory_bytes() == plan.twiddles.nbytes + 8 * plan.work_len
