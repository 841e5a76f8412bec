"""What ``bench/`` uses of the compiler and the runner, held as a
tier-1 test.

The benchmark (``BENCHMARK.json``; ``bench/layers.py``,
``bench/kernel_sweep.py``, ``bench/compile_cold.py``) is frozen between
``[benchmark]`` PRs and is not part of tier 1, so a PR that renames a
compiler option, a ``prefer`` value or a routine attribute it reads
passes every test and then dies in the driver as ``run_failed``.  This
file imports nothing from ``bench/``; it repeats, call for call, what
those three files do to ``repro.core`` and ``repro.perfeval``: the two
compiler sessions, ``compile_formula`` under the four languages, the
counts read off a routine, ``build_executable`` under the four
``prefer`` values with its three ways of running, the two toolchain
probes, ``SPL_BUILD_DIR`` and the environment ``bench/run.py`` starts
its workloads in.  ``tests/serve/test_bench_contract.py`` is the
serving half.  Change a name here only in the PR that changes
``bench/`` with it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.parser import parse_formula_text
from repro.formulas.factorization import ct_multi, wht_multi
from repro.perfeval import ccompile
from repro.perfeval.jit import jit_supported
from repro.perfeval.runner import build_executable
from repro.serve.plans import fft_factors

from tests.conftest import HAS_CC, requires_cc

N = 64
BATCH = 64
SRC = Path(__file__).resolve().parents[2] / "src"


def _compiler(unroll: bool) -> SplCompiler:
    """``bench/layers.py::compiler_for``."""
    if unroll:
        return SplCompiler(CompilerOptions(codetype="real", unroll=True,
                                           peephole=True))
    return SplCompiler(CompilerOptions(codetype="real",
                                       unroll_threshold=16))


def _routine(language: str, *, unroll: bool = False, name: str = "bc64"):
    """``bench/layers.py::build_case`` up to the compiler."""
    compiler = _compiler(unroll)
    formula = parse_formula_text(ct_multi(fft_factors(N)).to_spl(),
                                 compiler.defines)
    return compiler.compile_formula(formula, name, datatype="complex",
                                    language=language)


def _inputs(seed: int = 24):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    X = rng.standard_normal((BATCH, N)) + 1j * rng.standard_normal((BATCH, N))
    return x, X


class TestCompilerCalls:
    @pytest.mark.parametrize("language", ["c", "cjit", "numpy", "python"])
    @pytest.mark.parametrize("unroll", [False, True])
    def test_counts_the_benchmark_reads_off_a_routine(self, language,
                                                      unroll):
        routine = _routine(language, unroll=unroll)
        passes = routine.pass_summary()
        assert isinstance(passes[-1]["icode_out"], int)
        assert {"name", "micros"} <= set(passes[-1])
        assert isinstance(routine.scratch_bytes, int)
        assert routine.flop_count > 0
        assert len(routine.source.encode()) > 0

    def test_the_float64_path(self):
        """``wht_case``: ``datatype="real"`` takes and returns float64."""
        compiler = _compiler(False)
        routine = compiler.compile_formula(
            parse_formula_text(wht_multi([2, 1]).to_spl(),
                               compiler.defines),
            "bcwht8", datatype="real", language="c")
        executable = build_executable(routine, prefer="c")
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        x = np.arange(8.0)
        y = executable.apply(x)
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, np.kron(h2, np.kron(h2, h2)) @ x)


class TestRunnerCalls:
    @pytest.mark.parametrize("prefer", ["cjit", "c", "numpy", "python"])
    def test_three_ways_of_running_one_executable(self, prefer):
        """``sweep_functions`` / ``check_outputs``: ``apply(x)``,
        ``apply_many(X)`` on a (64, n) batch and ``timer_closure()()``."""
        if prefer in ("c", "cjit") and not HAS_CC:
            pytest.skip("no C compiler on PATH")
        # ``_tier_cells`` compiles the cjit cell unrolled: only
        # codelets can be jitted.
        routine = _routine(prefer, unroll=prefer == "cjit",
                           name=f"bc64{prefer}")
        executable = build_executable(routine, prefer=prefer)
        assert isinstance(executable.backend, str)
        if prefer != "cjit":
            assert executable.backend == prefer
        elif jit_supported():
            assert executable.backend == "cjit"
        x, X = _inputs()
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-9)
        Y = executable.apply_many(X)
        assert Y.shape == (BATCH, N)
        np.testing.assert_allclose(Y, np.fft.fft(X, axis=1), atol=1e-9)
        assert executable.timer_closure()() is None
        assert not executable.degraded

    @requires_cc
    def test_second_build_is_a_cache_hit_in_spl_build_dir(
            self, tmp_path, monkeypatch):
        """``fresh_build_dir`` + ``compiler_layers``: builds land in
        ``SPL_BUILD_DIR`` as ``spl_*.so`` and a rebuild adds none."""
        monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path / "fresh"))
        routine = _routine("c", name="bc64dir")
        assert build_executable(routine, prefer="c").backend == "c"
        built = sorted((tmp_path / "fresh").glob("spl_*.so"))
        assert built
        assert build_executable(routine, prefer="c").backend == "c"
        assert sorted((tmp_path / "fresh").glob("spl_*.so")) == built

    def test_toolchain_probes_answer_bool(self, tmp_path, monkeypatch):
        """``run_toolchain_probes``."""
        monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path / "probes"))
        assert isinstance(ccompile.have_openmp(), bool)
        assert isinstance(ccompile.have_openmp_simd(), bool)


_CHILD = """
import hashlib, numpy as np
from tests.perfeval.test_bench_contract import _inputs, _routine
from repro.perfeval.runner import build_executable
executable = build_executable(_routine("cjit", unroll=True, name="bcenv"),
                              prefer="cjit")
x, X = _inputs()
digest = hashlib.sha256(executable.apply(x).tobytes()
                        + executable.apply_many(X).tobytes()).hexdigest()
print(executable.backend, digest)
"""


@pytest.mark.skipif(not jit_supported(), reason="no in-process JIT here")
def test_the_environment_bench_run_sets_changes_nothing(tmp_path):
    """``bench/run.py`` starts every workload with ``SPL_JIT_UPGRADE=0``
    (and the other ``SPL_*`` switches unset): a variable nothing reads
    any more must be harmless, not an error."""
    root = SRC.parent
    outputs = []
    for extra in ({}, {"SPL_JIT_UPGRADE": "0"}):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("SPL_")}
        env.update(extra, PYTHONPATH=f"{SRC}{os.pathsep}{root}",
                   SPL_BUILD_DIR=str(tmp_path))
        done = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == "cjit"
