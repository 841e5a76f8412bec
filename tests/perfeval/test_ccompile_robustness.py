"""Robustness tests for the host-compiler wrapper.

Covers the compile-subprocess timeout, stderr capture in compile
errors, per-session caching of failed toolchain probes, and the
atomic publish of compiled shared objects.
"""

import os

import pytest

from repro.perfeval import ccompile
from repro.perfeval.ccompile import (
    CCompileError,
    compile_shared_object,
    compile_timeout,
    default_build_dir,
    have_openmp,
    have_openmp_simd,
)
from tests.conftest import requires_cc

requires_posix = pytest.mark.skipif(
    os.name != "posix", reason="uses /bin/sh fake compilers"
)


def fake_cc(tmp_path, body, name="cc"):
    """A shell script standing in for the host compiler."""
    script = tmp_path / name
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)
    return str(script)


class TestCompileTimeout:
    def test_default_and_env_override(self, monkeypatch):
        monkeypatch.delenv("SPL_CC_TIMEOUT", raising=False)
        assert compile_timeout() == 120.0
        monkeypatch.setenv("SPL_CC_TIMEOUT", "7.5")
        assert compile_timeout() == 7.5

    def test_bad_values_fall_back_to_default(self, monkeypatch):
        for bad in ("banana", "-3", "0"):
            monkeypatch.setenv("SPL_CC_TIMEOUT", bad)
            assert compile_timeout() == 120.0

    @requires_posix
    def test_wedged_compiler_raises_ccompile_error(self, tmp_path,
                                                   monkeypatch):
        wedged = fake_cc(tmp_path, "sleep 30\n")
        monkeypatch.setattr(ccompile, "_find_compiler", lambda: wedged)
        monkeypatch.setenv("SPL_CC_TIMEOUT", "0.2")
        with pytest.raises(CCompileError, match="timed out"):
            compile_shared_object(
                "void t_timeout(double *y, const double *x) { y[0]=x[0]; }",
                build_dir=tmp_path,
            )
        # No half-written artifact was published or left behind.
        assert not list(tmp_path.glob("*.so"))


class TestStderrCapture:
    @requires_cc
    def test_compile_error_carries_compiler_stderr(self, tmp_path):
        with pytest.raises(CCompileError) as excinfo:
            compile_shared_object("void broken( {{{", build_dir=tmp_path)
        text = str(excinfo.value)
        assert "error" in text.lower()  # the compiler's own diagnostic
        assert "--- source ---" in text  # and the numbered source dump

    @requires_cc
    def test_failed_compile_publishes_nothing(self, tmp_path):
        with pytest.raises(CCompileError):
            compile_shared_object("void broken2( {{{", build_dir=tmp_path)
        assert not list(tmp_path.glob("*.so"))


_PROBES = [pytest.param(have_openmp, "-fopenmp", id="openmp"),
           pytest.param(have_openmp_simd, "-fopenmp-simd",
                        id="openmp-simd")]


class TestOpenmpProbeCache:
    @requires_posix
    @pytest.mark.parametrize("probe, flag", _PROBES)
    def test_failed_probe_runs_once_per_session(self, tmp_path,
                                                monkeypatch, probe, flag):
        counter = tmp_path / "invocations"
        broken = fake_cc(
            tmp_path,
            f'echo run >> "{counter}"\n'
            "echo 'fatal error: omp.h: No such file' >&2\n"
            "exit 1\n",
            name="broken-cc",
        )
        monkeypatch.setattr(ccompile, "_find_compiler", lambda: broken)
        assert probe() is False
        assert probe() is False
        # lru_cache: the failing probe subprocess ran exactly once.
        assert counter.read_text().count("run") == 1

    @requires_posix
    @pytest.mark.parametrize("probe, flag", _PROBES)
    def test_probe_passes_its_flag_to_the_compiler(self, tmp_path,
                                                   monkeypatch, probe,
                                                   flag):
        argv = tmp_path / "argv"
        willing = fake_cc(tmp_path, f'echo "$@" >> "{argv}"\n',
                          name="willing-cc")
        monkeypatch.setattr(ccompile, "_find_compiler", lambda: willing)
        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        assert probe() is True
        assert probe() is True
        [line] = argv.read_text().splitlines()
        assert flag in line.split()

    @pytest.mark.parametrize("probe, flag", _PROBES)
    def test_no_compiler_probes_false(self, monkeypatch, probe, flag):
        monkeypatch.setattr(ccompile, "_find_compiler", lambda: None)
        assert probe() is False


@requires_cc
class TestAtomicPublish:
    def test_cache_hit_skips_recompile(self, tmp_path):
        source = "void t_atomic(double *y, const double *x) { y[0]=x[0]; }"
        first = compile_shared_object(source, build_dir=tmp_path)
        mtime = first.stat().st_mtime_ns
        second = compile_shared_object(source, build_dir=tmp_path)
        assert second == first
        assert second.stat().st_mtime_ns == mtime

    def test_no_temp_files_left_behind(self, tmp_path):
        compile_shared_object(
            "void t_clean(double *y, const double *x) { y[0]=x[0]; }",
            build_dir=tmp_path,
        )
        assert not list(tmp_path.glob("*.tmp.so"))

    def test_default_build_dir_has_no_stale_temps(self):
        # The suite compiles hundreds of candidates; none may strand a
        # mid-compile temp in the shared cache directory.
        ours = [p for p in default_build_dir().glob("*.tmp.so")
                if f".{os.getpid()}." in p.name]
        assert ours == []
