"""The CI fuzz gate: a fixed-seed differential pass must come up clean.

200 generated programs (valid, boundary and mutated-invalid) run
through the full differential oracle — Python backend, NumPy backend,
the gcc-built C routine and the in-process JIT where the host has
them, and the i-code interpreter, against the dense-matrix semantics.
Any crash, divergence, or wrongly-rejected valid program fails the
build.
"""

import dataclasses
import threading

import pytest

from repro.core import emit
from repro.core.backend_c import _CPrinter
from repro.core.errors import SplSemanticError
from repro.fuzz import oracle, run_fuzz
from repro.fuzz.harness import minimize_source
from repro.fuzz.oracle import (
    STATUS_CRASH,
    STATUS_OK,
    STATUS_REJECTED,
    check_source,
    checked_languages,
)
from repro.perfeval import ccompile, jit, runner
from repro.perfeval.jit import jit_supported
from tests.conftest import requires_cc

SMOKE_COUNT = 200
SMOKE_SEED = 1


def test_fixed_seed_smoke():
    report = run_fuzz(SMOKE_COUNT, SMOKE_SEED, minimize=False)
    assert report.crashes == 0, report.describe()
    assert report.divergences == 0, report.describe()
    assert report.valid_rejected == 0, report.describe()
    # The mix must exercise both paths: plenty of programs compile and
    # match, plenty are cleanly rejected.
    assert report.ok > SMOKE_COUNT // 4
    assert report.rejected > SMOKE_COUNT // 20


def test_report_is_deterministic():
    first = run_fuzz(40, 9, minimize=False)
    second = run_fuzz(40, 9, minimize=False)
    assert (first.ok, first.rejected) == (second.ok, second.rejected)


def test_native_tiers_are_skipped_not_failed_without_a_toolchain(monkeypatch):
    monkeypatch.setattr(ccompile, "_find_compiler", lambda: None)
    monkeypatch.setattr(jit, "jit_supported", lambda: False)
    assert checked_languages() == ("python", "numpy")
    assert check_source("(compose (F 4) (L 4 2))").status == STATUS_OK


@requires_cc
def test_c_is_among_the_checked_languages_with_a_compiler():
    assert "c" in checked_languages()


def test_a_native_check_that_ran_on_another_tier_is_a_crash(monkeypatch):
    def refuse(routine, cflags):
        raise SplSemanticError("no C for this one")

    monkeypatch.setattr(runner, "_build_c", refuse)  # falls through to numpy
    result = check_source("(F 4)", languages=("c",))
    assert result.status == STATUS_CRASH
    assert "asked for the c tier, ran numpy" in result.detail


@pytest.mark.skipif(not jit_supported(), reason="no in-process JIT here")
def test_the_cjit_check_leaves_no_background_build():
    before = set(threading.enumerate())
    assert check_source("(F 4)", languages=("cjit",)).status == STATUS_OK
    assert set(threading.enumerate()) == before


# Mutation checks: a printer that miscompiles must surface as a
# divergence.  Each mutant changes values only, never a subscript a
# native routine would follow out of bounds.

def test_a_flipped_sign_in_the_shared_op_renderer_diverges(monkeypatch):
    render = emit.Printer.op

    def flipped(self, inst, *subs):
        if inst.op == "+":
            inst = dataclasses.replace(inst, op="-")
        return render(self, inst, *subs)

    monkeypatch.setattr(emit.Printer, "op", flipped)
    report = run_fuzz(20, SMOKE_SEED, minimize=False)
    assert report.divergences > 0, report.describe()


def test_a_flipped_induction_step_diverges(monkeypatch):
    plan = emit.plan_inductions
    monkeypatch.setattr(
        emit, "plan_inductions",
        lambda loop: [(-step, rest, deltas)
                      for step, rest, deltas in plan(loop)])
    # NumPy's fallback loops print the plan C prints, and a wrong index
    # there is a wrong answer (or an IndexError), not a stray store.
    monkeypatch.setattr(oracle, "checked_languages",
                        lambda: ("python", "numpy"))
    report = run_fuzz(20, SMOKE_SEED, minimize=False)
    assert report.divergences > 0, report.describe()


@requires_cc
def test_a_miscompile_only_the_c_printer_makes_diverges(monkeypatch, tmp_path):
    monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path))
    const = _CPrinter.const
    monkeypatch.setattr(_CPrinter, "const",
                        lambda self, value: const(self, -value))
    report = run_fuzz(20, SMOKE_SEED, minimize=False)
    assert report.divergences > 0, report.describe()
    assert all("c backend" in failure.result.detail
               for failure in report.failures), report.describe()


def test_corpus_writer_roundtrip(tmp_path):
    from repro.fuzz.harness import (
        read_corpus_expectation,
        write_corpus_entry,
    )

    path = write_corpus_entry(tmp_path, "(compose (F 2) (F 3))\n",
                              expect=STATUS_REJECTED, kind="invalid",
                              seed=1, detail="size mismatch")
    assert path.suffix == ".spl"
    assert read_corpus_expectation(path) == STATUS_REJECTED
    text = path.read_text()
    assert "; fuzz: kind=invalid" in text
    assert "(compose (F 2) (F 3))" in text
    # The written file itself replays to the expected verdict.
    assert check_source(text).status == STATUS_REJECTED


def test_minimizer_shrinks_reproducer():
    source = "; a comment\n#subname keepme\n(compose (F 2) (F 3))\n"

    def still_fails(text: str) -> bool:
        return check_source(text).status == STATUS_REJECTED

    minimized = minimize_source(source, still_fails)
    assert "(compose (F 2) (F 3))" in minimized
    assert "; a comment" not in minimized
    assert still_fails(minimized)
