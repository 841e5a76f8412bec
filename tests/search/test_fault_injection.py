"""End-to-end fault injection: hostile codelets through the real search.

A :class:`HostileCompiler` swaps the generated C of *targeted*
candidates for code that segfaults, hangs forever, or emits NaN —
exactly what a miscompiled codelet would do.  The small-size search
must complete anyway, at any ``jobs``: hostile candidates are measured
on leased workers, reported as structured failures, quarantined, and
the winner is picked from the survivors (and still computes a correct
DFT).

This is the suite the CI fault-injection job runs under
``SPL_FAULT_INJECT=1``; it skips (never fails) without a C compiler.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplError
from repro.core.nodes import fourier
from repro.formulas import to_matrix
from repro.generator.fft_rules import enumerate_ct_formulas
from repro.perfeval.sandbox import Quarantine, SandboxPolicy
from repro.runtime.workers import supported as sandbox_supported
from repro.search.dp import search_small_sizes
from repro.search.large import LargeSearch
from repro.search.measure import measure_formulas
from tests.conftest import HAS_CC, inherited_mb

requires_sandbox = pytest.mark.skipif(
    not (HAS_CC and sandbox_supported()),
    reason="needs a C compiler and POSIX process isolation",
)

# Hostile codelet bodies, keyed by failure mode; ``{name}`` is filled
# with the candidate's routine name so the sandbox loads the saboteur
# instead of the real codelet.
HOSTILE = {
    "crash": (
        "void {name}(double *y, const double *x)\n"
        "{{\n"
        "    volatile double *p = (volatile double *)1;\n"
        "    p[0] = x[0];\n"
        "    y[0] = p[0];\n"
        "}}\n"
    ),
    "hang": (
        "void {name}(double *y, const double *x)\n"
        "{{\n"
        "    volatile int keep = 1;\n"
        "    while (keep) {{ }}\n"
        "    y[0] = x[0];\n"
        "}}\n"
    ),
    "nan": (
        "void {name}(double *y, const double *x)\n"
        "{{\n"
        "    volatile double zero = 0.0;\n"
        "    int i;\n"
        "    for (i = 0; i < 16; i++) y[i] = zero / zero;\n"
        "    (void)x;\n"
        "}}\n"
    ),
    # Reserves 3 GiB it never touches: harmless uncapped, NULL (and a
    # wild write) under an address-space cap.
    "alloc": (
        "#include <stdlib.h>\n"
        "void {name}(double *y, const double *x)\n"
        "{{\n"
        "    volatile char *p = malloc((size_t)3 << 30);\n"
        "    p[0] = 1;\n"
        "    y[0] = x[0] + p[0];\n"
        "    free((void *)p);\n"
        "}}\n"
    ),
}


class HostileCompiler(SplCompiler):
    """An SplCompiler that sabotages the C source of chosen candidates.

    ``hostile`` maps routine names (``spl_fft8_c0``...) to a failure
    mode from :data:`HOSTILE`.  Only the *source* is replaced — the
    i-code program (sizes, datatype) stays real, so every layer above
    treats the candidate as ordinary until its native code runs.
    """

    def __init__(self, options=None, *, hostile=None):
        super().__init__(options)
        self.hostile = dict(hostile or {})
        self.injected: list[str] = []

    def compile_formula(self, formula, name="spl_0", **kwargs):
        routine = super().compile_formula(formula, name, **kwargs)
        mode = self.hostile.get(routine.name)
        if mode is None:
            return routine
        self.injected.append(routine.name)
        return dataclasses.replace(
            routine, source=HOSTILE[mode].format(name=routine.name)
        )


def hostile_compiler(hostile, **options):
    options = {"unroll": True, **options}
    return HostileCompiler(
        CompilerOptions(optimize="default", datatype="complex",
                        codetype="real", language="c", **options),
        hostile=hostile,
    )


def fast_policy(**knobs):
    # A short lease keeps the suite quick: it covers execution only
    # (gcc runs before it starts), and a lease expiry is terminal, so
    # no retry ever re-waits it.
    return SandboxPolicy(timeout=0.5, backoff=0.0, **knobs)


def f8_candidates():
    """The four Equation-10 factorizations the search tries for F_8."""
    return list(enumerate_ct_formulas(8, leaf=fourier, rules=("multi",)))


@requires_sandbox
class TestHostileSearch:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_failure_mode_is_structured(self, jobs):
        # The four candidates of F_8, three of them hostile, through
        # the one measurement seam: same verdicts at any worker count.
        compiler = hostile_compiler({
            "spl_cand0": "crash",
            "spl_cand1": "hang",
            "spl_cand2": "nan",
        })
        formulas = f8_candidates()
        policy = fast_policy()
        measured = measure_formulas(
            compiler, formulas, min_time=0.001, jobs=jobs,
            sandbox=policy, quarantine=Quarantine())
        crash, hang, nan, good = measured
        assert (crash.failure.kind, crash.failure.signal) == ("crash", 11)
        assert crash.failure.attempts == policy.max_attempts
        assert (hang.failure.kind, hang.failure.attempts) == ("hang", 1)
        assert nan.failure.kind == "nan"
        assert good.ok and np.isfinite(good.seconds)
        assert all(m.sandboxed for m in measured)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_allocation_past_the_cap_dies_in_its_worker(self, jobs):
        compiler = hostile_compiler({"spl_cand0": "alloc"})
        formulas = f8_candidates()[:2]
        capped = fast_policy(memory_mb=inherited_mb() + 1024)
        hog, good = measure_formulas(
            compiler, formulas, min_time=0.001, jobs=jobs,
            sandbox=capped, quarantine=Quarantine())
        assert (hog.failure.kind, hog.failure.signal) == ("crash", 11)
        assert good.ok
        # Uncapped, the same candidate is harmless: the cap killed it.
        hog, good = measure_formulas(
            compiler, formulas, min_time=0.001, jobs=jobs,
            sandbox=fast_policy(memory_mb=0), quarantine=Quarantine())
        assert hog.ok and good.ok

    def test_large_search_survives_a_segfault_at_jobs_2(self):
        small = search_small_sizes((2, 4, 8), max_candidates=2,
                                   min_time=0.001)
        compiler = hostile_compiler({"spl_fft16_v0": "crash"},
                                    unroll=False)
        quarantine = Quarantine()
        search = LargeSearch(
            small, keep=2, max_codelet=8, radix_log2_range=(1, 2, 3),
            compiler=compiler, min_time=0.001, jobs=2,
            sandbox=fast_policy(), quarantine=quarantine)
        best = search.best_candidate(16)
        assert compiler.injected == ["spl_fft16_v0"]
        assert search.candidates_failed == 1
        assert quarantine.stats()["kinds"] == {"crash": 1}
        np.testing.assert_allclose(
            to_matrix(best.formula), to_matrix(fourier(16)), atol=1e-9)

    def test_no_parent_crash_dump_under_faulthandler(self):
        # A worker forked under faulthandler used to print "Fatal
        # Python error: Segmentation fault" and the *parent's* stack
        # when a candidate segfaulted; the structured report is enough.
        root = Path(__file__).resolve().parents[2]
        script = (
            "from repro.perfeval.sandbox import Quarantine\n"
            "from repro.search.dp import search_small_sizes\n"
            "from tests.search.test_fault_injection import (\n"
            "    fast_policy, hostile_compiler)\n"
            "compiler = hostile_compiler({'spl_fft8_c0': 'crash',\n"
            "    'spl_fft8_c1': 'hang', 'spl_fft8_c2': 'nan'})\n"
            "result = search_small_sizes((8,), compiler=compiler,\n"
            "    min_time=0.001, sandbox=fast_policy(),\n"
            "    quarantine=Quarantine())[8]\n"
            "print('failed', result.candidates_failed)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]))
        done = subprocess.run(
            [sys.executable, "-X", "faulthandler", "-c", script],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "failed 3" in done.stdout
        assert "Fatal Python error" not in done.stderr
        assert "Segmentation fault" not in done.stderr

    def test_search_survives_crash_hang_and_nan(self):
        # n=8 enumerates 4 candidates (spl_fft8_c0..c3); sabotage the
        # first three with one failure mode each and let c3 win.
        compiler = hostile_compiler({
            "spl_fft8_c0": "crash",
            "spl_fft8_c1": "hang",
            "spl_fft8_c2": "nan",
        })
        quarantine = Quarantine()
        results = search_small_sizes(
            (8,), compiler=compiler, min_time=0.001,
            sandbox=fast_policy(), quarantine=quarantine,
        )
        result = results[8]
        assert sorted(compiler.injected)[:3] == [
            "spl_fft8_c0", "spl_fft8_c1", "spl_fft8_c2"
        ]
        assert result.candidates_failed == 3
        assert result.candidates_tried == 4
        # Every failure mode landed in the quarantine.
        kinds = quarantine.stats()["kinds"]
        assert kinds == {"crash": 1, "hang": 1, "nan": 1}
        # The surviving winner still computes the 8-point DFT.
        np.testing.assert_allclose(
            to_matrix(result.formula), to_matrix(fourier(8)), atol=1e-9
        )
        assert np.isfinite(result.seconds)
        assert result.mflops > 0

    def test_quarantine_suppresses_remeasurement(self):
        hostile = {"spl_fft8_c0": "crash"}
        quarantine = Quarantine()
        first = search_small_sizes(
            (8,), compiler=hostile_compiler(hostile), min_time=0.001,
            sandbox=fast_policy(), quarantine=quarantine,
        )
        assert first[8].candidates_failed == 1
        skips_before = quarantine.skips
        # A second search generates byte-identical hostile source, so
        # its plan key hits the quarantine instead of re-crashing.
        second = search_small_sizes(
            (8,), compiler=hostile_compiler(hostile), min_time=0.001,
            sandbox=fast_policy(), quarantine=quarantine,
        )
        assert second[8].candidates_failed == 1
        assert quarantine.skips > skips_before

    def test_all_candidates_hostile_raises_with_details(self):
        # n=4 has exactly 2 candidates; kill both and the search must
        # raise a descriptive SplError, not hang or crash.
        compiler = hostile_compiler({
            "spl_fft4_c0": "crash",
            "spl_fft4_c1": "nan",
        })
        with pytest.raises(SplError, match="no measurable candidate"):
            search_small_sizes(
                (4,), compiler=compiler, min_time=0.001,
                sandbox=fast_policy(), quarantine=Quarantine(),
            )
