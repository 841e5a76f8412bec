"""Tests for isolated candidate measurement (hostile-codelet suite).

Each hostile fixture is a syntactically valid SPL-style C routine that
misbehaves at runtime — segfault, infinite loop, NaN output — plus one
that does not compile at all.  ``measure_formulas`` must convert every
one of them into a structured :class:`CandidateFailure` (never an
exception, never a hung test run) and remember it in the quarantine.
"""

import math
from types import SimpleNamespace

import pytest

from repro.perfeval.sandbox import (
    CandidateFailure,
    Quarantine,
    SandboxPolicy,
    default_quarantine,
    plan_key,
    sandbox_supported,
    source_key,
)
from repro.search.measure import measure_formulas
from tests.conftest import HAS_CC

requires_sandbox = pytest.mark.skipif(
    not (HAS_CC and sandbox_supported()),
    reason="needs a C compiler and POSIX process isolation",
)

# -- hostile codelet fixtures -------------------------------------------

GOOD_SOURCE = """
void good8(double *y, const double *x)
{
    int i;
    for (i = 0; i < 8; i++) y[i] = 2.0 * x[i];
}
"""

SEGFAULT_SOURCE = """
void crash8(double *y, const double *x)
{
    volatile double *p = (volatile double *)1;
    p[0] = x[0];  /* write through a wild pointer */
    y[0] = p[0];
}
"""

HANG_SOURCE = """
void hang8(double *y, const double *x)
{
    volatile int keep = 1;
    while (keep) { }
    y[0] = x[0];
}
"""

NAN_SOURCE = """
void nan8(double *y, const double *x)
{
    volatile double zero = 0.0;
    int i;
    for (i = 0; i < 8; i++) y[i] = zero / zero;
    (void)x;
}
"""

BROKEN_SOURCE = "void broken8(double *y, const double *x) { this is not C"


class RawC:
    """Stands in for the SPL compiler: each "formula" is already the C
    source of an 8-in/8-out routine called ``name``."""

    def __init__(self, name):
        self.name = name

    def compile_formula(self, formula, name, language="c"):
        return SimpleNamespace(
            source=formula, name=self.name, in_size=8,
            program=SimpleNamespace(in_size=8, out_size=8,
                                    element_width=1, strided=False))


def measure(source, name, *, quarantine, timeout=10.0, policy=None):
    policy = policy or SandboxPolicy(timeout=timeout, backoff=0.0)
    [measurement] = measure_formulas(
        RawC(name), [source], sandbox=policy, min_time=0.0005,
        quarantine=quarantine)
    assert measurement.sandboxed
    return measurement


class TestKeys:
    def test_plan_key_stable_and_distinct(self):
        assert plan_key("a", 1) == plan_key("a", 1)
        assert plan_key("a", 1) != plan_key("a", 2)
        assert len(plan_key("x")) == 32

    def test_source_key_covers_flags(self):
        assert source_key("src") == source_key("src")
        assert source_key("src") != source_key("src", ("-O0",))
        assert source_key("src") != source_key("other")


class TestQuarantine:
    def _failure(self, key="k1", kind="crash"):
        return CandidateFailure(kind=kind, plan_key=key)

    def test_add_check_and_skip_counter(self):
        q = Quarantine()
        assert q.check("k1") is None
        assert q.skips == 0
        q.add(self._failure())
        assert "k1" in q
        assert len(q) == 1
        assert q.check("k1").kind == "crash"
        assert q.skips == 1

    def test_stats_and_describe(self):
        q = Quarantine()
        q.add(self._failure("k1", "crash"))
        q.add(self._failure("k2", "hang"))
        stats = q.stats()
        assert stats["entries"] == 2
        assert stats["kinds"] == {"crash": 1, "hang": 1}
        assert "crash=1" in q.describe()

    def test_clear(self):
        q = Quarantine()
        q.add(self._failure())
        q.clear()
        assert len(q) == 0

    def test_default_quarantine_is_shared(self):
        assert default_quarantine() is default_quarantine()

    @requires_sandbox
    def test_empty_quarantine_is_still_used(self):
        # Regression: an *empty* Quarantine is falsy (len == 0); the
        # sandbox must not silently substitute the process-wide one.
        q = Quarantine()
        assert not q  # the hazard under test
        failure = measure(
            "nonsense", "nope", quarantine=q,
            policy=SandboxPolicy(max_attempts=1, backoff=0.0),
        ).failure
        assert isinstance(failure, CandidateFailure)
        assert failure.plan_key in q


class TestSandboxPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = SandboxPolicy(backoff=0.1)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)
        assert policy.backoff_s(30) == pytest.approx(2.0)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SandboxPolicy(max_attempts=0)


class TestFailureDescribe:
    def test_describe_mentions_kind_and_signal(self):
        failure = CandidateFailure(kind="crash", plan_key="deadbeef" * 4,
                                   signal=11, attempts=1)
        text = failure.describe()
        assert "crash" in text
        assert "signal 11" in text


@requires_sandbox
class TestSandboxOutcomes:
    def test_good_candidate_returns_timing(self):
        q = Quarantine()
        result = measure(GOOD_SOURCE, "good8", quarantine=q)
        assert result.ok
        assert result.seconds > 0
        assert math.isfinite(result.seconds)
        assert len(q) == 0

    def test_segfault_reported_as_crash(self):
        q = Quarantine()
        failure = measure(SEGFAULT_SOURCE, "crash8", quarantine=q).failure
        assert failure.kind == "crash"
        assert failure.signal == 11  # SIGSEGV
        # A lost worker may be the host's doing (OOM killer), so it is
        # retried up to the cap before the candidate is blamed.
        assert failure.attempts == SandboxPolicy().max_attempts
        assert failure.plan_key in q

    def test_infinite_loop_reported_as_hang(self):
        q = Quarantine()
        failure = measure(HANG_SOURCE, "hang8", quarantine=q,
                          timeout=0.3).failure
        assert failure.kind == "hang"
        assert failure.attempts == 1  # a lease expiry is terminal
        assert failure.plan_key in q

    def test_nan_output_rejected(self):
        q = Quarantine()
        result = measure(NAN_SOURCE, "nan8", quarantine=q)
        assert not result.ok
        assert result.seconds == math.inf
        assert result.failure.kind == "nan"
        assert result.failure.plan_key in q

    def test_nan_check_can_be_disabled(self):
        q = Quarantine()
        result = measure(
            NAN_SOURCE, "nan8", quarantine=q,
            policy=SandboxPolicy(timeout=10.0, backoff=0.0,
                                 check_output=False),
        )
        assert result.ok

    def test_compile_failure_is_retried_to_the_cap(self):
        q = Quarantine()
        failure = measure(BROKEN_SOURCE, "broken8", quarantine=q).failure
        assert failure.kind == "compile"
        assert failure.attempts == SandboxPolicy().max_attempts
        assert "CCompileError" in failure.detail  # compiler stderr kept

    def test_quarantined_candidate_is_never_rerun(self):
        q = Quarantine()
        first = measure(SEGFAULT_SOURCE, "crash8", quarantine=q).failure
        assert first is not None
        skips_before = q.skips
        again = measure(SEGFAULT_SOURCE, "crash8", quarantine=q).failure
        assert again is first  # the remembered failure, not a re-run
        assert q.skips == skips_before + 1

    def test_plan_key_is_the_source_hash(self):
        q = Quarantine()
        failure = measure(SEGFAULT_SOURCE, "crash8", quarantine=q).failure
        assert failure.plan_key == source_key(SEGFAULT_SOURCE)
