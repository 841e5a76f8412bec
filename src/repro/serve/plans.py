"""Plan construction and caching for the transform service.

A *plan* is the executable behind one ``(transform, n, dtype)`` route:
a compiled :class:`~repro.perfeval.runner.ExecutableRoutine` on the
fastest available backend, with its circuit-breaker fallback chain
armed.  The registry caches each plan it builds (the server asks it
once per route) and can *boot hot* from a wisdom store: when the
store holds a search winner for an FFT size, its formula is
re-validated and compiled instead of the default factorization —
first-request latency pays one compile, never a search.

Supported routes:

* ``fft`` / ``complex128`` — the n-point DFT.  Sizes that factor into
  the greedy small-leaf decomposition get the Equation 10 multi-factor
  formula; other sizes up to ``MAX_DIRECT_FFT`` compile the direct
  ``(F n)`` definition.
* ``wht`` / ``float64`` — the Walsh-Hadamard transform, power-of-two
  sizes (the real-datatype workload, exercising float64 routing).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiler import CompiledRoutine, CompilerOptions, SplCompiler
from repro.core.errors import SplError, SplSemanticError
from repro.core.nodes import Formula
from repro.core.parser import parse_formula_text
from repro.formulas.factorization import ct_multi, wht_multi
from repro.perfeval.runner import ExecutableRoutine, build_executable
from repro.search.dp import SMALL_TRANSFORM, default_small_compiler
from repro.search.measure import validate_fft_formula
from repro.serve.errors import BadRequest
from repro.serve.protocol import DTYPES
from repro.wisdom.store import WisdomStore

#: Largest size compiled from the direct ``(F n)`` definition when the
#: greedy factorization does not reproduce ``n`` (direct DFT code is
#: O(n^2) statements once unrolled — keep it small).
MAX_DIRECT_FFT = 64

#: Largest plannable size, a resource-governance backstop mirroring
#: the compile limits: one hostile header must not trigger a gigabyte
#: codegen run.
MAX_PLAN_SIZE = 1 << 16

#: The backends a registry may be asked to head its chain with; each
#: is also the language its plans are compiled under.
PLAN_BACKENDS = ("c", "numpy", "python")


@dataclass(frozen=True)
class PlanKey:
    """One route: the (transform, n, dtype) triple requests carry."""

    transform: str
    n: int
    dtype: str  # wire name, e.g. "complex128"

    @classmethod
    def from_header(cls, header: dict) -> "PlanKey":
        transform = header.get("transform")
        n = header.get("n")
        # A route without a dtype is the one its transform serves.
        dtype = header.get("dtype",
                           "float64" if transform == "wht" else "complex128")
        if not isinstance(transform, str):
            raise BadRequest("missing or non-string 'transform'")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise BadRequest(f"bad transform size {n!r}")
        if not isinstance(dtype, str) or dtype not in DTYPES:
            raise BadRequest(
                f"unsupported dtype {dtype!r} (expected one of "
                f"{sorted(DTYPES)})"
            )
        return cls(transform=transform, n=n, dtype=dtype)

    @classmethod
    def parse(cls, spec: str) -> "PlanKey":
        """The route ``transform:n[:dtype]`` names (``fft:64``,
        ``wht:8``), under the same rules as a request header."""
        parts = spec.split(":")
        if len(parts) not in (2, 3) or not parts[1].isdecimal():
            raise BadRequest(
                f"bad route {spec!r} (want transform:n[:dtype])")
        header = dict(zip(("transform", "n", "dtype"), parts))
        header["n"] = int(parts[1])
        return cls.from_header(header)

    def describe(self) -> str:
        return f"{self.transform}:{self.n}:{self.dtype}"


@dataclass
class Plan:
    """A built route: the executable plus its provenance."""

    key: PlanKey
    executable: ExecutableRoutine
    from_wisdom: bool = False


def fft_factors(n: int) -> list[int] | None:
    """Greedy small-leaf factorization; None when it cannot hit ``n``
    exactly (odd or prime-heavy sizes fall back to the direct DFT)."""
    factors: list[int] = []
    remaining = n
    while remaining > 8:
        if remaining % 4 == 0:
            factors.append(4)
            remaining //= 4
        elif remaining % 2 == 0:
            factors.append(2)
            remaining //= 2
        else:
            return None
    factors.append(remaining)
    if factors[-1] < 2:
        return None
    prod = 1
    for f in factors:
        prod *= f
    return factors if prod == n else None


def plan_session(sessions: dict[int, SplCompiler],
                 threshold: int | None) -> SplCompiler:
    """The compiler session for one ``-B`` unroll threshold, made on
    first use and kept in ``sessions`` (``compile_formula`` memoizes
    per session).  None is the serving default, 16; a wisdom winner
    whose search swept ``-B`` compiles under the threshold that won."""
    threshold = 16 if threshold is None else threshold
    session = sessions.get(threshold)
    if session is None:
        session = sessions.setdefault(threshold, SplCompiler(
            CompilerOptions(codetype="real", unroll_threshold=threshold)))
    return session


def compile_plan(sessions: dict[int, SplCompiler], formula: Formula,
                 transform: str, n: int, *, datatype: str,
                 threshold: int | None, language: str) -> CompiledRoutine:
    """The routine behind route ``transform:n``: the one place that
    fixes a plan's compiler options and routine name.
    :meth:`PlanRegistry.get` serves what this returns and ``spl pack
    build`` bundles its shared object, so a pack's artifact is the
    cache entry a booting registry asks for."""
    return plan_session(sessions, threshold).compile_formula(
        formula, f"serve_{transform}{n}", datatype=datatype,
        language=language)


class PlanRegistry:
    """Build-once cache of executables keyed by :class:`PlanKey`.

    ``wisdom`` (optional) is consulted for FFT formulas before the
    default factorization; replayed entries are re-validated against
    ``numpy.fft`` via the interpreter and evicted on mismatch, so a
    stale or tampered store degrades to a cold build, never to wrong
    answers.  ``prefer`` picks the backend chain head, one of
    :data:`PLAN_BACKENDS` (default ``c``: ``build_executable``
    consults the shared-object cache before the toolchain, so a
    gcc-less host serves a pack's bundled artifacts, and falls through
    to NumPy when it has neither).
    """

    def __init__(self, *, prefer: str | None = None,
                 wisdom: WisdomStore | None = None,
                 wisdom_source: str | None = None):
        prefer = "c" if prefer is None else prefer
        if prefer not in PLAN_BACKENDS:
            raise SplSemanticError(
                f"prefer must be one of {PLAN_BACKENDS}, got {prefer!r}")
        self.prefer = prefer
        self.wisdom = wisdom
        # Provenance label for stats(): "pack" (integrity-verified
        # deployment pack), "store" (mutable wisdom file), "none".
        if wisdom_source is None:
            wisdom_source = "store" if wisdom is not None else "none"
        self.wisdom_source = wisdom_source
        self._plans: dict[PlanKey, Plan] = {}
        # Compiler sessions live as long as the registry, so
        # re-building a route after a restart-less eviction is free.
        self._sessions: dict[int, SplCompiler] = {}
        self._compiler = plan_session(self._sessions, None)
        # Wisdom entries are keyed by the *search* compiler's options;
        # use the same options object so lookups actually hit.
        self._wisdom_options = default_small_compiler().options

    # -- formula selection ------------------------------------------------

    def _fft_formula(self, n: int) -> tuple[Formula, bool, int | None]:
        """(formula, from_wisdom, unroll threshold) for an n-point DFT.

        The threshold is non-None only for wisdom winners whose search
        swept ``-B``; the plan is then compiled under that threshold.
        """
        if self.wisdom is not None:
            replayed: dict[str, object] = {}

            def check(entry) -> bool:
                formula = parse_formula_text(entry.formula,
                                             self._compiler.defines)
                if not validate_fft_formula(self._compiler, formula, n):
                    return False
                replayed["formula"] = formula
                replayed["threshold"] = entry.meta.get("unroll_threshold")
                return True

            entry = self.wisdom.validated_lookup(
                SMALL_TRANSFORM, n, self._wisdom_options, validate=check)
            if entry is not None:
                return (replayed["formula"], True,
                        replayed.get("threshold"))
        factors = fft_factors(n)
        if factors is not None:
            return ct_multi(factors), False, None
        if n <= MAX_DIRECT_FFT:
            return parse_formula_text(f"(F {n})",
                                      self._compiler.defines), False, None
        raise BadRequest(
            f"fft size {n} is not plannable (not smooth, and too "
            f"large for the direct definition)"
        )

    def _formula(self, key: PlanKey) -> tuple[Formula, bool, str,
                                              int | None]:
        """(formula, from_wisdom, datatype, threshold) for one route."""
        if key.n > MAX_PLAN_SIZE:
            raise BadRequest(
                f"transform size {key.n} exceeds the serving limit "
                f"{MAX_PLAN_SIZE}"
            )
        if key.transform == "fft":
            if key.dtype != "complex128":
                raise BadRequest("fft serves dtype complex128 only")
            formula, from_wisdom, threshold = self._fft_formula(key.n)
            return formula, from_wisdom, "complex", threshold
        if key.transform == "wht":
            if key.dtype != "float64":
                raise BadRequest("wht serves dtype float64 only")
            k = key.n.bit_length() - 1
            if key.n < 2 or (1 << k) != key.n:
                raise BadRequest(
                    f"wht size {key.n} is not a power of two")
            # Balanced split: radix-4 stages, one radix-2 remainder.
            exponents = [2] * (k // 2) + ([1] if k % 2 else [])
            return wht_multi(exponents), False, "real", None
        raise BadRequest(
            f"unknown transform {key.transform!r} "
            f"(supported: fft, wht)"
        )

    # -- the cache --------------------------------------------------------

    def get(self, key: PlanKey) -> Plan:
        """The plan for ``key``, building it on first use.

        Lock-free: two threads racing on one cold key both compile,
        and both get the plan stored first.  Raises
        :class:`~repro.serve.errors.BadRequest` for unroutable keys;
        compile failures surface as :class:`~repro.core.errors.SplError`
        (which the server turns into ``BadRequest``: the route is
        unplannable).
        """
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        formula, from_wisdom, datatype, threshold = self._formula(key)
        routine = compile_plan(
            self._sessions, formula, key.transform, key.n,
            datatype=datatype, threshold=threshold, language=self.prefer)
        executable = build_executable(routine, prefer=self.prefer)
        if executable.dtype != DTYPES[key.dtype]:
            raise SplError(
                f"route {key.describe()} compiled to dtype "
                f"{executable.dtype}"
            )
        return self._plans.setdefault(key, Plan(
            key=key, executable=executable, from_wisdom=from_wisdom))

    def stats(self) -> dict:
        plans = list(self._plans.values())  # one step: no torn read
        return {
            "plans": len(plans),
            "builds": len(plans),
            "wisdom_boots": sum(plan.from_wisdom for plan in plans),
            "prefer": self.prefer,
            "wisdom_attached": self.wisdom is not None,
            "wisdom_source": self.wisdom_source,
        }
