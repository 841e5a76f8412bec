"""The differential oracle: every way to run a program must agree.

For every formula unit in a program the oracle computes

1. the dense matrix semantics ``to_matrix(f) @ x`` (ground truth),
2. the compiled Python backend's result,
3. the compiled NumPy (batch) backend's result,
4. the gcc-built C routine's result, on a host with a C compiler,
5. the in-process JIT's result, on a host that supports it and for
   the programs it can lower (straight-line codelets),
6. the i-code interpreter's result on the compiled program,

on a deterministic random input derived from the source text.  The
native tiers run through ``build_executable(routine, prefer=...)``, the
way every other caller reaches them; a host without them skips them
(:func:`checked_languages`).  Any
disagreement is a ``diverged`` verdict; any exception that is *not* a
typed :class:`~repro.core.errors.SplError` (``RecursionError``,
``MemoryError``, assertion failures, ...) is a ``crash``.  A clean
typed rejection is ``rejected`` — the correct outcome for invalid
inputs and for programs that exceed the configured resource limits.

With ``validate_passes=True`` every compile additionally runs the
per-pass translation-validation oracle (:mod:`repro.core.validate`):
each optimizer pass must preserve the matrix the i-code denotes.  A
:class:`~repro.core.errors.SplValidationError` is a *compiler* defect,
so although it is a typed ``SplError`` it counts as ``diverged``, not
``rejected``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplError, SplValidationError
from repro.core.interpreter import run_program
from repro.core.limits import CompileLimits, DEFAULT_LIMITS

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_CRASH = "crash"
STATUS_DIVERGED = "diverged"

#: Tightened limits for fuzzing: generated programs are tiny, so any
#: run that needs more than this is itself a finding.
FUZZ_LIMITS = DEFAULT_LIMITS.with_overrides(
    max_icode_statements=100_000,
    max_unroll_statements=50_000,
    max_table_bytes=1 << 20,
    compile_deadline=10.0,
)

_NATIVE = ("c", "cjit")


def checked_languages() -> tuple[str, ...]:
    """The executable targets this host can check: Python and NumPy
    always, C with a host compiler, the JIT where it is supported."""
    from repro.perfeval.ccompile import have_c_compiler
    from repro.perfeval.jit import jit_supported

    languages = ["python", "numpy"]
    if have_c_compiler():
        languages.append("c")
    if jit_supported():
        languages.append("cjit")
    return tuple(languages)


@dataclass
class OracleResult:
    """Outcome of one differential check."""

    status: str
    detail: str = ""
    compiled: int = 0  # units that compiled and matched
    error: BaseException | None = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return self.status in (STATUS_CRASH, STATUS_DIVERGED)


def _input_vector(source: str, n: int) -> list[complex]:
    digest = hashlib.sha256(source.encode()).hexdigest()
    rng = random.Random(int(digest[:16], 16))
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(n)]


def _interleave(x: list[complex]) -> list[float]:
    buf: list[float] = []
    for value in x:
        buf.extend((value.real, value.imag))
    return buf


def _deinterleave(buf: list) -> list[complex]:
    return [complex(buf[2 * k], buf[2 * k + 1])
            for k in range(len(buf) // 2)]


def _run_native(routine, tier: str, x):
    """``routine`` applied to ``x`` on exactly the native ``tier``.

    ``build_executable`` is how every other caller reaches the native
    tiers, but it is forgiving where an oracle must not be: a build it
    cannot make falls through to NumPy, a call that faults degrades
    onto the lower tiers.  So a result that did not come from ``tier``
    raises: the host said it had the tier, so that is a crash, not a
    pass.  A gcc refusal of the generated C (``CCompileError``)
    propagates the same way.
    """
    from repro.perfeval.runner import build_executable

    executable = build_executable(routine, prefer=tier)
    got = executable.apply(x)
    if executable.backend != tier:
        raise RuntimeError(
            f"asked for the {tier} tier, ran {executable.backend}: "
            f"{executable.backend_failures or 'build fell through'}")
    return got


def check_source(source: str, *,
                 limits: CompileLimits | None = None,
                 languages: tuple[str, ...] | None = None,
                 atol: float = 1e-7,
                 validate_passes: bool = False) -> OracleResult:
    """Differentially validate one SPL source text (in every one of
    :func:`checked_languages` unless ``languages`` narrows it)."""
    import numpy as np

    from repro.formulas.matrices import to_matrix
    from repro.perfeval.jit import can_jit

    limits = limits or FUZZ_LIMITS
    if languages is None:
        languages = checked_languages()
    try:
        compiler = SplCompiler(
            CompilerOptions(validate_passes=validate_passes), limits=limits)
        program = compiler.parse(source)
        compiler.defines.update(program.defines)
        units = list(program.units)
    except SplError as exc:
        return OracleResult(STATUS_REJECTED, str(exc), error=exc)
    except BaseException as exc:  # noqa: BLE001 - any escape is a crash
        return OracleResult(
            STATUS_CRASH, f"{type(exc).__name__}: {exc}", error=exc
        )

    compiled = 0
    for unit in units:
        try:
            expected = to_matrix(unit.formula)
            x = _input_vector(source, expected.shape[1])
            want = expected @ np.asarray(x)
            tolerance = atol * max(1.0, float(np.abs(want).max(initial=0.0)))
            routine = None
            for language in languages:
                native = language in _NATIVE
                # Both native tiers run the one real program C lowers
                # to, so "cjit" reuses the routine "c" was built from.
                target = "c" if native else language
                if routine is None or routine.language != target:
                    routine = compiler.compile_formula(
                        unit.formula, name=f"{unit.name}_{target}",
                        datatype="complex", language=target, limits=limits,
                    )
                if not native:
                    got = np.asarray(routine.run(x))
                elif language == "cjit" and not can_jit(routine.program):
                    continue  # loops left: not a codelet the JIT lowers
                else:
                    got = _run_native(routine, language, np.asarray(x))
                if not np.allclose(got, want, atol=tolerance):
                    worst = float(np.abs(got - want).max())
                    return OracleResult(
                        STATUS_DIVERGED,
                        f"{unit.name}: {language} backend differs from "
                        f"dense semantics by {worst:g}",
                    )
            # The interpreter runs the last compiled unit's i-code.
            if routine is not None:
                width = routine.program.element_width
                buf = _interleave(x) if width == 2 else list(x)
                out = run_program(routine.program, buf)
                got = np.asarray(
                    _deinterleave(out) if width == 2 else out
                )
                if not np.allclose(got, want, atol=tolerance):
                    worst = float(np.abs(got - want).max())
                    return OracleResult(
                        STATUS_DIVERGED,
                        f"{unit.name}: interpreter differs from dense "
                        f"semantics by {worst:g}",
                    )
            compiled += 1
        except SplValidationError as exc:
            # A failed per-pass validation means a compiler pass
            # miscompiled the program — a defect, never a rejection.
            return OracleResult(
                STATUS_DIVERGED, f"{unit.name}: {exc}",
                compiled=compiled, error=exc,
            )
        except SplError as exc:
            return OracleResult(
                STATUS_REJECTED, f"{unit.name}: {exc}",
                compiled=compiled, error=exc,
            )
        except BaseException as exc:  # noqa: BLE001
            return OracleResult(
                STATUS_CRASH, f"{unit.name}: {type(exc).__name__}: {exc}",
                compiled=compiled, error=exc,
            )
    return OracleResult(STATUS_OK, compiled=compiled)
