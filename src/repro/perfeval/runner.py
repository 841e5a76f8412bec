"""Build executable FFTs from compiled routines, preferring native code.

The paper times Fortran compiled by the platform's best compiler; here
the timed path is the C backend compiled by the host compiler and
entered through ctypes on the caller's own memory.  Next in preference
is the NumPy batch backend (:mod:`repro.core.backend_numpy`), which
vectorizes over a batch axis and lowers affine loops to strided
slices; the pure-Python backend is the final fallback and the
correctness reference in tests.

Memory: a C-contiguous ``complex128`` row *is* the interleaved re/im
``double`` layout that ``#codetype real`` code reads and writes, so
:meth:`ExecutableRoutine.apply` and :meth:`ExecutableRoutine.
apply_many` copy nothing.  The input is taken through
``np.ascontiguousarray(x, dtype=<logical dtype>)`` — the caller's
array itself in the common case, one conversion for lists, strided
views and other dtypes — and is only ever read (the kernels take
``const double *restrict x``; read-only arrays are fine).  The result
is one fresh array of the logical dtype per call, which the kernel
writes through a ``float64`` view and the caller then owns; the
kernel's bits are returned as they are, signed zeros and infinities
included.  There are no workspaces.

Batching: ``apply`` transforms one vector per call and pays the full
per-call crossing; ``apply_many`` amortizes it over a ``(B, n)``
batch — through a generated ``spl_batch_<name>`` C driver (one ctypes
crossing per batch), one NumPy batch call, or a Python loop over the
rows.

A call runs on the calling thread: using more than one core is the
job of ``spl serve --workers N`` (one process per core), not of the
runner.

Thread-safety: a call shares no mutable state with any other — its
input belongs to the caller, its result is allocated by the call — so
one :class:`ExecutableRoutine` may be shared freely and concurrent
``apply`` and ``apply_many`` calls from many threads are safe.

Tiers: every backend is built into one frozen :class:`Tier` record —
the per-vector call, the batch-rows call and the native entry
:meth:`ExecutableRoutine.timer_closure` times.  How a tier runs a
batch (one ctypes crossing into ``spl_batch_<name>``, one NumPy batch
call, or a Python loop over the rows) is decided once, when the tier
is built.  An executable holds exactly one reference to its current
tier; ``apply`` and ``apply_many`` read it once per attempt (an atomic
attribute load, no lock), so a call can never mix two tiers'
callables.

Fault tolerance: each tier has a one-strike circuit breaker.  If a
call raises at runtime (a ``.so`` that no longer loads, a ctypes
marshalling fault, a poisoned native driver), the failure is recorded,
the breaker trips permanently for this executable, and the call is
transparently retried on the next non-native tier down the chain —
callers see a slower answer, not an exception.  Only when the last
tier fails does the error surface.  Trips are visible in
:meth:`ExecutableRoutine.stats`.

Degradation is race-free under concurrent callers: the swap runs
under a lock and compares the tier the faulting caller saw with the
current one, so when many threads fault on the same tier
simultaneously exactly one of them trips the breaker and rebuilds —
the others see a different tier already in place, skip their own
(redundant) trip, and simply retry on it.  Without the comparison,
concurrent faults would double-trip the breaker and exhaust the
fallback chain, surfacing an exception even though a healthy fallback
existed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.backend_c import emit_c
from repro.core.backend_numpy import compile_numpy
from repro.core.compiler import CompiledRoutine
from repro.core.errors import SplSemanticError
from repro.perfeval import ccompile

#: Backend preference chains: the requested backend first, then the
#: fastest available fallback (c > numpy > python).  "cjit" is the
#: in-process machine-code emitter for codelet programs; everything it
#: cannot lower falls through to the plain C path.  Nothing asks for
#: it by default: it builds in milliseconds but has no register
#: allocator, so it is an explicit ``prefer="cjit"`` tier (the fuzz
#: oracle, the cold-start gate), not a rung of the serving ladder.
_PREFERENCE = {
    "cjit": ("cjit", "c", "numpy", "python"),
    "c": ("c", "numpy", "python"),
    "numpy": ("numpy", "python"),
    "python": ("python",),
}


_COMPLEX128 = np.dtype(np.complex128)
_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class Tier:
    """One built backend: everything a call needs, immutable.

    All callables take *physical* buffers (see
    :meth:`ExecutableRoutine._physical`).  ``call`` expects a zeroed
    ``y``; ``rows`` zeroes each output row itself.
    """

    backend: str  # "cjit", "c", "numpy" or "python"
    call: Callable  # call(y, x) on 1-D buffers
    rows: Callable  # rows(Yp, Xp): every row of a 2-D batch
    native: Callable | None = None  # the ctypes entry, fn(y_ptr, x_ptr)


@dataclass
class BackendFailure:
    """One circuit-breaker trip: which backend failed doing what."""

    backend: str
    op: str  # "apply", "apply_many", "build" or "chaos" (injected trip)
    error: str


@dataclass
class ExecutableRoutine:
    """A runnable compiled routine; calls share no mutable state.

    ``fallback_chain`` lists the backends still available for runtime
    degradation; a tier whose call raises trips its breaker (one
    strike — native faults are not worth re-probing) and the routine
    swaps in the next chain entry in place, so held references keep
    working at the degraded tier.
    """

    routine: CompiledRoutine
    _tier: Tier = field(repr=False)
    fallback_chain: tuple[str, ...] = ()  # degradation targets, in order
    backend_failures: list[BackendFailure] = field(default_factory=list)
    # Serializes breaker trips; the fault-free path never takes it.
    _swap_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False, compare=False)
    _exhausted: bool = field(default=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.routine.name

    @property
    def n(self) -> int:
        return self.routine.in_size

    @property
    def backend(self) -> str:
        """The tier serving calls now: "cjit", "c", "numpy" or
        "python"."""
        return self._tier.backend

    def _dtype(self):
        program = self.routine.program
        if program.element_width == 1 and program.datatype == "complex":
            return np.complex128
        return np.float64

    @property
    def dtype(self) -> np.dtype:
        """The *logical* IO dtype of ``apply``/``apply_many``.

        Complex-datatype programs take and return ``complex128``
        vectors regardless of how the code type packs them physically
        (real code interleaves re/im into float64 buffers); real-
        datatype programs are ``float64`` end to end.  This is the
        dtype :class:`~repro.runtime.BatchDispatcher` and the serving
        front-end validate submitted vectors against.
        """
        if self.routine.program.datatype == "complex":
            return _COMPLEX128
        return _FLOAT64

    def _physical(self, a: np.ndarray) -> np.ndarray:
        """The array the generated code indexes: complex data lowered
        to real arithmetic is addressed as interleaved re/im doubles,
        which is a ``float64`` view of the same memory."""
        if self.routine.program.element_width == 2:
            return a.view(np.float64)
        return a

    # -- circuit breaker ------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once any backend breaker has tripped."""
        return bool(self.backend_failures)

    def stats(self) -> dict:
        """Backend health plus the compile-time optimizer report.

        ``compile`` carries the per-pass records the compiler gathered
        (statement/temp/scratch deltas and per-pass wall time) along
        with the scratch-memory outcome, so operators can see both how
        the routine is running *and* what the optimizer did to it.
        """
        routine = self.routine
        return {
            "backend": self.backend,
            "degraded": self.degraded,
            "fallbacks_left": self.fallback_chain,
            "failures": [
                {"backend": f.backend, "op": f.op, "error": f.error}
                for f in self.backend_failures
            ],
            "compile": {
                "scratch_bytes": routine.scratch_bytes,
                "scratch_bytes_before": routine.scratch_bytes_before,
                "temps_eliminated": routine.temps_eliminated,
                "passes": routine.pass_summary(),
            },
        }

    def _degrade(self, exc: BaseException, op: str, seen: Tier) -> bool:
        """Trip the current tier and swap in the next chain entry.

        Builds the fallback tier from ``routine`` and stores it in
        *this* object, so every held reference degrades together.
        Returns False when the chain is exhausted (the caller re-raises
        the original error).

        ``seen`` is the tier the caller read before the call that then
        failed.  The whole trip runs under ``_swap_lock``, and a
        different current tier means another thread already degraded
        the one this caller faulted on — in that case nothing is
        recorded (the breaker must trip once per tier, not once per
        concurrent caller) and True is returned so the caller simply
        retries on the new tier.
        """
        with self._swap_lock:
            if self._tier is not seen:
                return True  # lost the race: tier already swapped
            if self._exhausted:
                # The chain already ran dry on this tier: the trip is
                # recorded once, every subsequent concurrent faulter
                # just re-raises its own error.
                return False
            self.backend_failures.append(BackendFailure(
                backend=seen.backend, op=op,
                error=f"{type(exc).__name__}: {exc}",
            ))
            while self.fallback_chain:
                target, self.fallback_chain = (
                    self.fallback_chain[0], self.fallback_chain[1:]
                )
                try:
                    self._tier = _FALLBACK_BUILDERS[target](self.routine)
                    return True
                except Exception as build_exc:  # noqa: BLE001 - keep walking
                    self.backend_failures.append(BackendFailure(
                        backend=target, op="build",
                        error=f"{type(build_exc).__name__}: {build_exc}",
                    ))
            self._exhausted = True
            return False

    def trip(self, exc: BaseException) -> bool:
        """Trip the current tier's breaker as if a call on it had
        raised ``exc`` (fault injection; recorded with op "chaos").
        False when no tier is left to degrade onto."""
        return self._degrade(exc, "chaos", self._tier)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a logical input vector; complex in, complex out.

        ``x`` is read in place when it already is a contiguous array
        of :attr:`dtype` and converted once otherwise; the result is a
        fresh array.  A tier that raises mid-call trips its circuit
        breaker and the call retries on the next tier down the chain.
        """
        program = self.routine.program
        dtype = self.dtype
        x = np.ascontiguousarray(x, dtype=dtype)
        if x.shape != (program.in_size,):
            # The kernel reads in_size elements from x's address
            # whatever x holds: nothing else stands between a short
            # vector and an out-of-bounds read.
            raise SplSemanticError(
                f"{self.name} expects a ({program.in_size},) vector, "
                f"got shape {x.shape}"
            )
        y = np.zeros(program.out_size, dtype)  # the routines assume zeros
        xp, yp = self._physical(x), self._physical(y)
        while True:
            tier = self._tier
            try:
                tier.call(yp, xp)
                return y
            except Exception as exc:  # noqa: BLE001 - breaker path
                if not self._degrade(exc, "apply", tier):
                    raise
                y.fill(0)  # the failed attempt may have written some

    def apply_many(self, X: np.ndarray) -> np.ndarray:
        """Apply to a ``(B, n)`` batch of logical vectors at once.

        The whole batch crosses into the tier's batch path with
        per-batch (not per-vector) overhead: a single ctypes call into
        the generated ``spl_batch_<name>`` C driver, one call of the
        NumPy batch function, or a Python loop over the rows.  ``X``
        is read in place when it already is a C-contiguous array of
        :attr:`dtype` and converted once otherwise.  Returns a fresh
        ``(B, out_size)`` array.
        """
        program = self.routine.program
        dtype = self.dtype
        X = np.ascontiguousarray(X, dtype=dtype)
        if X.ndim != 2 or X.shape[1] != program.in_size:
            raise SplSemanticError(
                f"{self.name} expects a (B, {program.in_size}) batch, "
                f"got shape {X.shape}"
            )
        batch = X.shape[0]
        Y = np.empty((batch, program.out_size), dtype)
        Xp, Yp = self._physical(X), self._physical(Y)
        while True:
            # One tier for the whole attempt: a breaker swap concurrent
            # with this call cannot mix two.
            tier = self._tier
            try:
                tier.rows(Yp, Xp)
                return Y
            except Exception as exc:  # noqa: BLE001 - breaker path
                # Partial rows are harmless: every retried path zeroes
                # each output row before writing it.
                if not self._degrade(exc, "apply_many", tier):
                    raise

    def timer_closure(self) -> Callable[[], None]:
        """A zero-argument closure suitable for tight timing loops."""
        program = self.routine.program
        width = program.element_width
        rng = np.random.default_rng(0)
        x = np.ascontiguousarray(
            rng.standard_normal(program.in_size * width),
            dtype=np.float64,
        ).astype(self._dtype())
        y = np.zeros(program.out_size * width, dtype=self._dtype())
        tier = self._tier
        if tier.native is not None:
            # ctypes raw function: bypass the wrapper's numpy handling.
            fn, yp, xp = tier.native, ccompile.address(y), ccompile.address(x)
        else:
            fn, yp, xp = tier.call, y, x

        def call() -> None:
            fn(yp, xp)

        call._keepalive = (x, y)
        return call


def _native_tier(backend: str, fn: Callable,
                 batch_fn: Callable | None) -> Tier:
    """A tier over native entries that take data pointers: ``fn(y, x)``
    and the batch driver ``batch_fn(y, x, batch)`` (None when the
    routine has none: strided programs get a Python loop over the
    rows)."""
    address = ccompile.address

    def call(y: np.ndarray, x: np.ndarray, *args) -> None:
        fn(address(y), address(x), *args)

    def rows(Yp: np.ndarray, Xp: np.ndarray) -> None:
        batch_fn(address(Yp), address(Xp), len(Yp))

    return Tier(backend, call,
                rows if batch_fn is not None else _row_loop(call),
                native=fn)


def _row_loop(call: Callable) -> Callable:
    """``rows`` for a tier with no batch entry: one ``call`` per row."""

    def rows(Yp: np.ndarray, Xp: np.ndarray) -> None:
        for y, x in zip(Yp, Xp):
            y.fill(0)
            call(y, x)

    return rows


def _build_cjit(routine: CompiledRoutine) -> Tier:
    """Build the in-process JIT tier for a codelet program.

    Raises :class:`~repro.perfeval.jit.JitError` for programs the
    emitter cannot lower; ``build_executable`` pre-checks eligibility
    and falls through to the plain C path instead.
    """
    from repro.perfeval import jit

    jitted = jit.compile_jit(routine.program)
    return _native_tier("cjit", jitted.fn, jitted.batch_fn)


def c_build_spec(routine: CompiledRoutine, cflags: tuple[str, ...] = (),
                 ) -> tuple[str, tuple[str, ...]]:
    """The exact ``compile_shared_object`` inputs for one C routine,
    ``(source, cflags)``: what :func:`build_executable` compiles on
    every host, and what wisdom packs bundle so their artifacts
    cache-hit on any replica, a gcc-less one included."""
    program = routine.program
    source = (
        routine.source if routine.language in ("c", "cjit")
        else emit_c(program)
    )
    if not program.strided:
        source += ccompile.batch_driver_source(
            routine.name,
            in_len=program.in_size * program.element_width,
            out_len=program.out_size * program.element_width,
        )
    return source, tuple(cflags)


def _build_c(routine: CompiledRoutine,
             cflags: tuple[str, ...]) -> Tier:
    program = routine.program
    source, cflags = c_build_spec(routine, cflags)
    so_path = ccompile.compile_shared_object(source, cflags=cflags)
    fn = ccompile.load_function(so_path, routine.name,
                                strided=program.strided)
    batch_fn = None
    if not program.strided:
        batch_fn = ccompile.load_batch_function(so_path, routine.name)
    return _native_tier("c", fn, batch_fn)


def _build_numpy(routine: CompiledRoutine) -> Tier:
    batch_call = compile_numpy(routine.program)

    def call(y: np.ndarray, x: np.ndarray) -> None:
        # Run the batch function on a degenerate B=1 batch (reshape on
        # contiguous 1-D buffers is a view, so y is written in place).
        batch_call(y.reshape(1, -1), x.reshape(1, -1))

    def rows(Yp: np.ndarray, Xp: np.ndarray) -> None:
        Yp.fill(0)
        batch_call(Yp, Xp)

    return Tier("numpy", call, rows)


def _build_python(routine: CompiledRoutine) -> Tier:
    from repro.core.backend_python import compile_python

    python_fn = compile_python(routine.program)

    # The generated Python mutates any indexable in place: hand it the
    # numpy buffers directly (no per-call list round-trip).
    def call(y: np.ndarray, x: np.ndarray) -> None:
        y.fill(0)
        python_fn(y, x)

    return Tier("python", call, _row_loop(call))


#: What a tripped breaker may degrade onto: never a native tier (a
#: native fault is no reason to trust another native build).
_FALLBACK_BUILDERS = {"numpy": _build_numpy, "python": _build_python}


def build_executable(routine: CompiledRoutine,
                     prefer: str = "c",
                     cflags: tuple[str, ...] = ()) -> ExecutableRoutine:
    """Compile a routine to an executable, preferring the fastest path.

    ``prefer`` names the first backend to try; remaining candidates
    follow the ``cjit > c > numpy > python`` order (a missing C
    compiler, or a complex-native program the C backend cannot
    express, falls through to the NumPy batch backend, then pure
    Python).  ``prefer="cjit"`` makes codelet programs executable
    immediately — machine code emitted in-process, no subprocess — and
    keeps them there; non-codelet programs fall through to the plain C
    path unchanged.

    The C tier is built for the host's ISA by default (``-march=native``
    where :func:`~repro.perfeval.ccompile.host_isa` knows it).
    ``SPL_CFLAGS`` in the environment and then ``cflags`` append
    host-compiler flags to that default (e.g. ``("-O0",)`` to model a
    weak back-end compiler in ablation experiments, or
    ``("-march=x86-64",)`` for the portable build, since gcc takes the
    last ``-march``).
    """
    chain = _PREFERENCE.get(prefer)
    if chain is None:
        raise SplSemanticError(
            f"prefer must be one of {tuple(_PREFERENCE)}, got {prefer!r}"
        )
    last_error: Exception | None = None
    for position, backend in enumerate(chain):
        if backend == "cjit":
            from repro.perfeval import jit

            if not (jit.jit_supported() and jit.can_jit(routine.program)):
                continue  # not a codelet — the plain C path is next
            try:
                tier = _build_cjit(routine)
            except SplSemanticError as exc:
                last_error = exc
                continue
        elif backend == "c":
            # No upfront have_c_compiler() gate: the shared-object
            # cache is consulted before the toolchain, so a host
            # booting from a wisdom pack's bundled artifacts serves
            # the C tier with no compiler at all.
            try:
                tier = _build_c(routine, cflags)
            except SplSemanticError as exc:
                last_error = exc  # e.g. complex-native program
                continue
            except ccompile.CCompileError as exc:
                if ccompile.have_c_compiler():
                    raise  # a real compile failure, not a missing cc
                last_error = exc
                continue
        else:
            tier = _FALLBACK_BUILDERS[backend](routine)
        # The non-native backends below the chosen one arm the runtime
        # circuit breaker: a tier that faults mid-call degrades onto
        # them.
        return ExecutableRoutine(
            routine, tier,
            fallback_chain=tuple(b for b in chain[position + 1:]
                                 if b in _FALLBACK_BUILDERS))
    raise last_error if last_error is not None else SplSemanticError(
        f"no executable backend available for {routine.name}"
    )
