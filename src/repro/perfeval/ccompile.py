"""Compile generated C code with the host compiler and load via ctypes.

This is the reproduction's stand-in for the paper's back-end Fortran/C
compilers (Workshop 5.0, MIPSpro, egcs): generated routines are
compiled at maximum optimization and timed as native code.

Shared objects are cached by source hash under a build directory, so
repeated searches do not recompile identical candidates.  The cache key
covers the full flag set (defaults + OpenMP + extra flags + caller
flags) as well as the source, so artifacts never leak across flag sets.

Extra flags: ``SPL_CFLAGS`` (e.g. ``SPL_CFLAGS=-march=native``) appends
host-compiler flags to every compilation.  OpenMP: :func:`have_openmp`
probes the toolchain once (compile a trivial ``#pragma omp`` program),
and :func:`batch_driver_source` can emit a parallel ``spl_batch_omp_*``
driver next to the serial one; callers fall back to single-threaded
drivers when the probe fails.  :func:`have_openmp_simd` survives only
for ``bench/layers.py`` l.52 until ROADMAP item 11(e); nothing here
passes the flag it probes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path

_DEFAULT_CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-math-errno")

_OPENMP_CFLAGS = ("-fopenmp",)

_OPENMP_SIMD_CFLAGS = ("-fopenmp-simd",)  # probed, never passed

#: Stderr of the last failed OpenMP probe per (compiler, flags) — kept
#: so callers can surface *why* OpenMP is off instead of silently
#: degrading (see :func:`openmp_probe_error`).
_PROBE_ERRORS: dict[tuple[str, tuple[str, ...]], str] = {}


def compile_timeout() -> float:
    """Wall-clock budget for one host-compiler invocation (seconds).

    Overridable via ``SPL_CC_TIMEOUT``; the default is generous — its
    job is to catch a wedged compiler (OOM thrash, broken toolchain),
    not to race normal builds.
    """
    try:
        value = float(os.environ.get("SPL_CC_TIMEOUT", "") or 120.0)
    except ValueError:
        return 120.0
    return value if value > 0 else 120.0

_OPENMP_PROBE = (
    "#include <omp.h>\n"
    "int spl_omp_probe(void) { return omp_get_max_threads(); }\n"
)

_OPENMP_SIMD_PROBE = (
    "double spl_simd_probe(const double *x, int n) {\n"
    "    double acc = 0.0;\n"
    "    int i;\n"
    "    #pragma omp simd reduction(+:acc)\n"
    "    for (i = 0; i < n; i++) acc += x[i];\n"
    "    return acc;\n"
    "}\n"
)


class CCompileError(RuntimeError):
    """Raised when the host C compiler fails (or does not exist)."""


def have_c_compiler() -> bool:
    return _find_compiler() is not None


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def extra_cflags() -> tuple[str, ...]:
    """Opt-in extra host-compiler flags from ``SPL_CFLAGS``.

    Parsed with shell quoting (``SPL_CFLAGS="-march=native -funroll-loops"``).
    These participate in the shared-object cache key and in the wisdom
    platform fingerprint, so changing them never reuses stale artifacts.
    """
    value = os.environ.get("SPL_CFLAGS", "")
    return tuple(shlex.split(value)) if value.strip() else ()


@lru_cache(maxsize=None)
def _probe_openmp(compiler: str, flags: tuple[str, ...]) -> bool:
    # lru_cache makes the probe once-per-session for each (compiler,
    # flags) pair — a failed probe is cached too, so it is never
    # re-run on every compile.
    build_dir = default_build_dir()
    c_path = build_dir / "spl_omp_probe.c"
    so_path = build_dir / "spl_omp_probe.so"
    try:
        c_path.write_text(_OPENMP_PROBE)
        result = subprocess.run(
            [compiler, *_DEFAULT_CFLAGS, *flags, *_OPENMP_CFLAGS,
             str(c_path), "-o", str(so_path)],
            capture_output=True, text=True, timeout=compile_timeout(),
        )
    except subprocess.TimeoutExpired as exc:
        _PROBE_ERRORS[(compiler, flags)] = (
            f"probe timed out after {exc.timeout:g}s"
        )
        return False
    except OSError as exc:
        _PROBE_ERRORS[(compiler, flags)] = f"probe failed to run: {exc}"
        return False
    if result.returncode != 0:
        _PROBE_ERRORS[(compiler, flags)] = result.stderr.strip()
        return False
    return result.returncode == 0


def openmp_probe_error() -> str | None:
    """Why the last OpenMP probe failed (None when it succeeded).

    Probes are cached per session (see :func:`_probe_openmp`), so this
    reflects the one probe actually run for the current compiler and
    ``SPL_CFLAGS``, not a per-compile re-probe.
    """
    compiler = _find_compiler()
    if compiler is None:
        return "no C compiler (cc/gcc/clang) on PATH"
    if _probe_openmp(compiler, extra_cflags()):
        return None
    return _PROBE_ERRORS.get((compiler, extra_cflags()),
                             "probe failed (no diagnostics captured)")


def have_openmp() -> bool:
    """True when the host toolchain compiles ``-fopenmp`` code.

    The probe result is cached per (compiler, extra flags); a missing
    compiler probes as False so callers can fall back to single-thread
    drivers unconditionally.
    """
    compiler = _find_compiler()
    if compiler is None:
        return False
    return _probe_openmp(compiler, extra_cflags())


@lru_cache(maxsize=None)
def _probe_openmp_simd(compiler: str, flags: tuple[str, ...]) -> bool:
    build_dir = default_build_dir()
    c_path = build_dir / "spl_simd_probe.c"
    so_path = build_dir / "spl_simd_probe.so"
    try:
        c_path.write_text(_OPENMP_SIMD_PROBE)
        result = subprocess.run(
            [compiler, *_DEFAULT_CFLAGS, *flags, *_OPENMP_SIMD_CFLAGS,
             str(c_path), "-o", str(so_path)],
            capture_output=True, text=True, timeout=compile_timeout(),
        )
    except (subprocess.TimeoutExpired, OSError):
        return False
    return result.returncode == 0


def have_openmp_simd() -> bool:
    """True when the toolchain accepts ``-fopenmp-simd``.

    Nothing compiles with that flag any more: the probe survives only
    for ``bench/layers.py`` l.52 until ROADMAP item 11(e).  Cached per
    (compiler, extra flags), like the OpenMP one.
    """
    compiler = _find_compiler()
    if compiler is None:
        return False
    return _probe_openmp_simd(compiler, extra_cflags())


def default_build_dir() -> Path:
    root = os.environ.get("SPL_BUILD_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(tempfile.gettempdir()) / "spl-build"
    path.mkdir(parents=True, exist_ok=True)
    return path


def shared_object_cache_key(source: str, *, cflags: tuple[str, ...] = (),
                            openmp: bool = False) -> str:
    """The cache digest :func:`compile_shared_object` would use.

    Exposed so wisdom packs can pre-seed the shared-object cache: an
    artifact published under this digest (as ``spl_<digest>.so`` in
    the build dir) is served as a cache hit by a later
    ``compile_shared_object`` call with the same inputs — without ever
    invoking the host toolchain.  The digest folds in the effective
    flag set, so it is only portable between hosts that agree on
    ``SPL_CFLAGS`` and the OpenMP probe outcome.
    """
    flags = _DEFAULT_CFLAGS + extra_cflags() + tuple(cflags)
    if openmp:
        flags += _OPENMP_CFLAGS
    return hashlib.sha256(
        ("\x00".join(flags) + "\x01" + source).encode()
    ).hexdigest()[:24]


def compile_shared_object(source: str, *, cflags: tuple[str, ...] = (),
                          build_dir: Path | None = None,
                          openmp: bool = False) -> Path:
    """Compile C ``source`` into a cached shared object, returning its path.

    ``openmp=True`` adds the OpenMP flags (the caller is expected to
    have checked :func:`have_openmp`); ``SPL_CFLAGS`` appends extra
    flags.  Both are folded into the cache key together with ``cflags``
    and the source, so e.g. the threaded and serial builds of one
    routine never collide.

    The cache is consulted *before* the toolchain is located: a host
    without any C compiler still serves cache hits, which is what lets
    a replica boot hot from a wisdom pack's bundled artifacts.
    """
    build_dir = build_dir or default_build_dir()
    digest = shared_object_cache_key(source, cflags=cflags, openmp=openmp)
    so_path = build_dir / f"spl_{digest}.so"
    if so_path.exists():
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        raise CCompileError("no C compiler (cc/gcc/clang) on PATH")
    flags = _DEFAULT_CFLAGS + extra_cflags() + tuple(cflags)
    if openmp:
        flags += _OPENMP_CFLAGS
    c_path = build_dir / f"spl_{digest}.c"
    c_path.write_text(source)
    # Compile to a private temp name, then atomically publish: a
    # killed/timed-out compile never leaves a truncated .so in the
    # cache, and concurrent compiles of the same digest don't trample
    # each other's output mid-write.
    tmp_path = build_dir / f"spl_{digest}.{os.getpid()}.tmp.so"
    timeout = compile_timeout()
    try:
        result = subprocess.run(
            [compiler, *flags, str(c_path), "-o", str(tmp_path), "-lm"],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        tmp_path.unlink(missing_ok=True)
        stderr = exc.stderr or ""
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        raise CCompileError(
            f"C compilation timed out after {timeout:g}s "
            f"(set SPL_CC_TIMEOUT to raise)\n{stderr}".rstrip()
        ) from exc
    if result.returncode != 0:
        tmp_path.unlink(missing_ok=True)
        raise CCompileError(
            f"C compilation failed:\n{result.stderr}\n--- source ---\n"
            + "\n".join(
                f"{i + 1:4d} {line}"
                for i, line in enumerate(source.split("\n")[:60])
            )
        )
    try:
        os.replace(tmp_path, so_path)
    except OSError as exc:
        tmp_path.unlink(missing_ok=True)
        if not so_path.exists():  # a concurrent winner is fine
            raise CCompileError(f"cannot publish {so_path}: {exc}") from exc
    return so_path


#: A zero-length ctypes array type: ``from_buffer`` pins it to any
#: writable buffer, empty ones included, without copying.
_ANCHOR = ctypes.c_char * 0


def address(array) -> int:
    """The data pointer of a NumPy array, as the int a ``c_void_p``
    argument takes.

    Every loader below declares its vector arguments ``c_void_p`` so
    that callers pass this int: ``array.ctypes.data`` costs about a
    microsecond (``data_as(POINTER(c_double))`` two) because NumPy
    builds a helper object in Python on each access, which is a
    visible share of a small kernel call.  The buffer protocol gives
    the same address in a third of that, but ctypes only pins writable
    buffers, so read-only arrays take the slow accessor.  The caller
    keeps ``array`` alive and contiguous for as long as the pointer is
    in use.
    """
    if array.flags.writeable:
        return ctypes.addressof(_ANCHOR.from_buffer(array))
    return array.ctypes.data


def _load(so_path: Path, symbol: str, extra_ints: int):
    """``symbol(void *y, const void *x, int...)`` from a shared object.

    The pointers are declared ``c_void_p``, which takes a plain
    address (see :func:`address`) as well as any ctypes pointer.
    """
    lib = ctypes.CDLL(str(so_path))
    fn = getattr(lib, symbol)
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int] * extra_ints
    fn.restype = None
    fn._keepalive_lib = lib  # prevent the CDLL from being collected
    return fn


def load_function(so_path: Path, name: str, *, strided: bool = False):
    """Load ``name`` from a shared object with the SPL C signature."""
    return _load(so_path, name, 4 if strided else 0)


def compile_c_program(source: str, name: str, *, strided: bool = False,
                      cflags: tuple[str, ...] = (),
                      build_dir: Path | None = None):
    """Compile one routine and return the raw ctypes function."""
    so_path = compile_shared_object(source, cflags=cflags,
                                    build_dir=build_dir)
    return load_function(so_path, name, strided=strided)


def batch_driver_source(name: str, in_len: int, out_len: int, *,
                        openmp: bool = False) -> str:
    """A C batch driver looping over the rows of a (B, len) workspace.

    ``spl_batch_<name>(y, x, batch)`` applies ``name`` to ``batch``
    consecutive vectors with a single Python->native crossing, zeroing
    each output row first (the per-vector routines assume a zeroed
    output, matching the interpreter's semantics).

    With ``openmp=True`` a second driver
    ``spl_batch_omp_<name>(y, x, batch, nthreads)`` is emitted that
    splits the batch axis across OpenMP threads with a static schedule
    (contiguous chunks, same per-row arithmetic and rounding as the
    serial loop, so results are bit-identical for any thread count).
    The generated per-vector routines keep their temporaries on the
    stack and their tables ``static const``, so concurrent calls from
    several OpenMP threads are safe.

    The serial driver is strength-reduced: the row pointers advance by
    ``out_len``/``in_len`` per iteration instead of recomputing
    ``y + b * out_len`` each trip.  The OpenMP driver must keep the
    per-``b`` computation — its iterations are distributed across
    threads, so there is no sequential pointer to bump.
    """
    body = (
        f"        double *yrow = y + b * {out_len};\n"
        f"        const double *xrow = x + b * {in_len};\n"
        f"        for (j = 0; j < {out_len}; j++) yrow[j] = 0.0;\n"
        f"        {name}(yrow, xrow);\n"
    )
    source = (
        f"\nvoid spl_batch_{name}(double *restrict y, "
        f"const double *restrict x, int batch)\n"
        "{\n"
        "    long b;\n"
        "    int j;\n"
        "    double *yrow = y;\n"
        "    const double *xrow = x;\n"
        "    for (b = 0; b < batch; b++) {\n"
        f"        for (j = 0; j < {out_len}; j++) yrow[j] = 0.0;\n"
        f"        {name}(yrow, xrow);\n"
        f"        yrow += {out_len};\n"
        f"        xrow += {in_len};\n"
        "    }\n"
        "}\n"
    )
    if openmp:
        source += (
            f"\nvoid spl_batch_omp_{name}(double *restrict y, "
            f"const double *restrict x, int batch, int nthreads)\n"
            "{\n"
            "    long b;\n"
            "    #pragma omp parallel for schedule(static) "
            "num_threads(nthreads) if(nthreads > 1)\n"
            "    for (b = 0; b < batch; b++) {\n"
            "        int j;\n"
            + body +
            "    }\n"
            "}\n"
        )
    return source


def load_batch_function(so_path: Path, name: str):
    """Load the ``spl_batch_<name>`` driver emitted next to ``name``.

    Signature: ``(y, x, batch)``.
    """
    return _load(so_path, f"spl_batch_{name}", 1)


def load_batch_omp_function(so_path: Path, name: str):
    """Load the ``spl_batch_omp_<name>`` OpenMP driver.

    Signature: ``(y, x, batch, nthreads)``; ``nthreads <= 1`` runs the
    loop serially inside the parallel region's ``if`` clause.
    """
    return _load(so_path, f"spl_batch_omp_{name}", 2)
