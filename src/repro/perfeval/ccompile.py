"""Compile generated C code with the host compiler and load via ctypes.

This is the reproduction's stand-in for the paper's back-end Fortran/C
compilers (Workshop 5.0, MIPSpro, egcs): generated routines are
compiled at maximum optimization and timed as native code.

Shared objects are cached by source hash under a build directory, so
repeated searches do not recompile identical candidates.  The cache key
covers the full flag set (defaults + extra flags + caller flags) as
well as the source, so artifacts never leak across flag sets.

Extra flags: ``SPL_CFLAGS`` (e.g. ``SPL_CFLAGS=-march=native``) appends
host-compiler flags to every compilation.  Nothing here compiles with
OpenMP: :func:`have_openmp` and :func:`have_openmp_simd` survive only
for ``bench/layers.py`` until ROADMAP item 11(e).
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
    "int spl_openmp_probe(void) { return omp_get_max_threads(); }\n"
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
def _probe(compiler: str | None, flags: tuple[str, ...], source: str,
           probe_flags: tuple[str, ...]) -> bool:
    """True when ``compiler`` builds ``source`` with ``probe_flags``.

    Cached per argument tuple, a failed probe included, so each probe
    runs at most once per session; no compiler probes as False.
    """
    if compiler is None:
        return False
    build_dir = default_build_dir()
    stem = hashlib.sha256(source.encode()).hexdigest()[:12]
    c_path = build_dir / f"spl_probe_{stem}.c"
    try:
        c_path.write_text(source)
        result = subprocess.run(
            [compiler, *_DEFAULT_CFLAGS, *flags, *probe_flags, str(c_path),
             "-o", str(build_dir / f"spl_probe_{stem}.so")],
            capture_output=True, text=True, timeout=compile_timeout(),
        )
    except (subprocess.TimeoutExpired, OSError):
        return False
    return result.returncode == 0


def have_openmp() -> bool:
    """True when the host toolchain compiles ``-fopenmp`` code.

    Exists for ``bench/layers.py`` only (ROADMAP item 11(e)): nothing
    here compiles with OpenMP.
    """
    return _probe(_find_compiler(), extra_cflags(), _OPENMP_PROBE,
                  ("-fopenmp",))


def have_openmp_simd() -> bool:
    """True when the toolchain accepts ``-fopenmp-simd``.

    Exists for ``bench/layers.py`` only (ROADMAP item 11(e)): nothing
    here compiles with that flag.
    """
    return _probe(_find_compiler(), extra_cflags(), _OPENMP_SIMD_PROBE,
                  ("-fopenmp-simd",))


def default_build_dir() -> Path:
    root = os.environ.get("SPL_BUILD_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(tempfile.gettempdir()) / "spl-build"
    path.mkdir(parents=True, exist_ok=True)
    return path


def shared_object_cache_key(source: str, *,
                            cflags: tuple[str, ...] = ()) -> str:
    """The cache digest :func:`compile_shared_object` would use.

    Exposed so wisdom packs can pre-seed the shared-object cache: an
    artifact published under this digest (as ``spl_<digest>.so`` in
    the build dir) is served as a cache hit by a later
    ``compile_shared_object`` call with the same inputs — without ever
    invoking the host toolchain.  The digest folds in the effective
    flag set, so it is only portable between hosts that agree on
    ``SPL_CFLAGS``.
    """
    return hashlib.sha256(
        ("\x00".join(_flags(cflags)) + "\x01" + source).encode()
    ).hexdigest()[:24]


def _flags(cflags: tuple[str, ...]) -> tuple[str, ...]:
    return _DEFAULT_CFLAGS + extra_cflags() + tuple(cflags)


def compile_shared_object(source: str, *, cflags: tuple[str, ...] = (),
                          build_dir: Path | None = None) -> Path:
    """Compile C ``source`` into a cached shared object, returning its path.

    ``SPL_CFLAGS`` appends extra flags; they are folded into the cache
    key together with ``cflags`` and the source.

    The cache is consulted *before* the toolchain is located: a host
    without any C compiler still serves cache hits, which is what lets
    a replica boot hot from a wisdom pack's bundled artifacts.
    """
    build_dir = build_dir or default_build_dir()
    digest = shared_object_cache_key(source, cflags=cflags)
    so_path = build_dir / f"spl_{digest}.so"
    if so_path.exists():
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        raise CCompileError("no C compiler (cc/gcc/clang) on PATH")
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
            [compiler, *_flags(cflags), str(c_path), "-o", str(tmp_path),
             "-lm"],
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


def batch_driver_source(name: str, in_len: int, out_len: int) -> str:
    """A C batch driver looping over the rows of a (B, len) workspace.

    ``spl_batch_<name>(y, x, batch)`` applies ``name`` to ``batch``
    consecutive vectors with a single Python->native crossing, zeroing
    each output row first (the per-vector routines assume a zeroed
    output, matching the interpreter's semantics).  The row pointers
    advance by ``out_len``/``in_len`` per iteration instead of
    recomputing ``y + b * out_len`` each trip.
    """
    return (
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


def load_batch_function(so_path: Path, name: str):
    """Load the ``spl_batch_<name>`` driver emitted next to ``name``.

    Signature: ``(y, x, batch)``.
    """
    return _load(so_path, f"spl_batch_{name}", 1)
