"""The FFTW-substitute executor: a recursive plan interpreter in C.

"This factorization, called a plan, is then interpreted by the
executor.  The executor calls to the codelets in the order specified by
the plan."  (Section 4.2.)

The executor implements the decimation-in-time recursion

    F_n = (F_r (x) I_s) T^n_s (I_r (x) F_s) L^n_r

with a scratch buffer per level: the r sub-transforms of size s are
gathered (stride r) into contiguous scratch, twiddled, and the final
radix-r codelet pass writes the strided outputs.  All arithmetic runs
in compiled C on the caller's ``complex128`` memory (whose rows already
are the interleaved re/im doubles the codelets index); Python only sets
up plans and allocates results.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.fftw.codelets import CodeletSet
from repro.fftw.planner import Plan
from repro.perfeval import ccompile

_DRIVER_TEMPLATE = r"""
/* ------- FFTW-substitute executor driver (generated) ------- */

typedef void (*spl_codelet_fn)(double *restrict y, const double *restrict x,
                               int istride, int ostride, int iofs, int oofs);

static spl_codelet_fn spl_codelet_table[] = {CODELET_TABLE};

static void spl_fftw_rec(const int *logn, const int *logr,
                         const long *tw_ofs, const double *tw, int level,
                         double *y, int os, int oofs,
                         const double *x, int is, int iofs,
                         double *work)
{
    int n = 1 << logn[level];
    if (logr[level] < 0) {
        spl_codelet_table[logn[level]](y, x, is, os, iofs, oofs);
        return;
    }
    int r = 1 << logr[level];
    int s = n / r;
    double *buf = work;
    double *child_work = work + 2 * n;
    int i, j;
    long k;
    for (i = 0; i < r; i++) {
        spl_fftw_rec(logn, logr, tw_ofs, tw, level + 1,
                     buf, 1, i * s,
                     x, is * r, iofs + i * is,
                     child_work);
    }
    const double *w = tw + 2 * tw_ofs[level];
    for (k = 0; k < n; k++) {
        double re = buf[2 * k], im = buf[2 * k + 1];
        double wr = w[2 * k], wi = w[2 * k + 1];
        buf[2 * k] = re * wr - im * wi;
        buf[2 * k + 1] = re * wi + im * wr;
    }
    for (j = 0; j < s; j++) {
        spl_codelet_table[logr[level]](y, buf, s, s * os, j, oofs + j * os);
    }
}

void spl_fftw_execute(const int *logn, const int *logr, const long *tw_ofs,
                      const double *tw, double *y, const double *x,
                      double *work)
{
    spl_fftw_rec(logn, logr, tw_ofs, tw, 0, y, 1, 0, x, 1, 0, work);
}
"""


def _log2(n: int) -> int:
    k = n.bit_length() - 1
    if 1 << k != n:
        raise ValueError(f"{n} is not a power of two")
    return k


class FftwLibrary:
    """The compiled codelets + executor, with plan/transform factories."""

    def __init__(self, codelets: CodeletSet | None = None):
        self.codelets = codelets or CodeletSet.build()
        self.codelet_sizes = self.codelets.sizes
        source = self.codelets.c_source() + self._driver_source()
        self._so_path = ccompile.compile_shared_object(source)
        self._lib = ctypes.CDLL(str(self._so_path))
        self._execute = self._lib.spl_fftw_execute
        c_int_p = ctypes.POINTER(ctypes.c_int)
        c_long_p = ctypes.POINTER(ctypes.c_long)
        c_double_p = ctypes.POINTER(ctypes.c_double)
        # y, x and work take ``ccompile.address`` ints.
        self._execute.argtypes = [c_int_p, c_int_p, c_long_p, c_double_p,
                                  ctypes.c_void_p, ctypes.c_void_p,
                                  ctypes.c_void_p]
        self._execute.restype = None

    def _driver_source(self) -> str:
        max_log = _log2(max(self.codelet_sizes))
        entries = []
        for k in range(max_log + 1):
            n = 1 << k
            if n in self.codelet_sizes:
                entries.append(f"spl_cod{n}")
            else:
                entries.append("0")
        return _DRIVER_TEMPLATE.replace("{CODELET_TABLE}",
                                        "{" + ", ".join(entries) + "}")

    # -- codelet access (Figure 3 timing) ------------------------------------

    def codelet_flops(self, n: int) -> int:
        return self.codelets.flops(n)

    def codelet_fn(self, n: int):
        fn = getattr(self._lib, f"spl_cod{n}")
        c_double_p = ctypes.POINTER(ctypes.c_double)
        fn.argtypes = [c_double_p, c_double_p] + [ctypes.c_int] * 4
        fn.restype = None
        return fn

    def shared_object_size(self) -> int:
        return self._so_path.stat().st_size

    # -- transforms ---------------------------------------------------------------

    def transform(self, plan: Plan) -> "FftwTransform":
        return FftwTransform(self, plan)


@dataclass
class _PlanArrays:
    logn: np.ndarray
    logr: np.ndarray
    tw_ofs: np.ndarray


class FftwTransform:
    """A planned transform, run on the caller's memory.

    ``apply`` and ``apply_many`` read their ``complex128`` input in
    place (one conversion for anything else), write a fresh result and
    allocate their recursion scratch per call, so calls share nothing
    mutable: one instance may be used from several threads at once.
    Bulk work goes through one ``apply_many`` call.
    """

    def __init__(self, library: FftwLibrary, plan: Plan):
        self.library = library
        self.plan = plan
        self.n = plan.n
        logn = np.array([_log2(level.n) for level in plan.levels],
                        dtype=np.int32)
        logr = np.array(
            [_log2(level.radix) if level.radix else -1
             for level in plan.levels],
            dtype=np.int32,
        )
        tw_ofs = np.array(plan.tw_offsets, dtype=np.int64)
        self._arrays = _PlanArrays(logn=logn, logr=logr, tw_ofs=tw_ofs)
        self._tw = np.ascontiguousarray(plan.twiddles)
        self._work_len = max(plan.work_len, 2)
        c_int_p = ctypes.POINTER(ctypes.c_int)
        c_long_p = ctypes.POINTER(ctypes.c_long)
        c_double_p = ctypes.POINTER(ctypes.c_double)
        self._plan_args = (
            logn.ctypes.data_as(c_int_p),
            logr.ctypes.data_as(c_int_p),
            tw_ofs.ctypes.data_as(c_long_p),
            self._tw.ctypes.data_as(c_double_p),
        )

    def _run_rows(self, y: int, x: int, rows: int) -> None:
        """Execute the plan on ``rows`` rows of the complex128 batches
        at addresses ``y`` / ``x``, with recursion scratch of its
        own."""
        work = np.empty(self._work_len)
        work_p = ccompile.address(work)
        execute = self.library._execute
        plan_args = self._plan_args
        stride = 16 * self.n  # bytes per row
        for offset in range(0, rows * stride, stride):
            execute(*plan_args, y + offset, x + offset, work_p)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute the DFT of a complex input vector."""
        x = np.ascontiguousarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} elements, got shape {x.shape}")
        y = np.empty(self.n, dtype=np.complex128)
        self._run_rows(ccompile.address(y), ccompile.address(x), 1)
        return y

    def apply_many(self, X: np.ndarray) -> np.ndarray:
        """Compute the DFT of every row of a ``(B, n)`` complex batch.

        The executor runs once per row, on row pointers computed from
        the batch's base address; ``X`` is read in place when it is a
        C-contiguous ``complex128`` array and the result is fresh.
        """
        X = np.ascontiguousarray(X, dtype=np.complex128)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(
                f"expected a (B, {self.n}) batch, got shape {X.shape}"
            )
        batch = X.shape[0]
        Y = np.empty((batch, self.n), dtype=np.complex128)
        self._run_rows(ccompile.address(Y), ccompile.address(X), batch)
        return Y

    def timer_closure(self):
        """Zero-argument call on buffers allocated once, here."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2 * self.n)
        y = np.zeros(2 * self.n)
        work = np.empty(self._work_len)
        execute = self.library._execute
        args = (*self._plan_args, ccompile.address(y), ccompile.address(x),
                ccompile.address(work))

        def call() -> None:
            execute(*args)

        call._keepalive = (x, y, work)
        return call

    def memory_bytes(self) -> int:
        """Runtime footprint: plan + one complex128 vector in and one
        out (excluding shared code)."""
        return self.plan.memory_bytes() + 2 * 16 * self.n
