"""Property tests for the batch execution layer: for random formulas
the NumPy batch backend agrees elementwise with the i-code interpreter
and the pure-Python backend — for strided and non-strided programs,
``#codetype real`` and ``complex``, and batch sizes {1, 7, 64}.  And
for the runner on top of them (all four backends): its results do not
depend on how the caller laid the input out, and are the ones the
parent commit's copying runner gave."""

import functools
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import nodes
from repro.core.backend_numpy import compile_numpy
from repro.core.backend_python import compile_python
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.interpreter import run_program
from repro.formulas.factorization import ct_multi, wht_multi
from repro.perfeval.runner import build_executable
from tests.conftest import HAS_CC, requires_cc

BATCH_SIZES = (1, 7, 64)

ATOL = 1e-10


@st.composite
def leaf_formulas(draw):
    kind = draw(st.sampled_from(["I", "F", "J", "L", "T"]))
    if kind in ("I", "F", "J"):
        n = draw(st.integers(1, 4))
        return nodes.Param(name=kind, params=(n,))
    s = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    return nodes.Param(name=kind, params=(m * s, s))


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(leaf_formulas())
    kind = draw(st.sampled_from(["leaf", "tensor", "compose"]))
    if kind == "leaf":
        return draw(leaf_formulas())
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    if kind == "tensor":
        return nodes.Tensor(left=left, right=right)
    from repro.formulas import to_matrix

    left_n = to_matrix(left).shape[1]
    right_n = to_matrix(right).shape[0]
    if left_n != right_n:
        if left_n < right_n:
            left = nodes.DirectSum(
                left=left, right=nodes.identity(right_n - left_n))
        else:
            right = nodes.DirectSum(
                left=right, right=nodes.identity(left_n - right_n))
    return nodes.Compose(left=left, right=right)


def _random_physical(batch, length, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, length))
    if dtype is complex:
        x = x + 1j * rng.standard_normal((batch, length))
    return x.astype(dtype)


def _run_numpy_backend(program, Xp, **strides):
    fn = compile_numpy(program)
    out_len = Xp.shape[0], _out_physical_len(program, **strides)
    y = np.zeros(out_len, dtype=Xp.dtype)
    fn(y, Xp, **strides)
    return y


def _out_physical_len(program, istride=1, ostride=1, iofs=0, oofs=0):
    width = program.element_width
    if program.strided:
        return (oofs + (program.out_size - 1) * ostride + 1) * width
    return program.out_size * width


def _in_physical_len(program, istride=1, ostride=1, iofs=0, oofs=0):
    width = program.element_width
    if program.strided:
        return (iofs + (program.in_size - 1) * istride + 1) * width
    return program.in_size * width


def _reference_rows(program, Xp, **strides):
    """Interpreter (row by row) — the ground truth."""
    return np.array([
        run_program(program, list(row), **strides) for row in Xp
    ])


def _python_rows(program, Xp, out_len, **strides):
    """Pure-Python backend, row by row."""
    fn = compile_python(program)
    rows = []
    for row in Xp:
        y = [0.0] * out_len
        fn(y, list(row), **strides)
        rows.append(y)
    return np.array(rows)


def _check_agreement(program, *, seed, strides=None):
    strides = strides or {}
    dtype = complex if (program.element_width == 1
                       and program.datatype == "complex") else float
    in_len = _in_physical_len(program, **strides)
    out_len = _out_physical_len(program, **strides)
    # One reference pass over the largest batch; the smaller batch
    # sizes reuse its prefix rows (the references are row-independent).
    X = _random_physical(max(BATCH_SIZES), in_len, dtype, seed)
    expected = _reference_rows(program, X, **strides)
    py = _python_rows(program, X, out_len, **strides)
    np.testing.assert_allclose(py, expected, atol=ATOL)
    for batch in BATCH_SIZES:
        got = _run_numpy_backend(program, X[:batch], **strides)
        np.testing.assert_allclose(got, expected[:batch], atol=ATOL)
        np.testing.assert_allclose(got, py[:batch], atol=ATOL)


class TestNumpyBackendAgreesWithInterpreter:
    @given(formula=formulas(), codetype=st.sampled_from(["real", "complex"]),
           data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_non_strided(self, formula, codetype, data):
        compiler = SplCompiler(CompilerOptions(codetype=codetype))
        routine = compiler.compile_formula(formula, "prop",
                                           language="numpy")
        _check_agreement(routine.program,
                         seed=data.draw(st.integers(0, 2**32 - 1)))

    @given(formula=formulas(), codetype=st.sampled_from(["real", "complex"]),
           istride=st.integers(1, 3), ostride=st.integers(1, 3),
           iofs=st.integers(0, 2), oofs=st.integers(0, 2),
           data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_strided(self, formula, codetype, istride, ostride, iofs, oofs,
                     data):
        compiler = SplCompiler(CompilerOptions(codetype=codetype))
        routine = compiler.compile_formula(formula, "prop",
                                           language="numpy", strided=True)
        _check_agreement(
            routine.program,
            seed=data.draw(st.integers(0, 2**32 - 1)),
            strides=dict(istride=istride, ostride=ostride,
                         iofs=iofs, oofs=oofs),
        )

    @given(formula=formulas(depth=1), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_unrolled_straight_line(self, formula, data):
        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll=True))
        routine = compiler.compile_formula(formula, "prop",
                                           language="numpy")
        _check_agreement(routine.program,
                         seed=data.draw(st.integers(0, 2**32 - 1)))


# ---------------------------------------------------------------------------
# ExecutableRoutine.apply / apply_many run on the caller's memory.
# ---------------------------------------------------------------------------
#
# The runner hands the kernel a float64 view of the caller's complex128
# rows and returns the array the kernel wrote.  Below: whatever form the
# input arrives in, the result is, bit for bit, that of the contiguous
# complex128 call; the input is never written; and that call's result
# is, bit for bit, what the copying runner of the parent commit
# returned (``golden_apply.json``).
#
# Re-record (from the repo root, with the *reference* commit's sources
# on the path — the file in the tree was recorded at 7da7b35, the
# commit before the copies were removed)::
#
#     PYTHONPATH=<reference checkout>/src:. \
#         python tests/property/test_property_batch.py --record

GOLDEN_APPLY = Path(__file__).with_name("golden_apply.json")
RUNNER_BACKENDS = ("c", "cjit", "numpy", "python")
RUNNER_BATCHES = (0, 1, 7, 64)
#: name -> (SPL text, datatype, fully unrolled).  The codelets are what
#: the JIT tier and the C codelet driver (alignment fast path) accept;
#: the looped programs take the plain batch driver.
RUNNER_CASES = {
    "fft8_codelet": ("(F 8)", "complex", True),
    "fft16_loop": (ct_multi((4, 4)).to_spl(), "complex", False),
    "wht8_codelet": (wht_multi([2, 1]).to_spl(), "real", True),
    "wht16_loop": (wht_multi([2, 2]).to_spl(), "real", False),
}


@functools.cache
def _executable(case: str, backend: str, codetype: str = "real"):
    """One executable per (case, backend, code type) for the module.
    ``codetype="complex"`` keeps complex arithmetic native (NumPy and
    Python only): the kernel then indexes complex128 directly and the
    runner passes the arrays through without a view."""
    if backend in ("c", "cjit") and not HAS_CC:
        pytest.skip("no C compiler on PATH")
    text, datatype, unroll = RUNNER_CASES[case]
    compiler = SplCompiler(CompilerOptions(codetype=codetype,
                                           unroll=unroll))
    language = "c" if backend in ("c", "cjit") else backend
    routine = compiler.compile_formula(
        text, f"{case}_{backend}_{codetype}", datatype=datatype,
        language=language)
    return build_executable(routine, prefer=backend)


def _runner_input(executable, batch: int, seed: int = 20010620):
    """A C-contiguous batch of the executable's logical dtype."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((batch, executable.n))
    if executable.dtype.kind == "c":
        X = X + 1j * rng.standard_normal((batch, executable.n))
    return X


def _runner_params():
    """(case, backend, codetype) for every layout the runner handles."""
    for case in RUNNER_CASES:
        for backend in RUNNER_BACKENDS:
            yield case, backend, "real"
    for backend in ("numpy", "python"):  # complex128 all the way down
        yield "fft16_loop", backend, "complex"


def _at_offset(X: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``X`` whose data sits ``offset`` bytes past a 64-byte
    boundary."""
    raw = np.empty(X.nbytes + 128, dtype=np.uint8)
    start = (-raw.ctypes.data % 64) + offset
    out = raw[start:start + X.nbytes].view(X.dtype).reshape(X.shape)
    out[...] = X
    assert out.ctypes.data % 64 == offset or not X.size
    return out


class TestRunnerRunsOnCallersMemory:
    @pytest.mark.parametrize("case,backend,codetype", _runner_params())
    @pytest.mark.parametrize("batch", RUNNER_BATCHES)
    def test_read_only_input_is_accepted_and_untouched(
            self, case, backend, codetype, batch):
        executable = _executable(case, backend, codetype)
        X = _runner_input(executable, batch)
        expected = executable.apply_many(X)
        frozen = np.frombuffer(X.tobytes(), dtype=X.dtype).reshape(X.shape)
        assert not frozen.flags.writeable
        got = executable.apply_many(frozen)
        np.testing.assert_array_equal(got, expected)
        assert got.flags.writeable and not np.shares_memory(got, frozen)
        assert frozen.tobytes() == X.tobytes()
        for row in range(min(batch, 2)):
            single = executable.apply(frozen[row])
            np.testing.assert_array_equal(
                single, executable.apply(X[row]))
            assert not np.shares_memory(single, frozen)
        assert frozen.tobytes() == X.tobytes()
        assert not executable.degraded

    @pytest.mark.parametrize("case,backend,codetype", _runner_params())
    @pytest.mark.parametrize("batch", RUNNER_BATCHES)
    def test_input_forms_give_identical_bits(self, case, backend,
                                             codetype, batch):
        executable = _executable(case, backend, codetype)
        X = _runner_input(executable, batch)
        expected = executable.apply_many(X).tobytes()
        n = executable.n
        strided = np.zeros((2 * batch, n), dtype=X.dtype)
        strided[::2] = X
        fortran = X.T.copy().T  # same values, column-major memory
        assert batch < 2 or not fortran.flags.c_contiguous
        forms = {"every other row": strided[::2],
                 "column-major": fortran,
                 "nested lists": X.tolist() if batch else X,
                 "misaligned by 8": _at_offset(X, 8),
                 "aligned to 64": _at_offset(X, 0)}
        for name, form in forms.items():
            assert executable.apply_many(form).tobytes() == expected, name
        # A narrower dtype converts exactly, so the wide call on the
        # converted values is the reference.
        narrow = X.astype(np.complex64 if X.dtype.kind == "c"
                          else np.float32)
        assert (executable.apply_many(narrow).tobytes()
                == executable.apply_many(narrow.astype(X.dtype)).tobytes())
        if X.dtype.kind == "c":  # float64 into a complex transform
            assert (executable.apply_many(X.real).tobytes()
                    == executable.apply_many(X.real + 0j).tobytes())
        if batch:
            row = executable.apply(X[0]).tobytes()
            assert executable.apply(strided[::2][0]).tobytes() == row
            assert executable.apply(fortran[0]).tobytes() == row
            assert executable.apply(X[0].tolist()).tobytes() == row
            assert executable.apply(X[:, ::-1][0][::-1]).tobytes() == row
        assert not executable.degraded

    @requires_cc
    @pytest.mark.parametrize("case", ["fft8_codelet", "wht8_codelet"])
    @pytest.mark.parametrize("batch", RUNNER_BATCHES)
    def test_codelet_driver_checks_alignment_at_runtime(self, case, batch):
        # The batch driver assumes nothing about alignment, so a
        # caller's 8-byte-aligned rows must give the same bits as
        # 64-byte-aligned ones.
        executable = _executable(case, "c")
        assert executable.backend == "c"
        assert executable.routine.program.is_straight_line()
        X = _runner_input(executable, batch)
        aligned, misaligned = _at_offset(X, 0), _at_offset(X, 8)
        expected = executable.apply_many(aligned).tobytes()
        assert executable.apply_many(misaligned).tobytes() == expected
        assert executable.apply_many(X).tobytes() == expected

    @pytest.mark.parametrize("case", list(RUNNER_CASES))
    @pytest.mark.parametrize("backend", RUNNER_BACKENDS)
    def test_results_are_the_parent_commits(self, case, backend):
        golden = json.loads(GOLDEN_APPLY.read_text())
        if platform.machine() != golden["machine"]:
            pytest.skip(f"recorded on {golden['machine']}: another "
                        f"architecture may round the kernels differently")
        recorded = dict(golden["results"][f"{case}/{backend}"])
        hashes = _runner_hashes(case, backend)
        # Recorded when apply_many still took threads=: its two-thread
        # B512 result was bit-identical to the serial one.
        assert recorded.pop("apply_many.B512.t2") \
            == hashes["apply_many.B512.t1"]
        assert hashes == recorded


def _runner_hashes(case: str, backend: str) -> dict[str, str]:
    """SHA-256 of the result bytes of ``apply_many`` at every batch
    size and at B = 512, and of ``apply`` on the first row."""
    executable = _executable(case, backend)
    hashes = {}
    for batch in (*RUNNER_BATCHES, 512):
        X = _runner_input(executable, batch)
        Y = executable.apply_many(X)
        assert Y.dtype == executable.dtype
        hashes[f"apply_many.B{batch}.t1"] = hashlib.sha256(
            Y.tobytes()).hexdigest()
    x = _runner_input(executable, 1)[0]
    hashes["apply"] = hashlib.sha256(
        executable.apply(x).tobytes()).hexdigest()
    return hashes


def _record_golden_apply() -> None:
    results = {f"{case}/{backend}": _runner_hashes(case, backend)
               for case in RUNNER_CASES for backend in RUNNER_BACKENDS}
    GOLDEN_APPLY.write_text(json.dumps(
        {"machine": platform.machine(), "results": results},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} records to {GOLDEN_APPLY}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_property_batch.py --record")
    _record_golden_apply()
