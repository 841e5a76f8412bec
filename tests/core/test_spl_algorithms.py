"""FFT algorithms beyond Cooley-Tukey, written as SPL text.

The paper closes by saying SPL can express any algorithm that is a
matrix expression.  These cases write the 2-D and 3-D DFT, the inverse
DFT, cyclic convolution and the Good-Thomas, Rader and Bluestein FFTs
as plain SPL source: permutation, diagonal and (rectangular) matrix
literals, scalar expressions such as ``1/8`` and ``w(10,4)``, around
``F``, ``I``, ``T`` and ``L``.  Each text goes through the whole
compiler, and the generated routine is checked against ``numpy.fft``.
"""

import cmath
import math

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplSemanticError
from repro.core.parser import parse_formula_text
from tests.conftest import random_complex

# F_4 by one Cooley-Tukey step, used as a factored leaf.
F4 = ("(compose (tensor (F 2) (I 2)) (T 4 2) "
      "(tensor (I 2) (F 2)) (L 4 2))")


def scalar(value) -> str:
    value = complex(value)
    return f"({value.real!r},{value.imag!r})"


def compose(*parts: str) -> str:
    return f"(compose {' '.join(parts)})"


def tensor(*parts: str) -> str:
    return f"(tensor {' '.join(parts)})"


def diagonal(values) -> str:
    return f"(diagonal ({' '.join(values)}))"


def matrix(rows) -> str:
    body = " ".join("(" + " ".join(str(v) for v in row) + ")"
                    for row in rows)
    return f"(matrix {body})"


def permutation(perm) -> str:
    return f"(permutation ({' '.join(str(k) for k in perm)}))"


def fourier(n: int) -> str:
    return f"(F {n})"


def run(text: str, x, *, unroll: bool = False) -> np.ndarray:
    compiler = SplCompiler(CompilerOptions(unroll=unroll))
    routine = compiler.compile_formula(text, "alg", language="python")
    return np.asarray(routine.run(list(x)))


def inverse_dft(n: int, leaf=fourier) -> str:
    """``F_n^-1 = (1/n) R_n F_n``; ``R_n`` maps y[k] = x[(n - k) mod n]."""
    scale = diagonal([f"1/{n}"] * n)
    if n == 1:
        return scale
    reversal = permutation((1,) + tuple(range(n, 1, -1)))
    return compose(scale, reversal, leaf(n))


def convolution(n: int, spectrum, leaf=fourier) -> str:
    """``F_n^-1 diag(H) F_n``: cyclic convolution with spectrum H."""
    return compose(inverse_dft(n, leaf),
                   diagonal([scalar(h) for h in spectrum]), leaf(n))


def good_thomas(m: int, k: int, leaf=fourier) -> str:
    """``F_mk = P_out (F_m (x) F_k) P_in`` with the Ruritanian input
    map and the CRT output map; no twiddle factors."""
    n = m * k
    in_perm = [0] * n
    for a in range(m):
        for b in range(k):
            in_perm[a * k + b] = (a * k + b * m) % n + 1
    out_perm = [(u % m) * k + (u % k) + 1 for u in range(n)]
    return compose(permutation(out_perm), tensor(leaf(m), leaf(k)),
                   permutation(in_perm))


def primitive_root(p: int) -> int:
    return next(g for g in range(2, p)
                if len({pow(g, t, p) for t in range(p - 1)}) == p - 1)


def rader(p: int, leaf=fourier) -> str:
    """``F_p = P_out B (1 (+) C_{p-1}) P_in`` for prime p: the inputs
    reordered by powers of a generator, a cyclic convolution of size
    p - 1 and a dense border that adds the DC terms."""
    g = primitive_root(p)
    order = p - 1
    g_pow = [pow(g, t, p) for t in range(order)]
    in_perm = [1] + [pow(g, order - t, p) + 1 for t in range(order)]
    out_perm = [0] * p
    out_perm[0] = 1
    for s in range(order):
        out_perm[g_pow[s]] = s + 2
    w = cmath.exp(-2j * math.pi / p)
    spectrum = np.fft.fft([w ** g_pow[t] for t in range(order)])
    border = [[1] + [-1] * order]
    for r in range(order):
        row = [0] * p
        row[0] = row[1 + r] = 1
        border.append(row)
    return compose(permutation(out_perm), matrix(border),
                   f"(direct-sum (diagonal (1)) "
                   f"{convolution(order, spectrum, leaf)})",
                   permutation(in_perm))


def bluestein(n: int, padded: int | None = None) -> str:
    """``F_n = diag(b) R C_m E diag(a)``: chirps ``w(2n, j^2)``, a
    cyclic convolution of size m >= 2n - 1, an m x n zero-pad E and an
    n x m restriction R."""
    m = padded or 1 << (2 * n - 2).bit_length()
    chirp = diagonal([f"w({2 * n},{j * j})" for j in range(n)])
    kernel = np.zeros(m, dtype=complex)
    for t in range(-(n - 1), n):
        kernel[t % m] += cmath.exp(1j * math.pi * t * t / n)
    embed = [[int(r == c) for c in range(n)] for r in range(m)]
    restrict = [[int(r == c) for c in range(m)] for r in range(n)]
    return compose(chirp, matrix(restrict),
                   convolution(m, np.fft.fft(kernel)), matrix(embed), chirp)


class TestMultidimensional:
    @pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (2, 8), (4, 3)])
    def test_2d_dft_is_a_tensor_product(self, m, n):
        x = random_complex(m * n)
        got = run(tensor(fourier(m), fourier(n)), x).reshape(m, n)
        np.testing.assert_allclose(got, np.fft.fft2(x.reshape(m, n)),
                                   atol=1e-9)

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (2, 8), (4, 3)])
    def test_2d_dft_row_column(self, m, n):
        text = compose(tensor(fourier(m), f"(I {n})"),
                       tensor(f"(I {m})", fourier(n)))
        x = random_complex(m * n)
        got = run(text, x).reshape(m, n)
        np.testing.assert_allclose(got, np.fft.fft2(x.reshape(m, n)),
                                   atol=1e-9)

    @pytest.mark.parametrize("shape", [(2, 4, 2), (3, 2, 2)])
    def test_3d_dft_dimension_by_dimension(self, shape):
        l, m, n = shape
        text = compose(tensor(fourier(l), f"(I {m * n})"),
                       tensor(f"(I {l})", fourier(m), f"(I {n})"),
                       tensor(f"(I {l * m})", fourier(n)))
        x = random_complex(l * m * n)
        got = run(text, x).reshape(shape)
        np.testing.assert_allclose(got, np.fft.fftn(x.reshape(shape)),
                                   atol=1e-9)

    def test_factored_leaf(self):
        x = random_complex(16)
        got = run(tensor(F4, F4), x).reshape(4, 4)
        np.testing.assert_allclose(got, np.fft.fft2(x.reshape(4, 4)),
                                   atol=1e-9)


class TestInverseDft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
    def test_matches_numpy_ifft(self, n):
        x = random_complex(n)
        np.testing.assert_allclose(run(inverse_dft(n), x), np.fft.ifft(x),
                                   atol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_round_trip_is_the_identity(self, n):
        x = random_complex(n)
        np.testing.assert_allclose(
            run(compose(inverse_dft(n), fourier(n)), x), x, atol=1e-9)

    def test_index_reversal(self):
        got = run(permutation((1, 4, 3, 2)), [10.0, 11.0, 12.0, 13.0])
        np.testing.assert_array_equal(got.real, [10, 13, 12, 11])


class TestCyclicConvolution:
    @pytest.mark.parametrize("n", [8, 16])
    def test_convolution_theorem(self, n):
        rng = np.random.default_rng(n)
        spectrum = np.fft.fft(rng.standard_normal(n))
        x = random_complex(n)
        np.testing.assert_allclose(run(convolution(n, spectrum), x),
                                   np.fft.ifft(np.fft.fft(x) * spectrum),
                                   atol=1e-9)


class TestGoodThomas:
    @pytest.mark.parametrize("m,k", [(3, 4), (4, 3), (3, 5), (5, 8),
                                     (4, 9), (7, 8)])
    def test_matches_fft(self, m, k):
        x = random_complex(m * k)
        np.testing.assert_allclose(run(good_thomas(m, k), x),
                                   np.fft.fft(x), atol=1e-9)

    def test_factored_leaves(self):
        leaf = lambda n: F4 if n == 4 else fourier(n)  # noqa: E731
        x = random_complex(36)
        np.testing.assert_allclose(run(good_thomas(4, 9, leaf), x),
                                   np.fft.fft(x), atol=1e-9)

    def test_non_coprime_map_is_no_permutation(self):
        """For gcd(m, k) > 1 the input map repeats an index, which the
        permutation literal rejects."""
        with pytest.raises(SplSemanticError):
            parse_formula_text(good_thomas(2, 4))


class TestRader:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_matches_fft(self, p):
        x = random_complex(p)
        np.testing.assert_allclose(run(rader(p), x), np.fft.fft(x),
                                   atol=1e-8)

    def test_factored_inner_fft(self):
        """p = 5: the convolution's F_4 is a Cooley-Tukey step."""
        leaf = lambda n: F4 if n == 4 else fourier(n)  # noqa: E731
        x = random_complex(5)
        np.testing.assert_allclose(run(rader(5, leaf), x), np.fft.fft(x),
                                   atol=1e-8)


class TestBluestein:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 12])
    def test_matches_fft(self, n):
        x = random_complex(n)
        np.testing.assert_allclose(run(bluestein(n), x), np.fft.fft(x),
                                   atol=1e-8)

    def test_explicit_padding(self):
        x = random_complex(5)
        np.testing.assert_allclose(run(bluestein(5, padded=16), x),
                                   np.fft.fft(x), atol=1e-8)


class TestUnrolled:
    """The same texts through full unrolling."""

    @pytest.mark.parametrize("n,text,transform", [
        pytest.param(4, inverse_dft(4), np.fft.ifft, id="inverse-4"),
        pytest.param(12, good_thomas(3, 4), np.fft.fft, id="good-thomas-12"),
        pytest.param(5, rader(5), np.fft.fft, id="rader-5"),
        pytest.param(3, bluestein(3), np.fft.fft, id="bluestein-3"),
    ])
    def test_matches_numpy(self, n, text, transform):
        x = random_complex(n)
        np.testing.assert_allclose(run(text, x, unroll=True), transform(x),
                                   atol=1e-8)
