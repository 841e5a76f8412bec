"""FFT algorithms beyond Cooley-Tukey, as SPL formulas.

The paper closes by noting SPL "can generate any class of algorithm
that can be represented as matrix expressions".  This module makes the
claim concrete for the three classic non-Cooley-Tukey FFTs:

* **Good-Thomas (prime-factor)**: for coprime ``m, k``,
  ``F_mk = P_out (F_m (x) F_k) P_in`` with CRT index permutations and
  *no twiddle factors*;
* **Rader**: ``F_p`` for prime ``p`` via a cyclic convolution of size
  ``p - 1`` (computed by FFTs), using the group structure of ``Z_p^*``;
* **Bluestein (chirp-z)**: ``F_n`` for *arbitrary* ``n`` via a cyclic
  convolution of any padded size ``m >= 2n - 1``.

Every factorization is an ordinary formula AST: border matrices and
zero-padding are ``(matrix ...)`` literals, the permutations are
``(permutation ...)`` literals, and the convolution cores reuse
:mod:`repro.formulas.multidim`.  All of it compiles through the
unmodified SPL compiler.
"""

from __future__ import annotations

import cmath
import math

from repro.core import nodes
from repro.core.errors import SplSemanticError
from repro.core.nodes import Formula, compose, fourier
from repro.formulas.multidim import inverse_dft


def good_thomas(m: int, k: int,
                leaf=fourier) -> Formula:
    """The prime-factor algorithm: ``F_mk = P_out (F_m (x) F_k) P_in``.

    Requires ``gcd(m, k) == 1``.  The input map reads
    ``x2d[a, b] = x[(a*k + b*m) mod n]`` (Ruritanian) and the output
    map writes ``y[crt(c, d)] = y2d[c, d]`` — which is exactly what
    makes the twiddle matrix disappear.
    """
    if math.gcd(m, k) != 1:
        raise SplSemanticError(
            f"Good-Thomas needs coprime factors, got {m} and {k}"
        )
    n = m * k
    in_perm = [0] * n
    for a in range(m):
        for b in range(k):
            in_perm[a * k + b] = (a * k + b * m) % n + 1
    out_perm = [0] * n
    for u in range(n):
        out_perm[u] = (u % m) * k + (u % k) + 1
    return compose(
        nodes.PermutationLit(perm=tuple(out_perm)),
        nodes.tensor(leaf(m), leaf(k)),
        nodes.PermutationLit(perm=tuple(in_perm)),
    )


def _primitive_root(p: int) -> int:
    """The smallest generator of the multiplicative group mod prime p."""
    factors = set()
    phi = p - 1
    value = phi
    d = 2
    while d * d <= value:
        while value % d == 0:
            factors.add(d)
            value //= d
        d += 1
    if value > 1:
        factors.add(value)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
            return g
    raise SplSemanticError(f"{p} is not prime")


def _cyclic_convolution_core(n: int, taps_spectrum,
                             leaf=fourier) -> Formula:
    """``F_n^{-1} diag(H) F_n`` for a fixed spectrum H."""
    values = tuple(complex(v) for v in taps_spectrum)
    return compose(
        inverse_dft(n, leaf),
        nodes.DiagonalLit(values=values),
        leaf(n),
    )


def rader(p: int, leaf=fourier) -> Formula:
    """Rader's FFT for prime ``p``: a size ``p-1`` cyclic convolution.

    With ``g`` a generator of ``Z_p^*``::

        F_p = P_out B_2 (1 (+) C_{p-1}) B_1 P_in

    where ``P_in`` reorders the nonzero inputs by ``g^{-t}``, ``P_out``
    reorders the nonzero outputs by ``g^s``, ``C`` is the circulant of
    the twiddle sequence ``w_p^{g^t}``, and the borders ``B_1``/``B_2``
    add the DC terms.  The circulant itself is computed by FFTs of size
    ``p - 1`` through the convolution theorem.
    """
    if p < 3 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise SplSemanticError(f"Rader needs an odd prime, got {p}")
    import numpy as np

    g = _primitive_root(p)
    w = cmath.exp(-2j * math.pi / p)
    order = p - 1
    g_pow = [pow(g, t, p) for t in range(order)]
    g_inv_pow = [pow(g, order - t, p) % p for t in range(order)]

    # Input permutation: z[0] = x[0]; z[1 + t] = x[g^{-t} mod p].
    in_perm = [1] + [g_inv_pow[t] + 1 for t in range(order)]
    # Output permutation: y[0] = u[0]; y[g^s mod p] = u[1 + s].
    out_perm = [0] * p
    out_perm[0] = 1
    for s in range(order):
        out_perm[g_pow[s]] = 1 + s + 1
    # The circulant's first column: c[t] = w_p^(g^t); its action on the
    # permuted inputs produces sum_j w^(g^(s) g^(-t)) ... = the DFT's
    # nonzero block.  Spectrum computed once, numerically.
    c = np.array([w ** g_pow[t] for t in range(order)])
    spectrum = np.fft.fft(c)

    # After (1 (+) C) the lanes hold [x0; (C x')_s].  The DC output
    # y[0] = x0 + sum(x') is recovered from the convolved lanes using
    # sum_s (C x')_s = (sum_t c_t)(sum x') and sum_t w_p^(g^t) = -1,
    # so y[0] = x0 - sum_s (C x')_s; the other outputs just add x0:
    #   M = [[1, -1 ... -1],
    #        [1,  I       ]]
    border_rows = [tuple([1.0] + [-1.0] * order)]
    for r in range(order):
        row = [0.0] * p
        row[0] = 1.0
        row[1 + r] = 1.0
        border_rows.append(tuple(row))

    return compose(
        nodes.PermutationLit(perm=tuple(out_perm)),
        nodes.MatrixLit(rows=tuple(border_rows)),
        nodes.direct_sum(nodes.DiagonalLit(values=(1.0,)),
                         _cyclic_convolution_core(order, spectrum, leaf)),
        nodes.PermutationLit(perm=tuple(in_perm)),
    )


def bluestein(n: int, *, padded: int | None = None,
              leaf=fourier) -> Formula:
    """Bluestein's chirp-z FFT for arbitrary ``n``.

    ``F_n = diag(b) R C_m E diag(a)`` with chirps
    ``a_j = e^{-i pi j^2 / n}``, ``b_k = e^{-i pi k^2 / n}``, a cyclic
    convolution ``C_m`` of the chirp ``c_t = e^{+i pi t^2 / n}``
    (indices folded mod m), zero-padding ``E`` and restriction ``R``.
    ``m`` defaults to the smallest power of two >= 2n - 1, so the core
    FFTs are power-of-two even when ``n`` is prime.
    """
    if n < 1:
        raise SplSemanticError("Bluestein size must be positive")
    import numpy as np

    m = padded or (1 << (2 * n - 2).bit_length()) if n > 1 else 1
    if m < 2 * n - 1 and n > 1:
        raise SplSemanticError(f"padded size {m} < 2n-1 = {2 * n - 1}")
    chirp = [cmath.exp(-1j * math.pi * (j * j) / n) for j in range(n)]
    # Chirp kernel folded onto [0, m): c[t] = e^{+i pi t^2/n} for
    # |t| < n, placed at t mod m.
    kernel = np.zeros(m, dtype=complex)
    for t in range(-(n - 1), n):
        kernel[t % m] += cmath.exp(1j * math.pi * (t * t) / n)
    spectrum = np.fft.fft(kernel)

    embed_rows = []
    for r in range(m):
        row = [0.0] * n
        if r < n:
            row[r] = 1.0
        embed_rows.append(tuple(row))
    restrict_rows = []
    for r in range(n):
        row = [0.0] * m
        row[r] = 1.0
        restrict_rows.append(tuple(row))

    return compose(
        nodes.DiagonalLit(values=tuple(chirp)),
        nodes.MatrixLit(rows=tuple(restrict_rows)),
        _cyclic_convolution_core(m, spectrum, leaf),
        nodes.MatrixLit(rows=tuple(embed_rows)),
        nodes.DiagonalLit(values=tuple(chirp)),
    )
