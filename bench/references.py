"""References the compiler under test did not produce.

Every output the benchmark accepts is compared with one of these:
``numpy.fft.fft`` for the DFT, a Hadamard matrix built here by
Kronecker products, and the DCT-II from its closed form.  Nothing in
this file imports ``repro``.
"""

from __future__ import annotations

import math
import os

import numpy as np

#: Self-test switch: with this variable set in the environment every
#: reference below is off by one, so every comparison the benchmark
#: makes must fail and the run must exit non-zero (bench/tests).
WRONG_REFERENCE_ENV = "BENCH_WRONG_REFERENCE"

#: Relative L2 error above which an output counts as wrong.  Double
#: precision FFTs up to n = 4096 stay below 1e-13; anything near 1e-10
#: is a wrong answer, not rounding.
TOLERANCE = 1e-10


def hadamard_matrix(n: int) -> np.ndarray:
    """The natural-order Walsh-Hadamard matrix, H_2 (x) ... (x) H_2."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"Hadamard size must be a power of two, got {n}")
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    matrix = np.ones((1, 1))
    for _ in range(n.bit_length() - 1):
        matrix = np.kron(h2, matrix)
    return matrix


def dct2_matrix(n: int) -> np.ndarray:
    """Unnormalised DCT-II: y[k] = sum_j cos(pi k (2j + 1) / 2n) x[j]."""
    return np.array([[math.cos(math.pi * k * (2 * j + 1) / (2 * n))
                      for j in range(n)] for k in range(n)])


def reference(kind: str, n: int):
    """A function mapping an input vector (or a batch of rows) to the
    reference output for transform ``kind`` of size ``n``."""
    if kind == "fft":
        def exact(x):
            return np.fft.fft(x, axis=-1)
    elif kind in ("wht", "dct2"):
        matrix = hadamard_matrix(n) if kind == "wht" else dct2_matrix(n)

        def exact(x):
            return x @ matrix.T
    else:
        raise ValueError(f"no reference for transform {kind!r}")
    if os.environ.get(WRONG_REFERENCE_ENV):
        return lambda x: exact(x) + 1.0
    return exact


def rel_error(y: np.ndarray, expected: np.ndarray) -> float:
    """Relative L2 error of ``y`` against ``expected``."""
    scale = float(np.linalg.norm(expected))
    if scale == 0.0:
        return float(np.linalg.norm(y))
    return float(np.linalg.norm(np.asarray(y) - expected)) / scale


def random_input(rng: np.random.Generator, n: int, complex_: bool,
                 batch: int | None = None) -> np.ndarray:
    shape = (n,) if batch is None else (batch, n)
    x = rng.standard_normal(shape)
    if complex_:
        x = x + 1j * rng.standard_normal(shape)
    return x
