"""Inputs are a function of the seed, and of nothing else."""

import numpy as np

from bench.formulas import MAX_DRAWN_LEAF, formula_set
from bench.references import dct2_matrix, hadamard_matrix
from bench.serving import Traffic, poisson_schedule


def test_formula_draw_repeats_for_a_seed_and_differs_between_seeds():
    assert formula_set(3) == formula_set(3)
    names = [{c.name for c in formula_set(seed)} for seed in range(4)]
    assert len({frozenset(n) for n in names}) > 1
    fixed = {n for n in names[0]
             if "default" in n or not n.startswith("fft")}
    for other in names[1:]:
        assert fixed <= other  # only the drawn factorizations move


def test_formula_set_shape():
    cases = formula_set(0)
    assert len(cases) == len({c.name for c in cases}) == 22
    for case in cases:
        if case.name.startswith("fft") and "default" not in case.name:
            factors = [int(f) for f in case.name.split("_")[1].split("x")]
            assert np.prod(factors) == case.n
            assert max(factors) <= MAX_DRAWN_LEAF


def test_poisson_schedule_repeats_and_has_the_rate():
    a = poisson_schedule(2000.0, 5.0, seed=1)
    assert a == poisson_schedule(2000.0, 5.0, seed=1)
    assert a != poisson_schedule(2000.0, 5.0, seed=2)
    assert a == sorted(a) and 0 < a[0] and a[-1] < 5.0
    assert abs(len(a) - 10000) < 400  # 4 sigma


def test_traffic_repeats_for_a_seed():
    a, b, c = Traffic(64, 5), Traffic(64, 5), Traffic(64, 6)
    assert a.payloads == b.payloads
    assert a.payloads != c.payloads
    assert np.allclose(a.expected, np.fft.fft(a.inputs, axis=-1))


def test_references_are_the_textbook_matrices():
    h4 = hadamard_matrix(4)
    assert np.array_equal(h4, [[1, 1, 1, 1], [1, -1, 1, -1],
                               [1, 1, -1, -1], [1, -1, -1, 1]])
    assert np.allclose(hadamard_matrix(8) @ hadamard_matrix(8),
                       8 * np.eye(8))
    d = dct2_matrix(4)
    assert np.allclose(d[0], 1.0)
    assert np.isclose(d[1, 0], np.cos(np.pi / 8))
