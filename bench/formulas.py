"""The seeded set of formulas ``compile-cold`` compiles.

22 programs: the serving default factorization of the FFT at four
sizes plus three factorizations of each drawn by the seed, two WHTs, a
recursive DCT-II, and three fully unrolled DFT codelets.  The draw is
the only part of the set that depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.formulas.factorization import ct_multi, wht_multi
from repro.generator.dct_rules import dct2_recursive
from repro.generator.fft_rules import ordered_factorizations
from repro.serve.plans import fft_factors

FFT_SIZES = (16, 64, 256, 1024)
WHT_SIZES = (64, 1024)
CODELET_SIZES = (8, 16, 32)
DRAWS_PER_SIZE = 3

#: Largest leaf a drawn factorization may contain.  A radix-16 or
#: radix-32 leaf is unrolled into thousands of lines whose gcc time
#: (2-4 s) would make one seed's set cost twice another's; the serving
#: default never uses a leaf above 8 either.  The unrolled-code case is
#: covered by the fixed (F 8), (F 16), (F 32) codelets.
MAX_DRAWN_LEAF = 8


@dataclass(frozen=True)
class Case:
    """One program: SPL text plus how to compile and check it."""

    name: str  # also the C symbol, so [A-Za-z0-9_] only
    text: str
    kind: str  # reference to check against: fft | wht | dct2
    n: int
    datatype: str  # "complex" | "real"
    unroll: bool = False  # fully unrolled codelet

    @property
    def is_complex(self) -> bool:
        return self.datatype == "complex"


def default_fft_case(n: int) -> Case:
    """The factorization ``spl serve`` compiles for an n-point FFT."""
    return Case(f"fft{n}_default", ct_multi(fft_factors(n)).to_spl(),
                "fft", n, "complex")


def wht_case(n: int) -> Case:
    k = n.bit_length() - 1
    exponents = [2] * (k // 2) + ([1] if k % 2 else [])
    return Case(f"wht{n}", wht_multi(exponents).to_spl(), "wht", n, "real")


def formula_set(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases: list[Case] = []
    for n in FFT_SIZES:
        default = fft_factors(n)
        cases.append(default_fft_case(n))
        pool = [f for f in ordered_factorizations(n)
                if max(f) <= MAX_DRAWN_LEAF and f != default]
        for factors in rng.sample(pool, DRAWS_PER_SIZE):
            label = "x".join(str(f) for f in factors)
            cases.append(Case(f"fft{n}_{label}", ct_multi(factors).to_spl(),
                              "fft", n, "complex"))
    cases.extend(wht_case(n) for n in WHT_SIZES)
    cases.append(Case("dct2_32", dct2_recursive(32).to_spl(), "dct2", 32,
                      "real"))
    cases.extend(Case(f"f{n}_unrolled", f"(F {n})", "fft", n, "complex",
                      unroll=True) for n in CODELET_SIZES)
    return cases
