"""Golden output: the compiler emits the same code, byte for byte.

A fixed list of formulas is compiled for every target language and
three things are compared with ``golden_compile.json``, recorded on the
commit *before* a compiler-speed change: the SHA-256 of the emitted
source, the SHA-256 of the routine's ``pass_summary()`` size columns
(statements, temp arrays, scratch bytes in and out of every pass), and
the compile budget's final ``statements`` charge.  A pass that is made
faster must leave all three alone; a pass that is meant to change the
code re-records the file and says so.

The target language decides two things: whether the pass pipeline
lowers complex data to real code (C does; Fortran, Python and NumPy run
complex natively) and which printer emits the result.  So every
program goes through ``compile_formula`` twice — once as C, once as
Python — and the NumPy and Fortran sources are printed from the i-code
of the Python routine, as the compiler itself would after running the
same passes a second and third time; that keeps this suite a few
seconds long.  The file was recorded through ``compile_formula`` in all
four languages, so the hashes also say the shortcut is one.

Fortran is fixed-form, so the printer continues statements that would
pass column 72.  A Fortran record whose program has such statements
carries ``unwrapped_sha256`` as well: the hash of the source with the
statement continuation lines joined back, which is the ``source_sha256``
the commit before the wrapping recorded for the same program.

Re-record (from the repo root, on the commit whose output is the
reference)::

    PYTHONPATH=src python tests/core/test_golden_compile.py --record
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core import compiler as compiler_module
from repro.core.backend_fortran import CONT, LAST_COLUMN, MARGIN, emit_fortran
from repro.core.backend_numpy import emit_numpy
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.limits import CompileBudget
from repro.formulas.factorization import ct_multi, wht_multi
from repro.generator.dct_rules import dct2_recursive
from repro.generator.fft_rules import ordered_factorizations
from repro.serve.plans import fft_factors

GOLDEN = Path(__file__).with_name("golden_compile.json")
#: Languages compiled through the API -> printers run on the same i-code.
PIPELINES = {"c": {}, "python": {"numpy": emit_numpy,
                                 "fortran": emit_fortran}}
LANGUAGES = ("c", "python", "numpy", "fortran")
DEFAULT_SIZES = (16, 64, 256, 1024, 4096)
DRAWN_SIZES = (16, 64, 256, 1024)
SEEDS = (0, 1, 2)
DRAWS_PER_SIZE = 3
MAX_DRAWN_LEAF = 8
SIZE_COLUMNS = ("name", "icode_in", "icode_out", "temps_in", "temps_out",
                "scratch_in", "scratch_out")


@functools.cache
def formula_list() -> list[tuple[str, str, str, bool]]:
    """``(name, SPL text, datatype, fully unrolled)`` for every program:
    the serving default factorizations, the seeded draws the
    ``compile-cold`` benchmark makes for seeds 0-2, two WHTs, a
    recursive DCT-II and three unrolled DFT codelets."""
    cases: dict[str, tuple[str, str, str, bool]] = {}

    def add(name: str, text: str, datatype: str, unroll: bool = False):
        cases.setdefault(name, (name, text, datatype, unroll))

    for n in DEFAULT_SIZES:
        add(f"fft{n}_default", ct_multi(fft_factors(n)).to_spl(), "complex")
    for seed in SEEDS:
        rng = random.Random(seed)
        for n in DRAWN_SIZES:
            default = fft_factors(n)
            pool = [f for f in ordered_factorizations(n)
                    if max(f) <= MAX_DRAWN_LEAF and f != default]
            for factors in rng.sample(pool, DRAWS_PER_SIZE):
                label = "x".join(str(f) for f in factors)
                add(f"fft{n}_{label}", ct_multi(factors).to_spl(), "complex")
    for n in (64, 1024):
        k = n.bit_length() - 1
        exponents = [2] * (k // 2) + ([1] if k % 2 else [])
        add(f"wht{n}", wht_multi(exponents).to_spl(), "real")
    add("dct2_32", dct2_recursive(32).to_spl(), "real")
    for n in (8, 16, 32):
        add(f"f{n}_unrolled", f"(F {n})", "complex", True)
    return list(cases.values())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def unwrap_fortran(source: str) -> str:
    """Join statement continuation lines back onto their statement
    (``data`` statements were always continued and stay as they are)."""
    lines: list[str] = []
    in_data = False
    for line in source.splitlines():
        if line.startswith(CONT) and not in_data:
            lines[-1] += line[len(CONT):]
            continue
        if not line.startswith(CONT):
            in_data = line.startswith(f"{MARGIN}data ")
        lines.append(line)
    return "\n".join(lines) + "\n"


@functools.cache
def compile_sources(name: str, text: str, datatype: str, unroll: bool,
                    language: str) -> tuple[dict[str, str], str, int]:
    """``({target: source}, pass-size hash, budget charge)`` for
    ``language`` and the languages printed from its i-code.  C is
    compiled the way ``spl serve`` does (real code, ``-B 16``; codelets
    fully unrolled with the peephole pass), the others with their
    native element type."""
    codetype = "real" if language == "c" else None
    if unroll:
        options = CompilerOptions(codetype=codetype, unroll=True,
                                  peephole=True)
    else:
        options = CompilerOptions(codetype=codetype, unroll_threshold=16)
    budgets: list[CompileBudget] = []

    class RecordingBudget(CompileBudget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    original = compiler_module.CompileBudget
    compiler_module.CompileBudget = RecordingBudget
    try:
        routine = SplCompiler(options).compile_formula(
            text, name, datatype=datatype, language=language)
    finally:
        compiler_module.CompileBudget = original
    sizes = [[record[column] for column in SIZE_COLUMNS]
             for record in routine.pass_summary()]
    sources = {language: routine.source}
    for other, emit in PIPELINES[language].items():
        sources[other] = emit(routine.program)
    return (sources, _sha256(json.dumps(sizes)),
            max(b.statements for b in budgets))


def compile_records(name: str, text: str, datatype: str, unroll: bool,
                    language: str) -> dict[str, dict]:
    """``"name/target" -> record`` for everything ``compile_sources``
    printed."""
    sources, passes, statements = compile_sources(
        name, text, datatype, unroll, language)
    records = {}
    for target, source in sources.items():
        records[f"{name}/{target}"] = record = {
            "source_sha256": _sha256(source),
            "passes_sha256": passes,
            "budget_statements": statements,
        }
        unwrapped = unwrap_fortran(source) if target == "fortran" else source
        if unwrapped != source:
            record["unwrapped_sha256"] = _sha256(unwrapped)
    return records


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_formula_list(golden):
    expected = {f"{case[0]}/{language}" for case in formula_list()
                for language in LANGUAGES}
    assert set(golden) == expected


@pytest.mark.parametrize("language", PIPELINES)
def test_emitted_code_matches_the_recorded_hashes(golden, language):
    mismatches = []
    for case in formula_list():
        for key, got in compile_records(*case, language).items():
            if set(got) != set(golden[key]):
                mismatches.append(f"{key}: fields {sorted(got)} != "
                                  f"recorded {sorted(golden[key])}")
            for field, want in golden[key].items():
                if got.get(field) != want:
                    mismatches.append(f"{key}: {field} {got.get(field)} "
                                      f"!= recorded {want}")
    assert not mismatches, "\n".join(mismatches)


def test_fortran_statements_stay_inside_the_fixed_form_columns():
    """A fixed-form compiler stops reading at column 72 without a word."""
    too_wide = [
        f"{case[0]}: {len(line)} columns: {line}"
        for case in formula_list()
        for line in compile_sources(*case, "python")[0]["fortran"].splitlines()
        if len(line) > LAST_COLUMN and not line.startswith("c ")
    ]
    assert not too_wide, "\n".join(too_wide[:10])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    # Every language through the API: the reference owes nothing to
    # the shortcut the test takes.
    PIPELINES = {language: {} for language in LANGUAGES}
    records: dict[str, dict] = {}
    for case in formula_list():
        for language in LANGUAGES:
            records.update(compile_records(*case, language))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN}")
