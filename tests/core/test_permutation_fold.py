"""A permutation at the right end of a product is read through, not copied.

Eq. 10's digit reversal (a product of ``I (x) L`` factors) and any other
product of ``I``, ``J`` and ``L`` at the right end of a ``compose`` is
folded into the reads of the stage it feeds (``repro.core.codegen``):
``I_m (x) A`` runs its loop over the digits the permutation needs, and
every other stage reads through a view that maps its subscripts.  These
tests hold the generated code to that shape, to the dense semantics and
to the bounds of the vectors it reads.
"""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.codegen import CodeGenerator
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.icode import FConst, IExpr, Loop, VecRef, iter_ops
from repro.core.parser import parse_formula_text
from repro.formulas import to_matrix
from repro.formulas.factorization import ct_multi
from repro.perfeval.ccompile import have_c_compiler
from repro.perfeval.runner import build_executable
from repro.serve.plans import fft_factors
from tests.conftest import PORTABLE_CFLAGS, assert_program_matches_matrix
from tests.core.test_golden_compile import formula_list

#: The options ``spl serve`` compiles a looped plan with.
SERVED = CompilerOptions(codetype="real", unroll_threshold=16)
DEFAULT_SIZES = (16, 64, 256, 1024, 4096)


def generate(text: str, compiler: SplCompiler | None = None):
    compiler = compiler or SplCompiler()
    return CodeGenerator(compiler.templates).generate(
        parse_formula_text(text), "test", "complex")


def is_copy_nest(inst) -> bool:
    """A top-level loop nest whose every op is a plain copy."""
    ops = list(iter_ops([inst]))
    return isinstance(inst, Loop) and bool(ops) and all(
        op.op == "=" and op.b is None
        and isinstance(op.a, (VecRef, FConst)) for op in ops)


def fft_programs() -> list:
    """Every FFT program of the golden list (``ct_multi``, drawn and
    default), plus the five served default plans."""
    cases = {name: text for name, text, _, unroll in formula_list()
             if name.startswith("fft") and not unroll}
    for n in DEFAULT_SIZES:
        cases[f"fft{n}_default"] = ct_multi(fft_factors(n)).to_spl()
    return [pytest.param(name, text, id=name)
            for name, text in sorted(cases.items())]


def x_subscripts(body, ranges=None):
    """``(subscript, loop ranges)`` for every read of ``x``."""
    ranges = ranges or {}
    for inst in body:
        if isinstance(inst, Loop):
            yield from x_subscripts(
                inst.body, {**ranges, inst.var: (0, inst.count - 1)})
        elif hasattr(inst, "operands"):
            for operand in inst.operands():
                if isinstance(operand, VecRef) and operand.vec == "x":
                    yield operand.index, ranges


def assert_reads_in_bounds(program) -> None:
    limit = program.in_size * program.element_width
    for index, ranges in x_subscripts(program.body):
        lo, hi = index.interval(ranges)
        assert 0 <= lo and hi < limit, (
            f"{program.name}: x[{index}] spans [{lo}, {hi}] outside "
            f"[0, {limit})")


class TestServedPlans:
    @pytest.mark.parametrize("name,text", fft_programs())
    def test_no_stage_only_copies(self, name, text):
        """At the parent, 29 of these programs kept 1-6 copy-only
        nests.  (``dct2_32`` keeps one: its left-end ``L`` scatters
        into ``y``, and only a permutation at the right end is read
        through.)"""
        routine = SplCompiler(SERVED).compile_formula(
            text, name, datatype="complex", language="c")
        copies = [inst for inst in routine.program.body
                  if is_copy_nest(inst)]
        assert not copies, f"{name}: {len(copies)} copy-only nests"

    @pytest.mark.parametrize("name,text", fft_programs())
    def test_first_stage_reads_x_in_bounds(self, name, text):
        """The folded stage is the first butterfly: it reads ``x`` (no
        copy stage before it) through subscripts whose interval over
        the loop ranges stays inside ``x``.  The kernel runs on the
        caller's memory, so a wrong fold would read out of bounds."""
        generated = generate(text)
        first = generated.body[0]
        assert "x" in {ref.vec for op in iter_ops([first])
                       for ref in op.operands() if isinstance(ref, VecRef)}
        assert not is_copy_nest(first)
        assert_reads_in_bounds(generated)
        routine = SplCompiler(SERVED).compile_formula(
            text, name, datatype="complex", language="c")
        assert_reads_in_bounds(routine.program)


@st.composite
def factor_lists(draw):
    """``ct_multi`` factor lists with n <= 512 and leaves 2-8."""
    factors = [draw(st.integers(2, 8))]
    while True:
        room = 512 // math.prod(factors)
        if room < 2 or (len(factors) > 1 and draw(st.booleans())):
            return factors
        factors.append(draw(st.integers(2, min(8, room))))


class TestRandomFactorizations:
    @settings(max_examples=12, deadline=None)
    @given(factor_lists())
    def test_every_target_matches_the_matrix(self, factors):
        formula = ct_multi(factors)
        matrix = to_matrix(formula)
        n = matrix.shape[1]
        rng = np.random.default_rng(len(factors))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        compiler = SplCompiler(SERVED)
        for language in ("python", "numpy", "c"):
            routine = compiler.compile_formula(
                formula, "prop", datatype="complex", language=language)
            assert not any(map(is_copy_nest, routine.program.body))
            if language == "c":
                if not have_c_compiler():
                    continue
                executable = build_executable(routine, prefer="c",
                                              cflags=PORTABLE_CFLAGS)
                got = executable.apply(x)
            else:
                got = np.asarray(routine.run(list(x)))
            np.testing.assert_allclose(got, matrix @ x, atol=1e-9 * n)


class TestFold:
    def test_stride_permutation_becomes_a_read_stride(self):
        program = generate("(compose (tensor (I 4) (F 4)) (L 16 4))")
        assert program.temp_vectors() == []
        assert_program_matches_matrix(
            program, "(compose (tensor (I 4) (F 4)) (L 16 4))")

    def test_digit_reversal_splits_the_loop_into_digits(self):
        text = ct_multi([4, 4, 4]).to_spl()
        program = generate(text)
        nest = program.body[0]
        counts = []
        while isinstance(nest, Loop):
            counts.append(nest.count)
            nest = nest.body[0]
        assert counts[:2] == [4, 4]  # I_16 as two base-4 digits
        assert_program_matches_matrix(program, text)

    def test_reversal_in_a_direct_sum_is_read_through(self):
        # DCT-II's input stage (I_4 (+) J_4) feeding F_2 (x) I_4.
        text = "(compose (tensor (F 2) (I 4)) (direct-sum (I 4) (J 4)))"
        program = generate(text)
        assert program.temp_vectors() == []
        assert_program_matches_matrix(program, text)

    def test_a_read_that_is_not_affine_falls_back_to_a_copy(self):
        # (F 4) reads $in($i1) for i1 in 0..3; L^4_2 splits i1 in two.
        text = "(compose (F 4) (L 4 2))"
        program = generate(text)
        assert len(program.temp_vectors()) == 1
        assert program.body[0].var == "i0"  # the attempt spent no name
        assert_program_matches_matrix(program, text)

    def test_a_user_template_for_the_permutation_is_honoured(self):
        compiler = SplCompiler()
        compiler.add_definitions("""
            (template (L nn_ s_) [nn_ == 16 && s_ == 4]
              (do $i0 = 0, 3
                 do $i1 = 0, 3
                   $out($i1 * 4 + $i0) = $in($i0 * 4 + $i1)
                 end
               end))
        """)
        text = "(compose (tensor (I 4) (F 4)) (L 16 4))"
        program = generate(text, compiler)
        assert len(program.temp_vectors()) == 1
        assert_program_matches_matrix(program, text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["i", "j", "k"]),
                          st.integers(-20, 20)), max_size=4),
       st.integers(-50, 50), st.integers(1, 12))
def test_split_multiples_is_exact(terms, constant, m):
    expr = IExpr.const(constant)
    for name, coeff in terms:
        expr = expr + IExpr.var(name) * coeff
    high, low = expr.split_multiples(m)
    assert high * m + low == expr
    assert all(coeff % m for mono, coeff in low.terms if mono)
    assert 0 <= low.split_const()[1] < m
