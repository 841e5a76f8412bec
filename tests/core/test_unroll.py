"""Unit tests for loop unrolling and scalarization (Section 3.3.1)."""

from repro.core.codegen import CodeGenerator
from repro.core.compiler import SplCompiler
from repro.core.icode import Loop, Op, VecRef, iter_ops
from repro.core.parser import parse_formula_text
from repro.core.unroll import scalarize_temps, unroll_loops
from tests.conftest import assert_program_matches_matrix


def generate(text: str, *, unroll_all=False):
    compiler = SplCompiler()
    gen = CodeGenerator(compiler.templates, unroll_all=unroll_all)
    return gen.generate(parse_formula_text(text), "test", "complex")


class TestFullUnroll:
    def test_marked_loops_disappear(self):
        program = generate("(I 4)", unroll_all=True)
        unroll_loops(program)
        assert all(isinstance(i, Op) for i in program.body)
        assert len(program.body) == 4

    def test_unmarked_loops_stay(self):
        program = generate("(I 4)")
        unroll_loops(program)
        assert any(isinstance(i, Loop) for i in program.body)

    def test_semantics_preserved(self):
        program = generate("(compose (T 8 4) (L 8 2))", unroll_all=True)
        unroll_loops(program)
        assert_program_matches_matrix(program, "(compose (T 8 4) (L 8 2))")

    def test_nested_loops_fully_expand(self):
        program = generate("(F 4)", unroll_all=True)
        unroll_loops(program)
        assert all(isinstance(i, Op) for i in program.body)
        assert_program_matches_matrix(program, "(F 4)")

    def test_indices_become_constant(self):
        program = generate("(I 4)", unroll_all=True)
        unroll_loops(program)
        for op in iter_ops(program.body):
            for item in (op.dest, *op.operands()):
                if isinstance(item, VecRef):
                    assert item.index.as_const() is not None


class TestScalarization:
    def test_constant_indexed_temps_become_scalars(self):
        program = generate("(compose (F 2) (F 2))", unroll_all=True)
        unroll_loops(program)
        scalarize_temps(program)
        assert program.temp_vectors() == []
        for op in iter_ops(program.body):
            for item in (op.dest, *op.operands()):
                if isinstance(item, VecRef):
                    assert item.vec in ("x", "y")

    def test_io_vectors_never_scalarized(self):
        program = generate("(F 2)", unroll_all=True)
        unroll_loops(program)
        scalarize_temps(program)
        names = {item.vec for op in iter_ops(program.body)
                 for item in (op.dest, *op.operands())
                 if isinstance(item, VecRef)}
        assert names == {"x", "y"}

    def test_loop_indexed_temps_survive(self):
        program = generate("(compose (F 2) (F 2))")  # not unrolled
        unroll_loops(program)
        scalarize_temps(program)
        # The compose temp has constant indices even without unrolling
        # (size-2 straight-line butterflies), so it scalarizes; build a
        # genuinely loopy case instead:
        program2 = generate("(tensor (F 2) (F 3))")
        unroll_loops(program2)
        scalarize_temps(program2)
        assert len(program2.temp_vectors()) == 1

    def test_semantics_preserved(self):
        text = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))"
        program = generate(text, unroll_all=True)
        unroll_loops(program)
        scalarize_temps(program)
        assert_program_matches_matrix(program, text)

    def test_fresh_scalar_names_do_not_collide(self):
        program = generate("(compose (F 2) (F 2))", unroll_all=True)
        unroll_loops(program)
        before = set(program.scalar_names())
        scalarize_temps(program)
        after = program.scalar_names()
        assert len(after) == len(set(after))
        assert before <= set(after)
