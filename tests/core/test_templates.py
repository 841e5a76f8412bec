"""Unit tests for the template table: matching order, conditions, sizes."""

import threading

import pytest

from repro.core.compiler import SplCompiler
from repro.core.errors import SplTemplateError
from repro.core.parser import parse_formula_text, parse_program
from repro.core.templates import TemplateTable
from tests.conftest import assert_routine_matches_matrix


def startup_table() -> TemplateTable:
    return SplCompiler().templates


class TestMatching:
    def test_f2_overrides_general_f(self):
        table = startup_table()
        template, _ = table.find(parse_formula_text("(F 2)"))
        # The butterfly template has no condition; the general one does.
        assert template.condition is None

    def test_general_f_matches_others(self):
        table = startup_table()
        template, info = table.find(parse_formula_text("(F 6)"))
        assert info["ints"]["n_"] == 6

    def test_condition_filters(self):
        table = startup_table()
        # (L 4 3): 3 does not divide 4, so no template matches.
        assert table.find(parse_formula_text("(L 12 3)")) is not None

    def test_user_template_overrides_builtin(self):
        compiler = SplCompiler()
        source = """
        (template (F 2)
          (
            $out(0) = $in(0)
            $out(1) = $in(1)
          ))
        """
        compiler.parse(source)
        routine = compiler.compile_formula("(F 2)", "ident2",
                                           language="python")
        assert routine.run([1 + 0j, 2 + 0j]) == [1 + 0j, 2 + 0j]

    def test_paper_condition_example(self):
        """Pattern (L m_ n_) with [m_ == 2*n_] matches (L 4 2), not (L 4 1)."""
        compiler = SplCompiler()
        compiler.parse("""
        (template (L m_ n_) [m_ == 2*n_]
          (
            do $i0 = 0, m_ - 1
              $out($i0) = $in($i0)
            end
          ))
        """)
        template, _ = compiler.templates.find(parse_formula_text("(L 4 2)"))
        assert template.condition is not None  # the new one matched
        # (L 4 1) falls back to the built-in stride-permutation template.
        builtin, _ = compiler.templates.find(parse_formula_text("(L 4 1)"))
        assert builtin is not template


class TestSizes:
    def test_structural_sizes(self):
        table = startup_table()
        f = parse_formula_text("(compose (tensor (F 2) (I 2)) (L 4 2))")
        assert table.sizes(f) == (4, 4)

    def test_compose_mismatch_raises(self):
        table = startup_table()
        f = parse_formula_text("(compose (F 2) (F 4))")
        with pytest.raises(Exception):
            table.sizes(f)

    def test_size_inference_for_user_param(self):
        """A brand-new parameterized matrix gets its size from i-code."""
        compiler = SplCompiler()
        compiler.parse("""
        (template (COPYPAIR n_) [n_ > 0]
          (
            do $i0 = 0, n_ - 1
              $out(2 * $i0) = $in($i0)
              $out(2 * $i0 + 1) = $in($i0)
            end
          ))
        """)
        sizes = compiler.templates.sizes(parse_formula_text("(COPYPAIR 3)"))
        assert sizes == (3, 6)

    def test_size_inference_through_calls(self):
        compiler = SplCompiler()
        compiler.parse("""
        (template (DOUBLEF n_) [n_ > 0]
          (
            A_($in, $t0, 0, 0, 1, 1)
          ))
        """)
        # The template references an unbound formula variable; sizes
        # cannot be inferred and a clear error results.
        with pytest.raises(SplTemplateError):
            compiler.templates.sizes(parse_formula_text("(DOUBLEF 4)"))

    def test_unknown_param_raises(self):
        table = startup_table()
        with pytest.raises(SplTemplateError):
            table.sizes(parse_formula_text("(NOPE 3)"))

    def test_one_formula_sized_on_two_threads_at_once(self, monkeypatch):
        """A size inference in progress on one thread is no recursion
        on another: two compiles sharing a table (two cold routes
        built at once) both get the size."""
        table = startup_table()
        formula = parse_formula_text("(WHT 8)")
        inside, release = threading.Event(), threading.Event()
        param_sizes = table._param_sizes

        def held(param):
            if threading.current_thread().name == "first":
                inside.set()
                release.wait(10)
            return param_sizes(param)

        monkeypatch.setattr(table, "_param_sizes", held)
        sizes = {}
        first = threading.Thread(
            target=lambda: sizes.__setitem__("first", table.sizes(formula)),
            name="first")
        first.start()
        try:
            assert inside.wait(10)
            sizes["second"] = table.sizes(formula)
        finally:
            release.set()
            first.join(10)
        assert not first.is_alive()
        assert sizes == {"first": (8, 8), "second": (8, 8)}


class TestUserTemplateSemantics:
    def test_loop_fusion_template_from_paper(self):
        """Section 3.2: a template recognizing a whole compose can fuse
        two tensor loops into one."""
        compiler = SplCompiler()
        compiler.parse("""
        (template (compose (tensor (I m_) A_) (tensor (I m_) B_))
                  [A_.in_size == B_.out_size]
          (
            do $i0 = 0, m_ - 1
              B_($in, $t0, $i0 * B_.in_size, 0, 1, 1)
              A_($t0, $out, 0, $i0 * A_.out_size, 1, 1)
            end
          ))
        """)
        routine = compiler.compile_formula(
            "(compose (tensor (I 8) (F 2)) (tensor (I 8) (F 2)))",
            "fused", language="python",
        )
        assert_routine_matches_matrix(routine)
        # The fused code should contain exactly one top-level loop.
        from repro.core.icode import Loop
        loops = [i for i in routine.program.body if isinstance(i, Loop)]
        assert len(loops) == 1

    def test_new_parameterized_matrix_executes(self):
        compiler = SplCompiler()
        compiler.parse("""
        (template (SCALE2 n_) [n_ > 0]
          (
            do $i0 = 0, n_ - 1
              $out($i0) = 2.0 * $in($i0)
            end
          ))
        """)
        routine = compiler.compile_formula("(SCALE2 3)", "scale2",
                                           language="python",
                                           datatype="real")
        assert routine.run([1.0, 2.0, 3.0]) == [2.0, 4.0, 6.0]
