"""Tests for the spl-compile command-line interface."""

import pytest

from repro.core.cli import main
from repro.runtime.workers import supported as sandbox_supported
from tests.conftest import HAS_CC


@pytest.fixture
def spl_file(tmp_path):
    path = tmp_path / "prog.spl"
    path.write_text("#subname fft4\n"
                    "(compose (tensor (F 2) (I 2)) (T 4 2) "
                    "(tensor (I 2) (F 2)) (L 4 2))\n")
    return path


class TestCli:
    def test_default_fortran_output(self, spl_file, capsys):
        assert main([str(spl_file)]) == 0
        out = capsys.readouterr().out
        assert "subroutine fft4 (y,x)" in out

    def test_c_output(self, spl_file, capsys):
        assert main([str(spl_file), "--language", "c"]) == 0
        out = capsys.readouterr().out
        assert "void fft4(" in out

    def test_python_output(self, spl_file, capsys):
        assert main([str(spl_file), "--language", "python"]) == 0
        assert "def fft4(" in capsys.readouterr().out

    def test_numpy_output(self, spl_file, capsys):
        assert main([str(spl_file), "--language", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "import numpy as np" in out
        assert "def fft4(y, x):" in out

    def test_unroll_threshold_flag(self, spl_file, capsys):
        assert main([str(spl_file), "-B", "32", "--language", "c"]) == 0
        out = capsys.readouterr().out
        assert "for (" not in out  # fully unrolled

    def test_stats_flag(self, spl_file, capsys):
        assert main([str(spl_file), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "flops=" in err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/file.spl"]) == 2

    def test_bad_program_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.spl"
        path.write_text("(compose (F 2) (F 4))\n")  # size mismatch
        assert main([str(path)]) == 1
        assert "spl-compile:" in capsys.readouterr().err

    def test_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(I 2)\n"))
        assert main(["-"]) == 0
        assert "subroutine" in capsys.readouterr().out

    def test_optimize_none(self, spl_file, capsys):
        assert main([str(spl_file), "--optimize", "none", "--unroll"]) == 0
        out = capsys.readouterr().out
        assert "t0(" in out  # temp arrays survive without scalarization

    def test_no_file_and_no_search_is_an_error(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err


class TestCliDiagnostics:
    """Errors must come out rendered — with code, span and caret —
    and exit 1; the CLI never shows a traceback for bad input."""

    def test_syntax_error_is_rendered_with_caret(self, tmp_path, capsys):
        path = tmp_path / "bad.spl"
        path.write_text("(compose\n  (F 2) @@\n  (F 2))\n")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error SPL-E100" in err
        assert "line 2" in err
        assert str(path) in err
        assert "^" in err  # the caret snippet

    def test_multiple_parse_errors_reported_in_one_run(self, tmp_path,
                                                       capsys):
        path = tmp_path / "multi.spl"
        path.write_text("#wibble on\n"
                        "(I 2)\n"
                        "#unroll sideways\n"
                        "(J 2)\n")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        # Both bad directives diagnosed despite resynchronization.
        assert err.count("error SPL-E") == 2
        assert "#wibble" in err
        assert "#unroll" in err
        assert "Traceback" not in err

    def test_multiple_compile_errors_reported_in_one_run(self, tmp_path,
                                                         capsys):
        path = tmp_path / "multi2.spl"
        path.write_text("(compose (F 2) (F 3))\n"
                        "(I 2)\n"
                        "(frobnicate 4)\n")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        # Units 1 and 3 each get their own rendered diagnostic.
        assert err.count("error SPL-E") == 2
        assert "Traceback" not in err

    def test_truncated_source_is_a_clean_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "cut.spl"
        path.write_text("(compose (tensor (F 2) (I 2)) (T 4")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "error SPL-E1" in err
        assert "Traceback" not in err

    def test_recursion_bomb_exits_typed(self, tmp_path, capsys):
        path = tmp_path / "deep.spl"
        depth = 500
        path.write_text("(compose (I 2) " * depth + "(I 2)" + ")" * depth)
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "error SPL-E201" in err
        assert "RecursionError" not in err
        assert "Traceback" not in err

    def test_unroll_bomb_exits_typed(self, tmp_path, capsys):
        path = tmp_path / "bomb.spl"
        path.write_text("#unroll on\n(tensor (I 64) (F 64))\n")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "error SPL-E20" in err
        assert "Traceback" not in err

    def test_compile_error_names_the_unit_line(self, tmp_path, capsys):
        path = tmp_path / "semantic.spl"
        path.write_text("; fine until codegen\n(compose (F 2) (F 4))\n")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "error SPL-E" in err
        assert "line 2" in err

    def test_limit_flags_are_honored(self, tmp_path, capsys):
        path = tmp_path / "f8.spl"
        path.write_text("#unroll on\n(F 8)\n")
        assert main([str(path), "--max-unroll", "5"]) == 1
        err = capsys.readouterr().err
        assert "error SPL-E204" in err
        capsys.readouterr()
        assert main([str(path)]) == 0  # fine under the defaults

    def test_limit_flags_parse(self):
        from repro.core.cli import build_arg_parser

        args = build_arg_parser().parse_args(
            ["x.spl", "--max-icode", "1000", "--max-unroll", "2000",
             "--compile-deadline", "3.5"])
        assert args.max_icode == 1000
        assert args.max_unroll == 2000
        assert args.compile_deadline == 3.5
        defaults = build_arg_parser().parse_args(["x.spl"])
        assert defaults.max_icode is None
        assert defaults.compile_deadline is None

    def test_keyboard_interrupt_exits_130(self, spl_file, monkeypatch,
                                          capsys):
        from repro.core import cli

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.SplCompiler, "compile_unit", interrupt)
        assert main([str(spl_file)]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestCliSearch:
    def test_search_fft_with_wisdom(self, tmp_path, capsys):
        wisdom_file = tmp_path / "wisdom.json"
        argv = ["--search-fft", "2,4", "--wisdom", str(wisdom_file),
                "--min-time", "0.0005", "--max-candidates", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pseudo-MFlops" in out
        assert wisdom_file.exists()
        # Warm run: winners replayed from the wisdom file.
        assert main(argv + ["--stats"]) == 0
        captured = capsys.readouterr()
        assert "(wisdom)" in captured.out
        assert "wisdom[" in captured.err
        assert "2 hits" in captured.err

    def test_search_fft_parallel_jobs(self, tmp_path, capsys):
        assert main(["--search-fft", "2,4", "--jobs", "2",
                     "--min-time", "0.0005", "--max-candidates", "2"]) == 0
        assert "pseudo-MFlops" in capsys.readouterr().out

    def test_bad_sizes_rejected(self, capsys):
        assert main(["--search-fft", "two,four"]) == 2
        assert main(["--search-fft", ","]) == 2

    def test_search_with_explicit_sandbox_knobs(self, capsys):
        assert main(["--search-fft", "2,4", "--min-time", "0.0005",
                     "--max-candidates", "2",
                     "--measure-timeout", "15"]) == 0
        assert "pseudo-MFlops" in capsys.readouterr().out

    def test_search_with_sandbox_disabled(self, capsys):
        assert main(["--search-fft", "2,4", "--min-time", "0.0005",
                     "--max-candidates", "2", "--no-sandbox"]) == 0
        assert "pseudo-MFlops" in capsys.readouterr().out

    @pytest.mark.skipif(
        not (HAS_CC and sandbox_supported()),
        reason="the journal belongs to isolated measurement")
    def test_search_journal_works_at_jobs_1_and_resumes(self, tmp_path,
                                                        capsys):
        journal = tmp_path / "journal.jsonl"
        argv = ["--search-fft", "2,4", "--min-time", "0.0005",
                "--max-candidates", "2", "--jobs", "1",
                "--search-journal", str(journal)]
        assert main(argv) == 0
        records = journal.read_text().splitlines()
        assert len(records) == 3  # F_2: 1 candidate, F_4: 2
        # No wisdom file: the rerun enumerates the same candidates and
        # finds every one in the journal, so nothing is appended.
        assert main(argv) == 0
        assert journal.read_text().splitlines() == records
        assert "pseudo-MFlops" in capsys.readouterr().out

    def test_sandbox_flags_parse(self):
        from repro.core.cli import build_arg_parser

        args = build_arg_parser().parse_args(
            ["--search-fft", "8", "--measure-timeout", "2.5",
             "--no-sandbox"])
        assert args.measure_timeout == 2.5
        assert args.no_sandbox is True
        defaults = build_arg_parser().parse_args(["--search-fft", "8"])
        assert defaults.measure_timeout == 30.0
        assert defaults.no_sandbox is False
