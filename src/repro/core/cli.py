"""Command-line interface: ``spl-compile [options] file.spl``.

Mirrors the paper's compiler invocation, including the ``-B`` unrolling
threshold ('with the command-line option "-B 32", all the loops in
those sub-formulas whose input vector is smaller than or equal to 32
are fully unrolled').

Beyond the paper, ``--search-fft SIZES`` runs the §4.1 small-size
search from the command line, with ``--wisdom FILE`` persisting the
winners (so a repeat invocation re-measures nothing) and ``--jobs N``
measuring candidates concurrently.  Search measurements run on N
leased worker processes by default — a candidate that segfaults,
hangs past ``--measure-timeout`` or emits NaN is skipped and
quarantined instead of killing the search, and ``--search-journal
FILE`` lets an interrupted search resume; ``--no-sandbox`` opts out
(in-process, N threads).  ``--language numpy`` targets the
batch-vectorized NumPy backend.  This command compiles and searches; it
does not benchmark — runner and server speed are measured by
``bench/run.py`` and nothing else.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplError
from repro.core.limits import DEFAULT_LIMITS


def build_arg_parser() -> argparse.ArgumentParser:
    arg_parser = argparse.ArgumentParser(
        prog="spl-compile",
        description="Compile SPL formulas into Fortran, C or Python.",
    )
    arg_parser.add_argument(
        "file", nargs="?", default=None,
        help="SPL source file ('-' for stdin); optional with --search-fft",
    )
    arg_parser.add_argument(
        "-B", "--unroll-threshold", type=int, metavar="SIZE", default=None,
        help="fully unroll loops of sub-formulas with input size <= SIZE",
    )
    arg_parser.add_argument(
        "--unroll", action="store_true",
        help="fully unroll every loop (straight-line code)",
    )
    arg_parser.add_argument(
        "--language", choices=("c", "cjit", "fortran", "python", "numpy"),
        default=None,
        help="target language (overrides #language directives; cjit = "
             "C semantics with in-process machine-code compilation "
             "for codelets)",
    )
    arg_parser.add_argument(
        "--datatype", choices=("real", "complex"), default=None,
        help="data type (overrides #datatype directives)",
    )
    arg_parser.add_argument(
        "--codetype", choices=("real", "complex"), default=None,
        help="code type (overrides #codetype directives)",
    )
    arg_parser.add_argument(
        "--optimize", choices=("none", "scalars", "default"),
        default="default", help="optimization level (default: default)",
    )
    arg_parser.add_argument(
        "--peephole", action="store_true",
        help="apply the SPARC-style unary-minus peephole",
    )
    arg_parser.add_argument(
        "--automatic", action="store_true",
        help="declare Fortran temporaries 'automatic' (stack allocation)",
    )
    arg_parser.add_argument(
        "--no-fusion", action="store_true",
        help="disable cross-stage loop fusion and scratch liveness "
             "reuse (stage-at-a-time code, as in the paper)",
    )
    arg_parser.add_argument(
        "--validate-passes", action="store_true",
        help="re-derive each routine's dense matrix after every "
             "optimizer pass and abort (SPL-E300) if any pass changed "
             "its semantics; slow, intended for debugging and fuzzing",
    )
    arg_parser.add_argument(
        "--dump-passes", action="store_true",
        help="print the per-pass compile report (statement/temp/"
             "scratch deltas, per-pass time) for each routine to stderr",
    )
    arg_parser.add_argument(
        "--max-icode", type=int, metavar="N", default=None,
        help="abort compilation past N intermediate-code statements "
             f"(default {DEFAULT_LIMITS.max_icode_statements})",
    )
    arg_parser.add_argument(
        "--max-unroll", type=int, metavar="N", default=None,
        help="reject loop unrolling past N total statements "
             f"(default {DEFAULT_LIMITS.max_unroll_statements})",
    )
    arg_parser.add_argument(
        "--compile-deadline", type=float, metavar="SECONDS", default=None,
        help="wall-clock limit per compiled routine "
             f"(default {DEFAULT_LIMITS.compile_deadline:g})",
    )
    arg_parser.add_argument(
        "--stats", action="store_true",
        help="print flop/memory statistics for each routine to stderr "
             "(with --wisdom: also the wisdom-cache counters)",
    )
    arg_parser.add_argument(
        "--search-fft", metavar="SIZES", default=None,
        help="run the small-size FFT search over the comma-separated "
             "sizes (e.g. 2,4,8) and print the winners",
    )
    arg_parser.add_argument(
        "--wisdom", metavar="FILE", default=None,
        help="persistent wisdom file: search winners are loaded from / "
             "saved to it, keyed by platform and options",
    )
    arg_parser.add_argument(
        "--jobs", type=int, metavar="N", default=1,
        help="measure up to N --search-fft candidates concurrently: N "
             "leased worker processes, or N threads with --no-sandbox "
             "(0 = one per CPU)",
    )
    arg_parser.add_argument(
        "--min-time", type=float, metavar="SECONDS", default=0.005,
        help="minimum timed batch duration per measurement repeat",
    )
    arg_parser.add_argument(
        "--max-candidates", type=int, metavar="N", default=None,
        help="cap the per-size candidate count during --search-fft",
    )
    arg_parser.add_argument(
        "--unroll-search", metavar="SIZES", default=None,
        help="sweep the -B unroll threshold over these comma-separated "
             "values as a second --search-fft dimension (each candidate "
             "is measured once per threshold; the winning threshold is "
             "recorded in wisdom)",
    )
    arg_parser.add_argument(
        "--measure-timeout", type=float, metavar="SECONDS", default=30.0,
        help="wall-clock limit per isolated candidate measurement "
             "during --search-fft; hung candidates are killed and "
             "quarantined (default 30)",
    )
    arg_parser.add_argument(
        "--no-sandbox", action="store_true",
        help="measure --search-fft candidates in-process instead of in "
             "isolated worker processes (faster, but a crashing or "
             "hanging candidate takes the search down with it)",
    )
    arg_parser.add_argument(
        "--search-journal", metavar="FILE", default=None,
        help="append completed --search-fft measurements to this "
             "checksummed journal; an interrupted run resumes from it "
             "(not with --no-sandbox)",
    )
    return arg_parser


def _run_search(args: argparse.Namespace) -> int:
    from repro.perfeval.sandbox import Quarantine, SandboxPolicy
    from repro.search.dp import search_small_sizes
    from repro.wisdom.store import WisdomStore

    try:
        sizes = tuple(
            int(part) for part in args.search_fft.split(",") if part.strip()
        )
    except ValueError:
        print(f"spl-compile: bad --search-fft value {args.search_fft!r}",
              file=sys.stderr)
        return 2
    if not sizes:
        print("spl-compile: --search-fft needs at least one size",
              file=sys.stderr)
        return 2
    thresholds = None
    if args.unroll_search is not None:
        try:
            thresholds = tuple(
                int(part) for part in args.unroll_search.split(",")
                if part.strip()
            )
        except ValueError:
            print("spl-compile: bad --unroll-search value "
                  f"{args.unroll_search!r}", file=sys.stderr)
            return 2
        if not thresholds:
            print("spl-compile: --unroll-search needs at least one "
                  "threshold", file=sys.stderr)
            return 2
    wisdom = WisdomStore(args.wisdom) if args.wisdom else None
    # Hosts without fork measure in-process whatever the policy says.
    sandbox = quarantine = None
    if not args.no_sandbox:
        sandbox = SandboxPolicy(timeout=args.measure_timeout)
        quarantine = Quarantine()
    try:
        results = search_small_sizes(
            sizes,
            max_candidates=args.max_candidates,
            min_time=args.min_time,
            wisdom=wisdom,
            jobs=args.jobs,
            sandbox=sandbox,
            quarantine=quarantine,
            journal_path=args.search_journal,
            unroll_thresholds=thresholds,
        )
    except SplError as exc:
        print(f"spl-compile: {exc}", file=sys.stderr)
        return 1
    for n in sorted(results):
        print(results[n].describe())
    if wisdom is not None and wisdom.save_errors:
        print(f"spl-compile: warning: cannot write wisdom file "
              f"{wisdom.path} (results not persisted)", file=sys.stderr)
    if args.stats and wisdom is not None:
        print(wisdom.describe(), file=sys.stderr)
    if args.stats and quarantine is not None and len(quarantine):
        print(quarantine.describe(), file=sys.stderr)
    return 0


def _report(exc: SplError, source: str, filename: str) -> None:
    """Print one rendered diagnostic (caret snippet and all) to stderr."""
    print(f"spl-compile: {exc.render(source, filename=filename)}",
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("spl-compile: interrupted", file=sys.stderr)
        return 130


def _main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.search_fft is not None:
        return _run_search(args)
    if args.file is None:
        print("spl-compile: a source file (or --search-fft) is required",
              file=sys.stderr)
        return 2
    if args.file == "-":
        source = sys.stdin.read()
        filename = "<stdin>"
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"spl-compile: {exc}", file=sys.stderr)
            return 2
        filename = args.file
    options = CompilerOptions(
        language=args.language,
        datatype=args.datatype,
        codetype=args.codetype,
        unroll=args.unroll,
        unroll_threshold=args.unroll_threshold,
        optimize=args.optimize,
        peephole=args.peephole,
        automatic_storage=args.automatic,
        fusion=not args.no_fusion,
        validate_passes=args.validate_passes,
    )
    limits = DEFAULT_LIMITS.with_overrides(
        max_icode_statements=args.max_icode,
        max_unroll_statements=args.max_unroll,
        compile_deadline=args.compile_deadline,
    )
    compiler = SplCompiler(options, limits=limits)
    # Parse in recovery mode so one bad unit does not hide the errors
    # in the rest of the file; every diagnostic is reported at once.
    program = compiler.parse(source, recover=True)
    if program.errors:
        for exc in program.errors:
            _report(exc, source, filename)
        return 1
    compiler.defines.update(program.defines)
    routines = []
    failures = 0
    for unit in program.units:
        try:
            routines.append(compiler.compile_unit(unit))
        except SplError as exc:
            if exc.line is None and unit.line:
                exc.line = unit.line
            _report(exc, source, filename)
            failures += 1
    if failures:
        return 1
    for routine in routines:
        print(routine.source)
        if args.dump_passes:
            print(routine.describe_passes(), file=sys.stderr)
        if args.stats:
            program = routine.program
            print(
                f"; {routine.name}: in={program.in_size} "
                f"out={program.out_size} flops={program.flop_count()} "
                f"temps={program.temp_elements()} "
                f"tables={program.table_elements()}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
