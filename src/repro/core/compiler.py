"""The SPL compiler driver: the five phases of Section 3 in order.

1. parsing,
2. intermediate code generation,
3. intermediate code restructuring (unrolling + scalarization,
   intrinsic evaluation, type transformation),
4. optimization (value numbering + DCE, optional peephole),
5. target code generation (Fortran / C / Python).

The optimization level knob mirrors the three code versions of the
paper's Figure 2 experiment:

* ``"none"``    — version (1): no optimization;
* ``"scalars"`` — version (2): temporary vectors replaced by scalars;
* ``"default"`` — version (3): scalars + the default value-numbering
  optimizations.
"""

from __future__ import annotations

import importlib.resources
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.core import parser
from repro.core.backend_c import emit_c
from repro.core.backend_fortran import emit_fortran
from repro.core.backend_numpy import compile_numpy, emit_numpy
from repro.core.backend_python import compile_python, emit_python
from repro.core.codegen import CodeGenerator
from repro.core.errors import SplError, SplSemanticError
from repro.core.fusion import fuse_conformable_stages
from repro.core.icode import Program
from repro.core.intrinsics import evaluate_intrinsics
from repro.core.limits import CompileBudget, CompileLimits, DEFAULT_LIMITS
from repro.core.nodes import Formula
from repro.core.optimizer import PassPipeline, PassRecord, optimize
from repro.core.parser import FormulaUnit, ParsedProgram
from repro.core.peephole import (
    avoid_unary_minus,
    prune_dead_temps,
    reuse_temp_arrays,
)
from repro.core.templates import STARTUP, TemplateTable
from repro.core.typetrans import complex_to_real
from repro.core.unroll import scalarize_temps, unroll_loops
from repro.wisdom import keys as wisdom_keys

OPT_LEVELS = ("none", "scalars", "default")


@dataclass(frozen=True)
class CompilerOptions:
    """Knobs corresponding to the paper's command-line options."""

    language: str | None = None  # None: honor each unit's #language
    datatype: str | None = None  # None: honor each unit's #datatype
    codetype: str | None = None
    unroll: bool = False  # unroll every loop (straight-line code)
    unroll_threshold: int | None = None  # the paper's "-B <size>"
    optimize: str = "default"
    peephole: bool = False  # SPARC-style unary-minus rewriting
    automatic_storage: bool = False  # Fortran 'automatic' declarations
    # Cross-stage loop fusion + scratch liveness reuse (only active at
    # optimize="default"); off reproduces the paper's stage-at-a-time
    # code exactly, which is also the before-side of the benchmarks.
    fusion: bool = True
    # Per-pass translation validation: after every optimizer pass,
    # re-derive the matrix the i-code denotes and fail typed
    # (SPL-E300) if any pass changed it.
    validate_passes: bool = False

    def __post_init__(self) -> None:
        if self.optimize not in OPT_LEVELS:
            raise SplSemanticError(
                f"optimize must be one of {OPT_LEVELS}, got {self.optimize!r}"
            )


@dataclass
class CompiledRoutine:
    """The result of compiling one SPL formula."""

    name: str
    formula: Formula
    program: Program
    source: str
    language: str
    passes: list[PassRecord] = field(default_factory=list)
    compile_micros: int = 0  # wall clock of the whole compilation
    _callable: Callable | None = field(default=None, repr=False)

    @property
    def in_size(self) -> int:
        return self.program.in_size

    @property
    def out_size(self) -> int:
        return self.program.out_size

    @property
    def flop_count(self) -> int:
        return self.program.flop_count()

    @property
    def scratch_bytes(self) -> int:
        """Temp-array bytes the compiled program allocates per call."""
        return self.program.scratch_bytes()

    @property
    def scratch_bytes_before(self) -> int:
        """Scratch the program allocated before the optimizer ran."""
        if self.passes:
            return self.passes[0].scratch_in
        return self.program.scratch_bytes()

    @property
    def temps_eliminated(self) -> int:
        """Temp arrays removed by fusion + liveness-based reuse."""
        if not self.passes:
            return 0
        return self.passes[0].temps_in - self.passes[-1].temps_out

    def pass_summary(self) -> list[dict]:
        """JSON-ready per-pass records for stats/benchmarks."""
        return [record.as_dict() for record in self.passes]

    def describe_passes(self) -> str:
        """Human-readable pipeline dump (the CLI's ``--dump-passes``)."""
        lines = [f"; pass pipeline for {self.name} "
                 f"({len(self.passes)} passes)"]
        lines.extend(record.describe() for record in self.passes)
        lines.append(
            f"; scratch {self.scratch_bytes_before} -> "
            f"{self.scratch_bytes} bytes, "
            f"{self.temps_eliminated} temp arrays eliminated"
        )
        in_passes = sum(record.micros for record in self.passes)
        total = max(self.compile_micros, in_passes, 1)
        shares = [(record.name, record.micros) for record in self.passes]
        shares.append(("outside", total - in_passes))
        lines.append(
            f"; total {total} us = {in_passes} us in passes + "
            f"{total - in_passes} us outside them (template expansion, "
            f"emission, pass validation): "
            + ", ".join(f"{name} {100.0 * micros / total:.1f}%"
                        for name, micros in shares)
        )
        return "\n".join(lines)

    def callable(self) -> Callable:
        """An executable ``fn(y, x)`` for the routine's target language.

        Python-language (and Fortran/C, which cannot be executed
        in-process) routines get the Python backend's scalar callable;
        ``language="numpy"`` routines get the batch callable operating
        on 2-D ``(B, len)`` arrays.
        """
        if self._callable is None:
            if self.language == "numpy":
                self._callable = compile_numpy(self.program)
            else:
                self._callable = compile_python(self.program)
        return self._callable

    def run(self, x: Sequence) -> list:
        """Apply the routine to a logical input vector.

        Accepts/returns logical (complex, if the datatype is complex)
        element vectors, hiding the interleaved re/im representation.
        """
        width = self.program.element_width
        if len(x) != self.in_size:
            raise SplSemanticError(
                f"{self.name} expects {self.in_size} elements, got {len(x)}"
            )
        if width == 2:
            buf = []
            for value in x:
                value = complex(value)
                buf.extend((value.real, value.imag))
        else:
            buf = list(x)
        if self.language == "numpy":
            y = self._run_numpy(buf)
        else:
            y = [0.0] * (self.out_size * width)
            self.callable()(y, buf)
        if width == 2:
            return [complex(y[2 * k], y[2 * k + 1])
                    for k in range(self.out_size)]
        return list(y)

    def _run_numpy(self, buf: list) -> list:
        """Run the batch backend on a single vector (a B=1 batch)."""
        import numpy as np

        complex_native = (self.program.element_width == 1
                          and self.program.datatype == "complex")
        dtype = complex if complex_native else float
        x2 = np.array([buf], dtype=dtype)
        y2 = np.zeros((1, self.out_size * self.program.element_width),
                      dtype=dtype)
        self.callable()(y2, x2)
        return y2[0].tolist()


class SplCompiler:
    """A compiler session: start-up templates plus accumulated state.

    Templates and ``define``d names persist across :meth:`compile_text`
    calls, mirroring how the paper's compiler reads a start-up file and
    then the user program.
    """

    def __init__(self, options: CompilerOptions | None = None,
                 limits: CompileLimits | None = None):
        self.options = options or CompilerOptions()
        self.limits = limits or DEFAULT_LIMITS
        self.templates = TemplateTable()
        self.defines: dict[str, Formula] = {}
        # In-process wisdom: compile_formula results memoized per session.
        self._compile_memo: dict[tuple, CompiledRoutine] = {}
        self.compile_cache_hits = 0
        self.compile_cache_misses = 0
        self._load_startup()

    def _load_startup(self) -> None:
        source = (
            importlib.resources.files("repro.core")
            .joinpath("startup.spl")
            .read_text()
        )
        parser.parse_program(source, templates=self.templates)
        for template in self.templates:
            template.source_name = STARTUP

    # -- public API ----------------------------------------------------------

    def parse(self, source: str, *, recover: bool = False) -> ParsedProgram:
        """Parse a program against this session's templates/defines.

        With ``recover=True``, syntax errors are collected in
        ``ParsedProgram.errors`` (resynchronizing at top-level
        S-expression boundaries) instead of raising on the first one.
        """
        return parser.parse_program(
            source, templates=self.templates, defines=self.defines,
            recover=recover, max_depth=self.limits.max_formula_depth,
        )

    def add_definitions(self, source: str) -> None:
        """Parse a program only for its templates and defines."""
        program = self.parse(source)
        self.defines.update(program.defines)
        if program.units:
            raise SplSemanticError(
                "add_definitions expects only templates and defines"
            )

    def compile_text(self, source: str) -> list[CompiledRoutine]:
        """Compile every formula in an SPL program."""
        program = self.parse(source)
        return self.compile_parsed(program)

    def compile_parsed(self, program: ParsedProgram) -> list[CompiledRoutine]:
        """Compile every unit of an already-parsed program."""
        self.defines.update(program.defines)
        return [self.compile_unit(unit) for unit in program.units]

    def compile_unit(self, unit: FormulaUnit, *,
                     limits: CompileLimits | None = None) -> CompiledRoutine:
        """Compile a single parsed unit under its directive context."""
        return self._compile_unit(unit, limits=limits)

    def compile_formula(self, formula: Formula | str, name: str = "spl_0",
                        *, datatype: str | None = None,
                        language: str | None = None,
                        strided: bool = False,
                        vectorize: int = 1,
                        limits: CompileLimits | None = None
                        ) -> CompiledRoutine:
        """Compile a single formula (AST or SPL text).

        ``vectorize=m`` applies Section 3.5's vectorization: "adding an
        outer loop to the code so the computation changes from A to
        A (x) I_m" — the routine then processes m interleaved signals
        at once.

        Explicit ``datatype=``/``language=`` arguments take precedence
        over the session's :class:`CompilerOptions` (which in turn
        override per-unit ``#datatype``/``#language`` directives in
        :meth:`compile_text`).

        Results are memoized per session, keyed by the formula's SPL
        text plus every code-shaping knob; a repeat call returns the
        *same* :class:`CompiledRoutine` (carrying the first call's
        ``name``).  Registering templates invalidates the memo.  See
        :meth:`compile_cache_stats` / :meth:`clear_compile_cache`.
        """
        limits = limits or self.limits
        if isinstance(formula, str):
            formula = parser.parse_formula_text(
                formula, self.defines, max_depth=limits.max_formula_depth
            )
        if vectorize < 1:
            raise SplSemanticError("vectorize factor must be >= 1")
        if vectorize > 1:
            from repro.core import nodes

            formula = nodes.Tensor(left=formula,
                                   right=nodes.identity(vectorize))
        # Depth-check iteratively before to_spl() below recurses over a
        # possibly hostile programmatically-built AST.
        CompileBudget(limits).check_formula_depth(formula)
        key = wisdom_keys.compile_key(
            formula.to_spl(), self.options,
            datatype=datatype, language=language,
            strided=strided, vectorize=vectorize,
            template_version=self.templates.version,
            limits_fingerprint=limits.fingerprint(),
        )
        cached = self._compile_memo.get(key)
        if cached is not None:
            self.compile_cache_hits += 1
            return cached
        self.compile_cache_misses += 1
        unit = FormulaUnit(
            formula=formula,
            name=name,
            datatype=datatype or self.options.datatype or "complex",
            codetype=self.options.codetype or datatype
            or self.options.datatype or "complex",
            language=language or self.options.language or "fortran",
        )
        routine = self._compile_unit(unit, strided=strided, resolved=True,
                                     limits=limits)
        self._compile_memo[key] = routine
        return routine

    def compile_cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters for the in-process compile memo."""
        return {
            "hits": self.compile_cache_hits,
            "misses": self.compile_cache_misses,
            "entries": len(self._compile_memo),
        }

    def clear_compile_cache(self) -> None:
        self._compile_memo.clear()

    # -- the pipeline ----------------------------------------------------------

    def _compile_unit(self, unit: FormulaUnit, *, strided: bool = False,
                      resolved: bool = False,
                      limits: CompileLimits | None = None) -> CompiledRoutine:
        started = time.perf_counter()
        opts = self.options
        limits = limits or self.limits
        # One budget covers the unit's whole pipeline: the deadline
        # clock starts here and every phase charges against it.
        budget = CompileBudget(limits, what=f"compiling {unit.name}")
        budget.check_formula_depth(unit.formula)
        if resolved:
            # compile_formula already applied explicit-argument-over-
            # session-option precedence; do not let session defaults
            # override an explicit per-call choice again.
            language = unit.language
            datatype = unit.datatype
            codetype = unit.codetype
        else:
            language = opts.language or unit.language
            datatype = opts.datatype or unit.datatype
            codetype = opts.codetype or unit.codetype
            if opts.datatype:
                codetype = opts.codetype or opts.datatype

        # Phase 2: intermediate code generation.
        generator = CodeGenerator(
            self.templates,
            unroll_all=opts.unroll,
            unroll_threshold=opts.unroll_threshold,
            budget=budget,
        )
        program = generator.generate(
            unit.formula, unit.name, datatype, strided=strided
        )

        # Phases 3 and 4 run as a recorded pass pipeline; with
        # validate_passes on, the denoted matrix is re-derived after
        # every pass and compilation aborts typed on any change.
        pipeline = PassPipeline(program, validate=opts.validate_passes)
        pipeline.run("unroll", lambda p: unroll_loops(p, budget))
        if opts.optimize in ("scalars", "default"):
            budget.check_deadline("scalarization")
            pipeline.run("scalarize", scalarize_temps)
        pipeline.run("intrinsics",
                     lambda p: evaluate_intrinsics(p, budget))
        wants_real = codetype == "real" or language in ("c", "cjit")
        # The numpy backend, like the Python one, runs complex natively.
        if datatype == "complex" and wants_real:
            budget.check_deadline("type transformation")
            pipeline.run("typetrans", complex_to_real)

        if opts.optimize == "default":
            budget.check_deadline("optimization")
            pipeline.run("optimize", optimize)
            if opts.fusion:
                pipeline.run(
                    "fuse-loops",
                    lambda p: fuse_conformable_stages(p, budget),
                    detail=_fusion_detail,
                )
                # Fusion leaves dead stores/temps behind by design;
                # clean them up, then pack the survivors into shared
                # liveness slots.
                pipeline.run("post-fuse", optimize)
                pipeline.run(
                    "reuse-scratch",
                    _reuse_scratch,
                    detail=lambda n: f"{n} temp arrays merged" if n else "",
                )
        if opts.peephole:
            pipeline.run("peephole", avoid_unary_minus)

        # Phase 5 below emits text proportional to the (already budgeted)
        # statement count; one last deadline check before it runs.
        budget.check_deadline("target code generation")

        # Phase 5: target code generation.  "cjit" is the C language
        # with an in-process execution plan: the machine-code emitter
        # (repro.perfeval.jit) lowers the *program*, not the source,
        # so the C text is kept for inspection and for the C tier a
        # non-codelet falls through to.
        if language in ("c", "cjit"):
            source = emit_c(program)
        elif language == "fortran":
            source = emit_fortran(
                program, automatic_storage=opts.automatic_storage
            )
        elif language == "python":
            source = emit_python(program)
        elif language == "numpy":
            source = emit_numpy(program)
        else:
            raise SplSemanticError(f"unknown target language {language!r}")

        return CompiledRoutine(
            name=unit.name,
            formula=unit.formula,
            program=program,
            source=source,
            language=language,
            passes=pipeline.records,
            compile_micros=int((time.perf_counter() - started) * 1e6),
        )


def _reuse_scratch(program: Program) -> int:
    prune_dead_temps(program)
    return reuse_temp_arrays(program)


def _fusion_detail(stats) -> str:
    return f"{stats.loops_fused} nests fused" if stats.loops_fused else ""


def compile_text(source: str,
                 options: CompilerOptions | None = None
                 ) -> list[CompiledRoutine]:
    """One-shot convenience wrapper around :class:`SplCompiler`."""
    return SplCompiler(options).compile_text(source)
