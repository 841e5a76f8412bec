"""Compile-time resource governance.

The compile pipeline (template expansion, unrolling, intrinsic-table
construction) runs algorithms whose cost is decided by the *input
program*: a recursion bomb, an ``#unroll`` of a large formula or an
oversized twiddle table can hang the compiler, exhaust memory, or blow
Python's recursion limit.  :class:`CompileLimits` makes every such
bound explicit and configurable, and :class:`CompileBudget` is the
per-compilation ledger that enforces them, raising a typed
:class:`~repro.core.errors.SplResourceError` that names the limit, the
offending construct and the formula path to it.

Design rules:

* limits are checked *before* the expensive step (an unroll explosion
  is computed arithmetically from loop bounds, never discovered
  mid-OOM);
* depth limits are set so that the guarded recursion can never reach
  Python's interpreter recursion limit — a hostile nest yields a
  diagnosis, not ``RecursionError``;
* the limits are part of the compile cache key
  (:func:`repro.wisdom.keys.compile_key`), so changing a limit never
  replays a plan cached under a different budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.errors import SplResourceError

#: Error codes for the individual limits (see docs/robustness.md).
CODE_DEPTH = "SPL-E201"
CODE_EXPANSIONS = "SPL-E202"
CODE_ICODE = "SPL-E203"
CODE_UNROLL = "SPL-E204"
CODE_TABLE = "SPL-E205"
CODE_DEADLINE = "SPL-E206"

#: Bytes per stored table element (complex128: two float64 words).
TABLE_ELEMENT_BYTES = 16


@dataclass(frozen=True)
class CompileLimits:
    """Explicit bounds on one formula compilation.

    ``max_formula_depth`` bounds both source-level S-expression nesting
    and AST depth; ``max_template_depth`` bounds the template-expansion
    stack (a little deeper, since expansion templates can interpose).
    Both defaults keep the guarded recursion far below Python's
    interpreter stack limit.  ``compile_deadline`` is wall-clock
    seconds for the whole pipeline of one unit; ``None`` disables it.
    """

    max_formula_depth: int = 100
    max_template_depth: int = 160
    max_expansions: int = 100_000
    max_icode_statements: int = 500_000
    max_unroll_statements: int = 250_000
    max_table_bytes: int = 16 * 2**20
    compile_deadline: float | None = 60.0

    def fingerprint(self) -> str:
        """Stable rendering for cache keys (wisdom/compile memo)."""
        deadline = "none" if self.compile_deadline is None \
            else f"{self.compile_deadline:g}"
        return (
            f"depth={self.max_formula_depth};"
            f"tdepth={self.max_template_depth};"
            f"exp={self.max_expansions};"
            f"icode={self.max_icode_statements};"
            f"unroll={self.max_unroll_statements};"
            f"table={self.max_table_bytes};"
            f"deadline={deadline}"
        )

    def with_overrides(self, **kwargs) -> "CompileLimits":
        """A copy with the given fields replaced (``None`` = keep)."""
        fields = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **fields) if fields else self


DEFAULT_LIMITS = CompileLimits()


def formula_depth(formula) -> int:
    """AST depth of a formula, computed iteratively.

    Uses an explicit stack so that even a pathologically deep AST
    (built programmatically, bypassing the parser's nesting guard) can
    be measured without recursion.
    """
    deepest = 0
    stack = [(formula, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > deepest:
            deepest = depth
        for child in node.children():
            stack.append((child, depth + 1))
    return deepest


class CompileBudget:
    """The per-compilation ledger enforcing a :class:`CompileLimits`.

    One budget covers one unit through the whole pipeline; the deadline
    clock starts at construction.  All ``charge_*`` methods also check
    the deadline, so any phase that charges regularly cannot run away.
    """

    def __init__(self, limits: CompileLimits | None = None, *,
                 what: str = "compilation"):
        self.limits = limits or DEFAULT_LIMITS
        self.what = what
        self.expansions = 0
        self.statements = 0
        self.started = time.monotonic()
        deadline = self.limits.compile_deadline
        self.deadline = None if deadline is None else self.started + deadline

    # -- deadline ----------------------------------------------------------

    def check_deadline(self, phase: str | None = None,
                       path: Sequence[str] | None = None) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            elapsed = time.monotonic() - self.started
            where = f" during {phase}" if phase else ""
            raise SplResourceError(
                f"{self.what} exceeded the compile deadline of "
                f"{self.limits.compile_deadline:g}s{where} "
                f"({elapsed:.1f}s elapsed); raise compile_deadline "
                f"(--compile-deadline) for very large formulas",
                code=CODE_DEADLINE, formula_path=path,
                limit_name="compile_deadline",
                limit=self.limits.compile_deadline, actual=elapsed,
            )

    # -- counted resources -------------------------------------------------

    def charge_expansion(self, construct: str,
                         path: Sequence[str] | None = None) -> None:
        self.expansions += 1
        if self.expansions > self.limits.max_expansions:
            raise SplResourceError(
                f"template expansion of {construct} exceeded "
                f"max_expansions={self.limits.max_expansions}",
                code=CODE_EXPANSIONS, formula_path=path,
                limit_name="max_expansions",
                limit=self.limits.max_expansions, actual=self.expansions,
            )
        # Expansion is the pipeline's inner loop: piggyback the clock.
        if self.expansions % 64 == 0:
            self.check_deadline("template expansion", path)

    def check_depth(self, depth: int, construct: str,
                    path: Sequence[str] | None = None) -> None:
        if depth > self.limits.max_template_depth:
            raise SplResourceError(
                f"template expansion of {construct} exceeded "
                f"max_template_depth={self.limits.max_template_depth}; "
                f"the formula nests too deeply",
                code=CODE_DEPTH, formula_path=path,
                limit_name="max_template_depth",
                limit=self.limits.max_template_depth, actual=depth,
            )

    def charge_statements(self, count: int, construct: str,
                          path: Sequence[str] | None = None) -> None:
        self.statements += count
        if self.statements > self.limits.max_icode_statements:
            raise SplResourceError(
                f"generated i-code for {construct} exceeded "
                f"max_icode_statements={self.limits.max_icode_statements} "
                f"(--max-icode)",
                code=CODE_ICODE, formula_path=path,
                limit_name="max_icode_statements",
                limit=self.limits.max_icode_statements,
                actual=self.statements,
            )

    def charge_fusion(self, count: int, construct: str,
                      path: Sequence[str] | None = None) -> None:
        """Charge fusion-analysis work (enumerated iteration points).

        Loop fusion enumerates producer/consumer index streams; that
        work scales with the iteration domain, so it draws from the
        same i-code statement budget as code generation — a
        pathological fusion candidate fails typed (``SPL-E203``)
        instead of hanging the compiler mid-pass.
        """
        before = self.statements
        self.charge_statements(count, construct, path)
        # Bulk charges step over multiples: check on crossing one.
        if self.statements // 4096 != before // 4096:
            self.check_deadline("loop fusion", path)

    def check_unroll(self, expanded: int, construct: str,
                     path: Sequence[str] | None = None) -> None:
        """Pre-check an unroll expansion computed from loop bounds."""
        if expanded > self.limits.max_unroll_statements:
            raise SplResourceError(
                f"unrolling {construct} would produce {expanded} "
                f"statements, exceeding max_unroll_statements="
                f"{self.limits.max_unroll_statements} (--max-unroll); "
                f"compile without #unroll or raise the limit",
                code=CODE_UNROLL, formula_path=path,
                limit_name="max_unroll_statements",
                limit=self.limits.max_unroll_statements, actual=expanded,
            )

    def check_table(self, elements: int, construct: str,
                    path: Sequence[str] | None = None) -> None:
        """Pre-check an intrinsic table size before materializing it."""
        nbytes = elements * TABLE_ELEMENT_BYTES
        if nbytes > self.limits.max_table_bytes:
            raise SplResourceError(
                f"intrinsic table for {construct} would need {elements} "
                f"entries ({nbytes} bytes), exceeding max_table_bytes="
                f"{self.limits.max_table_bytes}",
                code=CODE_TABLE, formula_path=path,
                limit_name="max_table_bytes",
                limit=self.limits.max_table_bytes, actual=nbytes,
            )

    def check_formula_depth(self, formula, *, source: str = "formula") -> None:
        """Iteratively bound a formula's AST depth before any recursion."""
        depth = formula_depth(formula)
        if depth > self.limits.max_formula_depth:
            raise SplResourceError(
                f"{source} nests {depth} levels deep, exceeding "
                f"max_formula_depth={self.limits.max_formula_depth}",
                code=CODE_DEPTH,
                limit_name="max_formula_depth",
                limit=self.limits.max_formula_depth, actual=depth,
            )
