"""Templates: pattern + condition + i-code (Section 3.2).

A template gives the compiler the meaning of a formula shape.  Built-in
templates live in ``startup.spl`` which the compiler reads before any
user program; user templates defined later are matched first ("matching
is attempted in the reverse order of definition so that new templates
override earlier ones").

Template bodies are written in the paper's i-code mini-language.  The
classes in this module are the *template-level* representation; at
expansion time (:mod:`repro.core.codegen`) pattern variables are bound
and the body is instantiated into concrete :mod:`repro.core.icode`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.core import nodes, pattern as pat
from repro.core.errors import SplSemanticError, SplTemplateError
from repro.core.icode import IExpr
from repro.core.scalars import Number

# ---------------------------------------------------------------------------
# Template-level integer expressions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TConst:
    value: int


@dataclass(frozen=True)
class TPatVar:
    """An integer pattern variable, e.g. ``n_``."""

    name: str


@dataclass(frozen=True)
class TProperty:
    """A property of a formula pattern variable, e.g. ``A_.in_size``."""

    var: str
    attr: str  # "in_size" or "out_size"


@dataclass(frozen=True)
class TIndexVar:
    """A loop index (``$i0``) or integer scalar (``$r0``) reference."""

    name: str  # template-local name, e.g. "i0" or "r0"


@dataclass(frozen=True)
class TBinop:
    op: str  # + - * /
    a: "TExpr"
    b: "TExpr"


@dataclass(frozen=True)
class TNeg:
    a: "TExpr"


TExpr = TConst | TPatVar | TProperty | TIndexVar | TBinop | TNeg


class TemplateEnv:
    """Bindings available while instantiating one template body.

    ``ints`` maps pattern variables and properties (flattened to
    ``"A_.in_size"`` style keys) to integers; ``index_vars`` maps
    template-local ``$i``/``$r`` names to concrete :class:`IExpr`.
    """

    def __init__(self, ints: Mapping[str, int],
                 index_vars: dict[str, IExpr] | None = None):
        self.ints = dict(ints)
        self.index_vars = dict(index_vars or {})


def eval_texpr(expr: TExpr, env: TemplateEnv) -> IExpr:
    """Evaluate a template integer expression to a polynomial."""
    if isinstance(expr, TConst):
        return IExpr.const(expr.value)
    if isinstance(expr, TPatVar):
        if expr.name not in env.ints:
            raise SplTemplateError(f"unbound pattern variable {expr.name!r}")
        return IExpr.const(env.ints[expr.name])
    if isinstance(expr, TProperty):
        key = f"{expr.var}.{expr.attr}"
        if key not in env.ints:
            raise SplTemplateError(f"unbound property {key!r}")
        return IExpr.const(env.ints[key])
    if isinstance(expr, TIndexVar):
        if expr.name not in env.index_vars:
            raise SplTemplateError(f"unbound index variable ${expr.name}")
        return env.index_vars[expr.name]
    if isinstance(expr, TNeg):
        return -eval_texpr(expr.a, env)
    if isinstance(expr, TBinop):
        a = eval_texpr(expr.a, env)
        b = eval_texpr(expr.b, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return _exact_div(a, b)
        raise SplTemplateError(f"unknown integer operator {expr.op!r}")
    raise SplTemplateError(f"malformed integer expression {expr!r}")


def eval_texpr_const(expr: TExpr, env: TemplateEnv) -> int:
    value = eval_texpr(expr, env).as_const()
    if value is None:
        raise SplTemplateError(
            "expression must be constant in this position"
        )
    return value


def _exact_div(a: IExpr, b: IExpr) -> IExpr:
    divisor = b.as_const()
    if divisor is None:
        raise SplTemplateError("division by a non-constant expression")
    if divisor == 0:
        raise SplTemplateError("division by zero in template expression")
    quotient_terms = []
    for mono, coeff in a.terms:
        if coeff % divisor != 0:
            raise SplTemplateError(
                f"non-exact integer division: ({a}) / {divisor}"
            )
        quotient_terms.append((mono, coeff // divisor))
    return IExpr(tuple(quotient_terms))


# ---------------------------------------------------------------------------
# Conditions (C-style boolean expressions in brackets).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondCompare:
    op: str  # == != < <= > >=
    a: TExpr
    b: TExpr


@dataclass(frozen=True)
class CondAnd:
    a: "Condition"
    b: "Condition"


@dataclass(frozen=True)
class CondOr:
    a: "Condition"
    b: "Condition"


@dataclass(frozen=True)
class CondNot:
    a: "Condition"


Condition = CondCompare | CondAnd | CondOr | CondNot

_COMPARES = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_condition(cond: Condition, env: TemplateEnv) -> bool:
    if isinstance(cond, CondCompare):
        return _COMPARES[cond.op](
            eval_texpr_const(cond.a, env), eval_texpr_const(cond.b, env)
        )
    if isinstance(cond, CondAnd):
        return eval_condition(cond.a, env) and eval_condition(cond.b, env)
    if isinstance(cond, CondOr):
        return eval_condition(cond.a, env) or eval_condition(cond.b, env)
    if isinstance(cond, CondNot):
        return not eval_condition(cond.a, env)
    raise SplTemplateError(f"malformed condition {cond!r}")


# ---------------------------------------------------------------------------
# Template-level operands and statements.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TScalar:
    """A float/complex scalar variable ``$f0``."""

    name: str


@dataclass(frozen=True)
class TVecElem:
    """A vector element ``$in(expr)``, ``$out(expr)`` or ``$t0(expr)``."""

    vec: str  # "in", "out", "t0", ...
    index: TExpr


@dataclass(frozen=True)
class TNumber:
    """A numeric constant operand (already evaluated)."""

    value: Number


@dataclass(frozen=True)
class TIntrinsic:
    """An intrinsic invocation such as ``W(n_, $r0)``."""

    name: str
    args: tuple[TExpr, ...]


TOperand = TScalar | TVecElem | TNumber | TIntrinsic


@dataclass
class TAssign:
    """``dest = a (op) b``, ``dest = a`` (op "=") or ``dest = -a`` (op "neg")."""

    op: str
    dest: TScalar | TVecElem
    a: TOperand
    b: TOperand | None = None


@dataclass
class TRAssign:
    """An integer scalar definition ``$r0 = expr``."""

    name: str
    value: TExpr


@dataclass
class TLoop:
    """``do $i0 = lo, hi`` ... ``end`` (bounds inclusive, as in Fortran)."""

    var: str
    lo: TExpr
    hi: TExpr
    body: list["TStmt"] = field(default_factory=list)


@dataclass
class TCall:
    """Expansion of a formula pattern variable with explicit vector plumbing.

    ``A_($in, $t0, in_offset, out_offset, in_stride, out_stride)``
    """

    var: str  # formula pattern variable, e.g. "A_"
    in_vec: str  # "in", "out" or a temp name
    out_vec: str
    in_offset: TExpr
    out_offset: TExpr
    in_stride: TExpr
    out_stride: TExpr


TStmt = TAssign | TRAssign | TLoop | TCall


# ---------------------------------------------------------------------------
# The template itself and the ordered table of templates.
# ---------------------------------------------------------------------------

#: ``Template.source_name`` of the templates read from ``startup.spl``.
STARTUP = "startup.spl"


@dataclass
class Template:
    """One ``(template pattern condition i-code)`` definition.

    A template may alternatively carry an ``expansion`` formula instead
    of an i-code body: matching formulas are replaced by the expansion
    and compiled through it.  This is the mechanism behind "templates
    can be generated by a search engine" (Section 3.2) — the large-size
    FFT search registers the best small-size formulas as templates for
    ``(F r)``, exactly as the paper's Section 4.2 describes.
    """

    pattern: pat.Pattern
    condition: Condition | None
    body: list[TStmt] = field(default_factory=list)
    source_name: str = "<user>"
    expansion: "nodes.Formula | None" = None

    def describe(self) -> str:
        return pat.pattern_to_spl(self.pattern)


class TemplateTable:
    """Ordered template store with reverse-order matching.

    Start-up templates are loaded first; templates defined later in a
    program override them because :meth:`find` scans newest-first.
    """

    def __init__(self) -> None:
        self._templates: list[Template] = []
        self._size_cache: dict[nodes.Formula, tuple[int, int]] = {}
        # Formulas whose size computation is in progress on this
        # thread: a template whose expansion (directly or transitively)
        # contains the formula it defines would otherwise recurse
        # forever.  Per thread, because one table serves concurrent
        # compiles (a server building two cold routes at once), and
        # another thread sizing the same formula is no recursion.
        self._sizing = threading.local()
        # Bumped on every mutation so compile caches can invalidate.
        self.version = 0

    def add(self, template: Template) -> None:
        self._templates.append(template)
        self._size_cache.clear()
        self.version += 1

    def __len__(self) -> int:
        return len(self._templates)

    def __iter__(self):
        return iter(self._templates)

    def find(self, formula: nodes.Formula) -> tuple[Template, dict] | None:
        """Find the newest template matching ``formula``.

        Returns ``(template, env_ints)`` where ``env_ints`` contains the
        integer pattern variables plus ``in_size``/``out_size``
        properties for every bound formula variable, or None.
        """
        for template in reversed(self._templates):
            bindings = pat.match(template.pattern, formula)
            if bindings is None:
                continue
            try:
                env = self._build_env(bindings)
                if template.condition is not None:
                    if not eval_condition(template.condition, TemplateEnv(env)):
                        continue
            except (SplTemplateError, SplSemanticError):
                # A condition that cannot be evaluated (e.g. a non-exact
                # division such as N_/s_ when s_ does not divide N_)
                # simply fails to match.
                continue
            return template, {"ints": env, "bindings": bindings}
        return None

    def _build_env(self, bindings: dict[str, pat.Binding]) -> dict[str, int]:
        env: dict[str, int] = {}
        for name, value in bindings.items():
            if isinstance(value, int):
                env[name] = value
            else:
                in_size, out_size = self.sizes(value)
                env[f"{name}.in_size"] = in_size
                env[f"{name}.out_size"] = out_size
        return env

    # -- size computation ----------------------------------------------------

    def sizes(self, formula: nodes.Formula) -> tuple[int, int]:
        """Compute (in_size, out_size), consulting templates for Params.

        Structural nodes (compose/tensor/direct-sum/literals) use their
        standard size rules; parameterized matrices use the predefined
        registry, falling back to inference from the matching template's
        i-code for user-defined matrices.
        """
        cached = self._size_cache.get(formula)
        if cached is not None:
            return cached
        sizing = self._sizing.__dict__.setdefault("formulas", set())
        if formula in sizing:
            raise SplTemplateError(
                f"recursive size inference for {formula.to_spl()}: a "
                f"template's expansion refers back to the formula it "
                f"defines"
            )
        sizing.add(formula)
        try:
            sizes = formula.size(self._param_sizes)
        finally:
            sizing.discard(formula)
        self._size_cache[formula] = sizes
        return sizes

    def _param_sizes(self, param: nodes.Param) -> tuple[int, int]:
        try:
            return nodes.default_param_sizes(param)
        except SplSemanticError:
            pass
        return self._infer_param_sizes(param)

    def _infer_param_sizes(self, param: nodes.Param) -> tuple[int, int]:
        found = self.find(param)
        if found is None:
            raise SplTemplateError(
                f"no template matches {param.to_spl()} and its size is "
                "not predefined"
            )
        template, info = found
        if template.expansion is not None:
            return self.sizes(template.expansion)
        env = TemplateEnv(info["ints"])
        bindings = info["bindings"]
        in_hi, out_hi = _body_extents(template.body, env, bindings, self)
        if in_hi < 0 or out_hi < 0:
            raise SplTemplateError(
                f"cannot infer vector sizes for {param.to_spl()} from "
                f"template {template.describe()}"
            )
        return in_hi + 1, out_hi + 1


def _body_extents(body: list[TStmt], env: TemplateEnv,
                  bindings: dict[str, pat.Binding],
                  table: TemplateTable) -> tuple[int, int]:
    """Max index referenced on $in and $out by a template body.

    This implements the paper's "the size of the input and output
    vectors ... is inferred by the SPL compiler from the template".
    Loop variables are tracked with their ranges so affine and
    polynomial subscripts are bounded by interval analysis.
    """
    in_hi = -1
    out_hi = -1
    ranges: dict[str, tuple[int, int]] = {}

    def eval_bound(expr: TExpr) -> tuple[int, int]:
        value = eval_texpr(expr, env)
        const = value.as_const()
        if const is not None:
            return const, const
        return value.interval(ranges)

    def visit(stmts: list[TStmt]) -> None:
        nonlocal in_hi, out_hi
        for stmt in stmts:
            if isinstance(stmt, TLoop):
                lo = eval_texpr_const(stmt.lo, env)
                hi = eval_texpr_const(stmt.hi, env)
                env.index_vars[stmt.var] = IExpr.var(stmt.var)
                ranges[stmt.var] = (min(lo, hi), max(lo, hi))
                visit(stmt.body)
                del env.index_vars[stmt.var]
                del ranges[stmt.var]
            elif isinstance(stmt, TRAssign):
                env.index_vars[stmt.name] = eval_texpr(stmt.value, env)
            elif isinstance(stmt, TAssign):
                for item in (stmt.dest, stmt.a, stmt.b):
                    if isinstance(item, TVecElem):
                        _, hi_idx = eval_bound(item.index)
                        if item.vec == "in":
                            in_hi = max(in_hi, hi_idx)
                        elif item.vec == "out":
                            out_hi = max(out_hi, hi_idx)
            elif isinstance(stmt, TCall):
                sub = bindings.get(stmt.var)
                if not isinstance(sub, nodes.Formula):
                    raise SplTemplateError(
                        f"call through unbound formula variable {stmt.var}"
                    )
                sub_in, sub_out = table.sizes(sub)
                for vec, ofs, strd, extent in (
                    (stmt.in_vec, stmt.in_offset, stmt.in_stride, sub_in),
                    (stmt.out_vec, stmt.out_offset, stmt.out_stride, sub_out),
                ):
                    if vec not in ("in", "out"):
                        continue
                    _, hi_ofs = eval_bound(ofs)
                    _, hi_strd = eval_bound(strd)
                    hi_idx = hi_ofs + (extent - 1) * hi_strd
                    if vec == "in":
                        in_hi = max(in_hi, hi_idx)
                    else:
                        out_hi = max(out_hi, hi_idx)

    visit(body)
    return in_hi, out_hi
