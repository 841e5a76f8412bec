"""Intermediate code generation (phase 2, Section 3.2).

Each formula is expanded recursively: the newest template whose pattern
matches (and whose condition holds) supplies the i-code; pattern
variables bound to sub-formulas are expanded in place with composed
strides and offsets.  The six implicit parameters of the paper
(``$in``, ``$out`` and their strides/offsets) are carried in
:class:`VecContext` objects.

Matrix literals — ``(matrix ...)``, ``(diagonal ...)``,
``(permutation ...)`` — have built-in code generation since a template
pattern cannot quantify over "any literal".

A permutation at the right end of a product is not a stage: in
``(compose A P)`` with ``P`` built from ``I``, ``J`` and ``L`` by
products, tensor products and direct sums, ``P`` is an index map
applied to ``A``'s reads (the ``$in_stride``/``$in_offset`` of Section
3.2, taken to Eq. 10's digit reversal).  For ``A = I_m (x) B`` the
``I_m`` loop runs as nested loops over the mixed-radix digits ``P``
needs, so each ``B`` reads ``x`` at one offset and stride, both affine
in the digits; any other ``A`` reads through a view that maps every
subscript through ``P``.  Where some read is not affine in the loop
indices, the product falls back to its template and copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import nodes
from repro.core.errors import SplSemanticError, SplTemplateError
from repro.core.limits import CompileBudget
from repro.core.icode import (
    FConst,
    FVar,
    IExpr,
    Instr,
    Intrinsic,
    Loop,
    ONE,
    Op,
    Operand,
    Program,
    VEC_INPUT,
    VEC_OUTPUT,
    VEC_TEMP,
    VecInfo,
    VecRef,
    ZERO,
)
from repro.core.templates import (
    STARTUP,
    TAssign,
    TCall,
    TIntrinsic,
    TLoop,
    TNumber,
    TOperand,
    TRAssign,
    TScalar,
    TStmt,
    TVecElem,
    TemplateEnv,
    TemplateTable,
    eval_texpr,
)

INPUT_VEC = "x"
OUTPUT_VEC = "y"


@dataclass(frozen=True)
class VecContext:
    """A view into a vector: ``element(k) = vec[offset + k*stride]``,
    or ``vec[gather(offset + k*stride)]`` when a permutation is folded
    into the reads."""

    vec: str
    offset: IExpr
    stride: IExpr
    gather: Callable[[IExpr], IExpr] | None = None

    def ref(self, index: IExpr) -> VecRef:
        local = self.offset + index * self.stride
        return VecRef(self.vec, local if self.gather is None
                      else self.gather(local))

    def narrowed(self, offset: IExpr, stride: IExpr) -> "VecContext":
        return VecContext(
            self.vec,
            self.offset + offset * self.stride,
            stride * self.stride,
            self.gather,
        )


class CodeGenerator:
    """Expands one formula into a complete i-code :class:`Program`."""

    def __init__(self, table: TemplateTable, *,
                 unroll_all: bool = False,
                 unroll_threshold: int | None = None,
                 budget: CompileBudget | None = None):
        self.table = table
        self.unroll_all = unroll_all
        self.unroll_threshold = unroll_threshold
        self.budget = budget or CompileBudget()
        self._loop_counter = 0
        self._scalar_counter = 0
        self._temp_counter = 0
        self._temps: dict[str, VecInfo] = {}
        self._ranges: dict[str, tuple[int, int]] = {}  # loops in scope
        self._expansion_stack: set[int] = set()
        self._depth = 0
        self._path: list[str] = []

    def generate(self, formula: nodes.Formula, name: str,
                 datatype: str = "complex", *,
                 strided: bool = False) -> Program:
        # Bound the AST depth *before* entering any recursive machinery
        # (size computation, matching, expansion) so a hostile nest is
        # diagnosed instead of overflowing the interpreter stack.
        self.budget.check_formula_depth(formula)
        in_size, out_size = self.table.sizes(formula)
        if strided:
            in_ctx = VecContext(INPUT_VEC, IExpr.var("iofs"),
                                IExpr.var("istride"))
            out_ctx = VecContext(OUTPUT_VEC, IExpr.var("oofs"),
                                 IExpr.var("ostride"))
        else:
            in_ctx = VecContext(INPUT_VEC, IExpr.const(0), IExpr.const(1))
            out_ctx = VecContext(OUTPUT_VEC, IExpr.const(0), IExpr.const(1))
        body = self._expand(formula, in_ctx, out_ctx, inherited_unroll=False)
        program = Program(
            name=name,
            in_size=in_size,
            out_size=out_size,
            datatype=datatype,
            body=body,
            strided=strided,
        )
        program.vectors[INPUT_VEC] = VecInfo(INPUT_VEC, in_size, VEC_INPUT,
                                             dtype=datatype)
        program.vectors[OUTPUT_VEC] = VecInfo(OUTPUT_VEC, out_size,
                                              VEC_OUTPUT, dtype=datatype)
        _size_temps(program, self._temps)
        for info in self._temps.values():
            info.dtype = datatype
            program.vectors[info.name] = info
        return program

    # -- expansion ---------------------------------------------------------

    def _expand(self, formula: nodes.Formula, in_ctx: VecContext,
                out_ctx: VecContext, inherited_unroll: bool) -> list[Instr]:
        construct = _describe(formula)
        self._depth += 1
        self._path.append(construct)
        try:
            self.budget.check_depth(self._depth, construct,
                                    self.formula_path())
            self.budget.charge_expansion(construct, self.formula_path())
            return self._expand_dispatch(formula, in_ctx, out_ctx,
                                         inherited_unroll, construct)
        finally:
            self._path.pop()
            self._depth -= 1

    def formula_path(self, last: int = 8) -> tuple[str, ...]:
        """The chain of enclosing constructs, innermost first."""
        return tuple(reversed(self._path[-last:]))

    def _expand_dispatch(self, formula: nodes.Formula, in_ctx: VecContext,
                         out_ctx: VecContext, inherited_unroll: bool,
                         construct: str) -> list[Instr]:
        unroll = formula.unroll if formula.unroll is not None \
            else inherited_unroll
        if isinstance(formula, nodes.DiagonalLit):
            return self._expand_diagonal(formula, in_ctx, out_ctx)
        if isinstance(formula, nodes.PermutationLit):
            return self._expand_permutation(formula, in_ctx, out_ctx)
        if isinstance(formula, nodes.MatrixLit):
            return self._expand_matrix(formula, in_ctx, out_ctx)
        if isinstance(formula, nodes.Compose) \
                and self._is_permutation(formula.right) \
                and self._builtin(formula):
            folded = self._fold(formula, in_ctx, out_ctx, unroll)
            if folded is not None:
                return folded
        found = self.table.find(formula)
        if found is None:
            raise SplTemplateError(
                f"no template matches {formula.to_spl()}",
                formula_path=self.formula_path(),
            )
        template, info = found
        if template.expansion is not None:
            # A search-generated macro template: compile the stored
            # formula in place of the matched one (same vector views).
            if id(template) in self._expansion_stack:
                raise SplTemplateError(
                    f"recursive expansion of template "
                    f"{template.describe()}",
                    formula_path=self.formula_path(),
                )
            self._expansion_stack.add(id(template))
            try:
                return self._expand(template.expansion, in_ctx, out_ctx,
                                    unroll)
            finally:
                self._expansion_stack.discard(id(template))
        in_size, out_size = self.table.sizes(formula)
        env = TemplateEnv(info["ints"])
        env.ints["in_size"] = in_size
        env.ints["out_size"] = out_size
        env.index_vars["in_size"] = IExpr.const(in_size)
        env.index_vars["out_size"] = IExpr.const(out_size)
        env.index_vars["in_stride"] = in_ctx.stride
        env.index_vars["out_stride"] = out_ctx.stride
        env.index_vars["in_offset"] = in_ctx.offset
        env.index_vars["out_offset"] = out_ctx.offset
        frame = _Frame(env=env, bindings=info["bindings"],
                       in_ctx=in_ctx, out_ctx=out_ctx,
                       unroll=unroll,
                       should_unroll=self._should_unroll(unroll, in_size))
        return self._expand_body(template.body, frame)

    def _should_unroll(self, unroll_flag: bool, in_size: int) -> bool:
        if unroll_flag or self.unroll_all:
            return True
        if self.unroll_threshold is not None:
            return in_size <= self.unroll_threshold
        return False

    def _expand_body(self, stmts: list[TStmt], frame: "_Frame") -> list[Instr]:
        result: list[Instr] = []
        for stmt in stmts:
            if isinstance(stmt, TLoop):
                result.extend(self._expand_loop(stmt, frame))
            elif isinstance(stmt, TRAssign):
                frame.env.index_vars[stmt.name] = eval_texpr(
                    stmt.value, frame.env
                )
            elif isinstance(stmt, TAssign):
                result.append(self._expand_assign(stmt, frame))
            elif isinstance(stmt, TCall):
                result.extend(self._expand_call(stmt, frame))
            else:
                raise SplTemplateError(f"malformed template statement {stmt}")
        return result

    def _expand_loop(self, stmt: TLoop, frame: "_Frame") -> list[Instr]:
        lo_expr = eval_texpr(stmt.lo, frame.env)
        hi_expr = eval_texpr(stmt.hi, frame.env)
        lo, hi = lo_expr.as_const(), hi_expr.as_const()
        if lo is None or hi is None:
            raise SplTemplateError(
                "loop bounds must be constant after pattern substitution"
            )
        count = hi - lo + 1
        if count <= 0:
            return []
        var = self._fresh_loop_var()
        self.budget.charge_statements(1, f"loop over ${stmt.var}",
                                      self.formula_path())
        saved = frame.env.index_vars.get(stmt.var)
        frame.env.index_vars[stmt.var] = IExpr.var(var) + lo
        self._ranges[var] = (0, count - 1)
        body = self._expand_body(stmt.body, frame)
        del self._ranges[var]
        if saved is None:
            frame.env.index_vars.pop(stmt.var, None)
        else:
            frame.env.index_vars[stmt.var] = saved
        return [Loop(var, count, body, unroll=frame.should_unroll)]

    def _expand_assign(self, stmt: TAssign, frame: "_Frame") -> Op:
        self.budget.charge_statements(1, "assignment", self.formula_path())
        dest = self._operand(stmt.dest, frame)
        if not isinstance(dest, (FVar, VecRef)):
            raise SplTemplateError("invalid assignment destination")
        a = self._operand(stmt.a, frame)
        b = self._operand(stmt.b, frame) if stmt.b is not None else None
        return Op(stmt.op, dest, a, b)

    def _operand(self, operand: TOperand, frame: "_Frame") -> Operand:
        if isinstance(operand, TScalar):
            return FVar(frame.scalar(operand.name, self))
        if isinstance(operand, TNumber):
            return FConst(operand.value)
        if isinstance(operand, TIntrinsic):
            args = tuple(eval_texpr(a, frame.env) for a in operand.args)
            return Intrinsic(operand.name.upper(), args)
        if isinstance(operand, TVecElem):
            index = eval_texpr(operand.index, frame.env)
            return frame.vec_context(operand.vec, self).ref(index)
        raise SplTemplateError(f"malformed template operand {operand}")

    def _expand_call(self, stmt: TCall, frame: "_Frame") -> list[Instr]:
        sub = frame.bindings.get(stmt.var)
        if not isinstance(sub, nodes.Formula):
            raise SplTemplateError(
                f"call through unbound formula variable {stmt.var}"
            )
        in_base = frame.vec_context(stmt.in_vec, self)
        out_base = frame.vec_context(stmt.out_vec, self)
        in_ctx = in_base.narrowed(
            eval_texpr(stmt.in_offset, frame.env),
            eval_texpr(stmt.in_stride, frame.env),
        )
        out_ctx = out_base.narrowed(
            eval_texpr(stmt.out_offset, frame.env),
            eval_texpr(stmt.out_stride, frame.env),
        )
        return self._expand(sub, in_ctx, out_ctx, frame.unroll)

    # -- permutations folded into reads ---------------------------------------

    def _builtin(self, formula: nodes.Formula) -> bool:
        """Whether ``formula`` means what the start-up file says it does
        (no user template overrides its shape)."""
        found = self.table.find(formula)
        return found is not None and found[0].source_name == STARTUP

    def _is_permutation(self, formula: nodes.Formula) -> bool:
        """``I``, ``J`` and ``L`` under products, tensor products and
        direct sums, every node with its start-up meaning."""
        if isinstance(formula, nodes.Param):
            shape = formula.name in ("I", "J", "L")
        else:
            shape = isinstance(formula, (nodes.Compose, nodes.Tensor,
                                         nodes.DirectSum)) \
                and all(map(self._is_permutation, formula.children()))
        return shape and self._builtin(formula)

    def _fold(self, formula: nodes.Compose, in_ctx: VecContext,
              out_ctx: VecContext, unroll: bool) -> list[Instr] | None:
        """``(compose A P)`` with ``A`` reading through the permutation
        ``P``; None, with no name or temp spent, where some read is not
        affine in the loop indices."""
        left, perm = formula.left, formula.right
        for node in perm.walk():  # read through, not expanded
            self.budget.charge_expansion(_describe(node),
                                         self.formula_path())
        if isinstance(left, nodes.Tensor) and _is_identity(left.left) \
                and self._builtin(left):
            nest = self._digit_nest(left, perm, in_ctx, out_ctx, unroll)
            if nest is not None:
                return nest
        saved = (self._loop_counter, self._scalar_counter,
                 self._temp_counter, dict(self._temps), dict(self._ranges))
        sizes = self.table.sizes
        view = VecContext(in_ctx.vec, ZERO, ONE, lambda q: in_ctx.ref(
            _gather(perm, q, self._ranges, sizes)).index)
        try:
            return self._expand(left, view, out_ctx, unroll)
        except _NotAffine:
            (self._loop_counter, self._scalar_counter, self._temp_counter,
             self._temps, self._ranges) = saved
            return None

    def _digit_nest(self, left: nodes.Tensor, perm: nodes.Formula,
                    in_ctx: VecContext, out_ctx: VecContext,
                    unroll: bool) -> list[Instr] | None:
        """``(I_m (x) B) P`` as nested loops over the digits of ``I_m``
        that ``P`` needs, ``B`` reading each block at one stride."""
        m, block = left.left.params[0], left.right
        a, a_out = self.table.sizes(block)
        split = _digit_split(perm, m, a, self.table.sizes)
        if split is None:
            return None
        radices, digits, offset, stride = split
        names = [self._fresh_loop_var() for _ in radices]
        self.budget.charge_statements(len(names), "loops over digits",
                                      self.formula_path())
        rename = {d: IExpr.var(name) for d, name in zip(digits, names)}
        self._ranges.update((name, (0, r - 1))
                            for name, r in zip(names, radices))
        unroll = left.unroll if left.unroll is not None else unroll
        body = self._expand(
            block,
            in_ctx.narrowed(offset.subst(rename), IExpr.const(stride)),
            out_ctx.narrowed(_mixed_radix(names, radices) * a_out, ONE),
            unroll,
        )
        should_unroll = self._should_unroll(unroll, m * a)
        for name, count in zip(reversed(names), reversed(radices)):
            del self._ranges[name]
            body = [Loop(name, count, body, unroll=should_unroll)]
        return body

    # -- built-in literal code generation ------------------------------------

    def _expand_diagonal(self, formula: nodes.DiagonalLit,
                         in_ctx: VecContext,
                         out_ctx: VecContext) -> list[Instr]:
        self.budget.charge_statements(len(formula.values),
                                      "diagonal literal",
                                      self.formula_path())
        body: list[Instr] = []
        for i, value in enumerate(formula.values):
            index = IExpr.const(i)
            body.append(Op("*", out_ctx.ref(index), FConst(value),
                           in_ctx.ref(index)))
        return body

    def _expand_permutation(self, formula: nodes.PermutationLit,
                            in_ctx: VecContext,
                            out_ctx: VecContext) -> list[Instr]:
        # Direct gather: $in and $out never alias in generated code
        # (see the F_2 template note in startup.spl).
        self.budget.charge_statements(len(formula.perm),
                                      "permutation literal",
                                      self.formula_path())
        body: list[Instr] = []
        for i, k in enumerate(formula.perm):
            body.append(Op("=", out_ctx.ref(IExpr.const(i)),
                           in_ctx.ref(IExpr.const(k - 1))))
        return body

    def _expand_matrix(self, formula: nodes.MatrixLit, in_ctx: VecContext,
                       out_ctx: VecContext) -> list[Instr]:
        self.budget.charge_statements(
            len(formula.rows) * len(formula.rows[0]), "matrix literal",
            self.formula_path(),
        )
        body: list[Instr] = []
        for i, row in enumerate(formula.rows):
            dest = out_ctx.ref(IExpr.const(i))
            terms = [(j, a) for j, a in enumerate(row) if a != 0]
            if not terms:
                body.append(Op("=", dest, FConst(0.0)))
                continue
            first_j, first_a = terms[0]
            first_src = in_ctx.ref(IExpr.const(first_j))
            if first_a == 1:
                body.append(Op("=", dest, first_src))
            else:
                body.append(Op("*", dest, FConst(first_a), first_src))
            for j, a in terms[1:]:
                src = in_ctx.ref(IExpr.const(j))
                if a == 1:
                    body.append(Op("+", dest, dest, src))
                else:
                    scalar = FVar(self._fresh_scalar())
                    body.append(Op("*", scalar, FConst(a), src))
                    body.append(Op("+", dest, dest, scalar))
        return body

    # -- fresh-name helpers ---------------------------------------------------

    def _fresh_loop_var(self) -> str:
        name = f"i{self._loop_counter}"
        self._loop_counter += 1
        return name

    def _fresh_scalar(self) -> str:
        name = f"f{self._scalar_counter}"
        self._scalar_counter += 1
        return name

    def _fresh_temp(self) -> str:
        name = f"t{self._temp_counter}"
        self._temp_counter += 1
        self._temps[name] = VecInfo(name, 0, VEC_TEMP)
        return name


def _describe(formula: nodes.Formula) -> str:
    """A constant-size label for one formula node (no recursion)."""
    if isinstance(formula, nodes.Param):
        return formula.to_spl()
    if isinstance(formula, nodes.DiagonalLit):
        return f"(diagonal …)[{len(formula.values)}]"
    if isinstance(formula, nodes.PermutationLit):
        return f"(permutation …)[{len(formula.perm)}]"
    if isinstance(formula, nodes.MatrixLit):
        return f"(matrix …)[{len(formula.rows)}x{len(formula.rows[0])}]"
    name = getattr(formula, "op_name", "") or type(formula).__name__.lower()
    return f"({name} …)"


@dataclass
class _Frame:
    """Per-template-instantiation state: local name mappings."""

    env: TemplateEnv
    bindings: dict
    in_ctx: VecContext
    out_ctx: VecContext
    unroll: bool
    should_unroll: bool

    def __post_init__(self) -> None:
        self._scalars: dict[str, str] = {}
        self._temp_names: dict[str, str] = {}

    def scalar(self, template_name: str, gen: CodeGenerator) -> str:
        name = self._scalars.get(template_name)
        if name is None:
            name = gen._fresh_scalar()
            self._scalars[template_name] = name
        return name

    def vec_context(self, template_vec: str, gen: CodeGenerator) -> VecContext:
        if template_vec == "in":
            return self.in_ctx
        if template_vec == "out":
            return self.out_ctx
        name = self._temp_names.get(template_vec)
        if name is None:
            name = gen._fresh_temp()
            self._temp_names[template_vec] = name
        return VecContext(name, IExpr.const(0), IExpr.const(1))


def _size_temps(program: Program, temps: dict[str, VecInfo]) -> None:
    """Infer temp vector sizes by bounding every subscript."""
    if not temps:
        return
    maxima = {name: -1 for name in temps}

    def visit(body: list[Instr], ranges: dict[str, tuple[int, int]]) -> None:
        for inst in body:
            if isinstance(inst, Loop):
                inner = dict(ranges)
                inner[inst.var] = (0, inst.count - 1)
                visit(inst.body, inner)
            elif isinstance(inst, Op):
                for item in (inst.dest, *inst.operands()):
                    if isinstance(item, VecRef) and item.vec in maxima:
                        lo, hi = item.index.interval(ranges)
                        if lo < 0:
                            raise SplSemanticError(
                                f"negative subscript on temporary "
                                f"{item.vec}: {item.index}"
                            )
                        maxima[item.vec] = max(maxima[item.vec], hi)

    visit(program.body, {})
    for name, info in temps.items():
        info.size = maxima[name] + 1


class _NotAffine(Exception):
    """A read through a permutation is not affine in the loops in scope.

    ``var`` and ``factor`` name the split that can make it affine: the
    loop over ``var`` run as an outer loop and a ``factor``-trip inner
    one."""

    def __init__(self, var: str | None = None, factor: int = 0):
        super().__init__(var, factor)
        self.var, self.factor = var, factor


def _is_identity(formula: nodes.Formula) -> bool:
    return isinstance(formula, nodes.Param) and formula.name == "I"


def _divmod(q: IExpr, m: int,
            ranges: dict[str, tuple[int, int]]) -> tuple[IExpr, IExpr]:
    """``(q // m, q % m)``, each affine, or :class:`_NotAffine` naming
    the widest loop whose terms cross a multiple of ``m``."""
    high, low = q.split_multiples(m)
    lo, hi = low.interval(ranges)
    if 0 <= lo and hi < m:
        return high, low
    for mono, coeff in sorted(low.terms, key=lambda term: -term[1]):
        if len(mono) == 1 and 0 < coeff < m and m % coeff == 0:
            count, factor = ranges[mono[0]][1] + 1, m // coeff
            if count > factor and count % factor == 0:
                raise _NotAffine(mono[0], factor)
    raise _NotAffine()


def _gather(perm: nodes.Formula, q: IExpr,
            ranges: dict[str, tuple[int, int]], sizes) -> IExpr:
    """The input subscript that the permutation ``perm`` copies to its
    output element ``q``, affine in the loop indices of ``ranges``."""
    if isinstance(perm, nodes.Compose):
        return _gather(perm.right, _gather(perm.left, q, ranges, sizes),
                       ranges, sizes)
    if isinstance(perm, nodes.Tensor):
        b = sizes(perm.right)[0]
        high, low = _divmod(q, b, ranges)
        return (_gather(perm.left, high, ranges, sizes) * b
                + _gather(perm.right, low, ranges, sizes))
    if isinstance(perm, nodes.DirectSum):
        n = sizes(perm.left)[0]
        lo, hi = q.interval(ranges)
        if hi < n:
            return _gather(perm.left, q, ranges, sizes)
        if lo < n:
            raise _NotAffine()
        return _gather(perm.right, q - n, ranges, sizes) + n
    if perm.name == "I":
        return q
    if perm.name == "J":
        return -q + (perm.params[0] - 1)
    nn, s = perm.params  # (L nn s): y[j*(nn/s) + i] = x[i*s + j]
    high, low = _divmod(q, nn // s, ranges)
    return low * s + high


def _digit_split(perm: nodes.Formula, m: int, a: int, sizes
                 ) -> tuple[list[int], list[str], IExpr, int] | None:
    """Split an ``m``-trip loop over ``a``-element blocks of the output
    of ``perm`` into mixed-radix digit loops, outermost first, until
    every block is the input at one stride.  Returns ``(radices, digit
    names, block offset in the digits, stride)``, or None."""
    radices = [m]
    while True:
        digits = [f"d{j}" for j in range(len(radices))]
        ranges = {d: (0, r - 1) for d, r in zip(digits, radices)}
        ranges["k"] = (0, a - 1)
        q = _mixed_radix(digits, radices) * a + IExpr.var("k")
        try:
            source = _gather(perm, q, ranges, sizes)
        except _NotAffine as exc:
            if exc.var not in digits:
                return None
            j = digits.index(exc.var)
            radices[j:j + 1] = [radices[j] // exc.factor, exc.factor]
            continue
        stride, offset = source.split_var("k")
        return radices, digits, offset, stride


def _mixed_radix(names: list[str], radices: list[int]) -> IExpr:
    """``sum_j names[j] * prod(radices[j+1:])``."""
    index, weight = ZERO, 1
    for name, radix in zip(reversed(names), reversed(radices)):
        index = index + IExpr.var(name) * weight
        weight *= radix
    return index
