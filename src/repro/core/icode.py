"""Intermediate code (i-code) for the SPL compiler.

Section 3.2 of the paper: "I-code instructions are Fortran-style do-loop
headers, end-do statements, or four-tuples containing an operator and up
to three operands."

Representation choices:

* Integer expressions (vector subscripts, intrinsic arguments) are kept
  in a canonical multivariate-polynomial form (:class:`IExpr`) over loop
  indices and symbolic stride/offset parameters.  This makes constant
  folding, substitution during loop unrolling, and affine analysis for
  the optimizer all trivial.
* The paper's integer scalars (``$r0 = $i0 * $i1``) are substituted away
  during template expansion — they are pure functions of loop indices,
  so their uses are replaced by the defining polynomial.  No semantic
  difference is observable because i-code has no control flow other
  than counted loops.
* Floating point / complex scalars (``$f0``) are :class:`FVar` operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from repro.core.errors import SplSemanticError
from repro.core.scalars import Number

# ---------------------------------------------------------------------------
# Integer polynomial expressions.
# ---------------------------------------------------------------------------

Monomial = tuple[str, ...]  # sorted tuple of variable names (with repetition)
Terms = tuple[tuple[Monomial, int], ...]


class IExpr:
    """An integer-valued polynomial over named integer variables.

    Immutable.  ``terms`` is canonical — monomials sorted (so the
    constant term, the empty monomial, comes first), no zero
    coefficients — which makes equality tuple equality, lets the hash
    be computed once, and gives the integer and affine cases the
    optimizer lives on (a constant, constant ± constant, the value at
    an integer point, the difference of two subscripts) direct answers
    that never build an intermediate polynomial.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Terms = ()):
        self.terms = terms
        self._hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IExpr):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self.terms)
        return value

    def __reduce__(self):
        # String hashes differ between processes: never ship the cache.
        return IExpr, (self.terms,)

    def __repr__(self) -> str:
        return f"IExpr(terms={self.terms!r})"

    # -- construction ------------------------------------------------------

    @staticmethod
    def const(value: int) -> "IExpr":
        if value == 0:
            return IExpr(())
        return IExpr((((), int(value)),))

    @staticmethod
    def var(name: str) -> "IExpr":
        return IExpr((((name,), 1),))

    @staticmethod
    def _from_dict(terms: Mapping[Monomial, int]) -> "IExpr":
        cleaned = [item for item in terms.items() if item[1]]
        if len(cleaned) > 1:
            cleaned.sort()
        return IExpr(tuple(cleaned))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IExpr | int") -> "IExpr":
        if isinstance(other, IExpr):
            constant = other.as_const()
            if constant is None:
                combined: dict[Monomial, int] = dict(self.terms)
                for mono, coeff in other.terms:
                    combined[mono] = combined.get(mono, 0) + coeff
                return IExpr._from_dict(combined)
            other = constant
        else:
            other = int(other)
        # Adding a constant only touches the leading term.
        if not other:
            return self
        terms = self.terms
        if not terms or terms[0][0] != ():
            return IExpr((((), other),) + terms)
        total = terms[0][1] + other
        return IExpr(((((), total),) if total else ()) + terms[1:])

    def __sub__(self, other: "IExpr | int") -> "IExpr":
        return self + (-other)

    def __neg__(self) -> "IExpr":
        return IExpr(tuple((mono, -coeff) for mono, coeff in self.terms))

    def __mul__(self, other: "IExpr | int") -> "IExpr":
        if isinstance(other, IExpr):
            factor = other.as_const()
            if factor is None:
                product: dict[Monomial, int] = {}
                for mono_a, coeff_a in self.terms:
                    for mono_b, coeff_b in other.terms:
                        mono = tuple(sorted(mono_a + mono_b))
                        product[mono] = (product.get(mono, 0)
                                         + coeff_a * coeff_b)
                return IExpr._from_dict(product)
            other = factor
        else:
            other = int(other)
        # Scaling by a constant keeps the term order.
        if other == 1:
            return self
        if not other:
            return ZERO
        return IExpr(tuple((mono, coeff * other)
                           for mono, coeff in self.terms))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: "IExpr | int") -> "IExpr":
        return -self + other

    # -- queries -------------------------------------------------------------

    def as_const(self) -> int | None:
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and terms[0][0] == ():
            return terms[0][1]
        return None

    def split_const(self) -> tuple[Terms, int]:
        """``(non-constant terms, constant term)``.

        Two subscripts can denote the same element only if their
        non-constant terms differ or their constants are equal, so the
        first component is the key under which may-alias sets are
        bucketed.
        """
        terms = self.terms
        if terms and terms[0][0] == ():
            return terms[1:], terms[0][1]
        return terms, 0

    def const_difference(self, other: "IExpr") -> int | None:
        """``(self - other).as_const()`` without building the difference."""
        shape_a, const_a = self.split_const()
        shape_b, const_b = other.split_const()
        return const_a - const_b if shape_a == shape_b else None

    def free_vars(self) -> frozenset[str]:
        names: set[str] = set()
        for mono, _ in self.terms:
            names.update(mono)
        return frozenset(names)

    def split_var(self, var: str) -> "tuple[int, IExpr] | None":
        """``(step, rest)`` with ``self == step * var + rest``, ``step``
        an integer and ``rest`` free of ``var``; None when ``var``
        occurs in a product (``var * var``, ``var * other``).  The one
        affine split: induction planning and slice lowering both ask
        how a subscript moves with a single loop variable, whatever
        the other variables do."""
        step = 0
        rest: list[tuple[Monomial, int]] = []
        for term in self.terms:
            mono = term[0]
            if var not in mono:
                rest.append(term)
            elif len(mono) == 1:
                step = term[1]
            else:
                return None
        return step, (IExpr(tuple(rest)) if step else self)

    def split_multiples(self, m: int) -> "tuple[IExpr, IExpr]":
        """``(high, low)`` with ``self == m * high + low``: ``high`` takes
        every term whose coefficient ``m`` divides and the constant's
        quotient, ``low`` the other terms and the constant's remainder.
        When ``low`` stays inside ``[0, m)`` they are ``self // m`` and
        ``self % m``."""
        high: dict[Monomial, int] = {}
        low: dict[Monomial, int] = {}
        for mono, coeff in self.terms:
            if not mono:
                high[mono], low[mono] = divmod(coeff, m)
            elif coeff % m == 0:
                high[mono] = coeff // m
            else:
                low[mono] = coeff
        return IExpr._from_dict(high), IExpr._from_dict(low)

    def at(self, point: Mapping[str, int]) -> "int | IExpr":
        """Partially evaluate at an integer point.

        Returns a plain ``int`` exactly when ``subst(point)`` is
        constant, otherwise the residual polynomial in the variables
        ``point`` leaves unbound.  An affine subscript at a point that
        binds all its variables costs one multiplication per term.
        """
        total = 0
        residual: dict[Monomial, int] | None = None
        for mono, coeff in self.terms:
            rest: Monomial = ()
            for name in mono:
                value = point.get(name)
                if value is None:
                    rest += (name,)
                else:
                    coeff *= value
            if not rest:
                total += coeff
            elif coeff:
                if residual is None:
                    residual = {}
                residual[rest] = residual.get(rest, 0) + coeff
        if residual is None:
            return total
        residual[()] = total
        expr = IExpr._from_dict(residual)
        constant = expr.as_const()  # residual terms may have cancelled
        return expr if constant is None else constant

    def subst(self, bindings: Mapping[str, "IExpr | int"]) -> "IExpr":
        """Substitute variables (missing names are left untouched)."""
        if not any(isinstance(v, IExpr) for v in bindings.values()):
            value = self.at(bindings)
            return value if isinstance(value, IExpr) else IExpr.const(value)
        result = ZERO
        for mono, coeff in self.terms:
            term = IExpr.const(coeff)
            for name in mono:
                replacement = bindings.get(name)
                term = term * (IExpr.var(name) if replacement is None
                               else replacement)
            result = result + term
        return result

    def interval(self, ranges: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """Min/max value given inclusive variable ranges (all bounds >= 0)."""
        lo_total, hi_total = 0, 0
        for mono, coeff in self.terms:
            lo_prod, hi_prod = 1, 1
            for name in mono:
                if name not in ranges:
                    raise SplSemanticError(
                        f"cannot bound index expression: unknown range for "
                        f"variable {name!r}"
                    )
                var_lo, var_hi = ranges[name]
                if var_lo < 0:
                    raise SplSemanticError(
                        f"interval analysis requires non-negative {name!r}"
                    )
                lo_prod *= var_lo
                hi_prod *= var_hi
            term_lo, term_hi = coeff * lo_prod, coeff * hi_prod
            if term_lo > term_hi:
                term_lo, term_hi = term_hi, term_lo
            lo_total += term_lo
            hi_total += term_hi
        return lo_total, hi_total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        # Render variable terms first and the constant last ("4*i0 + 1"),
        # matching the paper's listings.
        ordered = sorted(self.terms, key=lambda item: (item[0] == (), item[0]))
        for mono, coeff in ordered:
            names = "*".join(mono)
            if mono == ():
                text = str(coeff)
            elif coeff == 1:
                text = names
            elif coeff == -1:
                text = f"-{names}"
            else:
                text = f"{coeff}*{names}"
            parts.append(text)
        rendered = parts[0]
        for part in parts[1:]:
            rendered += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return rendered


ZERO = IExpr.const(0)
ONE = IExpr.const(1)


# ---------------------------------------------------------------------------
# Operands.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FVar:
    """A floating-point (or complex, before type transformation) scalar."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class FConst:
    """A numeric constant operand."""

    value: Number

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VecRef:
    """A reference ``vec[index]`` with a polynomial subscript."""

    vec: str
    index: IExpr

    def __str__(self) -> str:
        return f"${self.vec}({self.index})"


@dataclass(frozen=True)
class Intrinsic:
    """A call to a parameterized scalar function such as ``W(n, k)``.

    Arguments are integer expressions; intrinsic invocations only
    survive until the intrinsic-evaluation pass (Section 3.3.2), which
    replaces them with constants or table references.
    """

    name: str
    args: tuple[IExpr, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


Operand = FVar | FConst | VecRef | Intrinsic
Location = FVar | VecRef


# ---------------------------------------------------------------------------
# Instructions.
# ---------------------------------------------------------------------------

BINARY_OPS = ("+", "-", "*", "/")
UNARY_OPS = ("=", "neg")


@dataclass
class Op:
    """A four-tuple instruction: ``dest = a (op) b`` or ``dest = (op) a``."""

    op: str
    dest: Location
    a: Operand
    b: Operand | None = None

    def __post_init__(self) -> None:
        if self.op in BINARY_OPS:
            if self.b is None:
                raise SplSemanticError(f"operator {self.op!r} needs two operands")
        elif self.op in UNARY_OPS:
            if self.b is not None:
                raise SplSemanticError(f"operator {self.op!r} takes one operand")
        else:
            raise SplSemanticError(f"unknown i-code operator {self.op!r}")

    def operands(self) -> tuple[Operand, ...]:
        return (self.a,) if self.b is None else (self.a, self.b)

    def __str__(self) -> str:
        if self.op == "=":
            return f"{self.dest} = {self.a}"
        if self.op == "neg":
            return f"{self.dest} = -{self.a}"
        return f"{self.dest} = {self.a} {self.op} {self.b}"


@dataclass
class Loop:
    """A counted loop ``do var = 0, count-1`` over ``body``."""

    var: str
    count: int
    body: list["Instr"]
    unroll: bool = False

    def __str__(self) -> str:
        inner = "\n".join(f"  {line}" for inst in self.body
                          for line in str(inst).split("\n"))
        return f"do ${self.var} = 0, {self.count - 1}\n{inner}\nend"


@dataclass
class Comment:
    """A comment carried through to the generated code for readability."""

    text: str

    def __str__(self) -> str:
        return f"; {self.text}"


Instr = Op | Loop | Comment


# ---------------------------------------------------------------------------
# The program container produced by code generation.
# ---------------------------------------------------------------------------

VEC_INPUT = "in"
VEC_OUTPUT = "out"
VEC_TEMP = "temp"


@dataclass
class VecInfo:
    """Metadata for one vector (array) used by a program.

    ``dtype`` is the element type; the empty string means "the
    program's element type" (a real double, or a complex double before
    type transformation).  Scratch-reuse passes must never merge
    vectors whose dtypes differ.
    """

    name: str
    size: int
    kind: str  # VEC_INPUT, VEC_OUTPUT or VEC_TEMP
    dtype: str = ""


@dataclass
class Program:
    """A complete i-code program for one SPL formula.

    ``in_size``/``out_size`` are logical element counts; when
    ``datatype`` is complex and the program has been lowered to real
    arithmetic, each logical element occupies two array slots and
    ``element_width`` is 2.
    """

    name: str
    in_size: int
    out_size: int
    datatype: str  # "real" or "complex"
    body: list[Instr] = field(default_factory=list)
    vectors: dict[str, VecInfo] = field(default_factory=dict)
    tables: dict[str, tuple[Number, ...]] = field(default_factory=dict)
    element_width: int = 1
    # True when the program exposes symbolic istride/ostride/iofs/oofs
    # parameters (codelet-style entry point, Section 3.5).
    strided: bool = False

    def input_name(self) -> str:
        return next(v.name for v in self.vectors.values()
                    if v.kind == VEC_INPUT)

    def output_name(self) -> str:
        return next(v.name for v in self.vectors.values()
                    if v.kind == VEC_OUTPUT)

    def temp_vectors(self) -> list[VecInfo]:
        return [v for v in self.vectors.values() if v.kind == VEC_TEMP]

    def scalar_names(self) -> list[str]:
        names: dict[str, None] = {}
        for op in iter_ops(self.body):
            for item in (op.dest, *op.operands()):
                if isinstance(item, FVar):
                    names.setdefault(item.name)
        return list(names)

    def is_straight_line(self) -> bool:
        """True when no loops remain — the codelet form produced by
        full unrolling, which the SIMD batch driver and the in-process
        JIT both key on."""
        return not any(isinstance(inst, Loop) for inst in self.body)

    def flop_count(self) -> int:
        """Arithmetic operations executed per call (loops multiplied out)."""
        return _count_flops(self.body, 1)

    def temp_elements(self) -> int:
        return sum(v.size for v in self.temp_vectors())

    def element_bytes(self) -> int:
        """Bytes per physical array slot (16 for unlowered complex)."""
        if self.datatype == "complex" and self.element_width == 1:
            return 16
        return 8

    def scratch_bytes(self) -> int:
        """Total temp-array storage the program allocates, in bytes."""
        return self.temp_elements() * self.element_bytes()

    def table_elements(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def __str__(self) -> str:
        lines = [f"; program {self.name}: in={self.in_size} "
                 f"out={self.out_size} datatype={self.datatype}"]
        lines.extend(str(inst) for inst in self.body)
        return "\n".join(lines)


def iter_ops(body: Iterable[Instr]) -> Iterator[Op]:
    """Yield every :class:`Op` in ``body``, descending into loops."""
    for inst in body:
        if isinstance(inst, Op):
            yield inst
        elif isinstance(inst, Loop):
            yield from iter_ops(inst.body)


def iter_instrs(body: Iterable[Instr]) -> Iterator[Instr]:
    """Yield every instruction, descending into loops (pre-order)."""
    for inst in body:
        yield inst
        if isinstance(inst, Loop):
            yield from iter_instrs(inst.body)


def count_statements(body: Iterable[Instr]) -> int:
    """Static instruction count (loops count as one plus their body)."""
    total = 0
    for inst in body:
        if isinstance(inst, Op):
            total += 1
        elif isinstance(inst, Loop):
            total += 1 + count_statements(inst.body)
    return total


def count_dynamic_statements(body: Iterable[Instr]) -> int:
    """Executed instruction count (loop bodies multiplied by trip
    count) — the cost one interpreter run over the program pays."""
    total = 0
    for inst in body:
        if isinstance(inst, Op):
            total += 1
        elif isinstance(inst, Loop):
            total += inst.count * count_dynamic_statements(inst.body)
    return total


def _count_flops(body: Iterable[Instr], multiplier: int) -> int:
    total = 0
    for inst in body:
        if isinstance(inst, Op):
            if inst.op in ("+", "-", "*", "/", "neg"):
                total += multiplier
        elif isinstance(inst, Loop):
            total += _count_flops(inst.body, multiplier * inst.count)
    return total


def map_operands(body: list[Instr],
                 fn: Callable[[Operand], Operand]) -> list[Instr]:
    """Rebuild ``body`` applying ``fn`` to every operand and destination."""
    result: list[Instr] = []
    for inst in body:
        if isinstance(inst, Op):
            dest = fn(inst.dest)
            if not isinstance(dest, (FVar, VecRef)):
                raise SplSemanticError(
                    f"operand mapping produced invalid destination {dest}"
                )
            a = fn(inst.a)
            b = fn(inst.b) if inst.b is not None else None
            result.append(Op(inst.op, dest, a, b))
        elif isinstance(inst, Loop):
            result.append(
                Loop(inst.var, inst.count, map_operands(inst.body, fn),
                     unroll=inst.unroll)
            )
        else:
            result.append(inst)
    return result


def subst_indices(body: list[Instr],
                  bindings: Mapping[str, IExpr | int]) -> list[Instr]:
    """Substitute integer variables in all subscripts/intrinsic args."""

    def rewrite(operand: Operand) -> Operand:
        if isinstance(operand, VecRef):
            return VecRef(operand.vec, operand.index.subst(bindings))
        if isinstance(operand, Intrinsic):
            return Intrinsic(
                operand.name,
                tuple(arg.subst(bindings) for arg in operand.args),
            )
        return operand

    return map_operands(body, rewrite)

