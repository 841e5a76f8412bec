"""C target code generation (Section 3.5).

The paper's C backend uses only real arithmetic ("of the popular
imperative languages only Fortran supports complex data type"), so a
complex-datatype program must be lowered by
:func:`repro.core.typetrans.complex_to_real` before reaching this
backend; the routine then operates on interleaved re/im arrays.

Generated signature::

    void name(double *restrict y, const double *restrict x);

or, for codelet-style strided entry points::

    void name(double *restrict y, const double *restrict x,
              int istride, int ostride, int iofs, int oofs);

Innermost loops are strength-reduced on emission
(:func:`repro.core.emit.plan_inductions`): every affine subscript
``step*i + rest`` (with ``rest`` invariant in ``i``) becomes a ``long``
induction variable initialized to ``rest`` and bumped by ``step`` per
iteration; subscripts sharing a step reuse one induction variable with
a constant offset.  The per-iteration multiplies the paper's listings
show (``t3[4*i5 + 2]``) disappear from the loop body.
"""

from __future__ import annotations

from repro.core.emit import Printer, loop_vars
from repro.core.errors import SplSemanticError
from repro.core.icode import Loop, Program

INDENT = "    "


class _CPrinter(Printer):
    language = "C"
    terminator = ";"
    loop_close = "}"
    induction = ("k", "long ")

    def const(self, value) -> str:
        if isinstance(value, complex):
            raise SplSemanticError(
                "complex constant reached the C backend; run the type "
                "transformation first"
            )
        return repr(float(value))

    def loop_open(self, loop: Loop) -> str:
        var = loop.var
        return f"for ({var} = 0; {var} < {loop.count}; {var}++) {{"

    def comment(self, pad: str, text: str) -> str:
        return f"{pad}/* {text} */"


def emit_c(program: Program, *, static: bool = False) -> str:
    """Render ``program`` as one self-contained C function."""
    if program.datatype == "complex" and program.element_width != 2:
        raise SplSemanticError(
            "the C backend requires complex programs to be lowered to "
            "real arithmetic first (codetype real)"
        )
    printer = _CPrinter(program)
    lines: list[str] = []
    for name, values in program.tables.items():
        lines.append(
            f"static const double {name}[{len(values)}] = "
            f"{{{printer.table_values(values)}}};"
        )
    qualifier = "static " if static else ""
    params = "double *restrict y, const double *restrict x"
    if program.strided:
        params += ", int istride, int ostride, int iofs, int oofs"
    lines.append(f"{qualifier}void {program.name}({params})")
    lines.append("{")
    scalars = program.scalar_names()
    if scalars:
        lines.append(f"{INDENT}double {', '.join(scalars)};")
    counters = loop_vars(program.body)
    if counters:
        lines.append(f"{INDENT}int {', '.join(counters)};")
    for info in program.temp_vectors():
        lines.append(f"{INDENT}double {info.name}[{max(info.size, 1)}];")
    lines.extend(printer.block(program.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
