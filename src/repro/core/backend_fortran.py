"""Fortran target code generation (the paper's primary target).

Follows the shape of the paper's ``I64F2`` listing: ``implicit real*8
(f)`` / ``implicit integer (r)`` declarations, 1-based array
subscripts, ``do ... end do`` loops.  When the code type is complex the
backend declares ``complex*16`` data and emits complex constants as
``(re, im)`` pairs — the Fortran-only capability called out in Section
3.3.3.

The source is fixed-form: statements start in column 7 and a
statement that would run past column 72 — where a standard compiler
silently stops reading — is continued on ``     &`` lines, broken in
front of an operator or ``=``, never inside a token.

The ``automatic_storage`` flag reproduces the paper's second peephole:
"declares all temporary variables as automatic so they will be
allocated on the stack" (a Sun Fortran extension).
"""

from __future__ import annotations

from repro.core.emit import Printer
from repro.core.icode import IExpr, Loop, Program

MARGIN = "      "  # columns 1-6 of fixed-form Fortran
CONT = "     &"
LAST_COLUMN = 72


class _FortranPrinter(Printer):
    language = "Fortran"
    margin = MARGIN
    indent = "  "
    loop_close = "end do"

    def const(self, value) -> str:
        if isinstance(value, complex):
            return f"({_real(value.real)},{_real(value.imag)})"
        return _real(float(value))

    def index(self, expr: IExpr) -> str:
        return str(expr + 1)  # Fortran arrays are 1-based

    def element(self, vec: str, index: str) -> str:
        return f"{vec}({index})"

    def loop_open(self, loop: Loop) -> str:
        return f"do {loop.var} = 0, {loop.count - 1}"

    def comment(self, pad: str, text: str) -> str:
        return f"c {text}"

    def statement(self, pad: str, text: str) -> list[str]:
        lines = [pad + text]
        while len(lines[-1]) > LAST_COLUMN:
            line = lines[-1]
            # The last " <operator> " that starts at or before the last
            # column; it opens the continuation line, so joining the
            # pieces gives the statement back.
            cut = max(line.rfind(f" {mark} ", len(CONT) + 1, LAST_COLUMN + 3)
                      for mark in "=+-*/")
            if cut < 0:
                break  # one token wider than the line: nowhere to break
            lines[-1:] = [line[:cut], CONT + line[cut:]]
        return lines

    def data_statement(self, name: str, values) -> list[str]:
        rendered = [self.const(v) for v in values]
        lines = [f"{MARGIN}data {name} /"]
        current = lines[-1]
        for i, item in enumerate(rendered):
            suffix = "," if i + 1 < len(rendered) else "/"
            if len(current) + len(item) + 1 > 70:
                lines[-1] = current
                current = f"{CONT}{item}{suffix}"
                lines.append(current)
            else:
                current += item + suffix
                lines[-1] = current
        return lines


def emit_fortran(program: Program, *, automatic_storage: bool = False) -> str:
    complex_code = (
        program.datatype == "complex" and program.element_width == 1
    )
    scalar_type = "complex*16" if complex_code else "real*8"
    printer = _FortranPrinter(program)
    lines: list[str] = []
    args = "(y,x)"
    if program.strided:
        args = "(y,x,istride,ostride,iofs,oofs)"
    lines.append(f"{MARGIN}subroutine {program.name} {args}")
    lines.append(f"{MARGIN}implicit {scalar_type} (f)")
    lines.append(f"{MARGIN}implicit integer (r)")
    if program.strided:
        lines.append(f"{MARGIN}integer istride,ostride,iofs,oofs")
    out_len = program.out_size * program.element_width
    in_len = program.in_size * program.element_width
    lines.append(f"{MARGIN}{scalar_type} y({out_len}),x({in_len})")
    for info in program.temp_vectors():
        lines.append(f"{MARGIN}{scalar_type} {info.name}({max(info.size, 1)})")
    for name, values in program.tables.items():
        lines.append(f"{MARGIN}{scalar_type} {name}({len(values)})")
        lines.extend(printer.data_statement(name, values))
    if automatic_storage:
        names = program.scalar_names()
        names.extend(info.name for info in program.temp_vectors())
        for name in names:
            lines.append(f"{MARGIN}automatic {name}")
    lines.extend(printer.block(program.body, 0))
    lines.append(f"{MARGIN}end")
    return "\n".join(lines) + "\n"


def _real(value: float) -> str:
    text = repr(value)
    if "e" in text or "E" in text:
        return text.replace("e", "d").replace("E", "d")
    return text + "d0"
