"""In-process codelet JIT: straight-line i-code to native machine code.

The C backend's cold path shells out to the host compiler per plan —
~100ms-1s of first-request latency that the shared-object cache cannot
amortize for a plan nobody compiled before.  This module removes the
subprocess entirely for the kernels that dominate serving traffic:
fully-unrolled *codelets* (straight-line programs with constant
subscripts, which is exactly what §3.3.1 unrolling plus §3.3.2
intrinsic folding produce for small n).  Their four-tuple i-code is
lowered directly to x86-64 SSE2 machine code in a few milliseconds of
pure Python, written into an executable ``mmap`` page and entered
through ``ctypes`` — no compiler, no fork, no filesystem.

Why not cffi API mode or llvmlite?  cffi's API mode *also* spawns the
host C compiler (through setuptools), so it cannot beat the existing
gcc+ctypes flow on cold-compile latency; llvmlite would be the
portable in-process answer (Thielemann's "Compiling Signal Processing
Code embedded in Haskell via LLVM" lowers the same kind of DSP IR that
way) but is not available in this environment.  A direct emitter keeps
the dependency budget at zero and compiles a 64-point codelet in ~1ms.

Scope and fallback: only non-strided straight-line real-arithmetic
programs are eligible (:func:`jit_supported` + :func:`can_jit`);
anything else — looped programs, strided entry points, non-x86-64
hosts, kernels past the size cap — falls back to the existing
gcc+ctypes flow, which remains the steady-state optimum.  The runner
(:mod:`repro.perfeval.runner`) builds this tier only for an explicit
``prefer="cjit"`` (the fuzz oracle, the cold-start gate) and keeps
the executable on it: nothing swaps in a gcc build behind the caller.

Code shape: arithmetic is scalar SSE2 (``movsd``/``addsd``/...), one
load-compute-store group per four-tuple, with every scalar, constant,
table element and temp slot living in a per-routine data block whose
base address is loaded into ``rax`` (``movabs``).  No register
allocation — correctness and compile speed are the point; the C tier
owns peak throughput.  Generated code is called with the
exact ``void fn(double *y, const double *x)`` /
``void batch(double *y, const double *x, int batch)`` signatures of
the C backend, so the runner plugs JIT entry points into the same
slots as ctypes-loaded ones.

Results are bit-identical to the C backend's portable build
(``-O3 -march=x86-64``): both execute the same four-tuples in the
same order with IEEE double arithmetic, and neither reassociates (the
build uses ``-fno-math-errno``, not ``-ffast-math``).  The default C
build targets the host's ISA, where gcc may contract a multiply and an
add into one FMA, so it agrees with the JIT to rounding, not to the
bit.  The cross-backend property suite asserts the bit identity.
"""

from __future__ import annotations

import ctypes
import mmap
import platform
import struct
import threading
from dataclasses import dataclass, field

from repro.core.errors import SplSemanticError
from repro.core.icode import (
    FConst,
    FVar,
    Op,
    Program,
    VecRef,
)

#: Refuse to emit codelets past this many four-tuples: big programs
#: belong to the gcc path (and straight-line code this large came from
#: an unroll the search would never pick).
MAX_JIT_STATEMENTS = 1 << 15

#: One process-wide probe result (None = not probed yet).
_PROBE_LOCK = threading.Lock()
_PROBE_RESULT: bool | None = None


class JitError(SplSemanticError):
    """Raised when a program cannot be lowered by the codelet JIT."""


def jit_supported() -> bool:
    """True when this host can run JIT-emitted codelets.

    Requires an x86-64 CPU and an OS that grants writable+executable
    anonymous mappings (hardened kernels may refuse PROT_EXEC; the
    probe result is cached process-wide).
    """
    global _PROBE_RESULT
    with _PROBE_LOCK:
        if _PROBE_RESULT is None:
            _PROBE_RESULT = _probe()
        return _PROBE_RESULT


def _probe() -> bool:
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        buf = mmap.mmap(-1, mmap.PAGESIZE,
                        prot=mmap.PROT_READ | mmap.PROT_WRITE
                        | mmap.PROT_EXEC)
    except (ValueError, OSError, AttributeError):
        return False
    try:
        buf.write(b"\xb8\x2a\x00\x00\x00\xc3")  # mov eax, 42; ret
        addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        fn = ctypes.CFUNCTYPE(ctypes.c_int)(addr)
        return fn() == 42
    except Exception:  # noqa: BLE001 - any failure means "no JIT"
        return False
    finally:
        # The CFUNCTYPE above holds no reference to buf; dropping the
        # export reference lets close() succeed.
        try:
            buf.close()
        except BufferError:  # pragma: no cover - export still alive
            pass


def can_jit(program: Program) -> bool:
    """True when ``program`` is a codelet this emitter can lower.

    Eligible programs are non-strided, real-arithmetic (complex must
    have been lowered by the type transformation, exactly as for the C
    backend), fully straight-line (no residual loops), with constant
    subscripts everywhere and at most :data:`MAX_JIT_STATEMENTS`
    four-tuples.
    """
    if program.strided or not program.is_straight_line():
        return False
    if program.datatype == "complex" and program.element_width != 2:
        return False
    ops = 0
    for inst in program.body:
        if not isinstance(inst, Op):
            continue  # comments
        ops += 1
        if ops > MAX_JIT_STATEMENTS:
            return False
        for item in (inst.dest, *inst.operands()):
            if isinstance(item, VecRef):
                if item.index.as_const() is None:
                    return False
            elif not isinstance(item, (FVar, FConst)):
                return False  # unevaluated intrinsics etc.
    return True


# ---------------------------------------------------------------------------
# The emitter.
# ---------------------------------------------------------------------------
#
# Calling convention (System V AMD64): rdi = y, rsi = x, edx = batch
# (batch entry only).  The emitted code uses only caller-saved
# registers (rax, rcx, rdx, r8-r11, xmm0-xmm1), so no prologue spills
# are needed; the batch driver keeps its loop state in registers the
# codelet body does not touch.
#
# All non-argument memory — scalars, temp arrays, constants, the
# negation sign mask — lives in one per-routine data block whose base
# address is materialized with movabs into rax at entry.  Every
# operand is then a [reg + disp32] access, so instruction sizes are
# fixed and the emitter is single-pass.

_REX_W = 0x48


def _disp32(value: int) -> bytes:
    if not -(1 << 31) <= value < (1 << 31):  # pragma: no cover - capped
        raise JitError(f"displacement {value} overflows disp32")
    return struct.pack("<i", value)


def _modrm_disp32(reg: int, base: int) -> bytes:
    # mod=10 (disp32), reg, r/m=base.  base is rax/rdi/rsi (no SIB
    # needed: none of them is rsp/r12).
    return bytes((0x80 | (reg << 3) | base,))


# Register numbers used below.
_RAX, _RCX, _RDX, _RSI, _RDI = 0, 1, 2, 6, 7
_R8, _R9, _R10, _R11 = 8, 9, 10, 11


def _movsd_load(xmm: int, base: int, disp: int) -> bytes:
    # movsd xmm, qword [base + disp32]  (F2 0F 10 /r)
    return (b"\xf2\x0f\x10" + _modrm_disp32(xmm, base) + _disp32(disp))


def _movsd_store(xmm: int, base: int, disp: int) -> bytes:
    # movsd qword [base + disp32], xmm  (F2 0F 11 /r)
    return (b"\xf2\x0f\x11" + _modrm_disp32(xmm, base) + _disp32(disp))


_SSE_ARITH = {
    "+": b"\xf2\x0f\x58",  # addsd
    "-": b"\xf2\x0f\x5c",  # subsd
    "*": b"\xf2\x0f\x59",  # mulsd
    "/": b"\xf2\x0f\x5e",  # divsd
}


def _sse_arith(op: str, dst_xmm: int, src_xmm: int) -> bytes:
    # addsd/subsd/mulsd/divsd xmm_dst, xmm_src (register form: mod=11)
    return _SSE_ARITH[op] + bytes((0xC0 | (dst_xmm << 3) | src_xmm,))


def _xorpd_reg(dst_xmm: int, src_xmm: int) -> bytes:
    # xorpd xmm_dst, xmm_src (register form — no alignment constraint,
    # unlike the memory-operand form).
    return b"\x66\x0f\x57" + bytes((0xC0 | (dst_xmm << 3) | src_xmm,))


def _movabs(reg: int, value: int) -> bytes:
    rex = _REX_W | (0x1 if reg >= 8 else 0)
    return bytes((rex, 0xB8 | (reg & 7))) + struct.pack("<Q", value)


def _mov_reg(dst: int, src: int) -> bytes:
    rex = _REX_W | (0x4 if src >= 8 else 0) | (0x1 if dst >= 8 else 0)
    return bytes((rex, 0x89, 0xC0 | ((src & 7) << 3) | (dst & 7)))


def _add_reg_imm32(reg: int, value: int) -> bytes:
    rex = _REX_W | (0x1 if reg >= 8 else 0)
    return bytes((rex, 0x81, 0xC0 | (reg & 7))) + _disp32(value)


@dataclass
class _DataBlock:
    """The constant/scratch memory block behind one JIT'd routine.

    Layout (8-byte slots): [sign mask] [tables...] [scalars...]
    [temp arrays...] [constants...].  Offsets are bytes from the block
    base.
    """

    slots: list[float] = field(default_factory=list)
    _const_offsets: dict[bytes, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Negation mask (0x8000000000000000): loaded into a register
        # and xorpd'ed against the value to flip the sign bit.
        self.slots = [struct.unpack("<d", struct.pack("<Q", 1 << 63))[0]]

    @property
    def sign_mask_offset(self) -> int:
        return 0

    def add_const(self, value: float) -> int:
        key = struct.pack("<d", value)
        offset = self._const_offsets.get(key)
        if offset is None:
            offset = len(self.slots) * 8
            self.slots.append(value)
            self._const_offsets[key] = offset
        return offset

    def add_array(self, values) -> int:
        offset = len(self.slots) * 8
        self.slots.extend(float(v) for v in values)
        return offset

    def add_zeros(self, count: int) -> int:
        return self.add_array([0.0] * max(count, 1))

    def materialize(self) -> "ctypes.Array":
        # All block accesses are scalar movsd (no alignment constraint),
        # so plain ctypes 8-byte alignment suffices.
        return (ctypes.c_double * len(self.slots))(*self.slots)


class JitRoutine:
    """One JIT-compiled codelet: callable entry points + keepalives.

    ``fn(y_ptr, x_ptr)`` and ``batch_fn(y_ptr, x_ptr, batch)`` have
    the exact ctypes signatures of their shared-object counterparts
    (``c_void_p`` arguments, fed :func:`repro.perfeval.ccompile.address`
    ints or any ctypes pointer), so the runner can use them
    interchangeably.  The executable mapping and data block stay alive
    exactly as long as this object (the entry points hold references).
    """

    def __init__(self, program: Program, code: bytes, batch_offset: int,
                 data: "ctypes.Array"):
        self.name = program.name
        self.in_len = program.in_size * program.element_width
        self.out_len = program.out_size * program.element_width
        self.code_bytes = len(code)
        self.data_bytes = ctypes.sizeof(data)
        self._data = data
        size = max(len(code), 1)
        size += (-size) % mmap.PAGESIZE
        self._map = mmap.mmap(-1, size,
                              prot=mmap.PROT_READ | mmap.PROT_WRITE
                              | mmap.PROT_EXEC)
        self._map.write(code)
        base = ctypes.addressof(ctypes.c_char.from_buffer(self._map))
        void_p = ctypes.c_void_p
        self.fn = ctypes.CFUNCTYPE(None, void_p, void_p)(base)
        self.batch_fn = ctypes.CFUNCTYPE(
            None, void_p, void_p, ctypes.c_int)(base + batch_offset)
        # The CFUNCTYPE pointers do not keep the mapping or the data
        # block alive on their own; anchor everything on the entries
        # the runner will hold.
        self.fn._keepalive = self.batch_fn._keepalive = self


def compile_jit(program: Program) -> JitRoutine:
    """Lower an eligible codelet ``program`` to executable machine code.

    Raises :class:`JitError` when the program is not a codelet (use
    :func:`can_jit` to pre-check) or the host cannot execute emitted
    code (:func:`jit_supported`).
    """
    if not jit_supported():
        raise JitError("codelet JIT unsupported on this host")
    if not can_jit(program):
        raise JitError(
            f"{program.name} is not a straight-line codelet "
            f"(loops, strides or non-constant subscripts remain)"
        )
    data = _DataBlock()
    table_offsets = {
        name: data.add_array(values)
        for name, values in program.tables.items()
    }
    scalar_offsets = {
        name: data.add_zeros(1)
        for name in program.scalar_names()
    }
    temp_offsets = {
        info.name: data.add_zeros(info.size)
        for info in program.temp_vectors()
    }

    in_name = program.input_name()
    out_name = program.output_name()
    out_len = program.out_size * program.element_width

    def operand_location(item) -> tuple[int, int]:
        """(base register, byte displacement) for one operand."""
        if isinstance(item, FVar):
            return _RAX, scalar_offsets[item.name]
        if isinstance(item, FConst):
            value = item.value
            if isinstance(value, complex):  # pragma: no cover - typetrans
                raise JitError("complex constant reached the JIT")
            return _RAX, data.add_const(float(value))
        assert isinstance(item, VecRef)
        index = item.index.as_const()
        assert index is not None
        if item.vec == in_name:
            return _RSI, 8 * index
        if item.vec == out_name:
            return _RDI, 8 * index
        if item.vec in table_offsets:
            return _RAX, table_offsets[item.vec] + 8 * index
        if item.vec in temp_offsets:
            return _RAX, temp_offsets[item.vec] + 8 * index
        raise JitError(f"unknown vector {item.vec!r} in {program.name}")

    # Constants referenced by operands are appended to the data block
    # lazily by operand_location above, and every operand is encoded as
    # a block-relative disp32 with the base loaded at runtime — so the
    # body can be emitted first and the block materialized once, after
    # its final size is known.
    body = bytearray()
    for inst in program.body:
        if not isinstance(inst, Op):
            continue
        a_base, a_disp = operand_location(inst.a)
        body += _movsd_load(0, a_base, a_disp)
        if inst.op in _SSE_ARITH:
            b_base, b_disp = operand_location(inst.b)
            body += _movsd_load(1, b_base, b_disp)
            body += _sse_arith(inst.op, 0, 1)
        elif inst.op == "neg":
            body += _movsd_load(1, _RAX, data.sign_mask_offset)
            body += _xorpd_reg(0, 1)
        # "=" is just the load/store pair.
        d_base, d_disp = operand_location(inst.dest)
        body += _movsd_store(0, d_base, d_disp)

    block = data.materialize()
    base_addr = ctypes.addressof(block)

    # Codelet entry: materialize the data base, run the body, ret.
    codelet = bytearray()
    codelet += _movabs(_RAX, base_addr)
    codelet += body
    codelet += b"\xc3"  # ret

    # Batch entry (y=rdi, x=rsi, batch=edx):
    #   r8 = yrow, r9 = xrow, r10d = remaining count
    #   per row: zero the out row, inline-call the codelet body with
    #   rdi/rsi pointing at the row, advance.
    # The codelet body only clobbers rax/xmm0/xmm1, so r8-r11 survive
    # it; rdi/rsi are restored from r8/r9 each iteration.
    batch = bytearray()
    batch += _mov_reg(_R8, _RDI)          # r8 = y
    batch += _mov_reg(_R9, _RSI)          # r9 = x
    # mov r10d, edx (loop counter; 32-bit mov zero-extends)
    batch += bytes((0x41, 0x89, 0xD2))
    # The body reads but never writes rax, so the data base is loaded
    # once, outside the loop.
    batch += _movabs(_RAX, base_addr)
    # test r10d, r10d; jle end (rel32 patched below)
    batch += bytes((0x45, 0x85, 0xD2))
    jle_at = len(batch)
    batch += bytes((0x0F, 0x8E)) + b"\x00\x00\x00\x00"
    loop_top = len(batch)
    batch += _mov_reg(_RDI, _R8)          # rdi = yrow
    batch += _mov_reg(_RSI, _R9)          # rsi = xrow
    # Zero the output row (xorpd xmm0, xmm0 then unrolled stores).
    batch += bytes((0x66, 0x0F, 0x57, 0xC0))
    for j in range(out_len):
        batch += _movsd_store(0, _RDI, 8 * j)
    batch += body
    batch += _add_reg_imm32(_R8, 8 * out_len)
    batch += _add_reg_imm32(_R9, 8 * program.in_size
                            * program.element_width)
    # dec r10d; jg loop_top
    batch += bytes((0x41, 0xFF, 0xCA))
    batch += bytes((0x0F, 0x8F))
    batch += struct.pack("<i", loop_top - (len(batch) + 4))
    end = len(batch)
    batch[jle_at + 2:jle_at + 6] = struct.pack("<i", end - (jle_at + 6))
    batch += b"\xc3"  # ret

    code = bytes(codelet)
    batch_offset = len(code)
    code += bytes(batch)
    routine = JitRoutine(program, code, batch_offset, block)
    return routine
