"""Default compiler optimizations (Section 3.4).

"The SPL compiler applies constant folding, copy propagation, common
subexpression elimination, and dead code elimination.  These default
optimizations are applied in a single pass using a value numbering
algorithm.  Both scalar variables and array elements are handled."

The value-numbering pass is forward, per straight-line region; loop
bodies are processed with a state purged of anything the loop itself
may overwrite, which keeps the pass sound for the looped code generated
for large transforms while remaining maximally effective on the fully
unrolled straight-line code where the paper applies it (Figure 2).

Dead code elimination is a backward liveness pass; inside loops a
location read anywhere in the body is treated as live across
iterations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.icode import (
    FConst,
    FVar,
    IExpr,
    Instr,
    Loop,
    Op,
    Operand,
    Program,
    VEC_OUTPUT,
    VecRef,
    count_dynamic_statements,
    count_statements,
    iter_ops,
)
from repro.core.scalars import Number

# Location keys: ("s", name) for scalars, ("v", vec, index IExpr) for
# array elements.
LocKey = tuple


def optimize(program: Program) -> Program:
    """Run value numbering, forward substitution and DCE, in place."""
    vn = _ValueNumbering(program)
    program.body = vn.run(program.body, _State())
    program.body = _eliminate_dead_code(program)
    program.body = _forward_substitute(program.body)
    program.body = _eliminate_dead_code(program)
    return program


def _loc_key(loc: FVar | VecRef) -> LocKey:
    if isinstance(loc, FVar):
        return ("s", loc.name)
    return ("v", loc.vec, loc.index)


@dataclass
class _State:
    """Value-numbering state for one straight-line region."""

    loc2vn: dict[LocKey, int] = field(default_factory=dict)
    vn2const: dict[int, Number] = field(default_factory=dict)
    expr2vn: dict[tuple, int] = field(default_factory=dict)
    vn2holders: dict[int, list[LocKey]] = field(default_factory=dict)
    # Index for may-alias kills: vec name -> the non-constant terms of
    # a subscript -> the tracked element keys with those terms.  Keys
    # in one bucket differ by a non-zero constant and never alias; keys
    # in different buckets differ by a non-constant and may.
    vec_keys: dict[str, dict[tuple, set[LocKey]]] = field(
        default_factory=dict)

    def track(self, key: LocKey) -> None:
        if key[0] == "v":
            self.vec_keys.setdefault(key[1], {}).setdefault(
                key[2].split_const()[0], set()).add(key)

    def untrack(self, key: LocKey) -> None:
        if key[0] == "v":
            self.vec_keys[key[1]][key[2].split_const()[0]].discard(key)

    def purge(self, killed_scalars: set[str], killed_vecs: set[str]) -> "_State":
        """A copy with everything the given names may touch removed."""

        def survives(key: LocKey) -> bool:
            if key[0] == "s":
                return key[1] not in killed_scalars
            return key[1] not in killed_vecs

        loc2vn = {k: v for k, v in self.loc2vn.items() if survives(k)}
        vn2holders = {
            vn: [h for h in holders if survives(h) and loc2vn.get(h) == vn]
            for vn, holders in self.vn2holders.items()
        }
        surviving_vns = set(loc2vn.values()) | set(self.vn2const)
        expr2vn = {
            expr: vn
            for expr, vn in self.expr2vn.items()
            if vn in surviving_vns
            and all(operand in surviving_vns
                    for operand in expr[1:] if isinstance(operand, int))
        }
        purged = _State(loc2vn, dict(self.vn2const), expr2vn, vn2holders)
        for key in loc2vn:
            purged.track(key)
        return purged


class _ValueNumbering:
    _COMMUTATIVE = ("+", "*")

    def __init__(self, program: Program):
        self.program = program
        self._counter = itertools.count()
        self._const_vns: dict[Number, int] = {}

    # -- vn helpers ----------------------------------------------------------

    def _fresh_vn(self) -> int:
        return next(self._counter)

    def _const_vn(self, state: _State, value: Number) -> int:
        vn = self._const_vns.get(value)
        if vn is None:
            vn = self._fresh_vn()
            self._const_vns[value] = vn
        state.vn2const.setdefault(vn, value)
        return vn

    def _operand_vn(self, state: _State, operand: Operand) -> int:
        if isinstance(operand, FConst):
            return self._const_vn(state, operand.value)
        key = _loc_key(operand)
        vn = state.loc2vn.get(key)
        if vn is None:
            vn = self._fresh_vn()
            state.loc2vn[key] = vn
            state.vn2holders.setdefault(vn, []).append(key)
            state.track(key)
        return vn

    def _best_operand(self, state: _State, operand: Operand, vn: int) -> Operand:
        """Rewrite an operand to the best location holding the same value.

        Preference: a known constant, then the oldest still-valid holder
        (which propagates copies back to their original source), then
        the operand itself.
        """
        if vn in state.vn2const:
            return FConst(state.vn2const[vn])
        for holder in state.vn2holders.get(vn, ()):
            if state.loc2vn.get(holder) == vn:
                if holder[0] == "s":
                    return FVar(holder[1])
                return VecRef(holder[1], holder[2])
        return operand

    # -- writes --------------------------------------------------------------

    def _kill_dest(self, state: _State, dest_key: LocKey) -> None:
        self._forget(state, dest_key)
        if dest_key[0] == "v":
            # Every tracked element of the vector whose subscript is
            # not "this one plus a constant" may be the written cell.
            shape = dest_key[2].split_const()[0]
            for other, keys in state.vec_keys.get(dest_key[1], {}).items():
                if other != shape:
                    for key in list(keys):
                        self._forget(state, key)

    def _forget(self, state: _State, key: LocKey) -> None:
        vn = state.loc2vn.pop(key, None)
        if vn is not None:
            state.untrack(key)
            holders = state.vn2holders.get(vn)
            if holders and key in holders:
                holders.remove(key)

    def _record_dest(self, state: _State, dest_key: LocKey, vn: int) -> None:
        state.loc2vn[dest_key] = vn
        state.vn2holders.setdefault(vn, []).append(dest_key)
        state.track(dest_key)

    # -- the pass --------------------------------------------------------------

    def run(self, body: list[Instr], state: _State) -> list[Instr]:
        result: list[Instr] = []
        for inst in body:
            if isinstance(inst, Loop):
                killed_scalars, killed_vecs = _written_names(inst.body)
                inner_state = state.purge(killed_scalars, killed_vecs)
                new_body = self.run(inst.body, inner_state)
                result.append(Loop(inst.var, inst.count, new_body,
                                   unroll=inst.unroll))
                purged = state.purge(killed_scalars, killed_vecs)
                state.loc2vn = purged.loc2vn
                state.vn2const = purged.vn2const
                state.expr2vn = purged.expr2vn
                state.vn2holders = purged.vn2holders
                state.vec_keys = purged.vec_keys
            elif isinstance(inst, Op):
                rewritten = self._visit_op(state, inst)
                if rewritten is not None:
                    result.append(rewritten)
            else:
                result.append(inst)
        return result

    def _visit_op(self, state: _State, op: Op) -> Op | None:
        a_vn = self._operand_vn(state, op.a)
        a = self._best_operand(state, op.a, a_vn)
        b = b_vn = None
        if op.b is not None:
            b_vn = self._operand_vn(state, op.b)
            b = self._best_operand(state, op.b, b_vn)
        opcode, a, a_vn, b, b_vn = self._simplify(state, op.op, a, a_vn,
                                                  b, b_vn)
        dest_key = _loc_key(op.dest)

        if opcode == "=":
            # Copy propagation: dest joins the source's class.
            if state.loc2vn.get(dest_key) == a_vn:
                return None  # self-copy: dest already holds the value
            self._kill_dest(state, dest_key)
            self._record_dest(state, dest_key, a_vn)
            return Op("=", op.dest, a)

        expr_key = self._expr_key(opcode, a_vn, b_vn)
        existing = state.expr2vn.get(expr_key)
        if existing is not None:
            holder_operand = self._holder_operand(state, existing)
            if holder_operand is not None:
                if state.loc2vn.get(dest_key) == existing:
                    return None
                self._kill_dest(state, dest_key)
                self._record_dest(state, dest_key, existing)
                return Op("=", op.dest, holder_operand)
        vn = self._fresh_vn()
        state.expr2vn[expr_key] = vn
        self._kill_dest(state, dest_key)
        self._record_dest(state, dest_key, vn)
        return Op(opcode, op.dest, a, b)

    def _holder_operand(self, state: _State, vn: int) -> Operand | None:
        if vn in state.vn2const:
            return FConst(state.vn2const[vn])
        for holder in state.vn2holders.get(vn, ()):
            if state.loc2vn.get(holder) == vn:
                if holder[0] == "s":
                    return FVar(holder[1])
                return VecRef(holder[1], holder[2])
        return None

    def _expr_key(self, opcode: str, a_vn: int, b_vn: int | None) -> tuple:
        if b_vn is not None and opcode in self._COMMUTATIVE:
            lo, hi = sorted((a_vn, b_vn))
            return (opcode, lo, hi)
        return (opcode, a_vn, b_vn)

    def _simplify(self, state: _State, opcode: str, a: Operand, a_vn: int,
                  b: Operand | None, b_vn: int | None):
        """Constant folding and algebraic identities.

        Returns a possibly new ``(opcode, a, a_vn, b, b_vn)``; an
        opcode of "=" means the operation reduced to a copy.
        """
        a_const = state.vn2const.get(a_vn) if a_vn in state.vn2const else None
        b_const = state.vn2const.get(b_vn) if b_vn in state.vn2const else None

        def const(value: Number):
            vn = self._const_vn(state, value)
            return "=", FConst(value), vn, None, None

        if opcode == "neg":
            if a_const is not None:
                return const(-a_const)
            return opcode, a, a_vn, None, None
        if opcode == "=":
            return opcode, a, a_vn, None, None

        if a_const is not None and b_const is not None:
            if opcode == "+":
                return const(a_const + b_const)
            if opcode == "-":
                return const(a_const - b_const)
            if opcode == "*":
                return const(a_const * b_const)
            if opcode == "/":
                return const(a_const / b_const)

        if opcode == "+":
            if a_const == 0:
                return "=", b, b_vn, None, None
            if b_const == 0:
                return "=", a, a_vn, None, None
        elif opcode == "-":
            if b_const == 0:
                return "=", a, a_vn, None, None
            if a_const == 0:
                return "neg", b, b_vn, None, None
            if a_vn == b_vn:
                return const(0.0)
        elif opcode == "*":
            if a_const == 1:
                return "=", b, b_vn, None, None
            if b_const == 1:
                return "=", a, a_vn, None, None
            if a_const == 0 or b_const == 0:
                return const(0.0)
            if a_const == -1:
                return "neg", b, b_vn, None, None
            if b_const == -1:
                return "neg", a, a_vn, None, None
        elif opcode == "/":
            if b_const == 1:
                return "=", a, a_vn, None, None
        return opcode, a, a_vn, b, b_vn


def _written_names(body: list[Instr]) -> tuple[set[str], set[str]]:
    scalars: set[str] = set()
    vecs: set[str] = set()
    for op in iter_ops(body):
        if isinstance(op.dest, FVar):
            scalars.add(op.dest.name)
        else:
            vecs.add(op.dest.vec)
    return scalars, vecs


# ---------------------------------------------------------------------------
# Forward substitution.
# ---------------------------------------------------------------------------


def _forward_substitute(body: list[Instr]) -> list[Instr]:
    """Fold single-use scalar definitions into the copy that reads them.

    Turns the common template pattern ``f0 = a + b; y(k) = f0`` into
    ``y(k) = a + b`` (when ``f0`` is used exactly once, in the same
    block, with no intervening write to ``a``, ``b`` or ``f0``), which
    is the shape the paper's listings show.  The trailing DCE pass then
    removes the dead definition.
    """
    uses: dict[str, int] = {}
    for op in iter_ops(body):
        for operand in op.operands():
            if isinstance(operand, FVar):
                uses[operand.name] = uses.get(operand.name, 0) + 1
    return _fs_block(body, uses)


def _fs_block(body: list[Instr], uses: dict[str, int]) -> list[Instr]:
    result: list[Instr] = []
    # scalar name -> (index in result, defining Op)
    defs: dict[str, tuple[int, Op]] = {}
    # Dependency indexes so invalidation is O(affected), not O(defs):
    # scalar name -> def names reading it; vec name -> def name -> indices.
    dep_scalars: dict[str, set[str]] = {}
    dep_vecs: dict[str, dict[str, list]] = {}

    def drop(name: str) -> None:
        defs.pop(name, None)

    def register(name: str, index: int, op: Op) -> None:
        defs[name] = (index, op)
        dep_scalars.setdefault(name, set()).add(name)
        for operand in op.operands():
            if isinstance(operand, FVar):
                dep_scalars.setdefault(operand.name, set()).add(name)
            elif isinstance(operand, VecRef):
                dep_vecs.setdefault(operand.vec, {}).setdefault(
                    name, []).append(operand.index)

    def invalidate(written: FVar | VecRef) -> None:
        if isinstance(written, FVar):
            for name in dep_scalars.get(written.name, ()):
                drop(name)
            drop(written.name)
            return
        for name, indices in dep_vecs.get(written.vec, {}).items():
            if name not in defs:
                continue
            for index in indices:
                if not index.const_difference(written.index):
                    drop(name)  # may be the same cell: None or 0
                    break

    for inst in body:
        if isinstance(inst, Loop):
            result.append(Loop(inst.var, inst.count,
                               _fs_block(inst.body, uses),
                               unroll=inst.unroll))
            written_scalars, written_vecs = _written_names(inst.body)
            for scalar in written_scalars:
                for name in dep_scalars.get(scalar, ()):
                    drop(name)
                drop(scalar)
            for vec in written_vecs:
                for name in dep_vecs.get(vec, {}):
                    drop(name)
            continue
        if not isinstance(inst, Op):
            result.append(inst)
            continue
        if (
            inst.op == "="
            and isinstance(inst.a, FVar)
            and uses.get(inst.a.name, 0) == 1
            and inst.a.name in defs
        ):
            _, def_op = defs.pop(inst.a.name)
            # Rebuild the expression at the *copy's* position (operand
            # validity between def and use is guaranteed by invalidate);
            # the now-dead definition is removed by the trailing DCE.
            merged = Op(def_op.op, inst.dest, def_op.a, def_op.b)
            invalidate(inst.dest)
            result.append(merged)
            if isinstance(inst.dest, FVar):
                register(inst.dest.name, len(result) - 1, merged)
            continue
        invalidate(inst.dest)
        result.append(inst)
        if isinstance(inst.dest, FVar) and inst.op != "=":
            register(inst.dest.name, len(result) - 1, inst)
    return result


# ---------------------------------------------------------------------------
# Dead code elimination.
# ---------------------------------------------------------------------------


class _Liveness:
    """Tracks live locations during the backward DCE walk.

    Output-vector elements are live-by-default (they are the result),
    so for them we track the *dead* set — constant indices whose
    current value is provably overwritten before anyone reads it.
    Temporary-vector elements are dead-by-default, so for them we track
    the live set (None meaning "all live", after a symbolic read).
    """

    def __init__(self, output_vecs: set[str]):
        self.output_vecs = output_vecs
        self.scalars: set[str] = set()
        # temp vec -> set of live constant indices; None means "all".
        self.vec_elems: dict[str, set[int] | None] = {}
        # output vec -> set of dead constant indices.
        self.dead_out: dict[str, set[int]] = {}

    def copy(self) -> "_Liveness":
        clone = _Liveness(self.output_vecs)
        clone.scalars = set(self.scalars)
        clone.vec_elems = {
            vec: None if elems is None else set(elems)
            for vec, elems in self.vec_elems.items()
        }
        clone.dead_out = {vec: set(dead)
                          for vec, dead in self.dead_out.items()}
        return clone

    def merge(self, other: "_Liveness") -> None:
        """Union of liveness (= intersection of output dead sets)."""
        self.scalars |= other.scalars
        for vec, elems in other.vec_elems.items():
            if elems is None or self.vec_elems.get(vec, set()) is None:
                self.vec_elems[vec] = None
            else:
                self.vec_elems.setdefault(vec, set()).update(elems)
        for vec in list(self.dead_out):
            self.dead_out[vec] &= other.dead_out.get(vec, set())

    def is_live(self, loc: FVar | VecRef) -> bool:
        if isinstance(loc, FVar):
            return loc.name in self.scalars
        if loc.vec in self.output_vecs:
            index = loc.index.as_const()
            if index is None:
                return True
            return index not in self.dead_out.get(loc.vec, set())
        elems = self.vec_elems.get(loc.vec)
        if elems is None:
            return loc.vec in self.vec_elems
        index = loc.index.as_const()
        return index is None or index in elems

    def kill(self, loc: FVar | VecRef) -> None:
        if isinstance(loc, FVar):
            self.scalars.discard(loc.name)
            return
        index = loc.index.as_const()
        if loc.vec in self.output_vecs:
            if index is not None:
                self.dead_out.setdefault(loc.vec, set()).add(index)
            return
        elems = self.vec_elems.get(loc.vec)
        if index is not None and elems is not None:
            elems.discard(index)

    def use(self, operand: Operand) -> None:
        if isinstance(operand, FVar):
            self.scalars.add(operand.name)
            return
        if not isinstance(operand, VecRef):
            return
        index = operand.index.as_const()
        if operand.vec in self.output_vecs:
            dead = self.dead_out.get(operand.vec)
            if dead:
                if index is None:
                    dead.clear()
                else:
                    dead.discard(index)
            return
        elems = self.vec_elems.get(operand.vec, set())
        if index is None or elems is None:
            self.vec_elems[operand.vec] = None
        else:
            elems.add(index)
            self.vec_elems[operand.vec] = elems


def _eliminate_dead_code(program: Program) -> list[Instr]:
    output_vecs = {
        info.name for info in program.vectors.values()
        if info.kind == VEC_OUTPUT
    }
    live = _Liveness(output_vecs)
    body, _ = _dce_block(program.body, live)
    return body


def _dce_block(body: list[Instr],
               live: _Liveness) -> tuple[list[Instr], _Liveness]:
    kept_reversed: list[Instr] = []
    for inst in reversed(body):
        if isinstance(inst, Op):
            if not live.is_live(inst.dest):
                continue
            live.kill(inst.dest)
            for operand in inst.operands():
                live.use(operand)
            kept_reversed.append(inst)
        elif isinstance(inst, Loop):
            # Anything read inside the loop may be live across
            # iterations, so seed the body's live-in with its own reads.
            loop_live = live.copy()
            for op in iter_ops(inst.body):
                for operand in op.operands():
                    loop_live.use(operand)
            new_body, after = _dce_block(inst.body, loop_live)
            live.merge(after)
            if new_body:
                kept_reversed.append(
                    Loop(inst.var, inst.count, new_body, unroll=inst.unroll)
                )
        else:
            kept_reversed.append(inst)
    return list(reversed(kept_reversed)), live


# ---------------------------------------------------------------------------
# The pass pipeline: named passes with size/time records and an
# optional per-pass translation-validation oracle.
# ---------------------------------------------------------------------------


@dataclass
class PassRecord:
    """What one optimizer pass did to the program.

    Sizes are static i-code statement counts; ``scratch_in``/``out``
    are temp-array bytes; ``micros`` is the pass's own wall-clock cost
    (validation time excluded, so records stay comparable whether or
    not the oracle is on); ``validated`` says the translation-
    validation oracle checked this pass's output.
    """

    name: str
    icode_in: int
    icode_out: int
    temps_in: int
    temps_out: int
    scratch_in: int
    scratch_out: int
    micros: int
    validated: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "icode_in": self.icode_in,
            "icode_out": self.icode_out,
            "temps_in": self.temps_in,
            "temps_out": self.temps_out,
            "scratch_in": self.scratch_in,
            "scratch_out": self.scratch_out,
            "micros": self.micros,
            "validated": self.validated,
            "detail": self.detail,
        }

    def describe(self) -> str:
        text = (
            f"{self.name:<14} icode {self.icode_in:>7} -> "
            f"{self.icode_out:>7}  temps {self.temps_in:>3} -> "
            f"{self.temps_out:>3}  scratch {self.scratch_in:>9} -> "
            f"{self.scratch_out:>9} B  {self.micros:>7} us"
        )
        if self.validated:
            text += "  [validated]"
        if self.detail:
            text += f"  ({self.detail})"
        return text


#: Per-pass validation is skipped when ``in_size * statements``
#: exceeds this: above it one signature derivation takes minutes, and
#: resource bombs must be rejected by the limits checks promptly, not
#: after an interpreter marathon.
VALIDATE_COST_CAP = 2_000_000


class PassPipeline:
    """Runs named passes over one program, recording each one.

    With ``validate=True`` the pipeline snapshots the dense matrix the
    program denotes (via :func:`repro.core.validate.program_signature`)
    before the first pass and re-derives it after every pass, raising
    :class:`~repro.core.errors.SplValidationError` the moment a pass
    changes the denotation — compilation aborts with a typed error
    instead of emitting miscompiled code.

    Deriving one signature costs roughly ``in_size`` interpreter runs
    over the whole program, so validation is capped: programs whose
    ``in_size * statements`` product exceeds
    :data:`VALIDATE_COST_CAP` skip it (their records show
    ``validated=False``) rather than stalling compilation for minutes
    — which would also keep resource-limit bombs from being rejected
    promptly.  The fuzz corpus and the test programs sit far below
    the cap.
    """

    def __init__(self, program: Program, *, validate: bool = False):
        self.program = program
        cost = program.in_size \
            * max(1, count_dynamic_statements(program.body))
        self.validate = validate and cost <= VALIDATE_COST_CAP
        self.records: list[PassRecord] = []
        # Statement / temp-array / scratch-byte counts after the last
        # pass: the next pass's "in" columns, counted once.
        self._sizes = self._measure()
        self._signature = None
        if self.validate:
            from repro.core import validate as _validate

            self._signature = _validate.program_signature(program)

    def _measure(self) -> tuple[int, int, int]:
        program = self.program
        return (count_statements(program.body), len(program.temp_vectors()),
                program.scratch_bytes())

    def run(self, name: str, pass_fn, *, detail=None) -> None:
        """Execute ``pass_fn(program)``, recording sizes and timing.

        ``detail`` renders the pass's return value into the record's
        detail string; by default non-trivial returns (ints, stats
        objects) are stringified.
        """
        import time as _time

        program = self.program
        icode_in, temps_in, scratch_in = self._sizes
        started = _time.perf_counter()
        result = pass_fn(program)
        micros = int((_time.perf_counter() - started) * 1e6)
        validated = False
        if self.validate:
            from repro.core import validate as _validate

            self._signature = _validate.check_pass(
                program, self._signature, name
            )
            validated = True
        text = ""
        if detail is not None:
            text = detail(result)
        elif isinstance(result, (int, str)) and not isinstance(result, bool):
            if result != 0 and result != "":
                text = str(result)
        icode_out, temps_out, scratch_out = self._sizes = self._measure()
        self.records.append(PassRecord(
            name=name,
            icode_in=icode_in,
            icode_out=icode_out,
            temps_in=temps_in,
            temps_out=temps_out,
            scratch_in=scratch_in,
            scratch_out=scratch_out,
            micros=micros,
            validated=validated,
            detail=text,
        ))
