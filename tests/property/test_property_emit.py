"""Property tests for the induction plan the printers share.

``plan_inductions`` returns data, not text, so what it promises can be
checked by arithmetic: every planned subscript is exactly
``rest + step * i + delta`` at every trip of the loop, for any values
of the enclosing loops' variables.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.emit import fresh_names, plan_inductions
from repro.core.icode import (
    FVar,
    IExpr,
    Loop,
    Op,
    Program,
    VecInfo,
    VecRef,
)

fast = settings(max_examples=100, deadline=None)

I, J, K = (IExpr.var(name) for name in ("i", "j", "k"))


@st.composite
def subscripts(draw):
    """Affine in ``i`` (step possibly zero), or ``i`` inside a product."""
    small = st.integers(-4, 4)
    expr = J * draw(small) + K * draw(small) + draw(st.integers(0, 64))
    if draw(st.booleans()):
        expr = expr + J * K * draw(small)   # still invariant in i
    shape = draw(st.sampled_from(("affine", "affine", "invariant", "i*j",
                                  "i*i")))
    if shape == "affine":
        expr = expr + I * draw(small)
    elif shape == "i*j":
        expr = expr + I * J * draw(st.sampled_from((-2, 1, 3)))
    elif shape == "i*i":
        expr = expr + I * I + I
    return expr


@st.composite
def innermost_loops(draw, min_count=4):
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        dest = VecRef("y", draw(subscripts()))
        a = draw(st.one_of(st.builds(VecRef, st.just("x"), subscripts()),
                           st.just(FVar("f0"))))
        ops.append(Op("+", dest, a, VecRef("x", draw(subscripts()))))
    return Loop("i", draw(st.integers(min_count, 9)), ops)


def all_subscripts(loop):
    return {item.index for op in loop.body
            for item in (op.dest, *op.operands())
            if isinstance(item, VecRef)}


class TestPlanInductions:
    @fast
    @given(innermost_loops(), st.integers(0, 5), st.integers(0, 5))
    def test_planned_subscripts_are_rest_plus_step_times_i(self, loop, j, k):
        outer = {"j": j, "k": k}
        for step, rest, deltas in plan_inductions(loop):
            assert step != 0 and "i" not in rest.free_vars()
            for subscript, delta in deltas.items():
                for i in range(loop.count):
                    assert rest.at(outer) + step * i + delta == \
                        subscript.at({**outer, "i": i})

    @fast
    @given(innermost_loops())
    def test_exactly_the_moving_affine_subscripts_are_planned(self, loop):
        plan = plan_inductions(loop)
        planned = [s for _, _, deltas in plan for s in deltas]
        assert len(planned) == len(set(planned))   # one group each
        for subscript in all_subscripts(loop):
            split = subscript.split_var("i")
            moves = split is not None and split[0] != 0
            assert (subscript in planned) == moves
        # Groups are as few as they can be: no two could have merged.
        for n, (step, rest, _) in enumerate(plan):
            for other_step, other_rest, _ in plan[:n]:
                assert step != other_step or \
                    rest.const_difference(other_rest) is None

    @fast
    @given(innermost_loops(min_count=1))
    def test_short_and_outer_loops_get_no_plan(self, loop):
        if loop.count < 4:
            assert plan_inductions(loop) == []
        assert plan_inductions(Loop("j", 8, [loop])) == []
        wrapped = Loop("i", 8, [*loop.body, Loop("j", 8, list(loop.body))])
        assert plan_inductions(wrapped) == []


# Few enough names that k0.._k9 are hit often.
names = st.from_regex(r"_?[fikt][0-9]?", fullmatch=True)


class TestFreshNames:
    @fast
    @given(st.sets(names, max_size=6), st.sets(names, max_size=6),
           st.sets(names, max_size=6), st.sets(names, max_size=6),
           st.sampled_from(("k", "_k")))
    def test_fresh_names_dodge_every_name_in_the_program(
            self, scalars, counters, vectors, tables, prefix):
        body = [Op("=", FVar(name), FVar(name)) for name in sorted(scalars)]
        for name in sorted(counters):
            body = [Loop(name, 4, body)]
        program = Program(
            name="p", in_size=1, out_size=1, datatype="real", body=body,
            vectors={name: VecInfo(name, 1, "temp") for name in vectors},
            tables={name: (1.0,) for name in tables},
        )
        fresh = fresh_names(program, prefix)
        drawn = [next(fresh) for _ in range(8)]
        assert len(set(drawn)) == 8
        assert all(name.startswith(prefix) for name in drawn)
        assert not set(drawn) & (scalars | counters | vectors | tables)
