"""Property-based tests for the IExpr polynomial algebra."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.icode import IExpr

VARS = ("i0", "i1", "i2")


@st.composite
def iexprs(draw, max_terms=4):
    expr = IExpr.const(draw(st.integers(-8, 8)))
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(st.integers(-8, 8))
        mono = IExpr.const(coeff)
        for _ in range(draw(st.integers(1, 2))):
            mono = mono * IExpr.var(draw(st.sampled_from(VARS)))
        expr = expr + mono
    return expr


@st.composite
def assignments(draw):
    return {name: draw(st.integers(0, 10)) for name in VARS}


def evaluate(expr: IExpr, env: dict) -> int:
    value = expr.subst(env).as_const()
    assert value is not None
    return value


class TestRingLaws:
    @given(iexprs(), iexprs(), assignments())
    def test_addition_commutes(self, a, b, env):
        assert evaluate(a + b, env) == evaluate(b + a, env)
        assert (a + b) == (b + a)

    @given(iexprs(), iexprs(), iexprs(), assignments())
    def test_addition_associates(self, a, b, c, env):
        assert ((a + b) + c) == (a + (b + c))

    @given(iexprs(), iexprs(), assignments())
    def test_multiplication_commutes(self, a, b, env):
        assert (a * b) == (b * a)

    @given(iexprs(), iexprs(), iexprs())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(iexprs())
    def test_additive_inverse(self, a):
        assert (a - a).terms == ()

    @given(iexprs())
    def test_neutral_elements(self, a):
        assert a + IExpr.const(0) == a
        assert a * IExpr.const(1) == a
        assert (a * IExpr.const(0)).terms == ()


class TestEvaluationHomomorphism:
    @given(iexprs(), iexprs(), assignments())
    def test_add(self, a, b, env):
        assert evaluate(a + b, env) == evaluate(a, env) + evaluate(b, env)

    @given(iexprs(), iexprs(), assignments())
    def test_mul(self, a, b, env):
        assert evaluate(a * b, env) == evaluate(a, env) * evaluate(b, env)

    @given(iexprs(), assignments())
    def test_neg(self, a, env):
        assert evaluate(-a, env) == -evaluate(a, env)


class TestInterval:
    @given(iexprs(), assignments())
    def test_interval_contains_every_value(self, expr, env):
        ranges = {name: (0, 10) for name in VARS}
        lo, hi = expr.interval(ranges)
        value = evaluate(expr, env)
        assert lo <= value <= hi

    @given(iexprs())
    def test_interval_of_constant_is_tight(self, expr):
        const = expr.as_const()
        if const is not None:
            assert expr.interval({}) == (const, const)


class TestSubstitution:
    @given(iexprs(), assignments())
    def test_full_substitution_is_constant(self, expr, env):
        assert expr.subst(env).as_const() is not None

    @given(iexprs(), st.integers(0, 10), assignments())
    def test_substitution_composes(self, expr, value, env):
        # Substituting i0 then the rest equals substituting all at once.
        step1 = expr.subst({"i0": value})
        env_all = dict(env)
        env_all["i0"] = value
        assert step1.subst(env_all).as_const() == \
            expr.subst(env_all).as_const()

    @given(iexprs(), st.sampled_from(VARS + ("i9",)))
    def test_split_var_round_trip(self, expr, name):
        split = expr.split_var(name)
        in_product = any(name in mono and len(mono) > 1
                         for mono, _ in expr.terms)
        assert (split is None) == in_product
        if split is not None:
            step, rest = split
            assert isinstance(step, int)
            assert name not in rest.free_vars()
            assert IExpr.var(name) * step + rest == expr
