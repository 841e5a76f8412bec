"""The integer and affine fast paths of ``IExpr`` against the general
polynomial routines.

``IExpr`` answers the cases the optimizer lives on (a constant operand,
the value at an integer point, the difference of two subscripts)
without building an intermediate polynomial.  The oracle here is the
general algorithm those shortcuts replaced — merge two monomial
dictionaries, multiply term by term, substitute one variable at a time
— written out on raw term tuples, so a shortcut that drops a term,
forgets to re-sort or misses a cancellation disagrees with it.
"""

import pickle

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.icode import IExpr

# Thirteen properties over small polynomials: 50 examples each find the
# planted bugs this suite was checked against and keep tier-1 short.
fast = settings(max_examples=50, deadline=None)

LOOP_VARS = ("i0", "i1", "i2")
STRIDES = ("istride", "ostride")  # never bound by a loop: stay symbolic
NAMES = LOOP_VARS + STRIDES


# -- the oracle: general polynomial arithmetic on canonical term tuples -----


def canonical(terms: dict) -> tuple:
    return tuple(sorted((m, c) for m, c in terms.items() if c))


def ref_add(a: tuple, b: tuple) -> tuple:
    combined = dict(a)
    for mono, coeff in b:
        combined[mono] = combined.get(mono, 0) + coeff
    return canonical(combined)


def ref_neg(a: tuple) -> tuple:
    return tuple((mono, -coeff) for mono, coeff in a)


def ref_mul(a: tuple, b: tuple) -> tuple:
    product: dict = {}
    for mono_a, coeff_a in a:
        for mono_b, coeff_b in b:
            mono = tuple(sorted(mono_a + mono_b))
            product[mono] = product.get(mono, 0) + coeff_a * coeff_b
    return canonical(product)


def ref_const(value: int) -> tuple:
    return canonical({(): value})


def ref_subst(a: tuple, bindings: dict) -> tuple:
    """``bindings`` maps names to term tuples; other names stay."""
    result: tuple = ()
    for mono, coeff in a:
        term = ref_const(coeff)
        for name in mono:
            term = ref_mul(term, bindings.get(name, (((name,), 1),)))
        result = ref_add(result, term)
    return result


def as_terms(value) -> tuple:
    return value.terms if isinstance(value, IExpr) else ref_const(value)


# -- strategies ---------------------------------------------------------------

coefficients = st.integers(-8, 8)


@st.composite
def constants(draw):
    return IExpr.const(draw(coefficients))


@st.composite
def affine(draw):
    """``c0 + sum(c_k * v_k)``, strides allowed as variables."""
    terms = {(): draw(coefficients)}
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=3)):
        terms[(name,)] = draw(coefficients)
    return IExpr(canonical(terms))


@st.composite
def polynomials(draw):
    """Up to degree 3, e.g. the ``istride*i0`` of a strided codelet and
    the ``i0*i1`` a twiddle argument has: the forms that must fall back
    to the general path."""
    terms = {(): draw(coefficients)}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple(sorted(draw(st.lists(st.sampled_from(NAMES),
                                          min_size=1, max_size=3))))
        terms[mono] = terms.get(mono, 0) + draw(coefficients)
    return IExpr(canonical(terms))


iexprs = st.one_of(constants(), affine(), polynomials())
operands = st.one_of(iexprs, coefficients)  # IExpr or plain int

#: Partial integer points: any subset of the names, zeros included (a
#: zero kills a term whose other factors are unbound).
points = st.dictionaries(st.sampled_from(NAMES), st.integers(-3, 10))


def assert_canonical(expr: IExpr) -> None:
    assert list(expr.terms) == sorted(expr.terms)
    assert all(coeff for _, coeff in expr.terms)
    assert all(list(mono) == sorted(mono) for mono, _ in expr.terms)


class TestArithmeticAgreesWithTheGeneralRoutines:
    @fast
    @given(iexprs, operands)
    def test_add(self, a, b):
        assert_canonical(a + b)
        assert (a + b).terms == ref_add(a.terms, as_terms(b))
        assert (b + a).terms == ref_add(a.terms, as_terms(b))

    @fast
    @given(iexprs, operands)
    def test_sub(self, a, b):
        assert_canonical(a - b)
        assert (a - b).terms == ref_add(a.terms, ref_neg(as_terms(b)))
        assert (b - a).terms == ref_add(as_terms(b), ref_neg(a.terms))

    @fast
    @given(iexprs, operands)
    def test_mul(self, a, b):
        assert_canonical(a * b)
        assert (a * b).terms == ref_mul(a.terms, as_terms(b))
        assert (b * a).terms == ref_mul(a.terms, as_terms(b))

    @fast
    @given(iexprs)
    def test_constant_queries(self, a):
        shape, const = a.split_const()
        assert ref_add(shape, ref_const(const)) == a.terms
        assert all(mono != () for mono, _ in shape)
        assert a.as_const() == (const if shape == () else None)


class TestEvaluationAgreesWithSubstitution:
    @fast
    @given(iexprs, points)
    @example(IExpr.var("istride") * IExpr.var("i0"), {"i0": 0})
    @example(IExpr.var("istride") * (IExpr.var("i0") - IExpr.var("i1")) + 5,
             {"i0": 1, "i1": 1})  # residual terms cancel to a constant
    def test_at_is_subst_in_plain_form(self, a, point):
        expected = ref_subst(a.terms, {k: ref_const(v)
                                       for k, v in point.items()})
        value = a.at(point)
        if isinstance(value, IExpr):
            # Something unbound survived: never a disguised constant.
            assert value.as_const() is None
            assert_canonical(value)
            assert value.terms == expected
        else:
            assert ref_const(value) == expected

    @fast
    @given(iexprs, points)
    def test_subst_with_integers(self, a, point):
        expected = ref_subst(a.terms, {k: ref_const(v)
                                       for k, v in point.items()})
        assert a.subst(point).terms == expected

    @fast
    @given(iexprs, st.dictionaries(st.sampled_from(NAMES), operands))
    def test_subst_with_expressions(self, a, bindings):
        expected = ref_subst(a.terms, {k: as_terms(v)
                                       for k, v in bindings.items()})
        assert_canonical(a.subst(bindings))
        assert a.subst(bindings).terms == expected

    @fast
    @given(iexprs, points)
    def test_full_points_give_integers(self, a, point):
        full = {name: point.get(name, 0) for name in NAMES}
        value = a.at(full)
        assert isinstance(value, int)
        total = 0
        for mono, coeff in a.terms:
            for name in mono:
                coeff *= full[name]
            total += coeff
        assert value == total


class TestAliasDifference:
    @fast
    @given(iexprs, iexprs)
    def test_const_difference_is_the_constant_of_the_difference(self, a, b):
        difference = ref_add(a.terms, ref_neg(b.terms))
        expected = IExpr(difference).as_const()
        assert a.const_difference(b) == expected
        assert (a - b).as_const() == expected

    @fast
    @given(iexprs, coefficients)
    def test_shifted_subscripts_differ_by_the_shift(self, a, shift):
        assert (a + shift).const_difference(a) == shift
        assert a.const_difference(a + shift) == -shift

    @fast
    @given(iexprs, st.sampled_from(NAMES), st.integers(1, 8))
    def test_a_symbolic_offset_is_never_a_constant(self, a, name, coeff):
        assert (a + IExpr.var(name) * coeff).const_difference(a) is None


class TestHashIsStable:
    @fast
    @given(iexprs, iexprs)
    def test_equal_polynomials_hash_alike(self, a, b):
        left, right = (a + b) - b, a
        assert left == right
        assert hash(left) == hash(right)
        assert hash(left) == hash(left)  # second read hits the cache

    @fast
    @given(iexprs)
    def test_pickle_round_trip_drops_the_cached_hash(self, a):
        # String hashes differ between processes, so a worker must
        # recompute: the cache is not part of the pickled state.
        hash(a)
        clone = pickle.loads(pickle.dumps(a))
        assert clone._hash is None
        assert clone == a and hash(clone) == hash(a)
