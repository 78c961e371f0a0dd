"""Exact scalar arithmetic: polynomials over the rationals in declared
parameters."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg import Scalar, ScalarError, as_rational, falling, binom

PARAMS = ("a", "b")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def scalars(draw):
    a, b = Scalar.parameters(*PARAMS)
    s = Scalar.zero(PARAMS)
    for _ in range(draw(st.integers(0, 3))):
        term = Scalar.rational(draw(rationals), PARAMS)
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from([a, b]))
        s = s + term
    return s


def test_constructors_and_zero_test():
    assert not Scalar.zero()
    assert Scalar.one()
    assert str(Scalar.zero()) == "0"
    assert str(Scalar.one()) == "1"
    assert not Scalar.rational(Fraction(0), PARAMS)
    assert Scalar.coerce(Fraction(2, 4)) == Scalar.rational(Fraction(1, 2))


def test_string_forms():
    a, b = Scalar.parameters(*PARAMS)
    assert str(a) == "a"
    assert str(a * a + Scalar.rational(Fraction(3, 2), PARAMS) * b) == "a^2 + 3/2 b"
    assert str(a * a - b * b) == "a^2 - b^2"
    assert str(-a + Scalar.coerce(2, PARAMS)) == "-a + 2"


def test_constants_lift_to_parametric_context():
    a, _ = Scalar.parameters(*PARAMS)
    s = a + Scalar.one()
    assert s.params == PARAMS
    assert str(s) == "a + 1"
    assert as_rational(s - a) == 1
    assert as_rational(s) is None


def test_genuinely_different_parameter_lists_raise():
    a, _ = Scalar.parameters(*PARAMS)
    c = Scalar.param("c", ("c",))
    with pytest.raises(ScalarError):
        a + c
    with pytest.raises(ScalarError):
        a * c


def test_pow_guard():
    a, _ = Scalar.parameters(*PARAMS)
    assert a ** 3 == a * a * a
    assert a ** 0 == Scalar.one(PARAMS)
    with pytest.raises(ScalarError):
        a ** -1
    with pytest.raises(ScalarError):
        a ** Fraction(1, 2)


def test_scalar_error_is_arithmetic_error():
    assert issubclass(ScalarError, ArithmeticError)


def test_substitute():
    a, b = Scalar.parameters(*PARAMS)
    s = a * a + Scalar.rational(Fraction(3, 2), PARAMS) * b
    partial = s.substitute({"a": Fraction(2)})
    assert partial.params == ("b",)
    assert str(partial) == "3/2 b + 4"
    full = s.substitute({"a": 2, "b": -2})
    assert type(full) is int and full == 1


def test_equality_and_hash_ignore_term_order():
    a, b = Scalar.parameters(*PARAMS)
    assert a + b == b + a
    assert hash(a + b) == hash(b + a)
    assert bool(Scalar.zero()) is False
    assert bool(a) is True


@given(scalars(), scalars(), scalars())
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Scalar.zero(PARAMS) == x
    assert x * Scalar.one(PARAMS) == x
    assert not x - x


@given(scalars(), scalars(), rationals, rationals)
def test_substitution_is_a_ring_homomorphism(x, y, va, vb):
    at = {"a": va, "b": vb}
    assert (x + y).substitute(at) == x.substitute(at) + y.substitute(at)
    assert (x * y).substitute(at) == x.substitute(at) * y.substitute(at)


# The ring operations build their results without the validating
# constructor; each must equal the same sum or product accumulated term by
# term through that constructor, in the same term order.

def _validated_sum(params, *term_lists):
    terms = {}
    for pairs in term_lists:
        for expo, coeff in pairs:
            terms[expo] = terms.get(expo, 0) + coeff
    return Scalar(params, terms)


def _validated_product(x, y):
    return _validated_sum(x.params, [
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in x.terms.items() for e2, c2 in y.terms.items()])


def _negated(x):
    return [(e, -c) for e, c in x.terms.items()]


def _validated_power(x, n):
    out = Scalar(x.params, {(0,) * len(x.params): 1})
    for _ in range(n):
        out = _validated_product(out, x)
    return out


@st.composite
def scalar_pairs(draw):
    """Two Scalars over the same 1-3 parameters; often y cancels some or all
    of x's terms.  (Without parameters a coefficient is a bare int or
    Fraction: tests/test_coefficients.py covers that case.)"""
    params = ("a", "b", "c")[:draw(st.integers(1, 3))]
    expos = st.tuples(*[st.integers(0, 2)] * len(params))
    terms = st.dictionaries(expos, st.integers(-2, 2), max_size=4)
    x = Scalar(params, draw(terms))
    y_terms = draw(terms)
    if draw(st.booleans()):
        for expo, coeff in x.terms.items():
            if draw(st.booleans()):
                y_terms[expo] = y_terms.get(expo, 0) - coeff
    return x, Scalar(params, y_terms)


def assert_same_scalar(result, expected):
    assert result.params == expected.params
    assert list(result.terms.items()) == list(expected.terms.items())
    assert all(type(c) in (int, Fraction) and c != 0
               for c in result.terms.values())
    rebuilt = Scalar(result.params, dict(result.terms))
    assert list(rebuilt.terms.items()) == list(result.terms.items())


@given(scalar_pairs(), st.one_of(st.integers(-2, 2), rationals, st.booleans()),
       st.integers(0, 3))
# (-1 - a + a^2)^2: the a^2 sum passes through 0 before its last summand
# arrives, and the a^3 sum is made in between
@example((Scalar(("a",), {(0,): -1, (1,): -1, (2,): 1}),
          Scalar(("a",), {(0,): -1, (1,): -1, (2,): 1})), 1, 2)
# single-term operands on either side, a constant one among them
@example((Scalar(("a", "b"), {(1, 0): 2}),
          Scalar(("a", "b"), {(0, 1): -1, (1, 0): 3, (2, 1): 1})), 2, 1)
@example((Scalar(("a", "b"), {(0, 1): -1, (1, 0): 3, (2, 1): 1}),
          Scalar(("a", "b"), {(1, 1): Fraction(-1, 2)})), -1, 2)
@example((Scalar(("a",), {(0,): 3}), Scalar(("a",), {(0,): 1, (2,): -1})),
         0, 3)
@example((Scalar(("a",), {(1,): 1, (0,): -1}), Scalar(("a",), {(0,): 3})),
         1, 1)
@example((Scalar(("a",), {(1,): 2}), Scalar(("a",), {(1,): -2})), 1, 1)
# bare operands: int, Fraction and bool
@example((Scalar(("a",), {(0,): 2, (1,): 1}), Scalar(("a",), {})), 3, 1)
@example((Scalar(("a",), {(0,): Fraction(3, 2), (1,): 1}),
          Scalar(("a",), {})), Fraction(-3, 2), 1)
@example((Scalar(("a",), {(0,): -1, (1,): 1}), Scalar(("a",), {})), True, 1)
@example((Scalar(("a",), {(1,): 1}), Scalar(("a",), {})), False, 1)
# a Scalar over other parameters
@example((Scalar(("a",), {(1,): 1}), Scalar(("b",), {(0,): 2})), 1, 1)
@settings(max_examples=200)
def test_ring_operations_match_the_validating_constructor(pair, k, n):
    x, y = pair
    if y.params != x.params:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ScalarError):
                op(x, y)
            with pytest.raises(ScalarError):
                op(y, x)
        return
    zero_expo = (0,) * len(x.params)
    assert_same_scalar(x + y, _validated_sum(x.params, x.terms.items(),
                                             y.terms.items()))
    assert_same_scalar(-x, _validated_sum(x.params, _negated(x)))
    assert_same_scalar(x - y, _validated_sum(x.params, x.terms.items(),
                                             _negated(y)))
    assert_same_scalar(y - x, _validated_sum(x.params, y.terms.items(),
                                             _negated(x)))
    assert_same_scalar(x * y, _validated_product(x, y))
    assert_same_scalar(x ** n, _validated_power(x, n))
    plus_k = _validated_sum(x.params, x.terms.items(), [(zero_expo, k)])
    assert_same_scalar(x + k, plus_k)
    assert_same_scalar(k + x, plus_k)
    times_k = _validated_product(x, Scalar(x.params, {zero_expo: k}))
    assert_same_scalar(k * x, times_k)
    assert_same_scalar(x * k, times_k)
    assert_same_scalar(x - k, _validated_sum(x.params, x.terms.items(),
                                             [(zero_expo, -k)]))
    assert not x - x and not x + (-x)
    assert_same_scalar(Scalar.rational(k, x.params),
                       Scalar(x.params, {zero_expo: k}))


@given(st.one_of(st.integers(-3, 3), rationals),
       st.one_of(st.integers(-3, 3), rationals),
       st.sampled_from([("a",), PARAMS]))
@example(2, 2, ("a",))
@example(Fraction(1, 2), Fraction(1, 2), ("a",))
def test_equal_constants_hash_alike(q, r, params):
    """A Scalar without parameter terms equals its bare value, so it hashes
    as that value: x == y implies hash(x) == hash(y) against ints,
    Fractions and constant Scalars."""
    x = Scalar.rational(q, params)
    for y in (r, Fraction(r), Scalar.rational(r, params)):
        if x == y:
            assert hash(x) == hash(y)
    assert len({x, q}) == 1


def test_falling_factorial():
    assert falling(3, 3) == 6
    assert falling(-2, 3) == -24
    assert falling(5, 0) == 1
    assert falling(2, 5) == 0


def test_binomial():
    assert binom(4, 2) == 6
    assert binom(0, 0) == 1
    assert binom(-1, 2) == 1
    assert binom(3, 5) == 0


@given(st.integers(-6, 6), st.integers(0, 6))
def test_falling_recurrence(m, k):
    assert falling(m, k + 1) == falling(m, k) * (m - k)


@given(st.integers(-6, 6), st.integers(0, 6))
def test_binom_from_falling(m, k):
    assert binom(m, k) * math.factorial(k) == falling(m, k)


@given(st.integers(0, 40), st.integers(0, 12))
def test_binom_is_math_comb_on_naturals(m, k):
    value = binom(m, k)
    assert type(value) is int and value == math.comb(m, k)


@given(st.integers(0, 40), st.integers(0, 12))
def test_binom_of_a_negative_upper_index(m, k):
    value = binom(-m, k)
    assert type(value) is int
    assert value == (-1) ** k * binom(m + k - 1, k)
