"""Sparse combinations stay clean under their arithmetic.

VPoly and ModeExpr keep no zero coefficient and no term their space
annihilates (d^k e with k >= 1, or a mode other than -1, on a killed e),
whichever of +, -, scale or apply_bracket built them.
"""

import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, LambdaBracket, VPoly, Scalar, ModeExpr,
                     apply_bracket)

SPACE = SuperSpace([("x", 0), ("y", 1), ("c", 0)], params=("a",),
                   killed=("c",))
A = Scalar.param("a", SPACE.params)


def vpoly_drops(key):
    return key[1] >= 1 and SPACE.is_killed(key[0])


def mode_drops(key):
    return key[1] != -1 and SPACE.is_killed(key[0])


scalars = st.builds(lambda p, q, r: Scalar.rational(p, SPACE.params) + r * A
                    if q else Scalar.rational(p, SPACE.params),
                    st.integers(-2, 2), st.booleans(), st.integers(-1, 1))


def vpolys(max_dl=2, max_dm=1):
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, max_dl), st.integers(0, max_dm))
    return st.dictionaries(keys, scalars, max_size=4).map(
        lambda terms: VPoly(SPACE, terms))


modes = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-2, 2)),
                        scalars, max_size=4).map(
    lambda terms: ModeExpr(SPACE, terms))


@st.composite
def brackets(draw):
    br = LambdaBracket(SPACE)
    for i in range(SPACE.dim):
        for j in range(SPACE.dim):
            want = (SPACE.parity(i) + SPACE.parity(j)) % 2
            vp = draw(vpolys(max_dl=2))
            br.set_entry(i, j, VPoly(SPACE, {
                (k, dd, dl, 0): c
                for (k, dd, dl, dm), c in vp.terms.items()
                if SPACE.parity(k) == want}))
    return br


def assert_clean(value, drops):
    for key, c in value.terms.items():
        assert c, (key, value)
        assert not drops(key), (key, value)


def assert_algebra(x, y, s, drops):
    for value in (x, y, x + y, x - y, y - x, x.scale(s), x.scale(0),
                  (x + y).scale(s)):
        assert_clean(value, drops)
    assert (x - x).is_zero()
    assert x.scale(0).is_zero()
    assert (x + y) - y == x


@given(vpolys(), vpolys(), scalars)
@settings(max_examples=60, deadline=None)
def test_vpoly_arithmetic_stays_clean(x, y, s):
    assert_algebra(x, y, s, vpoly_drops)
    # it can raise the d-power of a killed vector
    assert_clean(x.times_monomial(dd=1, dl=1), vpoly_drops)


@given(modes, modes, scalars)
@settings(max_examples=60, deadline=None)
def test_mode_arithmetic_stays_clean(x, y, s):
    assert_algebra(x, y, s, mode_drops)


@given(brackets(), vpolys(max_dl=0),
       vpolys(max_dl=0, max_dm=0), vpolys(max_dl=0, max_dm=0))
@settings(max_examples=30, deadline=None)
def test_apply_bracket_stays_clean(br, x, y, z):
    """x carries a passive m; y and z carry no variable but d."""
    xy = apply_bracket(br, x, y, 'l')
    assert_clean(xy, vpoly_drops)
    assert_algebra(xy, apply_bracket(br, z, y, 'l'), A, vpoly_drops)
    # bilinear in each slot
    assert apply_bracket(br, x + z, y, 'l') == xy + apply_bracket(br, z, y,
                                                                  'l')
    assert apply_bracket(br, x, y + z, 'l') == xy + apply_bracket(br, x, z,
                                                                  'l')
    nested = apply_bracket(br, x, apply_bracket(br, y, z, 'm'), 'l')
    assert_clean(nested, vpoly_drops)
    flipped = apply_bracket(br, y, x, {'l': -1, 'd': -1})
    assert_clean(flipped, vpoly_drops)
    assert (flipped - flipped).is_zero()


# ---------- pinned renderings ----------

def _rand_coeff(rng, params):
    """A seeded coefficient over params: sums of up to four monomials of
    degree at most 3 with small coefficients of either sign, constants
    and lone 2 a style terms included."""
    if not params:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expo = tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in params)
        terms[expo] = Fraction(rng.choice([-3, -2, -1, 1, 1, 2]),
                               rng.choice([1, 1, 2]))
    return Scalar(params, terms)


def test_renderings_are_pinned():
    """str of seeded Scalars, VPolys (rational and parametric coefficients,
    a killed vector), classical vectors and ModeExprs, byte for byte."""
    rng = random.Random(11)
    text = []
    for n in range(60):
        params = ("a", "b", "c")[:1 + n % 3]
        text.append(str(_rand_coeff(rng, params)))
    a, b = Scalar.parameters("a", "b")
    text += [str(x) for x in (2 * a, -a, a - 1, -2 * a * b + 1, a ** 3,
                              Scalar.rational(-1, ("a", "b")))]
    for params in ((), ("a",), ("a", "b")):
        space = SuperSpace([("L", 0), ("G", 1), ("c", 0)], params=params,
                           killed=("c",))
        for _ in range(40):
            terms = {(rng.randrange(3), rng.randint(0, 2), rng.randint(0, 2),
                      rng.randint(0, 1)):
                     _rand_coeff(rng, params)
                     for _ in range(rng.choice([1, 1, 2, 3, 5]))}
            text.append(str(VPoly(space, terms)))
            vec = {rng.randrange(3): _rand_coeff(rng, params)
                   for _ in range(rng.randint(0, 3))}
            text.append(space.vec_str(vec))
            modes = {(rng.randrange(3), rng.randint(-2, 2)):
                     _rand_coeff(rng, params)
                     for _ in range(rng.randint(0, 3))}
            text.append(str(ModeExpr(space, modes)))
    text.append(str(VPoly(SPACE, {(0, 1, 0, 0): 2 * A,
                                  (1, 0, 0, 0): A + 1,
                                  (2, 0, 0, 0): -A})))
    assert "(2 a) d" in text[-1] and "(a + 1) y" in text[-1]
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == ("d8345a934ac03f26ad9b80821e40856e"
                      "eafb10ace675a9902d16fb0f2e04fe76")
