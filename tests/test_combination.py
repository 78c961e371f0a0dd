"""Sparse combinations stay clean under their arithmetic.

VPoly and ModeExpr keep no zero coefficient and no term their space
annihilates (d^k e with k >= 1, or a mode other than -1, on a killed e),
whichever of +, -, scale or apply_bracket built them.
"""

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
                     st.integers(0, max_dl), st.integers(0, max_dm),
                     st.just(0))
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
                (k, dd, dl, 0, 0): c
                for (k, dd, dl, dm, dn), c in vp.terms.items()
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
    # both can raise the d-power of a killed vector
    assert_clean(x.times_monomial(dd=1, dl=1), vpoly_drops)
    assert_clean(x.substitute('m', {'d': -1, 'l': 1}), vpoly_drops)


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
    flipped = apply_bracket(br, y, x, 'n').substitute('n', {'l': -1, 'd': -1})
    assert_clean(flipped, vpoly_drops)
    assert (flipped - flipped).is_zero()
