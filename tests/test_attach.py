"""apply_bracket at variables and linear forms against a term-by-term oracle.

`ref_attach` builds [x _v y] one term at a time through the validating
VPoly constructor, with times_monomial and scale only: a term d^ddx e_kx
of x and a term d^ddy e_ky of y give (-v)^ddx (d + v)^ddy [e_kx _v e_ky],
with any l/m powers of x and y as passive factors.  apply_bracket must give
the same VPoly, the same string, no zero coefficient and no d-power on a
killed vector, at the five forms of the conformal identities and at random
forms over d, l and m.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import SuperSpace, VPoly, VariableCaptureError, apply_bracket
from confalg.conformal import _FORMS

import gens
from test_combination import SPACE, brackets, vpolys

COEFFS = [1, -2, Fraction(1, 2), Fraction(-3, 2)]

forms = st.one_of(
    st.sampled_from(list(_FORMS.values())),
    st.dictionaries(st.sampled_from(['d', 'l', 'm']), st.sampled_from(COEFFS),
                    min_size=1, max_size=3))


def ref_power(vp, form, t):
    """vp times the linear form {variable: rational} to the power t."""
    for _ in range(t):
        vp = sum((vp.times_monomial(**{"d" + var: 1}).scale(c)
                  for var, c in form.items()), VPoly.zero(vp.space))
    return vp


def ref_attach(bracket, x, y, form):
    """[x _v y] at the linear form v, term by term."""
    space = bracket.space
    minus_v = {var: -c for var, c in form.items()}
    d_plus_v = dict(form)
    d_plus_v['d'] = d_plus_v.get('d', 0) + 1
    out = VPoly.zero(space)
    for (kx, ddx, dlx, dmx), sx in x.terms.items():
        for (ky, ddy, dly, dmy), sy in y.terms.items():
            for (k, dd, dl, _), c in bracket.entry(kx, ky).terms.items():
                term = VPoly(space, {(k, dd, dlx + dly, dmx + dmy): c})
                term = ref_power(term.scale(sx * sy), form, dl)
                term = ref_power(ref_power(term, minus_v, ddx), d_plus_v, ddy)
                out = out + term
    return out


def assert_like_the_reference(bracket, x, y, attach):
    out = apply_bracket(bracket, x, y, attach)
    form = {attach: 1} if isinstance(attach, str) else attach
    expected = ref_attach(bracket, x, y, form)
    assert out == expected and str(out) == str(expected)
    space = bracket.space
    for (k, dd, _, _), c in out.terms.items():
        assert c
        assert not (dd >= 1 and space.is_killed(k)), str(out)


@given(brackets(), vpolys(max_dl=2, max_dm=2), vpolys(max_dl=2, max_dm=2),
       forms)
@settings(deadline=None)
def test_attach_matches_the_oracle(bracket, x, y, form):
    """An odd generator y, a killed vector c and a parameter a; x and y
    carry d-powers and passive l and m powers."""
    assert_like_the_reference(bracket, x, y, form)


def rand_vpoly(rng, space):
    vp = VPoly.zero(space)
    for _ in range(rng.randint(0, 3)):
        vp = vp + VPoly.monomial(space, rng.randrange(space.dim),
                                 rng.randint(0, 2), rng.randint(0, 2),
                                 rng.randint(0, 2),
                                 coeff=gens.rand_fraction(rng, nonzero=True))
    return vp


def rand_form(rng):
    return {var: rng.choice(COEFFS)
            for var in rng.sample(['d', 'l', 'm'], rng.randint(1, 3))}


@given(st.integers(0, 2 ** 32))
@settings(deadline=None)
def test_attach_matches_the_oracle_on_random_brackets(seed):
    """Random lambda-brackets with terms up to d, l degree 3 on one to four
    generators, the first one odd, at the five forms and a random one."""
    rng = random.Random(seed)
    space = SuperSpace([("e0", 1)] + [("e%d" % i, rng.randint(0, 1))
                                      for i in range(1, rng.randint(1, 4))])
    bracket = gens.rand_lambda_bracket(rng, space, rng.randint(1, 3),
                                       rng.randint(1, 6))
    x, y = rand_vpoly(rng, space), rand_vpoly(rng, space)
    for form in [*_FORMS.values(), rand_form(rng)]:
        assert_like_the_reference(bracket, x, y, form)


@given(brackets(), vpolys(max_dl=2, max_dm=2), vpolys(max_dl=2, max_dm=2),
       st.sampled_from(['l', 'm']))
@settings(deadline=None)
def test_a_name_is_its_form_and_only_a_name_is_guarded(bracket, x, y, name):
    """Free of the name, x and y attach at it as at {name: 1}; an input
    that uses it raises VariableCaptureError at the name and not at the
    form."""
    axis = {'l': 2, 'm': 3}[name]
    free = [VPoly(SPACE, {key: c for key, c in vp.terms.items()
                          if not key[axis]}) for vp in (x, y)]
    assert_like_the_reference(bracket, *free, name)
    used = VPoly.monomial(SPACE, 'x', **{"d" + name: 1})
    for args in ((used, y), (x, used)):
        with pytest.raises(VariableCaptureError):
            apply_bracket(bracket, *args, name)
        assert_like_the_reference(bracket, *args, {name: 1})
