"""Lambda brackets: sesquilinearity, skew, Jacobi, Leibniz, currents."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, LambdaBracket, VPoly,
                     Scalar, VariableCaptureError, apply_bracket,
                     check_conformal_sesquilinearity, check_conformal_skew,
                     check_conformal_leibniz, check_conformal_jacobi,
                     to_left_conformal, build_current,
                     check_leibniz_superalgebra, build_quadratic_bracket)

import gens


def virasoro():
    sp = SuperSpace([("L", 0)])
    br = LambdaBracket(sp, name="vir")
    br.set_entry("L", "L", (VPoly.monomial(sp, "L", dd=1)
                            + VPoly.monomial(sp, "L", dl=1).scale(2)))
    return br


def test_vpoly_basics():
    sp = SuperSpace([("L", 0), ("W", 0)])
    vp = VPoly.monomial(sp, "L", dd=1) + VPoly.vector(sp, {"W": 3})
    assert str(vp) == "d L + 3 W"
    assert not vp.is_zero()
    assert (vp - vp).is_zero()


def test_set_entry_stores_an_integral_coefficient_as_an_int():
    """VPoly addition can make Fraction(1, 1).  On a space without
    parameters set_entry stores it as 1, so a check over the bracket runs
    in ints.  The second bracket is the one gens.rand_lambda_bracket draws
    at dim 1, seed 4005, where hypothesis found an entry of Fraction(2, 1)."""
    sp = SuperSpace([("e", 0)])
    half = VPoly.monomial(sp, "e", coeff=Fraction(1, 2))
    br = LambdaBracket(sp)
    br.set_entry("e", "e", half + half)
    assert [(c, type(c)) for c in br.entry("e", "e").terms.values()] \
        == [(1, int)]
    rng = random.Random(4005)
    space = gens.rand_space(rng, 1)
    gens.rand_gbm(rng, space, name="circ")
    gens.rand_linear_map(rng, space)
    br = gens.rand_lambda_bracket(rng, space, 2, 4)
    coeffs = [c for vp in br.entries.values() for c in vp.terms.values()]
    assert 2 in coeffs
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in coeffs)


def test_vpoly_killed_normalization():
    sp = SuperSpace([("L", 0), ("c", 0)], killed=("c",))
    # d c = 0 in the quotient, plain c survives
    assert VPoly.monomial(sp, "c", dd=1).is_zero()
    assert not VPoly.vector(sp, sp.basis_vec("c")).is_zero()


def test_quadratic_bracket_entries():
    br = gens.rab_bracket()
    assert str(br.entry("L", "W")) == "(d + 2 l + a) L"
    assert str(br.entry("W", "W")) == "b L + (d + 2 l) W"
    assert br.entry("W", "L").is_zero()
    assert br.entry("L", "L").is_zero()
    assert max(dl for vp in br.entries.values()
               for (_, _, dl, _) in vp.terms) == 1


def test_virasoro_is_lie_conformal():
    vir = virasoro()
    assert check_conformal_sesquilinearity(vir).passed
    assert check_conformal_skew(vir).passed
    assert check_conformal_jacobi(vir).passed
    assert check_conformal_leibniz(vir).passed


def test_one_dimensional_constant_self_bracket_fails_leibniz():
    sp = SuperSpace([("a", 0)])
    br = LambdaBracket(sp)
    br.set_entry("a", "a", VPoly.vector(sp, sp.basis_vec("a")))
    assert not check_conformal_leibniz(br).passed


def test_nilpotent_constant_self_bracket_passes_leibniz():
    sp = SuperSpace([("a", 0), ("b", 0)])
    br = LambdaBracket(sp)
    br.set_entry("a", "a", VPoly.vector(sp, sp.basis_vec("b")))
    assert check_conformal_leibniz(br).passed
    assert not check_conformal_skew(br).passed


def test_free_field_type_brackets():
    sp = SuperSpace([("a", 0), ("b", 0)])
    lie = LambdaBracket(sp)
    lie.set_entry("a", "a", (VPoly.monomial(sp, "b", dd=1)
                             + VPoly.monomial(sp, "b", dl=1).scale(2)))
    assert check_conformal_skew(lie).passed
    assert check_conformal_jacobi(lie).passed
    assert check_conformal_leibniz(lie).passed

    leib_only = LambdaBracket(sp)
    leib_only.set_entry("a", "a", VPoly.monomial(sp, "b", dl=1))
    assert check_conformal_leibniz(leib_only).passed
    assert not check_conformal_skew(leib_only).passed


def test_family_bracket_leibniz_holds_skew_fails_symbolically():
    """The quadratic family bracket satisfies the Leibniz axiom identically
    in both parameters, but is never skew: the diagonal residual survives
    even with both parameters at zero."""
    br = gens.rab_bracket()
    assert check_conformal_leibniz(br).passed

    skew = check_conformal_skew(br)
    assert not skew.passed
    residuals = {f["at"]: f["residual"] for f in skew.failures}
    assert residuals[("L", "W")] == "(d + 2 l + a) L"
    assert residuals[("W", "L")] == "(-d - 2 l + a) L"
    assert residuals[("W", "W")] == "(2 b) L"

    at00 = gens.rab_bracket(0, 0)
    assert check_conformal_leibniz(at00).passed
    assert not check_conformal_skew(at00).passed


def test_variable_capture_guard():
    br = gens.rab_bracket()
    sp = br.space
    x = VPoly.vector(sp, sp.basis_vec("L")).times_monomial(dl=1)
    with pytest.raises(VariableCaptureError):
        apply_bracket(br, x, VPoly.vector(sp, sp.basis_vec("W")), attach="l")


def test_apply_bracket_sesquilinearity_by_hand():
    """[partial x _l y] = -l [x _l y] on the family bracket."""
    br = gens.rab_bracket()
    sp = br.space
    x = sp.basis_vec("L")
    y = sp.basis_vec("W")
    lhs = apply_bracket(br, VPoly.vector(sp, x).times_monomial(dd=1),
                        VPoly.vector(sp, y), attach="l")
    rhs = apply_bracket(br, x, y, attach="l").times_monomial(dl=1).scale(-1)
    assert lhs == rhs


def test_current_of_a_right_leibniz_bracket():
    sp = SuperSpace([("e1", 0), ("e2", 0)])
    cb = GradedBilinearMap(sp, name="bracket")
    cb.set_entry("e1", "e1", {"e2": 1})
    cur = build_current(cb)
    assert str(cur.entry("e1", "e1")) == "e2"
    assert check_conformal_leibniz(cur).passed


def test_current_of_a_non_right_leibniz_bracket_fails():
    sp = SuperSpace([("e1", 0), ("e2", 0)])
    bad = GradedBilinearMap(sp, name="bracket")
    bad.set_entry("e1", "e1", {"e1": 1})
    assert not check_leibniz_superalgebra(bad).passed
    assert not check_conformal_leibniz(build_current(bad)).passed


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_current_matches_classical_verdict(seed):
    rng = random.Random(seed)
    sp = gens.rand_space(rng, rng.randint(1, 3))
    cb = gens.rand_gbm(rng, sp)
    assert (check_conformal_leibniz(build_current(cb)).passed
            == check_leibniz_superalgebra(cb).passed)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_sesquilinearity_of_built_brackets(seed):
    rng = random.Random(seed)
    data = gens.passing_quadratic_instance(rng)
    br = build_quadratic_bracket(data.circ, data.star, data.bracket)
    assert check_conformal_sesquilinearity(br).passed


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_to_left_conformal_is_an_involution(seed):
    rng = random.Random(seed)
    data = gens.mutated_quadratic_instance(rng)
    br = build_quadratic_bracket(data.circ, data.star, data.bracket)
    back = to_left_conformal(to_left_conformal(br))
    for i in range(br.space.dim):
        for j in range(br.space.dim):
            assert back.entry(i, j) == br.entry(i, j)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_to_left_conformal_duality(seed):
    """The sign-twisted opposite turns the Leibniz axiom into the
    Jacobi-shaped one and back."""
    rng = random.Random(seed)
    data = (gens.passing_quadratic_instance(rng) if rng.random() < 0.5
            else gens.mutated_quadratic_instance(rng))
    br = build_quadratic_bracket(data.circ, data.star, data.bracket)
    flipped = to_left_conformal(br)
    assert (check_conformal_leibniz(br).passed
            == check_conformal_jacobi(flipped).passed)


def test_substitute_params_on_bracket():
    br = gens.rab_bracket()
    num = br.substitute_params({"a": 1, "b": -2})
    assert num.space.params == ()
    assert str(num.entry("L", "W")) == "(d + 2 l + 1) L"
    assert str(num.entry("W", "W")) == "(-2) L + (d + 2 l) W"


# ---------- pinned reports ----------

def pinned_brackets():
    """Forty-three seeded quadratic brackets: random data on spaces with an
    odd generator (mostly failing every identity), data that passes the
    structure equations, one space with a killed vector, and the parametric
    two-generator families."""
    out = []
    for seed in range(36):
        rng = random.Random(seed)
        dim = 1 + seed % 4
        space = SuperSpace([("e0", 1)] + [("e%d" % i, rng.randint(0, 1))
                                          for i in range(1, dim)])
        density = rng.choice([0.3, 0.5, 0.8])
        out.append(build_quadratic_bracket(
            *(gens.rand_gbm(rng, space, density, name)
              for name in ("circ", "star", "bracket"))))
    for seed in range(4):
        data = gens.passing_quadratic_instance(random.Random(seed))
        out.append(build_quadratic_bracket(data.circ, data.star,
                                           data.bracket))
    rng = random.Random(99)
    space = SuperSpace([("L", 0), ("G", 1), ("c", 0)], killed=("c",))
    out.append(build_quadratic_bracket(
        *(gens.rand_gbm(rng, space, 0.6, name)
          for name in ("circ", "star", "bracket"))))
    out.append(gens.rab_bracket())
    out.append(gens.gd_bracket())
    return out


def test_conformal_reports_are_pinned():
    """Every report of the conformal Leibniz, Jacobi and skew checks, with
    and without fail_fast, and every entry of the sign-twisted opposite,
    byte for byte."""
    brackets = pinned_brackets()
    assert any(sp.parity(i) for sp in (br.space for br in brackets)
               for i in range(sp.dim))
    text = []
    for br in brackets:
        for check in (check_conformal_leibniz, check_conformal_jacobi,
                      check_conformal_skew):
            for fail_fast in (False, True):
                text.append(str(check(br, fail_fast=fail_fast)))
        text.extend(to_left_conformal(br).entries_str())
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == ("45f8a3854b3fb792f66682c3cab0a2b1"
                      "8dc94142daf1b47692b95ce026eeb07d")
