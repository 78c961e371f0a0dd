"""The ten end-to-end acceptance checks.

Each test computes its verdict, records it through conftest.record_acceptance
(so a plain pytest run ends with one PASS/FAIL line per criterion), and then
asserts.  Check 4 is intentionally split: the stated two-dimensional answer
for the parameter-free central-extension space is contradicted by three
independent solver routes, so the literal check is a strict xfail and a
companion test pins the verified four-dimensional answer.
"""

import random
import time
from fractions import Fraction

import pytest

from confalg import (SuperSpace, Scalar, CocycleAnsatz, CoeffAlgebra,
                     ModeExpr, PhiCocycle, StarMode, build_quadratic_bracket,
                     check_anl, check_circ_trivial_case, check_cocycle_direct,
                     check_coeff_leibniz, check_conformal_jacobi,
                     check_conformal_leibniz, check_conformal_skew,
                     check_novikov, check_phi_cocycle, check_star_trivial_case,
                     check_structure_equations_t, check_symmetrized_case,
                     classify_brackets, degree_bound_experiment,
                     extend_bracket, solve_central_ext_anl,
                     solve_central_ext_assoc_novikov, solve_cocycles_direct,
                     solve_leibniz_central_ext_gd, star_from_mode, zero_map)
from confalg import linalg

import gens
from conftest import record_acceptance


def routes_agree(sols):
    """Embed every solution space over the union of their degree lists and
    compare reduced echelon bases."""
    degrees = sorted(set().union(*[set(s.degrees) for s in sols]))
    bases = [s.embed(degrees).reduced_basis() for s in sols]
    return all(b == bases[0] for b in bases[1:])


def contained_in(small, big):
    degrees = sorted(set(small.degrees) | set(big.degrees))
    s, b = small.embed(degrees), big.embed(degrees)
    return all(linalg.in_span(v, b.basis, len(b.unknowns)) for v in s.basis)


def test_01_structure_system_matches_built_bracket_leibniz():
    """Pass/fail agreement between the structure-equation system and the
    conformal Leibniz check of the built bracket, on 100 valid and 100
    deliberately broken random instances of dimension 1-3."""
    rng = random.Random(20260816)
    t0 = time.monotonic()

    def draw(maker):
        while True:
            data = maker(rng)
            if data.space.dim <= 3:
                return data

    disagreements = 0
    verdicts = {True: 0, False: 0}
    odd_seen = 0
    for k in range(200):
        maker = (gens.passing_quadratic_instance if k % 2 == 0
                 else gens.violating_quadratic_instance)
        data = draw(maker)
        if any(data.space.parity(i) for i in range(data.space.dim)):
            odd_seen += 1
        t_ok = check_structure_equations_t(data.circ, data.star, data.bracket,
                                           fail_fast=True).passed
        built = build_quadratic_bracket(data.circ, data.star, data.bracket)
        c_ok = check_conformal_leibniz(built, fail_fast=True).passed
        verdicts[t_ok] += 1
        if t_ok != c_ok:
            disagreements += 1
    elapsed = time.monotonic() - t0

    ok = (disagreements == 0 and verdicts[True] == 100
          and verdicts[False] == 100 and odd_seen > 20 and elapsed < 60)
    record_acceptance(
        1, "structure equations match built-bracket Leibniz", ok,
        note="200 instances (100 valid / 100 broken), %d disagreements, "
             "%.1fs" % (disagreements, elapsed))
    assert disagreements == 0
    assert verdicts == {True: 100, False: 100}
    assert odd_seen > 20
    assert elapsed < 60


def test_02_bracket_classification_of_the_two_generator_product():
    """classify_brackets on the two-generator product (W.L = L, W.W = W)
    finds exactly the two-parameter bracket family with no residual
    quadratic constraints."""
    cls = classify_brackets(gens.example_circ())
    entries = list(cls.family.entries_str())
    ok = (cls.dimension == 2 and cls.constraints == []
          and cls.preconditions.passed
          and entries == ["(W, L) -> t0 L", "(W, W) -> t1 L"])
    record_acceptance(
        2, "two-parameter bracket family classified", ok,
        note="dimension %d, %d residual constraints"
             % (cls.dimension, len(cls.constraints)))
    assert cls.dimension == 2
    assert cls.constraints == []
    assert cls.preconditions.passed
    assert entries == ["(W, L) -> t0 L", "(W, W) -> t1 L"]


def test_03_family_bracket_is_leibniz_but_never_skew():
    """The two-parameter family passes the Leibniz check identically in the
    parameters and fails skew-symmetry with symbolic residuals.  The
    failure persists at a = b = 0: the (W, L) entry of the built bracket is
    zero while the (L, W) entry is not, so no parameter choice restores
    skew-symmetry."""
    br = gens.rab_bracket()
    leib = check_conformal_leibniz(br)
    skew = check_conformal_skew(br)
    residuals = {f["at"]: f["residual"] for f in skew.failures}
    skew00 = check_conformal_skew(gens.rab_bracket(0, 0))

    ok = (leib.passed and not skew.passed and not skew00.passed
          and residuals == {("L", "W"): "(d + 2 l + a) L",
                            ("W", "L"): "(-d - 2 l + a) L",
                            ("W", "W"): "(2 b) L"})
    record_acceptance(
        3, "family bracket: Leibniz symbolically, skew fails (even at 0)", ok,
        note="%d symbolic skew residuals; still %d at a = b = 0"
             % (len(skew.failures), len(skew00.failures)))
    assert leib.passed
    assert not skew.passed
    assert residuals == {("L", "W"): "(d + 2 l + a) L",
                         ("W", "L"): "(-d - 2 l + a) L",
                         ("W", "W"): "(2 b) L"}
    assert not skew00.passed


@pytest.mark.xfail(strict=True,
                   reason="three independent routes agree the space is "
                          "4-dimensional: the degree-1 and degree-3 pairs "
                          "are separately free, so the stated 2-dimensional "
                          "answer with linked entries under-counts")
def test_04_claimed_two_dimensional_extension_space():
    """Stated expectation: the parameter-free central-extension space is
    2-dimensional, with alpha_3(L,W) = alpha_3(W,W) and alpha_1(L,W) =
    alpha_1(W,W) linked in each basis vector.  The solver disagrees; see
    test_04_verified_extension_space for the confirmed answer."""
    space, circ, bracket = gens.rab_data(0, 0)
    sol = solve_central_ext_assoc_novikov(circ)
    linked = all(anz.alpha(3, "L", "W") == anz.alpha(3, "W", "W")
                 and anz.alpha(1, "L", "W") == anz.alpha(1, "W", "W")
                 for anz in sol.ansatzes())
    claimed = sol.dimension == 2 and linked
    record_acceptance(
        4, "central-extension space of the parameter-free member", claimed,
        note="solver finds dimension %d (pairs independently free); "
             "stated answer is 2" % sol.dimension)
    assert claimed


def test_04_verified_extension_space():
    """What the solvers actually establish for the parameter-free member:
    a 4-dimensional space (degree-1 and degree-3 unit entries at (L, W) and
    (W, W), everything else zero), identical across the two structured
    routes and the direct route, containing the two linked directions of
    the stated answer as a 2-dimensional subfamily."""
    t0 = time.monotonic()
    space, circ, bracket = gens.rab_data(0, 0)
    built = gens.rab_bracket(0, 0)

    sol = solve_central_ext_assoc_novikov(circ)
    anl = solve_central_ext_anl(circ, bracket)
    direct = solve_cocycles_direct(built)
    assert sol.dimension == anl.dimension == direct.dimension == 4
    assert routes_agree([sol, anl, direct])
    assert [str(a) for a in sol.ansatzes()] == [
        "alpha_1(L, W) = 1",
        "alpha_1(W, W) = 1",
        "alpha_3(L, W) = 1",
        "alpha_3(W, W) = 1",
    ]

    # the two linked directions are inside the span ...
    gamma = CocycleAnsatz(space, {})
    gamma.set(1, "L", "W", 1)
    gamma.set(1, "W", "W", 1)
    beta = CocycleAnsatz(space, {})
    beta.set(3, "L", "W", 1)
    beta.set(3, "W", "W", 1)
    assert (gamma + (sol.ansatz(0) + sol.ansatz(1)).scale(-1)).is_zero()
    assert (beta + (sol.ansatz(2) + sol.ansatz(3)).scale(-1)).is_zero()
    # ... but the linkage does not hold on the whole space
    lone = sol.ansatz(2)
    assert lone.alpha(3, "L", "W") != lone.alpha(3, "W", "W")
    assert check_cocycle_direct(built, lone).passed

    elapsed = time.monotonic() - t0
    assert elapsed < 5


def test_05_structured_and_direct_routes_agree():
    """Reduced echelon bases of the structured cocycle systems equal the
    direct expansion's on the case-matched corpus instances and 50 random
    inputs.  Two corners are pinned exactly instead of being asserted
    equal: the averaging-derived member (its products do not span the
    space, so the structured route warns and is only sound, not complete)
    and the specialized zero-bracket system at the degenerate parameter
    (strictly smaller than the verified answer; the general route and the
    direct route agree there)."""
    t0 = time.monotonic()
    checks = []

    # the two-parameter family at rational points, via the anl route
    for (a, b) in [(0, 0), (1, 0), (2, -1), (Fraction(-1, 2), Fraction(1, 3))]:
        space, circ, bracket = gens.rab_data(a, b)
        s = solve_central_ext_anl(circ, bracket)
        d = solve_cocycles_direct(gens.rab_bracket(a, b))
        checks.append(routes_agree([s, d]))

    # the parameter-free member: all three routes at once
    space, circ, bracket = gens.rab_data(0, 0)
    checks.append(routes_agree([solve_central_ext_assoc_novikov(circ),
                                solve_central_ext_anl(circ, bracket),
                                solve_cocycles_direct(gens.rab_bracket(0, 0))]))

    # the derivation-style product via the general symmetrized route
    for a in (2, 0, -1):
        s = solve_leibniz_central_ext_gd(gens.gd_circ(a))
        d = solve_cocycles_direct(gens.gd_bracket(a))
        checks.append(routes_agree([s, d]))

    # the specialized zero-bracket route agrees away from the degenerate point
    for a in (2, -1):
        s = solve_leibniz_central_ext_gd(gens.gd_circ(a), case="novikov-lie")
        d = solve_cocycles_direct(gens.gd_bracket(a))
        checks.append(routes_agree([s, d]))
    # ... and at a = 0 it is strictly smaller: pin that exactly.  The
    # missing direction (alpha_0(L,W) = 1 = -alpha_0(W,L)) is a genuine
    # cocycle -- the specialized system also demands a relation that is not
    # implied by the extension being Leibniz.
    nl0 = solve_leibniz_central_ext_gd(gens.gd_circ(0), case="novikov-lie")
    d0 = solve_cocycles_direct(gens.gd_bracket(0))
    checks.append(nl0.dimension == 3 and d0.dimension == 4
                  and contained_in(nl0, d0)
                  and not routes_agree([nl0, d0]))
    missing = CocycleAnsatz(nl0.space, {})
    missing.set(0, "L", "W", 1)
    missing.set(0, "W", "L", -1)
    checks.append(check_cocycle_direct(gens.gd_bracket(0), missing).passed)

    # averaging-derived product: span hypothesis fails, route warns, and
    # the structured space is strictly contained in the direct space
    circ = gens.truncated_poly_circ(3)
    built = build_quadratic_bracket(circ,
                                    star_from_mode(circ, StarMode.DOUBLE),
                                    zero_map(circ.space, "bracket"))
    s = solve_central_ext_assoc_novikov(circ)
    d = solve_cocycles_direct(built)
    checks.append(bool(s.warnings))
    checks.append(s.dimension == 8 and d.dimension == 9
                  and contained_in(s, d) and not routes_agree([s, d]))
    # the direct-only solution is a degree-2 cocycle the truncated
    # structured route cannot see
    extra = CocycleAnsatz(circ.space, {})
    extra.set(2, "u0", "u0", 1)
    se = s.embed((0, 1, 2, 3))
    extra_vec = [extra.alpha(t, p, q) for (t, p, q) in se.unknowns]
    checks.append(check_cocycle_direct(built, extra).passed
                  and not linalg.in_span(extra_vec, se.basis,
                                         len(se.unknowns)))

    # 50 random parameter-free inputs
    rng = random.Random(505)
    random_bad = 0
    for _ in range(50):
        c, b = gens.rand_anl_pair(rng)
        s = solve_central_ext_anl(c, b)
        d = solve_cocycles_direct(build_quadratic_bracket(
            c, star_from_mode(c, StarMode.DOUBLE), b))
        if not routes_agree([s, d]):
            random_bad += 1
    checks.append(random_bad == 0)

    elapsed = time.monotonic() - t0
    ok = all(checks)
    record_acceptance(
        5, "structured cocycle routes equal the direct oracle", ok,
        note="10 corpus legs + 50 random inputs, %.1fs; two pinned corners "
             "(span-warned member, degenerate zero-bracket point)" % elapsed)
    assert random_bad == 0
    assert all(checks)


def test_06_degree_bound_forces_higher_cocycles_to_vanish():
    """On the two-generator product (every vector is a product), raising
    the ansatz degree from 3 to 5 adds nothing: the degree-4 and degree-5
    layers vanish and the solution space is unchanged."""
    space, circ, bracket = gens.rab_data(0, 0)
    res = degree_bound_experiment(gens.rab_bracket(0, 0))
    ok = (res.agrees and res.vanishing == {4: True, 5: True}
          and res.solution_high.dimension == 4
          and res.solution_low.dimension == 4)
    record_acceptance(
        6, "degree-5 ansatz collapses to the degree-3 space", ok,
        note="dimensions %d == %d, layers 4 and 5 vanish"
             % (res.solution_high.dimension, res.solution_low.dimension))
    assert res.agrees
    assert res.vanishing == {4: True, 5: True}
    assert res.solution_high.dimension == res.solution_low.dimension == 4


def test_07_mode_algebra_of_the_two_parameter_family():
    """Symbolic mode tables on {-4..4}^2 match the closed formulas
    [L[m], W[n]] = (m-n) L[m+n-1] + a L[m+n] and
    [W[m], W[n]] = (m-n) W[m+n-1] + b L[m+n] (other slots zero), and the
    mode Leibniz identity holds on {-3..3}^3 at all nine rational points
    with a, b in {0, 1, -2}."""
    t0 = time.monotonic()
    br = gens.rab_bracket()
    sp = br.space
    a = Scalar.param("a", sp.params)
    b = Scalar.param("b", sp.params)
    ca = CoeffAlgebra(br)
    L, W = 0, 1
    table_ok = True
    for m in range(-4, 5):
        for n in range(-4, 5):
            table_ok = table_ok and (
                ca.mode_bracket_basis("L", m, "W", n)
                == ModeExpr(sp, {(L, m + n - 1): m - n, (L, m + n): a})
                and ca.mode_bracket_basis("W", m, "W", n)
                == ModeExpr(sp, {(W, m + n - 1): m - n, (L, m + n): b})
                and ca.mode_bracket_basis("W", m, "L", n).is_zero()
                and ca.mode_bracket_basis("L", m, "L", n).is_zero())

    leibniz_ok = True
    checked = 0
    for av in (0, 1, -2):
        for bv in (0, 1, -2):
            rep = check_coeff_leibniz(gens.rab_bracket(av, bv), range(-3, 4))
            leibniz_ok = leibniz_ok and rep.passed
            checked += rep.checked
    elapsed = time.monotonic() - t0

    ok = table_ok and leibniz_ok and elapsed < 30
    record_acceptance(
        7, "mode tables and mode Leibniz of the two-parameter family", ok,
        note="81 symbolic table cells, %d Leibniz instances, %.1fs"
             % (checked, elapsed))
    assert table_ok
    assert leibniz_ok
    assert checked == 9 * 8 * 343
    assert elapsed < 30


def test_08_mode_cocycles_induced_by_the_extension():
    """Both cocycle directions of the parameter-free member induce mode
    cocycles passing the mode-level check on {-4..4}^3, and the central
    part of the extended mode bracket is exactly
    m gamma delta_{m+n,0} + m(m-1)(m-2) beta delta_{m+n,2} on the (L, W)
    and (W, W) slots (zero elsewhere), symbolically in beta and gamma."""
    space, circ, bracket = gens.rab_data(0, 0)
    built = gens.rab_bracket(0, 0)
    sol = solve_central_ext_assoc_novikov(circ)
    gamma = sol.ansatz(0) + sol.ansatz(1)
    beta = sol.ansatz(2) + sol.ansatz(3)
    ca = CoeffAlgebra(built)
    grid = range(-4, 5)
    phi_ok = (check_phi_cocycle(ca, PhiCocycle(beta), grid).passed
              and check_phi_cocycle(ca, PhiCocycle(gamma), grid).passed)

    # symbolic weights on the extended bracket
    sp = SuperSpace([("L", 0), ("W", 0)], params=("beta", "gamma"))
    circ_s = gens.example_circ(sp)
    built_s = build_quadratic_bracket(circ_s,
                                      star_from_mode(circ_s, StarMode.DOUBLE),
                                      zero_map(sp, "bracket"))
    bv = Scalar.param("beta", sp.params)
    gv = Scalar.param("gamma", sp.params)
    anz = CocycleAnsatz(sp, {})
    for (i, j) in (("L", "W"), ("W", "W")):
        anz.set(1, i, j, gv)
        anz.set(3, i, j, bv)
    ext = extend_bracket(built_s, anz)
    cae = CoeffAlgebra(ext)
    cidx = ext.space.index("c")

    def expected_central(i, j, m, n):
        if (i, j) not in (("L", "W"), ("W", "W")):
            return Scalar.zero()
        if m + n == 0:
            return Scalar.coerce(m) * gv
        if m + n == 2:
            return Scalar.coerce(m * (m - 1) * (m - 2)) * bv
        return Scalar.zero()

    central_ok = True
    for m in range(-4, 5):
        for n in range(-4, 5):
            for i in ("L", "W"):
                for j in ("L", "W"):
                    got = cae.mode_bracket_basis(i, m, j, n).terms.get(
                        (cidx, -1), Scalar.zero())
                    central_ok = central_ok and (
                        got == expected_central(i, j, m, n))

    ok = phi_ok and central_ok
    record_acceptance(
        8, "induced mode cocycles and extended mode brackets", ok,
        note="mode cocycle checks on {-4..4}^3; closed central form "
             "symbolic on {-4..4}^2")
    assert phi_ok
    assert central_ok


def test_09_derivation_style_product_and_its_extension():
    """The one-parameter derivation-style product is a valid right-
    symmetric product identically in the parameter; its built bracket has
    the stated entries, is skew-symmetric and satisfies the Jacobi
    identity; and at parameter 2 the structured symmetrized-route cocycle
    space equals the direct oracle's."""
    circ = gens.gd_circ()
    built = gens.gd_bracket()
    nov = check_novikov(circ)
    entries_ok = (str(built.entry("L", "L")) == "(d + 2 l) L"
                  and str(built.entry("L", "W")) == "(d + a l) W"
                  and str(built.entry("W", "L")) == "((a - 1) d + a l) W"
                  and built.entry("W", "W").is_zero())
    skew = check_conformal_skew(built)
    jac = check_conformal_jacobi(built)

    s2 = solve_leibniz_central_ext_gd(gens.gd_circ(2))
    d2 = solve_cocycles_direct(gens.gd_bracket(2))
    agree2 = routes_agree([s2, d2])

    ok = (nov.passed and entries_ok and skew.passed and jac.passed
          and agree2)
    record_acceptance(
        9, "derivation-style product: axioms, bracket, extension", ok,
        note="symbolic in the parameter; at 2 the routes agree on "
             "dimension %d" % s2.dimension)
    assert nov.passed
    assert entries_ok
    assert skew.passed
    assert jac.passed
    assert agree2


def test_10_specialized_case_checkers_match_the_full_system():
    """Each star-mode's specialized checker returns the same verdict as
    the full structure-equation system run under the derived star, on 100
    random instances per mode (a mix of fully random tables and members of
    known-valid families)."""
    rng = random.Random(1010)
    t0 = time.monotonic()

    def random_pair(rng):
        sp = gens.rand_space(rng, rng.randint(1, 3))
        circ = gens.rand_gbm(rng, sp, density=rng.uniform(0.2, 0.8),
                             name="circ")
        br = gens.rand_gbm(rng, sp, density=rng.uniform(0.0, 0.6),
                           name="bracket")
        return circ, br

    disagreements = {"double": 0, "symmetrized": 0, "star-zero": 0,
                     "circ-zero": 0}
    true_verdicts = dict.fromkeys(disagreements, 0)

    for k in range(100):
        structured = k % 10 < 3   # 30 likely-valid draws per mode

        # star = twice the product
        if structured:
            circ, br = gens.rand_anl_pair(rng)
        else:
            circ, br = random_pair(rng)
        lhs = check_anl(circ, br, fail_fast=True).passed
        rhs = check_structure_equations_t(
            circ, star_from_mode(circ, StarMode.DOUBLE), br,
            fail_fast=True).passed
        disagreements["double"] += lhs != rhs
        true_verdicts["double"] += lhs

        # star = symmetrized product
        if structured:
            circ = gens.rand_novikov_circ_spanning(rng)
            br = zero_map(circ.space, "bracket")
        else:
            circ, br = random_pair(rng)
        lhs = check_symmetrized_case(circ, br, fail_fast=True).passed
        rhs = check_structure_equations_t(
            circ, star_from_mode(circ, StarMode.SYMMETRIZED), br,
            fail_fast=True).passed
        disagreements["symmetrized"] += lhs != rhs
        true_verdicts["symmetrized"] += lhs

        # star = 0
        if structured:
            data = gens.square_zero_data(rng, rng.random() < 0.5, "circ")
            circ, br = data.circ, data.bracket
        else:
            circ, br = random_pair(rng)
        lhs = check_star_trivial_case(circ, br, fail_fast=True).passed
        rhs = check_structure_equations_t(
            circ, zero_map(circ.space, "star"), br, fail_fast=True).passed
        disagreements["star-zero"] += lhs != rhs
        true_verdicts["star-zero"] += lhs

        # circ = 0
        if structured:
            data = gens.square_zero_data(rng, rng.random() < 0.5, "star")
            star, br = data.star, data.bracket
        else:
            star, br = random_pair(rng)
            star = gens.rand_gbm(rng, star.space,
                                 density=rng.uniform(0.2, 0.8), name="star")
        lhs = check_circ_trivial_case(star, br, fail_fast=True).passed
        rhs = check_structure_equations_t(
            zero_map(star.space, "circ"), star, br, fail_fast=True).passed
        disagreements["circ-zero"] += lhs != rhs
        true_verdicts["circ-zero"] += lhs

    elapsed = time.monotonic() - t0
    ok = (all(v == 0 for v in disagreements.values())
          and all(v >= 10 for v in true_verdicts.values()))
    record_acceptance(
        10, "specialized case checkers match the full system", ok,
        note="100 instances per mode, disagreements %s, %.1fs"
             % (sum(disagreements.values()), elapsed))
    assert disagreements == {"double": 0, "symmetrized": 0, "star-zero": 0,
                             "circ-zero": 0}
    assert all(v >= 10 for v in true_verdicts.values())
