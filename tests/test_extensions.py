"""Central-extension cocycles: the structured solvers, the direct solver on
the built bracket, and the extended bracket itself."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, Scalar, CocycleAnsatz,
                     PreconditionError, unknown_order, zero_map,
                     solve_central_ext_anl, solve_central_ext_assoc_novikov,
                     solve_leibniz_central_ext_gd, solve_cocycles_direct,
                     check_cocycle_direct, extend_bracket,
                     degree_bound_experiment, build_quadratic_bracket,
                     star_from_mode, StarMode, check_conformal_leibniz,
                     check_alpha_system)
from confalg.extensions import (ANL_ALPHA_SYSTEM, ASSOC_NOVIKOV_ALPHA_SYSTEM,
                                GD_ALPHA_SYSTEM, NOVIKOV_LIE_ALPHA_SYSTEM,
                                assemble_cocycle_rows, _alpha_rows)

import gens


def r00_pieces():
    space, circ, bracket = gens.rab_data(0, 0)
    built = build_quadratic_bracket(circ,
                                    star_from_mode(circ, StarMode.DOUBLE),
                                    bracket)
    return space, circ, bracket, built


def test_unknown_order_is_grading_filtered():
    sp = SuperSpace([("x", 0), ("f", 1)])
    order = unknown_order(sp, (0, 1))
    # only pairs with even parity sum can hit the even central element
    assert order == [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]


def test_ansatz_basics():
    sp = gens.space_LW()
    anz = CocycleAnsatz(sp, {})
    assert anz.is_zero()
    anz.set(1, "L", "W", 2)
    assert not anz.is_zero()
    assert anz.max_degree() == 1
    assert anz.alpha(1, "L", "W") == Scalar.coerce(2)
    assert anz.alpha(0, "L", "L").is_zero()
    doubled = anz.scale(2) + anz.scale(-2)
    assert doubled.is_zero()
    assert str(anz) == "alpha_1(L, W) = 2"


def test_cocycle_space_of_the_degenerate_member():
    """Both structured routes and the direct route give the same
    four-dimensional cocycle space for the parameter-free member: the
    degree-1 and degree-3 entries at (L, W) and (W, W) are independently
    free, everything else is forced to zero."""
    space, circ, bracket, built = r00_pieces()

    structured = solve_central_ext_assoc_novikov(circ)
    assert structured.route == "structured-assoc-novikov"
    assert structured.degrees == (0, 1, 3)
    assert structured.dimension == 4
    assert structured.warnings == []
    assert [str(a) for a in structured.ansatzes()] == [
        "alpha_1(L, W) = 1",
        "alpha_1(W, W) = 1",
        "alpha_3(L, W) = 1",
        "alpha_3(W, W) = 1",
    ]

    anl = solve_central_ext_anl(circ, bracket)
    assert anl.route == "structured-anl"
    assert anl.dimension == 4

    direct = solve_cocycles_direct(built)
    assert direct.route == "direct"
    assert direct.dimension == 4

    degrees = (0, 1, 2, 3)
    assert (structured.embed(degrees).reduced_basis()
            == direct.embed(degrees).reduced_basis()
            == anl.embed(degrees).reduced_basis())


def test_individual_basis_cocycles_verify():
    space, circ, bracket, built = r00_pieces()
    sol = solve_central_ext_assoc_novikov(circ)
    for anz in sol.ansatzes():
        assert check_cocycle_direct(built, anz).passed


def test_the_two_parameter_subfamily_is_symbolic():
    """The span of the degree-1 pair and the degree-3 pair stays a cocycle
    with free symbolic weights."""
    sp = SuperSpace([("L", 0), ("W", 0)], params=("beta", "gamma"))
    circ = gens.example_circ(sp)
    built = build_quadratic_bracket(circ,
                                    star_from_mode(circ, StarMode.DOUBLE),
                                    gens.example_bracket(sp, 0, 0))
    bv = Scalar.param("beta", sp.params)
    gv = Scalar.param("gamma", sp.params)
    anz = CocycleAnsatz(sp, {})
    anz.set(1, "L", "W", gv)
    anz.set(1, "W", "W", gv)
    anz.set(3, "L", "W", bv)
    anz.set(3, "W", "W", bv)
    assert check_cocycle_direct(built, anz).passed

    ext = extend_bracket(built, anz)
    assert ext.space.is_killed("c")
    assert str(ext.entry("W", "W")) == "(d + 2 l) W + (beta l^3 + gamma l) c"
    assert check_conformal_leibniz(ext).passed


def test_extend_bracket_adds_killed_central_element():
    space, circ, bracket, built = r00_pieces()
    sol = solve_central_ext_assoc_novikov(circ)
    beta = sol.ansatz(2) + sol.ansatz(3)
    ext = extend_bracket(built, beta)
    assert list(ext.space.names) == ["L", "W", "c"]
    assert ext.space.is_killed("c")
    assert str(ext.entry("L", "W")) == "(d + 2 l) L + l^3 c"
    assert check_conformal_leibniz(ext).passed


def test_extending_by_a_non_cocycle_breaks_leibniz():
    space, circ, bracket, built = r00_pieces()
    bad = CocycleAnsatz(space, {})
    bad.set(2, "L", "W", 1)
    assert not check_cocycle_direct(built, bad).passed
    assert not check_conformal_leibniz(extend_bracket(built, bad)).passed


def test_gd_route_requires_novikov_input():
    with pytest.raises(PreconditionError):
        solve_leibniz_central_ext_gd(gens.example_circ())


def test_anl_route_requires_compatible_bracket():
    sp = gens.space_LW()
    bad = GradedBilinearMap(sp, name="bracket")
    bad.set_entry("L", "W", {"L": 1})
    with pytest.raises(PreconditionError):
        solve_central_ext_anl(gens.example_circ(sp), bad)


def test_span_warning_when_products_do_not_span():
    sol = solve_central_ext_assoc_novikov(zero_map(SuperSpace([("e", 0)]),
                                                   "circ"))
    assert any("do not span" in w for w in sol.warnings)


def test_degree_bound_experiment_on_the_degenerate_member():
    _, _, _, built = r00_pieces()
    res = degree_bound_experiment(built)
    assert res.agrees
    assert res.vanishing == {4: True, 5: True}
    assert res.solution_high.dimension == res.solution_low.dimension == 4


def test_gd_route_on_the_novikov_family_member():
    circ = gens.gd_circ(2)
    sol = solve_leibniz_central_ext_gd(circ)
    built = build_quadratic_bracket(circ,
                                    star_from_mode(circ, StarMode.SYMMETRIZED),
                                    zero_map(circ.space))
    direct = solve_cocycles_direct(built)
    degrees = (0, 1, 2, 3)
    assert (sol.embed(degrees).reduced_basis()
            == direct.embed(degrees).reduced_basis())
    for anz in sol.ansatzes():
        assert check_cocycle_direct(built, anz).passed


def _structured_cases():
    _, circ, bracket = gens.rab_data(0, 0)
    gd = gens.gd_circ(2)
    return [
        (solve_central_ext_anl(circ, bracket), ANL_ALPHA_SYSTEM,
         {'circ': circ, 'bracket': bracket}),
        (solve_central_ext_assoc_novikov(circ), ASSOC_NOVIKOV_ALPHA_SYSTEM,
         {'circ': circ}),
        (solve_leibniz_central_ext_gd(gd), GD_ALPHA_SYSTEM,
         {'circ': gd, 'star': star_from_mode(gd, StarMode.SYMMETRIZED),
          'bracket': zero_map(gd.space, 'bracket')}),
    ]


def test_structured_basis_cocycles_pass_their_alpha_system():
    for sol, system, ops in _structured_cases():
        assert sol.dimension == 4
        for anz in sol.ansatzes():
            assert check_alpha_system(system, ops, anz).passed


def test_structured_rows_are_pinned():
    """The exact rows (row order, entry order within a row and every value)
    that each structured system hands to the solver at degrees 0..3."""
    digest = hashlib.sha256()
    for circ in [gens.truncated_poly_circ(5), gens.example_circ(),
                 gens.gd_circ(2), gens.diag_circ([1, 2, 0])]:
        ops = {'circ': circ,
               'star': star_from_mode(circ, StarMode.SYMMETRIZED),
               'bracket': zero_map(circ.space, 'bracket')}
        for system in (ANL_ALPHA_SYSTEM, ASSOC_NOVIKOV_ALPHA_SYSTEM,
                       GD_ALPHA_SYSTEM, NOVIKOV_LIE_ALPHA_SYSTEM):
            unknowns, rows = _alpha_rows(system, ops, circ.space, [0, 1, 2, 3])
            digest.update(repr((unknowns, [list(row.items())
                                           for row in rows])).encode())
    assert digest.hexdigest() == \
        "1044690ec120fcbe867de5e47956f4aaa41542211820fdad302e3e3c9b05bf17"


def test_alpha_system_catches_a_perturbed_entry():
    sol, system, ops = _structured_cases()[0]
    anz = sol.ansatz(0)
    anz.set(0, "W", "W", 1)
    rep = check_alpha_system(system, ops, anz)
    assert rep.checked == 96
    assert rep.failures == [
        {"identity": "anl-d01a", "at": ("W", "W", "W"), "residual": "2"},
        {"identity": "anl-d01b", "at": ("W", "W", "W"), "residual": "4"},
    ]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_direct_solutions_always_verify(seed):
    """Whatever bracket we hand the direct solver, every reported basis
    cocycle passes the direct cocycle check."""
    rng = random.Random(seed)
    data = gens.passing_quadratic_instance(rng)
    built = build_quadratic_bracket(data.circ, data.star, data.bracket)
    sol = solve_cocycles_direct(built)
    for anz in sol.ansatzes():
        assert check_cocycle_direct(built, anz).passed


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_embedding_preserves_dimension(seed):
    rng = random.Random(seed)
    data = gens.passing_quadratic_instance(rng)
    built = build_quadratic_bracket(data.circ, data.star, data.bracket)
    sol = solve_cocycles_direct(built, degrees=(0, 1, 2))
    wider = sol.embed((0, 1, 2, 3))
    assert wider.dimension == sol.dimension


# ---------- pinned outputs of the direct route ----------

def _trunc6_bracket():
    circ = gens.truncated_poly_circ(6)
    return build_quadratic_bracket(circ, star_from_mode(circ, StarMode.DOUBLE),
                                   zero_map(circ.space))


@pytest.mark.parametrize("name, bracket, nrows, digest", [
    ("virasoro", lambda: gens.corpus("virasoro.alg").conformal_bracket(), 5,
     "f76b04464d942093ead6014a91b786c09c97df141d7cdaedb5964397ec41a34c"),
    ("rab a=1,b=-2", lambda: gens.corpus("rab.alg").substitute(
        {"a": 1, "b": -2}).conformal_bracket(), 72,
     "e1f7090fcd1ff3fb665a6d46edf2705f487a9bbd155e4181a9a0762a58b17f4e"),
    ("cur_lie", lambda: gens.corpus("cur_lie.alg").conformal_bracket(), 25,
     "063f47024be0af9eb7e81ced29d115afac1c0faaaf34e95d1ee6929b46343c05"),
    ("truncated_poly_circ(6)", _trunc6_bracket, 1624,
     "2ccfe6f5adc051857657b0fd650b11c8de2e5c773478b260a815f1a13079ba3e"),
])
def test_assembled_rows_are_pinned(name, bracket, nrows, digest):
    """The exact row list (row order, entry order within a row and every
    value) that the direct route hands to the solver at degrees 0..3."""
    unknowns, rows = assemble_cocycle_rows(bracket(), [0, 1, 2, 3])
    text = repr((unknowns, [list(row.items()) for row in rows]))
    assert len(rows) == nrows
    assert hashlib.sha256(text.encode()).hexdigest() == digest


CHECKER_PINS = {
    "rab.alg": [
        (("L", "L", "W"), "l^4 -2 + l^3 m -4 + l^3 -2 a + l m^3 4 + m^4 2 "
                          "+ m^3 2 a"),
        (("L", "W", "L"), "l^4 2 + l^3 m 4 + l^3 2 a + l^2 m 6 a + l m^3 -4 "
                          "+ l m^2 6 a + m^4 -2 + m^3 2 a"),
        (("L", "W", "W"), "l^3 -2 b + l -a^2 + m -2 a^2"),
        (("W", "L", "W"), "l 3 + m^3 2 b + m 3 + a"),
        (("W", "W", "L"), "l^3 2 b + l^2 m 6 b + l m^2 6 b + l -1 + m^3 2 b "
                          "+ m 1"),
        (("W", "W", "W"), "l^2 m (a^2 - 1/2) + l m^2 (3 a^2 - 3/2) + l -a b "
                          "+ m^3 (2 a^2 - 1) + m -2 a b + b"),
    ],
    "gd_final.alg": [
        (("L", "L", "W"), "l m a^2 + l a + m^2 a + m 1"),
        (("L", "W", "L"), "l^2 (a^2 - a) + l m (a^2 - 2 a) + l (-a + 1) "
                          "+ m^2 -a + m 1"),
        (("L", "W", "W"), "l^3 (-a^3 + a^2 + 1/2 a - 1/2) + l^2 m (-2 a^3 "
                          "+ 3 a^2 + a - 3/2) + l m^2 (3 a^2 - 3/2) "
                          "+ m^3 (2 a^2 - 1)"),
        (("W", "L", "L"), "l a + m 2 a"),
        (("W", "L", "W"), "l^2 m (2 a^3 - 3 a^2 - a + 3/2) + l m^2 (2 a^3 "
                          "- 3 a^2 - a + 3/2) + m^3 (a^3 - a^2 - 1/2 a "
                          "+ 1/2)"),
        (("W", "W", "L"), "l^3 (a^3 - a^2 - 1/2 a + 1/2) + l^2 m (a^3 "
                          "- 1/2 a) + l m^2 (a^3 - 1/2 a) + m^3 (a^3 - a^2 "
                          "- 1/2 a + 1/2)"),
    ],
}


@pytest.mark.parametrize("fname", sorted(CHECKER_PINS))
def test_direct_checker_residuals_are_pinned(fname):
    """The symbolic direct check of a non-cocycle ansatz with parameter
    entries on a parametric bracket: every residual string, in order."""
    bracket = gens.corpus(fname).conformal_bracket()
    sp = bracket.space
    a = Scalar.param("a", sp.params)
    anz = CocycleAnsatz(sp, {})
    anz.set(0, "W", "L", 1)
    anz.set(1, "L", "W", a)
    anz.set(2, "W", "W", a * a - Fraction(1, 2))
    anz.set(3, "L", "L", -2)
    rep = check_cocycle_direct(bracket, anz)
    assert rep.checked == 8
    assert [(f["identity"], f["at"], f["residual"]) for f in rep.failures] \
        == [("cocycle equation", at, res) for at, res in CHECKER_PINS[fname]]
