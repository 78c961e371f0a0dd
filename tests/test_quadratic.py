"""Quadratic data: structure-equation systems, specialized cases,
averaging operators, and bracket classification."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, LinearMap, Scalar,
                     QuadraticData, StarMode, star_from_mode, zero_map,
                     build_quadratic_bracket, check_structure_equations_t,
                     check_anl, check_associative_novikov, check_novikov,
                     check_gd_bialgebra, check_symmetrized_case,
                     check_star_trivial_case, check_circ_trivial_case,
                     check_averaging, build_assoc_novikov_from_averaging,
                     classify_brackets, check_conformal_leibniz,
                     check_left_leibniz_superalgebra)

import gens


def test_star_from_mode_double():
    circ = gens.example_circ()
    star = star_from_mode(circ, StarMode.DOUBLE)
    sp = circ.space
    assert sp.vec_eq(star.entry("W", "L"), {0: 2})
    assert sp.vec_eq(star.entry("W", "W"), {1: 2})
    assert sp.vec_is_zero(star.entry("L", "W"))


def test_star_from_mode_symmetrized():
    circ = gens.example_circ()
    star = star_from_mode(circ, StarMode.SYMMETRIZED)
    sp = circ.space
    # W circ L + L circ W = L, W circ W + W circ W = 2W
    assert sp.vec_eq(star.entry("W", "L"), {0: 1})
    assert sp.vec_eq(star.entry("L", "W"), {0: 1})
    assert sp.vec_eq(star.entry("W", "W"), {1: 2})


def test_star_from_mode_zero():
    star = star_from_mode(gens.example_circ(), StarMode.ZERO)
    assert star.is_zero()


def test_quadratic_data_requires_one_space():
    sp1 = SuperSpace([("e", 0)])
    sp2 = SuperSpace([("e", 0)])
    with pytest.raises(ValueError):
        QuadraticData(sp1, circ=zero_map(sp2))


def test_structure_equations_hold_for_the_family():
    """The (circ, 2 circ, bracket) triple of the two-parameter family passes
    the full system identically in both parameters."""
    space, circ, bracket = gens.rab_data()
    star = star_from_mode(circ, StarMode.DOUBLE)
    rep = check_structure_equations_t(circ, star, bracket)
    assert rep.passed
    assert rep.checked > 0


def test_structure_equations_catch_a_bad_star():
    space, circ, bracket = gens.rab_data(1, 1)
    star = star_from_mode(circ, StarMode.SYMMETRIZED)  # wrong star for this pair
    assert not check_structure_equations_t(circ, star, bracket).passed


def test_anl_axioms_hold_for_the_family():
    space, circ, bracket = gens.rab_data()
    assert check_anl(circ, bracket).passed
    assert check_associative_novikov(circ).passed


def test_example_product_is_not_novikov():
    """The two-generator associative Novikov product fails the Novikov
    left-symmetry equation, e.g. with residual L on the (W, W, L) triple."""
    rep = check_novikov(gens.example_circ())
    assert not rep.passed
    assert {"identity": "nov1", "at": ("W", "W", "L"),
            "residual": "L"} in rep.failures


def test_one_parameter_novikov_family():
    circ = gens.gd_circ()  # symbolic in the parameter
    assert check_novikov(circ).passed
    assert check_gd_bialgebra(circ, zero_map(circ.space, "bracket")).passed


def test_symmetrized_case_checker_on_novikov_data():
    circ = gens.gd_circ(2)
    assert check_symmetrized_case(circ, zero_map(circ.space)).passed


def test_star_trivial_case_checker():
    rng = random.Random(5)
    data = gens.square_zero_data(rng, odd_generator=False, which="circ")
    assert check_star_trivial_case(data.circ, data.bracket).passed
    bad = gens.example_circ()
    assert not check_star_trivial_case(bad, zero_map(bad.space)).passed


def test_circ_trivial_case_checker():
    rng = random.Random(6)
    data = gens.square_zero_data(rng, odd_generator=True, which="star")
    assert check_circ_trivial_case(data.star, data.bracket).passed


def test_averaging_operator_build():
    """Multiplication by x on Q[x]/(x^3) is averaging for the truncated
    polynomial product; the derived product satisfies the associative
    Novikov equations."""
    sp = SuperSpace([("u0", 0), ("u1", 0), ("u2", 0)])
    prod = GradedBilinearMap(sp, name="prod")
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                prod.set_entry(i, j, {i + j: 1})
    avg = LinearMap(sp, name="P")
    avg.set_entry("u0", {"u1": 1})
    avg.set_entry("u1", {"u2": 1})
    assert check_averaging(prod, avg).passed

    circ = build_assoc_novikov_from_averaging(prod, avg)
    assert sp.vec_eq(circ.entry("u0", "u0"), {1: 1})
    assert sp.vec_eq(circ.entry("u0", "u1"), {2: 1})
    assert sp.vec_is_zero(circ.entry("u2", "u0"))
    assert check_associative_novikov(circ).passed


def test_non_averaging_map_is_rejected():
    sp = SuperSpace([("u0", 0), ("u1", 0), ("u2", 0)])
    prod = GradedBilinearMap(sp, name="prod")
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                prod.set_entry(i, j, {i + j: 1})
    not_avg = LinearMap(sp, name="Q")
    not_avg.set_entry("u0", {"u0": 1, "u1": 1})
    assert not check_averaging(prod, not_avg).passed


def test_classification_of_the_example_product():
    """Brackets compatible with the two-generator product form exactly the
    two-parameter family [W, L] = t0 L, [W, W] = t1 L, with no residual
    constraints."""
    cls = classify_brackets(gens.example_circ())
    assert cls.dimension == 2
    assert cls.constraints == []
    assert cls.preconditions.passed
    assert list(cls.family.entries_str()) == ["(W, L) -> t0 L",
                                              "(W, W) -> t1 L"]


def test_classification_reports_quadratic_constraints():
    """On a one-dimensional space with zero product the mixed equations are
    vacuous and the Leibniz identity leaves the genuinely quadratic
    constraint t0^2 = 0, which is reported, not solved."""
    sp = SuperSpace([("e", 0)])
    cls = classify_brackets(zero_map(sp, "circ"))
    assert cls.dimension == 1
    assert cls.constraints == ["-t0^2"]


def test_bracket_at_lands_on_the_original_space():
    circ = gens.example_circ()
    cls = classify_brackets(circ)
    br = cls.bracket_at([Fraction(3), Fraction(-1, 2)])
    assert br.space is circ.space
    assert circ.space.vec_eq(br.entry("W", "L"), {0: Fraction(3)})
    assert circ.space.vec_eq(br.entry("W", "W"), {0: Fraction(-1, 2)})
    # instantiated members really do satisfy the axioms
    assert check_anl(circ, br).passed


def test_classified_family_members_pass_the_structure_equations():
    rng = random.Random(11)
    circ = gens.example_circ()
    cls = classify_brackets(circ)
    for _ in range(5):
        br = cls.bracket_at([gens.rand_fraction(rng), gens.rand_fraction(rng)])
        star = star_from_mode(circ, StarMode.DOUBLE)
        assert check_structure_equations_t(circ, star, br).passed


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_passing_pool_really_passes(seed):
    rng = random.Random(seed)
    data = gens.passing_quadratic_instance(rng)
    assert check_structure_equations_t(data.circ, data.star, data.bracket,
                                       fail_fast=True).passed


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_violating_instances_fail_both_routes(seed):
    rng = random.Random(seed)
    data = gens.violating_quadratic_instance(rng)
    assert not check_structure_equations_t(data.circ, data.star, data.bracket,
                                           fail_fast=True).passed
    br = build_quadratic_bracket(data.circ, data.star, data.bracket)
    assert not check_conformal_leibniz(br, fail_fast=True).passed


# ---------- pinned classifications ----------

def _classification(circ):
    cls = classify_brackets(circ)
    return (cls.dimension, cls.family.entries_str(), cls.constraints,
            cls.preconditions.passed)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _seeded_circ(seed):
    """A random circ, an associative Novikov circ (on a space with a trivial
    odd generator added every other time) or a zero circ."""
    rng = random.Random(seed)
    shape = seed % 4
    if shape == 0:
        space = gens.rand_space(rng, rng.randint(1, 3))
        return gens.rand_gbm(rng, space, density=rng.choice([0.2, 0.4]),
                             name="circ")
    if shape == 3:
        return zero_map(gens.rand_space(rng, rng.randint(1, 3)), "circ")
    circ = gens.rand_assoc_novikov_circ(rng)
    if shape == 2:
        zero = zero_map(circ.space)
        circ = gens._with_trivial_odd_line(circ, zero, zero)[0]
    return circ


# corpus file (parametric ones at their CLI --at points) -> (dimension,
# number of constraints, sha256 of _classification)
CORPUS_CLASSIFICATIONS = {
    "avg_x3": (27, 81,
        "9901351eced83bc6472821028bb567e26967d4114a9ab35c6fd5ea9d4e6f292d"),
    "circ0_sq": (8, 16,
        "aaff757db99227eb0e88b33b8ce353268ae56f03346ed71c9942ea390d8d75ce"),
    "cur_leib": (8, 16,
        "274d85d129c9802652cb3894b8a3e6adf17e15427750e1e741000e29ab50ea33"),
    "cur_lie": (4, 8,
        "5de57e876c6ca6f71eecebd135ddb6a234f54ad42579143d6c909ac3206566cd"),
    "fpoly": (8, 16,
        "09cae9566531fb0e73e32928687637fcd1106dc814d39b395d95332feb91eaf2"),
    "fpoly_nonlie": (8, 16,
        "09cae9566531fb0e73e32928687637fcd1106dc814d39b395d95332feb91eaf2"),
    "gd_final at a=2": (1, 0,
        "36969c42fbf6acb1f703c61eb618902900fe49522c42e5c07c618b139fd6f0a7"),
    "r00": (2, 0,
        "948c79ec586fd37210c0b6547652e4aa8b4dc5c409544a1176f744af0fb8653b"),
    "rab at a=1,b=-2": (2, 0,
        "948c79ec586fd37210c0b6547652e4aa8b4dc5c409544a1176f744af0fb8653b"),
    "star0_sq": (2, 1,
        "40f260b2367c8671b2d1033b99d4382cc17d3748dc8d7e6209dcbe3bf79a04ab"),
    "virasoro": (1, 1,
        "db6f27c4d9066878a07002d7ba435cf366ef25058506e75321a51e20f9db2599"),
}


@pytest.mark.parametrize("name", sorted(CORPUS_CLASSIFICATIONS))
def test_corpus_classifications_are_pinned(name):
    fname, _, at = name.partition(" at ")
    af = gens.corpus(fname + ".alg")
    if at:
        af = af.substitute({k: int(v) for k, v in
                            (kv.split("=") for kv in at.split(","))})
    result = _classification(af.circ())
    assert (result[0], len(result[2]), _digest(result)) \
        == CORPUS_CLASSIFICATIONS[name]


# (dimension, number of constraints, preconditions passed) for seeds 0..29
SEEDED_CLASSIFICATIONS = [(4, 8, True), (3, 1, True), (0, 0, True),
    (1, 1, True), (0, 0, True), (2, 0, True), (0, 0, True), (4, 8, True),
    (0, 0, True), (2, 0, True), (4, 8, True), (0, 0, True), (0, 0, True),
    (2, 0, True), (0, 0, True), (1, 1, True), (0, 0, True), (2, 0, True),
    (4, 8, True), (27, 81, True), (0, 0, False), (2, 1, True), (4, 8, True),
    (8, 16, True), (0, 0, False), (2, 0, True), (6, 5, True), (0, 0, True),
    (1, 1, True), (0, 0, True)]
SEEDED_DIGEST = (
    "b275bf6e9d4a2852c60ffa2f56008111175ecb7d65f561dbc00146930ac14ead")


def test_seeded_classifications_are_pinned():
    results = [_classification(_seeded_circ(seed)) for seed in range(30)]
    assert [(d, len(c), ok) for d, _, c, ok in results] \
        == SEEDED_CLASSIFICATIONS
    assert _digest(results) == SEEDED_DIGEST


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_constraints_are_exactly_the_leibniz_failures(seed):
    cls = classify_brackets(_seeded_circ(seed))
    assert (cls.constraints == []) \
        == check_left_leibniz_superalgebra(cls.family).passed
