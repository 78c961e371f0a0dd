"""Central-extension cocycles: the structured solvers, the direct solver on
the built bracket, and the extended bracket itself."""

import hashlib
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, Scalar, CocycleAnsatz,
                     PreconditionError, unknown_order, zero_map,
                     solve_central_ext_anl, solve_central_ext_assoc_novikov,
                     solve_leibniz_central_ext_gd, solve_cocycles_direct,
                     check_cocycle_direct, extend_bracket,
                     degree_bound_experiment, build_quadratic_bracket,
                     star_from_mode, StarMode, check_conformal_leibniz,
                     check_alpha_system, linalg)
from confalg.extensions import (ANL_ALPHA_SYSTEM, ASSOC_NOVIKOV_ALPHA_SYSTEM,
                                GD_ALPHA_SYSTEM, NOVIKOV_LIE_ALPHA_SYSTEM,
                                assemble_cocycle_rows, structured_route,
                                _alpha_rows)

import gens


def rows_text(unknowns, rows):
    """The unknown order and the rows in a type-free text: every coefficient
    as (numerator, denominator), so an int and the equal Fraction encode
    alike."""
    return repr((unknowns, [[(u, (c.numerator, c.denominator))
                             for u, c in row.items()] for row in rows]))


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
    assert anz.alpha(0, "L", "L") == 0
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


def cocycle_and_extension_verdicts(seed):
    """For a passing quadratic bracket (odd generators included): each basis
    cocycle of degrees 0..2, a random ansatz with entries in -2..2 and a
    basis cocycle plus that ansatz, the pair (check_cocycle_direct verdict,
    conformal Leibniz verdict of the extended bracket).  The second goes
    through apply_bracket and the evaluator, and shares no code with the
    cocycle rows."""
    rng = random.Random(seed)
    data = gens.passing_quadratic_instance(rng)
    br = build_quadratic_bracket(data.circ, data.star, data.bracket)
    sol = solve_cocycles_direct(br, (0, 1, 2))
    noise = sol.ansatz([rng.randint(-2, 2) for _ in sol.unknowns])
    drawn = sol.ansatzes() + [noise] + [b + noise for b in sol.ansatzes()[:1]]
    return [(check_cocycle_direct(br, anz).passed,
             check_conformal_leibniz(extend_bracket(br, anz)).passed)
            for anz in drawn]


@given(st.integers(0, 2 ** 32))
@settings(deadline=None)
def test_an_ansatz_is_a_cocycle_iff_its_extension_is_leibniz(seed):
    for direct, extended in cocycle_and_extension_verdicts(seed):
        assert direct == extended


def test_the_extension_oracle_meets_non_cocycles():
    assert not all(direct for seed in range(5)
                   for direct, _ in cocycle_and_extension_verdicts(seed))


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


def test_constant_entries_over_parameters_solve_as_rational_ones():
    """A space that declares a parameter its entries do not use: the
    structured route solves on the constant entries, as on the same circ
    without the parameter."""
    circ = gens.example_circ(gens.space_LW(params=("a",)))
    sol = solve_central_ext_assoc_novikov(circ)
    assert sol.dimension == 4
    assert sol.basis == solve_central_ext_assoc_novikov(
        gens.example_circ()).basis


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
            digest.update(rows_text(unknowns, rows).encode())
    assert digest.hexdigest() == \
        "e62512bc154a031f254de34e5cbbbed36581afd9cda4d62d79f57b2ab022842d"


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


@pytest.mark.parametrize("bracket, nrows, digest", [
    pytest.param(lambda: gens.corpus("virasoro.alg").conformal_bracket(), 5,
                 "5276ef1fb907381e7123b460de655bc5"
                 "6247337acd5ea96634200af82f4abe6f", id="virasoro"),
    pytest.param(lambda: gens.corpus("rab.alg").substitute(
                     {"a": 1, "b": -2}).conformal_bracket(), 72,
                 "c59174e1e03d588599194c5d06d67730"
                 "85e3bc8b2a78815e79867d7d28041e04", id="rab a=1,b=-2"),
    pytest.param(lambda: gens.corpus("cur_lie.alg").conformal_bracket(), 25,
                 "69ba0a0bd24ae741ec0ea53840775937"
                 "1c9b14d3cc205948872f2ddbefa2ea29", id="cur_lie"),
    pytest.param(_trunc6_bracket, 1624,
                 "77802d90217c9d32b3d3c6f0e9046b42"
                 "9917288a552cf614a841716930dc5df6",
                 id="truncated_poly_circ(6)"),
])
def test_assembled_rows_are_pinned(bracket, nrows, digest):
    """The exact row list (row order, entry order within a row and every
    value) that the direct route hands to the solver at degrees 0..3."""
    unknowns, rows = assemble_cocycle_rows(bracket(), [0, 1, 2, 3])
    text = rows_text(unknowns, rows)
    assert len(rows) == nrows
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------- the streamed direct solve against its assembled rows ----------

def assert_solves_like_the_rows(bracket, degrees):
    """solve_cocycles_direct runs on the scaled bracket and skips settled
    unknowns; its basis, every entry and its type, must be the nullspace
    of the unscaled rows with nothing skipped."""
    unknowns, rows = assemble_cocycle_rows(bracket, degrees)
    sol = solve_cocycles_direct(bracket, degrees)
    want = linalg.nullspace(rows, len(unknowns))
    assert sol.unknowns == unknowns
    assert [[(type(x), x) for x in vec] for vec in sol.basis] \
        == [[(type(x), x) for x in vec] for vec in want]


@given(st.integers(0, 2 ** 32),
       st.lists(st.integers(0, 1), min_size=1, max_size=4),
       st.integers(0, 3),
       st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
@settings(deadline=None)
def test_the_direct_solve_is_the_nullspace_of_its_rows(seed, parities,
                                                       degree, degrees):
    """Drawn brackets with Fraction entries on a space with an odd
    generator, at drawn degree lists up to 5."""
    rng = random.Random(seed)
    parities[-1] = 1
    space = SuperSpace([("e%d" % i, p) for i, p in enumerate(parities)])
    bracket = gens.rand_lambda_bracket(rng, space, degree,
                                       rng.randint(1, 2 * space.dim ** 2))
    assert_solves_like_the_rows(bracket, degrees)


@pytest.mark.parametrize("name", sorted(
    f.name[:-4] for f in resources.files("confalg").joinpath("corpus")
    .iterdir() if f.name.endswith(".alg")))
def test_the_corpus_solves_like_its_rows(name):
    """Every corpus bracket, its parameters set to 1/2 so that rab and
    gd_final get Fraction entries, at degrees 0..5 and a gapped list."""
    af = gens.corpus(name + ".alg")
    bracket = af.substitute({p: Fraction(1, 2) for p in af.space.params}
                            ).conformal_bracket()
    for degrees in (range(6), [1, 3, 5]):
        assert_solves_like_the_rows(bracket, degrees)


def test_the_solve_streams_fewer_rows_than_it_assembles(monkeypatch):
    """On Q[x]/(x^5) the rows reach nullspace lazily, so those of later
    basis triples leave out what earlier ones settled: a list made before
    the solve would hand over every assembled row."""
    circ = gens.truncated_poly_circ(5)
    built = build_quadratic_bracket(circ, star_from_mode(circ, StarMode.DOUBLE),
                                    zero_map(circ.space, "bracket"))
    unknowns, rows = assemble_cocycle_rows(built, [0, 1, 2, 3])
    nullspace, streamed = linalg.nullspace, []

    def counting(given, ncols, settled=None):
        def counted():
            for row in given:
                streamed.append(row)
                yield row
        return nullspace(counted(), ncols, settled)

    monkeypatch.setattr(linalg, "nullspace", counting)
    sol = solve_cocycles_direct(built)
    assert sol.basis == nullspace(rows, len(unknowns))
    assert 0 < len(streamed) < len(rows) / 2
    assert sum(map(len, streamed)) < sum(map(len, rows)) / 2


CHECKER_PINS = {
    "rab.alg": [
        (("L", "L", "W"), "-2 l^4 - 4 l^3 m + 4 l m^3 + 2 m^4 - 2 a l^3 "
                          "+ 2 a m^3"),
        (("L", "W", "L"), "2 l^4 + 4 l^3 m - 4 l m^3 - 2 m^4 + 2 a l^3 "
                          "+ 6 a l^2 m + 6 a l m^2 + 2 a m^3"),
        (("L", "W", "W"), "-2 b l^3 - a^2 l - 2 a^2 m"),
        (("W", "L", "W"), "2 b m^3 + 3 l + 3 m + a"),
        (("W", "W", "L"), "2 b l^3 + 6 b l^2 m + 6 b l m^2 + 2 b m^3 - l "
                          "+ m"),
        (("W", "W", "W"), "(a^2 - 1/2) l^2 m + (3 a^2 - 3/2) l m^2 "
                          "+ (2 a^2 - 1) m^3 - a b l - 2 a b m + b"),
    ],
    "gd_final.alg": [
        (("L", "L", "W"), "a^2 l m + a m^2 + a l + m"),
        (("L", "W", "L"), "(a^2 - a) l^2 + (a^2 - 2 a) l m - a m^2 "
                          "+ (-a + 1) l + m"),
        (("L", "W", "W"), "(-a^3 + a^2 + 1/2 a - 1/2) l^3 + (-2 a^3 + 3 a^2 "
                          "+ a - 3/2) l^2 m + (3 a^2 - 3/2) l m^2 "
                          "+ (2 a^2 - 1) m^3"),
        (("W", "L", "L"), "a l + 2 a m"),
        (("W", "L", "W"), "(2 a^3 - 3 a^2 - a + 3/2) l^2 m + (2 a^3 - 3 a^2 "
                          "- a + 3/2) l m^2 + (a^3 - a^2 - 1/2 a + 1/2) m^3"),
        (("W", "W", "L"), "(a^3 - a^2 - 1/2 a + 1/2) l^3 + (a^3 - 1/2 a) "
                          "l^2 m + (a^3 - 1/2 a) l m^2 + (a^3 - a^2 - 1/2 a "
                          "+ 1/2) m^3"),
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


# ---------- pinned structured routes ----------

CORPUS_AT = {"rab.alg": {"a": 1, "b": -2}, "gd_final.alg": {"a": 2}}
CASE_SOLVERS = {
    "anl": lambda circ, bracket, fail_fast: solve_central_ext_anl(
        circ, bracket, fail_fast=fail_fast),
    "assoc-novikov": lambda circ, bracket, fail_fast:
        solve_central_ext_assoc_novikov(circ, fail_fast=fail_fast),
    "gd": lambda circ, bracket, fail_fast: solve_leibniz_central_ext_gd(
        circ, bracket, fail_fast=fail_fast),
    "novikov-lie": lambda circ, bracket, fail_fast:
        solve_leibniz_central_ext_gd(circ, case="novikov-lie",
                                     fail_fast=fail_fast),
}


def _route_text(solve):
    """The PreconditionError report of a structured solve, or its solution
    as (route, degrees, unknowns, basis, warnings), or None for no solve."""
    try:
        sol = solve()
    except PreconditionError as exc:
        return str(exc.report)
    if sol is None:
        return None
    return repr((sol.route, sol.degrees, sol.unknowns,
                 [[str(x) for x in vec] for vec in sol.basis], sol.warnings))


def test_structured_routes_are_pinned():
    """For every corpus file and every case: whether structured_route finds
    the case applicable, and what the structured solve gives, through
    structured_route and through the public solver, with and without
    fail_fast."""
    text = []
    files = sorted(f.name for f in
                   resources.files("confalg").joinpath("corpus").iterdir()
                   if f.name.endswith(".alg"))
    assert len(files) == 11
    for fname in files:
        af = gens.corpus(fname)
        if fname in CORPUS_AT:
            af = af.substitute(CORPUS_AT[fname])
        declared = af.conformal_bracket()
        for case in ("anl", "assoc-novikov", "gd", "novikov-lie"):
            for fail_fast in (False, True):
                routed = _route_text(lambda: structured_route(
                    declared, case, af.circ(), af.classical_bracket(),
                    fail_fast))
                reason = None if routed is not None else (
                    "structured route: not applicable (case %r builds a "
                    "different bracket from the one %r declares)"
                    % (case, af.name))
                text.append("%s %s %s: %s" % (fname, case, fail_fast,
                                              reason))
                if routed is not None:
                    text.append(routed)
                text.append(_route_text(
                    lambda: CASE_SOLVERS[case](af.circ(),
                                               af.classical_bracket(),
                                               fail_fast)))
    assert sum("not applicable" in line for line in text) == 62
    assert sum(line.startswith("('structured-") for line in text) == 102
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == ("1d5c3f9ada877f5d2ad551615682a134"
                      "108c64f7f29500338b16f394695863db")
