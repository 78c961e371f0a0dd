"""One coefficient interface: bare rationals on a space without parameters
(an int when integral, else a Fraction), Scalars only where parameters
exist, and the same verdicts either way."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (CoeffAlgebra, GradedBilinearMap, ModeExpr,
                     PreconditionError, Scalar, ScalarError, SuperSpace,
                     StarMode, VPoly, as_rational, assemble_cocycle_rows,
                     build_quadratic_bracket, check_conformal_leibniz,
                     solve_cocycles_direct, star_from_mode)
from confalg import linalg
from confalg.cli import main
from confalg.conformal import CONFORMAL_LEIBNIZ, _ops
from confalg.extensions import CASES, _alpha_rows, solve_structured
from confalg.quadratic import SYSTEMS
from confalg.superspace import check_system

import gens
from dense import ref_arity, ref_memoised, ref_residual

GRID = range(-2, 3)


def all_rationals(values):
    """Every value an int or a Fraction: never a float, a bool or a Scalar.
    (Arithmetic may leave an integral value a Fraction.)"""
    return all(type(c) in (int, Fraction) for c in values)


def all_switched(values):
    """Every value as the switch gives it: an int when integral, else a
    Fraction with a denominator above 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in values)


def test_the_switch_is_an_empty_parameter_tuple():
    for value in (Scalar.rational(3, ()), Scalar.zero(()), Scalar.one(()),
                  Scalar.coerce(2, ()), Scalar.coerce(Fraction(4, 2), ()),
                  Scalar.rational(Fraction(-3), ()), Scalar.coerce(True, ())):
        assert type(value) is int
    assert Scalar.coerce(True, ()) == 1
    for value in (Scalar.coerce(Fraction(1, 2), ()),
                  Scalar.rational(Fraction(-4, 6), ())):
        assert type(value) is Fraction
    a, b = Scalar.parameters("a", "b")
    assert type(Scalar.zero(("a",))) is Scalar
    assert all_switched(Scalar(("a",), {(0,): Fraction(6, 3), (1,): True,
                                        (2,): Fraction(1, 2)}).terms.values())
    assert type((a * b + 1).substitute({"a": 2, "b": 3})) is int
    assert type((a * b + 1).substitute({"a": Fraction(1, 2), "b": 3})) \
        is Fraction
    assert type((a * b).substitute({"a": 2})) is Scalar
    assert as_rational(Fraction(2, 3)) == Fraction(2, 3)
    assert as_rational(a - a + 2) == 2
    assert as_rational(a) is None
    with pytest.raises(ScalarError):
        Scalar.coerce(a, ())        # a parameter cannot become a Fraction
    with pytest.raises(ScalarError):
        Scalar((), {(): 1})         # nor can a Scalar lose its parameters
    with pytest.raises(ScalarError):
        a + Scalar.param("a", ("a",))


@given(st.integers(0, 10 ** 6), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_coefficients_are_int_or_fraction_never_float_bool_or_scalar(
        seed, dim):
    """Tables, vectors and bracket entries hold each coefficient as the
    switch gives it (test_no_float_reaches_a_coefficient covers what
    arithmetic makes from them)."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    circ, star, bracket = (gens.rand_gbm(rng, space, name=name)
                           for name in ("circ", "star", "bracket"))
    for i in range(dim):
        assert all_switched(space.basis_vec(i).values())
        assert all_switched(space.basis_vec(i, Fraction(2)).values())
    for gbm in (circ, star, bracket):
        for vec in gbm.table.values():
            assert all_switched(vec.values())
    built = build_quadratic_bracket(circ, star, bracket)
    for vp in built.entries.values():
        assert all_switched(vp.terms.values())


# ---------- no float anywhere ----------

@given(st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_no_float_reaches_a_coefficient(seed, dim):
    """Parameter-free data with odd generators and non-integral constants:
    every vector, VPoly entry, mode bracket, cocycle row, reduced row,
    nullspace vector, cocycle basis and substituted Scalar holds ints and
    Fractions only."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    ops = {name: gens.rand_gbm(rng, space, density=0.7, name=name)
           for name in ("circ", "star", "bracket")}
    vectors = [space.basis_vec(i, gens.rand_fraction(rng, nonzero=True))
               for i in range(dim)]
    for gbm in ops.values():
        for u, v in itertools.product(vectors, repeat=2):
            assert all_rationals(gbm.apply_vec(u, v).values())
    built = build_quadratic_bracket(ops["circ"], ops["star"], ops["bracket"])
    for vp in built.entries.values():
        assert all_rationals(vp.terms.values())

    coeff = CoeffAlgebra(built)
    for i, j, m, n in itertools.product(range(dim), range(dim), GRID, GRID):
        assert all_rationals(coeff.mode_bracket_basis(i, m, j, n)
                             .terms.values())
    modes = ModeExpr(space, {(i, m): gens.rand_fraction(rng)
                             for i in range(dim) for m in (-1, 1)})
    assert all_rationals(coeff.mode_bracket(modes, modes).terms.values())

    degrees = [0, 1, 2]
    unknowns, rows = assemble_cocycle_rows(built, degrees)
    for system in (case[2] for case in CASES.values()):
        rows += _alpha_rows(system, ops, space, degrees)[1]
    assert all(all_rationals(row.values()) for row in rows)
    _, reduced = linalg.rref(rows)
    assert all(all_rationals(row.values()) for row in reduced.values())
    assert all(all_rationals(vec)
               for vec in linalg.nullspace(rows, len(unknowns)))

    sol = solve_cocycles_direct(built, degrees)
    for basis in (sol.basis, sol.up_to(1).basis, sol.embed([0, 1, 2, 3]).basis,
                  sol.reduced_basis()):
        assert all(all_rationals(vec) for vec in basis)
    data = gens.passing_quadratic_instance(rng)
    for case in CASES:
        try:
            structured = solve_structured(case, data.circ, data.bracket)
        except PreconditionError:
            continue
        assert all(all_rationals(vec) for vec in structured.basis)

    a, = Scalar.parameters("a")
    for vec in ops["circ"].table.values():
        poly = sum((c * a ** k for k, c in enumerate(vec.values())),
                   Scalar.zero(("a",)))
        assert all_rationals([poly.substitute({"a": gens.rand_fraction(rng)}),
                              poly.substitute({"a": 2})])


def test_the_final_division_is_exact():
    """rref divides each integer row by its lead once, when it returns: a
    lead of 2 or 3 leaves Fractions, never a float from int / int."""
    pivots, reduced = linalg.rref([{0: 2, 1: 3}, {1: 3, 2: 1}])
    assert pivots == [0, 1]
    assert reduced == {0: {0: 1, 2: Fraction(-1, 2)},
                       1: {1: 1, 2: Fraction(1, 3)}}
    assert all(all_rationals(row.values()) for row in reduced.values())
    assert linalg.nullspace([{0: 2, 1: 3}, {1: 3, 2: 1}], 3) \
        == [(Fraction(1, 2), Fraction(-1, 3), 1)]


# ---------- the two representations agree ----------

def substituted(terms, point):
    """terms with every coefficient substituted at point, zeros left out;
    every value left is a bare number as the switch gives it."""
    out = {k: c.substitute(point) for k, c in terms.items()}
    out = {k: c for k, c in out.items() if c}
    assert all_switched(out.values())
    return out


def rand_parametric_gbm(rng, space, name):
    """A graded bilinear map whose entries are random affine functions of
    the space's parameters."""
    params = [Scalar.param(p, space.params) for p in space.params]
    gbm = GradedBilinearMap(space, name=name)
    for i, j in itertools.product(range(space.dim), repeat=2):
        want = (space.parity(i) + space.parity(j)) % 2
        vec = {k: gens.rand_fraction(rng) + sum(
                   gens.rand_fraction(rng) * p for p in params)
               for k in range(space.dim)
               if space.parity(k) == want and rng.random() < 0.6}
        gbm.set_entry(i, j, vec)
    return gbm


def expected_failures(equations, ops, point):
    """The failures of a system on ops, each residual substituted at point."""
    space = next(iter(ops.values())).space
    space_at = space.substitute_params(point)
    value = ref_memoised(space, ops)
    out = []
    for name, terms in equations:
        arity = ref_arity(terms)
        for cell in itertools.product(range(space.dim), repeat=arity):
            res = substituted(ref_residual(terms, space, cell, value), point)
            if res:
                out.append((name, tuple(space.names[i] for i in cell),
                            space_at.vec_str(res)))
    return out


def assert_representations_agree(circ, star, bracket, point):
    """Check reports and mode brackets of parametric data, substituted at
    point, equal those of the data substituted first."""
    ops = {"circ": circ, "star": star, "bracket": bracket}
    at = {name: gbm.substitute_params(point) for name, gbm in ops.items()}
    assert at["circ"].space.params == ()
    for title, equations, names in SYSTEMS.values():
        report = check_system(title, equations, {n: at[n] for n in names})
        assert [(f["identity"], f["at"], f["residual"])
                for f in report.failures] == expected_failures(
                    equations, {n: ops[n] for n in names}, point)

    built = build_quadratic_bracket(circ, star, bracket)
    built_at = build_quadratic_bracket(at["circ"], at["star"], at["bracket"])
    space_at = built_at.space
    value = ref_memoised(built.space, _ops(built))
    failures = []
    for cell in itertools.product(range(space_at.dim), repeat=3):
        res = substituted(ref_residual(CONFORMAL_LEIBNIZ[1], built.space,
                                       cell, value).terms, point)
        if res:
            failures.append(("conformal Leibniz",
                             tuple(space_at.names[i] for i in cell),
                             str(VPoly(space_at, res))))
    report = check_conformal_leibniz(built_at)
    assert [(f["identity"], f["at"], f["residual"])
            for f in report.failures] == failures

    coeff, coeff_at = CoeffAlgebra(built), CoeffAlgebra(built_at)
    dims = range(space_at.dim)
    for i, j, m, n in itertools.product(dims, dims, GRID, GRID):
        direct = coeff_at.mode_bracket_basis(i, m, j, n).terms
        assert all_rationals(direct.values())
        assert substituted(coeff.mode_bracket_basis(i, m, j, n).terms,
                           point) == direct


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=12, deadline=None)
def test_substituting_first_or_last_gives_the_same_reports(seed, dim,
                                                           nparams):
    rng = random.Random(seed)
    params = ("a", "b")[:nparams]
    space = SuperSpace([("e%d" % i, rng.randint(0, 1)) for i in range(dim)],
                       params=params)
    circ, star, bracket = (rand_parametric_gbm(rng, space, name)
                           for name in ("circ", "star", "bracket"))
    point = {p: gens.rand_fraction(rng) for p in params}
    assert_representations_agree(circ, star, bracket, point)


def test_corpus_families_substitute_to_the_same_reports():
    for name, point in (("rab.alg", {"a": 1, "b": Fraction(-2)}),
                        ("gd_final.alg", {"a": Fraction(2)})):
        af = gens.corpus(name)
        circ = af.circ()
        star = af.star() or star_from_mode(circ, StarMode.DOUBLE)
        assert_representations_agree(circ, star, af.classical_bracket(),
                                     point)


# ---------- no Scalar without parameters ----------

CORPUS_AT = {"rab": "a=1,b=-2", "gd_final": "a=2"}
CORPUS = ("avg_x3", "circ0_sq", "cur_leib", "cur_lie", "fpoly",
          "fpoly_nonlie", "gd_final", "r00", "rab", "star0_sq", "virasoro")
COMMANDS = (["verify-conformal", "--kind", "lie"],
            ["verify-conformal", "--kind", "leibniz"],
            ["check-structure", "--which", "t"],
            ["check-structure", "--which", "gd"],
            ["check-structure", "--which", "averaging"],
            ["classify-brackets"],
            ["central-ext", "--case", "anl"],
            ["central-ext", "--case", "novikov-lie"],
            ["coeff", "--grid", "-1..1", "--verify", "--phi",
             "from-central-ext", "--case", "assoc-novikov"],
            ["coeff", "--grid", "-1..1", "--phi", "from-central-ext",
             "--case", "gd"])


def test_no_scalar_without_parameters_on_the_corpus(monkeypatch, capsys):
    seen = set()    # the parameter tuple of every Scalar built
    trusted, init = Scalar._trusted.__func__, Scalar.__init__

    def watched_trusted(cls, params, terms):
        seen.add(tuple(params))
        return trusted(cls, params, terms)

    def watched_init(self, params=(), terms=None):
        seen.add(tuple(params))
        init(self, params, terms)

    monkeypatch.setattr(Scalar, "_trusted", classmethod(watched_trusted))
    monkeypatch.setattr(Scalar, "__init__", watched_init)
    for name in CORPUS:
        at = ["--at", CORPUS_AT[name]] if name in CORPUS_AT else []
        for command in COMMANDS:
            main(command + [name] + at)
        if at:
            assert main(["verify-conformal", name]) == 0
    capsys.readouterr()
    assert {("a", "b"), ("a",), ("t0", "t1")} <= seen
    assert () not in seen
