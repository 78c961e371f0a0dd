"""Parametric checks on packed ints (superspace._bound and _kronecker).

A check on a space with parameters runs on its integral ops with every
Scalar coefficient packed into one int by Kronecker substitution, and
unpacks each residual coefficient.  Pinned here: every registered system,
the averaging system and the three conformal identities report as the
dense reference of tests/dense.py does on Scalars, packed at any width;
the reference residuals lie inside the bound the engine chose; pack and
unpack are inverse up to the edges of the bound; two crafted systems come
within a factor of two of it; a system over the width rule is not packed;
and a coefficient that cannot be packed raises.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (GradedBilinearMap, LambdaBracket, Scalar,
                     ScalarError, SuperSpace, VPoly, check_averaging,
                     check_conformal_jacobi, check_conformal_leibniz,
                     check_conformal_skew, superspace)
from confalg.conformal import (BL, BM, CONFORMAL_JACOBI, CONFORMAL_LEIBNIZ,
                               CONFORMAL_SKEW, _ops)
from confalg.quadratic import AVERAGING_EQ, SUPERCOMMUTATIVITY, SYSTEMS
from confalg.superspace import (ASSOCIATIVITY, P, X, Y, Z, _bound,
                                _integral, _kronecker, _nodes, check_system)

import gens
from dense import dense_cells, ref_arity, ref_memoised, ref_residual

PARAMS = ("a", "b", "c")


# ---------- random data: odd generators, coefficients up to 10^6 ----------

def big_coeff(rng, space):
    """A random coefficient over the parameters of space, of degree up to
    two, with parts up to 10^6 in size over small denominators."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        expo = [0] * len(space.params)
        for _ in range(rng.randint(0, 2)):
            expo[rng.randrange(len(expo))] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                      rng.choice([1, 1, 2, 3, 7]))
    return Scalar(space.params, terms)


def enlarged(rng, op):
    """op with the same support and every coefficient a big_coeff."""
    space = op.space
    if isinstance(op, LambdaBracket):
        return LambdaBracket(space, {key: VPoly(space, {
            term: big_coeff(rng, space) for term in vp.terms})
            for key, vp in op.entries.items()})
    return type(op)(space, {key: {k: big_coeff(rng, space) for k in vec}
                            for key, vec in op.table.items()},
                    name=op.name)


def mixed_space(rng, dim, params):
    """A random space of dim >= 2 generators over params, at least one of
    them even and one odd, so that products can be nonzero."""
    base = gens.rand_space(rng, dim)
    parities = list(base.parities)
    even, odd = rng.sample(range(dim), 2)
    parities[even], parities[odd] = 0, 1
    return SuperSpace(list(zip(base.names, parities)), params=params)


def random_checks(rng, dim, nparams):
    """(name, run) for every registered system, the averaging system and
    the three conformal identities on random big-coefficient ops."""
    space = mixed_space(rng, dim, PARAMS[:nparams])
    maps = {name: enlarged(rng, gens.rand_gbm(rng, space, 0.5, name))
            for name in ("circ", "star", "bracket")}
    avg = enlarged(rng, gens.rand_linear_map(rng, space))
    bracket = enlarged(rng, gens.rand_lambda_bracket(rng, space, 2, dim))
    out = [(name, lambda ff, title=title, eqs=eqs, names=names: check_system(
        title, eqs, {n: maps[n] for n in names}, ff))
        for name, (title, eqs, names) in SYSTEMS.items()]
    out.append(("averaging",
                lambda ff: check_averaging(maps["circ"], avg, ff)))
    out += [(check.__name__, lambda ff, check=check: check(bracket, ff))
            for check in (check_conformal_skew, check_conformal_leibniz,
                          check_conformal_jacobi)]
    return out


def summary(rep):
    return (rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


def packed_calls():
    """A spy on superspace._kronecker, which a check calls once when it
    packs: (its patch, the list of the widths of its packings)."""
    widths, kronecker = [], superspace._kronecker

    def spy(params, bits, dims):
        widths.append(bits * math.prod(dims))
        return kronecker(params, bits, dims)
    return mock.patch.object(superspace, "_kronecker", spy), widths


@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_packed_checks_report_as_the_dense_reference(dim, nparams, seed):
    """Every check, packed at any width and under the width rule, reports
    as the dense loop on Scalars does, with and without fail_fast:
    verdict, count and residual strings."""
    for (name, run), fail_fast in itertools.product(
            random_checks(random.Random(seed), dim, nparams), (False, True)):
        with dense_cells():
            want = summary(run(fail_fast))
        spy, widths = packed_calls()
        with spy, mock.patch.object(superspace, "PACK_BITS", 10 ** 9):
            assert summary(run(fail_fast)) == want, name
        assert widths, name
        assert summary(run(fail_fast)) == want, name


# ---------- the bound ----------

def weighted(terms, scale):
    """An equation's terms raised by scale^(top - nodes), as _residuals
    raises them on integral ops."""
    top = max(_nodes(expr) for *_, expr in terms)
    return [(c * scale ** (top - _nodes(expr)), pairs, expr)
            for c, pairs, expr in terms]


def reference_coefficients(equations, ops):
    """(bits, dims) _bound chooses on ops made integral, and every
    parameter term (exponent, coefficient) of the dense reference
    residuals there, before the division by the scale."""
    space = next(iter(ops.values())).space
    ops, scale = _integral(ops)
    value, found = ref_memoised(space, ops), []
    for _, terms in equations:
        terms = weighted(terms, scale)
        for cell in itertools.product(range(space.dim),
                                      repeat=ref_arity(terms)):
            res = ref_residual(terms, space, cell, value)
            for _, c in res.items():
                found += (c.terms.items() if isinstance(c, Scalar)
                          else [((0,) * len(space.params), c)])
    return _bound(equations, ops, scale), found


@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_reference_residuals_lie_inside_the_bound(dim, nparams, seed):
    """Every coefficient of every reference residual is below B/2 in size
    and of a_i-degree below D_i, for the (B, D) of each check."""
    rng = random.Random(seed)
    space = mixed_space(rng, dim, PARAMS[:nparams])
    maps = {name: enlarged(rng, gens.rand_gbm(rng, space, 0.5, name))
            for name in ("circ", "star", "bracket")}
    avg = enlarged(rng, gens.rand_linear_map(rng, space))
    bracket = enlarged(rng, gens.rand_lambda_bracket(rng, space, 2, dim))
    systems = [(eqs, {n: maps[n] for n in names})
               for _, eqs, names in SYSTEMS.values()]
    systems.append(([SUPERCOMMUTATIVITY, ASSOCIATIVITY, AVERAGING_EQ],
                    {"product": maps["circ"], "avg": avg}))
    systems.append(([CONFORMAL_SKEW, CONFORMAL_LEIBNIZ, CONFORMAL_JACOBI],
                    _ops(bracket)))
    for equations, ops in systems:
        (bits, dims), found = reference_coefficients(equations, ops)
        for expo, c in found:
            assert type(c) is int and abs(c) < 2 ** (bits - 1)
            assert all(e < d for e, d in zip(expo, dims))


@given(st.integers(1, 3), st.integers(1, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_pack_and_unpack_are_inverse_up_to_the_edges(nparams, bits, data):
    """A polynomial with a coefficient at every position of dims, each
    between -(B/2 - 1) and B/2 - 1 and the two edges among them, and its
    degree D_i - 1 in every parameter, comes back from its packing."""
    params = PARAMS[:nparams]
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=nparams,
                                    max_size=nparams)))
    pack, unpack = _kronecker(params, bits, dims)
    edge = 2 ** (bits - 1) - 1
    positions = list(itertools.product(*map(range, dims)))
    for fill in (edge, -edge, None):
        terms = {expo: fill if fill is not None else data.draw(
            st.integers(-edge, edge)) for expo in positions}
        poly = Scalar(params, terms)
        assert unpack(pack(poly)) == poly
    top = tuple(d - 1 for d in dims)
    for c in (edge, -edge):
        assert unpack(pack(Scalar(params, {top: c}))).terms == (
            {top: c} if c else {})


def crafted_product():
    """One product entry e0 e0 = c a b e0 and one equation 3 (x y) z:
    the residual 3 c^2 a^2 b^2 e0 is the bound itself."""
    space = SuperSpace([("e0", 0)], params=("a", "b"))
    a, b = Scalar.parameters("a", "b")
    product = GradedBilinearMap(space, {("e0", "e0"): {
        "e0": Fraction(10 ** 6 - 3, 7) * a * b}}, name="product")
    return [("tight", [(3, (), P(P(X, Y), Z))])], {"product": product}


def crafted_bracket():
    """One lambda-bracket entry [e0 _l e0] = c a d^2 e0 and one equation
    [x _m [y _l z]]: the residual c^2 a^2 (d + m)^2 d^2 e0 has a
    coefficient of half the bound, which counts W^2 = 4 for (d + m)^2."""
    space = SuperSpace([("e0", 0)], params=("a",))
    a, = Scalar.parameters("a")
    bracket = LambdaBracket(space, {("e0", "e0"): VPoly.monomial(
        space, "e0", dd=2, coeff=Fraction(10 ** 6 - 3, 7) * a)})
    return [("spread", [(1, (), BM(X, BL(Y, Z)))])], _ops(bracket)


@pytest.mark.parametrize("crafted, share, residual", [
    (crafted_product, 4,
     "2999982000027/49 a^2 b^2 e0"),
    (crafted_bracket, 8,
     "((999994000009/49 a^2) d^4 + (1999988000018/49 a^2) d^3 m"
     " + (999994000009/49 a^2) d^2 m^2) e0"),
])
def test_a_residual_near_the_bound_unpacks_exactly(crafted, share,
                                                   residual):
    """The largest residual coefficient is at least B/share (B/4: the
    bound itself, B/8: half of it), and the residual string is pinned."""
    equations, ops = crafted()
    (bits, dims), found = reference_coefficients(equations, ops)
    assert max(abs(c) for _, c in found) * share >= 2 ** bits
    spy, widths = packed_calls()
    with spy:
        rep = check_system("crafted", equations, ops)
    assert widths == [bits * math.prod(dims)]
    assert [f["residual"] for f in rep.failures] == [residual]


# ---------- the width rule and the precondition ----------

def test_a_check_over_the_width_rule_runs_on_scalars():
    """Eight parameters of degree one put a t-system past PACK_BITS: it is
    not packed, and reports as the dense reference."""
    rng = random.Random(8)
    space = mixed_space(rng, 3, tuple("abcdefgh"))
    maps = {name: gens.rand_gbm(rng, space, 0.5, name)
            for name in ("circ", "star", "bracket")}
    title, equations, names = SYSTEMS['t']
    ops = {n: maps[n] for n in names}
    scaled, scale = _integral(ops)
    bits, dims = _bound(equations, scaled, scale)
    assert bits * math.prod(dims) > superspace.PACK_BITS
    spy, widths = packed_calls()
    with spy:
        got = summary(check_system(title, equations, ops))
    assert widths == []
    with dense_cells():
        assert got == summary(check_system(title, equations, ops))
    assert not got[0]


def test_a_coefficient_that_cannot_be_packed_raises():
    """The packing precondition is an exception, so python -O keeps it:
    ops that reach it with a Fraction coefficient raise ScalarError."""
    space = SuperSpace([("e0", 0)], params=("a",))
    a, = Scalar.parameters("a")
    product = GradedBilinearMap(space, {("e0", "e0"): {
        "e0": Fraction(1, 2) * a}}, name="product")
    equations = [("tight", [(1, (), P(P(X, Y), Z))])]
    with pytest.raises(ScalarError):
        _bound(equations, {"product": product}, 1)
    with mock.patch.object(superspace, "_integral",
                           lambda ops: (dict(ops), 1)):
        with pytest.raises(ScalarError):
            check_system("tight", equations, {"product": product})
