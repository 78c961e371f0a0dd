"""The probe that certifies a basis triple's block of a mode Leibniz check.

coeff._probed_cells counts a basis triple's block of grid^3 cells as
passed when the check holds nothing on probe^3, probe the first 2D+1
distinct grid values, D the largest t + dd of a term d^dd l^t of the
bracket.  That rests on one premise: at a basis triple, the residual's
coefficient at key (k', s), the basis vector k' at the mode m+n+p-s, is a
polynomial of degree <= 2D in each of m, n and p.  So its (2D+1)-th
finite difference along each mode axis vanishes, which is tested here on
random lambda-brackets; one pinned bracket shows that the 2D-th need not,
so a probe of 2D values would not do.  The kernel is then compared with
the per-cell reference of test_mode_kernel on grids that stress the
probe: unsorted, with repeated values, with at most 2D+1 distinct values,
far from 0, with killed vectors (no probe) and 2-cocycles (no probe).
"""

import itertools
import math
import random

from hypothesis import given, settings, strategies as st

import gens
from confalg import (CocycleAnsatz, CoeffAlgebra, LambdaBracket, ModeExpr,
                     PhiCocycle, SuperSpace, VPoly, build_quadratic_bracket)
from confalg.superspace import sign

from test_mode_kernel import assert_like_the_reference, ref_leibniz
from test_report_counts import noncentral_killed


def depth(bracket):
    """D: the largest t + dd of a term d^dd l^t of the bracket."""
    return max((dd + dl for vp in bracket.entries.values()
                for _, dd, dl, _ in vp.terms), default=0)


def residual(ca, i, j, k, m, n, p):
    """Right Leibniz at (e_i[m], e_j[n], e_k[p]) from whole ModeExprs,
    keyed (k', s) for the term of e_k'[m+n+p-s]."""
    space = ca.space
    x, z = ModeExpr.mode(space, i, m), ModeExpr.mode(space, k, p)
    y = ModeExpr.mode(space, j, n)
    res = (ca.mode_bracket(x, ca.mode_bracket_basis(j, n, k, p))
           - ca.mode_bracket(ca.mode_bracket_basis(i, m, j, n), z))
    tail = ca.mode_bracket(ca.mode_bracket_basis(i, m, k, p), y)
    if sign(space.parity(j), space.parity(k)) == 1:
        res = res + tail
    else:
        res = res - tail
    return {(b, m + n + p - mode): c for (b, mode), c in res.terms.items()}


def difference(f, axis, base, order):
    """The order-th forward difference of f(m, n, p) along one mode axis
    at base, per key, without zeros."""
    out = {}
    for s in range(order + 1):
        cell = list(base)
        cell[axis] += s
        w = (-1) ** (order - s) * math.comb(order, s)
        for key, c in f(*cell).items():
            out[key] = out[key] + c * w if key in out else c * w
    return {key: c for key, c in out.items() if c}


@st.composite
def mode_brackets(draw, max_dim=3, killed=False):
    """A lambda-bracket from tests/gens.py: a random one on dims 1 to
    max_dim with odd generators, d- and l-powers 1 to 3, with killed
    vectors if asked and, over the parameter a, entries scaled by a
    coefficient linear in a (most fail right Leibniz); or the quadratic
    bracket of a passing or a violating instance of at most max_dim."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(['random', 'random', 'passing',
                                 'violating']))
    if kind != 'random':
        data = (gens.passing_quadratic_instance(rng) if kind == 'passing'
                else gens.violating_quadratic_instance(rng))
        if data.space.dim <= max_dim:
            return build_quadratic_bracket(data.circ, data.star,
                                           data.bracket)
    params = draw(st.sampled_from([(), ('a',)]))
    space = gens.rand_space(rng, draw(st.integers(1, max_dim)),
                            params=params, killed=killed)
    br = gens.rand_lambda_bracket(rng, space, draw(st.integers(1, 3)),
                                  draw(st.integers(1, 4)))
    if params:
        for (i, j), vp in list(br.entries.items()):
            br.set_entry(i, j, vp.scale(gens.rand_coeff(rng, space)))
    return br


@given(mode_brackets(), st.tuples(*[st.integers(-4, 4)] * 3))
@settings(deadline=None)
def test_the_residual_has_degree_at_most_2d_in_each_mode(br, base):
    """For every basis triple and residual key, the (2D+1)-th difference
    along each mode axis vanishes over 2D+2 consecutive modes."""
    ca = CoeffAlgebra(br)
    order = 2 * depth(br) + 1
    dims = range(br.space.dim)
    for i, j, k in itertools.product(dims, dims, dims):
        def f(m, n, p):
            return residual(ca, i, j, k, m, n, p)
        for axis in range(3):
            assert difference(f, axis, base, order) == {}, (i, j, k, axis)


def lambda_pair():
    """[x _l y] = [y _l x] = l x, so D = 1.  At (y, x, y) right Leibniz
    leaves -m (m - 1) x[m+n+p-2]: of degree 2D in m and zero on m = 0, 1."""
    sp = SuperSpace([("x", 0), ("y", 0)])
    br = LambdaBracket(sp)
    br.set_entry("x", "y", VPoly.monomial(sp, "x", dl=1))
    br.set_entry("y", "x", VPoly.monomial(sp, "x", dl=1))
    return br


def test_the_2d_th_difference_need_not_vanish():
    br = lambda_pair()
    ca = CoeffAlgebra(br)
    assert depth(br) == 1

    def f(m, n, p):
        return residual(ca, 1, 0, 1, m, n, p)
    for base in [(0, 0, 0), (-3, 2, 5)]:
        assert difference(f, 0, base, 2) == {(0, 2): -2}
        assert difference(f, 0, base, 3) == {}
    # the block of (y, x, y) holds nothing on {0, 1}^3 but fails at m = 2
    at = ("y", "x", "y")

    def fails(grid):
        return [f["at"] for f in ref_leibniz(br, grid, False).failures
                if tuple(name.split("[")[0] for name in f["at"]) == at]
    assert fails([0, 1]) == []
    assert fails([0, 1, 2]) == [("y[2]", "x[%d]" % n, "y[%d]" % p)
                                for n in range(3) for p in range(3)]


def test_the_kernel_certifies_only_from_2d_plus_1_distinct_values():
    """On grids that start with the two roots 0 and 1 of the pinned
    residual, a probe of 2D values, or one that counts the repeated 0
    twice, would certify the failing block of (y, x, y)."""
    br = lambda_pair()
    for grid in ([0, 1, 2, 3], [0, 1, 0, 2], [1, 0, 1, 0, 3, 2],
                 [0, 0, 1, 1, 2]):
        for fail_fast in (False, True):
            assert_like_the_reference(br, [], grid, fail_fast)


def test_a_killed_vector_is_checked_on_every_cell():
    """A killed vector keeps only the mode -1, so a residual through it is
    not polynomial in the modes: with -1 outside the probe (D = 1, probe
    0, 1, 2), every cell of every block is still evaluated."""
    br = noncentral_killed()
    phi = PhiCocycle(CocycleAnsatz(br.space, {(0, "L", "L"): 1,
                                              (1, "L", "c"): 1}))
    for grid in ([0, 1, 2, -1], [2, 1, 0, 3, -1, -2]):
        for fail_fast in (False, True):
            assert_like_the_reference(br, [phi], grid, fail_fast)


def ansatz(rng, space):
    """A random cochain (not a cocycle) on the even-parity pairs."""
    pairs = [(p, q) for p in range(space.dim) for q in range(space.dim)
             if (space.parity(p) + space.parity(q)) % 2 == 0]
    return CocycleAnsatz(space, {
        (rng.randint(0, 3), *rng.choice(pairs)): gens.rand_coeff(rng, space)
        for _ in range(rng.randint(0, 3))})


grids = st.builds(lambda values, shift: [v + shift for v in values],
                  st.lists(st.integers(-2, 2), min_size=1, max_size=5),
                  st.sampled_from([0, 0, 0, 41, -57]))


@given(mode_brackets(max_dim=2, killed=True), grids, st.booleans(),
       st.integers(0, 2 ** 32))
@settings(deadline=None)
def test_the_kernel_matches_the_reference_on_stress_grids(br, grid,
                                                          fail_fast, seed):
    """Unsorted grids with repeats (often at most 2D+1 distinct values),
    some far from 0, killed vectors and a 2-cocycle check; with and without
    fail_fast.  Without killed vectors, the first failure of every failing
    block has its modes in the probe: a polynomial of degree <= 2D in each
    mode that vanished on the cells before it would vanish on probe^3."""
    phi = PhiCocycle(ansatz(random.Random(seed), br.space))
    assert_like_the_reference(br, [phi], grid, fail_fast)
    if br.space.killed:
        return
    probe = list(dict.fromkeys(grid))[:2 * depth(br) + 1]
    first = {}
    for f in ref_leibniz(br, grid, False).failures:
        names = tuple(name.split("[")[0] for name in f["at"])
        first.setdefault(names, f["at"])
    for at in first.values():
        assert all(int(name.split("[")[1][:-1]) in probe for name in at)
