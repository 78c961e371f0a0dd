"""Coefficient (mode) algebras and induced mode 2-cocycles."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, LambdaBracket, VPoly,
                     Scalar, ModeExpr, CoeffAlgebra, check_coeff_leibniz,
                     PhiCocycle, build_phi_cocycles, check_phi_cocycle,
                     CocycleAnsatz, build_current,
                     solve_central_ext_assoc_novikov, extend_bracket,
                     check_lie_superalgebra)

import gens
from test_combination import SPACE, brackets, scalars


def witt():
    sp = SuperSpace([("L", 0)])
    br = LambdaBracket(sp)
    br.set_entry("L", "L", (VPoly.monomial(sp, "L", dd=1)
                            + VPoly.monomial(sp, "L", dl=1).scale(2)))
    return br


def r00_extension_pieces():
    space, circ, bracket = gens.rab_data(0, 0)
    built = gens.rab_bracket(0, 0)
    sol = solve_central_ext_assoc_novikov(circ)
    gamma = sol.ansatz(0) + sol.ansatz(1)   # degree-1 entries at (L,W), (W,W)
    beta = sol.ansatz(2) + sol.ansatz(3)    # degree-3 entries
    return built, gamma, beta


def test_mode_expr_basics():
    sp = gens.space_LW()
    x = ModeExpr.mode(sp, "L", 3) + ModeExpr.mode(sp, "W", -2, coeff=2)
    assert str(x) == "L[3] + 2 W[-2]"
    assert (x - x).is_zero()
    assert x.scale(2) == x + x


def test_killed_vectors_keep_only_mode_minus_one():
    sp = SuperSpace([("L", 0), ("c", 0)], killed=("c",))
    assert ModeExpr.mode(sp, "c", 0).is_zero()
    assert ModeExpr.mode(sp, "c", 3).is_zero()
    assert not ModeExpr.mode(sp, "c", -1).is_zero()


def test_witt_relations():
    """(d + 2l) self-bracket spreads into [L[m], L[n]] = (m-n) L[m+n-1]."""
    ca = CoeffAlgebra(witt())
    assert str(ca.mode_bracket_basis("L", 2, "L", 0)) == "2 L[1]"
    assert str(ca.mode_bracket_basis("L", -1, "L", 1)) == "-2 L[-1]"
    sp = ca.space
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert ca.mode_bracket_basis("L", m, "L", n) == ModeExpr(
                sp, {(0, m + n - 1): m - n})


def test_family_mode_table():
    """[L[m], W[n]] = (m-n) L[m+n-1] + a L[m+n] and
    [W[m], W[n]] = (m-n) W[m+n-1] + b L[m+n], with [W, L] and [L, L] zero."""
    br = gens.rab_bracket()
    sp = br.space
    a = Scalar.param("a", sp.params)
    b = Scalar.param("b", sp.params)
    ca = CoeffAlgebra(br)
    L, W = 0, 1
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert ca.mode_bracket_basis("L", m, "W", n) == ModeExpr(
                sp, {(L, m + n - 1): m - n, (L, m + n): a})
            assert ca.mode_bracket_basis("W", m, "W", n) == ModeExpr(
                sp, {(W, m + n - 1): m - n, (L, m + n): b})
            assert ca.mode_bracket_basis("W", m, "L", n).is_zero()
            assert ca.mode_bracket_basis("L", m, "L", n).is_zero()


def test_single_mode_bracket_helper():
    br = gens.rab_bracket()
    ca = CoeffAlgebra(br)
    assert str(ca.mode_bracket_basis("L", 2, "W", -1)) == "3 L[0] + a L[1]"
    assert str(ca.mode_bracket_basis("W", 3, "W", 0)) == "b L[3] + 3 W[2]"


def test_mode_bracket_is_bilinear():
    ca = CoeffAlgebra(gens.rab_bracket(1, -2))
    sp = ca.space
    u = ModeExpr.mode(sp, "L", 2) + ModeExpr.mode(sp, "W", 0, coeff=3)
    v = ModeExpr.mode(sp, "W", -1)
    direct = ca.mode_bracket(u, v)
    split = (ca.mode_bracket(("L", 2), v)
             + ca.mode_bracket(("W", 0), v).scale(3))
    assert direct == split


def test_mode_leibniz_on_grids():
    assert check_coeff_leibniz(witt(), range(-2, 3)).passed
    assert check_coeff_leibniz(gens.rab_bracket(0, 1), range(-2, 3)).passed
    rep = check_coeff_leibniz(gens.rab_bracket(-2, -2), range(-2, 3))
    assert rep.passed
    assert rep.checked == 8 * 125


def test_mode_leibniz_fails_for_a_bad_bracket():
    sp = SuperSpace([("e1", 0), ("e2", 0)])
    bad = GradedBilinearMap(sp, name="bracket")
    bad.set_entry("e1", "e1", {"e1": 1})
    assert not check_coeff_leibniz(build_current(bad), range(-1, 2),
                                   fail_fast=True).passed


def test_table_lines():
    ca = CoeffAlgebra(gens.rab_bracket())
    lines = ca.table_lines((-1, 1))
    assert "[L[-1], W[1]] = -2 L[-1] + a L[0]" in lines
    assert "[W[-1], W[-1]] = b L[-2]" in lines


def test_extension_modes_carry_the_central_terms():
    """The degree-3 cocycle contributes m(m-1)(m-2) c[-1] on the m+n = 2
    diagonal; the degree-1 cocycle contributes m c[-1] on m+n = 0."""
    built, gamma, beta = r00_extension_pieces()
    ext = extend_bracket(built, gamma + beta)
    ca = CoeffAlgebra(ext)
    sp = ext.space
    L, W, c = 0, 1, 2
    assert ca.mode_bracket_basis("L", 3, "W", -1) == ModeExpr(
        sp, {(L, 1): 4, (c, -1): 6})
    assert ca.mode_bracket_basis("L", 1, "W", -1) == ModeExpr(
        sp, {(L, -1): 2, (c, -1): 1})
    assert ca.mode_bracket_basis("W", 4, "W", -2) == ModeExpr(
        sp, {(W, 1): 6, (c, -1): 24})
    assert ca.check_leibniz(range(-2, 3)).passed


def test_phi_values():
    built, gamma, beta = r00_extension_pieces()
    phi_b = PhiCocycle(beta)
    phi_g = PhiCocycle(gamma)
    assert str(phi_b.value("L", 3, "W", -1)) == "6"
    assert phi_b.value("L", 1, "W", 0) == 0            # degree-2 entry absent
    assert str(phi_b.value("W", -1, "W", 3)) == "-6"   # falling(-1, 3) = -6
    assert str(phi_b.value("W", 4, "W", -2)) == "24"
    assert str(phi_g.value("L", 2, "W", -2)) == "2"
    assert phi_g.value("L", 2, "W", -1) == 0           # m + n != 0
    assert str(phi_b) == ("phi(L[m], W[n]) += m (m-1) (m-2) when m + n = 2; "
                          "phi(W[m], W[n]) += m (m-1) (m-2) when m + n = 2")


def test_phi_matches_the_central_part_of_the_extension():
    built, gamma, beta = r00_extension_pieces()
    both = gamma + beta
    phi = PhiCocycle(both)
    ext = extend_bracket(built, both)
    ca = CoeffAlgebra(ext)
    cidx = ext.space.index("c")
    for m in range(-3, 4):
        for n in range(-3, 4):
            for i in ("L", "W"):
                for j in ("L", "W"):
                    central = ca.mode_bracket_basis(i, m, j, n).terms.get(
                        (cidx, -1), Scalar.zero())
                    assert central == phi.value(i, m, j, n)


def test_phi_cocycle_checks():
    built, gamma, beta = r00_extension_pieces()
    ca = CoeffAlgebra(built)
    assert check_phi_cocycle(ca, PhiCocycle(beta), range(-2, 3)).passed
    assert check_phi_cocycle(ca, PhiCocycle(gamma), range(-2, 3)).passed

    bad = CocycleAnsatz(built.space, {})
    bad.set(2, "L", "W", 1)
    assert not check_phi_cocycle(ca, PhiCocycle(bad), range(-2, 3),
                                 fail_fast=True).passed


def test_build_phi_cocycles_from_solution_space():
    space, circ, bracket = gens.rab_data(0, 0)
    sol = solve_central_ext_assoc_novikov(circ)
    phis = build_phi_cocycles(sol)
    assert len(phis) == sol.dimension
    single = build_phi_cocycles(sol.ansatz(0))
    assert isinstance(single, PhiCocycle)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_current_modes_copy_the_classical_bracket(seed):
    """For a current algebra [a[m], b[n]] = [a, b][m+n]: every mode layer is
    a copy of the classical bracket."""
    rng = random.Random(seed)
    sp = gens.rand_space(rng, rng.randint(1, 3))
    cb = gens.rand_gbm(rng, sp)
    cur = build_current(cb)
    ca = CoeffAlgebra(cur)
    for i in range(sp.dim):
        for j in range(sp.dim):
            vec = cb.entry(i, j)
            for m in (-2, 0, 3):
                for n in (-1, 2):
                    expected = ModeExpr(cur.space,
                                        {(k, m + n): c for k, c in vec.items()})
                    assert ca.mode_bracket_basis(i, m, j, n) == expected


@st.composite
def ansatzes(draw):
    """A random polynomial cochain on the space of `brackets()` (not
    necessarily a cocycle)."""
    anz = CocycleAnsatz(SPACE, {})
    pairs = [(p, q) for p in range(SPACE.dim) for q in range(SPACE.dim)
             if (SPACE.parity(p) + SPACE.parity(q)) % 2 == 0]
    for t, (p, q) in draw(st.lists(st.tuples(st.integers(0, 3),
                                             st.sampled_from(pairs)),
                                   max_size=4)):
        anz.set(t, p, q, draw(scalars))
    return anz


def _snapshot(ca, keys):
    return {key: [(mode, list(c.terms.items()))
                  for mode, c in ca.mode_bracket_basis(*key).terms.items()]
            for key in keys}


@given(brackets(), ansatzes(), st.booleans())
@settings(max_examples=15, deadline=None)
def test_memoised_mode_brackets_match_fresh_ones(br, anz, fail_fast):
    """Every mode bracket a CoeffAlgebra hands out equals one computed by a
    new CoeffAlgebra, and running the checks leaves the stored ones as they
    were (the space has a killed vector and a parameter)."""
    grid = range(-2, 2)
    keys = list(itertools.product(range(SPACE.dim), grid,
                                  range(SPACE.dim), grid))
    ca = CoeffAlgebra(br)
    for key in keys:
        stored = ca.mode_bracket_basis(*key)
        fresh = CoeffAlgebra(br).mode_bracket_basis(*key)
        assert ca.mode_bracket_basis(*key) is stored
        assert stored == fresh
        assert list(stored.terms.items()) == list(fresh.terms.items())
    before = _snapshot(ca, keys)
    ca.table_lines(grid)
    ca.check_leibniz(grid, fail_fast=fail_fast)
    check_phi_cocycle(ca, PhiCocycle(anz), grid, fail_fast=fail_fast)
    assert _snapshot(ca, keys) == before
