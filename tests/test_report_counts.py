"""Instance counts, failure records and fail-fast stopping points of the
composite identity checks, pinned on inputs that fail.

A composite check runs several identities into one report; these tests fix
which parts run, how many instances each contributes to `checked`, and
where `fail_fast` stops, so the shared bookkeeping cannot drift.
"""

import pytest

from confalg import (SuperSpace, GradedBilinearMap, LinearMap, LambdaBracket,
                     VPoly, CoeffAlgebra, CocycleAnsatz, PhiCocycle,
                     check_lie_superalgebra, check_gd_bialgebra,
                     check_averaging, check_conformal_sesquilinearity,
                     check_phi_cocycle, check_leibniz_superalgebra,
                     check_left_leibniz_superalgebra)
from confalg.cli import _load

from test_mode_kernel import ref_leibniz


def space_xyz():
    return SuperSpace([("x", 0), ("y", 1), ("z", 0)])


def skew_broken(sp):
    """Fails skew-symmetry at (x, x) only."""
    return GradedBilinearMap(sp, {("x", "x"): {"z": 1}, ("x", "y"): {"y": 1},
                                  ("y", "x"): {"y": -1}, ("y", "y"): {"x": 1},
                                  ("z", "x"): {"x": 1}, ("x", "z"): {"x": -1}})


def jacobi_broken(sp):
    """Skew-symmetric, but the Jacobi identity fails."""
    return GradedBilinearMap(sp, {("x", "z"): {"x": 1}, ("z", "x"): {"x": -1},
                                  ("y", "y"): {"z": 1}, ("x", "y"): {"y": 1},
                                  ("y", "x"): {"y": -1}})


def product(sp):
    """Neither supercommutative, associative nor Novikov."""
    return GradedBilinearMap(sp, {("x", "x"): {"x": 1}, ("x", "z"): {"z": 1},
                                  ("z", "x"): {"x": 1}, ("y", "y"): {"z": 1}})


def summary(rep):
    return (rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


JACOBI_FAILURES = [
    ("left Leibniz", ("x", "y", "y"), "x - 2 z"),
    ("left Leibniz", ("x", "y", "z"), "y"),
    ("left Leibniz", ("x", "z", "y"), "-y"),
    ("left Leibniz", ("y", "x", "y"), "-x + 2 z"),
    ("left Leibniz", ("y", "x", "z"), "-y"),
    ("left Leibniz", ("y", "y", "x"), "x - 2 z"),
    ("left Leibniz", ("y", "z", "x"), "y"),
    ("left Leibniz", ("z", "x", "y"), "y"),
    ("left Leibniz", ("z", "y", "x"), "-y"),
]


# Skew-broken bracket: the Jacobi failures found after the skew failure.
SKEW_BROKEN_JACOBI_FAILURES = [
    ("left Leibniz", ("x", "x", "x"), "-x"),
    ("left Leibniz", ("x", "y", "y"), "-2 x + z"),
    ("left Leibniz", ("x", "y", "z"), "-y"),
    ("left Leibniz", ("x", "z", "x"), "2 z"),
    ("left Leibniz", ("x", "z", "y"), "y"),
    ("left Leibniz", ("y", "x", "y"), "2 x - z"),
    ("left Leibniz", ("y", "x", "z"), "y"),
    ("left Leibniz", ("y", "y", "x"), "-2 x - z"),
    ("left Leibniz", ("y", "y", "y"), "-3 y"),
    ("left Leibniz", ("y", "y", "z"), "x"),
    ("left Leibniz", ("y", "z", "x"), "-y"),
    ("left Leibniz", ("y", "z", "y"), "-x"),
    ("left Leibniz", ("z", "x", "x"), "-2 z"),
    ("left Leibniz", ("z", "x", "y"), "-y"),
    ("left Leibniz", ("z", "y", "x"), "y"),
    ("left Leibniz", ("z", "y", "y"), "x"),
]


# The Lie check runs skew-symmetry, then the Jacobi identity; the
# Gelfand-Dorfman check runs the Lie part, then its product equations.  With
# fail_fast off every part runs whatever failed before it (9 skew + 27
# Jacobi instances); with fail_fast on the first failure ends the check.
@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 36, [("skew-symmetry", ("x", "x"), "2 z")]
             + SKEW_BROKEN_JACOBI_FAILURES)),
    (True, (False, 1, [("skew-symmetry", ("x", "x"), "2 z")])),
])
def test_lie_superalgebra_stops_after_failed_skew(fail_fast, expected):
    sp = space_xyz()
    assert summary(check_lie_superalgebra(skew_broken(sp),
                                          fail_fast=fail_fast)) == expected


@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 36, JACOBI_FAILURES)),
    (True, (False, 14, JACOBI_FAILURES[:1])),
])
def test_lie_superalgebra_jacobi_part(fail_fast, expected):
    sp = space_xyz()
    assert summary(check_lie_superalgebra(jacobi_broken(sp),
                                          fail_fast=fail_fast)) == expected


NOVIKOV_FAILURES = [
    ("nov1", ("x", "x", "z"), "-x + z"),
    ("nov1", ("x", "z", "x"), "x - z"),
    ("nov1", ("y", "x", "y"), "-x"),
    ("nov1", ("y", "y", "x"), "x"),
    ("nov1", ("z", "x", "z"), "z"),
    ("nov1", ("z", "z", "x"), "-z"),
    ("nov2", ("x", "y", "y"), "-z"),
    ("nov2", ("x", "z", "z"), "-z"),
    ("nov2", ("y", "x", "y"), "z"),
    ("nov2", ("y", "y", "x"), "2 x"),
    ("nov2", ("z", "x", "z"), "z"),
]


# The compatibility failures of product() with jacobi_broken().
COMPAT_FAILURES = [
    ("product-bracket compatibility", ("x", "x", "y"), "y"),
    ("product-bracket compatibility", ("x", "y", "x"), "-y"),
    ("product-bracket compatibility", ("x", "y", "y"), "z"),
    ("product-bracket compatibility", ("y", "x", "y"), "-2 z"),
    ("product-bracket compatibility", ("y", "y", "x"), "2 z"),
    ("product-bracket compatibility", ("z", "x", "y"), "y"),
    ("product-bracket compatibility", ("z", "x", "z"), "-z"),
    ("product-bracket compatibility", ("z", "y", "x"), "-y"),
    ("product-bracket compatibility", ("z", "z", "x"), "z"),
]


@pytest.mark.parametrize("fail_fast, expected", [
    # 9 skew + 27 Jacobi + 3 equations x 27 triples
    (False, (False, 117,
             JACOBI_FAILURES + NOVIKOV_FAILURES + COMPAT_FAILURES)),
    (True, (False, 14, JACOBI_FAILURES[:1])),
])
def test_gd_bialgebra_with_failing_lie_part(fail_fast, expected):
    sp = space_xyz()
    assert summary(check_gd_bialgebra(product(sp), jacobi_broken(sp),
                                      fail_fast=fail_fast)) == expected


@pytest.mark.parametrize("fail_fast, expected", [
    # 9 skew + 27 Jacobi + 3 equations x 27 triples
    (False, (False, 117, NOVIKOV_FAILURES)),
    (True, (False, 39, NOVIKOV_FAILURES[:1])),
])
def test_gd_bialgebra_with_failing_products(fail_fast, expected):
    sp = space_xyz()
    assert summary(check_gd_bialgebra(product(sp), GradedBilinearMap(sp),
                                      fail_fast=fail_fast)) == expected


# Every term of right Leibniz is zero on all cells but (y, x, y), (y, y, x)
# and (z, z, x), the 11th, 13th and 25th of 27: the cells around them are
# skipped, yet count as passed instances, and fail_fast stops at the 11th.
@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 27, [("right Leibniz", ("y", "x", "y"), "x"),
                         ("right Leibniz", ("y", "y", "x"), "-x"),
                         ("right Leibniz", ("z", "z", "x"), "x")])),
    (True, (False, 11, [("right Leibniz", ("y", "x", "y"), "x")])),
])
def test_fail_fast_stops_between_skipped_cells(fail_fast, expected):
    sp = space_xyz()
    br = GradedBilinearMap(sp, {("y", "y"): {"z": 1}, ("z", "x"): {"x": 1}})
    assert summary(check_leibniz_superalgebra(
        br, fail_fast=fail_fast)) == expected


# Only the last cell, (z, z, z), can hold a nonzero term, and it fails.
@pytest.mark.parametrize("fail_fast", [False, True])
def test_a_failure_at_the_last_cell_counts_every_cell(fail_fast):
    sp = space_xyz()
    br = GradedBilinearMap(sp, {("z", "z"): {"z": 1}})
    assert summary(check_left_leibniz_superalgebra(
        br, fail_fast=fail_fast)) == (
            False, 27, [("left Leibniz", ("z", "z", "z"), "-z")])


# Both product checks run (each stopping at its own first failure under
# fail_fast) before the averaging identity is reached.
@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 45, [
        ("supercommutativity", ("x", "z"), "-x + z"),
        ("supercommutativity", ("y", "y"), "2 z"),
        ("supercommutativity", ("z", "x"), "x - z"),
        ("associativity", ("x", "y", "y"), "-z"),
        ("associativity", ("y", "y", "x"), "x"),
        ("associativity", ("z", "x", "z"), "z"),
        ("associativity", ("z", "z", "x"), "-x"),
        ("averaging identity", ("x", "x"), "z"),
        ("averaging identity", ("x", "z"), "-x"),
        ("averaging identity", ("z", "x"), "z"),
        ("averaging identity", ("z", "z"), "-x"),
    ])),
    (True, (False, 8, [
        ("supercommutativity", ("x", "z"), "-x + z"),
        ("associativity", ("x", "y", "y"), "-z"),
    ])),
])
def test_averaging_runs_both_product_checks(fail_fast, expected):
    sp = space_xyz()
    avg = LinearMap(sp, {"x": {"z": 1}, "z": {"x": 1, "z": 1}})
    assert summary(check_averaging(product(sp), avg,
                                   fail_fast=fail_fast)) == expected


# A killed vector with a nonzero bracket breaks sesquilinearity; the cell
# (c, c) fails in both slots but counts as one instance.
@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 4, [
        ("sesquilinearity (second slot)", ("a", "c"), "(-d l - l^2) a"),
        ("sesquilinearity (first slot)", ("c", "c"), "l a"),
        ("sesquilinearity (second slot)", ("c", "c"), "(-d - l) a"),
    ])),
    (True, (False, 2, [
        ("sesquilinearity (second slot)", ("a", "c"), "(-d l - l^2) a"),
    ])),
])
def test_sesquilinearity_counts_each_cell_once(fail_fast, expected):
    sp = SuperSpace([("a", 0), ("c", 0)], killed=("c",))
    br = LambdaBracket(sp)
    br.set_entry("c", "c", VPoly.monomial(sp, "a"))
    br.set_entry("a", "c", VPoly.monomial(sp, "a", dl=1))
    assert summary(check_conformal_sesquilinearity(
        br, fail_fast=fail_fast)) == expected


@pytest.mark.parametrize("fail_fast, checked, count", [
    (False, 216, 48),
    (True, 2, 1),
])
def test_mode_leibniz_counts(fail_fast, checked, count):
    sp = SuperSpace([("a", 0), ("b", 0)])
    br = LambdaBracket(sp)
    br.set_entry("a", "a", VPoly.monomial(sp, "b"))
    br.set_entry("b", "a", VPoly.monomial(sp, "a", dl=1))
    passed, n, failures = summary(CoeffAlgebra(br).check_leibniz(
        range(-1, 2), fail_fast=fail_fast))
    assert (passed, n, len(failures)) == (False, checked, count)
    assert failures[0] == ("right Leibniz", ("a[-1]", "a[-1]", "a[0]"),
                           "a[-3]")
    if not fail_fast:
        assert failures[1] == ("right Leibniz", ("a[-1]", "a[-1]", "a[1]"),
                               "2 a[-2]")
        assert failures[-1] == ("right Leibniz", ("b[1]", "b[1]", "a[1]"),
                                "a[1]")


# [x _l y] = [y _l x] = l x has D = 1, so the probe of the unsorted grid
# 2, 0, 2, 1, 3 is 2, 0, 1, and 3 lies outside it.  The blocks of (x, x, x),
# (x, x, y) and (x, y, x) hold nothing and count as 3 * 125 cells; the
# block of (x, y, y) fails first at its 2nd cell, the 377th, with the
# repeated 2 counted twice.  Its failures at the mode 3 are found too.
@pytest.mark.parametrize("fail_fast, checked, count", [
    (False, 1000, 246),
    (True, 377, 1),
])
def test_mode_leibniz_counts_past_certified_blocks(fail_fast, checked,
                                                   count):
    sp = SuperSpace([("x", 0), ("y", 0)])
    br = LambdaBracket(sp)
    br.set_entry("x", "y", VPoly.monomial(sp, "x", dl=1))
    br.set_entry("y", "x", VPoly.monomial(sp, "x", dl=1))
    grid = [2, 0, 2, 1, 3]
    rep = CoeffAlgebra(br).check_leibniz(grid, fail_fast=fail_fast)
    passed, n, failures = summary(rep)
    assert (passed, n, len(failures)) == (False, checked, count)
    assert failures[0] == ("right Leibniz", ("x[2]", "y[2]", "y[0]"),
                           "-4 x[2]")
    if not fail_fast:
        assert ("right Leibniz", ("x[2]", "y[2]", "y[3]"),
                "2 x[5]") in failures
        assert failures[-1] == ("right Leibniz", ("y[3]", "y[3]", "x[3]"),
                                "24 x[7]")
    assert summary(rep) == summary(ref_leibniz(br, grid, fail_fast))


PHI_FAILURES = [
    ("2-cocycle identity", ("L[-1]", "L[0]", "L[1]"), "-2"),
    ("2-cocycle identity", ("L[-1]", "L[1]", "L[0]"), "2"),
    ("2-cocycle identity", ("L[0]", "L[-1]", "L[1]"), "-4"),
    ("2-cocycle identity", ("L[0]", "L[1]", "L[-1]"), "4"),
    ("2-cocycle identity", ("L[1]", "L[-1]", "L[0]"), "-2"),
    ("2-cocycle identity", ("L[1]", "L[0]", "L[-1]"), "2"),
]


@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 27, PHI_FAILURES)),
    (True, (False, 6, PHI_FAILURES[:1])),
])
def test_phi_cocycle_counts(fail_fast, expected):
    vir = _load("virasoro").conformal_bracket()
    ansatz = CocycleAnsatz(vir.space, {(0, "L", "L"): 1, (2, "L", "L"): 1})
    assert summary(check_phi_cocycle(CoeffAlgebra(vir), PhiCocycle(ansatz),
                                     range(-1, 2),
                                     fail_fast=fail_fast)) == expected


def noncentral_killed():
    """A bracket whose killed vector c is not central: c[m] for m != -1 is a
    dropped mode, but the basis bracket [c[m], L[n]] is not 0."""
    sp = SuperSpace([("L", 0), ("c", 0)], killed=("c",))
    br = LambdaBracket(sp)
    br.set_entry("L", "L", VPoly(sp, {(0, 1, 0, 0): 1, (0, 0, 1, 0): 2}))
    br.set_entry("c", "L", VPoly.monomial(sp, "L"))
    br.set_entry("L", "c", VPoly.monomial(sp, "c", dl=1))
    return br


KILLED_LEIBNIZ_FAILURES = [
    ("right Leibniz", ("L[1]", "L[-1]", "c[-1]"), "L[-2]"),
    ("right Leibniz", ("L[1]", "L[0]", "c[-1]"), "L[-1]"),
    ("right Leibniz", ("L[1]", "L[1]", "c[-1]"), "L[0] + c[-1]"),
    ("right Leibniz", ("L[-1]", "c[-1]", "L[-1]"), "L[-4]"),
    ("right Leibniz", ("L[-1]", "c[-1]", "L[1]"), "-L[-2]"),
    ("right Leibniz", ("L[0]", "c[-1]", "L[-1]"), "2 L[-3]"),
    ("right Leibniz", ("L[0]", "c[-1]", "L[0]"), "L[-2]"),
    ("right Leibniz", ("L[1]", "c[-1]", "L[-1]"), "2 L[-2]"),
    ("right Leibniz", ("L[1]", "c[-1]", "L[0]"), "L[-1]"),
    ("right Leibniz", ("c[-1]", "L[-1]", "L[0]"), "L[-3]"),
    ("right Leibniz", ("c[-1]", "L[-1]", "L[1]"), "2 L[-2]"),
    ("right Leibniz", ("c[-1]", "L[0]", "L[-1]"), "-L[-3]"),
    ("right Leibniz", ("c[-1]", "L[0]", "L[1]"), "L[-1]"),
    ("right Leibniz", ("c[-1]", "L[1]", "L[-1]"), "-2 L[-2]"),
    ("right Leibniz", ("c[-1]", "L[1]", "L[0]"), "-L[-1]"),
    ("right Leibniz", ("c[-1]", "c[-1]", "L[-1]"), "L[-3]"),
    ("right Leibniz", ("c[-1]", "c[-1]", "L[0]"), "L[-2]"),
    ("right Leibniz", ("c[-1]", "c[-1]", "L[1]"), "L[-1]"),
]

KILLED_PHI_FAILURES = PHI_FAILURES + [
    ("2-cocycle identity", ("L[1]", "L[1]", "c[-1]"), "1"),
    ("2-cocycle identity", ("L[-1]", "c[-1]", "L[1]"), "1"),
    ("2-cocycle identity", ("L[0]", "c[-1]", "L[0]"), "1"),
    ("2-cocycle identity", ("L[1]", "c[-1]", "L[-1]"), "1"),
]


@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 216, KILLED_LEIBNIZ_FAILURES)),
    (True, (False, 46, KILLED_LEIBNIZ_FAILURES[:1])),
])
def test_mode_leibniz_with_a_noncentral_killed_vector(fail_fast, expected):
    """Cells holding a dropped mode count as instances and pass."""
    assert summary(CoeffAlgebra(noncentral_killed()).check_leibniz(
        range(-1, 2), fail_fast=fail_fast)) == expected


@pytest.mark.parametrize("fail_fast, expected", [
    (False, (False, 216, KILLED_PHI_FAILURES)),
    (True, (False, 6, KILLED_PHI_FAILURES[:1])),
])
def test_phi_cocycle_with_a_noncentral_killed_vector(fail_fast, expected):
    br = noncentral_killed()
    ansatz = CocycleAnsatz(br.space, {(0, "L", "L"): 1, (1, "L", "c"): 1,
                                      (2, "c", "L"): 1})
    assert summary(check_phi_cocycle(CoeffAlgebra(br), PhiCocycle(ansatz),
                                     range(-1, 2),
                                     fail_fast=fail_fast)) == expected
