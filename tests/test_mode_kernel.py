"""The flat mode-identity kernel against the per-cell ModeExpr evaluator.

`ref_check_mode_identity`, `ref_mode_bracket` and `ref_on_modes` below are
the per-cell evaluator that checked the mode Leibniz and mode 2-cocycle
identities before the flat kernel in `confalg.coeff`, kept verbatim as the
reference: each cell builds ModeExprs for x, y and z and combines whole
ModeExprs (or Scalars) with +, - and scale.  The kernel must give the same
cells, counts, failures and residual strings.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (CoeffAlgebra, CocycleAnsatz, ModeExpr, PhiCocycle,
                     Scalar, build_phi_cocycles, check_phi_cocycle,
                     solve_cocycles_direct)
from confalg.cli import _load
from confalg.superspace import AxiomReport, _add_term, sign

from test_coeff import ansatzes
from test_combination import brackets


# ---------- the reference: the per-cell evaluator, verbatim ----------

def ref_mode_bracket(self, u, v):
    """Bilinear extension to ModeExprs (or (index, mode) pairs)."""
    if isinstance(u, tuple):
        u = ModeExpr.mode(self.space, *u)
    if isinstance(v, tuple):
        v = ModeExpr.mode(self.space, *v)
    terms = {}
    for (i, m), ci in u.terms.items():
        for (j, n), cj in v.terms.items():
            c = ci * cj
            for key, b in self.mode_bracket_basis(i, m, j, n).terms.items():
                _add_term(terms, key, c * b)
    # u is on this space, and basis brackets hold only kept modes
    return u._trusted(terms)


def ref_on_modes(self, u, v):
    """Bilinear extension to ModeExprs (or (index, mode) pairs)."""
    space = self.space
    if isinstance(u, tuple):
        u = ModeExpr.mode(space, *u)
    if isinstance(v, tuple):
        v = ModeExpr.mode(space, *v)
    total = Scalar.zero(self.ansatz.space.params)
    for (i, m), ci in u.terms.items():
        for (j, n), cj in v.terms.items():
            total = total + ci * cj * self.value(i, m, j, n)
    return total


def ref_check_mode_identity(coeff, outer, grid, fail_fast, title, identity):
    """outer(x, [y, z]) = outer([x, y], z) - (-1)^{|y||z|} outer([x, z], y)
    for basis modes x, y, z over a finite grid, the inner brackets read
    from the mode-bracket table."""
    space = coeff.space
    bracket = coeff.mode_bracket_basis
    grid = list(grid)
    dims = [range(space.dim)] * 3
    modes = {(b, mode): ModeExpr.mode(space, b, mode)
             for b in dims[0] for mode in grid}

    def check(cell):
        i, j, k, m, n, p = cell
        x, y, z = modes[i, m], modes[j, n], modes[k, p]
        if x.is_zero() or y.is_zero() or z.is_zero():
            return  # a dropped mode makes every term 0
        res = (outer(x, bracket(j, n, k, p))
               - outer(bracket(i, m, j, n), z))
        tail = outer(bracket(i, m, k, p), y)
        if sign(space.parity(j), space.parity(k)) == 1:
            res = res + tail
        else:
            res = res - tail
        if res:
            yield (identity, ["%s[%d]" % (space.names[b], mode)
                              for b, mode in ((i, m), (j, n), (k, p))],
                   str(res))
    return AxiomReport(title).run(itertools.product(*dims, grid, grid, grid),
                                  check, fail_fast)


def ref_leibniz(bracket, grid, fail_fast):
    ca = CoeffAlgebra(bracket)
    return ref_check_mode_identity(
        ca, lambda u, v: ref_mode_bracket(ca, u, v), grid, fail_fast,
        "mode-algebra right Leibniz identity", "right Leibniz")


def ref_phi(bracket, phi, grid, fail_fast):
    return ref_check_mode_identity(
        CoeffAlgebra(bracket), lambda u, v: ref_on_modes(phi, u, v), grid,
        fail_fast, "mode 2-cocycle identity", "2-cocycle identity")


# ---------- comparisons ----------

def summary(report):
    return report.passed, report.checked, report.failures, str(report)


def assert_like_the_reference(bracket, phis, grid, fail_fast):
    """Both checks on a fresh CoeffAlgebra (every bracket a table miss) and
    again on the same one (every bracket a table hit) equal the reference."""
    ca = CoeffAlgebra(bracket)
    for _ in range(2):
        assert (summary(ca.check_leibniz(grid, fail_fast=fail_fast))
                == summary(ref_leibniz(bracket, grid, fail_fast)))
        for phi in phis:
            assert (summary(check_phi_cocycle(ca, phi, grid,
                                              fail_fast=fail_fast))
                    == summary(ref_phi(bracket, phi, grid, fail_fast)))


grids = st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                 unique=True).map(lambda g: g if -1 in g else g + [-1])


@given(brackets(), ansatzes(), grids, st.booleans())
@settings(deadline=None)
def test_the_kernel_matches_the_per_cell_evaluator(br, anz, grid, fail_fast):
    """Random brackets and cochains on a space with an odd vector, a killed
    vector that need not be central and a parameter."""
    assert_like_the_reference(br, [PhiCocycle(anz)], grid, fail_fast)


CORPUS = [("avg_x3", {}), ("circ0_sq", {}), ("cur_leib", {}), ("cur_lie", {}),
          ("fpoly", {}), ("fpoly_nonlie", {}), ("r00", {}), ("star0_sq", {}),
          ("virasoro", {}), ("rab", {"a": 1, "b": -2}), ("gd_final", {"a": 2}),
          ("rab", {}), ("gd_final", {})]


@pytest.mark.parametrize("name, at", CORPUS,
                         ids=["%s%s" % (name, "".join(
                             " %s=%s" % kv for kv in at.items()))
                              for name, at in CORPUS])
def test_the_corpus_matches_the_per_cell_evaluator(name, at):
    """Each corpus bracket on -3..3 (rab and gd_final also at a point), with
    the mode 2-cocycles of up to four direct-route basis cocycles and one
    cochain that is not a cocycle."""
    af = _load(name)
    if at:
        af = af.substitute(at)
    bracket = af.conformal_bracket()
    space = bracket.space
    phis = [PhiCocycle(CocycleAnsatz(space, {(t, 0, 0): t + 1
                                             for t in range(4)}))]
    if not space.params:
        phis += build_phi_cocycles(solve_cocycles_direct(bracket))[:4]
    for fail_fast in (False, True):
        assert_like_the_reference(bracket, phis, range(-3, 4), fail_fast)
