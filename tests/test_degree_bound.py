"""The one-solve degree-bound experiment against the two-solve one.

`ref_degree_bound` below is the experiment as it was before
`degree_bound_experiment` read the low-degree space off the high-degree
solve: it solves the direct system at degrees 0..low as well and compares
the two spaces through `embed(...).reduced_basis()`.  The one-solve result
must give the same low-degree space (same unknowns, same reduced basis),
the same vanishing degrees and the same `agrees`.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg import (build_quadratic_bracket, degree_bound_experiment,
                     solve_cocycles_direct)
from confalg.cli import _load

import gens

PAIRS = [(5, 3), (4, 1), (3, 3), (6, 2)]


# ---------- the reference: two direct solves ----------

def ref_degree_bound(bracket, high_degree, low_degree):
    sol_high = solve_cocycles_direct(bracket, range(high_degree + 1))
    sol_low = solve_cocycles_direct(bracket, range(low_degree + 1))
    high_basis = sol_high.reduced_basis()
    vanishing = {}
    for t in range(low_degree + 1, high_degree + 1):
        positions = [i for i, (tt, _, _) in enumerate(sol_high.unknowns)
                     if tt == t]
        vanishing[t] = all(vec[i] == 0
                           for vec in high_basis for i in positions)
    agrees = (sol_low.embed(range(high_degree + 1)).reduced_basis()
              == high_basis)
    return sol_high, sol_low, vanishing, agrees


def assert_like_the_reference(bracket, high, low):
    res = degree_bound_experiment(bracket, high, low)
    sol_high, sol_low, vanishing, agrees = ref_degree_bound(bracket, high,
                                                            low)
    for got, want in ((res.solution_high, sol_high),
                      (res.solution_low, sol_low)):
        assert got.degrees == want.degrees
        assert got.unknowns == want.unknowns
        assert got.reduced_basis() == want.reduced_basis()
        assert (got.route, got.warnings) == (want.route, want.warnings)
    assert res.vanishing == vanishing
    assert res.agrees == agrees


CORPUS = [("avg_x3", {}), ("circ0_sq", {}), ("cur_leib", {}), ("cur_lie", {}),
          ("fpoly", {}), ("fpoly_nonlie", {}), ("gd_final", {"a": 2}),
          ("r00", {}), ("rab", {"a": 2, "b": 2}), ("star0_sq", {}),
          ("virasoro", {})]


@pytest.mark.parametrize("high, low", PAIRS)
@pytest.mark.parametrize("name, at", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_the_corpus_matches_the_two_solve_experiment(name, at, high, low):
    af = _load(name)
    if at:
        af = af.substitute(at)
    assert_like_the_reference(af.conformal_bracket(), high, low)


@given(st.integers(0, 2 ** 32), st.integers(1, 4),
       st.sampled_from([0.2, 0.5]), st.sampled_from(PAIRS))
@settings(deadline=None)
def test_random_quadratic_brackets_match_the_two_solve_experiment(
        seed, dim, density, pair):
    """Quadratic brackets from random circ, star and bracket tables on a
    space with odd generators allowed."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    bracket = build_quadratic_bracket(*(gens.rand_gbm(rng, space, density, n)
                                        for n in ("circ", "star", "bracket")))
    assert_like_the_reference(bracket, *pair)


@given(st.integers(0, 2 ** 32), st.sampled_from(PAIRS))
# each cocycle of this bracket spans three consecutive degrees, so cutting
# the high basis off above low, instead of keeping the cocycles that vanish
# there, gives a larger space
@example(41, (6, 2))
@settings(deadline=None)
def test_random_lambda_brackets_match_the_two_solve_experiment(seed, pair):
    """Sparse lambda-brackets with terms up to d, l degree 2 on two to four
    generators, odd ones allowed."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, rng.randint(2, 4))
    bracket = gens.rand_lambda_bracket(rng, space, rng.randint(1, 2),
                                       rng.randint(1, 3))
    assert_like_the_reference(bracket, *pair)
