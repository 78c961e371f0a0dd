"""The structured route builds its rows from the op tables alone.

extensions._alpha_cells scatters each term over the joined value tables of
its two arguments, repeated over the slots the term leaves out, and takes a
term's sign once per parity class of the cells.  Two things are pinned
here against the dense triple loops of test_structured_rows: a sign pair
that names a slot the term leaves out, on odd generators, where a sign
taken before the cells are repeated over that slot would be wrong; and
that neither the rows nor the check build a per-cell plan: every node of
the four systems is an op over two slots, read off its table, so no op is
ever applied, and the route cannot fall back to evaluating cell by cell
unnoticed.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import gens
from confalg import GradedBilinearMap, SuperSpace, linalg
from confalg.extensions import CASES, _alpha_rows, check_alpha_system
from confalg.quadratic import C
from confalg.superspace import B, X, Y, Z
from test_structured_rows import (ansatzes, assert_checks_match,
                                  assert_rows_match, oracle_alpha_rows,
                                  oracle_check_alpha_system, random_ops,
                                  summary)

# Terms whose sign pairs name slots they leave out: z in the first
# equation, x and z in the second.  C(Y, Y) is even, so alpha_t(x, C(Y, Y))
# needs an even x and its sign (x, z) is always +1; the pairs (y, z) and
# (x, z) on Y, Y change sign with odd y, x and z.
LEFT_OUT_SYSTEM = [
    ('sign-on-z', [(1, (('x', 'z'),), 0, X, C(Y, Y)),
                   (1, (('y', 'z'),), 1, X, C(Y, Y)),
                   (-1, (), 0, C(Z, X), Y)]),
    ('two-left-out', [(1, (('x', 'z'),), 1, Y, Y),
                      (2, (('xy', 'z'),), 0, X, B(Z, Y))]),
]


def odd_space(rng, dim):
    """A random space with at least one odd generator."""
    base = gens.rand_space(rng, dim)
    parities = list(base.parities)
    parities[rng.randrange(dim)] = 1
    return SuperSpace(list(zip(base.names, parities)))


@given(st.integers(1, 4), st.integers(0, 10 ** 6),
       st.sampled_from([0.15, 0.5, 0.9]))
@settings(deadline=None)
def test_a_sign_on_a_slot_the_term_leaves_out(dim, seed, density):
    rng = random.Random(seed)
    space = odd_space(rng, dim)
    degrees = (0, 1)
    ops = random_ops(rng, 'anl', space, density)
    got = _alpha_rows(LEFT_OUT_SYSTEM, ops, space, degrees)
    want = oracle_alpha_rows(LEFT_OUT_SYSTEM, ops, space, degrees)
    assert_rows_match(got, want)
    basis = linalg.nullspace(want[1], len(want[0]))
    for anz in ansatzes(rng, space, degrees, basis):
        assert_checks_match(LEFT_OUT_SYSTEM, ops, anz)


@pytest.mark.parametrize('case', sorted(CASES))
def test_the_route_builds_no_per_cell_plan(case, monkeypatch):
    """_alpha_rows and check_alpha_system on each case's system, with
    GradedBilinearMap.apply_vec (which its __call__ runs too) raising."""
    rng = random.Random(case)
    space = odd_space(rng, 3)
    _, _, system, degrees, _ = CASES[case]
    ops = random_ops(rng, case, space, 0.5)
    want = oracle_alpha_rows(system, ops, space, degrees)
    anz = ansatzes(rng, space, degrees, [])[-1]
    want_check = summary(oracle_check_alpha_system(system, ops, anz))

    def refuse(*args, **kwargs):
        raise AssertionError("the structured route applied an op")
    monkeypatch.setattr(GradedBilinearMap, 'apply_vec', refuse)
    got = _alpha_rows(system, ops, space, degrees)
    got_check = summary(check_alpha_system(system, ops, anz))
    monkeypatch.undo()
    assert_rows_match(got, want)
    assert got_check == want_check
