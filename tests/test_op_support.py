"""The fact the cell generator of check_system rests on.

Every op of an equation is multilinear and declares, in its table, the
basis pairs (or, for a one-argument op, the basis indices) where it can be
nonzero.  So an op is zero on arguments whose basis supports meet no pair
of its table, and its value has terms only on the basis indices of the
table entries they meet.  These tests check that for GradedBilinearMap,
LinearMap and the five attached conformal ops, at l, m, l+m, -m-d and
-l-d, on arguments with d-powers, passive l/m powers and parameters, on
spaces with killed vectors.

Killed vectors.  A VPoly drops every term d^k e with k >= 1 on a killed
vector e, so a bracket's entries are stored dropped, and so is the value
of an attached op.  The op multiplies an entry P by a polynomial f in d, l
and m (the powers of v and d + v, and the passive powers of the
arguments), and drop(f P) = drop(f drop(P)): a term d^k e of P that drop
removes has k >= 1 and a killed e, and f times it has only terms
d^(k+j) e with j >= 0, which drop removes as well, because multiplying by
f never lowers a d-power.  So the entries as stored give the op's value,
and the basis indices of the stored entries bound those of the value.
"""

import random

from hypothesis import given, settings, strategies as st

import gens
from confalg import LambdaBracket, SuperSpace, VPoly, apply_bracket
from confalg.conformal import _FORMS, _ops


def rand_vector(rng, space, size):
    """A vector on up to size random basis indices."""
    return {k: c for k in rng.sample(range(space.dim), min(size, space.dim))
            if (c := gens.rand_coeff(rng, space))}


def rand_vpoly(rng, space, size):
    """A VPoly on up to size random basis indices, with d-powers and
    passive l and m powers."""
    return VPoly(space, {(k, rng.randint(0, 2), rng.randint(0, 1),
                          rng.randint(0, 1)): gens.rand_coeff(rng, space)
                         for k in rng.sample(range(space.dim),
                                             min(size, space.dim))})


def basis_indices(value):
    if isinstance(value, VPoly):
        return {key[0] for key in value.terms}
    return {k for k, c in value.items() if c}


def declared(table, keys):
    """The basis indices of the entries of table at keys."""
    return set().union(*[basis_indices(table[key]) for key in keys
                         if key in table])


def rand_space(rng, dim):
    return gens.rand_space(rng, dim, params=rng.choice([(), ("a", "b")]),
                           killed=True)


@given(st.integers(1, 5), st.integers(0, 10 ** 6),
       st.sampled_from([0.1, 0.3, 0.8]))
@settings(deadline=None)
def test_bilinear_maps_vanish_off_their_table(dim, seed, density):
    rng = random.Random(seed)
    space = rand_space(rng, dim)
    gbm = gens.rand_gbm(rng, space, density)
    u, v = (rand_vector(rng, space, rng.randint(0, 3)) for _ in range(2))
    met = [(i, j) for i in u for j in v if (i, j) in gbm.table]
    value = gbm.apply_vec(u, v)
    assert basis_indices(value) <= declared(gbm.table, met)
    if not met:
        assert value == {}


@given(st.integers(1, 5), st.integers(0, 10 ** 6),
       st.sampled_from([0.1, 0.3, 0.8]))
@settings(deadline=None)
def test_linear_maps_vanish_off_their_table(dim, seed, density):
    rng = random.Random(seed)
    space = rand_space(rng, dim)
    avg = gens.rand_linear_map(rng, space, density)
    u = rand_vector(rng, space, rng.randint(0, 3))
    met = [i for i in u if i in avg.table]
    value = avg.apply_vec(u)
    assert basis_indices(value) <= declared(avg.table, met)
    if not met:
        assert value == {}


@given(st.integers(1, 4), st.integers(0, 10 ** 6), st.integers(0, 3))
@settings(deadline=None)
def test_attached_brackets_vanish_off_their_entries(dim, seed, degree):
    """Each of the five attached ops declares the bracket's entries."""
    rng = random.Random(seed)
    space = rand_space(rng, dim)
    bracket = gens.rand_lambda_bracket(rng, space, degree,
                                       rng.randint(0, dim * dim))
    x, y = (rand_vpoly(rng, space, rng.randint(0, 3)) for _ in range(2))
    met = [(i, j) for i in basis_indices(x) for j in basis_indices(y)
           if (i, j) in bracket.entries]
    ops = _ops(bracket)
    assert set(ops) == set(_FORMS)
    for op in ops.values():
        assert op.table is bracket.entries
        value = op(x, y)
        assert basis_indices(value) <= declared(bracket.entries, met)
        if not met:
            assert value.is_zero()


@given(st.integers(1, 4), st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(deadline=None)
def test_dropping_commutes_with_attaching(dim, seed, degree):
    """drop(f P) = drop(f drop(P)): a bracket whose entries were dropped
    on the killed vectors gives, at every form, the dropped value of the
    same bracket over the same basis with nothing killed."""
    rng = random.Random(seed)
    space = rand_space(rng, dim)
    if not space.killed:
        space = SuperSpace(list(zip(space.names, space.parities)),
                           params=space.params, killed=space.names[:1])
    free = SuperSpace(list(zip(space.names, space.parities)),
                      params=space.params)
    raw = gens.rand_lambda_bracket(rng, free, degree, dim * dim)
    dropped = LambdaBracket(space, {key: VPoly(space, vp.terms)
                                    for key, vp in raw.entries.items()})
    x, y = (rand_vpoly(rng, space, rng.randint(1, 3)) for _ in range(2))
    for form in _FORMS.values():
        whole = apply_bracket(raw, VPoly(free, x.terms),
                              VPoly(free, y.terms), form)
        assert (apply_bracket(dropped, x, y, form).terms
                == VPoly(space, whole.terms).terms)
