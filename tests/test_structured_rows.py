"""The structured route's rows and check against the dense triple loop.

_alpha_rows and check_alpha_system evaluate a structured alpha system
only on the basis triples where some term can be nonzero, on ops scaled
to integral tables.  The oracles here are the dense loops they replaced,
on the reference evaluator of tests/dense.py, which evaluate every triple
on the ops as given.  The
rows must come out in the same order, each a positive multiple of the
oracle's row with the same entries in the same order, so the two reduce
to the same echelon form; the check must give the same verdict, instance
count and failures (identity, triple and residual string, in order), with
and without fail_fast, on the basis cocycles of the rows and on perturbed
ones.  The data is random: every system of CASES on its ops as
extensions._case_ops builds them, over odd generators, Fraction entries,
sparse and dense tables and the parameter a; and a system of term shapes
that the four leave out.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import gens
from confalg import AxiomReport, Scalar, linalg
from confalg.extensions import (CASES, SolutionSpace, _alpha_rows,
                                _case_ops, check_alpha_system,
                                unknown_order)
from confalg.quadratic import C, S
from confalg.scalars import as_rational
from confalg.superspace import B, X, Y, Z
from dense import ref_memoised, ref_terms_at


# ---------- the oracles: the dense triple loops ----------

def oracle_alpha_rows(system, ops, space, degrees):
    """Linear rows of a structured alpha system over unknown_order."""
    unknowns = unknown_order(space, degrees)
    index = {u: i for i, u in enumerate(unknowns)}
    value = ref_memoised(space, ops)
    rows = []
    for (_, terms), triple in itertools.product(
            system, itertools.product(range(space.dim), repeat=3)):
        row = {}
        for s, (t, v1, v2) in ref_terms_at(terms, space, triple, value):
            for p, c1 in v1.items():
                r1 = as_rational(c1) * s
                for q, c2 in v2.items():
                    u = index.get((t, p, q))
                    if u is None:
                        continue
                    val = r1 * as_rational(c2)
                    prev = row.get(u)
                    row[u] = val if prev is None else prev + val
        row = {u: c for u, c in row.items() if c != 0}
        if row:
            rows.append(row)
    return unknowns, rows


def oracle_check_alpha_system(system, ops, ansatz, fail_fast=False):
    """Check a given ansatz against a structured system, symbolically."""
    space = next(iter(ops.values())).space
    value = ref_memoised(space, ops)

    def check(cell):
        (name, terms), *triple = cell
        total = Scalar.zero(ansatz.space.params)
        for s, (t, v1, v2) in ref_terms_at(terms, space, triple, value):
            for p, c1 in v1.items():
                for q, c2 in v2.items():
                    total = total + c1 * c2 * ansatz.alpha(t, p, q) * s
        if total:
            yield name, [space.names[i] for i in triple], str(total)
    return AxiomReport("structured cocycle system").run(
        itertools.product(system, *[range(space.dim)] * 3), check,
        fail_fast)


# ---------- term shapes the four systems leave out ----------

# A term without an op argument; terms of one op node next to one of two,
# so that the coefficients are raised by the scale; arguments that share a
# slot (every cell stays); a term over two of the three slots.
SHAPES_SYSTEM = [
    ('no-op', [(1, (), 0, X, Y), (-1, (('y', 'z'),), 1, C(Z, X), Y)]),
    ('two-nodes', [(1, (), 0, C(X, Y), S(Z, Z)), (2, (), 1, X, B(Z, Y)),
                   (-1, (('x', 'z'),), 0, B(C(Y, X), Z), Z)]),
    ('shared-slot', [(1, (('x', 'y'),), 2, C(X, C(Y, Z)), X),
                     (3, (), 1, C(Z, X), Y)]),
    ('two-slots', [(1, (), 1, C(Y, X), Y), (-1, (), 0, X, C(Z, Y))]),
]

SYSTEMS = {case: (CASES[case][2], CASES[case][3]) for case in CASES}
SYSTEMS['shapes'] = (SHAPES_SYSTEM, (0, 1, 2))


def random_ops(rng, case, space, density):
    """circ and bracket random, built into the ops of case as
    extensions._case_ops builds them (the shapes system takes those of
    'anl' and its star)."""
    circ, bracket = (gens.rand_gbm(rng, space, density, name=name)
                     for name in ("circ", "bracket"))
    if case == 'shapes':
        return {**_case_ops('anl', circ, bracket),
                'star': gens.rand_gbm(rng, space, density, name="star")}
    return _case_ops(case, circ, bracket)


def ansatzes(rng, space, degrees, basis):
    """Up to two vectors of basis and the zero vector as cocycles, each
    also with one entry perturbed, and a random cocycle."""
    sol = SolutionSpace(space, degrees, basis, "rows")
    out = []
    for vec in [*basis[:2], [0] * len(sol.unknowns)]:
        out.append(sol.ansatz(list(vec)))
        anz = sol.ansatz(list(vec))
        t, p, q = rng.choice(sol.unknowns)
        anz.set(t, p, q, anz.alpha(t, p, q) + (gens.rand_coeff(rng, space)
                                               or 1))
        out.append(anz)
    out.append(sol.ansatz([gens.rand_coeff(rng, space)
                           for _ in sol.unknowns]))
    return out


def summary(rep):
    return (rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


def assert_rows_match(got, want):
    """The same rows in the same order, each a positive multiple of the
    oracle's with its entries in the same order: the same echelon form."""
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for row, base in zip(got[1], want[1]):
        assert list(row) == list(base)
        factor = next(iter(row.values())) / next(iter(base.values()))
        assert factor > 0
        assert all(row[u] == factor * c for u, c in base.items())
        assert all(type(c) in (int, Fraction) for c in row.values())
    assert linalg.rref(got[1]) == linalg.rref(want[1])


def assert_checks_match(system, ops, anz):
    for fail_fast in (False, True):
        assert (summary(check_alpha_system(system, ops, anz, fail_fast))
                == summary(oracle_check_alpha_system(system, ops, anz,
                                                     fail_fast))), fail_fast


@given(st.sampled_from(sorted(SYSTEMS)), st.integers(1, 4),
       st.integers(0, 10 ** 6), st.sampled_from([0.15, 0.5, 0.9]))
@settings(deadline=None)
def test_rows_and_checks_match_the_dense_loop(case, dim, seed, density):
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    system, degrees = SYSTEMS[case]
    ops = random_ops(rng, case, space, density)
    got = _alpha_rows(system, ops, space, degrees)
    want = oracle_alpha_rows(system, ops, space, degrees)
    assert_rows_match(got, want)
    basis = linalg.nullspace(want[1], len(want[0]))
    for anz in ansatzes(rng, space, degrees, basis):
        assert_checks_match(system, ops, anz)


@given(st.sampled_from(sorted(SYSTEMS)), st.integers(1, 2),
       st.integers(0, 10 ** 6), st.sampled_from([0.5, 0.9]))
@settings(deadline=None)
def test_symbolic_checks_match_the_dense_loop(case, dim, seed, density):
    """Ops and ansatzes linear in the parameter a."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim, params=("a",))
    system, degrees = SYSTEMS[case]
    ops = random_ops(rng, case, space, density)
    for anz in ansatzes(rng, space, degrees, []):
        assert_checks_match(system, ops, anz)


@given(st.sampled_from(sorted(SYSTEMS)), st.integers(1, 3),
       st.integers(0, 10 ** 6))
@settings(deadline=None)
def test_constant_entries_over_parameters_give_rational_rows(case, dim,
                                                             seed):
    """On a space with parameters and constant entries the rows are those
    of the same ops without the parameters, in bare ints and Fractions."""
    rng = random.Random(seed)
    plain = gens.rand_space(rng, dim)
    space = type(plain)(list(zip(plain.names, plain.parities)),
                        params=("a",))
    system, degrees = SYSTEMS[case]
    ops = random_ops(rng, case, plain, 0.5)
    lifted = {name: type(op)(space, op.table, name=name)
              for name, op in ops.items()}
    assert_rows_match(_alpha_rows(system, lifted, space, degrees),
                      oracle_alpha_rows(system, ops, plain, degrees))
