"""The direct cocycle route's per-pair tables against the per-triple
expansion they replaced.

`ref_contributions` below is the cocycle-equation expansion as it was
before `extensions._cocycle_terms` tabulated each side once per bracket
pair: a generator run once per basis triple that re-derives every sign,
binomial and unknown key there.  `ref_assemble` and `ref_check` are the
accumulation loops that read it.  The tables must give the same unknowns,
the same rows (row order, entry order within a row, every value and its
type) and the same check reports (verdict, instance count, every failure's
basis triple and residual string).
"""

import itertools
import random
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg import (AxiomReport, CocycleAnsatz, LambdaBracket, Scalar,
                     SuperSpace, VPoly, assemble_cocycle_rows,
                     check_cocycle_direct, unknown_order)
from confalg.scalars import (as_rational, combination_str, graded_lex,
                             monomial_str)
from confalg.superspace import sign

import gens


# ---------- the reference: one expansion per basis triple ----------

def ref_entry_table(bracket, coeff):
    return {pair: [(v, dd, dl, coeff(s))
                   for (v, dd, dl, _), s in vp.terms.items()]
            for pair, vp in bracket.entries.items()}


def ref_contributions(entries, parity, triple, degrees):
    ia, ib, ic = triple
    sigma = sign(parity(ib), parity(ic))
    # LHS: alpha_l(a, [b _m c])
    for v, dd, dl, s in entries.get((ib, ic), ()):
        for t in degrees:
            yield (t, ia, v), dd + t, dl, s
    # -RHS1: -alpha_{l+m}([a _l b], c)
    for v, dd, dl, s in entries.get((ia, ib), ()):
        neg_base = 1 if dd & 1 else -1  # -(-1)^dd
        for t in degrees:
            n = dd + t
            for r in range(n + 1):
                yield (t, v, ic), dl + r, n - r, s * (neg_base * comb(n, r))
    # +sigma RHS2: +sigma alpha_{-m}([a _l c], b)
    for v, dd, dl, s in entries.get((ia, ic), ()):
        for t in degrees:
            yield (t, v, ib), dl, dd + t, s * (-sigma if t & 1 else sigma)


def ref_assemble(bracket, degrees):
    space = bracket.space
    unknowns = unknown_order(space, degrees)
    index = {u: i for i, u in enumerate(unknowns)}
    entries = ref_entry_table(bracket, as_rational)
    rows = []
    for triple in itertools.product(range(space.dim), repeat=3):
        acc = {}
        for key, ldeg, mdeg, value in \
                ref_contributions(entries, space.parity, triple, degrees):
            u = index.get(key)
            if u is None:
                continue
            mono = acc.get((ldeg, mdeg))
            if mono is None:
                acc[(ldeg, mdeg)] = {u: value}
            else:
                prev = mono.get(u)
                mono[u] = value if prev is None else prev + value
        for mono in acc.values():
            row = {u: c for u, c in mono.items() if c}
            if row:
                rows.append(row)
    return unknowns, rows


def ref_check(bracket, ansatz, fail_fast=False):
    space = bracket.space
    degrees = list(range(ansatz.max_degree() + 1)) or [0]
    entries = ref_entry_table(bracket, lambda s: s)

    def check(triple):
        acc = {}
        for (t, p, q), ldeg, mdeg, value in \
                ref_contributions(entries, space.parity, triple, degrees):
            val = ansatz.alpha(t, p, q)
            if not val:
                continue
            add = value * val
            prev = acc.get((ldeg, mdeg))
            acc[(ldeg, mdeg)] = add if prev is None else prev + add
        if any(acc.values()):
            yield ("cocycle equation", [space.names[i] for i in triple],
                   combination_str((acc[e], monomial_str('lm', e))
                                   for e in sorted(acc, key=graded_lex)))
    return AxiomReport("cocycle functional equation").run(
        itertools.product(range(space.dim), repeat=3), check, fail_fast)


# ---------- comparisons ----------

def typed(rows):
    return [[(u, type(c), c) for u, c in row.items()] for row in rows]


def assert_same_rows(bracket, degrees):
    unknowns, rows = assemble_cocycle_rows(bracket, degrees)
    want_unknowns, want_rows = ref_assemble(bracket, degrees)
    assert unknowns == want_unknowns
    assert [list(row.items()) for row in rows] \
        == [list(row.items()) for row in want_rows]
    assert typed(rows) == typed(want_rows)


def report_of(rep):
    return (rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


def assert_same_report(bracket, ansatz, fail_fast):
    assert report_of(check_cocycle_direct(bracket, ansatz, fail_fast)) \
        == report_of(ref_check(bracket, ansatz, fail_fast))


# ---------- drawn brackets and ansatzes ----------

def odd_space(parities, params=()):
    """A space with the given parities, one of them made odd."""
    parities = list(parities)
    parities[-1] = 1
    return SuperSpace([("e%d" % i, p) for i, p in enumerate(parities)],
                      params=params)


def parametric_bracket(rng, space, degree, entries):
    """A random lambda-bracket whose every coefficient c becomes
    c + r a for a random rational r."""
    a = Scalar.param("a", space.params)
    br = gens.rand_lambda_bracket(rng, space, degree, entries)
    out = LambdaBracket(space)
    for (i, j), vp in br.entries.items():
        out.set_entry(i, j, VPoly(space, {
            key: c + a * gens.rand_fraction(rng)
            for key, c in vp.terms.items()}))
    return out


def rand_ansatz(rng, space, top):
    """A random ansatz of degree at most top on even pairs; coefficients
    involve the parameter a when the space has one."""
    anz = CocycleAnsatz(space)
    pairs = [(p, q) for p in range(space.dim) for q in range(space.dim)
             if space.parities[p] == space.parities[q]]
    for _ in range(rng.randint(0, 4)):
        p, q = rng.choice(pairs)
        value = gens.rand_fraction(rng)
        if space.params:
            value = value + Scalar.param("a", space.params) \
                * gens.rand_fraction(rng)
        anz.set(rng.randint(0, top), p, q, value)
    return anz


DEGREES = st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)
PARITIES = st.lists(st.integers(0, 1), min_size=1, max_size=4)


@given(st.integers(0, 2 ** 32), PARITIES, st.integers(0, 3), DEGREES)
@example(seed=1, parities=[0, 1, 0], degree=3, degrees=[0, 1, 3])
@example(seed=2, parities=[0, 0, 1], degree=2, degrees=[2])
@example(seed=3, parities=[1, 0], degree=3, degrees=[0, 1, 2, 3, 4, 5])
@settings(deadline=None)
def test_random_brackets_give_the_reference_rows(seed, parities, degree,
                                                 degrees):
    rng = random.Random(seed)
    space = odd_space(parities)
    bracket = gens.rand_lambda_bracket(rng, space, degree,
                                       rng.randint(1, 2 * space.dim ** 2))
    assert_same_rows(bracket, degrees)


@given(st.integers(0, 2 ** 32), PARITIES, st.integers(0, 3),
       st.sampled_from([(), ("a", "b")]), st.booleans())
@settings(deadline=None)
def test_random_ansatzes_give_the_reference_report(seed, parities, degree,
                                                   params, fail_fast):
    """check_cocycle_direct on drawn ansatzes, over a plain space and over
    a parametrised one (parameters in the bracket and the ansatz)."""
    rng = random.Random(seed)
    space = odd_space(parities, params)
    entries = rng.randint(1, 2 * space.dim ** 2)
    if params:
        bracket = parametric_bracket(rng, space, degree, entries)
    else:
        bracket = gens.rand_lambda_bracket(rng, space, degree, entries)
    assert_same_report(bracket, rand_ansatz(rng, space, 4), fail_fast)


CORPUS = ["avg_x3", "circ0_sq", "cur_leib", "cur_lie", "fpoly",
          "fpoly_nonlie", "gd_final", "r00", "rab", "star0_sq", "virasoro"]


@pytest.mark.parametrize("name", CORPUS)
def test_the_corpus_gives_the_reference_rows_and_reports(name):
    """Every corpus bracket (its parameters set to 2) at a gapped degree
    list, and its symbolic check of a drawn parametric ansatz."""
    af = gens.corpus(name + ".alg")
    bracket = af.conformal_bracket()
    fixed = af.substitute({p: 2 for p in af.space.params}).conformal_bracket()
    assert_same_rows(fixed, [0, 1, 3, 5])
    rng = random.Random(name)
    for _ in range(3):
        assert_same_report(bracket, rand_ansatz(rng, bracket.space, 3),
                           False)
