"""The cell generator of check_system against the dense cell loop.

The evaluator visits only the basis cells where some term of an equation
is nonzero and counts every other cell as a passed instance.  The oracle
here is the dense loop of tests/dense.py, which evaluates every cell.  Every checker built on check_system must give the
same verdict, instance count and failures (identity, cell and residual
string, in order) under both, with and without fail_fast: on random
tables, sparse and dense, over odd generators, killed vectors and the
parameters a, b; on quadratic data that passes and on mutated data that
fails; and on every corpus file.
"""

import functools
import itertools
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import gens
from confalg import (build_quadratic_bracket, check_associative,
                     check_averaging, check_conformal_jacobi,
                     check_conformal_leibniz, check_conformal_skew,
                     check_leibniz_superalgebra,
                     check_left_leibniz_superalgebra, check_lie_superalgebra,
                     check_skew_symmetry, check_supercommutative,
                     classify_brackets, quadratic, superspace, zero_map)
from confalg.quadratic import SYSTEMS, C
from confalg.superspace import LEFT_LEIBNIZ, B, X, Y, Z, check_system
from dense import dense_cells, ref_memoised, ref_residual


# ---------- the comparison ----------

def summary(rep):
    return (rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


def checks(circ, star, bracket, avg, conf):
    """(label, check taking fail_fast) for every checker built on
    check_system."""
    out = [(f.__name__, functools.partial(f, bracket))
           for f in (check_skew_symmetry, check_lie_superalgebra,
                     check_leibniz_superalgebra,
                     check_left_leibniz_superalgebra)]
    out += [(f.__name__, functools.partial(f, circ))
            for f in (check_associative, check_supercommutative)]
    comps = {"circ": circ, "star": star, "bracket": bracket}
    out += [(name, functools.partial(quadratic._check_registered, name,
                                     [comps[n] for n in names]))
            for name, (_, _, names) in SYSTEMS.items()]
    out.append(("check_averaging", functools.partial(check_averaging, circ,
                                                     avg)))
    out += [(f.__name__, functools.partial(f, conf))
            for f in (check_conformal_leibniz, check_conformal_jacobi,
                      check_conformal_skew)]
    return out


def assert_same_as_dense(circ, star, bracket, avg, conf):
    for label, check in checks(circ, star, bracket, avg, conf):
        for fail_fast in (False, True):
            got = summary(check(fail_fast=fail_fast))
            with dense_cells():
                want = summary(check(fail_fast=fail_fast))
            assert got == want, (label, fail_fast)


@given(st.integers(1, 4), st.integers(0, 10 ** 6),
       st.sampled_from([0.15, 0.5, 0.9]), st.booleans(), st.booleans())
@settings(deadline=None)
def test_random_tables_match_the_dense_loop(dim, seed, density, parametric,
                                            killed):
    """Up to dimension 4, or 2 over the parameters a, b (where every
    product is a polynomial and a check takes longer)."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, min(dim, 2) if parametric else dim,
                            params=("a", "b") if parametric else (),
                            killed=killed)
    circ, star, bracket = (gens.rand_gbm(rng, space, density, name=name)
                           for name in ("circ", "star", "bracket"))
    avg = gens.rand_linear_map(rng, space, density)
    if rng.random() < 0.5:
        conf = build_quadratic_bracket(circ, star, bracket)
    else:
        conf = gens.rand_lambda_bracket(rng, space, 2, dim * dim)
    assert_same_as_dense(circ, star, bracket, avg, conf)


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(deadline=None)
def test_passing_and_mutated_instances_match_the_dense_loop(seed, mutated):
    rng = random.Random(seed)
    data = (gens.violating_quadratic_instance if mutated
            else gens.passing_quadratic_instance)(rng)
    conf = build_quadratic_bracket(data.circ, data.star, data.bracket)
    assert check_conformal_leibniz(conf).passed is not mutated
    assert_same_as_dense(data.circ, data.star, data.bracket,
                         gens.rand_linear_map(rng, data.space), conf)


CORPUS = sorted(p.name for p in (resources.files("confalg") / "corpus")
                .iterdir() if p.name.endswith(".alg"))


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_files_match_the_dense_loop(name):
    af = gens.corpus(name)
    circ = af.circ()
    assert_same_as_dense(circ, af.star() or zero_map(circ.space, "star"),
                         af.classical_bracket(),
                         gens.rand_linear_map(random.Random(name),
                                              circ.space),
                         af.conformal_bracket())


@given(st.integers(1, 3), st.integers(0, 10 ** 6),
       st.sampled_from([0.2, 0.6]))
@settings(deadline=None)
def test_classified_constraints_match_the_dense_pass(dim, seed, density):
    """classify_brackets evaluates left Leibniz on its family only where a
    term can be nonzero; the constraints, in order, are those of every
    cell."""
    rng = random.Random(seed)
    circ = gens.rand_gbm(rng, gens.rand_space(rng, dim), density, "circ")
    cls = classify_brackets(circ)
    value = ref_memoised(cls.family_space, {"bracket": cls.family})
    assert cls.constraints == [
        str(c) for cell in itertools.product(range(dim), repeat=3)
        for c in ref_residual(LEFT_LEIBNIZ[1], cls.family_space, cell,
                              value).values()]


A = superspace._op('avg')
ODD_SHAPES = [
    ("one slot", [(1, (), B(X, X))]),
    ("shared slots", [(1, (), B(X, B(X, Y))), (-1, (('x', 'y'),),
                                                B(B(Y, X), X))]),
    ("free slots", [(1, (), B(X, Z)), (-1, (), B(Y, Y)), (1, (), A(Y))]),
    ("nested", [(1, (), A(B(A(X), Y))), (1, (), B(A(X), A(Y)))]),
]


@given(st.integers(1, 4), st.integers(0, 10 ** 6),
       st.sampled_from([0.15, 0.5]), st.booleans())
@settings(deadline=None)
def test_odd_term_shapes_match_the_dense_loop(dim, seed, density, fail_fast):
    """Shapes no registered system has: an equation in x alone, arguments
    that share a slot, terms that leave a slot out, and a one-argument op
    over a node that uses every slot."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim, killed=True)
    bracket = gens.rand_gbm(rng, space, density, name="bracket")
    ops = {"bracket": bracket, "avg": gens.rand_linear_map(rng, space,
                                                            density)}
    for equation in ODD_SHAPES:
        got = summary(check_system("shapes", [equation], ops, fail_fast))
        with dense_cells():
            want = summary(check_system("shapes", [equation], ops,
                                        fail_fast))
        assert got == want, equation[0]


def paired_op(space, table):
    """A two-argument op nonzero where a basis pair of its arguments is in
    table: a node of it over two expressions is nonzero where some basis
    pair of theirs is."""
    def op(u, v):
        return {0: 1} if any((p, q) in table for p in u for q in v) else {}
    op.space, op.table = space, table
    return op


@given(st.integers(1, 4), st.integers(0, 10 ** 6),
       st.sampled_from([0.15, 0.5, 0.9]), st.booleans())
@settings(deadline=None)
def test_a_full_table_joins_as_the_pair_walk(dim, seed, density, full):
    """Two tables on the same basis pairs, one with the value {0: 1} at
    every pair and one with two basis indices at (0, 0), give the same
    check of a node over arguments of one, two and three slots, and the
    dense loop's, whether the pairs are all of them or some: the
    evaluator reads which pairs a table holds, not the values there."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    circ = gens.rand_gbm(rng, space, density, name="circ")
    pairs = [pair for pair in itertools.product(range(dim), repeat=2)
             if full or pair == (0, 0) or rng.random() < 0.5]
    one = {pair: {0: 1} for pair in pairs}
    two = {**one, (0, 0): {0: 1, 1: 1}}
    opses = [{"circ": circ, "alpha": paired_op(space, table)}
             for table in (one, two)]
    for f1, f2 in [(X, C(Z, Y)), (C(X, Y), Z), (C(Y, X), C(Z, Z)),
                   (X, Y), (C(Z, X), Y), (C(X, C(Y, Z)), X)]:
        node = ('op', 'alpha', f1, f2)
        equation = [("pair", [(1, (), node)])]
        got, want = (summary(check_system("pair", equation, ops))
                     for ops in opses)
        assert got == want, node
        with dense_cells():
            assert summary(check_system("pair", equation, opses[0])) == got
