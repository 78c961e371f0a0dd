"""The equation evaluator of `superspace` against the dense reference of
tests/dense.py, and what one check does with its ops and its memo."""

import collections
import copy
import gc
import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from confalg import (GradedBilinearMap, LambdaBracket, LinearMap, Scalar,
                     SuperSpace, as_rational, build_quadratic_bracket,
                     check_alpha_system, check_averaging,
                     check_conformal_leibniz, check_leibniz_superalgebra,
                     classify_brackets, solve_central_ext_anl,
                     to_left_conformal, VPoly)
from confalg.conformal import (CONFORMAL_JACOBI, CONFORMAL_LEIBNIZ,
                               CONFORMAL_SKEW, _ops)
from confalg.extensions import ANL_ALPHA_SYSTEM, CASES
from confalg.quadratic import AVERAGING_EQ, SYSTEMS
from confalg.superspace import (ASSOCIATIVITY, LEFT_LEIBNIZ, RIGHT_LEIBNIZ,
                                SKEW_SYMMETRY, SUPERCOMMUTATIVITY, B,
                                Combination, X, Y, Z, _integral, _join,
                                _residuals, _spread, _subtrees, _values,
                                check_system)

import gens
from dense import (dense_cells, ref_arity, ref_memoised, ref_residual,
                   ref_slots)


# ---------- random data: odd generators, entries c + c' a ----------

def odd_parametric_space(rng, dim):
    base = gens.rand_space(rng, dim)
    parities = list(base.parities)
    if 1 not in parities:
        parities[rng.randrange(dim)] = 1
    return SuperSpace(list(zip(base.names, parities)), params=("a",))


def parametric_map(rng, space, name):
    a = Scalar.param("a", space.params)
    gbm = gens.rand_gbm(rng, space, density=rng.choice([0.2, 0.5]),
                        name=name)
    out = GradedBilinearMap(space, name=name)
    for (i, j), vec in gbm.table.items():
        out.set_entry(i, j, {k: c + a * gens.rand_fraction(rng)
                             for k, c in vec.items()})
    return out


def parametric_even_map(rng, space):
    a = Scalar.param("a", space.params)
    avg = LinearMap(space, name="avg")
    for i in range(space.dim):
        avg.set_entry(i, {k: gens.rand_fraction(rng)
                          + a * gens.rand_fraction(rng)
                          for k in range(space.dim)
                          if space.parity(k) == space.parity(i)
                          and rng.random() < 0.5})
    return avg


def op_nodes(expr):
    """The op nodes of an expression, itself first if it is one."""
    return [sub for sub in _subtrees(expr) if sub[0] == 'op']


def assert_same_residuals(equations, ops):
    """The residuals equal the reference residual at every cell, as a value
    and as rendered text; a cell left out has a zero reference residual."""
    space = next(iter(ops.values())).space
    memo, value = {}, ref_memoised(space, ops)
    for _, terms in equations:
        n = ref_arity(terms)
        found = _residuals(space, terms, n, ops, memo)
        for cell in itertools.product(range(space.dim), repeat=n):
            want = ref_residual(terms, space, cell, value)
            if cell not in found:
                assert not want
                continue
            got = found[cell]
            assert type(got) is type(want)
            if isinstance(want, Combination):
                assert got.terms == want.terms and str(got) == str(want)
            else:
                assert got == want
                assert space.vec_str(got) == space.vec_str(want)


@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_residuals_match_the_reference(dim, seed):
    rng = random.Random(seed)
    space = odd_parametric_space(rng, dim)
    maps = {name: parametric_map(rng, space, name)
            for name in ("circ", "star", "bracket")}
    for _, equations, names in SYSTEMS.values():
        assert_same_residuals(equations, {n: maps[n] for n in names})
    assert_same_residuals(
        [SKEW_SYMMETRY, LEFT_LEIBNIZ, RIGHT_LEIBNIZ],
        {"bracket": maps["bracket"]})
    assert_same_residuals([SUPERCOMMUTATIVITY, ASSOCIATIVITY],
                          {"product": maps["circ"]})
    assert_same_residuals(
        [AVERAGING_EQ],
        {"product": maps["circ"], "avg": parametric_even_map(rng, space)})
    if dim <= 2:
        built = build_quadratic_bracket(maps["circ"], maps["star"],
                                        maps["bracket"])
        assert_same_residuals(
            [CONFORMAL_LEIBNIZ, CONFORMAL_JACOBI, CONFORMAL_SKEW],
            _ops(built))


@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_alpha_term_values_match_the_reference(dim, seed):
    """The structured cocycle systems keep their degree index in place:
    each term's two expressions, joined and spread over the basis triples,
    hold the reference values at exactly the triples where both are
    nonzero."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    ops = {name: gens.rand_gbm(rng, space, name=name)
           for name in ("circ", "star", "bracket")}
    memo, value = {}, ref_memoised(space, ops)
    for case in CASES.values():
        for _, terms in case[2]:
            for *_, f1, f2 in terms:
                got = _spread(*_join(
                    ref_slots(f1), _values(f1, ops, space.dim, memo),
                    ref_slots(f2), _values(f2, ops, space.dim, memo)),
                    3, space.dim)
                want = {}
                for cell in itertools.product(range(space.dim), repeat=3):
                    v1, v2 = value(f1, cell), value(f2, cell)
                    if v1 and v2:
                        want[cell] = (v1, v2)
                assert got == want


# ---------- what one check does ----------

def report_summary(rep):
    return (rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_checks_modify_no_table_and_no_memoised_vector(dim, seed):
    """Values read off a table are the table's own vectors and pass from
    one equation to the next in the memo: the residuals of a second pass
    on the same memo are the first pass's, the memo and the tables are as
    they were, and so is a lambda-bracket after a conformal check."""
    rng = random.Random(seed)
    space = odd_parametric_space(rng, dim)
    maps = {name: parametric_map(rng, space, name)
            for name in ("circ", "star", "bracket")}
    tables = copy.deepcopy({name: gbm.table for name, gbm in maps.items()})
    equations = SYSTEMS['t'][1]
    memo = {}
    first = [_residuals(space, terms, 3, maps, memo)
             for _, terms in equations]
    kept = copy.deepcopy(memo)
    assert [_residuals(space, terms, 3, maps, memo)
            for _, terms in equations] == first
    assert memo == kept
    assert {name: gbm.table for name, gbm in maps.items()} == tables
    with dense_cells():
        want = report_summary(check_system("check", equations, maps))
    assert report_summary(check_system("check", equations, maps)) == want
    assert {name: gbm.table for name, gbm in maps.items()} == tables
    if dim <= 2:
        built = build_quadratic_bracket(*maps.values())
        entries = {key: dict(vp.terms) for key, vp in built.entries.items()}
        check_conformal_leibniz(built)
        to_left_conformal(built)
        assert {key: vp.terms for key, vp in built.entries.items()} == entries


def arguments(args):
    """A list of argument values as a comparable key."""
    return repr([sorted(map(repr, arg.items())) for arg in args])


def counted(op, name, calls):
    """op as a plain function that counts its calls in calls, by op name
    and arguments, with its table and space; it has no scaled method, so
    a check runs it as it is (see superspace._integral)."""
    run = getattr(op, 'apply_vec', op)

    def wrapper(*args):
        calls[name, arguments(args)] += 1
        return run(*args)
    wrapper.space, wrapper.table = op.space, op.table
    return wrapper


def keyed_calls(equations, ops):
    """The calls of one evaluation of every distinct op node of equations
    at every index tuple of its slots, by op name and arguments, made by
    the reference."""
    space = next(iter(ops.values())).space
    value, out = ref_memoised(space, ops), collections.Counter()
    for node in {node for _, terms in equations for *_, expr in terms
                 for node in op_nodes(expr)}:
        slots = ref_slots(node)
        for key in itertools.product(range(space.dim), repeat=len(slots)):
            cell = [0, 0, 0]
            for s, i in zip(slots, key):
                cell[s] = i
            out[node[1], arguments([value(arg, cell)
                                    for arg in node[2:]])] += 1
    return out


@given(st.integers(1, 3), st.integers(0, 10 ** 6),
       st.sampled_from([0.2, 0.6]))
@settings(max_examples=25, deadline=None)
def test_each_op_is_called_at_most_once_per_argument_key(dim, seed,
                                                         density):
    """In one check an op is called on given arguments at most as often
    as the distinct nodes of it, each evaluated once per index tuple of
    its slots, call it on them: however many cells and equations hold a
    node, its value at a key is computed once.  A check on counting ops
    reports as on the ops themselves.  Every registered system, the
    averaging system and the three conformal equations."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim, killed=True)
    maps = {name: gens.rand_gbm(rng, space, density, name=name)
            for name in ("circ", "star", "bracket")}
    maps["avg"] = gens.rand_linear_map(rng, space, density)
    runs = [(equations, {n: maps[n] for n in names})
            for _, equations, names in SYSTEMS.values()]
    runs.append(([SUPERCOMMUTATIVITY, ASSOCIATIVITY, AVERAGING_EQ],
                 {"product": maps["circ"], "avg": maps["avg"]}))
    runs.append(([CONFORMAL_LEIBNIZ, CONFORMAL_JACOBI, CONFORMAL_SKEW],
                 _ops(gens.rand_lambda_bracket(rng, space, 2, 2 * dim))))
    for equations, ops in runs:
        calls = collections.Counter()
        got = check_system("check", equations, {
            name: counted(op, name, calls) for name, op in ops.items()})
        assert report_summary(got) == report_summary(
            check_system("check", equations, ops))
        allowed = keyed_calls(equations, ops)
        assert all(n <= allowed[key] for key, n in calls.items())


@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_averaging_check_matches_three_fresh_checks(dim, seed):
    """check_averaging runs arities 2, 3 and 2 on one memo."""
    rng = random.Random(seed)
    space = odd_parametric_space(rng, dim)
    product = parametric_map(rng, space, "product")
    avg = parametric_even_map(rng, space)
    ops = {"product": product, "avg": avg}
    fresh = [check_system("averaging operator axioms", [equation], ops)
             for equation in (SUPERCOMMUTATIVITY, ASSOCIATIVITY,
                              AVERAGING_EQ)]
    rep = check_averaging(product, avg)
    assert rep.checked == sum(r.checked for r in fresh)
    assert report_summary(rep)[2] == [f for r in fresh
                                      for f in report_summary(r)[2]]


def test_plans_are_keyed_by_the_equation_not_its_name():
    space = SuperSpace([("e0", 0), ("e1", 0)])
    br = GradedBilinearMap(space, {(0, 0): {1: 1}, (0, 1): {0: 1}},
                           name="bracket")
    twins = [("twin", [(1, (), B(X, Y))]), ("twin", [(1, (), B(Y, X))]),
             ("twin", [(1, (), B(X, B(Y, Z)))])]
    rep = check_system("twins", twins, {"bracket": br})
    assert rep.checked == 4 + 4 + 8
    assert [(f["identity"], f["at"], f["residual"])
            for f in rep.failures] == [
        ("twin", ("e0", "e0"), "e1"), ("twin", ("e0", "e1"), "e0"),
        ("twin", ("e0", "e0"), "e1"), ("twin", ("e1", "e0"), "e0"),
        ("twin", ("e0", "e0", "e0"), "e0"),
        ("twin", ("e0", "e0", "e1"), "e1")]


# ---------- integral evaluation ----------

# an equation whose terms have 2, 1 and 0 op nodes, with a fractional
# coefficient: its terms are scaled by different powers of the scale
MIXED = ("mixed", [(1, (), B(X, B(Y, Z))), (Fraction(1, 2), (), B(X, Y)),
                   (-1, (("x", "y"),), X)])


def coefficients(op):
    return [c for value in op.table.values() for _, c in value.items()]


def integral(c):
    if isinstance(c, Scalar):
        return all(type(v) is int for v in c.terms.values())
    return type(c) is int


@given(st.integers(1, 3), st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_integral_ops_are_the_ops_times_the_least_common_denominator(
        dim, seed, parametric):
    """On a space with parameters the integral ops are always copies, in
    which a coefficient is a Scalar exactly when it has a parameter term;
    without parameters, ops that are integral already are kept."""
    rng = random.Random(seed)
    if parametric:
        space = odd_parametric_space(rng, dim)
        ops = {"circ": parametric_map(rng, space, "circ"),
               "avg": parametric_even_map(rng, space)}
    else:
        space = gens.rand_space(rng, dim)
        ops = {"circ": gens.rand_gbm(rng, space, name="circ"),
               "avg": gens.rand_linear_map(rng, space)}
    ops["bracket"] = gens.rand_lambda_bracket(rng, space, 2, 4)
    ops.update(_ops(ops.pop("bracket")))
    scaled, d = _integral(ops)
    dens = [c.denominator for op in ops.values() for c in coefficients(op)
            for c in (c.terms.values() if isinstance(c, Scalar) else [c])]
    assert d == math.lcm(*dens)
    for name, op in ops.items():
        assert coefficients(scaled[name]) == [c * d for c in coefficients(op)]
        assert list(scaled[name].table) == list(op.table)
        if space.params:
            assert all(isinstance(c, Scalar) == (as_rational(c) is None)
                       for c in coefficients(scaled[name]))
    if d == 1 and not space.params:
        # integral in value already (an integral Fraction that arithmetic
        # made may stay one)
        assert scaled is ops
    else:
        assert all(integral(c) for op in scaled.values()
                   for c in coefficients(op))
    # an op without a scaled method leaves every op as it is
    ops["plain"] = lambda u, v: {}
    ops["plain"].table = {}
    assert _integral(ops) == (ops, 1)


def constant_copy(space, op):
    """op on space, a twin of its space with parameters: every entry a
    constant Scalar."""
    if isinstance(op, LambdaBracket):
        return LambdaBracket(space, {key: VPoly(space, vp.terms)
                                     for key, vp in op.entries.items()})
    return type(op)(space, op.table, name=op.name)


@given(st.integers(1, 3), st.integers(0, 10 ** 6),
       st.sampled_from(["rational", "constant", "mixed"]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_integral_checks_report_as_checks_on_the_ops_as_given(
        dim, seed, entries, fail_fast):
    """check_system runs on the ops made integral and divides the scale off
    each residual; the dense loop of tests/dense.py evaluates the ops as
    given.  The reports
    agree, residual strings and counts included, with and without
    fail_fast, on classical, quadratic, mixed-degree and conformal
    equations, on spaces with killed vectors: over the rationals, over a
    parameter with every entry constant, and over parameters with entries
    that mix constants and parameter terms."""
    rng = random.Random(seed)
    rational = gens.rand_space(rng, dim, killed=True)
    if entries == "mixed":
        space = gens.rand_space(rng, dim, params=("a", "b"), killed=True)
    else:
        space = rational
    maps = {name: gens.rand_gbm(rng, space, density=0.4, name=name)
            for name in ("circ", "star", "bracket")}
    maps["avg"] = gens.rand_linear_map(rng, space)
    bracket = gens.rand_lambda_bracket(rng, space, 2, 2 * dim)
    if entries == "constant":
        space = SuperSpace(list(zip(rational.names, rational.parities)),
                           params=("a",), killed=rational.killed)
        maps = {name: constant_copy(space, op) for name, op in maps.items()}
        bracket = constant_copy(space, bracket)
    elif entries == "mixed" and dim <= 2:
        bracket = build_quadratic_bracket(maps["circ"], maps["star"],
                                          maps["bracket"])

    def same(equations, ops):
        got = report_summary(check_system("check", equations, ops,
                                          fail_fast))
        with dense_cells():
            assert got == report_summary(check_system("check", equations,
                                                      ops, fail_fast))

    for _, equations, names in SYSTEMS.values():
        same(equations, {n: maps[n] for n in names})
    same([MIXED, SKEW_SYMMETRY], {"bracket": maps["bracket"]})
    same([AVERAGING_EQ], {"product": maps["circ"], "avg": maps["avg"]})
    same([CONFORMAL_LEIBNIZ, CONFORMAL_JACOBI, CONFORMAL_SKEW], _ops(bracket))


def test_a_conformal_check_scales_its_bracket_once(monkeypatch):
    """The five attached ops of a conformal check on a bracket with
    fractional entries share one scaled bracket."""
    calls = []
    scaled = LambdaBracket.scaled
    monkeypatch.setattr(LambdaBracket, "scaled",
                        lambda self, d: calls.append(d) or scaled(self, d))
    rng = random.Random(5)
    space = gens.rand_space(rng, 3, allow_odd=False)
    bracket = gens.rand_lambda_bracket(rng, space, 2, 6)
    bracket.set_entry(0, 0, bracket.entry(0, 0) + VPoly.monomial(
        space, 0, dd=3, coeff=Fraction(1, 6)))
    check_conformal_leibniz(bracket)
    assert calls == [6]


def test_no_memo_outlives_its_check():
    """With the cyclic garbage collector off, a check frees its memo, its
    values and every function made for it when it ends: it leaves no
    reference cycle for the collector to find."""
    rng = random.Random(3)
    space = gens.rand_space(rng, 3)
    _, circ, bracket = gens.rab_data(0, 0)
    anz = solve_central_ext_anl(circ, bracket).ansatz(0)
    anz.set(0, "W", "W", Fraction(1, 2))
    product = gens.rand_gbm(rng, space, 0.6, name="product")
    checks = [
        lambda: check_leibniz_superalgebra(gens.rand_gbm(rng, space, 0.6)),
        lambda: check_conformal_leibniz(
            gens.rand_lambda_bracket(rng, space, 2, 6)),
        lambda: to_left_conformal(gens.rand_lambda_bracket(rng, space, 2, 6)),
        lambda: check_averaging(product, gens.rand_linear_map(rng, space)),
        lambda: classify_brackets(gens.rand_gbm(rng, space, 0.4, "circ")),
        lambda: solve_central_ext_anl(circ, bracket),
        lambda: check_alpha_system(ANL_ALPHA_SYSTEM,
                                   {"circ": circ, "bracket": bracket}, anz),
    ]
    gc.collect()
    gc.disable()
    try:
        for check in checks:
            check()
            assert gc.collect() == 0
    finally:
        gc.enable()
