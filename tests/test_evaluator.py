"""The compiled equation evaluator of `superspace` against an uncompiled
reference, and the memo it keeps during one check."""

import copy
import functools
import gc
import itertools
import math
import random
import types
from fractions import Fraction
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from confalg import (AxiomReport, GradedBilinearMap, LambdaBracket,
                     LinearMap, Scalar, SuperSpace, as_rational,
                     build_quadratic_bracket,
                     check_alpha_system, check_averaging,
                     check_conformal_leibniz, check_leibniz_superalgebra,
                     solve_central_ext_anl, VPoly)
from confalg.conformal import (CONFORMAL_JACOBI, CONFORMAL_LEIBNIZ,
                               CONFORMAL_SKEW, _ops)
from confalg.extensions import ANL_ALPHA_SYSTEM, CASES
from confalg.quadratic import AVERAGING_EQ, SYSTEMS
from confalg.superspace import (ASSOCIATIVITY, LEFT_LEIBNIZ, RIGHT_LEIBNIZ,
                                SKEW_SYMMETRY, SUPERCOMMUTATIVITY, B,
                                Combination, X, Y, Z, _add_term, _equations,
                                _integral, _memoised, _residual, check_system)

import gens


# ---------- the reference: one dispatch per node and per cell ----------

def ref_term_sign(sign_pairs, parities):
    expo = 0
    for left, right in sign_pairs:
        pl = sum(parities[ch] for ch in left)
        pr = sum(parities[ch] for ch in right)
        expo += pl * pr
    return -1 if expo % 2 else 1


def ref_slots(expr):
    if expr[0] == 'slot':
        return ('xyz'.index(expr[1]),)
    return tuple(sorted(set().union(*map(ref_slots, expr[2:]))))


def ref_memoised(space, ops):
    """value(expr, cell), looking the expression up in the memo, then
    dispatching on its node type, at every node of every cell."""
    memo = {}

    def value(expr, cell):
        entry = memo.get(expr)
        if entry is None:
            slots = ref_slots(expr)
            entry = memo[expr] = (itemgetter(*slots), len(slots), {})
        key_of, used, values = entry
        key = key_of(cell)
        vec = values.get(key)
        if vec is None:
            if expr[0] == 'slot':
                vec = space.basis_vec(key)
            else:
                vec = ops[expr[1]](*[value(arg, cell) for arg in expr[2:]])
            if used < len(cell):
                values[key] = vec
        return vec
    return value


def ref_terms_at(terms, space, cell, value):
    parities = {slot: space.parities[i] for slot, i in zip('xyz', cell)}
    for coeff, pairs, *rest in terms:
        yield (coeff * ref_term_sign(pairs, parities),
               [value(x, cell) if isinstance(x, tuple) else x for x in rest])


def ref_residual(terms, space, cell, value):
    out = vec = {}
    for s, (vec,) in ref_terms_at(terms, space, cell, value):
        for k, c in vec.items():
            _add_term(out, k, c if s == 1 else c * s)
    return vec._trusted(out) if isinstance(vec, Combination) else out


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
    if expr[0] != 'slot':
        yield expr
        for arg in expr[2:]:
            yield from op_nodes(arg)


def arity(terms):
    return 1 + max(max(ref_slots(term[2])) for term in terms)


def assert_same_residuals(equations, ops):
    """The compiled residual equals the reference residual at every cell,
    as a value and as rendered text."""
    space = next(iter(ops.values())).space
    plan, value = _memoised(space, ops), ref_memoised(space, ops)
    for _, terms in equations:
        n = arity(terms)
        terms_at = plan(terms, n)
        for cell in itertools.product(range(space.dim), repeat=n):
            got = _residual(terms_at(cell), cell)
            want = ref_residual(terms, space, cell, value)
            assert type(got) is type(want)
            if isinstance(want, Combination):
                assert got.terms == want.terms and str(got) == str(want)
            else:
                assert got == want
                assert space.vec_str(got) == space.vec_str(want)


@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_compiled_residuals_match_the_reference(dim, seed):
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
def test_compiled_alpha_terms_match_the_reference(dim, seed):
    """The structured cocycle systems keep their degree index in place and
    evaluate both expressions as the reference does."""
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    ops = {name: gens.rand_gbm(rng, space, name=name)
           for name in ("circ", "star", "bracket")}
    plan, value = _memoised(space, ops), ref_memoised(space, ops)
    for case in CASES.values():
        for _, terms in case[2]:
            terms_at = plan(terms, 3)
            for cell in itertools.product(range(space.dim), repeat=3):
                got = [(s, t, f1(cell), f2(cell))
                       for s, t, f1, f2 in terms_at(cell)]
                want = [(s, *values) for s, values
                        in ref_terms_at(terms, space, cell, value)]
                assert got == want


# ---------- the memo of one check ----------

def run_check(equations, ops, plan, fail_fast=False):
    return AxiomReport("check").run(*_equations(equations, ops, plan),
                                    fail_fast)


def report_summary(rep):
    return (rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_memo_keeps_only_nodes_with_fewer_slots(dim, seed):
    rng = random.Random(seed)
    space = gens.rand_space(rng, dim)
    maps = {name: gens.rand_gbm(rng, space, name=name)
            for name in ("circ", "star", "bracket")}
    for _, equations, names in SYSTEMS.values():
        for n in (2, 3):
            same_arity = [eq for eq in equations if arity(eq[1]) == n]
            if not same_arity:
                continue
            ops = {m: maps[m] for m in names}
            plan = _memoised(space, ops)
            run_check(same_arity, ops, plan)
            for expr, values in plan.memo.items():
                used = len(ref_slots(expr))
                assert used < n or not values
                assert len(values) <= space.dim ** (n - 1)
            # the memo fills on demand: a node with fewer slots than the
            # cell holds its values at the slot indices of the listed cells
            # whose terms hold it, and nowhere else
            want = {}
            for _, terms in same_arity:
                listed = list(plan.cells([term[2] for term in terms], n))
                for node in {node for term in terms
                             for node in op_nodes(term[2])
                             if len(ref_slots(node)) < n}:
                    want.setdefault(node, set()).update(
                        map(itemgetter(*ref_slots(node)), listed))
            assert {expr: set(values) for expr, values in plan.memo.items()
                    if values} == {node: keys for node, keys in want.items()
                                   if keys}
            assert any(plan.memo.values()) == any(want.values())


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_checks_modify_no_table_and_no_memoised_vector(dim, seed):
    rng = random.Random(seed)
    space = odd_parametric_space(rng, dim)
    maps = {name: parametric_map(rng, space, name)
            for name in ("circ", "star", "bracket")}
    tables = copy.deepcopy({name: gbm.table for name, gbm in maps.items()})
    equations = SYSTEMS['t'][1]
    plan = _memoised(space, maps)
    first = report_summary(run_check(equations, maps, plan))
    memo = copy.deepcopy(plan.memo)
    # a second run reads every memoised vector again and stores no new one
    assert report_summary(run_check(equations, maps, plan)) == first
    assert plan.memo == memo
    assert {name: gbm.table for name, gbm in maps.items()} == tables
    assert first == report_summary(check_system("check", equations, maps))


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
    each residual; a plan passed in keeps the ops as given.  The reports
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
        assert (report_summary(check_system("check", equations, ops,
                                            fail_fast))
                == report_summary(run_check(equations, ops,
                                            _memoised(space, ops),
                                            fail_fast)))

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


def confalg_closures():
    """Every live function or cache wrapper that a confalg function made."""
    return [f for f in gc.get_objects()
            if isinstance(f, (types.FunctionType,
                              functools._lru_cache_wrapper))
            and (f.__module__ or "").startswith("confalg")
            and "<locals>" in f.__qualname__]


def test_no_plan_outlives_its_check():
    """With the cyclic garbage collector off, a check frees its plan, its
    memo and every closure compiled for it when it ends: nothing of the
    evaluator is kept alive by a reference cycle."""
    rng = random.Random(3)
    space = gens.rand_space(rng, 3)
    _, circ, bracket = gens.rab_data(0, 0)
    anz = solve_central_ext_anl(circ, bracket).ansatz(0)
    anz.set(0, "W", "W", Fraction(1, 2))
    checks = [
        lambda: check_leibniz_superalgebra(gens.rand_gbm(rng, space, 0.6)),
        lambda: check_conformal_leibniz(
            gens.rand_lambda_bracket(rng, space, 2, 6)),
        lambda: solve_central_ext_anl(circ, bracket),
        lambda: check_alpha_system(ANL_ALPHA_SYSTEM,
                                   {"circ": circ, "bracket": bracket}, anz),
    ]
    gc.collect()
    gc.disable()
    try:
        for check in checks:
            before = confalg_closures()
            known = {id(f) for f in before}
            check()
            left = [f.__qualname__ for f in confalg_closures()
                    if id(f) not in known]
            assert left == []
    finally:
        gc.enable()
