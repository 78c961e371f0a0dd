"""Super vector spaces, graded bilinear maps, and classical axiom checks."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, LinearMap, Scalar,
                     ScalarError, sign, check_skew_symmetry,
                     check_left_leibniz_superalgebra,
                     check_leibniz_superalgebra, check_lie_superalgebra,
                     to_left_superalgebra, check_supercommutative,
                     check_associative, AxiomReport, StarMode, star_from_mode,
                     check_averaging, build_assoc_novikov_from_averaging)
from confalg.quadratic import K_SYSTEM
from confalg.superspace import check_system

import gens


def test_sign_table():
    assert sign(0, 0) == 1
    assert sign(0, 1) == 1
    assert sign(1, 0) == 1
    assert sign(1, 1) == -1


def test_space_basics():
    sp = SuperSpace([("L", 0), ("W", 0), ("F", 1)])
    assert sp.dim == 3
    assert list(sp.names) == ["L", "W", "F"]
    assert sp.index("W") == 1
    assert sp.parity("F") == 1
    assert sp.parity(0) == 0
    assert not sp.is_killed("L")


def test_killed_vectors():
    sp = SuperSpace([("L", 0), ("c", 0)], killed=("c",))
    assert sp.is_killed("c")
    assert not sp.is_killed("L")


def test_vector_arithmetic():
    sp = SuperSpace([("L", 0), ("W", 0)])
    v = sp.add(sp.basis_vec("L"), sp.scale(2, sp.basis_vec("W")))
    assert sp.vec_str(v) == "L + 2 W"
    assert sp.vec_is_zero(sp.sub(v, v))
    assert sp.vec_eq(v, {0: 1, 1: 2})


def test_grading_enforced_on_set_entry():
    sp = SuperSpace([("x", 0), ("f", 1)])
    gbm = GradedBilinearMap(sp)
    gbm.set_entry("x", "f", {"f": 1})  # even*odd -> odd is fine
    with pytest.raises(ScalarError):
        gbm.set_entry("x", "f", {"x": 1})  # even*odd -> even is not


def test_linear_map_preserves_parity():
    sp = SuperSpace([("x", 0), ("f", 1)])
    lm = LinearMap(sp)
    lm.set_entry("x", {"x": 2})
    assert sp.vec_eq(lm("x"), {0: 2})
    with pytest.raises(ScalarError):
        lm.set_entry("x", {"f": 1})


def test_bilinearity_on_vectors():
    sp = SuperSpace([("L", 0), ("W", 0)])
    circ = gens.example_circ(sp)
    v = sp.add(sp.basis_vec("L"), sp.basis_vec("W"))
    # (L+W) circ (L+W) = W circ L + W circ W = L + W
    assert sp.vec_eq(circ.apply_vec(v, v), {0: 1, 1: 1})


def test_bracket_family_is_left_but_not_right_leibniz():
    """[W, L] = a L, [W, W] = b L satisfies the left Leibniz identity for
    all a, b, while the right identity leaves the residual a^2 L."""
    sp = SuperSpace([("L", 0), ("W", 0)], params=("a", "b"))
    a = Scalar.param("a", sp.params)
    b = Scalar.param("b", sp.params)
    br = gens.example_bracket(sp, a, b)

    left = check_left_leibniz_superalgebra(br)
    assert left.passed
    assert left.checked == 8

    right = check_leibniz_superalgebra(br)
    assert not right.passed
    worst = right.failures[0]
    assert worst["at"] == ("W", "W", "L")
    assert worst["residual"] == "a^2 L"


def test_one_one_dimensional_lie_superalgebra():
    sp = SuperSpace([("X", 0), ("F", 1)])
    br = GradedBilinearMap(sp, name="bracket")
    br.set_entry("X", "F", {"F": 1})
    br.set_entry("F", "X", {"F": -1})
    assert check_lie_superalgebra(br).passed
    assert check_skew_symmetry(br).passed
    assert check_leibniz_superalgebra(br).passed


def test_example_product_is_associative_not_supercommutative():
    circ = gens.example_circ()
    assert check_associative(circ).passed
    assert not check_supercommutative(circ).passed


@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_to_left_is_an_involution(dim, seed):
    import random
    rng = random.Random(seed)
    sp = gens.rand_space(rng, dim)
    br = gens.rand_gbm(rng, sp)
    back = to_left_superalgebra(to_left_superalgebra(br))
    for i in range(sp.dim):
        for j in range(sp.dim):
            assert sp.vec_eq(back.entry(i, j), br.entry(i, j))


@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_to_left_swaps_left_and_right_leibniz(dim, seed):
    import random
    rng = random.Random(seed)
    sp = gens.rand_space(rng, dim)
    br = gens.rand_gbm(rng, sp)
    flipped = to_left_superalgebra(br)
    assert (check_leibniz_superalgebra(br).passed
            == check_left_leibniz_superalgebra(flipped).passed)
    assert (check_left_leibniz_superalgebra(br).passed
            == check_leibniz_superalgebra(flipped).passed)


@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_lie_is_skew_plus_jacobi(dim, seed):
    import random
    rng = random.Random(seed)
    sp = gens.rand_space(rng, dim)
    br = gens.rand_gbm(rng, sp)
    lie = check_lie_superalgebra(br).passed
    pieces = (check_skew_symmetry(br).passed
              and check_left_leibniz_superalgebra(br).passed)
    assert lie == pieces


def test_substitute_params_creates_new_space():
    sp = SuperSpace([("L", 0), ("W", 0)], params=("a",))
    a = Scalar.param("a", sp.params)
    br = gens.example_bracket(sp, a, a + Scalar.one())
    at2 = br.substitute_params({"a": Fraction(2)})
    assert at2.space is not sp
    assert at2.space.params == ()
    assert at2.space.vec_eq(at2.entry("W", "L"), {0: 2})
    assert at2.space.vec_eq(at2.entry("W", "W"), {0: 3})


def test_axiom_report_is_truthy_on_pass():
    circ = gens.example_circ()
    rep = check_associative(circ)
    assert bool(rep)
    assert "pass" in str(rep).lower() or rep.passed


def test_index_accepts_a_name_or_an_index():
    sp = SuperSpace([("x", 0), ("y", 1)], killed=("y",))
    assert sp.index("y") == 1
    assert sp.index(1) == 1
    assert sp.parity(1) == sp.parity("y") == 1
    assert sp.is_killed(1) and sp.is_killed("y") and not sp.is_killed(0)
    assert sp.basis_vec("y") == sp.basis_vec(1)


# ---------- the equation evaluator against hand-written residuals ----------

# An independent oracle: the classical identities as hand-written residual
# functions on basis indices, run cell by cell through AxiomReport.run.

def _supersymmetrized(m, i, j):
    """m(x, y) + (-1)^{|x||y|} m(y, x) at a basis pair."""
    space = m.space
    return space.add(m(i, j),
                     space.scale(sign(space.parity(i), space.parity(j)),
                                 m(j, i)))


def _left_leibniz_residual(bracket, i, j, k):
    space = bracket.space
    return space.sub(bracket(i, bracket(j, k)),
                     space.add(bracket(bracket(i, j), k),
                               space.scale(sign(space.parity(i),
                                                space.parity(j)),
                                           bracket(j, bracket(i, k)))))


def _right_leibniz_residual(bracket, i, j, k):
    space = bracket.space
    return space.sub(bracket(i, bracket(j, k)),
                     space.sub(bracket(bracket(i, j), k),
                               space.scale(sign(space.parity(j),
                                                space.parity(k)),
                                           bracket(bracket(i, k), j))))


def _supercommutator(product, i, j):
    space = product.space
    return space.sub(product(i, j),
                     space.scale(sign(space.parity(i), space.parity(j)),
                                 product(j, i)))


def _associator(product, i, j, k):
    space = product.space
    return space.sub(product(product(i, j), k), product(i, product(j, k)))


def _averaging_residual(product, avg, i, j):
    space = product.space
    return space.sub(avg(product(avg(i), space.basis_vec(j))),
                     product.apply_vec(avg(i), avg(j)))


def _k_system_residuals(circ, bracket):
    """The three symmetrized-star mixed equations, by hand: (name, arity,
    residual) for each."""
    space = circ.space
    p = space.parity

    def sym1(i, j, k):
        return space.add(circ(bracket(i, j), k), bracket(circ(i, j), k),
                         space.scale(-1, circ(i, bracket(j, k))),
                         space.scale(sign(p(i), p(j)),
                                     bracket(j, circ(i, k))),
                         space.scale(-sign(p(j), p(k)),
                                     circ(bracket(i, k), j)))

    def sym2(i, j, k):
        return space.add(circ(bracket(i, j), k),
                         space.scale(sign(p(i), p(j)),
                                     circ(bracket(j, i), k)))

    def sym3(i, j, k):
        return space.add(bracket(circ(i, j), k),
                         space.scale(sign(p(k), p(i) + p(j)),
                                     bracket(k, circ(i, j))))
    return [("sym1", 3, sym1), ("sym2", 3, sym2), ("sym3", 3, sym3)]


def oracle_run(rep, space, parts, fail_fast):
    """Run the parts (identity, arity, residual on basis indices) into rep
    in one AxiomReport.run, each on every basis cell of its arity."""
    cells = [(identity, residual, cell)
             for identity, arity, residual in parts
             for cell in itertools.product(range(space.dim), repeat=arity)]

    def check(item):
        identity, residual, cell = item
        res = residual(*cell)
        if not space.vec_is_zero(res):
            yield identity, [space.names[i] for i in cell], space.vec_str(res)
    return rep.run(cells, check, fail_fast)


def report_summary(rep):
    return (rep.name, rep.passed, rep.checked,
            [(f["identity"], f["at"], f["residual"]) for f in rep.failures])


def symbolic_space(rng, dim):
    """A random basis with odd generators, over one parameter a."""
    base = gens.rand_space(rng, dim)
    return SuperSpace(list(zip(base.names, base.parities)), params=("a",))


def symbolic_map(rng, space, name):
    """A random graded map whose coefficients are c + c' a; sparse at
    times, so that some identities hold."""
    a = Scalar.param("a", space.params)
    gbm = gens.rand_gbm(rng, space, density=rng.choice([0.15, 0.5]),
                        name=name)
    out = GradedBilinearMap(space, name=name)
    for (i, j), vec in gbm.table.items():
        out.set_entry(i, j, {k: c + a * gens.rand_fraction(rng)
                             for k, c in vec.items()})
    return out


def symbolic_even_map(rng, space):
    a = Scalar.param("a", space.params)
    avg = LinearMap(space, name="avg")
    for i in range(space.dim):
        avg.set_entry(i, {k: gens.rand_fraction(rng) + a * gens.rand_fraction(rng)
                          for k in range(space.dim)
                          if space.parity(k) == space.parity(i)
                          and rng.random() < 0.5})
    return avg


@given(st.integers(1, 4), st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=30, deadline=None)
def test_equation_checks_match_hand_written_residuals(dim, seed, fail_fast):
    rng = random.Random(seed)
    space = symbolic_space(rng, dim)
    br = symbolic_map(rng, space, "bracket")
    circ = symbolic_map(rng, space, "circ")
    avg = symbolic_even_map(rng, space)
    part = functools.partial
    skew = ("skew-symmetry", 2, part(_supersymmetrized, br))
    left = ("left Leibniz", 3, part(_left_leibniz_residual, br))
    cases = [
        (check_skew_symmetry(br, fail_fast), "super skew-symmetry", [skew]),
        (check_left_leibniz_superalgebra(br, fail_fast),
         "left Leibniz identity", [left]),
        (check_leibniz_superalgebra(br, fail_fast), "right Leibniz identity",
         [("right Leibniz", 3, part(_right_leibniz_residual, br))]),
        (check_lie_superalgebra(br, fail_fast), "Lie superalgebra axioms",
         [skew, left]),
        (check_supercommutative(circ, fail_fast), "supercommutativity",
         [("supercommutativity", 2, part(_supercommutator, circ))]),
        (check_associative(circ, fail_fast), "associativity",
         [("associativity", 3, part(_associator, circ))]),
        (check_system("K system", K_SYSTEM, {"circ": circ, "bracket": br},
                      fail_fast),
         "K system", _k_system_residuals(circ, br)),
    ]
    for rep, title, parts in cases:
        oracle = oracle_run(AxiomReport(title), space, parts, fail_fast)
        assert report_summary(rep) == report_summary(oracle)

    # check_averaging: both product checks, then the averaging identity
    oracle = AxiomReport("averaging operator axioms")
    oracle_run(oracle, space,
               [("supercommutativity", 2, part(_supercommutator, circ))],
               fail_fast)
    oracle_run(oracle, space,
               [("associativity", 3, part(_associator, circ))], fail_fast)
    if not (fail_fast and not oracle.passed):
        oracle_run(oracle, space, [("averaging identity", 2,
                                    part(_averaging_residual, circ, avg))],
                   fail_fast)
    assert (report_summary(check_averaging(circ, avg, fail_fast))
            == report_summary(oracle))


def table_strs(gbm):
    space = gbm.space
    return {key: space.vec_str(vec) for key, vec in gbm.table.items()}


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_derived_maps_match_hand_written_definitions(dim, seed):
    rng = random.Random(seed)
    space = symbolic_space(rng, dim)
    circ = symbolic_map(rng, space, "circ")
    avg = symbolic_even_map(rng, space)
    cells = list(itertools.product(range(space.dim), repeat=2))

    def nonzero(vectors):
        return {cell: space.vec_str(vec)
                for cell, vec in zip(cells, vectors)
                if not space.vec_is_zero(vec)}
    assert table_strs(star_from_mode(circ, StarMode.SYMMETRIZED)) == nonzero(
        _supersymmetrized(circ, i, j) for i, j in cells)
    assert table_strs(star_from_mode(circ, StarMode.DOUBLE)) == nonzero(
        space.scale(2, circ(i, j)) for i, j in cells)
    assert table_strs(to_left_superalgebra(circ)) == nonzero(
        space.scale(-sign(space.parity(i), space.parity(j)), circ(j, i))
        for i, j in cells)
    assert table_strs(build_assoc_novikov_from_averaging(circ, avg)) == (
        nonzero(circ(avg(i), space.basis_vec(j)) for i, j in cells))
