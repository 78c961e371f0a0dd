"""Super vector spaces, graded bilinear maps, and classical axiom checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, LinearMap, Scalar,
                     ScalarError, sign, check_skew_symmetry,
                     check_left_leibniz_superalgebra,
                     check_leibniz_superalgebra, check_lie_superalgebra,
                     to_left_superalgebra, check_supercommutative,
                     check_associative)

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
    assert sp.vec_parity(v) == 0


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
