"""Exact sparse linear algebra over the rationals."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from confalg.linalg import rref, rank, nullspace, span_basis, same_span, in_span

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def rows_strategy(ncols, max_rows=4):
    row = st.dictionaries(st.integers(0, ncols - 1), fractions, max_size=ncols)
    return st.lists(row, max_size=max_rows)


def dense(row, ncols):
    return tuple(row.get(j, Fraction(0)) for j in range(ncols))


def test_rref_small_example():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    pivots, reduced = rref(rows)
    assert pivots == [0]
    assert reduced[0] == {0: Fraction(1), 1: Fraction(2)}
    assert rank(rows) == 1


def test_rref_normalizes_leading_entries():
    rows = [{0: Fraction(2), 1: Fraction(6)}, {1: Fraction(3)}]
    pivots, reduced = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0] == {0: Fraction(1)}
    assert reduced[1] == {1: Fraction(1)}


def test_nullspace_small_example():
    # x + 2y = 0 over 2 columns
    rows = [{0: Fraction(1), 1: Fraction(2)}]
    basis = nullspace(rows, 2)
    assert basis == [(Fraction(-2), Fraction(1))]


def test_nullspace_of_zero_system_is_everything():
    basis = nullspace([], 3)
    assert len(basis) == 3
    assert basis[0] == (Fraction(1), Fraction(0), Fraction(0))


@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-4, 4),
                                max_size=6), max_size=6))
def test_int_rows_reduce_like_fraction_rows(rows):
    """Integral entries may stay ints; the pivot inverse never makes a
    float."""
    pivots, reduced = rref(rows)
    assert (pivots, reduced) == rref([{j: Fraction(v) for j, v in row.items()}
                                      for row in rows])
    assert all(type(v) in (int, Fraction)
               for row in reduced.values() for v in row.values())
    assert all(type(v) in (int, Fraction)
               for vec in nullspace(rows, 6) for v in vec)


@given(rows_strategy(4))
def test_rref_is_shuffle_invariant(rows):
    shuffled = list(rows)
    random.Random(7).shuffle(shuffled)
    assert rref(rows) == rref(shuffled)


@given(rows_strategy(4))
def test_nullspace_vectors_satisfy_the_system(rows):
    ncols = 4
    for vec in nullspace(rows, ncols):
        for row in rows:
            total = sum((row.get(j, Fraction(0)) * vec[j]
                         for j in range(ncols)), Fraction(0))
            assert total == 0


@given(rows_strategy(4))
def test_rank_nullity(rows):
    ncols = 4
    assert rank(rows) + len(nullspace(rows, ncols)) == ncols


@given(rows_strategy(4))
def test_span_basis_spans_the_same_space(rows):
    ncols = 4
    basis = span_basis(rows, ncols)
    assert same_span(rows, basis, ncols)
    for row in rows:
        assert in_span(dense(row, ncols), basis, ncols)
    assert len(basis) == rank(rows)


@given(rows_strategy(3), fractions, fractions)
def test_in_span_closed_under_combinations(rows, c1, c2):
    ncols = 3
    if len(rows) < 2:
        return
    combo = tuple(c1 * rows[0].get(j, Fraction(0))
                  + c2 * rows[1].get(j, Fraction(0)) for j in range(ncols))
    assert in_span(combo, rows, ncols)


def test_in_span_rejects_outside_vector():
    rows = [(Fraction(1), Fraction(0))]
    assert not in_span((Fraction(0), Fraction(1)), rows, 2)
    assert in_span((Fraction(5), Fraction(0)), rows, 2)


# ---------- a dense reference on wider systems ----------

def dense_gauss_jordan(rows, ncols):
    """Textbook dense Gauss-Jordan: (pivot columns, their reduced rows)."""
    mat = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        pick = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if pick is None:
            continue
        mat[top], mat[pick] = mat[pick], mat[top]
        lead = mat[top][col]
        mat[top] = [x / lead for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[top])]
        pivots.append(col)
    return pivots, [tuple(mat[i]) for i in range(len(pivots))]


@st.composite
def wide_systems(draw):
    """Up to 40 rows over up to 12 columns: random rows with explicit zero
    entries, plus repeated rows, proportional rows and empty rows, all in
    shuffled order."""
    ncols = draw(st.integers(1, 12))
    row = st.dictionaries(st.integers(0, ncols - 1), fractions,
                          max_size=ncols)
    rows = draw(st.lists(row, max_size=20))
    extra = []
    for base in rows:
        kind = draw(st.sampled_from(["none", "repeat", "scale", "empty"]))
        if kind == "repeat":
            extra.append(dict(base))
        elif kind == "scale":
            c = draw(fractions)
            extra.append({j: c * v for j, v in base.items()})
        elif kind == "empty":
            extra.append({})
    rows = rows + extra
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@given(wide_systems())
@settings(max_examples=100, deadline=None)
def test_rref_matches_a_dense_reference(system):
    rows, ncols = system
    ref_pivots, ref_rows = dense_gauss_jordan(rows, ncols)
    pivots, reduced = rref(rows)
    assert pivots == ref_pivots
    assert sorted(reduced) == pivots
    assert [dense(reduced[p], ncols) for p in pivots] == ref_rows
    for p in pivots:
        row = reduced[p]
        assert min(row) == p and row[p] == 1
        assert all(v != 0 for v in row.values())
        assert all(q == p or q not in row for q in pivots)

    free = [j for j in range(ncols) if j not in ref_pivots]
    ref_null = []
    for j in free:
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for p, ref_row in zip(ref_pivots, ref_rows):
            vec[p] = -ref_row[j]
        ref_null.append(tuple(vec))
    assert nullspace(rows, ncols) == ref_null
    assert span_basis(rows, ncols) == ref_rows
