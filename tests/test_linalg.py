"""Exact sparse linear algebra over the rationals."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (GradedBilinearMap, StarMode, assemble_cocycle_rows,
                     build_quadratic_bracket, linalg, star_from_mode, zero_map)
from confalg.linalg import rref, rank, nullspace, span_basis, same_span, in_span

import gens

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
    """Integral entries may stay ints; the division at the end never makes
    a float."""
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


# ---------- the fraction-free elimination against a Fraction oracle ----------

def _ref_clean(row):
    return {col: val for col, val in row.items() if val}


def ref_rref(rows):
    """The Fraction Gauss-Jordan that rref replaced, kept verbatim as an
    oracle: every row is normalised to a leading 1 as soon as it is stored,
    by a Fraction pivot inverse."""
    reduced = {}  # pivot col -> row dict
    users = {}    # non-pivot col -> set of pivot cols whose rows hold it
    for row in rows:
        row = _ref_clean(row)
        for pcol in [c for c in row if c in reduced]:
            factor = row.pop(pcol)
            for col, val in reduced[pcol].items():
                if col == pcol:
                    continue
                cur = row.get(col)
                if cur is None:
                    row[col] = -factor * val
                else:
                    cur -= factor * val
                    if cur:
                        row[col] = cur
                    else:
                        del row[col]
        if not row:
            continue
        pivot = min(row)
        lead = row[pivot]
        if lead == -1:
            row = {c: -v for c, v in row.items()}
        elif lead != 1:
            inv = Fraction(lead.denominator, lead.numerator)
            row = {c: inv * v for c, v in row.items()}
        for col in row:
            if col != pivot:
                users.setdefault(col, set()).add(pivot)
        # back-substitute into the stored rows that hold the new pivot
        for pcol in users.pop(pivot, ()):
            prow = reduced[pcol]
            factor = prow.pop(pivot)
            for col, val in row.items():
                if col == pivot:
                    continue
                cur = prow.get(col)
                if cur is None:
                    prow[col] = -factor * val
                    users[col].add(pcol)
                else:
                    cur -= factor * val
                    if cur:
                        prow[col] = cur
                    else:
                        del prow[col]
                        users[col].discard(pcol)
        reduced[pivot] = row
    return sorted(reduced), reduced


def typed(rows):
    """rows with the type of every entry, so that True and 1, or 3 and
    Fraction(3), tell apart."""
    return [sorted((col, type(val).__name__, val) for col, val in row.items())
            for row in rows]


def assert_like_the_oracle(rows):
    before = typed(rows)
    pivots, reduced = rref(rows)
    assert typed(rows) == before
    assert (pivots, reduced) == ref_rref(rows)
    for row in reduced.values():
        assert all(type(v) is int or (type(v) is Fraction
                                      and v.denominator > 1)
                   for v in row.values())
    return pivots, reduced


entries = st.one_of(
    st.integers(-9, 9), st.booleans(),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def mixed_systems(draw):
    """Up to 10 rows over up to 8 columns of ints, bools and Fractions with
    denominators 1-6, empty rows among them, plus integer combinations of
    two drawn rows, so that some rows clear to zero."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries,
                                         max_size=ncols), max_size=10))
    if len(rows) >= 2:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(
            st.integers(0, len(rows) - 1))
        combo = {col: a * rows[i].get(col, 0) + b * rows[j].get(col, 0)
                 for col in set(rows[i]) | set(rows[j])}
        rows.append(combo)
    return rows


@given(mixed_systems(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_rref_matches_the_fraction_oracle(rows, rng):
    result = assert_like_the_oracle(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rref(shuffled) == result


def test_hilbert_matrix_matches_the_oracle():
    n = 8
    rows = [{j: Fraction(1, i + j + 1) for j in range(n)} for i in range(n)]
    pivots, reduced = assert_like_the_oracle(rows)
    assert pivots == list(range(n))
    assert all(reduced[p] == {p: 1} for p in pivots)


def test_dense_integer_matrix_matches_the_oracle():
    rng = random.Random(14)
    rows = [{j: rng.randint(-9, 9) for j in range(14)} for _ in range(12)]
    pivots, reduced = assert_like_the_oracle(rows)
    assert pivots == list(range(12))
    assert any(type(v) is Fraction for row in reduced.values()
               for v in row.values())


def largest_gcd_argument(monkeypatch, rows):
    """The bit length of the largest integer rref takes a gcd of: every
    stored lead and every row content passes through one."""
    seen = [0]

    def spy(*args):
        seen[0] = max([seen[0]] + [abs(a).bit_length() for a in args])
        return math.gcd(*args)

    monkeypatch.setattr(linalg, 'gcd', spy)
    assert rref(rows) == ref_rref(rows)
    return seen[0]


def test_dense_rows_stay_near_the_hadamard_bound(monkeypatch):
    """Stored rows are primitive, so their entries are minors of the
    matrix, below the Hadamard bound H; an incoming row is scaled by about
    one lead.  Without the content divisions the integers grow to several
    times the bits of H."""
    rng = random.Random(14)
    n = 20
    rows = [{j: rng.randint(-9, 9) for j in range(n + 2)} for _ in range(n)]
    hadamard_bits = n * math.log2(9 * math.sqrt(n))
    assert largest_gcd_argument(monkeypatch, rows) < 2 * hadamard_bits


def test_a_stored_row_loses_its_content(monkeypatch):
    """Upper-triangular rows, each scaled by its own prime near 2^12 and
    arriving bottom-up: once cleared, each holds only its pivot, so it is
    stored as a lead of 1 and the integers never pass the input's.  Kept
    with its content, every lead would scale each later row."""
    primes = [4093, 4091, 4079, 4073, 4057, 4051, 4049, 4027, 4021, 4019]
    n = len(primes)
    rows = [{j: p * (i + j + 1) for j in range(i, n)}
            for i, p in enumerate(primes)]
    assert largest_gcd_argument(monkeypatch, rows[::-1]) <= 20


# ---------- settled columns: rows that force an unknown to zero ----------

nonzero_entries = st.one_of(
    st.integers(-9, 9).filter(bool), st.just(True),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)))
zeros = st.sampled_from([0, False, Fraction(0)])


@st.composite
def cocycle_systems(draw):
    """Systems shaped like the cocycle rows: many one-entry rows (some
    with explicit zero entries beside the one), two-entry rows {a, b} with
    a < b followed by a one-entry row {b}, so that back-substitution
    leaves {a} alone, a few longer rows, and repeated and scaled copies;
    shuffled or in the order built."""
    ncols = draw(st.integers(1, 12))
    col = st.integers(0, ncols - 1)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = {draw(col): draw(nonzero_entries)}
        for _ in range(draw(st.integers(0, 2))):
            row.setdefault(draw(col), draw(zeros))
        rows.append(row)
    if ncols > 1:
        for _ in range(draw(st.integers(0, 4))):
            a = draw(st.integers(0, ncols - 2))
            b = draw(st.integers(a + 1, ncols - 1))
            rows.append({a: draw(nonzero_entries), b: draw(nonzero_entries)})
            rows.append({b: draw(nonzero_entries)})
    rows += draw(st.lists(st.dictionaries(col, entries, max_size=4),
                          max_size=4))
    for base in list(rows):
        kind = draw(st.sampled_from(["none", "repeat", "scale"]))
        if kind == "repeat":
            rows.append(dict(base))
        elif kind == "scale":
            c = draw(nonzero_entries)
            rows.append({j: c * v for j, v in base.items()})
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(rows))))
        rows = [rows[i] for i in order]
    return rows, ncols


@given(cocycle_systems())
@settings(deadline=None)
def test_settled_columns_reduce_like_the_references(system):
    rows, ncols = system
    pivots, reduced = assert_like_the_oracle(rows)
    as_fractions = [{j: Fraction(v) for j, v in row.items()} for row in rows]
    ref_pivots, ref_rows = dense_gauss_jordan(as_fractions, ncols)
    assert pivots == ref_pivots
    assert [dense(reduced[p], ncols) for p in pivots] == ref_rows


@given(cocycle_systems())
@settings(deadline=None)
def test_a_shared_settled_set_lists_the_settled_pivots(system):
    """rref(rows, s) gives rref(rows) and leaves in s exactly the pivot
    columns whose reduced row is {p: 1}."""
    rows, _ = system
    settled = set()
    pivots, reduced = rref(rows, settled)
    assert (pivots, reduced) == rref(rows)
    assert settled == {p for p in pivots if reduced[p] == {p: 1}}


@given(cocycle_systems())
@settings(deadline=None)
def test_rows_that_read_the_settled_set_reduce_alike(system):
    """A row iterator that reads the shared set between rows and leaves
    out the entries in settled columns gives the RREF of the full rows,
    and nullspace the same basis."""
    rows, ncols = system

    def lazy(settled):
        for row in rows:
            yield {c: v for c, v in row.items() if c not in settled}

    settled = set()
    assert rref(lazy(settled), settled) == rref(rows)
    settled = set()
    assert nullspace(lazy(settled), ncols, settled) == nullspace(rows, ncols)


def test_a_lazy_row_sees_the_columns_settled_before_it():
    """The set fills while rref runs: the third row is built after {0: 3}
    and {1: 5} arrive, so it finds columns 0 and 1 settled."""
    rows = [{0: 3}, {1: 5}, {0: 1, 1: 2, 2: 4}]
    seen = []

    def lazy(settled):
        for row in rows:
            seen.append(sorted(settled))
            yield row

    settled = set()
    pivots, reduced = rref(lazy(settled), settled)
    assert seen == [[], [0], [0, 1]]
    assert pivots == [0, 1, 2] and settled == {0, 1, 2}


def test_a_back_substituted_row_settles_its_column():
    """{0: 2, 1: 3} is left as {0: 1} once {1: 5} is back-substituted
    into it, so the last row keeps only column 2."""
    rows = [{0: 2, 1: 3}, {1: 5}, {0: 4, 1: Fraction(7, 2), 2: -3}]
    pivots, reduced = assert_like_the_oracle(rows)
    assert pivots == [0, 1, 2]
    assert all(reduced[p] == {p: 1} for p in pivots)


def conjugated(circ, width):
    """circ on an even space in the basis f_j = e_j + ... + e_(j+width),
    stopping at the last basis vector."""
    dim = circ.space.dim
    spans = [range(j, min(j + width + 1, dim)) for j in range(dim)]
    out = GradedBilinearMap(circ.space, name=circ.name)
    for i in range(dim):
        for j in range(dim):
            v = [0] * dim
            for a in spans[i]:
                for b in spans[j]:
                    for k, c in circ.table.get((a, b), {}).items():
                        v[k] += c
            w = []   # the f-coordinates of v, by forward substitution
            for k in range(dim):
                w.append(v[k] - sum(w[max(0, k - width):k]))
            out.set_entry(i, j, {k: c for k, c in enumerate(w) if c})
    return out


@pytest.mark.parametrize("width", [0, 1, 5])
def test_a_cocycle_system_matches_the_oracle(width):
    """The direct cocycle rows of the truncated-polynomial algebra on
    Q[x]/(x^5) in a sparse, a banded and a dense basis, against the
    oracle.  In the first two, over a quarter of the rows hold one entry
    and most pivots settle their column to zero; the cocycle space has the
    same dimension in all three."""
    circ = conjugated(gens.truncated_poly_circ(5), width)
    built = build_quadratic_bracket(circ, star_from_mode(circ, StarMode.DOUBLE),
                                    zero_map(circ.space, "bracket"))
    unknowns, rows = assemble_cocycle_rows(built, (0, 1, 2, 3))
    pivots, reduced = assert_like_the_oracle(rows)
    assert len(unknowns) - len(pivots) == 13
    assert len(nullspace(rows, len(unknowns))) == 13
    if width < 5:
        assert sum(len(row) == 1 for row in rows) * 4 > len(rows)
        assert sum(reduced[p] == {p: 1} for p in pivots) * 2 > len(pivots)
