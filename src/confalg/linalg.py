"""Exact linear algebra over Q, done sparsely.

Rows are dicts mapping column index -> rational, an int, a Fraction or a
bool; a missing key is 0.  rref eliminates fraction-free: it scales each
incoming row to integers once, keeps every stored row a primitive integer
row (int entries with gcd 1) with a positive lead, and divides each row by
its lead only when it returns, so integral results are ints, the rest are
Fractions, and no float is ever made.  A stored row {c: 1} (x_c = 0) is
the only one holding c, so c is dropped from later rows on arrival; a
caller may share that set of settled columns with a lazy row iterator,
which can then leave them out before it builds them (see rref).  The
row-reduced echelon form is unique, so every routine here is
deterministic no matter what order rows arrive in.
"""

from fractions import Fraction
from math import gcd, lcm

_INT = frozenset([int])  # type(True) is bool, so a bool takes the slow path


def rref(rows, settled=None):
    """Reduce a collection of sparse rows to RREF.

    Returns (pivot_cols, reduced) where pivot_cols is the sorted list of
    pivot columns and reduced maps each pivot column to its (fully reduced,
    leading-1) row.

    Incremental, fraction-free Gauss-Jordan.  Invariant: every stored row
    is a primitive integer row with a positive lead, and it is zero in
    every pivot column but its own.  So an incoming row is cleared of
    exactly the pivot columns it holds on arrival, in any order, and a new
    pivot is back-substituted only into the stored rows that hold its
    column, which `users` (non-pivot column -> pivot columns whose rows
    hold it) lists.  Both clear column p of a row r with the row s that
    leads at p by cross-multiplication, r <- (s[p]/g) r - (r[p]/g) s with
    g = gcd(s[p], r[p]): no division, and no scaling when s[p] divides
    r[p].  A row is divided by its lead once, on return.  `zero` lists the
    settled columns c, whose stored row is {c: 1}: x_c = 0, and no other
    stored row holds c, so an incoming row drops them with its zero
    entries, exactly, and is skipped if nothing is left.

    settled, if given, is an empty set that rref uses as `zero`: after each
    row it holds exactly the settled columns so far, so an iterator of rows
    may read it and leave out the entries in those columns, the same drop
    rref makes on arrival, with the same result.  The skip acts only while
    the rows stay lazy: a list made before the call sees the set empty.
    """
    reduced = {}  # pivot col -> primitive int row, lead > 0
    users = {}    # non-pivot col -> set of pivot cols whose rows hold it
    # pivot cols whose row is {col: 1}: that unknown is 0
    zero = set() if settled is None else settled
    for row in rows:
        row = {col: val for col, val in row.items()
               if col not in zero and val}
        if not row:
            continue
        if not _INT.issuperset(map(type, row.values())):
            den = lcm(*[val.denominator for val in row.values()])
            row = {col: val.numerator * (den // val.denominator)
                   for col, val in row.items()}
        for pcol in [c for c in row if c in reduced]:
            prow = reduced[pcol]
            factor = row.pop(pcol)
            lead = prow[pcol]
            if lead != 1:
                g = gcd(lead, factor)
                factor //= g
                if g != lead:
                    scale = lead // g
                    row = {col: scale * val for col, val in row.items()}
            for col, val in prow.items():
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
        content = gcd(*row.values())
        if row[pivot] < 0:
            content = -content
        if content != 1:
            row = {col: val // content for col, val in row.items()}
        lead = row[pivot]
        for col in row:
            if col != pivot:
                users.setdefault(col, set()).add(pivot)
        # back-substitute into the stored rows that hold the new pivot
        for pcol in users.pop(pivot, ()):
            prow = reduced[pcol]
            factor = prow.pop(pivot)
            if lead != 1:
                g = gcd(lead, factor)
                factor //= g
                if g != lead:
                    scale = lead // g
                    for col in prow:
                        prow[col] *= scale
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
            content = gcd(*prow.values())
            if content != 1:
                for col in prow:
                    prow[col] //= content
            if len(prow) == 1:
                zero.add(pcol)
        reduced[pivot] = row
        if len(row) == 1:
            zero.add(pivot)
    for pivot, row in reduced.items():
        lead = row[pivot]
        if lead != 1:
            reduced[pivot] = {col: val // lead if val % lead == 0
                              else Fraction(val, lead)
                              for col, val in row.items()}
    return sorted(reduced), reduced


def rank(rows):
    pivots, _ = rref(rows)
    return len(pivots)


def nullspace(rows, ncols, settled=None):
    """Standard nullspace basis of the homogeneous system rows * x = 0.

    One basis vector per free column, in increasing free-column order: the
    vector has 1 in its free column, 0 in the other free columns, and the
    negated reduced-row entries in the pivot columns.  Vectors are returned
    as tuples of rationals (ints or Fractions) of length ncols.  settled
    is passed on to rref.
    """
    _, reduced = rref(rows, settled)
    basis = {free: [0] * ncols for free in range(ncols)
             if free not in reduced}
    for free, vec in basis.items():
        vec[free] = 1
    for pcol, row in reduced.items():
        for col, val in row.items():
            if col != pcol:
                basis[col][pcol] = -val
    return [tuple(vec) for vec in basis.values()]


def span_basis(vectors, ncols):
    """Canonical (RREF) basis of the span of the given vectors.

    Two lists of vectors span the same subspace iff this returns the same
    list for both.  Vectors come in as sequences or sparse dicts; the result
    is a list of length-ncols rational tuples sorted by pivot column.
    """
    rows = []
    for vec in vectors:
        if isinstance(vec, dict):
            rows.append(vec)
        else:
            rows.append({i: v for i, v in enumerate(vec)})
    pivots, reduced = rref(rows)
    return [tuple(reduced[pcol].get(i, 0) for i in range(ncols))
            for pcol in pivots]


def same_span(vectors_a, vectors_b, ncols):
    return span_basis(vectors_a, ncols) == span_basis(vectors_b, ncols)


def in_span(vector, vectors, ncols):
    """Is `vector` in the span of `vectors`?"""
    base = span_basis(vectors, ncols)
    joined = span_basis(list(base) + [tuple(vector)], ncols)
    return joined == base
