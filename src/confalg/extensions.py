"""Central extensions of conformal (super)algebras by one even central
element killed by d.

An extension deforms a bracket to [a _l b] + alpha_l(a, b) c where c is
central, even, with d c = 0.  With the polynomial ansatz
alpha_l = sum_t l^t alpha_t the cocycle equation

    alpha_l(a, [b _m c]) = alpha_{l+m}([a _l b], c)
                           - (-1)^{|b||c|} alpha_{-m}([a _l c], b)

becomes one exact linear system per monomial l^i m^j per basis triple; this
module solves it two independent ways:

* the **direct route** expands the cocycle equation term by term straight
  from the stored lambda-bracket (any entries, any ansatz degree).  Each
  of its three terms depends on one bracket pair only, so its expansion
  (signs, binomials, monomials and unknowns) is tabulated once per pair,
  not once per basis triple: the LHS alpha_l(a, [b _m c]) keyed by
  (b, c), the first RHS term alpha_{l+m}([a _l b], c) keyed by (a, b),
  and the second, alpha_{-m}([a _l c], b), keyed by (a, c) with one list
  per Koszul sign.  The RHS tables are built per outer index (a, or a and
  b) and dropped when it moves on, which keeps peak memory flat.
  _cocycle_rows reads them with a column per unknown, leaving out the
  unknowns in a settled set; assemble_cocycle_rows lists its rows with
  nothing settled, and solve_cocycles_direct streams them, on the bracket
  scaled to integers, into linalg.nullspace with rref's own settled set
  (the rows must stay lazy for the skip to act).  check_cocycle_direct
  reads the same tables with the ansatz's values; and
* the **structured route** instantiates the per-degree equation systems known
  in closed form for the quadratic cases (the associative-Novikov-Leibniz
  case, the bracket-free associative-Novikov case, the symmetrized
  Gelfand-Dorfman case, and the bracket-free Novikov case): one row of
  CASES each, all solved by solve_structured.  Its rows and its check
  come from _alpha_cells, which scatters each term once over the value
  tables of its two arguments (an op over two slots is its table), not
  once per basis triple, and takes its sign once per parity class.

Both routes produce solution spaces over the same unknown order
(degree index t, row basis index p, column basis index q), restricted to
pairs of even parity sum (odd pairs vanish because c is even), so their
reduced echelon bases are directly comparable.  central_extension is where
they are compared, on a declared bracket the case builds.
"""

from collections import defaultdict
from fractions import Fraction
from math import comb, lcm

from . import linalg
from .scalars import (Scalar, as_rational, combination_str, denominator,
                      graded_lex, monomial_str, require_rational, rescaled)
from .superspace import (AxiomReport, B, SuperSpace, X, Y, Z, check_system,
                         _integral, _join, _nodes, _runs, _signs, _slots,
                         _spread, _values)
from .conformal import LambdaBracket, VPoly
from .quadratic import (C, S, SYSTEMS, StarMode, build_quadratic_bracket,
                        star_from_mode, zero_map)


class PreconditionError(Exception):
    """A solver was called on data that fails its case's axioms."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


# ---------- ansatz ----------

class CocycleAnsatz:
    """A polynomial cocycle candidate: entries[(t, p, q)] = alpha_t(e_p, e_q),
    a coefficient.  Entries exist only on pairs of even parity sum."""

    def __init__(self, space, entries=None):
        self.space = space
        self.entries = {}
        if entries:
            for (t, p, q), val in entries.items():
                self.set(t, p, q, val)

    def set(self, t, p, q, value):
        if not isinstance(t, int) or t < 0:
            raise ValueError("cocycle degrees are integers >= 0, got %r"
                             % (t,))
        p, q = self.space.index(p), self.space.index(q)
        if (self.space.parities[p] + self.space.parities[q]) % 2:
            raise ValueError("cocycle entries vanish on odd-parity pairs")
        value = Scalar.coerce(value, self.space.params)
        if not value:
            self.entries.pop((t, p, q), None)
        else:
            self.entries[(t, p, q)] = value

    def alpha(self, t, p, q):
        return self.entries.get((t, self.space.index(p), self.space.index(q)),
                                Scalar.zero(self.space.params))

    def max_degree(self):
        return max((t for (t, _, _) in self.entries), default=-1)

    def is_zero(self):
        return not self.entries

    def scale(self, s):
        out = CocycleAnsatz(self.space)
        for key, val in self.entries.items():
            out.set(*key, Scalar.coerce(s, self.space.params) * val)
        return out

    def __add__(self, other):
        out = CocycleAnsatz(self.space)
        for key, val in list(self.entries.items()) + list(other.entries.items()):
            out.set(*key, out.alpha(*key) + val)
        return out

    def __str__(self):
        if not self.entries:
            return "0"
        names = self.space.names
        parts = []
        for (t, p, q) in sorted(self.entries):
            parts.append("alpha_%d(%s, %s) = %s"
                         % (t, names[p], names[q], self.entries[(t, p, q)]))
        return "; ".join(parts)


def unknown_order(space, degrees):
    """The shared unknown order: (t, p, q) lexicographic over even pairs.
    The degrees must be distinct integers >= 0."""
    degrees = list(degrees)
    if (len(set(degrees)) < len(degrees)
            or any(not isinstance(t, int) or t < 0 for t in degrees)):
        raise ValueError("ansatz degrees are distinct integers >= 0, got %s"
                         % degrees)
    par = space.parities
    return [(t, p, q)
            for t in degrees
            for p in range(space.dim)
            for q in range(space.dim)
            if par[p] == par[q]]


class SolutionSpace:
    """A space of cocycles: basis vectors over a fixed unknown order."""

    def __init__(self, space, degrees, basis, route, preconditions=None,
                 warnings=()):
        self.space = space
        self.degrees = tuple(degrees)
        self.unknowns = unknown_order(space, self.degrees)
        self.basis = [tuple(vec) for vec in basis]
        self.route = route
        self.preconditions = preconditions
        self.warnings = list(warnings)

    @property
    def dimension(self):
        return len(self.basis)

    def reduced_basis(self):
        return linalg.span_basis(self.basis, len(self.unknowns))

    def embed(self, degrees):
        """Re-express over a larger degree list (missing degrees get zero)."""
        degrees = tuple(degrees)
        if not set(self.degrees) <= set(degrees):
            raise ValueError("cannot embed degrees %s into %s"
                             % (list(self.degrees), list(degrees)))
        unknowns = unknown_order(self.space, degrees)
        pos = {u: i for i, u in enumerate(unknowns)}
        basis = []
        for vec in self.basis:
            new = [0] * len(unknowns)
            for u, val in zip(self.unknowns, vec):
                new[pos[u]] = val
            basis.append(tuple(new))
        return SolutionSpace(self.space, degrees, basis, self.route,
                             self.preconditions, self.warnings)

    def up_to(self, top):
        """The subspace of cocycles that vanish in every degree above top,
        over the degrees up to top."""
        if top >= max(self.degrees, default=-1):
            return self
        keep = [n for n, (t, _, _) in enumerate(self.unknowns) if t <= top]
        rows = [{b: vec[n] for b, vec in enumerate(self.basis) if vec[n]}
                for n, (t, _, _) in enumerate(self.unknowns) if t > top]
        basis = [[sum(c * vec[n] for c, vec in zip(combo, self.basis))
                  for n in keep]
                 for combo in linalg.nullspace(rows, self.dimension)]
        return SolutionSpace(self.space, [t for t in self.degrees if t <= top],
                             basis, self.route, self.preconditions,
                             self.warnings)

    def ansatz(self, vec):
        """Turn a basis index or a coefficient vector into a CocycleAnsatz."""
        if isinstance(vec, int):
            vec = self.basis[vec]
        out = CocycleAnsatz(self.space)
        for (t, p, q), val in zip(self.unknowns, vec):
            if val:
                out.set(t, p, q, val)
        return out

    def ansatzes(self):
        return [self.ansatz(i) for i in range(self.dimension)]

    def __str__(self):
        lines = ["%s route: %d-dimensional cocycle space (ansatz degrees %s)"
                 % (self.route, self.dimension, list(self.degrees))]
        for w in self.warnings:
            lines.append("  warning: %s" % w)
        for i in range(self.dimension):
            lines.append("  basis[%d]: %s" % (i, self.ansatz(i)))
        return "\n".join(lines)


# ---------- the direct route: expand the cocycle equation ----------

def _entry_table(bracket, coeff):
    """Each bracket entry as a list of (v, d-power, l-power, coeff(entry
    coefficient)), keyed by its basis pair (i, j); missing pairs are zero."""
    return {pair: [(v, dd, dl, coeff(s))
                   for (v, dd, dl, _), s in vp.terms.items()]
            for pair, vp in bracket.entries.items()}


def _with_lines(terms):
    """(terms, the distinct lines they read, in order of first use)."""
    return terms, list({id(line): line for line, _, _ in terms}.values())


def _cocycle_terms(bracket, coeff, tables):
    """Yield each basis triple (a, b, c), in product order, with the terms
    of the cocycle residual LHS - RHS at it.

    tables maps each ansatz degree t, in order, to tab, where tab[p][q]
    stands for alpha_t(e_p, e_q) and is None where it is absent.
    The terms come as three (terms, lines, k) parts.  Each term is (line,
    (l-degree, m-degree), value): value is coeff(entry coefficient) times
    an integer and multiplies line[k], which is tab[k][v] for the LHS and
    tab[v][k] for the RHS terms, v the term's basis vector.  lines lists
    the distinct lines of the terms: line[k] over them names every entry
    of tab the part reads.

    * LHS alpha_l(a, [b _m c]): the table of pair (b, c), k = a.
    * -RHS1 = -alpha_{l+m}([a _l b], c): the table of pair (a, b), k = c;
      it holds the binomial expansion of (l + m)^(dd + t), its terms of
      equal unknown and monomial summed, in order of first appearance.
    * +sigma RHS2 = +sigma alpha_{-m}([a _l c], b): the table of pair
      (a, c) for the Koszul sign sigma of (b, c), k = b; both signs read
      the same lines.

    The LHS tables are built up front.  The RHS ones are built lazily per
    outer index, RHS2 for each a and RHS1 for each (a, b), and dropped when
    the index moves on, so peak memory stays flat.
    """
    dim = bracket.space.dim
    par = bracket.space.parities
    entries = _entry_table(bracket, coeff)
    columns = {t: list(zip(*tab)) for t, tab in tables.items()}
    lhs = {pair: _with_lines([(columns[t][v], (dd + t, dl), s)
                              for v, dd, dl, s in terms for t in tables])
           for pair, terms in entries.items()}

    def rhs1(terms):
        out = {}
        for v, dd, dl, s in terms:
            neg_base = 1 if dd & 1 else -1  # -(-1)^dd
            for t in tables:
                n = dd + t
                for r in range(n + 1):
                    key = (t, v, dl + r, n - r)
                    value = s * (neg_base * comb(n, r))
                    prev = out.get(key)
                    out[key] = value if prev is None else prev + value
        return _with_lines([(tables[t][v], (ldeg, mdeg), value)
                            for (t, v, ldeg, mdeg), value in out.items()])

    def rhs2(terms):
        # one list per Koszul sign: sigma = +1 at index 0, -1 at index 1
        signed = tuple([(tab[v], (dl, dd + t),
                         s * (-sigma if t & 1 else sigma))
                        for v, dd, dl, s in terms
                        for t, tab in tables.items()]
                       for sigma in (1, -1))
        return signed, _with_lines(signed[0])[1]

    empty = ((), [])
    for ia in range(dim):
        rhs2_a = [rhs2(entries.get((ia, ic), ())) for ic in range(dim)]
        for ib in range(dim):
            rhs1_ab = rhs1(entries.get((ia, ib), ()))
            for ic in range(dim):
                signed, lines = rhs2_a[ic]
                yield (ia, ib, ic), ((*lhs.get((ib, ic), empty), ia),
                                     (*rhs1_ab, ic),
                                     (signed[par[ib] & par[ic]], lines, ib))


def _cocycle_rows(bracket, degrees, settled):
    """Yield the monomial rows of the cocycle system over
    unknown_order(space, degrees), leaving out every unknown in settled:
    per basis triple in product order, one row per monomial l^i m^j in
    order of first appearance.  Bracket entries must be parameter-free.

    The triple loop only reads and sums the per-pair tables of
    _cocycle_terms, with the column table col[t][p][q] (None on odd pairs)
    naming each unknown.  A part whose unknowns are all settled is skipped
    at one lookup per distinct line, a term whose unknown is at one lookup.
    settled is read at each triple, so a set that grows while the rows are
    consumed (rref's, see linalg.rref) prunes the triples that follow."""
    require_rational((c for vp in bracket.entries.values()
                      for c in vp.terms.values()), "the bracket")
    space = bracket.space
    col = {t: [[None] * space.dim for _ in range(space.dim)]
           for t in degrees}
    for u, (t, p, q) in enumerate(unknown_order(space, degrees)):
        col[t][p][q] = u
    for _, parts in _cocycle_terms(bracket, as_rational, col):
        acc = {}
        for terms, lines, k in parts:
            for line in lines:
                u = line[k]
                if u is not None and u not in settled:
                    break
            else:   # every unknown the part reads is settled or absent
                continue
            for line, mono, value in terms:
                u = line[k]
                if u is None or u in settled:
                    continue
                row = acc.get(mono)
                if row is None:
                    acc[mono] = {u: value}
                else:
                    prev = row.get(u)
                    row[u] = value if prev is None else prev + value
        for row in acc.values():
            if not all(row.values()):
                row = {u: c for u, c in row.items() if c}
                if not row:
                    continue
            yield row


def assemble_cocycle_rows(bracket, degrees):
    """(unknown_order(space, degrees), every row of _cocycle_rows with
    nothing settled).  Bracket entries must be parameter-free."""
    return (unknown_order(bracket.space, degrees),
            list(_cocycle_rows(bracket, degrees, frozenset())))


def solve_cocycles_direct(bracket, degrees=(0, 1, 2, 3)):
    """Solve the cocycle system by direct expansion, in ints: on the bracket
    times d, d the least common denominator of its coefficients, with the
    rows streamed into linalg.nullspace and one set of settled unknowns
    shared by both, so that _cocycle_rows leaves out what elimination has
    settled.

    The answer is that of nullspace on assemble_cocycle_rows(bracket,
    degrees).  The system is linear in the bracket's coefficients, so each
    row at the scaled bracket is d times the row as given, with the same
    nullspace.  Leaving out an entry v in a settled column c subtracts v
    times the stored row {c: 1}, which keeps the row space; the RREF is
    unique, so the basis is the same."""
    degrees = list(degrees)
    unknowns = unknown_order(bracket.space, degrees)
    d = lcm(*[denominator(c) for vp in bracket.entries.values()
              for c in vp.terms.values()])
    settled = set()
    basis = linalg.nullspace(_cocycle_rows(bracket.scaled(d), degrees,
                                           settled),
                             len(unknowns), settled)
    return SolutionSpace(bracket.space, degrees, basis, "direct")


def check_cocycle_direct(bracket, ansatz, fail_fast=False):
    """Check a given ansatz against the cocycle equation, symbolically
    (parameters in the bracket or the ansatz flow through).  It reads the
    same per-pair tables as assemble_cocycle_rows, with the ansatz's
    entries in place of the column table."""
    space = bracket.space
    degrees = list(range(ansatz.max_degree() + 1)) or [0]
    values = {t: [[ansatz.entries.get((t, p, q)) for q in range(space.dim)]
                  for p in range(space.dim)]
              for t in degrees}

    def check(cell):
        triple, parts = cell
        acc = {}
        for terms, _, k in parts:
            for line, mono, value in terms:
                val = line[k]
                if val is None:
                    continue
                add = value * val
                prev = acc.get(mono)
                acc[mono] = add if prev is None else prev + add
        if any(acc.values()):
            yield ("cocycle equation", [space.names[i] for i in triple],
                   combination_str((acc[e], monomial_str('lm', e))
                                   for e in sorted(acc, key=graded_lex)))
    return AxiomReport("cocycle functional equation").run(
        _cocycle_terms(bracket, lambda s: s, values), check, fail_fast)


# ---------- the structured route: per-degree closed systems ----------

# Terms are (coeff, sign pairs, degree index, first arg, second arg); slots
# x, y, z take the basis triple and sign pairs work as in the equations of
# superspace.py, whose evaluator gives the two arguments as vectors.

ANL_ALPHA_SYSTEM = [
    ('anl-d3a', [(1, (), 3, X, C(Z, Y)), (-1, (), 3, C(Y, X), Z)]),
    ('anl-d3b', [(1, (), 3, C(Y, X), Z), (-1, (('y', 'z'),), 3, C(Z, X), Y)]),
    ('anl-d23a', [(1, (), 2, X, C(Z, Y)), (1, (), 3, X, B(Z, Y)),
            (-1, (), 2, C(Y, X), Z), (-1, (), 3, B(Y, X), Z)]),
    ('anl-d23b', [(2, (), 2, X, C(Z, Y)), (-1, (), 2, C(Y, X), Z),
            (-3, (), 3, B(Y, X), Z)]),
    ('anl-d2', [(1, (), 2, X, C(Z, Y)), (-1, (), 2, C(Y, X), Z),
            (-1, (('y', 'z'),), 2, C(Z, X), Y)]),
    ('anl-d23c', [(1, (), 2, C(Y, X), Z), (1, (('y', 'z'),), 2, C(Z, X), Y),
            (-1, (), 3, B(Y, X), Z), (-1, (('y', 'z'),), 3, B(Z, X), Y)]),
    ('anl-d12a', [(1, (), 1, X, C(Z, Y)), (1, (), 2, X, B(Z, Y)),
            (-1, (), 1, C(Y, X), Z), (-1, (), 2, B(Y, X), Z)]),
    ('anl-d12b', [(1, (), 1, X, C(Z, Y)), (-1, (), 2, B(Y, X), Z),
            (-1, (('y', 'z'),), 1, C(Z, X), Y)]),
    ('anl-d12c', [(1, (), 1, C(Y, X), Z), (-1, (('y', 'z'),), 1, C(Z, X), Y),
            (-1, (), 2, B(Y, X), Z), (1, (('y', 'z'),), 2, B(Z, X), Y)]),
    ('anl-d01a', [(1, (), 0, X, C(Z, Y)), (1, (), 1, X, B(Z, Y)),
            (-1, (), 0, C(Y, X), Z), (-1, (), 1, B(Y, X), Z),
            (2, (('y', 'z'),), 0, C(Z, X), Y)]),
    ('anl-d01b', [(2, (), 0, X, C(Z, Y)), (1, (), 0, C(Y, X), Z),
             (-1, (), 1, B(Y, X), Z), (1, (('y', 'z'),), 0, C(Z, X), Y),
             (-1, (('y', 'z'),), 1, B(Z, X), Y)]),
    ('anl-d0', [(1, (), 0, X, B(Z, Y)), (-1, (), 0, B(Y, X), Z),
             (1, (('y', 'z'),), 0, B(Z, X), Y)]),
]

ASSOC_NOVIKOV_ALPHA_SYSTEM = [
    ('anov-d3a', [(1, (), 3, X, C(Z, Y)), (-1, (), 3, C(Y, X), Z)]),
    ('anov-d3b', [(1, (), 3, C(Y, X), Z), (-1, (('y', 'z'),), 3, C(Z, X), Y)]),
    ('anov-d1a', [(1, (), 1, X, C(Z, Y)), (-1, (), 1, C(Y, X), Z)]),
    ('anov-d1b', [(1, (), 1, C(Y, X), Z), (-1, (('y', 'z'),), 1, C(Z, X), Y)]),
    ('anov-d0a', [(1, (), 0, X, C(Z, Y)), (1, (), 0, C(Y, X), Z)]),
    ('anov-d0b', [(1, (), 0, C(Y, X), Z), (-1, (('y', 'z'),), 0, C(Z, X), Y)]),
]

GD_ALPHA_SYSTEM = [
    ('gd-d3a', [(1, (), 3, C(X, Y), Z), (-1, (('x', 'y'),), 3, C(Y, X), Z)]),
    ('gd-d3b', [(1, (), 3, C(Y, X), Z), (-1, (), 3, X, C(Z, Y))]),
    ('gd-d3c', [(1, (('x', 'y'),), 3, X, C(Z, Y)),
             (-1, (('y', 'xz'),), 3, C(Z, X), Y)]),
    ('gd-d23a', [(1, (), 2, X, C(Z, Y)), (1, (), 3, X, B(Z, Y)),
            (-1, (('x', 'y'),), 2, C(X, Y), Z), (-1, (), 3, B(Y, X), Z)]),
    ('gd-d23b', [(1, (), 2, X, S(Z, Y)), (1, (), 2, C(Y, X), Z),
            (-2, (('x', 'y'),), 2, C(X, Y), Z), (-3, (), 3, B(Y, X), Z)]),
    ('gd-d23c', [(-1, (), 2, C(Y, X), Z), (1, (), 3, B(Y, X), Z),
            (-1, (('y', 'z'),), 2, C(Z, X), Y),
            (1, (('y', 'z'),), 3, B(Z, X), Y)]),
    ('gd-d2', [(1, (), 2, X, S(Z, Y)), (-1, (), 2, S(Y, X), Z),
            (-1, (('y', 'z'),), 2, S(Z, X), Y)]),
    ('gd-d12a', [(1, (), 1, X, C(Z, Y)), (1, (), 2, X, B(Z, Y)),
            (-1, (('x', 'y'),), 1, C(X, Y), Z), (-1, (), 2, B(Y, X), Z)]),
    ('gd-d12b', [(-1, (), 1, C(Y, X), Z), (1, (), 2, B(Y, X), Z),
            (1, (('y', 'z'),), 1, C(Z, X), Y),
            (-1, (('y', 'z'),), 2, B(Z, X), Y)]),
    ('gd-d12c', [(1, (), 1, X, S(Z, Y)), (-1, (('x', 'y'),), 1, C(X, Y), Z),
            (1, (), 1, C(Y, X), Z), (-2, (), 2, B(Y, X), Z),
            (-1, (('y', 'z'),), 1, S(Z, X), Y)]),
    ('gd-d01a', [(1, (), 0, X, C(Z, Y)), (1, (), 1, X, B(Z, Y)),
            (-1, (('x', 'y'),), 0, C(X, Y), Z), (-1, (), 1, B(Y, X), Z),
            (1, (('y', 'z'),), 0, S(Z, X), Y)]),
    ('gd-d01b', [(1, (), 0, X, S(Z, Y)), (-1, (), 1, B(Y, X), Z),
             (1, (), 0, C(Y, X), Z), (1, (('y', 'z'),), 0, C(Z, X), Y),
             (-1, (('y', 'z'),), 1, B(Z, X), Y)]),
    ('gd-d0', [(1, (), 0, X, B(Z, Y)), (-1, (), 0, B(Y, X), Z),
             (1, (('y', 'z'),), 0, B(Z, X), Y)]),
]

NOVIKOV_LIE_ALPHA_SYSTEM = [
    ('nl-d3a', [(1, (), 3, C(X, Y), Z), (-1, (('x', 'y'),), 3, C(Y, X), Z)]),
    ('nl-d3b', [(1, (), 3, C(Y, X), Z), (-1, (), 3, X, C(Z, Y))]),
    ('nl-d3c', [(1, (('x', 'y'),), 3, X, C(Z, Y)),
             (-1, (('y', 'xz'),), 3, C(Z, X), Y)]),
    ('nl-d2a', [(1, (), 2, X, C(Z, Y)), (-1, (('x', 'y'),), 2, C(X, Y), Z)]),
    ('nl-d2b', [(1, (('x', 'y'),), 2, C(X, Y), Z),
             (1, (('x', 'yz'),), 2, C(Z, Y), X)]),
    ('nl-d2c', [(1, (), 2, X, C(Y, Z)), (1, (('y', 'z'),), 2, C(Y, X), Z),
            (-1, (('y', 'xz'),), 2, C(X, Y), Z)]),
    ('nl-d1a', [(1, (), 1, X, C(Z, Y)), (-1, (('x', 'y'),), 1, C(X, Y), Z)]),
    ('nl-d1b', [(1, (('x', 'y'),), 1, C(X, Y), Z),
             (-1, (('x', 'yz'),), 1, C(Z, Y), X)]),
    ('nl-d0a', [(1, (), 0, X, C(Z, Y)), (1, (('y', 'z'),), 0, C(Z, X), Y),
            (1, (), 0, C(Y, X), Z), (1, (('y', 'z'),), 0, X, C(Y, Z))]),
    ('nl-d0b', [(1, (), 0, X, C(Z, Y)), (1, (('y', 'z'),), 0, C(Z, X), Y),
            (-1, (('x', 'y'),), 0, C(Y, X), Z),
            (1, (('xy', 'z'),), 0, C(X, Z), Y)]),
]


def _alpha_cells(system, ops, lines):
    """Per equation of a structured system on ops made integral (see
    superspace._integral), (name, arity, scale^top, {cell: entries}) over
    the basis cells of its slots where a term meets lines, lines[t][p][q]
    standing for alpha_t(e_p, e_q) (None where absent): entries sums coeff
    * scale^(top - nodes) * sign * c1 * c2 at lines[t][p][q] over the
    terms and the terms c1 e_p, c2 e_q of their two arguments there (see
    superspace._values, joined and spread over the slots the term leaves
    out), top the most op nodes of a term; a sign per parity class."""
    ops, scale = _integral(ops)
    space, memo = next(iter(ops.values())).space, {}
    dim, parities = space.dim, space.parities
    for name, terms in system:
        nodes = [_nodes(f1) + _nodes(f2) for *_, f1, f2 in terms]
        arity = 1 + max(max(_slots(f1) + _slots(f2)) for *_, f1, f2 in terms)
        top, cells = max(nodes), defaultdict(dict)
        for (coeff, pairs, t, f1, f2), n in zip(terms, nodes):
            tab, k = lines.get(t), coeff * scale ** (top - n)
            if tab is None:
                continue
            signs = {par: k * s for par, s in _signs(pairs, arity).items()}
            found = _join(_slots(f1), _values(f1, ops, dim, memo),
                          _slots(f2), _values(f2, ops, dim, memo))
            for cell, (v1, v2) in _spread(*found, arity, dim).items():
                s = signs[tuple([parities[i] for i in cell])] if pairs else k
                acc = cells[cell]
                for p, c1 in v1.items():
                    line, r1 = tab[p], c1 * s
                    for q, c2 in v2.items():
                        if (u := line[q]) is not None:
                            acc[u] = acc.get(u, 0) + r1 * c2
        yield name, arity, scale ** top, cells


def _alpha_rows(system, ops, space, degrees):
    """Linear rows of a structured alpha system over unknown_order(space,
    degrees), one per equation and basis triple where it is not empty, in
    product order, read off _alpha_cells.  On the integral ops a row can
    be a positive int multiple of the one on the ops as given, with the
    same entries in the same order.  ValueError if an op has parameter
    entries; constant ones over parameters become bare rationals first."""
    require_rational((c for op in ops.values() for vec in op.table.values()
                      for c in vec.values()), "the circ or bracket")
    if space.params:   # the entries are constant: any values do
        ops = {name: op.substitute_params(dict.fromkeys(space.params, 0))
               for name, op in ops.items()}
    unknowns = unknown_order(space, degrees)
    col = {t: [[None] * space.dim for _ in range(space.dim)]
           for t in degrees}   # col[t][p][q]: the unknown alpha_t(e_p, e_q)
    for u, (t, p, q) in enumerate(unknowns):
        col[t][p][q] = u
    rows = []
    for *_, cells in _alpha_cells(system, ops, col):
        for cell in sorted(cells):
            row = cells[cell]
            if not all(row.values()):
                row = {u: c for u, c in row.items() if c}
            if row:
                rows.append(row)
    return unknowns, rows


def check_alpha_system(system, ops, ansatz, fail_fast=False):
    """Check a given ansatz against a structured system, symbolically, on
    the cells of _alpha_cells over the ansatz's entries, in product order;
    the other cells count as passed.  A residual is divided by the scale of
    the integral ops before it prints."""
    space = next(iter(ops.values())).space
    dim, keys = space.dim, list(ansatz.entries)
    lines = {}
    for n, (t, p, q) in enumerate(keys):
        lines.setdefault(t, [[None] * dim for _ in range(dim)])[p][q] = n

    def check(cell):
        (name, scale), triple, entries = cell
        total = sum((c * ansatz.entries[keys[n]] for n, c in entries.items()),
                    Scalar.zero(ansatz.space.params))
        if total:
            total = rescaled(total, Fraction(1, scale))
            yield name, [space.names[i] for i in triple], str(total)
    return AxiomReport("structured cocycle system").run(
        (cell for name, arity, scale, found in _alpha_cells(system, ops, lines)
         for cell in _runs(found, dim, arity, (name, scale))),
        check, fail_fast)


def _circ_spans_space(circ):
    return linalg.rank([{k: as_rational(c) for k, c in vec.items()}
                        for vec in circ.table.values()]) == circ.space.dim


_SPAN_WARNING = ("the circ products do not span the whole space; the "
                 "degree-3 truncation of the structured route is not "
                 "justified for this input")


# case -> (star mode, precondition system in quadratic.SYSTEMS, alpha
# system, ansatz degrees, whether to warn when circ does not span the
# space).  A case takes a classical bracket when its preconditions name one
# (anl, gd); the other two build on the zero bracket.  Degree 2 vanishes in
# the assoc-novikov case.
CASES = {
    'anl': (StarMode.DOUBLE, 'anl', ANL_ALPHA_SYSTEM, (0, 1, 2, 3), False),
    'assoc-novikov': (StarMode.DOUBLE, 'assoc-novikov',
                      ASSOC_NOVIKOV_ALPHA_SYSTEM, (0, 1, 3), True),
    'gd': (StarMode.SYMMETRIZED, 'gd', GD_ALPHA_SYSTEM, (0, 1, 2, 3), True),
    'novikov-lie': (StarMode.SYMMETRIZED, 'novikov', NOVIKOV_LIE_ALPHA_SYSTEM,
                    (0, 1, 2, 3), True),
}


def _case_ops(case, circ, bracket):
    """The circ, star and bracket of a case: its star built from circ, and
    the given bracket if the case takes one, else (or for None) zero."""
    if case not in CASES:
        raise ValueError("unknown case %r" % (case,))
    star_mode, pre = CASES[case][:2]
    if bracket is None or 'bracket' not in SYSTEMS[pre][2]:
        bracket = zero_map(circ.space, 'bracket')
    return {'circ': circ, 'star': star_from_mode(circ, star_mode),
            'bracket': bracket}


def solve_structured(case, circ, bracket=None, fail_fast=False):
    """The structured route of a case in CASES on circ (and bracket, in the
    cases that take one).  The case's preconditions run first, fail_fast
    stopping them at their first failure; PreconditionError if they fail,
    ValueError if the data then has parameter entries."""
    ops = _case_ops(case, circ, bracket)
    _, pre, system, degrees, span_warning = CASES[case]
    title, equations, names = SYSTEMS[pre]
    report = check_system(title, equations, {n: ops[n] for n in names},
                          fail_fast)
    if not report.passed:
        raise PreconditionError(report)
    unknowns, rows = _alpha_rows(system, ops, circ.space, degrees)
    warnings = ([_SPAN_WARNING]
                if span_warning and not _circ_spans_space(circ) else [])
    basis = linalg.nullspace(rows, len(unknowns))
    return SolutionSpace(circ.space, degrees, basis, "structured-" + case,
                         preconditions=report, warnings=warnings)


def structured_route(declared, case, circ, bracket=None, fail_fast=False):
    """solve_structured(case, circ, bracket, fail_fast) if the bracket the
    case builds from circ (and bracket) is the declared one, else None."""
    ops = _case_ops(case, circ, bracket)
    built = build_quadratic_bracket(ops['circ'], ops['star'], ops['bracket'])
    if built.entries != declared.entries:
        return None
    return solve_structured(case, circ, bracket, fail_fast)


def central_extension(declared, case, circ, bracket, degree,
                      fail_fast=False):
    """(structured, direct, agree): the direct route on declared at degrees
    0..degree, structured_route(...) cut to them (up_to), and whether the
    two span the same space on the common degrees 0..top, top the lesser
    of degree and the structured route's top degree; (None, direct, None)
    if the case is off."""
    structured = structured_route(declared, case, circ, bracket, fail_fast)
    direct = solve_cocycles_direct(declared, range(degree + 1))
    if structured is None:
        return None, direct, None
    top = min(degree, max(structured.degrees))
    structured, common = structured.up_to(top), direct.up_to(top)
    return structured, direct, (structured.embed(common.degrees)
                                .reduced_basis() == common.reduced_basis())


def solve_central_ext_anl(circ, bracket, fail_fast=False):
    """The associative-Novikov-Leibniz case (star = 2 circ)."""
    return solve_structured('anl', circ, bracket, fail_fast)


def solve_central_ext_assoc_novikov(circ, fail_fast=False):
    """The bracket-free associative-Novikov case (star = 2 circ)."""
    return solve_structured('assoc-novikov', circ, fail_fast=fail_fast)


def solve_leibniz_central_ext_gd(circ, bracket=None, case='gd',
                                 fail_fast=False):
    """The symmetrized-star cases: 'gd' (Novikov circ + Lie bracket) and,
    through case= kept for compatibility, 'novikov-lie' (zero bracket)."""
    if case == 'novikov-lie' and bracket is not None and not bracket.is_zero():
        raise ValueError("the novikov-lie case has a zero bracket")
    return solve_structured(case, circ, bracket, fail_fast)


# ---------- building the extended bracket ----------

def extend_bracket(bracket, ansatz):
    """The extension of a bracket by one even central element killed by d:
    entries gain sum_t alpha_t(e_i, e_j) l^t (central element).  The
    central element is named c, primed (c', c'', ...) until the name is
    free in the bracket's space."""
    space = bracket.space
    central_name = 'c'
    while central_name in space.names:
        central_name += "'"
    new_space = SuperSpace(list(zip(space.names, space.parities))
                           + [(central_name, 0)],
                           params=space.params,
                           killed=set(space.killed) | {central_name})
    cidx = new_space.index(central_name)
    terms = {pair: dict(vp.terms) for pair, vp in bracket.entries.items()}
    for (t, i, j), val in sorted(ansatz.entries.items()):
        terms.setdefault((i, j), {})[(cidx, 0, t, 0)] = val
    return LambdaBracket(new_space, {pair: VPoly(new_space, terms[pair])
                                     for pair in sorted(terms)},
                         name=(bracket.name or 'bracket') + '_ext')


# ---------- degree-bound experiment ----------

class DegreeBoundResult:
    def __init__(self, solution_high, solution_low, vanishing, agrees):
        self.solution_high = solution_high
        self.solution_low = solution_low  # high solutions zero above low
        self.vanishing = vanishing  # {degree: True if forced to zero}
        self.agrees = agrees        # high solution == embedded low solution


def degree_bound_experiment(bracket, high_degree=5, low_degree=3):
    """Solve the direct cocycle system with a high-degree ansatz and compare
    with the low-degree one: which extra degrees are forced to vanish, and
    do the two solution spaces coincide?

    One solve serves both: each row of the direct system sums separate
    contributions of each degree, so the low-degree cocycles are exactly
    the high-degree ones that vanish above low_degree, and the two spaces
    coincide exactly when every extra degree vanishes."""
    if low_degree < 0:
        raise ValueError("low_degree %d is below 0" % low_degree)
    if high_degree < low_degree:
        raise ValueError("high_degree %d is below low_degree %d"
                         % (high_degree, low_degree))
    sol_high = solve_cocycles_direct(bracket, range(high_degree + 1))
    held = {t for vec in sol_high.basis
            for (t, _, _), val in zip(sol_high.unknowns, vec) if val}
    vanishing = {t: t not in held
                 for t in range(low_degree + 1, high_degree + 1)}
    return DegreeBoundResult(sol_high, sol_high.up_to(low_degree),
                             vanishing, all(vanishing.values()))
