"""Coefficient (mode) algebras of conformal brackets.

A conformal bracket on Q[d] (x) V spreads each basis vector e into modes
e[m], m in Z, subject to (d e)[m] = -m e[m-1]; killed basis vectors (central
elements) keep only the mode e[-1].  The mode bracket is

    [a[m], b[n]] = sum_t  binom(m, t)  (a_(t) b)[m+n-t]

with a_(t) b the t-th product (t! times the l^t coefficient, so the two
factorials cancel into the falling factorial of m against the plain
coefficient), and (d^k e)[p] contributing (-1)^k p (p-1) ... (p-k+1) e[p-k].
Everything is exact; mode indices may be negative (falling factorials of
negative arguments are fine).

This module builds mode brackets, checks the (right) Leibniz identity on a
finite grid of modes, and turns polynomial cocycles into the induced mode
2-cocycles (supported where the degree matches m + n + 1) with their own
finite-grid check.  Both grid checks run one kernel that reads basis mode
brackets from a CoeffAlgebra's table and sums each cell into one dict.
At a basis triple the Leibniz residual is polynomial in m, n, p, of degree
<= 2D in each (D the largest t + dd of the bracket), so a triple whose
cells on the first 2D+1 distinct grid values hold nothing holds nothing
on the grid; its cells count as passed in `checked` unevaluated (see
_probed_cells).  2-cocycle checks and killed vectors evaluate every cell.
"""

import itertools

from .scalars import Scalar, combination_str, factor_str, falling
from .superspace import AxiomReport, Combination, _add_term


class ModeExpr(Combination):
    """A finite linear combination of modes: terms {(k, m): coefficient}."""

    __slots__ = ()

    def _drops(self, key):
        k, m = key
        return m != -1 and self.space.is_killed(k)  # only mode -1 survives

    @classmethod
    def mode(cls, space, k, m, coeff=1):
        return cls(space, {(space.index(k), m): coeff})

    def __str__(self):
        names = self.space.names
        return combination_str((self.terms[(k, m)], "%s[%d]" % (names[k], m))
                               for (k, m) in sorted(self.terms))


class CoeffAlgebra:
    """The mode algebra of a conformal bracket."""

    def __init__(self, bracket):
        self.bracket = bracket
        self.space = bracket.space
        # each entry's plain l^t coefficients, by t, as lists of (basis
        # index, d power, coefficient)
        self._products = {}
        for (i, j), vp in bracket.entries.items():
            table = {}
            for (k, dd, t, _), c in vp.terms.items():
                table.setdefault(t, []).append((k, dd, c))
            self._products[(i, j)] = table
        # (i, m, j, n) -> [e_i[m], e_j[n]]; the values are shared, so no
        # caller may change their terms
        self._brackets = {}

    def mode_bracket_basis(self, i, m, j, n):
        """[e_i[m], e_j[n]] as a ModeExpr."""
        i, j = self.space.index(i), self.space.index(j)
        key = (i, m, j, n)
        out = self._brackets.get(key)
        if out is not None:
            return out
        terms = {}
        for t, entries in self._products.get((i, j), {}).items():
            factor = falling(m, t)
            if factor == 0:
                continue
            for (k, dd, c) in entries:
                pos = m + n - t
                _add_term(terms, (k, pos - dd),
                          c * (factor * (-1) ** dd * falling(pos, dd)))
        out = self._brackets[key] = ModeExpr(self.space, terms)
        return out

    def mode_bracket(self, u, v):
        """Bilinear extension to ModeExprs (or (index, mode) pairs)."""
        if isinstance(u, tuple):
            u = ModeExpr.mode(self.space, *u)
        if isinstance(v, tuple):
            v = ModeExpr.mode(self.space, *v)
        terms = {}
        for (i, m), ci in u.terms.items():
            for (j, n), cj in v.terms.items():
                c = ci * cj
                for key, b in self.mode_bracket_basis(i, m, j, n).terms.items():
                    _add_term(terms, key, c * b)
        # u is on this space, and basis brackets hold only kept modes
        return u._trusted(terms)

    def table_lines(self, grid):
        """Rendered mode brackets over a grid of mode indices."""
        lines = []
        names = self.space.names
        dims = range(self.space.dim)
        for i, j, m, n in itertools.product(dims, dims, grid, grid):
            val = self.mode_bracket_basis(i, m, j, n)
            if not val.is_zero():
                lines.append("[%s[%d], %s[%d]] = %s"
                             % (names[i], m, names[j], n, val))
        return lines

    def check_leibniz(self, grid, fail_fast=False):
        """Right Leibniz identity on modes over a finite grid:
        [x, [y, z]] = [[x, y], z] - (-1)^{|y||z|} [[x, z], y]."""
        space = self.space
        return _check_mode_identity(
            self, None, lambda res: str(ModeExpr(space, res)), grid,
            fail_fast, "mode-algebra right Leibniz identity", "right Leibniz")


def _check_mode_identity(coeff, outer, render, grid, fail_fast, title,
                         identity):
    """outer(x, [y, z]) = outer([x, y], z) - (-1)^{|y||z|} outer([x, z], y)
    for basis modes x, y, z over a finite grid.

    outer(i, m, j, n) gives the terms {key: coefficient} of the outer
    product of e_i[m] and e_j[n]; None means the mode bracket itself.  The
    brackets are read from coeff's table by int key (a miss computes and
    stores one through mode_bracket_basis), the three terms of a cell are
    summed into one dict, and render(terms) turns a nonzero sum into the
    residual string.  A cell holding a dropped mode (a killed vector at a
    mode other than -1) makes every term 0 and passes.
    """
    space = coeff.space
    names, parities = space.names, space.parities
    killed = [space.is_killed(b) for b in range(space.dim)]
    table, basis = coeff._brackets, coeff.mode_bracket_basis

    def bracket(i, m, j, n):
        out = table.get((i, m, j, n))
        return (basis(i, m, j, n) if out is None else out).terms

    if outer is None:
        outer = bracket

    def check(cell):
        i, j, k, m, n, p = cell
        if (killed[i] and m != -1 or killed[j] and n != -1
                or killed[k] and p != -1):
            return ()
        res = {}
        for (a, q), c in bracket(j, n, k, p).items():
            for key, b in outer(i, m, a, q).items():
                _add_term(res, key, c * b)
        for (a, q), c in bracket(i, m, j, n).items():
            c = -c
            for key, b in outer(a, q, k, p).items():
                _add_term(res, key, c * b)
        odd = parities[j] and parities[k]
        for (a, q), c in bracket(i, m, k, p).items():
            if odd:
                c = -c
            for key, b in outer(a, q, j, n).items():
                _add_term(res, key, c * b)
        if not res:
            return ()
        return ((identity, ["%s[%d]" % (names[b], mode)
                            for b, mode in ((i, m), (j, n), (k, p))],
                 render(res)),)

    dims = range(space.dim)
    grid = list(grid)
    cells = itertools.product(dims, dims, dims, grid, grid, grid)
    if outer is bracket and not any(killed):
        depth = max((t + dd for table in coeff._products.values()
                     for t, entries in table.items() for _, dd, _ in entries),
                    default=0)
        probe = list(dict.fromkeys(grid))[:2 * depth + 1]
        if len(probe) < len(grid):
            cells = _probed_cells(dims, grid, probe, check)
    return AxiomReport(title).run(cells, check, fail_fast)


def _probed_cells(dims, grid, probe, check):
    """The cells of a mode Leibniz check in product order, a basis
    triple's block of len(grid)^3 cells as that int (all passed) when
    check holds nothing on probe^3, the first 2D+1 distinct grid values
    cubed, D the largest t + dd of a term d^dd l^t of the bracket.

    This is exact.  The coefficient of e_k[m+n-t-dd] in [e_i[m], e_j[n]]
    is a polynomial of degree <= t + dd <= D in m and <= dd in n, so each
    nested term of the residual at key (k', m+n+p-s) is one of degree
    <= 2D in each of m, n and p, and different s give different modes at
    one cell.  A polynomial (over Q or Q[params]) of degree <= 2D in each
    variable that vanishes on S^3, |S| = 2D+1, is zero: count the roots
    in one variable, then induct (Alon, Combinatorial Nullstellensatz,
    1999).  A probe with fewer values holds every distinct grid value.
    Neither holds for a killed vector, which keeps only the mode -1, nor
    for a 2-cocycle, supported at t = m + n + 1; those checks evaluate
    every cell.  A block whose probe fails is yielded cell by cell."""
    block = len(grid) ** 3
    for triple in itertools.product(dims, dims, dims):
        if any(check(triple + modes)
               for modes in itertools.product(probe, repeat=3)):
            for modes in itertools.product(grid, repeat=3):
                yield triple + modes
        else:
            yield block


def check_coeff_leibniz(bracket, grid, fail_fast=False):
    """Right Leibniz identity for the mode algebra of bracket on a grid."""
    return CoeffAlgebra(bracket).check_leibniz(grid, fail_fast=fail_fast)


# ---------- mode 2-cocycles from polynomial cocycles ----------

class PhiCocycle:
    """The mode 2-cocycle induced by a polynomial cocycle alpha:

        phi(a[m], b[n]) = m (m-1) ... (m-t+1) alpha_t(a, b)
                          where t = m + n + 1 (zero if t < 0 or alpha_t = 0).
    """

    def __init__(self, ansatz):
        self.ansatz = ansatz
        self.space = ansatz.space

    def terms(self, i, m, j, n):
        """phi(e_i[m], e_j[n]) for basis indices i, j as terms {None:
        value}, or {} where it is 0: falling(m, t) alpha_t(e_i, e_j) with
        t = m + n + 1 (no entry has t < 0)."""
        t = m + n + 1
        alpha = self.ansatz.entries.get((t, i, j))
        if alpha is None:
            return {}
        factor = falling(m, t)
        return {None: alpha * factor} if factor else {}

    def value(self, i, m, j, n):
        """phi(e_i[m], e_j[n]) for basis names or indices i, j."""
        index = self.space.index
        return self.terms(index(i), m, index(j), n).get(
            None, Scalar.zero(self.space.params))

    def __str__(self):
        if self.ansatz.is_zero():
            return "phi = 0"
        names = self.space.names
        parts = []
        for (t, p, q) in sorted(self.ansatz.entries):
            val = self.ansatz.entries[(t, p, q)]
            factor = " ".join("(m-%d)" % r if r else "m" for r in range(t))
            vs = factor_str(val)
            if factor:
                body = factor if vs == "1" else "%s %s" % (factor, vs)
            else:
                body = vs
            parts.append("phi(%s[m], %s[n]) += %s when m + n = %d"
                         % (names[p], names[q], body, t - 1))
        return "; ".join(parts)


def build_phi_cocycles(source):
    """PhiCocycles from a CocycleAnsatz (one) or a cocycle SolutionSpace
    (one per basis vector)."""
    if hasattr(source, 'ansatzes'):
        return [PhiCocycle(a) for a in source.ansatzes()]
    return PhiCocycle(source)


def check_phi_cocycle(coeff, phi, grid, fail_fast=False):
    """The 2-cocycle identity for the CoeffAlgebra coeff on a grid:
    phi(x, [y, z]) = phi([x, y], z) - (-1)^{|y||z|} phi([x, z], y)."""
    return _check_mode_identity(coeff, phi.terms, lambda res: str(res[None]),
                                grid, fail_fast, "mode 2-cocycle identity",
                                "2-cocycle identity")
