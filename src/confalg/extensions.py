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
  from the stored lambda-bracket (any entries, any ansatz degree), and
* the **structured route** instantiates the per-degree equation systems known
  in closed form for the quadratic cases (the associative-Novikov-Leibniz
  case, the bracket-free associative-Novikov case, the symmetrized
  Gelfand-Dorfman case, and the bracket-free Novikov case).

Both routes produce solution spaces over the same unknown order
(degree index t, row basis index p, column basis index q), restricted to
pairs of even parity sum (odd pairs vanish because c is even), so their
reduced echelon bases are directly comparable.
"""

import itertools
from fractions import Fraction
from math import comb

from . import linalg
from .scalars import Scalar, factor_str, require_rational
from .superspace import (AxiomReport, B, SuperSpace, X, Y, Z, sign,
                         _memoised, _terms_at)
from .conformal import LambdaBracket, VPoly
from .quadratic import (C, S, check_anl, check_associative_novikov,
                        check_gd_bialgebra, check_novikov, star_from_mode,
                        StarMode, zero_map)


class PreconditionError(Exception):
    """A solver was called on data that fails its case's axioms."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


# ---------- ansatz ----------

class CocycleAnsatz:
    """A polynomial cocycle candidate: entries[(t, p, q)] = alpha_t(e_p, e_q),
    a Scalar.  Entries exist only on pairs of even parity sum."""

    def __init__(self, space, entries=None):
        self.space = space
        self.entries = {}
        if entries:
            for (t, p, q), val in entries.items():
                self.set(t, p, q, val)

    def set(self, t, p, q, value):
        p, q = self.space.index(p), self.space.index(q)
        if (self.space.parity(p) + self.space.parity(q)) % 2:
            raise ValueError("cocycle entries vanish on odd-parity pairs")
        value = Scalar.coerce(value, self.space.params)
        if value.is_zero():
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
    """The shared unknown order: (t, p, q) lexicographic over even pairs."""
    return [(t, p, q)
            for t in degrees
            for p in range(space.dim)
            for q in range(space.dim)
            if (space.parity(p) + space.parity(q)) % 2 == 0]


class SolutionSpace:
    """A space of cocycles: basis vectors over a fixed unknown order."""

    def __init__(self, space, degrees, unknowns, basis, route,
                 preconditions=None, warnings=()):
        self.space = space
        self.degrees = tuple(degrees)
        self.unknowns = list(unknowns)
        self.basis = [tuple(x if type(x) is Fraction else Fraction(x)
                            for x in vec) for vec in basis]
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
            new = [Fraction(0)] * len(unknowns)
            for u, val in zip(self.unknowns, vec):
                new[pos[u]] = val
            basis.append(tuple(new))
        return SolutionSpace(self.space, degrees, unknowns, basis,
                             self.route, self.preconditions, self.warnings)

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
                   for (v, dd, dl, _, _), s in vp.terms.items()]
            for pair, vp in bracket.entries.items()}


def _cocycle_contributions(entries, parity, triple, degrees):
    """Yield (unknown key (t, p, q), l-degree, m-degree, value) for the
    cocycle-equation residual LHS - RHS at a triple, where value is the
    table coefficient times an integer and multiplies alpha_t(e_p, e_q).

    The unknown keys are NOT parity-filtered here; callers drop keys whose
    pair has odd parity sum (those alphas vanish identically).
    """
    ia, ib, ic = triple
    sigma = sign(parity(ib), parity(ic))
    # LHS: alpha_l(a, [b _m c])
    for v, dd, dl, s in entries.get((ib, ic), ()):
        for t in degrees:
            yield (t, ia, v), dd + t, dl, s
    # -RHS1: -alpha_{l+m}([a _l b], c)
    for v, dd, dl, s in entries.get((ia, ib), ()):
        neg_base = 1 if dd & 1 else -1  # -(-1)^dd
        for t in degrees:
            n = dd + t
            for r in range(n + 1):
                yield (t, v, ic), dl + r, n - r, s * (neg_base * comb(n, r))
    # +sigma RHS2: +sigma alpha_{-m}([a _l c], b)
    for v, dd, dl, s in entries.get((ia, ic), ()):
        for t in degrees:
            yield (t, v, ib), dl, dd + t, s * (-sigma if t & 1 else sigma)


def assemble_cocycle_rows(bracket, degrees):
    """All monomial rows of the cocycle system, over unknown_order(space,
    degrees).  Bracket entries must be parameter-free."""
    require_rational((c for vp in bracket.entries.values()
                      for c in vp.terms.values()), "the bracket")
    space = bracket.space
    unknowns = unknown_order(space, degrees)
    index = {u: i for i, u in enumerate(unknowns)}
    entries = _entry_table(bracket, Scalar.rational_value)
    rows = []
    for triple in itertools.product(range(space.dim), repeat=3):
        acc = {}
        for key, ldeg, mdeg, value in \
                _cocycle_contributions(entries, space.parity, triple, degrees):
            u = index.get(key)
            if u is None:
                continue
            mono = acc.get((ldeg, mdeg))
            if mono is None:
                acc[(ldeg, mdeg)] = {u: value}
            else:
                prev = mono.get(u)
                mono[u] = value if prev is None else prev + value
        for mono in acc.values():
            row = {u: c for u, c in mono.items() if c}
            if row:
                rows.append(row)
    return unknowns, rows


def solve_cocycles_direct(bracket, degrees=(0, 1, 2, 3)):
    """Solve the cocycle system by direct expansion."""
    degrees = list(degrees)
    unknowns, rows = assemble_cocycle_rows(bracket, degrees)
    basis = linalg.nullspace(rows, len(unknowns))
    return SolutionSpace(bracket.space, degrees, unknowns, basis, "direct")


def check_cocycle_direct(bracket, ansatz, fail_fast=False):
    """Check a given ansatz against the cocycle equation, symbolically (parameters in the
    bracket or the ansatz flow through)."""
    space = bracket.space
    degrees = list(range(ansatz.max_degree() + 1)) or [0]

    entries = _entry_table(bracket, lambda s: s)

    def check(triple):
        acc = {}
        for (t, p, q), ldeg, mdeg, value in \
                _cocycle_contributions(entries, space.parity, triple, degrees):
            if (space.parity(p) + space.parity(q)) % 2 != 0:
                continue
            val = ansatz.alpha(t, p, q)
            if val.is_zero():
                continue
            add = value * val
            prev = acc.get((ldeg, mdeg))
            acc[(ldeg, mdeg)] = add if prev is None else prev + add
        nonzero = {k: v for k, v in acc.items() if not v.is_zero()}
        if nonzero:
            parts = []
            for (ldeg, mdeg) in sorted(nonzero, reverse=True):
                mono = []
                if ldeg:
                    mono.append("l" if ldeg == 1 else "l^%d" % ldeg)
                if mdeg:
                    mono.append("m" if mdeg == 1 else "m^%d" % mdeg)
                parts.append(" ".join(mono
                                      + [factor_str(nonzero[(ldeg, mdeg)])]))
            yield ("cocycle equation", [space.names[i] for i in triple],
                   " + ".join(parts))
    return AxiomReport("cocycle functional equation").run(
        itertools.product(range(space.dim), repeat=3), check, fail_fast)


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


def _alpha_rows(system, ops, space, degrees):
    """Linear rows of a structured alpha system over unknown_order."""
    unknowns = unknown_order(space, degrees)
    index = {u: i for i, u in enumerate(unknowns)}
    value = _memoised(space, ops)
    rows = []
    for (_, terms), *triple in itertools.product(system,
                                                 *[range(space.dim)] * 3):
        row = {}
        for s, (t, v1, v2) in _terms_at(terms, space, triple, value):
            for p, c1 in v1.items():
                for q, c2 in v2.items():
                    u = index.get((t, p, q))
                    if u is None:
                        continue
                    val = c1.rational_value() * c2.rational_value() * s
                    prev = row.get(u)
                    row[u] = val if prev is None else prev + val
        row = {u: c for u, c in row.items() if c != 0}
        if row:
            rows.append(row)
    return unknowns, rows


def check_alpha_system(system, ops, ansatz, fail_fast=False):
    """Check a given ansatz against a structured system, symbolically."""
    space = next(iter(ops.values())).space
    value = _memoised(space, ops)

    def check(cell):
        (name, terms), *triple = cell
        total = Scalar.zero(ansatz.space.params)
        for s, (t, v1, v2) in _terms_at(terms, space, triple, value):
            for p, c1 in v1.items():
                for q, c2 in v2.items():
                    if (space.parity(p) + space.parity(q)) % 2:
                        continue
                    total = total + c1 * c2 * ansatz.alpha(t, p, q) * s
        if not total.is_zero():
            yield name, [space.names[i] for i in triple], str(total)
    return AxiomReport("structured cocycle system").run(
        itertools.product(system, *[range(space.dim)] * 3), check, fail_fast)


def _circ_spans_space(circ):
    space = circ.space
    rows = []
    for vec in circ.table.values():
        rows.append({k: c.rational_value() for k, c in vec.items()})
    return linalg.rank(rows) == space.dim


_SPAN_WARNING = ("the circ products do not span the whole space; the "
                 "degree-3 truncation of the structured route is not "
                 "justified for this input")


def _solve_structured(pre, system, ops, degrees, route, span_warning=True):
    """Solve a structured alpha system once its preconditions hold."""
    if not pre.passed:
        raise PreconditionError(pre)
    circ = ops['circ']
    warnings = ([_SPAN_WARNING]
                if span_warning and not _circ_spans_space(circ) else [])
    unknowns, rows = _alpha_rows(system, ops, circ.space, degrees)
    basis = linalg.nullspace(rows, len(unknowns))
    return SolutionSpace(circ.space, degrees, unknowns, basis, route,
                         preconditions=pre, warnings=warnings)


def solve_central_ext_anl(circ, bracket, fail_fast=False):
    """Structured route for the associative-Novikov-Leibniz case
    (star = 2 circ).  Unknown degrees 0..3.  fail_fast stops the
    precondition check at its first failure."""
    return _solve_structured(check_anl(circ, bracket, fail_fast),
                             ANL_ALPHA_SYSTEM,
                             {'circ': circ, 'bracket': bracket}, [0, 1, 2, 3],
                             "structured-anl", span_warning=False)


def solve_central_ext_assoc_novikov(circ, fail_fast=False):
    """Structured route for the bracket-free associative-Novikov case.
    Unknown degrees 0, 1, 3 (degree 2 is forced to vanish in this case).
    fail_fast stops the precondition check at its first failure."""
    return _solve_structured(check_associative_novikov(circ, fail_fast),
                             ASSOC_NOVIKOV_ALPHA_SYSTEM, {'circ': circ},
                             [0, 1, 3], "structured-assoc-novikov")


def solve_leibniz_central_ext_gd(circ, bracket=None, case='gd',
                                 fail_fast=False):
    """Structured route for the symmetrized-star cases.

    case='gd': Novikov circ + Lie bracket (Gelfand-Dorfman data).
    case='novikov-lie': Novikov circ, zero bracket.
    Unknown degrees 0..3 in both cases.  fail_fast stops the precondition
    check at its first failure.
    """
    if bracket is None:
        bracket = zero_map(circ.space, 'bracket')
    if case == 'gd':
        pre = check_gd_bialgebra(circ, bracket, fail_fast)
        system = GD_ALPHA_SYSTEM
        route = "structured-gd"
    elif case == 'novikov-lie':
        if not bracket.is_zero():
            raise ValueError("the novikov-lie case has a zero bracket")
        pre = check_novikov(circ, fail_fast)
        system = NOVIKOV_LIE_ALPHA_SYSTEM
        route = "structured-novikov-lie"
    else:
        raise ValueError("unknown case %r" % (case,))
    ops = {'circ': circ, 'star': star_from_mode(circ, StarMode.SYMMETRIZED),
           'bracket': bracket}
    return _solve_structured(pre, system, ops, [0, 1, 2, 3], route)


# ---------- building the extended bracket ----------

def extend_bracket(bracket, ansatz, central_name=None):
    """The extension of a bracket by one even central element killed by d:
    entries gain sum_t alpha_t(e_i, e_j) l^t (central element)."""
    space = bracket.space
    if central_name is None:
        central_name = 'c'
        while central_name in space.names:
            central_name += "'"
    new_space = SuperSpace(list(zip(space.names, space.parities))
                           + [(central_name, 0)],
                           params=space.params,
                           killed=set(space.killed) | {central_name})
    out = LambdaBracket(new_space, name=(bracket.name or 'bracket') + '_ext')
    cidx = new_space.index(central_name)
    for i, j in itertools.product(range(space.dim), repeat=2):
        vp = VPoly(new_space, dict(bracket.entry(i, j).terms))
        for t in range(ansatz.max_degree() + 1):
            if (space.parity(i) + space.parity(j)) % 2:
                continue
            val = ansatz.alpha(t, i, j)
            if not val.is_zero():
                vp = vp + VPoly.monomial(new_space, cidx, dl=t, coeff=val)
        if not vp.is_zero():
            out.set_entry(i, j, vp)
    return out


# ---------- degree-bound experiment ----------

class DegreeBoundResult:
    def __init__(self, solution_high, solution_low, vanishing, agrees):
        self.solution_high = solution_high
        self.solution_low = solution_low
        self.vanishing = vanishing  # {degree: True if forced to zero}
        self.agrees = agrees        # high solution == embedded low solution

    def __str__(self):
        lines = ["degree-bound experiment: ansatz degree %d vs %d"
                 % (max(self.solution_high.degrees),
                    max(self.solution_low.degrees))]
        for t in sorted(self.vanishing):
            lines.append("  alpha_%d components %s" %
                         (t, "vanish on every solution" if self.vanishing[t]
                          else "do NOT all vanish"))
        lines.append("  solution spaces %s" %
                     ("agree" if self.agrees else "DIFFER"))
        return "\n".join(lines)


def degree_bound_experiment(bracket, high_degree=5, low_degree=3):
    """Solve the direct cocycle system with a high-degree ansatz and compare
    with the low-degree one: which extra degrees are forced to vanish, and
    do the two solution spaces coincide?"""
    if high_degree < low_degree:
        raise ValueError("high_degree %d is below low_degree %d"
                         % (high_degree, low_degree))
    sol_high = solve_cocycles_direct(bracket, range(high_degree + 1))
    sol_low = solve_cocycles_direct(bracket, range(low_degree + 1))
    high_basis = sol_high.reduced_basis()
    vanishing = {}
    for t in range(low_degree + 1, high_degree + 1):
        positions = [i for i, (tt, _, _) in enumerate(sol_high.unknowns)
                     if tt == t]
        vanishing[t] = all(vec[i] == 0
                           for vec in high_basis for i in positions)
    agrees = (sol_low.embed(range(high_degree + 1)).reduced_basis()
              == high_basis)
    return DegreeBoundResult(sol_high, sol_low, vanishing, agrees)
