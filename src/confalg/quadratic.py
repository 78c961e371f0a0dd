"""Quadratic conformal brackets built from a pair of products and a bracket.

The dictionary: given products circ, star and a bracket on a SuperSpace V,
the quadratic conformal bracket on Q[d] (x) V is

    [x _l y] = d (y circ x) + l (y star x) + [y, x]

(note the argument swap).  This module holds the finite systems of structure
equations that characterize when that bracket satisfies the conformal
Leibniz identity, for the general case and for the special shapes of star
(star = 2 circ, star symmetrized from circ, star = 0, circ = 0), plus the
Novikov / associative-Novikov / Gelfand-Dorfman style product axioms, the
averaging-operator construction, and an exact classifier for the brackets
compatible with a fixed circ.

Structure equations are data in the equation language of `superspace`:
each equation is a list of terms (coefficient, sign pairs, expression tree)
over the slots x, y, z, and the evaluator there runs every system.
"""

import itertools

from . import linalg
from .scalars import Scalar, require_rational
from .superspace import (ASSOCIATIVITY, LEFT_LEIBNIZ, SKEW_SYMMETRY,
                         SUPERCOMMUTATIVITY, AxiomReport, B, GradedBilinearMap,
                         P, SuperSpace, X, Y, Z, check_system, _add_term,
                         _bilinear_map, _equations, _memoised, _op, _residual)
# unused here, but bench/test_bench.py asserts that this name is bound here
from .superspace import check_left_leibniz_superalgebra
from .conformal import LambdaBracket, VPoly


# ---------- expression trees ----------

C = _op('circ')
S = _op('star')
A = _op('avg')


# ---------- the equation systems ----------

LEFT_LEIBNIZ_EQ = ('bracket left Leibniz', LEFT_LEIBNIZ[1])

T_SYSTEM = [
    ('quad1', [(1, (), C(C(X, Y), Z)),
            (1, (), S(C(X, Y), Z)),
            (1, (), C(X, C(Y, Z))),
            (-1, (), C(X, S(Y, Z))),
            (1, (('x', 'y'),), C(Y, S(X, Z))),
            (-1, (('x', 'y'),), S(Y, S(X, Z)))]),
    ('quad2', [(1, (), C(C(X, Y), Z)),
            (1, (('x', 'y'),), C(Y, C(X, Z))),
            (-1, (('x', 'y'),), S(Y, C(X, Z)))]),
    ('quad3', [(1, (), C(S(X, Y), Z)),
            (1, (), C(X, C(Y, Z))),
            (1, (('x', 'y'),), C(Y, C(X, Z))),
            (-2, (('x', 'y'),), S(Y, C(X, Z)))]),
    ('quad4', [(1, (), S(C(X, Y), Z)),
            (1, (), S(X, C(Y, Z))),
            (-1, (), S(X, S(Y, Z)))]),
    ('quad5', [(1, (), S(S(X, Y), Z)),
            (2, (), S(X, C(Y, Z))),
            (-1, (), S(X, S(Y, Z))),
            (-1, (('x', 'y'),), S(Y, S(X, Z)))]),
    ('quad6', [(-1, (), S(X, C(Y, Z))),
            (1, (('x', 'y'),), S(Y, C(X, Z)))]),
    ('quad7', [(1, (), S(B(X, Y), Z)),
            (1, (), B(C(X, Y), Z)),
            (1, (), B(X, C(Y, Z))),
            (-1, (), B(X, S(Y, Z))),
            (-1, (), S(X, B(Y, Z))),
            (1, (('x', 'y'),), B(Y, S(X, Z)))]),
    ('quad8', [(1, (), C(B(X, Y), Z)),
            (1, (), B(C(X, Y), Z)),
            (-1, (), C(X, B(Y, Z))),
            (1, (('x', 'y'),), B(Y, C(X, Z))),
            (1, (('x', 'y'),), C(Y, B(X, Z))),
            (-1, (('x', 'y'),), S(Y, B(X, Z)))]),
    ('quad9', [(1, (), B(S(X, Y), Z)),
            (1, (), B(X, C(Y, Z))),
            (-1, (), S(X, B(Y, Z))),
            (1, (('x', 'y'),), B(Y, C(X, Z))),
            (-1, (('x', 'y'),), S(Y, B(X, Z)))]),
    LEFT_LEIBNIZ_EQ,
]

R_PRODUCT_EQS = [
    ('circ-assoc', [(1, (), C(C(X, Y), Z)),
            (-1, (), C(X, C(Y, Z)))]),
    ('circ-left-sym', [(1, (), C(X, C(Y, Z))),
            (-1, (('x', 'y'),), C(Y, C(X, Z)))]),
]

R_MIXED_EQS = [
    ('mixed1', [(2, (), C(X, B(Y, Z))),
            (-1, (), B(C(X, Y), Z)),
            (-1, (('x', 'y'),), B(Y, C(X, Z)))]),
    ('mixed2', [(2, (), C(B(X, Y), Z)),
            (-1, (), B(X, C(Y, Z))),
            (1, (('x', 'y'),), B(Y, C(X, Z)))]),
    ('mixed3', [(1, (), C(B(X, Y), Z)),
            (1, (), C(X, B(Y, Z))),
            (-1, (('x', 'y'),), C(Y, B(X, Z)))]),
]

NOVIKOV_SYSTEM = [
    ('nov1', [(1, (), C(C(X, Y), Z)),
              (-1, (('y', 'z'),), C(C(X, Z), Y))]),
    ('nov2', [(1, (), C(C(X, Y), Z)),
              (-1, (), C(X, C(Y, Z))),
              (-1, (('x', 'y'),), C(C(Y, X), Z)),
              (1, (('x', 'y'),), C(Y, C(X, Z)))]),
]

K_SYSTEM = [
    ('sym1', [(1, (), C(B(X, Y), Z)),
            (1, (), B(C(X, Y), Z)),
            (-1, (), C(X, B(Y, Z))),
            (1, (('x', 'y'),), B(Y, C(X, Z))),
            (-1, (('y', 'z'),), C(B(X, Z), Y))]),
    ('sym2', [(1, (), C(B(X, Y), Z)),
            (1, (('x', 'y'),), C(B(Y, X), Z))]),
    ('sym3', [(1, (), B(C(X, Y), Z)),
            (1, (('z', 'xy'),), B(Z, C(X, Y)))]),
]

STAR_TRIVIAL_SYSTEM = [
    ('sz1a', [(1, (), C(C(X, Y), Z))]),
    ('sz1b', [(1, (), C(X, C(Y, Z)))]),
    ('sz2a', [(1, (), B(C(X, Y), Z)),
             (1, (), B(X, C(Y, Z)))]),
    ('sz2b', [(1, (), B(X, C(Y, Z))),
             (1, (('x', 'y'),), B(Y, C(X, Z)))]),
    ('sz3', [(1, (), C(B(X, Y), Z)),
            (1, (), B(C(X, Y), Z)),
            (-1, (), C(X, B(Y, Z))),
            (1, (('x', 'y'),), B(Y, C(X, Z))),
            (1, (('x', 'y'),), C(Y, B(X, Z)))]),
    LEFT_LEIBNIZ_EQ,
]

CIRC_TRIVIAL_SYSTEM = [
    ('cz1a', [(1, (), S(S(X, Y), Z))]),
    ('cz1b', [(1, (), S(X, S(Y, Z)))]),
    ('cz2a', [(1, (), S(X, B(Y, Z)))]),
    ('cz2b', [(1, (), B(S(X, Y), Z))]),
    ('cz3', [(1, (), S(B(X, Y), Z)),
            (-1, (), B(X, S(Y, Z))),
            (1, (('x', 'y'),), B(Y, S(X, Z)))]),
    LEFT_LEIBNIZ_EQ,
]

PRODUCT_BRACKET_COMPAT_EQ = (
    'product-bracket compatibility',
    [(1, (), B(C(X, Y), Z)),
     (1, (), C(B(X, Y), Z)),
     (-1, (), C(X, B(Y, Z))),
     (-1, (('y', 'z'),), B(C(X, Z), Y)),
     (-1, (('y', 'z'),), C(B(X, Z), Y))])

AVERAGING_EQ = ('averaging identity',
                [(1, (), A(P(A(X), Y))), (-1, (), P(A(X), A(Y)))])


# ---------- star construction ----------

class StarMode:
    DOUBLE = 'double-circ'
    SYMMETRIZED = 'symmetrized'
    ZERO = 'zero'
    EXPLICIT = 'explicit'


def zero_map(space, name=None):
    return GradedBilinearMap(space, name=name)


# x star y in terms of circ, for each derived mode
STAR_FROM_CIRC = {
    StarMode.DOUBLE: [(2, (), C(X, Y))],
    StarMode.SYMMETRIZED: [(1, (), C(X, Y)), (1, (('x', 'y'),), C(Y, X))],
    StarMode.ZERO: [],
}


def star_from_mode(circ, mode):
    """Build the star product from circ for the three derived modes."""
    if mode not in STAR_FROM_CIRC:
        raise ValueError("unknown star mode %r" % (mode,))
    return _bilinear_map(STAR_FROM_CIRC[mode], {'circ': circ}, 'star')


class QuadraticData:
    """The (circ, star, bracket) triple feeding the quadratic dictionary.

    Any component may be None (meaning zero).  All non-None components must
    share one SuperSpace.
    """

    def __init__(self, space, circ=None, star=None, bracket=None):
        self.space = space
        self.circ = circ if circ is not None else zero_map(space, 'circ')
        self.star = star if star is not None else zero_map(space, 'star')
        self.bracket = bracket if bracket is not None else zero_map(space, 'bracket')
        for comp in (self.circ, self.star, self.bracket):
            if comp.space is not space:
                raise ValueError("components live on different spaces")


def build_quadratic_bracket(circ, star, bracket):
    """[e_i _l e_j] = d (e_j circ e_i) + l (e_j star e_i) + [e_j, e_i]."""
    space = circ.space
    if star.space is not space or bracket.space is not space:
        raise ValueError("components live on different spaces")
    out = LambdaBracket(space, name='quadratic')
    for i, j in itertools.product(range(space.dim), repeat=2):
        vp = (VPoly.vector(space, circ(j, i)).times_monomial(dd=1)
              + VPoly.vector(space, star(j, i)).times_monomial(dl=1)
              + VPoly.vector(space, bracket(j, i)))
        if not vp.is_zero():
            out.set_entry(i, j, vp)
    return out


# ---------- the named checks ----------

# name -> (report title, equations, the ops they use in argument order)
SYSTEMS = {
    't': ("quadratic structure equations", T_SYSTEM,
          ('circ', 'star', 'bracket')),
    'anl': ("associative-Novikov-Leibniz axioms",
            R_PRODUCT_EQS + R_MIXED_EQS + [LEFT_LEIBNIZ_EQ],
            ('circ', 'bracket')),
    'symmetrized': ("symmetrized-star structure equations",
                    NOVIKOV_SYSTEM + K_SYSTEM + [LEFT_LEIBNIZ_EQ],
                    ('circ', 'bracket')),
    'star-zero': ("star-trivial structure equations", STAR_TRIVIAL_SYSTEM,
                  ('circ', 'bracket')),
    'circ-zero': ("circ-trivial structure equations", CIRC_TRIVIAL_SYSTEM,
                  ('star', 'bracket')),
    'novikov': ("Novikov axioms", NOVIKOV_SYSTEM, ('circ',)),
    'assoc-novikov': ("associative Novikov axioms", R_PRODUCT_EQS,
                      ('circ',)),
    'gd': ("Gelfand-Dorfman compatibility axioms",
           [SKEW_SYMMETRY, LEFT_LEIBNIZ] + NOVIKOV_SYSTEM
           + [PRODUCT_BRACKET_COMPAT_EQ], ('circ', 'bracket')),
}


def _check_registered(name, components, fail_fast):
    title, equations, ops = SYSTEMS[name]
    return check_system(title, equations, dict(zip(ops, components)),
                        fail_fast)


def check_structure_equations_t(circ, star, bracket, fail_fast=False):
    """The full structure-equation system for the general quadratic bracket
    (nine product equations plus the left Leibniz identity for the bracket).
    """
    return _check_registered('t', (circ, star, bracket), fail_fast)


def check_anl(circ, bracket, fail_fast=False):
    """Associative-Novikov-Leibniz compatible pair: circ associative and
    left-symmetric, the three mixed circ/bracket equations, and the bracket
    left Leibniz.
    """
    return _check_registered('anl', (circ, bracket), fail_fast)


def check_associative_novikov(circ, fail_fast=False):
    """Associative Novikov product: (x y) z = x (y z) and
    x (y z) = (-1)^{|x||y|} y (x z)."""
    return _check_registered('assoc-novikov', (circ,), fail_fast)


def check_novikov(circ, fail_fast=False):
    """(Left) Novikov product: right-symmetry of the product in the last two
    slots and super left-symmetry of the associator."""
    return _check_registered('novikov', (circ,), fail_fast)


def check_gd_bialgebra(circ, bracket, fail_fast=False):
    """Novikov product + Lie superbracket + the compatibility equation.

    The Lie part (skew-symmetry, then Jacobi) runs first and the product
    equations after it; under fail_fast the check stops at the first
    failure.
    """
    return _check_registered('gd', (circ, bracket), fail_fast)


def check_symmetrized_case(circ, bracket, fail_fast=False):
    """Structure equations for star = circ + its super flip: Novikov circ,
    the three mixed equations of that case, and the bracket left Leibniz."""
    return _check_registered('symmetrized', (circ, bracket), fail_fast)


def check_star_trivial_case(circ, bracket, fail_fast=False):
    """Structure equations when star = 0."""
    return _check_registered('star-zero', (circ, bracket), fail_fast)


def check_circ_trivial_case(star, bracket, fail_fast=False):
    """Structure equations when circ = 0."""
    return _check_registered('circ-zero', (star, bracket), fail_fast)


def check_averaging(product, avg, fail_fast=False):
    """product must be supercommutative + associative and avg an even linear
    operator with avg(avg(x) y) = avg(x) avg(y) on basis pairs.

    Both product checks run (each stopping at its own first failure under
    fail_fast) before the averaging identity."""
    ops = {'product': product, 'avg': avg}
    value = _memoised(product.space, ops)
    rep = AxiomReport("averaging operator axioms")
    for equation in (SUPERCOMMUTATIVITY, ASSOCIATIVITY):
        rep.run(*_equations([equation], ops, value), fail_fast)
    if fail_fast and not rep.passed:
        return rep
    return rep.run(*_equations([AVERAGING_EQ], ops, value), fail_fast)


def build_assoc_novikov_from_averaging(product, avg):
    """x circ y = avg(x) y.  For an averaging operator on a supercommutative
    associative product this circ is associative Novikov."""
    return _bilinear_map([(1, (), P(A(X), Y))],
                         {'product': product, 'avg': avg}, 'circ')


# ---------- classification of compatible brackets ----------

# The mixed equations run on values linear in an unknown bracket: a sparse
# vector holding known coordinates under basis indices k and the
# coefficient of unknown u in coordinate k under the key (k, u).

def _coordinate(key):
    """(basis index, unknown or None) of a key of a linear value."""
    return key if type(key) is tuple else (key, None)


def _is_linear(vec):
    return any(type(key) is tuple for key in vec)


class ClassificationResult:
    """Everything classify_brackets found: admissible unknown order, the
    linear-solution basis, the parametric bracket family, and the quadratic
    constraints that the left Leibniz identity puts on its parameters."""

    def __init__(self, space, triples, basis, family_space, family,
                 preconditions, constraints):
        self.space = space
        self.triples = triples          # unknown order: admissible (i, j, k)
        self.basis = basis              # list of Fraction tuples
        self.family_space = family_space
        self.family = family            # GradedBilinearMap over t-parameters
        self.preconditions = preconditions  # AxiomReport for circ alone
        self.constraints = constraints  # rendered unresolved constraints

    @property
    def dimension(self):
        return len(self.basis)

    def bracket_at(self, values):
        """Instantiate the family at rational parameter values (a list, one
        per family parameter).  The result lives on the original space."""
        if len(values) != self.dimension:
            raise ValueError("the family has %d parameters, got %d values"
                             % (self.dimension, len(values)))
        assignments = {name: values[i]
                       for i, name in enumerate(self.family_space.params)}
        return GradedBilinearMap(
            self.space, self.family.substitute_params(assignments).table,
            name='bracket')

    def __str__(self):
        lines = ["compatible brackets: %d-parameter family" % self.dimension]
        if not self.preconditions.passed:
            lines.append("  (product preconditions FAILED; family is for "
                         "the mixed + Leibniz equations only)")
        for line in self.family.entries_str():
            lines.append("  " + line)
        for c in self.constraints:
            lines.append("  unresolved constraint: %s = 0" % c)
        return "\n".join(lines)


def classify_brackets(circ):
    """All brackets making (circ, bracket) satisfy the three mixed
    circ/bracket equations and the left Leibniz identity, as an exact
    parametric family.

    The mixed equations are linear in the bracket and become one big exact
    linear system; the left Leibniz identity is quadratic and is evaluated
    symbolically on the resulting family.  Each nonzero residual
    coefficient is a homogeneous quadratic in the family parameters and is
    reported verbatim as a constraint.
    """
    space = circ.space
    require_rational((c for vec in circ.table.values() for c in vec.values()),
                     "circ")
    triples = [(i, j, k)
               for i, j, k in itertools.product(range(space.dim), repeat=3)
               if (space.parity(i) + space.parity(j)) % 2 == space.parity(k)]
    unknowns = {}   # (i, j) -> [(k, u)]: the unknown coordinates of [e_i, e_j]
    for u, (i, j, k) in enumerate(triples):
        unknowns.setdefault((i, j), []).append((k, u))

    preconditions = check_system("product axioms", R_PRODUCT_EQS,
                                 {'circ': circ})

    def apply_circ(a, b):
        if _is_linear(a) and _is_linear(b):
            raise ValueError("expression is quadratic in the unknown bracket")
        out = {}
        for key_a, ca in a.items():
            i, u = _coordinate(key_a)
            for key_b, cb in b.items():
                j, w = _coordinate(key_b)
                entry = circ.table.get((i, j))
                if entry:
                    c = ca * cb
                    unknown = u if w is None else w
                    for k, ck in entry.items():
                        _add_term(out, k if unknown is None else (k, unknown),
                                  c * ck)
        return out

    def unknown_bracket(a, b):
        if _is_linear(a) or _is_linear(b):
            raise ValueError("nested unknown brackets are quadratic")
        out = {}
        for p, cp in a.items():
            for q, cq in b.items():
                c = cp * cq
                for key in unknowns.get((p, q), ()):
                    out[key] = c
        return out

    # linear rows from the mixed equations, one per coordinate; every term
    # holds one bracket, so every residual key is a (k, u) pair
    value = _memoised(space, {'circ': apply_circ, 'bracket': unknown_bracket})
    rows = []
    for (_, terms), *triple in itertools.product(
            R_MIXED_EQS, *[range(space.dim)] * 3):
        by_coord = {}
        for (k, u), c in _residual(terms, space, triple, value).items():
            by_coord.setdefault(k, {})[u] = c.rational_value()
        rows.extend(by_coord.values())

    basis = linalg.nullspace(rows, len(triples))

    # the family: the sum of t_v times the v-th basis vector
    params = tuple("t%d" % v for v in range(len(basis)))
    fspace = SuperSpace(list(zip(space.names, space.parities)),
                        params=params, killed=space.killed)
    entries = {}
    for v, vec in enumerate(basis):
        tv = Scalar.param(params[v], params)
        for u, c in enumerate(vec):
            if c == 0:
                continue
            i, j, k = triples[u]
            cur = entries.setdefault((i, j), {})
            cur[k] = cur.get(k, Scalar.zero(params)) + tv * c
    fam = GradedBilinearMap(fspace, entries, name='bracket')

    # left Leibniz on the family, symbolically
    value = _memoised(fspace, {'bracket': fam})
    constraints = [
        str(c) for cell in itertools.product(range(fspace.dim), repeat=3)
        for c in _residual(LEFT_LEIBNIZ[1], fspace, cell, value).values()]

    return ClassificationResult(space, triples, basis, fspace, fam,
                                preconditions, constraints)
