"""Finite-dimensional Z/2-graded vector spaces with exact structure constants.

A SuperSpace is a list of named basis vectors, each even (parity 0) or odd
(parity 1), over the Scalar ring (rationals, possibly with parameters).
Vectors are sparse dicts {basis index: Scalar}.  A GradedBilinearMap stores a
product by structure constants and enforces the grading
parity(x * y) = parity(x) + parity(y).  Combination is the sparse
linear-combination type under the conformal, mode and file-format layers.

Identities are written here as equations over slots and op nodes (see
"identities as equations" below) and checked by one memoising evaluator.
The classical ones live here: super skew-symmetry + Jacobi (Lie), the right
and left Leibniz identities, supercommutativity and associativity, next to
the sign-twisted conversion between right and left Leibniz structures.
"""

import itertools
from operator import itemgetter

from .scalars import Scalar, ScalarError, combination_str


class SuperSpace:
    """Named graded basis + the ambient parameter list.

    killed lists basis vectors that the derivation of the conformal layer
    annihilates (used for central elements); the classical layer just carries
    the set along.
    """

    def __init__(self, basis, params=(), killed=()):
        # basis: iterable of (name, parity) with parity 0 (even) or 1 (odd)
        self.names = []
        self.parities = []
        for name, parity in basis:
            if parity not in (0, 1):
                raise ValueError("parity must be 0 or 1, got %r" % (parity,))
            self.names.append(name)
            self.parities.append(parity)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis name")
        self.params = tuple(params)
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter name")
        self.killed = frozenset(killed)
        for k in self.killed:
            if k not in self.names:
                raise ValueError("killed vector %r is not in the basis" % k)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._derived = {}  # remaining parameters -> substituted space

    @property
    def dim(self):
        return len(self.names)

    def index(self, i):
        """The index of a basis name; an index is returned unchanged."""
        return self._index[i] if isinstance(i, str) else i

    def parity(self, i):
        return self.parities[self.index(i)]

    def is_killed(self, i):
        return self.names[self.index(i)] in self.killed

    # ---------- vectors ----------

    def zero_vec(self):
        return {}

    def basis_vec(self, i, coeff=1):
        c = Scalar.coerce(coeff, self.params)
        return {self.index(i): c} if not c.is_zero() else {}

    def scale(self, s, vec):
        s = Scalar.coerce(s, self.params)
        out = {}
        for k, c in vec.items():
            prod = s * c
            if not prod.is_zero():
                out[k] = prod
        return out

    def add(self, *vecs):
        out = {}
        for vec in vecs:
            for k, c in vec.items():
                _add_term(out, k, c)
        return out

    def sub(self, u, v):
        return self.add(u, self.scale(-1, v))

    def vec_is_zero(self, vec):
        return all(c.is_zero() for c in vec.values())

    def vec_eq(self, u, v):
        return self.vec_is_zero(self.sub(u, v))

    def vec_parity(self, vec):
        """Parity of a homogeneous vector (None for 0, ValueError if
        mixed)."""
        parities = {self.parity(k) for k, c in vec.items() if not c.is_zero()}
        if not parities:
            return None
        if len(parities) != 1:
            raise ValueError("vector is not homogeneous")
        return parities.pop()

    def vec_str(self, vec):
        return combination_str((c, self.names[k])
                               for k, c in sorted(vec.items()))

    def substitute_params(self, assignments):
        """This space over the parameters left after substitution; the same
        object for the same remaining parameters, so that components
        substituted one at a time share it."""
        remaining = tuple(p for p in self.params if p not in assignments)
        if remaining not in self._derived:
            self._derived[remaining] = SuperSpace(
                list(zip(self.names, self.parities)), params=remaining,
                killed=self.killed)
        return self._derived[remaining]


class Combination:
    """A sparse linear combination {key: Scalar} over a SuperSpace.

    The constructor coerces every coefficient to the space's parameters and
    leaves out zeros and the keys _drops rejects (subclasses drop what a
    killed vector annihilates).  +, - and scale combine terms that are
    already clean, so they only drop sums that cancel.
    """

    __slots__ = ('space', 'terms')

    def __init__(self, space, terms=None):
        self.space = space
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = Scalar.coerce(coeff, space.params)
            if not coeff.is_zero() and not self._drops(key):
                clean[key] = coeff
        self.terms = clean

    def _drops(self, key):
        return False

    def _trusted(self, terms):
        """A combination of the same type on clean terms, unchecked."""
        out = object.__new__(type(self))
        out.space = self.space
        out.terms = terms
        return out

    def __add__(self, other):
        assert self.space is other.space
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(terms, key, coeff)
        return self._trusted(terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        # the parameters are formal, so a product of nonzero Scalars is
        # nonzero
        s = Scalar.coerce(s, self.space.params)
        if s.is_zero():
            return self._trusted({})
        return self._trusted({key: s * c for key, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self.space is other.space
                and (self - other).is_zero())

    __hash__ = None

    def __str__(self):
        return combination_str((c, repr(k)) for k, c in self.terms.items())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


def _add_term(terms, key, coeff):
    """terms[key] += coeff, leaving the key out when the sum is zero."""
    total = terms[key] + coeff if key in terms else coeff
    if total.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = total


def _set_graded(space, table, key, vec, want, violation):
    """table[key] = vec with names resolved, coefficients coerced and zeros
    left out; an empty result removes key.  Every basis vector of vec must
    have parity want, else ScalarError(violation(k)) for the first k that
    does not."""
    clean = {}
    for k, c in vec.items():
        k = space.index(k)
        c = Scalar.coerce(c, space.params)
        if c.is_zero():
            continue
        if space.parity(k) != want:
            raise ScalarError(violation(k))
        clean[k] = c
    if clean:
        table[key] = clean
    else:
        table.pop(key, None)


def _substituted(table, assignments):
    """A table of vectors with parameters substituted in every coefficient."""
    return {key: {k: c.substitute(assignments) for k, c in vec.items()}
            for key, vec in table.items()}


def sign(p, q):
    """The Koszul sign (-1)^{p q} for parities p, q."""
    return -1 if (p % 2) and (q % 2) else 1


class GradedBilinearMap:
    """A bilinear product on a SuperSpace given by structure constants.

    table maps a pair of basis names (or indices) to a vector; missing pairs
    are zero.  Construction checks the grading: every basis vector appearing
    in table[(i, j)] must have parity parity(i) + parity(j).
    """

    def __init__(self, space, table=None, name=None):
        self.space = space
        self.name = name
        self.table = {}
        if table:
            for (i, j), vec in table.items():
                self.set_entry(i, j, vec)

    def set_entry(self, i, j, vec):
        space = self.space
        i, j = space.index(i), space.index(j)
        want = (space.parity(i) + space.parity(j)) % 2
        _set_graded(space, self.table, (i, j), vec, want, lambda k: (
            "grading violated: (%s, %s) -> %s has parity %d, expected %d"
            % (space.names[i], space.names[j], space.names[k],
               space.parity(k), want)))

    def entry(self, i, j):
        return dict(self.table.get((self.space.index(i),
                                    self.space.index(j)), {}))

    def apply_vec(self, u, v):
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                e = self.table.get((i, j))
                if e:
                    c = ci * cj
                    for k, ck in e.items():
                        _add_term(out, k, c * ck)
        return out

    def __call__(self, u, v):
        if isinstance(u, (int, str)):
            u = self.space.basis_vec(u)
        if isinstance(v, (int, str)):
            v = self.space.basis_vec(v)
        return self.apply_vec(u, v)

    def is_zero(self):
        return all(self.space.vec_is_zero(v) for v in self.table.values())

    def entries_str(self):
        lines = []
        for (i, j) in sorted(self.table):
            lines.append("(%s, %s) -> %s" % (self.space.names[i],
                                             self.space.names[j],
                                             self.space.vec_str(self.table[(i, j)])))
        return lines

    def substitute_params(self, assignments):
        return GradedBilinearMap(self.space.substitute_params(assignments),
                                 _substituted(self.table, assignments),
                                 name=self.name)


class AxiomReport:
    """Result of checking an identity system: passed flag + the failures.

    Each failure records which identity broke, at which basis tuple, and the
    (rendered) nonzero residual.
    """

    def __init__(self, name):
        self.name = name
        self.passed = True
        self.failures = []
        self.checked = 0

    def record(self, identity, at, residual_str):
        self.passed = False
        self.failures.append({"identity": identity,
                              "at": tuple(at),
                              "residual": residual_str})

    def run(self, cells, check, fail_fast=False):
        """Check one identity system on every cell, in order, into this report.

        check(cell) yields (identity, at, residual string) for each identity
        that fails at the cell.  A cell counts as one instance however many
        identities it holds.  With fail_fast the run stops at its first
        failure.  Returns the report.
        """
        for cell in cells:
            self.checked += 1
            for identity, at, residual in check(cell):
                self.record(identity, at, residual)
                if fail_fast:
                    return self
        return self

    def __bool__(self):
        return self.passed

    def __str__(self):
        if self.passed:
            return "%s: passed (%d instances checked)" % (self.name, self.checked)
        lines = ["%s: FAILED (%d failures / %d instances)"
                 % (self.name, len(self.failures), self.checked)]
        for f in self.failures:
            lines.append("  %s at (%s): residual %s"
                         % (f["identity"], ", ".join(f["at"]), f["residual"]))
        return "\n".join(lines)


# ---------- identities as equations ----------

# An equation is (name, terms), each term (coefficient, sign pairs,
# expression).  An expression is a tree of the slots X, Y, Z and op nodes
# ('op', name, *args), where name is a key of the ops dict that applies to
# the argument values (a GradedBilinearMap takes two, a LinearMap one).  A
# sign pair (A, B) of slot strings contributes (-1)^{parity(A) parity(B)}
# for the basis vectors in the slots.  An equation is checked on every basis
# cell of the slots it uses: pairs for x, y and triples for x, y, z.

X = ('slot', 'x')
Y = ('slot', 'y')
Z = ('slot', 'z')


def _op(name):
    """The constructor of the op nodes named name."""
    return lambda *args: ('op', name) + args


B = _op('bracket')
P = _op('product')

SKEW_SYMMETRY = ('skew-symmetry',
                 [(1, (), B(X, Y)), (1, (('x', 'y'),), B(Y, X))])

LEFT_LEIBNIZ = ('left Leibniz',
                [(1, (), B(X, B(Y, Z))),
                 (-1, (), B(B(X, Y), Z)),
                 (-1, (('x', 'y'),), B(Y, B(X, Z)))])

RIGHT_LEIBNIZ = ('right Leibniz',
                 [(1, (), B(X, B(Y, Z))),
                  (-1, (), B(B(X, Y), Z)),
                  (1, (('y', 'z'),), B(B(X, Z), Y))])

SUPERCOMMUTATIVITY = ('supercommutativity',
                      [(1, (), P(X, Y)), (-1, (('x', 'y'),), P(Y, X))])

ASSOCIATIVITY = ('associativity',
                 [(1, (), P(P(X, Y), Z)), (-1, (), P(X, P(Y, Z)))])


def _term_sign(sign_pairs, parities):
    expo = 0
    for left, right in sign_pairs:
        pl = sum(parities[ch] for ch in left)
        pr = sum(parities[ch] for ch in right)
        expo += pl * pr
    return -1 if expo % 2 else 1


def _slots(expr):
    """The positions (x = 0, y = 1, z = 2) of the slots an expression uses,
    in increasing order."""
    if expr[0] == 'slot':
        return ('xyz'.index(expr[1]),)
    return tuple(sorted(set().union(*map(_slots, expr[2:]))))


def _memoised(space, ops):
    """value(expr, cell): the vector of an expression over ops with the
    slots x, y, z bound to the basis vectors of space at the indices of
    cell.  An op is any function of the argument vectors.

    An expression that uses fewer slots than the cell has is computed once
    for the life of the returned function (one check call) per indices of
    its slots; one that uses them all is computed afresh, since storing it
    would keep dim^arity vectors per expression alive.  The vectors are
    shared: never modify one."""
    memo = {}   # expression -> (its slot indices, slot count, {key: vector})

    def value(expr, cell):
        entry = memo.get(expr)
        if entry is None:
            slots = _slots(expr)
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


def _terms_at(terms, space, cell, value):
    """Yield (signed coefficient, values) for each term (coefficient, sign
    pairs, *rest) of an equation at a basis cell: the sign pairs are read
    off the parities of the cell's basis vectors, and values is rest with
    each expression replaced by value(expr, cell) (a degree index passes
    through)."""
    parities = {slot: space.parities[i] for slot, i in zip('xyz', cell)}
    for coeff, pairs, *rest in terms:
        yield (coeff * _term_sign(pairs, parities),
               [value(x, cell) if isinstance(x, tuple) else x for x in rest])


def _residual(terms, space, cell, value):
    """The residual vector of an equation at a basis cell."""
    out = {}
    for s, (vec,) in _terms_at(terms, space, cell, value):
        for k, c in vec.items():
            _add_term(out, k, c if s == 1 else c * s)
    return out


def _equations(equations, ops, value=None):
    """(cells, check) of equations over ops: cells run over the equations,
    then over the basis cells of the slots each one uses.  value is the
    memoised evaluator of the check call; a fresh one by default."""
    space = next(iter(ops.values())).space
    value = value or _memoised(space, ops)

    def cells(equation):
        arity = 1 + max(max(_slots(term[2])) for term in equation[1])
        return itertools.product([equation], *[range(space.dim)] * arity)

    def check(cell):
        (name, terms), *at = cell
        res = _residual(terms, space, at, value)
        if res:
            yield name, [space.names[i] for i in at], space.vec_str(res)
    return itertools.chain.from_iterable(map(cells, equations)), check


def check_system(title, equations, ops, fail_fast=False):
    """Check every equation of a system on every basis cell of its slots,
    in order, into one report."""
    return AxiomReport(title).run(*_equations(equations, ops), fail_fast)


def check_skew_symmetry(bracket, fail_fast=False):
    """Super skew-symmetry [x, y] = -(-1)^{|x||y|} [y, x] on basis pairs."""
    return check_system("super skew-symmetry", [SKEW_SYMMETRY],
                        {'bracket': bracket}, fail_fast)


def check_left_leibniz_superalgebra(bracket, fail_fast=False):
    """Left Leibniz identity:
    [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]].
    """
    return check_system("left Leibniz identity", [LEFT_LEIBNIZ],
                        {'bracket': bracket}, fail_fast)


def check_leibniz_superalgebra(bracket, fail_fast=False):
    """Right Leibniz identity (the convention used throughout):
    [x, [y, z]] = [[x, y], z] - (-1)^{|y||z|} [[x, z], y].
    """
    return check_system("right Leibniz identity", [RIGHT_LEIBNIZ],
                        {'bracket': bracket}, fail_fast)


def check_lie_superalgebra(bracket, fail_fast=False):
    """Lie superalgebra = super skew-symmetry + super Jacobi identity.

    The Jacobi identity is written in its left-normed form
    [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]], which coincides
    with the left Leibniz shape; together with skew-symmetry this is the usual
    super Jacobi identity.  Both run into the report; under fail_fast the
    check stops at the first failure, so a failed skew-symmetry ends it.
    """
    return check_system("Lie superalgebra axioms",
                        [SKEW_SYMMETRY, LEFT_LEIBNIZ], {'bracket': bracket},
                        fail_fast)


def _bilinear_map(terms, ops, name):
    """The bilinear map whose entry at each basis pair is the residual of an
    equation in x, y there."""
    space = next(iter(ops.values())).space
    out = GradedBilinearMap(space, name=name)
    value = _memoised(space, ops)
    for cell in itertools.product(range(space.dim), repeat=2):
        vec = _residual(terms, space, cell, value)
        if vec:
            out.set_entry(*cell, vec)
    return out


def to_left_superalgebra(bracket):
    """Sign-twisted opposite: [x, y]' = -(-1)^{|x||y|} [y, x].

    Sends right Leibniz structures to left Leibniz structures and back.
    """
    return _bilinear_map([(-1, (('x', 'y'),), B(Y, X))],
                         {'bracket': bracket},
                         (bracket.name or "bracket") + "_left")


def check_supercommutative(product, fail_fast=False):
    """x y = (-1)^{|x||y|} y x on basis pairs."""
    return check_system("supercommutativity", [SUPERCOMMUTATIVITY],
                        {'product': product}, fail_fast)


def check_associative(product, fail_fast=False):
    """(x y) z = x (y z) on basis triples."""
    return check_system("associativity", [ASSOCIATIVITY],
                        {'product': product}, fail_fast)


class LinearMap:
    """A parity-preserving linear operator given on basis vectors."""

    def __init__(self, space, table=None, name=None):
        self.space = space
        self.name = name
        self.table = {}
        if table:
            for i, vec in table.items():
                self.set_entry(i, vec)

    def set_entry(self, i, vec):
        space = self.space
        i = space.index(i)
        _set_graded(space, self.table, i, vec, space.parity(i), lambda k: (
            "linear map is not even: %s -> %s" % (space.names[i],
                                                   space.names[k])))

    def substitute_params(self, assignments):
        return LinearMap(self.space.substitute_params(assignments),
                         _substituted(self.table, assignments),
                         name=self.name)

    def __call__(self, vec):
        if isinstance(vec, (int, str)):
            vec = self.space.basis_vec(vec)
        out = {}
        for i, c in vec.items():
            for k, ck in self.table.get(i, {}).items():
                _add_term(out, k, c * ck)
        return out
