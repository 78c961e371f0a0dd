"""Finite-dimensional Z/2-graded vector spaces with exact structure constants.

A SuperSpace is a list of named basis vectors, each even (parity 0) or odd
(parity 1), over the rationals, possibly with parameters.  Vectors are
sparse dicts {basis index: coefficient}, the coefficients bare rationals
(an int when integral, else a Fraction) on a space without parameters and
Scalars on one with them.  A
GradedBilinearMap stores a product by structure constants and enforces the
grading parity(x * y) = parity(x) + parity(y).  Combination is the sparse
linear-combination type under the conformal, mode and file-format layers.

Identities are written here as equations over slots and op nodes (see
"identities as equations" below) and checked by one evaluator, which
builds each expression's values once per check from the tables of its
multilinear ops, only where a table meets its arguments, and adds each
term's values into the basis cells they fall on, so an equation is
evaluated only where a term is nonzero, in int arithmetic on ops scaled
to integral tables.
The classical ones live here: super skew-symmetry + Jacobi (Lie), the right
and left Leibniz identities, supercommutativity and associativity, next to
the sign-twisted conversion between right and left Leibniz structures; the
conformal ones live in the conformal layer.
"""

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter

from .scalars import (Scalar, ScalarError, combination_str, denominator,
                      rescaled)


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

    def basis_vec(self, i, coeff=1):
        c = Scalar.coerce(coeff, self.params)
        return {self.index(i): c} if c else {}

    def scale(self, s, vec):
        s = Scalar.coerce(s, self.params)
        out = {}
        for k, c in vec.items():
            prod = s * c
            if prod:
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
        return not any(vec.values())

    def vec_eq(self, u, v):
        return self.vec_is_zero(self.sub(u, v))

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
    """A sparse linear combination {key: coefficient} over a SuperSpace.

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
            if coeff and not self._drops(key):
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
        if self.space is not other.space:
            raise ValueError("cannot add combinations on different spaces")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(terms, key, coeff)
        return self._trusted(terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        # the parameters are formal, so a product of nonzero coefficients
        # is nonzero
        s = Scalar.coerce(s, self.space.params)
        if not s:
            return self._trusted({})
        return self._trusted({key: s * c for key, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def __bool__(self):
        return bool(self.terms)

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
    if not total:
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
        if not c:
            continue
        if space.parities[k] != want:
            raise ScalarError(violation(k))
        clean[k] = c
    if clean:
        table[key] = clean
    else:
        table.pop(key, None)


def _substituted(table, assignments):
    """A table of vectors with parameters substituted in every coefficient
    (a bare number has none)."""
    return {key: {k: c.substitute(assignments) if isinstance(c, Scalar)
                  else c for k, c in vec.items()}
            for key, vec in table.items()}


def _scaled_table(table, d):
    """A table of vectors with every coefficient times the rational d."""
    return {key: {k: rescaled(c, d) for k, c in vec.items()}
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
        want = (space.parities[i] + space.parities[j]) % 2
        _set_graded(space, self.table, (i, j), vec, want, lambda k: (
            "grading violated: (%s, %s) -> %s has parity %d, expected %d"
            % (space.names[i], space.names[j], space.names[k],
               space.parities[k], want)))

    def scaled(self, d):
        """This product times the rational d, constants bare (see
        _integral)."""
        out = GradedBilinearMap(self.space, name=self.name)
        out.table = _scaled_table(self.table, d)
        return out

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
        identities it holds.  An int n among the cells stands for a run of
        n cells known to hold nothing: they count as n passed instances and
        are not checked.  With fail_fast the run stops at its first
        failure.  Returns the report.
        """
        for cell in cells:
            if type(cell) is int:
                self.checked += cell
                continue
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
# the one or two argument values (a GradedBilinearMap takes two, a
# LinearMap one); the
# ops carry the space they act on, a plain function as its space attribute,
# and are multilinear, with a table of where they can be nonzero (see
# _values).  A sign pair (A, B) of slot strings contributes
# (-1)^{parity(A) parity(B)} for the basis vectors in the slots.  An
# equation is checked on every basis cell of the slots it uses, pairs for
# x, y and triples for x, y, z, and evaluated on those where a term is
# nonzero.  The values are vectors {k: coefficient} or Combinations (the
# conformal layer's VPolys), and a residual has the type of its values.

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


@functools.cache
def _slots(expr):
    """The positions (x = 0, y = 1, z = 2) of the slots an expression uses,
    in increasing order."""
    if expr[0] == 'slot':
        return ('xyz'.index(expr[1]),)
    return tuple(sorted(set().union(*map(_slots, expr[2:]))))


@functools.cache
def _subtrees(expr):
    """expr and every expression under it, as a tuple."""
    return (expr,) + tuple(sub for arg in expr[2:] for sub in _subtrees(arg))


@functools.cache
def _nodes(expr):
    """The number of op nodes in an expression."""
    return sum(sub[0] == 'op' for sub in _subtrees(expr))


@functools.cache
def _signs(pairs, arity):
    """{parities of the slots of a cell of arity basis indices: the sign of
    the sign pairs there (see _term_sign)}."""
    return {par: _term_sign(pairs, dict(zip('xyz', par)))
            for par in itertools.product((0, 1), repeat=arity)}


def _indices(value):
    """The basis indices a value has terms on, as a set or a view of one:
    the keys of a vector, the first item of each key of a Combination (k
    of a VPoly's (k, dd, dl, dm))."""
    if isinstance(value, Combination):
        return {key[0] for key in value.terms}
    return value.keys()


def _integral(ops):
    """(ops times d, d) for d the least positive int that makes every
    coefficient in the ops' tables integral, so that an identity over them
    is evaluated in int arithmetic (a Fraction product or sum costs many
    int ones); a constant coefficient comes out a bare int even on a space
    with parameters, so on such a space the copies are made for d = 1 too.
    (ops, 1) when they are integral already on a space without parameters,
    or an op has no table or no scaled method.  As the ops are
    multilinear, a term with n op nodes comes out d^n times its value (see
    _residuals)."""
    if not all(hasattr(op, 'table') and hasattr(op, 'scaled')
               for op in ops.values()):
        return ops, 1
    d = math.lcm(*[denominator(c) for op in ops.values()
                   for value in op.table.values() for _, c in value.items()])
    if d == 1 and not next(iter(ops.values())).space.params:
        return ops, 1
    return {name: op.scaled(d) for name, op in ops.items()}, d


def _join(sa, a, sb, b, pairs=None):
    """(slots, {key: (va, vb)}) for maps a and b keyed by one item per
    slot of sa and sb (basis indices, as _values keys them): an item of a
    and one of b that agree on their shared slots give one item, keyed
    over the union of the slots, slots, in increasing order; with pairs,
    only where a basis index p of va and q of vb make a pair (p, q)."""
    both = sa + sb
    slots = tuple(sorted(set(both)))
    pos = [both.index(s) for s in slots]
    pick = itemgetter(*pos) if len(pos) > 1 else lambda key: (key[pos[0]],)
    shared = [s for s in sb if s in sa]
    of_a, of_b = ((itemgetter(*[sa.index(s) for s in shared]),
                   itemgetter(*[sb.index(s) for s in shared]))
                  if shared else (lambda key: (),) * 2)
    if pairs is not None:   # the keys of a and b by their values' indices
        ha, hb = {}, {}
        for held, values in ((ha, a), (hb, b)):
            for key, value in values.items():
                for k in _indices(value):
                    held.setdefault(k, []).append(key)
        return slots, {pick(ka + kb): (a[ka], b[kb]) for p, q in pairs
                       for ka in ha.get(p, ()) for kb in hb.get(q, ())
                       if not shared or of_a(ka) == of_b(kb)}
    index = {}
    for kb, vb in b.items():
        index.setdefault(of_b(kb), []).append((kb, vb))
    return slots, {pick(ka + kb): (va, vb) for ka, va in a.items()
                   for kb, vb in index.get(of_a(ka), ())}


def _values(expr, ops, dim, memo):
    """{indices of the slots of expr (see _slots): its value there}, at
    every index tuple where the value is nonzero, kept in memo[expr].  A
    slot's value is {i: 1}.  An op over two distinct slots is read at the
    keys of its table, the basis pairs where it can be nonzero: a
    GradedBilinearMap's table holds its values, another op (an attached
    conformal bracket) is called on each pair of basis vectors; keys are
    swapped for slots in reverse order.  Any other node calls its op (a
    map as its apply_vec) on the values of its arguments joined on their
    shared slots (see _join) where its table meets their basis indices (a
    key of a one-argument op's table, a pair of a two-argument op's), as
    the ops are multilinear; an op without a table, on the whole join.
    Values can be table entries, so never modify one."""
    out = memo.get(expr)
    if out is not None:
        return out
    if expr[0] == 'slot':
        out = {(i,): {i: 1} for i in range(dim)}
    else:
        op, args = ops[expr[1]], expr[2:]
        table = getattr(op, 'table', None)
        if (table is not None and len(args) == 2 and args[0] != args[1]
                and args[0][0] == args[1][0] == 'slot'):
            out = table if isinstance(op, GradedBilinearMap) else {
                key: vec for key in table
                if (vec := op({key[0]: 1}, {key[1]: 1}))}
            if args[0] > args[1]:
                out = {(q, p): vec for (p, q), vec in out.items()}
        else:
            run = getattr(op, 'apply_vec', op)
            (sa, a), *more = [(_slots(arg), _values(arg, ops, dim, memo))
                              for arg in args]
            if more:
                (sb, b), = more
                pairs = _join(sa, a, sb, b, table)[1] if a and b else {}
            else:
                pairs = {key: (va,) for key, va in a.items() if table is None
                         or any(k in table for k in _indices(va))}
            out = {key: vec for key, vecs in pairs.items()
                   if (vec := run(*vecs))}
    memo[expr] = out
    return out


def _spread(slots, values, arity, dim):
    """A map keyed by the indices of slots, repeated over the other slots
    of the basis cells of arity indices: {cell: value}."""
    if len(slots) == arity:
        return values
    order = slots + tuple(s for s in range(arity) if s not in slots)
    pick = itemgetter(*[order.index(s) for s in range(arity)])
    return {pick(key + more): value for key, value in values.items()
            for more in itertools.product(range(dim),
                                          repeat=arity - len(slots))}


def _residuals(space, terms, arity, ops, memo, scale=1):
    """{cell: residual} of an equation's terms (coefficient, sign pairs,
    expression) over ops, at the basis cells of arity indices where it is
    nonzero: each term's values (see _values, on memo) are added into the
    cells they fall on, repeated over the slots the term leaves out, with
    its sign per parity class.  The ops are scale times those of the check
    (see _integral), so a term with n op nodes is raised by scale^(top -
    n), top the most of a term, and each residual divided by scale^top.
    A residual has the type of its values: a vector {k: coefficient}, or
    a Combination such as a VPoly."""
    dim, parities = space.dim, space.parities
    nodes = [_nodes(expr) for _, _, expr in terms]
    top = max(nodes, default=0)
    out, like = {}, None
    for (coeff, pairs, expr), n in zip(terms, nodes):
        coeff *= scale ** (top - n)
        values = _values(expr, ops, dim, memo)
        if not values:
            continue
        values = _spread(_slots(expr), values, arity, dim)
        first = next(iter(values.values()))
        like = first if isinstance(first, Combination) else like
        signs = {par: coeff * s for par, s in _signs(pairs, arity).items()}
        for cell, vec in values.items():
            s = signs[tuple([parities[i] for i in cell])] if pairs else coeff
            acc = out.get(cell)
            if acc is None:
                acc = out[cell] = {}
            for k, c in vec.items():
                if s != 1:
                    c = c * s
                if k in acc:
                    c = acc[k] + c
                    if not c:
                        del acc[k]
                        continue
                acc[k] = c
    out = {cell: acc if like is None else like._trusted(acc)
           for cell, acc in out.items() if acc}
    if scale ** top == 1:
        return out
    q = Fraction(1, scale ** top)
    return {cell: space.scale(q, res) if like is None else res.scale(q)
            for cell, res in out.items()}


def _runs(found, dim, arity, head):
    """Yield the basis cells of arity indices in product order: a cell of
    found, {cell: value}, as (head, cell, value), and each run of the
    other cells as its length, which AxiomReport.run counts as passed."""
    done = 0
    for cell in sorted(found):
        pos = 0
        for i in cell:
            pos = pos * dim + i
        if pos > done:
            yield pos - done
        yield head, cell, found[cell]
        done = pos + 1
    if dim ** arity > done:
        yield dim ** arity - done


def _equations(equations, ops):
    """(cells, check) of equations over ops, made integral (see _integral),
    on one memo of values: cells holds one iterable per equation over the
    basis cells of its slots (see _runs), a cell where the residual is
    nonzero as (name, cell, residual) (see _residuals), which check
    renders as a failure.  An equation's residuals are found when its
    iterable starts, and the memo drops each value after the last
    equation that uses it."""
    space = next(iter(ops.values())).space
    ops, scale = _integral(ops)
    memo, last = {}, {sub: n for n, (_, terms) in enumerate(equations)
                      for *_, expr in terms for sub in _subtrees(expr)}

    def cells(n, name, terms):
        arity = 1 + max(max(_slots(expr)) for _, _, expr in terms)
        found = _residuals(space, terms, arity, ops, memo, scale)
        for expr in [expr for expr, at in last.items() if at == n]:
            memo.pop(expr, None)
        yield from _runs(found, space.dim, arity, name)

    def check(cell):
        name, at, res = cell
        yield name, [space.names[i] for i in at], (
            str(res) if isinstance(res, Combination)
            else space.vec_str(res))
    return [cells(n, *equation)
            for n, equation in enumerate(equations)], check


def check_system(title, equations, ops, fail_fast=False):
    """Check every equation of a system on every basis cell of its slots,
    in order, into one report."""
    cells, check = _equations(equations, ops)
    return AxiomReport(title).run(itertools.chain.from_iterable(cells),
                                  check, fail_fast)


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


def _tabulate(out, terms, ops):
    """out, an empty map of pairs, with its entry at each basis pair set to
    the residual of an equation in x, y there."""
    found = _residuals(out.space, terms, 2, ops, {})
    for cell in sorted(found):
        out.set_entry(*cell, found[cell])
    return out


def to_left_superalgebra(bracket):
    """Sign-twisted opposite: [x, y]' = -(-1)^{|x||y|} [y, x].

    Sends right Leibniz structures to left Leibniz structures and back.
    """
    return _tabulate(GradedBilinearMap(bracket.space, name=(
        bracket.name or "bracket") + "_left"),
        [(-1, (('x', 'y'),), B(Y, X))], {'bracket': bracket})


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
        _set_graded(space, self.table, i, vec, space.parities[i], lambda k: (
            "linear map is not even: %s -> %s" % (space.names[i],
                                                   space.names[k])))

    def scaled(self, d):
        """This map times the rational d, constants bare (see _integral)."""
        out = LinearMap(self.space, name=self.name)
        out.table = _scaled_table(self.table, d)
        return out

    def substitute_params(self, assignments):
        return LinearMap(self.space.substitute_params(assignments),
                         _substituted(self.table, assignments),
                         name=self.name)

    def __call__(self, vec):
        if isinstance(vec, (int, str)):
            vec = self.space.basis_vec(vec)
        return self.apply_vec(vec)

    def apply_vec(self, vec):
        out = {}
        for i, c in vec.items():
            for k, ck in self.table.get(i, {}).items():
                _add_term(out, k, c * ck)
        return out
