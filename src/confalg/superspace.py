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
"identities as equations" below) and checked by one evaluator, which per
check compiles expressions into closures and equations into per-parity plans,
and evaluates an equation only on the basis cells where a term can be
nonzero, as read from the tables of its multilinear ops, in int arithmetic
on ops scaled to integral tables.
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
# the argument values (a GradedBilinearMap takes two, a LinearMap one); the
# ops carry the space they act on, a plain function as its space attribute,
# and are multilinear, with a table of where they can be nonzero (see
# _memoised).  A sign pair (A, B) of slot strings contributes
# (-1)^{parity(A) parity(B)} for the basis vectors in the slots.  An
# equation is checked on every basis cell of the slots it uses, pairs for
# x, y and triples for x, y, z, and evaluated on those where a term can be
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


def _indices(value):
    """The basis indices a value has terms on, as a set or a view of one:
    the keys of a vector, the first item of each key of a Combination (k
    of a VPoly's (k, dd, dl, dm))."""
    if isinstance(value, Combination):
        return {key[0] for key in value.terms}
    return value.keys()


def _memoised(space, ops, scale=1):
    """plan(terms, arity) compiles an equation's terms (coefficient, sign
    pairs, *rest) once for cells of arity basis indices into x, y, z: at a
    cell, plan(terms, arity)(cell) lists (signed coefficient, *rest) for
    the parities of its basis vectors, each expression of rest a closure
    cell -> vector (a degree index passes through).  A map op runs as its
    apply_vec; another op is a function of the argument vectors.

    An expression that uses fewer slots than the cell is computed when a
    cell first needs it, once per indices of its slots while plan lives
    (one check call), in plan.memo[expression], shared across arities; one
    that uses them all is computed afresh, since storing it would keep
    dim^arity vectors per expression alive.  Never modify a shared vector.

    plan.cells(exprs, arity) lists, in product order, the cells where some
    expression of exprs can be nonzero.  It rests on every op being
    multilinear and declaring in op.table where it can be nonzero: the
    keys are the basis pairs (basis indices, for a one-argument op) where
    it can, and the basis indices of a value hold those of the op there;
    that is a GradedBilinearMap's or LinearMap's table, or a
    LambdaBracket's entries.  An op node is zero at a cell where no key of
    its table meets the basis indices of its arguments.  The listing joins
    the tables alone (see _support) and evaluates nothing: the check
    computes values at the listed cells only.  An expression with an op
    without a table, or of a shape _support does not join, can be nonzero
    on every cell.

    plan.scale is scale, the factor by which ops are those of the check
    (see _integral); the plan computes with ops as they are.  A slot's
    value is the basis vector {i: 1}, with a bare 1 on any space."""
    dim, parities = space.dim, space.parities
    basis = [{i: 1} for i in range(dim)]
    memo = {}   # expression -> {indices of its slots: vector}
    tables = {}   # op name -> where it can be nonzero (see table)
    closures = {}   # (expression, arity) -> its closure
    ones = {(i,): (i,) for i in range(dim)}
    joined = {s: (_slots(s), ones, _holding(ones))
              for s in (X, Y, Z)}   # see _support

    def compiled(expr, arity):
        return _compiled(expr, arity, ops, basis, memo, closures)

    def plan(terms, arity):
        by_parity = {}

        def at(cell):
            key = tuple([parities[i] for i in cell])
            if key not in by_parity:
                by_parity[key] = [
                    (coeff * _term_sign(pairs, dict(zip('xyz', key))), *[
                        compiled(x, arity) if isinstance(x, tuple) else x
                        for x in rest])
                    for coeff, pairs, *rest in terms]
            return by_parity[key]
        return at

    def table(name):
        """Where op name can be nonzero, from its table: {key: output basis
        indices} for the keys of its table, basis pairs for a two-argument
        op and basis indices for a one-argument one; None for an op
        without a table."""
        if name not in tables:
            entries = getattr(ops[name], 'table', None)
            tables[name] = None if entries is None else {
                key: _indices(value) for key, value in entries.items()}
        return tables[name]

    def cells(exprs, arity):
        live = set()
        for expr in exprs:
            found = _support(expr, arity, joined, table, top=True)
            if found is None:
                return itertools.product(range(dim), repeat=arity)
            slots, keys, _ = found
            if len(slots) < arity:   # nonzero at any index of a slot left out
                order = slots + tuple(sorted(set(range(arity)) - set(slots)))
                pick = itemgetter(*[order.index(s) for s in range(arity)])
                keys = [pick(key + rest) for key in keys
                        for rest in itertools.product(
                            range(dim), repeat=arity - len(slots))]
            live.update(keys)
        return sorted(live)

    plan.memo, plan.cells, plan.scale = memo, cells, scale
    return plan


def _compiled(expr, arity, ops, basis, memo, closures):
    """The closure cell -> vector of an expression for cells of arity basis
    indices (see _memoised), from closures[expr, arity] once it is there.
    It recurses at module level, not through a cached closure of a plan,
    so that no reference cycle keeps a check's memo alive after the
    check."""
    done = closures.get((expr, arity))
    if done is not None:
        return done
    if expr[0] == 'slot':
        pos = 'xyz'.index(expr[1])
        out = lambda cell: basis[cell[pos]]
    else:
        op = getattr(ops[expr[1]], 'apply_vec', ops[expr[1]])
        args = [_compiled(arg, arity, ops, basis, memo, closures)
                for arg in expr[2:]]
        if len(args) == 2:
            f, g = args
            fresh = lambda cell: op(f(cell), g(cell))
        else:
            fresh = lambda cell: op(*[f(cell) for f in args])
        slots = _slots(expr)
        if len(slots) == arity:
            out = fresh
        else:
            key_of, values = itemgetter(*slots), memo.setdefault(expr, {})

            def out(cell):
                key = key_of(cell)
                vec = values.get(key)
                if vec is None:
                    vec = values[key] = fresh(cell)
                return vec
    closures[expr, arity] = out
    return out


def _holding(values):
    """{basis index: the keys of values whose basis indices hold it}."""
    out = {}
    for key, ks in values.items():
        for k in ks:
            out.setdefault(k, []).append(key)
    return out


def _support(expr, arity, joined, table, top=False):
    """(slots of expr, {their indices at a cell where expr can be nonzero:
    basis indices its value can have terms on there}, its _holding or
    None), or None where that is unknown, joined from the op tables alone:
    table(name) is where op name can be nonzero (see _memoised).  joined
    holds this for each slot and keeps it for a node with fewer slots than
    the cell; a node with every slot is joined afresh, since its support
    can hold dim^arity keys, and with top as the set of its keys only.  It
    recurses at module level, not in the closure of a plan, so that no
    reference cycle keeps a check's supports alive after the check."""
    found = joined.get(expr)
    if found is not None:
        return found
    op = table(expr[1])
    args = [_support(arg, arity, joined, table) for arg in expr[2:]]
    if op is None or None in args or len(args) > 2:
        return None
    if len(args) == 1:
        (slots, values, _), = args
        out = {key: hit for key, ks in values.items()
               if (hit := set().union(*[op[k] for k in ks if k in op]))}
    else:
        (sa, va, ha), (sb, vb, hb) = args
        if set(sa) & set(sb):
            return None   # arguments that share a slot: not worth a case
        both = sa + sb   # the slots of ka + kb below
        slots = tuple(sorted(both))
        pick = itemgetter(*[both.index(s) for s in slots])
        if expr[2][0] == expr[3][0] == 'slot':   # the table in slot order
            out = op if both == slots else {
                (q, p): hit for (p, q), hit in op.items()}
        elif top and len(slots) == arity:
            left, right = ha or _holding(va), hb or _holding(vb)
            out = {pick(ka + kb) for p, q in op
                   for ka in left.get(p, ()) for kb in right.get(q, ())}
        else:
            left, right, out = ha or _holding(va), hb or _holding(vb), {}
            for (p, q), hit in op.items():
                for ka in left.get(p, ()):
                    for kb in right.get(q, ()):
                        key = pick(ka + kb)
                        got = out.get(key)
                        if got is None:
                            out[key] = hit
                        elif not hit <= got:   # sets are shared: no |=
                            out[key] = got | hit
    if len(slots) < arity:
        joined[expr] = slots, out, _holding(out)
        return joined[expr]
    return slots, out, None


def _integral(ops):
    """(ops times d, d) for d the least positive int that makes every
    coefficient in the ops' tables integral, so that an identity over them
    is evaluated in int arithmetic (a Fraction product or sum costs many
    int ones); a constant coefficient comes out a bare int even on a space
    with parameters, so on such a space the copies are made for d = 1 too.
    (ops, 1) when they are integral already on a space without parameters,
    or an op has no table or no scaled method.  As the ops are
    multilinear, a term with n op nodes comes out d^n times its value (see
    _equations)."""
    if not all(hasattr(op, 'table') and hasattr(op, 'scaled')
               for op in ops.values()):
        return ops, 1
    d = math.lcm(*[denominator(c) for op in ops.values()
                   for value in op.table.values() for _, c in value.items()])
    if d == 1 and not next(iter(ops.values())).space.params:
        return ops, 1
    return {name: op.scaled(d) for name, op in ops.items()}, d


def _nodes(expr):
    """The number of op nodes in an expression."""
    if expr[0] == 'slot':
        return 0
    return 1 + sum(map(_nodes, expr[2:]))


def _join(sa, a, sb, b):
    """(slots, {key: (va, vb)}) for maps a and b keyed by one item per
    slot of sa and sb (basis indices as _values keys them, or their
    parities): an item of a and one of b that agree on their shared slots
    give one item, keyed over the union of the slots, slots, in
    increasing order."""
    both = sa + sb
    slots = tuple(sorted(set(both)))
    pos = [both.index(s) for s in slots]
    pick = itemgetter(*pos) if len(pos) > 1 else lambda key: (key[pos[0]],)
    shared = [s for s in sb if s in sa]
    of_a, of_b = ((itemgetter(*[sa.index(s) for s in shared]),
                   itemgetter(*[sb.index(s) for s in shared]))
                  if shared else (lambda key: (),) * 2)
    index = {}
    for kb, vb in b.items():
        index.setdefault(of_b(kb), []).append((kb, vb))
    return slots, {pick(ka + kb): (va, vb) for ka, va in a.items()
                   for kb, vb in index.get(of_a(ka), ())}


def _by_parity(values, parities):
    """A map keyed by basis indices split by the parities of its keys:
    {parities of a key: {key: value}}."""
    out = {}
    for key, val in values.items():
        out.setdefault(tuple([parities[i] for i in key]), {})[key] = val
    return out


def _values(expr, ops, dim, memo):
    """{indices of the slots of expr (see _slots): its value there}, at
    every index tuple where the value is nonzero, built from the op tables
    and kept in memo[expr].  A slot's value is {i: 1}; an op over two
    distinct slots is its table of vectors keyed by basis pairs (a
    GradedBilinearMap's), with its keys swapped for slots in reverse
    order; any other node applies its op (as in _memoised) to the values
    of its arguments joined on their shared slots (see _join).  Values
    can be table entries, so never modify one."""
    out = memo.get(expr)
    if out is not None:
        return out
    if expr[0] == 'slot':
        out = {(i,): {i: 1} for i in range(dim)}
    else:
        op, args = ops[expr[1]], expr[2:]
        if (len(args) == 2 and args[0][0] == args[1][0] == 'slot'
                and args[0] != args[1]):
            out = op.table if args[0] < args[1] else {
                (q, p): vec for (p, q), vec in op.table.items()}
        else:
            run = getattr(op, 'apply_vec', op)
            tabs = [(_slots(arg), _values(arg, ops, dim, memo))
                    for arg in args]
            pairs = (_join(*tabs[0], *tabs[1])[1] if len(tabs) == 2 else
                     {key: (vec,) for key, vec in tabs[0][1].items()})
            out = {key: vec for key, vecs in pairs.items()
                   if (vec := run(*vecs))}
    memo[expr] = out
    return out


def _term_cells(f1, f2, arity, ops, parities, memo):
    """Yield (parities of the slots x, y, z.., {cell: (v1, v2)}) for each
    parity class of the basis cells of arity indices where the value v1
    of f1 and v2 of f2 (see _values, on ops and memo) are both nonzero:
    the values joined on their shared slots and repeated over the slots
    the two leave out."""
    s1, s2 = _slots(f1), _slots(f2)
    for f in (f1, f2):   # memo keeps each value split by parity too
        if ('by parity', f) not in memo:
            memo['by parity', f] = _by_parity(
                _values(f, ops, len(parities), memo), parities)
    slots, classes = _join(s1, memo['by parity', f1],
                           s2, memo['by parity', f2])
    rest = tuple(s for s in range(arity) if s not in slots)
    free = _by_parity(dict.fromkeys(itertools.product(
        range(len(parities)), repeat=len(rest))), parities)
    for par, (a, b) in classes.items():
        cells = _join(s1, a, s2, b)[1]
        for more, at in free.items():   # the slots left out, by parity
            full, = _join(slots, {par: 0}, rest, {more: 0})[1]
            yield full, {cell: vv for cell, (vv, _) in _join(
                slots, cells, rest, at)[1].items()} if rest else cells


def _residual(terms, cell):
    """The residual at a basis cell of an equation's compiled terms there,
    (signed coefficient, closure) pairs; of the type of its values: a
    vector {k: coefficient} (also for no terms), or a Combination such as a
    VPoly."""
    out = vec = {}
    for s, value in terms:
        vec = value(cell)
        for k, c in vec.items():
            _add_term(out, k, c if s == 1 else c * s)
    return vec._trusted(out) if isinstance(vec, Combination) else out


def _equation_cells(space, plan, name, terms):
    """The basis cells of the slots an equation uses, in product order: a
    cell where some term can be nonzero as (head, *cell), a run of the
    others as its length, which AxiomReport.run counts as passed.  The
    terms are (coefficient, sign pairs, expression).  head is (name, the
    terms compiled by plan, plan.scale^top): the ops of plan are
    plan.scale times those of the check (see _integral), so a term with
    fewer op nodes than the most of the equation, top, has its
    coefficient raised to match."""
    exprs = [expr for _, _, expr in terms]
    arity = 1 + max(max(_slots(expr)) for expr in exprs)
    nodes = [_nodes(expr) for expr in exprs]
    top = max(nodes)
    head = (name, plan([(coeff * plan.scale ** (top - n), *rest)
                        for (coeff, *rest), n in zip(terms, nodes)], arity),
            plan.scale ** top)
    dim, done = space.dim, 0
    for cell in plan.cells(exprs, arity):
        pos = 0
        for i in cell:
            pos = pos * dim + i
        if pos > done:
            yield pos - done
        yield (head, *cell)
        done = pos + 1
    if dim ** arity > done:
        yield dim ** arity - done


def _equations(equations, ops, plan=None):
    """(cells, check) of equations over ops: cells run over the equations,
    then over the basis cells of the slots each one uses (see
    _equation_cells).  plan is the compiler of the check call (see
    _memoised); a fresh one on ops made integral (see _integral) by
    default.  A failing residual comes out plan.scale^top times its value,
    which check divides off."""
    space = next(iter(ops.values())).space
    plan = plan or _memoised(space, *_integral(ops))

    def check(cell):
        (name, at, scale), *indices = cell
        res = _residual(at(indices), indices)
        if res:
            if scale != 1:
                q = Fraction(1, scale)
                res = (res.scale(q) if isinstance(res, Combination)
                       else space.scale(q, res))
            yield name, [space.names[i] for i in indices], (
                str(res) if isinstance(res, Combination)
                else space.vec_str(res))
    return itertools.chain.from_iterable(
        _equation_cells(space, plan, name, terms)
        for name, terms in equations), check


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


def _tabulate(out, terms, ops):
    """out, an empty map of pairs, with its entry at each basis pair set to
    the residual of an equation in x, y there."""
    space = out.space
    at = _memoised(space, ops)(terms, 2)
    for cell in itertools.product(range(space.dim), repeat=2):
        out.set_entry(*cell, _residual(at(cell), cell))
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
