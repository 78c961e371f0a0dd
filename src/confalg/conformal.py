"""Conformal superalgebras with polynomial lambda-brackets, exactly.

Elements live in the free module Q[d] (x) V over a SuperSpace V, where d is
the translation generator; bracket values additionally carry the attachment
variables l (lambda) and m (mu).  A VPoly is a sparse sum of terms

    scalar * d^dd l^dl m^dm * e_k

stored as {(k, dd, dl, dm): coefficient}.  A LambdaBracket stores the
products [e_i _l e_j] as VPolys in d and l only; apply_bracket extends them
to the whole module by the conformal sesquilinearity rules

    [d a _v b] = -v [a _v b],      [a _v d b] = (d + v) [a _v b]

with v the variable or linear form being attached.  Nested brackets attach
at linear forms such as v = l + m or v = -m - d directly: the module is
free, so v^a (d + v)^b expands as a plain polynomial in d, l and m.

Basis vectors listed in space.killed are annihilated by d (used for central
elements): any term d^k e with k >= 1 on a killed e is dropped during
normalization, which is exactly why attaching at v = -m - d lands a killed
vector's coefficient on its value at -m.
"""

import functools
import itertools

from .scalars import combination_str, graded_lex, monomial_str, rescaled
from .superspace import (AxiomReport, Combination, X, Y, Z, check_system,
                         _add_term, _op, _substituted, _tabulate)

# axis position of each variable inside a term key (k, dd, dl, dm)
_AXIS = {'d': 1, 'l': 2, 'm': 3}
_VARS = ('d', 'l', 'm')


class ConformalError(Exception):
    pass


class VariableCaptureError(ConformalError):
    """Attaching a bracket with a variable that already occurs in an input."""


def _linear_power(linear, t, poly):
    """poly times (sum of c * var over linear's items)^t, polynomials as
    {(dd, dl, dm): rational} and linear mapping variable names to rational
    coefficients."""
    for _ in range(t):
        step = {}
        for expo, c in poly.items():
            for var, cv in linear.items():
                e = list(expo)
                e[_AXIS[var] - 1] += 1
                e = tuple(e)
                step[e] = step.get(e, 0) + c * cv
        poly = {e: c for e, c in step.items() if c}
    return poly


class VPoly(Combination):
    """A sparse element of Q[d, l, m] (x) V."""

    __slots__ = ()

    def _drops(self, key):
        return key[1] >= 1 and self.space.is_killed(key[0])  # d kills it

    # ---------- constructors ----------

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def monomial(cls, space, k, dd=0, dl=0, dm=0, coeff=1):
        return cls(space, {(space.index(k), dd, dl, dm): coeff})

    @classmethod
    def vector(cls, space, vec):
        """Embed a classical vector {k: coefficient} (names or indices)."""
        return cls(space, {(space.index(k), 0, 0, 0): c
                           for k, c in vec.items()})

    def times_monomial(self, dd=0, dl=0, dm=0):
        return VPoly(self.space,
                     {(k, a + dd, b + dl, c + dm): s
                      for (k, a, b, c), s in self.terms.items()})

    # ---------- structure ----------

    def uses(self, var):
        axis = _AXIS[var]
        return any(key[axis] > 0 for key in self.terms)

    # ---------- printing ----------

    def __str__(self):
        per_basis = {}
        for (k, *expo), c in self.terms.items():
            per_basis.setdefault(k, {})[tuple(expo)] = c
        return combination_str(((poly, self.space.names[k])
                                for k, poly in sorted(per_basis.items())),
                               factor=_basis_coeff_str)


def _coeff_factor(c):
    """A coefficient before d, l, m powers: in parentheses when it is a
    sum or a product, as in (a + 1) d or (2 a) d."""
    text = str(c)
    composite = "+" in text[1:] or "-" in text[1:] or " " in text
    return "(%s)" % text if composite else text


def _basis_coeff_str(poly):
    """The coefficient of one basis vector, a polynomial {(dd, dl, dm):
    coefficient}, in parentheses unless it is one plain factor."""
    text = combination_str(((poly[e], monomial_str(_VARS, e))
                            for e in sorted(poly, key=graded_lex)),
                           factor=_coeff_factor)
    if len(poly) == 1 and text.startswith("(") and text.endswith(")"):
        return text
    return "(%s)" % text if " " in text or text.startswith("-") else text


class LambdaBracket:
    """A conformal bracket stored by its values on basis pairs.

    entries[(i, j)] is [e_i _l e_j] as a VPoly in d and l only.  Missing
    pairs are zero.  Grading is enforced the same way as for classical
    structure constants (d and l are even).
    """

    def __init__(self, space, entries=None, name=None):
        self.space = space
        self.name = name
        self.entries = {}
        if entries:
            for (i, j), vp in entries.items():
                self.set_entry(i, j, vp)

    def set_entry(self, i, j, vp):
        i, j = self.space.index(i), self.space.index(j)
        if not isinstance(vp, VPoly):
            vp = VPoly.vector(self.space, vp)
        if vp.uses('m'):
            raise ValueError("bracket entries are polynomials in d and l "
                             "only")
        par = self.space.parities
        want = (par[i] + par[j]) % 2
        for (k, dd, dl, dm) in vp.terms:
            if par[k] != want:
                raise ConformalError(
                    "grading violated in bracket entry (%s, %s)"
                    % (self.space.names[i], self.space.names[j]))
        if not self.space.params:   # an integral Fraction as an int
            vp = vp._trusted({t: rescaled(c, 1) for t, c in vp.terms.items()})
        if vp.is_zero():
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = vp

    def scaled(self, d):
        """This bracket times the rational d, constants bare (see
        superspace._integral)."""
        out = LambdaBracket(self.space, name=self.name)
        out.entries = {key: vp._trusted({t: rescaled(c, d)
                                         for t, c in vp.terms.items()})
                       for key, vp in self.entries.items()}
        return out

    def entry(self, i, j):
        vp = self.entries.get((self.space.index(i), self.space.index(j)))
        return vp if vp is not None else VPoly.zero(self.space)

    def entries_str(self):
        lines = []
        for (i, j) in sorted(self.entries):
            lines.append("(%s, %s) -> %s" % (self.space.names[i],
                                             self.space.names[j],
                                             self.entries[(i, j)]))
        return lines

    def substitute_params(self, assignments):
        space = self.space.substitute_params(assignments)
        table = _substituted({key: vp.terms
                              for key, vp in self.entries.items()},
                             assignments)
        return LambdaBracket(space, {key: VPoly(space, terms)
                                     for key, terms in table.items()},
                             name=self.name)


def apply_bracket(bracket, x, y, attach):
    """[x _v y] for x, y in the free module (VPolys or vectors).

    attach is v: a variable name 'l' or 'm', or a linear form {variable:
    rational} over d, l and m, e.g. {'l': 1, 'm': 1} for v = l + m.  By the
    sesquilinearity rules a term d^ddx e_kx of x and a term d^ddy e_ky of y
    give (-v)^ddx (d + v)^ddy [e_kx _v e_ky]; any l/m powers they carry are
    passive coefficients and multiply through.  The terms are gathered by
    their powers of v and of d + v first, so that each distinct pair of
    powers is expanded once.  A name equals the form {name: 1}, but raises
    VariableCaptureError if it already occurs in an input; a form may
    share variables with the inputs.
    """
    space = bracket.space
    if isinstance(x, dict):
        x = VPoly.vector(space, x)
    if isinstance(y, dict):
        y = VPoly.vector(space, y)
    if isinstance(attach, str):
        if x.uses(attach) or y.uses(attach):
            raise VariableCaptureError(
                "attachment variable %r already occurs in an argument"
                % attach)
        attach = {attach: 1}
    # (k, d-power, passive l, passive m, power of v, power of d + v)
    gathered = {}
    for (kx, ddx, dlx, dmx), sx in x.terms.items():
        for (ky, ddy, dly, dmy), sy in y.terms.items():
            entry = bracket.entries.get((kx, ky))
            if entry is None:
                continue
            s = sx * sy if ddx % 2 == 0 else -(sx * sy)
            dl, dm = dlx + dly, dmx + dmy
            for (k, dd, el, _), c in entry.terms.items():
                _add_term(gathered, (k, dd, dl, dm, ddx + el, ddy), c * s)
    d_plus = {**attach, 'd': attach.get('d', 0) + 1}  # d + v
    powers = {}
    terms = {}
    for (k, dd, dl, dm, pv, pdv), c in gathered.items():
        poly = powers.get((pv, pdv))
        if poly is None:
            poly = powers[pv, pdv] = _linear_power(
                d_plus, pdv, _linear_power(attach, pv, {(0, 0, 0): 1}))
        for (ed, el, em), f in poly.items():
            _add_term(terms, (k, dd + ed, dl + el, dm + em),
                      c if f == 1 else c * f)
    if x.space is not space or y.space is not space:
        return VPoly(space, terms)
    # the coefficients are products of clean ones on space: only what a
    # killed vector annihilates has to go
    if space.killed:
        terms = {key: c for key, c in terms.items() if not x._drops(key)}
    return x._trusted(terms)


# ---------- axiom checks ----------

# The conformal identities are equations over the ops of superspace's
# equation language, each op [x _v y] attached at the linear form v.
_FORMS = {'l': {'l': 1}, 'm': {'m': 1}, 'l+m': {'l': 1, 'm': 1},
          '-m-d': {'m': -1, 'd': -1}, '-l-d': {'l': -1, 'd': -1}}

BL, BM, BLM, BMD, BLD = map(_op, ('l', 'm', 'l+m', '-m-d', '-l-d'))

CONFORMAL_SKEW = ('skew-symmetry',
                  [(1, (), BL(X, Y)), (1, (('x', 'y'),), BLD(Y, X))])

CONFORMAL_LEIBNIZ = ('conformal Leibniz',
                     [(1, (), BL(X, BM(Y, Z))),
                      (-1, (), BLM(BL(X, Y), Z)),
                      (1, (('y', 'z'),), BMD(BL(X, Z), Y))])

CONFORMAL_JACOBI = ('conformal Jacobi',
                    [(1, (), BL(X, BM(Y, Z))),
                     (-1, (), BLM(BL(X, Y), Z)),
                     (-1, (('x', 'y'),), BM(Y, BL(X, Z)))])


def _ops(bracket):
    """The ops of _FORMS on bracket, functions that carry its space, with
    its entries as their table (on two slots the evaluator calls one once
    per key there; see superspace._values) and scaled(d), the op of the
    bracket times d; the five share one scaled bracket.  A dict argument
    is one of the evaluator's basis vectors {i: 1}, clean, so it becomes a
    VPoly unchecked (apply_bracket validates one)."""
    scaled = functools.cache(lambda d: _ops(bracket.scaled(d)))
    zero = VPoly.zero(bracket.space)

    def vpoly(x):
        if type(x) is not dict:
            return x
        return zero._trusted({(k, 0, 0, 0): c for k, c in x.items()})

    def attached_at(v, form):
        def op(x, y):
            return apply_bracket(bracket, vpoly(x), vpoly(y), form)
        op.space, op.table = bracket.space, bracket.entries
        op.scaled = lambda d: scaled(d)[v]
        return op
    return {v: attached_at(v, form) for v, form in _FORMS.items()}


def check_conformal_sesquilinearity(bracket, fail_fast=False):
    """[d a _l b] = -l [a _l b] and [a _l d b] = (d + l) [a _l b].

    True by construction for table-derived brackets; kept as an engine
    self-test.
    """
    space = bracket.space

    def check(cell):
        i, j = cell
        base = apply_bracket(bracket, VPoly.monomial(space, i),
                             VPoly.monomial(space, j), 'l')
        lhs1 = apply_bracket(bracket, VPoly.monomial(space, i, dd=1),
                             VPoly.monomial(space, j), 'l')
        res1 = lhs1 + base.times_monomial(dl=1)
        lhs2 = apply_bracket(bracket, VPoly.monomial(space, i),
                             VPoly.monomial(space, j, dd=1), 'l')
        res2 = (lhs2 - base.times_monomial(dd=1)
                - base.times_monomial(dl=1))
        for tag, res in (("first slot", res1), ("second slot", res2)):
            if not res.is_zero():
                yield ("sesquilinearity (%s)" % tag,
                       (space.names[i], space.names[j]), str(res))
    return AxiomReport("conformal sesquilinearity").run(
        itertools.product(range(space.dim), repeat=2), check, fail_fast)


def check_conformal_skew(bracket, fail_fast=False):
    """[a _l b] = -(-1)^{|a||b|} [b _{-l-d} a] on basis pairs."""
    return check_system("conformal skew-symmetry", [CONFORMAL_SKEW],
                        _ops(bracket), fail_fast)


def check_conformal_leibniz(bracket, fail_fast=False):
    """The (right) conformal Leibniz identity on basis triples:
    [a _l [b _m c]] = [[a _l b] _{l+m} c] - (-1)^{|b||c|} [[a _l c] _{-m-d} b].
    """
    return check_system("conformal Leibniz identity", [CONFORMAL_LEIBNIZ],
                        _ops(bracket), fail_fast)


def check_conformal_jacobi(bracket, fail_fast=False):
    """The conformal Jacobi identity on basis triples:
    [a _l [b _m c]] = [[a _l b] _{l+m} c] + (-1)^{|a||b|} [b _m [a _l c]].

    This is also the left conformal Leibniz identity when skew-symmetry is
    not assumed.
    """
    return check_system("conformal Jacobi identity", [CONFORMAL_JACOBI],
                        _ops(bracket), fail_fast)


def to_left_conformal(bracket):
    """Sign-twisted opposite bracket [a _l b]' = -(-1)^{|a||b|} [b _{-l-d} a].

    Sends right Leibniz conformal structures to left ones and back; applying
    it twice gives back the original bracket.
    """
    return _tabulate(LambdaBracket(bracket.space, name=(
        bracket.name or "bracket") + "_left"),
        [(-1, (('x', 'y'),), BLD(Y, X))], _ops(bracket))


def build_current(classical_bracket):
    """The current conformal algebra of a classical bracket:
    [a _l b] = [a, b] (constant in l), extended by sesquilinearity.
    """
    space = classical_bracket.space
    out = LambdaBracket(space, name="current")
    for (i, j), vec in classical_bracket.table.items():
        out.set_entry(i, j, VPoly.vector(space, vec))
    return out
