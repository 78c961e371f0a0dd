"""Exact coefficients: rationals, and polynomials over Q in parameters.

A coefficient on a space without parameters is a bare rational: an int
when it is integral, else a fractions.Fraction (int arithmetic is many
times cheaper, and most coefficients are integral).  On a space with
parameters ("a", "b", ...) it is a Scalar: a polynomial in those
parameters whose coefficients follow the same rule.  The one switch is
Scalar.coerce(x, params): on an empty parameter tuple it (like
Scalar.rational, zero, one and a substitute that removes every parameter)
returns a bare rational, so library code never builds a Scalar without
parameters, and the constructor refuses an empty tuple.  An integral
Fraction that arithmetic produces may stay a Fraction: int and Fraction
compare, hash and print alike.  Bare rationals and Scalars share + - * ==,
bool, str and factor_str, and a Scalar takes ints and Fractions as
operands on either side; as_rational reads the rational value off either,
and a constant Scalar hashes as that value.  Inside a check's private
ops (superspace's _integral) a constant coefficient is bare on any space,
via rescaled, so that most of a parametric check's arithmetic runs in
ints.
Nothing here divides; the one division on coefficients, rref's final
division by each row's lead, is exact: an int or a Fraction, never a float.
Parameters are formal: they are added and multiplied but never inverted,
so zero-testing is exact (a polynomial is zero iff it has no terms).

combination_str is the one renderer of sums: a Scalar, a vector, a VPoly
and a mode expression all print through it, with monomial_str and the
graded_lex order for their monomials.

Example:
    >>> a, b = Scalar.parameters('a', 'b')
    >>> s = a * a + Scalar.rational(Fraction(3, 2), ('a', 'b')) * b
    >>> str(s)
    'a^2 + 3/2 b'
    >>> s.substitute({'a': 1, 'b': 2})
    4
"""

from fractions import Fraction
import math
import operator


class ScalarError(ArithmeticError):
    """Raised for operations Scalars do not support (mismatched parameter
    lists, inverting a parameter, negative powers)."""


def _as_fraction(x):
    # ints and Fractions are the only bare numbers we accept; floats would
    # silently break exactness.  An integral value comes back as an int (a
    # bool as 0 or 1), any other as a Fraction.
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise ScalarError("expected an int or Fraction, got %r" % (x,))


def _check_params(params):
    params = tuple(params)
    if len(set(params)) != len(params):
        raise ScalarError("duplicate parameter names in %r" % (params,))
    return params


def _same_params(params, x):
    """ScalarError unless the Scalar x is over params."""
    if x.params != params:
        raise ScalarError("parameter lists differ: %r vs %r"
                          % (x.params, params))


class Scalar:
    """A polynomial in the declared parameters with rational coefficients.

    Stored sparsely: terms maps an exponent tuple (one entry per parameter)
    to a nonzero int or Fraction.  Library code builds Scalars only over a
    nonempty parameter tuple; a rational coefficient without parameters is
    a bare int or Fraction (see the module docstring).
    """

    __slots__ = ('params', 'terms')

    def __init__(self, params, terms=None):
        self.params = params = _check_params(params)
        if not params:
            raise ScalarError("a coefficient without parameters is an int "
                              "or a Fraction")
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != len(params):
                    raise ScalarError("exponent %r does not match parameters %r"
                                      % (expo, params))
                if not all(isinstance(e, int) and e >= 0 for e in expo):
                    raise ScalarError("exponents must be non-negative ints, "
                                      "got %r" % (expo,))
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[expo] = clean.get(expo, 0) + coeff
                    if clean[expo] == 0:
                        del clean[expo]
        self.terms = clean

    @classmethod
    def _trusted(cls, params, terms):
        """A Scalar on a parameter tuple and terms that are already clean
        (exponent tuples of the right arity, nonzero ints or Fractions),
        unchecked.
        Ring operations build their results here; outside input goes
        through the constructor."""
        out = object.__new__(cls)
        out.params = params
        out.terms = terms
        return out

    # ---------- constructors ----------

    @classmethod
    def zero(cls, params=()):
        return cls.rational(0, params)

    @classmethod
    def one(cls, params=()):
        return cls.rational(1, params)

    @classmethod
    def rational(cls, q, params=()):
        """q over params: a bare int or Fraction when there are no
        parameters."""
        q = _as_fraction(q)
        params = tuple(params)
        if not params:
            return q
        return cls._trusted(params, {(0,) * len(params): q} if q else {})

    @classmethod
    def param(cls, name, params):
        params = tuple(params)
        if name not in params:
            raise ScalarError("unknown parameter %r" % (name,))
        expo = tuple(1 if p == name else 0 for p in params)
        return cls._trusted(params, {expo: 1})

    @classmethod
    def parameters(cls, *names):
        """Convenience: Scalar generators for each name, all sharing the
        parameter tuple `names`."""
        names = _check_params(names)
        return tuple(cls.param(n, names) for n in names)

    @classmethod
    def coerce(cls, x, params=()):
        """x (an int, Fraction or Scalar) as a coefficient over params: an
        int or Fraction when there are no parameters, else a Scalar.  A
        Scalar over other parameters is an error."""
        if not isinstance(x, Scalar):
            return cls.rational(x, params)
        _same_params(tuple(params), x)
        return x

    # ---------- ring operations ----------

    # The results below are built from clean terms, so the only cleaning
    # left is to drop sums that cancel.  Term order is the constructor's
    # (first appearance), which callers that walk `terms` rely on.  A Scalar
    # operand is taken as it is (ScalarError over other parameters); a bare
    # one is its constant term.

    def __add__(self, other):
        if isinstance(other, Scalar):
            _same_params(self.params, other)
            items = other.terms.items()
        else:
            q = _as_fraction(other)
            items = (((0,) * len(self.params), q),) if q else ()
        terms = dict(self.terms)
        for expo, coeff in items:
            if expo in terms:
                coeff = terms[expo] + coeff
                if not coeff:
                    del terms[expo]  # the operand's exponents are distinct
                    continue
            terms[expo] = coeff
        return Scalar._trusted(self.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._trusted(self.params,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Scalar.coerce(other, self.params))

    def __rsub__(self, other):
        return Scalar.coerce(other, self.params) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            q = _as_fraction(other)
            return Scalar._trusted(self.params, {e: c * q for e, c
                                                 in self.terms.items()}
                                   if q else {})
        _same_params(self.params, other)
        a, b = self.terms, other.terms
        if len(b) == 1:
            (expo, coeff), = b.items()
            return Scalar._trusted(self.params, _times(a, expo, coeff))
        if len(a) == 1:
            (expo, coeff), = a.items()
            return Scalar._trusted(self.params, _times(b, expo, coeff))
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                expo = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                terms[expo] = terms[expo] + c if expo in terms else c
        # filter at the end: deleting a cancelled sum mid-loop would move a
        # later sum at the same exponent to the end of the order
        return Scalar._trusted(self.params,
                               {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ScalarError("Scalar powers must be non-negative integers "
                              "(parameters are never inverted)")
        out = Scalar.one(self.params)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            return self.terms == Scalar.coerce(other, self.params).terms
        except ScalarError:
            return NotImplemented

    def __hash__(self):
        # a constant equals its bare value, so it hashes as that value
        q = as_rational(self)
        if q is not None:
            return hash(q)
        return hash((self.params, frozenset(self.terms.items())))

    # ---------- substitution ----------

    def substitute(self, assignments):
        """Substitute rationals (or Scalars) for some parameters.

        assignments maps parameter names to ints, Fractions or Scalars
        over the remaining parameters.  The result lives over the remaining
        parameters: an int or Fraction when none remain.
        """
        remaining = tuple(p for p in self.params if p not in assignments)
        out = Scalar.zero(remaining)
        for expo, coeff in self.terms.items():
            term = Scalar.rational(coeff, remaining)
            for name, e in zip(self.params, expo):
                if e == 0:
                    continue
                if name in assignments:
                    val = Scalar.coerce(assignments[name], remaining)
                else:
                    val = Scalar.param(name, remaining)
                term = term * val ** e
            out = out + term
        return Scalar.coerce(out, remaining)

    # ---------- printing ----------

    def __str__(self):
        return combination_str((self.terms[e], monomial_str(self.params, e))
                               for e in sorted(self.terms, key=graded_lex))

    def __repr__(self):
        return "Scalar(%s)" % self


def _times(terms, expo, coeff):
    """terms times the one nonzero term coeff * (monomial of expo): no two
    products share an exponent and none is zero, so no sum is formed and
    the order is that of terms."""
    return {tuple(map(operator.add, e, expo)): c * coeff
            for e, c in terms.items()}


def as_rational(c):
    """The rational value (int or Fraction) of a coefficient, or None if it
    has a parameter term: c itself when it is a bare number."""
    if not isinstance(c, Scalar):
        return c
    zero = (0,) * len(c.params)
    return c.terms.get(zero, 0) if set(c.terms) <= {zero} else None


def denominator(c):
    """The least positive int d with c * d integral (every coefficient of
    it, for a Scalar)."""
    if isinstance(c, Scalar):
        return math.lcm(*[v.denominator for v in c.terms.values()])
    return c.denominator


def rescaled(c, q):
    """c * q for a coefficient c and a nonzero rational q, with every
    integral rational in the result an int, so that arithmetic on it runs
    in ints; a bare rational when c has no parameter term, even on a space
    with parameters (see the module docstring)."""
    r = as_rational(c)
    if r is None:
        return Scalar._trusted(c.params, {e: _as_fraction(v * q)
                                          for e, v in c.terms.items()})
    return _as_fraction(r * q)


def require_rational(coeffs, what):
    """ValueError unless every coefficient in coeffs is a plain rational."""
    if any(as_rational(c) is None for c in coeffs):
        raise ValueError("%s has parameter entries; substitute rational "
                         "values for the parameters first" % what)


# Rendering linear combinations -------------------------------------------

def graded_lex(expo):
    """Sort key for exponent tuples in graded-lex order: higher total degree
    first, then the lexicographically larger tuple first."""
    return -sum(expo), tuple(-e for e in expo)


def monomial_str(names, expo):
    """The monomial with these exponents, e.g. 'a^2 c'; '' for a constant."""
    return " ".join(name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(names, expo) if e)


def factor_str(s):
    """str(s), in parentheses when s is a sum of several terms."""
    text = str(s)
    return "(%s)" % text if "+" in text[1:] or "-" in text[1:] else text


def combination_str(pairs, factor=factor_str):
    """Render a sum from (coefficient, label) pairs, e.g. '2 x - (a + 1) y',
    each coefficient rendered by factor.  An empty label is the constant
    monomial, shown as its coefficient alone.  Zero coefficients are
    skipped; an empty sum is '0'."""
    pieces = []
    for c, label in pairs:
        if not c:
            continue
        cs = factor(c)
        if not label:
            pieces.append(cs)
        elif cs == "1":
            pieces.append(label)
        elif cs == "-1":
            pieces.append("-" + label)
        else:
            pieces.append("%s %s" % (cs, label))
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += (" + " + p) if not p.startswith("-") else (" - " + p[1:])
    return out


# Small integer helpers used by the mode/cocycle machinery -----------------

def falling(m, k):
    """Falling factorial m (m-1) ... (m-k+1) for integer m (negative is fine)
    and k >= 0."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a non-negative int, got %r" % (k,))
    out = 1
    for i in range(k):
        out *= (m - i)
    return out


def binom(m, k):
    """Generalized binomial coefficient falling(m, k) / k!, an int for any
    integer m, negative included; falling checks k.  The floor division is
    exact: k! divides every product of k consecutive integers."""
    return falling(m, k) // math.factorial(k)
