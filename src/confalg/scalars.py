"""Exact scalars: multivariate polynomials over Q in a fixed tuple of parameters.

Every coefficient in the package is a Scalar.  A Scalar with no parameters is
just a rational number; adding parameters ("a", "b", ...) gives polynomials
with Fraction coefficients.  Parameters are formal: they are added and
multiplied but never inverted, so zero-testing is exact (a polynomial is zero
iff it has no terms).

Example:
    >>> a, b = Scalar.parameters('a', 'b')
    >>> s = a * a + Scalar.rational(Fraction(3, 2), ('a', 'b')) * b
    >>> str(s)
    'a^2 + 3/2 b'
    >>> (s - s).is_zero()
    True
"""

from fractions import Fraction
import math
import operator


class ScalarError(ArithmeticError):
    """Raised for operations Scalars do not support (mismatched parameter
    lists, inverting a parameter, negative powers)."""


def _as_fraction(x):
    # ints and Fractions are the only bare numbers we accept; floats would
    # silently break exactness.
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError("expected an int or Fraction, got %r" % (x,))


def _check_params(params):
    params = tuple(params)
    if len(set(params)) != len(params):
        raise ScalarError("duplicate parameter names in %r" % (params,))
    return params


class Scalar:
    """A polynomial in the declared parameters with Fraction coefficients.

    Stored sparsely: terms maps an exponent tuple (one entry per parameter)
    to a nonzero Fraction.  The empty exponent tuple of a parameter-free
    Scalar is (), so a plain rational q is {(): q}.
    """

    __slots__ = ('params', 'terms')

    def __init__(self, params=(), terms=None):
        self.params = params = _check_params(params)
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
                    clean[expo] = clean.get(expo, Fraction(0)) + coeff
                    if clean[expo] == 0:
                        del clean[expo]
        self.terms = clean

    @classmethod
    def _trusted(cls, params, terms):
        """A Scalar on a parameter tuple and terms that are already clean
        (exponent tuples of the right arity, nonzero Fractions), unchecked.
        Ring operations build their results here; outside input goes
        through the constructor."""
        out = object.__new__(cls)
        out.params = params
        out.terms = terms
        return out

    # ---------- constructors ----------

    @classmethod
    def zero(cls, params=()):
        return cls._trusted(tuple(params), {})

    @classmethod
    def one(cls, params=()):
        return cls.rational(1, params)

    @classmethod
    def rational(cls, q, params=()):
        q = _as_fraction(q)
        params = tuple(params)
        return cls._trusted(params, {(0,) * len(params): q} if q else {})

    @classmethod
    def param(cls, name, params):
        params = tuple(params)
        if name not in params:
            raise ScalarError("unknown parameter %r" % (name,))
        expo = tuple(1 if p == name else 0 for p in params)
        return cls._trusted(params, {expo: Fraction(1)})

    @classmethod
    def parameters(cls, *names):
        """Convenience: Scalar generators for each name, all sharing the
        parameter tuple `names`."""
        names = _check_params(names)
        return tuple(cls.param(n, names) for n in names)

    @classmethod
    def coerce(cls, x, params=()):
        if isinstance(x, Scalar):
            return x.lift(params) if x.params != tuple(params) else x
        return cls.rational(x, params)

    # ---------- parameter plumbing ----------

    def lift(self, params):
        """Re-express over a larger parameter tuple (the old parameters must
        all be present in the new tuple)."""
        params = tuple(params)
        if params == self.params:
            return self
        try:
            positions = [params.index(p) for p in self.params]
        except ValueError:
            raise ScalarError("cannot lift %r from parameters %r to %r"
                              % (str(self), self.params, params))
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(params)
            for pos, e in zip(positions, expo):
                new[pos] = e
            terms[tuple(new)] = coeff
        return Scalar._trusted(params, terms)

    def _pair(self, other):
        """Coerce self and other to a common parameter tuple.  Constants lift
        to anything; genuinely different parameter lists are an error."""
        if not isinstance(other, Scalar):
            other = Scalar.rational(other, self.params)
        if self.params == other.params:
            return self, other
        if not self.params:
            return self.lift(other.params), other
        if not other.params:
            return self, other.lift(self.params)
        raise ScalarError("parameter lists differ: %r vs %r"
                          % (self.params, other.params))

    # ---------- ring operations ----------

    # The results below are built from clean terms, so the only cleaning
    # left is to drop sums that cancel.  Term order is the constructor's
    # (first appearance), which callers that walk `terms` rely on.

    def __add__(self, other):
        s, o = self._pair(other)
        terms = dict(s.terms)
        for expo, coeff in o.terms.items():
            if expo in terms:
                coeff = terms[expo] + coeff
                if not coeff:
                    del terms[expo]  # o's exponents are distinct
                    continue
            terms[expo] = coeff
        return Scalar._trusted(s.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._trusted(self.params,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        s, o = self._pair(other)
        return s + (-o)

    def __rsub__(self, other):
        s, o = self._pair(other)
        return o + (-s)

    def __mul__(self, other):
        s, o = self._pair(other)
        terms = {}
        for e1, c1 in s.terms.items():
            for e2, c2 in o.terms.items():
                expo = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                terms[expo] = terms[expo] + c if expo in terms else c
        # filter at the end: deleting a cancelled sum mid-loop would move a
        # later sum at the same exponent to the end of the order
        return Scalar._trusted(s.params,
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

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            s, o = self._pair(other)
        except ScalarError:
            return NotImplemented
        return s.terms == o.terms

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    # ---------- queries ----------

    def is_rational(self):
        zero_expo = (0,) * len(self.params)
        return all(e == zero_expo for e in self.terms)

    def rational_value(self):
        """The Fraction value of a constant Scalar."""
        if self.is_zero():
            return Fraction(0)
        zero_expo = (0,) * len(self.params)
        if not self.is_rational():
            raise ScalarError("%s is not a plain rational" % self)
        return self.terms[zero_expo]

    def substitute(self, assignments):
        """Substitute rationals (or Scalars) for some parameters.

        assignments maps parameter names to ints/Fractions/Scalars.  The
        result lives over the remaining parameters (plus any parameters the
        substituted values carry).
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
        return out

    # ---------- printing ----------

    def sorted_terms(self):
        """Terms in graded-lex order: higher total degree first, then
        lexicographically larger exponent tuple first."""
        return sorted(self.terms.items(),
                      key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.params, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = " ".join(factors)
            else:
                body = str(abs(coeff)) + " " + " ".join(factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "Scalar(%s)" % self


def require_rational(coeffs, what):
    """ValueError unless every Scalar in coeffs is a plain rational."""
    if not all(c.is_rational() for c in coeffs):
        raise ValueError("%s has parameter entries; substitute rational "
                         "values for the parameters first" % what)


# Rendering linear combinations -------------------------------------------

def factor_str(s):
    """str(s), in parentheses when s is a sum of several terms."""
    text = str(s)
    return "(%s)" % text if "+" in text[1:] or "-" in text[1:] else text


def combination_str(pairs):
    """Render a sum from (Scalar, label) pairs, e.g. '2 x - (a + 1) y'.
    Zero coefficients are skipped; an empty sum is '0'."""
    pieces = []
    for c, label in pairs:
        if c.is_zero():
            continue
        cs = factor_str(c)
        if cs == "1":
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
    """Generalized binomial coefficient: falling(m, k) / k! (an integer for
    integer m, including negative m); falling checks k."""
    value = Fraction(falling(m, k), math.factorial(k))
    assert value.denominator == 1
    return int(value)
