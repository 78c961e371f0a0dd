"""The algebra-definition text format.

A file declares one algebra: a graded basis, optional parameters, products
by structure constants, an optional star directive, optional named classical
brackets, an optional explicit lambda-bracket, and optional linear maps.

    algebra rab
    params a, b
    basis L even, W even
    op circ {
        W L -> L;
        W W -> W;
    }
    star = 2*circ
    bracket leib {
        W L -> a L;
        W W -> b L;
    }

Coefficient expressions use rationals (p/q), parameters, parentheses, ^ for
powers and juxtaposition for products; inside lambda-bracket entries the
reserved names d and l stand for the translation generator and the bracket
variable:

    lambda-bracket {
        L L -> (d + 2 l) L;
    }

'#' starts a comment.  parse() and the canonical printer round-trip: parsing
the printed form of a file reproduces it exactly.
"""

import re
from fractions import Fraction

from .scalars import Scalar, ScalarError
from .superspace import (Combination, SuperSpace, GradedBilinearMap,
                         LinearMap, _add_term)
from .conformal import ConformalError, LambdaBracket, VPoly, build_current
from .quadratic import (StarMode, build_quadratic_bracket, star_from_mode,
                        zero_map)

RESERVED = ('d', 'l')


class DslError(ValueError):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<kwhyph>lambda-bracket|linear-map)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>[{}();=+\-*/^,])
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError("line %d: unexpected character %r"
                           % (line, text[pos]))
        kind = m.lastgroup
        value = m.group()
        if kind not in ('ws', 'comment'):
            tag = {'arrow': 'arrow', 'kwhyph': 'ident', 'ident': 'ident',
                   'int': 'int', 'sym': value}[kind]
            tokens.append((tag, value, line))
        line += value.count("\n")
        pos = m.end()
    tokens.append(('eof', '', line))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != 'eof':
            self.pos += 1
        return tok

    def expect(self, tag, what=None):
        tok = self.next()
        if tok[0] != tag:
            raise DslError("line %d: expected %s, got %r"
                           % (tok[2], what or tag, tok[1] or "end of file"))
        return tok

    def error(self, message, line=None):
        if line is not None:
            raise DslError("line %d: %s" % (line, message))
        tok = self.peek()
        raise DslError("line %d: %s (at %r)"
                       % (tok[2], message, tok[1] or "end of file"))


class AlgebraFile:
    """A parsed algebra definition."""

    def __init__(self, name, space, ops, star_directive, brackets,
                 lambda_bracket, linear_maps):
        self.name = name
        self.space = space
        self.ops = ops                      # name -> GradedBilinearMap
        self.star_directive = star_directive  # None or tuple, see below
        self.brackets = brackets            # name -> GradedBilinearMap
        self.lambda_bracket = lambda_bracket
        self.linear_maps = linear_maps      # name -> LinearMap

    # star_directive is one of
    #   None, ('double', opname), ('symmetrized', opname), ('zero',),
    #   ('explicit', GradedBilinearMap)

    @property
    def params(self):
        return self.space.params

    def circ(self):
        return self.ops.get('circ') or zero_map(self.space, 'circ')

    def star(self):
        """The resolved star product, or None if no star directive."""
        sd = self.star_directive
        if sd is None:
            return None
        if sd[0] == 'zero':
            return zero_map(self.space, 'star')
        if sd[0] == 'double':
            return star_from_mode(self._op(sd[1]), StarMode.DOUBLE)
        if sd[0] == 'symmetrized':
            return star_from_mode(self._op(sd[1]), StarMode.SYMMETRIZED)
        return sd[1]

    def _op(self, name):
        if name not in self.ops:
            raise DslError("star directive refers to unknown op %r" % name)
        return self.ops[name]

    def classical_bracket(self):
        """The first declared bracket (zero if none)."""
        for gbm in self.brackets.values():
            return gbm
        return zero_map(self.space, 'bracket')

    def has_quadratic_data(self):
        return bool(self.ops) or self.star_directive is not None

    def conformal_bracket(self):
        """Bracket source precedence: explicit lambda-bracket, else the
        quadratic dictionary on (circ, star, bracket), else the current
        algebra of the classical bracket."""
        if self.lambda_bracket is not None:
            return self.lambda_bracket
        if self.has_quadratic_data():
            star = self.star()
            if star is None:
                star = zero_map(self.space, 'star')
            return build_quadratic_bracket(self.circ(), star,
                                           self.classical_bracket())
        if self.brackets:
            return build_current(self.classical_bracket())
        raise DslError("algebra %r defines no bracket source" % self.name)

    def substitute(self, assignments):
        """A copy with parameters substituted by rationals.  Every component
        lands on the one space self.space.substitute_params returns."""
        unknown = set(assignments) - set(self.params)
        if unknown:
            raise DslError("unknown parameters: %s" % ", ".join(sorted(unknown)))

        def each(components):
            return {n: c.substitute_params(assignments)
                    for n, c in components.items()}
        sd = self.star_directive
        if sd is not None and sd[0] == 'explicit':
            sd = ('explicit', sd[1].substitute_params(assignments))
        lb = self.lambda_bracket
        if lb is not None:
            lb = lb.substitute_params(assignments)
        return AlgebraFile(self.name, self.space.substitute_params(assignments),
                           each(self.ops), sd, each(self.brackets), lb,
                           each(self.linear_maps))

    # ---------- canonical printing ----------

    def canonical_text(self):
        lines = ["algebra %s" % self.name]
        if self.params:
            lines.append("params " + ", ".join(self.params))
        lines.append("basis " + ", ".join(
            "%s %s" % (n, "odd" if p else "even")
            for n, p in zip(self.space.names, self.space.parities)))
        for name, gbm in self.ops.items():
            lines.extend(self._block_lines("op " + name, gbm.table))
        sd = self.star_directive
        if sd is not None:
            if sd[0] == 'zero':
                lines.append("star = zero")
            elif sd[0] == 'double':
                lines.append("star = 2*%s" % sd[1])
            elif sd[0] == 'symmetrized':
                lines.append("star = symmetrized(%s)" % sd[1])
            else:
                lines.extend(self._block_lines("star = explicit", sd[1].table))
        for name, gbm in self.brackets.items():
            lines.extend(self._block_lines("bracket " + name, gbm.table))
        if self.lambda_bracket is not None:
            lines.extend(self._block_lines("lambda-bracket",
                                           self.lambda_bracket.entries))
        for name, lm in self.linear_maps.items():
            lines.extend(self._block_lines("linear-map " + name, lm.table))
        return "\n".join(lines) + "\n"

    def _block_lines(self, header, entries):
        """header { NAMES -> value; ... } for a table keyed by basis index
        pairs, or by single indices (a linear map), in key order."""
        names = self.space.names
        lines = [header + " {"]
        for key in sorted(entries):
            value = entries[key]
            lines.append("    %s -> %s;" % (
                " ".join(names[i] for i in (
                    key if isinstance(key, tuple) else (key,))),
                value if isinstance(value, VPoly)
                else self.space.vec_str(value)))
        return lines + ["}"]

    def __eq__(self, other):
        return (isinstance(other, AlgebraFile)
                and self.canonical_text() == other.canonical_text())


# ---------- expression evaluation ----------
# A value is a Combination keyed (k, dd, dl): k is a basis index, or None for
# the scalar part, and dd, dl are the powers of d and l.

class _ExprParser:
    """Parses coefficient-and-vector expressions in a given context."""

    def __init__(self, parser, space, allow_vars):
        self.p = parser
        self.space = space
        self.allow_vars = allow_vars
        self.params = space.params

    def term(self, k, c=1, dd=0, dl=0):
        """The value c d^dd l^dl e_k (a scalar when k is None)."""
        return Combination(self.space, {(k, dd, dl): c})

    def parse(self):
        val = self.parse_term_signed()
        while self.p.peek()[0] in ('+', '-'):
            op = self.p.next()[0]
            rhs = self.parse_term()
            val = val - rhs if op == '-' else val + rhs
        return val

    def parse_term_signed(self):
        negate = False
        while self.p.peek()[0] in ('+', '-'):
            if self.p.next()[0] == '-':
                negate = not negate
        val = self.parse_term()
        return val.scale(-1) if negate else val

    def parse_term(self):
        val = self.parse_factor()
        while self.p.peek()[0] in ('ident', 'int', '('):
            val = self._product(val, self.parse_factor())
        return val

    def parse_factor(self):
        val = self.parse_atom()
        while self.p.peek()[0] == '^':
            self.p.next()
            n = int(self.p.expect('int', "an integer power")[1])
            if _is_vector(val) and n != 1:
                self.p.error("cannot raise a basis-vector expression to a power")
            out = self.term(None)
            for _ in range(n):
                out = self._product(out, val)
            val = out
        return val

    def _product(self, a, b):
        if _is_vector(a) and _is_vector(b):
            self.p.error("cannot multiply two basis-vector expressions")
        if _is_vector(b):
            a, b = b, a
        # b is pure scalar (possibly with d/l powers)
        terms = {}
        for (k, pd1, pl1), c1 in a.terms.items():
            for (_, pd2, pl2), c2 in b.terms.items():
                _add_term(terms, (k, pd1 + pd2, pl1 + pl2), c1 * c2)
        return Combination(self.space, terms)

    def parse_atom(self):
        tag, text, line = self.p.peek()
        if tag == 'int':
            self.p.next()
            num = int(text)
            den = 1
            if self.p.peek()[0] == '/':
                self.p.next()
                den = int(self.p.expect('int', "a denominator")[1])
                if den == 0:
                    self.p.error("zero denominator")
            return self.term(None, Fraction(num, den))
        if tag == '(':
            self.p.next()
            val = self.parse()
            self.p.expect(')')
            return val
        if tag == 'ident':
            self.p.next()
            if text in RESERVED:
                if not self.allow_vars:
                    self.p.error("%r is only allowed in lambda-bracket "
                                 "entries" % text)
                return self.term(None, dd=int(text == 'd'),
                                 dl=int(text == 'l'))
            if text in self.params:
                return self.term(None, Scalar.param(text, self.params))
            if text in self.space.names:
                return self.term(self.space.index(text))
            self.p.error("unknown name %r" % text)
        self.p.error("expected an expression")

    def entry(self):
        """Parse and require a combination of basis vectors (no scalar
        part): a VPoly in d and l where they are allowed, else a classical
        vector {k: coefficient} (d and l are then already rejected)."""
        val = self.parse()
        if any(k is None for k, _, _ in val.terms):
            self.p.error("entry must be a linear combination of basis vectors")
        if self.allow_vars:
            return VPoly(self.space, {(k, dd, dl, 0): c
                                      for (k, dd, dl), c in val.terms.items()})
        return {k: c for (k, _, _), c in val.terms.items()}


def _is_vector(val):
    return any(k is not None for k, _, _ in val.terms)


# ---------- the file parser ----------

def _read_block(p, table, arity):
    """Read `{ NAMES -> value; ... }` into table through its set_entry, with
    arity basis names per key; values may use d and l only in a
    LambdaBracket.  A key written twice is an error, whatever its values."""
    space = table.space
    seen = set()
    p.expect('{')
    while p.peek()[0] != '}':
        itok = p.expect('ident', "a basis name")
        key = (itok[1],) + tuple(p.expect('ident', "a basis name")[1]
                                 for _ in range(arity - 1))
        if any(name not in space.names for name in key):
            p.error("unknown basis name")
        p.expect('arrow', "'->'")
        value = _ExprParser(p, space, allow_vars=isinstance(
            table, LambdaBracket)).entry()
        p.expect(';')
        if key in seen:
            p.error("duplicate entry %s" % (
                key[0] if arity == 1 else "(%s)" % ", ".join(key)))
        seen.add(key)
        try:
            table.set_entry(*key, value)
        except (ScalarError, ConformalError) as exc:
            p.error(str(exc), line=itok[2])
    p.expect('}')
    return table


def parse(text):
    """Parse an algebra definition; returns an AlgebraFile."""
    p = _Parser(text)
    tok = p.expect('ident', "'algebra'")
    if tok[1] != 'algebra':
        raise DslError("line %d: a file starts with 'algebra <name>'" % tok[2])
    name = p.expect('ident', "an algebra name")[1]

    params = []
    basis = []
    # optional params/basis come before anything that needs the space
    while True:
        tag, text_, line = p.peek()
        if tag == 'ident' and text_ == 'params':
            p.next()
            while p.peek()[0] == 'ident' and p.peek()[1] not in (
                    'basis', 'op', 'star', 'bracket', 'lambda-bracket',
                    'linear-map', 'params'):
                ptok = p.next()
                pname = ptok[1]
                if pname in RESERVED:
                    p.error("%r is reserved" % pname, line=ptok[2])
                if pname in params:
                    p.error("duplicate parameter %r" % pname, line=ptok[2])
                params.append(pname)
                if p.peek()[0] == ',':
                    p.next()
        elif tag == 'ident' and text_ == 'basis':
            p.next()
            while True:
                btok = p.expect('ident', "a basis name")
                bname = btok[1]
                if bname in RESERVED:
                    p.error("%r is reserved" % bname, line=btok[2])
                if any(bname == existing for existing, _ in basis):
                    p.error("duplicate basis vector %r" % bname, line=btok[2])
                parity_tok = p.expect('ident', "'even' or 'odd'")[1]
                if parity_tok not in ('even', 'odd'):
                    p.error("expected 'even' or 'odd'")
                basis.append((bname, 1 if parity_tok == 'odd' else 0))
                if p.peek()[0] == ',':
                    p.next()
                    continue
                break
        else:
            break

    if not basis:
        p.error("no basis declared")
    for bname, _ in basis:
        if bname in params:
            p.error("name %r is both a parameter and a basis vector" % bname)
    space = SuperSpace(basis, params=tuple(params))

    ops = {}
    star_directive = None
    star_op = None  # the op-name token of 2*<op> or symmetrized(<op>)
    brackets = {}
    lambda_bracket = None
    linear_maps = {}
    # declaration -> (its components, name prompt, table type, names per key)
    named = {'op': (ops, "an op name", GradedBilinearMap, 2),
             'bracket': (brackets, "a bracket name", GradedBilinearMap, 2),
             'linear-map': (linear_maps, "a map name", LinearMap, 1)}

    while p.peek()[0] != 'eof':
        tag, text_, line = p.next()
        if tag != 'ident':
            raise DslError("line %d: unexpected %r" % (line, text_))
        if text_ in named:
            found, prompt, table, arity = named[text_]
            cname = p.expect('ident', prompt)[1]
            if text_ == 'op' and cname == 'star':
                p.error("define star with the 'star = ...' directive")
            if cname in found:
                p.error("duplicate %s %r" % (text_, cname))
            found[cname] = _read_block(p, table(space, name=cname), arity)
        elif text_ == 'star':
            if star_directive is not None:
                p.error("duplicate star directive")
            p.expect('=')
            tag2, text2, _ = p.peek()
            if tag2 == 'int' and text2 == '2':
                p.next()
                p.expect('*')
                star_op = p.expect('ident', "an op name")
                star_directive = ('double', star_op[1])
            elif tag2 == 'ident' and text2 == 'symmetrized':
                p.next()
                p.expect('(')
                star_op = p.expect('ident', "an op name")
                p.expect(')')
                star_directive = ('symmetrized', star_op[1])
            elif tag2 == 'ident' and text2 == 'zero':
                p.next()
                star_directive = ('zero',)
            elif tag2 == 'ident' and text2 == 'explicit':
                p.next()
                star_directive = ('explicit', _read_block(
                    p, GradedBilinearMap(space, name='star'), 2))
            else:
                p.error("expected 2*<op>, symmetrized(<op>), zero or "
                        "explicit {...}")
        elif text_ == 'lambda-bracket':
            if lambda_bracket is not None:
                p.error("duplicate lambda-bracket")
            lambda_bracket = _read_block(
                p, LambdaBracket(space, name='lambda'), 2)
        else:
            raise DslError("line %d: unknown declaration %r" % (line, text_))

    if star_op is not None and star_op[1] not in ops:
        p.error("star directive refers to undeclared op %r" % star_op[1],
                line=star_op[2])

    return AlgebraFile(name, space, ops, star_directive, brackets,
                       lambda_bracket, linear_maps)


def parse_file(path):
    with open(path) as fh:
        return parse(fh.read())
