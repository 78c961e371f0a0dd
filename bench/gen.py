"""Seeded input generator for the benchmark.

Nothing here imports confalg: algebras are held in the benchmark's own
representation and handed to the engine only as `.alg` text, so the engine
never sees how an input was made.  Every input comes from a construction
whose verdict is known in advance:

* direct sums of small blocks that satisfy the axioms (the two-generator
  product with its bracket family, diagonal and truncated-polynomial
  products, the one-parameter Novikov product, square-zero products and
  trivial odd lines);
* the same sums in another basis, reached by parity-preserving unimodular
  row operations and a random relabelling: an isomorphism, so every
  identity keeps its verdict while the tables fill in;
* mutants of either, whose bracket is perturbed until `constant_part_fails`
  (an evaluator that shares no code with the engine) shows that the
  constant part of the conformal identities breaks, so the identities
  themselves must fail.

A polynomial is a dict {exponent tuple: nonzero Fraction} over the
algebra's parameter tuple; a table maps (i, j) to {k: polynomial}.
"""

import random
from fractions import Fraction

SMALL = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 1, 2, 3)]


# ---------- polynomials ----------

def p_const(q, nparams):
    q = Fraction(q)
    return {(0,) * nparams: q} if q else {}


def p_param(index, nparams):
    return {tuple(int(i == index) for i in range(nparams)): Fraction(1)}


def p_add(p, q):
    out = dict(p)
    for e, c in q.items():
        c = out.get(e, 0) + c
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def p_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def p_eval(p, point):
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def p_str(p, params):
    """Render in the .alg coefficient syntax, e.g. `3/2 a^2 b - 1`."""
    items = sorted(p.items(), key=lambda it: (-sum(it[0]), [-e for e in it[0]]))
    out = ""
    for n, (e, c) in enumerate(items):
        factors = [name if k == 1 else "%s^%d" % (name, k)
                   for name, k in zip(params, e) if k]
        mag = abs(c)
        body = " ".join(([] if factors and mag == 1 else [str(mag)]) + factors)
        if n == 0:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


# ---------- tables ----------

def t_set(table, i, j, k, poly):
    if poly:
        table.setdefault((i, j), {})[k] = poly


def t_add(table, i, j, k, poly):
    vec = table.setdefault((i, j), {})
    new = p_add(vec.get(k, {}), poly)
    if new:
        vec[k] = new
    else:
        vec.pop(k, None)
        if not vec:
            del table[(i, j)]


def t_scale(table, poly):
    return {ij: {k: p_mul(c, poly) for k, c in vec.items()}
            for ij, vec in table.items()}


def t_eval(table, point):
    out = {}
    for ij, vec in table.items():
        ev = {k: p_eval(c, point) for k, c in vec.items()}
        ev = {k: c for k, c in ev.items() if c}
        if ev:
            out[ij] = ev
    return out


class Alg:
    """Quadratic data (circ, star, bracket) on a named graded basis.

    star is 'double' (2 circ), 'symmetrized', 'zero' or an explicit table.
    """

    def __init__(self, name, parities, params=(), circ=None, star='zero',
                 bracket=None):
        self.name = name
        self.parities = list(parities)
        self.params = tuple(params)
        self.circ = circ or {}
        self.star = star
        self.bracket = bracket or {}

    @property
    def dim(self):
        return len(self.parities)

    def names(self):
        return ["e%d" % i for i in range(self.dim)]

    def copy(self):
        star = self.star if isinstance(self.star, str) else _copy_table(self.star)
        return Alg(self.name, self.parities, self.params,
                   _copy_table(self.circ), star, _copy_table(self.bracket))

    def text(self):
        names = self.names()
        lines = ["algebra %s" % self.name]
        if self.params:
            lines.append("params " + ", ".join(self.params))
        lines.append("basis " + ", ".join(
            "%s %s" % (n, "odd" if p else "even")
            for n, p in zip(names, self.parities)))

        def block(header, table):
            lines.append(header + " {")
            for (i, j) in sorted(table):
                terms = []
                for k in sorted(table[(i, j)]):
                    c = p_str(table[(i, j)][k], self.params)
                    terms.append("(%s) %s" % (c, names[k]))
                lines.append("    %s %s -> %s;"
                             % (names[i], names[j], " + ".join(terms)))
            lines.append("}")

        if self.star != 'zero' or self.circ:
            block("op circ", self.circ)
        if self.star == 'double':
            lines.append("star = 2*circ")
        elif self.star == 'symmetrized':
            lines.append("star = symmetrized(circ)")
        elif self.star == 'zero':
            lines.append("star = zero")
        else:
            block("star = explicit", self.star)
        if self.bracket:
            block("bracket br", self.bracket)
        return "\n".join(lines) + "\n"


def _copy_table(table):
    return {ij: {k: dict(c) for k, c in vec.items()}
            for ij, vec in table.items()}


# ---------- blocks (local indices, zero-based) ----------
# Each block is (parities, circ, bracket) and satisfies the axioms of the
# family it is used in; direct sums keep them, since cross products vanish.

def block_lw(n, a, b):
    """W.L = L, W.W = W with [W, L] = a L, [W, W] = b L (L = 0, W = 1):
    associative Novikov with a compatible bracket for every a, b."""
    one = p_const(1, n)
    circ = {(1, 0): {0: one}, (1, 1): {1: one}}
    br = {}
    t_set(br, 1, 0, 0, a)
    t_set(br, 1, 1, 0, b)
    return [0, 0], circ, br


def block_diag(n, ps):
    """u_i . u_i = p_i u_i: commutative associative, so both associative
    Novikov and Novikov."""
    circ = {}
    for i, p in enumerate(ps):
        t_set(circ, i, i, i, p)
    return [0] * len(ps), circ, {}


def block_truncated(n, k):
    """u_i . u_j = u_{i+j+1} on Q[x]/(x^k) (averaging-derived, associative
    Novikov; the products do not span the space)."""
    circ = {}
    for i in range(k):
        for j in range(k):
            if i + j + 1 < k:
                t_set(circ, i, j, i + j + 1, p_const(1, n))
    return [0] * k, circ, {}


def block_gd(n, a):
    """L.L = L, L.W = (a - 1) W, W.L = W: Novikov for every a."""
    circ = {(0, 0): {0: p_const(1, n)}, (1, 0): {1: p_const(1, n)}}
    t_set(circ, 0, 1, 1, p_add(a, p_const(-1, n)))
    return [0, 0], circ, {}


def block_square_zero(n, odd, c):
    """e . e = c f (e of either parity, f even): square-zero."""
    return [1 if odd else 0, 0], {(0, 0): {1: c}}, {}


def block_odd_line(n):
    return [1], {}, {}


def direct_sum(blocks):
    parities, circ, bracket = [], {}, {}
    for bpar, bcirc, bbr in blocks:
        off = len(parities)
        parities.extend(bpar)
        for src, dst in ((bcirc, circ), (bbr, bracket)):
            for (i, j), vec in src.items():
                for k, c in vec.items():
                    t_set(dst, i + off, j + off, k + off, dict(c))
    return parities, circ, bracket


# ---------- basis change ----------

def unimodular(dim, ops):
    """(g, g^-1) for the product of the elementary operations
    row_a += c row_b: integer matrices with determinant 1."""
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    ginv = [row[:] for row in g]
    for a, b, c in ops:
        for col in range(dim):          # row_a += c row_b
            g[a][col] += c * g[b][col]
        for row in range(dim):          # col_b -= c col_a
            ginv[row][b] -= c * ginv[row][a]
    return g, ginv


def _transform(table, g, ginv, nparams):
    """x *' y = g((g^-1 x) * (g^-1 y)) on basis vectors."""
    dim = len(g)
    out = {}
    cols = [{p: ginv[p][i] for p in range(dim) if ginv[p][i]} for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = {}
            for p, cp in cols[i].items():
                for q, cq in cols[j].items():
                    for k, c in table.get((p, q), {}).items():
                        acc[k] = p_add(acc.get(k, {}),
                                       p_mul(c, p_const(cp * cq, nparams)))
            for k, c in acc.items():
                for r in range(dim):
                    if g[r][k]:
                        t_add(out, i, j, r, p_mul(c, p_const(g[r][k], nparams)))
    return out


def _basis_change(alg, g, ginv):
    n = len(alg.params)
    out = alg.copy()
    out.circ = _transform(alg.circ, g, ginv, n)
    out.bracket = _transform(alg.bracket, g, ginv, n)
    if not isinstance(alg.star, str):
        out.star = _transform(alg.star, g, ginv, n)
    return out


def conjugate(alg, mix):
    """The algebra in the basis reached by `mix` distinct operations
    row_a += c row_b (c = 1 or -1) between basis vectors of equal parity: a
    superalgebra isomorphism, so every identity keeps its verdict.  The
    operations depend only on the shape of the algebra and on mix, so
    inputs of one shape cost about the same whatever the seed."""
    pattern = random.Random(repr((alg.parities, sorted(alg.circ), mix)))
    pairs = [(a, b) for a in range(alg.dim) for b in range(alg.dim)
             if a != b and alg.parities[a] == alg.parities[b]]
    ops = [pair + (pattern.choice((1, -1)),)
           for pair in pattern.sample(pairs, min(mix, len(pairs)))]
    return _basis_change(alg, *unimodular(alg.dim, ops))


def permuted(alg, rng):
    """The algebra with its basis vectors relabelled in random order."""
    order = list(range(alg.dim))
    rng.shuffle(order)
    g = [[int(order[j] == i) for j in range(alg.dim)] for i in range(alg.dim)]
    ginv = [list(row) for row in zip(*g)]
    out = _basis_change(alg, g, ginv)
    out.parities = [alg.parities[order.index(i)] for i in range(alg.dim)]
    return out


# ---------- the independent oracle ----------

def constant_part_fails(alg, point):
    """Which conformal identities provably fail, judged from the constant
    part alone.

    The constant term (no d, l, m) of [x _l y] in the quadratic bracket is
    [y, x], and constant terms compose without mixing in the d/l parts.
    So if x * y = [y, x] breaks the right Leibniz, left Leibniz (Jacobi) or
    super skew identity at a rational point, the conformal identity of the
    same name fails for every parameter value.  Returns a set of the names
    'leibniz', 'jacobi', 'skew'.
    """
    br = t_eval(alg.bracket, point)
    par = alg.parities
    dim = alg.dim

    def mul(u, v):
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, c in br.get((j, i), {}).items():
                    out[k] = out.get(k, 0) + ci * cj * c
        return {k: c for k, c in out.items() if c}

    def comb(*terms):
        out = {}
        for s, vec in terms:
            for k, c in vec.items():
                out[k] = out.get(k, 0) + s * c
        return any(out.values())

    e = [{i: Fraction(1)} for i in range(dim)]
    fails = set()
    for a in range(dim):
        for b in range(dim):
            ab = mul(e[a], e[b])
            if comb((1, ab), ((-1) ** (par[a] * par[b]), mul(e[b], e[a]))):
                fails.add('skew')
            for c in range(dim):
                lhs = mul(e[a], mul(e[b], e[c]))
                abc = mul(ab, e[c])
                if comb((1, lhs), (-1, abc),
                        ((-1) ** (par[b] * par[c]), mul(mul(e[a], e[c]), e[b]))):
                    fails.add('leibniz')
                if comb((1, lhs), (-1, abc),
                        (-(-1) ** (par[a] * par[b]), mul(e[b], mul(e[a], e[c])))):
                    fails.add('jacobi')
    return fails


def mutate(alg, rng, point, coeff, need=('leibniz', 'jacobi', 'skew')):
    """A copy whose bracket gains two grading-admissible entries, drawn
    again until the independent oracle shows every identity in `need`
    failing."""
    admissible = [(i, j, k) for i in range(alg.dim) for j in range(alg.dim)
                  for k in range(alg.dim)
                  if (alg.parities[i] + alg.parities[j]) % 2 == alg.parities[k]]
    for _ in range(200):
        out = alg.copy()
        for i, j, k in rng.sample(admissible, 2):
            t_add(out.bracket, i, j, k, coeff(rng))
        if set(need) <= constant_part_fails(out, point):
            return out
    raise RuntimeError("no failing mutation found for %s" % alg.name)


# ---------- families ----------

def rand_small(rng):
    return rng.choice(SMALL)


def nonunit(rng, values, n):
    """A value other than 1, so that L.W = (a - 1) W stays nonzero."""
    while True:
        a = values(rng)
        if a != p_const(1, n):
            return a


def family_blocks(rng, family, dim, odd, n, values):
    """Blocks of one family filling `dim` generators, `odd` of them odd.

    The kinds of block follow from (family, dim, odd) alone, so that inputs
    of one shape cost about the same whatever the seed; the seed draws the
    values, through values(rng) (rational constants or parameter
    polynomials).
    """
    even = dim - odd
    if family == 'anl':
        blocks = [block_lw(n, values(rng), values(rng))
                  for _ in range(even // 2)]
        blocks += [block_diag(n, [p_const(rand_small(rng), n)])] * (even % 2)
    elif family == 'gd':
        blocks = [block_gd(n, nonunit(rng, values, n))
                  for _ in range(even // 2)]
        blocks += [block_diag(n, [p_const(rand_small(rng), n)])] * (even % 2)
    elif family in ('star-zero', 'circ-zero'):
        # square-zero pairs (e, f) with e odd while odd slots last; an
        # unpaired even slot is a zero line
        pairs_odd = min(odd, even)
        pairs_even = (even - pairs_odd) // 2
        blocks = [block_square_zero(n, True, values(rng))
                  for _ in range(pairs_odd)]
        blocks += [block_square_zero(n, False, values(rng))
                   for _ in range(pairs_even)]
        blocks += [([0], {}, {})] * (even - pairs_odd - 2 * pairs_even)
        odd -= pairs_odd
    else:
        raise ValueError(family)
    return blocks + [block_odd_line(n) for _ in range(odd)]


def family_alg(name, family, parities, circ, bracket, params):
    if family == 'anl':
        return Alg(name, parities, params, circ, 'double', bracket)
    if family == 'gd':
        return Alg(name, parities, params, circ, 'symmetrized', bracket)
    if family == 'star-zero':
        return Alg(name, parities, params, circ, 'zero', bracket)
    return Alg(name, parities, params, {}, circ, bracket)   # circ-zero


def make_instance(rng, name, family, dim, odd, params=(), values=None,
                  scale=None, mix=0):
    """A passing instance of `family`: a direct sum of blocks, conjugated by
    `mix` elementary operations (0 keeps the sparse sum), in a random
    basis order."""
    n = len(params)
    values = values or (lambda r: p_const(rand_small(r), n))
    parities, circ, bracket = direct_sum(
        family_blocks(rng, family, dim, odd, n, values))
    if scale is not None:
        circ = t_scale(circ, scale)
    alg = family_alg(name, family, parities, circ, bracket, params)
    return permuted(conjugate(alg, mix), rng)


def rand_point(rng, nparams):
    return tuple(rand_small(rng) for _ in range(nparams))


def rand_linear(rng, nparams, index, constant=True):
    """c1 p + c0 for parameter number `index` and random nonzero small c1,
    c0 (just c1 p without the constant): random values of a fixed shape."""
    out = p_mul(p_param(index % nparams, nparams),
                p_const(rand_small(rng), nparams))
    return p_add(out, p_const(rand_small(rng), nparams)) if constant else out
