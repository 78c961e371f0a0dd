"""Shared builders and random-instance generators for the test suite.

Fixed builders reconstruct the worked algebras (the two-generator product
family, its bracket family, the one-parameter Novikov algebra); the random
generators produce quadratic data instances that are known to satisfy the
structure equations (drawn from verified constructions) plus mutated copies
that violate them.
"""

import random
from fractions import Fraction
from importlib import resources

from confalg import (SuperSpace, GradedBilinearMap, LinearMap, Scalar,
                     LambdaBracket, VPoly,
                     QuadraticData, StarMode, star_from_mode, zero_map,
                     build_quadratic_bracket, build_current,
                     classify_brackets, build_assoc_novikov_from_averaging)
from confalg.dsl import parse


def corpus(name):
    return parse((resources.files("confalg") / "corpus" / name).read_text())


# ---------- the worked two-generator algebras ----------

def space_LW(params=()):
    return SuperSpace([("L", 0), ("W", 0)], params=params)


def example_circ(space=None):
    """W circ L = L, W circ W = W (associative Novikov, not Novikov)."""
    space = space or space_LW()
    circ = GradedBilinearMap(space, name="circ")
    circ.set_entry("W", "L", {"L": 1})
    circ.set_entry("W", "W", {"W": 1})
    return circ


def example_bracket(space, a, b):
    """[W, L] = a L, [W, W] = b L (left Leibniz for every a, b)."""
    br = GradedBilinearMap(space, name="bracket")
    br.set_entry("W", "L", {"L": a})
    br.set_entry("W", "W", {"L": b})
    return br


def rab_data(a=None, b=None):
    """(space, circ, bracket) of the two-parameter family; symbolic
    parameters when a or b is None, rational otherwise."""
    if a is None or b is None:
        space = space_LW(params=("a", "b"))
        av = Scalar.param("a", space.params)
        bv = Scalar.param("b", space.params)
    else:
        space = space_LW()
        av, bv = a, b
    return space, example_circ(space), example_bracket(space, av, bv)


def rab_bracket(a=None, b=None):
    """The quadratic conformal bracket of the family (star = 2 circ)."""
    space, circ, br = rab_data(a, b)
    return build_quadratic_bracket(circ,
                                   star_from_mode(circ, StarMode.DOUBLE), br)


def gd_circ(a=None):
    """L circ L = L, L circ W = (a-1) W, W circ L = W (Novikov for all a)."""
    if a is None:
        space = space_LW(params=("a",))
        av = Scalar.param("a", space.params)
    else:
        space = space_LW()
        av = Scalar.coerce(a)
    circ = GradedBilinearMap(space, name="circ")
    circ.set_entry("L", "L", {"L": 1})
    circ.set_entry("L", "W", {"W": av - 1})
    circ.set_entry("W", "L", {"W": 1})
    return circ


def gd_bracket(a=None):
    """The symmetrized-star quadratic bracket of gd_circ (zero bracket)."""
    circ = gd_circ(a)
    return build_quadratic_bracket(
        circ, star_from_mode(circ, StarMode.SYMMETRIZED),
        zero_map(circ.space))


# ---------- random pieces ----------

def rand_fraction(rng, nonzero=False):
    num = rng.randint(-3, 3)
    if nonzero:
        while num == 0:
            num = rng.randint(-3, 3)
    return Fraction(num, rng.choice([1, 1, 1, 2, 3]))


def rand_space(rng, dim, allow_odd=True, params=(), killed=False):
    """A space e0, e1, ... of random parities over params; with killed,
    each basis vector is killed with probability 1/3."""
    basis = []
    for i in range(dim):
        parity = rng.randint(0, 1) if allow_odd else 0
        basis.append(("e%d" % i, parity))
    return SuperSpace(basis, params=params, killed=[
        name for name, _ in basis if killed and rng.random() < 1 / 3])


def rand_coeff(rng, space):
    """A small rational plus a small rational multiple of each parameter
    of space (a bare small rational on a space without parameters)."""
    return rand_fraction(rng) + sum(
        rand_fraction(rng) * Scalar.param(p, space.params)
        for p in space.params)


def rand_gbm(rng, space, density=0.5, name=None):
    """A random graded bilinear map with small entries (rational, or
    linear in the parameters of space)."""
    gbm = GradedBilinearMap(space, name=name)
    for i in range(space.dim):
        for j in range(space.dim):
            want = (space.parity(i) + space.parity(j)) % 2
            vec = {}
            for k in range(space.dim):
                if space.parity(k) == want and rng.random() < density:
                    c = rand_coeff(rng, space)
                    if c:
                        vec[k] = c
            if vec:
                gbm.set_entry(i, j, vec)
    return gbm


def rand_linear_map(rng, space, density=0.5, name="avg"):
    """A random even linear map with entries as in rand_gbm."""
    out = LinearMap(space, name=name)
    for i in range(space.dim):
        out.set_entry(i, {k: rand_coeff(rng, space)
                          for k in range(space.dim)
                          if space.parity(k) == space.parity(i)
                          and rng.random() < density})
    return out


def mutate_gbm(rng, gbm):
    """A copy with one grading-admissible entry shifted by a nonzero
    rational (usually breaking whatever identities held).  None when the
    grading admits no entries at all (e.g. a single odd generator)."""
    space = gbm.space
    choices = [(i, j, k)
               for i in range(space.dim)
               for j in range(space.dim)
               for k in range(space.dim)
               if (space.parity(i) + space.parity(j)) % 2 == space.parity(k)]
    if not choices:
        return None
    out = GradedBilinearMap(space, name=gbm.name)
    for (i, j), vec in gbm.table.items():
        out.set_entry(i, j, dict(vec))
    i, j, k = rng.choice(choices)
    vec = out.entry(i, j)
    vec[k] = vec.get(k, Scalar.zero(space.params)) + rand_fraction(
        rng, nonzero=True)
    out.set_entry(i, j, vec)
    return out


def rand_lambda_bracket(rng, space, degree, entries):
    """A random lambda-bracket (no identity asked of it) with up to
    `entries` nonzero entries, each a sum of one to three terms
    c d^i l^j e_k with i + j <= degree and small rational c."""
    br = LambdaBracket(space)
    for _ in range(entries):
        i, j = rng.randrange(space.dim), rng.randrange(space.dim)
        want = (space.parity(i) + space.parity(j)) % 2
        ks = [k for k in range(space.dim) if space.parity(k) == want]
        if not ks:
            continue
        vp = br.entry(i, j)
        for _ in range(rng.randint(1, 3)):
            dd = rng.randint(0, degree)
            vp = vp + VPoly.monomial(space, rng.choice(ks), dd=dd,
                                     dl=rng.randint(0, degree - dd),
                                     coeff=rand_fraction(rng, nonzero=True))
        br.set_entry(i, j, vp)
    return br


# ---------- assoc-Novikov / Novikov circ pools ----------

def diag_circ(ps, parities=None):
    """u_i circ u_j = p_i delta_ij u_i: associative Novikov for any p_i."""
    dim = len(ps)
    parities = parities or [0] * dim
    space = SuperSpace([("u%d" % i, parities[i]) for i in range(dim)])
    circ = GradedBilinearMap(space, name="circ")
    for i, p in enumerate(ps):
        if p:
            circ.set_entry(i, i, {i: p})
    return circ


def truncated_poly_circ(k):
    """The averaging-derived product on Q[x]/(x^k):
    u_i circ u_j = u_{i+j+1} (zero past the truncation)."""
    space = SuperSpace([("u%d" % i, 0) for i in range(k)])
    prod = GradedBilinearMap(space, name="prod")
    for i in range(k):
        for j in range(k):
            if i + j < k:
                prod.set_entry(i, j, {i + j: 1})
    avg = LinearMap(space, name="P")
    for i in range(k - 1):
        avg.set_entry(i, {i + 1: 1})
    return build_assoc_novikov_from_averaging(prod, avg)


def rand_assoc_novikov_circ(rng):
    shape = rng.randrange(4)
    if shape == 0:
        dim = rng.randint(1, 3)
        return diag_circ([rand_fraction(rng) for _ in range(dim)])
    if shape == 1:
        return truncated_poly_circ(rng.randint(1, 3))
    if shape == 2:
        # scaled copy of the two-generator example
        space = space_LW()
        c = rand_fraction(rng, nonzero=True)
        circ = GradedBilinearMap(space, name="circ")
        circ.set_entry("W", "L", {"L": c})
        circ.set_entry("W", "W", {"W": c})
        return circ
    return example_circ()


def rand_anl_pair(rng):
    """(circ, bracket) satisfying the associative-Novikov-Leibniz axioms:
    a random circ from the pool plus a random member of its classified
    compatible-bracket family."""
    circ = rand_assoc_novikov_circ(rng)
    cls = classify_brackets(circ)
    if cls.constraints or cls.dimension == 0:
        return circ, zero_map(circ.space, "bracket")
    values = [rand_fraction(rng) for _ in range(cls.dimension)]
    return circ, cls.bracket_at(values)


def rand_novikov_circ_spanning(rng):
    """A Novikov circ whose products span the space (random unital diagonal
    or the one-parameter Novikov algebra at a random value)."""
    if rng.random() < 0.5:
        dim = rng.randint(1, 3)
        return diag_circ([1] * dim)
    return gd_circ(rand_fraction(rng))


# ---------- known-good quadratic instances + mutants ----------

def _with_trivial_odd_line(circ, star, bracket):
    """The same data on the space extended by one odd generator with zero
    products (keeps every identity, mixes parities)."""
    space = circ.space
    new_space = SuperSpace(list(zip(space.names, space.parities))
                           + [("g_odd", 1)], params=space.params)

    def lift(gbm, name):
        out = GradedBilinearMap(new_space, name=name)
        for (i, j), vec in gbm.table.items():
            out.set_entry(i, j, dict(vec))
        return out

    return (lift(circ, "circ"), lift(star, "star"), lift(bracket, "bracket"))


def square_zero_data(rng, odd_generator, which):
    """e . e = f with everything else zero; `which` puts the product on circ
    or star.  Passes the structure equations in either position."""
    parity = 1 if odd_generator else 0
    space = SuperSpace([("e", parity), ("f", 0)])
    prod = GradedBilinearMap(space, name=which)
    prod.set_entry("e", "e", {"f": rand_fraction(rng, nonzero=True)})
    if which == "circ":
        return QuadraticData(space, circ=prod)
    return QuadraticData(space, star=prod)


def right_leibniz_bracket_pool(rng):
    """Classical brackets known to satisfy the right Leibniz identity."""
    choice = rng.randrange(4)
    if choice == 0:
        space = SuperSpace([("e1", 0), ("e2", 0)])
        br = GradedBilinearMap(space, name="bracket")
        br.set_entry("e1", "e1", {"e2": rand_fraction(rng, nonzero=True)})
        return br
    if choice == 1:
        space = SuperSpace([("X", 0), ("F", 1)])
        br = GradedBilinearMap(space, name="bracket")
        c = rand_fraction(rng, nonzero=True)
        br.set_entry("X", "F", {"F": c})
        br.set_entry("F", "X", {"F": -c})
        return br
    if choice == 2:
        # the two-generator bracket family at a = 0 is right Leibniz
        space = space_LW()
        return example_bracket(space, 0, rand_fraction(rng))
    return zero_map(rand_space(rng, rng.randint(1, 3)), "bracket")


def passing_quadratic_instance(rng):
    """QuadraticData drawn from constructions verified to satisfy the full
    structure-equation system (equivalently: the built bracket is conformal
    Leibniz)."""
    shape = rng.randrange(6)
    if shape == 0:
        circ, bracket = rand_anl_pair(rng)
        data = QuadraticData(circ.space, circ=circ,
                             star=star_from_mode(circ, StarMode.DOUBLE),
                             bracket=bracket)
    elif shape == 1:
        circ = rand_novikov_circ_spanning(rng)
        data = QuadraticData(circ.space, circ=circ,
                             star=star_from_mode(circ, StarMode.SYMMETRIZED))
    elif shape == 2:
        data = square_zero_data(rng, rng.random() < 0.5, "circ")
    elif shape == 3:
        data = square_zero_data(rng, rng.random() < 0.5, "star")
    elif shape == 4:
        br = right_leibniz_bracket_pool(rng)
        data = QuadraticData(br.space, bracket=br)
    else:
        space = rand_space(rng, rng.randint(1, 3))
        data = QuadraticData(space)  # everything zero
    if rng.random() < 0.3:
        circ, star, bracket = _with_trivial_odd_line(data.circ, data.star,
                                                     data.bracket)
        data = QuadraticData(circ.space, circ=circ, star=star,
                             bracket=bracket)
    return data


def mutated_quadratic_instance(rng):
    """A passing instance with one random component entry perturbed."""
    while True:
        data = passing_quadratic_instance(rng)
        which = rng.randrange(3)
        circ, star, bracket = data.circ, data.star, data.bracket
        if which == 0:
            circ = mutate_gbm(rng, circ)
            if circ is None:
                continue
        elif which == 1:
            star = mutate_gbm(rng, star)
            if star is None:
                continue
        else:
            bracket = mutate_gbm(rng, bracket)
            if bracket is None:
                continue
        return QuadraticData(data.space, circ=circ, star=star,
                             bracket=bracket)


def violating_quadratic_instance(rng):
    """A mutated instance that is confirmed to break at least one structure
    equation (mutation can land back inside a compatible family, so retry
    until it does not)."""
    from confalg import check_structure_equations_t
    while True:
        data = mutated_quadratic_instance(rng)
        if not check_structure_equations_t(data.circ, data.star, data.bracket,
                                           fail_fast=True).passed:
            return data
