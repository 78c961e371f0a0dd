"""The cell listing of the evaluator reads op tables alone.

plan.cells lists the basis cells where some term of an equation can be
nonzero.  It joins the supports of the nodes up from the slots through the
tables of their ops, and must call no op: the values are computed by the
check, at the listed cells only.  The oracle is the listing that read the
support of a node with fewer slots than the cell off its values at every
index tuple, copied here.  On a space without killed vectors the two list
the same cells, because a node with fewer slots than the cell is one op
over two slots in every registered system, and its value there has terms
on exactly the basis indices of its table entry (the conformal ops attach
at l, m, l+m, -m-d, -l-d, which are invertible substitutions, so no term
cancels).  On a space with killed vectors an attached value can drop a
term its entry has, so the table listing holds the evaluated one.
"""

import contextlib
import itertools
import random
from operator import itemgetter

from hypothesis import given, settings, strategies as st

import gens
from confalg import (SuperSpace, build_quadratic_bracket,
                     check_conformal_jacobi, check_conformal_leibniz,
                     check_conformal_skew, quadratic, superspace)
from confalg.quadratic import SYSTEMS
from confalg.superspace import Combination


# ---------- the oracle: supports read off evaluated values ----------

def ref_slots(expr):
    if expr[0] == 'slot':
        return ('xyz'.index(expr[1]),)
    return tuple(sorted(set().union(*map(ref_slots, expr[2:]))))


def ref_indices(value):
    if isinstance(value, Combination):
        return {key[0] for key in value.terms}
    return value.keys()


def ref_listing(space, ops):
    """cells(exprs, arity) as listed from the values: a slot or a node with
    fewer slots than the cell has its support read off its value at every
    index tuple of its slots; a node with every slot is joined from the
    supports of its arguments through its op's table."""
    dim = space.dim

    def value(expr, cell):
        if expr[0] == 'slot':
            return {cell['xyz'.index(expr[1])]: 1}
        op = ops[expr[1]]
        return getattr(op, 'apply_vec', op)(*[value(arg, cell)
                                              for arg in expr[2:]])

    def table(name):
        entries, out = getattr(ops[name], 'table', None), {}
        for key, vec in (entries or {}).items():
            if type(key) is tuple:
                out.setdefault(key[0], {})[key[1]] = ref_indices(vec)
            else:
                out[key] = ref_indices(vec)
        return None if entries is None else out

    def known(expr, arity):
        slots = ref_slots(expr)
        if expr[0] != 'slot' and len(slots) == arity:
            return None
        cell, out = [0] * arity, {}
        for key in itertools.product(range(dim), repeat=len(slots)):
            for s, i in zip(slots, key):
                cell[s] = i
            vec = value(expr, cell)
            if vec:
                out[key] = ref_indices(vec)
        return slots, out

    def support(expr, arity):
        found = known(expr, arity)
        if found is not None:
            return found
        op = table(expr[1])
        args = [support(arg, arity) for arg in expr[2:]]
        if op is None or None in args or len(args) > 2:
            return None
        out = {}
        if len(args) == 1:
            (slots, values), = args
            for key, ks in values.items():
                hit = set().union(*[op[k] for k in ks if k in op])
                if hit:
                    out[key] = hit
            return slots, out
        (sa, va), (sb, vb) = args
        if set(sa) & set(sb):
            return None
        both = sa + sb
        slots = tuple(sorted(both))
        pick = itemgetter(*[both.index(s) for s in slots])
        for ka, ks in va.items():
            for p in ks:
                for q, hit in op.get(p, {}).items():
                    for kb, kq in vb.items():
                        if q in kq:
                            key = pick(ka + kb)
                            out[key] = out.get(key, set()) | set(hit)
        return slots, out

    def cells(exprs, arity):
        live = set()
        for expr in exprs:
            found = support(expr, arity)
            if found is None:
                return list(itertools.product(range(dim), repeat=arity))
            slots, values = found
            rest = sorted(set(range(arity)) - set(slots))
            pick = itemgetter(*[(slots + tuple(rest)).index(s)
                                for s in range(arity)])
            live.update(pick(key + more) for key in values
                        for more in itertools.product(range(dim),
                                                      repeat=len(rest)))
        return sorted(live)
    return cells


# ---------- counting ops ----------

def counted(op, calls):
    """op as a function that adds one to calls[0] per call, with its table,
    space and (where it has one) scaled."""
    run = getattr(op, 'apply_vec', op)

    def wrapper(*args):
        calls[0] += 1
        return run(*args)
    wrapper.space, wrapper.table = op.space, op.table
    if hasattr(op, 'scaled'):
        wrapper.scaled = lambda d: counted(op.scaled(d), calls)
    return wrapper


@contextlib.contextmanager
def counted_listings(killed):
    """Inside, every plan the checks make runs on counting ops, and each
    of its listings must call none of them and equal the oracle's (hold it,
    with killed vectors).  Yields (calls, the number of cells of each
    listing)."""
    real = superspace._memoised
    calls, sizes = [0], []

    def memoised(space, ops, scale=1):
        plan = real(space, {name: counted(op, calls)
                            for name, op in ops.items()}, scale)
        cells, oracle = plan.cells, ref_listing(space, ops)

        def listed(exprs, arity):
            before = calls[0]
            got = list(cells(exprs, arity))
            assert calls[0] == before, "the listing called an op"
            want = oracle(exprs, arity)
            if killed:
                assert set(want) <= set(got)
            else:
                assert got == want
            sizes.append(len(got))
            return got
        plan.cells = listed
        return plan
    modules = (superspace, quadratic)
    saved = [m._memoised for m in modules]
    for m in modules:
        m._memoised = memoised
    try:
        yield calls, sizes
    finally:
        for m, f in zip(modules, saved):
            m._memoised = f


def odd_space(rng, dim, params, killed):
    """A random space with at least one odd generator."""
    base = gens.rand_space(rng, dim, params=params, killed=killed)
    parities = list(base.parities)
    parities[rng.randrange(dim)] = 1
    return SuperSpace(list(zip(base.names, parities)), params=params,
                      killed=base.killed)


@given(st.integers(1, 3), st.integers(0, 10 ** 6),
       st.sampled_from([0.2, 0.5, 0.9]), st.booleans(), st.booleans())
@settings(deadline=None)
def test_listing_evaluates_nothing_and_matches_the_values(
        dim, seed, density, parametric, killed):
    """Every registered system and the three conformal equations.  Up to
    dimension 3, or 2 over the parameters a, b."""
    rng = random.Random(seed)
    space = odd_space(rng, min(dim, 2) if parametric else dim,
                      ("a", "b") if parametric else (), killed)
    comps = {name: gens.rand_gbm(rng, space, density, name=name)
             for name in ("circ", "star", "bracket")}
    if rng.random() < 0.5:
        conf = build_quadratic_bracket(*comps.values())
    else:
        conf = gens.rand_lambda_bracket(rng, space, 2, 2 * space.dim ** 2)
    with counted_listings(killed) as (calls, sizes):
        for name, (_, _, names) in SYSTEMS.items():
            quadratic._check_registered(name, [comps[n] for n in names],
                                        False)
        for check in (check_conformal_leibniz, check_conformal_jacobi,
                      check_conformal_skew):
            check(conf)
    assert sizes
    # the checks do call the ops, at the listed cells
    assert calls[0] > 0 or not any(sizes)
