"""The dense reference evaluator of the equation language, for tests.

It shares no code with the evaluator of `superspace`: every node of every
term is evaluated at every basis cell of the slots its equation uses, by
calling the node's op on the values of its arguments there, with one
dispatch per node and per cell.  Only the value of a node with fewer slots
than the cell is kept, per index tuple of its slots.  The tests that check
the engine's identity checks, the structured cocycle route and the
coefficient types against a dense loop take their oracle from here.
"""

import contextlib
import itertools
from operator import itemgetter

from confalg import quadratic, superspace
from confalg.superspace import Combination


def ref_term_sign(sign_pairs, parities):
    expo = 0
    for left, right in sign_pairs:
        pl = sum(parities[ch] for ch in left)
        pr = sum(parities[ch] for ch in right)
        expo += pl * pr
    return -1 if expo % 2 else 1


def ref_slots(expr):
    if expr[0] == 'slot':
        return ('xyz'.index(expr[1]),)
    return tuple(sorted(set().union(*map(ref_slots, expr[2:]))))


def ref_arity(terms):
    """The number of slots of the cells an equation's terms run on."""
    return 1 + max(max(ref_slots(term[2])) for term in terms)


def ref_memoised(space, ops):
    """value(expr, cell), looking the expression up in the memo, then
    dispatching on its node type, at every node of every cell."""
    memo = {}

    def value(expr, cell):
        entry = memo.get(expr)
        if entry is None:
            slots = ref_slots(expr)
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


def ref_terms_at(terms, space, cell, value):
    """(signed coefficient, [the rest of the term, each expression
    evaluated at cell]) for each term (coefficient, sign pairs, *rest)."""
    parities = {slot: space.parities[i] for slot, i in zip('xyz', cell)}
    for coeff, pairs, *rest in terms:
        yield (coeff * ref_term_sign(pairs, parities),
               [value(x, cell) if isinstance(x, tuple) else x for x in rest])


def ref_residual(terms, space, cell, value):
    """The residual of an equation's terms at cell, of the type of the last
    term's value there."""
    out = vec = {}
    for s, (vec,) in ref_terms_at(terms, space, cell, value):
        for k, c in vec.items():
            c = c if s == 1 else c * s
            total = out[k] + c if k in out else c
            if total:
                out[k] = total
            else:
                out.pop(k, None)
    return vec._trusted(out) if isinstance(vec, Combination) else out


def dense_equations(equations, ops):
    """(cells, check) as superspace._equations gives them, on the ops as
    given, from the dense loop: one iterable per equation over every basis
    cell of its slots, in product order, and check renders the residual
    at a cell where it is nonzero."""
    space = next(iter(ops.values())).space
    value = ref_memoised(space, ops)

    def cells(name, terms):
        return ((name, terms, cell) for cell in itertools.product(
            range(space.dim), repeat=ref_arity(terms)))

    def check(cell):
        name, terms, at = cell
        res = ref_residual(terms, space, at, value)
        if res:
            yield name, [space.names[i] for i in at], (
                str(res) if isinstance(res, Combination)
                else space.vec_str(res))
    return [cells(*equation) for equation in equations], check


@contextlib.contextmanager
def dense_cells():
    """Every check built on superspace._equations (check_system and
    check_averaging) runs the dense loop inside."""
    saved = superspace._equations, quadratic._equations
    superspace._equations = quadratic._equations = dense_equations
    try:
        yield
    finally:
        superspace._equations, quadratic._equations = saved
