"""The four workloads: seeded job lists with a per-job oracle.

A job is one call into confalg's public API that returns a verdict.  Each
job names the function it calls by module and attribute, looked up at call
time, so the outside-in tracer sees the call.  Inputs are generated by
`gen` and reach the engine as `.alg` text, parsed during set-up.

Oracles run after the timed loop, on the first result of each job:

* `expect`: a constructed input must pass and a mutated one must fail
  (the verdict is known from the construction, see gen.py);
* `same_as`: the verdict must equal another job's (T-system against the
  built bracket's conformal Leibniz check, structured against direct
  cocycle routes);
* `check`: a further test, such as re-running a symbolic pass at a seeded
  rational point.
"""

import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import gen

WORKLOADS = ('axioms_rational', 'axioms_symbolic', 'modes_cli',
             'cocycles_large')


class Job:
    def __init__(self, label, module, func, args=(), expect=None,
                 same_as=None, check=None):
        self.label = label
        self.module = module
        self.func = func
        self.args = args
        self.expect = expect
        self.same_as = same_as
        self.check = check

    def run(self, mods):
        return getattr(getattr(mods, self.module), self.func)(*self.args)


class CliResult:
    def __init__(self, code, payload):
        self.code = code
        self.payload = payload
        self.passed = payload.get('passed') if payload else None


def run_cli(cli, argv):
    """confalg.cli.main in-process with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    return CliResult(code, payload)


# ---------- verdicts ----------

def kind(result):
    return type(result).__name__


def fingerprint(result):
    """A comparable summary of everything a verdict says."""
    k = kind(result)
    if k == 'AxiomReport':
        return (k, result.passed, result.checked,
                tuple((f['identity'], f['at'], f['residual'])
                      for f in result.failures))
    if k == 'SolutionSpace':
        return (k, result.route, result.degrees, tuple(result.unknowns),
                tuple(result.basis), tuple(result.warnings))
    if k == 'ClassificationResult':
        return (k, tuple(result.basis), tuple(result.family.entries_str()),
                tuple(result.constraints), fingerprint(result.preconditions))
    if k == 'DegreeBoundResult':
        return (k, result.agrees, tuple(sorted(result.vanishing.items())),
                fingerprint(result.solution_high),
                fingerprint(result.solution_low))
    if k == 'CliResult':
        return (k, result.code, json.dumps(result.payload, sort_keys=True))
    raise TypeError("no fingerprint for %s" % k)


def instances(result):
    """Identity instances checked (AxiomReport.checked) behind a verdict."""
    k = kind(result)
    if k == 'AxiomReport':
        return result.checked
    if k in ('SolutionSpace', 'ClassificationResult'):
        pre = result.preconditions
        return pre.checked if pre is not None else 0
    if k == 'CliResult' and result.payload:
        return sum(r['checked'] for r in result.payload.get('reports', []))
    return 0


def passed(result):
    if kind(result) == 'DegreeBoundResult':
        return result.agrees and all(result.vanishing.values())
    return bool(result.passed)


def same_verdict(a, b):
    if kind(a) == 'SolutionSpace':
        degrees = sorted(set(a.degrees) | set(b.degrees))
        return (a.embed(degrees).reduced_basis()
                == b.embed(degrees).reduced_basis())
    return passed(a) == passed(b)


def oracle(job, result, first, mods):
    """True when the job's first result satisfies every oracle it has."""
    if job.expect is not None and passed(result) != job.expect:
        return False
    if job.same_as is not None and not same_verdict(result,
                                                    first[job.same_as]):
        return False
    return job.check is None or job.check(result, first, mods)


# ---------- shared pieces ----------

PARAMS = ('a', 'b', 'c')


def at_point(alg, point):
    """The benchmark-side algebra with parameters replaced by rationals."""
    def ev(table):
        return {ij: {k: gen.p_const(v, 0) for k, v in vec.items()}
                for ij, vec in gen.t_eval(table, point).items()}
    star = alg.star if isinstance(alg.star, str) else ev(alg.star)
    return gen.Alg(alg.name, alg.parities, (), ev(alg.circ), star,
                   ev(alg.bracket))


def parsed(mods, alg):
    """(AlgebraFile, conformal bracket) for a generated algebra."""
    af = mods.dsl.parse(alg.text())
    return af, af.conformal_bracket()


CASE_CHECKER = {'anl': 'check_anl', 'gd': 'check_symmetrized_case',
                'star-zero': 'check_star_trivial_case',
                'circ-zero': 'check_circ_trivial_case'}


def axiom_jobs(mods, tag, alg, family, expect, point=None):
    """The identity checks of one instance.

    Conformal skew-symmetry and Jacobi are checked only on the
    Gelfand-Dorfman family, whose constructed members are Lie conformal
    algebras; on the others their verdict is not fixed by construction.
    With a rational `point`, a symbolic pass must also pass there.
    """
    af, conf = parsed(mods, alg)
    circ, star, br = af.circ(), af.star(), af.classical_bracket()
    leib = tag + ':leibniz'
    jobs = [Job(leib, 'conformal', 'check_conformal_leibniz', (conf,),
                expect=expect),
            Job(tag + ':t-system', 'quadratic', 'check_structure_equations_t',
                (circ, star, br), expect=expect, same_as=leib),
            Job(tag + ':case', 'quadratic', CASE_CHECKER[family],
                (star if family == 'circ-zero' else circ, br), expect=expect)]
    if family == 'gd':
        jobs.append(Job(tag + ':skew', 'conformal', 'check_conformal_skew',
                        (conf,), expect=expect))
        jobs.append(Job(tag + ':jacobi', 'conformal', 'check_conformal_jacobi',
                        (conf,), expect=expect))
    if point is not None:
        shadows = axiom_jobs(mods, tag, at_point(alg, point), family, expect)
        for job, shadow in zip(jobs, shadows):
            job.check = (lambda result, first, mods, shadow=shadow:
                         shadow.run(mods).passed)
    return jobs


# ---------- axioms_rational ----------

# (family, dimension, odd generators, basis mixing; 0 keeps the sparse sum)
RATIONAL_SPECS = [
    ('anl', 3, 1, 0), ('anl', 4, 1, 3), ('anl', 6, 2, 0),
    ('gd', 3, 1, 0), ('gd', 4, 1, 3), ('gd', 6, 1, 0),
    ('star-zero', 3, 1, 0), ('star-zero', 5, 2, 4),
    ('circ-zero', 4, 1, 3), ('circ-zero', 6, 2, 0),
]


def rational_coeff(rng):
    return gen.p_const(gen.rand_small(rng), 0)


def axioms_rational(mods, rng, tmpdir):
    jobs = []
    for n, (family, dim, odd, mix) in enumerate(RATIONAL_SPECS):
        alg = gen.make_instance(rng, 'r%d' % n, family, dim, odd,
                                mix=mix)
        bad = gen.mutate(alg, rng, (), rational_coeff)
        jobs += axiom_jobs(mods, 'r%d-pass' % n, alg, family, True)
        jobs += axiom_jobs(mods, 'r%d-mut' % n, bad, family, False)
    return jobs


# ---------- axioms_symbolic ----------

# (family, parameters, dimension, odd generators, basis mixing)
SYMBOLIC_SPECS = [
    ('anl', 2, 3, 1, 0), ('anl', 1, 4, 0, 3), ('anl', 3, 4, 1, 0),
    ('anl', 2, 5, 1, 2),
    ('gd', 1, 3, 1, 0), ('gd', 2, 4, 1, 3), ('gd', 3, 4, 0, 0),
    ('gd', 1, 5, 1, 4),
]


def classify_job(label, circ, rng):
    """classify_brackets; every member of the family it finds, at seeded
    rational values, must satisfy the associative-Novikov-Leibniz axioms
    together with circ."""
    values = [gen.rand_small(rng) for _ in range(64)]

    def check(result, first, mods):
        if not result.preconditions.passed:
            return False
        if result.constraints or not result.dimension:
            return True
        return mods.quadratic.check_anl(
            circ, result.bracket_at(values[:result.dimension])).passed
    return Job(label, 'quadratic', 'classify_brackets', (circ,), check=check)


def axioms_symbolic(mods, rng, tmpdir):
    jobs = []
    for n, (family, nparams, dim, odd, mix) in enumerate(SYMBOLIC_SPECS):
        params = PARAMS[:nparams]

        # block values run through the parameters in turn
        index = itertools.count()

        def values(r, nparams=nparams, index=index):
            return gen.rand_linear(r, nparams, next(index))

        scale = gen.rand_linear(rng, nparams, 2) if nparams == 3 else None
        alg = gen.make_instance(rng, 's%d' % n, family, dim, odd, params,
                                values, scale, mix)
        point = gen.rand_point(rng, nparams)
        bad = gen.mutate(alg, rng, point,
                         lambda r, k=nparams: gen.rand_linear(r, k, 0, False))
        jobs += axiom_jobs(mods, 's%d-pass' % n, alg, family, True, point)
        jobs += axiom_jobs(mods, 's%d-mut' % n, bad, family, False)
        if family == 'anl':
            circ = parsed(mods, at_point(alg, point))[0].circ()
            jobs.append(classify_job('s%d-classify' % n, circ, rng))
    return jobs


# ---------- modes_cli ----------

def modes_cli(mods, rng, tmpdir):
    """In-process CLI commands on bundled and generated algebra files."""

    def write(alg):
        path = os.path.join(tmpdir, alg.name + '.alg')
        with open(path, 'w') as fh:
            fh.write(alg.text())
        return path

    def q():
        return str(gen.rand_small(rng))

    def mutant(alg, name):
        bad = gen.mutate(alg, rng, (), rational_coeff)
        bad.name = name
        return write(bad)

    anl2 = [write(gen.make_instance(rng, 'm_anl2_%d' % n, 'anl', 2, 0))
            for n in range(2)]
    gd2 = write(gen.make_instance(rng, 'm_gd2', 'gd', 2, 0))
    anl4 = gen.make_instance(rng, 'm_anl4', 'anl', 4, 0, mix=3)
    gd3 = gen.make_instance(rng, 'm_gd3', 'gd', 3, 0, mix=3)
    bad_anl, bad_gd = mutant(anl4, 'm_bad_anl'), mutant(gd3, 'm_bad_gd')
    anl4, gd3 = write(anl4), write(gd3)
    ab = ['a=%s,b=%s' % (q(), q()) for _ in range(4)]
    a = 'a=%s' % q()
    # (argv, expected exit code); the machine JSON must agree on passed.
    # Half the jobs build and verify a mode algebra, the rest are much
    # cheaper commands; the cheapest mode jobs, at the median, use fixed
    # inputs, so the median job does not change with the seed.
    grid = ['--grid', '-2..2', '--verify']
    commands = [(['coeff', 'rab', '--at', at] + grid, 0) for at in ab[:2]]
    commands += [
        (['coeff', 'rab', '--at', ab[2], '--grid', '-3..3', '--verify'], 0),
        (['coeff', 'rab', '--at', ab[3], '--grid', '-2..2', '--phi',
          'from-central-ext', '--case', 'anl'], 0),
        (['coeff', 'virasoro', '--grid', '-4..4', '--verify'], 0),
        (['coeff', 'r00'] + grid, 0),
    ]
    commands += [(['coeff', path] + grid, 0) for path in anl2 + [gd2]]
    commands += [
        (['coeff', 'gd_final', '--at', a, '--grid', '-3..3', '--verify'], 0),
        (['coeff', 'gd_final', '--at', 'a=2'] + grid, 0),
    ]
    commands += [
        (['central-ext', 'r00', '--case', 'assoc-novikov'], 0),
        (['central-ext', 'rab', '--case', 'anl', '--at', ab[0]], 0),
        (['central-ext', 'gd_final', '--case', 'gd', '--at', a], 0),
        (['central-ext', anl4, '--case', 'anl'], 0),
        (['central-ext', anl2[0], '--case', 'anl', '--degree', '5'], 0),
        (['verify-conformal', '--kind', 'lie', gd3], 0),
        (['verify-conformal', bad_anl], 1),
        (['verify-conformal', '--kind', 'lie', bad_gd], 1),
        (['check-structure', bad_anl, '--which', 'anl'], 1),
        (['examples'], 0),
    ]
    return [CliJob('cli%d:%s' % (n, argv[0]), argv + ['--format', 'machine'],
                   code) for n, (argv, code) in enumerate(commands)]


class CliJob(Job):
    """One `confalg.cli.main` call; its exit code and the `passed` field of
    its JSON must match the expected code, and `examples` must report every
    row ok."""

    def __init__(self, label, argv, code):
        super().__init__(label, 'cli', 'main', (argv,), check=self.verdict_ok)
        self.code = code

    def run(self, mods):
        return run_cli(mods.cli, self.args[0])

    def verdict_ok(self, result, first, mods):
        if result.code != self.code or result.passed != (self.code == 0):
            return False
        if self.args[0][0] == 'examples':
            return all(row['ok'] for row in result.payload['results'])
        return True


# ---------- cocycles_large ----------

def cocycles_large(mods, rng, tmpdir):
    """Cocycle solves on associative-Novikov, Novikov, diagonal and
    truncated-polynomial products of dimension 6 to 12."""
    jobs = []

    def instance(tag, family, dim, mix, bracket=True):
        alg = gen.make_instance(rng, tag, family, dim, 0, mix=mix)
        if not bracket:
            alg.bracket = {}
        return alg

    def direct(tag, conf, degrees=(0, 1, 2, 3), same_dimension_as=None):
        jobs.append(Job(tag, 'extensions', 'solve_cocycles_direct',
                        (conf, degrees),
                        check=nullity_check(conf, degrees, same_dimension_as)))

    def pair(tag, alg, structured, degrees=(0, 1, 2, 3), check=None):
        """Direct and structured routes; equal reduced bases unless a
        different check is given."""
        af, conf = parsed(mods, alg)
        direct(tag + ':direct', conf, degrees)
        name, args = structured
        jobs.append(Job(tag + ':' + name, 'extensions', name, args(af),
                        same_as=None if check else tag + ':direct',
                        check=check))

    anl = ('solve_central_ext_anl',
           lambda af: (af.circ(), af.classical_bracket()))
    anov = ('solve_central_ext_assoc_novikov', lambda af: (af.circ(),))
    gd = ('solve_leibniz_central_ext_gd',
          lambda af: (af.circ(), af.classical_bracket()))

    pair('anl', instance('c_anl', 'anl', 6, 2), anl)
    pair('anov', instance('c_anov', 'anl', 8, 3, bracket=False), anov)
    pair('gd', instance('c_gd', 'gd', 6, 3), gd)
    # diagonal products u_i . u_i = p_i u_i with every p_i nonzero
    par, circ, _ = gen.block_diag(
        0, [gen.p_const(gen.rand_small(rng), 0) for _ in range(10)])
    pair('diag', gen.Alg('c_diag', par, (), circ, 'double'), anov,
         degrees=(0, 1, 2, 3, 4))
    # truncated polynomial products do not span the space: the structured
    # route warns and its space is only contained in the direct one
    par, circ, _ = gen.block_truncated(0, 6)
    trunc = gen.permuted(gen.conjugate(
        gen.Alg('c_trunc', par, (), circ, 'double'), 3), rng)
    pair('trunc', trunc, anov, check=contained_in('trunc:direct'))

    # an isomorphic copy in a dense basis has a cocycle space of the same
    # dimension
    par, circ, _ = gen.block_truncated(0, 10)
    for tag, alg in (('iso12', instance('c_iso12', 'anl', 12, 0)),
                     ('iso-trunc10', gen.Alg('c_trunc10', par, (), circ,
                                             'double'))):
        direct(tag + ':sparse', parsed(mods, alg)[1])
        dense = gen.permuted(gen.conjugate(alg, 4), rng)
        direct(tag + ':dense', parsed(mods, dense)[1],
               same_dimension_as=tag + ':sparse')

    for n, (dim, mix) in enumerate([(6, 2), (7, 0)]):
        conf = parsed(mods, instance('c_bound%d' % n, 'anl', dim, mix))[1]
        high = nullity_check(conf, range(6))
        jobs.append(Job('bound%d' % n, 'extensions', 'degree_bound_experiment',
                        (conf, 5, 3), expect=True,
                        check=lambda result, first, mods, high=high:
                        high(result.solution_high, first, mods)))

    af = parsed(mods, instance('c_cls', 'anl', 6, 0, bracket=False))[0]
    jobs.append(classify_job('classify', af.circ(), rng))
    return jobs


def contained_in(direct_label):
    """The structured space warns and lies inside the direct space."""
    def check(result, first, mods):
        direct = first[direct_label]
        degrees = sorted(set(result.degrees) | set(direct.degrees))
        small, big = result.embed(degrees), direct.embed(degrees)
        return bool(result.warnings) and all(
            mods.linalg.in_span(v, big.basis, len(big.unknowns))
            for v in small.basis)
    return check


PRIME = 2 ** 61 - 1


def rank_mod_p(rows):
    """Rank over GF(PRIME) of sparse rows {column: Fraction}, by the
    benchmark's own elimination.  It shares no code with confalg.linalg,
    and equals the rank r over Q unless PRIME divides every r-by-r minor."""
    pivots = {}
    for row in rows:
        r = {}
        for col, v in row.items():
            x = v.numerator * pow(v.denominator, -1, PRIME) % PRIME
            if x:
                r[col] = x
        while r:
            col = min(r)
            if col not in pivots:
                inv = pow(r[col], -1, PRIME)
                pivots[col] = {c: v * inv % PRIME for c, v in r.items()}
                break
            f = r[col]
            for c, v in pivots[col].items():
                x = (r.get(c, 0) - f * v) % PRIME
                if x:
                    r[c] = x
                else:
                    r.pop(c, None)
    return len(pivots)


def nullity_check(conf, degrees, same_dimension_as=None):
    """The direct cocycle space has dimension unknowns - rank of the
    assembled rows, the rank taken by rank_mod_p; optionally it also has
    the dimension of another job's space (an isomorphic algebra)."""
    def check(result, first, mods):
        _, rows = mods.extensions.assemble_cocycle_rows(conf, list(degrees))
        if result.dimension != len(result.unknowns) - rank_mod_p(rows):
            return False
        return (same_dimension_as is None
                or result.dimension == first[same_dimension_as].dimension)
    return check


JOB_LISTS = {'axioms_rational': axioms_rational,
            'axioms_symbolic': axioms_symbolic,
            'modes_cli': modes_cli,
            'cocycles_large': cocycles_large}


def build(workload, seed, mods, tmpdir):
    """The job list of a workload; the same seed gives the same list."""
    rng = random.Random('%s:%d' % (workload, seed))
    return JOB_LISTS[workload](mods, rng, tmpdir)
