"""Tests of the benchmark itself (run with `python3 -m pytest bench`).

They use a cheap slice of each workload, so they take seconds, not the
length of a benchmark run.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run         # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

# cheap jobs of each workload, by label
CHEAP = {'axioms_rational': lambda label: label.startswith(('r0-', 'r3-')),
         'axioms_symbolic': lambda label: label.startswith(('s0-', 's4-')),
         'modes_cli': lambda label: not label.endswith(':coeff'),
         'cocycles_large': lambda label: label.startswith(
             ('anov:', 'trunc:', 'classify'))}


def cheap_jobs(workload, seed, tmp_path):
    package, mods = run.load_engine()
    jobs = workloads.build(workload, seed, mods, str(tmp_path))
    return package, mods, [j for j in jobs if CHEAP[workload](j.label)]


def describe(value):
    """A text form of a job argument that does not depend on object ids."""
    if hasattr(value, 'entries_str'):
        return tuple(value.entries_str())
    if isinstance(value, (list, tuple)):
        return tuple(describe(v) for v in value)
    return repr(value)


def job_list(workload, seed, tmp_path):
    _, mods = run.load_engine()
    return [(j.label, j.module, j.func, describe(j.args), j.expect, j.same_as)
            for j in workloads.build(workload, seed, mods, str(tmp_path))]


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_same_seed_gives_same_job_list(workload, tmp_path):
    first = job_list(workload, 7, tmp_path)
    assert first == job_list(workload, 7, tmp_path)
    assert first != job_list(workload, 8, tmp_path)


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_traced_and_untraced_verdicts_agree(workload, tmp_path):
    package, mods, jobs = cheap_jobs(workload, 3, tmp_path)
    assert jobs
    untraced, _ = run.untraced_pass(jobs, mods)
    traced, tr, wall = run.traced_pass(jobs, mods, package)
    assert None not in untraced
    assert ([workloads.fingerprint(r) for r in untraced]
            == [workloads.fingerprint(r) for r in traced])
    first = {j.label: r for j, r in zip(jobs, untraced)}
    assert not run.judge(jobs, first, mods)
    # self times partition the time spent inside traced calls
    assert 0 < tr.total_self_s() <= wall
    # counts repeat exactly in a second traced pass
    _, again, _ = run.traced_pass(jobs, mods, package)
    counts = {k: v for k, (v, unit) in tr.layer_metrics().items()
              if unit == 'count'}
    assert counts == {k: v for k, (v, unit) in again.layer_metrics().items()
                      if unit == 'count'}


def attributes(package, mods):
    """Every attribute a tracer may patch, by identity."""
    owners = [package] + [getattr(mods, name) for name in tracer.LAYERS]
    owners += [getattr(getattr(mods, layer), cls)
               for layer, cls in tracer.METHODS]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_every_patch_is_restored(tmp_path):
    package, mods, jobs = cheap_jobs('modes_cli', 3, tmp_path)
    before = attributes(package, mods)
    _, tr, _ = run.traced_pass(jobs, mods, package)
    assert tr.names and not tr.patches
    after = attributes(package, mods)
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not any(isinstance(v, types.FunctionType) and
                   hasattr(v, '__wrapped__') for v in after.values())


def test_tracer_wraps_names_bound_by_import(tmp_path):
    package, mods, jobs = cheap_jobs('axioms_rational', 3, tmp_path)
    tr = tracer.Tracer()
    tr.patch(package, vars(mods))
    try:
        assert hasattr(mods.cli.check_conformal_leibniz, '__wrapped__')
        assert hasattr(mods.quadratic.check_left_leibniz_superalgebra,
                       '__wrapped__')
        assert (mods.cli.check_conformal_leibniz
                is not mods.conformal.check_conformal_leibniz)
        assert hasattr(mods.scalars.Scalar.__mul__, '__wrapped__')
    finally:
        tr.restore()
