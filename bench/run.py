"""confalg benchmark: time-to-verdict on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one client in a closed loop: each job (one call
into confalg's public API that returns a verdict) starts when the previous
one has finished.  Set-up (import, input generation, DSL parsing, bracket
construction) is repeated SETUP_REPEATS times and its median reported, so
work moved into set-up shows.  The loop then runs whole passes over the job
list until at least --seconds have passed and the workload's minimum job
count is reached; ending on a whole pass keeps the job mix of every run the
same.  Every verdict is checked against the job's oracle (workloads.py).
Job and set-up times are wall seconds scaled to a nominal machine speed by
a reference loop timed before each of them (Clock), because the shared host
changes speed by up to 2x every few tens of seconds.

--trace 0 reports the end-to-end metrics; --trace 1 runs the job list once
untraced and once under the outside-in tracer (tracer.py) and reports the
per-layer metrics.  Both print one line per metric, then one JSON object as
the last line, and exit 1 if any job raised or failed its oracle.

The engine is imported from ../src of this file, never from an installed
copy; without it the benchmark exits 2 before running anything.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
import types
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
sys.path.insert(0, str(HERE))

import tracer      # noqa: E402
import workloads   # noqa: E402

SETUP_REPEATS = 5

# (tail percentile, minimum jobs per run): the percentile leaves at least
# ten samples beyond it in a run of the minimum length
TAIL = {'axioms_rational': (90, 100), 'axioms_symbolic': (90, 100),
        'modes_cli': (70, 38), 'cocycles_large': (70, 34)}

END_TO_END_UNITS = {'setup_s': 's', 'jobs_per_s': '1/s', 'job_p50_s': 's',
                    'job_tail_s': 's', 'instances_per_s': '1/s',
                    'peak_rss_mb': 'MB'}


# Nominal duration of reference(); times are reported at the machine speed
# at which reference() takes this long (see Clock).
REFERENCE_S = 0.004


def reference():
    """Seconds taken by a fixed piece of stdlib work, Fraction arithmetic
    into a dict like the engine's own, sharing no code with confalg."""
    start = perf_counter()
    acc = {}
    for i in range(1, 400):
        q = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, 3)
        acc[i % 17] = acc.get(i % 17, 0) + q
    return perf_counter() - start


class Clock:
    """Turns wall seconds into seconds at nominal machine speed.

    The shared host runs at a few discrete speeds that change every few
    tens of seconds (up to 2x apart), which no run length averages out.
    So reference() is timed before every job, outside the job's interval,
    and each job's wall time is scaled by REFERENCE_S over the median of
    the last five reference times; a change in confalg cannot move the
    reference, only the job.
    """

    def __init__(self):
        self.recent = deque(maxlen=5)
        self.wall = 0.0
        self.scaled = 0.0

    def time(self, fn, *args):
        """(fn(*args), scaled seconds it took)."""
        self.recent.append(reference())
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        scaled = wall * REFERENCE_S / statistics.median(self.recent)
        self.wall += wall
        self.scaled += scaled
        return result, scaled


def load_engine():
    """Import confalg afresh from SRC: (package, namespace of its modules)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == 'confalg' or n.startswith('confalg.')]:
        del sys.modules[name]
    package = importlib.import_module('confalg')
    if Path(package.__file__).resolve().parent != SRC / 'confalg':
        raise ImportError('confalg was not imported from %s' % SRC)
    return package, types.SimpleNamespace(**{
        name: importlib.import_module('confalg.' + name)
        for name in tracer.LAYERS})


def run_job(job, mods):
    """The job's result, or None if it raised."""
    try:
        return job.run(mods)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def judge(jobs, first, mods):
    """Labels of jobs whose first result fails its oracle (or never came)."""
    bad = set()
    for job in jobs:
        try:
            ok = (first.get(job.label) is not None
                  and workloads.oracle(job, first[job.label], first, mods))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            bad.add(job.label)
    return bad


def timed_run(workload, jobs, mods, seconds):
    """Whole passes over the jobs until `seconds` and the minimum job count
    are reached.  Throughputs are medians over passes, so a pass slowed by
    something else on the machine moves them less."""
    pct, min_jobs = TAIL[workload]
    latencies, rates, failed = [], [], 0
    runs = dict.fromkeys((job.label for job in jobs), 0)
    first, prints = {}, {}
    clock = Clock()
    start = perf_counter()
    while perf_counter() - start < seconds or len(latencies) < min_jobs:
        busy = instances = 0
        for job in jobs:
            result, dt = clock.time(run_job, job, mods)
            latencies.append(dt)
            busy += dt
            runs[job.label] += 1
            if result is None:
                failed += 1
                continue
            instances += workloads.instances(result)
            fp = workloads.fingerprint(result)
            if job.label not in prints:
                prints[job.label], first[job.label] = fp, result
            elif prints[job.label] != fp:
                failed += 1     # a verdict that changes between passes
        rates.append((len(jobs) / busy, instances / busy))
    bad = judge(jobs, first, mods)
    failed += sum(runs[label] for label in bad)
    ordered = sorted(latencies)
    tail_rank = math.ceil(pct / 100 * len(ordered))
    metrics = {
        'jobs_per_s': statistics.median(r[0] for r in rates),
        'job_p50_s': statistics.median(latencies),
        'job_tail_s': ordered[tail_rank - 1],
        'instances_per_s': statistics.median(r[1] for r in rates),
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = ['jobs %d in %d passes of %d, busy %.3f s scaled, %.3f s wall'
             % (len(latencies), len(rates), len(jobs), clock.scaled,
                clock.wall),
             'job_tail_s is p%d, %d samples beyond it' % (
                 pct, len(ordered) - tail_rank),
             'failed_frac %.6f ratio (%d of %d)' % (
                 failed / len(latencies), failed, len(latencies))]
    return len(latencies), failed, metrics, notes + sorted(bad)


def untraced_pass(jobs, mods):
    """(results, wall seconds) of one pass over the jobs."""
    start = perf_counter()
    results = [run_job(job, mods) for job in jobs]
    return results, perf_counter() - start


def traced_pass(jobs, mods, package):
    """(results, tracer, wall seconds) of one pass under the tracer; every
    patch is undone before returning."""
    tr = tracer.Tracer()
    tr.patch(package, vars(mods))
    try:
        results = []
        start = perf_counter()
        for n, job in enumerate(jobs):
            tr.job = n
            results.append(run_job(job, mods))
        wall = perf_counter() - start
    finally:
        tr.restore()
    return results, tr, wall


def traced_run(workload, seed, jobs, mods, package):
    untraced, wall_untraced = untraced_pass(jobs, mods)
    traced, tr, wall_traced = traced_pass(jobs, mods, package)
    failed = 0
    for u, t in zip(untraced, traced):
        if u is None or t is None or (workloads.fingerprint(u)
                                      != workloads.fingerprint(t)):
            failed += 1
    first = {job.label: r for job, r in zip(jobs, untraced)}
    bad = judge(jobs, first, mods)
    failed += 2 * len(bad)
    path = ROOT / '.bench_out' / ('trace-%s-%d.tsv.gz' % (workload, seed))
    tr.write(str(path))
    layers = tr.layer_metrics()
    layers['trace.overhead_frac'] = (wall_traced / wall_untraced - 1, 'ratio')
    metrics = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    notes = ['traced wall %.3f s, untraced %.3f s, self times sum %.3f s'
             % (wall_traced, wall_untraced, tr.total_self_s()),
             'spans kept %d, written to %s' % (len(tr.span_id), path)]
    return 2 * len(jobs), failed, metrics, units, notes + sorted(bad)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True, choices=workloads.WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / 'confalg' / '__init__.py').is_file():
        print('error: no confalg sources at %s' % SRC, file=sys.stderr)
        return 2

    tmpdir = ROOT / '.bench_tmp' / ('%s-%d' % (args.workload, os.getpid()))
    try:
        setup_times = []
        clock = Clock()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(tmpdir, ignore_errors=True)
            tmpdir.mkdir(parents=True)
            (package, mods), dt = clock.time(load_engine)
            jobs, dt2 = clock.time(workloads.build, args.workload, args.seed,
                                   mods, str(tmpdir))
            setup_times.append(dt + dt2)
        gc.collect()    # free the earlier set-ups before anything is timed
        if args.trace:
            attempted, failed, metrics, units, notes = traced_run(
                args.workload, args.seed, jobs, mods, package)
        else:
            attempted, failed, metrics, notes = timed_run(
                args.workload, jobs, mods, args.seconds)
            metrics['setup_s'] = statistics.median(setup_times)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass

    for name in sorted(metrics):
        print('%-32s %16.6f %s' % (name, metrics[name], units[name]))
    for note in notes:
        print('# ' + note)
    print(json.dumps({
        'correct': failed == 0,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': metrics[name], 'unit': units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if failed == 0 else 1


if __name__ == '__main__':
    sys.exit(main())
