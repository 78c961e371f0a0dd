"""Outside-in tracer: wraps confalg's public functions from the benchmark.

Nothing in `src/` changes.  `Tracer.patch` replaces

* every public function in every confalg module namespace that binds it,
  including names bound by `from .x import y` (so `cli.check_conformal_leibniz`
  and `conformal.check_conformal_leibniz` are wrapped separately), and
* selected methods on the classes that do the ring and mode arithmetic,

and `restore` puts every original back.  A call to a module function
records a span (name, start, end, parent span, job id), kept in memory and
written out when the run ends; method calls are too many to keep one span
each, so they are aggregated per name.  Both kinds take part in self time:
a span's self time is its duration minus the time of its child calls, so
private helpers count towards the public function that called them.
"""

import gzip
import os
import types
from array import array
from time import perf_counter

LAYERS = ('scalars', 'linalg', 'superspace', 'conformal', 'quadratic',
          'extensions', 'coeff', 'dsl', 'cli')

# class -> methods wrapped on the class (the arithmetic the layers run on)
METHODS = {
    ('scalars', 'Scalar'): ('__init__', '__add__', '__radd__', '__sub__',
                            '__rsub__', '__mul__', '__rmul__', '__neg__',
                            '__pow__'),
    ('superspace', 'SuperSpace'): ('add', 'scale', 'sub'),
    ('superspace', 'GradedBilinearMap'): ('apply_vec',),
    ('coeff', 'CoeffAlgebra'): ('mode_bracket_basis', 'mode_bracket',
                                'table_lines', 'check_leibniz'),
}
SCALAR_OPS = tuple('scalars.Scalar.' + m for m in METHODS[('scalars', 'Scalar')]
                   if m != '__init__')


class Tracer:
    def __init__(self):
        self.names = []            # name id -> 'layer.qualified.name'
        self.layer_of = []         # name id -> layer
        self.calls = []            # name id -> call count
        self.self_s = []           # name id -> summed self time
        self.total_s = []          # name id -> summed duration
        # spans of module functions, one entry per span, in end order
        self.span_id = array('q')
        self.span_name = array('i')
        self.span_start = array('d')
        self.span_end = array('d')
        self.span_parent = array('q')
        self.span_job = array('i')
        self.next_span = 0
        self.stack = []            # open calls: [name id, child time, span id]
        self.job = -1
        self.patches = []          # (owner, attribute, original)
        self.counters = {}
        self.distinct_keys = set()

    # ---------- patching ----------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def patch(self, package, mods):
        """Wrap the public functions of every module namespace in `mods`
        (a name -> module mapping) and of the package, and the METHODS."""
        owners = [package] + [mods[name] for name in LAYERS]
        for owner in owners:
            for attr, value in sorted(vars(owner).items()):
                if (attr.startswith('_') or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith('confalg.')):
                    continue
                layer = value.__module__.split('.')[-1]
                name = '%s.%s' % (layer, value.__name__)
                self._replace(owner, attr, self._wrap(value, name, layer, True))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for attr in methods:
                name = '%s.%s.%s' % (layer, cls_name, attr)
                self._replace(cls, attr,
                              self._wrap(cls.__dict__[attr], name, layer, False))

    def _replace(self, owner, attr, wrapper):
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def _wrap(self, fn, name, layer, keep_span):
        nid = self._name_id(name, layer)
        hook = hook_for(name, layer)
        tracer = self
        stack = self.stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook.before(tracer, args)
            if keep_span:
                sid = tracer.next_span
                tracer.next_span += 1
            else:
                sid = -1
            frame = [nid, 0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                total_s[nid] += dur
                if keep_span:
                    tracer._keep(sid, nid, start, end)
            if hook is not None:
                hook.after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, '__name__', name)
        return wrapper

    def _keep(self, sid, nid, start, end):
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(self.stack[-1][2] if self.stack else -1)
        self.span_job.append(self.job)

    def caller_layer(self):
        """Layer of the innermost open call outside the current call."""
        return self.layer_of[self.stack[-1][0]] if self.stack else None

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # ---------- results ----------

    def layer_metrics(self):
        """The per-layer metrics of the traced pass."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, layer in enumerate(self.layer_of):
            layer_self[layer] += self.self_s[nid]

        # one name can have several wrappers, one per namespace binding it
        def calls(name):
            return sum(c for n, c in zip(self.names, self.calls) if n == name)

        def total(name):
            return sum(t for n, t in zip(self.names, self.total_s) if n == name)

        c = self.counters.get
        basis = calls('coeff.CoeffAlgebra.mode_bracket_basis')
        distinct = len(self.distinct_keys)
        rows_in, pivots = c('linalg.rows_in', 0), c('linalg.pivots', 0)
        metrics = {
            'scalars.ops': (sum(calls(n) for n in SCALAR_OPS), 'count'),
            'scalars.constructed': (calls('scalars.Scalar.__init__'), 'count'),
            'superspace.apply_vec_calls':
                (calls('superspace.GradedBilinearMap.apply_vec'), 'count'),
            'conformal.apply_bracket_calls':
                (calls('conformal.apply_bracket'), 'count'),
            'conformal.instances': (c('conformal.instances', 0), 'count'),
            'conformal.failures': (c('conformal.failures', 0), 'count'),
            'quadratic.residual_calls':
                (calls('quadratic.equation_residual'), 'count'),
            'quadratic.instances': (c('quadratic.instances', 0), 'count'),
            'coeff.basis_brackets': (basis, 'count'),
            'coeff.distinct_basis_brackets': (distinct, 'count'),
            'coeff.reuse_ratio': (basis / distinct if distinct else 0.0,
                                  'ratio'),
            'coeff.instances': (c('coeff.instances', 0), 'count'),
            'extensions.rows': (c('extensions.rows', 0), 'count'),
            'extensions.unknowns': (c('extensions.unknowns', 0), 'count'),
            'extensions.nullity': (c('extensions.nullity', 0), 'count'),
            'extensions.assemble_s':
                (total('extensions.assemble_cocycle_rows'), 's'),
            'linalg.calls': (c('linalg.calls', 0), 'count'),
            'linalg.rows_in': (rows_in, 'count'),
            'linalg.pivots': (pivots, 'count'),
            'linalg.pivot_ratio': (pivots / rows_in if rows_in else 0.0,
                                   'ratio'),
            'dsl.parse_calls': (calls('dsl.parse'), 'count'),
            'cli.commands': (calls('cli.main'), 'count'),
        }
        for layer in LAYERS:
            metrics[layer + '.self_s'] = (layer_self[layer], 's')
        return metrics

    def total_self_s(self):
        return sum(self.self_s)

    def write(self, path):
        """Write the kept spans as gzip'd TSV: id, name, start, end, parent,
        job.  Times are seconds on the perf_counter clock."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, 'wt', compresslevel=1) as fh:
            fh.write('id\tname\tstart\tend\tparent\tjob\n')
            for n in range(len(self.span_id)):
                fh.write('%d\t%s\t%.9f\t%.9f\t%d\t%d\n' % (
                    self.span_id[n], self.names[self.span_name[n]],
                    self.span_start[n], self.span_end[n],
                    self.span_parent[n], self.span_job[n]))


# ---------- hooks: counts taken at the layer boundaries ----------

class Hook:
    def before(self, tracer, args):
        return args

    def after(self, tracer, args, result):
        pass


class LayerEntry(Hook):
    """Calls into linalg from another layer."""

    def before(self, tracer, args):
        if tracer.caller_layer() != 'linalg':
            tracer.count('linalg.calls')
        return args


class Rref(LayerEntry):
    """Rows in and pivots out of every elimination; rows that the
    extensions layer assembled also count as extensions.rows."""

    def before(self, tracer, args):
        rows = list(args[0])
        tracer.count('linalg.rows_in', len(rows))
        outside = [f for f in tracer.stack
                   if tracer.layer_of[f[0]] != 'linalg']
        if outside and tracer.layer_of[outside[-1][0]] == 'extensions':
            tracer.count('extensions.rows', len(rows))
        return super().before(tracer, (rows,) + tuple(args[1:]))

    def after(self, tracer, args, result):
        tracer.count('linalg.pivots', len(result[0]))


class Instances(Hook):
    """Instances and failures of a report returned across a layer boundary;
    a report a layer assembles from its own sub-checks counts once."""

    def __init__(self, layer):
        self.layer = layer

    def after(self, tracer, args, result):
        if tracer.caller_layer() != self.layer:
            tracer.count(self.layer + '.instances', result.checked)
            tracer.count(self.layer + '.failures', len(result.failures))


class Solution(Hook):
    def after(self, tracer, args, result):
        tracer.count('extensions.unknowns', len(result.unknowns))
        tracer.count('extensions.nullity', result.dimension)


class ModeKey(Hook):
    def before(self, tracer, args):
        tracer.distinct_keys.add((tracer.job, id(args[0])) + tuple(args[1:]))
        return args


HOOKS = {'linalg.rref': Rref(),
         'coeff.CoeffAlgebra.mode_bracket_basis': ModeKey()}
for _fn in ('rank', 'nullspace', 'span_basis', 'same_span', 'in_span'):
    HOOKS['linalg.' + _fn] = LayerEntry()
for _fn in ('solve_cocycles_direct', 'solve_central_ext_anl',
            'solve_central_ext_assoc_novikov', 'solve_leibniz_central_ext_gd'):
    HOOKS['extensions.' + _fn] = Solution()


def hook_for(name, layer):
    if name in HOOKS:
        return HOOKS[name]
    if (layer in ('conformal', 'quadratic', 'coeff')
            and name.rsplit('.', 1)[1].startswith('check_')):
        return Instances(layer)
    return None
