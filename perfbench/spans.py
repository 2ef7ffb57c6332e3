"""Span tracing and exact counters for the linkpattern benchmark.

Spans are kept in memory, aggregated by name: call count, total time and
self time (total minus the time covered by child spans).  Spans are
recorded around calls into the public functions of the package's layers by
rebinding those names in the module namespaces for the duration of a traced
run; no source file changes, and :func:`install` returns the bindings that
:func:`uninstall` restores.
"""

import functools
import importlib
import inspect
import math
import time

# Layers whose public functions get spans.  ``rng`` and ``exceptions`` do no
# measurable work and are left alone.
LAYERS = ("io", "tensor", "model", "optimize", "gibbs", "evaluate", "cli")

# Public methods that do a layer's work but are reached through a class.
METHODS = {
    ("tensor", "RelationalTensor"): ("build", "entry_arrays", "slice", "hide_fibers",
                                     "merged_with", "without_relation", "fiber_keys",
                                     "observed_keys"),
    ("tensor", "TensorSlice"): ("to_tensor",),
    ("gibbs", "ObservationGroups"): ("__init__",),
}


class Tracer:
    """Aggregated spans with self time; one instance per traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}      # name -> [count, total_s, self_s]
        self.coverage = {}   # name of a marked span -> (duration_s, covered_s)
        self._stack = []     # open spans: [name, start, covered by children]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        """Close the innermost span; returns (duration, time covered by children)."""
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration, covered

    def span(self, name, mark=False):
        """Context manager for one span; ``mark`` keeps its coverage."""
        return _Span(self, name, mark)

    def count(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def mean(self, name):
        count, total, _own = self.stats.get(name, (0, 0.0, 0.0))
        return total / count if count else 0.0

    def span_count(self):
        return sum(entry[0] for entry in self.stats.values())

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced


class _Span:
    def __init__(self, tracer, name, mark):
        self.tracer, self.name, self.mark = tracer, name, mark

    def __enter__(self):
        self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc):
        duration, covered = self.tracer.exit()
        if self.mark:
            self.tracer.coverage[self.name] = (duration, covered)
        return False


def install(tracer, package="linkpattern"):
    """Route every public function and listed method of LAYERS through ``tracer``.

    Functions are rebound in every layer module and in the package namespace,
    so calls between layers and within one layer both pass through a span.
    Returns the list of (owner, attribute, original) bindings to restore.
    """
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                wrapped[value] = tracer.wrap(f"{layer}.{attr}", value)
    patches = []
    for owner in list(modules.values()) + [importlib.import_module(package)]:
        for attr, value in list(vars(owner).items()):
            if inspect.isfunction(value) and value in wrapped:
                patches.append((owner, attr, value))
                setattr(owner, attr, wrapped[value])
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for attr in names:
            raw = cls.__dict__[attr]
            label = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                replacement = classmethod(tracer.wrap(label, raw.__func__))
            else:
                replacement = tracer.wrap(label, raw)
            patches.append((cls, attr, raw))
            setattr(cls, attr, replacement)
    return patches


def uninstall(patches):
    for owner, attr, value in reversed(patches):
        setattr(owner, attr, value)


def armijo_trials(step_sizes, initial_step=1.0, shrink=0.5):
    """Objective evaluations the Armijo search spent on each accepted step.

    Backtracking tries ``initial_step * shrink**k`` for k = 0, 1, ... and
    accepts the first that passes, so an accepted step ``initial_step *
    shrink**k`` took k + 1 trials.  Raises ValueError for a step that is not
    such a power, since the count would then be meaningless.
    """
    trials = []
    for step in step_sizes:
        if not step > 0:
            raise ValueError(f"step size {step!r} is not positive")
        k = round(math.log(initial_step / step) / math.log(1.0 / shrink))
        if k < 0 or not math.isclose(step, initial_step * shrink ** k, rel_tol=1e-9):
            raise ValueError(f"step size {step!r} is not {initial_step} * {shrink}**k")
        trials.append(k + 1)
    return trials


def rows_drawn(sweeps, n_objects, n_relations, frozen_relations):
    """Factor rows one Gibbs chain draws: 2N per sweep, plus T unless R is frozen."""
    per_sweep = 2 * n_objects + (0 if frozen_relations else n_relations)
    return sweeps * per_sweep
