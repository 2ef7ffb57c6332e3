"""Benchmark for linkpattern: time to a held-out AUC per method, and what it costs.

Run one workload:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

or all of them, each in its own process, with ``--workload all``.

Every workload is one user session on one dataset:

1. set-up: triple file -> fiber split -> coordinate arrays (``setup_s``);
2. the results grid: the four methods on the split (``grid_s``, one time and
   one AUC per method);
3. the final model: MAP warm start and a Gibbs chain on all observations, the
   sample set written and read back, and a link pattern scored for every
   ordered pair (``predict_pairs_per_s``).

``battery`` and ``kinship`` run the session through the public API and
differ in data shape; ``cli-pipeline`` runs it through ``linkpattern.cli.main``
on the battery data.  With ``--trace 0`` the run measures with tracing off and
prints the end-to-end metrics; with ``--trace 1`` it runs one untraced and one
traced session and prints the per-layer metrics (see ``spans.py``).  Outputs
are checked on every run; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread per process: the cli-pipeline grid runs two worker
# processes, and the machine the benchmark was sized on has two cores.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import scipy
    import linkpattern as lp
    import linkpattern.cli  # noqa: F401  (not imported by the package itself)
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import linkpattern from {SRC}: {exc}") from None
if not Path(lp.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: linkpattern imported from {lp.__file__}, not from {SRC}")

import spans as tracing  # noqa: E402  (perfbench/spans.py, after the path set-up)
import speed  # noqa: E402

METHODS = ("pltf", "hb-r", "hb-t", "baseline")
# Short timed steps repeat for this many seconds, and report their median.
REPEAT_S = 2.0
# Repeats of the cli-pipeline grid.  Two keep both workers busy to the end
# (baseline, the longest cell, once on each), so the speed samples they take
# describe every cell; cell times are the median over repeats.
GRID_REPEATS = 2
SPEC = json.loads((HERE / "spec.json").read_text())
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """Data shape and training settings of one workload."""

    name: str
    data: str                  # "acceptance" (pinned tensor) or "kinship" (drawn per seed)
    n_objects: int
    n_relations: int
    data_rank: int
    observed_fraction: float
    rank: int
    gamma: float
    map_iterations: int        # MAP cap; the fits stop there, so the work is fixed
    sweeps: int
    burn_in: int
    via_cli: bool = False
    grid_sweeps: int = 0       # chain length of the cli-pipeline grid cells
    grid_burn_in: int = 0
    fraction: float = 0.2
    floors: dict = field(default_factory=dict)


WORKLOADS = {
    "battery": Workload("battery", "acceptance", 50, 5, 5, 0.2, rank=5, gamma=0.1,
                        map_iterations=30, sweeps=300, burn_in=50),
    "kinship": Workload("kinship", "kinship", 104, 26, 11, 1.0, rank=11, gamma=0.01,
                        map_iterations=10, sweeps=8, burn_in=4),
    "cli-pipeline": Workload("cli-pipeline", "acceptance", 50, 5, 5, 0.2, rank=5,
                             gamma=0.1, map_iterations=30, sweeps=300, burn_in=50,
                             via_cli=True, grid_sweeps=100, grid_burn_in=20),
}
WORKLOADS = {name: replace(w, floors=SPEC["auc_floors"][name]) for name, w in WORKLOADS.items()}


def tiny(w):
    """The same session at toy sizes, for the self-test."""
    return replace(w, n_objects=10, n_relations=3, data_rank=2,
                   observed_fraction=min(1.0, 3 * w.observed_fraction), rank=2,
                   map_iterations=5, sweeps=6, burn_in=2,
                   grid_sweeps=6 if w.via_cli else 0, grid_burn_in=2 if w.via_cli else 0,
                   floors={})


class Run:
    """Operations attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


@dataclass
class Record:
    """Public outputs of a traced session that exact counters derive from."""

    fits: list = field(default_factory=list)     # accepted step sizes per fit_map call
    chains: list = field(default_factory=list)   # (sweeps, frozen R) per run_chain call
    pltf_factors: object = None
    pltf_objective: float = 0.0
    hbr_factors: object = None


@dataclass
class Context:
    workload: Workload
    seed: int
    work: Path
    data: Path
    pairs: Path
    positive_rate: float = 0.0


# ------------------------------------------------------------------ inputs
def acceptance_tensor(w):
    """The acceptance suite's dataset (tests/test_acceptance.py::acceptance_dataset).

    Its generator seed is pinned there; the benchmark seed chooses the split
    and the training seeds.
    """
    scales = np.array([1.0, 0.8, 0.4, 0.2, 0.12])[:w.data_rank] * 0.64
    priors = lp.gibbs.HyperPriors.default(
        w.data_rank, w0=np.diag(1.0 / (30.0 * scales)), nu0=30.0, gamma_shape=3.0,
        kappa0=50.0, kappa_t=50.0)
    spec = lp.io.SynthSpec(w.n_objects, w.n_relations, w.data_rank,
                           observed_fraction=w.observed_fraction, seed=20260809,
                           hyperpriors=priors)
    return lp.io.generate_synthetic(spec)[0]


def make_inputs(w, seed, work):
    """Write the workload's triple file and the all-pairs list for ``predict``."""
    work.mkdir(parents=True, exist_ok=True)
    if w.data == "acceptance":
        tensor = acceptance_tensor(w)
    else:
        spec = lp.io.SynthSpec(w.n_objects, w.n_relations, w.data_rank,
                               observed_fraction=w.observed_fraction, seed=seed)
        tensor = lp.io.generate_synthetic(spec)[0]
    ctx = Context(w, seed, work, work / "data.tsv", work / "pairs.txt")
    lp.io.save_triples(tensor, ctx.data)
    n = w.n_objects
    ctx.pairs.write_text("".join(f"{i} {j}\n" for i in range(n) for j in range(n)))
    ctx.positive_rate = float(tensor.entry_arrays()[3].mean())
    return ctx


# ------------------------------------------------------------------ settings
def train_settings(w, grid=False):
    if grid and w.via_cli:
        return lp.evaluate.TrainSettings(gamma=w.gamma, map_max_iterations=w.map_iterations,
                                         num_samples=w.grid_sweeps, burn_in=w.grid_burn_in)
    return lp.evaluate.TrainSettings(gamma=w.gamma, map_max_iterations=w.map_iterations,
                                     num_samples=w.sweeps, burn_in=w.burn_in)


def map_config(settings, seed):
    """The MapConfig ``evaluate`` builds from TrainSettings."""
    g = settings.gamma
    return lp.optimize.MapConfig(gamma_u=g, gamma_v=g, gamma_r=g,
                                 max_iterations=settings.map_max_iterations,
                                 rel_tolerance=settings.map_rel_tolerance,
                                 init_scale=settings.init_scale, seed=seed)


def chain_config(settings, seed, init=None):
    return lp.gibbs.ChainConfig(num_samples=settings.num_samples, burn_in=settings.burn_in,
                                thin=settings.thin, seed=seed, init_factors=init)


# ------------------------------------------------------------------ set-up
def setup(ctx):
    """Triple file to split tensor, with the coordinate arrays built."""
    full = lp.io.load_triples(ctx.data)
    train, test = lp.evaluate.split_fibers(
        full, lp.evaluate.SplitSpec(ctx.workload.fraction, ctx.seed))
    train.entry_arrays()
    test.entry_arrays()
    return full, train, test


def timed(fn, *args):
    start = clock()
    result = fn(*args)
    return result, clock() - start


class Stopwatch:
    """Wall-clock timing, normalised to reference speed while a monitor runs."""

    def __init__(self, monitor=None):
        self.monitor = monitor

    def call(self, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        return result, self.seconds(start, clock())

    def seconds(self, start, end):
        return end - start if self.monitor is None else self.monitor.normalise(start, end)

    def scale(self, seconds, start, end):
        """A duration measured elsewhere, normalised by the speed seen in [start, end]."""
        return seconds if self.monitor is None else seconds / self.monitor.factor(start, end)

    def in_workers(self, directory):
        if self.monitor is None:
            return contextlib.nullcontext()
        return self.monitor.in_workers(directory)



# ------------------------------------------------------------------ method cells
def cell_scores(method, train, ii, jj, tt, rank, seed, settings, record):
    """Score one cell with the public calls ``evaluate_method`` makes, in its order."""
    if method == "pltf":
        model_cfg = lp.model.ModelConfig(rank, use_logistic=settings.use_logistic_map)
        factors, trace = lp.optimize.fit_map(train, model_cfg, map_config(settings, seed))
        record.fits.append(trace.step_sizes)
        record.pltf_factors, record.pltf_objective = factors, trace.objectives[-1]
        return lp.model.predict_entries(factors, ii, jj, tt, model_cfg)
    model_cfg = lp.model.ModelConfig(rank, use_logistic=False)
    priors = settings.priors if settings.priors is not None else lp.gibbs.HyperPriors.default(rank)
    if method in ("hb-r", "hb-t"):
        init = None
        if method == "hb-t":
            init, trace = lp.optimize.fit_map(train, model_cfg, map_config(settings, seed))
            record.fits.append(trace.step_sizes)
        samples = lp.gibbs.run_chain(train, model_cfg, priors,
                                     chain_config(settings, seed, init))
        record.chains.append((len(samples.log_likelihoods), False))
        if method == "hb-r":
            record.hbr_factors = samples.draws[-1]
        return lp.gibbs.predictive_scores(samples, ii, jj, tt, model_cfg)
    scores = np.full(len(ii), 0.5, dtype=np.float64)
    for t in range(train.n_relations):
        mask = tt == t
        if not mask.any():
            continue
        slice_train = train.slice(t).to_tensor()
        slice_seed = int(lp.rng.substream(seed, "per-slice", str(t)).integers(2 ** 63))
        samples = lp.gibbs.run_chain(slice_train, model_cfg, priors,
                                     chain_config(settings, slice_seed),
                                     frozen_relations=np.ones((1, rank)))
        record.chains.append((len(samples.log_likelihoods), True))
        zeros = np.zeros(int(mask.sum()), dtype=np.int64)
        scores[mask] = lp.gibbs.predictive_scores(samples, ii[mask], jj[mask], zeros, model_cfg)
    return scores


def run_grid(w, ctx, train, test, settings, watch=None, decompose=None):
    """The four method cells; returns {method: (seconds, auc)}.

    Cells go through ``evaluate_method``, or with ``decompose=(tracer,
    record)`` through its public calls under one marked span per cell.
    """
    split = lp.evaluate.SplitSpec(w.fraction, ctx.seed)
    cells = {}
    for method in METHODS:
        if decompose is None:
            result, seconds = watch.call(lp.evaluate.evaluate_method, method, train, test,
                                         rank=w.rank, seed=ctx.seed, settings=settings,
                                         split=split)
            cells[method] = (seconds, result.auc)
            continue
        tracer, record = decompose
        ii, jj, tt, yy = test.entry_arrays()
        with tracer.span(f"cell.{method}", mark=True):
            start = clock()
            scores = cell_scores(method, train, ii, jj, tt, w.rank, ctx.seed, settings, record)
            value = lp.evaluate.auc(scores, yy)
            cells[method] = (clock() - start, value)
    return cells


def check_cells(run, w, cells, where):
    for method, (_seconds, value) in cells.items():
        floor = w.floors.get(method, 0.0)
        run.check(f"{where} auc.{method}", value is not None and value >= floor,
                  f"AUC {value} below floor {floor}")


def cell_key(method):
    return method.replace("-", "_") + "_s"


def cell_values(cells):
    values = {}
    for method, (seconds, value) in cells.items():
        values[cell_key(method)] = seconds
        values[f"auc.{method}"] = value
    return values


def repeat_short_cells(run, ctx, watch, sessions):
    """Median cell times; API cells shorter than REPEAT_S run again for REPEAT_S."""
    w = ctx.workload
    times = {m: [s[cell_key(m)] for s in sessions] for m in METHODS}
    short = [m for m in METHODS if sum(times[m]) < REPEAT_S]
    if short and not w.via_cli:
        _full, train, test = setup(ctx)
        settings, split = train_settings(w), lp.evaluate.SplitSpec(w.fraction, ctx.seed)
        for method in short:
            start = clock()
            while clock() - start < REPEAT_S and len(times[method]) < 15:
                result, seconds = watch.call(lp.evaluate.evaluate_method, method, train, test,
                                             rank=w.rank, seed=ctx.seed, settings=settings,
                                             split=split)
                reference = sessions[0][f"auc.{method}"]
                run.check(f"auc.{method} repeats", result.auc == reference,
                          f"{result.auc!r} != {reference!r}")
                times[method].append(seconds)
    return {cell_key(m): statistics.median(times[m]) for m in METHODS}


# ------------------------------------------------------------------ sessions
def api_session(run, ctx, watch, tracer=None, record=None):
    """Set-up, grid and final model through the public API."""
    w = ctx.workload
    span = tracer.span if tracer is not None else _no_span
    values = {}
    start = clock()
    (full, train, test), values["setup_s"] = watch.call(setup, ctx)
    settings = train_settings(w)
    cells, values["grid_s"] = watch.call(run_grid, w, ctx, train, test, settings, watch)
    check_cells(run, w, cells, "grid")
    values.update(cell_values(cells))
    values["test_entries"] = test.observed_count

    model_cfg = lp.model.ModelConfig(w.rank, use_logistic=False)
    with span("stage.fit_map"):
        (init, trace), values["stage.fit_map_s"] = watch.call(
            lp.optimize.fit_map, full, model_cfg, map_config(settings, ctx.seed))
    with span("stage.sample"):
        samples, values["stage.sample_s"] = watch.call(
            lp.gibbs.run_chain, full, model_cfg, lp.gibbs.HyperPriors.default(w.rank),
            chain_config(settings, ctx.seed, init))
    if record is not None:
        record.fits.append(trace.step_sizes)
        record.chains.append((len(samples.log_likelihoods), False))
    path = ctx.work / "final.pltf"
    lp.io.save_factors(samples, path)
    loaded = lp.io.load_factors(path)
    values["sample_set_bytes"] = path.stat().st_size
    check_sample_set(run, loaded, w.sweeps, w.burn_in)
    n, n_rel = full.n_objects, full.n_relations
    ii, jj, tt = (axis.ravel() for axis in np.indices((n, n, n_rel)))
    predict_times, predict_start = [], clock()
    while len(predict_times) < 3 or (clock() - predict_start < REPEAT_S
                                     and len(predict_times) < 15):
        with span("stage.predict"):
            scores, seconds = watch.call(lp.gibbs.predictive_scores, loaded, ii, jj, tt,
                                         model_cfg)
        predict_times.append(seconds)
    run.check("predict scores", scores.shape == (n * n * n_rel,)
              and bool(np.all((scores >= 0.0) & (scores <= 1.0))), "scores outside [0, 1]")
    values["stage.predict_s"] = statistics.median(predict_times)
    values["pairs"] = n * n
    values["predict_pairs_per_s"] = n * n / values["stage.predict_s"]
    values["wall_s"] = watch.seconds(start, clock())
    return values


def _no_span(_name):
    return contextlib.nullcontext()


def check_sample_set(run, loaded, sweeps, burn_in):
    run.check("sample set reload", isinstance(loaded, lp.gibbs.SampleSet)
              and len(loaded) == sweeps - burn_in
              and len(loaded.log_likelihoods) == sweeps,
              f"expected {sweeps - burn_in} draws and {sweeps} log-likelihoods")


def cli_call(run, watch, argv, name):
    code, seconds = watch.call(lp.cli.main, [str(a) for a in argv])
    run.check(f"cli {name} exit code", code == 0, f"exit code {code}")
    return seconds


def cli_session(run, ctx, watch, tracer=None, record=None):
    """fit-map, sample --init map:, predict over all pairs, then an evaluate grid."""
    w = ctx.workload
    span = tracer.span if tracer is not None else _no_span
    work, seed = ctx.work, ctx.seed
    map_path, samples_path = work / "map.pltf", work / "samples.pltf"
    scores_path, grid_path = work / "scores.txt", work / "grid.csv"
    values = {}
    start = clock()
    with span("stage.fit_map"):
        values["stage.fit_map_s"] = cli_call(run, watch, [
            "fit-map", "--input", ctx.data, "--out", map_path, "--rank", w.rank,
            "--gamma", w.gamma, "--max-iterations", w.map_iterations, "--identity-link",
            "--seed", seed], "fit-map")
    with span("stage.sample"):
        values["stage.sample_s"] = cli_call(run, watch, [
            "sample", "--input", ctx.data, "--init", f"map:{map_path}",
            "--samples", w.sweeps, "--burn-in", w.burn_in, "--seed", seed,
            "--out", samples_path], "sample")
    with span("stage.predict"):
        values["stage.predict_s"] = cli_call(run, watch, [
            "predict", "--factors", samples_path, "--pairs", ctx.pairs,
            "--out", scores_path], "predict")
    # The grid's cells run in worker processes while this one waits, so the
    # workers take the speed samples.
    grid_start = clock()
    with span("stage.grid"), watch.in_workers(work):
        raw_grid_s = cli_call(run, Stopwatch(), [
            "evaluate", "--input", ctx.data, "--out", grid_path,
            "--methods", ",".join(reversed(METHODS)), "--fraction", w.fraction,
            "--rank", w.rank, "--repeats", GRID_REPEATS, "--gamma", w.gamma,
            "--max-iterations", w.map_iterations, "--samples", w.grid_sweeps,
            "--burn-in", w.grid_burn_in, "--jobs", 2, "--timing", "--seed", seed], "evaluate")
    grid_end = grid_start + raw_grid_s
    values["grid_s"] = watch.scale(raw_grid_s, grid_start, grid_end)
    values["wall_s"] = watch.seconds(start, grid_start) + values["grid_s"]

    n, n_rel = w.n_objects, w.n_relations
    check_predictions(run, scores_path, n, n_rel)
    values["pairs"] = n * n
    values["predict_pairs_per_s"] = n * n / values["stage.predict_s"]
    check_sample_set(run, lp.io.load_factors(samples_path), w.sweeps, w.burn_in)
    values["sample_set_bytes"] = samples_path.stat().st_size
    rows = read_grid(run, grid_path, ctx.seed)
    cells = {m: (statistics.median(watch.scale(float(r["wall_time_s"]), grid_start, grid_end)
                                   for r in rows[m].values()),
                 float(rows[m][seed]["auc"])) for m in rows}
    check_cells(run, w, cells, "grid")
    values.update(cell_values(cells))
    values["grid_auc_text"] = {m: rows[m][seed]["auc"] for m in rows}
    if record is not None:
        record.fits.append(fit_map_steps(map_path))
        record.chains.append((w.sweeps, False))
    return values


def fit_map_steps(map_path):
    """Accepted step sizes from the trace CSV ``fit-map`` writes next to its output."""
    lines = Path(f"{map_path}.trace.csv").read_text().splitlines()[2:]
    return [float(line.split(",")[3]) for line in lines]


def check_predictions(run, path, n, n_rel):
    lines = path.read_text().splitlines()
    seen = set()
    ok = len(lines) == n * n
    for line in lines:
        parts = line.split()
        if len(parts) != 2 + n_rel:
            ok = False
            break
        seen.add((int(parts[0]), int(parts[1])))
        ok = ok and all(0.0 <= float(s) <= 1.0 for s in parts[2:])
    ok = ok and len(seen) == n * n
    run.check("predict output", ok, f"expected {n * n} lines of {n_rel} scores in [0, 1]")


def read_grid(run, path, seed):
    """Grid CSV rows as {method: {seed: row}}; repeat r ran with seed + r."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.setdefault(row["method"], {})[int(row["seed"])] = row
    seeds = {seed + r for r in range(GRID_REPEATS)}
    run.check("grid rows", sorted(rows) == sorted(METHODS)
              and len(lines) == 1 + GRID_REPEATS * len(METHODS)
              and all(set(by_seed) == seeds and all(r["auc"] != "NA" for r in by_seed.values())
                      for by_seed in rows.values()),
              f"grid CSV rows {lines[1:]}")
    return rows


def session(run, ctx, watch, tracer=None, record=None):
    if ctx.workload.via_cli:
        return cli_session(run, ctx, watch, tracer, record)
    return api_session(run, ctx, watch, tracer, record)


# ------------------------------------------------------------------ measurement
def setup_times(ctx, first, watch, tracer=None):
    """Set-up durations: ``first`` plus repetitions, at least three, for REPEAT_S."""
    times, start = list(first), clock()
    patches = tracing.install(tracer) if tracer is not None else []
    try:
        while len(times) < 3 or (clock() - start < REPEAT_S and len(times) < 100):
            times.append(watch.call(setup, ctx)[1])
    finally:
        tracing.uninstall(patches)
    return times


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(run, ctx, seconds):
    """Untraced sessions for ``seconds``; medians of each value across sessions.

    Times are normalised to reference machine speed (see ``speed.py``).
    """
    sessions = []
    with speed.SpeedMonitor() as monitor:
        watch = Stopwatch(monitor)
        start = clock()
        while True:
            session_start = clock()
            sessions.append(session(run, ctx, watch))
            if 2 * clock() - session_start - start > seconds:
                break
        cells = repeat_short_cells(run, ctx, watch, sessions)
        setups = setup_times(ctx, [s["setup_s"] for s in sessions if "setup_s" in s], watch)
    kernel_s = [k for _t, k in monitor.samples]
    print(f"speed: {len(kernel_s)} samples, kernel time median "
          f"{statistics.median(kernel_s) * 1e3:.4f} ms, factor over the run "
          f"{monitor.factor(start, clock()):.4f} (1 = reference speed)")
    for method in METHODS:
        key = f"auc.{method}"
        run.check(f"{key} repeats", len({s[key] for s in sessions}) == 1,
                  f"AUCs {[s[key] for s in sessions]} differ between sessions")
    values = {key: statistics.median(s[key] for s in sessions)
              for key, value in sessions[0].items() if isinstance(value, (int, float))}
    values.update(cells)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb()
    values["sessions"] = len(sessions)
    counters = {key: sessions[0][key] for key in sessions[0]
                if key.startswith("auc.") or key in ("sample_set_bytes", "pairs", "test_entries")}
    return values, counters


def measure_traced(run, ctx):
    """Traced and untraced sessions, the grid decomposed, then probes on the state.

    The traced session runs first, so warm-up counts against tracing.  Its
    spans give the layer totals; the decomposed grid gives per-cell coverage
    and must reproduce the untraced session's AUCs.
    """
    w = ctx.workload
    watch = Stopwatch()
    tracer, record = tracing.Tracer(), Record()
    patches = tracing.install(tracer)
    try:
        traced = session(run, ctx, watch, tracer, record)
    finally:
        tracing.uninstall(patches)
    plain = session(run, ctx, watch)

    # The cli-pipeline grid ran in worker processes, out of the tracer's
    # sight, so its decomposed cells stand in for it in the layer totals.
    cell_tracer = tracer if w.via_cli else tracing.Tracer()
    _full, train, test = setup(ctx)
    patches = tracing.install(cell_tracer)
    try:
        cells = run_grid(w, ctx, train, test, train_settings(w, grid=True),
                         decompose=(cell_tracer, record))
    finally:
        tracing.uninstall(patches)
    aucs = {method: value for method, (_seconds, value) in cells.items()}
    for method, value in aucs.items():
        if w.via_cli:
            reference = plain["grid_auc_text"][method]
            ok = f"{value:.6f}" == reference
        else:
            reference = plain[f"auc.{method}"]
            ok = value == reference
        run.check(f"decomposed auc.{method}", ok, f"{value!r} != untraced {reference!r}")

    setup_tracer = tracing.Tracer()
    n_setups = len(setup_times(ctx, [], watch, setup_tracer))
    values = layer_values(run, w, tracer, record, traced, plain, setup_tracer, n_setups)
    for method in METHODS:
        duration, covered = cell_tracer.coverage[f"cell.{method}"]
        values[f"trace.cover.{method}"] = covered / duration
    values["evaluate.test_entries"] = test.observed_count
    values.update(probes(w, ctx, train, record))
    counters = {key: values[key] for key in COUNTERS}
    counters.update({f"auc.{m}": value for m, value in aucs.items()})
    report_spans(tracer)
    report_coverage(cell_tracer)
    return values, counters


COUNTERS = ("optimize.iterations", "optimize.trials", "gibbs.rows_drawn", "gibbs.sweeps",
            "gibbs.chains", "evaluate.test_entries", "io.sample_set_bytes", "stage.pairs")


def layer_values(run, w, tracer, record, traced, plain, setup_tracer, n_setups):
    values = {}
    for metric, span in (("io.load_triples_s", "io.load_triples"),
                         ("tensor.build_s", "tensor.RelationalTensor.build"),
                         ("evaluate.split_s", "evaluate.split_fibers"),
                         ("tensor.entry_arrays_s", "tensor.RelationalTensor.entry_arrays")):
        values[metric] = setup_tracer.total(span) / n_setups

    trials = [tracing.armijo_trials(steps) for steps in record.fits]
    iterations = sum(len(t) for t in trials)
    n_trials = sum(sum(t) for t in trials)
    fit_s = tracer.total("optimize.fit_map")
    values.update({
        "optimize.fit_map_s": fit_s,
        "optimize.iterations": iterations,
        "optimize.trials": n_trials,
        "optimize.trials_per_iter": n_trials / iterations,
        "optimize.accept_ratio": iterations / n_trials,
        "optimize.iter_ms": 1e3 * fit_s / iterations,
        "optimize.objective": record.pltf_objective,
    })

    n, n_rel = w.n_objects, w.n_relations
    sweeps = sum(s for s, _frozen in record.chains)
    rows = sum(tracing.rows_drawn(s, n, n_rel, frozen) for s, frozen in record.chains)
    run.check("sweep count", sweeps == tracer.count("gibbs.gibbs_sweep"),
              f"{sweeps} sweeps from sample sets, {tracer.count('gibbs.gibbs_sweep')} spans")
    row_s = sum(tracer.total(f"gibbs.sample_{b}_rows") for b in "uvr")
    values.update({
        "gibbs.sweeps": sweeps,
        "gibbs.rows_drawn": rows,
        "gibbs.chains": len(record.chains),
        "gibbs.chain_s": tracer.total("gibbs.run_chain"),
        "gibbs.rows_per_s": rows / row_s,
        "gibbs.predictive_scores_ms": 1e3 * tracer.total("gibbs.predictive_scores"),
        "tensor.slice_s": (tracer.total("tensor.RelationalTensor.slice")
                           + tracer.total("tensor.TensorSlice.to_tensor")),
        "io.save_factors_s": tracer.total("io.save_factors"),
        "io.load_factors_s": tracer.total("io.load_factors"),
        "io.sample_set_bytes": traced["sample_set_bytes"],
        "stage.fit_map_s": tracer.mean("stage.fit_map"),
        "stage.sample_s": tracer.mean("stage.sample"),
        "stage.predict_s": tracer.mean("stage.predict"),
        "stage.pairs": traced["pairs"],
        "evaluate.auc_ms": 1e3 * tracer.total("evaluate.auc"),
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.spans": tracer.span_count(),
    })
    return values


def probes(w, ctx, train, record, reps=5):
    """Per-call times of layer functions on the workload's own training state."""
    def median_time(fn, *args):
        return statistics.median(timed(fn, *args)[1] for _ in range(reps))

    values = {}
    logistic = lp.model.ModelConfig(w.rank, use_logistic=True)
    map_cfg = map_config(train_settings(w), ctx.seed)
    f = record.pltf_factors
    ii, jj, tt, _yy = train.entry_arrays()
    values["optimize.objective_ms"] = 1e3 * median_time(lp.optimize.objective, f, train,
                                                        logistic, map_cfg)
    values["optimize.gradients_ms"] = 1e3 * median_time(lp.optimize.gradients, f, train,
                                                        logistic, map_cfg)
    reconstruct_s = median_time(lp.model.reconstruct_entries, f, ii, jj, tt)
    values["model.reconstruct_ms"] = 1e3 * reconstruct_s
    values["model.entries_per_s"] = len(ii) / reconstruct_s
    values["model.log_likelihood_ms"] = 1e3 * median_time(lp.model.log_likelihood, f, train,
                                                          logistic)

    g = lp.gibbs
    state = record.hbr_factors
    priors = g.HyperPriors.default(w.rank)
    rng = lp.rng.substream(ctx.seed, "perfbench-probe")
    groups = g.ObservationGroups(train)
    hyper = g.sample_factor_hypers(state.U, priors, priors.kappa0, rng)
    values["gibbs.groups_ms"] = 1e3 * median_time(g.ObservationGroups, train)
    values["gibbs.alpha_ms"] = 1e3 * median_time(g.sample_alpha, state, train, priors, rng)
    values["gibbs.hypers_ms"] = 1e3 * median_time(g.sample_factor_hypers, state.U, priors,
                                                  priors.kappa0, rng)
    for block, sampler in (("u", g.sample_u_rows), ("v", g.sample_v_rows),
                           ("r", g.sample_r_rows)):
        values[f"gibbs.{block}_rows_ms"] = 1e3 * median_time(sampler, state, train, hyper,
                                                             rng, groups)
    values["gibbs.sweep_ms"] = 1e3 * median_time(
        g.gibbs_sweep, g.GibbsState(state, hyper, hyper, hyper), train, priors, rng, groups)
    return values


def report_spans(tracer, limit=25):
    """Print the spans with the most self time."""
    print(f"{'span':<44} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])
    for name, (count, total, own) in ranked[:limit]:
        print(f"{name:<44} {count:>8} {total:>10.4f} {own:>10.4f}")


def report_coverage(tracer):
    for name, (duration, covered) in sorted(tracer.coverage.items()):
        print(f"coverage {name}: spans cover {covered:.4f} of {duration:.4f} s "
              f"({covered / duration:.2%})")


# ------------------------------------------------------------------ record keeping
def fingerprint():
    """SHA-256 over the package and benchmark sources and the numeric stack versions."""
    digest = hashlib.sha256(f"{np.__version__} {scipy.__version__}".encode())
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unavailable"


def environment(ctx):
    return {
        "git_sha": git_sha(),
        "source_sha256": fingerprint(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": ctx.workload.name,
        "seed": ctx.seed,
        "positive_rate": ctx.positive_rate,
    }


def check_repeat(run, name, counters):
    """Fail when a counter differs from an earlier run of the same code and seed."""
    path = STATE / "counters" / f"{name}.json"
    current = {"fingerprint": fingerprint(), "counters": counters}
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["fingerprint"] == current["fingerprint"]:
            changed = sorted(k for k in counters if earlier["counters"].get(k) != counters[k])
            run.check("counters repeat", not changed, f"changed since the last run: {changed}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------------ entry points
def declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def run_workload(w, seed, seconds, trace, record_counters=True):
    """Run one workload; returns (result dict, values)."""
    run = Run()
    work = STATE / f"work-{w.name}-{os.getpid()}"
    values = {}
    try:
        ctx = make_inputs(w, seed, work)
        print("env " + json.dumps(environment(ctx), sort_keys=True))
        values, counters = measure_traced(run, ctx) if trace else measure(run, ctx, seconds)
        if record_counters:
            check_repeat(run, f"{w.name}-seed{seed}-trace{int(trace)}", counters)
    except Exception:  # a failed operation ends the run; report it as one
        traceback.print_exc()
        run.check("run", False, "raised; traceback on standard error")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for spec in declared_metrics(trace):
        if spec["name"] not in values:
            run.check(spec["name"], False, "not measured")
            continue
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{w.name} {spec['name']} = {value:.6g} {spec['unit']}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    failed = len(run.failures)
    print(f"{w.name} failed_frac = {failed / max(run.attempted, 1):.6g} "
          f"({failed} of {run.attempted} operations)")
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    return result, values


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure untraced sessions for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result, _values = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                       bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
