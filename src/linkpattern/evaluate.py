"""Experiment protocol: fiber holdout splits, AUC, method comparison.

Whole link patterns (tube fibers) are hidden for testing; methods train on
the remaining observations only and are scored by ranking every held-out
entry.  All relation types are pooled into one AUC by default, with a
macro-average flag for per-relation averaging.
"""

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .exceptions import DegenerateSplitError, UndefinedMetricError
from .gibbs import ChainConfig, HyperPriors, predictive_scores, run_chain
from .model import ModelConfig, predict_entries
from .optimize import MapConfig, fit_map
from .rng import _check_seed, substream
from .tensor import RelationalTensor

# Methods: MAP point estimate, Gibbs from random init, Gibbs from a MAP
# warm start, and the mono-relational per-slice baseline.
METHOD_NAMES = ("pltf", "hb-r", "hb-t", "baseline")


@dataclass(frozen=True)
class SplitSpec:
    """Holdout description: fraction of observed fibers hidden, and seed."""

    test_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0,1), got {self.test_fraction}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class TrainSettings:
    """The training settings a caller sets, shared across methods.

    Five fields: ``gamma`` feeds all three MAP ridge weights,
    ``map_max_iterations`` caps the MAP fits, and ``num_samples``,
    ``burn_in`` and ``thin`` set the Gibbs chains.  Construction builds the
    :class:`MapConfig` and :class:`ChainConfig` they stand for, so a bad
    value raises that config's error before any method runs.  Frozen,
    like the configs.

    The paper's protocol fixes four more, held as class constants:
    ``map_rel_tolerance`` and ``init_scale`` are :class:`MapConfig`'s
    defaults, ``use_logistic_map`` is :class:`ModelConfig`'s default
    logistic link for pltf, and ``priors`` is None, for
    :meth:`HyperPriors.default` at the evaluation rank.  Passing one raises
    TypeError.  Their names remain only because the benchmark
    (``perfbench/run.py``) reads them to rebuild ``evaluate``'s configs.
    """

    gamma: float = MapConfig.gamma_u
    map_max_iterations: int = MapConfig.max_iterations
    num_samples: int = ChainConfig.num_samples
    burn_in: int = ChainConfig.burn_in
    thin: int = ChainConfig.thin
    # Fixed by the protocol; kept by name only for perfbench/run.py, which reads them.
    map_rel_tolerance: ClassVar[float] = MapConfig.rel_tolerance
    init_scale: ClassVar[float] = MapConfig.init_scale
    use_logistic_map: ClassVar[bool] = True
    priors: ClassVar[Optional[HyperPriors]] = None

    def __post_init__(self):
        _map_config(self, seed=0)
        _chain_config(self, seed=0)


@dataclass
class ExperimentResult:
    """One evaluation cell: the unit of results tables."""

    method: str
    split: Optional[SplitSpec]
    rank: int
    seed: int
    auc: Optional[float]
    wall_time_s: float
    repeat_index: int = 0

    def __post_init__(self):
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must be in [0,1], got {self.auc}")


def split_fibers(tensor: RelationalTensor, spec: SplitSpec):
    """Hide a uniformly random fraction of the observed fibers.

    The test size is round(fraction * fiber count); both sides must end up
    nonempty.  Deterministic per seed.
    """
    fibers = tensor.fiber_keys()
    if len(fibers) < 2:
        raise DegenerateSplitError(f"need at least 2 observed fibers, have {len(fibers)}")
    n_test = int(np.floor(spec.test_fraction * len(fibers) + 0.5))
    if n_test < 1 or n_test >= len(fibers):
        raise DegenerateSplitError(
            f"split of {len(fibers)} fibers at fraction {spec.test_fraction} "
            f"leaves an empty side")
    rng = substream(spec.seed, "fiber-split")
    chosen = rng.choice(len(fibers), size=n_test, replace=False)
    return tensor.hide_fibers(fibers[chosen])


def auc(scores, labels) -> float:
    """Area under the ROC curve, Mann-Whitney form with midrank ties.

    Equals P(score+ > score-) + 0.5 P(score+ = score-) over all
    positive/negative pairs, computed from the rank sum.  The ranks are the
    midranks, exact half-integers, of the tie groups that ``np.unique``
    finds: ``-0.0`` ties ``0.0``, ``+inf`` ranks highest and ``-inf``
    lowest.  A NaN score has no rank and raises ValueError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D of equal length")
    if np.isnan(scores).any():
        raise ValueError(f"score {int(np.argmax(np.isnan(scores)))} is NaN and has no rank")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined: {n_pos} positives, {n_neg} negatives")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _derived_seed(seed: int, *names: str) -> int:
    return int(substream(seed, *names).integers(2 ** 63))


def _map_config(settings, seed):
    return MapConfig(gamma_u=settings.gamma, gamma_v=settings.gamma, gamma_r=settings.gamma,
                     max_iterations=settings.map_max_iterations, seed=seed)


def _score_pltf(train, ii, jj, tt, *, rank, seed, settings):
    model_cfg = ModelConfig(rank)
    factors, _ = fit_map(train, model_cfg, _map_config(settings, seed))
    return predict_entries(factors, ii, jj, tt, model_cfg)


def _chain_config(settings, seed, init_factors=None):
    return ChainConfig(num_samples=settings.num_samples, burn_in=settings.burn_in,
                       thin=settings.thin, seed=seed, init_factors=init_factors)


def _score_hb(train, ii, jj, tt, *, rank, seed, settings, warm_start):
    model_cfg = ModelConfig(rank, use_logistic=False)
    init = None
    if warm_start:
        # Warm start on the identity-link scale the chain samples on.
        init, _ = fit_map(train, model_cfg, _map_config(settings, seed))
    samples = run_chain(train, model_cfg, HyperPriors.default(rank),
                        _chain_config(settings, seed, init_factors=init))
    return predictive_scores(samples, ii, jj, tt, model_cfg)


def _score_per_slice(train, ii, jj, tt, *, rank, seed, settings):
    """Mono-relational baseline: an independent sampler per relation slice.

    The relation factor is frozen to a row of ones and excluded from
    sampling, reducing each slice to a plain Bayesian matrix factorization.
    """
    model_cfg = ModelConfig(rank, use_logistic=False)
    scores = np.full(len(ii), 0.5, dtype=np.float64)
    for t in range(train.n_relations):
        mask = tt == t
        if not mask.any():
            continue
        chain_cfg = _chain_config(settings, _derived_seed(seed, "per-slice", str(t)))
        samples = run_chain(train.slice(t), model_cfg, HyperPriors.default(rank), chain_cfg,
                            frozen_relations=np.ones((1, rank)))
        zeros = np.zeros(int(mask.sum()), dtype=np.int64)
        scores[mask] = predictive_scores(samples, ii[mask], jj[mask], zeros, model_cfg)
    return scores


METHOD_SCORERS = {
    "pltf": _score_pltf,
    "hb-r": partial(_score_hb, warm_start=False),
    "hb-t": partial(_score_hb, warm_start=True),
    "baseline": _score_per_slice,
}


def _pooled_or_macro(scores, labels, tt, macro_average):
    if not macro_average:
        return auc(scores, labels)
    per_relation = []
    for t in np.unique(tt):
        mask = tt == t
        if len(np.unique(labels[mask])) == 2:
            per_relation.append(auc(scores[mask], labels[mask]))
    if not per_relation:
        raise UndefinedMetricError("no relation slice has both classes in the test set")
    return float(np.mean(per_relation))


def evaluate_method(method: Union[str, Callable], train: RelationalTensor,
                    test: RelationalTensor, *, rank: int, seed: int,
                    settings: Optional[TrainSettings] = None,
                    split: Optional[SplitSpec] = None,
                    macro_average: bool = False) -> ExperimentResult:
    """Train one method on ``train`` and score every observed test entry.

    Scorers receive the training tensor and the bare test coordinates, so
    test values cannot leak into training.  Raises
    :class:`UndefinedMetricError` when the test set has a single class.
    """
    settings = settings if settings is not None else TrainSettings()
    ii, jj, tt, labels = test.entry_arrays()
    if not labels.size:
        raise UndefinedMetricError("test tensor has no observed entries")

    if callable(method):
        scorer, name = method, getattr(method, "__name__", "custom")
    else:
        try:
            scorer, name = METHOD_SCORERS[method], method
        except KeyError:
            raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}") from None

    start = time.perf_counter()
    scores = np.asarray(scorer(train, ii, jj, tt, rank=rank, seed=seed,
                               settings=settings), dtype=np.float64)
    wall = time.perf_counter() - start

    value = _pooled_or_macro(scores, labels, tt, macro_average)
    return ExperimentResult(method=name, split=split, rank=rank, seed=seed,
                            auc=value, wall_time_s=wall)


def _restore_relation(original_test: RelationalTensor, train: RelationalTensor, t: int):
    """Move every test observation of relation ``t`` back into training."""
    ii, jj, tt, yy = original_test.entry_arrays()
    mask = tt == t
    restored = RelationalTensor(train.n_objects, train.n_relations,
                                ii[mask], jj[mask], tt[mask], yy[mask])
    return train.merged_with(restored), original_test.without_relation(t)


def relation_ablation(tensor: RelationalTensor, *, split_spec: SplitSpec,
                      rank: int, method: str = "pltf",
                      settings: Optional[TrainSettings] = None,
                      macro_average: bool = False,
                      on_undefined: Optional[Callable[[str, UndefinedMetricError], None]] = None):
    """Measure how much fully observing each relation type helps the rest.

    For each relation t, its test observations are restored to training
    and the method is rescored on the remaining test entries, pooled or
    macro-averaged as ``macro_average`` asks.  Returns
    ``(results, ranking)``: the plain-split baseline plus one result per
    relation, and the relations ordered by AUC gain over the baseline.

    A cell whose AUC is undefined (a single-class test set) raises
    :class:`UndefinedMetricError`, unless ``on_undefined`` is given: it is
    then called with the cell's method name and the error, the cell's AUC
    is None, and a relation whose gain is undefined is left out of the
    ranking.
    """
    if tensor.n_relations < 2:
        raise ValueError("relation ablation needs at least 2 relation types")
    train, test = split_fibers(tensor, split_spec)

    def cell(name, train_t, test_t):
        try:
            res = evaluate_method(method, train_t, test_t, rank=rank, seed=split_spec.seed,
                                  settings=settings, split=split_spec,
                                  macro_average=macro_average)
        except UndefinedMetricError as exc:
            if on_undefined is None:
                raise
            on_undefined(name, exc)
            res = ExperimentResult(method=name, split=split_spec, rank=rank,
                                   seed=split_spec.seed, auc=None, wall_time_s=0.0)
        res.method = name
        return res

    base = cell(method, train, test)
    results = [base]
    gains = {}
    for t in range(tensor.n_relations):
        res = cell(f"{method}+rel{t}", *_restore_relation(test, train, t))
        results.append(res)
        if res.auc is not None and base.auc is not None:
            gains[t] = res.auc - base.auc
    ranking = sorted(gains, key=lambda t: (-gains[t], t))
    return results, ranking


def write_results_csv(results, dataset: str, path, include_timing: bool = False) -> None:
    """Write results in the fixed CSV layout, sorted and LF-terminated.

    Timing is reported as 0 unless ``include_timing`` is set, keeping the
    bytes reproducible across reruns of the same seeds.
    """
    def sort_key(r):
        fraction = r.split.test_fraction if r.split else -1.0
        return (r.method, fraction, r.rank, r.seed, r.repeat_index)

    lines = ["method,dataset,fraction,rank,seed,auc,wall_time_s"]
    for r in sorted(results, key=sort_key):
        fraction = f"{r.split.test_fraction:g}" if r.split else ""
        value = "NA" if r.auc is None else f"{r.auc:.6f}"
        wall = f"{r.wall_time_s:.6f}" if include_timing else "0.000000"
        lines.append(f"{r.method},{dataset},{fraction},{r.rank},{r.seed},{value},{wall}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
