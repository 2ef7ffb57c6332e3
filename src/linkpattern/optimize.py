"""MAP estimation by Polak-Ribiere nonlinear conjugate gradient.

Minimizes the regularized weighted squared error over the observed
entries:

    E = 1/2 sum_obs (y - m)^2
        + gamma_u/2 ||U||_F^2 + gamma_v/2 ||V||_F^2 + gamma_r/2 ||R||_F^2

with m the model mean under the configured link.  All three factor blocks
are optimized jointly as one flattened variable; the direction update uses
beta = max(0, beta_PR) with periodic restarts to steepest descent, and an
Armijo backtracking line search.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergenceError, StallError
from .model import LatentFactors, ModelConfig, _Entries, _inner, logistic
from .rng import substream
from .tensor import RelationalTensor

logger = logging.getLogger(__name__)

# Armijo backtracking: the first trial step, the factor each rejected trial
# shrinks it by, and the sufficient-decrease constant.
INITIAL_STEP = 1.0
SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
# Line search steps below this are treated as a stall.
STEP_FLOOR = 1e-16


@dataclass
class MapConfig:
    """Optimizer settings.

    gamma_* are the ridge weights on U, V and R (prior-to-noise precision
    ratios).  The line search is Armijo backtracking with the module
    constants ``INITIAL_STEP``, ``SHRINK`` and ``SUFFICIENT_DECREASE``.
    """

    gamma_u: float = 0.01
    gamma_v: float = 0.01
    gamma_r: float = 0.01
    max_iterations: int = 500
    rel_tolerance: float = 1e-6
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if min(self.gamma_u, self.gamma_v, self.gamma_r) < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.rel_tolerance <= 0 or self.init_scale <= 0:
            raise ValueError("rel_tolerance and init_scale must be positive")


@dataclass
class OptTrace:
    """Per-iteration record of an optimization run.

    ``objectives[0]`` is the initial objective; each subsequent element is
    the value after an accepted step, so the sequence is non-increasing.
    ``trials[k]`` counts the objective evaluations at trial steps in
    iteration k + 1, a failed search retried from steepest descent included.
    ``restarts`` counts the resets of the CG direction to steepest descent:
    periodic, after a non-descent direction, for the stall retry, and after
    a small step that did not pass the convergence test.
    """

    objectives: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    trials: list = field(default_factory=list)
    restarts: int = 0
    termination: str = ""

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)


class _Loss:
    """The regularized squared error on one tensor's observed entries.

    The one loss kernel: :func:`fit_map` trains on it and scores its line
    search trials with it, and :func:`objective` and :func:`gradients`
    expose it to the oracles.  It owns the layout of the parameters as one
    flat vector: U, V and R raveled, in that order.
    """

    def __init__(self, tensor: RelationalTensor, model_config: ModelConfig,
                 map_config: MapConfig):
        ii, jj, tt, self.yy = tensor.entry_arrays()
        self.entries = _Entries(ii, jj, tt, tensor.n_objects, tensor.n_relations)
        self.use_logistic = model_config.use_logistic
        self.gammas = (map_config.gamma_u, map_config.gamma_v, map_config.gamma_r)
        self.n, self.t, self.d = tensor.n_objects, tensor.n_relations, model_config.rank

    def blocks(self, x):
        """U, V and R as views of the flat parameter vector ``x``."""
        n, d = self.n, self.d
        return (x[:n * d].reshape(n, d), x[n * d:2 * n * d].reshape(n, d),
                x[2 * n * d:].reshape(self.t, d))

    def _ridge(self, blocks) -> float:
        """sum_k gamma_k ||block_k||^2 over the three factor blocks."""
        return sum(gamma * float(np.sum(block * block))
                   for gamma, block in zip(self.gammas, blocks))

    def value_and_gradient(self, x, with_gradient=True):
        """Objective at ``x`` and its flat gradient (None unless requested).

        With residual e = y - m and link derivative l (1 for the identity
        link, g(s)(1-g(s)) for the logistic), row i of dU accumulates
        -e * l * (V_j o R_t) over the observed entries of row i, plus the
        ridge term; dV and dR are symmetric.
        """
        blocks = self.blocks(x)
        s = self.entries.reconstruct(*blocks)
        m = logistic(s) if self.use_logistic else s
        resid = self.yy - m
        value = 0.5 * _inner(resid, resid) + 0.5 * self._ridge(blocks)
        if not with_gradient:
            return value, None
        w = -resid * m * (1.0 - m) if self.use_logistic else -resid
        products = self.entries.mttkrp(w, *blocks)
        return value, np.concatenate([(gamma * block + product).ravel() for gamma, block, product
                                      in zip(self.gammas, blocks, products)])


def objective(factors: LatentFactors, tensor: RelationalTensor,
              model_config: ModelConfig, map_config: MapConfig) -> float:
    """Regularized weighted squared error at ``factors``."""
    loss = _Loss(tensor, model_config, map_config)
    return loss.value_and_gradient(_flat(factors), with_gradient=False)[0]


def gradients(factors: LatentFactors, tensor: RelationalTensor,
              model_config: ModelConfig, map_config: MapConfig):
    """Exact gradient ``(dU, dV, dR)`` of :func:`objective` w.r.t. (U, V, R)."""
    loss = _Loss(tensor, model_config, map_config)
    return loss.blocks(loss.value_and_gradient(_flat(factors))[1])


def _flat(factors: LatentFactors) -> np.ndarray:
    return np.concatenate([factors.U.ravel(), factors.V.ravel(), factors.R.ravel()])


def _backtrack(slope: float, objective_at, f_current: float) -> float:
    """Armijo backtracking in the step domain; ``objective_at(step) -> value``.

    Raises :class:`StallError` on a non-descent slope, or when the step
    underflows ``STEP_FLOOR`` without sufficient decrease.
    """
    if slope >= 0:
        raise StallError(f"not a descent direction (slope {slope:.3e})")
    step = INITIAL_STEP
    while step >= STEP_FLOOR:
        if objective_at(step) <= f_current + SUFFICIENT_DECREASE * step * slope:
            return step
        step *= SHRINK
    raise StallError(f"line search step underflowed below {STEP_FLOOR}")


def fit_map(tensor: RelationalTensor, model_config: ModelConfig,
            map_config: MapConfig):
    """Fit factors by MAP with Polak-Ribiere CG.

    Returns ``(factors, trace)``.  Deterministic for a fixed seed: the
    initialization, summation order and line search are all fixed.  Each
    Armijo trial step is scored by the objective itself.
    ``trace.termination`` names the stop: ``"converged"`` when the
    three-part test of Gill, Murray & Wright (*Practical Optimization*,
    §8.2.3) holds with tau = ``rel_tolerance``: the objective fell by less
    than tau (1 + |f|), the step moved x by less than sqrt(tau) (1 + ||x||)
    and the gradient norm is at most tau^(1/3) (1 + |f|).  A step that
    passes the first part only restarts CG along steepest descent.
    ``"no_progress"`` when an accepted step does not lower the objective
    (progress below float resolution; the previous iterate is kept),
    ``"stalled"`` when the line search fails, or ``"max_iterations"``.
    """
    if tensor.observed_count == 0:
        raise ValueError("cannot fit an empty tensor")
    n, T, d = tensor.n_objects, tensor.n_relations, model_config.rank
    loss = _Loss(tensor, model_config, map_config)
    tau = map_config.rel_tolerance
    trials = 0

    def search(x, f, grad, direction):
        """Armijo step along ``direction``, each trial scored by the objective itself."""
        def trial(step):
            nonlocal trials
            trials += 1
            return loss.value_and_gradient(x + step * direction, with_gradient=False)[0]
        return _backtrack(_inner(grad, direction), trial, f)

    # U, V and R drawn in that order, as one flat vector
    x = map_config.init_scale * substream(map_config.seed, "map-init").standard_normal(
        (2 * n + T) * d)
    f, grad = loss.value_and_gradient(x)
    trace = OptTrace(objectives=[f])
    direction = -grad
    restart_every = (n + T) * d

    for iteration in range(map_config.max_iterations):
        if _inner(grad, direction) >= 0:
            direction = -grad
            trace.restarts += 1
        trials = 0
        try:
            try:
                step = search(x, f, grad, direction)
            except StallError:
                if np.array_equal(direction, -grad):
                    raise
                direction = -grad  # restart CG and retry once from steepest descent
                trace.restarts += 1
                step = search(x, f, grad, direction)
        except StallError:
            trace.termination = "stalled"
            break
        x_trial = x + step * direction
        f_new, grad_new = loss.value_and_gradient(x_trial)
        if not np.isfinite(f_new):
            raise DivergenceError(
                f"objective became non-finite at iteration {iteration}", iteration=iteration)
        if f_new >= f:
            # progress below float resolution; keep the previous iterate
            trace.termination = "no_progress"
            break
        x = x_trial
        grad_norm = math.sqrt(_inner(grad_new, grad_new))
        trace.objectives.append(f_new)
        trace.gradient_norms.append(grad_norm)
        trace.step_sizes.append(step)
        trace.trials.append(trials)

        small_change = f - f_new < tau * (1.0 + abs(f_new))
        if (small_change
                and step * math.sqrt(_inner(direction, direction))
                < math.sqrt(tau) * (1.0 + math.sqrt(_inner(x, x)))
                and grad_norm <= tau ** (1.0 / 3.0) * (1.0 + abs(f_new))):
            f = f_new
            trace.termination = "converged"
            break
        if small_change or (iteration + 1) % restart_every == 0:
            direction = -grad_new
            trace.restarts += 1
        else:
            beta = max(0.0, _inner(grad_new, grad_new - grad) / _inner(grad, grad))
            direction = -grad_new + beta * direction
        f, grad = f_new, grad_new
    if not trace.termination:
        trace.termination = "max_iterations"
    logger.debug("fit_map: %s after %d iterations, objective %.6g, %d restarts",
                 trace.termination, trace.iterations, f, trace.restarts)

    U, V, R = loss.blocks(x)
    return LatentFactors(U.copy(), V.copy(), R.copy(), alpha=1.0), trace
