"""MAP estimation: alternating ridge solves under the identity link, and
Polak-Ribiere nonlinear conjugate gradient under the logistic link.

Minimizes the regularized weighted squared error over the observed
entries:

    E = 1/2 sum_obs (y - m)^2
        + gamma_u/2 ||U||_F^2 + gamma_v/2 ||V||_F^2 + gamma_r/2 ||R||_F^2

with m the model mean under the configured link.  Under the identity link
E is a ridge least-squares problem in each factor block given the other
two, so each sweep solves every row of U, then of V, then of R exactly
from the block's normal equations, the ones the Gibbs sampler builds
(``gibbs.ObservationGroups.normal_terms``): alternating least squares,
exact block coordinate descent on E (Tomasi & Bro 2005, "PARAFAC and
missing values").  Under the logistic link all three factor blocks are
optimized jointly as one flattened variable; the direction update uses
beta = max(0, beta_PR) with periodic restarts to steepest descent, and an
Armijo backtracking line search.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergenceError, NotPositiveDefiniteError, StallError
from .gibbs import ObservationGroups
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
    ratios).  ``max_iterations`` caps the ALS sweeps of an identity-link
    fit and the CG iterations of a logistic one.  The CG line search is
    Armijo backtracking with the module constants ``INITIAL_STEP``,
    ``SHRINK`` and ``SUFFICIENT_DECREASE``.
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

    An iteration is one ALS sweep under the identity link and one CG
    iteration under the logistic link.  ``objectives[0]`` is the initial
    objective; each subsequent element is the value after an accepted
    iteration, so the sequence is decreasing.  ``gradient_norms[k]`` is the
    norm of the full gradient after iteration k + 1.  For a CG iteration,
    ``step_sizes[k]`` is the accepted Armijo step and ``trials[k]`` counts
    the objective evaluations at trial steps, a failed search retried from
    steepest descent included.  ``restarts`` counts the resets of the CG
    direction to steepest descent: periodic, after a non-descent direction,
    for the stall retry, and after a small step that did not pass the
    convergence test.  An ALS sweep records step 1.0 and 1 trial, its one
    objective evaluation, and no restarts.
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

    The one loss kernel: :func:`fit_map` records its objectives with it and
    scores its line search trials with it, and :func:`objective` and
    :func:`gradients` expose it to the oracles.  It owns the layout of the
    parameters as one flat vector: U, V and R raveled, in that order.
    """

    def __init__(self, tensor: RelationalTensor, model_config: ModelConfig,
                 map_config: MapConfig):
        ii, jj, tt, self.yy = tensor.entry_arrays()
        self.entries = _Entries(ii, jj, tt, tensor.n_objects, tensor.n_relations)
        self.use_logistic = model_config.use_logistic
        self.gammas = (map_config.gamma_u, map_config.gamma_v, map_config.gamma_r)
        self.n, self.t, self.d = tensor.n_objects, tensor.n_relations, model_config.rank
        self._last = None

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

        The point's residual is kept until the next call, for
        :meth:`last_point`.
        """
        blocks = self.blocks(x)
        s = self.entries.reconstruct(*blocks)
        m = logistic(s) if self.use_logistic else s
        resid = self.yy - m
        value = 0.5 * _inner(resid, resid) + 0.5 * self._ridge(blocks)
        self._last = (x, value, m, resid)
        return value, (self.last_point()[2] if with_gradient else None)

    def last_point(self):
        """``(x, value, gradient)`` at the point of the latest :meth:`value_and_gradient`.

        The gradient is built from that call's residual, so a point scored
        without its gradient (an accepted line-search trial) gets it
        without a second reconstruction.  With residual e = y - m and link
        derivative l (1 for the identity link, g(s)(1-g(s)) for the
        logistic), row i of dU accumulates -e * l * (V_j o R_t) over the
        observed entries of row i, plus the ridge term; dV and dR are
        symmetric.
        """
        x, value, m, resid = self._last
        blocks = self.blocks(x)
        w = -resid * m * (1.0 - m) if self.use_logistic else -resid
        products = self.entries.mttkrp(w, *blocks)
        return x, value, np.concatenate([(gamma * block + product).ravel() for gamma, block, product
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


def _three_part_test(tau, f, f_new, moved, x, grad_norm):
    """``(small_change, converged)`` for an iteration from objective ``f`` to
    ``f_new`` that moved the parameters by ``moved`` to ``x``; see :func:`fit_map`."""
    small_change = f - f_new < tau * (1.0 + abs(f_new))
    return small_change, (small_change
                          and moved < math.sqrt(tau) * (1.0 + math.sqrt(_inner(x, x)))
                          and grad_norm <= tau ** (1.0 / 3.0) * (1.0 + abs(f_new)))


def fit_map(tensor: RelationalTensor, model_config: ModelConfig,
            map_config: MapConfig):
    """Fit factors by MAP: ALS sweeps under the identity link, Polak-Ribiere
    CG under the logistic link.

    Returns ``(factors, trace)``.  Deterministic for a fixed seed: the
    initialization, summation order, solves and line search are all fixed.
    Every traced objective is the loss kernel's value; each Armijo trial
    step is scored by the objective itself.  ``trace.termination`` names
    the stop: ``"converged"`` when the three-part test of Gill, Murray &
    Wright (*Practical Optimization*, §8.2.3) holds with tau =
    ``rel_tolerance``: the objective fell by less than tau (1 + |f|), the
    iteration (a CG step, or an ALS sweep's displacement) moved x by less
    than sqrt(tau) (1 + ||x||) and the gradient norm is at most tau^(1/3)
    (1 + |f|).  A CG step that passes the first part only restarts CG along
    steepest descent.  ``"no_progress"`` when an accepted step or a sweep
    does not lower the objective (progress below float resolution; the
    previous iterate is kept), ``"stalled"`` when the CG line search fails,
    or ``"max_iterations"``.  Under the identity link a row whose ridge
    system is singular (a zero ridge weight and no observations in the
    row) raises :class:`NotPositiveDefiniteError`.
    """
    if tensor.observed_count == 0:
        raise ValueError("cannot fit an empty tensor")
    n, T, d = tensor.n_objects, tensor.n_relations, model_config.rank
    loss = _Loss(tensor, model_config, map_config)
    # U, V and R drawn in that order, as one flat vector
    x = map_config.init_scale * substream(map_config.seed, "map-init").standard_normal(
        (2 * n + T) * d)
    if model_config.use_logistic:
        x, trace = _conjugate_gradient(loss, x, map_config)
    else:
        x, trace = _alternating_least_squares(ObservationGroups(tensor), loss, x, map_config)
    logger.debug("fit_map: %s after %d iterations, objective %.6g, %d restarts",
                 trace.termination, trace.iterations, trace.objectives[-1], trace.restarts)

    U, V, R = loss.blocks(x)
    return LatentFactors(U.copy(), V.copy(), R.copy(), alpha=1.0), trace


def _ridge_solve(gram, xty, gamma, block):
    """Every row x_k of ``(G_k + gamma I) x_k = xty_k``, as one stacked solve.

    ``gram`` is a (rows, D, D) stack or one (1, D, D) Gram shared by every
    row.  Raises :class:`NotPositiveDefiniteError` naming ``block`` and the
    first row whose system is singular or whose solution is not finite.
    """
    system = np.broadcast_to(gram + gamma * np.eye(gram.shape[-1]),
                             xty.shape + xty.shape[-1:])
    try:
        rows = np.linalg.solve(system, xty[..., None])[..., 0]
    except np.linalg.LinAlgError:  # solve row by row to find the singular one
        rows = np.array([_solve_or_nan(matrix, rhs) for matrix, rhs in zip(system, xty)])
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise NotPositiveDefiniteError(
            f"ridge system of {block} row {bad[0]} is singular (ridge weight {gamma:g}; "
            f"a zero weight needs observations in every row)")
    return rows


def _solve_or_nan(matrix, rhs):
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.full_like(rhs, np.nan)


def _block_gradient(gram, xty, block, gamma):
    """Gradient of the objective in one factor block, ``(G + gamma I) X - xty``,
    from that block's normal terms at the current point."""
    return np.matmul(gram, block[..., None])[..., 0] + gamma * block - xty


def _alternating_least_squares(groups: ObservationGroups, loss: _Loss, x, map_config):
    """Identity-link ALS sweeps from ``x``; returns the last accepted ``x`` and the trace.

    A sweep takes 4 ``normal_terms`` calls: the V and R solves, V's terms
    at the swept point, and U's terms there, which give both this sweep's U
    gradient and the next sweep's U solve.  R's solve terms give R's
    gradient at the swept point, since they do not depend on R.
    """
    tau = map_config.rel_tolerance
    gamma_u, gamma_v, gamma_r = loss.gammas
    f = loss.value_and_gradient(x, with_gradient=False)[0]
    trace = OptTrace(objectives=[f])
    U, V, R = loss.blocks(x)
    terms_u = groups.normal_terms(0, LatentFactors(U, V, R))
    for sweep in range(map_config.max_iterations):
        U = _ridge_solve(*terms_u, gamma_u, "U")
        V = _ridge_solve(*groups.normal_terms(1, LatentFactors(U, V, R)), gamma_v, "V")
        terms_r = groups.normal_terms(2, LatentFactors(U, V, R))
        R = _ridge_solve(*terms_r, gamma_r, "R")
        swept = LatentFactors(U, V, R)
        x_new = _flat(swept)
        f_new = loss.value_and_gradient(x_new, with_gradient=False)[0]
        if not np.isfinite(f_new):
            raise DivergenceError(f"objective became non-finite at sweep {sweep}",
                                  iteration=sweep)
        if f_new >= f:
            # progress below float resolution; keep the previous iterate
            trace.termination = "no_progress"
            break
        terms_u = groups.normal_terms(0, swept)
        grad = np.concatenate([
            _block_gradient(*terms, block, gamma).ravel() for terms, block, gamma
            in ((terms_u, U, gamma_u), (groups.normal_terms(1, swept), V, gamma_v),
                (terms_r, R, gamma_r))])
        grad_norm = math.sqrt(_inner(grad, grad))
        moved = x_new - x
        trace.objectives.append(f_new)
        trace.gradient_norms.append(grad_norm)
        trace.step_sizes.append(1.0)
        trace.trials.append(1)
        _small_change, converged = _three_part_test(
            tau, f, f_new, math.sqrt(_inner(moved, moved)), x_new, grad_norm)
        x, f = x_new, f_new
        if converged:
            trace.termination = "converged"
            break
    if not trace.termination:
        trace.termination = "max_iterations"
    return x, trace


def _conjugate_gradient(loss: _Loss, x, map_config):
    """Polak-Ribiere CG with Armijo backtracking from ``x``; returns the last
    accepted ``x`` and the trace."""
    n, T, d = loss.n, loss.t, loss.d
    tau = map_config.rel_tolerance
    trials = 0

    def search(x, f, grad, direction):
        """Armijo step along ``direction``, each trial scored by the objective itself."""
        def trial(step):
            nonlocal trials
            trials += 1
            return loss.value_and_gradient(x + step * direction, with_gradient=False)[0]
        return _backtrack(_inner(grad, direction), trial, f)

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
        # the accepted trial is the search's last evaluation
        x_trial, f_new, grad_new = loss.last_point()
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

        small_change, converged = _three_part_test(
            tau, f, f_new, step * math.sqrt(_inner(direction, direction)), x, grad_norm)
        if converged:
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
    return x, trace
