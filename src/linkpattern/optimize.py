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
(``model.ObservationGroups.normal_terms``): alternating least squares,
exact block coordinate descent on E (Tomasi & Bro 2005, "PARAFAC and
missing values").  Under the logistic link all three factor blocks are
optimized jointly as one flattened variable; the direction update uses
beta = max(0, beta_PR) with periodic restarts to steepest descent, and an
Armijo backtracking line search whose trials are scored only until the
sufficient-decrease test is known to fail: the objective is a sum of
nonnegative squares plus the ridge term, so a partial sum above the
Armijo bound rejects the trial (Nocedal & Wright 2006, §3.1), and most
rejected trials stop part way.  Its gradient in each block is that
block's Gibbs right-hand side with the residual weights in place of the
labels (``model.ObservationGroups.right_hand_sides``), plus the ridge term.

:func:`fit_map` runs both in one loop, one step (an ALS sweep, or a CG
direction and its Armijo search) per iteration, and stops by the same
rules, named in ``OptTrace.termination``: ``"converged"`` when the
three-part test of Gill, Murray & Wright (*Practical Optimization*,
§8.2.3) holds with tau = ``rel_tolerance``: the objective fell by less
than tau (1 + |f|), the step moved x by less than sqrt(tau) (1 + ||x||)
and the gradient norm is at most tau^(1/3) (1 + |f|) (a CG step that
passes the first part only restarts CG along steepest descent);
``"no_progress"`` when a step does not lower the objective (progress below
float resolution; the previous iterate is kept); ``"stalled"`` when the CG
line search fails; or ``"max_iterations"``.  A step with a non-finite
objective, or a CG line-search trial with a NaN one, raises
:class:`DivergenceError` naming the iteration.
"""

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergenceError, NotPositiveDefiniteError, StallError
from .model import LatentFactors, ModelConfig, ObservationGroups, _check_count, _inner, logistic
from .rng import _check_seed, substream
from .tensor import RelationalTensor

logger = logging.getLogger(__name__)

# Armijo backtracking: the first trial step, the factor each rejected trial
# shrinks it by, and the sufficient-decrease constant.
INITIAL_STEP = 1.0
SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
# Line search steps below this are treated as a stall.
STEP_FLOOR = 1e-16

# Entries per block of a bounded line-search trial (_Loss.value): after each
# block but the last, the running sum of squared residuals may prove the
# trial rejected, and the rest of its entries go unscored.  On the
# kinship-shaped benchmark's fits (225k entries; 2-vCPU VM) blocks of 16,384
# to 65,536 time within noise of one another, 4,096 and 131,072 are slower.
_TRIAL_BLOCK = 32768
# Relative margin by which that running sum must clear the Armijo bound.  A
# sum of n nonnegative terms in any order is within (n - 1) eps of the exact
# one, about 1e-7 for n = 1e9 entries, so the running and the whole-array
# sums cannot disagree about the bound by more.
_SUM_MARGIN = 1e-6


@dataclass(frozen=True)
class MapConfig:
    """Optimizer settings.

    gamma_* are the ridge weights on U, V and R (prior-to-noise precision
    ratios).  ``max_iterations`` caps the ALS sweeps of an identity-link
    fit and the CG iterations of a logistic one.  The CG line search is
    Armijo backtracking with the module constants ``INITIAL_STEP``,
    ``SHRINK`` and ``SUFFICIENT_DECREASE``.  Frozen, like the other
    configs: ``dataclasses.replace`` makes a checked copy.
    """

    gamma_u: float = 0.01
    gamma_v: float = 0.01
    gamma_r: float = 0.01
    max_iterations: int = 500
    rel_tolerance: float = 1e-6
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if not all(0 <= gamma < math.inf for gamma in (self.gamma_u, self.gamma_v, self.gamma_r)):
            raise ValueError("regularization weights must be finite and nonnegative")
        _check_count("max_iterations", self.max_iterations, 1)
        _check_seed(self.seed)
        if not (0 < self.rel_tolerance < math.inf and 0 < self.init_scale < math.inf):
            raise ValueError("rel_tolerance and init_scale must be finite and positive")


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
    direction to steepest descent that a later search used: periodic, after
    a non-descent direction, for the stall retry, and after a small step
    that did not pass the convergence test.  An ALS sweep records step 1.0
    and 1 trial, its one objective evaluation, and no restarts.
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
    :func:`gradients` expose it to the oracles.  It is built over the fit's
    one ``model.ObservationGroups``, the CP kernel: the groups reconstruct,
    their labels ``y`` give the residuals, and their right-hand sides the
    gradient; ALS solves on the same groups' normal equations.  The groups
    build the arrays behind those on first use, so a value-only call builds
    none of the gradient's.  It owns the layout of the parameters as one
    flat vector: U, V and R raveled, in that order.  ``evaluations`` counts
    the :meth:`value` calls, which :func:`fit_map` records as trials.
    """

    def __init__(self, tensor: RelationalTensor, model_config: ModelConfig,
                 map_config: MapConfig):
        self.groups = ObservationGroups(tensor)
        self.use_logistic = model_config.use_logistic
        self.gammas = (map_config.gamma_u, map_config.gamma_v, map_config.gamma_r)
        self.n, self.t, self.d = tensor.n_objects, tensor.n_relations, model_config.rank
        self.evaluations = 0
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

    def value(self, x, bound=math.inf) -> float:
        """Objective at ``x``, or ``math.inf`` once it is known to exceed ``bound``.

        The link and the residual are computed ``_TRIAL_BLOCK`` entries at a
        time.  With a finite ``bound``, a running sum of squared residuals
        is kept after each block but the last, and the call returns
        ``math.inf`` without scoring the rest as soon as that sum, less
        ``_SUM_MARGIN`` of it for rounding, halved and plus the ridge term,
        exceeds ``bound``.  Every squared residual is nonnegative, so the
        objective is at least that much.  The exception is a NaN in the
        unscored part of the reconstruction: the objective is then NaN, and
        the call goes on to return it, for the caller's divergence check.

        A call that is not cut short returns the whole-array value,
        ``0.5 <resid, resid> + 0.5 ridge``, whatever ``bound`` is, and keeps
        the point's residual until the next call, for :meth:`gradient`; a
        call that is keeps none.
        """
        blocks = self.blocks(x)
        self.evaluations += 1
        self._last = None
        half_ridge = 0.5 * self._ridge(blocks)
        s = self.groups.reconstruct(*blocks)
        m = np.empty_like(s) if self.use_logistic else s
        resid = np.empty_like(s)
        size = max(s.size, 1)  # an empty tensor still gets one (empty) block
        block = _TRIAL_BLOCK if bound < math.inf else size
        squares = 0.0
        for start in range(0, size, block):
            rows = slice(start, start + block)
            if self.use_logistic:
                m[rows] = logistic(s[rows])
            np.subtract(self.groups.y[rows], m[rows], out=resid[rows])
            unscored = s[start + block:]
            if unscored.size:  # after the last block there is nothing left to skip
                squares += _inner(resid[rows], resid[rows])
                if (0.5 * squares * (1.0 - _SUM_MARGIN) + half_ridge > bound
                        and not np.isnan(unscored).any()):
                    return math.inf
        self._last = (blocks, m, resid)
        return 0.5 * _inner(resid, resid) + half_ridge

    def gradient(self):
        """Flat gradient at the point of the latest :meth:`value`.

        It is built from that call's residual, so a point already scored
        (an accepted line-search trial) gets it without a second
        reconstruction.  With residual e = y - m and link derivative l (1
        for the identity link, g(s)(1-g(s)) for the logistic), row i of dU
        accumulates -e * l * (V_j o R_t) over the observed entries of row
        i, plus the ridge term; dV and dR are symmetric.  Those sums are
        the Gibbs right-hand sides with weights -e * l in place of the
        labels.
        """
        blocks, m, resid = self._last
        w = -resid * m * (1.0 - m) if self.use_logistic else -resid
        products = self.groups.right_hand_sides(w, *blocks)
        return np.concatenate([(gamma * block + product).ravel() for gamma, block, product
                               in zip(self.gammas, blocks, products)])


def objective(factors: LatentFactors, tensor: RelationalTensor,
              model_config: ModelConfig, map_config: MapConfig) -> float:
    """Regularized weighted squared error at ``factors``."""
    return _Loss(tensor, model_config, map_config).value(_flat(factors.U, factors.V, factors.R))


def gradients(factors: LatentFactors, tensor: RelationalTensor,
              model_config: ModelConfig, map_config: MapConfig):
    """Exact gradient ``(dU, dV, dR)`` of :func:`objective` w.r.t. (U, V, R)."""
    loss = _Loss(tensor, model_config, map_config)
    loss.value(_flat(factors.U, factors.V, factors.R))
    return loss.blocks(loss.gradient())


def _flat(U, V, R) -> np.ndarray:
    return np.concatenate([U.ravel(), V.ravel(), R.ravel()])


def _backtrack(objective, x, f, grad, direction):
    """Armijo backtracking from ``x``, whose objective is ``f``, along
    ``direction``; returns the accepted step and its objective.

    ``objective(x, bound)`` scores each trial against its Armijo bound
    ``f + SUFFICIENT_DECREASE * step * slope`` and may return ``math.inf``
    for a trial it has proved above the bound (:meth:`_Loss.value`); each
    call is one trial.  A NaN trial ends the search and is returned, for
    the caller's divergence check.  Raises :class:`StallError` on a
    non-descent direction, or when the step underflows ``STEP_FLOOR``
    without sufficient decrease.
    """
    slope = _inner(grad, direction)
    if slope >= 0:
        raise StallError(f"not a descent direction (slope {slope:.3e})")
    step = INITIAL_STEP
    while step >= STEP_FLOOR:
        bound = f + SUFFICIENT_DECREASE * step * slope
        value = objective(x + step * direction, bound)
        if value <= bound or math.isnan(value):
            return step, value
        step *= SHRINK
    raise StallError(f"line search step underflowed below {STEP_FLOOR}")


def _small_change(tau, f, f_new) -> bool:
    """First part of the three-part test: ``f`` fell to ``f_new`` by under tau (1 + |f_new|)."""
    return f - f_new < tau * (1.0 + abs(f_new))


def fit_map(tensor: RelationalTensor, model_config: ModelConfig,
            map_config: MapConfig):
    """Fit factors by MAP: ALS sweeps under the identity link, Polak-Ribiere
    CG under the logistic link.

    Returns ``(factors, trace)``.  Deterministic for a fixed seed: the
    initialization, summation order, solves and line search are all fixed.
    Every traced objective is the loss kernel's value; each Armijo trial
    step is scored by the objective itself, until it is proved rejected.
    ``trace.termination`` names the stop, by the rules in the module
    docstring.  Under the identity link a row whose ridge system is
    singular (a zero ridge weight and no observations in the row) raises
    :class:`NotPositiveDefiniteError`.
    """
    if tensor.observed_count == 0:
        raise ValueError("cannot fit an empty tensor")
    tau = map_config.rel_tolerance
    loss = _Loss(tensor, model_config, map_config)
    # U, V and R drawn in that order, as one flat vector
    x = map_config.init_scale * substream(map_config.seed, "map-init").standard_normal(
        (2 * loss.n + loss.t) * loss.d)
    f = loss.value(x)
    trace = OptTrace(objectives=[f])
    # each step yields (x, f, gradient, moved, step) at its new point
    steps = (_conjugate_gradient(loss, x, f, tau, trace) if model_config.use_logistic
             else _alternating_least_squares(loss, x))
    for iteration in range(map_config.max_iterations):
        evaluations = loss.evaluations
        try:
            x_new, f_new, grad, moved, step = next(steps)
        except StallError:
            trace.termination = "stalled"
            break
        if not np.isfinite(f_new):
            raise DivergenceError(
                f"objective became non-finite at iteration {iteration}", iteration=iteration)
        if f_new >= f:
            # progress below float resolution; keep the previous iterate
            trace.termination = "no_progress"
            break
        grad_norm = math.sqrt(_inner(grad, grad))
        trace.objectives.append(f_new)
        trace.gradient_norms.append(grad_norm)
        trace.step_sizes.append(step)
        trace.trials.append(loss.evaluations - evaluations)
        small_change = _small_change(tau, f, f_new)
        x, f = x_new, f_new
        if (small_change and moved < math.sqrt(tau) * (1.0 + math.sqrt(_inner(x, x)))
                and grad_norm <= tau ** (1.0 / 3.0) * (1.0 + abs(f))):
            trace.termination = "converged"
            break
    else:
        trace.termination = "max_iterations"
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


def _alternating_least_squares(loss: _Loss, x):
    """Identity-link ALS sweeps from ``x``: steps of size 1.0 that never restart.

    A sweep takes 4 ``normal_terms`` calls: the V and R solves, V's terms
    at the swept point, and U's terms there, which give both this sweep's U
    gradient and the next sweep's U solve.  R's solve terms give R's
    gradient at the swept point, since they do not depend on R.
    """
    groups = loss.groups
    gamma_u, gamma_v, gamma_r = loss.gammas
    U, V, R = loss.blocks(x)
    terms_u = groups.normal_terms(0, U, V, R)
    while True:
        U = _ridge_solve(*terms_u, gamma_u, "U")
        V = _ridge_solve(*groups.normal_terms(1, U, V, R), gamma_v, "V")
        terms_r = groups.normal_terms(2, U, V, R)
        R = _ridge_solve(*terms_r, gamma_r, "R")
        x_new = _flat(U, V, R)
        f = loss.value(x_new)
        terms_u = groups.normal_terms(0, U, V, R)
        grad = np.concatenate([
            _block_gradient(*terms, block, gamma).ravel() for terms, block, gamma
            in ((terms_u, U, gamma_u), (groups.normal_terms(1, U, V, R), V, gamma_v),
                (terms_r, R, gamma_r))])
        moved = x_new - x
        x = x_new
        yield x, f, grad, math.sqrt(_inner(moved, moved)), 1.0


def _conjugate_gradient(loss: _Loss, x, f, tau, trace):
    """Polak-Ribiere CG steps with Armijo backtracking from ``x``, the point
    of the loss's latest value ``f``.  Each reset to steepest descent is
    counted in ``trace`` when it is made: the stall retry within a step, and
    a periodic or small-change reset when :func:`fit_map` resumes for the
    next step, so never after a stop.  A search that fails again from
    steepest descent raises StallError.
    """
    restart_every = (loss.n + loss.t) * loss.d
    grad = loss.gradient()
    direction = -grad
    for iteration in itertools.count(1):
        try:  # a non-descent direction fails at once, with no trial
            step, f_new = _backtrack(loss.value, x, f, grad, direction)
        except StallError:
            if np.array_equal(direction, -grad):
                raise
            direction = -grad  # restart CG and retry once from steepest descent
            trace.restarts += 1
            step, f_new = _backtrack(loss.value, x, f, grad, direction)
        # the accepted trial is the search's last evaluation
        grad_new = loss.gradient()
        x = x + step * direction
        yield x, f_new, grad_new, step * math.sqrt(_inner(direction, direction)), step
        if _small_change(tau, f, f_new) or iteration % restart_every == 0:
            direction = -grad_new
            trace.restarts += 1
        else:
            beta = max(0.0, _inner(grad_new, grad_new - grad) / _inner(grad, grad))
            direction = -grad_new + beta * direction
        f, grad = f_new, grad_new
