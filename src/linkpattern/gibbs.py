"""Hierarchical Bayesian inference by blocked Gibbs sampling.

The model places a Gamma prior on the noise precision and Gaussian priors
with Gaussian-Wishart hyperpriors on the rows of each factor matrix.  All
conditionals are conjugate under the identity link, so one sweep draws, in
order: the noise precision, the (mean, precision) hyperparameters of U, V
and R, then the rows of U, the rows of V given the new U, and the rows of
R given the new U and V.  The three hyperparameter draws are one stacked
Gaussian-Wishart draw, which takes its noise from the chain's generator in
the U, V, R order; the rows come from the public samplers
:func:`sample_u_rows`, :func:`sample_v_rows` and :func:`sample_r_rows`.
Predictions average the per-draw model means over the retained samples,
which a :class:`SampleSet` holds as stacked arrays with a leading draw axis.

Conjugacy requires the identity link, so sweeps always use it internally;
per-sample predictive means are clamped into [0, 1] at reporting time.
A chain's residuals, log-likelihoods and per-row normal equations come
from one ``model.ObservationGroups``, the CP kernel the MAP fit shares.
The samplers take it as ``groups``; it must have been built over the very
tensor object passed with it, and ValueError is raised otherwise.
"""

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DimensionMismatchError, NotPositiveDefiniteError
from .model import (LatentFactors, ModelConfig, ObservationGroups, _check_count, _check_tensor,
                    _checked_factors, _coordinates, _gather_blocks, _gathered_sums,
                    _gaussian_log_likelihood, _grid_blocks, _grid_cells, _inner, _takes_grid,
                    logistic)
from .rng import _check_seed, substream
from .tensor import RelationalTensor

logger = logging.getLogger(__name__)

_JITTER_RETRIES = 3

@dataclass(frozen=True)
class HyperPriors:
    """Fixed top-level hyperparameters of the hierarchical model.

    gamma_shape/gamma_scale parameterize the Gamma prior on the noise
    precision (shape-scale convention).  (mu0, kappa0, w0, nu0) are the
    Gaussian-Wishart hyperprior for the object-factor rows; kappa_t
    replaces kappa0 for the relation-factor rows.  ``w0_inv``, the inverse
    of w0, is derived on construction.  Instances are frozen, so w0_inv and
    the checks always match the fields; ``dataclasses.replace`` makes a
    checked copy with fields changed.
    """

    mu0: np.ndarray
    w0: np.ndarray
    nu0: float
    gamma_shape: float = 5.0
    gamma_scale: float = 1.0
    kappa0: float = 2.0
    kappa_t: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=np.float64))
        object.__setattr__(self, "w0", np.asarray(self.w0, dtype=np.float64))
        d = self.mu0.size
        if self.mu0.ndim != 1 or self.w0.shape != (d, d):
            raise DimensionMismatchError(
                f"mu0 {self.mu0.shape} and w0 {self.w0.shape} are inconsistent")
        if not (np.isfinite(self.mu0).all() and np.isfinite(self.w0).all()):
            raise ValueError("mu0 and w0 must be finite")
        if not d <= self.nu0 < math.inf:
            raise ValueError(f"nu0 must be finite and >= {d}, got {self.nu0}")
        if not all(0 < value < math.inf for value in (self.gamma_shape, self.gamma_scale,
                                                       self.kappa0, self.kappa_t)):
            raise ValueError(
                "gamma_shape, gamma_scale, kappa0, kappa_t must be finite and positive")
        if not np.allclose(self.w0, self.w0.T):
            raise ValueError("w0 must be symmetric")
        try:
            np.linalg.cholesky(self.w0)
        except np.linalg.LinAlgError:
            raise ValueError("w0 must be positive-definite") from None
        # derived, not a field: every hyper draw reads it
        object.__setattr__(self, "w0_inv", np.linalg.inv(self.w0))

    @property
    def rank(self) -> int:
        return self.mu0.shape[0]

    @classmethod
    def default(cls, rank: int, **overrides) -> "HyperPriors":
        """Untuned defaults: mu0 = 0, w0 = I and nu0 = rank; the other fields
        keep their class defaults.  ``overrides`` replace any of them."""
        base = dict(mu0=np.zeros(rank), w0=np.eye(rank), nu0=float(rank))
        base.update(overrides)
        return cls(**base)


@dataclass
class FactorHyperState:
    """Sampled (mean, precision) of one factor's row prior."""

    mu: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.precision = np.asarray(self.precision, dtype=np.float64)
        d = self.mu.shape[0]
        if self.precision.shape != (d, d):
            raise DimensionMismatchError(
                f"mu {self.mu.shape} and precision {self.precision.shape} are inconsistent")


@dataclass(frozen=True)
class ChainConfig:
    """Gibbs chain settings.

    ``init_factors=None`` starts from small random factors; passing a
    fitted :class:`LatentFactors` warm-starts the chain from it.
    Retained draws number ``(num_samples - burn_in) // thin``.  Frozen, like
    the other configs: ``dataclasses.replace`` makes a checked copy.
    """

    num_samples: int = 300
    burn_in: int = 50
    thin: int = 1
    seed: int = 0
    init_factors: Optional[LatentFactors] = None

    def __post_init__(self):
        _check_count("num_samples", self.num_samples, 1, ConfigError)
        _check_count("burn_in", self.burn_in, 0, ConfigError)
        _check_count("thin", self.thin, 1, ConfigError)
        _check_seed(self.seed, ConfigError)
        if self.retained_count < 1:
            raise ConfigError(
                f"no retained draws: num_samples={self.num_samples}, "
                f"burn_in={self.burn_in}, thin={self.thin}")

    @property
    def retained_count(self) -> int:
        return (self.num_samples - self.burn_in) // self.thin


@dataclass(frozen=True)
class SampleSet:
    """Retained posterior draws, stacked along a leading draw axis, plus
    per-sweep diagnostics.

    Draw s is ``U[s]``, ``V[s]``, ``R[s]`` and ``alpha[s]``: U and V are
    (S, N, D), R is (S, T, D) and alpha is (S,).  The stacks are checked
    once, when the set is built, by the check each :class:`LatentFactors`
    makes, and kept as read-only views, so the checks hold for the set's
    life: ValueError for an empty stack or an entry that is not finite or a
    noise precision that is not positive, DimensionMismatchError for shapes
    that disagree.  ``log_likelihoods`` holds one value per sweep, burn-in
    included.  :meth:`of` stacks a sequence of LatentFactors, and ``draws``
    gives them back as views.
    """

    U: np.ndarray
    V: np.ndarray
    R: np.ndarray
    alpha: np.ndarray
    log_likelihoods: list = field(default_factory=list)

    def __post_init__(self):
        checked = _checked_factors(self.U, self.V, self.R, self.alpha, lead=1)
        for name, value in zip(("U", "V", "R", "alpha"), checked):
            object.__setattr__(self, name, np.lib.stride_tricks.as_strided(value, writeable=False))

    @classmethod
    def of(cls, draws, log_likelihoods=()) -> "SampleSet":
        """The set of the LatentFactors in the sequence ``draws``, stacked in order.

        Raises DimensionMismatchError for draws of different shapes, and
        ValueError for no draws.
        """
        if len({(f.U.shape, f.R.shape) for f in draws}) > 1:
            raise DimensionMismatchError("draws of one sample set must share their shapes")
        return cls(*(np.array([getattr(f, name) for f in draws])
                     for name in ("U", "V", "R", "alpha")), list(log_likelihoods))

    @property
    def draws(self) -> tuple:
        """The draws in order, as LatentFactors views of the stacks."""
        return tuple(map(LatentFactors, self.U, self.V, self.R, self.alpha))

    def __len__(self) -> int:
        return len(self.alpha)


@dataclass
class GibbsState:
    """Full sampler state: model factors and per-factor hyper states.

    ``residual``, when set, holds the observed values minus the
    identity-link reconstruction at ``factors``, in entry order.
    :func:`run_chain` fills it in from the log-likelihood it records after
    each sweep, and the next :func:`gibbs_sweep` draws the noise precision
    from it without reconstructing again.  Nothing tracks edits to the
    factors: a caller that edits them must set it back to None.
    """

    factors: LatentFactors
    hyper_u: FactorHyperState
    hyper_v: FactorHyperState
    hyper_r: FactorHyperState
    residual: Optional[np.ndarray] = None


def _chol_jitter(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retrying with a scaled diagonal jitter; a
    jittered factor logs a warning with the jitter."""
    sym = 0.5 * (mat + mat.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    d = mat.shape[0]
    jitter = 1e-10 * max(np.trace(sym) / d, 1.0)
    for _ in range(_JITTER_RETRIES):
        try:
            chol = np.linalg.cholesky(sym + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            jitter *= 10.0
            continue
        logger.warning("%dx%d matrix not positive-definite: Cholesky factor taken "
                       "with diagonal jitter %.3g", d, d, jitter)
        return chol
    raise NotPositiveDefiniteError(
        f"matrix not positive-definite after {_JITTER_RETRIES} jitter retries")


@functools.lru_cache(maxsize=None)
def _strict_lower(d: int) -> np.ndarray:
    """Flat indices of a D x D matrix's strict lower triangle, row by row
    (read-only: every draw of rank D shares the array)."""
    below = np.flatnonzero(np.tri(d, k=-1, dtype=bool))
    below.flags.writeable = False
    return below


def _sample_gaussian_wishart(rng: np.random.Generator, mu: np.ndarray, kappa: np.ndarray,
                             df: np.ndarray, scale: np.ndarray):
    """K (mean, precision) draws, draw k from the Gaussian-Wishart
    NW(mu_k, kappa_k, df_k, scale_k); returns the (K, D) means and the
    (K, D, D) precisions.

    ``mu`` is (K, D), ``kappa`` and ``df`` are (K,), and ``scale`` is a
    (K, D, D) stack of symmetric matrices (the Cholesky factor reads their
    lower triangles).  Each precision is a Bartlett draw M M^T with
    M = chol(scale) A: A is lower triangular with sqrt(chi2(df - k)) on its
    diagonal and standard normals below it, in row-major order.  M has a
    positive diagonal, so it is the precision's Cholesky factor, and the
    mean mu + M^-T z / sqrt(kappa), a draw from N(mu, (kappa precision)^-1),
    takes one solve with M^T.

    The generator gives the problems their noise one after another: the
    chi-square diagonal, then the normals below it and z, in one call.  The
    Cholesky factors, the products and the solve are one stacked call each,
    which numpy makes matrix by matrix with the LAPACK or BLAS call of one
    matrix, so draw k is bitwise a K = 1 draw after the draws before it.
    Only if the stacked Cholesky fails does each scale go through
    :func:`_chol_jitter`, which logs a jittered factor.
    """
    k_count, d = mu.shape
    below = _strict_lower(d)
    steps = np.arange(d)
    chi2 = np.empty((k_count, d))
    normals = np.empty((k_count, below.size + d))
    for k in range(k_count):
        chi2[k] = rng.chisquare(df[k] - steps)
        rng.standard_normal(out=normals[k])
    A = np.zeros((k_count, d * d))
    A[:, ::d + 1] = np.sqrt(chi2)
    A[:, below] = normals[:, :below.size]
    A = A.reshape(k_count, d, d)
    try:
        chol = np.linalg.cholesky(scale)
    except np.linalg.LinAlgError:
        chol = np.stack([_chol_jitter(s) for s in scale])
    M = chol @ A
    z = normals[:, below.size:, None]
    mean = mu + np.linalg.solve(M.mT, z)[..., 0] / np.sqrt(kappa)[:, None]
    return mean, M @ M.mT


def _sample_gaussian_stack(rng: np.random.Generator, precision: np.ndarray,
                          rhs: np.ndarray) -> np.ndarray:
    """One draw per row k from N(P_k^-1 b_k, P_k^-1), rows drawn together.

    ``precision`` is a (rows, D, D) stack (or anything that broadcasts to
    it) and ``rhs`` the (rows, D) right-hand sides b_k.  Each row is drawn by
    perturb-then-solve (Papandreou & Yuille 2010; Orieux, Feron & Giovannelli
    2012): x = P^-1 (b + L z) with P = L L^T and z standard normal, which has
    mean P^-1 b and covariance P^-1 L L^T P^-1 = P^-1.  The whole stack takes
    one Cholesky, for L, and one LU solve, the solve ALS makes for MAP.  The
    price is accuracy: the noise term's rounding error grows with the
    condition number kappa(P), where the two triangular solves of
    P^-1 b + L^-T z kept it to sqrt(kappa(P)).  Only if the stacked Cholesky
    fails does each row go through :func:`_chol_jitter`, which raises
    :class:`NotPositiveDefiniteError` for a row it cannot repair; each row
    then solves its own, possibly jittered, L L^T.  The fallback and each
    jittered row log a warning.  The noise is one ``standard_normal((rows,
    D))`` call, the same numbers in the same order as one call per row.  The
    synthetic generator, which knows its rows' mean, passes zero right-hand
    sides and adds the mean afterwards, which keeps the rounding of
    P^-1 (P mu) out of ill-conditioned draws.
    """
    sym = 0.5 * (precision + precision.mT)
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        sym = np.broadcast_to(sym, rhs.shape + rhs.shape[-1:])
        logger.warning("stacked Cholesky of %d precision matrices failed: "
                       "factorising each on its own", len(sym))
        chol = np.stack([_chol_jitter(p) for p in sym])
        sym = chol @ chol.mT  # the jittered systems
    z = rng.standard_normal(rhs.shape)
    # P^-1 (b + L z) == P^-1 b + L^-T z for P = L L^T
    perturbed = rhs[..., None] + np.matmul(chol, z[..., None])
    return np.linalg.solve(sym, perturbed)[..., 0]


def _gaussian_wishart_posteriors(blocks, priors: HyperPriors):
    """Posterior Gaussian-Wishart parameters given the factor rows of each
    ``(rows, kappa)`` in ``blocks``, stacked over a leading problem axis.

    Returns ``(mu_star, kappa_star, nu_star, w_star)``: (K, D) means, (K,)
    kappa* and nu*, and (K, D, D) Wishart scales, which already hold the
    scatter and mean-shift terms and are inverted from their inverses in
    one call.  Raises DimensionMismatchError unless each ``rows`` is 2-D
    with ``priors.rank`` columns, and ValueError when one has no rows.
    """
    mu_star, kappa_star, nu_star, w_inv = zip(*(_scale_inverse(rows, priors, kappa)
                                                for rows, kappa in blocks))
    w_star = np.linalg.inv(np.array(w_inv))
    return (np.array(mu_star), np.array(kappa_star), np.array(nu_star),
            0.5 * (w_star + w_star.mT))


def _scale_inverse(rows, priors: HyperPriors, kappa: float):
    """``(mu_star, kappa_star, nu_star, w_star^-1)`` of one factor's rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != priors.rank:
        raise DimensionMismatchError(
            f"rows {rows.shape} do not match hyperprior rank {priors.rank}")
    m = rows.shape[0]
    if m < 1:
        raise ValueError("need at least one row")
    mean = rows.mean(axis=0)
    centered = rows - mean
    scatter = centered.T @ centered
    kappa_star = kappa + m
    mu_star = (kappa * priors.mu0 + m * mean) / kappa_star
    shift = mean - priors.mu0
    w_inv = priors.w0_inv + scatter + (kappa * m / kappa_star) * (shift[:, None] * shift)
    return mu_star, kappa_star, priors.nu0 + m, 0.5 * (w_inv + w_inv.T)


def sample_factor_hypers(rows: np.ndarray, priors: HyperPriors, kappa: float,
                         rng: np.random.Generator) -> FactorHyperState:
    """Draw (mu, precision) for one factor from its Gaussian-Wishart conditional."""
    return _draw_factor_hypers([(rows, kappa)], priors, rng)[0]


def _draw_factor_hypers(blocks, priors: HyperPriors, rng: np.random.Generator) -> list:
    """:func:`sample_factor_hypers` for each ``(rows, kappa)`` in ``blocks``, in
    order, as one stacked Gaussian-Wishart draw."""
    mean, precision = _sample_gaussian_wishart(rng, *_gaussian_wishart_posteriors(blocks, priors))
    return [FactorHyperState(m, p) for m, p in zip(mean, precision)]


def sample_alpha(factors: LatentFactors, tensor: RelationalTensor,
                 priors: HyperPriors, rng: np.random.Generator,
                 groups: Optional[ObservationGroups] = None) -> float:
    """Draw the noise precision from its Gamma conditional.

    Shape gains half the observation count; the scale update adds half the
    identity-link squared error to the inverse scale.  With no data the
    posterior is the prior.  The residuals come from the chain's ``groups``
    when it passes them, from a kernel built over ``tensor`` otherwise.
    Raises DimensionMismatchError when the factors do not fit the tensor.
    """
    return _draw_alpha(_groups(factors, tensor, groups).residual(factors), priors, rng)


def _draw_alpha(resid: np.ndarray, priors: HyperPriors, rng: np.random.Generator) -> float:
    """The noise-precision draw of :func:`sample_alpha` from the residuals ``resid``."""
    shape = priors.gamma_shape + 0.5 * resid.size
    scale = (1.0 / (1.0 / priors.gamma_scale + 0.5 * _inner(resid, resid)) if resid.size
             else priors.gamma_scale)
    return float(rng.gamma(shape, scale))


def _groups(factors: LatentFactors, tensor: RelationalTensor,
            groups: Optional[ObservationGroups]) -> ObservationGroups:
    """A chain's ``groups``, or the tensor's own for a call outside a chain.

    Raises DimensionMismatchError when the factors do not fit the tensor,
    and ValueError when ``groups`` was built over another tensor object.
    """
    _check_tensor(factors, tensor)
    if groups is None:
        return ObservationGroups(tensor)
    if groups.tensor is not tensor:
        raise ValueError("groups were built over another tensor")
    return groups


def _draw_factor_rows(groups: ObservationGroups, mode: int, factors: LatentFactors,
                      hyper: FactorHyperState, rng: np.random.Generator) -> np.ndarray:
    """Draw every row of factor ``mode`` from its Gaussian conditional.

    Rows with no observations keep the hyperprior's precision and
    right-hand side.  Rows are conditionally independent, so their
    precisions are stacked and drawn by :func:`_sample_gaussian_stack`.
    """
    if hyper.mu.size != factors.rank:
        raise DimensionMismatchError(
            f"hyper state of rank {hyper.mu.size} does not match factor rank {factors.rank}")
    gram, xty = groups.normal_terms(mode, factors)
    return _sample_gaussian_stack(rng, hyper.precision + factors.alpha * gram,
                                  hyper.precision @ hyper.mu + factors.alpha * xty)


def sample_u_rows(factors: LatentFactors, tensor: RelationalTensor,
                  hyper_u: FactorHyperState, rng: np.random.Generator,
                  groups: Optional[ObservationGroups] = None) -> np.ndarray:
    """Draw a new sender-factor matrix U row by row."""
    groups = _groups(factors, tensor, groups)
    return _draw_factor_rows(groups, 0, factors, hyper_u, rng)


def sample_v_rows(factors: LatentFactors, tensor: RelationalTensor,
                  hyper_v: FactorHyperState, rng: np.random.Generator,
                  groups: Optional[ObservationGroups] = None) -> np.ndarray:
    """Draw a new receiver-factor matrix V; U's update with i and j swapped."""
    groups = _groups(factors, tensor, groups)
    return _draw_factor_rows(groups, 1, factors, hyper_v, rng)


def sample_r_rows(factors: LatentFactors, tensor: RelationalTensor,
                  hyper_r: FactorHyperState, rng: np.random.Generator,
                  groups: Optional[ObservationGroups] = None) -> np.ndarray:
    """Draw a new relation-factor matrix R.

    The per-relation precision accumulates the elementwise products
    (U_i o V_j)(U_i o V_j)^T over the relation's observed entries.
    """
    groups = _groups(factors, tensor, groups)
    return _draw_factor_rows(groups, 2, factors, hyper_r, rng)


def gibbs_sweep(state: GibbsState, tensor: RelationalTensor, priors: HyperPriors,
                rng: np.random.Generator, groups: Optional[ObservationGroups] = None,
                sample_relations: bool = True) -> GibbsState:
    """One full sweep updating every block exactly once.

    Order: noise precision, then the hyperparameters of U, V and R, then
    the rows of U, then V conditioned on the new U, then R conditioned on
    the new U and V.  The hyperparameters are one stacked Gaussian-Wishart
    draw whose noise ``rng`` gives in the U, V, R order, so they are bitwise
    three :func:`sample_factor_hypers` calls in that order.  The rows are
    drawn by the public :func:`sample_u_rows`, :func:`sample_v_rows` and
    :func:`sample_r_rows`.  With ``sample_relations=False`` the relation
    factor and its hyperparameters are left untouched (frozen-R mode) and
    the stack holds U and V alone.  The noise precision is drawn from
    ``state.residual`` when it is set (a chain's last log-likelihood
    residual), by :func:`sample_alpha` otherwise; the returned state has no
    residual.  The returned factors are checked whole, the new draws with
    them.  Raises DimensionMismatchError when the factors do not fit the
    tensor, or a residual is not one value per observed entry.
    """
    f = state.factors
    groups = _groups(f, tensor, groups)
    if state.residual is not None and np.shape(state.residual) != (tensor.observed_count,):
        raise DimensionMismatchError(f"residual shape {np.shape(state.residual)}, expected "
                                     f"({tensor.observed_count},)")
    alpha = (_draw_alpha(state.residual, priors, rng) if state.residual is not None
             else sample_alpha(f, tensor, priors, rng, groups))
    blocks = [(f.U, priors.kappa0), (f.V, priors.kappa0)]
    if sample_relations:
        blocks.append((f.R, priors.kappa_t))
    hypers = _draw_factor_hypers(blocks, priors, rng)
    hyper_u, hyper_v = hypers[:2]
    hyper_r = hypers[2] if sample_relations else state.hyper_r

    # one working state takes each block's draw in turn
    current = LatentFactors(f.U, f.V, f.R, alpha)
    current.U = sample_u_rows(current, tensor, hyper_u, rng, groups)
    current.V = sample_v_rows(current, tensor, hyper_v, rng, groups)
    if sample_relations:
        current.R = sample_r_rows(current, tensor, hyper_r, rng, groups)
    return GibbsState(LatentFactors(current.U, current.V, current.R, alpha),
                      hyper_u, hyper_v, hyper_r)


def run_chain(tensor: RelationalTensor, model_config: ModelConfig,
              priors: HyperPriors, config: ChainConfig,
              frozen_relations: Optional[np.ndarray] = None) -> SampleSet:
    """Run one Gibbs chain and return the retained draws, stacked.

    Sweeps use the identity link regardless of ``model_config.use_logistic``
    (conjugacy requires it); the flag only affects downstream prediction.
    ``frozen_relations`` fixes R to a copy of the given T x D matrix and
    excludes it from sampling (used by the per-slice baseline).
    Deterministic for a fixed config.  One reconstruction per sweep: the
    residual behind each sweep's log-likelihood is kept on the state, and
    the next sweep draws its noise precision from it.
    """
    d = model_config.rank
    if priors.rank != d:
        raise DimensionMismatchError(
            f"hyperprior rank {priors.rank} does not match model rank {d}")
    n, T = tensor.n_objects, tensor.n_relations
    rng = substream(config.seed, "chain")
    sample_relations = frozen_relations is None

    if config.init_factors is not None:
        f0 = config.init_factors
        if f0.n_objects != n or f0.rank != d or (sample_relations and f0.n_relations != T):
            raise DimensionMismatchError("init_factors do not match tensor/model dimensions")
        u0, v0, alpha0 = f0.U.copy(), f0.V.copy(), f0.alpha
    else:
        u0 = 0.1 * rng.standard_normal((n, d))
        v0 = 0.1 * rng.standard_normal((n, d))
        alpha0 = 1.0
    if not sample_relations:
        r0 = np.array(frozen_relations, dtype=np.float64)
    elif config.init_factors is not None:
        r0 = config.init_factors.R.copy()
    else:  # drawn after U and V: the draw order fixes every chain
        r0 = 0.1 * rng.standard_normal((T, d))
    if r0.shape != (T, d):
        raise DimensionMismatchError(f"relation factor shape {r0.shape}, expected {(T, d)}")

    placeholder = FactorHyperState(priors.mu0.copy(), np.eye(d))
    state = GibbsState(LatentFactors(u0, v0, r0, alpha0),
                       placeholder, placeholder, placeholder)
    groups = ObservationGroups(tensor)

    draws, log_likelihoods = [], []
    for sweep in range(config.num_samples):
        state = gibbs_sweep(state, tensor, priors, rng, groups, sample_relations)
        state.residual = groups.residual(state.factors)
        log_likelihoods.append(  # model.log_likelihood under the identity link
            _gaussian_log_likelihood(state.residual, state.factors.alpha))
        if sweep >= config.burn_in and (sweep - config.burn_in + 1) % config.thin == 0:
            draws.append(state.factors)
    return SampleSet.of(draws, log_likelihoods)


def predictive_scores(samples: SampleSet, ii, jj, tt,
                      model_config: ModelConfig) -> np.ndarray:
    """Monte-Carlo predictive mean over retained draws for coordinate arrays.

    Each draw's prediction is clamped into [0, 1] before averaging, so the
    result is a valid score even under the identity link.  Raises
    IndexError for a coordinate outside [0, N) or [0, T), and ValueError
    for one that is not an exact integer.  The set's stacks were checked
    when it was built; the scores loop over its draws one at a time.

    The coordinates take the form that their count picks
    (``model._takes_grid``):

    * below ``model.GRID_SHARE`` of the N x N x T cells, the blocked gather
      (``model._gather_blocks``): each draw's factor rows for a block are
      gathered into three reused (block, D) buffers and that draw's clamped
      prediction is added to the block's running total, so memory beyond
      the result stays O(block D);
    * from there up, the grid form (``model._grid_blocks``): each draw's
      clamped prediction of every cell is added, a block of sender rows at
      a time, into one (N, N, T) total, from which the coordinates are then
      read.  Memory beyond the result is that total, at most twice the
      result, and the blocks' buffers.

    Both forms sum every cell in the same order with the same ``einsum``
    kernel and add the draws in draw order, so every score is bitwise that
    of gathering whole (E, D) arrays per draw and depends only on its own
    coordinate; one draw scores as ``predict_entries``, which always takes
    the gather, clamped into [0, 1].
    """
    (_, n, rank), t = samples.U.shape, samples.R.shape[1]
    ii, jj, tt = _coordinates(ii, jj, tt, n, t)

    def clamped(s):
        linked = logistic(s) if model_config.use_logistic else s
        return np.clip(linked, 0.0, 1.0, out=linked)

    if _takes_grid(ii.size, n, t):
        total = np.zeros((n, n, t))
        for U, V, R in zip(samples.U, samples.V, samples.R):
            for rows, s in _grid_blocks(U, V, R):
                total[rows] += clamped(s)
        scores = _grid_cells(total, ii, jj, tt)
    else:
        scores = np.zeros(ii.size)
        for rows, block in _gather_blocks(ii, jj, tt, rank):
            block_total = scores[rows]
            for U, V, R in zip(samples.U, samples.V, samples.R):
                block_total += clamped(_gathered_sums(U, V, R, *block))
    scores /= len(samples)
    return scores
