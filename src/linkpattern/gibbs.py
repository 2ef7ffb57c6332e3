"""Hierarchical Bayesian inference by blocked Gibbs sampling.

The model places a Gamma prior on the noise precision and Gaussian priors
with Gaussian-Wishart hyperpriors on the rows of each factor matrix.  All
conditionals are conjugate under the identity link, so one sweep draws, in
order: the noise precision, the (mean, precision) hyperparameters of U, V
and R, then the rows of U, the rows of V given the new U, and the rows of
R given the new U and V.  Predictions average the per-draw model means
over the retained samples.

Conjugacy requires the identity link, so sweeps always use it internally;
per-sample predictive means are clamped into [0, 1] at reporting time.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DimensionMismatchError, NotPositiveDefiniteError
from .model import (LatentFactors, ModelConfig, _check_tensor, _coordinates, _Entries,
                    _gaussian_log_likelihood, _inner, logistic, reconstruct_entries)
from .rng import substream
from .tensor import RelationalTensor

logger = logging.getLogger(__name__)

_JITTER_RETRIES = 3

# Coordinates per block of predictive_scores.  Whole predictive_scores
# times in ms over all N x N x T coordinates, identity link, medians of 15
# interleaved runs (one BLAS thread, 2-vCPU Xeon VM, numpy 2.4):
#   block                          1024  2048  4096  8192  16384  whole
#   N=104, T=26, D=11,   4 draws     70    57    53    61     65    109
#   N=50,  T=5,  D=5,  250 draws    150   118   106    92    102     95
#   N=300, T=20, D=11,   4 draws    403   339   314   352    392    824
# The three (block, D) buffers and the block's totals stay in cache near
# 4096 rows; whole-array gathers ("whole") spill at the larger sizes.
_SCORE_BLOCK = 4096


@dataclass
class HyperPriors:
    """Fixed top-level hyperparameters of the hierarchical model.

    gamma_shape/gamma_scale parameterize the Gamma prior on the noise
    precision (shape-scale convention).  (mu0, kappa0, w0, nu0) are the
    Gaussian-Wishart hyperprior for the object-factor rows; kappa_t
    replaces kappa0 for the relation-factor rows.  ``w0_inv``, the inverse
    of w0, is derived on construction.
    """

    mu0: np.ndarray
    w0: np.ndarray
    nu0: float
    gamma_shape: float = 5.0
    gamma_scale: float = 1.0
    kappa0: float = 2.0
    kappa_t: float = 1.0

    def __post_init__(self):
        self.mu0 = np.asarray(self.mu0, dtype=np.float64)
        self.w0 = np.asarray(self.w0, dtype=np.float64)
        d = self.mu0.size
        if self.mu0.ndim != 1 or self.w0.shape != (d, d):
            raise DimensionMismatchError(
                f"mu0 {self.mu0.shape} and w0 {self.w0.shape} are inconsistent")
        if self.nu0 < d:
            raise ValueError(f"nu0 must be >= {d}, got {self.nu0}")
        if min(self.gamma_shape, self.gamma_scale, self.kappa0, self.kappa_t) <= 0:
            raise ValueError("gamma_shape, gamma_scale, kappa0, kappa_t must be positive")
        if not np.allclose(self.w0, self.w0.T):
            raise ValueError("w0 must be symmetric")
        try:
            np.linalg.cholesky(self.w0)
        except np.linalg.LinAlgError:
            raise ValueError("w0 must be positive-definite") from None
        # derived, not a field: every hyper draw reads it
        self.w0_inv = np.linalg.inv(self.w0)

    @property
    def rank(self) -> int:
        return self.mu0.shape[0]

    @classmethod
    def default(cls, rank: int, **overrides) -> "HyperPriors":
        """Untuned defaults: mu0 = 0, w0 = I, nu0 = rank, shape 5, scale 1,
        kappa0 = 2, kappa_t = 1."""
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


@dataclass
class ChainConfig:
    """Gibbs chain settings.

    ``init_factors=None`` starts from small random factors; passing a
    fitted :class:`LatentFactors` warm-starts the chain from it.
    Retained draws number ``(num_samples - burn_in) // thin``.
    """

    num_samples: int = 300
    burn_in: int = 50
    thin: int = 1
    seed: int = 0
    init_factors: Optional[LatentFactors] = None

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError("num_samples must be positive")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if self.thin < 1:
            raise ConfigError("thin must be positive")
        if self.retained_count < 1:
            raise ConfigError(
                f"no retained draws: num_samples={self.num_samples}, "
                f"burn_in={self.burn_in}, thin={self.thin}")

    @property
    def retained_count(self) -> int:
        return (self.num_samples - self.burn_in) // self.thin


@dataclass
class SampleSet:
    """Ordered retained posterior draws plus per-sweep diagnostics."""

    draws: list = field(default_factory=list)
    log_likelihoods: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.draws)


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


def _sample_gaussian_wishart(rng: np.random.Generator, mu: np.ndarray, kappa: float,
                             df: float, scale: np.ndarray) -> FactorHyperState:
    """One (mean, precision) draw from the Gaussian-Wishart NW(mu, kappa, df, scale).

    The precision is a Bartlett draw M M^T with M = chol(scale) A: A is
    lower triangular with sqrt(chi2(df - k)) on its diagonal and standard
    normals below it, in row-major order.  M has a positive diagonal, so it
    is the precision's Cholesky factor, and the mean mu + M^-T z / sqrt(kappa),
    a draw from N(mu, (kappa precision)^-1), takes one solve with M^T.
    """
    d = mu.size
    A = np.zeros((d, d))
    A[np.diag_indices(d)] = np.sqrt(rng.chisquare(df - np.arange(d)))
    A[np.tri(d, k=-1, dtype=bool)] = rng.standard_normal(d * (d - 1) // 2)
    M = _chol_jitter(scale) @ A
    z = rng.standard_normal(d)
    return FactorHyperState(mu + np.linalg.solve(M.T, z) / np.sqrt(kappa), M @ M.T)


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
    precision = np.broadcast_to(precision, rhs.shape + rhs.shape[-1:])
    sym = 0.5 * (precision + np.swapaxes(precision, -1, -2))
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        logger.warning("stacked Cholesky of %d precision matrices failed: "
                       "factorising each on its own", len(sym))
        chol = np.stack([_chol_jitter(p) for p in sym])
        sym = np.matmul(chol, np.swapaxes(chol, -1, -2))  # the jittered systems
    z = rng.standard_normal(rhs.shape)
    # P^-1 (b + L z) == P^-1 b + L^-T z for P = L L^T
    perturbed = rhs[..., None] + np.matmul(chol, z[..., None])
    return np.linalg.solve(sym, perturbed)[..., 0]


def gaussian_wishart_posterior(rows: np.ndarray, priors: HyperPriors, kappa: float):
    """Posterior Gaussian-Wishart parameters given factor rows.

    Returns ``(mu_star, kappa_star, nu_star, w_star)`` where the Wishart
    scale ``w_star`` already incorporates the scatter and mean-shift terms.
    Raises DimensionMismatchError unless ``rows`` is 2-D with ``priors.rank``
    columns, and ValueError when it has no rows.
    """
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
    nu_star = priors.nu0 + m
    mu_star = (kappa * priors.mu0 + m * mean) / kappa_star
    shift = mean - priors.mu0
    w_inv = priors.w0_inv + scatter + (kappa * m / kappa_star) * np.outer(shift, shift)
    w_star = np.linalg.inv(0.5 * (w_inv + w_inv.T))
    return mu_star, kappa_star, nu_star, 0.5 * (w_star + w_star.T)


def sample_factor_hypers(rows: np.ndarray, priors: HyperPriors, kappa: float,
                         rng: np.random.Generator) -> FactorHyperState:
    """Draw (mu, precision) for one factor from its Gaussian-Wishart conditional."""
    return _sample_gaussian_wishart(rng, *gaussian_wishart_posterior(rows, priors, kappa))


def sample_alpha(factors: LatentFactors, tensor: RelationalTensor,
                 priors: HyperPriors, rng: np.random.Generator,
                 groups: Optional["ObservationGroups"] = None) -> float:
    """Draw the noise precision from its Gamma conditional.

    Shape gains half the observation count; the scale update adds half the
    identity-link squared error to the inverse scale.  With no data the
    posterior is the prior.  A chain passes its ``groups``, whose CP kernel
    it reuses every sweep.  Raises DimensionMismatchError when the factors
    do not fit the tensor.
    """
    _check_tensor(factors, tensor)
    ii, jj, tt, yy = tensor.entry_arrays()
    resid = yy
    if yy.size:
        resid = (groups.residual(factors) if groups is not None
                 else yy - reconstruct_entries(factors, ii, jj, tt))
    return _draw_alpha(resid, priors, rng)


def _draw_alpha(resid: np.ndarray, priors: HyperPriors, rng: np.random.Generator) -> float:
    """The noise-precision draw of :func:`sample_alpha` from the residuals ``resid``."""
    shape = priors.gamma_shape + 0.5 * resid.size
    scale = (1.0 / (1.0 / priors.gamma_scale + 0.5 * _inner(resid, resid)) if resid.size
             else priors.gamma_scale)
    return float(rng.gamma(shape, scale))


class ObservationGroups:
    """A tensor's observed entries, arranged once per chain or MAP fit for
    the conditionals and the gradient.

    ``entries`` is the one ``model._Entries``; the noise-precision residual,
    the chain's log-likelihoods and the MAP loss run on it, and its form
    decides the form of the normal equations.  The right-hand sides take
    the labels (:meth:`normal_terms`) or, for the MAP gradient, per-entry
    weights (:meth:`right_hand_sides`) along one path:

    * **masked**, when the entries take the masked-dense form (at most
      ``DENSE_CELLS_PER_ENTRY`` cells per entry).  ``slices`` holds the
      zero-filled (T, N, N) labels Y_t and ``masks`` a (K, N, N) stack of
      0/1 masks: K = 1, the fiber mask m_ij, when every observed fiber holds
      all T entries (m_ijt = m_ij for every t), and K = T, the entry masks
      m_ijt, otherwise.  Each Gram is a sum over k of Hadamard products of
      small Grams (Kolda & Bader 2009, §3.4), and each right-hand side one
      batched product ``Y_t @ V`` or ``Y_t^T @ U`` contracted with the third
      factor; weights fill slices of their own.  Every BLAS product sums
      over N into D columns, which rounds alike under any thread count;
    * **row**, for the coordinate form (``masks`` is None): the entries are
      sorted once by each axis, and each row's Gram and right-hand side are
      summed over its contiguous segment.  Summing over the masks costs
      K N^2 D^2 whatever the entry count, which sparse tensors do not repay.
    """

    def __init__(self, tensor: RelationalTensor):
        ii, jj, tt, self.y = tensor.entry_arrays()
        self.entries = _Entries(ii, jj, tt, tensor.n_objects, tensor.n_relations)

    # The arrays below serve only the normal equations and the right-hand
    # sides, so each is built on first use: a value-only MAP objective reads
    # no more than ``entries`` and ``y``.

    @cached_property
    def cells(self) -> np.ndarray:
        """Each entry's flat index into a (T, N, N) stack (masked form)."""
        e = self.entries
        return (e.tt * e.n + e.ii) * e.n + e.jj

    @cached_property
    def masks(self) -> Optional[np.ndarray]:
        """The (K, N, N) 0/1 mask stack of the masked form; None in the row form."""
        if not self.entries.dense:
            return None
        masks = self._slices(1.0)
        if (masks == masks[:1]).all():  # every observed fiber is whole
            masks = masks[:1].copy()
        return masks

    @cached_property
    def slices(self) -> np.ndarray:
        """The zero-filled (T, N, N) label slices Y_t of the masked form."""
        return self._slices(self.y)

    @cached_property
    def by_axis(self):
        """The entries sorted once by each axis, for the row form."""
        e, y = self.entries, self.y
        return (_AxisGroups(e.ii, e.jj, e.tt, y, e.n), _AxisGroups(e.jj, e.ii, e.tt, y, e.n),
                _AxisGroups(e.tt, e.ii, e.jj, y, e.t))

    def _slices(self, values) -> np.ndarray:
        """Per-entry ``values`` in zero-filled (T, N, N) slices."""
        slices = np.zeros((self.entries.t, self.entries.n, self.entries.n))
        slices.ravel()[self.cells] = values
        return slices

    def residual(self, factors: LatentFactors) -> np.ndarray:
        """Observed values minus the identity-link reconstruction."""
        return self.y - self.entries.reconstruct(factors.U, factors.V, factors.R)

    def normal_terms(self, mode: int, factors: LatentFactors):
        """``(gram, xty)`` of factor ``mode`` (0: U, 1: V, 2: R) given the others.

        Row k's least-squares terms over its observed entries, with design
        vectors the products of the other two factors' rows: ``gram`` is a
        (rows, D, D) stack, or one (1, D, D) Gram shared by every row of R
        under a fiber mask, and ``xty`` is (rows, D).
        """
        U, V, R = factors.U, factors.V, factors.R
        if not self.entries.dense:
            left, right = ((V, R), (U, R), (U, V))[mode]
            return self.by_axis[mode].normal_terms(left, right)
        if mode == 2:  # sum_i (U_i U_i^T) o (sum_j m_ijk V_j V_j^T), per mask k
            gram = np.einsum("ia,ib,kiab->kab", U, U, _masked_grams(self.masks, V))
        else:
            # row i of U: sum_k (sum_j m_ijk V_j V_j^T) o RR_k, with RR = R^T R
            # under the fiber mask and RR_t = R_t R_t^T under the entry masks;
            # V likewise over i, with U
            other, masks = (V, self.masks) if mode == 0 else (U, self.masks.transpose(0, 2, 1))
            rr = (np.einsum("td,te->de", R, R)[None] if len(masks) == 1
                  else R[:, :, None] * R[:, None, :])
            gram = np.einsum("kiab,kab->iab", _masked_grams(masks, other), rr)
        return gram, _slice_rhs(self.slices, mode, U, V, R)

    def right_hand_sides(self, w: np.ndarray, U, V, R):
        """The right-hand sides of all three factors with the per-entry
        weights ``w`` (in entry order) in place of the labels.

        Row i of U gets ``sum w_ijt V_j o R_t`` over its observed entries, and
        V and R likewise: the weighted MTTKRPs (matricized tensor times
        Khatri-Rao products) of a CP gradient (Acar et al. 2011; Kolda &
        Bader 2009, §3.4).  The weights take the labels' path: zero-filled
        (T, N, N) slices in the masked form, the per-row loop without its
        Grams in the row form.
        """
        if not self.entries.dense:
            return [axis.normal_terms(left, right, weights=w)[1] for axis, (left, right)
                    in zip(self.by_axis, ((V, R), (U, R), (U, V)))]
        slices = self._slices(w)
        return [_slice_rhs(slices, mode, U, V, R) for mode in range(3)]


def _slice_rhs(slices: np.ndarray, mode: int, U, V, R) -> np.ndarray:
    """Factor ``mode``'s right-hand side from (T, N, N) slices S_t of entry values.

    U gets ``sum_t R_t o (S_t V)_i``, V gets ``sum_t R_t o (S_t^T U)_j`` and R
    gets ``sum_i U_i o (S_t V)_i``: one batched product over the T slices,
    whose BLAS sums run over N into D columns, and one ``einsum``.
    """
    if mode == 1:
        return np.einsum("tid,td->id", np.matmul(slices.transpose(0, 2, 1), U), R)
    sv = np.matmul(slices, V)
    return np.einsum("tid,td->id", sv, R) if mode == 0 else np.einsum("tid,id->td", sv, U)


def _masked_grams(masks: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``sum_j masks[k, i, j] M_j M_j^T`` for every k and i: a (K, N, D, D) stack.

    K D products (N, N) @ (N, D), one per mask and column a of
    ``M_j M_j^T``.  As one (N, N) @ (N, D^2) product the sums rounded
    differently under one and two OpenBLAS threads
    (tests/test_blas_threads.py).
    """
    return np.matmul(masks[:, None], M.T[:, :, None] * M).transpose(0, 2, 1, 3)


class _AxisGroups:
    def __init__(self, axis, other1, other2, yy, n_groups):
        self.order = np.argsort(axis, kind="stable")
        self.n_groups = n_groups
        self.o1 = other1[self.order]
        self.o2 = other2[self.order]
        self.y = yy[self.order]
        counts = np.bincount(axis, minlength=n_groups)
        self.offsets = np.concatenate([[0], np.cumsum(counts)])

    def normal_terms(self, left: np.ndarray, right: np.ndarray, weights=None):
        """Per-row Grams and right-hand sides of the design ``left[o1] * right[o2]``;
        rows with no observations get zeros.  Given per-entry ``weights`` (in
        entry order), the right-hand sides sum them in place of the labels,
        and no Grams are built (``gram`` is None)."""
        n, d = self.n_groups, left.shape[1]
        y = self.y if weights is None else weights[self.order]
        gram = np.zeros((n, d, d)) if weights is None else None
        xty = np.zeros((n, d))
        bounds = self.offsets.tolist()
        for k in range(n):
            start, stop = bounds[k], bounds[k + 1]
            if start == stop:
                continue
            design = (left.take(self.o1[start:stop], axis=0)
                      * right.take(self.o2[start:stop], axis=0))
            if gram is not None:
                gram[k] = np.dot(design.T, design)
            xty[k] = np.dot(y[start:stop], design)
        return gram, xty


def _groups(factors: LatentFactors, tensor: RelationalTensor,
            groups: Optional[ObservationGroups]) -> ObservationGroups:
    """A chain's ``groups``, or the tensor's own for a call outside a chain.

    Raises DimensionMismatchError when the factors do not fit the tensor.
    """
    _check_tensor(factors, tensor)
    return groups if groups is not None else ObservationGroups(tensor)


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
    the new U and V.  With ``sample_relations=False`` the relation factor
    and its hyperparameters are left untouched (frozen-R mode).  The noise
    precision is drawn from ``state.residual`` when it is set (a chain's
    last log-likelihood residual), by :func:`sample_alpha` otherwise; the
    returned state has no residual.
    """
    f = state.factors
    groups = _groups(f, tensor, groups)
    alpha = (_draw_alpha(state.residual, priors, rng) if state.residual is not None
             else sample_alpha(f, tensor, priors, rng, groups))
    hyper_u = sample_factor_hypers(f.U, priors, priors.kappa0, rng)
    hyper_v = sample_factor_hypers(f.V, priors, priors.kappa0, rng)
    hyper_r = (sample_factor_hypers(f.R, priors, priors.kappa_t, rng)
               if sample_relations else state.hyper_r)

    current = LatentFactors(f.U, f.V, f.R, alpha)
    new_u = sample_u_rows(current, tensor, hyper_u, rng, groups)
    current = LatentFactors(new_u, f.V, f.R, alpha)
    new_v = sample_v_rows(current, tensor, hyper_v, rng, groups)
    current = LatentFactors(new_u, new_v, f.R, alpha)
    if sample_relations:
        new_r = sample_r_rows(current, tensor, hyper_r, rng, groups)
    else:
        new_r = f.R
    return GibbsState(LatentFactors(new_u, new_v, new_r, alpha),
                      hyper_u, hyper_v, hyper_r)


def run_chain(tensor: RelationalTensor, model_config: ModelConfig,
              priors: HyperPriors, config: ChainConfig,
              frozen_relations: Optional[np.ndarray] = None) -> SampleSet:
    """Run one Gibbs chain and return the retained draws.

    Sweeps use the identity link regardless of ``model_config.use_logistic``
    (conjugacy requires it); the flag only affects downstream prediction.
    ``frozen_relations`` fixes R to the given T x D matrix and excludes it
    from sampling (used by the per-slice baseline).  Deterministic for a
    fixed config.  One reconstruction per sweep: the residual behind each
    sweep's log-likelihood is kept on the state, and the next sweep draws
    its noise precision from it.
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
        r0 = np.asarray(frozen_relations, dtype=np.float64)
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

    samples = SampleSet()
    for sweep in range(config.num_samples):
        state = gibbs_sweep(state, tensor, priors, rng, groups, sample_relations)
        state.residual = groups.residual(state.factors)
        samples.log_likelihoods.append(  # model.log_likelihood under the identity link
            _gaussian_log_likelihood(state.residual, state.factors.alpha))
        if sweep >= config.burn_in and (sweep - config.burn_in + 1) % config.thin == 0:
            samples.draws.append(state.factors)
    return samples


def predictive_scores(samples: SampleSet, ii, jj, tt,
                      model_config: ModelConfig) -> np.ndarray:
    """Monte-Carlo predictive mean over retained draws for coordinate arrays.

    Each draw's prediction is clamped into [0, 1] before averaging, so the
    result is a valid score even under the identity link.  Raises
    IndexError for a coordinate outside [0, N) or [0, T), ValueError for
    one that is not an exact integer, and DimensionMismatchError when the
    draws differ in shape.

    The coordinates are walked in blocks of ``_SCORE_BLOCK``: each draw's
    factor rows for a block are gathered into three reused (block, D)
    buffers and that draw's clamped prediction is added to the block's
    running total, so memory beyond the result stays O(block D).  Every
    score sees the same products, sum and draw order as gathering whole
    (E, D) arrays per draw, and is bitwise equal to it.  Scoring does not
    go through ``model._Entries``: its whole-array dense form peaks at
    several times the result's memory, and choosing the form per block
    would make a score depend on the other coordinates in its call.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    first = samples.draws[0]
    shape = (first.U.shape, first.R.shape)
    if any((factors.U.shape, factors.R.shape) != shape for factors in samples.draws):
        raise DimensionMismatchError("draws of one sample set must share their shapes")
    ii, jj, tt = _coordinates(ii, jj, tt, first.n_objects, first.n_relations)
    total = np.zeros(ii.size, dtype=np.float64)
    buffers = np.empty((3, min(ii.size, _SCORE_BLOCK), first.rank))
    for start in range(0, ii.size, _SCORE_BLOCK):
        rows = slice(start, start + _SCORE_BLOCK)
        i, j, t, block_total = ii[rows], jj[rows], tt[rows], total[rows]
        u, v, r = buffers[:, :i.size]
        for factors in samples.draws:
            # The coordinates are range-checked and the shapes equal, so
            # "clip" never clips; it spares the copy that "raise" makes.
            np.take(factors.U, i, axis=0, out=u, mode="clip")
            np.take(factors.V, j, axis=0, out=v, mode="clip")
            np.take(factors.R, t, axis=0, out=r, mode="clip")
            u *= v
            s = np.einsum("nd,nd->n", u, r)
            block_total += np.clip(logistic(s) if model_config.use_logistic else s, 0.0, 1.0)
    return total / len(samples)
