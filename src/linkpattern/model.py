"""CP latent-factor model: reconstruction, logistic link, likelihood.

The model approximates tensor entries by the triple inner product
``sum_d U[i,d] * V[j,d] * R[t,d]`` of sender, receiver and relation-type
factors, optionally squashed through a logistic link for prediction.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError
from .tensor import RelationalTensor, _checked


@dataclass
class ModelConfig:
    """Model shape: factorization rank and link choice."""

    rank: int
    use_logistic: bool = True

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass
class LatentFactors:
    """Complete model state: factor matrices plus noise precision.

    U and V are N x D (sender / receiver factors), R is T x D
    (relation-type factors), alpha is the Gaussian noise precision.
    """

    U: np.ndarray
    V: np.ndarray
    R: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        self.alpha = float(self.alpha)
        if self.U.ndim != 2 or self.V.ndim != 2 or self.R.ndim != 2:
            raise DimensionMismatchError("U, V, R must be 2-D matrices")
        if self.U.shape != self.V.shape or self.U.shape[1] != self.R.shape[1]:
            raise DimensionMismatchError(
                f"inconsistent factor shapes: U {self.U.shape}, V {self.V.shape}, R {self.R.shape}")
        if self.alpha <= 0:
            raise ValueError(f"noise precision must be positive, got {self.alpha}")
        if not (np.isfinite(self.U).all() and np.isfinite(self.V).all()
                and np.isfinite(self.R).all() and np.isfinite(self.alpha)):
            raise ValueError("factor entries must be finite")

    @property
    def n_objects(self) -> int:
        return self.U.shape[0]

    @property
    def n_relations(self) -> int:
        return self.R.shape[0]

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    def copy(self) -> "LatentFactors":
        return LatentFactors(self.U.copy(), self.V.copy(), self.R.copy(), self.alpha)


def logistic(x):
    """Numerically stable logistic function; works on scalars and arrays.

    Branch-free: with ``e = exp(min(x, -x))``, i.e. ``exp(-|x|)``, the
    result is ``max(x >= 0, e) / (1 + e)``.  For x >= 0 (and -0.0) that is
    ``1 / (1 + exp(-x))``, since e <= 1; for x < 0 it is
    ``exp(x) / (1 + exp(x))``: the two stable branches, bit for bit, so
    large |x| saturates to 0 or 1 without overflow.  ``min(x, -x)`` rather
    than ``-abs(x)`` keeps the sign bit of a NaN input.
    """
    arr = np.asarray(x, dtype=np.float64)
    # Ufuncs return a scalar for 0-d input, which out= cannot take.
    vals = np.atleast_1d(arr)
    e = np.negative(vals)
    np.minimum(vals, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(vals >= 0, e)
    e += 1.0
    out /= e
    return out if arr.ndim else float(out[0])


# The reconstruction evaluates on the masked-dense N x N x T form when the
# tensor has at most this many cells per coordinate, and on gathered
# coordinate rows otherwise; the Gibbs normal equations, and with them the
# MAP gradient (gibbs.ObservationGroups), follow the same form.
# Whole fit_map times, 10 logistic iterations on random tensors (distinct
# uniform cells, 30% ones), coordinate / dense, medians of 5 (one BLAS
# thread, 2-vCPU Xeon VM, numpy 2.4), with the gradient from the Gibbs
# right-hand sides:
#   cells per entry           1.25   2.5    5     10    20    40    80
#   N=50,  T=5,  D=5          3.80   3.75  2.97  3.05  3.45  3.43
#   N=104, T=26, D=11        10.03   7.04  4.34  3.38  2.61  1.15  0.77
#   N=200, T=10, D=10                4.82  4.72  3.02  2.22  1.59  1.30
#   N=300, T=20, D=11                            3.07  1.54  1.02  0.58
# The forms break even near 40 cells per entry at N=300 and between 40 and
# 80 at the kinship data's size; at N=50 and N=200 the dense form wins at
# every density tried.  The threshold is the break-even of the earlier
# einsum/bincount gradient (5 to 18 cells per entry); raising it would
# trade memory, T N^2 cells per slice stack, for speed.  The Gibbs Grams'
# masked form is slower than a per-row loop just under the threshold at
# N >= 100, and faster from about 3 cells per entry down and on the battery
# data.  U/V/R
# block times in ms on partially observed fibers, row loop / masked form
# with K = T (medians, one BLAS thread, same VM):
#   shape            cells per entry   row loop         masked
#   50 x 50 x 5      6.3 (battery)     0.33/0.37/0.11   0.14/0.12/0.09
#   104 x 104 x 26   2.5               6.8/6.7/5.0      5.2/4.6/5.3
#   300 x 300 x 20   3.3               30/32/41         28/34/29
#   200 x 200 x 10   5.0               5.5/5.8/3.7      5.0/5.7/4.1
#   104 x 104 x 26   8.3               2.8/2.8/1.9      3.9/3.6/3.8
#   300 x 300 x 20   9.1               12/14/11         21/33/25
#   500 x 500 x 5    9.1               9.2/8.4/8.5      20/35/23
# One threshold for both keeps one form decision.
DENSE_CELLS_PER_ENTRY = 10


def _inner(a, b) -> float:
    """<a, b> of two 1-D arrays, summed without BLAS.

    OpenBLAS splits a long ``dot`` across its threads, so its rounding
    depends on the thread count; ``einsum`` sums in one fixed order.
    """
    return float(np.einsum("i,i->", a, b))


def _khatri_rao(B, C):
    """Column-wise Khatri-Rao product: row ``j * len(C) + t`` is ``B[j] * C[t]``."""
    return (B[:, None, :] * C[None, :, :]).reshape(-1, B.shape[1])


def _gather(M, index):
    """Rows ``M[index]`` laid out as a (D, len(index)) array.

    One contiguous row per factor column makes the per-coordinate products
    and the sum over D run on contiguous memory.
    """
    return M.T.take(index, axis=1)


def _coordinates(ii, jj, tt, n_objects: int, n_relations: int):
    """The coordinate arrays as contiguous int64 arrays, checked as the tensor
    constructor checks them.

    Raises ValueError for a coordinate that is not an exact integer, and
    IndexError for one outside [0, N) or [0, T), which numpy indexing would
    wrap or a flat index would read as another cell.
    """
    return [np.ascontiguousarray(_checked(values, bound, what))
            for values, bound, what in ((ii, n_objects, "object indices"),
                                        (jj, n_objects, "object indices"),
                                        (tt, n_relations, "relation indices"))]


class _Entries:
    """Range-checked coordinates of an N x N x T tensor and their reconstruction.

    ``dense`` is the one choice between two forms of the CP sums.  The
    masked-dense form, used when the tensor has at most
    ``DENSE_CELLS_PER_ENTRY`` cells per coordinate, works on a whole
    unfolding (Kolda & Bader 2009): :meth:`reconstruct` is one
    ``A @ khatri_rao(B, C).T`` read at the flat indices ``(i N + j) T + t``.
    The coordinate form gathers one factor row per coordinate.  The
    gradient's sums over the entries of each factor row are the Gibbs
    right-hand sides, in ``gibbs.ObservationGroups``, which takes its form
    from ``dense``.
    """

    def __init__(self, ii, jj, tt, n_objects: int, n_relations: int):
        self.ii, self.jj, self.tt = _coordinates(ii, jj, tt, n_objects, n_relations)
        self.n, self.t = n_objects, n_relations
        self.dense = n_objects * n_objects * n_relations <= DENSE_CELLS_PER_ENTRY * self.ii.size
        if self.dense:
            self.flat = (self.ii * n_objects + self.jj) * n_relations + self.tt

    def reconstruct(self, A, B, C) -> np.ndarray:
        """sum_d A[i,d] B[j,d] C[t,d] at every coordinate."""
        if self.dense:
            # The BLAS product sums only D terms per cell; sums that short
            # round alike under one and two OpenBLAS threads, unlike an
            # N*T-term sum over an unfolding (tests/test_blas_threads.py).
            return (A @ _khatri_rao(B, C).T).take(self.flat)
        return (_gather(A, self.ii) * _gather(B, self.jj) * _gather(C, self.tt)).sum(axis=0)


def reconstruct_entries(factors: LatentFactors, ii, jj, tt) -> np.ndarray:
    """Triple inner products sum_d U[i,d] V[j,d] R[t,d] over coordinate arrays.

    Raises IndexError for a coordinate outside [0, N) or [0, T), and
    ValueError for one that is not an exact integer.
    """
    entries = _Entries(ii, jj, tt, factors.n_objects, factors.n_relations)
    return entries.reconstruct(factors.U, factors.V, factors.R)


def predict_entries(factors: LatentFactors, ii, jj, tt, config: ModelConfig) -> np.ndarray:
    """Model means under the configured link over coordinate arrays."""
    s = reconstruct_entries(factors, ii, jj, tt)
    return logistic(s) if config.use_logistic else s


def _check_tensor(factors: LatentFactors, tensor: RelationalTensor) -> None:
    if tensor.n_objects != factors.n_objects or tensor.n_relations != factors.n_relations:
        raise DimensionMismatchError(
            f"tensor {tensor.n_objects}x{tensor.n_objects}x{tensor.n_relations} does not match "
            f"factors N={factors.n_objects}, T={factors.n_relations}")


def log_likelihood(factors: LatentFactors, tensor: RelationalTensor,
                   config: ModelConfig) -> float:
    """Gaussian log-likelihood of the observed entries.

    Each observed entry contributes log N(y | m, 1/alpha) with m the model
    mean under the configured link; unobserved entries contribute nothing.
    """
    _check_tensor(factors, tensor)
    ii, jj, tt, yy = tensor.entry_arrays()
    return _gaussian_log_likelihood(yy - predict_entries(factors, ii, jj, tt, config),
                                    factors.alpha)


def _gaussian_log_likelihood(resid: np.ndarray, alpha: float) -> float:
    """Sum of log N(r | 0, 1/alpha) over the residuals r; 0.0 for none."""
    if resid.size == 0:
        return 0.0
    sse = _inner(resid, resid)
    return 0.5 * resid.size * (np.log(alpha) - np.log(2.0 * np.pi)) - 0.5 * alpha * sse
