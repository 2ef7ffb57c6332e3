"""CP latent-factor model: reconstruction, logistic link, likelihood.

The model approximates tensor entries by the triple inner product
``sum_d U[i,d] * V[j,d] * R[t,d]`` of sender, receiver and relation-type
factors, optionally squashed through a logistic link for prediction.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError
from .tensor import RelationalTensor


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

    Large |x| saturates to 0 or 1 without overflow.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def reconstruct_entries(factors: LatentFactors, ii, jj, tt) -> np.ndarray:
    """Triple inner products sum_d U[i,d] V[j,d] R[t,d] over coordinate arrays."""
    return np.einsum("nd,nd->n", factors.U[ii] * factors.V[jj], factors.R[tt])


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
    if yy.size == 0:
        return 0.0
    m = predict_entries(factors, ii, jj, tt, config)
    a = factors.alpha
    sse = float(np.dot(yy - m, yy - m))
    return 0.5 * yy.size * (np.log(a) - np.log(2.0 * np.pi)) - 0.5 * a * sse
