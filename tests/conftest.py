import numpy as np
import pytest

from linkpattern.tensor import RelationalTensor


def auc_pairwise(scores, labels):
    """O(n^2) pairwise-count AUC oracle: wins plus half ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def planted_binary_tensor(n, t, rank, *, noise=0.4, fill=0.75, seed=0, r_rows=None):
    """Binarized CP data from explicit planted Gaussian factors."""
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, (n, rank))
    v = rng.normal(0.0, 1.0, (n, rank))
    r = np.asarray(r_rows, dtype=float) if r_rows is not None else rng.normal(0.0, 1.0, (t, rank))
    recon = np.einsum("id,jd,td->ijt", u, v, r)
    noisy = recon + rng.normal(0.0, noise, recon.shape)
    triples = [(i, j, k, int(noisy[i, j, k] > 0))
               for i in range(n) for j in range(n) for k in range(t)
               if rng.random() < fill]
    return RelationalTensor.build(n, t, triples), (u, v, r)


def dense_values(tensor):
    """The tensor as an N x N x T float array, NaN where unobserved."""
    ii, jj, tt, yy = tensor.entry_arrays()
    out = np.full((tensor.n_objects, tensor.n_objects, tensor.n_relations), np.nan)
    out[ii, jj, tt] = yy
    return out


TINY_TRIPLES = [(0, 1, 0, 1), (0, 2, 0, 0), (1, 0, 0, 1), (2, 1, 0, 1),
                (0, 1, 1, 0), (2, 0, 1, 1), (1, 2, 1, 0)]


@pytest.fixture
def tiny_tensor():
    return RelationalTensor.build(3, 2, TINY_TRIPLES)
