"""Brute-force oracle machinery shared by module and acceptance tests.

The grid posterior is built as the normalized pointwise product of the
likelihood and the prior, independently of the sampler's closed-form
updates, then compared against binned empirical draws by total variation.
"""

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from linkpattern.gibbs import (FactorHyperState, GibbsState, HyperPriors,
                               _gaussian_wishart_posteriors, sample_factor_hypers, sample_r_rows,
                               sample_u_rows, sample_v_rows)
from linkpattern.model import LatentFactors, reconstruct_entries
from linkpattern.tensor import RelationalTensor

# D=1 instance with every row/column/relation partially observed.
TRIPLES = [(0, 1, 0, 1), (0, 2, 0, 0), (1, 0, 0, 1), (2, 1, 0, 1),
           (0, 1, 1, 0), (2, 0, 1, 1), (1, 2, 1, 0)]


def conjugacy_instance():
    factors = LatentFactors(np.array([[0.5], [-0.3], [0.8]]),
                            np.array([[1.0], [0.4], [-0.6]]),
                            np.array([[0.7], [-1.1]]), alpha=2.0)
    tensor = RelationalTensor.build(3, 2, TRIPLES)
    priors = HyperPriors.default(1, gamma_shape=5.0, gamma_scale=1.0)
    hyper = FactorHyperState(np.array([0.2]), np.array([[1.5]]))
    return factors, tensor, priors, hyper


def tv_binned(draws, logpdf, n_bins=40):
    """Total variation between binned draws and a grid posterior."""
    draws = np.asarray(draws, dtype=np.float64)
    lo, hi = draws.min(), draws.max()
    pad = 0.05 * (hi - lo)
    edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
    empirical, _ = np.histogram(draws, bins=edges)
    empirical = empirical / empirical.sum()
    grid = np.linspace(edges[0], edges[-1], 16001)
    log_density = logpdf(grid)
    log_density = log_density - log_density.max()
    density = np.exp(log_density)
    mass = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1])
                                            * 0.5 * np.diff(grid))])
    mass /= mass[-1]
    expected = np.diff(np.interp(edges, grid, mass))
    return 0.5 * float(np.abs(empirical - expected).sum())


def alpha_log_posterior(factors, tensor, priors):
    ii, jj, tt, yy = tensor.entry_arrays()
    resid = yy - reconstruct_entries(factors, ii, jj, tt)
    sse = float(resid @ resid)
    n = yy.size

    def logpdf(a):
        a = np.maximum(a, 1e-300)
        prior = (priors.gamma_shape - 1.0) * np.log(a) - a / priors.gamma_scale
        return prior + 0.5 * n * np.log(a) - 0.5 * a * sse
    return logpdf


def row_log_posterior(hyper, alpha, designs, targets):
    """Scalar-factor conditional: Gaussian prior times per-entry likelihoods."""
    designs = np.asarray(designs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)

    def logpdf(x):
        out = -0.5 * hyper.precision[0, 0] * (x - hyper.mu[0]) ** 2
        for q, y in zip(designs, targets):
            out = out - 0.5 * alpha * (y - x * q) ** 2
        return out
    return logpdf


def grid_posterior_mean(logpdf, lo, hi, n=20001):
    grid = np.linspace(lo, hi, n)
    log_density = logpdf(grid)
    density = np.exp(log_density - log_density.max())
    density /= np.trapezoid(density, grid)
    return float(np.trapezoid(grid * density, grid))


def u_row_designs(factors, tensor, i):
    return ([factors.V[j, 0] * factors.R[t, 0] for (a, j, t, _v) in TRIPLES if a == i],
            [v for (a, _j, _t, v) in TRIPLES if a == i])


def v_row_designs(factors, tensor, j):
    return ([factors.U[i, 0] * factors.R[t, 0] for (i, b, t, _v) in TRIPLES if b == j],
            [v for (_i, b, _t, v) in TRIPLES if b == j])


def r_row_designs(factors, tensor, t):
    return ([factors.U[i, 0] * factors.V[j, 0] for (i, j, c, _v) in TRIPLES if c == t],
            [v for (_i, _j, c, v) in TRIPLES if c == t])


def reference_entries(factors, ii, jj, tt):
    """CP reconstruction one coordinate at a time: sum_d U[i,d] V[j,d] R[t,d]."""
    out = np.empty(len(ii))
    for k, (i, j, t) in enumerate(zip(ii, jj, tt)):
        out[k] = sum(factors.U[i, d] * factors.V[j, d] * factors.R[t, d]
                     for d in range(factors.rank))
    return out


def reference_logistic(x):
    """Masked two-branch logistic: 1 / (1 + exp(-x)) where x >= 0, else exp(x) / (1 + exp(x))."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def reference_predictive_scores(samples, ii, jj, tt, model_config):
    """Per-draw scorer on whole gathered (E, D) factor arrays, clamped and averaged."""
    total = np.zeros(len(ii), dtype=np.float64)
    for factors in samples.draws:
        s = np.einsum("nd,nd->n", factors.U[ii] * factors.V[jj], factors.R[tt])
        total += np.clip(reference_logistic(s) if model_config.use_logistic else s, 0.0, 1.0)
    return total / len(samples)


def reference_gaussian_wishart_posterior(rows, priors, kappa):
    """One factor's posterior ``(mu_star, kappa_star, nu_star, w_star)`` in
    its own (m, D) arithmetic: the row mean, the scatter ``centered.T @
    centered``, and scalar kappa and m."""
    m = rows.shape[0]
    mean = rows.mean(axis=0)
    centered = rows - mean
    kappa_star = kappa + m
    shift = mean - priors.mu0
    w_inv = (priors.w0_inv + centered.T @ centered
             + (kappa * m / kappa_star) * (shift[:, None] * shift))
    w_star = np.linalg.inv(0.5 * (w_inv + w_inv.T))
    return ((kappa * priors.mu0 + m * mean) / kappa_star, kappa_star, priors.nu0 + m,
            0.5 * (w_star + w_star.T))


def reference_factor_hypers(rows, priors, kappa, rng):
    """(mean, precision) draw that factorises twice.

    A Bartlett precision ``M M^T`` with ``M = chol(w*) A``, the strict lower
    triangle of ``A`` filled through ``tril_indices`` and drawn only when
    D > 1, then the mean from a second Cholesky factor of ``kappa* M M^T``
    and a forward and a back solve.
    """
    (mu_star,), (kappa_star,), (nu_star,), (w_star,) = _gaussian_wishart_posteriors(
        [(rows, kappa)], priors)
    d = mu_star.size
    A = np.zeros((d, d))
    A[np.diag_indices(d)] = np.sqrt(rng.chisquare(nu_star - np.arange(d)))
    if d > 1:
        A[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    M = np.linalg.cholesky(w_star) @ A
    precision = M @ M.T
    scaled = kappa_star * precision
    chol = np.linalg.cholesky(0.5 * (scaled + scaled.T))
    half = np.linalg.solve(chol, np.zeros(d))
    mu = mu_star + np.linalg.solve(chol.T, half + rng.standard_normal(d))
    return FactorHyperState(mu, precision)


def reference_factor_rows(factors, tensor, hyper, block, rng):
    """Row-at-a-time draw of factor block ``"u"``, ``"v"`` or ``"r"``.

    Each row gets its own precision ``lam`` and right-hand side ``b``, one
    Cholesky, ``cho_solve`` for the mean, ``solve_triangular`` for the
    noise, and one ``standard_normal(D)`` call, rows in index order.
    """
    ii, jj, tt, yy = tensor.entry_arrays()
    U, V, R = factors.U, factors.V, factors.R
    axis, designs, n_rows = {"u": (ii, V[jj] * R[tt], U.shape[0]),
                             "v": (jj, U[ii] * R[tt], V.shape[0]),
                             "r": (tt, U[ii] * V[jj], R.shape[0])}[block]
    d = hyper.mu.shape[0]
    out = np.empty((n_rows, d))
    for k in range(n_rows):
        design, y = designs[axis == k], yy[axis == k]
        lam = hyper.precision + factors.alpha * design.T @ design
        b = hyper.precision @ hyper.mu + factors.alpha * design.T @ y
        chol = np.linalg.cholesky(lam)
        mean = cho_solve((chol, True), b)
        out[k] = mean + solve_triangular(chol, rng.standard_normal(d), trans="T", lower=True)
    return out


def reference_gibbs_sweep(state, tensor, priors, rng, groups, sample_relations=True):
    """A Gibbs sweep composed of the public per-block draws.

    The noise precision from the kept residual ``state.residual`` (its
    Gamma conditional written out), then ``sample_factor_hypers`` for U, V
    and, unless R is frozen, R, then ``sample_u_rows``, ``sample_v_rows``
    and ``sample_r_rows``, each given the blocks drawn before it.
    """
    f, resid = state.factors, state.residual
    shape = priors.gamma_shape + 0.5 * resid.size
    alpha = float(rng.gamma(shape, 1.0 / (1.0 / priors.gamma_scale
                                          + 0.5 * float(np.einsum("i,i->", resid, resid)))))
    hyper_u = sample_factor_hypers(f.U, priors, priors.kappa0, rng)
    hyper_v = sample_factor_hypers(f.V, priors, priors.kappa0, rng)
    hyper_r = (sample_factor_hypers(f.R, priors, priors.kappa_t, rng) if sample_relations
               else state.hyper_r)
    U = sample_u_rows(LatentFactors(f.U, f.V, f.R, alpha), tensor, hyper_u, rng, groups)
    V = sample_v_rows(LatentFactors(U, f.V, f.R, alpha), tensor, hyper_v, rng, groups)
    R = (sample_r_rows(LatentFactors(U, V, f.R, alpha), tensor, hyper_r, rng, groups)
         if sample_relations else f.R)
    return GibbsState(LatentFactors(U, V, R, alpha), hyper_u, hyper_v, hyper_r)
