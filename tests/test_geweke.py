"""Geweke's joint-distribution test of the whole Gibbs sweep (Geweke 2004,
JASA 99(467); Grosse and Duvenaud 2014, "Testing MCMC code").

Criterion 2 checks each conditional on its own.  This test checks that the
sweep as composed leaves the joint posterior invariant: its block order,
the residual a chain keeps between sweeps, the rows each hyper draw reads,
the stacked hyper posterior, and frozen-R mode.  Two simulators of the joint
distribution of parameters theta and data y must agree:

* marginal-conditional: independent draws of theta from the prior, written
  here with scipy's Wishart, and of y from the Gaussian likelihood;
* successive-conditional: a chain that alternates ``gibbs_sweep`` with a
  fresh y | theta, started from one prior draw.

The model is tiny and fully observed under the identity link.  A
``RelationalTensor`` holds only 0/1 labels and the sweep reads the labels
only through ``groups.y``, so each step builds fresh ``ObservationGroups``
and sets ``groups.y`` to the real-valued y before its first use.  Test
functions are compared by z-scores whose chain side takes its standard
error from batch means.  The seed and the bound were fixed before the
first run.
"""

import numpy as np
import pytest
from scipy import stats

from linkpattern.gibbs import FactorHyperState, GibbsState, HyperPriors, gibbs_sweep
from linkpattern.model import LatentFactors, ObservationGroups
from linkpattern.tensor import RelationalTensor

N, T = 3, 2
SEED = 2004
Z_BOUND = 4.0
INDEPENDENT_DRAWS = 20_000
SWEEPS = 6_000
BATCHES = 50
# Distinct kappas, so that a sweep that gives R the object rows' kappa0
# shows.  nu0 = D + 8 keeps the prior's tails short: at nu0 = D + 4 the
# chain reached the far tails of precision^-1 too rarely for batch means,
# and y . reconstruction read |z| > 4 on 4 of 30 other seeds.
PRIOR_FIELDS = dict(nu0=10.0, gamma_shape=3.0, gamma_scale=1.0, kappa0=4.0, kappa_t=0.25)
FROZEN_R = np.array([[1.0, -0.5], [0.5, 1.5]])


def prior_hypers_and_rows(priors, kappa, count, draws, rng):
    """``draws`` independent (mu, precision, rows) of one factor with ``count``
    rows: precision ~ Wishart(nu0, w0), mu ~ N(mu0, (kappa precision)^-1)
    and each row ~ N(mu, precision^-1)."""
    d = priors.rank
    precision = stats.wishart(df=priors.nu0, scale=priors.w0).rvs(size=draws, random_state=rng)
    precision = precision.reshape(draws, d, d)
    chol = np.linalg.cholesky(precision)

    def normal(scale, shape):  # N(0, (scale precision)^-1), one per draw and row
        z = rng.standard_normal((draws, d, shape))
        return np.linalg.solve(chol.mT, z).mT / np.sqrt(scale)

    mu = priors.mu0 + normal(kappa, 1)[:, 0]
    rows = mu[:, None, :] + normal(1.0, count)
    return mu, precision, rows


def reconstruction(U, V, R):
    """The (draws, N, N, T) CP sums, flattened in the tensor's entry order."""
    return np.einsum("sid,sjd,std->sijt", U, V, R).reshape(len(U), -1)


def statistics(alpha, U, V, R, precisions, y, recon, frozen):
    """The test functions g(theta, y), one column each, one row per draw."""
    columns = [alpha, (U ** 2).sum(axis=(1, 2)), (V ** 2).sum(axis=(1, 2)),
               (y * recon).sum(axis=1)]
    columns += [np.trace(p, axis1=1, axis2=2) for p in precisions]
    if not frozen:
        columns.append((R ** 2).sum(axis=(1, 2)))
    return np.column_stack(columns)


def marginal_conditional(priors, frozen, rng):
    draws = INDEPENDENT_DRAWS
    alpha = rng.gamma(priors.gamma_shape, priors.gamma_scale, draws)
    _, lam_u, U = prior_hypers_and_rows(priors, priors.kappa0, N, draws, rng)
    _, lam_v, V = prior_hypers_and_rows(priors, priors.kappa0, N, draws, rng)
    if frozen:
        R, precisions = np.broadcast_to(FROZEN_R, (draws, T, 2)), (lam_u, lam_v)
    else:
        _, lam_r, R = prior_hypers_and_rows(priors, priors.kappa_t, T, draws, rng)
        precisions = (lam_u, lam_v, lam_r)
    recon = reconstruction(U, V, R)
    y = recon + rng.standard_normal(recon.shape) / np.sqrt(alpha)[:, None]
    return statistics(alpha, U, V, R, precisions, y, recon, frozen)


def successive_conditional(priors, frozen, rng):
    tensor = RelationalTensor.build(N, T, [(i, j, t, 0) for i in range(N) for j in range(N)
                                           for t in range(T)])
    ii, jj, tt, _ = tensor.entry_arrays()
    order = (ii * N + jj) * T + tt  # entry order within the flattened reconstruction
    mu_u, lam_u, U = prior_hypers_and_rows(priors, priors.kappa0, N, 1, rng)
    mu_v, lam_v, V = prior_hypers_and_rows(priors, priors.kappa0, N, 1, rng)
    mu_r, lam_r, R = prior_hypers_and_rows(priors, priors.kappa_t, T, 1, rng)
    if frozen:
        R = FROZEN_R[None]
    factors = LatentFactors(U[0], V[0], R[0], rng.gamma(priors.gamma_shape, priors.gamma_scale))
    state = GibbsState(factors, FactorHyperState(mu_u[0], lam_u[0]),
                       FactorHyperState(mu_v[0], lam_v[0]), FactorHyperState(mu_r[0], lam_r[0]))
    rows = []
    for sweep in range(SWEEPS + 1):
        f = state.factors
        recon = reconstruction(f.U[None], f.V[None], f.R[None])[0, order]
        groups = ObservationGroups(tensor)
        groups.y = recon + rng.standard_normal(recon.size) / np.sqrt(f.alpha)
        if sweep:
            hypers = (state.hyper_u, state.hyper_v) + (() if frozen else (state.hyper_r,))
            rows.append(statistics(np.array([f.alpha]), f.U[None], f.V[None], f.R[None],
                                   [h.precision[None] for h in hypers], groups.y[None],
                                   recon[None], frozen)[0])
        # the residual a chain keeps between sweeps, here against the fresh y
        state.residual = groups.residual(f.U, f.V, f.R)
        state = gibbs_sweep(state, tensor, priors, rng, groups, sample_relations=not frozen)
    return np.array(rows)


@pytest.mark.parametrize("frozen", [False, True], ids=["R-sampled", "R-frozen"])
def test_sweep_leaves_the_joint_distribution_invariant(frozen):
    priors = HyperPriors.default(2, **PRIOR_FIELDS)
    rng = np.random.default_rng(SEED)
    independent = marginal_conditional(priors, frozen, rng)
    chain = successive_conditional(priors, frozen, rng)
    batch_means = chain.reshape(BATCHES, -1, chain.shape[1]).mean(axis=1)
    variance = (independent.var(axis=0, ddof=1) / len(independent)
                + batch_means.var(axis=0, ddof=1) / BATCHES)
    z = (chain.mean(axis=0) - independent.mean(axis=0)) / np.sqrt(variance)
    assert np.abs(z).max() <= Z_BOUND, f"z-scores {np.round(z, 2)}"
