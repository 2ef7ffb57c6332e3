import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from linkpattern import gibbs, model
from linkpattern.exceptions import (ConfigError, DimensionMismatchError,
                                    NotPositiveDefiniteError)
from linkpattern.gibbs import (ChainConfig, FactorHyperState, GibbsState,
                               HyperPriors, SampleSet, _draw_factor_hypers,
                               _gaussian_wishart_posteriors,
                               gibbs_sweep, predictive_scores,
                               run_chain, sample_alpha, sample_factor_hypers,
                               sample_r_rows, sample_u_rows, sample_v_rows)
from linkpattern.io import SynthSpec, generate_synthetic
from linkpattern.model import (LatentFactors, ModelConfig, log_likelihood, predict_entries,
                              reconstruct_entries)
from linkpattern.optimize import MapConfig, fit_map
from linkpattern.tensor import RelationalTensor

from oracles import (TRIPLES, alpha_log_posterior, conjugacy_instance, grid_posterior_mean,
                     r_row_designs, reference_factor_hypers, reference_factor_rows,
                     reference_gaussian_wishart_posterior, reference_gibbs_sweep,
                     reference_predictive_scores, row_log_posterior, tv_binned, u_row_designs)

IDENTITY1 = ModelConfig(1, use_logistic=False)


def test_hyperpriors_validation():
    priors = HyperPriors.default(3)
    assert priors.rank == 3
    assert priors.nu0 == 3.0
    with pytest.raises(ValueError):
        HyperPriors.default(3, nu0=2.0)
    with pytest.raises(ValueError):
        HyperPriors(mu0=np.zeros(2), w0=np.array([[1.0, 2.0], [2.0, 1.0]]), nu0=2.0)
    with pytest.raises(ValueError):
        HyperPriors.default(2, gamma_shape=0.0)


def test_hyperpriors_reject_a_scalar_mean():
    with pytest.raises(DimensionMismatchError):
        HyperPriors(mu0=0.0, w0=[[1.0]], nu0=1.0)


def test_hyperpriors_are_frozen():
    # w0_inv is derived once, so a field changed in place would leave it stale
    priors = HyperPriors.default(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        priors.w0 = 2 * np.eye(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        priors.nu0 = 1.0
    np.testing.assert_array_equal(dataclasses.replace(priors, w0=2 * np.eye(2)).w0_inv,
                                  np.eye(2) / 2)
    with pytest.raises(ValueError):
        dataclasses.replace(priors, nu0=1.0)


def test_chain_config_retained_counts():
    assert ChainConfig(num_samples=300, burn_in=50, thin=1).retained_count == 250
    assert ChainConfig(num_samples=10, burn_in=3, thin=2).retained_count == 3
    with pytest.raises(ConfigError):
        ChainConfig(num_samples=10, burn_in=10)
    with pytest.raises(ConfigError):
        ChainConfig(num_samples=5, burn_in=0, thin=6)


def test_sample_alpha_prior_when_no_data():
    factors, _tensor, priors, _hyper = conjugacy_instance()
    empty = RelationalTensor.build(3, 2, [])
    rng = np.random.default_rng(0)
    draws = np.array([sample_alpha(factors, empty, priors, rng) for _ in range(100_000)])
    expected = priors.gamma_shape * priors.gamma_scale
    assert abs(draws.mean() - expected) / expected < 0.01


def test_sample_alpha_single_entry_update():
    # one observation with residual 2 under shape 5, scale 1 shifts the
    # posterior to shape 5.5, scale 1/3
    factors = LatentFactors(np.array([[1.0]]), np.array([[1.0]]), np.array([[3.0]]), 1.0)
    tensor = RelationalTensor.build(1, 1, [(0, 0, 0, 1)])  # residual = 1 - 3 = -2
    priors = HyperPriors.default(1, gamma_shape=5.0, gamma_scale=1.0)
    rng = np.random.default_rng(1)
    draws = np.array([sample_alpha(factors, tensor, priors, rng) for _ in range(100_000)])
    expected = 5.5 * (1.0 / 3.0)
    assert abs(draws.mean() - expected) / expected < 0.01


def test_gaussian_wishart_posterior_single_row_at_prior_mean():
    priors = HyperPriors.default(2, nu0=4.0)
    rows = np.zeros((1, 2))
    (mu_star,), (kappa_star,), (nu_star,), (w_star,) = _gaussian_wishart_posteriors(
        [(rows, priors.kappa0)], priors)
    assert np.allclose(mu_star, 0.0)
    assert kappa_star == 3.0
    assert nu_star == 5.0
    assert np.allclose(np.linalg.inv(w_star), np.linalg.inv(priors.w0))


def test_gaussian_wishart_posterior_zero_rows_any_count():
    priors = HyperPriors.default(2)
    for m in (1, 3, 7):
        mu_star, *_ = _gaussian_wishart_posteriors([(np.zeros((m, 2)), priors.kappa0)], priors)
        assert np.allclose(mu_star, 0.0)


@pytest.mark.parametrize("shape", [(4, 1), (5,), (4, 3), (2, 5, 1)])
def test_gaussian_wishart_posterior_rejects_rows_of_another_rank(shape):
    with pytest.raises(DimensionMismatchError):
        _gaussian_wishart_posteriors([(np.zeros(shape), 2.0)], HyperPriors.default(5))


def test_gaussian_wishart_posterior_rejects_zero_rows():
    with pytest.raises(ValueError, match="at least one row"):
        _gaussian_wishart_posteriors([(np.zeros((0, 5)), 2.0)], HyperPriors.default(5))


def test_sample_factor_hypers_moment_oracle():
    rows = np.array([[0.4, -0.2], [1.1, 0.3], [-0.5, 0.8], [0.2, 0.2]])
    priors = HyperPriors.default(2, nu0=4.0)
    (mu_star,), (kappa_star,), (nu_star,), (w_star,) = _gaussian_wishart_posteriors(
        [(rows, priors.kappa0)], priors)
    rng = np.random.default_rng(46)
    lam_sum = np.zeros((2, 2))
    mu_sum = np.zeros(2)
    mu_scatter = np.zeros((2, 2))
    n = 100_000
    # one stacked call, as a sweep makes: draw k is bitwise the k-th
    # sample_factor_hypers call on the same generator
    for state in _draw_factor_hypers([(rows, priors.kappa0)] * n, priors, rng):
        lam_sum += state.precision
        mu_sum += state.mu
        mu_scatter += np.outer(state.mu - mu_star, state.mu - mu_star)
    expected = nu_star * w_star
    assert np.max(np.abs(lam_sum / n - expected)) / np.max(np.abs(expected)) < 0.02
    assert np.max(np.abs(mu_sum / n - mu_star)) < 0.01
    # marginally mu is Student-t: E[(mu - mu*)(mu - mu*)^T] = W*^-1 / (kappa* (nu* - D - 1))
    mu_cov = np.linalg.inv(w_star) / (kappa_star * (nu_star - 2 - 1))
    assert np.max(np.abs(mu_scatter / n - mu_cov)) / np.max(np.abs(mu_cov)) < 0.02


@pytest.mark.parametrize("d", [1, 2, 5, 11])
def test_sample_factor_hypers_match_twice_factorised_reference(d):
    # the reference factorises kappa* precision again for the mean and skips
    # the empty below-diagonal draw at D = 1; both must leave the generator
    # at the same state
    rows = np.random.default_rng(d).standard_normal((30, d))
    priors = HyperPriors.default(d)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    state = sample_factor_hypers(rows, priors, priors.kappa0, rng)
    reference = reference_factor_hypers(rows, priors, priors.kappa0, ref_rng)
    assert np.array_equal(state.precision, reference.precision)
    assert np.max(np.abs(state.mu - reference.mu)) <= 1e-12 * np.max(np.abs(reference.mu))
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("d,singular", [(1, None), (3, None), (11, None), (3, 2)],
                         ids=["1", "3", "11", "3-jitter"])
def test_stacked_gaussian_wishart_draw_is_k_single_draws(d, singular, caplog):
    # four problems in one call against four K = 1 calls on one generator;
    # in "3-jitter" the third scale is singular, so the stacked Cholesky
    # fails and every scale takes the per-matrix jitter path
    rng = np.random.default_rng(d)
    k_count = 4
    mu = rng.standard_normal((k_count, d))
    kappa = rng.uniform(0.5, 3.0, k_count)
    df = d + rng.uniform(0.0, 5.0, k_count)
    a = rng.standard_normal((k_count, d, d))
    scale = a @ a.mT / d + 0.1 * np.eye(d)
    if singular is not None:
        scale[singular] = np.ones((d, d))
    with caplog.at_level("WARNING", logger="linkpattern.gibbs"):
        stacked_rng = np.random.default_rng(7)
        mean, precision = gibbs._sample_gaussian_wishart(stacked_rng, mu, kappa, df, scale)
        stacked_log = [record.getMessage() for record in caplog.records]
        caplog.clear()
        single_rng = np.random.default_rng(7)
        singles = [gibbs._sample_gaussian_wishart(single_rng, *(x[k:k + 1] for x in
                                                                (mu, kappa, df, scale)))
                   for k in range(k_count)]
        single_log = [record.getMessage() for record in caplog.records]
    assert np.array_equal(mean, np.concatenate([m for m, _p in singles]))
    assert np.array_equal(precision, np.concatenate([p for _m, p in singles]))
    assert stacked_rng.standard_normal() == single_rng.standard_normal()
    assert stacked_log == single_log
    assert len(stacked_log) == (0 if singular is None else 1)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(precision))


@pytest.mark.parametrize("counts, d, kappas", [
    ((4, 7, 4, 1, 7, 7), 3, (2.0, 2.0, 0.5, 2.0, 1.0, 3.0)),
    ((50, 50, 5), 1, (2.0, 2.0, 1.0)),
    ((3, 3, 8), 2, (2.0, 2.0, 1.0)),
    ((6, 6, 6), 4, (2.0, 2.0, 0.3)),
], ids=["mixed-counts-one-row", "D1", "T>N", "T==N"])
def test_stacked_hyper_draws_are_per_block_draws_bitwise(counts, d, kappas):
    # blocks as a sweep stacks them: runs of equal row counts share one
    # stacked posterior, and at T == N the R rows join U and V in one run
    # with their own kappa; each block must come out as its own K = 1 call
    # and as its own (m, D) arithmetic, in block order
    rng = np.random.default_rng(sum(counts) + d)
    priors = HyperPriors.default(d, mu0=rng.standard_normal(d), nu0=d + 2.0)
    blocks = [(rng.standard_normal((m, d)) + rng.standard_normal(d), kappa)
              for m, kappa in zip(counts, kappas)]
    posteriors = _gaussian_wishart_posteriors(blocks, priors)
    for k, (rows, kappa) in enumerate(blocks):
        want = reference_gaussian_wishart_posterior(rows, priors, kappa)
        for got, value in zip(posteriors, want):
            assert np.array_equal(got[k], value)
    stacked_rng, single_rng = np.random.default_rng(3), np.random.default_rng(3)
    stacked = _draw_factor_hypers(blocks, priors, stacked_rng)
    for state, (rows, kappa) in zip(stacked, blocks, strict=True):
        single = sample_factor_hypers(rows, priors, kappa, single_rng)
        assert np.array_equal(state.mu, single.mu)
        assert np.array_equal(state.precision, single.precision)
    assert stacked_rng.standard_normal() == single_rng.standard_normal()


def test_sample_u_rows_prior_fallback_and_scalar_update():
    # object 0 has one observation with unit design; object 1 has none
    factors = LatentFactors(np.array([[0.0], [0.0]]), np.array([[1.0], [1.0]]),
                            np.array([[1.0]]), alpha=1.0)
    tensor = RelationalTensor.build(2, 1, [(0, 0, 0, 1)])
    hyper = FactorHyperState(np.array([0.0]), np.array([[1.0]]))
    rng = np.random.default_rng(2)
    groups = gibbs.ObservationGroups(tensor)  # built once, as a chain builds it
    draws = np.array([sample_u_rows(factors, tensor, hyper, rng, groups)
                      for _ in range(50_000)])
    observed_row = draws[:, 0, 0]
    fallback_row = draws[:, 1, 0]
    assert abs(observed_row.mean() - 0.5) < 0.02   # precision 2, mean 0.5
    assert abs(observed_row.var() - 0.5) < 0.02
    assert abs(fallback_row.mean() - 0.0) < 0.02   # hyperprior fallback
    assert abs(fallback_row.var() - 1.0) < 0.03


def test_sample_v_rows_matches_u_update_on_transposed_data():
    factors, tensor, _priors, hyper = conjugacy_instance()
    ii, jj, tt, yy = tensor.entry_arrays()
    transposed = RelationalTensor.build(3, 2, list(zip(jj, ii, tt, yy.astype(int))))
    swapped = LatentFactors(factors.V, factors.U, factors.R, factors.alpha)
    v_draw = sample_v_rows(factors, tensor, hyper, np.random.default_rng(11))
    u_draw = sample_u_rows(swapped, transposed, hyper, np.random.default_rng(11))
    assert np.array_equal(v_draw, u_draw)


@pytest.mark.parametrize("n,t,d,fill,layout", [
    pytest.param(50, 5, 5, 0.2, "entries", id="50-5-5-0.2"),
    pytest.param(20, 4, 11, 0.6, "entries", id="20-4-11-0.6"),
    pytest.param(30, 1, 5, 0.5, "fibers", id="fibers-30-1-5-0.5"),
    pytest.param(20, 4, 11, 0.6, "fibers", id="fibers-20-4-11-0.6"),
    pytest.param(20, 4, 11, 0.6, "fibers-but-one", id="fibers-but-one-20-4-11-0.6"),
    pytest.param(50, 5, 5, 0.02, "sparse-entries", id="50-5-5-0.02"),
    pytest.param(50, 5, 5, 0.02, "sparse-fibers", id="fibers-50-5-5-0.02"),
])
def test_factor_rows_match_per_row_reference(n, t, d, fill, layout):
    # sender 0 and receiver 1 have no observations, nor, in the "entries"
    # layouts, does the last relation.  The "fibers" layouts observe whole
    # fibers (every T = 1 tensor does), which the fiber mask (K = 1) needs;
    # "fibers-but-one" drops one entry, so one fiber is partial and the
    # entry masks (K = T) apply.  The "sparse" layouts take the coordinate
    # form and its row loop.
    rng = np.random.default_rng(d)
    if layout.endswith("entries"):
        triples = [(i, j, k, int(rng.random() < 0.5))
                   for i in range(n) for j in range(n) for k in range(t)
                   if rng.random() < fill and i != 0 and j != 1 and k != t - 1]
    else:
        triples = [(i, j, k, int(rng.random() < 0.5))
                   for i in range(n) for j in range(n) if rng.random() < fill and i != 0 and j != 1
                   for k in range(t)]
        if layout == "fibers-but-one":
            del triples[5]
    tensor = RelationalTensor.build(n, t, triples)
    groups = gibbs.ObservationGroups(tensor)
    if layout.startswith("sparse"):
        assert groups.masks is None
    else:
        assert len(groups.masks) == (1 if layout == "fibers" else t)
    factors = LatentFactors(*(0.5 * rng.standard_normal((m, d)) for m in (n, n, t)), alpha=2.0)
    a = rng.standard_normal((d, d))
    hyper = FactorHyperState(rng.standard_normal(d), a @ a.T / d + np.eye(d))
    for block, sampler in (("u", sample_u_rows), ("v", sample_v_rows), ("r", sample_r_rows)):
        drawn = sampler(factors, tensor, hyper, np.random.default_rng(5), groups)
        expected = reference_factor_rows(factors, tensor, hyper, block,
                                         np.random.default_rng(5))
        np.testing.assert_allclose(drawn, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("layout", ["fibers", "entries", "sparse"])
def test_samplers_reject_factors_that_do_not_fit_the_tensor(layout):
    # 6 x 6 x 2 tensors in the three forms: whole fibers (the fiber mask),
    # half of every fiber (the entry masks), and three entries (coordinates)
    cells = [(i, j, t) for i in range(6) for j in range(6) for t in range(2)]
    keep = {"fibers": lambda i, j, t: (i + j) % 2 == 0,
            "entries": lambda i, j, t: (i + j + t) % 2 == 0,
            "sparse": lambda i, j, t: (i, j, t) in {(0, 1, 0), (2, 3, 1), (4, 5, 0)}}[layout]
    tensor = RelationalTensor.build(6, 2, [(i, j, t, (i * j + t) % 2)
                                           for i, j, t in cells if keep(i, j, t)])
    groups = gibbs.ObservationGroups(tensor)
    assert (None if groups.masks is None else len(groups.masks)) == {
        "fibers": 1, "entries": 2, "sparse": None}[layout]
    priors = HyperPriors.default(2)
    hyper = FactorHyperState(np.zeros(2), np.eye(2))
    rng = np.random.default_rng(0)
    misfits = [LatentFactors(np.ones((n, 2)), np.ones((n, 2)), np.ones((t, 2)))
               for n, t in ((5, 2), (7, 2), (6, 3))]
    for factors in misfits:
        for chain_groups in (None, groups):
            with pytest.raises(DimensionMismatchError):
                sample_alpha(factors, tensor, priors, rng, chain_groups)
            for sampler in (sample_u_rows, sample_v_rows, sample_r_rows):
                with pytest.raises(DimensionMismatchError):
                    sampler(factors, tensor, hyper, rng, chain_groups)
    factors = LatentFactors(np.ones((6, 2)), np.ones((6, 2)), np.ones((2, 2)))
    wrong_rank = FactorHyperState(np.zeros(3), np.eye(3))
    for sampler in (sample_u_rows, sample_v_rows, sample_r_rows):
        with pytest.raises(DimensionMismatchError):
            sampler(factors, tensor, wrong_rank, rng, groups)


def test_samplers_reject_groups_built_over_another_tensor():
    # both tensors are 3 x 3 x 2, so the factors fit either; groups built
    # over b would draw from b's four entries where a holds three
    a = RelationalTensor.build(3, 2, [(0, 1, 0, 1), (1, 2, 1, 0), (2, 0, 0, 1)])
    b = RelationalTensor.build(3, 2, [(0, 1, 0, 1), (1, 2, 1, 0), (2, 0, 0, 1), (2, 2, 1, 1)])
    priors = HyperPriors.default(2)
    hyper = FactorHyperState(np.zeros(2), np.eye(2))
    factors = LatentFactors(np.ones((3, 2)), np.ones((3, 2)), np.ones((2, 2)))
    calls = [lambda g: sample_alpha(factors, a, priors, np.random.default_rng(0), g),
             lambda g: gibbs_sweep(GibbsState(factors, hyper, hyper, hyper), a, priors,
                                   np.random.default_rng(0), g)]
    calls += [lambda g, s=s: s(factors, a, hyper, np.random.default_rng(0), g)
              for s in (sample_u_rows, sample_v_rows, sample_r_rows)]
    for call in calls:
        with pytest.raises(ValueError, match="another tensor"):
            call(gibbs.ObservationGroups(b))
        call(gibbs.ObservationGroups(a))


def four_object_instance():
    """conjugacy_instance's data with a fourth, unobserved object."""
    factors = LatentFactors(np.array([[0.5], [-0.3], [0.8], [0.1]]),
                            np.array([[1.0], [0.4], [-0.6], [0.2]]),
                            np.array([[0.7], [-1.1]]), alpha=2.0)
    return factors, RelationalTensor.build(4, 2, TRIPLES)


def test_factor_rows_jitter_fallback_on_singular_stack(monkeypatch):
    # zero hyper precision leaves the unobserved row singular, so the
    # stacked Cholesky fails and every row takes the jittered per-row path
    factors, tensor = four_object_instance()
    calls = []
    chol_jitter = gibbs._chol_jitter
    monkeypatch.setattr(gibbs, "_chol_jitter", lambda m: calls.append(m) or chol_jitter(m))
    hyper = FactorHyperState(np.zeros(1), np.zeros((1, 1)))
    draws = sample_u_rows(factors, tensor, hyper, np.random.default_rng(0))
    assert len(calls) == 4
    assert draws.shape == (4, 1) and np.all(np.isfinite(draws))


def test_gaussian_stack_fallback_and_jitter_are_logged(caplog):
    # one singular (positive semi-definite) matrix in a stack of three: the
    # stacked Cholesky fails, and that row alone needs jitter
    precision = np.stack([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)])
    with caplog.at_level("WARNING", logger="linkpattern.gibbs"):
        draws = gibbs._sample_gaussian_stack(np.random.default_rng(0), precision,
                                             np.zeros((3, 2)))
    assert draws.shape == (3, 2) and np.all(np.isfinite(draws))
    messages = [record.getMessage() for record in caplog.records]
    assert len(messages) == 2
    assert "stacked Cholesky of 3 precision matrices failed" in messages[0]
    assert "2x2 matrix not positive-definite" in messages[1]
    assert "jitter 1e-10" in messages[1]


@pytest.mark.parametrize("zero_rhs", [False, True], ids=["rhs", "zero-rhs"])
def test_gaussian_stack_moments(zero_rhs):
    # one call on a stack of 40,000 copies of one 3 x 3 precision P with
    # condition number 1e4; zero right-hand sides are the generator's path.
    # The mean is checked per coordinate against P^-1 b, and the covariance
    # S in P's own metric: with L = chol(P), L^T (x - P^-1 b) ~ N(0, I), and
    # L^T S L = I exactly when S = P^-1
    rng = np.random.default_rng(20261019)
    q, _r = np.linalg.qr(rng.standard_normal((3, 3)))
    precision = q @ np.diag([100.0, 1.0, 0.01]) @ q.T
    assert 0.9e4 < np.linalg.cond(precision) < 1.1e4
    b = np.zeros(3) if zero_rhs else precision @ rng.standard_normal(3) + rng.standard_normal(3)
    n = 40_000
    draws = gibbs._sample_gaussian_stack(rng, np.broadcast_to(precision, (n, 3, 3)),
                                         np.broadcast_to(b, (n, 3)))
    mean, cov = np.linalg.solve(precision, b), np.linalg.inv(precision)
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * np.sqrt(np.diag(cov) / n))
    white = (draws - mean) @ np.linalg.cholesky(precision)
    assert np.abs(white.mean(axis=0)).max() < 4 / np.sqrt(n)
    np.testing.assert_allclose(np.cov(white, rowvar=False), np.eye(3), rtol=0, atol=0.03)


def test_factor_rows_indefinite_row_raises_typed_error():
    factors, tensor = four_object_instance()
    hyper = FactorHyperState(np.zeros(1), -np.eye(1))
    with pytest.raises(NotPositiveDefiniteError):
        sample_u_rows(factors, tensor, hyper, np.random.default_rng(0))


@pytest.mark.parametrize("sampler,designs_of,row", [
    (sample_u_rows, u_row_designs, 0),
    (sample_r_rows, r_row_designs, 1),
])
def test_row_posterior_mean_matches_grid_oracle(sampler, designs_of, row):
    factors, tensor, _priors, hyper = conjugacy_instance()
    designs, targets = designs_of(factors, tensor, row)
    logpdf = row_log_posterior(hyper, factors.alpha, designs, targets)
    oracle_mean = grid_posterior_mean(logpdf, -6.0, 6.0)
    rng = np.random.default_rng(3)
    groups = gibbs.ObservationGroups(tensor)
    draws = np.array([sampler(factors, tensor, hyper, rng, groups)[row, 0]
                      for _ in range(50_000)])
    assert abs(draws.mean() - oracle_mean) < 1e-2


def test_conjugacy_tv_suite():
    # empirical draws vs grid posteriors (likelihood x prior), TV <= 0.02
    factors, tensor, priors, hyper = conjugacy_instance()
    groups = gibbs.ObservationGroups(tensor)
    rng = np.random.default_rng(42)
    alpha_draws = np.array([sample_alpha(factors, tensor, priors, rng, groups)
                            for _ in range(50_000)])
    assert tv_binned(alpha_draws, alpha_log_posterior(factors, tensor, priors)) <= 0.02

    rng = np.random.default_rng(43)
    u_draws = np.array([sample_u_rows(factors, tensor, hyper, rng, groups)[0, 0]
                        for _ in range(50_000)])
    designs, targets = u_row_designs(factors, tensor, 0)
    assert tv_binned(u_draws, row_log_posterior(hyper, factors.alpha, designs, targets)) <= 0.02


def test_gibbs_sweep_deterministic_and_shape_preserving(tiny_tensor):
    priors = HyperPriors.default(2)
    init = GibbsState(LatentFactors(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((2, 2)), 1.0),
                      FactorHyperState(np.zeros(2), np.eye(2)),
                      FactorHyperState(np.zeros(2), np.eye(2)),
                      FactorHyperState(np.zeros(2), np.eye(2)))
    out1 = gibbs_sweep(init, tiny_tensor, priors, np.random.default_rng(5))
    out2 = gibbs_sweep(init, tiny_tensor, priors, np.random.default_rng(5))
    for name in ("U", "V", "R"):
        assert np.array_equal(getattr(out1.factors, name), getattr(out2.factors, name))
        assert getattr(out1.factors, name).shape == getattr(init.factors, name).shape
    assert out1.factors.alpha == out2.factors.alpha > 0
    # every sampled precision admits a Cholesky factorization
    for state in (out1.hyper_u, out1.hyper_v, out1.hyper_r):
        np.linalg.cholesky(state.precision)


def test_gibbs_sweep_draws_alpha_from_the_state_residual(tiny_tensor):
    # run_chain hands each sweep the residual behind its last log-likelihood;
    # the sweep must draw exactly what it draws from its own reconstruction,
    # and must read the residual it is given
    priors = HyperPriors.default(2)
    rng = np.random.default_rng(2)
    factors = LatentFactors(*(rng.standard_normal((m, 2)) for m in (3, 3, 2)), alpha=1.0)
    hyper = FactorHyperState(np.zeros(2), np.eye(2))
    groups = gibbs.ObservationGroups(tiny_tensor)
    residual = groups.residual(factors.U, factors.V, factors.R)
    outs = [gibbs_sweep(GibbsState(factors, hyper, hyper, hyper, resid), tiny_tensor, priors,
                        np.random.default_rng(5), groups)
            for resid in (None, residual, np.zeros_like(residual))]
    for name in ("U", "V", "R", "alpha"):
        assert np.array_equal(getattr(outs[0].factors, name), getattr(outs[1].factors, name))
    assert outs[2].factors.alpha != outs[0].factors.alpha
    assert outs[1].residual is None


def test_gibbs_sweep_rejects_a_residual_of_another_shape(tiny_tensor):
    # a residual from a larger tensor, or a short one, once drew alpha silently
    priors = HyperPriors.default(2)
    rng = np.random.default_rng(2)
    factors = LatentFactors(*(rng.standard_normal((m, 2)) for m in (3, 3, 2)), alpha=1.0)
    hyper = FactorHyperState(np.zeros(2), np.eye(2))
    count = tiny_tensor.observed_count
    for resid in (np.zeros(count + 43), np.zeros(3), np.zeros((count, 1))):
        state = GibbsState(factors, hyper, hyper, hyper, resid)
        with pytest.raises(DimensionMismatchError, match="residual shape"):
            gibbs_sweep(state, tiny_tensor, priors, np.random.default_rng(5))


def test_gibbs_sweep_reproduces_prior_with_no_data():
    empty = RelationalTensor.build(3, 2, {})
    priors = HyperPriors.default(1)
    state = GibbsState(LatentFactors(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((2, 1)), 1.0),
                       FactorHyperState(np.zeros(1), np.eye(1)),
                       FactorHyperState(np.zeros(1), np.eye(1)),
                       FactorHyperState(np.zeros(1), np.eye(1)))
    rng = np.random.default_rng(1)
    alphas = []
    for _ in range(5000):
        state = gibbs_sweep(state, empty, priors, rng)
        alphas.append(state.factors.alpha)
    result = stats.kstest(alphas, stats.gamma(a=priors.gamma_shape,
                                              scale=priors.gamma_scale).cdf)
    assert result.pvalue > 0.01


@pytest.mark.parametrize("sample_relations", [True, False], ids=["R-sampled", "R-frozen"])
@pytest.mark.parametrize("form", ["masked", "row"])
def test_gibbs_sweep_is_its_public_block_draws(form, sample_relations):
    # three chained sweeps, each bitwise the oracle's composition of alpha
    # from the kept residual, three (or two) sample_factor_hypers calls and
    # the public row samplers, the generators left in one state
    n, t, fraction = (20, 4, 0.6) if form == "masked" else (50, 5, 0.02)
    tensor = generate_synthetic(SynthSpec(n, t, 3, observed_fraction=fraction, seed=4))[0]
    groups = gibbs.ObservationGroups(tensor)
    assert (groups.masks is None) == (form == "row")
    priors = HyperPriors.default(3)
    rng = np.random.default_rng(8)
    factors = LatentFactors(*(0.5 * rng.standard_normal((m, 3)) for m in (n, n, t)), alpha=2.0)
    a = rng.standard_normal((3, 3))
    hyper = FactorHyperState(rng.standard_normal(3), a @ a.T + np.eye(3))
    state = GibbsState(factors, hyper, hyper, hyper,
                       groups.residual(factors.U, factors.V, factors.R))
    for sweep in range(3):
        rng, ref_rng = np.random.default_rng(sweep), np.random.default_rng(sweep)
        out = gibbs_sweep(state, tensor, priors, rng, groups, sample_relations)
        reference = reference_gibbs_sweep(state, tensor, priors, ref_rng, groups,
                                          sample_relations)
        for name in ("U", "V", "R", "alpha"):
            assert np.array_equal(getattr(out.factors, name), getattr(reference.factors, name))
        for block in ("hyper_u", "hyper_v", "hyper_r"):
            assert np.array_equal(getattr(out, block).mu, getattr(reference, block).mu)
            assert np.array_equal(getattr(out, block).precision,
                                  getattr(reference, block).precision)
        assert rng.standard_normal() == ref_rng.standard_normal()
        if not sample_relations:
            assert out.hyper_r is hyper and out.factors.R is factors.R
        state = out
        state.residual = groups.residual(out.factors.U, out.factors.V, out.factors.R)


def small_chain_data(seed=5):
    d = 2
    priors = HyperPriors.default(d, w0=np.eye(d) / 20.0, nu0=20.0, gamma_shape=4.0)
    spec = SynthSpec(20, 3, d, observed_fraction=0.7, seed=seed, hyperpriors=priors)
    return generate_synthetic(spec)[0]


def test_run_chain_single_retained_draw(tiny_tensor):
    priors = HyperPriors.default(2)
    samples = run_chain(tiny_tensor, ModelConfig(2, use_logistic=False), priors,
                        ChainConfig(num_samples=1, burn_in=0, seed=0))
    assert len(samples) == 1
    assert len(samples.log_likelihoods) == 1
    assert samples.draws[0].alpha > 0


def test_run_chain_log_likelihoods_match_model_bitwise():
    # the chain scores its draws on its own ObservationGroups and
    # model.log_likelihood on one of its own; the two must agree under the
    # entry masks, the fiber mask and the row form
    partial = small_chain_data()
    complete, _truth = generate_synthetic(SynthSpec(12, 3, 2, seed=4))
    sparse, _truth = generate_synthetic(SynthSpec(30, 4, 2, observed_fraction=0.05, seed=4))
    identity = ModelConfig(2, use_logistic=False)
    for tensor in (partial, complete, sparse):
        samples = run_chain(tensor, identity, HyperPriors.default(2),
                            ChainConfig(num_samples=6, burn_in=0, seed=3))
        assert samples.log_likelihoods == [log_likelihood(draw, tensor, identity)
                                           for draw in samples.draws]
    assert len(gibbs.ObservationGroups(partial).masks) == partial.n_relations
    assert len(gibbs.ObservationGroups(complete).masks) == 1
    assert gibbs.ObservationGroups(sparse).masks is None


def test_run_chain_deterministic():
    tensor = small_chain_data()
    priors = HyperPriors.default(2)
    cfg = ChainConfig(num_samples=20, burn_in=5, seed=9)
    s1 = run_chain(tensor, ModelConfig(2, use_logistic=False), priors, cfg)
    s2 = run_chain(tensor, ModelConfig(2, use_logistic=False), priors, cfg)
    assert s1.log_likelihoods == s2.log_likelihoods
    assert len(s1) == len(s2) == 15
    for a, b in zip(s1.draws, s2.draws):
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
        assert np.array_equal(a.R, b.R) and a.alpha == b.alpha


def test_run_chain_thinning_counts():
    tensor = small_chain_data()
    priors = HyperPriors.default(2)
    samples = run_chain(tensor, ModelConfig(2, use_logistic=False), priors,
                        ChainConfig(num_samples=11, burn_in=3, thin=3, seed=0))
    assert len(samples) == (11 - 3) // 3
    assert len(samples.log_likelihoods) == 11


def test_run_chain_warm_start_beats_random_init():
    tensor = small_chain_data()
    identity = ModelConfig(2, use_logistic=False)
    map_factors, _ = fit_map(tensor, identity,
                             MapConfig(gamma_u=0.05, gamma_v=0.05, gamma_r=0.05, seed=0))
    priors = HyperPriors.default(2)
    gaps = []
    for seed in range(10):
        warm = run_chain(tensor, identity, priors,
                         ChainConfig(num_samples=1, burn_in=0, seed=seed,
                                     init_factors=map_factors))
        cold = run_chain(tensor, identity, priors,
                         ChainConfig(num_samples=1, burn_in=0, seed=seed))
        gaps.append(warm.log_likelihoods[0] - cold.log_likelihoods[0])
    assert np.median(gaps) >= 0


def test_run_chain_beats_random_factor_scores():
    tensor = small_chain_data()
    train, test = tensor.hide_fibers(tensor.fiber_keys()[::5])
    identity = ModelConfig(2, use_logistic=False)
    samples = run_chain(train, identity, HyperPriors.default(2),
                        ChainConfig(num_samples=60, burn_in=20, seed=1))
    ii, jj, tt, labels = test.entry_arrays()
    scores = predictive_scores(samples, ii, jj, tt, identity)
    rng = np.random.default_rng(0)
    random_factors = LatentFactors(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)),
                                   rng.normal(size=(3, 2)), 1.0)
    random_scores = np.clip(
        np.einsum("nd,nd->n", random_factors.U[ii] * random_factors.V[jj],
                  random_factors.R[tt]), 0.0, 1.0)
    rmse = np.sqrt(np.mean((scores - labels) ** 2))
    rmse_random = np.sqrt(np.mean((random_scores - labels) ** 2))
    assert rmse <= rmse_random


def test_run_chain_posterior_contraction():
    d = 2
    priors_gen = HyperPriors.default(d, w0=np.eye(d) / 20.0, nu0=20.0, gamma_shape=4.0)
    tensor, _ = generate_synthetic(SynthSpec(16, 3, d, observed_fraction=0.9,
                                             seed=21, hyperpriors=priors_gen))
    identity = ModelConfig(d, use_logistic=False)
    priors = HyperPriors.default(d)
    from linkpattern.evaluate import SplitSpec, split_fibers
    rmse = {0.25: [], 0.5: [], 1.0: []}
    for seed in range(5):
        train, test = split_fibers(tensor, SplitSpec(0.2, seed))
        ii, jj, tt, labels = test.entry_arrays()
        train_entries = train.entry_arrays()
        order = np.random.default_rng(seed + 100).permutation(train.observed_count)
        for frac in rmse:
            keep = order[:int(frac * train.observed_count)]
            sub = RelationalTensor(train.n_objects, train.n_relations,
                                   *(a[keep] for a in train_entries))
            samples = run_chain(sub, identity, priors,
                                ChainConfig(num_samples=120, burn_in=30, seed=seed))
            scores = predictive_scores(samples, ii, jj, tt, identity)
            rmse[frac].append(float(np.sqrt(np.mean((scores - labels) ** 2))))
    medians = [np.median(rmse[f]) for f in (0.25, 0.5, 1.0)]
    assert medians[0] >= medians[1] >= medians[2]


def test_run_chain_frozen_relations():
    tensor = small_chain_data()
    frozen = np.ones((3, 2))
    samples = run_chain(tensor, ModelConfig(2, use_logistic=False), HyperPriors.default(2),
                        ChainConfig(num_samples=5, burn_in=0, seed=0),
                        frozen_relations=frozen)
    for draw in samples.draws:
        assert np.array_equal(draw.R, frozen)


def test_run_chain_copies_frozen_relations():
    # the draws hold a copy of R, not the caller's array
    tensor = RelationalTensor.build(2, 1, [(0, 1, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1)])
    frozen = np.ones((1, 2))
    samples = run_chain(tensor, ModelConfig(2, use_logistic=False), HyperPriors.default(2),
                        ChainConfig(num_samples=3, burn_in=0, seed=0),
                        frozen_relations=frozen)
    frozen[0, 0] = 7.0
    assert all(np.array_equal(draw.R, [[1.0, 1.0]]) for draw in samples.draws)


def test_run_chain_validates_dimensions():
    tensor = small_chain_data()
    with pytest.raises(DimensionMismatchError):
        run_chain(tensor, ModelConfig(2, use_logistic=False), HyperPriors.default(3),
                  ChainConfig(num_samples=2, burn_in=0, seed=0))


def make_sample_set(r_values):
    draws = [LatentFactors(np.array([[1.0]]), np.array([[1.0]]), np.array([[r]]), 1.0)
             for r in r_values]
    return SampleSet.of(draws, log_likelihoods=[0.0] * len(draws))


def test_predictive_mean_examples():
    def score(samples):
        return predictive_scores(samples, [0], [0], [0], IDENTITY1)

    single = make_sample_set([0.3])
    assert score(single)[0] == pytest.approx(0.3)
    pair = make_sample_set([0.2, 0.8])
    assert score(pair)[0] == pytest.approx(0.5)
    flipped = make_sample_set([0.8, 0.2])
    assert np.array_equal(score(pair), score(flipped))
    clamped = make_sample_set([-3.0, 5.0])  # per-sample clamp, then average
    assert score(clamped)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):  # an empty set cannot be built
        score(SampleSet.of([]))


def random_sample_set(n, t, d, n_draws, seed=0):
    """Draws whose entries reach both clamp bounds and saturate the logistic."""
    rng = np.random.default_rng(seed)
    return SampleSet.of([LatentFactors(rng.normal(0, 1.5, (n, d)), rng.normal(0, 1.5, (n, d)),
                                       rng.normal(0, 1.5, (t, d))) for _ in range(n_draws)])


@pytest.mark.parametrize("use_logistic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 5, 11])
@pytest.mark.parametrize("blocks, extra, n_draws, r_scale", [
    (0, 1, 3, 1.0), (1, -1, 3, 1.0), (1, 0, 3, 1.0), (1, 1, 3, 1.0), (3, 7, 3, 1.0),
    # gather chunks of _SCORE_BLOCK // block draws: 7 draws over 1500
    # coordinates in chunks of 2, 2, 2 and 1; 250 draws over one block of 17
    # in chunks of 240 and 10; a one-coordinate block of 7 draws after a
    # whole block of one-draw chunks
    (0, 1500, 7, 1.0), (0, 17, 250, 1.0), (1, 1, 7, 1.0),
    # a chunk whose logistic lanes reach below -700 and -746
    (0, 1500, 7, 300.0),
], ids=["1", "block-1", "block", "block+1", "3block+7", "chunks-of-2", "chunks-of-240",
        "block+1-7-draws", "saturated"])
def test_predictive_scores_match_whole_array_reference_bitwise(blocks, extra, n_draws, r_scale,
                                                               d, use_logistic, monkeypatch):
    n_coords = blocks * model._SCORE_BLOCK + extra
    rng = np.random.default_rng(n_coords + d)
    samples = random_sample_set(7, 3, d, n_draws, seed=d)
    samples = SampleSet(samples.U, samples.V, r_scale * samples.R, samples.alpha)
    if r_scale > 1.0:
        sums = np.einsum("sid,sjd,std->sijt", samples.U, samples.V, samples.R)
        assert (sums < -746.0).any() and ((sums >= -746.0) & (sums < -700.0)).any()
    # Random coordinates: unsorted, and repeated whenever n_coords > 7 * 7 * 3.
    ii, jj = rng.integers(0, 7, (2, n_coords))
    tt = rng.integers(0, 3, n_coords)
    config = ModelConfig(d, use_logistic=use_logistic)
    want = reference_predictive_scores(samples, ii, jj, tt, config).tobytes()
    # the form the count picks, then each form forced
    for share in (model.GRID_SHARE, 0.0, np.inf):
        monkeypatch.setattr(model, "GRID_SHARE", share)
        assert predictive_scores(samples, ii, jj, tt, config).tobytes() == want


# stacks whose draws are C-ordered, Fortran-ordered, and strided views of larger arrays
LAYOUTS = (lambda m: m,
           lambda m: np.ascontiguousarray(m.transpose(0, 2, 1)).transpose(0, 2, 1),
           lambda m: np.repeat(m, 2, axis=2)[..., ::2])


def mixed_layout_sample_set(n, t, d, seed):
    """Three draws whose U, V and R take the three LAYOUTS, in an order the
    seed rotates."""
    rng = np.random.default_rng(seed)
    stacks = [rng.normal(0, 1.5, (3,) + shape) for shape in ((n, d), (n, d), (t, d))]
    k = seed % 3
    layouts = LAYOUTS[k:] + LAYOUTS[:k]
    return SampleSet(*(layout(m) for layout, m in zip(layouts, stacks)), np.ones(3))


@pytest.mark.parametrize("use_logistic", [False, True])
@pytest.mark.parametrize("n", [1, 7, 50])
@pytest.mark.parametrize("t", [1, 3, 26])
@pytest.mark.parametrize("d", [1, 2, 5, 11, 32])
def test_grid_form_matches_gather_bitwise(n, t, d, use_logistic, monkeypatch):
    samples = mixed_layout_sample_set(n, t, d, seed=n * t * d)
    rng = np.random.default_rng(n + t + d)
    # unsorted and repeated: more coordinates than cells, in random order
    count = n * n * t + 5
    ii, jj, tt = rng.integers(0, n, count), rng.integers(0, n, count), rng.integers(0, t, count)
    config = ModelConfig(d, use_logistic=use_logistic)
    want = reference_predictive_scores(samples, ii, jj, tt, config).tobytes()
    map_scores = [predict_entries(draw, ii, jj, tt, config) for draw in samples.draws]
    for share in (0.0, np.inf):  # the grid form, then the gather
        monkeypatch.setattr(model, "GRID_SHARE", share)
        assert predictive_scores(samples, ii, jj, tt, config).tobytes() == want
        # a MAP score (always gathered) is the one-draw posterior mean, clamped
        for draw, scores in zip(samples.draws, map_scores):
            one_draw = predictive_scores(SampleSet.of([draw]), ii, jj, tt, config)
            assert np.clip(scores, 0.0, 1.0).tobytes() == one_draw.tobytes()


def test_grid_form_scores_saturated_cells_bitwise(monkeypatch):
    # Rank-1 draws whose cells, in one (rows, N, T) grid block, mix
    # in-range logistic arguments with ones in [-746, -700), where
    # exp is subnormal, and below -746, where it underflows, with no NaN
    n = 20
    U = (1.0 + 0.002 * np.arange(n))[:, None]
    V = (1.0 + 0.001 * np.arange(n))[:, None]
    R = np.array([[-700.0], [0.5], [-720.0], [730.0], [-5.0], [-745.5]])
    draw = LatentFactors(U, V, R)
    config = ModelConfig(1, use_logistic=True)
    ii, jj, tt = (a.ravel() for a in np.indices((n, n, R.shape[0])))
    s = (U[ii] * V[jj] * R[tt]).ravel()
    assert ((s >= -746.0) & (s < -700.0)).sum() > 100 and (s < -746.0).any()
    want = reference_predictive_scores(SampleSet.of([draw]), ii, jj, tt, config).tobytes()
    assert np.frombuffer(want)[(s > -745.0) & (s < -708.5)].min() > 0.0  # subnormal lanes kept
    for share in (0.0, np.inf):  # the grid form, then the gather
        monkeypatch.setattr(model, "GRID_SHARE", share)
        assert predictive_scores(SampleSet.of([draw]), ii, jj, tt, config).tobytes() == want
    assert np.clip(predict_entries(draw, ii, jj, tt, config), 0.0, 1.0).tobytes() == want


@pytest.mark.parametrize("use_logistic", [False, True])
@pytest.mark.parametrize("n, t", [(7, 3), (50, 26)])
def test_grid_form_starts_at_the_switch(n, t, use_logistic, monkeypatch):
    grids = []

    def counted(*factors):
        grids.append(1)
        return model._grid_blocks(*factors)

    monkeypatch.setattr(gibbs, "_grid_blocks", counted)
    samples = mixed_layout_sample_set(n, t, 5, seed=n)
    config = ModelConfig(5, use_logistic=use_logistic)
    switch = math.ceil(model.GRID_SHARE * n * n * t)
    flat = np.random.default_rng(n).permutation(n * n * t)[:switch]
    for count, takes_grid in ((switch - 1, False), (switch, True)):
        ii, jj, tt = flat[:count] // (n * t), flat[:count] // t % n, flat[:count] % t
        grids.clear()
        got = predictive_scores(samples, ii, jj, tt, config)
        assert bool(grids) is takes_grid
        assert got.tobytes() == reference_predictive_scores(samples, ii, jj, tt, config).tobytes()


def test_predictive_scores_memory_stays_blocked():
    # at the switch the grid form holds the (N, N, T) total, twice the
    # result, beside it; MAP scores (predict_entries) take the gather
    samples = random_sample_set(104, 26, 11, 2)
    ii, jj, tt = (axis.ravel() for axis in np.indices((104, 104, 26)))
    switch = math.ceil(model.GRID_SHARE * ii.size)
    identity = ModelConfig(11, use_logistic=False)
    for count in (ii.size, switch, switch - 1):
        i, j, t = ii[:count], jj[:count], tt[:count]
        for score in (lambda: predictive_scores(samples, i, j, t, identity),
                      lambda: predict_entries(samples.draws[0], i, j, t, identity)):
            tracemalloc.start()
            try:
                scores = score()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * scores.nbytes


@pytest.mark.parametrize("n, t", [(0, 3), (4, 0), (0, 0)])
def test_empty_coordinates_score_against_an_empty_model(n, t):
    # no coordinates take the grid form, whose blocks an empty grid cannot size
    f = LatentFactors(np.zeros((n, 2)), np.zeros((n, 2)), np.zeros((t, 2)))
    config = ModelConfig(2)
    for scores in (reconstruct_entries(f, [], [], []), predict_entries(f, [], [], [], config),
                   predictive_scores(SampleSet.of([f, f]), [], [], [], config)):
        assert scores.shape == (0,) and scores.dtype == np.float64


def test_sample_set_stacks_are_read_only_views():
    # the set is checked once, when built, so neither it nor its draws may
    # change afterwards; the caller's arrays stay writable
    U = np.ones((2, 3, 2))
    samples = SampleSet(U, U + 1.0, np.ones((2, 4, 2)), [1.0, 2.0], [-1.0])
    assert U.flags.writeable and np.shares_memory(samples.U, U)
    with pytest.raises(dataclasses.FrozenInstanceError):
        samples.U = U
    draw = samples.draws[1]
    assert isinstance(samples.draws, tuple) and len(samples) == 2 and draw.alpha == 2.0
    assert np.shares_memory(draw.V, samples.V)
    for array in (samples.U, samples.alpha, draw.V):
        with pytest.raises(ValueError):
            array[0] = 5.0
    with pytest.raises(ValueError):  # the check LatentFactors makes, on the stack
        SampleSet(U, U, np.ones((2, 4, 2)), [1.0, -1.0])


def test_predictive_scores_rejects_draws_of_different_shapes():
    # draws of different sizes cannot be scored together: the set that
    # would carry them to the scorer is refused as it is built
    draws = [random_sample_set(3, 2, 2, 1).draws[0], random_sample_set(4, 2, 2, 1).draws[0]]
    with pytest.raises(DimensionMismatchError):
        predictive_scores(SampleSet.of(draws), [0], [0], [0], ModelConfig(2))


@pytest.mark.parametrize("shape", [(5, 3, 2), (4, 2, 2), (4, 3, 1)], ids=["N", "T", "D"])
def test_sample_set_rejects_draws_of_different_shapes(shape):
    # refused when the set is built, so neither a scorer nor a factor file
    # (which would then fail to load as truncated or trailing) sees one
    first = random_sample_set(4, 3, 2, 1).draws[0]
    other = random_sample_set(*shape, 1, seed=1).draws[0]
    with pytest.raises(DimensionMismatchError):
        SampleSet.of([first, other], log_likelihoods=[-1.0])
