"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion.  The synthetic battery (criteria 4, 5, 8) uses one
fixed dataset drawn from the generative model, scored with the documented
evaluation settings; all seeds are pinned, so results are reproducible.
"""

import os
import time

import numpy as np
import pytest

from linkpattern.cli import main as cli_main
from linkpattern.evaluate import SplitSpec, TrainSettings, auc, evaluate_method, split_fibers
from linkpattern.gibbs import (ChainConfig, HyperPriors, _draw_factor_hypers,
                               _gaussian_wishart_posteriors, run_chain, sample_alpha,
                               sample_r_rows, sample_u_rows, sample_v_rows)
from linkpattern.io import SynthSpec, generate_synthetic, load_triples, save_factors, save_triples
from linkpattern.model import ModelConfig, ObservationGroups
from linkpattern.optimize import MapConfig, fit_map

from conftest import auc_pairwise
from oracles import (alpha_log_posterior, conjugacy_instance, r_row_designs,
                     row_log_posterior, tv_binned, u_row_designs, v_row_designs)
from test_optimize import finite_difference_gradients, max_rel_error, random_instance
from linkpattern.optimize import gradients


def report(number, name, elapsed, budget, ok, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} ({name}): {elapsed:.1f}s over budget {budget}s"


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        tensor, factors = random_instance(seed=seed, n=4, t=3, d=2)
        for use_logistic in (False, True):
            model_cfg = ModelConfig(2, use_logistic=use_logistic)
            map_cfg = MapConfig(gamma_u=0.05, gamma_v=0.02, gamma_r=0.08)
            analytic = gradients(factors, tensor, model_cfg, map_cfg)
            numeric = finite_difference_gradients(factors, tensor, model_cfg, map_cfg)
            worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - start
    report(1, "gradient correctness", elapsed, 10.0, worst <= 1e-5,
           f"max relative error {worst:.2e} over 20 instances, both links")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_conjugacy_oracles():
    start = time.perf_counter()
    factors, tensor, priors, hyper = conjugacy_instance()
    # one kernel for every draw, as a chain passes its groups to each sweep
    groups = ObservationGroups(tensor)
    n_draws = 50_000
    tvs = {}

    rng = np.random.default_rng(42)
    draws = np.array([sample_alpha(factors, tensor, priors, rng, groups)
                      for _ in range(n_draws)])
    tvs["alpha"] = tv_binned(draws, alpha_log_posterior(factors, tensor, priors))

    for name, sampler, designs_of, row in (
            ("u_row", sample_u_rows, u_row_designs, 0),
            ("v_row", sample_v_rows, v_row_designs, 1),
            ("r_row", sample_r_rows, r_row_designs, 1)):
        rng = np.random.default_rng(43)
        draws = np.array([sampler(factors, tensor, hyper, rng, groups)[row, 0]
                          for _ in range(n_draws)])
        designs, targets = designs_of(factors, tensor, row)
        tvs[name] = tv_binned(draws, row_log_posterior(hyper, factors.alpha, designs, targets))

    # Gaussian-Wishart hyper conditional: moment checks
    rows = np.array([[0.4, -0.2], [1.1, 0.3], [-0.5, 0.8], [0.2, 0.2]])
    priors2 = HyperPriors.default(2, nu0=4.0)
    (mu_star,), _kappa, (nu_star,), (w_star,) = _gaussian_wishart_posteriors(
        [(rows, priors2.kappa0)], priors2)
    rng = np.random.default_rng(46)
    lam_sum = np.zeros((2, 2))
    mu_sum = np.zeros(2)
    n_hyper = 100_000
    # one stacked draw, the call each sweep makes: bitwise n_hyper
    # sample_factor_hypers calls in turn
    for state in _draw_factor_hypers([(rows, priors2.kappa0)] * n_hyper, priors2, rng):
        lam_sum += state.precision
        mu_sum += state.mu
    expected = nu_star * w_star
    lam_err = float(np.max(np.abs(lam_sum / n_hyper - expected)) / np.max(np.abs(expected)))
    mu_err = float(np.max(np.abs(mu_sum / n_hyper - mu_star)))

    # Gamma parameterization self-consistency (shape-scale convention)
    rng = np.random.default_rng(47)
    gamma_draws = np.array([sample_alpha(factors, tensor, priors, rng, groups)
                            for _ in range(n_draws)])
    ii, jj, tt, yy = tensor.entry_arrays()
    from linkpattern.model import reconstruct_entries
    resid = yy - reconstruct_entries(factors, ii, jj, tt)
    shape_star = priors.gamma_shape + 0.5 * yy.size
    scale_star = 1.0 / (1.0 / priors.gamma_scale + 0.5 * float(resid @ resid))
    gamma_err = abs(gamma_draws.mean() - shape_star * scale_star) / (shape_star * scale_star)

    elapsed = time.perf_counter() - start
    ok = (max(tvs.values()) <= 0.02 and lam_err <= 0.02 and mu_err <= 0.01
          and gamma_err <= 0.01)
    detail = (f"TV {({k: round(v, 4) for k, v in tvs.items()})}, "
              f"E[Lam] rel err {lam_err:.4f}, E[mu] err {mu_err:.4f}, "
              f"Gamma mean rel err {gamma_err:.4f}")
    report(2, "conjugacy oracles", elapsed, 300.0, ok, detail)


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_auc_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        levels = int(rng.integers(1, 8))
        scores = rng.choice(np.linspace(0.0, 1.0, levels), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if auc(scores, labels) != auc_pairwise(scores, labels):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(3, "AUC oracle", elapsed, 30.0, mismatches == 0,
           f"{mismatches} mismatches over 1000 instances up to length 200")


# ------------------------------------------------- synthetic battery fixture
SEEDS = range(5)
BATTERY_RANK = 5
BATTERY_SETTINGS = TrainSettings(gamma=0.1)


def acceptance_dataset():
    """N=50, T=5, true rank 5; interaction-dominated with decaying factor scales."""
    d = 5
    scales = np.array([1.0, 0.8, 0.4, 0.2, 0.12]) * 0.64
    priors = HyperPriors.default(d, w0=np.diag(1.0 / (30.0 * scales)), nu0=30.0,
                                 gamma_shape=3.0, kappa0=50.0, kappa_t=50.0)
    spec = SynthSpec(50, 5, d, observed_fraction=0.2, seed=20260809, hyperpriors=priors)
    return generate_synthetic(spec)[0]


def median_auc(tensor, method, rank, fraction, settings=BATTERY_SETTINGS):
    values = []
    for seed in SEEDS:
        split = SplitSpec(fraction, seed)
        train, test = split_fibers(tensor, split)
        values.append(evaluate_method(method, train, test, rank=rank, seed=seed,
                                      settings=settings, split=split).auc)
    return float(np.median(values))


@pytest.fixture(scope="module")
def battery():
    """Medians for criteria 4 and 5, computed once; elapsed time included."""
    start = time.perf_counter()
    tensor = acceptance_dataset()
    medians = {}
    for method in ("pltf", "hb-r", "hb-t", "baseline"):
        medians[(method, 0.2)] = median_auc(tensor, method, BATTERY_RANK, 0.2)
    for fraction in (0.4, 0.6):
        medians[("hb-t", fraction)] = median_auc(tensor, "hb-t", BATTERY_RANK, fraction)
    return tensor, medians, time.perf_counter() - start


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_method_ordering(battery):
    # the per-sweep work of both trainers is O(2ND^3 + TD^3 + |Y|D^2); the
    # wall-clock budget below holds the whole 35-run battery to that scale
    _tensor, med, elapsed = battery
    hbt, pltf, base = med[("hb-t", 0.2)], med[("pltf", 0.2)], med[("baseline", 0.2)]
    hbr = med[("hb-r", 0.2)]
    ok = (hbt >= pltf and pltf > base
          and min(pltf, hbr, hbt) >= 0.6)
    detail = (f"median AUC: hb-t {hbt:.4f} >= pltf {pltf:.4f} > baseline {base:.4f}; "
              f"hb-r {hbr:.4f}; all multi-relational >= 0.6")
    report(4, "method ordering", elapsed, 900.0, ok, detail)


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_degradation(battery):
    _tensor, med, elapsed = battery
    a, b, c = med[("hb-t", 0.2)], med[("hb-t", 0.4)], med[("hb-t", 0.6)]
    ok = a > b > c
    report(5, "degradation with missing fraction", elapsed, 900.0, ok,
           f"hb-t median AUC {a:.4f} (20%) > {b:.4f} (40%) > {c:.4f} (60%)")


# ---------------------------------------------------------------- criterion 6
KINSHIP_ENV = "LINKPATTERN_KINSHIP"


def test_criterion_6_kinship_reproduction():
    path = os.environ.get(KINSHIP_ENV, os.path.join("data", "kinship.tsv"))
    if not os.path.exists(path):
        print(f"ACCEPTANCE 6 [kinship reproduction]: SKIP (no dataset at {path!r}; "
              f"set ${KINSHIP_ENV})")
        pytest.skip(f"Kinship triple file not available at {path!r}")
    start = time.perf_counter()
    tensor = load_triples(path)
    assert tensor.n_objects == 104 and tensor.n_relations == 26
    settings = TrainSettings(gamma=0.01)
    pltf, hbt = [], []
    for seed in SEEDS:
        split = SplitSpec(0.2, seed)
        train, test = split_fibers(tensor, split)
        pltf.append(evaluate_method("pltf", train, test, rank=11, seed=seed,
                                    settings=settings, split=split).auc)
        hbt.append(evaluate_method("hb-t", train, test, rank=11, seed=seed,
                                   settings=settings, split=split).auc)
    elapsed = time.perf_counter() - start
    pltf_mean, hbt_mean = float(np.mean(pltf)), float(np.mean(hbt))
    ok = abs(pltf_mean - 0.9269) <= 0.05 and abs(hbt_mean - 0.9483) <= 0.05
    report(6, "kinship reproduction", elapsed, 3600.0, ok,
           f"pltf mean {pltf_mean:.4f} (target 0.9269 +- 0.05), "
           f"hb-t mean {hbt_mean:.4f} (target 0.9483 +- 0.05)")


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    d = 2
    priors = HyperPriors.default(d, w0=np.eye(d) / 20.0, nu0=20.0, gamma_shape=4.0)
    tensor, _ = generate_synthetic(SynthSpec(12, 3, d, observed_fraction=0.7,
                                             seed=5, hyperpriors=priors))
    data = tmp_path / "data.tsv"
    save_triples(tensor, data)

    csv_path = tmp_path / "res.csv"
    argv = ["evaluate", "--input", str(data), "--methods", "pltf,hb-r,baseline",
            "--fraction", "0.25", "--rank", "2", "--repeats", "2",
            "--samples", "40", "--burn-in", "10", "--out", str(csv_path)]
    assert cli_main(argv) == 0
    first_csv = csv_path.read_bytes()
    assert cli_main(argv) == 0
    csv_ok = csv_path.read_bytes() == first_csv

    model_cfg = ModelConfig(d, use_logistic=True)
    map_cfg = MapConfig(seed=3, max_iterations=100)
    factor_files = []
    for tag in ("a", "b"):
        factors, _trace = fit_map(tensor, model_cfg, map_cfg)
        out = tmp_path / f"m_{tag}.pltf"
        save_factors(factors, out)
        factor_files.append(out.read_bytes())
    map_ok = factor_files[0] == factor_files[1]

    chain_cfg = ChainConfig(num_samples=30, burn_in=5, seed=4)
    sample_files = []
    for tag in ("a", "b"):
        samples = run_chain(tensor, ModelConfig(d, use_logistic=False),
                            HyperPriors.default(d), chain_cfg)
        out = tmp_path / f"s_{tag}.pltf"
        save_factors(samples, out)
        sample_files.append(out.read_bytes())
    chain_ok = sample_files[0] == sample_files[1]

    elapsed = time.perf_counter() - start
    report(7, "determinism", elapsed, 300.0, csv_ok and map_ok and chain_ok,
           f"csv bitwise {csv_ok}, fit_map bitwise {map_ok}, run_chain bitwise {chain_ok}")


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_rank_stability(battery):
    tensor, med, battery_elapsed = battery
    start = time.perf_counter()
    per_rank = {"pltf": {BATTERY_RANK: med[("pltf", 0.2)]},
                "hb-t": {BATTERY_RANK: med[("hb-t", 0.2)]}}
    for rank in (2, 10, 20):
        for method in ("pltf", "hb-t"):
            per_rank[method][rank] = median_auc(tensor, method, rank, 0.2)
    spread = {m: max(vals.values()) - min(vals.values()) for m, vals in per_rank.items()}
    elapsed = time.perf_counter() - start + battery_elapsed
    ok = spread["hb-t"] < spread["pltf"]
    detail = (f"median AUC spread across ranks (2,5,10,20): "
              f"hb-t {spread['hb-t']:.4f} < pltf {spread['pltf']:.4f}; "
              f"hb-t by rank {({k: round(v, 4) for k, v in sorted(per_rank['hb-t'].items())})}")
    report(8, "Bayesian rank stability", elapsed, 1200.0, ok, detail)
