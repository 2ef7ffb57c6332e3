import math

import numpy as np
import pytest

from linkpattern.exceptions import DimensionMismatchError
from linkpattern.model import (LatentFactors, ModelConfig, log_likelihood,
                               logistic, predict_entries, reconstruct_entries)
from linkpattern.tensor import RelationalTensor


def factors_from_rows(u_rows, v_rows, r_rows, alpha=1.0):
    return LatentFactors(np.asarray(u_rows, float), np.asarray(v_rows, float),
                         np.asarray(r_rows, float), alpha)


def reconstruct_one(factors, i, j, t):
    return reconstruct_entries(factors, [i], [j], [t])[0]


def predict_one(factors, i, j, t, config):
    return predict_entries(factors, [i], [j], [t], config)[0]


def test_latent_factors_validation():
    with pytest.raises(DimensionMismatchError):
        factors_from_rows([[1, 0]], [[1]], [[1, 0]])
    with pytest.raises(ValueError):
        factors_from_rows([[1.0]], [[1.0]], [[1.0]], alpha=0.0)
    with pytest.raises(ValueError):
        factors_from_rows([[np.inf]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        ModelConfig(rank=0)


def test_reconstruct_entry_examples():
    f = factors_from_rows([[1.0, 0.0]], [[0.5, 2.0]], [[2.0, 1.0]])
    assert reconstruct_one(f, 0, 0, 0) == pytest.approx(1.0)
    f = factors_from_rows([[0.0, 0.0]], [[0.5, 2.0]], [[2.0, 1.0]])
    assert reconstruct_one(f, 0, 0, 0) == 0.0
    f = factors_from_rows([[2.0]], [[3.0]], [[-1.0]])
    assert reconstruct_one(f, 0, 0, 0) == pytest.approx(-6.0)
    with pytest.raises(IndexError):
        reconstruct_one(f, 0, 1, 0)


def test_logistic_properties():
    assert logistic(0.0) == 0.5
    assert logistic(3.7) + logistic(-3.7) == pytest.approx(1.0)
    assert logistic(500.0) == pytest.approx(1.0)
    assert logistic(-500.0) == pytest.approx(0.0, abs=1e-200)
    xs = np.linspace(-20, 20, 101)
    ys = logistic(xs)
    assert np.all(np.diff(ys) > 0)
    assert np.all((ys > 0) & (ys < 1))


def test_predict_entry_examples():
    zero = factors_from_rows([[0.0]], [[0.0]], [[0.0]])
    assert predict_one(zero, 0, 0, 0, ModelConfig(1, use_logistic=True)) == 0.5
    one = factors_from_rows([[1.0]], [[1.0]], [[1.0]])
    assert predict_one(one, 0, 0, 0, ModelConfig(1, use_logistic=True)) == pytest.approx(0.7310585786)
    f = factors_from_rows([[2.0]], [[3.0]], [[-1.0]])
    assert (predict_one(f, 0, 0, 0, ModelConfig(1, use_logistic=False))
            == reconstruct_one(f, 0, 0, 0))


def test_log_likelihood_examples():
    empty = RelationalTensor.build(1, 1, [])
    f = factors_from_rows([[1.0]], [[1.0]], [[1.0]])
    config = ModelConfig(1, use_logistic=False)
    assert log_likelihood(f, empty, config) == 0.0

    # one entry observed exactly at the model mean, alpha = 1
    hit = RelationalTensor.build(1, 1, [(0, 0, 0, 1)])
    assert log_likelihood(f, hit, config) == pytest.approx(-0.5 * math.log(2 * math.pi))

    # residuals of equal size contribute additively
    two = RelationalTensor.build(2, 1, [(0, 1, 0, 1), (1, 0, 0, 1)])
    f2 = factors_from_rows([[0.5], [0.5]], [[0.5], [0.5]], [[1.0]])
    one_entry = RelationalTensor.build(2, 1, [(0, 1, 0, 1)])
    assert log_likelihood(f2, two, config) == pytest.approx(2 * log_likelihood(f2, one_entry, config))


def test_log_likelihood_dimension_mismatch():
    f = factors_from_rows([[1.0]], [[1.0]], [[1.0]])
    wrong = RelationalTensor.build(2, 1, [(0, 1, 0, 1)])
    with pytest.raises(DimensionMismatchError):
        log_likelihood(f, wrong, ModelConfig(1))


def test_log_likelihood_decreases_with_larger_residual():
    config = ModelConfig(1, use_logistic=False)
    tensor = RelationalTensor.build(1, 1, [(0, 0, 0, 1)])
    values = []
    for scale in (1.0, 2.0, 4.0):
        f = factors_from_rows([[scale]], [[1.0]], [[1.0]])  # mean drifts away from y=1
        values.append(log_likelihood(f, tensor, config))
    assert values[0] > values[1] > values[2]


def test_cp_multilinearity():
    rng = np.random.default_rng(3)
    u1, u2 = rng.normal(size=3), rng.normal(size=3)
    v, r = rng.normal(size=3), rng.normal(size=3)
    a, b = rng.normal(), rng.normal()

    def recon(u_row):
        f = LatentFactors(u_row[None, :], v[None, :], r[None, :], 1.0)
        return reconstruct_one(f, 0, 0, 0)

    combined = recon(a * u1 + b * u2)
    assert combined == pytest.approx(a * recon(u1) + b * recon(u2))

    def recon_r(r_row):
        f = LatentFactors(u1[None, :], v[None, :], r_row[None, :], 1.0)
        return reconstruct_one(f, 0, 0, 0)

    assert recon_r(a * r + b * u2) == pytest.approx(a * recon_r(r) + b * recon_r(u2))
