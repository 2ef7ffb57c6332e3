import math

import numpy as np
import pytest

from linkpattern import model
from linkpattern.exceptions import DimensionMismatchError
from linkpattern.gibbs import SampleSet, predictive_scores
from linkpattern.model import (LatentFactors, ModelConfig, log_likelihood,
                               logistic, predict_entries, reconstruct_entries)
from linkpattern.tensor import RelationalTensor

from oracles import reference_entries, reference_logistic


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


def random_factors(seed, n, t, d):
    rng = np.random.default_rng(seed)
    return LatentFactors(rng.normal(size=(n, d)), rng.normal(size=(n, d)),
                         rng.normal(size=(t, d)), 1.0)


@pytest.mark.parametrize("dense", [True, False])
def test_reconstruct_entries_matches_per_entry_loop(dense):
    # the coordinates themselves, and as a tensor on each side of the kernel
    n, t = 6, 4
    f = random_factors(7, n, t, 3)
    if dense:  # every cell: one cell per coordinate
        ii, jj, tt = (a.ravel() for a in np.indices((n, n, t)))
    else:
        rng = np.random.default_rng(8)
        ii, jj, tt = rng.integers(0, n, 4), rng.integers(0, n, 4), rng.integers(0, t, 4)
    np.testing.assert_allclose(reconstruct_entries(f, ii, jj, tt),
                               reference_entries(f, ii, jj, tt), rtol=1e-12, atol=1e-13)
    groups = model.ObservationGroups(RelationalTensor(n, t, ii, jj, tt, np.ones_like(ii)))
    assert groups.dense is dense
    np.testing.assert_allclose(groups.reconstruct(f.U, f.V, f.R),
                               reference_entries(f, groups.ii, groups.jj, groups.tt),
                               rtol=1e-12, atol=1e-13)


def test_reconstruct_forms_agree(monkeypatch):
    f = random_factors(10, 5, 3, 2)
    rng = np.random.default_rng(11)
    ii, jj, tt = np.nonzero(rng.random((5, 5, 3)) < 0.7)
    tensor = RelationalTensor(5, 3, ii, jj, tt, np.ones_like(ii))
    dense = model.ObservationGroups(tensor)
    monkeypatch.setattr(model, "DENSE_CELLS_PER_ENTRY", 0)
    coordinate = model.ObservationGroups(tensor)
    assert dense.dense and not coordinate.dense
    np.testing.assert_allclose(dense.reconstruct(f.U, f.V, f.R),
                               coordinate.reconstruct(f.U, f.V, f.R), rtol=1e-12)


# every cell of an N = 2, T = 8 grid, or two coordinates
SCORED_COORDINATES = {True: [a.ravel() for a in np.indices((2, 2, 8))],
                      False: [[1, 0], [1, 1], [3, 7]]}


@pytest.mark.parametrize("bad", [(0, 2, 0), (-1, 0, 0), (0, 0, 8), (0, 0, -1)])
@pytest.mark.parametrize("all_cells", [True, False])
def test_scoring_rejects_out_of_range_coordinates(bad, all_cells):
    # N = 2, T = 8: flat indexing would read (0, 2, 0) as cell (1, 0, 0)
    f = random_factors(9, 2, 8, 2)
    good = SCORED_COORDINATES[all_cells]
    ii, jj, tt = (np.append(axis, value) for axis, value in zip(good, bad))
    samples = SampleSet.of([f])
    for score in (lambda: reconstruct_entries(f, ii, jj, tt),
                  lambda: predict_entries(f, ii, jj, tt, ModelConfig(2)),
                  lambda: predictive_scores(samples, ii, jj, tt, ModelConfig(2))):
        with pytest.raises(IndexError):
            score()


@pytest.mark.parametrize("all_cells", [True, False])
def test_scoring_accepts_the_coordinates_the_tensor_accepts(all_cells):
    # exact-integer floats score as their ints, as RelationalTensor takes them
    f = random_factors(9, 2, 8, 2)
    ints = SCORED_COORDINATES[all_cells]
    floats = [np.asarray(axis, dtype=np.float64) for axis in ints]
    fractional = [floats[0], floats[1], floats[2].copy()]
    fractional[2][0] = 0.5
    out_of_range = [floats[0], floats[1].copy(), floats[2]]
    out_of_range[1][-1] = 2.0
    samples = SampleSet.of([f])
    for score in (lambda *c: reconstruct_entries(f, *c),
                  lambda *c: predict_entries(f, *c, ModelConfig(2)),
                  lambda *c: predictive_scores(samples, *c, ModelConfig(2))):
        assert np.array_equal(score(*floats), score(*ints))
        with pytest.raises(ValueError):
            score(*fractional)
        with pytest.raises(IndexError):
            score(*out_of_range)


@pytest.mark.parametrize("coordinates", ["unsorted", "grid", "below-switch"])
def test_map_score_is_the_one_draw_posterior_mean(coordinates):
    # a MAP model (always gathered) scores as a sample set holding it alone,
    # bit for bit, whether that set takes the grid form or (below the
    # switch) the blocked gather
    n, t, d = 30, 7, 11
    f = random_factors(12, n, t, d)
    if coordinates == "grid":
        ii, jj, tt = (a.ravel() for a in np.indices((n, n, t)))
    else:  # 3 blocks and part of a fourth, or just under the switch, in no order
        rng = np.random.default_rng(13)
        size = (3 * model._SCORE_BLOCK + 100 if coordinates == "unsorted"
                else math.ceil(model.GRID_SHARE * n * n * t) - 1)
        ii, jj, tt = rng.integers(0, n, size), rng.integers(0, n, size), rng.integers(0, t, size)
    one_draw = SampleSet.of([f])
    logistic_link, identity = ModelConfig(d), ModelConfig(d, use_logistic=False)
    assert (predict_entries(f, ii, jj, tt, logistic_link).tobytes()
            == predictive_scores(one_draw, ii, jj, tt, logistic_link).tobytes())
    assert (np.clip(predict_entries(f, ii, jj, tt, identity), 0.0, 1.0).tobytes()
            == predictive_scores(one_draw, ii, jj, tt, identity).tobytes())


def test_logistic_properties():
    assert logistic(0.0) == 0.5
    assert logistic(3.7) + logistic(-3.7) == pytest.approx(1.0)
    assert logistic(500.0) == pytest.approx(1.0)
    assert logistic(-500.0) == pytest.approx(0.0, abs=1e-200)
    xs = np.linspace(-20, 20, 101)
    ys = logistic(xs)
    assert np.all(np.diff(ys) > 0)
    assert np.all((ys > 0) & (ys < 1))


def test_logistic_matches_masked_reference_bitwise():
    rng = np.random.default_rng(0)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-320, -1e-320,
                         745.0, -745.0, 800.0, -800.0])
    arrays = [rng.standard_normal(225_000) * scale for scale in (0.3, 3.0, 50.0, 800.0)]
    arrays += [specials, specials.reshape(3, 4), np.arange(-40, 41), np.array([], dtype=float),
               np.zeros((0, 3)), np.array(-2.5), np.array(0), np.array(np.nan)]
    for x in arrays:
        got, want = logistic(x), reference_logistic(x)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for x in [0.0, -0.0, 3.7, -3.7, 1e-320, -745.0, 800.0, float("inf"), float("-inf"),
              float("nan"), 2, -3, True, np.float64(-1.5)]:
        got, want = logistic(x), reference_logistic(x)
        assert type(got) is float and type(want) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
