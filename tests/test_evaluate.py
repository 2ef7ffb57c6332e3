import numpy as np
import pytest
from scipy.stats import rankdata

from linkpattern.evaluate import (METHOD_SCORERS, ExperimentResult, SplitSpec,
                                  TrainSettings, auc, evaluate_method,
                                  relation_ablation, split_fibers,
                                  write_results_csv)
from linkpattern.exceptions import DegenerateSplitError, UndefinedMetricError
from linkpattern.gibbs import HyperPriors
from linkpattern.io import SynthSpec, generate_synthetic
from linkpattern.tensor import RelationalTensor

from conftest import auc_pairwise, planted_binary_tensor


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.0)
    with pytest.raises(ValueError):
        SplitSpec(1.0)


def grid_tensor(n=6, t=2, seed=0):
    rng = np.random.default_rng(seed)
    triples = [(i, j, k, int(rng.random() < 0.5))
               for i in range(n) for j in range(n) for k in range(t)]
    return RelationalTensor.build(n, t, triples)


def test_split_fibers_partition_and_determinism():
    tensor = grid_tensor()
    spec = SplitSpec(0.25, seed=4)
    train1, test1 = split_fibers(tensor, spec)
    train2, test2 = split_fibers(tensor, spec)
    assert train1 == train2 and test1 == test2
    assert train1.observed_count + test1.observed_count == tensor.observed_count
    assert len(test1.fiber_keys()) == round(0.25 * len(tensor.fiber_keys()))
    other = split_fibers(tensor, SplitSpec(0.25, seed=5))[1]
    assert not np.array_equal(other.fiber_keys(), test1.fiber_keys())


def test_split_fibers_rounds_to_single_fiber():
    tensor = grid_tensor()  # 36 fibers
    _train, test = split_fibers(tensor, SplitSpec(0.02, seed=0))
    assert len(test.fiber_keys()) == 1


def test_split_fibers_degenerate_errors():
    tensor = grid_tensor()
    with pytest.raises(DegenerateSplitError):
        split_fibers(tensor, SplitSpec(0.001, seed=0))  # rounds to zero fibers
    single = RelationalTensor.build(2, 1, [(0, 1, 0, 1)])
    with pytest.raises(DegenerateSplitError):
        split_fibers(single, SplitSpec(0.5, seed=0))


def test_auc_examples():
    assert auc([0.9, 0.1], [1, 0]) == 1.0
    assert auc([0.4, 0.4, 0.4], [1, 0, 1]) == 0.5
    assert auc([0.1, 0.9], [1, 0]) == 0.0
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError):
        auc([0.1, 0.9], [1, 2])
    with pytest.raises(ValueError):
        auc([0.1], [1, 0])


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 200))
        # coarse score levels force plenty of ties
        levels = rng.integers(1, 6)
        scores = rng.choice(np.linspace(0, 1, levels), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == auc_pairwise(scores, labels)


def rank_sum_auc(scores, labels):
    """The rank-sum AUC on scipy's midranks, the formula ``auc`` once used."""
    ranks = rankdata(scores)
    pos = labels == 1
    n_pos = int(pos.sum())
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * (labels.size - n_pos))


@pytest.mark.parametrize("n,half", [(10_000, 1), (30_000, 20), (60_000, 2500)])
def test_auc_equals_rankdata_rank_sum_bitwise(n, half):
    # midranks are exact half-integers, so numpy's tie groups give scipy's
    # rank sum bit for bit, with signed zeros tied and infinities ranked
    rng = np.random.default_rng(n)
    scores = rng.integers(-half, half + 1, size=n) / half  # 2 half + 1 tied levels
    zeros = np.flatnonzero(scores == 0.0)
    scores[zeros[rng.random(zeros.size) < 0.5]] = -0.0
    signs = np.signbit(scores[zeros])
    assert signs.any() and not signs.all()
    scores[rng.random(n) < 0.03] = np.inf
    scores[rng.random(n) < 0.03] = -np.inf
    labels = (rng.random(n) < 0.5 + 0.2 * np.tanh(scores)).astype(np.int64)
    assert auc(scores, labels) == rank_sum_auc(scores, labels)


def test_auc_refuses_nan_and_ranks_infinities():
    with pytest.raises(ValueError, match="score 1 is NaN"):
        auc([0.5, np.nan, 0.2], [1, 0, 1])
    assert auc([np.inf, -np.inf], [1, 0]) == 1.0
    # -inf below everything, +inf above, and +inf ties +inf
    assert auc([-np.inf, np.inf, np.inf, 0.0], [1, 1, 0, 0]) == 0.375
    assert auc([-0.0, 0.0], [1, 0]) == 0.5


def perfect_scorer(test):
    """Scores each queried entry by its true label, looked up in the label
    array read here once; the scorer itself never reads the tensor."""
    n, T = test.n_objects, test.n_relations
    ii, jj, tt, labels = test.entry_arrays()
    keys = (ii * n + jj) * T + tt

    def scorer(train, qi, qj, qt, **kw):
        return labels[np.searchsorted(keys, (qi * n + qj) * T + qt)]
    return scorer


def constant_scorer(train, ii, jj, tt, **kw):
    return np.full(len(ii), 0.7)


def test_evaluate_method_oracle_and_constant():
    tensor = grid_tensor()
    train, test = split_fibers(tensor, SplitSpec(0.3, seed=1))
    res = evaluate_method(perfect_scorer(test), train, test, rank=1, seed=0)
    assert res.auc == 1.0
    res = evaluate_method(constant_scorer, train, test, rank=1, seed=0)
    assert res.auc == 0.5
    with pytest.raises(ValueError):
        evaluate_method("no-such-method", train, test, rank=1, seed=0)


def test_evaluate_method_macro_average():
    tensor = grid_tensor(t=3)
    train, test = split_fibers(tensor, SplitSpec(0.3, seed=2))
    pooled = evaluate_method(perfect_scorer(test), train, test, rank=1, seed=0)
    macro = evaluate_method(perfect_scorer(test), train, test, rank=1, seed=0,
                            macro_average=True)
    assert pooled.auc == macro.auc == 1.0


class CountingTensor(RelationalTensor):
    __slots__ = ("calls",)

    def __init__(self, base):
        super().__init__(base.n_objects, base.n_relations, *base.entry_arrays())
        self.calls = {"entry_arrays": 0, "slice": 0, "observed_keys": 0, "fiber_keys": 0}

    def entry_arrays(self):
        self.calls["entry_arrays"] += 1
        return super().entry_arrays()

    def slice(self, t):
        self.calls["slice"] += 1
        return super().slice(t)

    def observed_keys(self):
        self.calls["observed_keys"] += 1
        return super().observed_keys()

    def fiber_keys(self):
        self.calls["fiber_keys"] += 1
        return super().fiber_keys()


def test_no_test_leakage_into_training():
    tensor = grid_tensor(n=8, t=2, seed=3)
    train, test = split_fibers(tensor, SplitSpec(0.25, seed=0))
    counted_test = CountingTensor(test)
    settings = TrainSettings(map_max_iterations=30)
    seen, trained_on = [], []

    def pltf(train, ii, jj, tt, **kw):
        seen.append(dict(counted_test.calls))
        trained_on.append(train)
        scores = METHOD_SCORERS["pltf"](train, ii, jj, tt, **kw)
        seen.append(dict(counted_test.calls))
        return scores

    evaluate_method(pltf, train, counted_test, rank=2, seed=0, settings=settings)
    # evaluate_method reads the test coordinates and labels in one bulk
    # read before the scorer runs; training never reads the test tensor,
    # and the scorer trains on the training split exactly as given
    once = {"entry_arrays": 1, "slice": 0, "observed_keys": 0, "fiber_keys": 0}
    assert seen == [once, once]
    assert counted_test.calls == once
    assert trained_on == [train]


def test_hb_trained_beats_constant_baseline():
    d = 3
    priors = HyperPriors.default(d, w0=np.eye(d) / 20.0, nu0=20.0, gamma_shape=4.0)
    tensor, _ = generate_synthetic(SynthSpec(20, 3, d, observed_fraction=0.7,
                                             seed=2, hyperpriors=priors))
    settings = TrainSettings(gamma=0.1, num_samples=80, burn_in=20)
    margins = []
    for seed in range(5):
        train, test = split_fibers(tensor, SplitSpec(0.2, seed))
        hb = evaluate_method("hb-t", train, test, rank=d, seed=seed, settings=settings)
        const = evaluate_method(constant_scorer, train, test, rank=d, seed=seed)
        margins.append(hb.auc - const.auc)
    assert np.median(margins) > 0.2


def test_baseline_matches_full_sampler_on_single_relation():
    # with T=1 the per-slice baseline and the full sampler share the U, V
    # conditionals up to the frozen relation row; matched-seed scores agree
    tensor, _ = planted_binary_tensor(16, 1, 2, noise=0.2, fill=0.9, seed=9,
                                      r_rows=[[1.2, 0.8]])
    train, test = split_fibers(tensor, SplitSpec(0.25, seed=3))
    keys = np.asarray(test.observed_keys())
    ii, jj, tt = keys[:, 0], keys[:, 1], keys[:, 2]
    settings = TrainSettings(num_samples=1000, burn_in=200)
    s_base = METHOD_SCORERS["baseline"](train, ii, jj, tt, rank=2, seed=11, settings=settings)
    s_full = METHOD_SCORERS["hb-r"](train, ii, jj, tt, rank=2, seed=11, settings=settings)
    assert np.corrcoef(s_base, s_full)[0, 1] > 0.99


def test_baseline_per_slice_covers_all_test_entries():
    tensor = grid_tensor(n=8, t=3, seed=5)
    train, test = split_fibers(tensor, SplitSpec(0.25, seed=1))
    # drop one relation from the test side: that slice contributes nothing
    test_partial = test.without_relation(1)
    settings = TrainSettings(num_samples=30, burn_in=5)
    res = evaluate_method("baseline", train, test_partial, rank=2, seed=0, settings=settings)
    assert res.method == "baseline"
    assert res.auc is not None
    per_slice_counts = sum(test_partial.slice(t).observed_count for t in range(3))
    assert per_slice_counts == test_partial.observed_count


def test_dimension_sweep_planted_rank_oracle():
    d = 5
    priors = HyperPriors.default(d, w0=np.eye(d) / (30 * 0.8 ** 2), nu0=30.0,
                                 gamma_shape=4.0)
    tensor, _ = generate_synthetic(SynthSpec(25, 4, d, observed_fraction=0.6,
                                             seed=13, hyperpriors=priors))
    settings = TrainSettings(gamma=0.1, num_samples=120, burn_in=30)
    rank1, rank5 = [], []
    for seed in range(5):
        train, test = split_fibers(tensor, SplitSpec(0.2, seed))
        rank1.append(evaluate_method("hb-t", train, test, rank=1, seed=seed,
                                     settings=settings).auc)
        rank5.append(evaluate_method("hb-t", train, test, rank=5, seed=seed,
                                     settings=settings).auc)
    assert np.median(rank5) >= np.median(rank1)


def test_relation_ablation_baseline_row_and_shapes():
    tensor = grid_tensor(n=8, t=3, seed=7)
    settings = TrainSettings(map_max_iterations=40)
    spec = SplitSpec(0.25, seed=1)
    results, ranking = relation_ablation(tensor, split_spec=spec, rank=2,
                                         method="pltf", settings=settings)
    assert len(results) == 4
    assert sorted(ranking) == [0, 1, 2]
    train, test = split_fibers(tensor, spec)
    direct = evaluate_method("pltf", train, test, rank=2, seed=spec.seed,
                             settings=settings, split=spec)
    assert results[0].auc == direct.auc
    assert [r.method for r in results] == ["pltf", "pltf+rel0", "pltf+rel1", "pltf+rel2"]


def test_relation_ablation_zero_overlap_relation():
    # relation 2 never appears in the test fibers, so restoring it leaves
    # both sides unchanged and reproduces the baseline result
    triples = [(i, j, t, (i + j + t) % 2) for i in range(6) for j in range(6)
               for t in range(2)]
    triples += [(i, i, 2, i % 2) for i in range(6)]  # relation 2 on self-pairs only
    tensor = RelationalTensor.build(6, 3, triples)
    hidden = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (1, 3), (2, 4)]
    train, test = tensor.hide_fibers(hidden)
    assert test.slice(2).observed_count == 0
    settings = TrainSettings(map_max_iterations=40)
    base = evaluate_method("pltf", train, test, rank=2, seed=0, settings=settings)
    from linkpattern.evaluate import _restore_relation
    train2, test2 = _restore_relation(test, train, 2)
    assert train2 == train and test2 == test
    again = evaluate_method("pltf", train2, test2, rank=2, seed=0, settings=settings)
    assert again.auc == base.auc


def test_relation_ablation_planted_dominant_relation():
    # relation 0 is by far the densest; restoring its held-out entries
    # sharpens the shared factors the most
    rng = np.random.default_rng(3)
    n, d, t_count = 25, 2, 4
    u = rng.normal(0, 1, (n, d))
    v = rng.normal(0, 1, (n, d))
    r = np.array([[1.5, 0.9], [0.9, 1.5], [1.2, -1.0], [-0.8, 1.4]])
    recon = np.einsum("id,jd,td->ijt", u, v, r)
    noisy = recon + rng.normal(0, 0.5, recon.shape)
    density = [0.9, 0.2, 0.2, 0.2]
    triples = [(i, j, t, int(noisy[i, j, t] > 0)) for i in range(n) for j in range(n)
               for t in range(t_count) if rng.random() < density[t]]
    tensor = RelationalTensor.build(n, t_count, triples)
    settings = TrainSettings(gamma=0.1)
    gains = {t: [] for t in range(t_count)}
    for seed in range(5):
        results, _ranking = relation_ablation(tensor, split_spec=SplitSpec(0.25, seed),
                                              rank=d, method="pltf", settings=settings)
        base = results[0].auc
        for t in range(t_count):
            gains[t].append(results[1 + t].auc - base)
    medians = {t: np.median(gains[t]) for t in range(t_count)}
    assert medians[0] == max(medians.values())


def test_relation_ablation_single_class_cells():
    # every entry is 1, so every cell's test set has one class
    tensor = RelationalTensor.build(6, 2, [(i, j, t, 1) for i in range(6) for j in range(6)
                                           for t in range(2)])
    spec = SplitSpec(0.25, seed=0)
    with pytest.raises(UndefinedMetricError):
        relation_ablation(tensor, split_spec=spec, rank=1)
    undefined = []
    results, ranking = relation_ablation(tensor, split_spec=spec, rank=1,
                                         on_undefined=lambda name, exc: undefined.append(name))
    assert undefined == ["pltf", "pltf+rel0", "pltf+rel1"]
    assert [r.method for r in results] == undefined
    assert all(r.auc is None for r in results) and ranking == []


def test_relation_ablation_requires_multiple_relations():
    tensor = grid_tensor(n=4, t=1)
    with pytest.raises(ValueError):
        relation_ablation(tensor, split_spec=SplitSpec(0.25, seed=0), rank=1)


def test_write_results_csv_format(tmp_path):
    results = [
        ExperimentResult("pltf", SplitSpec(0.2, 1), rank=5, seed=1, auc=0.87654321,
                         wall_time_s=1.234567, repeat_index=1),
        ExperimentResult("baseline", SplitSpec(0.2, 0), rank=5, seed=0, auc=None,
                         wall_time_s=0.5, repeat_index=0),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(results, "demo", path)
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "method,dataset,fraction,rank,seed,auc,wall_time_s"
    assert lines[1] == "baseline,demo,0.2,5,0,NA,0.000000"
    assert lines[2] == "pltf,demo,0.2,5,1,0.876543,0.000000"
    assert text.endswith("\n") and "\r" not in text

    write_results_csv(results, "demo", path, include_timing=True)
    assert "1.234567" in path.read_text()


def test_experiment_result_validates_auc_range():
    with pytest.raises(ValueError):
        ExperimentResult("pltf", None, rank=1, seed=0, auc=1.5, wall_time_s=0.0)
