import numpy as np
import pytest

from linkpattern import model, optimize
from linkpattern.evaluate import SplitSpec, auc, split_fibers
from linkpattern.exceptions import NotPositiveDefiniteError, StallError
from linkpattern.model import LatentFactors, ModelConfig, log_likelihood
from linkpattern.optimize import MapConfig, fit_map, gradients, objective
from linkpattern.tensor import RelationalTensor

IDENTITY = ModelConfig(1, use_logistic=False)
LOGISTIC = ModelConfig(1, use_logistic=True)


def factors_from_rows(u, v, r, alpha=1.0):
    return LatentFactors(np.asarray(u, float), np.asarray(v, float), np.asarray(r, float), alpha)


def zero_gamma(**kw):
    return MapConfig(gamma_u=0.0, gamma_v=0.0, gamma_r=0.0, **kw)


def test_objective_examples():
    one = RelationalTensor.build(1, 1, [(0, 0, 0, 1)])
    zero = factors_from_rows([[0.0]], [[0.0]], [[0.0]])
    assert objective(zero, one, IDENTITY, zero_gamma()) == pytest.approx(0.5)
    assert objective(zero, one, LOGISTIC, zero_gamma()) == pytest.approx(0.125)

    empty = RelationalTensor.build(1, 1, [])
    f = factors_from_rows([[3.0, 4.0]], [[0.0, 0.0]], [[0.0, 0.0]])
    cfg = MapConfig(gamma_u=1.0, gamma_v=0.0, gamma_r=0.0)
    assert objective(f, empty, ModelConfig(2, use_logistic=False), cfg) == pytest.approx(12.5)


def test_objective_regularizer_scaling_on_empty_data():
    empty = RelationalTensor.build(2, 2, [])
    rng = np.random.default_rng(1)
    f = LatentFactors(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                      rng.normal(size=(2, 2)), 1.0)
    cfg = ModelConfig(2, use_logistic=False)
    base = objective(f, empty, cfg, MapConfig(gamma_u=0.3, gamma_v=0.2, gamma_r=0.1))
    tripled = objective(f, empty, cfg, MapConfig(gamma_u=0.9, gamma_v=0.6, gamma_r=0.3))
    assert tripled == pytest.approx(3.0 * base)


def test_gradients_empty_tensor():
    empty = RelationalTensor.build(2, 1, [])
    rng = np.random.default_rng(2)
    f = LatentFactors(rng.normal(size=(2, 1)), rng.normal(size=(2, 1)),
                      rng.normal(size=(1, 1)), 1.0)
    dU, dV, dR = gradients(f, empty, IDENTITY, zero_gamma())
    assert not dU.any() and not dV.any() and not dR.any()
    dU, dV, dR = gradients(f, empty, IDENTITY, MapConfig(gamma_u=2.0, gamma_v=0.0, gamma_r=0.0))
    assert np.allclose(dU, 2.0 * f.U)
    assert not dV.any() and not dR.any()


def finite_difference_gradients(factors, tensor, model_cfg, map_cfg, h=1e-6):
    blocks = []
    for name in ("U", "V", "R"):
        mat = getattr(factors, name)
        grad = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            for sign in (1.0, -1.0):
                bumped = factors.copy()
                getattr(bumped, name)[idx] += sign * h
                grad[idx] += sign * objective(bumped, tensor, model_cfg, map_cfg)
        blocks.append(grad / (2.0 * h))
    return tuple(blocks)


def random_instance(seed, n=3, t=2, d=2, fill=0.8):
    rng = np.random.default_rng(seed)
    triples = [(i, j, k, int(rng.random() < 0.5))
               for i in range(n) for j in range(n) for k in range(t)
               if rng.random() < fill]
    tensor = RelationalTensor.build(n, t, triples)
    factors = LatentFactors(rng.normal(0, 0.7, (n, d)), rng.normal(0, 0.7, (n, d)),
                            rng.normal(0, 0.7, (t, d)), 1.0)
    return tensor, factors


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        scale = max(1.0, float(np.max(np.abs(b))))
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst


def instance_on_side(dense):
    """A random instance on the masked-dense or the coordinate side of the kernel."""
    if dense:
        tensor, factors = random_instance(seed=5)
    else:
        tensor, factors = random_instance(seed=5, n=8, t=3,
                                          fill=0.5 / model.DENSE_CELLS_PER_ENTRY)
    assert optimize._Loss(tensor, IDENTITY, MapConfig()).entries.dense is dense
    assert tensor.observed_count >= 3
    return tensor, factors


# [False] and [True] name the link; the -coordinate cases rerun it on the other kernel form
BOTH_FORMS = pytest.mark.parametrize(
    "use_logistic, dense", [(False, True), (True, True), (False, False), (True, False)],
    ids=["False", "True", "False-coordinate", "True-coordinate"])


@BOTH_FORMS
def test_gradients_match_central_differences(use_logistic, dense):
    model_cfg = ModelConfig(2, use_logistic=use_logistic)
    map_cfg = MapConfig(gamma_u=0.05, gamma_v=0.02, gamma_r=0.08)
    tensor, factors = instance_on_side(dense)
    analytic = gradients(factors, tensor, model_cfg, map_cfg)
    numeric = finite_difference_gradients(factors, tensor, model_cfg, map_cfg)
    assert max_rel_error(analytic, numeric) <= 1e-5


def backtrack_along(current, direction, grad, f_current, evaluate):
    return optimize._backtrack(float(np.dot(grad, direction)),
                               lambda step: evaluate(current + step * direction), f_current)


def test_line_search_quadratic_accepts():
    current = np.array([2.0])
    grad = np.array([4.0])
    step = backtrack_along(current, -grad, grad, 4.0, lambda x: float(x @ x))
    assert step > 0
    assert float((current - step * grad)[0] ** 2) < 4.0


def test_line_search_rejects_ascent_direction():
    current = np.array([2.0])
    grad = np.array([4.0])
    with pytest.raises(StallError):
        backtrack_along(current, grad, grad, 4.0, lambda x: float(x @ x))


@BOTH_FORMS
def test_accepted_trial_value_is_the_traced_objective(use_logistic, dense, monkeypatch):
    # fit_map's line search scores each trial step with the loss kernel the
    # oracles check, so the last trial of every iteration, the accepted
    # step, is bitwise the objective the trace records for it.  An ALS
    # sweep (identity link) counts as one trial, its one evaluation, and
    # the ALS fit evaluates its start point first.
    trial_values = []
    value_and_gradient = optimize._Loss.value_and_gradient

    def recording(self, x, with_gradient=True):
        value, grad = value_and_gradient(self, x, with_gradient)
        if not with_gradient:
            trial_values.append(value)
        return value, grad

    monkeypatch.setattr(optimize._Loss, "value_and_gradient", recording)
    tensor, _ = instance_on_side(dense)
    model_cfg = ModelConfig(2, use_logistic=use_logistic)
    map_cfg = MapConfig(gamma_u=0.05, gamma_v=0.02, gamma_r=0.08, seed=4, max_iterations=40)
    _factors, trace = fit_map(tensor, model_cfg, map_cfg)
    assert trace.iterations > 0
    first = 0 if use_logistic else 1
    ends = first + np.cumsum(trace.trials)
    assert ends[-1] <= len(trial_values)
    assert use_logistic or trial_values[0] == trace.objectives[0]
    for k, end in enumerate(ends):
        assert trial_values[end - 1] == trace.objectives[k + 1]


def planted_rank1_tensor():
    u = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    v = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
    r = np.array([1.0, 1.0])
    y = np.einsum("i,j,t->ijt", u, v, r)
    triples = [(i, j, t, int(y[i, j, t])) for i in range(5) for j in range(5) for t in range(2)]
    return RelationalTensor.build(5, 2, triples)


def test_fit_map_recovers_planted_rank1():
    tensor = planted_rank1_tensor()
    factors, trace = fit_map(tensor, ModelConfig(1, use_logistic=False),
                             zero_gamma(seed=0, max_iterations=3000, rel_tolerance=1e-14))
    assert trace.objectives[-1] <= 1e-6
    assert objective(factors, tensor, ModelConfig(1, use_logistic=False),
                     zero_gamma()) <= 1e-6


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "coordinate"])
def test_als_traces_true_gradient_norms_and_strict_descent(dense):
    # each identity-link sweep's gradient norm, built from the normal terms,
    # is the norm of the MTTKRP gradient the oracles check at that iterate
    tensor, _ = instance_on_side(dense)
    model_cfg = ModelConfig(2, use_logistic=False)
    sweeps = 6
    config = dict(gamma_u=0.05, gamma_v=0.02, gamma_r=0.08, seed=4)
    _factors, trace = fit_map(tensor, model_cfg, MapConfig(max_iterations=sweeps, **config))
    assert trace.termination == "max_iterations"
    assert all(b < a for a, b in zip(trace.objectives, trace.objectives[1:]))
    assert trace.step_sizes == [1.0] * sweeps and trace.trials == [1] * sweeps
    assert trace.restarts == 0
    for k in range(1, sweeps + 1):
        map_cfg = MapConfig(max_iterations=k, **config)
        factors, _trace = fit_map(tensor, model_cfg, map_cfg)
        norm = np.sqrt(sum(np.sum(g * g) for g in gradients(factors, tensor, model_cfg,
                                                            map_cfg)))
        assert trace.gradient_norms[k - 1] == pytest.approx(norm, rel=1e-10)


def test_als_singular_row_raises_typed_error():
    # at zero ridge weights an object with no observations has an all-zero
    # Gram, so its row's system cannot be solved
    triples = [(i, j, t, (i + j + t) % 2) for i in range(3) for j in range(3) for t in range(2)]
    tensor = RelationalTensor.build(4, 2, triples)
    with pytest.raises(NotPositiveDefiniteError, match="U row 3"):
        fit_map(tensor, IDENTITY, zero_gamma(seed=0))


def test_fit_map_descends_on_all_zero_data():
    triples = [(i, j, 0, 0) for i in range(3) for j in range(3)]
    tensor = RelationalTensor.build(3, 1, triples)
    _factors, trace = fit_map(tensor, IDENTITY, MapConfig(seed=1, max_iterations=50))
    assert trace.objectives[-1] <= trace.objectives[0]
    assert all(b <= a for a, b in zip(trace.objectives, trace.objectives[1:]))


def test_fit_map_deterministic_trace():
    tensor, _ = random_instance(seed=9, n=4, t=2)
    cfg = MapConfig(seed=7, max_iterations=60)
    f1, t1 = fit_map(tensor, LOGISTIC, cfg)
    f2, t2 = fit_map(tensor, LOGISTIC, cfg)
    assert t1.objectives == t2.objectives
    assert t1.gradient_norms == t2.gradient_norms
    assert t1.step_sizes == t2.step_sizes
    assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V) and np.array_equal(f1.R, f2.R)


def test_fit_map_trace_monotone_and_consistent():
    tensor, _ = random_instance(seed=11, n=4, t=3)
    model_cfg = ModelConfig(2, use_logistic=True)
    map_cfg = MapConfig(seed=3, max_iterations=80)
    factors, trace = fit_map(tensor, model_cfg, map_cfg)
    assert all(b <= a for a, b in zip(trace.objectives, trace.objectives[1:]))
    assert trace.objectives[-1] == pytest.approx(
        objective(factors, tensor, ModelConfig(2, use_logistic=True), map_cfg))
    assert trace.termination in {"converged", "no_progress", "max_iterations", "stalled"}


def test_fit_map_reports_no_progress_stop():
    # no gradient norm falls below this tolerance's convergence bound, so the
    # fit runs until an accepted step no longer lowers the directly
    # evaluated objective
    tensor, _ = random_instance(seed=11, n=3, t=2)
    model_cfg = ModelConfig(2, use_logistic=False)
    map_cfg = MapConfig(seed=11, max_iterations=5000, rel_tolerance=1e-300)
    factors, trace = fit_map(tensor, model_cfg, map_cfg)
    assert trace.termination == "no_progress"
    assert trace.iterations < map_cfg.max_iterations
    # the rejected iterate is dropped: the result is the last accepted one
    assert trace.objectives[-1] == objective(factors, tensor, model_cfg, map_cfg)


def test_map_objective_matches_negative_log_posterior_argmin():
    # with fixed alpha and gamma = prior-to-noise ratios, the objective and
    # the negative log posterior rank candidate factors identically
    tensor, _ = random_instance(seed=13, n=3, t=2)
    alpha = 2.3
    gamma = 0.07
    alpha_prior = gamma * alpha
    model_cfg = ModelConfig(2, use_logistic=False)
    map_cfg = MapConfig(gamma_u=gamma, gamma_v=gamma, gamma_r=gamma)

    def log_posterior(factors):
        with_alpha = LatentFactors(factors.U, factors.V, factors.R, alpha)
        value = log_likelihood(with_alpha, tensor, model_cfg)
        for block in (factors.U, factors.V, factors.R):
            value -= 0.5 * alpha_prior * float(np.sum(block ** 2))
        return value

    rng = np.random.default_rng(17)
    candidates = [LatentFactors(rng.normal(0, 0.8, (3, 2)), rng.normal(0, 0.8, (3, 2)),
                                rng.normal(0, 0.8, (2, 2)), 1.0) for _ in range(12)]
    objectives = [objective(f, tensor, model_cfg, map_cfg) for f in candidates]
    posteriors = [log_posterior(f) for f in candidates]
    assert int(np.argmin(objectives)) == int(np.argmax(posteriors))


def test_fit_map_rejects_empty_tensor():
    with pytest.raises(ValueError):
        fit_map(RelationalTensor.build(2, 1, []), IDENTITY, MapConfig())


def test_fit_map_trials_count_line_objective_calls(monkeypatch):
    # every trial step of the Armijo search is one evaluation of the
    # objective without its gradient
    calls, gradient_calls = [], []
    value_and_gradient = optimize._Loss.value_and_gradient

    def counting(self, x, with_gradient=True):
        (gradient_calls if with_gradient else calls).append(x)
        return value_and_gradient(self, x, with_gradient)

    monkeypatch.setattr(optimize._Loss, "value_and_gradient", counting)
    tensor, _ = random_instance(seed=9, n=4, t=2)
    _factors, trace = fit_map(tensor, LOGISTIC, MapConfig(seed=7, max_iterations=60))
    assert len(trace.trials) == trace.iterations > 0
    assert sum(trace.trials) == len(calls)
    # the gradient is asked for only at the start point; an accepted step
    # takes its gradient from its last trial's residual
    assert len(gradient_calls) == 1
    for step, trials in zip(trace.step_sizes, trace.trials):
        # an accepted step 0.5**k took k + 1 trials, more after a stall retry
        assert trials >= round(-np.log2(step)) + 1


@pytest.mark.parametrize("split_seed", [30, 964])
def test_fit_map_does_not_stop_on_a_plateau(split_seed):
    # On these splits of the acceptance battery, a 30-iteration logistic fit
    # once stopped as "converged" after 10 or 11 iterations: a tiny accepted
    # step lowered the objective by under rel_tolerance while the gradient
    # norm was still 3 to 5, and the held-out AUC was below 0.5.
    from test_acceptance import acceptance_dataset  # it imports this module
    train, test = split_fibers(acceptance_dataset(), SplitSpec(0.2, split_seed))
    model_cfg = ModelConfig(5, use_logistic=True)
    ii, jj, tt, yy = test.entry_arrays()
    for cap in (30, 500):
        map_cfg = MapConfig(gamma_u=0.1, gamma_v=0.1, gamma_r=0.1, max_iterations=cap,
                            seed=split_seed)
        factors, trace = fit_map(train, model_cfg, map_cfg)
        assert trace.termination in {"converged", "max_iterations"}
        if trace.termination == "converged":  # the three-part test's gradient part
            tau = map_cfg.rel_tolerance
            assert trace.gradient_norms[-1] <= tau ** (1 / 3) * (1 + abs(trace.objectives[-1]))
        else:
            assert trace.iterations == cap
        assert trace.restarts >= 1
        assert auc(model.predict_entries(factors, ii, jj, tt, model_cfg), yy) >= 0.6
