import itertools
import math

import numpy as np
import pytest

from linkpattern import model, optimize
from linkpattern.evaluate import SplitSpec, auc, split_fibers
from linkpattern.exceptions import DivergenceError, NotPositiveDefiniteError, StallError
from linkpattern.io import SynthSpec, generate_synthetic
from linkpattern.model import LatentFactors, ModelConfig, log_likelihood
from linkpattern.optimize import MapConfig, fit_map, gradients, objective
from linkpattern.tensor import RelationalTensor

IDENTITY = ModelConfig(1, use_logistic=False)
LOGISTIC = ModelConfig(1, use_logistic=True)
LOGISTIC_RANK2 = ModelConfig(2, use_logistic=True)


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
                bumped = LatentFactors(factors.U.copy(), factors.V.copy(), factors.R.copy(),
                                       factors.alpha)
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
    assert optimize._Loss(tensor, IDENTITY, MapConfig()).groups.dense is dense
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


@pytest.mark.parametrize("use_logistic", [False, True])
@pytest.mark.parametrize("layout", ["fibers", "entries"])
def test_gradients_agree_in_masked_and_row_forms(use_logistic, layout, monkeypatch):
    # The gradient's right-hand sides come from the Gibbs groups: weighted
    # (T, N, N) slices under the fiber mask (K = 1) or the entry masks
    # (K = T), and the per-row loop once the row form is forced.
    rng = np.random.default_rng(12)
    n, t, d = 7, 3, 2
    fibers = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.7]
    cells = [(i, j, k) for i, j in fibers for k in range(t)
             if layout == "fibers" or rng.random() < 0.6]
    tensor = RelationalTensor.build(n, t, [(*cell, int(rng.random() < 0.5)) for cell in cells])
    factors = LatentFactors(*(rng.normal(0, 0.7, (m, d)) for m in (n, n, t)), 1.0)
    model_cfg = ModelConfig(d, use_logistic=use_logistic)
    map_cfg = MapConfig(gamma_u=0.05, gamma_v=0.02, gamma_r=0.08)
    masks = optimize._Loss(tensor, model_cfg, map_cfg).groups.masks
    assert len(masks) == (1 if layout == "fibers" else t)
    masked = gradients(factors, tensor, model_cfg, map_cfg)
    monkeypatch.setattr(model, "DENSE_CELLS_PER_ENTRY", 0)
    assert optimize._Loss(tensor, model_cfg, map_cfg).groups.masks is None
    for a, b in zip(masked, gradients(factors, tensor, model_cfg, map_cfg)):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def square(x, bound=math.inf):
    """An objective for the line search; like the loss, it takes the Armijo bound."""
    return float(x @ x)


def test_line_search_quadratic_accepts():
    current = np.array([2.0])
    grad = np.array([4.0])
    step, value = optimize._backtrack(square, current, 4.0, grad, -grad)
    assert step > 0
    assert value == float((current - step * grad)[0] ** 2) < 4.0


def test_line_search_rejects_ascent_direction():
    current = np.array([2.0])
    grad = np.array([4.0])
    with pytest.raises(StallError):
        optimize._backtrack(square, current, 4.0, grad, grad)


def fit_with_trial_block(tensor, model_cfg, map_cfg, block, monkeypatch):
    """fit_map with ``block`` entries per trial block; returns the factors,
    the trace and every objective value the loss returned."""
    monkeypatch.setattr(optimize, "_TRIAL_BLOCK", block)
    values, _gradients, _reconstructions = record_loss_calls(monkeypatch)
    factors, trace = fit_map(tensor, model_cfg, map_cfg)
    monkeypatch.undo()
    return factors, trace, values


@pytest.mark.parametrize("dense", [True, False], ids=["masked", "row"])
def test_bounded_trials_leave_the_fit_bitwise(dense, monkeypatch):
    # Scored 5 entries at a time, most rejected trials stop after a few
    # blocks and return inf; the accepted ones, the trace and the factors
    # are bitwise those of trials scored as one whole block.
    tensor, _ = generate_synthetic(SynthSpec(8, 3, 2, seed=3))
    model_cfg = ModelConfig(4, use_logistic=True)
    map_cfg = MapConfig(seed=5, max_iterations=40)
    runs = []
    for block in (tensor.observed_count, 5):
        if not dense:
            monkeypatch.setattr(model, "DENSE_CELLS_PER_ENTRY", 0)
        assert optimize._Loss(tensor, model_cfg, map_cfg).groups.dense is dense
        runs.append(fit_with_trial_block(tensor, model_cfg, map_cfg, block, monkeypatch))
    (whole_factors, whole, whole_values), (factors, trace, values) = runs
    assert math.inf not in whole_values
    assert values.count(math.inf) >= 20
    assert trace == whole and trace.iterations == 40
    assert flat(factors).tobytes() == flat(whole_factors).tobytes()
    for value, whole_value in zip(values, whole_values):
        assert value == whole_value or value == math.inf > whole_value


@pytest.mark.parametrize("use_logistic", [False, True])
def test_bounded_value_is_the_value_or_inf(use_logistic, monkeypatch):
    # value(x, bound) is bitwise value(x), or inf when value(x) > bound:
    # bounds at, just above and just below the value, and far from it, at
    # points from the start scale to saturated ones
    monkeypatch.setattr(optimize, "_TRIAL_BLOCK", 3)
    tensor, _ = random_instance(seed=21, n=5, t=3)
    model_cfg = ModelConfig(2, use_logistic=use_logistic)
    loss = optimize._Loss(tensor, model_cfg, MapConfig(gamma_u=0.05, gamma_v=0.02,
                                                       gamma_r=0.08))
    assert tensor.observed_count > 3 * optimize._TRIAL_BLOCK
    rng = np.random.default_rng(22)
    cut = 0
    for scale in (0.1, 1.0, 10.0, 1e3):
        for _ in range(20):
            x = scale * rng.standard_normal((2 * loss.n + loss.t) * loss.d)
            whole = loss.value(x)
            for bound in (whole, np.nextafter(whole, np.inf), np.nextafter(whole, -np.inf),
                          whole * (1 + 1e-9), whole * (1 - 1e-9), 0.9 * whole, 0.5 * whole,
                          0.1 * whole, 2.0 * whole, 0.0, -1.0, math.inf):
                value = loss.value(x, bound)
                assert value == whole or (value == math.inf and whole > bound)
                cut += value == math.inf
    assert cut > 100


def test_nan_past_the_exit_point_still_diverges(monkeypatch):
    # From the ninth iteration on, each trial's reconstruction misfits
    # every label in its first block, which proves the trial rejected
    # there, and holds a NaN only in its last entry.  The NaN is found in
    # the unscored rest, so the search ends on a NaN objective and the fit
    # raises, as it does when the NaN comes first.
    monkeypatch.setattr(optimize, "_TRIAL_BLOCK", 4)
    tensor, _ = random_instance(seed=9, n=4, t=2)
    _factors8, trace8 = fit_map(tensor, LOGISTIC_RANK2, MapConfig(seed=7, max_iterations=8))

    def misfit_then_nan(groups, _s):
        s = 1e3 * (0.5 - groups.y)
        s[-1] = np.nan
        return s

    assert tensor.observed_count > optimize._TRIAL_BLOCK
    reconstructions_after(monkeypatch, 1 + sum(trace8.trials), misfit_then_nan)
    with pytest.raises(DivergenceError, match="non-finite") as raised:
        fit_map(tensor, LOGISTIC_RANK2, MapConfig(seed=7, max_iterations=60))
    assert raised.value.iteration == 8


def record_loss_calls(monkeypatch):
    """Record every objective value, gradient and reconstruction of the loss
    kernel; returns the three lists."""
    values, gradient_calls, reconstructions = [], [], []
    value, gradient = optimize._Loss.value, optimize._Loss.gradient
    reconstruct = model.ObservationGroups.reconstruct

    def recording_value(self, x, bound=math.inf):
        values.append(value(self, x, bound))
        return values[-1]

    def recording_gradient(self):
        gradient_calls.append(len(values))
        return gradient(self)

    def recording_reconstruct(self, A, B, C):
        reconstructions.append(len(values))
        return reconstruct(self, A, B, C)

    monkeypatch.setattr(optimize._Loss, "value", recording_value)
    monkeypatch.setattr(optimize._Loss, "gradient", recording_gradient)
    monkeypatch.setattr(model.ObservationGroups, "reconstruct", recording_reconstruct)
    return values, gradient_calls, reconstructions


@BOTH_FORMS
def test_accepted_trial_value_is_the_traced_objective(use_logistic, dense, monkeypatch):
    # fit_map's line search scores each trial step with the loss kernel the
    # oracles check, so the last trial of every iteration, the accepted
    # step, is bitwise the objective the trace records for it.  An ALS
    # sweep (identity link) counts as one trial, its one evaluation, and
    # both fits evaluate their start point first.
    trial_values, _gradients, _reconstructions = record_loss_calls(monkeypatch)
    tensor, _ = instance_on_side(dense)
    model_cfg = ModelConfig(2, use_logistic=use_logistic)
    map_cfg = MapConfig(gamma_u=0.05, gamma_v=0.02, gamma_r=0.08, seed=4, max_iterations=40)
    _factors, trace = fit_map(tensor, model_cfg, map_cfg)
    assert trace.iterations > 0
    ends = 1 + np.cumsum(trace.trials)
    assert ends[-1] <= len(trial_values)
    assert trial_values[0] == trace.objectives[0]
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


@pytest.mark.parametrize("use_logistic", [False, True])
def test_fit_map_reports_no_progress_stop(use_logistic):
    # no gradient norm falls below this tolerance's convergence bound, so the
    # fit runs until an accepted step no longer lowers the directly
    # evaluated objective
    tensor, _ = random_instance(seed=11, n=3, t=2)
    model_cfg = ModelConfig(2, use_logistic=use_logistic)
    map_cfg = MapConfig(seed=11, max_iterations=5000, rel_tolerance=1e-300)
    factors, trace = fit_map(tensor, model_cfg, map_cfg)
    assert trace.termination == "no_progress"
    assert trace.iterations < map_cfg.max_iterations
    # the rejected iterate is dropped: the result is the last accepted one
    assert trace.objectives[-1] == objective(factors, tensor, model_cfg, map_cfg)


@pytest.mark.parametrize("use_logistic", [False, True])
def test_fit_map_reports_converged_by_the_three_part_test(use_logistic):
    tensor, _ = random_instance(seed=9, n=4, t=2)
    model_cfg = ModelConfig(2, use_logistic=use_logistic)
    map_cfg = MapConfig(seed=9, max_iterations=5000)
    _factors, trace = fit_map(tensor, model_cfg, map_cfg)
    assert trace.termination == "converged"
    tau = map_cfg.rel_tolerance
    f, f_new = trace.objectives[-2:]
    assert f - f_new < tau * (1 + abs(f_new))
    assert trace.gradient_norms[-1] <= tau ** (1 / 3) * (1 + abs(f_new))
    # the last iteration is the first to pass: one fewer stops at the cap
    capped = MapConfig(seed=9, max_iterations=trace.iterations - 1)
    _factors, shorter = fit_map(tensor, model_cfg, capped)
    assert shorter.termination == "max_iterations"
    assert shorter.objectives == trace.objectives[:-1]


def flat(factors):
    return np.concatenate([factors.U.ravel(), factors.V.ravel(), factors.R.ravel()])


def reconstructions_after(monkeypatch, calls, replace):
    """Every reconstruction ``s`` of the CP kernel after the first ``calls``
    becomes ``replace(groups, s)``."""
    reconstruct = model.ObservationGroups.reconstruct
    counter = itertools.count(1)

    def failing(self, A, B, C):
        s = reconstruct(self, A, B, C)
        return s if next(counter) <= calls else replace(self, s)

    monkeypatch.setattr(model.ObservationGroups, "reconstruct", failing)


def nan_reconstructions_after(monkeypatch, calls):
    """Every reconstruction of the CP kernel after the first ``calls`` is all NaN."""
    reconstructions_after(monkeypatch, calls, lambda _groups, s: np.full_like(s, np.nan))


@pytest.mark.parametrize("use_logistic", [False, True])
def test_only_the_line_search_stalls(use_logistic, monkeypatch):
    # with no trial step able to decrease enough, CG fails from its first
    # direction (steepest descent) and stops at its start point; an ALS
    # sweep solves each block exactly, with no line search to fail
    tensor, _ = random_instance(seed=9, n=4, t=2)
    model_cfg = ModelConfig(2, use_logistic=use_logistic)
    map_cfg = MapConfig(seed=7, max_iterations=20)
    reference_factors, reference = fit_map(tensor, model_cfg, map_cfg)
    monkeypatch.setattr(optimize, "SUFFICIENT_DECREASE", 1e10)
    factors, trace = fit_map(tensor, model_cfg, map_cfg)
    if use_logistic:
        assert trace.termination == "stalled"
        assert trace.iterations == 0 and trace.objectives == reference.objectives[:1]
        assert objective(factors, tensor, model_cfg, map_cfg) == trace.objectives[0]
    else:
        assert trace == reference
        assert np.array_equal(flat(factors), flat(reference_factors))


def test_cg_stalls_after_its_steepest_descent_retry(monkeypatch):
    # Every trial after the eighth iteration's scores each label's opposite
    # under the logistic link, the largest misfit there is: finite, and
    # above the eighth objective, so no Armijo test accepts it.  The ninth
    # iteration's search fails along its CG direction (beta > 0 there),
    # restarts once from steepest descent, fails again and ends the fit
    # with the eighth iterate.
    tensor, _ = random_instance(seed=9, n=4, t=2)
    factors8, trace8 = fit_map(tensor, LOGISTIC_RANK2, MapConfig(seed=7, max_iterations=8))
    reconstructions_after(monkeypatch, 1 + sum(trace8.trials),
                          lambda groups, _s: 1e3 * (0.5 - groups.y))
    factors, trace = fit_map(tensor, LOGISTIC_RANK2, MapConfig(seed=7, max_iterations=60))
    assert trace.termination == "stalled"
    assert trace.objectives == trace8.objectives and trace.trials == trace8.trials
    assert trace.restarts == trace8.restarts + 1
    assert np.array_equal(flat(factors), flat(factors8))


def test_cg_counts_a_reset_only_when_the_next_step_makes_it():
    # (N + T) D = 14: iteration 14 calls for the periodic reset, which the
    # 15th iteration makes; a fit capped at 14 iterations never makes it
    tensor, _ = generate_synthetic(SynthSpec(4, 3, 2, seed=3))
    traces = {cap: fit_map(tensor, LOGISTIC_RANK2,
                           MapConfig(rel_tolerance=1e-12, seed=0, max_iterations=cap))[1]
              for cap in (13, 14, 15)}
    assert all(trace.termination == "max_iterations" for trace in traces.values())
    assert traces[14].objectives[:-1] == traces[13].objectives
    assert [traces[cap].restarts for cap in (13, 14, 15)] == [1, 1, 2]


def test_cg_nan_trial_diverges_naming_its_iteration(monkeypatch):
    # The ninth iteration's first trial is NaN: the search ends there and
    # the fit raises, where rejecting the trial would end it "stalled".
    tensor, _ = random_instance(seed=9, n=4, t=2)
    _factors8, trace8 = fit_map(tensor, LOGISTIC_RANK2, MapConfig(seed=7, max_iterations=8))
    nan_reconstructions_after(monkeypatch, 1 + sum(trace8.trials))
    with pytest.raises(DivergenceError, match="non-finite") as raised:
        fit_map(tensor, LOGISTIC_RANK2, MapConfig(seed=7, max_iterations=60))
    assert raised.value.iteration == 8


def test_als_divergence_names_its_iteration(monkeypatch):
    # ALS scores its start point, then one objective per sweep: a NaN
    # reconstruction from the fourth call on makes sweep 2's non-finite
    tensor, _ = random_instance(seed=9, n=4, t=2)
    nan_reconstructions_after(monkeypatch, 3)
    with pytest.raises(DivergenceError, match="non-finite") as raised:
        fit_map(tensor, IDENTITY, MapConfig(seed=7))
    assert raised.value.iteration == 2


def test_cg_divergence_names_its_iteration():
    # A negative ridge weight leaves the objective unbounded below.  CG
    # climbs along it until the factors overflow and a trial's objective is
    # NaN; that iteration, the one after the six a capped fit traces,
    # raises.
    def negative_ridge(max_iterations):
        map_cfg = MapConfig(seed=9, max_iterations=max_iterations)
        object.__setattr__(map_cfg, "gamma_u", -50.0)  # past __post_init__'s check
        return map_cfg

    tensor, _ = random_instance(seed=9, n=4, t=2)
    with np.errstate(over="ignore", invalid="ignore"):
        _factors, capped = fit_map(tensor, LOGISTIC_RANK2, negative_ridge(6))
        assert capped.termination == "max_iterations"
        assert np.isfinite(capped.objectives).all()
        with pytest.raises(DivergenceError, match="non-finite") as raised:
            fit_map(tensor, LOGISTIC_RANK2, negative_ridge(500))
    assert raised.value.iteration == 6


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
    # objective; the start point takes one more
    calls, gradient_calls, reconstructions = record_loss_calls(monkeypatch)
    tensor, _ = random_instance(seed=9, n=4, t=2)
    _factors, trace = fit_map(tensor, LOGISTIC, MapConfig(seed=7, max_iterations=60))
    assert len(trace.trials) == trace.iterations > 0
    assert sum(trace.trials) == len(calls) - 1
    # the gradient is taken at the start point and at each accepted step,
    # from its last trial's residual: no gradient costs a reconstruction
    assert gradient_calls == [1 + end for end in [0, *np.cumsum(trace.trials)]]
    assert reconstructions == list(range(len(calls)))
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
