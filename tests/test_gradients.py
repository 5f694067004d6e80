import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hvi import models, paths
from hvi.estimators import (
    IntegrationRule,
    PartitionSchedule,
    bound_report,
    draw_batch,
    parse_bound_id,
)
from hvi.gradients import (
    BoundObjective,
    _path_step,
    bound_grad,
    local_evidence_grad,
    train,
)
from hvi.paths import PathSpec, path_gradient_coeffs, path_weights
from hvi.util import derive_seeds
from oracles import finite_difference_grad, quadrature_local_evidence

_BAYES = models.make_bayes_regression(models.simulate_bayes_dataset(0, 20))

SPECS = [PathSpec.geometric(), PathSpec.holder(0.5), PathSpec.holder(-0.4),
         PathSpec.wasserstein(), PathSpec.perturbed(0.05)]


def quad_local_evidence_objective(alpha, beta):
    def objective(model, lam):
        return quadrature_local_evidence(model, alpha, beta, params=lam)
    return objective


# ---------------------------------------------------------------------------
# Decomposition and simple exact cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS)
def test_terms_sum_to_total(sin_toy, spec):
    batch = draw_batch(sin_toy, 200, 0)
    grad = local_evidence_grad(sin_toy, None, spec, 0.4, batch)
    np.testing.assert_allclose(grad.total, grad.term_i + grad.term_ii, atol=1e-15)


def test_beta_zero_pathwise_term_is_elbo_gradient(sin_toy):
    batch = draw_batch(sin_toy, 500, 1)
    grad = local_evidence_grad(sin_toy, None, PathSpec.geometric(), 0.0, batch)
    grad_f = sin_toy.grad_log_target(batch.z) - sin_toy.grad_log_proposal(batch.z)
    np.testing.assert_allclose(grad.term_ii, grad_f.mean(axis=0), atol=1e-12)


def test_scaled_factor_scale_gradient_is_one(scaled_two):
    # f is constant, so term (i) vanishes and d f / d log c = 1 at every beta
    batch = draw_batch(scaled_two, 64, 3)
    for rule in IntegrationRule:
        grad = bound_grad(scaled_two, None, PathSpec.geometric(),
                          PartitionSchedule.uniform(4), rule, batch)
        assert grad.total[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(grad.term_i[0]) < 1e-12


# ---------------------------------------------------------------------------
# Stationarity and FD agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_zero_gradient_at_conjugate_posterior(conjugate, beta):
    batch = draw_batch(conjugate, 100_000, 3)
    grad = local_evidence_grad(conjugate, None, PathSpec.geometric(), beta, batch)
    assert np.all(np.abs(grad.total) < 3 * grad.std_err + 1e-12)


@pytest.mark.parametrize("spec,alpha", [
    (PathSpec.geometric(), 0.0),
    (PathSpec.holder(0.5), 0.5),
    (PathSpec.holder(0.8), 0.8),
])
def test_single_batch_gradient_matches_quadrature_fd(sin_toy, spec, alpha):
    batch = draw_batch(sin_toy, 100_000, 7)
    grad = local_evidence_grad(sin_toy, None, spec, 0.5, batch)
    oracle = finite_difference_grad(sin_toy, None, quad_local_evidence_objective(alpha, 0.5))
    assert np.all(np.abs(grad.total - oracle) < 3 * grad.std_err)


def test_perturbed_gradient_matches_quadrature_fd(sin_toy):
    # quadrature expectation of the perturbed path built directly in the test
    from path_forms import reference_integrand_parts, reference_log_density
    from scipy.special import logsumexp

    spec = PathSpec.perturbed(0.05)
    beta = 0.4

    def objective(model, lam):
        pts, logw = models.quadrature_grid(model)
        l0 = model.log_proposal(pts, lam)
        l1 = model.log_target(pts, lam)
        log_mass = reference_log_density(spec, l0, l1, beta) + logw
        log_mass -= logsumexp(log_mass)
        sign, log_abs = reference_integrand_parts(spec, l0, l1, beta)
        return float(np.sum(sign * np.exp(log_mass + log_abs)))

    batch = draw_batch(sin_toy, 100_000, 8)
    grad = local_evidence_grad(sin_toy, None, spec, beta, batch)
    oracle = finite_difference_grad(sin_toy, None, objective)
    assert np.all(np.abs(grad.total - oracle) < 3 * grad.std_err)


def test_bound_grad_k1_trapezoid_averages_endpoints(sin_toy):
    batch = draw_batch(sin_toy, 300, 5)
    spec = PathSpec.geometric()
    lo = local_evidence_grad(sin_toy, None, spec, 0.0, batch)
    hi = local_evidence_grad(sin_toy, None, spec, 1.0, batch)
    both = bound_grad(sin_toy, None, spec, PartitionSchedule.uniform(1),
                      IntegrationRule.TRAPEZOID, batch)
    np.testing.assert_allclose(both.total, 0.5 * (lo.total + hi.total), atol=1e-12)


def test_holder_gradient_finite_at_extreme_log_ratios(conjugate):
    # a wide proposal puts one sample at f ~ -824: the integrand overflows
    # where its weight underflows, which must not leak NaN into the gradient
    lam = np.array([0.0, math.log(12.0)])
    batch = draw_batch(conjugate, 200, 0, lam)
    assert batch.log_ratio.min() < -800
    grad = local_evidence_grad(conjugate, lam, PathSpec.holder(1.0), 1.0, batch)
    objective = BoundObjective(bound="hbo", alpha=1.0, rule="right",
                               schedule=PartitionSchedule.uniform(5), sample_size=200)
    assert np.isfinite(objective.value(batch))
    bound = objective.gradient(conjugate, lam, batch)
    for est in (grad, bound):
        assert np.all(np.isfinite(est.total)) and np.all(np.isfinite(est.std_err))


def test_integrated_gradient_std_err_is_calibrated(sin_toy):
    # every knot reweights the same batch, so the knots' errors are correlated
    # and the std err has to be that of the rule-weighted sum, not of the knots
    grads = [bound_grad(sin_toy, None, PathSpec.holder(0.5), PartitionSchedule.uniform(50),
                        IntegrationRule.LEFT, draw_batch(sin_toy, 500, seed))
             for seed in range(300)]
    spread = np.std([g.total for g in grads], axis=0, ddof=1)
    reported = np.mean([g.std_err for g in grads], axis=0)
    np.testing.assert_allclose(reported, spread, rtol=0.2)


def _influence_by_definition(model, spec, betas, weights, batch):
    """(term i, term ii, std err) from the explicit (knots, S, d) influence tensor."""
    lam = model._resolve(None)
    grad_l0 = model.grad_log_proposal(batch.z, lam)
    grad_f = model.grad_log_target(batch.z, lam) - grad_l0
    (block,) = path_weights(spec, betas, batch.log_ratio)
    dh_df, w_dg_df = path_gradient_coeffs(spec, block, batch.log_ratio)
    phi = block.wg - block.wg.sum(axis=1)[:, None] * block.w
    per_sample_i = phi[:, :, None] * (grad_l0 + dh_df[:, :, None] * grad_f)
    per_sample_ii = w_dg_df[:, :, None] * grad_f
    knot_terms = (per_sample_i + per_sample_ii).sum(axis=1)
    influence = per_sample_i + per_sample_ii - block.w[:, :, None] * knot_terms[:, None, :]
    combined = np.tensordot(weights, influence, axes=1)
    return (weights @ per_sample_i.sum(axis=1), weights @ per_sample_ii.sum(axis=1),
            np.sqrt(np.sum(combined ** 2, axis=0)))


@pytest.mark.parametrize("model", [models.make_sin_toy(), _BAYES], ids=["sin_toy", "bayes"])
@pytest.mark.parametrize("bound", [{"bound": "tvo"}, {"bound": "hbo", "alpha": 0.3},
                                   {"bound": "perturbed_hbo", "delta": 0.05}],
                         ids=["tvo", "hbo", "perturbed_hbo"])
def test_gradient_std_err_is_the_delta_method_one_across_blocks(monkeypatch, model, bound):
    # 51 knots in blocks of 7: the per-sample sums over knots carry across
    # blocks, and must equal the definition's sum over the full tensor
    objective = BoundObjective(**bound, rule="trapezoid", sample_size=300)
    spec, betas, weights = objective._form
    batch = draw_batch(model, objective.sample_size, 4)
    one_block = objective.gradient(model, None, batch)
    term_i, term_ii, std_err = _influence_by_definition(model, spec, betas, weights, batch)
    monkeypatch.setattr(paths, "BLOCK_ELEMENTS", 7 * batch.size)
    assert len(list(path_weights(spec, betas, batch.log_ratio))) == 8
    blocked = objective.gradient(model, None, batch)
    for grad in (one_block, blocked):
        np.testing.assert_allclose(grad.std_err, std_err, rtol=1e-12, atol=0)
    for got, expected in ((blocked.term_i, one_block.term_i), (blocked.term_ii, one_block.term_ii),
                          (one_block.term_i, term_i), (one_block.term_ii, term_ii)):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_gradient_step_peak_memory_stays_below_twelve_knot_by_sample_arrays():
    # tvo's 50 weighted knots at S = 1000, d = 6: an influence tensor of
    # knots x samples x parameters alone would take 6 such arrays
    objective = BoundObjective(bound="tvo", sample_size=1000)
    spec, betas, weights = objective._form
    batch = draw_batch(_BAYES, objective.sample_size, 0)
    limit = 12 * np.count_nonzero(weights) * batch.size * 8
    tracemalloc.start()
    try:
        _path_step(_BAYES, None, spec, betas, weights, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def test_integrated_gradient_matches_quadrature_fd(sin_toy):
    sched = PartitionSchedule.uniform(5)
    batch = draw_batch(sin_toy, 100_000, 9)
    grad = bound_grad(sin_toy, None, PathSpec.geometric(), sched,
                      IntegrationRule.LEFT, batch)

    def objective(model, lam):
        curve = models.quadrature_local_evidence_curve(model, 0.0, sched.betas, params=lam)
        from hvi.estimators import rule_weights
        return float(rule_weights(sched.betas, IntegrationRule.LEFT) @ curve)

    oracle = finite_difference_grad(sin_toy, None, objective)
    assert np.all(np.abs(grad.total - oracle) < 3 * grad.std_err + 1e-6)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def test_fd_exact_on_linear_functional(sin_toy):
    coefs = np.array([2.0, -3.0])

    def objective(model, lam):
        return float(coefs @ lam)

    got = finite_difference_grad(sin_toy, None, objective, step=1e-4)
    np.testing.assert_allclose(got, coefs, rtol=1e-9)


def test_fd_symmetric_cancellation_on_quadratic(sin_toy):
    def objective(model, lam):
        return float(lam @ lam)

    lam0 = sin_toy.default_params.values
    for step in (1e-2, 1e-5):
        got = finite_difference_grad(sin_toy, None, objective, step=step)
        np.testing.assert_allclose(got, 2 * lam0, rtol=0, atol=1e-8)


def test_fd_error_scales_quadratically_on_elbo(sin_toy):
    # reference gradient: E_q[score * f] computed on the quadrature grid
    pts, logw = models.quadrature_grid(sin_toy)
    l0 = sin_toy.log_proposal(pts)
    l1 = sin_toy.log_target(pts)
    q = np.exp(l0 + logw)
    q /= q.sum()
    score = sin_toy.grad_log_proposal(pts)
    reference = score.T @ (q * (l1 - l0))

    def objective(model, lam):
        return quadrature_local_evidence(model, 0.0, 0.0, params=lam)

    errs = []
    for step in (0.2, 0.1):
        got = finite_difference_grad(sin_toy, None, objective, step=step)
        errs.append(np.linalg.norm(got - reference))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_zero_learning_rate_keeps_parameters(conjugate):
    objective = BoundObjective(bound="elbo", sample_size=50)
    trace = train(conjugate, None, objective, steps=20, learning_rate=0.0, seed=0)
    assert len(trace) == 21
    assert np.all(trace.params == trace.params[0])
    assert not trace.diverged


def test_trace_deterministic(conjugate):
    objective = BoundObjective(bound="elbo", sample_size=50)
    a = train(conjugate, None, objective, steps=30, learning_rate=0.01, seed=4)
    b = train(conjugate, None, objective, steps=30, learning_rate=0.01, seed=4)
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(a.objective, b.objective)


def test_elbo_training_recovers_conjugate_posterior(conjugate):
    start = conjugate.default_params.values + np.array([0.3, 0.25])
    objective = BoundObjective(bound="elbo", sample_size=500)
    trace = train(conjugate, start, objective, steps=2000, learning_rate=0.02, seed=11)
    assert not trace.diverged
    assert np.all(np.abs(trace.final_params - conjugate.default_params.values) < 1e-2)


def test_divergence_aborts_with_partial_trace(conjugate):
    objective = BoundObjective(bound="elbo", sample_size=20)
    trace = train(conjugate, None, objective, steps=200, learning_rate=1e18, seed=0)
    assert trace.diverged
    assert len(trace) < 201


def test_gradient_failure_gives_flagged_partial_trace(conjugate):
    calls = []

    def failing(pts, lam):
        calls.append(lam)
        if len(calls) > 3:
            raise ValueError("gradient failed")
        return conjugate._grad_log_target(pts, lam)

    model = dataclasses.replace(conjugate, _grad_log_target=failing)
    objective = BoundObjective(bound="elbo", sample_size=20)
    trace = train(model, None, objective, steps=10, learning_rate=0.01, seed=0)
    full = train(conjugate, None, objective, steps=10, learning_rate=0.01, seed=0)
    assert trace.diverged and not full.diverged and full.failure is None
    # the fourth step's gradient fails: the three steps before it are kept,
    # with the failure's message
    assert len(trace) == 3 and trace.failure == "gradient failed"
    np.testing.assert_array_equal(trace.params, full.params[:3])
    np.testing.assert_array_equal(trace.objective, full.objective[:3])


_HBO = BoundObjective(bound="hbo", alpha=0.05, schedule=PartitionSchedule.uniform(5),
                      sample_size=100)


@pytest.mark.parametrize("model, objective", [
    (_BAYES, _HBO),  # criterion 11's HBO step from its init offset
    (None, _HBO),
    (None, BoundObjective(bound="tvo", schedule=PartitionSchedule.log(10), rule="trapezoid",
                          sample_size=100)),
    (None, BoundObjective(bound="perturbed_hbo", delta=0.05, sample_size=100)),
    (None, BoundObjective(bound="wlbo", sample_size=100)),
    (None, BoundObjective(bound="elbo", sample_size=100)),
])
def test_train_matches_separate_value_and_gradient(sin_toy, model, objective):
    # train takes each step's value and gradient from one kernel pass; the
    # reference loop asks the objective for them separately
    if model is None:
        model, init, learning_rate = sin_toy, sin_toy.default_params.values + 0.3, 1e-2
    else:
        init = model.default_params.values + np.array([1.5, -0.04, 0.5, 0.0, 0.0, 0.0])
        learning_rate = 8e-4
    steps, seed = 40, 3
    trace = train(model, init, objective, steps, learning_rate, seed)
    lam, params, values = init.copy(), [], []
    for t, step_seed in enumerate(derive_seeds(seed, steps + 1)):
        batch = draw_batch(model, objective.sample_size, int(step_seed), lam)
        params.append(lam.copy())
        values.append(objective.value(batch))
        if t < steps:
            lam = lam + learning_rate * objective.gradient(model, lam, batch).total
    assert not trace.diverged
    np.testing.assert_array_equal(trace.params, params)
    np.testing.assert_array_equal(trace.objective, values)


@pytest.mark.parametrize("objective", [
    BoundObjective(bound="hbo", alpha=0.05, schedule=PartitionSchedule.uniform(5),
                   sample_size=100),
    BoundObjective(bound="elbo", sample_size=100),
])
def test_training_step_evaluates_model_four_times(objective):
    # one step as train runs it: draw (log_proposal, log_target), score, then
    # the gradient reuses the cached densities and adds the two gradient fields
    model = models.make_bayes_regression(models.simulate_bayes_dataset(0, 20))
    calls = []

    def counted(fn):
        def wrapper(pts, lam):
            calls.append(fn)
            return fn(pts, lam)
        return wrapper

    model = dataclasses.replace(model, **{
        name: counted(getattr(model, name))
        for name in ("_log_target", "_log_proposal", "_grad_log_target", "_grad_log_proposal")})
    batch = draw_batch(model, objective.sample_size, 0)
    objective.value(batch)
    objective.gradient(model, None, batch)
    assert len(calls) == 4


@pytest.mark.parametrize("bound_id, spec, knots", [
    ("elbo", PathSpec.geometric(), [0.0]),
    ("eubo", PathSpec.geometric(), [1.0]),
    ("wlbo", PathSpec.wasserstein(), [1.0]),
    ("wubo", PathSpec.wasserstein(), [0.0]),
    ("tvo", PathSpec.geometric(), PartitionSchedule.log(50)),
    ("hbo[0.3]", PathSpec.holder(0.3), PartitionSchedule.uniform(50)),
    ("perturbed_hbo[0.05]", PathSpec.perturbed(0.05), PartitionSchedule.uniform(50)),
])
def test_objective_follows_its_bound(conjugate, bound_id, spec, knots):
    # the value bound_report gives, the gradient of the same path at the
    # bound's default knots, and a short training run
    name, arg = parse_bound_id(bound_id)
    param = {"hbo": "alpha", "perturbed_hbo": "delta"}.get(name)
    objective = BoundObjective(bound=name, **({param: arg} if param else {}),
                               rule="trapezoid", sample_size=200)
    batch = draw_batch(conjugate, objective.sample_size, 3)
    report = bound_report(batch, [bound_id], rule="trapezoid")
    assert objective.value(batch) == report[bound_id]
    if isinstance(knots, PartitionSchedule):
        expected = bound_grad(conjugate, None, spec, knots, "trapezoid", batch)
    else:
        expected = local_evidence_grad(conjugate, None, spec, knots[0], batch)
    np.testing.assert_array_equal(objective.gradient(conjugate, None, batch).total,
                                  expected.total)
    trace = train(conjugate, None, objective, steps=5, learning_rate=0.01, seed=0)
    assert len(trace) == 6 and not trace.diverged


def test_objective_validation():
    with pytest.raises(ValueError):
        BoundObjective(bound="iw_elbo")
    with pytest.raises(ValueError):
        BoundObjective(bound="elbo", sample_size=0)


@pytest.mark.parametrize("kwargs", [{"bound": "hbo", "alpha": math.nan},
                                    {"bound": "hbo", "alpha": math.inf},
                                    {"bound": "perturbed_hbo", "delta": -math.inf}])
def test_objective_rejects_a_non_finite_parameter_at_construction(kwargs):
    # it used to construct and fail only inside train
    with pytest.raises(ValueError, match="finite parameter"):
        BoundObjective(**kwargs)


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
def test_train_rejects_a_non_finite_learning_rate(conjugate, learning_rate):
    with pytest.raises(ValueError, match="learning_rate"):
        train(conjugate, None, BoundObjective(), steps=2, learning_rate=learning_rate, seed=0)


def test_train_rejects_a_negative_step_count(conjugate):
    with pytest.raises(ValueError, match="steps must be >= 0"):
        train(conjugate, None, BoundObjective(), steps=-1, learning_rate=0.01, seed=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"bound": "hbo", "delta": 0.3}, "takes no delta"),
    ({"bound": "perturbed_hbo", "alpha": 0.5}, "takes no alpha"),
    ({"bound": "tvo", "alpha": 0.5}, "takes no alpha"),
    ({"bound": "elbo", "schedule": PartitionSchedule.uniform(5)}, "takes no schedule"),
    ({"bound": "wubo", "schedule": PartitionSchedule.log(5)}, "takes no schedule"),
    ({"bound": "elbo", "rule": "simpson"}, "unknown integration rule"),
])
def test_objective_rejects_what_its_bound_does_not_take(kwargs, message):
    # hbo with a delta would train at alpha = 0, and elbo would drop the schedule
    with pytest.raises(ValueError, match=message):
        BoundObjective(**kwargs)
    # a zero parameter is the field's default, so the bound's own zero is allowed
    assert BoundObjective(bound="hbo", alpha=0.0, delta=0.0).alpha == 0.0
