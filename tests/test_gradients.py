import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hvi import diagnostics, gradients, models, paths, tuning
from hvi.estimators import (
    IntegrationRule,
    PartitionSchedule,
    _form_value,
    _path_form,
    bound_report,
    draw_batch,
    parse_bound_id,
    rule_weights,
)
from hvi.gradients import (
    BoundObjective,
    _path_step,
    train,
)
from hvi.paths import PathSpec, path_gradient_coeffs, path_weights
from hvi.util import derive_seeds
from oracles import finite_difference_grad, path_step, quadrature_local_evidence

_BAYES = models.make_bayes_regression(models.simulate_bayes_dataset(0, 20))

SPECS = [PathSpec("geometric"), PathSpec("holder", alpha=0.5), PathSpec("holder", alpha=-0.4),
         PathSpec("wasserstein"), PathSpec("perturbed", delta=0.05)]


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
    grad = path_step(sin_toy, _path_form(spec, [0.4], [1.0]), batch)[1]
    np.testing.assert_allclose(grad.total, grad.term_i + grad.term_ii, atol=1e-15)


def test_beta_zero_pathwise_term_is_elbo_gradient(sin_toy):
    batch = draw_batch(sin_toy, 500, 1)
    grad = path_step(sin_toy, _path_form(PathSpec("geometric"), [0.0], [1.0]), batch)[1]
    grad_f = sin_toy.grad_log_target(batch.z) - sin_toy.grad_log_proposal(batch.z)
    np.testing.assert_allclose(grad.term_ii, grad_f.mean(axis=0), atol=1e-12)


def test_scaled_factor_scale_gradient_is_one(scaled_two):
    # f is constant, so term (i) vanishes and d f / d log c = 1 at every beta
    batch = draw_batch(scaled_two, 64, 3)
    for rule in IntegrationRule:
        betas = PartitionSchedule.uniform(4).betas
        form = _path_form(PathSpec("geometric"), betas, rule_weights(betas, rule))
        grad = path_step(scaled_two, form, batch)[1]
        assert grad.total[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(grad.term_i[0]) < 1e-12


# ---------------------------------------------------------------------------
# Stationarity and FD agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_zero_gradient_at_conjugate_posterior(conjugate, beta):
    batch = draw_batch(conjugate, 100_000, 3)
    grad = path_step(conjugate, _path_form(PathSpec("geometric"), [beta], [1.0]), batch)[1]
    assert np.all(np.abs(grad.total) < 3 * grad.std_err + 1e-12)


@pytest.mark.parametrize("spec,alpha", [
    (PathSpec("geometric"), 0.0),
    (PathSpec("holder", alpha=0.5), 0.5),
    (PathSpec("holder", alpha=0.8), 0.8),
])
def test_single_batch_gradient_matches_quadrature_fd(sin_toy, spec, alpha):
    batch = draw_batch(sin_toy, 100_000, 7)
    grad = path_step(sin_toy, _path_form(spec, [0.5], [1.0]), batch)[1]
    oracle = finite_difference_grad(sin_toy, None, quad_local_evidence_objective(alpha, 0.5))
    assert np.all(np.abs(grad.total - oracle) < 3 * grad.std_err)


def test_perturbed_gradient_matches_quadrature_fd(sin_toy):
    # quadrature expectation of the perturbed path built directly in the test
    from path_forms import reference_integrand_parts, reference_log_density
    from scipy.special import logsumexp

    spec = PathSpec("perturbed", delta=0.05)
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
    grad = path_step(sin_toy, _path_form(spec, [beta], [1.0]), batch)[1]
    oracle = finite_difference_grad(sin_toy, None, objective)
    assert np.all(np.abs(grad.total - oracle) < 3 * grad.std_err)


def test_bound_grad_k1_trapezoid_averages_endpoints(sin_toy):
    batch = draw_batch(sin_toy, 300, 5)
    spec = PathSpec("geometric")
    lo = path_step(sin_toy, _path_form(spec, [0.0], [1.0]), batch)[1]
    hi = path_step(sin_toy, _path_form(spec, [1.0], [1.0]), batch)[1]
    betas = PartitionSchedule.uniform(1).betas
    weights = rule_weights(betas, IntegrationRule.TRAPEZOID)
    both = path_step(sin_toy, _path_form(spec, betas, weights), batch)[1]
    np.testing.assert_allclose(both.total, 0.5 * (lo.total + hi.total), atol=1e-12)


def test_holder_gradient_finite_at_extreme_log_ratios(conjugate):
    # a wide proposal puts one sample at f ~ -824: the integrand overflows
    # where its weight underflows, which must not leak NaN into the gradient
    lam = np.array([0.0, math.log(12.0)])
    batch = draw_batch(conjugate, 200, 0, lam)
    assert batch.log_ratio.min() < -800
    form = _path_form(PathSpec("holder", alpha=1.0), [1.0], [1.0])
    grad = path_step(conjugate, form, batch, lam)[1]
    objective = BoundObjective(bound="hbo", alpha=1.0, rule="right",
                               schedule=PartitionSchedule.uniform(5), sample_size=200)
    assert np.isfinite(_form_value(batch, objective._form))
    bound = path_step(conjugate, objective._form, batch, lam)[1]
    for est in (grad, bound):
        assert np.all(np.isfinite(est.total)) and np.all(np.isfinite(est.std_err))


def test_integrated_gradient_std_err_is_calibrated(sin_toy):
    # every knot reweights the same batch, so the knots' errors are correlated
    # and the std err has to be that of the rule-weighted sum, not of the knots
    betas = PartitionSchedule.uniform(50).betas
    weights = rule_weights(betas, IntegrationRule.LEFT)
    form = _path_form(PathSpec("holder", alpha=0.5), betas, weights)
    grads = [path_step(sin_toy, form, draw_batch(sin_toy, 500, seed))[1]
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
@pytest.mark.parametrize("bound", [
    {"bound": "tvo", "schedule": PartitionSchedule.log(50)},
    {"bound": "hbo", "alpha": 0.3, "schedule": PartitionSchedule.uniform(50)},
    {"bound": "perturbed_hbo", "delta": 0.05, "schedule": PartitionSchedule.uniform(50)},
], ids=["tvo", "hbo", "perturbed_hbo"])
def test_gradient_std_err_is_the_delta_method_one_across_blocks(monkeypatch, model, bound):
    # 51 knots in blocks of 7: the per-sample sums over knots carry across
    # blocks, and must equal the definition's sum over the full tensor
    objective = BoundObjective(**bound, rule="trapezoid", sample_size=300)
    spec, betas, weights = objective._form.spec, objective.schedule.betas, objective._form.weights
    batch = draw_batch(model, objective.sample_size, 4)
    one_block = path_step(model, objective._form, batch)[1]
    term_i, term_ii, std_err = _influence_by_definition(model, spec, betas, weights, batch)
    monkeypatch.setattr(paths, "BLOCK_ELEMENTS", 7 * batch.size)
    assert len(list(path_weights(spec, betas, batch.log_ratio))) == 8
    blocked = path_step(model, objective._form, batch)[1]
    for grad in (one_block, blocked):
        np.testing.assert_allclose(grad.std_err, std_err, rtol=1e-12, atol=0)
    for got, expected in ((blocked.term_i, one_block.term_i), (blocked.term_ii, one_block.term_ii),
                          (one_block.term_i, term_i), (one_block.term_ii, term_ii)):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_gradient_step_peak_memory_stays_below_twelve_knot_by_sample_arrays():
    # tvo's 50 weighted knots at S = 1000, d = 6: an influence tensor of
    # knots x samples x parameters alone would take 6 such arrays
    objective = BoundObjective(bound="tvo", sample_size=1000)
    batch = draw_batch(_BAYES, objective.sample_size, 0)
    limit = 12 * np.count_nonzero(objective._form.weights) * batch.size * 8
    tracemalloc.start()
    try:
        path_step(_BAYES, objective._form, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def test_integrated_gradient_matches_quadrature_fd(sin_toy):
    sched = PartitionSchedule.uniform(5)
    batch = draw_batch(sin_toy, 100_000, 9)
    weights = rule_weights(sched.betas, IntegrationRule.LEFT)
    grad = path_step(sin_toy, _path_form(PathSpec("geometric"), sched.betas, weights), batch)[1]

    def objective(model, lam):
        curve = models.quadrature_local_evidence_curve(model, 0.0, sched.betas, params=lam)
        return float(weights @ curve)

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
    # reference loop takes the value from the bound's value route, _form_value
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
        values.append(_form_value(batch, objective._form))
        if t < steps:
            lam = lam + learning_rate * path_step(model, objective._form, batch, lam)[1].total
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
    with np.errstate(over="ignore", invalid="ignore"):
        _path_step(model, model._resolve(None), objective._form, batch)
    assert len(calls) == 4


@pytest.mark.parametrize("bound_id, spec, knots", [
    ("elbo", PathSpec("geometric"), [0.0]),
    ("eubo", PathSpec("geometric"), [1.0]),
    ("wlbo", PathSpec("wasserstein"), [1.0]),
    ("wubo", PathSpec("wasserstein"), [0.0]),
    ("tvo", PathSpec("geometric"), PartitionSchedule.log(50)),
    ("hbo[0.3]", PathSpec("holder", alpha=0.3), PartitionSchedule.uniform(50)),
    ("perturbed_hbo[0.05]", PathSpec("perturbed", delta=0.05), PartitionSchedule.uniform(50)),
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
    assert _form_value(batch, objective._form) == report[bound_id]
    if isinstance(knots, PartitionSchedule):
        knots, weights = knots.betas, rule_weights(knots.betas, "trapezoid")
    else:
        weights = [1.0]
    expected = path_step(conjugate, _path_form(spec, knots, weights), batch)[1]
    np.testing.assert_array_equal(path_step(conjugate, objective._form, batch)[1].total,
                                  expected.total)
    trace = train(conjugate, None, objective, steps=5, learning_rate=0.01, seed=0)
    assert len(trace) == 6 and not trace.diverged


@pytest.mark.parametrize("model", [models.make_sin_toy(), _BAYES], ids=["sin_toy", "bayes"])
@pytest.mark.parametrize("bound_id", ["elbo", "eubo", "wlbo", "wubo", "tvo", "hbo[0.3]",
                                      "perturbed_hbo[0.05]"])
def test_asking_for_the_gradient_std_err_changes_no_bits(monkeypatch, model, bound_id):
    # train takes the step without the std err, the calibration tests with it;
    # the value and total must not depend on which, across blocks of 7 knots
    name, arg = parse_bound_id(bound_id)
    param = {"hbo": "alpha", "perturbed_hbo": "delta"}.get(name)
    objective = BoundObjective(bound=name, **({param: arg} if param else {}),
                               rule="trapezoid", sample_size=200)
    batch = draw_batch(model, objective.sample_size, 6)
    monkeypatch.setattr(paths, "BLOCK_ELEMENTS", 7 * batch.size)
    lam = model._resolve(None)
    with np.errstate(over="ignore", invalid="ignore"):
        value, term_i, term_ii, std_err = _path_step(model, lam, objective._form, batch)
        with_std_err = _path_step(model, lam, objective._form, batch, std_err=True)
    assert std_err is None and np.all(np.isfinite(with_std_err[3]))
    assert np.float64(value).tobytes() == np.float64(with_std_err[0]).tobytes()
    for got, expected in zip((term_i, term_ii), with_std_err[1:3]):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("objective", [BoundObjective(bound="elbo", sample_size=20), _HBO],
                         ids=["elbo", "hbo"])
def test_train_draws_through_the_module_binding_once_per_step_and_once_more(
        monkeypatch, conjugate, objective):
    # the benchmark times each step from train's calls of hvi.gradients.draw_batch:
    # a train that stopped calling it there would leave its step times unsampled
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return draw_batch(*args, **kwargs)

    monkeypatch.setattr(gradients, "draw_batch", counted)
    trace = train(conjugate, None, objective, steps=7, learning_rate=0.01, seed=0)
    assert len(trace) == 8 and len(calls) == 8


@pytest.mark.parametrize("call, error, message", [
    (lambda model: BoundObjective(sample_size=2.5), TypeError,
     "sample_size must be an integer, got 2.5"),
    (lambda model: BoundObjective(sample_size=True), TypeError,
     "sample_size must be an integer, got True"),
    (lambda model: draw_batch(model, 2.5, 0), TypeError, "size must be an integer, got 2.5"),
    (lambda model: draw_batch(model, True, 0), TypeError, "size must be an integer, got True"),
    (lambda model: train(model, None, BoundObjective(), steps=True, learning_rate=0.01, seed=0),
     TypeError, "steps must be an integer, got True"),
    (lambda model: train(model, None, BoundObjective(), steps=2.0, learning_rate=0.01, seed=0),
     TypeError, "steps must be an integer, got 2.0"),
    (lambda model: draw_batch(model, np.int64(0), 0), ValueError, "size must be >= 1"),
], ids=["sample_size=2.5", "sample_size=True", "size=2.5", "size=True", "steps=True",
        "steps=2.0", "size=int64(0)"])
def test_a_count_that_is_not_an_integer_is_a_named_error(conjugate, call, error, message):
    # 2.5 samples drew 2 and True drew 1; steps=2.0 failed inside numpy
    with pytest.raises(error, match=f"^{message}$"):
        call(conjugate)


def test_counts_take_numpy_integers(conjugate):
    objective = BoundObjective(sample_size=np.int64(20))
    assert type(objective.sample_size) is int
    assert draw_batch(conjugate, np.int32(5), 0).size == 5
    trace = train(conjugate, None, objective, steps=np.int64(3), learning_rate=0.01, seed=0)
    assert len(trace) == 4 and not trace.diverged


def _mcmc(model, **count):
    return diagnostics.mcmc_reference(model, **{**dict(chains=2, steps=200, burn_in=100,
                                                        thin=5), **count})


# per count: the call with the count as its one argument, and a value the count accepts
_COUNTS = {
    "size": (lambda model, n: model.sample_proposal(np.random.default_rng(0), n), 3),
    "replicates": (lambda model, n: diagnostics.curve_profile(
        model, PathSpec("geometric"), [0.0, 1.0], 10, n, 0), 2),
    "partitions/uniform": (lambda model, n: PartitionSchedule.uniform(n), 2),
    "partitions/log": (lambda model, n: PartitionSchedule.log(n), 3),
    "points": (lambda model, n: models.quadrature_grid(model, models.GridSpec(points=n)), 3),
    "chains": (lambda model, n: _mcmc(model, chains=n), 2),
    "steps": (lambda model, n: _mcmc(model, steps=n), 200),
    "burn_in": (lambda model, n: _mcmc(model, burn_in=n), 100),
    "thin": (lambda model, n: _mcmc(model, thin=n), 5),
    "max_iters": (lambda model, n: tuning.tune_alpha_bisect(
        model, betas=(0.25, 0.5, 0.75), sample_size=2000, max_iters=n), 1),
}


@pytest.mark.parametrize("count", sorted(_COUNTS))
def test_every_count_takes_integers_only(sin_toy, count):
    # 2.5 rows drew 2 and True drew 1, a True partition count built one partition, and the
    # others failed inside numpy or, for mcmc_reference, with an AttributeError
    call, accepted = _COUNTS[count]
    name = count.partition("/")[0]
    for value in (2.5, True):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            call(sin_toy, value)
    call(sin_toy, np.int64(accepted))


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
