import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from hvi import models
from hvi.estimators import (
    ImportanceBatch,
    IntegrationRule,
    LOG_PARTITION_BETA1,
    PartitionSchedule,
    bound_report,
    draw_batch,
    local_evidence_curve,
    parse_bound_id,
    rule_weights,
)
from hvi.paths import PathSpec, path_weights
from oracles import conjugate_exact_log_marginal, quadrature_local_evidence, quadrature_rvi
from path_forms import reference_log_density


def bound(batch, bound_id, **schedules):
    """One bound's value through bound_report, the library's one value route."""
    return bound_report(batch, [bound_id], **schedules)[bound_id]


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def test_draw_batch_is_deterministic(sin_toy):
    a = draw_batch(sin_toy, 64, 9)
    b = draw_batch(sin_toy, 64, 9)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.log_ratio, b.log_ratio)
    c = draw_batch(sin_toy, 64, 10)
    assert not np.array_equal(a.z, c.z)


def test_batch_caches_exact_log_ratio(sin_toy):
    batch = draw_batch(sin_toy, 32, 0)
    np.testing.assert_array_equal(batch.log_ratio,
                                  sin_toy.log_target(batch.z) - sin_toy.log_proposal(batch.z))
    assert np.all(np.isfinite(batch.log_ratio))


def test_scaled_factor_batch_ratio_constant(scaled_two):
    batch = draw_batch(scaled_two, 128, 5)
    np.testing.assert_allclose(batch.log_ratio, math.log(2.0), atol=1e-12)


def test_conjugate_batch_mean_ratio_estimates_marginal(conjugate):
    exact = conjugate_exact_log_marginal(1.0, 0.0)
    # exact-posterior proposal: f is constant at log p(x)
    batch = draw_batch(conjugate, 100_000, 21)
    assert abs(bound(batch, "elbo") - exact) < 1e-10
    # shifted proposal: mean of f targets log p(x) - KL(q || posterior)
    shift = 0.05
    post_var = 0.5
    lam = conjugate.default_params.values + np.array([shift, 0.0])
    batch = draw_batch(conjugate, 100_000, 21, lam)
    se = batch.log_ratio.std(ddof=1) / math.sqrt(batch.size)
    kl = shift**2 / (2 * post_var)
    assert abs(bound(batch, "elbo") - (exact - kl)) < 3 * se
    assert abs(bound(batch, "iw_elbo") - exact) < 1e-3


def test_draw_batch_validates_size(sin_toy):
    with pytest.raises(ValueError):
        draw_batch(sin_toy, 0, 1)


@pytest.mark.parametrize("z, log_ratio, message", [
    (np.zeros((0, 1)), np.zeros(0), "at least one sample"),
    (np.zeros(3), np.zeros(3), "at least one sample"),
    (np.zeros((3, 1)), np.zeros(2), "one entry per sample"),
    (np.zeros((3, 1)), np.zeros((3, 1)), "one entry per sample"),
])
def test_importance_batch_checks_its_shapes(z, log_ratio, message):
    with pytest.raises(ValueError, match=message):
        ImportanceBatch(z=z, log_ratio=log_ratio)


def test_draw_batch_names_a_log_ratio_that_overflows(sin_toy):
    # both densities are finite, so neither is named: f = 1e308 - (-1e308) is not
    extreme = dataclasses.replace(sin_toy,
                                  _log_target=lambda pts, lam: np.full(len(pts), 1e308),
                                  _log_proposal=lambda pts, lam: np.full(len(pts), -1e308))
    with pytest.raises(ValueError, match="^log_ratio reads inf at 5 of 5 samples$"):
        draw_batch(extreme, 5, 1)


# ---------------------------------------------------------------------------
# Simple bounds
# ---------------------------------------------------------------------------

def test_all_simple_bounds_exact_on_scaled_factor(scaled_two):
    batch = draw_batch(scaled_two, 333, 3)
    target = math.log(2.0)
    for value in bound_report(batch, ["elbo", "iw_elbo", "rvi[0.5]", "rvi[2]", "eubo"]).values():
        assert value == pytest.approx(target, abs=1e-12)


def test_rvi_alpha_one_is_iw_elbo_bitwise(sin_toy):
    batch = draw_batch(sin_toy, 500, 4)
    report = bound_report(batch, ["rvi[1]", "iw_elbo"])
    assert report["rvi[1]"] == report["iw_elbo"]


@pytest.mark.parametrize("model_id", ["bayes_regression", "sin_toy"])
def test_rvi_at_a_huge_alpha_is_max_f(model_id):
    # the bound tends to max f as alpha grows; alpha f overflowed, which read
    # -inf on bayes_regression and warned on sin_toy
    batch = draw_batch(models.make_model(model_id), 1000, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = bound(batch, "rvi[1e308]")
    assert value == pytest.approx(batch.log_ratio.max(), rel=1e-15, abs=0.0)


def test_rvi_rejects_nonpositive_alpha(sin_toy):
    batch = draw_batch(sin_toy, 10, 0)
    for alpha in (0.0, -0.5):
        with pytest.raises(ValueError):
            bound(batch, f"rvi[{alpha!r}]")


@pytest.mark.parametrize("model_id", ["bayes_regression", "ring", "sin_toy"])
@pytest.mark.parametrize("alpha", [1e-10, 1e-12, 1e-16, 1e-300])
def test_rvi_at_a_small_alpha_reads_its_series(model_id, alpha):
    # (1/alpha) log mean e^(alpha f) = mean f + (alpha / 2) var f + O(alpha^2);
    # e^(alpha (f - max f)) rounded a tiny gap to 1, and sin_toy read max f,
    # 1.79, above log p, at alpha = 1e-300
    batch = draw_batch(models.make_model(model_id), 1000, 1)
    f = batch.log_ratio
    assert bound(batch, f"rvi[{alpha!r}]") == pytest.approx(f.mean() + 0.5 * alpha * f.var(),
                                                            rel=1e-13, abs=0.0)


def test_bound_ordering_across_seeds(sin_toy, sin_log_marginal):
    # elbo <= iw_elbo holds per batch by Jensen; iw_elbo is a lower bound only
    # in expectation, so the upper link is asserted at 3 delta-method std errs
    hits = 0
    for seed in range(100):
        batch = draw_batch(sin_toy, 10_000, seed)
        report = bound_report(batch, ["elbo", "iw_elbo"])
        iw = report["iw_elbo"]
        assert report["elbo"] <= iw
        w = np.exp(batch.log_ratio - batch.log_ratio.max())
        se = w.std(ddof=1) / (w.mean() * math.sqrt(batch.size))
        hits += iw <= sin_log_marginal + 3 * se
    assert hits >= 99


def test_rvi_limit_and_monotonicity(conjugate, sin_toy):
    # alpha -> 0+ recovers the ELBO; checked where the batch variance of f is
    # small so the alpha * var/2 gap sits below the 1e-6 budget
    lam = conjugate.default_params.values + np.array([0.02, 0.01])
    batch = draw_batch(conjugate, 5000, 8, lam)
    assert abs(bound(batch, "rvi[1e-6]") - bound(batch, "elbo")) < 1e-6
    # non-decreasing in alpha on any fixed batch
    for b in (batch, draw_batch(sin_toy, 2000, 8)):
        values = [bound(b, f"rvi[{a}]") for a in (1e-6, 0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0)]
        assert np.all(np.diff(values) >= -1e-12)


# ---------------------------------------------------------------------------
# Local evidence
# ---------------------------------------------------------------------------

def test_local_evidence_scaled_factor_geometric(scaled_two):
    batch = draw_batch(scaled_two, 256, 0)
    for beta in (0.0, 0.25, 1.0):
        est = local_evidence_curve(batch, PathSpec("geometric"), [beta])
        assert est.values[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert est.ess[0] == pytest.approx(1.0, abs=1e-12)


def test_local_evidence_scaled_factor_holder_closed_form(scaled_two):
    batch = draw_batch(scaled_two, 256, 0)
    est = local_evidence_curve(batch, PathSpec("holder", alpha=1.0), [0.5])
    assert est.values[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_local_evidence_matches_quadrature(sin_toy):
    batch = draw_batch(sin_toy, 100_000, 12)
    est = local_evidence_curve(batch, PathSpec("holder", alpha=0.8), [0.5])
    exact = quadrature_local_evidence(sin_toy, 0.8, 0.5)
    assert abs(est.values[0] - exact) < 3 * est.std_errs[0]


def test_local_evidence_beta_validation(sin_toy):
    batch = draw_batch(sin_toy, 16, 0)
    with pytest.raises(ValueError):
        local_evidence_curve(batch, PathSpec("geometric"), [1.5])


def test_local_evidence_degenerate_single_sample(sin_toy):
    batch = draw_batch(sin_toy, 1, 0)
    est = local_evidence_curve(batch, PathSpec("geometric"), [0.5])
    assert est.std_errs[0] == 0.0 and est.ess[0] == pytest.approx(1.0)


@settings(max_examples=25)
@given(st.floats(0.0, 1.0),
       st.sampled_from([PathSpec("geometric"), PathSpec("holder", alpha=-0.5),
                        PathSpec("holder", alpha=0.4), PathSpec("wasserstein"),
                        PathSpec("perturbed", delta=0.05)]),
       st.integers(0, 10_000))
def test_self_normalized_weights_sum_to_one(beta, spec, seed):
    model = models.make_sin_toy()
    batch = draw_batch(model, 100, seed)
    (block,) = path_weights(spec, [beta], batch.log_ratio)
    assert abs(block.w.sum() - 1.0) < 1e-12


@settings(max_examples=25)
@given(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.8, 1.0]), st.integers(0, 10_000))
def test_ess_always_in_bounds(beta, alpha, seed):
    model = models.make_sin_toy()
    batch = draw_batch(model, 50, seed)
    est = local_evidence_curve(batch, PathSpec("holder", alpha=alpha), [beta])
    assert 1.0 / batch.size - 1e-12 <= est.ess[0] <= 1.0 + 1e-12


@pytest.mark.parametrize("spec", [PathSpec("geometric"), PathSpec("holder", alpha=0.8),
                                  PathSpec("wasserstein"), PathSpec("perturbed", delta=0.05)])
def test_ess_is_the_normalized_effective_sample_size(sin_toy, spec):
    # (sum w)^2 / (S sum w^2) of the path weights, at interior betas where they are uneven
    batch = draw_batch(sin_toy, 500, 3)
    betas = [0.25, 0.5, 0.75]
    for beta, est_ess in zip(betas, local_evidence_curve(batch, spec, betas).ess):
        log_w = reference_log_density(spec, np.zeros(batch.size), batch.log_ratio, beta)
        w = np.exp(log_w - log_w.max())
        ess = w.sum() ** 2 / (batch.size * np.sum(w * w))
        assert ess < 0.9
        assert est_ess == pytest.approx(ess, rel=1e-12, abs=0.0)


def test_batch_reuse_equals_recomputation(sin_toy):
    batch = draw_batch(sin_toy, 400, 99)
    ids = ["elbo", "iw_elbo", "tvo", "hbo[0.8]", "wlbo", "wubo"]
    first = bound_report(batch, ids)
    batch2 = draw_batch(sin_toy, 400, 99)
    second = bound_report(batch2, ids)
    assert first == second


# ---------------------------------------------------------------------------
# Schedules and Riemann rules
# ---------------------------------------------------------------------------

def test_uniform_schedule_spacing():
    sched = PartitionSchedule.uniform(4)
    np.testing.assert_allclose(np.diff(sched.betas), 0.25, rtol=0, atol=1e-15)
    assert sched.betas[0] == 0.0 and sched.betas[-1] == 1.0


def test_log_schedule_first_knot():
    sched = PartitionSchedule.log(50)
    assert sched.betas[0] == 0.0
    assert sched.betas[1] == pytest.approx(LOG_PARTITION_BETA1, rel=1e-12)
    assert sched.betas[-1] == 1.0
    ratios = sched.betas[2:] / sched.betas[1:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


@given(st.integers(1, 60))
def test_schedules_strictly_increasing(partitions):
    sched = PartitionSchedule.uniform(partitions)
    assert np.all(np.diff(sched.betas) > 0)
    assert sched.betas.size == partitions + 1


def test_schedule_validation():
    with pytest.raises(ValueError):
        PartitionSchedule(np.array([0.0, 0.5, 0.9]))
    with pytest.raises(ValueError):
        PartitionSchedule(np.array([0.0, 0.6, 0.4, 1.0]))
    with pytest.raises(ValueError):
        PartitionSchedule.log(1)


@given(st.floats(-5, 5), st.integers(1, 30),
       st.sampled_from(list(IntegrationRule)))
def test_riemann_constant_curve(value, partitions, rule):
    betas = np.linspace(0, 1, partitions + 1)
    got = rule_weights(betas, rule) @ np.full(betas.size, value)
    assert got == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_riemann_linear_curve_rule_values():
    betas = np.array([0.0, 0.5, 1.0])
    assert rule_weights(betas, IntegrationRule.LEFT) @ betas == pytest.approx(0.25)
    assert rule_weights(betas, IntegrationRule.RIGHT) @ betas == pytest.approx(0.75)
    assert rule_weights(betas, IntegrationRule.TRAPEZOID) @ betas == pytest.approx(0.5)


def test_riemann_quadratic_trapezoid():
    betas = np.linspace(0, 1, 101)
    got = rule_weights(betas, IntegrationRule.TRAPEZOID) @ (betas * betas)
    assert abs(got - 1.0 / 3.0) < 1e-4


def test_riemann_validation():
    # Riemann sums run on PartitionSchedule knots, which carry the validation
    with pytest.raises(ValueError):
        PartitionSchedule(np.array([0.0]))
    with pytest.raises(ValueError):
        PartitionSchedule(np.array([0.1, 1.0]))


# ---------------------------------------------------------------------------
# Thermodynamic bounds
# ---------------------------------------------------------------------------

def test_tvo_exact_on_scaled_factor(scaled_two):
    batch = draw_batch(scaled_two, 100, 0)
    for sched in (PartitionSchedule.uniform(7), PartitionSchedule.log(13)):
        for rule in IntegrationRule:
            assert bound(batch, "tvo", tvo_schedule=sched, rule=rule) == pytest.approx(
                math.log(2.0), abs=1e-12)


def test_hbo_trapezoid_converges_on_scaled_factor(scaled_two):
    # exact curve 1/(1+beta) integrates to log 2
    batch = draw_batch(scaled_two, 64, 1)
    got = bound(batch, "hbo[1]", hbo_schedule=PartitionSchedule.uniform(2000),
                rule=IntegrationRule.TRAPEZOID)
    assert abs(got - math.log(2.0)) < 1e-4


def test_perturbed_hbo_zero_delta_equals_tvo(sin_toy):
    batch = draw_batch(sin_toy, 500, 2)
    sched = PartitionSchedule.uniform(10)
    assert bound(batch, "perturbed_hbo[0]", hbo_schedule=sched) == pytest.approx(
        bound(batch, "tvo", tvo_schedule=sched), abs=1e-12)


def test_left_sum_below_right_sum_on_rising_curve(sin_toy):
    batch = draw_batch(sin_toy, 2000, 6)
    sched = PartitionSchedule.log(50)
    curve = local_evidence_curve(batch, PathSpec("geometric"), sched.betas)
    left = bound(batch, "tvo", tvo_schedule=sched, rule=IntegrationRule.LEFT)
    right = bound(batch, "tvo", tvo_schedule=sched, rule=IntegrationRule.RIGHT)
    slack = 3 * math.sqrt(curve.std_errs[0] ** 2 + curve.std_errs[-1] ** 2)
    assert left <= right + slack


def test_expected_bound_ordering_elbo_tvo_logp(sin_toy, sin_log_marginal):
    # ELBO <= E[TVO] <= log p(x), gaps resolved at 3 combined std errs
    elbos, tvos = [], []
    sched = PartitionSchedule.log(50)
    for seed in range(200):
        batch = draw_batch(sin_toy, 100, seed)
        elbos.append(bound(batch, "elbo"))
        tvos.append(bound(batch, "tvo", tvo_schedule=sched, rule=IntegrationRule.LEFT))
    elbos, tvos = np.array(elbos), np.array(tvos)
    se = math.sqrt(elbos.var(ddof=1) / 200 + tvos.var(ddof=1) / 200)
    assert tvos.mean() - elbos.mean() > 3 * se
    assert sin_log_marginal - tvos.mean() > 3 * (tvos.std(ddof=1) / math.sqrt(200))


# ---------------------------------------------------------------------------
# Wasserstein pair
# ---------------------------------------------------------------------------

def test_wasserstein_bounds_closed_forms(scaled_two):
    batch = draw_batch(scaled_two, 512, 7)
    wlbo, wubo = bound_report(batch, ["wlbo", "wubo"]).values()
    assert wlbo == pytest.approx(0.5, abs=1e-12)
    assert wubo == pytest.approx(1.0, abs=1e-12)
    assert wlbo <= math.log(2.0) <= wubo


def test_wasserstein_quadrature_chain(sin_log_marginal, sin_toy):
    p = math.exp(sin_log_marginal)
    elbo_q = quadrature_local_evidence(sin_toy, 0.0, 0.0)
    eubo_q = quadrature_local_evidence(sin_toy, 0.0, 1.0)
    wlbo_q = quadrature_local_evidence(sin_toy, 1.0, 1.0)
    wubo_q = quadrature_local_evidence(sin_toy, 1.0, 0.0)
    assert elbo_q / p < wlbo_q < sin_log_marginal < wubo_q < eubo_q


# ---------------------------------------------------------------------------
# Renyi partial-integral equivalence (Prop-2.1-style identity)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
def test_partial_integral_matches_quadrature_rvi(sin_toy, alpha):
    betas = np.linspace(0.0, alpha, 401)
    curve = models.quadrature_local_evidence_curve(sin_toy, 0.0, betas)
    partial = simpson(curve, x=betas) / alpha
    assert abs(partial - quadrature_rvi(sin_toy, alpha)) < 1e-4


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_parse_bound_ids():
    assert parse_bound_id("elbo") == ("elbo", None)
    assert parse_bound_id("hbo[0.8]") == ("hbo", 0.8)
    assert parse_bound_id("perturbed_hbo[1e-2]") == ("perturbed_hbo", 0.01)
    for bad in ("hbo", "elbo[1]", "nope", "hbo[x]"):
        with pytest.raises(ValueError):
            parse_bound_id(bad)


@pytest.mark.parametrize("bound_id", ["hbo[0.5", "hbo[]", "HBO", "hbo [1]", ""])
def test_malformed_bound_id_is_named(bound_id):
    with pytest.raises(ValueError, match="^malformed bound id "):
        parse_bound_id(bound_id)


@pytest.mark.parametrize("bound_id, message", [
    ("hbo[nan]", "finite"), ("hbo[inf]", "finite"), ("perturbed_hbo[-inf]", "finite"),
    ("rvi[inf]", "finite"), ("rvi[0]", "alpha > 0"), ("rvi[-1]", "alpha > 0"),
    # a subnormal alpha loses the gaps in alpha (f - max f): 5e-324 read -23.21
    # on sin_toy, against an elbo of -23.506
    ("rvi[5e-324]", r"^rvi requires a normal alpha >= 2\.23e-308, got 4\.94066e-324$"),
])
def test_parse_bound_id_checks_the_parameter(bound_id, message):
    with pytest.raises(ValueError, match=message):
        parse_bound_id(bound_id)


def test_estimators_reject_a_non_finite_parameter(sin_toy):
    batch = draw_batch(sin_toy, 32, 0)
    for bound_id in ("rvi[inf]", "hbo[nan]", "perturbed_hbo[inf]"):
        with pytest.raises(ValueError, match="finite"):
            bound(batch, bound_id)


def test_bound_report_values_in_request_order(scaled_two):
    batch = draw_batch(scaled_two, 128, 11)
    ids = ["elbo", "iw_elbo", "rvi[0.5]", "eubo", "wlbo", "wubo", "tvo", "hbo[1]"]
    report = bound_report(batch, ids)
    assert list(report) == ids
    assert report["wlbo"] == pytest.approx(0.5, abs=1e-12)
