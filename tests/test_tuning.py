from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import logsumexp

from hvi import models, paths
from hvi.estimators import draw_batch
from hvi.paths import PathSpec
from hvi.tuning import (
    DEFAULT_TEST_BETAS,
    BracketError,
    summarize_curve,
    tune_alpha_bisect,
    tune_alpha_grid,
)
from hvi.util import derive_seeds
from oracles import quadrature_curve_slope
from path_forms import reference_integrand, reference_log_density

INTERIOR_BETAS = (0.0, 0.25, 0.5, 0.75)


# ---------------------------------------------------------------------------
# Curve summaries
# ---------------------------------------------------------------------------

def test_scaled_factor_geometric_curve_is_flat(scaled_two):
    summary = summarize_curve(draw_batch(scaled_two, 500, 0), 0.0, DEFAULT_TEST_BETAS)
    assert summary.range < 1e-12
    assert abs(summary.slope) < 1e-12


def test_scaled_factor_wasserstein_curve_range(scaled_two):
    # exact curve 1/(1+beta): endpoints 1 and 1/2
    summary = summarize_curve(draw_batch(scaled_two, 500, 0), 1.0, (0.0, 1.0))
    assert summary.range == pytest.approx(0.5, abs=1e-12)


def test_sin_toy_geometric_slope_significant(sin_toy):
    summary = summarize_curve(draw_batch(sin_toy, 10_000, 1), 0.0, DEFAULT_TEST_BETAS)
    assert summary.slope > 3 * summary.slope_std_err


@pytest.mark.parametrize("scale", [3.0, 7.5])
def test_rounding_noise_slope_is_flat(scale):
    # exactly constant in theory (log scale at every beta); the least-squares
    # sum of the computed values reads a few ulps, with an even smaller std err
    summary = summarize_curve(draw_batch(models.make_scaled_factor(scale), 500, 0), 0.0,
                              DEFAULT_TEST_BETAS)
    assert summary.slope != 0.0 and abs(summary.slope) > 3 * summary.slope_std_err
    assert summary.is_flat()


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_slope_std_err_is_calibrated(sin_toy, alpha):
    # every test beta reweights one batch, so the slope's std err must carry
    # their correlation; treating the betas as independent overstates it
    b = np.asarray(DEFAULT_TEST_BETAS)
    coef = (b - b.mean()) / np.sum((b - b.mean()) ** 2)
    exact = coef @ models.quadrature_local_evidence_curve(sin_toy, alpha, DEFAULT_TEST_BETAS)
    summaries = [summarize_curve(draw_batch(sin_toy, 1000, int(seed)), alpha, DEFAULT_TEST_BETAS)
                 for seed in derive_seeds(0, 500)]
    slopes = np.array([s.slope for s in summaries])
    std_errs = np.array([s.slope_std_err for s in summaries])
    assert np.mean(std_errs) == pytest.approx(np.std(slopes, ddof=1), rel=0.15)
    # the mean z-score is not tested: the self-normalized bias shifts it
    assert 0.85 <= np.std((slopes - exact) / std_errs, ddof=1) <= 1.15


def test_slope_std_err_is_the_delta_method_over_kernel_blocks(sin_toy, monkeypatch):
    # reference: per-beta influences phi_k = w_k (g - E_k) from the test-only
    # pointwise path forms, combined across beta before squaring; both depend on the
    # endpoints only through f, so (L0, L1) = (0, f) stands in for them
    batch = draw_batch(sin_toy, 400, 5)
    spec = PathSpec("holder", alpha=0.6)
    phi = []
    for beta in DEFAULT_TEST_BETAS:
        log_w = reference_log_density(spec, 0.0, batch.log_ratio, beta)
        w = np.exp(log_w - logsumexp(log_w))
        g = reference_integrand(spec, 0.0, batch.log_ratio, beta)
        phi.append(w * (g - w @ g))
    b = np.asarray(DEFAULT_TEST_BETAS)
    coef = (b - b.mean()) / np.sum((b - b.mean()) ** 2)
    monkeypatch.setattr(paths, "BLOCK_ELEMENTS", 2 * batch.size)  # blocks of 2, 2, 1 betas
    summary = summarize_curve(batch, 0.6, DEFAULT_TEST_BETAS)
    np.testing.assert_allclose(summary.std_errs, np.sqrt(np.sum(np.square(phi), axis=1)),
                               rtol=1e-10)
    assert summary.slope_std_err == pytest.approx(np.sqrt(np.sum((coef @ phi) ** 2)), rel=1e-10)


def test_summary_requires_two_betas(sin_toy):
    batch = draw_batch(sin_toy, 100, 0)
    with pytest.raises(ValueError):
        summarize_curve(batch, 0.5, (0.5,))


def test_summary_requires_two_distinct_betas(sin_toy):
    # equal betas leave the least-squares slope 0 / 0
    batch = draw_batch(sin_toy, 100, 0)
    with pytest.raises(ValueError, match="distinct"):
        summarize_curve(batch, 0.5, (0.5, 0.5))


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

def test_grid_tuner_prefers_flat_geometric_on_scaled_factor(scaled_two):
    result = tune_alpha_grid(scaled_two, [0.0, 0.5, 1.0], DEFAULT_TEST_BETAS, 500, seed=2)
    assert result.alpha == 0.0
    assert result.method == "grid"
    assert result.evaluations == 3 * len(DEFAULT_TEST_BETAS)


def test_grid_tuner_never_returns_dominated_candidate(sin_toy):
    result = tune_alpha_grid(sin_toy, [0.1, 0.4, 0.8], INTERIOR_BETAS, 2000, seed=3)
    best = min(s.range for s in result.table)
    assert result.summary.range == best


def test_grid_tuner_finds_flattening_alpha(sin_toy):
    candidates = [round(a, 1) for a in np.arange(0.1, 1.0, 0.1)]
    result = tune_alpha_grid(sin_toy, candidates, INTERIOR_BETAS, 10_000, seed=3)
    range_geo = tune_alpha_grid(sin_toy, [0.0], INTERIOR_BETAS, 10_000, seed=3).summary.range
    range_one = tune_alpha_grid(sin_toy, [1.0], INTERIOR_BETAS, 10_000, seed=3).summary.range
    assert result.summary.range < range_geo
    assert result.summary.range < range_one
    # qualitative shape: exact slope positive at alpha=0 and negative at alpha=1
    assert quadrature_curve_slope(sin_toy, 0.0, 0.5) > 0
    assert quadrature_curve_slope(sin_toy, 1.0, 0.5) < 0


def test_grid_tuner_ties_break_toward_smaller_alpha(conjugate):
    # exact-posterior proposal: every alpha gives a flat curve (range ~ 0)
    result = tune_alpha_grid(conjugate, [0.6, 0.2, 0.9], DEFAULT_TEST_BETAS, 200, seed=0)
    assert result.alpha == 0.2


def test_grid_tuner_deterministic(sin_toy):
    a = tune_alpha_grid(sin_toy, [0.2, 0.5], DEFAULT_TEST_BETAS, 500, seed=9)
    b = tune_alpha_grid(sin_toy, [0.2, 0.5], DEFAULT_TEST_BETAS, 500, seed=9)
    assert a.alpha == b.alpha
    np.testing.assert_array_equal(a.summary.values, b.summary.values)


def test_grid_tuner_rejects_empty(sin_toy):
    with pytest.raises(ValueError):
        tune_alpha_grid(sin_toy, [], DEFAULT_TEST_BETAS, 100, seed=0)


def test_grid_tuner_takes_an_iterator_of_betas(sin_toy):
    # the betas are read once, on entry: every candidate's curve and the
    # evaluation count see all of a generator
    betas = (0.0, 0.5, 1.0)
    from_iterator = tune_alpha_grid(sin_toy, [0.3, 0.5], (b for b in betas), 200, 1)
    np.testing.assert_equal(asdict(from_iterator),
                            asdict(tune_alpha_grid(sin_toy, [0.3, 0.5], betas, 200, 1)))
    assert from_iterator.evaluations == 6


# ---------------------------------------------------------------------------
# Bisection
# ---------------------------------------------------------------------------

def test_bisect_converges_to_flat_alpha(sin_toy):
    result = tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 10_000,
                               tolerance=0.02, seed=3)
    assert result.converged
    assert 0.05 < result.alpha < 0.95
    def quad_slope(alpha):
        curve = models.quadrature_local_evidence_curve(sin_toy, alpha, INTERIOR_BETAS)
        b = np.asarray(INTERIOR_BETAS)
        coef = (b - b.mean()) / np.sum((b - b.mean()) ** 2)
        return float(coef @ curve)
    assert abs(quad_slope(result.alpha)) < abs(quad_slope(0.0)) / 5


def test_bisect_interval_halving_and_budget(sin_toy):
    result = tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 10_000,
                               tolerance=1e-6, max_iters=3, seed=3)
    # 2 bracket curves plus at most 3 midpoints
    assert result.evaluations <= (2 + 3) * len(INTERIOR_BETAS)
    if not result.converged:
        assert 0.05 < result.alpha < 0.95


def test_bisect_flags_budget_exhaustion(sin_toy):
    # one iteration cannot shrink the bracket below tolerance, and the first
    # midpoint's slope is significant at this sample size
    result = tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 10_000,
                               tolerance=1e-12, max_iters=1, seed=3)
    assert not result.converged
    assert result.alpha == pytest.approx(0.5)


def test_bisect_stops_once_the_bracket_is_narrower_than_tolerance(sin_toy):
    # the first midpoint's slope is significant, and halving the bracket once
    # leaves it 0.45 wide, below the tolerance
    result = tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 10_000,
                               tolerance=0.5, seed=3)
    assert result.converged and not result.summary.is_flat()
    assert [summary.alpha for summary in result.table] == [0.05, 0.95, 0.5]


def test_bisect_rejects_a_bracket_that_does_not_fall_at_alpha_hi(sin_toy):
    # the curve still rises at alpha = 0.1, as it does at 0.05
    with pytest.raises(BracketError, match="alpha_hi=0.1 is not significantly negative"):
        tune_alpha_bisect(sin_toy, 0.05, 0.1, INTERIOR_BETAS, 2000, seed=3)


def test_bisect_rejects_flat_bracket(scaled_two):
    # scaled-factor geometric curve is exactly flat: no significant slopes
    with pytest.raises(BracketError):
        tune_alpha_bisect(scaled_two, 0.0, 0.9, DEFAULT_TEST_BETAS, 500, seed=0)


def test_bisect_validates_bracket_order(sin_toy):
    with pytest.raises(ValueError):
        tune_alpha_bisect(sin_toy, 0.9, 0.1, DEFAULT_TEST_BETAS, 100, seed=0)


def test_bisect_rejects_zero_iterations(sin_toy):
    with pytest.raises(ValueError, match="max_iters"):
        tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 100, max_iters=0, seed=3)


def test_bisect_rejects_a_nonpositive_tolerance(sin_toy):
    for tolerance in (0.0, -0.01):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 100, tolerance=tolerance)


def test_bisect_deterministic(sin_toy):
    a = tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 2000, seed=7)
    b = tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 2000, seed=7)
    assert a.alpha == b.alpha and a.evaluations == b.evaluations


def test_flat_midpoint_returns_immediately(sin_toy):
    # statistically-zero slope at the first midpoint stops the search there
    result = tune_alpha_bisect(sin_toy, 0.05, 0.95, INTERIOR_BETAS, 10_000,
                               tolerance=1e-9, max_iters=25, seed=3)
    flat_iterations = [s for s in result.table[2:] if s.is_flat()]
    if flat_iterations:
        assert result.summary.alpha == result.table[-1].alpha
        assert result.summary.is_flat()
