import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import logsumexp
from scipy.stats import spearmanr

from hvi import diagnostics, models, paths
from hvi.diagnostics import (
    MMD_BANDWIDTH,
    McmcReference,
    MmdReference,
    approx_error,
    curve_profile,
    mcmc_reference,
    mmd,
)
from hvi.estimators import (
    ImportanceBatch,
    IntegrationRule,
    PartitionSchedule,
    bound_report,
    draw_batch,
    local_evidence_curve,
)
from hvi.paths import PathSpec
from oracles import serial_mcmc_reference


# ---------------------------------------------------------------------------
# ESS
# ---------------------------------------------------------------------------

def ess(log_weights) -> float:
    """The ESS hvi curve, diagnose and tune report (local_evidence_curve's) for
    weights e^(log_weights): the geometric path at beta = 1 weights sample s by e^f_s."""
    log_weights = np.asarray(log_weights, dtype=float)
    batch = ImportanceBatch(z=np.zeros((log_weights.size, 1)), log_ratio=log_weights)
    return local_evidence_curve(batch, PathSpec("geometric"), [1.0]).ess[0]


def test_ess_uniform_weights():
    assert ess(np.zeros(50)) == pytest.approx(1.0, abs=1e-14)
    assert ess(np.full(50, -3.2)) == pytest.approx(1.0, abs=1e-12)


def test_ess_single_dominant_weight():
    lw = np.full(20, -1e300)  # weights that underflow to 0
    lw[3] = 0.7
    assert ess(lw) == pytest.approx(1 / 20, abs=1e-15)


def test_ess_two_point_closed_form():
    assert ess(np.array([0.0, math.log(3.0)])) == pytest.approx(0.8, abs=1e-12)


def test_ess_validation():
    with pytest.raises(ValueError):
        ess(np.full(4, -np.inf))
    with pytest.raises(ValueError):
        ess(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        ess(np.array([]))


@pytest.mark.parametrize("spread", [1.0, 30.0, 300.0, 700.0])
@pytest.mark.parametrize("shift", [0.0, -700.0, 700.0])
def test_ess_matches_the_log_space_formula(spread, shift):
    # exp(2 lse(lw) - lse(2 lw) - log m), the ESS in log space
    rng = np.random.default_rng(int(spread))
    lw = rng.uniform(-spread, spread, 500) + shift
    with_zeros = lw.copy()
    with_zeros[::3] = -1e300  # weights that underflow to 0
    for case in (lw, with_zeros):
        expected = math.exp(2.0 * logsumexp(case) - logsumexp(2.0 * case) - math.log(case.size))
        assert ess(case) == pytest.approx(expected, rel=1e-12, abs=0)


@settings(max_examples=50)
@given(st.lists(st.floats(-300, 300), min_size=1, max_size=64))
def test_ess_bounds_property(log_weights):
    value = ess(np.array(log_weights))
    assert 1 / len(log_weights) - 1e-12 <= value <= 1 + 1e-12


# ---------------------------------------------------------------------------
# Curve profiles
# ---------------------------------------------------------------------------

def test_profile_scaled_factor_degenerate(scaled_two):
    profile = curve_profile(scaled_two, PathSpec("geometric"),
                            np.linspace(0, 1, 5), 200, 10, seed=0)
    np.testing.assert_allclose(profile.variances, 0.0, atol=1e-24)
    np.testing.assert_allclose(profile.mean_ess, 1.0, atol=1e-12)


def test_profile_sin_toy_ess_trend(sin_toy):
    betas = np.linspace(0, 1, 21)
    profile = curve_profile(sin_toy, PathSpec("geometric"), betas, 1000, 50, seed=17)
    assert profile.mean_ess[0] == pytest.approx(1.0, abs=1e-12)
    rho, pval = spearmanr(np.tile(betas, 50), profile.ess_values.ravel())
    assert rho < 0 and pval < 0.01
    assert np.all(profile.variances >= 0)


def test_profile_deterministic(sin_toy):
    a = curve_profile(sin_toy, PathSpec("geometric"), [0.0, 0.5, 1.0], 100, 5, seed=3)
    b = curve_profile(sin_toy, PathSpec("geometric"), [0.0, 0.5, 1.0], 100, 5, seed=3)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.ess_values, b.ess_values)


def test_profile_requires_replicates(sin_toy):
    with pytest.raises(ValueError):
        curve_profile(sin_toy, PathSpec("geometric"), [0.0, 1.0], 100, 1, seed=0)


# ---------------------------------------------------------------------------
# MMD
# ---------------------------------------------------------------------------

def test_mmd_identical_samples_is_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    assert mmd(x, x) == 0.0


def test_mmd_permutation_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 2))
    y = rng.normal(0.5, 1.0, size=(400, 2))
    shuffled = x[rng.permutation(300)]
    assert mmd(x, y) == pytest.approx(mmd(shuffled, y), abs=1e-12)


def test_mmd_same_distribution_is_small():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1000, 1))
    y = rng.normal(size=(1000, 1))
    assert mmd(x, y) < 0.05


def test_mmd_separates_shifted_distributions():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(500, 1))
    assert mmd(x + 3.0, x) > 10 * mmd(x, x + 0.01)


def _dense_mmd(a, b):
    # the V-statistic from the full kernel matrices
    scale = np.where(b.std(axis=0) > 0, b.std(axis=0), 1.0)
    a, b = (a - b.mean(axis=0)) / scale, (b - b.mean(axis=0)) / scale
    gamma = 0.5 / MMD_BANDWIDTH**2

    def k(x, y):
        return np.exp(-gamma * cdist(x, y, "sqeuclidean")).mean()

    return math.sqrt(max(k(a, a) + k(b, b) - 2.0 * k(a, b), 0.0))


@pytest.mark.parametrize("tile_elements", [100, 10])
@pytest.mark.parametrize("n, m", [(37, 23), (1, 23), (23, 1)])
def test_mmd_blocks_match_dense_statistic(monkeypatch, tile_elements, n, m):
    # a block and its work buffer share one tile: 100 // (2 * 23) = 2 rows per
    # block leaves a ragged last block of 37 rows; 10 < 23 entries still takes
    # one row per block
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, 3))
    y = rng.normal(0.3, 1.2, size=(m, 3))
    expected = _dense_mmd(x, y)
    monkeypatch.setattr(paths, "_TILE_ELEMENTS", tile_elements)
    assert mmd(x, y) == pytest.approx(expected, rel=1e-12, abs=0)
    assert mmd(x, x) == 0.0


@pytest.mark.parametrize("tile_elements", [100, 10])
def test_kernel_mean_distances_equal_cdist_bitwise(monkeypatch, tile_elements):
    # from cdist's squared distances, the kernel mean of each pair and the one
    # summed over the same ragged blocks (2 or 1 rows of 23 entries) have the
    # same bits: the distances summed over the axes in order are cdist's
    rng = np.random.default_rng(8)
    x = rng.normal(size=(37, 3))
    y = rng.normal(0.3, 1.2, size=(23, 3))
    monkeypatch.setattr(paths, "_TILE_ELEMENTS", tile_elements)
    gamma = 0.5 / MMD_BANDWIDTH**2
    kernel = np.exp(-gamma * cdist(x, y, "sqeuclidean"))
    pairs = [[diagnostics._kernel_mean(x[i:i + 1], y[j:j + 1], gamma) for j in range(23)]
             for i in range(37)]
    assert np.array(pairs).tobytes() == kernel.tobytes()
    rows = max(1, tile_elements // (2 * y.shape[0]))
    total = sum(kernel[start:start + rows].sum() for start in range(0, 37, rows))
    assert diagnostics._kernel_mean(x, y, gamma) == total / kernel.size


def test_mmd_memory_is_bounded():
    # criterion 11's shape: dense kernel matrices would take >= 400 MB
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2000, 3))
    y = rng.normal(size=(5000, 3))
    tracemalloc.start()
    try:
        value = mmd(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 40e6


def test_mmd_reference_gives_the_value_of_its_sample():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 3))
    y = rng.standard_normal((500, 3)) * 2.0 + 0.3
    y[:, 2] = 0.5
    reference = MmdReference.of(y)
    assert reference.scale[2] == 1.0  # an axis of zero spread is not rescaled
    assert mmd(x, reference) == mmd(x, y)
    assert mmd(y, reference) == 0.0
    with pytest.raises(ValueError, match="matching dimension"):
        mmd(np.zeros((5, 2)), reference)
    with pytest.raises(ValueError, match="non-empty"):
        MmdReference.of(np.zeros((0, 3)))


@pytest.mark.parametrize("shape", [(500,), (5, 2, 1)], ids=["1-d", "3-d"])
def test_mmd_takes_only_point_rows(shape):
    # np.atleast_2d read 500 scalar draws as one 500-dimensional point, so
    # two unlike samples of them read sqrt(2)
    sample = np.random.default_rng(0).normal(size=shape)
    for call in (lambda: mmd(sample, np.zeros((5, 1))), lambda: MmdReference.of(sample),
                 lambda: mmd(sample, sample)):
        with pytest.raises(ValueError, match="samples must be 2-d"):
            call()


def test_mmd_dimension_mismatch():
    with pytest.raises(ValueError):
        mmd(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        mmd(np.zeros((0, 2)), np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# MCMC reference
# ---------------------------------------------------------------------------

def test_mcmc_standard_normal_target():
    # scaled_factor(1) target is exactly N(0, 1)
    model = models.make_scaled_factor(1.0)
    ref = mcmc_reference(model, chains=4, steps=42000, burn_in=2000, thin=20, seed=2)
    pooled = ref.pooled
    assert 0.0 < ref.acceptance_rate < 1.0
    assert abs(pooled.mean()) < 3.0 / math.sqrt(pooled.shape[0])
    assert pooled.std() == pytest.approx(1.0, abs=0.05)


def test_mcmc_ring_radius(ring):
    ref = mcmc_reference(ring, chains=4, steps=12000, burn_in=2000, thin=5, seed=1)
    radius = np.sqrt((ref.pooled ** 2).sum(axis=1))
    assert 0.95 < radius.mean() < 1.05


def test_mcmc_bayes_regression_posterior():
    model = models.make_bayes_regression(models.simulate_bayes_dataset(0))
    ref = mcmc_reference(model, chains=4, steps=65000, burn_in=5000, thin=40, seed=42)
    pooled = ref.pooled
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    assert abs(mean[0] - 25.0) < 3 * std[0]
    assert abs(mean[1] - 0.5) < 3 * std[1]
    # crude convergence: across-chain mean spread within 4 within-chain ses
    chain_means = ref.samples.mean(axis=1)
    within_se = ref.samples.std(axis=1, ddof=1) / math.sqrt(ref.samples.shape[1])
    spread = chain_means.max(axis=0) - chain_means.min(axis=0)
    assert np.all(spread < 4 * within_se.mean(axis=0))


def test_mcmc_deterministic(ring):
    a = mcmc_reference(ring, chains=2, steps=3000, burn_in=500, thin=5, seed=9)
    b = mcmc_reference(ring, chains=2, steps=3000, burn_in=500, thin=5, seed=9)
    assert np.array_equal(a.pooled, b.pooled)
    assert a.acceptance_rate == b.acceptance_rate


def test_mcmc_validation(ring):
    with pytest.raises(ValueError):
        mcmc_reference(ring, steps=100, burn_in=100)


@pytest.mark.parametrize("setting, message", [({"steps": 300, "burn_in": -100}, "burn_in"),
                                              ({"step_size": 0.0}, "step_size"),
                                              ({"step_size": -1.0}, "step_size"),
                                              ({"step_size": math.inf}, "step_size"),
                                              ({"thin": 0}, "thin must be >= 1"),
                                              ({"chains": 0}, "chains must be >= 1"),
                                              ({"steps": 300, "burn_in": 100, "thin": 1000},
                                               "steps must exceed burn_in by at least thin")])
def test_mcmc_rejects_settings_before_sampling(ring, setting, message):
    def never(*args):
        raise AssertionError("the sampler ran")
    # a model that fails on any evaluation shows the check comes first
    silent = dataclasses.replace(ring, _log_target=never, _sample_proposal=never)
    with pytest.raises(ValueError, match=message):
        mcmc_reference(silent, **setting)


_BAYES = ("bayes_regression", {"seed": 0})


@pytest.mark.parametrize("model, settings", [
    (_BAYES, dict(chains=4, steps=17500, burn_in=5000, thin=10, seed=42)),  # criterion 11
    (_BAYES, dict(chains=2, steps=2000, burn_in=500, thin=10, seed=0)),  # golden train_hbo
    (_BAYES, dict(chains=3, steps=600, burn_in=100, thin=1, seed=1)),
    (_BAYES, dict(chains=1, steps=1500, burn_in=500, thin=7, seed=2)),
    (_BAYES, dict(chains=64, steps=700, burn_in=200, thin=10, seed=3)),
    (_BAYES, dict(chains=21, steps=700, burn_in=200, thin=10, seed=3)),  # the last k = 2
    (_BAYES, dict(chains=22, steps=700, burn_in=200, thin=10, seed=3)),  # the first k = 1
    (_BAYES, dict(chains=4, steps=1500, burn_in=500, thin=10, step_size=20.0, seed=4)),
    (_BAYES, dict(chains=4, steps=1500, burn_in=500, thin=10, step_size=0.01, seed=5)),
    (("ring", {}), dict(chains=4, steps=1500, burn_in=500, thin=3, seed=6)),
    (("sin_toy", {}), dict(chains=5, steps=1500, burn_in=500, thin=5, seed=7)),
    (("conjugate_gaussian", {"sigma": 0.5, "x_obs": 1.0}),
     dict(chains=2, steps=1500, burn_in=0, thin=4, seed=8)),
    (("scaled_factor", {"scale": 2.0}), dict(chains=7, steps=1500, burn_in=501, thin=3, seed=9)),
], ids=lambda value: value[0] if isinstance(value, tuple) else
    "-".join(f"{key}={v:g}" for key, v in value.items()))
def test_mcmc_reference_is_the_serial_chain_bit_for_bit(model, settings):
    model = models.make_model(*model)
    prefetched = mcmc_reference(model, **settings)
    serial = serial_mcmc_reference(model, **settings)
    assert prefetched.samples.tobytes() == serial.samples.tobytes()
    assert prefetched.acceptance_rate == serial.acceptance_rate


def test_mcmc_pilot_brings_a_far_step_size_into_the_acceptance_band():
    # so the step_size 20 and 0.01 configs above compare the pilot's adjusted steps
    model = models.make_model(*_BAYES)
    for step_size in (20.0, 0.01):
        moved = mcmc_reference(model, chains=4, steps=600, burn_in=100, step_size=step_size)
        assert 0.2 <= moved.acceptance_rate <= 0.5


def test_mcmc_reports_a_run_that_accepts_nothing(ring):
    # every chain starts at the origin, the one point of finite target
    def log_target(pts, lam):
        return np.where(np.all(pts == 0.0, axis=1), 0.0, -1e300)

    stuck = dataclasses.replace(ring, _log_target=log_target,
                                _sample_proposal=lambda rng, lam, n: np.zeros((n, 2)))
    with pytest.raises(ValueError, match=r"^acceptance rate .* got 0; check step_size$"):
        mcmc_reference(stuck, chains=1, steps=20, burn_in=10, thin=1)


def test_mcmc_names_a_start_density_that_is_not_finite():
    # the ring's likelihood at y = 1e300 overflows to -inf everywhere: the
    # pilot and start warned, and every acceptance test read nan, which was
    # reported as a step_size that accepts nothing
    far = models.make_ring(y_obs=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^log_target reads -inf at 2 of 2 chains$"):
            mcmc_reference(far, chains=2, steps=20, burn_in=10)


@pytest.mark.parametrize("chains", [1, 64])
def test_mcmc_rejects_a_proposal_of_nan_density_silently(ring, chains):
    # the unit disk's log density is nan outside it; the serial chain warns
    # there, the prefetched one scores its tree with float warnings off
    disk = dataclasses.replace(
        ring, _log_target=lambda pts, lam: np.log(1.0 - np.sum(pts**2, axis=1)),
        _sample_proposal=lambda rng, lam, n: rng.uniform(-0.5, 0.5, (n, 2)))
    setting = dict(chains=chains, steps=300, burn_in=100, thin=5, step_size=4.0)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        serial = serial_mcmc_reference(disk, **setting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prefetched = mcmc_reference(disk, **setting)
    assert prefetched.samples.tobytes() == serial.samples.tobytes()


@pytest.mark.parametrize("rate", [0.0, 1.0, 1.5])
def test_mcmc_reference_checks_its_acceptance_rate(rate):
    with pytest.raises(ValueError, match="acceptance rate"):
        McmcReference(samples=np.zeros((1, 2, 1)), acceptance_rate=rate)


# ---------------------------------------------------------------------------
# Approximation error
# ---------------------------------------------------------------------------

def test_approx_error_zero_for_exact_oracle():
    x_grid = np.linspace(-1, 1, 21)
    err = approx_error(lambda x: models.make_sin_toy(x_obs=x), x_grid,
                       lambda m: models.quadrature_log_marginal(m))
    assert err == pytest.approx(0.0, abs=1e-12)


def test_approx_error_survives_large_log_estimates():
    # p_hat = e^720 overflows a double, but p |p - p_hat| ~ e^668 does not
    def family(x):
        return models.make_sin_toy(x_obs=x)

    x_grid = [2.0, 2.1]
    err = approx_error(family, x_grid, lambda m: 720.0)
    log_p = [models.quadrature_log_marginal(family(x)) for x in x_grid]
    terms = [math.exp(lp + 720.0 + math.log1p(-math.exp(lp - 720.0))) for lp in log_p]
    assert err == pytest.approx(0.05 * sum(terms), rel=1e-12)


def test_approx_error_nonnegative_and_orders_budgets(sin_toy):
    x_grid = np.linspace(-1.5, 1.5, 31)
    sched_fine = PartitionSchedule.uniform(40)
    sched_coarse = PartitionSchedule.uniform(2)

    def estimate(sched):
        return lambda m: bound_report(draw_batch(m, 200, 7), ["tvo"], tvo_schedule=sched,
                                      rule=IntegrationRule.LEFT)["tvo"]

    err_fine = approx_error(lambda x: models.make_sin_toy(x_obs=x), x_grid, estimate(sched_fine))
    err_coarse = approx_error(lambda x: models.make_sin_toy(x_obs=x), x_grid, estimate(sched_coarse))
    assert 0.0 <= err_fine < err_coarse


def test_approx_error_validates_grid(sin_toy):
    with pytest.raises(ValueError):
        approx_error(lambda x: sin_toy, [0.0], lambda m: 0.0)
