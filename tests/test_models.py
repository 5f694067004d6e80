import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvi import models
from hvi.models import (
    GridSpec,
    ModelParameters,
    conjugate_exact_log_marginal,
    make_bayes_regression,
    make_conjugate_gaussian,
    make_model,
    make_ring,
    make_scaled_factor,
    make_sin_toy,
    quadrature_grid,
    quadrature_local_evidence_curve,
    quadrature_log_marginal,
    quadrature_oracle,
    simulate_bayes_dataset,
)
from oracles import quadrature_local_evidence, quadrature_rvi

ALL_LOW_DIM = [
    lambda: make_scaled_factor(2.0),
    lambda: make_conjugate_gaussian(1.0, 0.0),
    lambda: make_sin_toy(),
    lambda: make_ring(),
]


# ---------------------------------------------------------------------------
# ModelParameters
# ---------------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ValueError):
        ModelParameters(("a",), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ModelParameters(("a", "a"), np.array([1.0, 2.0]))


def test_evaluators_reject_a_wrong_parameter_count(ring):
    with pytest.raises(ValueError, match="expected 4 parameters, got 3"):
        ring.log_target(np.zeros((1, 2)), np.zeros(3))


@pytest.mark.parametrize("z, message", [
    (0.5, r"z with shape \(\) does not match latent_dim 2"),
    (np.zeros(3), r"z with shape \(3,\) does not match latent_dim 2"),
    (np.zeros((4, 3)), r"z with shape \(4, 3\) does not match latent_dim 2"),
    (np.zeros((1, 2, 1)), r"z with shape \(1, 2, 1\) does not match latent_dim 2"),
])
def test_evaluators_reject_points_of_the_wrong_shape(ring, z, message):
    with pytest.raises(ValueError, match=message):
        ring.log_proposal(z)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("model_id", models.MODEL_IDS)
def test_evaluators_take_only_a_batch_of_points(model_id, n):
    # an (n, d) batch gives (n,) log densities and (n, size) gradients; a
    # scalar, one point as a (d,) array and a batch of the wrong width are errors
    model = make_model(model_id, PINNED_DEFAULTS[model_id][0])
    d, size = model.latent_dim, model.default_params.size
    z = model.sample_proposal(np.random.default_rng(0), n)
    for name, shape in (("log_target", (n,)), ("log_proposal", (n,)),
                        ("grad_log_target", (n, size)), ("grad_log_proposal", (n, size))):
        evaluator = getattr(model, name)
        assert evaluator(z).shape == shape
        for bad in (np.float64(0.5), np.zeros(d), np.zeros((n, d + 1))):
            message = re.escape(f"z with shape {np.shape(bad)} does not match latent_dim {d}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                evaluator(bad)


# ---------------------------------------------------------------------------
# Proposal normalization, finiteness, gradients vs finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", ALL_LOW_DIM)
def test_proposal_is_normalized_on_grid(build):
    model = build()
    pts, logw = quadrature_grid(model)
    mass = np.exp(model.log_proposal(pts) + logw).sum()
    assert abs(mass - 1.0) < 1e-6


@pytest.mark.parametrize("build", ALL_LOW_DIM)
def test_log_densities_finite_on_grid(build):
    model = build()
    pts, _ = quadrature_grid(model, GridSpec(points=301))
    assert np.all(np.isfinite(model.log_target(pts)))
    assert np.all(np.isfinite(model.log_proposal(pts)))


@pytest.mark.parametrize("build", ALL_LOW_DIM + [lambda: make_bayes_regression(simulate_bayes_dataset(0))])
def test_gradients_match_finite_differences(build):
    model = build()
    rng = np.random.default_rng(0)
    z = model.sample_proposal(rng, 5)
    lam = model.default_params.values + 0.05
    step = 1e-5
    for fn, grad_fn in ((model.log_target, model.grad_log_target),
                        (model.log_proposal, model.grad_log_proposal)):
        got = grad_fn(z, lam)
        for j in range(lam.size):
            hi, lo = lam.copy(), lam.copy()
            hi[j] += step
            lo[j] -= step
            fd = (fn(z, hi) - fn(z, lo)) / (2 * step)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.all(np.abs(got[:, j] - fd) / scale < 1e-5)


# ---------------------------------------------------------------------------
# Scaled factor
# ---------------------------------------------------------------------------

def test_scaled_factor_rejects_nonpositive():
    for c in (0.0, -1.0):
        with pytest.raises(ValueError):
            make_scaled_factor(c)


def test_scaled_factor_target_is_shifted_proposal(scaled_two):
    z = np.linspace(-3, 3, 7)[:, None]
    np.testing.assert_allclose(
        scaled_two.log_target(z), math.log(2.0) + scaled_two.log_proposal(z), rtol=0, atol=1e-12)


def test_scaled_factor_identity_case():
    model = make_scaled_factor(1.0)
    z = np.linspace(-2, 2, 5)[:, None]
    np.testing.assert_allclose(model.log_target(z), model.log_proposal(z), atol=1e-15)
    assert abs(quadrature_log_marginal(model)) < 1e-8


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 10.0])
def test_scaled_factor_log_marginal(c):
    assert abs(quadrature_log_marginal(make_scaled_factor(c)) - math.log(c)) < 1e-8


def test_scaled_factor_holder_closed_form(scaled_two):
    # E_(alpha,beta) = (c^a - 1) / (a (b c^a + 1 - b)) for constant ratio c
    assert abs(quadrature_local_evidence(scaled_two, 1.0, 0.5) - 2.0 / 3.0) < 1e-12
    for beta in (0.0, 0.3, 1.0):
        assert abs(quadrature_local_evidence(scaled_two, 0.0, beta) - math.log(2)) < 1e-12


# ---------------------------------------------------------------------------
# Conjugate Gaussian
# ---------------------------------------------------------------------------

def test_conjugate_exact_marginal_value():
    assert conjugate_exact_log_marginal(1.0, 0.0) == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-12)


@pytest.mark.parametrize("sigma,x_obs", [(1.0, 0.0), (0.5, 1.0)])
def test_conjugate_quadrature_matches_closed_form(sigma, x_obs):
    model = make_conjugate_gaussian(sigma, x_obs)
    exact = conjugate_exact_log_marginal(sigma, x_obs)
    assert abs(quadrature_log_marginal(model) - exact) < 1e-8


@pytest.mark.parametrize("sigma", [1e-6, 1e-5, 1e-3, 1e-2, 1.0, 10.0])
def test_conjugate_quadrature_is_exact_at_every_sigma(sigma):
    # the grid spans 8 posterior stds, so its cells resolve the posterior
    # however narrow it is; at 8 absolute units, sigma = 1e-5 read 2.419
    exact = conjugate_exact_log_marginal(sigma, 0.5)
    assert quadrature_log_marginal(make_conjugate_gaussian(sigma, 0.5)) == pytest.approx(
        exact, rel=1e-13, abs=0)


def test_conjugate_default_proposal_closes_the_gap(conjugate):
    # proposal == posterior implies the local evidence is flat at log p(x)
    exact = conjugate_exact_log_marginal(1.0, 0.0)
    assert abs(quadrature_local_evidence(conjugate, 0.0, 0.0) - exact) < 1e-10
    assert abs(quadrature_local_evidence(conjugate, 0.0, 1.0) - exact) < 1e-10


def test_conjugate_rejects_bad_sigma():
    with pytest.raises(ValueError):
        make_conjugate_gaussian(0.0, 1.0)


# ---------------------------------------------------------------------------
# Sin toy
# ---------------------------------------------------------------------------

def test_sin_toy_finite_everywhere(sin_toy):
    z = np.linspace(-12, 12, 101)[:, None]
    assert np.all(np.isfinite(sin_toy.log_target(z)))


def test_sin_toy_grid_refinement_converges(sin_toy):
    coarse = quadrature_log_marginal(sin_toy, GridSpec(points=20001))
    fine = quadrature_log_marginal(sin_toy, GridSpec(points=40001))
    assert abs(fine - coarse) < 1e-8


def test_sin_toy_marginal_insensitive_to_domain_choice(sin_toy):
    # the target carries no mass beyond |z| ~ 6, so [-8, 8] already suffices;
    # proposal_std = 1 spans 8 stds = [-8, 8] with the same target
    narrow = make_sin_toy(proposal_std=1.0)
    assert narrow.quadrature_domain == ((-8.0, 8.0),)
    assert abs(quadrature_log_marginal(narrow) - quadrature_log_marginal(sin_toy)) < 1e-8


def test_quadrature_signals_nonfinite_grid_values(sin_toy):
    def truncated(pts, lam):
        out = np.full(pts.shape[0], -math.inf)
        out[::2] = 0.0
        return out

    cases = [
        # a target with truncated support: -inf on every other point of the
        # 20001-point grid, which is one tile; each oracle names the density
        ({"_log_target": truncated}, "log_target reads -inf at 10000 of 20001"),
        # both densities finite, f = 1e308 - (-1e308) not: it read as a nan
        # log p(x) with two numpy warnings
        ({"_log_target": lambda pts, lam: np.full(len(pts), 1e308),
          "_log_proposal": lambda pts, lam: np.full(len(pts), -1e308)},
         "log_ratio reads inf at 20001 of 20001"),
    ]
    for densities, message in cases:
        broken = dataclasses.replace(sin_toy, **densities)
        for oracle in (quadrature_log_marginal,
                       lambda model: quadrature_local_evidence_curve(model, 0.5, [0.0, 1.0])):
            with pytest.raises(ValueError, match=f"^{message} points of a grid tile$"):
                oracle(broken)


def test_quadrature_names_a_nonfinite_proposal_in_its_tile(ring):
    # the ring's 801^2 grid takes 32768 points per tile; the first tile that
    # reads a NaN is named, with its count
    def log_proposal(pts, lam):
        return np.where(pts[:, 0] < -3.95, math.nan, 0.0)

    broken = dataclasses.replace(ring, _log_proposal=log_proposal)
    with pytest.raises(ValueError, match=r"^log_proposal reads nan at \d+ of 32768 points "
                                         "of a grid tile$"):
        quadrature_log_marginal(broken)


def test_sin_toy_rejects_a_nonpositive_proposal_std():
    for std in (0.0, -1.5):
        with pytest.raises(ValueError, match="proposal_std must be positive"):
            make_sin_toy(proposal_std=std)


def test_sin_toy_proposal_default_is_overridable():
    model = make_sin_toy(proposal_std=2.0)
    assert model.default_params.values[1] == pytest.approx(math.log(2.0))


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------

def test_ring_likelihood_peaks_on_the_ring(ring):
    at_mode = ring.log_target(np.array([[1.0, 0.0]]))[0]
    prior = -math.log(2 * math.pi) - 0.5
    lik = at_mode - prior
    expected = -0.5 * math.log(2 * math.pi * 0.01)  # log N(1; 1, 0.1^2)
    assert lik == pytest.approx(expected, abs=1e-12)


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_ring_target_is_rotation_symmetric(a, b):
    ring = make_ring()
    assert ring.log_target(np.array([[a, b]]))[0] == pytest.approx(
        ring.log_target(np.array([[b, a]]))[0], abs=1e-12)


# ---------------------------------------------------------------------------
# Bayesian regression dataset and model
# ---------------------------------------------------------------------------

def test_bayes_dataset_deterministic():
    d1 = simulate_bayes_dataset(3)
    d2 = simulate_bayes_dataset(3)
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
    d3 = simulate_bayes_dataset(4)
    assert not np.array_equal(d1.x, d3.x)
    assert d1.n == 20


def test_bayes_dataset_ols_slope_near_truth():
    data = simulate_bayes_dataset(0)
    xc = data.x - data.x.mean()
    slope = xc @ (data.y - data.y.mean()) / (xc @ xc)
    assert 0.4 < slope < 0.6


def test_bayes_regression_prior_vanishes_at_zero_slope():
    data = simulate_bayes_dataset(0)
    model = make_bayes_regression(data)
    z = np.array([10.0, 0.0, 1.0])
    log_s = z[2]
    loglik = np.sum(-log_s - 0.5 * math.log(2 * math.pi)
                    - 0.5 * np.exp(-2 * log_s) * (data.y - z[0]) ** 2)
    assert model.log_target(z[None, :])[0] == pytest.approx(loglik, rel=1e-12)


@pytest.mark.parametrize("x, y", [(np.zeros(3), np.zeros(2)), (np.zeros((2, 2)), np.zeros((2, 2)))])
def test_bayes_dataset_checks_its_shapes(x, y):
    with pytest.raises(ValueError, match="equal-length 1-d arrays"):
        models.BayesRegressionDataset(x=x, y=y)


def test_bayes_regression_rejects_empty():
    empty = models.BayesRegressionDataset(x=np.array([]), y=np.array([]))
    with pytest.raises(ValueError):
        make_bayes_regression(empty)
    # two points fit the OLS line exactly: no residual spread to take a log of
    with pytest.raises(ValueError, match="^dataset needs at least 3 points, got 2$"):
        make_bayes_regression(simulate_bayes_dataset(0, 2))


# ---------------------------------------------------------------------------
# Quadrature oracle plumbing
# ---------------------------------------------------------------------------

def test_quadrature_rejects_high_dim():
    model = make_bayes_regression(simulate_bayes_dataset(0))
    with pytest.raises(ValueError):
        quadrature_log_marginal(model)


def test_quadrature_grid_checks_its_points_and_domain(sin_toy):
    with pytest.raises(ValueError, match="at least 2 points per axis"):
        quadrature_grid(sin_toy, GridSpec(points=1))
    with pytest.raises(ValueError, match=r"^quadrature interval \[1, 1\] is too narrow or not "
                                         "finite for 20001 points"):
        quadrature_grid(dataclasses.replace(sin_toy, quadrature_domain=((1.0, 1.0),)))


def test_quadrature_grid_weights_integrate_constants(sin_toy):
    pts, logw = quadrature_grid(sin_toy, GridSpec(points=101))
    lo, hi = sin_toy.quadrature_domain[0]
    assert np.exp(logw).sum() == pytest.approx(hi - lo, rel=1e-12)


@pytest.mark.parametrize("build", ALL_LOW_DIM)
def test_quadrature_grid_is_column_major(build):
    # one contiguous column per coordinate, the points of a column_stack of the mesh
    model = build()
    pts, _ = quadrature_grid(model)
    points = models.DEFAULT_GRID_POINTS[model.latent_dim]
    axes = [np.linspace(lo, hi, points) for lo, hi in model.quadrature_domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    assert pts.flags.f_contiguous
    assert np.ascontiguousarray(pts).tobytes() == np.column_stack(
        [m.ravel() for m in mesh]).tobytes()


@pytest.mark.parametrize("build", ALL_LOW_DIM)
def test_grid_log_densities_do_not_depend_on_the_layout(build):
    model = build()
    f, base = map(np.concatenate, zip(*models._grid_tiles(model, None, None)))
    pts, logw = quadrature_grid(model)
    c_pts = np.ascontiguousarray(pts)
    l0, l1 = model.log_proposal(c_pts), model.log_target(c_pts)
    assert f.tobytes() == (l1 - l0).tobytes()
    assert base.tobytes() == (l0 + logw).tobytes()


@pytest.mark.parametrize("alpha", [1.0])
@pytest.mark.parametrize("name", ["ring", "sin_toy"])
def test_quadrature_rvi_matches_one_log_sum_exp_over_the_grid(request, name, alpha):
    # log p(x), the Renyi sum at alpha = 1 reduced tile by tile, against the
    # tests' quadrature_rvi: one log-sum-exp over the whole grid
    model = request.getfixturevalue(name)
    assert quadrature_log_marginal(model) == pytest.approx(
        quadrature_rvi(model, alpha), rel=1e-13, abs=0)


@pytest.mark.parametrize("build", ALL_LOW_DIM)
def test_log_marginal_is_the_renyi_sum_at_alpha_one(build):
    # one grid sum serves both: the oracle's log p beside its curves
    model = build()
    log_p = quadrature_log_marginal(model)
    assert quadrature_oracle(model, [0.5], [0.0, 1.0])[0] == log_p


def test_quadrature_oracles_stream_the_grid_in_tiles(ring):
    # traced peak within 6 grid-length float arrays: the grid's points and
    # cell weights (three), and the tiles of model evaluation and reduction
    betas = np.linspace(0.0, 1.0, 21)
    limit = 6 * quadrature_grid(ring)[1].nbytes
    for call in (lambda: quadrature_local_evidence_curve(ring, 0.5, betas),
                 lambda: quadrature_local_evidence_curve(ring, 0.0, betas),
                 lambda: quadrature_oracle(ring, [0.0, 0.5, 1.0], betas)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit


def test_thermodynamic_identity_one_dim_builtins():
    # area under the exact local-evidence curve equals the log marginal
    betas = np.linspace(0.0, 1.0, 201)
    for build in (lambda: make_scaled_factor(2.0),
                  lambda: make_conjugate_gaussian(1.0, 0.0),
                  lambda: make_sin_toy()):
        model = build()
        log_p = quadrature_log_marginal(model)
        for alpha in (0.0, 0.2, 0.5, 0.8, 1.0):
            curve = quadrature_local_evidence_curve(model, alpha, betas)
            assert abs(np.trapezoid(curve, betas) - log_p) < 1e-3


def test_beta_endpoint_identities(sin_toy):
    # E(0, 0) is the ELBO integral of q * f; E(0, 1) the posterior expectation
    pts, logw = quadrature_grid(sin_toy)
    l0 = sin_toy.log_proposal(pts)
    l1 = sin_toy.log_target(pts)
    f = l1 - l0
    q = np.exp(l0 + logw)
    q /= q.sum()
    post = np.exp(l1 + logw)
    post /= post.sum()
    assert quadrature_local_evidence(sin_toy, 0.0, 0.0) == pytest.approx(q @ f, abs=1e-10)
    assert quadrature_local_evidence(sin_toy, 0.0, 1.0) == pytest.approx(post @ f, abs=1e-10)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_make_model_registry():
    model = make_model("scaled_factor", {"scale": 2.0})
    assert model.model_id == "scaled_factor"
    with pytest.raises(ValueError):
        make_model("not_a_model", {})
    with pytest.raises(ValueError):
        make_model("sin_toy", {"bogus": 1})


def test_make_model_bayes_regression_from_seed():
    model = make_model("bayes_regression", {"seed": 1})
    assert model.latent_dim == 3


# model id -> (model params, names, values, quadrature domain); the
# names are the `hvi train` CSV header.  Bayes-regression means and domain are
# the seed-0 OLS fit, recorded as exact 17-digit literals.
PINNED_DEFAULTS = {
    "scaled_factor": ({"scale": 2.0}, ("log_scale",), [math.log(2.0)], ((-8.0, 8.0),)),
    "conjugate_gaussian": (
        {"sigma": 0.7, "x_obs": 1.3}, ("q_mean", "q_log_std"),
        [1.3 / (1.0 + 0.7**2), 0.5 * math.log(0.7**2 / (1.0 + 0.7**2))],
        ((1.3 / (1.0 + 0.7**2) - 8.0 * 0.7 / math.sqrt(1.0 + 0.7**2),
          1.3 / (1.0 + 0.7**2) + 8.0 * 0.7 / math.sqrt(1.0 + 0.7**2)),)),
    "sin_toy": ({}, ("q_mean", "q_log_std"), [0.0, math.log(1.5)], ((-12.0, 12.0),)),
    "ring": ({}, ("q_mean_1", "q_mean_2", "q_log_std_1", "q_log_std_2"),
             [0.0, 0.0, math.log(math.sqrt(0.5)), math.log(math.sqrt(0.5))],
             ((-4.0, 4.0), (-4.0, 4.0))),
    "bayes_regression": (
        {"seed": 0},
        ("q_mean_alpha", "q_mean_beta", "q_mean_log_sigma",
         "q_log_std_alpha", "q_log_std_beta", "q_log_std_log_sigma"),
        [25.993092075955776, 0.47413785776332484, 1.1468253915089248,
         math.log(3.0), math.log(0.05), math.log(0.3)],
        ((1.9930920759557722, 49.99309207595578), (0.07413785776332477, 0.874137857763325),
         (-1.253174608491075, 3.546825391508925))),
}


@pytest.mark.parametrize("model_id", models.MODEL_IDS)
def test_builtin_default_parameters_are_pinned(model_id):
    params, names, values, domain = PINNED_DEFAULTS[model_id]
    model = make_model(model_id, params)
    assert model.default_params.names == names
    assert model.default_params.values.tolist() == values
    assert model.quadrature_domain == domain
