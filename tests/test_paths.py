import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from scipy.special import logsumexp

from hvi import models, paths
from hvi.cli import main
from hvi.diagnostics import curve_profile
from hvi.estimators import bound_report, draw_batch, local_evidence_curve
from hvi.paths import (
    GEOMETRIC_ALPHA_CUTOFF,
    PathCurve,
    PathSpec,
    path_gradient_coeffs,
    path_weights,
)
from oracles import quadrature_curve_slope, quadrature_local_evidence
from path_forms import (
    integrand,
    log_density,
    path_integrand_parts,
    reference_integrand_parts,
    reference_log_density,
)

finite_logs = st.floats(-60.0, 5.0)
betas_mid = st.floats(0.01, 0.99)


# ---------------------------------------------------------------------------
# PathSpec
# ---------------------------------------------------------------------------

def test_constructor_rejects_a_parameter_its_kind_does_not_take():
    with pytest.raises(ValueError, match="takes no alpha"):
        PathSpec("wasserstein", alpha=0.5)
    assert PathSpec("holder", alpha=0.5, delta=0.0) == PathSpec("holder", alpha=0.5)


@pytest.mark.parametrize("kind, name, value", [("holder", "alpha", math.nan),
                                               ("holder", "alpha", -math.inf),
                                               ("perturbed", "delta", math.inf)])
def test_constructor_rejects_a_non_finite_parameter(kind, name, value):
    with pytest.raises(ValueError, match="path parameters must be finite"):
        PathSpec(kind, **{name: value})


def test_perturbed_guard_warns():
    with pytest.warns(UserWarning):
        PathSpec("perturbed", delta=0.5)


def test_perturbed_guard_warning_names_the_callers_line(tmp_path):
    # at stacklevel 2 it named the dataclass-generated __init__, "<string>"; at a
    # fixed 3, bound_report and the CLI's path cast named lines in hvi
    batch = draw_batch(models.make_sin_toy(), 10, 1)
    config = tmp_path / "curve.json"
    config.write_text(json.dumps({"model": "sin_toy", "seed": 1, "sample_size": 10,
                                  "path": {"kind": "perturbed", "delta": 1.0}}))
    curve = ["curve", "--config", str(config), "--out", str(tmp_path / "curve.csv")]
    for construct in (lambda: PathSpec("perturbed", delta=1.0),
                      lambda: bound_report(batch, ["perturbed_hbo[1]"]),
                      lambda: main(curve)):
        with pytest.warns(UserWarning, match="perturbed path") as record:
            construct()
        assert [warning.filename for warning in record] == [__file__] * len(record)


@pytest.mark.parametrize("curve", [
    lambda: models.quadrature_local_evidence_curve(models.make_sin_toy(), 0.5, []),
    lambda: local_evidence_curve(draw_batch(models.make_sin_toy(), 10, 1),
                                 PathSpec("geometric"), []),
    lambda: curve_profile(models.make_sin_toy(), PathSpec("geometric"), [], 10, 2, 1),
], ids=["quadrature", "samples", "replicates"])
def test_an_empty_beta_list_is_a_named_error(curve):
    # it failed in PathCurve.add with a ZeroDivisionError, and on samples with
    # numpy's "need at least one array to concatenate"
    with pytest.raises(ValueError, match="betas must list at least one temperature"):
        curve()


def test_tiny_alpha_routes_to_geometric():
    spec = PathSpec("holder", alpha=GEOMETRIC_ALPHA_CUTOFF / 10)
    assert spec.branch() == ("geometric", 0.0)
    assert PathSpec("holder", alpha=0.0).branch() == ("geometric", 0.0)
    assert PathSpec("wasserstein").branch() == ("holder", 1.0)


# ---------------------------------------------------------------------------
# Endpoint and closed-form identities
# ---------------------------------------------------------------------------

@given(finite_logs, finite_logs)
def test_every_spec_hits_the_endpoints(l0, l1):
    for spec in (PathSpec("geometric"), PathSpec("holder", alpha=0.7),
                 PathSpec("holder", alpha=-0.5), PathSpec("wasserstein"),
                 PathSpec("perturbed", delta=0.05)):
        assert log_density(spec, l0, l1, 0.0) == pytest.approx(l0, abs=1e-12)
        assert log_density(spec, l0, l1, 1.0) == pytest.approx(l1, abs=1e-12)


def test_wasserstein_is_arithmetic_mean():
    # densities 2 and 4 average to 3
    got = log_density(PathSpec("holder", alpha=1.0), math.log(2.0), math.log(4.0), 0.5)
    assert got == pytest.approx(math.log(3.0), abs=1e-12)


def test_holder_one_equals_wasserstein_everywhere():
    rng = np.random.default_rng(0)
    l0, l1 = rng.normal(-3, 2, 50), rng.normal(-4, 3, 50)
    for beta in (0.0, 0.2, 0.5, 0.9, 1.0):
        a = log_density(PathSpec("holder", alpha=1.0), l0, l1, beta)
        b = log_density(PathSpec("wasserstein"), l0, l1, beta)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_holder_matches_direct_power_mean(sin_toy):
    # direct evaluation is safe at moderate densities; log-domain must agree
    beta, alpha = 0.4, 0.5
    (l0,), (l1,) = _endpoints(sin_toy, 0.3)
    direct = (beta * math.exp(l1) ** alpha + (1 - beta) * math.exp(l0) ** alpha) ** (1 / alpha)
    got = log_density(PathSpec("holder", alpha=alpha), l0, l1, beta)
    assert got == pytest.approx(math.log(direct), abs=1e-12)


@given(finite_logs, finite_logs, betas_mid, st.sampled_from([-1.5, -0.5, 0.4, 0.8, 1.0, 1.5]))
def test_power_mean_between_endpoints(l0, l1, beta, alpha):
    u = log_density(PathSpec("holder", alpha=alpha), l0, l1, beta)
    assert min(l0, l1) - 1e-9 <= u <= max(l0, l1) + 1e-9


@given(finite_logs, finite_logs, betas_mid, st.sampled_from([-1.5, -0.5, 0.4, 1.0, 1.5]))
def test_integrand_matches_its_definition(l0, l1, beta, alpha):
    # the stable form equals (1/a)(e^(a L1) - e^(a L0)) / e^(a U)
    u = log_density(PathSpec("holder", alpha=alpha), l0, l1, beta)
    direct = (math.exp(alpha * (l1 - u)) - math.exp(alpha * (l0 - u))) / alpha
    got = float(integrand(PathSpec("holder", alpha=alpha), l0, l1, beta))
    assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)


def _endpoints(model, z):
    """(L0, L1) of a one-dimensional model at the latent values z."""
    points = np.reshape(z, (-1, 1))
    return model.log_proposal(points), model.log_target(points)


def test_geometric_integrand_is_constant_for_scaled_factor(scaled_two):
    l0, l1 = _endpoints(scaled_two, np.linspace(-3, 3, 9))
    np.testing.assert_allclose(
        integrand(PathSpec("geometric"), l0, l1, 0.3), math.log(2), atol=1e-12)


def test_wasserstein_integrand_closed_form_at_zero(scaled_two):
    l0, l1 = _endpoints(scaled_two, np.linspace(-2, 2, 7))
    got = integrand(PathSpec("holder", alpha=1.0), l0, l1, 0.0)
    np.testing.assert_allclose(got, 1.0, atol=1e-12)  # c - 1 pointwise


def test_perturbed_zero_collapses_to_geometric(sin_toy):
    l0, l1 = _endpoints(sin_toy, np.linspace(-4, 4, 11))
    for beta in (0.0, 0.4, 1.0):
        np.testing.assert_array_equal(
            integrand(PathSpec("perturbed", delta=0.0), l0, l1, beta),
            integrand(PathSpec("geometric"), l0, l1, beta))


def test_beta_out_of_range_rejected(sin_toy):
    (l0,), (l1,) = _endpoints(sin_toy, 0.0)
    for beta in (-0.1, 1.1):
        with pytest.raises(ValueError):
            log_density(PathSpec("geometric"), l0, l1, beta)
        with pytest.raises(ValueError):
            integrand(PathSpec("holder", alpha=0.5), l0, l1, beta)
        with pytest.raises(ValueError):
            next(path_weights(PathSpec("holder", alpha=0.5), [0.5, beta], [l1 - l0]))


def test_integrand_parts_consistent_with_dense_values():
    rng = np.random.default_rng(1)
    l0, l1 = rng.normal(-2, 1, 40), rng.normal(-3, 2, 40)
    for spec in (PathSpec("geometric"), PathSpec("holder", alpha=0.6),
                 PathSpec("perturbed", delta=0.02)):
        block = next(path_weights(spec, [0.3], l1 - l0))
        sign, log_abs = path_integrand_parts(spec, block, l1 - l0)
        np.testing.assert_allclose(block.w * sign * np.exp(log_abs), block.wg, rtol=1e-12)


# ---------------------------------------------------------------------------
# The blockwise kernel against the pointwise reference, one beta at a time
# ---------------------------------------------------------------------------

def _closed_form_coeffs(spec, f, beta):
    """(dh/df, dg/df) of h = log pi_beta - L0 and the integrand g, written out per kind."""
    if spec.kind == "geometric":
        return np.full_like(f, beta), np.ones_like(f)
    if spec.kind == "perturbed":
        return (beta * (1.0 + spec.delta * (1.0 - beta) * f),
                1.0 + spec.delta * (1.0 - 2.0 * beta) * f)
    alpha = 1.0 if spec.kind == "wasserstein" else spec.alpha
    e = np.exp(alpha * f)
    mix = beta * e + (1.0 - beta)  # grouped: at beta = 1 it must be exactly e
    return beta * e / mix, e / mix**2


@pytest.mark.parametrize("spec", [PathSpec("geometric"), PathSpec("holder", alpha=0.6),
                                  PathSpec("holder", alpha=-0.5), PathSpec("wasserstein"),
                                  PathSpec("perturbed", delta=0.05)])
def test_kernel_matches_pointwise_reference(sin_toy, spec, monkeypatch):
    rng = np.random.default_rng(4)
    l0, l1 = _endpoints(sin_toy, rng.normal(0.0, 1.5, 300))
    base = rng.normal(0.0, 2.0, 300)
    betas = np.linspace(0.0, 1.0, 11)
    monkeypatch.setattr(paths, "BLOCK_ELEMENTS", 1000)
    blocks = list(path_weights(spec, betas, l1 - l0, base))
    assert [block.betas.size for block in blocks] == [3, 3, 3, 2]
    w, wg = (np.vstack(arrays) for arrays in zip(*[(b.w, b.wg) for b in blocks]))
    coeffs = [path_gradient_coeffs(spec, block, l1 - l0) for block in blocks]
    dh_df = np.vstack([np.broadcast_to(c, block.w.shape) for (c, _), block in zip(coeffs, blocks)])
    w_dg_df = np.vstack([wd for _, wd in coeffs])
    for k, beta in enumerate(betas):
        log_w = reference_log_density(spec, l0, l1, beta) - l0 + base
        log_w -= logsumexp(log_w)
        sign, log_abs = reference_integrand_parts(spec, l0, l1, beta)
        np.testing.assert_allclose(w[k], np.exp(log_w), rtol=1e-11, atol=0)
        np.testing.assert_allclose(wg[k], sign * np.exp(log_w + log_abs), rtol=1e-11, atol=0)
        dh, dg = _closed_form_coeffs(spec, l1 - l0, beta)
        np.testing.assert_allclose(dh_df[k], dh, rtol=1e-11, atol=1e-300)
        np.testing.assert_allclose(w_dg_df[k], np.exp(log_w) * dg, rtol=1e-11, atol=1e-300)


# ---------------------------------------------------------------------------
# The power-mean kernel against a long-double reference
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_FLOAT_MAX = np.finfo(float).max
# unit steps through +-2000, 0 among them, and +-1e-10
_LD_LOG_RATIOS = np.concatenate([np.linspace(-2000.0, 2000.0, 4001), [1e-10, -1e-10]])
_LD_BETAS = np.array([0.0, 1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0])


def _long_double_reference(alpha, f, beta):
    """alpha h, max(alpha f, 0), w, w g, dh/df and w dg/df in np.longdouble."""
    ld = np.longdouble
    a, b = ld(alpha), ld(beta)
    s = a * f.astype(ld)
    m = np.maximum(s, ld(0))
    d = (1 - b) * np.exp(-m) + b * np.exp(s - m)
    a_h = m + np.log(d)
    log_w = a_h / a
    log_w -= np.max(log_w)
    log_w -= np.log(np.sum(np.exp(log_w)))
    w = np.exp(log_w)
    g = np.sign(f) * -np.expm1(-np.abs(s)) / (abs(a) * d)
    return a_h, m, w, w * g, b * np.exp(s - a_h), w * np.exp(s - 2 * a_h)


def _kernel_rows(alpha, f):
    """Per beta of _LD_BETAS: (h, w, wg, dh/df, w dg/df) from path_weights."""
    spec = PathSpec("holder", alpha=alpha)
    for block in path_weights(spec, _LD_BETAS, f):
        dh_df, w_dg_df = path_gradient_coeffs(spec, block, f)
        dh_df = np.broadcast_to(dh_df, block.w.shape)
        yield from zip(block.h, block.w, block.wg, dh_df, w_dg_df)


def _relative_error(got, ref):
    """Largest relative error of ``got`` where 1e-280 < |ref| <= the largest float."""
    ok = (np.abs(ref) > 1e-280) & (np.abs(ref) <= _FLOAT_MAX)
    return float(np.max(np.abs(got[ok] - ref[ok]) / np.abs(ref[ok]), initial=0.0))


def _check_out_of_range(got, ref):
    """No NaN; inf of the right sign beyond the float range; within 1e-292 at or below 1e-280."""
    assert not np.any(np.isnan(got))
    big, tiny = np.abs(ref) > _FLOAT_MAX, np.abs(ref) <= 1e-280
    assert np.all(got[big] == np.sign(ref[big]) * np.inf)
    assert np.all(np.abs(got[tiny] - ref[tiny]) <= 1e-292)


# 2e-4 takes the near-geometric form (every |alpha f| <= log 2), the others the far one
@pytest.mark.parametrize("alpha", [-0.5, 2e-4, 0.05, 0.5, 1.5])
def test_holder_kernel_matches_long_double_reference(alpha):
    f = _LD_LOG_RATIOS
    with np.errstate(over="ignore"):
        rows = list(_kernel_rows(alpha, f))
    for beta, (h, *outputs) in zip(_LD_BETAS, rows):
        a_h, m, *refs = _long_double_reference(alpha, f, beta)
        for got, ref in zip(outputs, refs):
            _check_out_of_range(got, ref)
            assert _relative_error(got, ref) <= 1e-12, beta
        # absolute in alpha h, which reaches every output through exp(+-alpha h)
        # or h + base.  |alpha h - m| = |log d| covers rounding alpha f itself:
        # where beta e^(alpha f) ~ 1 at beta = 1e-300 that alone moves alpha h
        # by up to 128 eps at |alpha f| ~ 690, in the pointwise forms as well
        bound = 4 * _EPS * (np.maximum(1, np.abs(a_h)) + np.abs(a_h - m))
        assert np.all(np.abs(alpha * h.astype(np.longdouble) - a_h) <= bound), beta


def test_holder_kernel_near_the_geometric_cutoff_is_no_less_accurate():
    # both forms lose accuracy as 1/alpha here; the kernel's largest weight
    # error must not exceed that of the pointwise logaddexp forms
    alpha, f = 2e-6, _LD_LOG_RATIOS
    spec = PathSpec("holder", alpha=alpha)
    kernel = pointwise = 0.0
    for beta, (_, w, wg, _, _) in zip(_LD_BETAS, _kernel_rows(alpha, f)):
        _, _, ref_w, ref_wg, _, _ = _long_double_reference(alpha, f, beta)
        assert not (np.any(np.isnan(w)) or np.any(np.isnan(wg)))
        log_w = reference_log_density(spec, 0.0, f, beta)
        log_w -= logsumexp(log_w)
        sign, log_abs = reference_integrand_parts(spec, 0.0, f, beta)
        kernel = max(kernel, _relative_error(w, ref_w), _relative_error(wg, ref_wg))
        pointwise = max(pointwise, _relative_error(np.exp(log_w), ref_w),
                        _relative_error(sign * np.exp(log_w + log_abs), ref_wg))
    assert kernel <= pointwise


# ---------------------------------------------------------------------------
# Taylor-continuity at alpha -> 0 and the perturbed expansion
# ---------------------------------------------------------------------------

def test_limit_consistency_small_alpha(sin_toy):
    # The first-order deviation is alpha * f^2 * O(1), so the 5e-3 budget at
    # alpha = 1e-4 pins |f| <~ 10: test where the path densities put their
    # mass (posterior bands around sin z = 0), not in far proposal tails.
    z = np.concatenate([center + np.linspace(-0.35, 0.35, 30)
                        for center in (0.0, math.pi, -math.pi)])
    l0, l1 = _endpoints(sin_toy, z)
    for alpha in (1e-4, -1e-4):
        spec = PathSpec("holder", alpha=alpha)
        for beta in (0.1, 0.5, 0.9):
            du = log_density(spec, l0, l1, beta) - log_density(
                PathSpec("geometric"), l0, l1, beta)
            dg = integrand(spec, l0, l1, beta) - integrand(
                PathSpec("geometric"), l0, l1, beta)
            assert np.max(np.abs(du)) < 5e-3
            assert np.max(np.abs(dg)) < 5e-3


def _max_errors(sin_toy, delta):
    rng = np.random.default_rng(0)
    l0, l1 = _endpoints(sin_toy, rng.uniform(-6, 6, 400))
    worst_u = worst_g = 0.0
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        exact = PathSpec("holder", alpha=delta)
        pert = PathSpec("perturbed", delta=delta)
        worst_u = max(worst_u, np.max(np.abs(
            log_density(exact, l0, l1, beta) - log_density(pert, l0, l1, beta))))
        worst_g = max(worst_g, np.max(np.abs(
            integrand(exact, l0, l1, beta) - integrand(pert, l0, l1, beta))))
    return worst_u, worst_g


def test_perturbed_error_decays_quadratically(sin_toy):
    u_big, g_big = _max_errors(sin_toy, 1e-2)
    u_small, g_small = _max_errors(sin_toy, 1e-3)
    assert 80.0 < u_big / u_small < 120.0
    assert 80.0 < g_big / g_small < 120.0


# ---------------------------------------------------------------------------
# Monotonicity and the slope identity (quadrature level)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: models.make_scaled_factor(2.0),
    lambda: models.make_conjugate_gaussian(1.0, 0.0),
    lambda: models.make_sin_toy(),
    lambda: models.make_ring(),
])
def test_curve_monotonicity_directions(build):
    model = build()
    betas = np.linspace(0.0, 1.0, 21)
    for alpha in (0.0, -0.5):
        curve = models.quadrature_local_evidence_curve(model, alpha, betas)
        assert np.min(np.diff(curve)) > -1e-9
    for alpha in (1.0, 1.5):
        curve = models.quadrature_local_evidence_curve(model, alpha, betas)
        assert np.max(np.diff(curve)) < 1e-9


def test_slope_identity_matches_finite_differences(sin_toy):
    # d/dbeta E = -E[g]^2 + (1 - alpha) E[g^2] under the path density
    step = 1e-4
    for alpha in (0.0, 0.3, 1.0):
        for beta in (0.25, 0.5, 0.75):
            fd = (quadrature_local_evidence(sin_toy, alpha, beta + step)
                  - quadrature_local_evidence(sin_toy, alpha, beta - step)) / (2 * step)
            analytic = quadrature_curve_slope(sin_toy, alpha, beta)
            assert fd == pytest.approx(analytic, rel=1e-3)


def test_slope_at_alpha_one_is_minus_the_squared_evidence(ring):
    # (1 - alpha) E[g^2] is 0 at alpha = 1, where E[g^2] overflows on the ring's
    # grid; forming it gave 0 * inf = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = quadrature_curve_slope(ring, 1.0, 1.0)
    evidence = quadrature_local_evidence(ring, 1.0, 1.0)
    assert slope == -evidence * evidence
    assert slope == pytest.approx(-0.44256, rel=1e-4)


def test_slope_beyond_the_float_range_is_a_signed_infinity(ring):
    # on the ring at alpha = -0.5, beta = 0, E = -1.3e214: -E^2 and
    # (1 - alpha) E[g^2] both overflow, and their sum read nan; for alpha < 0
    # the slope is at least -alpha E^2 > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quadrature_curve_slope(ring, -0.5, 0.0) == math.inf


# ---------------------------------------------------------------------------
# Gradient coefficients: convexity and geometric limits
# ---------------------------------------------------------------------------

def _coeffs(spec, l0, l1, beta):
    """(dh/df, w * dg/df) of the kernel at one point, whose weight w is 1."""
    f = np.array([l1 - l0])
    dh_df, w_dg_df = path_gradient_coeffs(spec, next(path_weights(spec, [beta], f)), f)
    return np.broadcast_to(dh_df, (1, 1)).item(), w_dg_df.item()


@given(finite_logs, finite_logs, betas_mid)
def test_holder_density_coeffs_are_convex_weights(l0, l1, beta):
    # grad log pi_beta = (1 - dh/df) grad L0 + dh/df grad L1, a convex combination
    dh_df, _ = _coeffs(PathSpec("holder", alpha=0.6), l0, l1, beta)
    assert 0.0 <= dh_df <= 1.0


def test_geometric_coeffs():
    dh_df, w_dg_df = _coeffs(PathSpec("geometric"), -1.0, -2.0, 0.3)
    assert (dh_df, w_dg_df) == (0.3, 1.0)


# ---------------------------------------------------------------------------
# Properties of the kernel over arbitrary batches
# ---------------------------------------------------------------------------

# Temperatures at and next to the endpoints, where the kernel takes its edge forms.
EDGE_BETAS = [0.0, 1e-300, 0.3, 1.0 - 1e-12, 1.0]
log_ratios = st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=12).map(np.array)


def _kernel_curve(spec, betas, f, base=0.0):
    """Per-beta (local evidence, sum of |w g|, ESS) from path_weights over f."""
    blocks = list(path_weights(spec, betas, f, base))
    wg = np.concatenate([block.wg for block in blocks])
    w = np.concatenate([block.w for block in blocks])
    return wg.sum(axis=1), np.abs(wg).sum(axis=1), 1.0 / (f.size * np.sum(w * w, axis=1))


def _holder_spec(form, scale, f):
    """holder(alpha) whose batch takes the near (every |alpha f| <= log 2) or far form.

    |alpha| <= 1, so every w g stays below e^700 / 0.05 and is representable.
    """
    top = np.abs(f).max()
    if form == "near":
        alpha = scale * math.log(2.0) / max(top, 1.0)
        # the quotient can round up so that |alpha f| exceeds log 2 by an ulp
        while np.abs(alpha * f).max() > math.log(2.0):
            alpha = float(np.nextafter(alpha, 0.0))
    else:
        assume(top >= 1.5 * math.log(2.0))
        alpha = math.copysign(max(abs(scale), 1.5 * math.log(2.0) / top), scale)
    assert (np.abs(alpha * f).max() <= math.log(2.0)) == (form == "near")
    return PathSpec("holder", alpha=alpha)


def test_near_form_specs_take_the_near_form():
    # scale * log 2 / top overshoots log 2 by one ulp of |alpha top| for
    # about 3% of tops at scale = +-1
    for top in np.random.default_rng(3).uniform(1.0, 1000.0, 500):
        for scale in (1.0, -1.0):
            f = np.array([-top, 0.5 * top])
            spec = _holder_spec("near", scale, f)
            assert len(paths._holder_terms(spec.alpha, f)) == 2


_specs = st.one_of(
    st.just(PathSpec("geometric")),
    st.floats(-0.2, 0.2).map(lambda delta: PathSpec("perturbed", delta=delta)),
    st.tuples(st.sampled_from(["near", "far"]),
              st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)),
)


def _resolve_spec(spec, f):
    return spec if isinstance(spec, PathSpec) else _holder_spec(*spec, f)


@given(log_ratios, st.floats(-700.0, 700.0), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_shifting_f_shifts_the_geometric_curve(f, shift, extra):
    betas = EDGE_BETAS + extra
    base, _, _ = _kernel_curve(PathSpec("geometric"), betas, f)
    shifted, _, _ = _kernel_curve(PathSpec("geometric"), betas, f + shift)
    # each log weight beta (f + c) is rounded once more than beta f
    scale = np.abs(f).max() + abs(shift)
    np.testing.assert_allclose(shifted, base + shift, rtol=0.0, atol=1e-12 * scale)


@given(log_ratios, _specs, st.randoms(use_true_random=False))
def test_permuting_the_samples_changes_nothing(f, spec, rng):
    spec = _resolve_spec(spec, f)
    order = list(range(f.size))
    rng.shuffle(order)
    values, magnitude, ess = _kernel_curve(spec, EDGE_BETAS, f)
    permuted, _, ess_permuted = _kernel_curve(spec, EDGE_BETAS, f[order])
    np.testing.assert_array_less(np.abs(permuted - values), 1e-12 * magnitude + 1e-300)
    np.testing.assert_allclose(ess_permuted, ess, rtol=1e-12)


@given(log_ratios, _specs)
def test_ess_stays_between_one_sample_and_all(f, spec):
    _, _, ess = _kernel_curve(_resolve_spec(spec, f), EDGE_BETAS, f)
    assert np.all(ess >= (1.0 - 1e-12) / f.size) and np.all(ess <= 1.0 + 1e-12)


@given(log_ratios, _specs)
def test_no_nan_for_log_ratios_up_to_700(f, spec):
    spec = _resolve_spec(spec, f)
    for block in path_weights(spec, EDGE_BETAS, f):
        for name, array in block._asdict().items():
            assert not np.any(np.isnan(array)), (spec, name)
        assert np.all(np.isfinite(block.w)) and np.all(np.isfinite(block.wg))


# ---------------------------------------------------------------------------
# The values-only reduction over tiles of points
# ---------------------------------------------------------------------------

def _tiled_curve(spec, betas, tiles, bases=None):
    curve = PathCurve(spec, betas)
    for k, tile in enumerate(tiles):
        curve.add(tile, 0.0 if bases is None else bases[k])
    return curve.values()


@given(log_ratios, _specs, st.lists(st.integers(1, 11), max_size=4),
       st.lists(st.floats(0.0, 1.0), max_size=4))
def test_any_split_into_tiles_gives_the_one_block_curve(f, spec, cuts, extra):
    spec, betas = _resolve_spec(spec, f), EDGE_BETAS + extra
    values, magnitude, _ = _kernel_curve(spec, betas, f)
    got = _tiled_curve(spec, betas, np.split(f, sorted({c for c in cuts if c < f.size})))
    np.testing.assert_array_less(np.abs(got - values), 1e-12 * magnitude + 1e-300)


@given(log_ratios, st.sampled_from([-1.0, 1.0]), st.floats(150.0, 700.0),
       st.floats(1.0, 3.0, exclude_min=True) | st.floats(1e-3, 0.05) | st.floats(-3.0, -1e-3),
       st.lists(st.integers(1, 12), max_size=4), st.data())
def test_far_form_tiles_with_any_base_give_the_one_block_curve(f, sign, far, alpha, cuts,
                                                               data):
    # the far point, |alpha f| >= 0.7, puts every tile holding it on the far
    # form; 1e-30 and 1e-300 take PathCurve's shared top or a top per row,
    # depending on alpha, and near |alpha| = 1e-3 every interior beta takes a
    # top per row.  Every |alpha f| <= 700, so every w g is representable.
    f = np.append(f, sign * max(far, 0.7 / abs(alpha))) / max(abs(alpha), 1.0)
    assert np.abs(alpha * f).max() > math.log(2.0)
    base = np.array(data.draw(st.lists(st.floats(-50.0, 50.0) | st.just(-np.inf),
                                       min_size=f.size, max_size=f.size)))
    assume(np.isfinite(base).any())
    spec, betas = PathSpec("holder", alpha=alpha), EDGE_BETAS + [1e-30, 1e-300]
    values, magnitude, _ = _kernel_curve(spec, betas, f, base)
    bounds = sorted({c for c in cuts if c < f.size})
    got = _tiled_curve(spec, betas, np.split(f, bounds), np.split(base, bounds))
    np.testing.assert_array_less(np.abs(got - values), 1e-12 * magnitude + 1e-300)


@pytest.mark.parametrize("alpha", [1.0, -0.5])
def test_far_tiles_whose_tops_differ_beyond_the_float_range(alpha):
    # the ring's grid, split into the points near the ring and those far off:
    # at beta = 1 the two tiles' tops differ by more than 709, and at alpha = 1
    # the far tile's integrand exceeds e^770 where its weights underflow
    ring = models.make_ring()
    f, base = map(np.concatenate, zip(*models._grid_tiles(ring, models.GridSpec(101), None)))
    far = f + base < -800.0
    assert (f + base)[~far].max() - (f + base)[far].max() > 709.0
    spec = PathSpec("holder", alpha=alpha)
    values, magnitude, _ = _kernel_curve(spec, EDGE_BETAS, f, base)
    tiles = [(f[~far], base[~far]), (f[far], base[far])]
    for order in (tiles, tiles[::-1]):
        got = _tiled_curve(spec, EDGE_BETAS, *zip(*order))
        np.testing.assert_array_less(np.abs(got - values), 1e-12 * magnitude)


@pytest.mark.parametrize("alpha", [0.4, -0.4])
def test_tiles_may_take_different_holder_forms(alpha):
    # every |alpha f| <= log 2 in the first tile (near form), not in the second (far form)
    rng = np.random.default_rng(7)
    near, far = rng.uniform(-1.5, 1.5, 40), rng.uniform(-600.0, 600.0, 40)
    assert len(paths._holder_terms(alpha, near)) == 2 and len(paths._holder_terms(alpha, far)) == 4
    spec, f = PathSpec("holder", alpha=alpha), np.concatenate([near, far])
    base = rng.normal(0.0, 3.0, f.size)
    blocks = list(path_weights(spec, EDGE_BETAS, f, base))
    wg = np.concatenate([block.wg for block in blocks])
    got = _tiled_curve(spec, EDGE_BETAS, [near, far], [base[:40], base[40:]])
    np.testing.assert_array_less(np.abs(got - wg.sum(axis=1)),
                                 1e-12 * np.abs(wg).sum(axis=1) + 1e-300)


@pytest.mark.parametrize("spec", [PathSpec("holder", alpha=0.5), PathSpec("geometric"),
                                  PathSpec("perturbed", delta=0.05)], ids=lambda spec: spec.kind)
def test_more_betas_than_a_tile_holds(spec):
    # past _TILE_ELEMENTS betas a tile is one point wide and takes every beta at once
    betas = np.linspace(0.0, 1.0, paths._TILE_ELEMENTS + 5)
    f = np.random.default_rng(11).uniform(-50.0, 50.0, 6)
    values, magnitude, _ = _kernel_curve(spec, betas, f)
    got = _tiled_curve(spec, betas, np.split(f, 2))
    np.testing.assert_array_less(np.abs(got - values), 1e-12 * magnitude + 1e-300)


def test_path_curve_with_every_weight_vanished_raises():
    spec = PathSpec("holder", alpha=0.5)
    curve = PathCurve(spec, EDGE_BETAS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a tile whose log weights all read -inf adds nothing, and no nan
        curve.add(np.array([1.0, -900.0]), np.full(2, -np.inf))
        with pytest.raises(ValueError, match="vanished"):
            curve.values()
        with pytest.raises(ValueError, match="vanished"):
            PathCurve(spec, EDGE_BETAS).add(np.array([1.0]), -np.inf).values()
        curve.add(np.array([0.5, -3.0]))
        np.testing.assert_array_equal(
            curve.values(), PathCurve(spec, EDGE_BETAS).add(np.array([0.5, -3.0])).values())


_VANISHED = "^all importance weights vanished; cannot self-normalize$"


@pytest.mark.parametrize("reduce", [
    lambda spec, f, base: next(paths.path_weights(spec, EDGE_BETAS, f, base)),
    lambda spec, f, base: PathCurve(spec, EDGE_BETAS).add(f, base).values(),
], ids=["path_weights", "PathCurve"])
@pytest.mark.parametrize("spec", [PathSpec("geometric"), PathSpec("holder", alpha=0.5),
                                  PathSpec("holder", alpha=-3.0),
                                  PathSpec("perturbed", delta=0.05)],
                         ids=lambda spec: f"{spec.kind}{spec.alpha or spec.delta or ''}")
def test_every_reduction_rejects_weights_that_all_vanished(reduce, spec):
    # every point's base log weight reads -inf: nothing is left to normalize by
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=_VANISHED):
            reduce(spec, np.array([1.0, -900.0, 3.0]), np.full(3, -np.inf))

