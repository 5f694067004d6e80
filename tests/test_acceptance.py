"""Acceptance criteria, one test per criterion.

Each test exercises its criterion at the stated tolerance, asserts the stated
runtime budget, and prints one pass line (run with ``pytest -s`` to see them
live).  Closed forms and dense-quadrature oracles provide every expected
value; nothing here trusts the code path it checks.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import spearmanr

from hvi import models
from hvi.cli import main as cli_main
from hvi.diagnostics import MmdReference, curve_profile, approx_error, mcmc_reference, mmd
from hvi.estimators import (
    IntegrationRule,
    PartitionSchedule,
    bound_report,
    _path_form,
    draw_batch,
    local_evidence_curve,
)
from hvi.gradients import BoundObjective, train
from hvi.paths import PathSpec
from hvi.tuning import tune_alpha_grid
from hvi.util import derive_seeds
from oracles import (
    finite_difference_grad,
    path_step,
    quadrature_curve_slope,
    quadrature_local_evidence,
    quadrature_rvi,
)
from path_forms import integrand, log_density


def _pass(criterion: int, started: float, budget: float, detail: str):
    elapsed = time.time() - started
    print(f"[PASS] criterion {criterion:2d}  ({elapsed:6.1f}s / {budget:.0f}s)  {detail}")
    assert elapsed < budget, f"criterion {criterion} exceeded its runtime budget"


def test_criterion_01_scaled_factor_exactness():
    started = time.time()
    for c in (0.5, 2.0, 10.0):
        model = models.make_scaled_factor(c)
        target = math.log(c)
        for size, seed in ((1, 0), (97, 3), (1024, 11)):
            batch = draw_batch(model, size, seed)
            report = bound_report(batch, ["elbo", "iw_elbo", "rvi[0.3]", "rvi[1.7]", "eubo",
                                          "wlbo", "wubo"])
            for bound_id in ("elbo", "iw_elbo", "rvi[0.3]", "rvi[1.7]", "eubo"):
                assert report[bound_id] == pytest.approx(target, abs=1e-12)
            for sched in (PartitionSchedule.uniform(3), PartitionSchedule.log(21)):
                for rule in IntegrationRule:
                    assert bound_report(batch, ["tvo"], tvo_schedule=sched, rule=rule)[
                        "tvo"] == pytest.approx(target, abs=1e-12)
            wlbo, wubo = report["wlbo"], report["wubo"]
            assert wlbo == pytest.approx(1.0 - 1.0 / c, abs=1e-12)
            assert wubo == pytest.approx(c - 1.0, abs=1e-12)
    _pass(1, started, 1.0, "elbo=iw=rvi=tvo=log c, wlbo=1-1/c, wubo=c-1 for c in {0.5,2,10}")


def test_criterion_02_holder_closed_form():
    started = time.time()
    c = 2.0
    model = models.make_scaled_factor(c)
    batch = draw_batch(model, 257, 5)
    worst = 0.0
    for alpha in (-0.5, 0.25, 0.5, 0.75, 1.0):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            expected = (c**alpha - 1.0) / (alpha * (beta * c**alpha + 1.0 - beta))
            got = local_evidence_curve(batch, PathSpec("holder", alpha=alpha), [beta]).values[0]
            worst = max(worst, abs(got - expected))
    assert worst < 1e-12
    for cc in (0.5, 2.0, 10.0):
        b = draw_batch(models.make_scaled_factor(cc), 64, 1)
        got = bound_report(b, ["hbo[1]"], hbo_schedule=PartitionSchedule.uniform(2000),
                           rule=IntegrationRule.TRAPEZOID)["hbo[1]"]
        assert abs(got - math.log(cc)) < 1e-4
    _pass(2, started, 5.0, f"5x5 closed-form grid max err {worst:.2e}; K=2000 trapezoid -> log c")


def test_criterion_03_thermodynamic_identity():
    started = time.time()
    betas = np.linspace(0.0, 1.0, 201)
    worst = {}
    for model, name in ((models.make_sin_toy(), "sin_toy"), (models.make_ring(), "ring")):
        log_p = models.quadrature_log_marginal(model)
        gaps = []
        for alpha in (0.0, 0.2, 0.5, 0.8, 1.0):
            curve = models.quadrature_local_evidence_curve(model, alpha, betas)
            gaps.append(abs(float(np.trapezoid(curve, betas)) - log_p))
        worst[name] = max(gaps)
        assert worst[name] < 1e-3
    _pass(3, started, 120.0,
          f"area-under-curve vs log p: sin {worst['sin_toy']:.1e}, ring {worst['ring']:.1e}")


def test_criterion_04_renyi_partial_integral():
    started = time.time()
    sin = models.make_sin_toy()
    worst = 0.0
    for alpha in (0.2, 0.5, 0.9):
        betas = np.linspace(0.0, alpha, 401)
        curve = models.quadrature_local_evidence_curve(sin, 0.0, betas)
        partial = float(simpson(curve, x=betas)) / alpha
        worst = max(worst, abs(partial - quadrature_rvi(sin, alpha)))
    assert worst < 1e-4
    _pass(4, started, 30.0, f"(1/a) int_0^a E dbeta vs renyi bound, max gap {worst:.1e}")


def test_criterion_05_monotonicity_and_slope_identity():
    started = time.time()
    betas = np.linspace(0.0, 1.0, 21)
    builders = (lambda: models.make_scaled_factor(2.0),
                lambda: models.make_conjugate_gaussian(1.0, 0.0),
                lambda: models.make_sin_toy(),
                lambda: models.make_ring())
    for build in builders:
        model = build()
        for alpha in (0.0, -0.5):
            curve = models.quadrature_local_evidence_curve(model, alpha, betas)
            assert np.min(np.diff(curve)) > -1e-9
        for alpha in (1.0, 1.5):
            curve = models.quadrature_local_evidence_curve(model, alpha, betas)
            assert np.max(np.diff(curve)) < 1e-9
    sin = models.make_sin_toy()
    step = 1e-4
    worst = 0.0
    for alpha in (0.0, 0.3, 1.0):
        for beta in (0.25, 0.5, 0.75):
            fd = (quadrature_local_evidence(sin, alpha, beta + step)
                  - quadrature_local_evidence(sin, alpha, beta - step)) / (2 * step)
            analytic = quadrature_curve_slope(sin, alpha, beta)
            worst = max(worst, abs(fd - analytic) / abs(analytic))
    assert worst < 1e-3
    _pass(5, started, 60.0, f"curves monotone on 4 built-ins; slope identity rel err {worst:.1e}")


def test_criterion_06_wasserstein_inequalities():
    started = time.time()
    # observable range of the sin toy: x = sin z + 0.1-noise stays in ~[-1, 1]
    margins = []
    for x in np.linspace(-1.0, 1.0, 11):
        model = models.make_sin_toy(x_obs=x)
        log_p = models.quadrature_log_marginal(model)
        p = math.exp(log_p)
        elbo_q = quadrature_local_evidence(model, 0.0, 0.0)
        eubo_q = quadrature_local_evidence(model, 0.0, 1.0)
        wlbo_q = quadrature_local_evidence(model, 1.0, 1.0)
        wubo_q = quadrature_local_evidence(model, 1.0, 0.0)
        margins.append(min(wlbo_q - elbo_q / p, log_p - wlbo_q,
                           wubo_q - log_p, eubo_q - wubo_q))
    assert min(margins) > 1e-6
    _pass(6, started, 30.0,
          f"elbo/p <= wlbo <= log p <= wubo <= eubo at 11 x, min margin {min(margins):.2e}")


def test_criterion_07_perturbed_quadratic_decay():
    started = time.time()
    sin = models.make_sin_toy()
    rng = np.random.default_rng(0)
    z = rng.uniform(-6.0, 6.0, (400, 1))
    l0 = sin.log_proposal(z)
    l1 = sin.log_target(z)

    def max_errors(delta):
        worst_u = worst_g = 0.0
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            exact, pert = PathSpec("holder", alpha=delta), PathSpec("perturbed", delta=delta)
            worst_u = max(worst_u, float(np.max(np.abs(
                log_density(exact, l0, l1, beta)
                - log_density(pert, l0, l1, beta)))))
            worst_g = max(worst_g, float(np.max(np.abs(
                integrand(exact, l0, l1, beta)
                - integrand(pert, l0, l1, beta)))))
        return worst_u, worst_g

    u_big, g_big = max_errors(1e-2)
    u_small, g_small = max_errors(1e-3)
    ratio_u, ratio_g = u_big / u_small, g_big / g_small
    assert 80.0 < ratio_u < 120.0
    assert 80.0 < ratio_g < 120.0
    _pass(7, started, 30.0,
          f"error ratios delta 1e-2 vs 1e-3: log-density {ratio_u:.1f}, integrand {ratio_g:.1f}")


def test_criterion_08_gradient_correctness():
    started = time.time()
    sin = models.make_sin_toy()
    seeds = derive_seeds(0, 500)
    worst_z = 0.0
    for beta in (0.0, 0.5, 1.0):
        oracle = finite_difference_grad(
            sin, None,
            lambda m, lam, b=beta: quadrature_local_evidence(m, 0.0, b, params=lam),
            step=1e-4)
        form = _path_form(PathSpec("geometric"), [beta], [1.0])
        estimates = np.array([
            path_step(sin, form, draw_batch(sin, 100, int(s)))[1].total
            for s in seeds])
        mean = estimates.mean(axis=0)
        std_err = estimates.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        z_scores = np.abs(mean - oracle) / std_err
        worst_z = max(worst_z, float(z_scores.max()))
    assert worst_z < 4.0
    conjugate = models.make_conjugate_gaussian(1.0, 0.0)
    batch = draw_batch(conjugate, 100_000, 3)
    for beta in (0.0, 0.5, 1.0):
        grad = path_step(conjugate, _path_form(PathSpec("geometric"), [beta], [1.0]), batch)[1]
        assert np.all(np.abs(grad.total) < 3 * grad.std_err + 1e-12)
    _pass(8, started, 300.0,
          f"500-seed mean within {worst_z:.2f} std errs of quadrature FD; "
          "zero gradient at exact posterior")


def test_criterion_09_flattening_and_budget_error():
    started = time.time()
    sin = models.make_sin_toy()
    # tune on the temperatures left-rule sums actually evaluate (beta < 1)
    tune_betas = (0.0, 0.25, 0.5, 0.75)
    candidates = [round(a, 1) for a in np.arange(0.1, 1.0, 0.1)]
    result = tune_alpha_grid(sin, candidates, tune_betas, 10_000, seed=3)
    range_geo = tune_alpha_grid(sin, [0.0], tune_betas, 10_000, seed=3).summary.range
    range_one = tune_alpha_grid(sin, [1.0], tune_betas, 10_000, seed=3).summary.range
    assert result.summary.range < range_geo
    assert result.summary.range < range_one
    alpha_hat = result.alpha
    hbo_id = f"hbo[{alpha_hat!r}]"

    x_grid = np.linspace(-2.5, 2.5, 101)
    gaps = []
    for partitions in (2, 5, 10):
        sched = PartitionSchedule.uniform(partitions)
        err_tvo = approx_error(
            lambda x: models.make_sin_toy(x_obs=x), x_grid,
            lambda m: bound_report(draw_batch(m, 250, 77), ["tvo"], tvo_schedule=sched,
                                   rule=IntegrationRule.LEFT)["tvo"])
        err_hbo = approx_error(
            lambda x: models.make_sin_toy(x_obs=x), x_grid,
            lambda m: bound_report(draw_batch(m, 250, 77), [hbo_id], hbo_schedule=sched,
                                   rule=IntegrationRule.LEFT)[hbo_id])
        assert err_hbo < err_tvo
        gaps.append(err_tvo / err_hbo)
    _pass(9, started, 300.0,
          f"alpha_hat={alpha_hat:g} flattens (range {result.summary.range:.2f} vs "
          f"{range_geo:.1f}/{range_one:.2f}); tvo/hbo error ratios "
          + ", ".join(f"{g:.1f}" for g in gaps))


def test_criterion_10_ess_profile():
    started = time.time()
    sin = models.make_sin_toy()
    alpha_hat = tune_alpha_grid(sin, [round(a, 1) for a in np.arange(0.1, 1.0, 0.1)],
                                (0.0, 0.25, 0.5, 0.75), 10_000, seed=3).alpha
    betas = np.linspace(0.0, 1.0, 21)
    geo = curve_profile(sin, PathSpec("geometric"), betas, 1000, 50, seed=17)
    hold = curve_profile(sin, PathSpec("holder", alpha=alpha_hat), betas, 1000, 50, seed=17)
    assert geo.mean_ess[0] == pytest.approx(1.0, abs=1e-12)
    rho, pval = spearmanr(np.tile(betas, 50), geo.ess_values.ravel())
    assert rho < 0 and pval < 0.01
    assert hold.mean_ess.mean() > geo.mean_ess.mean()
    _pass(10, started, 120.0,
          f"geometric ESS 1 at beta=0, spearman rho={rho:.2f} (p={pval:.1e}); "
          f"mean ESS holder {hold.mean_ess.mean():.2f} > geometric {geo.mean_ess.mean():.2f}")


def test_criterion_11_bayes_regression_training():
    started = time.time()
    data = models.simulate_bayes_dataset(0)
    model = models.make_bayes_regression(data)
    reference = MmdReference.of(mcmc_reference(model, chains=4, steps=17500, burn_in=5000,
                                               thin=10, seed=42).pooled)  # 5000 draws
    init = model.default_params.values.copy()
    init += np.array([1.5, -0.04, 0.5, 0.0, 0.0, 0.0])

    sample_size, steps, learning_rate = 100, 5000, 8e-4
    schedule = PartitionSchedule.uniform(5)
    elbo_objective = BoundObjective(bound="elbo", sample_size=sample_size)
    # alpha in the small-|alpha log p| regime: log p(D) ~ -57 saturates the
    # power-mean weights for moderate alpha
    hbo_objective = BoundObjective(bound="hbo", alpha=0.05, schedule=schedule,
                                   sample_size=sample_size)
    wins = 0
    pairs = []
    for seed in range(10):
        trace_elbo = train(model, init, elbo_objective, steps, learning_rate, seed)
        trace_hbo = train(model, init, hbo_objective, steps, learning_rate, seed)
        assert not (trace_elbo.diverged or trace_hbo.diverged)
        draw_rng = np.random.default_rng(10_000 + seed)
        mmd_elbo = mmd(model.sample_proposal(draw_rng, 2000, trace_elbo.final_params),
                       reference)
        mmd_hbo = mmd(model.sample_proposal(draw_rng, 2000, trace_hbo.final_params),
                      reference)
        pairs.append((mmd_elbo, mmd_hbo))
        wins += mmd_hbo <= mmd_elbo
    assert wins >= 8
    _pass(11, started, 600.0,
          f"HBO beats ELBO on final MMD in {wins}/10 replicates "
          f"(medians {np.median([p[1] for p in pairs]):.3f} vs "
          f"{np.median([p[0] for p in pairs]):.3f})")


def test_criterion_12_cli_determinism(tmp_path):
    started = time.time()
    configs = {
        "bounds": {
            "model": "sin_toy", "sample_size": 256, "seeds": [1, 2],
            "bounds": ["elbo", "iw_elbo", "rvi[0.5]", "eubo", "wlbo", "wubo",
                        "tvo", "hbo[0.8]", "perturbed_hbo[0.01]"],
        },
        "curve": {
            "model": "sin_toy", "sample_size": 256, "seed": 3,
            "schedule": {"kind": "uniform", "partitions": 10},
            "path": {"kind": "holder", "alpha": 0.8},
        },
        "tune": {
            "model": "sin_toy", "sample_size": 1000, "seed": 3,
            "tuning": {"method": "grid", "candidates": [0.2, 0.5, 0.8],
                        "betas": [0.0, 0.25, 0.5, 0.75]},
        },
        "train": {
            "model": "conjugate_gaussian", "model_params": {"sigma": 1.0, "x_obs": 0.0},
            "sample_size": 64, "seed": 4,
            "training": {"bound": "elbo", "steps": 10, "learning_rate": 0.01},
        },
        "diagnose": {
            "model": "sin_toy", "sample_size": 128, "seed": 5,
            "diagnose": {"betas": [0.0, 0.5, 1.0], "replicates": 5},
        },
        "oracle": {"model": "conjugate_gaussian",
                   "model_params": {"sigma": 1.0, "x_obs": 0.0}},
    }
    for command, config in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        out_a = tmp_path / f"{command}_a.out"
        out_b = tmp_path / f"{command}_b.out"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), f"{command} output not reproducible"
    _pass(12, started, 120.0, "all six CLI commands byte-identical on re-run")
