"""Quadrature and finite-difference oracles that only the tests read.

``quadrature_local_evidence`` is one point of the library's tiled curve.
``quadrature_rvi`` and ``quadrature_curve_slope`` take the whole grid at once
through scipy's ``logsumexp`` (the slope through the pointwise reference forms
of ``path_forms``), so they share no reduction with the library.
``finite_difference_grad`` differentiates any deterministic functional of
lambda.  ``path_step`` is the library's training step with its std err.
``conjugate_exact_log_marginal`` is the conjugate Gaussian model's closed form.
``serial_mcmc_reference`` is the random-walk Metropolis sampler one step at a
time, against which the prefetched ``diagnostics.mcmc_reference`` is checked.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import logsumexp

from hvi import models, paths
from hvi.diagnostics import McmcReference
from hvi.gradients import _path_step
from hvi.paths import PathSpec
from path_forms import reference_integrand_parts, reference_log_density


def path_step(model, form, batch, params=None):
    """(value, gradient) of a path form (estimators._path_form) at lambda ``params``, as
    train's step forms them (gradients._path_step), under the error state of every caller
    of the kernel: overflow and invalid values ignored, divide not.  The gradient holds
    ``term_i``, ``term_ii``, their sum ``total`` as train takes it, and ``std_err``."""
    with np.errstate(over="ignore", invalid="ignore"):
        value, term_i, term_ii, std_err = _path_step(model, model._resolve(params), form,
                                                     batch, std_err=True)
    return value, SimpleNamespace(term_i=term_i, term_ii=term_ii, total=term_i + term_ii,
                                  std_err=std_err)


def conjugate_exact_log_marginal(sigma: float, x_obs: float) -> float:
    """Closed-form log p(x) = log N(x; 0, 1 + sigma^2) for the conjugate model."""
    return float(models._norm_logpdf(x_obs, 0.0, math.sqrt(1.0 + sigma**2)))


def quadrature_local_evidence(model, alpha, beta, grid=None, params=None) -> float:
    """Exact local evidence: the expectation of the path integrand under pi_(alpha,beta)."""
    return float(models.quadrature_local_evidence_curve(model, alpha, [beta], grid, params)[0])


def quadrature_rvi(model, alpha, grid=None, params=None) -> float:
    """Exact Renyi bound (1/alpha) log int q^(1 - alpha) p^alpha: one log-sum-exp over the grid."""
    pts, log_cell = models.quadrature_grid(model, grid)
    l0, l1 = model.log_proposal(pts, params), model.log_target(pts, params)
    return float(logsumexp(alpha * (l1 - l0) + l0 + log_cell) / alpha)


def quadrature_curve_slope(model, alpha, beta, grid=None, params=None) -> float:
    """d/dbeta of the local evidence, -E[g]^2 + (1 - alpha) E[g^2] under the normalized
    path density, formed in log space: a slope beyond the float range reads as the
    infinity of its sign.  At alpha = 1 the second term is 0 while E[g^2] can overflow,
    so the slope is -E E from the local evidence."""
    if alpha == 1.0:
        evidence = quadrature_local_evidence(model, alpha, beta, grid, params)
        return -evidence * evidence
    pts, log_cell = models.quadrature_grid(model, grid)
    l0, l1 = model.log_proposal(pts, params), model.log_target(pts, params)
    spec = PathSpec("holder", alpha=alpha)
    log_w = reference_log_density(spec, l0, l1, beta) + log_cell
    log_w -= logsumexp(log_w)
    sign, log_abs = reference_integrand_parts(spec, l0, l1, beta)
    log_first = logsumexp(log_w + log_abs, b=sign, return_sign=True)[0]
    terms = [math.log(abs(1.0 - alpha)) + logsumexp(log_w + 2.0 * log_abs), 2.0 * log_first]
    log_slope, slope_sign = logsumexp(terms, b=[math.copysign(1.0, 1.0 - alpha), -1.0],
                                      return_sign=True)
    with np.errstate(over="ignore"):
        return float(slope_sign * np.exp(log_slope))


def finite_difference_grad(model, params, objective, step=1e-4) -> np.ndarray:
    """Central finite differences of ``objective(model, lambda)``, deterministic in lambda."""
    lam = model._resolve(params)
    out = np.empty(lam.size)
    for j, bump in enumerate(step * np.eye(lam.size)):
        out[j] = (objective(model, lam + bump) - objective(model, lam - bump)) / (2.0 * step)
    return out


def serial_mcmc_reference(model, chains: int = 4, steps: int = 20000,
                          burn_in: int = 5000, thin: int = 10, step_size: float = 1.0,
                          seed: int = 0) -> McmcReference:
    """The serial random-walk Metropolis sampler: one log_target call per step
    of all chains.  ``diagnostics.mcmc_reference`` must equal it bit for bit."""
    if steps <= burn_in:
        raise ValueError("steps must exceed burn_in")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if thin < 1 or chains < 1:
        raise ValueError("thin and chains must be >= 1")
    if not 0.0 < step_size < math.inf:
        raise ValueError("step_size must be positive and finite")
    lam = model.default_params.values
    rng = np.random.default_rng(seed)
    dim = model.latent_dim
    # a spread or start density beyond the float range reads as its infinity,
    # and a start density that is not finite is named here: otherwise a target
    # that reads -inf everywhere accepts nothing, which blames step_size
    with np.errstate(over="ignore", invalid="ignore"):
        scales = model.sample_proposal(rng, 256, lam).std(axis=0)
        scales = np.where(scales > 0, scales, 1.0)
        state = model.sample_proposal(rng, chains, lam)
        log_p = paths._check_finite("log_target", model.log_target(state, lam), "chains")

    def sweep(n: int, step: float) -> int:
        nonlocal state, log_p
        accepted = 0
        for _ in range(n):
            prop = state + step * scales * rng.standard_normal((chains, dim))
            log_p_prop = model.log_target(prop, lam)
            accept = np.log(rng.uniform(size=chains)) < log_p_prop - log_p
            state = np.where(accept[:, None], prop, state)
            log_p = np.where(accept, log_p_prop, log_p)
            accepted += int(accept.sum())
        return accepted

    step = float(step_size)
    for _ in range(15):
        rate = sweep(100, step) / (100 * chains)
        if rate < 0.2:
            step *= 0.7
        elif rate > 0.5:
            step *= 1.4
        else:
            break

    accepted = sweep(burn_in, step)
    kept = []
    total = 0
    for _ in range((steps - burn_in) // thin):
        accepted += sweep(thin, step)
        total += thin
        kept.append(state.copy())
    accepted_rate = accepted / ((burn_in + total) * chains)
    samples = np.stack(kept, axis=1)  # (chains, draws, dim)
    return McmcReference(samples=samples, acceptance_rate=float(accepted_rate))
