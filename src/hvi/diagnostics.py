"""Estimator diagnostics: ESS, replicate variance profiles, MMD, MCMC reference.

These tools quantify what the bound values alone hide: how many samples
actually contribute at each temperature, how much the per-beta estimates
scatter across independent batches, and how close a trained proposal lands to
a ground-truth posterior sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import paths
from .estimators import _reduce_curve, draw_batch
from .models import LatentModel, quadrature_log_marginal
from .paths import PathSpec
from .util import derive_seeds, log_abs_expm1

__all__ = [
    "ess",
    "CurveProfile",
    "curve_profile",
    "MMD_BANDWIDTH",
    "mmd",
    "McmcReference",
    "mcmc_reference",
    "approx_error",
]


def ess(log_weights) -> float:
    """Normalized effective sample size (sum w)^2 / (m * sum w^2), in [1/m, 1], of log
    weights lw (-inf for a zero weight; one must be finite), both sums taken at the top."""
    lw = np.asarray(log_weights, dtype=float).reshape(-1)
    if lw.size == 0:
        raise ValueError("need at least one log weight")
    if np.any(np.isnan(lw)) or np.any(lw == np.inf):
        raise ValueError("log weights must be < inf and not NaN")
    top, total = paths._row_sum(lw)
    if not np.isfinite(top):
        raise ValueError("all weights are zero; ESS undefined")
    _, squares = paths._row_sum(2.0 * (lw - top))
    return float(total * total / (lw.size * squares))


@dataclass(frozen=True)
class CurveProfile:
    """Replicate spread of local-evidence estimates along the curve.

    Per beta of the caller's, in its order: mean and variance of the estimate
    across independent replicate batches, and the mean ESS.  ``ess_values``
    keeps the full (replicate, beta) ESS matrix for trend tests.
    """

    means: np.ndarray
    variances: np.ndarray
    mean_ess: np.ndarray
    ess_values: np.ndarray


def curve_profile(model: LatentModel, spec: PathSpec, betas, sample_size: int,
                  replicates: int, seed: int) -> CurveProfile:
    """Profile estimator mean/variance/ESS over independent replicate batches.

    A value or mean beyond the float range is a ValueError that names its
    beta; a variance that overflows reads inf.
    """
    if replicates < 2:
        raise ValueError("need at least two replicates")
    betas = np.asarray(list(betas), dtype=float)
    seeds = derive_seeds(seed, replicates)
    values = np.empty((replicates, betas.size))
    ess_vals = np.empty((replicates, betas.size))
    for r in range(replicates):
        batch = draw_batch(model, sample_size, int(seeds[r]))
        values[r], _, ess_vals[r], _ = _reduce_curve(batch, spec, betas)
    with np.errstate(over="ignore", invalid="ignore"):  # a variance may overflow to inf
        means, variances = values.mean(axis=0), values.var(axis=0, ddof=1)
    return CurveProfile(means=paths._check_float_range(spec, means, betas),
                        variances=variances, mean_ess=ess_vals.mean(axis=0), ess_values=ess_vals)


# Gaussian-kernel bandwidth of mmd, in units of the reference's per-axis std.
MMD_BANDWIDTH = 0.5


def _kernel_mean(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """Mean of exp(-gamma |x_i - y_j|^2) over all pairs, summed over row blocks of x.

    A block and its work buffer together hold at most paths._TILE_ELEMENTS
    kernel entries (a block at least one row), so memory stays bounded
    whatever the sample sizes and a block's passes run from cache.  The
    squared distances sum (x_k - y_k)^2 over the axes in order, as scipy's
    cdist(x, y, "sqeuclidean") does.
    """
    rows = max(1, paths._TILE_ELEMENTS // (2 * y.shape[0]))
    x_axes, y_axes = x.T.copy(), y.T.copy()  # one contiguous row per axis
    block_buffer = np.empty(min(rows, x.shape[0]) * y.shape[0])
    work_buffer = np.empty_like(block_buffer)
    total = 0.0
    for start in range(0, x.shape[0], rows):
        stop = min(start + rows, x.shape[0])
        block = block_buffer[:(stop - start) * y.shape[0]].reshape(stop - start, -1)
        work = work_buffer[:block.size].reshape(block.shape)
        np.subtract(x_axes[0, start:stop, None], y_axes[0], out=block)
        np.square(block, out=block)
        for x_k, y_k in zip(x_axes[1:, start:stop], y_axes[1:]):
            np.subtract(x_k[:, None], y_k, out=work)
            np.square(work, out=work)
            block += work
        block *= -gamma
        np.exp(block, out=block)
        total += block.sum()
    return total / (x.shape[0] * y.shape[0])


def mmd(sample_a, sample_b) -> float:
    """Biased (V-statistic) Gaussian-kernel MMD between two samples.

    Both samples are first normalized by the mean and standard deviation of
    ``sample_b`` (the reference, e.g. MCMC ground truth), then compared with
    kernel exp(-|x-y|^2 / (2 h^2)), h = MMD_BANDWIDTH.  The V-statistic
    includes diagonal terms, so the squared discrepancy is nonnegative by
    construction; the square root is returned.  The three kernel means are
    summed over row blocks, so memory is bounded by paths._TILE_ELEMENTS
    entries rather than growing with the product of the sample sizes.
    """
    a = np.atleast_2d(np.asarray(sample_a, dtype=float))
    b = np.atleast_2d(np.asarray(sample_b, dtype=float))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("samples must be 2-d with matching dimension")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("samples must be non-empty")
    center = b.mean(axis=0)
    scale = b.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    a = (a - center) / scale
    b = (b - center) / scale
    gamma = 0.5 / MMD_BANDWIDTH**2
    k_aa = _kernel_mean(a, a, gamma)
    k_bb = _kernel_mean(b, b, gamma)
    k_ab = _kernel_mean(a, b, gamma)
    return float(math.sqrt(max(k_aa + k_bb - 2.0 * k_ab, 0.0)))


@dataclass(frozen=True)
class McmcReference:
    """Random-walk Metropolis output used as a ground-truth posterior sample."""

    samples: np.ndarray       # (chains, draws, dim), post burn-in, thinned
    acceptance_rate: float

    def __post_init__(self):
        if not 0.0 < self.acceptance_rate < 1.0:
            raise ValueError("acceptance rate must lie strictly in (0, 1), "
                             f"got {self.acceptance_rate:g}; check step_size")

    @property
    def pooled(self) -> np.ndarray:
        return self.samples.reshape(-1, self.samples.shape[-1])


def mcmc_reference(model: LatentModel, chains: int = 4, steps: int = 20000,
                   burn_in: int = 5000, thin: int = 10, step_size: float = 1.0,
                   seed: int = 0) -> McmcReference:
    """Multi-chain random-walk Metropolis targeting the model's log_target.

    Chains start from proposal draws (overdispersed relative to the
    posterior).  Proposal increments are scaled per dimension by the spread of
    a pilot draw from the model's proposal, so targets with very different
    coordinate scales still mix evenly; a short pilot then adjusts the global
    step multiplier into the 20-50% acceptance band.  Everything runs off one seeded generator, so results are
    deterministic given the seed.
    """
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


def approx_error(model_family: Callable[[float], LatentModel], x_grid,
                 estimate: Callable[[LatentModel], float]) -> float:
    """Likelihood approximation error integral(p(x) |p(x) - p_hat(x)|) dx.

    ``estimate`` maps a model instance to its log-likelihood approximation
    (e.g. a thermodynamic bound from a seeded batch); p(x) comes from the
    quadrature oracle.  The outer integral is a trapezoid over ``x_grid``.
    """
    x_grid = np.asarray(list(x_grid), dtype=float)
    if x_grid.ndim != 1 or x_grid.size < 2:
        raise ValueError("x_grid must contain at least two points")
    integrand = np.empty(x_grid.size)
    for i, x in enumerate(x_grid):
        model = model_family(float(x))
        # p |p - p_hat| = exp(2 log p + log |p_hat/p - 1|), finite whenever it is
        log_p = quadrature_log_marginal(model)
        integrand[i] = math.exp(2.0 * log_p + float(log_abs_expm1(estimate(model) - log_p)))
    return float(np.trapezoid(integrand, x_grid))
