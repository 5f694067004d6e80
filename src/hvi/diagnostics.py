"""Estimator diagnostics: replicate variance and ESS profiles, MMD, MCMC reference.

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
from .estimators import draw_batch, local_evidence_curve
from .models import LatentModel, quadrature_log_marginal
from .paths import PathSpec
from .util import _count, derive_seeds, log_abs_expm1

__all__ = [
    "CurveProfile",
    "curve_profile",
    "MMD_BANDWIDTH",
    "MmdReference",
    "mmd",
    "McmcReference",
    "mcmc_reference",
    "approx_error",
]


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
    replicates = _count("replicates", replicates, 2)
    betas = np.asarray(list(betas), dtype=float)
    seeds = derive_seeds(seed, replicates)
    values = np.empty((replicates, betas.size))
    ess_vals = np.empty((replicates, betas.size))
    for r in range(replicates):
        batch = draw_batch(model, sample_size, int(seeds[r]))
        values[r], _, ess_vals[r], _ = local_evidence_curve(batch, spec, betas)
    with np.errstate(over="ignore", invalid="ignore"):  # a variance may overflow to inf
        means, variances = values.mean(axis=0), values.var(axis=0, ddof=1)
    return CurveProfile(means=paths._check_float_range(spec, means, betas),
                        variances=variances, mean_ess=ess_vals.mean(axis=0), ess_values=ess_vals)


# Gaussian-kernel bandwidth of mmd, in units of the reference's per-axis std.
MMD_BANDWIDTH = 0.5


def _kernel_mean(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """Mean of exp(-gamma |x_i - y_j|^2) over all pairs, summed over row blocks of x.

    A block's exponents are one matrix product [2 gamma x_i, -gamma |x_i|^2, 1] .
    [y_j, 1, -gamma |y_j|^2] into a buffer of at most paths._TILE_ELEMENTS // 2
    entries (a block at least one row), or, where the product could lose 2^-30
    of an entry, cdist's distances: (x_k - y_k)^2 summed over the axes in order.
    """
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        x_norms, y_norms = gamma * np.einsum("ij,ij->i", x, x), gamma * np.einsum("ij,ij->i", y, y)
    # the product's partial sums, and gamma times the distances', stay within
    # this bound, so past the float range the product would read inf - inf
    bound = 2.0 * (x_norms.max() + y_norms.max())
    if not math.isfinite(bound):
        raise ValueError("mmd: samples not finite, or too far apart for the float range")
    # rounding moves a product's exponent by up to about (d + 2) eps bound
    direct = (x.shape[1] + 2) * np.finfo(float).eps * bound > 2.0**-30
    lhs = np.column_stack([2.0 * gamma * x, -x_norms, np.ones(len(x))])
    rhs = np.stack([*y.T, np.ones(len(y)), -y_norms])  # C order: a faster product than y.T's
    rows = max(1, paths._TILE_ELEMENTS // (2 * y.shape[0]))
    buffer = np.empty((min(rows, x.shape[0]), y.shape[0]))
    total = 0.0
    for start in range(0, x.shape[0], rows):
        block = buffer[:min(rows, x.shape[0] - start)]
        if direct:
            np.multiply(sum(np.square(x_k[start:start + rows, None] - y_k)
                            for x_k, y_k in zip(x.T, y.T)), -gamma, out=block)
        else:
            np.matmul(lhs[start:start + rows], rhs, out=block)
        total += np.exp(block, out=block).sum()
    return total / (x.shape[0] * y.shape[0])


@dataclass(frozen=True)
class MmdReference:
    """A reference sample prepared once for mmd.

    ``center`` and ``scale`` are the reference's per-axis mean and standard
    deviation (an axis of zero spread scales by 1), ``points`` the reference
    normalized by them, and ``k_bb`` its kernel self-term.  Build it with
    ``MmdReference.of(sample)`` when many samples meet one reference.
    """

    center: np.ndarray
    scale: np.ndarray
    points: np.ndarray
    k_bb: float

    @classmethod
    def of(cls, sample) -> MmdReference:
        b = np.asarray(sample, dtype=float)
        if b.ndim != 2:
            raise ValueError("samples must be 2-d with matching dimension")
        if b.shape[0] == 0:
            raise ValueError("samples must be non-empty")
        center = b.mean(axis=0)
        scale = b.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        points = (b - center) / scale
        return cls(center, scale, points, _kernel_mean(points, points, 0.5 / MMD_BANDWIDTH**2))


def mmd(sample_a, reference) -> float:
    """Biased (V-statistic) Gaussian-kernel MMD between a sample and a reference.

    Both samples are normalized by the mean and standard deviation of the
    reference (e.g. MCMC ground truth), then compared with kernel
    exp(-|x-y|^2 / (2 h^2)), h = MMD_BANDWIDTH.  ``reference`` is a sample or an
    ``MmdReference`` of one, which gives the same value without redoing its
    self-term.  The squared statistic, diagonal terms included, is clipped at 0
    against rounding; its root is returned.  Memory is one _kernel_mean block.
    """
    if not isinstance(reference, MmdReference):
        reference = MmdReference.of(reference)
    a = np.asarray(sample_a, dtype=float)
    if a.ndim != 2 or a.shape[1] != reference.points.shape[1]:
        raise ValueError("samples must be 2-d with matching dimension")
    if a.shape[0] == 0:
        raise ValueError("samples must be non-empty")
    a = (a - reference.center) / reference.scale
    gamma = 0.5 / MMD_BANDWIDTH**2
    k_aa = _kernel_mean(a, a, gamma)
    k_ab = _kernel_mean(a, reference.points, gamma)
    return float(math.sqrt(max(k_aa + reference.k_bb - 2.0 * k_ab, 0.0)))


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


# Tree points one log_target call scores: the prefetch depth is the largest
# k with chains * (2^k - 1) points within this budget, and at least 1.
_PREFETCH_POINTS = 64


def mcmc_reference(model: LatentModel, chains: int = 4, steps: int = 20000,
                   burn_in: int = 5000, thin: int = 10, step_size: float = 1.0,
                   seed: int = 0) -> McmcReference:
    """Multi-chain random-walk Metropolis targeting the model's log_target.

    Chains start from proposal draws (overdispersed relative to the
    posterior).  Proposal increments are scaled per dimension by the spread of
    a pilot draw from the model's proposal, so targets with very different
    coordinate scales still mix evenly.  A pilot then tunes the global step
    multiplier over windows of 100 steps per chain: after a window whose
    acceptance is below 20% it shrinks the step by 0.7, above 50% it grows it
    by 1.4, and it keeps the step of the first window inside 20-50%, or the
    step after 15 windows.  The pilot's windows are not part of the output, so
    the final acceptance rate can still lie outside that band.  Everything runs
    off one seeded generator, so results are deterministic given the seed.

    The chains advance in blocks of k steps, prefetched (Brockwell 2006).  A
    step's normal increments and uniform draw do not depend on the chain's
    state, so a block first draws its k steps' randoms in the serial order.
    Each chain then grows a proposal tree: node 0 is its state, and node
    2^j + i is step j's proposal from node i < 2^j.  One log_target call
    scores every node but the roots, and the accept tests then run in step
    order down each chain's tree.  Every float operation is one the serial
    chain makes, so the samples and the acceptance rate are bit for bit
    those of one step at a time.  The tree holds points the chain never
    visits, so it is scored with numpy's float warnings off; a density of
    -inf or NaN is still a rejection.  k is not a setting: it is the largest
    depth whose chains * (2^k - 1) tree points fit in _PREFETCH_POINTS, so
    4 chains take k = 4, and 22 or more take k = 1, one step per call.
    """
    chains, thin = _count("chains", chains, 1), _count("thin", thin, 1)
    steps, burn_in = _count("steps", steps, 1), _count("burn_in", burn_in, 0)
    if steps - burn_in < thin:  # else the chains keep no draw
        raise ValueError(f"steps must exceed burn_in by at least thin = {thin}")
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

    depth = max(1, (_PREFETCH_POINTS // chains + 1).bit_length() - 1)
    tree = np.empty((1 << depth, chains, dim))  # node-major, so a level is one slice
    score = np.empty((1 << depth, chains))  # log_target at each node
    score[0] = log_p
    noise = np.empty((depth, chains, dim))
    uniforms = np.empty((depth, chains))
    rows = np.arange(chains)

    def sweep(n: int, step: float, keep_every: int = 0) -> tuple[int, list]:
        """Accepts over n steps of every chain, and the states after each keep_every-th."""
        nonlocal state
        accepted, kept = 0, []
        for done in range(0, n, depth):
            k = min(depth, n - done)
            for j in range(k):  # the serial draw order: one step's normals, then its uniforms
                rng.standard_normal(out=noise[j])
                rng.random(out=uniforms[j])
            np.multiply(step * scales, noise[:k], out=noise[:k])
            tree[0] = state
            for j in range(k):
                np.add(tree[:1 << j], noise[j], out=tree[1 << j:2 << j])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                score[1:1 << k] = model.log_target(tree[1:1 << k].reshape(-1, dim),
                                                   lam).reshape(-1, chains)
                log_u = np.log(uniforms[:k]).T.tolist()
            ends = []
            for lus, scores in zip(log_u, score[:1 << k].T.tolist()):
                node = 0
                for j, lu in enumerate(lus):
                    child = node + (1 << j)
                    if lu < scores[child] - scores[node]:
                        node = child
                        accepted += 1
                ends.append(node)
            ends = np.array(ends)  # bit j of a chain's end node is step j's accept
            if keep_every:
                kept.extend(tree[ends & ((2 << j) - 1), rows]
                            for j in range((-done - 1) % keep_every, k, keep_every))
            state = tree[ends, rows]
            score[0] = score[ends, rows]
        return accepted, kept

    step = float(step_size)
    for _ in range(15):
        rate = sweep(100, step)[0] / (100 * chains)
        if rate < 0.2:
            step *= 0.7
        elif rate > 0.5:
            step *= 1.4
        else:
            break

    accepted = sweep(burn_in, step)[0]
    draws = (steps - burn_in) // thin
    sampled, kept = sweep(draws * thin, step, thin)
    accepted_rate = (accepted + sampled) / ((burn_in + draws * thin) * chains)
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
