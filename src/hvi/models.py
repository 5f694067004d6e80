"""Latent-variable test models and dense-grid quadrature oracles.

Each built-in bundles an unnormalized target log density log p(x, z), a
normalized proposal log q(z|x), a proposal sampler, and the gradients of both
log densities with respect to one flat parameter vector lambda, which training
updates as a whole.  Evaluators are pure functions of (z, lambda): z is an
(n, latent_dim) array of points, and they give (n,) log densities or
(n, lambda size) gradients.  All randomness lives in the sampler, which takes
a caller-owned Generator.

The quadrature helpers integrate on dense trapezoid grids in log space.  For
the 1-D and 2-D built-ins their error is far below every test tolerance, which
makes them usable as ground truth for the sample-based estimators.  Each call
makes one pass over the grid: the model is evaluated on a tile of points at a
time and every curve (``paths.PathCurve``) and log p(x), the Renyi sum at
alpha = 1, reduced tile by tile, so memory stays at the grid itself plus a
few tiles.

Built-ins (addressable by string id through ``make_model``):

  scaled_factor       pi_1 = c * pi_0 with pi_0 = N(0, 1); log p(x) = log c.
  conjugate_gaussian  z ~ N(0,1), x|z ~ N(z, sigma^2); closed-form marginal
                      N(x; 0, 1+sigma^2) and posterior N(x/(1+sigma^2),
                      sigma^2/(1+sigma^2)), which is the default proposal.
  sin_toy             x ~ N(sin z, 0.1^2), z ~ N(0,1), proposal N(0, 1.5^2).
  ring                y = sqrt(z1^2+z2^2) + N(0, 0.1^2), z ~ N(0, I); the
                      posterior is a ring of radius ~y.
  bayes_regression    y_i ~ N(a + b*x_i, s^2) with prior (1+b^2)^(-3/2) on
                      (a, b) and 1/s on s; latent coordinates (a, b, log s).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .paths import PathCurve, PathSpec, _log_ratio, _renyi_sum
from .util import _count

__all__ = [
    "ModelParameters",
    "LatentModel",
    "BayesRegressionDataset",
    "make_scaled_factor",
    "make_conjugate_gaussian",
    "make_sin_toy",
    "make_ring",
    "simulate_bayes_dataset",
    "make_bayes_regression",
    "make_model",
    "MODEL_IDS",
    "GridSpec",
    "quadrature_grid",
    "quadrature_oracle",
    "quadrature_log_marginal",
    "quadrature_local_evidence_curve",
]

_LOG_2PI = math.log(2.0 * math.pi)

SIN_TOY_OBS_STD = 0.1      # observation noise of the sin toy, variance 1e-2
RING_OBS_STD = 0.1         # observation noise of the ring model
BAYES_TRUE_INTERCEPT = 25.0
BAYES_TRUE_SLOPE = 0.5
BAYES_TRUE_NOISE_VAR = 10.0


def _norm_logpdf(x, mean, std):
    u = (x - mean) / std
    return -0.5 * u * u - np.log(std) - 0.5 * _LOG_2PI


@dataclass(frozen=True)
class ModelParameters:
    """Flat parameter vector lambda with one unique name per entry."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != values.size:
            raise ValueError("names and values must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("parameter names must be unique")

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class LatentModel:
    """A latent-variable model: target and proposal log densities plus sampler.

    ``log_target`` is unnormalized in z (log p(x, z)); ``log_proposal`` is a
    normalized density (log q(z|x)).  Each evaluator takes an (n, latent_dim)
    array of points and gives (n,) log densities or (n, size) gradients with
    respect to the full flat parameter vector.  Evaluators are pure; the model
    carries no mutable state.  Each row's log density is the one it reads
    alone: on a stacked array, bit for bit, it equals its value on any slice
    of the rows or on a strided view, which ``diagnostics.mcmc_reference``
    needs to score many chains' proposals in one call.
    """

    model_id: str
    latent_dim: int
    default_params: ModelParameters
    quadrature_domain: tuple[tuple[float, float], ...]
    _log_target: Callable
    _log_proposal: Callable
    _sample_proposal: Callable
    _grad_log_target: Callable
    _grad_log_proposal: Callable

    def _resolve(self, params) -> np.ndarray:
        if params is None:
            return self.default_params.values
        lam = np.asarray(params, dtype=float).reshape(-1)
        if lam.size != self.default_params.size:
            raise ValueError(
                f"expected {self.default_params.size} parameters, got {lam.size}")
        return lam

    def _evaluate(self, fn: Callable, z, params):
        """fn at an (n, latent_dim) array of points and resolved lambda."""
        shape = np.shape(z)
        if len(shape) != 2 or shape[1] != self.latent_dim:
            raise ValueError(f"z with shape {shape} does not match latent_dim {self.latent_dim}")
        return fn(z, self._resolve(params))

    def log_target(self, z, params=None):
        return self._evaluate(self._log_target, z, params)

    def log_proposal(self, z, params=None):
        return self._evaluate(self._log_proposal, z, params)

    def sample_proposal(self, rng: np.random.Generator, size: int, params=None):
        return self._sample_proposal(rng, self._resolve(params), _count("size", size, 1))

    def grad_log_target(self, z, params=None):
        return self._evaluate(self._grad_log_target, z, params)

    def grad_log_proposal(self, z, params=None):
        return self._evaluate(self._grad_log_proposal, z, params)


def _gaussian_proposal_model(model_id: str, suffixes, means, log_stds, domain,
                             log_target) -> LatentModel:
    """A model whose parameters lambda = (means, log stds) set a diagonal-Gaussian proposal.

    The proposal is N(means, diag(exp(log_stds))^2); the target does not depend
    on lambda, so its gradient is zero.  Parameter names are ``q_mean<suffix>``
    for each suffix, then ``q_log_std<suffix>``.
    """
    dim = len(suffixes)
    params = ModelParameters(
        [f"q_mean{s}" for s in suffixes] + [f"q_log_std{s}" for s in suffixes],
        np.array([*means, *log_stds]))

    def split(lam):
        return lam[:dim], np.exp(lam[dim:])

    def log_proposal(pts, lam):
        mean, std = split(lam)
        return _norm_logpdf(pts, mean, std).sum(axis=1)

    def sample(rng, lam, n):
        mean, std = split(lam)
        return mean + std * rng.standard_normal((n, dim))

    def grad_proposal(pts, lam):
        mean, std = split(lam)
        u = (pts - mean) / std
        return np.concatenate([u / std, u * u - 1.0], axis=1)

    def grad_target(pts, lam):
        return np.zeros((pts.shape[0], lam.size))

    return LatentModel(model_id, dim, params, tuple(domain), log_target, log_proposal,
                       sample, grad_target, grad_proposal)


def make_scaled_factor(scale: float) -> LatentModel:
    """Analytic oracle: pi_1 = c * pi_0 with pi_0 = N(0, 1), so log p(x) = log c.

    The single parameter is lambda = log c; the proposal is fixed.  Every bound
    and local evidence has a closed form on this model, which makes it the
    primary exactness fixture.
    """
    scale = float(scale)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    params = ModelParameters(("log_scale",), np.array([math.log(scale)]))

    def log_proposal(pts, lam):
        return _norm_logpdf(pts, 0.0, 1.0).sum(axis=1)

    def log_target(pts, lam):
        return lam[0] + log_proposal(pts, lam)

    def sample(rng, lam, n):
        return rng.standard_normal((n, 1))

    def grad_target(pts, lam):
        return np.ones((pts.shape[0], 1))

    def grad_proposal(pts, lam):
        return np.zeros((pts.shape[0], 1))

    return LatentModel(
        model_id="scaled_factor",
        latent_dim=1,
        default_params=params,
        quadrature_domain=((-8.0, 8.0),),
        _log_target=log_target,
        _log_proposal=log_proposal,
        _sample_proposal=sample,
        _grad_log_target=grad_target,
        _grad_log_proposal=grad_proposal,
    )


# The conjugate model's sigma, where sigma**2 is a normal float: beyond it
# sigma**2 overflows, and below it a subnormal one skews the posterior proposal.
_SIGMA_RANGE = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max))


def _check_sigma(sigma) -> float:
    """``sigma`` as a float, rejected outside _SIGMA_RANGE."""
    sigma = float(sigma)
    if not _SIGMA_RANGE[0] <= sigma <= _SIGMA_RANGE[1]:
        raise ValueError("sigma must lie in [1.5e-154, 1.3e154] so that sigma**2 is a normal "
                         f"float, got {sigma:g}")
    return sigma


def make_conjugate_gaussian(sigma: float, x_obs: float) -> LatentModel:
    """Conjugate pair z ~ N(0,1), x|z ~ N(z, sigma^2).

    The marginal is N(x; 0, 1+sigma^2) in closed form, and the default
    proposal is the exact posterior N(x/(1+sigma^2), sigma^2/(1+sigma^2)),
    exposed through lambda = (mean, log std) so it can be perturbed and trained.
    """
    sigma = _check_sigma(sigma)
    x_obs = float(x_obs)
    post_mean = x_obs / (1.0 + sigma**2)
    post_var = sigma**2 / (1.0 + sigma**2)

    def log_target(pts, lam):
        z = pts[:, 0]
        return _norm_logpdf(z, 0.0, 1.0) + _norm_logpdf(x_obs, z, sigma)

    half_width = 8.0 * math.sqrt(post_var)
    return _gaussian_proposal_model(
        "conjugate_gaussian", ("",), (post_mean,), (0.5 * math.log(post_var),),
        ((post_mean - half_width, post_mean + half_width),), log_target)


def make_sin_toy(x_obs: float = 0.0, proposal_mean: float = 0.0,
                 proposal_std: float = 1.5) -> LatentModel:
    """Toy model x ~ N(sin z, 0.1^2), z ~ N(0, 1), proposal N(0, 1.5^2).

    The proposal is deliberately mismatched to the multimodal posterior and
    held fixed in the sharpness experiments; its (mean, log std) are exposed
    as lambda so gradient and training paths stay exercisable.
    """
    x_obs = float(x_obs)
    proposal_mean = float(proposal_mean)
    proposal_std = float(proposal_std)
    if not proposal_std > 0:
        raise ValueError("proposal_std must be positive")

    def log_target(pts, lam):
        z = pts[:, 0]
        return _norm_logpdf(z, 0.0, 1.0) + _norm_logpdf(x_obs, np.sin(z), SIN_TOY_OBS_STD)

    half_width = 8.0 * proposal_std
    return _gaussian_proposal_model(
        "sin_toy", ("",), (proposal_mean,), (math.log(proposal_std),),
        ((proposal_mean - half_width, proposal_mean + half_width),), log_target)


def make_ring(y_obs: float = 1.0) -> LatentModel:
    """Ring model y = sqrt(z1^2 + z2^2) + N(0, 0.1^2) with z ~ N(0, I).

    For y around 1 the posterior is an annulus of radius ~y.  The default
    proposal N(0, 0.5*I) matches the posterior second moment E[z_i^2] ~ 1/2;
    lambda = (means, log stds) of the diagonal Gaussian.
    """
    y_obs = float(y_obs)

    def log_target(pts, lam):
        r = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        prior = _norm_logpdf(pts, 0.0, 1.0).sum(axis=1)
        return prior + _norm_logpdf(y_obs, r, RING_OBS_STD)

    log_std = math.log(math.sqrt(0.5))
    return _gaussian_proposal_model("ring", ("_1", "_2"), (0.0, 0.0), (log_std, log_std),
                                    ((-4.0, 4.0), (-4.0, 4.0)), log_target)


@dataclass(frozen=True)
class BayesRegressionDataset:
    """Observed (x_i, y_i) pairs for the Bayesian regression model."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be equal-length 1-d arrays")

    @property
    def n(self) -> int:
        return self.x.size


def simulate_bayes_dataset(seed: int = 0, n: int = 20) -> BayesRegressionDataset:
    """Simulate the regression data: x~ ~ U[0,100], y = 25 + 0.5*x~ + noise.

    Both the response noise and the covariate noise (x = x~ + noise) are
    N(0, 10).  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    noise_std = math.sqrt(BAYES_TRUE_NOISE_VAR)
    x_latent = rng.uniform(0.0, 100.0, size=n)
    y = BAYES_TRUE_INTERCEPT + BAYES_TRUE_SLOPE * x_latent + rng.normal(0.0, noise_std, size=n)
    x = x_latent + rng.normal(0.0, noise_std, size=n)
    return BayesRegressionDataset(x=x, y=y)


def make_bayes_regression(data: BayesRegressionDataset) -> LatentModel:
    """Bayesian regression posterior over (a, b, log s), conditioned on observed x.

    log p(D, z) = -(3/2) log(1 + b^2) + sum_i log N(y_i; a + b x_i, s^2); the
    1/s prior is flat in the log s coordinate.  The proposal is a diagonal
    Gaussian over (a, b, log s) whose default means come from the OLS fit,
    with deliberately overdispersed default spreads.  Two points fit the OLS
    line exactly and leave no residual spread, so it takes at least three.
    """
    if data.n < 3:
        raise ValueError(f"dataset needs at least 3 points, got {data.n}")
    x, y = data.x, data.y
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean()) / sxx) if sxx > 0 else 0.0
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    resid_std = float(np.sqrt(resid @ resid / (data.n - 2)))

    def log_target(pts, lam):
        a = pts[:, 0:1]
        b = pts[:, 1:2]
        log_s = pts[:, 2:3]
        resid = y[None, :] - a - b * x[None, :]
        loglik = (-log_s - 0.5 * _LOG_2PI
                  - 0.5 * np.exp(-2.0 * log_s) * resid * resid).sum(axis=1)
        prior = -1.5 * np.log1p(b[:, 0] ** 2)
        return prior + loglik

    means = (intercept, slope, math.log(resid_std))
    log_stds = (math.log(3.0), math.log(0.05), math.log(0.3))
    domain = [(m - 8 * s, m + 8 * s) for m, s in zip(means, np.exp(log_stds).tolist())]
    return _gaussian_proposal_model("bayes_regression", ("_alpha", "_beta", "_log_sigma"),
                                    means, log_stds, domain, log_target)


def _bayes_regression_from_seed(seed: int = 0, n: int = 20) -> LatentModel:
    return make_bayes_regression(simulate_bayes_dataset(seed=seed, n=n))


_BUILDERS: dict[str, Callable[..., LatentModel]] = {
    "scaled_factor": make_scaled_factor,
    "conjugate_gaussian": make_conjugate_gaussian,
    "sin_toy": make_sin_toy,
    "ring": make_ring,
    "bayes_regression": _bayes_regression_from_seed,
}

MODEL_IDS = tuple(sorted(_BUILDERS))


def make_model(model_id: str, params: Optional[dict] = None) -> LatentModel:
    """Build a built-in model from its string id and a JSON parameter object."""
    try:
        builder = _BUILDERS[model_id]
    except KeyError:
        raise ValueError(f"unknown model id {model_id!r}; expected one of {MODEL_IDS}") from None
    kwargs = dict(params or {})
    try:
        inspect.signature(builder).bind(**kwargs)
    except TypeError as exc:
        raise ValueError(f"model {model_id!r}: {exc}") from None
    return builder(**kwargs)


# ---------------------------------------------------------------------------
# Dense-grid quadrature oracles (latent_dim <= 2)
# ---------------------------------------------------------------------------

DEFAULT_GRID_POINTS = {1: 20001, 2: 801}

# Fewest ulps of an axis's largest |end| that one grid cell may span.  Finer
# cells round the points onto few distinct floats: on conjugate_gaussian at
# x = 0.5, cells of 7.2e3 and 0.7 ulps put log p off by 6.8e-11 and 4.7e-8
# relative, and cells of 7.2e6 ulps within 2e-14.
_MIN_CELL_ULPS = 2**20


@dataclass(frozen=True)
class GridSpec:
    """Grid override: points per axis over the model's quadrature_domain.

    ``None`` takes DEFAULT_GRID_POINTS for the model's latent dimension.
    """

    points: Optional[int] = None


def quadrature_grid(model: LatentModel, grid: Optional[GridSpec] = None):
    """Tensor trapezoid grid: points of shape (N, dim), column-major, and log cell weights (N,)."""
    if model.latent_dim > 2:
        raise ValueError("quadrature oracles support latent_dim <= 2 only")
    grid = grid or GridSpec()
    points = (DEFAULT_GRID_POINTS[model.latent_dim] if grid.points is None
              else _count("points", grid.points, 2))
    axes, log_ws = [], []
    for lo, hi in model.quadrature_domain:
        h = (hi - lo) / (points - 1)
        if not h >= _MIN_CELL_ULPS * np.spacing(max(abs(lo), abs(hi))):
            raise ValueError(f"quadrature interval [{lo:.17g}, {hi:.17g}] is too narrow or not "
                             f"finite for {points} points: a cell must span 2^20 ulps of its ends")
        axis = np.linspace(lo, hi, points)
        w = np.full(points, h)
        w[0] = w[-1] = 0.5 * h
        axes.append(axis)
        log_ws.append(np.log(w))
    # column-major (N, dim): each coordinate is one contiguous column, so the
    # evaluators' elementwise ops never run along the short last axis
    mesh = np.stack(np.meshgrid(*axes, indexing="ij", copy=False))
    return mesh.reshape(len(axes), -1).T, sum(np.ix_(*log_ws)).ravel()


# Grid points per tile of _grid_tiles: the model is evaluated, and the curves
# reduced, a tile at a time, so no grid-length array of densities is formed.
_GRID_TILE = 1 << 15


def _grid_tiles(model, grid, params):
    """Per tile of grid points: (log ratio f = L1 - L0, base log weight L0 + log cell weight)."""
    pts, logw = quadrature_grid(model, grid)
    for start in range(0, logw.size, _GRID_TILE):
        tile = slice(start, start + _GRID_TILE)
        l0, f = _log_ratio(model, pts[tile], params, "points of a grid tile")
        yield f, l0 + logw[tile]


def _grid_sum(model, grid, params, curves=()) -> float:
    """log p(x) = log int p: paths._renyi_sum at alpha = 1 of each tile, then of the
    tiles' values.  ``curves`` (PathCurves) take the same tiles."""
    sums = []
    for f, base in _grid_tiles(model, grid, params):
        sums.append(_renyi_sum(1.0, f, base))
        for curve in curves:
            curve.add(f, base)
    return float(_renyi_sum(1.0, np.array(sums)))


def quadrature_oracle(model: LatentModel, alphas=(), betas=(),
                      grid: Optional[GridSpec] = None, params=None):
    """log p(x) and the exact local-evidence curve of each alpha at ``betas``.

    One pass over the grid serves all of them; log p(x) is the Renyi sum at
    alpha = 1, taken beside the curves (_grid_sum).
    """
    curves = [PathCurve(PathSpec("holder", alpha=alpha), betas) for alpha in alphas]
    return _grid_sum(model, grid, params, curves=curves), [curve.values() for curve in curves]


def quadrature_log_marginal(model: LatentModel, grid: Optional[GridSpec] = None,
                            params=None) -> float:
    """log integral of exp(log_target): the ground-truth log p(x)."""
    return _grid_sum(model, grid, params)


def quadrature_local_evidence_curve(model: LatentModel, alpha: float, betas,
                                    grid: Optional[GridSpec] = None,
                                    params=None) -> np.ndarray:
    """Exact local evidence E_(alpha,beta) at several beta, one grid pass."""
    curve = PathCurve(PathSpec("holder", alpha=alpha), betas)
    for f, base in _grid_tiles(model, grid, params):
        curve.add(f, base)
    return curve.values()
