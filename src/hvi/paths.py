"""Interpolation paths between proposal and target, evaluated in log space.

A path assigns to every temperature beta in [0, 1] an unnormalized density
pi_beta interpolating between the proposal pi_0 = q(z|x) (at beta = 0) and the
unnormalized target pi_1 = p(x, z) (at beta = 1).  Everything here is written
in terms of the two endpoint log densities L0 = log pi_0(z) and L1 = log pi_1(z),
which is what callers (estimators, quadrature oracles) have cached; the raw
densities are never exponentiated on their own scale.  Every quantity depends
on them only through f = L1 - L0 once L0 is split off as a base log weight,
so the path math below (``_path_math``: h = log pi_beta - L0 and the
integrand g for a vector of beta) is written once in terms of f.  Two
reductions share it:

  path_weights  the self-normalized weights of pi_beta and their product with
                the integrand, in blocks over beta: std errs, ESS, gradients,
                and the bound values that training reads from the same
                blocks as its gradients;
  PathCurve     only the local evidence sum w g per beta, reduced online
                over cache-sized tiles of points without forming the
                normalized weights: every quadrature curve and log p(x).
                Far from the geometric path its power-mean tiles skip h and
                g: they reduce the beta-independent terms of _holder_terms
                at one top per tile, with closed forms at beta in {0, 1}.

Supported families:

  geometric     U = beta*L1 + (1-beta)*L0, integrand f = L1 - L0.
  holder(a)     weighted power mean of order a:
                  exp(a*U) = beta*exp(a*L1) + (1-beta)*exp(a*L0),
                  integrand (1/a) * (e^(a*L1) - e^(a*L0)) / e^(a*U).
                a -> 0 recovers the geometric path; a = 1 is the arithmetic
                (Wasserstein) mean.
  wasserstein   alias for holder(1).
  perturbed(d)  first-order expansion of the holder path around a = 0:
                  U = U_geo + (d/2) * (beta*L1^2 + (1-beta)*L0^2 - U_geo^2),
                  integrand f + (1/2 - beta)*f^2*d.
                Both corrections are O(d); their residual against the exact
                holder(d) path is O(d^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .util import log_abs_expm1

__all__ = [
    "GEOMETRIC_ALPHA_CUTOFF",
    "PERTURBATION_GUARD",
    "BLOCK_ELEMENTS",
    "PathSpec",
    "PathBlock",
    "path_weights",
    "path_gradient_coeffs",
    "path_integrand_parts",
    "PathCurve",
]

# Below this |alpha| the power-mean branch has no working precision left and
# the path is numerically indistinguishable from geometric anyway.
GEOMETRIC_ALPHA_CUTOFF = 1e-6

# Soft validity guard for the perturbed path; the expansion only needs
# |delta| << 1, so large values warn instead of raising.
PERTURBATION_GUARD = 0.2

# Per path kind: the PathSpec field that carries its parameter, if any.
_KINDS = {"geometric": None, "holder": "alpha", "wasserstein": None, "perturbed": "delta"}


@dataclass(frozen=True)
class PathSpec:
    """Which interpolation family to use, plus its parameter.

    Only ``holder`` takes ``alpha`` and only ``perturbed`` takes ``delta``; a
    nonzero parameter the kind does not take is rejected.  ``holder(0)``
    behaves identically to ``geometric()`` and ``holder(1)`` identically to
    ``wasserstein()``.
    """

    kind: str
    alpha: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}; expected one of {tuple(_KINDS)}")
        for name in ("alpha", "delta"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not np.isfinite(value):
                raise ValueError("path parameters must be finite")
            if value != 0.0 and name != _KINDS[self.kind]:
                raise ValueError(f"path kind {self.kind!r} takes no {name}")
        if self.kind == "perturbed" and abs(self.delta) > PERTURBATION_GUARD:
            warnings.warn(
                f"perturbed path with |delta| = {abs(self.delta):g} > {PERTURBATION_GUARD}; "
                "the first-order expansion is only trustworthy for small delta",
                stacklevel=2,
            )

    @classmethod
    def geometric(cls) -> "PathSpec":
        return cls("geometric")

    @classmethod
    def holder(cls, alpha: float) -> "PathSpec":
        return cls("holder", alpha=alpha)

    @classmethod
    def wasserstein(cls) -> "PathSpec":
        return cls("wasserstein")

    @classmethod
    def perturbed(cls, delta: float) -> "PathSpec":
        return cls("perturbed", delta=delta)

    def branch(self) -> tuple[str, float]:
        """Resolve to the actual evaluation branch: (name, parameter)."""
        if self.kind == "geometric":
            return ("geometric", 0.0)
        if self.kind == "wasserstein":
            return ("holder", 1.0)
        if self.kind == "holder":
            if abs(self.alpha) < GEOMETRIC_ALPHA_CUTOFF:
                return ("geometric", 0.0)
            return ("holder", self.alpha)
        return ("perturbed", self.delta)

    @classmethod
    def from_json(cls, data) -> "PathSpec":
        if not isinstance(data, dict):
            raise ValueError(f"path must be an object with a 'kind', got {data!r}")
        extra = set(data) - {"kind", "alpha", "delta"}
        if extra:
            raise ValueError(f"unknown path keys: {sorted(extra)}")
        return cls(**{"kind": None, **data})


# Elements per pass of path_weights.  Fixed, so memory stays bounded when a
# dense grid comes through (the slope oracle's one beta over 801^2 points)
# while sample batches take every beta of a schedule in one vectorized pass.
BLOCK_ELEMENTS = 1 << 20


def _check_betas(betas) -> np.ndarray:
    betas = np.asarray(betas, dtype=float).reshape(-1)
    if not np.all((betas >= 0.0) & (betas <= 1.0)):
        raise ValueError(f"beta must lie in [0, 1], got {betas}")
    return betas


# ---------------------------------------------------------------------------
# The path math, written once in terms of the log ratio f = L1 - L0.  beta is
# a scalar or a column of temperatures broadcasting against f.
# ---------------------------------------------------------------------------

def _integrand(branch: str, param: float, f, beta):
    """g = dh/dbeta on the geometric and perturbed branches (never overflows)."""
    if branch == "geometric":
        return f
    return f + (0.5 - beta) * param * (f * f)


def _holder_log_scale(alpha: float, f):
    """log |e^(alpha f) - 1| - log |alpha|, so that log |g| = this - alpha*h."""
    return (alpha * np.maximum(f, 0.0) + log_abs_expm1(-alpha * np.abs(f))
            - math.log(abs(alpha)))


def _gradient_coeffs(branch: str, param: float, f, beta, h, log_w):
    """(dh/df, w * dg/df) for normalized log weights log_w.

    grad log pi_beta = grad L0 + dh/df * grad f and grad g = dg/df * grad f.
    On the holder branch, with A = alpha*h = log(beta e^(alpha f) + 1 - beta),
    dh/df = beta e^(alpha f - A) and dg/df = e^(alpha f - 2A); the product
    with w is formed in log space, since e^(-2A) overflows where w underflows.
    """
    if branch == "geometric":
        return np.broadcast_to(beta, np.shape(h)), np.exp(log_w)
    if branch == "perturbed":
        return (beta * (1.0 + param * (1.0 - beta) * f),
                np.exp(log_w) * (1.0 + param * (1.0 - 2.0 * beta) * f))
    a_h = param * h
    with np.errstate(divide="ignore"):
        return (np.exp(np.log(beta) + param * f - a_h),
                np.exp(log_w + param * f - 2.0 * a_h))


class PathBlock(NamedTuple):
    """One pass of path_weights; arrays are (len(betas), N)."""

    betas: np.ndarray   # (B, 1) column of temperatures
    h: np.ndarray       # log pi_beta - L0
    log_w: np.ndarray   # self-normalized log weights
    w: np.ndarray       # self-normalized weights
    wg: np.ndarray      # w * integrand


# On the power-mean branch, a beta with |alpha| * min(beta, 1 - beta) below
# this forms its weighted integrand in log space: elsewhere the integrand is
# at most 1 / (|alpha| min(beta, 1 - beta)) <= 2^58 in magnitude, so a weight
# that underflows leaves w * integrand below 2^58 times the smallest normal.
_EDGE_SCALE = 2.0 ** -58

# Largest |alpha f| on the near-geometric form of the power-mean branch.
_NEAR_LIMIT = math.log(2.0)


def _holder_terms(alpha: float, f):
    """The beta-independent arrays of the power-mean branch, with s = alpha*f.

    With e^(alpha h) = 1 + beta (e^s - 1) and integrand g = (e^s - 1) / (alpha e^(alpha h)):

    near form, when every |s| <= log 2: (e, e / alpha) with e = expm1(s).  Then
    beta e >= -1/2, so alpha h = log1p(beta e) keeps full relative precision
    however small it is, and g = (e / alpha) / (1 + beta e).

    far form: (m, u, v, p) with m = max(s, 0), u = e^(-m), v = e^(s - m) (one
    of the two is 1) and p = (v - u) / alpha, formed with expm1 since v - u
    cancels at small |s|; p carries the sign of f.  Then alpha h = m + log d
    with d = (1 - beta) u + beta v, and g = p / d.
    """
    s = alpha * f
    abs_s = np.abs(s)
    if abs_s.max(initial=0.0) <= _NEAR_LIMIT:
        e = np.expm1(s)
        return e, e / alpha
    m = np.maximum(s, 0.0)
    u = np.exp(-m)
    v = np.exp(s - m)
    p = np.expm1(np.negative(abs_s, out=abs_s))
    p *= -1.0 / abs(alpha)
    return m, u, v, np.copysign(p, f, out=p)


def _normalized(h, base):
    """(log_w, w): self-normalized log weights and weights proportional to exp(h + base)."""
    log_w = h + base
    top = log_w.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ValueError("all importance weights vanished; cannot self-normalize")
    log_w -= top
    w = np.exp(log_w)
    total = w.sum(axis=1, keepdims=True)
    w /= total
    log_w -= np.log(total)
    return log_w, w


def _holder_near(alpha: float, terms, beta):
    """(h, g) at the column of temperatures beta, near form of _holder_terms."""
    e, p = terms
    x = beta * e
    g = np.add(x, 1.0)
    np.divide(p, g, out=g)
    h = np.log1p(x, out=x)
    h /= alpha
    return h, g


def _holder_far(alpha: float, f, terms, beta, edges):
    """(h, g, edges) at the column of temperatures beta, far form of _holder_terms.

    ``edges`` lists the rows whose weighted integrand is formed in log space;
    there g reads 0, and the returned edges pair each such row with the two
    parts of log |g|, m - alpha h and log |p| (g has the sign of f).
    """
    m, u, v, p = terms
    # only edge rows can divide by zero or overflow below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # d sums two nonnegative terms and d >= min(beta, 1 - beta): no
        # cancellation, and no underflow off the endpoints
        d = (1.0 - beta) * u + beta * v
        g = p / d
        a = np.log(d, out=d)
        a += m  # alpha h
        for row in edges:
            # the exact endpoints, where d can underflow: alpha h = beta * alpha f
            if beta[row, 0] == 0.0:
                a[row] = 0.0
            elif beta[row, 0] == 1.0:
                np.multiply(alpha, f, out=a[row])
            g[row] = 0.0
        # log |g| = log |p| + m - alpha h, since g may overflow exactly where w underflows
        log_abs_p = np.log(np.abs(p)) if edges else None
        edges = [(row, m - a[row], log_abs_p) for row in edges]
    return np.divide(a, alpha, out=a), g, edges


def _path_math(branch: str, param: float, f, betas, rows: int):
    """The path math at log ratios f, in chunks of ``rows`` betas: yields (beta, h, g, edges).

    beta is the chunk's column of temperatures, h = log pi_beta - L0 and g the
    integrand, (len(beta), f.size) or f itself on the geometric branch.
    ``edges`` lists the rows whose w g is formed in log space, with the parts
    of their log |g| (g reads 0 there; see _holder_far).  On the power-mean
    branch the beta-independent terms are formed once, and the near or far
    form is chosen from this f.
    """
    if branch != "holder":
        for start in range(0, betas.size, rows):
            beta = betas[start:start + rows, None]
            h = beta * f  # h = log pi_beta - L0
            if branch == "perturbed":
                # beta*L1^2 + (1-beta)*L0^2 - U_geo^2 = beta*(1-beta)*f^2
                h += (0.5 * param) * beta * (1.0 - beta) * (f * f)
            yield beta, h, _integrand(branch, param, f, beta), ()
        return
    yield from _holder_math(param, f, _holder_terms(param, f), betas, rows)


def _holder_math(alpha: float, f, terms, betas, rows: int):
    """_path_math on the power-mean branch, from the terms of _holder_terms(alpha, f)."""
    if len(terms) == 2:  # the near form
        for start in range(0, betas.size, rows):
            beta = betas[start:start + rows, None]
            yield beta, *_holder_near(alpha, terms, beta), ()
        return
    edges = [k for k, b in enumerate(betas.tolist())
             if abs(alpha) * min(b, 1.0 - b) < _EDGE_SCALE]
    for start in range(0, betas.size, rows):
        beta = betas[start:start + rows, None]
        yield beta, *_holder_far(alpha, f, terms, beta,
                                 [k - start for k in edges if start <= k < start + rows])


def path_weights(spec: PathSpec, betas, log_ratio, base=0.0):
    """Self-normalized path weights and weighted integrand, blockwise over beta.

    ``log_ratio`` is f = L1 - L0 per point and ``base`` an extra log weight per
    point: 0 for proposal samples, L0 + log cell weight on a quadrature grid.
    The weights at temperature beta are proportional to exp(base + h); yields
    one PathBlock per pass of at most BLOCK_ELEMENTS elements (and at least one
    beta), and keeps no reference to a block it has yielded.

    On the power-mean branch the beta-independent terms of _holder_terms are
    formed once per call, so each beta takes one log per element, and the
    weighted integrand is w times a quotient whose divisor cannot cancel.
    Near the geometric path (every |alpha f| <= log 2) alpha h = log1p(beta
    expm1(alpha f)).  Otherwise alpha h = m + log d with d = (1 - beta) u +
    beta v; at beta in {0, 1}, where d can underflow, alpha h is set exactly
    to beta * alpha f, and there (and within 2^-58 / |alpha| of them) the
    weighted integrand is formed in log space, since the integrand can
    overflow exactly where the weight underflows.
    """
    betas = _check_betas(betas)
    f = np.asarray(log_ratio, dtype=float)
    rows = max(1, BLOCK_ELEMENTS // max(f.size, 1))
    for beta, h, g, edges in _path_math(*spec.branch(), f, betas, rows):
        log_w, w = _normalized(h, base)
        wg = w * g if g is f else np.multiply(w, g, out=g)
        for row, log_wg, log_abs_p in edges:
            # log |w g| = log w + log |g|; w g has the sign of f
            log_wg += log_w[row]
            log_wg += log_abs_p
            np.copysign(np.exp(log_wg, out=log_wg), f, out=wg[row])
        yield PathBlock(beta, h, log_w, w, wg)


def path_gradient_coeffs(spec: PathSpec, block: PathBlock, log_ratio):
    """(dh/df, w * dg/df) for one PathBlock of path_weights over ``log_ratio``.

    With these, grad log pi_beta = grad L0 + dh/df * grad f and
    w * grad g = w * dg/df * grad f, where f = L1 - L0.
    """
    return _gradient_coeffs(*spec.branch(), np.asarray(log_ratio, dtype=float),
                            block.betas, block.h, block.log_w)


def path_integrand_parts(spec: PathSpec, block: PathBlock, log_ratio):
    """(sign, log |g|) of the integrand g for one PathBlock of path_weights over ``log_ratio``.

    For moments of g beyond w * g: on the power-mean branch g can overflow
    exactly where the weight underflows, so pair log |g| with block.log_w.
    """
    branch, param = spec.branch()
    f = np.asarray(log_ratio, dtype=float)
    if branch == "holder":
        return np.sign(f), _holder_log_scale(param, f) - param * block.h
    g = _integrand(branch, param, f, block.betas)
    with np.errstate(divide="ignore"):
        return np.sign(g), np.log(np.abs(g))


# Elements per tile of PathCurve: its passes over a tile of this many float64
# (1 MiB) run from a core's 2 MiB L2 instead of main memory.
_TILE_ELEMENTS = BLOCK_ELEMENTS >> 3

# The lowest float: subtracting it from -inf leaves -inf, where subtracting
# -inf would give nan.
_LOWEST = np.finfo(float).min

# Largest gap max(|1/alpha|, |1/alpha - 1|) * |log min(beta, 1 - beta)| at which
# a far-form row of PathCurve shares its tile's top (about 651): every term it
# takes then lies within e^(+-gap) of the top, so sums of up to 2^64 terms
# times |p| <= 1 / GEOMETRIC_ALPHA_CUTOFF stay finite, and the row's largest
# term stays far above the subnormals.
_SHARED_GAP = math.log(np.finfo(float).max) - math.log(2.0 ** 64 / GEOMETRIC_ALPHA_CUTOFF)


def _tile_sums(log_u, g, edges, f):
    """(top, total, level, moment) of one tile: per row, sum e^log_u = total e^top
    and sum e^log_u g = moment e^level.

    ``log_u`` (rows of h + base) is consumed.  Edge rows (see _path_math) form
    u g in log space, brought to a peak of 0 so that no product overflows;
    elsewhere level = top.  A row that reads -inf gives sums of 0.
    """
    top = log_u.max(axis=1)
    log_u -= np.maximum(top, _LOWEST)[:, None]
    level, moment = top.copy(), np.zeros(top.size)
    for row, log_g, log_abs_p in edges:  # g reads 0 there
        log_g += log_u[row]
        log_g += log_abs_p
        peak = log_g.max()
        if math.isfinite(peak):
            log_g -= peak
            moment[row] = np.copysign(np.exp(log_g, out=log_g), f, out=log_g).sum()
        level[row] = peak + top[row]  # -inf where every product is 0
    u = np.exp(log_u, out=log_u)
    moment += np.einsum("ij,ij->i" if np.ndim(g) == 2 else "ij,j->i", u, g)
    return top, u.sum(axis=1), level, moment


def _end_sums(log_u, log_ug, p):
    """(top, total, level, moment) of an endpoint row of a far-form tile, each
    sum at its own top: sum e^log_u = total e^top and sum e^log_ug sign(p) =
    moment e^level.  ``log_ug`` (log |u g|) is consumed."""
    top, level = log_u.max(), log_ug.max()
    total = np.exp(log_u - max(top, _LOWEST)).sum()
    log_ug -= max(level, _LOWEST)
    return top, total, level, np.copysign(np.exp(log_ug, out=log_ug), p, out=log_ug).sum()


def _merge(level, total, tile_level, tile_total):
    """Two sums held as total * e^level, merged into one at the larger level."""
    new = np.maximum(level, tile_level)
    shift = np.maximum(new, _LOWEST)  # a sum at level -inf is 0 and stays 0
    return new, total * np.exp(level - shift) + tile_total * np.exp(tile_level - shift)


class PathCurve:
    """The local evidence sum_s w g at each beta, reduced online over tiles of points.

    Feed the points with ``add`` in any split; ``values`` gives the curve and
    ``log_normalizer`` log sum_s exp(h + base) per beta.  Each tile is at most
    _TILE_ELEMENTS (beta rows x point columns) and never forms the normalized
    weights: per beta it keeps sum u and sum u g with u = exp(h + base - t) at
    a running top t, rescaled when t grows (the online normalizer of Milakov
    and Gimelshein, arXiv:1805.02867).  The geometric, perturbed and
    near-geometric power-mean tiles take the path math of path_weights, with
    a top per row; on the rows path_weights forms w g in log space, where u g
    can overflow, sum u g keeps a scale of its own.  Far-form power-mean tiles
    take a reduction of their own (_add_far): one top per tile for every row
    whose terms stay within the float range of it, and closed forms at
    beta = 0 and beta = 1.  A tile whose log weights all read -inf adds nothing.
    """

    def __init__(self, spec: PathSpec, betas):
        self.branch, self.param = spec.branch()
        self.betas = _check_betas(betas)
        self.top = np.full(self.betas.size, -np.inf)   # sum exp(h + base) = total e^top
        self.total = np.zeros(self.betas.size)
        self.level = np.full(self.betas.size, -np.inf)  # sum exp(h + base) g = moment e^level
        self.moment = np.zeros(self.betas.size)
        self._rows = np.arange(self.betas.size)
        if self.branch == "holder":
            # the far form's rows: those that share their tile's top, the
            # endpoints, and the rest, which keep tops of their own
            kappa = 1.0 / self.param
            with np.errstate(divide="ignore"):
                gap = -np.log(np.minimum(self.betas, 1.0 - self.betas))
            gap *= max(abs(kappa), abs(kappa - 1.0))
            inner = (self.betas > 0.0) & (self.betas < 1.0)
            self._shared = np.flatnonzero(gap <= _SHARED_GAP)
            self._ends = np.flatnonzero(~inner)
            self._apart = np.flatnonzero(inner & (gap > _SHARED_GAP))
            self._work = None  # the shared rows' (rows x cols) buffer

    def add(self, log_ratio, base=0.0) -> "PathCurve":
        """Reduce the points with log ratios ``log_ratio`` and log weights ``base`` (path_weights')."""
        f = np.asarray(log_ratio, dtype=float).reshape(-1)
        base = np.asarray(base, dtype=float)
        cols = max(1, _TILE_ELEMENTS // max(self.betas.size, 1))
        rows = max(1, _TILE_ELEMENTS // max(min(cols, f.size), 1))
        for start in range(0, f.size, cols):
            tile = f[start:start + cols]
            tile_base = base if base.ndim == 0 else base.reshape(-1)[start:start + cols]
            if self.branch != "holder":
                chunks = _path_math(self.branch, self.param, tile, self.betas, rows)
                self._add_rows(self._rows, chunks, tile, tile_base)
                continue
            terms, k = _holder_terms(self.param, tile), self._rows
            if len(terms) == 4:  # the far form: the rest take the path math
                self._add_far(tile, np.broadcast_to(tile_base, tile.shape), terms, rows)
                k = self._apart
            chunks = _holder_math(self.param, tile, terms, self.betas[k], rows)
            self._add_rows(k, chunks, tile, tile_base)
        return self

    def _merge_sums(self, k, top, total, level, moment):
        self.top[k], self.total[k] = _merge(self.top[k], self.total[k], top, total)
        self.level[k], self.moment[k] = _merge(self.level[k], self.moment[k], level, moment)

    def _add_rows(self, rows, chunks, f, base):
        """Reduce the chunks of _path_math over the points f into the rows ``rows``."""
        first = 0
        for beta, h, g, edges in chunks:
            k = rows[first:first + beta.size]
            first += beta.size
            h += base
            self._merge_sums(k, *_tile_sums(h, g, edges, f))

    def _add_far(self, f, base, terms, rows):
        """Reduce the shared rows and the endpoints over points f on the far form.

        With the terms (m, u, v, p) of _holder_terms, kappa = 1/alpha and
        d = (1 - beta) u + beta v, h + base = c + kappa log d and g = p / d,
        where c = base + kappa m does not depend on beta.  The shared rows
        take the one top t = max c: with y = exp((kappa - 1) log d + c - t),
        sum u = sum y d = (1 - beta) y @ u + beta y @ v and sum u g = y @ p,
        so neither g nor a row's own top is formed; at kappa = 1 (the
        arithmetic mean) y does not depend on beta.  The endpoints are closed
        forms, each sum at its own top: at beta = 0, h = 0 and g = p e^m; at
        beta = 1, h = f and g = p e^(m - alpha f).
        """
        m, u, v, p = terms
        kappa = 1.0 / self.param
        c = kappa * m
        c += base
        top = c.max()
        c -= max(top, _LOWEST)
        uvp = np.stack((u, v, p))
        if self._work is None:
            self._work = np.empty(_TILE_ELEMENTS)
        for start in range(0, self._shared.size, rows):
            k = self._shared[start:start + rows]
            beta = self.betas[k]
            if kappa == 1.0:
                y = np.exp(c)
            else:
                y = self._work[:k.size * f.size].reshape(k.size, f.size)
                # d: each entry sums two nonnegative terms, one matrix product
                np.matmul(np.stack((1.0 - beta, beta), axis=1), uvp[:2], out=y)
                np.log(y, out=y)
                y *= kappa - 1.0
                y += c
                np.exp(y, out=y)
            sums = (uvp @ y.T).reshape(3, -1)  # y @ u, y @ v, y @ p per row
            total = (1.0 - beta) * sums[0] + beta * sums[1]
            self._merge_sums(k, top, total, top, sums[2])
        if self._ends.size:
            with np.errstate(divide="ignore"):
                log_abs_p = np.log(np.abs(p))
        for k in self._ends:
            if self.betas[k] == 0.0:
                self._merge_sums(k, *_end_sums(base, base + m + log_abs_p, p))
            else:
                log_u = base + f
                log_ug = log_u - np.minimum(self.param * f, 0.0)
                self._merge_sums(k, *_end_sums(log_u, np.add(log_ug, log_abs_p, out=log_ug), p))

    def _check(self):
        if not np.all(np.isfinite(self.top)):
            raise ValueError("all importance weights vanished; cannot self-normalize")

    def values(self) -> np.ndarray:
        """sum_s w g at each beta, the weights normalized over every point added."""
        self._check()
        return self.moment / self.total * np.exp(self.level - self.top)

    def log_normalizer(self) -> np.ndarray:
        """log sum_s exp(h + base) at each beta, over every point added."""
        self._check()
        return self.top + np.log(self.total)
