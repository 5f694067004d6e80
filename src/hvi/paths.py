"""Interpolation paths between proposal and target, evaluated in log space.

A path assigns to every temperature beta in [0, 1] an unnormalized density
pi_beta interpolating between the proposal pi_0 = q(z|x) (at beta = 0) and the
unnormalized target pi_1 = p(x, z) (at beta = 1).  Everything here is written
in terms of the two endpoint log densities L0 = log pi_0(z) and L1 = log pi_1(z),
which is what callers (estimators, quadrature oracles) have cached; the raw
densities are never exponentiated on their own scale.  Every quantity depends
on them only through f = L1 - L0 once L0 is split off as a base log weight,
so the path math below (``_path_math``: h = log pi_beta - L0 and the
integrand g for a vector of beta, or g's parts p and log d on the far form
of the power-mean branch) is written once in terms of f.  Two reductions
share it:

  path_weights  the self-normalized weights of pi_beta and their product with
                the integrand, in blocks over beta: std errs, ESS, gradients,
                and the bound values that training reads from the same
                blocks as its gradients;
  PathCurve     only the local evidence sum w g per beta, reduced online
                over cache-sized tiles of points without forming the
                normalized weights: every quadrature curve.
                Far from the geometric path its power-mean tiles never form
                g: rows that share the tile's top reduce the
                beta-independent terms of _holder_terms, and the others
                reduce in log space with tops of their own.

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
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GEOMETRIC_ALPHA_CUTOFF",
    "PERTURBATION_GUARD",
    "BLOCK_ELEMENTS",
    "PathSpec",
    "PathBlock",
    "path_weights",
    "path_gradient_coeffs",
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


def _outside_caller() -> int:
    """The stacklevel at which a warn in the caller names the first frame outside hvi (a
    dataclass __init__ runs with hvi globals); warn's skip_file_prefixes needs Python 3.12."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] == "hvi":
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class PathSpec:
    """Which interpolation family to use, plus its parameter.

    Only ``holder`` takes ``alpha`` and only ``perturbed`` takes ``delta``; a
    nonzero parameter the kind does not take is rejected.  ``PathSpec("holder",
    alpha=0)`` behaves identically to ``PathSpec("geometric")`` and alpha = 1
    identically to ``PathSpec("wasserstein")``.
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
                stacklevel=_outside_caller(),
            )

    def branch(self) -> tuple[str, float]:
        """Resolve to the actual evaluation branch: (name, parameter)."""
        if self.kind == "perturbed":
            return ("perturbed", self.delta)
        alpha = 1.0 if self.kind == "wasserstein" else self.alpha  # 0 on the geometric kind
        if abs(alpha) < GEOMETRIC_ALPHA_CUTOFF:
            return ("geometric", 0.0)
        return ("holder", alpha)


# Elements per pass of path_weights.  Fixed, so memory stays bounded however
# many points come through, while sample batches take every beta of a
# schedule in one vectorized pass.
BLOCK_ELEMENTS = 1 << 20


def _check_betas(betas) -> np.ndarray:
    betas = np.asarray(betas, dtype=float).reshape(-1)
    if not betas.size:
        raise ValueError("betas must list at least one temperature")
    if np.count_nonzero((betas >= 0.0) & (betas <= 1.0)) < betas.size:
        raise ValueError(f"beta must lie in [0, 1], got {betas}")
    return betas


def _check_float_range(spec: PathSpec, values, betas=None, quantity="local evidence"):
    """``values`` (a row per beta of ``betas``, or one row), rejected beyond the float
    range with a ValueError that names the path parameter and the first such beta."""
    values = np.asarray(values)
    if np.count_nonzero(np.isfinite(values)) < values.size:  # half the call cost of all()
        i = np.flatnonzero(~np.isfinite(values))[0]
        name = _KINDS[spec.kind]
        where = [] if name is None else [f"{name} = {getattr(spec, name):g}"]
        if betas is not None:  # entry i lies in row i // (values.size / len(betas))
            where.append(f"beta = {np.ravel(betas)[i * np.size(betas) // values.size]:g}")
        raise ValueError(f"{quantity} at {', '.join(where)} reads {values.flat[i]}: "
                         "beyond the float range")
    return values


def _check_finite(name: str, values: np.ndarray, unit: str = "samples"):
    """``values`` of ``name`` if finite, else a ValueError naming a bad value and its count."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < values.size:
        bad = values[~finite]
        raise ValueError(f"{name} reads {bad[0]:g} at {bad.size} of {values.size} {unit}")
    return values


def _log_ratio(model, points, params, unit: str = "samples"):
    """(L0, f = L1 - L0) at ``points``, from the model's log_proposal L0 and log_target L1.

    Both densities and f are formed with numpy's overflow warnings off, so a
    density beyond the float range reads as its infinity; a non-finite f is a
    ValueError (_check_finite) naming the first of log_proposal, log_target
    and log_ratio not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        l0, l1 = model.log_proposal(points, params), model.log_target(points, params)
        f = l1 - l0
    if np.count_nonzero(np.isfinite(f)) < f.size:
        for name, values in (("log_proposal", l0), ("log_target", l1), ("log_ratio", f)):
            _check_finite(name, values, unit)
    return l0, f


def _check_normalizable(top):
    """``top``, the largest log weight of each row, rejected where every weight vanished."""
    if not np.all(np.isfinite(top)):
        raise ValueError("all importance weights vanished; cannot self-normalize")
    return top


# ---------------------------------------------------------------------------
# The path math, written once in terms of the log ratio f = L1 - L0.  beta is
# a scalar or a column of temperatures broadcasting against f.
# ---------------------------------------------------------------------------

class PathBlock(NamedTuple):
    """One pass of path_weights; arrays are (len(betas), N)."""

    betas: np.ndarray   # (B, 1) column of temperatures
    h: np.ndarray       # log pi_beta - L0
    log_w: np.ndarray   # self-normalized log weights
    w: np.ndarray       # self-normalized weights
    wg: np.ndarray      # w * integrand


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


def _normalized(spec: PathSpec, beta, h, base):
    """(log_w, w): self-normalized log weights and weights proportional to exp(h + base).
    A row top of +inf or nan, where the path math overflowed, names the path parameter
    and beta (_check_float_range); a top of -inf, where every weight vanished, does not."""
    log_w = h + base
    top = log_w.max(axis=1, keepdims=True)
    if np.count_nonzero(np.isfinite(top)) < top.size:
        _check_float_range(spec, np.where(top == -np.inf, 0.0, top), beta, "largest log weight")
        _check_normalizable(top)
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


def _holder_far(alpha: float, f, terms, beta):
    """(h, p, log d) at the column of temperatures beta, far form of _holder_terms.

    The integrand is g = p / d.  It can overflow exactly where a weight
    underflows, so callers take its products in log space, through log d.
    At beta in {0, 1}, where d can underflow, log d is exact: -m and
    min(alpha f, 0).
    """
    m, u, v, p = terms
    # d sums two nonnegative terms and d >= min(beta, 1 - beta): no
    # cancellation, and no underflow off the endpoints
    log_d = (1.0 - beta) * u + beta * v
    with np.errstate(divide="ignore"):
        np.log(log_d, out=log_d)
    for row in np.flatnonzero(beta == 0.0):
        np.negative(m, out=log_d[row])
    for row in np.flatnonzero(beta == 1.0):
        np.minimum(alpha * f, 0.0, out=log_d[row])
    h = np.add(log_d, m)  # alpha h
    return np.divide(h, alpha, out=h), p, log_d


def _path_math(branch: str, param: float, f, betas, rows: int, terms=None):
    """The path math at log ratios f, in chunks of ``rows`` betas: yields (beta, h, g, log_d).

    beta is the chunk's column of temperatures and h = log pi_beta - L0,
    (len(beta), f.size).  On the far form of the power-mean branch g is the
    numerator p of the integrand p / d and log_d is log d (see _holder_far);
    elsewhere g is the integrand, or f itself on the geometric branch, and
    log_d is None.  On the power-mean branch the beta-independent ``terms``
    of _holder_terms are formed once unless given, and the near or far form
    is chosen from this f.
    """
    if branch == "holder" and terms is None:
        terms = _holder_terms(param, f)
    for start in range(0, betas.size, rows):
        beta = betas[start:start + rows, None]
        if branch == "holder" and len(terms) == 4:
            yield beta, *_holder_far(param, f, terms, beta)
        elif branch == "holder":
            yield beta, *_holder_near(param, terms, beta), None
        else:
            h, g = beta * f, f  # h = log pi_beta - L0 and g = dh/dbeta
            if branch == "perturbed":
                # beta*L1^2 + (1-beta)*L0^2 - U_geo^2 = beta*(1-beta)*f^2
                h += (0.5 * param) * beta * (1.0 - beta) * (f * f)
                g = f + (0.5 - beta) * param * (f * f)
            yield beta, h, g, None


def path_weights(spec: PathSpec, betas, log_ratio, base=0.0):
    """Self-normalized path weights and weighted integrand, blockwise over beta.

    ``log_ratio`` is f = L1 - L0 per point and ``base`` an extra log weight per
    point: 0 for proposal samples, L0 + log cell weight on a quadrature grid.
    The weights at temperature beta are proportional to exp(base + h); yields
    one PathBlock per pass of at most BLOCK_ELEMENTS elements (and at least one
    beta), and keeps no reference to a block it has yielded.

    On the power-mean branch the beta-independent terms of _holder_terms are
    formed once per call, so each beta takes one log per element.  Near the
    geometric path (every |alpha f| <= log 2) alpha h = log1p(beta
    expm1(alpha f)) and the weighted integrand is w times a quotient whose
    divisor cannot cancel.  Otherwise alpha h = m + log d with d = (1 - beta)
    u + beta v, exact at beta in {0, 1} where d can underflow, and the
    weighted integrand is p e^(log w - log d), since the integrand p / d can
    overflow exactly where the weight underflows.
    """
    betas = _check_betas(betas)
    f = np.asarray(log_ratio, dtype=float)
    rows = max(1, BLOCK_ELEMENTS // max(f.size, 1))
    for beta, h, g, log_d in _path_math(*spec.branch(), f, betas, rows):
        log_w, w = _normalized(spec, beta, h, base)
        if log_d is None:
            wg = w * g if g is f else np.multiply(w, g, out=g)
        else:  # w g = p e^(log w - log d)
            wg = np.exp(np.subtract(log_w, log_d, out=log_d), out=log_d)
            wg *= g
        yield PathBlock(beta, h, log_w, w, wg)


def path_gradient_coeffs(spec: PathSpec, block: PathBlock, log_ratio):
    """(dh/df, w * dg/df) for one PathBlock of path_weights over ``log_ratio``.

    With these, grad log pi_beta = grad L0 + dh/df * grad f and
    w * grad g = w * dg/df * grad f, where f = L1 - L0.  On the holder branch,
    with A = alpha*h = log(beta e^(alpha f) + 1 - beta), dh/df = beta e^(alpha f - A)
    and dg/df = e^(alpha f - 2A); the product with w is formed in log space,
    since e^(-2A) overflows where w underflows.
    """
    branch, param = spec.branch()
    f, beta, h, log_w = np.asarray(log_ratio, dtype=float), block.betas, block.h, block.log_w
    if branch == "geometric":
        return np.broadcast_to(beta, np.shape(h)), np.exp(log_w)
    if branch == "perturbed":
        return (beta * (1.0 + param * (1.0 - beta) * f),
                np.exp(log_w) * (1.0 + param * (1.0 - 2.0 * beta) * f))
    a_h, s = param * h, param * f
    with np.errstate(divide="ignore"):
        return np.exp(np.log(beta) + s - a_h), np.exp(log_w + s - 2.0 * a_h)


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


def _tile_sums(log_u, g):
    """(top, total, top, moment) of one tile: per row, sum e^log_u = total e^top
    and sum e^log_u g = moment e^top.

    ``log_u`` (rows of h + base) is consumed.  A row that reads -inf gives
    sums of 0.
    """
    top = log_u.max(axis=1)
    log_u -= np.maximum(top, _LOWEST)[:, None]
    u = np.exp(log_u, out=log_u)
    moment = np.einsum("ij,ij->i" if np.ndim(g) == 2 else "ij,j->i", u, g)
    return top, u.sum(axis=1), top, moment


def _row_sum(log_x, sign=None):
    """(level, total) of one row at its top: sum e^log_x (times sign) = total e^level.
    The signed sum is an einsum: a BLAS dot product's order of summation, and
    so its bits, would follow the BLAS thread count."""
    level = log_x.max()
    x = np.exp(log_x - max(level, _LOWEST))
    return level, x.sum() if sign is None else np.einsum("i,i->", x, sign)


def _merge(level, total, tile_level, tile_total):
    """Two sums held as total * e^level, merged into one at the larger level."""
    new = np.maximum(level, tile_level)
    shift = np.maximum(new, _LOWEST)  # a sum at level -inf is 0 and stays 0
    return new, total * np.exp(level - shift) + tile_total * np.exp(tile_level - shift)


def _renyi_sum(alpha: float, f, base=0.0, count=1) -> float:
    """(1/alpha) log (sum e^(alpha f + base) / count), alpha > 0, as max f + (1/alpha) log
    (sum e^s / count) with s = alpha (f - max f) + base: a gap that overflows reads -inf.
    A mean (count = f.size) whose every s >= -log 2 takes the near form max f + (1/alpha)
    log1p(sum expm1(s) / count): e^s rounds a tiny s to 1, so the sum would read max f."""
    top = f.max()
    with np.errstate(over="ignore"):
        s = alpha * (f - top) + base
        if count == s.size and s.min() >= -_NEAR_LIMIT:
            return top + np.log1p(np.expm1(s).sum() / count) / alpha
        level, total = _row_sum(s)
        return top + (level + np.log(total / count)) / alpha


class PathCurve:
    """The local evidence sum_s w g at each beta, reduced online over tiles of points.

    Feed the points with ``add`` in any split; ``values`` gives the curve.  Each
    tile is at most _TILE_ELEMENTS (beta rows x point columns) and never forms
    the normalized weights: per beta it keeps sum u and sum u g with
    u = exp(h + base - t) at a running top t, rescaled when t grows (the online
    normalizer of Milakov and Gimelshein, arXiv:1805.02867).  The geometric, perturbed and
    near-geometric power-mean tiles take the path math of path_weights, with
    a top per row.  Far-form power-mean tiles take a reduction of their own
    (_add_far): one top per tile for every row whose terms stay within the
    float range of it, and for the rest a top per row, with sum u g formed
    in log space.  A tile whose log weights all read -inf adds nothing.
    """

    def __init__(self, spec: PathSpec, betas):
        self.spec = spec
        self.branch, self.param = spec.branch()
        self.betas = _check_betas(betas)
        self.top = np.full(self.betas.size, -np.inf)   # sum exp(h + base) = total e^top
        self.total = np.zeros(self.betas.size)
        self.level = np.full(self.betas.size, -np.inf)  # sum exp(h + base) g = moment e^level
        self.moment = np.zeros(self.betas.size)
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

    def add(self, log_ratio, base=0.0) -> "PathCurve":
        """Reduce the points with log ratios ``log_ratio`` and log weights ``base`` (path_weights')."""
        f = np.asarray(log_ratio, dtype=float).reshape(-1)
        base = np.asarray(base, dtype=float)
        # every beta in one pass per tile: more than _TILE_ELEMENTS betas take
        # tiles of one point
        cols = max(1, _TILE_ELEMENTS // self.betas.size)
        # a term beyond the float range reads as its infinity, and values() names it
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, f.size, cols):
                tile = f[start:start + cols]
                tile_base = base if base.ndim == 0 else base.reshape(-1)[start:start + cols]
                terms = _holder_terms(self.param, tile) if self.branch == "holder" else None
                if terms is not None and len(terms) == 4:
                    self._add_far(tile, np.broadcast_to(tile_base, tile.shape), terms)
                    continue
                ((_, h, g, _),) = _path_math(self.branch, self.param, tile, self.betas,
                                              self.betas.size, terms)
                h += tile_base
                self._merge_sums(slice(None), *_tile_sums(h, g))
        return self

    def _merge_sums(self, k, top, total, level, moment):
        self.top[k], self.total[k] = _merge(self.top[k], self.total[k], top, total)
        self.level[k], self.moment[k] = _merge(self.level[k], self.moment[k], level, moment)

    def _add_far(self, f, base, terms):
        """Reduce the points f of a far-form tile.

        With the terms (m, u, v, p) of _holder_terms, kappa = 1/alpha and
        d = (1 - beta) u + beta v, h + base = c + kappa log d and g = p / d,
        where c = base + kappa m does not depend on beta.  The shared rows
        take the one top t = max c: with y = exp((kappa - 1) log d + c - t),
        sum u = sum y d = (1 - beta) y @ u + beta y @ v and sum u g = y @ p,
        so neither g nor a row's own top is formed; at kappa = 1 (the
        arithmetic mean) y does not depend on beta.  Every other row takes
        its own tops, with log |u g| = h + base + log |p| - log d; at the
        endpoints h and log d are closed forms (h = 0 and log d = -m at
        beta = 0, h = f and log d = min(alpha f, 0) at beta = 1).
        """
        m, u, v, p = terms
        kappa = 1.0 / self.param
        c = kappa * m
        c += base
        top = c.max()
        c -= max(top, _LOWEST)
        uvp = np.stack((u, v, p))
        k = self._shared
        beta = self.betas[k]
        if kappa == 1.0:
            y = np.exp(c)
        else:
            # d: each entry sums two nonnegative terms, one matrix product
            y = np.stack((1.0 - beta, beta), axis=1) @ uvp[:2]
            np.log(y, out=y)
            y *= kappa - 1.0
            y += c
            np.exp(y, out=y)
        sums = (uvp @ y.T).reshape(3, -1)  # y @ u, y @ v, y @ p per row
        total = (1.0 - beta) * sums[0] + beta * sums[1]
        self._merge_sums(k, top, total, top, sums[2])
        if self._ends.size or self._apart.size:
            sign = np.sign(p)
            with np.errstate(divide="ignore"):
                log_abs_p = np.log(np.abs(p))
        for k, log_u, log_d in self._own_top_rows(f, base, terms):
            log_ug = log_u + log_abs_p
            log_ug -= log_d
            self._merge_sums(k, *_row_sum(log_u), *_row_sum(log_ug, sign))

    def _own_top_rows(self, f, base, terms):
        """(row, h + base, log d) of each far-form row that keeps tops of its own."""
        for k in self._ends:
            if self.betas[k] == 0.0:
                yield k, base, -terms[0]
            else:
                yield k, base + f, np.minimum(self.param * f, 0.0)
        h, _, log_d = _holder_far(self.param, f, terms, self.betas[self._apart, None])
        yield from zip(self._apart, np.add(h, base, out=h), log_d)

    def values(self) -> np.ndarray:
        """sum_s w g at each beta, the weights normalized over every point added.

        A value beyond the float range is a ValueError (_check_float_range).
        """
        _check_normalizable(self.top)
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.moment / self.total * np.exp(self.level - self.top)
        return _check_float_range(self.spec, values, self.betas)
