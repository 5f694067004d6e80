"""Selection of the power-mean order alpha that flattens the evidence curve.

A flat thermodynamic curve means every local evidence already equals the log
marginal likelihood, so the Riemann sum needs almost no partitions.  A grid
pass keeps the candidate with the smallest curve range; a bisection follows
the sign of the curve slope, which rises for alpha at 0 and falls at 1.  All
candidates reuse one proposal batch (common random numbers), so comparisons
across alpha are low-variance, the cost is a countable number of
local-evidence evaluations, and flatness (``CurveSummary.is_flat``, the one
significance rule) is judged with delta-method std errs over that batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import ImportanceBatch, draw_batch, local_evidence_curve
from .models import LatentModel
from .paths import PathSpec, _check_float_range
from .util import _count

__all__ = [
    "DEFAULT_TEST_BETAS",
    "CurveSummary",
    "AlphaSearchResult",
    "summarize_curve",
    "tune_alpha_grid",
    "tune_alpha_bisect",
    "BracketError",
]

# "A few test points" across the temperature range.
DEFAULT_TEST_BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)

SLOPE_SIGNIFICANCE = 3.0  # slopes count as nonzero beyond this many std errs
# ... and beyond this many ulps of the least-squares sum, whose inputs are
# batch sums carrying a few ulps of rounding each
SLOPE_ROUNDING = 64.0


class BracketError(ValueError):
    """The bisection bracket does not have significant opposite slopes."""


@dataclass(frozen=True)
class CurveSummary:
    """Per-beta local evidence for one alpha, with flatness statistics.

    ``range`` is max - min of the estimates, the grid tuner's score; ``slope``
    the least-squares slope of value against beta.  All betas reweight one
    batch, so ``std_errs`` and ``slope_std_err`` are delta-method errors over
    the per-sample influences of that batch, correlations across beta included.
    """

    alpha: float
    betas: tuple[float, ...]
    values: np.ndarray
    std_errs: np.ndarray
    ess: np.ndarray
    range: float
    slope: float
    slope_std_err: float

    def is_flat(self) -> bool:
        """|slope| within SLOPE_SIGNIFICANCE std errs or within the rounding
        floor SLOPE_ROUNDING * eps * max|values| * sum|coef| of coef @ values."""
        floor = float(SLOPE_ROUNDING * np.finfo(float).eps * np.max(np.abs(self.values))
                      * np.sum(np.abs(_slope_coef(self.betas))))
        return abs(self.slope) <= max(SLOPE_SIGNIFICANCE * self.slope_std_err, floor)


def _slope_coef(betas) -> np.ndarray:
    """Least-squares row: slope = coef @ values."""
    b = np.asarray(betas)
    return (b - b.mean()) / np.sum((b - b.mean()) ** 2)


def _test_betas(betas) -> tuple[float, ...]:
    """``betas`` as floats; a least-squares slope needs two distinct ones."""
    betas = tuple(float(b) for b in betas)
    if len(set(betas)) < 2:
        raise ValueError(f"need at least two distinct test betas, got {list(betas)}")
    return betas


def summarize_curve(batch: ImportanceBatch, alpha: float, betas) -> CurveSummary:
    """Local evidence at the test betas for one alpha, from a shared batch."""
    betas = _test_betas(betas)
    coef = _slope_coef(betas)
    spec = PathSpec("holder", alpha=alpha)
    values, std_errs, ess, slope_std_err = local_evidence_curve(batch, spec, betas, coef)
    # beyond the float range, a std err would make any slope "flat" (is_flat)
    _check_float_range(spec, std_errs, betas, "std err of the local evidence")
    _check_float_range(spec, slope_std_err, quantity="std err of the curve slope")
    # coef sums to zero only up to rounding; the shift makes the slope of an
    # exactly constant curve exactly zero rather than rounding noise
    return CurveSummary(alpha=float(alpha), betas=betas, values=values, std_errs=std_errs,
                        ess=ess, range=float(np.max(values) - np.min(values)),
                        slope=float(coef @ (values - values[0])),
                        slope_std_err=float(slope_std_err))


@dataclass(frozen=True)
class AlphaSearchResult:
    """Outcome of an alpha search.

    ``evaluations`` counts local-evidence evaluations consumed, the per-epoch
    re-tuning budget.  ``table`` keeps every inspected curve for audit.
    ``converged`` is False only when a bisection ran out of iterations.
    """

    alpha: float
    method: str
    evaluations: int
    summary: CurveSummary
    table: tuple[CurveSummary, ...]
    converged: bool = True


def tune_alpha_grid(model: LatentModel, candidates: Sequence[float],
                    betas=DEFAULT_TEST_BETAS, sample_size: int = 1000,
                    seed: int = 0) -> AlphaSearchResult:
    """Keep the candidate alpha with the smallest estimated curve range.

    All candidates are scored on one shared batch; ties break toward the
    smaller alpha, which stays nearer the numerically safe geometric regime.
    """
    candidates = [float(a) for a in candidates]
    if not candidates:
        raise ValueError("need at least one candidate alpha")
    betas = _test_betas(betas)
    batch = draw_batch(model, sample_size, seed)
    table = tuple(summarize_curve(batch, alpha, betas) for alpha in sorted(candidates))
    best = min(table, key=lambda summary: summary.range)
    return AlphaSearchResult(
        alpha=best.alpha,
        method="grid",
        evaluations=len(candidates) * len(betas),
        summary=best,
        table=table,
    )


def tune_alpha_bisect(model: LatentModel, alpha_lo: float = 0.05, alpha_hi: float = 0.95,
                      betas=DEFAULT_TEST_BETAS, sample_size: int = 1000,
                      tolerance: float = 0.02, max_iters: int = 20,
                      seed: int = 0) -> AlphaSearchResult:
    """Bisect on the sign of the curve slope between a rising and a falling alpha.

    The bracket is validated first: the slope at ``alpha_lo`` must be
    positive and at ``alpha_hi`` negative, neither flat by
    ``CurveSummary.is_flat``, else BracketError.  Stops when the bracket is
    narrower than ``tolerance`` or the midpoint curve is flat; hitting
    ``max_iters`` returns the last midpoint flagged as not converged.
    """
    alpha_lo, alpha_hi = float(alpha_lo), float(alpha_hi)
    if not alpha_lo < alpha_hi:
        raise ValueError("alpha_lo must be smaller than alpha_hi")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    max_iters = _count("max_iters", max_iters, 1)
    betas = _test_betas(betas)
    batch = draw_batch(model, sample_size, seed)
    lo_summary = summarize_curve(batch, alpha_lo, betas)
    hi_summary = summarize_curve(batch, alpha_hi, betas)
    if lo_summary.is_flat() or not lo_summary.slope > 0:
        raise BracketError(
            f"curve slope at alpha_lo={alpha_lo:g} is not significantly positive")
    if hi_summary.is_flat() or not hi_summary.slope < 0:
        raise BracketError(
            f"curve slope at alpha_hi={alpha_hi:g} is not significantly negative")

    table = [lo_summary, hi_summary]
    lo, hi = alpha_lo, alpha_hi
    converged = False
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        mid_summary = summarize_curve(batch, mid, betas)
        table.append(mid_summary)
        if mid_summary.is_flat():
            converged = True
            break
        lo, hi = (mid, hi) if mid_summary.slope > 0 else (lo, mid)
        if hi - lo < tolerance:
            converged = True
            break
    return AlphaSearchResult(
        alpha=mid_summary.alpha,
        method="bisect",
        evaluations=len(table) * len(betas),
        summary=mid_summary,
        table=tuple(table),
        converged=converged,
    )
