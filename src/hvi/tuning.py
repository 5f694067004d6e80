"""Selection of the power-mean order alpha that flattens the evidence curve.

A flat thermodynamic curve means every local evidence already equals the log
marginal likelihood, so the Riemann sum needs almost no partitions.  Two
searches are provided: a grid pass that keeps the candidate with the smallest
estimated curve range, and a bisection on the sign of the curve slope, which
exploits that the curve rises for alpha at 0 and falls at 1.  All candidate
evaluations reuse one shared proposal batch (common random numbers), so range
and slope comparisons across alpha are low-variance and the per-search cost is
a countable number of local-evidence evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimators import ImportanceBatch, draw_batch, local_evidence_curve
from .models import LatentModel
from .paths import PathSpec

__all__ = [
    "DEFAULT_TEST_BETAS",
    "CurveSummary",
    "AlphaSearchResult",
    "summarize_curve",
    "curve_summary",
    "tune_alpha_grid",
    "tune_alpha_bisect",
    "BracketError",
]

# "A few test points" across the temperature range.
DEFAULT_TEST_BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)

SLOPE_SIGNIFICANCE = 3.0  # slopes count as nonzero beyond this many std errs


class BracketError(ValueError):
    """The bisection bracket does not have significant opposite slopes."""


@dataclass(frozen=True)
class CurveSummary:
    """Per-beta local evidence for one alpha, with flatness statistics.

    ``value_range`` is max - min of the estimates; ``slope`` the least-squares
    slope of value against beta, with its propagated standard error.
    """

    alpha: float
    betas: tuple[float, ...]
    values: np.ndarray
    std_errs: np.ndarray
    ess: np.ndarray

    @property
    def value_range(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    @property
    def slope(self) -> float:
        b = np.asarray(self.betas)
        coef = (b - b.mean()) / np.sum((b - b.mean()) ** 2)
        # coef sums to zero only up to rounding; the shift makes the slope of
        # an exactly constant curve exactly zero rather than rounding noise
        return float(coef @ (self.values - self.values[0]))

    @property
    def slope_std_err(self) -> float:
        # Per-beta errors are treated as independent, which overstates the
        # spread for a shared batch; significance calls are conservative.
        b = np.asarray(self.betas)
        coef = (b - b.mean()) / np.sum((b - b.mean()) ** 2)
        return float(np.sqrt(np.sum((coef * self.std_errs) ** 2)))

    def is_flat(self) -> bool:
        """Slope statistically indistinguishable from zero."""
        return abs(self.slope) <= SLOPE_SIGNIFICANCE * self.slope_std_err

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "betas": list(self.betas),
            "values": self.values.tolist(),
            "std_errs": self.std_errs.tolist(),
            "ess": self.ess.tolist(),
            "range": self.value_range,
            "slope": self.slope,
            "slope_std_err": self.slope_std_err,
        }


def summarize_curve(batch: ImportanceBatch, alpha: float, betas) -> CurveSummary:
    """Local evidence at the test betas for one alpha, from a shared batch."""
    betas = tuple(float(b) for b in betas)
    if len(betas) < 2:
        raise ValueError("need at least two test betas")
    spec = PathSpec.holder(float(alpha))
    estimates = local_evidence_curve(batch, spec, betas)
    return CurveSummary(
        alpha=float(alpha),
        betas=betas,
        values=np.array([e.value for e in estimates]),
        std_errs=np.array([e.std_err for e in estimates]),
        ess=np.array([e.ess for e in estimates]),
    )


def curve_summary(model: LatentModel, alpha: float, betas=DEFAULT_TEST_BETAS,
                  sample_size: int = 1000, seed: int = 0, params=None) -> CurveSummary:
    """Draw a batch and summarize the curve at one alpha."""
    batch = draw_batch(model, sample_size, seed, params)
    return summarize_curve(batch, alpha, betas)


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

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "method": self.method,
            "evaluations": self.evaluations,
            "converged": self.converged,
            "summary": self.summary.to_json(),
            "table": [s.to_json() for s in self.table],
        }


def tune_alpha_grid(model: LatentModel, candidates: Sequence[float],
                    betas=DEFAULT_TEST_BETAS, sample_size: int = 1000,
                    seed: int = 0, params=None) -> AlphaSearchResult:
    """Keep the candidate alpha with the smallest estimated curve range.

    All candidates are scored on one shared batch; ties break toward the
    smaller alpha, which stays nearer the numerically safe geometric regime.
    """
    candidates = [float(a) for a in candidates]
    if not candidates:
        raise ValueError("need at least one candidate alpha")
    batch = draw_batch(model, sample_size, seed, params)
    table = []
    best: Optional[CurveSummary] = None
    for alpha in sorted(candidates):
        summary = summarize_curve(batch, alpha, betas)
        table.append(summary)
        if best is None or summary.value_range < best.value_range:
            best = summary
    return AlphaSearchResult(
        alpha=best.alpha,
        method="grid",
        evaluations=len(candidates) * len(tuple(betas)),
        summary=best,
        table=tuple(table),
    )


def tune_alpha_bisect(model: LatentModel, alpha_lo: float = 0.05, alpha_hi: float = 0.95,
                      betas=DEFAULT_TEST_BETAS, sample_size: int = 1000,
                      tolerance: float = 0.02, max_iters: int = 20,
                      seed: int = 0, params=None) -> AlphaSearchResult:
    """Bisect on the sign of the curve slope between a rising and a falling alpha.

    The bracket is validated first: the slope at ``alpha_lo`` must be
    significantly positive and at ``alpha_hi`` significantly negative (3 std
    errs), else BracketError.  Stops when the bracket is narrower than
    ``tolerance`` or the midpoint slope is statistically zero; hitting
    ``max_iters`` returns the last midpoint flagged as not converged.
    """
    alpha_lo, alpha_hi = float(alpha_lo), float(alpha_hi)
    if not alpha_lo < alpha_hi:
        raise ValueError("alpha_lo must be smaller than alpha_hi")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    betas = tuple(float(b) for b in betas)
    batch = draw_batch(model, sample_size, seed, params)
    evaluations = 0

    lo_summary = summarize_curve(batch, alpha_lo, betas)
    hi_summary = summarize_curve(batch, alpha_hi, betas)
    evaluations += 2 * len(betas)
    if not (lo_summary.slope > SLOPE_SIGNIFICANCE * lo_summary.slope_std_err):
        raise BracketError(
            f"curve slope at alpha_lo={alpha_lo:g} is not significantly positive")
    if not (hi_summary.slope < -SLOPE_SIGNIFICANCE * hi_summary.slope_std_err):
        raise BracketError(
            f"curve slope at alpha_hi={alpha_hi:g} is not significantly negative")

    table = [lo_summary, hi_summary]
    lo, hi = alpha_lo, alpha_hi
    mid_summary: Optional[CurveSummary] = None
    converged = False
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        mid_summary = summarize_curve(batch, mid, betas)
        table.append(mid_summary)
        evaluations += len(betas)
        if mid_summary.is_flat():
            converged = True
            break
        if mid_summary.slope > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance:
            converged = True
            break
    return AlphaSearchResult(
        alpha=mid_summary.alpha,
        method="bisect",
        evaluations=evaluations,
        summary=mid_summary,
        table=tuple(table),
        converged=converged,
    )
