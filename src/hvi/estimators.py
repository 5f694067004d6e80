"""Sample-based bound estimators built on one shared importance batch.

A single batch of proposal samples, with cached endpoint log densities, feeds
every estimator: ELBO, IW-ELBO, Renyi bounds, EUBO, the Wasserstein pair, and
the thermodynamic integrals (left/right/trapezoid Riemann sums of the local
evidence along a partition of [0, 1]).  Reweighting the same samples across
beta is what the thermodynamic estimators do by construction, so per-beta
values from one batch are correlated; replicate-based spread lives in
``diagnostics``.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .models import LatentModel
from .paths import PathSpec, _check_finite, _check_float_range, _log_ratio, _renyi_sum, path_weights

__all__ = [
    "ImportanceBatch",
    "draw_batch",
    "elbo",
    "iw_elbo",
    "rvi",
    "eubo",
    "LocalEvidenceEstimate",
    "local_evidence",
    "local_evidence_curve",
    "PartitionSchedule",
    "IntegrationRule",
    "rule_weights",
    "tvo",
    "hbo",
    "perturbed_hbo",
    "wasserstein_bounds",
    "bound_report",
    "parse_bound_id",
    "DEFAULT_PARTITIONS",
    "LOG_PARTITION_BETA1",
]

# First interior knot of the log partition, 10^(-1.09).
LOG_PARTITION_BETA1 = 10.0 ** (-1.09)

# The smallest normal float: the least alpha rvi takes.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ImportanceBatch:
    """Proposal samples with their cached log ratios, reused across all bounds.

    ``log_ratio`` caches f_i = log_target_i - log_proposal_i, the quantity
    every estimator reweights; it is finite only where both log densities are.
    """

    z: np.ndarray
    log_ratio: np.ndarray

    def __post_init__(self):
        if self.z.ndim != 2 or self.z.shape[0] < 1:
            raise ValueError("batch needs at least one sample")
        if self.log_ratio.shape != (self.z.shape[0],):
            raise ValueError("log_ratio must have one entry per sample")
        _check_finite("log_ratio", self.log_ratio)

    @property
    def size(self) -> int:
        return self.z.shape[0]


def draw_batch(model: LatentModel, size: int, seed: int, params=None) -> ImportanceBatch:
    """Draw ``size`` proposal samples and cache their log ratios."""
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = np.random.default_rng(seed)
    z = model.sample_proposal(rng, size, params)
    return ImportanceBatch(z, _log_ratio(model, z, params)[1])


def elbo(batch: ImportanceBatch) -> float:
    """Evidence lower bound: the geometric curve at beta = 0, the mean of f up to rounding."""
    return _form_value(batch, _resolve("elbo"))


def iw_elbo(batch: ImportanceBatch) -> float:
    """Importance-weighted bound: log mean exp of the log ratios."""
    return rvi(batch, 1.0)


def rvi(batch: ImportanceBatch, alpha: float) -> float:
    """Renyi bound (1/alpha) log mean e^(alpha f), iw_elbo at alpha = 1 (paths._renyi_sum)."""
    _resolve("rvi", alpha)
    value = _renyi_sum(alpha, batch.log_ratio, count=batch.size)
    return float(_check_float_range(PathSpec.holder(alpha), value, quantity="Renyi bound"))


def eubo(batch: ImportanceBatch) -> float:
    """Self-normalized estimate of the evidence upper bound (beta = 1 reweighting).

    Biased for finite batch size, like every self-normalized estimate at
    beta > 0; there is no unbiased sample-based EUBO available here.
    """
    return _form_value(batch, _resolve("eubo"))


@dataclass(frozen=True)
class LocalEvidenceEstimate:
    """A self-normalized importance estimate of the local evidence.

    ``std_err`` is the delta-method standard error of the ratio estimator and
    ``ess`` the normalized effective sample size in [1/S, 1].  A single-sample
    batch gives std_err 0, since its spread cannot be estimated.
    """

    value: float
    std_err: float
    ess: float


def _knot_blocks(batch: ImportanceBatch, spec: PathSpec, betas, weights):
    """(knot rows, block, local evidences) per path_weights block over the knots of
    nonzero weight: the one place a sample block is summed, and its local evidences
    checked to lie in the float range (paths._check_float_range)."""
    knots, start = np.flatnonzero(weights), 0
    for block in path_weights(spec, np.asarray(betas, dtype=float)[knots], batch.log_ratio):
        rows = knots[start:start + len(block.betas)]
        yield rows, block, _check_float_range(spec, block.wg.sum(axis=1), block.betas)
        start += rows.size


def _reduce_curve(batch: ImportanceBatch, spec: PathSpec, betas, coef=None):
    """(values, std errs, ESS) per beta, and the std err of ``coef @ values``.

    Delta-method errors (Owen, Monte Carlo theory, methods and examples, 2013,
    ch. 9) over one batch, with phi_ks = w_ks (g_ks - E_k): sqrt(sum_s phi_ks^2)
    per beta and, for the row of coefficients ``coef``, sqrt(sum_s ((coef phi)_s)^2),
    which keeps the correlation of betas that reweight the same samples (None
    without ``coef``).  A value beyond the float range is a ValueError
    (_knot_blocks); an error that overflows reads inf, with no numpy warning.
    """
    parts, combo = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block, values in _knot_blocks(batch, spec, betas, np.ones(len(betas))):
            phi = block.wg - values[:, None] * block.w
            if coef is not None:
                combo = combo + coef[rows] @ phi
            parts.append((values, np.sqrt(np.sum(phi ** 2, axis=1)),
                          1.0 / (batch.size * np.sum(block.w * block.w, axis=1))))
        combo = None if coef is None else np.sqrt(np.sum(combo ** 2))
    values, std_errs, ess = (np.concatenate(column) for column in zip(*parts))
    return values, std_errs, ess, combo


def local_evidence_curve(batch: ImportanceBatch, spec: PathSpec,
                         betas) -> list[LocalEvidenceEstimate]:
    """Local evidence at several beta from the same batch (correlated across beta)."""
    values, std_errs, ess, _ = _reduce_curve(batch, spec, betas)
    return [LocalEvidenceEstimate(value=float(v), std_err=float(se), ess=float(e))
            for v, se, e in zip(values, std_errs, ess)]


def local_evidence(batch: ImportanceBatch, spec: PathSpec, beta: float) -> LocalEvidenceEstimate:
    """Estimate E_(spec,beta) by reweighting the batch to the path density."""
    return local_evidence_curve(batch, spec, [beta])[0]


class IntegrationRule(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    TRAPEZOID = "trapezoid"

    @classmethod
    def parse(cls, name) -> "IntegrationRule":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(
                f"unknown integration rule {name!r}; expected left, right or trapezoid"
            ) from None


@dataclass(frozen=True)
class PartitionSchedule:
    """Sorted temperatures beta_0 = 0 < ... < beta_K = 1."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float).reshape(-1)
        object.__setattr__(self, "betas", betas)
        if betas.size < 2:
            raise ValueError("schedule needs at least two points")
        if betas[0] != 0.0 or betas[-1] != 1.0:
            raise ValueError("schedule endpoints must be exactly 0 and 1")
        if not np.all(np.diff(betas) > 0):
            raise ValueError("schedule must be strictly increasing")

    @property
    def partitions(self) -> int:
        return self.betas.size - 1

    @classmethod
    def uniform(cls, partitions: int) -> "PartitionSchedule":
        """Equally spaced partition of [0, 1] into ``partitions`` bins."""
        if partitions < 1:
            raise ValueError("need at least one partition")
        return cls(np.linspace(0.0, 1.0, partitions + 1))

    @classmethod
    def log(cls, partitions: int) -> "PartitionSchedule":
        """beta_0 = 0, then LOG_PARTITION_BETA1 .. 1 equally spaced on a log scale."""
        if partitions < 2:
            raise ValueError("log schedule needs at least two partitions")
        tail = np.logspace(math.log10(LOG_PARTITION_BETA1), 0.0, partitions)
        tail[-1] = 1.0
        return cls(np.concatenate([[0.0], tail]))


def rule_weights(betas: np.ndarray, rule: IntegrationRule) -> np.ndarray:
    """Per-point weights turning curve values into the Riemann sum value."""
    rule = IntegrationRule.parse(rule)
    betas = np.asarray(betas, dtype=float)
    gaps = np.diff(betas)
    w = np.zeros(betas.size)
    if rule in (IntegrationRule.LEFT, IntegrationRule.TRAPEZOID):
        w[:-1] += gaps * (0.5 if rule is IntegrationRule.TRAPEZOID else 1.0)
    if rule in (IntegrationRule.RIGHT, IntegrationRule.TRAPEZOID):
        w[1:] += gaps * (0.5 if rule is IntegrationRule.TRAPEZOID else 1.0)
    return w


def tvo(batch: ImportanceBatch, schedule: Optional[PartitionSchedule] = None,
        rule: IntegrationRule = IntegrationRule.LEFT) -> float:
    """Thermodynamic bound on the geometric path (default: log partition, K=50)."""
    return _form_value(batch, _resolve("tvo", None, schedule, rule))


def hbo(batch: ImportanceBatch, alpha: float,
        schedule: Optional[PartitionSchedule] = None,
        rule: IntegrationRule = IntegrationRule.LEFT) -> float:
    """Holder bound of order alpha (default: uniform partition, K=50)."""
    return _form_value(batch, _resolve("hbo", alpha, schedule, rule))


def perturbed_hbo(batch: ImportanceBatch, delta: float,
                  schedule: Optional[PartitionSchedule] = None,
                  rule: IntegrationRule = IntegrationRule.LEFT) -> float:
    """First-order-in-delta surrogate of hbo(delta) (default: uniform, K=50)."""
    return _form_value(batch, _resolve("perturbed_hbo", delta, schedule, rule))


def wasserstein_bounds(batch: ImportanceBatch) -> tuple[float, float]:
    """(wlbo, wubo): endpoints of the arithmetic-mean thermodynamic curve.

    wlbo is the beta = 1 local evidence on the arithmetic path, wubo the
    beta = 0 one (the plain sample mean of e^f - 1).
    """
    return _form_value(batch, _resolve("wlbo")), _form_value(batch, _resolve("wubo"))


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

_BOUND_ID = re.compile(r"^([a-z_]+)(?:\[([^\]]+)\])?$")

# Partitions of a bound's default schedule.
DEFAULT_PARTITIONS = 50


class _Bound(NamedTuple):
    """One row of the bound table below."""

    param: Optional[str]
    path: Optional[str] = None
    knots: Union[float, str, None] = None


# Per bound: the BoundObjective field that carries its parameter, and its path
# form: a PathSpec kind (whose field named like the parameter takes the
# argument) with one knot beta or the PartitionSchedule builder of its default
# schedule.  A path form is the bound's only value route (_form_value); the
# closed forms iw_elbo and rvi have none, and both are values of rvi.
_BOUNDS = {
    "elbo": _Bound(None, "geometric", 0.0),
    "iw_elbo": _Bound(None),
    "rvi": _Bound("alpha"),
    "eubo": _Bound(None, "geometric", 1.0),
    "wlbo": _Bound(None, "wasserstein", 1.0),
    "wubo": _Bound(None, "wasserstein", 0.0),
    "tvo": _Bound(None, "geometric", "log"),
    "hbo": _Bound("alpha", "holder", "uniform"),
    "perturbed_hbo": _Bound("delta", "perturbed", "uniform"),
}

# Bounds with a path form: the ones score-function training can ascend.
_PATH_BOUNDS = tuple(name for name, row in _BOUNDS.items() if row.path is not None)


def _resolve(name: str, arg: Optional[float] = None,
             schedule: Optional[PartitionSchedule] = None,
             rule: IntegrationRule = IntegrationRule.LEFT):
    """Check a bound's inputs; its path form (PathSpec, betas, rule weights), or None.

    The parameter must be finite (and a positive normal float for rvi), the
    rule known, and a single-knot bound takes no schedule.  None stands for a
    closed form; else bound = weights @ curve(betas), on the bound's one knot
    with weight 1 or on ``schedule`` (its default when None) with the rule's weights.
    """
    row, rule = _BOUNDS[name], IntegrationRule.parse(rule)
    if arg is not None and not math.isfinite(arg):
        raise ValueError(f"bound {name!r} needs a finite parameter, got {arg}")
    if name == "rvi" and not arg > 0:
        raise ValueError("rvi requires alpha > 0; use elbo for the alpha -> 0 limit")
    if name == "rvi" and arg < _TINY:  # a subnormal alpha (f - max f) loses the gaps
        raise ValueError(f"rvi requires a normal alpha >= {_TINY:.3g}, got {arg:g}")
    if not isinstance(row.knots, str):
        if schedule is not None:
            raise ValueError(f"bound {name!r} has a single knot and takes no schedule")
        return None if row.path is None else (PathSpec(row.path), np.array([row.knots]),
                                              np.ones(1))
    spec = PathSpec(row.path, **({row.param: arg} if row.param else {}))
    schedule = schedule or getattr(PartitionSchedule, row.knots)(DEFAULT_PARTITIONS)
    return spec, schedule.betas, rule_weights(schedule.betas, rule)


def _form_value(batch: ImportanceBatch, form) -> float:
    """A bound from its path form (see _resolve): weights @ the kernel's curve.

    Training reads its values from the same path_weights blocks as its
    gradients, so a bound sums those blocks, not a paths.PathCurve (values
    only), whose sums agree with them only to rounding.  Knots of weight 0
    are not formed: a beta that adds nothing cannot turn the bound into NaN.
    """
    spec, betas, weights = form
    curve = np.zeros(weights.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, _, values in _knot_blocks(batch, spec, betas, weights):
            curve[rows] = values
    return float(weights @ curve)


def _split_bound_id(bound_id: str) -> tuple[str, Optional[float]]:
    """A bound id's name and parameter, before the parameter is checked."""
    m = _BOUND_ID.match(bound_id.strip())
    if not m:
        raise ValueError(f"malformed bound id {bound_id!r}")
    name, arg = m.group(1), m.group(2)
    if name not in _BOUNDS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    if _BOUNDS[name].param is None and arg is not None:
        raise ValueError(f"bound {name!r} takes no parameter")
    if _BOUNDS[name].param is not None and arg is None:
        raise ValueError(f"bound {name!r} needs a parameter, e.g. {name}[0.5]")
    return name, None if arg is None else float(arg)


def parse_bound_id(bound_id: str) -> tuple[str, Optional[float]]:
    """Split a bound id like ``hbo[0.8]`` into its name and checked parameter."""
    name, arg = _split_bound_id(bound_id)
    _resolve(name, arg)
    return name, arg


def bound_report(batch: ImportanceBatch, bounds: Sequence[str],
                 tvo_schedule: Optional[PartitionSchedule] = None,
                 hbo_schedule: Optional[PartitionSchedule] = None,
                 rule: IntegrationRule = IntegrationRule.LEFT) -> dict[str, float]:
    """The value of each requested bound id on one shared batch, by id in request order.

    ``tvo_schedule`` replaces the default log schedule, ``hbo_schedule`` the uniform one.
    """
    schedules = {"log": tvo_schedule, "uniform": hbo_schedule}
    rule = IntegrationRule.parse(rule)
    values: dict[str, float] = {}
    for bound_id in bounds:
        name, arg = _split_bound_id(bound_id)
        form = _resolve(name, arg, schedules.get(_BOUNDS[name].knots), rule)
        # iw_elbo is rvi at alpha = 1 bit for bit: 1.0 * f and / 1.0 are exact
        values[bound_id] = rvi(batch, arg or 1.0) if form is None else _form_value(batch, form)
    return values
