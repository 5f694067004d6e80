"""Sample-based bound estimators built on one shared importance batch.

A single batch of proposal samples, with cached endpoint log densities, feeds
every bound of ``bound_report``: ELBO, IW-ELBO, Renyi bounds, EUBO, the
Wasserstein pair, and the thermodynamic integrals (left/right/trapezoid
Riemann sums of the local evidence along a partition of [0, 1]).  Reweighting
the same samples across beta is what the thermodynamic estimators do by
construction, so per-beta values from one batch are correlated;
replicate-based spread lives in ``diagnostics``.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .models import LatentModel
from .paths import PathSpec, _check_betas, _check_finite, _check_float_range, _log_ratio
from .paths import _renyi_sum, path_gradient_coeffs, path_weights
from .util import _count

__all__ = [
    "ImportanceBatch",
    "draw_batch",
    "LocalEvidenceCurve",
    "local_evidence_curve",
    "PartitionSchedule",
    "IntegrationRule",
    "rule_weights",
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
    z = model.sample_proposal(np.random.default_rng(seed), size, params)
    return ImportanceBatch(z, _log_ratio(model, z, params)[1])


class _Form(NamedTuple):
    """A path form: value = weights @ curve, formed at the ``knots`` (nonzero weight),
    whose checked betas are ``betas``."""

    spec: PathSpec
    weights: np.ndarray
    knots: np.ndarray
    betas: np.ndarray


def _path_form(spec: PathSpec, betas, weights) -> _Form:
    """A bound's form, its knots and their betas resolved and checked once, here."""
    weights = np.asarray(weights, dtype=float)
    knots = np.flatnonzero(weights)
    return _Form(spec, weights, knots, _check_betas(np.asarray(betas, dtype=float)[knots]))


def _knot_blocks(batch: ImportanceBatch, form: _Form):
    """(slice of the form's knots, block, local evidences checked in the float range) per block."""
    start = 0
    for block in path_weights(form.spec, form.betas, batch.log_ratio):
        knots = slice(start, start + len(block.betas))
        yield knots, block, _check_float_range(form.spec, block.wg.sum(axis=1), block.betas)
        start = knots.stop


def _reduce(batch: ImportanceBatch, form: _Form, stats=False, coef=None, fields=None,
            grad_std_err=False):
    """(values, std errs, ESS, coef std err, gradient) in one pass over ``batch``: the local
    evidence per beta of ``form`` (0 at weight 0) and, only when asked, the rest (else None).

    Delta-method errors (Owen, Monte Carlo theory, methods and examples, 2013, ch. 9):
    with phi_ks = w_ks (g_ks - E_k), ``stats`` gives sqrt(sum_s phi_ks^2) and the ESS
    1 / (S sum_s w_ks^2) per knot and ``coef`` the std err of coef @ values (README,
    "Numerical conventions").  ``fields``, (grad L0, grad f) at the samples, gives the
    gradient terms G_i = sum_s phi (grad L0 + dh/df grad f) and G_ii = sum_s w dg/df grad f,
    summed with the weights, and ``grad_std_err`` their sum's std err from each sample's
    influence psi_ks = phi (grad L0 + dh/df grad f) + w dg/df grad f - w (G_i + G_ii).  A
    local evidence or G_i + G_ii beyond the float range is a ValueError naming its beta;
    callers ignore numpy overflow, so an error that overflows reads inf."""
    values = np.zeros(form.weights.size)
    errs, effective = [], []
    combo = term_i = term_ii = influence = 0.0
    for knots, block, knot_values in _knot_blocks(batch, form):
        rows = form.knots[knots]
        values[rows] = knot_values
        if stats or coef is not None or fields is not None:
            phi = block.wg - knot_values[:, None] * block.w
        if stats:
            errs.append(np.sqrt(np.sum(phi ** 2, axis=1)))
            effective.append(1.0 / (batch.size * np.sum(block.w * block.w, axis=1)))
        if coef is not None:
            combo = combo + coef[rows] @ phi
        if fields is not None:
            (grad_l0, grad_f), c = fields, form.weights[rows]
            dh_df, w_dg_df = path_gradient_coeffs(form.spec, block, batch.log_ratio)
            along_f = dh_df * phi
            knot_i = phi @ grad_l0 + along_f @ grad_f
            knot_ii = w_dg_df @ grad_f
            knot = _check_float_range(form.spec, knot_i + knot_ii, block.betas,
                                      "gradient of the local evidence")
            term_i = term_i + c @ knot_i
            term_ii = term_ii + c @ knot_ii
            if grad_std_err:
                influence = (influence + (c @ phi)[:, None] * grad_l0
                             + (c @ along_f + c @ w_dg_df)[:, None] * grad_f
                             - block.w.T @ (c[:, None] * knot))
    grad_se = np.sqrt(np.sum(influence ** 2, axis=0)) if grad_std_err else None
    return (values, np.concatenate(errs) if stats else None,
            np.concatenate(effective) if stats else None,
            None if coef is None else np.sqrt(np.sum(combo ** 2)),
            None if fields is None else (term_i, term_ii, grad_se))


class LocalEvidenceCurve(NamedTuple):
    """Self-normalized importance estimates of the local evidence, one per beta.

    ``std_errs`` are the delta-method standard errors of the ratio estimators
    and ``ess`` the normalized effective sample sizes in [1/S, 1].  A
    single-sample batch gives std err 0, since its spread cannot be estimated.
    Every beta reweights the same batch, so the values are correlated:
    ``coef_std_err`` is the std err of ``coef @ values`` over that batch, None
    when no ``coef`` row is given.
    """

    values: np.ndarray
    std_errs: np.ndarray
    ess: np.ndarray
    coef_std_err: Optional[float]


def local_evidence_curve(batch: ImportanceBatch, spec: PathSpec, betas,
                         coef=None) -> LocalEvidenceCurve:
    """Local evidence at several beta from the same batch, in one _reduce pass."""
    form = _path_form(spec, betas, np.ones(len(betas)))
    with np.errstate(over="ignore", invalid="ignore"):
        return LocalEvidenceCurve(*_reduce(batch, form, stats=True, coef=coef)[:4])


class IntegrationRule(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    TRAPEZOID = "trapezoid"

    @classmethod
    def _missing_(cls, name):
        """A rule named in any case: ``IntegrationRule("Trapezoid")`` is TRAPEZOID."""
        for rule in cls:
            if rule.value == str(name).lower():
                return rule
        raise ValueError(f"unknown integration rule {name!r}; expected left, right or trapezoid")


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

    @classmethod
    def uniform(cls, partitions: int) -> "PartitionSchedule":
        """Equally spaced partition of [0, 1] into ``partitions`` bins."""
        return cls(np.linspace(0.0, 1.0, _count("partitions", partitions, 1) + 1))

    @classmethod
    def log(cls, partitions: int) -> "PartitionSchedule":
        """beta_0 = 0, then LOG_PARTITION_BETA1 .. 1 equally spaced on a log scale."""
        partitions = _count("partitions", partitions, 2)
        tail = np.logspace(math.log10(LOG_PARTITION_BETA1), 0.0, partitions)
        tail[-1] = 1.0
        return cls(np.concatenate([[0.0], tail]))


def rule_weights(betas: np.ndarray, rule: IntegrationRule) -> np.ndarray:
    """Per-point weights turning curve values into the Riemann sum value."""
    rule = IntegrationRule(rule)
    betas = np.asarray(betas, dtype=float)
    gaps = np.diff(betas)
    w = np.zeros(betas.size)
    if rule in (IntegrationRule.LEFT, IntegrationRule.TRAPEZOID):
        w[:-1] += gaps * (0.5 if rule is IntegrationRule.TRAPEZOID else 1.0)
    if rule in (IntegrationRule.RIGHT, IntegrationRule.TRAPEZOID):
        w[1:] += gaps * (0.5 if rule is IntegrationRule.TRAPEZOID else 1.0)
    return w


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
# closed forms iw_elbo and rvi have none: both are Renyi sums (bound_report).
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
    """Check a bound's inputs; its path form (_path_form), or None.

    The parameter must be finite (and a positive normal float for rvi), the
    rule known, and a single-knot bound takes no schedule.  None stands for a
    closed form; else bound = weights @ curve(betas), on the bound's one knot
    with weight 1 or on ``schedule`` (its default when None) with the rule's weights.
    """
    row, rule = _BOUNDS[name], IntegrationRule(rule)
    if arg is not None and not math.isfinite(arg):
        raise ValueError(f"bound {name!r} needs a finite parameter, got {arg}")
    if name == "rvi" and not arg > 0:
        raise ValueError("rvi requires alpha > 0; use elbo for the alpha -> 0 limit")
    if name == "rvi" and arg < _TINY:  # a subnormal alpha (f - max f) loses the gaps
        raise ValueError(f"rvi requires a normal alpha >= {_TINY:.3g}, got {arg:g}")
    if not isinstance(row.knots, str):
        if schedule is not None:
            raise ValueError(f"bound {name!r} has a single knot and takes no schedule")
        return None if row.path is None else _path_form(PathSpec(row.path), [row.knots], [1.0])
    spec = PathSpec(row.path, **({row.param: arg} if row.param else {}))
    schedule = schedule or getattr(PartitionSchedule, row.knots)(DEFAULT_PARTITIONS)
    return _path_form(spec, schedule.betas, rule_weights(schedule.betas, rule))


def _form_value(batch: ImportanceBatch, form: _Form) -> float:
    """A bound from its path form (see _resolve): weights @ the reducer's curve, from the
    blocks training's gradients take, not a paths.PathCurve, whose sums agree with them only
    to rounding.  Knots of weight 0 are not formed, so they cannot turn the bound into NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(form.weights @ _reduce(batch, form)[0])


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
    The closed forms rvi[a] and iw_elbo (a = 1) are paths._renyi_sum's (1/a) log mean e^(a f).
    """
    schedules = {"log": tvo_schedule, "uniform": hbo_schedule}
    rule = IntegrationRule(rule)
    values: dict[str, float] = {}
    for bound_id in bounds:
        name, arg = _split_bound_id(bound_id)
        form = _resolve(name, arg, schedules.get(_BOUNDS[name].knots), rule)
        if form is None:  # iw_elbo is rvi at alpha = 1 bit for bit: 1.0 * f and / 1.0 are exact
            alpha = arg or 1.0
            value = _check_float_range(PathSpec("holder", alpha=alpha), _renyi_sum(
                alpha, batch.log_ratio, count=batch.size), quantity="Renyi bound")
        else:
            value = _form_value(batch, form)
        values[bound_id] = float(value)
    return values
