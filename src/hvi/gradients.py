"""Score-function gradient estimation and a plain gradient-ascent trainer.

The per-temperature gradient uses the covariance identity of Masrani et al.,
The Thermodynamic Variational Objective (arXiv:1907.00031),

    grad E_pi[g] = E_pi[grad g] + cov_pi(grad log pi_beta, g),

estimated with the batch's self-normalized weights, for every beta of a
schedule in one pass of ``paths.path_weights``.  On the geometric path
this is exactly the two-term estimator

    sum_s w_s^beta grad log pi_beta(Z_s) (f(Z_s) - fbar)   (term i)
  + sum_s w_s^beta grad f(Z_s)                             (term ii)

with fbar the weighted mean of f; term (i) is a REINFORCE gradient and term
(ii) interpolates the pathwise ELBO/IW-ELBO gradients.  The same covariance
structure is applied on the power-mean and perturbed paths (the identity's
derivation does not depend on the path); those branches are validated against
finite differences of the quadrature oracle in the test suite.  There is no
reparameterization anywhere: everything works for non-reparametrizable
proposals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimators import (
    _BOUNDS,
    _PATH_BOUNDS,
    ImportanceBatch,
    IntegrationRule,
    PartitionSchedule,
    _form_value,
    _knot_blocks,
    _resolve,
    draw_batch,
)
from .models import LatentModel
from .paths import PathSpec, _check_float_range, path_gradient_coeffs
from .util import derive_seeds

__all__ = [
    "GradientEstimate",
    "BoundObjective",
    "TrainingTrace",
    "train",
]


@dataclass(frozen=True)
class GradientEstimate:
    """Gradient of a local evidence (or integrated bound) over flat lambda.

    ``term_i`` is the REINFORCE/covariance part, ``term_ii`` the pathwise
    expectation part; ``total`` is their exact sum.
    """

    term_i: np.ndarray
    term_ii: np.ndarray
    std_err: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.term_i + self.term_ii


def _path_step(model: LatentModel, params, spec: PathSpec, betas, weights,
               batch: ImportanceBatch) -> tuple[float, GradientEstimate]:
    """(sum_k c_k E_(spec,betas_k), its gradient over lambda) in one batch pass.

    The batch's cached log densities supply the weights, so the model is only
    asked for its two gradient fields, once per batch.  Knots of zero weight c_k
    are skipped.  With grad log pi_beta = grad L0 + dh/df grad f, grad g = dg/df
    grad f and phi = w (g - gbar), knot k's terms (i) and (ii) are G_i = sum_s
    phi (grad L0 + dh/df grad f) and G_ii = sum_s w dg/df grad f, and sample s's
    influence on them is psi_ks = phi (grad L0 + dh/df grad f) + w dg/df grad f
    - w (G_i + G_ii).  All knots reweight the same samples, so the standard
    error is the delta-method one of the sum, sqrt(sum_s (sum_k c_k psi_ks)^2),
    and sum_k c_k psi_ks is formed per sample, one (S, d) array per block.
    A local evidence or G_i + G_ii beyond the float range is a ValueError that
    names its beta; a std err that overflows reads inf, with no numpy warning.
    """
    weights = np.asarray(weights, dtype=float)
    grad_l0 = model.grad_log_proposal(batch.z, params)
    grad_f = model.grad_log_target(batch.z, params) - grad_l0
    # skipped knots add nothing to the sum, so leaving their curve entries 0
    # keeps the value bitwise the estimators' weights @ curve
    curve = np.zeros(weights.size)
    term_i = term_ii = influence = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block, values in _knot_blocks(batch, spec, betas, weights):
            curve[rows], c = values, weights[rows]
            dh_df, w_dg_df = path_gradient_coeffs(spec, block, batch.log_ratio)
            phi = block.wg - values[:, None] * block.w
            along_f = dh_df * phi
            knot_i = phi @ grad_l0 + along_f @ grad_f
            knot_ii = w_dg_df @ grad_f
            knot = _check_float_range(spec, knot_i + knot_ii, block.betas,
                                      "gradient of the local evidence")
            term_i = term_i + c @ knot_i
            term_ii = term_ii + c @ knot_ii
            influence = (influence + (c @ phi)[:, None] * grad_l0
                         + (c @ along_f + c @ w_dg_df)[:, None] * grad_f
                         - block.w.T @ (c[:, None] * knot))
        return float(weights @ curve), GradientEstimate(
            term_i=term_i, term_ii=term_ii, std_err=np.sqrt(np.sum(influence ** 2, axis=0)))


@dataclass(frozen=True)
class BoundObjective:
    """Which bound to ascend, and the estimator budget per step.

    Only the bound's own parameter field (``alpha`` for hbo, ``delta`` for
    perturbed_hbo) may be nonzero, and only a bound with a default schedule
    takes a ``schedule``; anything else is rejected rather than ignored.  The
    bound is resolved once, here, into the path form ``_form`` that ``train`` steps on.
    """

    bound: str = "elbo"
    alpha: float = 0.0
    delta: float = 0.0
    schedule: Optional[PartitionSchedule] = None
    rule: IntegrationRule = IntegrationRule.LEFT
    sample_size: int = 100
    _form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bound not in _PATH_BOUNDS:
            raise ValueError(
                f"unsupported training bound {self.bound!r}; expected one of {_PATH_BOUNDS}")
        for name in ("alpha", "delta"):
            if getattr(self, name) != 0.0 and name != _BOUNDS[self.bound].param:
                raise ValueError(f"bound {self.bound!r} takes no {name}")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        # only the bound's own parameter field can be nonzero, so alpha or delta is it
        object.__setattr__(self, "_form", _resolve(self.bound, self.alpha or self.delta,
                                                   self.schedule, self.rule))


@dataclass
class TrainingTrace:
    """(lambda, objective) per step of one gradient-ascent run, row i at step i;
    ``failure`` is the cause that stopped it at step len(trace), None for a full run."""

    params: np.ndarray
    objective: np.ndarray
    config: dict
    failure: Optional[str] = None

    def __len__(self) -> int:
        return self.objective.size

    @property
    def diverged(self) -> bool:
        return self.failure is not None

    @property
    def final_params(self) -> np.ndarray:
        return self.params[-1]


def train(model: LatentModel, params0, objective: BoundObjective, steps: int,
          learning_rate: float, seed: int) -> TrainingTrace:
    """Plain gradient ascent with a fresh batch per step.

    Each step takes the objective's value and gradient from one pass of the
    path kernel over its batch (the value is the kernel's weights @ curve,
    bit for bit the bound's estimator).  Per-step batch seeds derive
    deterministically from ``seed``, so identical calls produce identical
    traces.  If a step's sampling, densities, weights, value or gradient fail
    (beyond the float range among them, see _path_step), or its update is not
    finite, the run keeps the rows before that step and the failure's message.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not np.isfinite(learning_rate):
        raise ValueError(f"learning_rate must be finite, got {learning_rate}")
    lam = model._resolve(params0).copy()
    step_seeds = derive_seeds(seed, steps + 1)
    rows_lam, rows_val, failure = [], [], None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(steps + 1):
            try:
                batch = draw_batch(model, objective.sample_size, int(step_seeds[t]), lam)
                if t < steps:
                    value, grad = _path_step(model, lam, *objective._form, batch)
                else:  # the last batch only scores the final parameters
                    value = _form_value(batch, objective._form)
            except ValueError as exc:
                failure = str(exc)
                break
            rows_lam.append(lam.copy())
            rows_val.append(value)
            if t == steps:
                break
            lam = lam + learning_rate * grad.total
            if not np.all(np.isfinite(lam)):
                failure = "non-finite parameters"
                break
    return TrainingTrace(  # a full run has a row per step and one for its last batch
        params=np.asarray(rows_lam, dtype=float),
        objective=np.asarray(rows_val, dtype=float),
        config={"objective": {"bound": objective.bound}},
        failure=failure,
    )
