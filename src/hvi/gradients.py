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
from typing import Callable, Optional

import numpy as np

from .estimators import (
    _BOUNDS,
    _PATH_BOUNDS,
    ImportanceBatch,
    IntegrationRule,
    PartitionSchedule,
    _block_influence,
    _form_value,
    _resolve,
    draw_batch,
    rule_weights,
)
from .models import LatentModel
from .paths import PathBlock, PathSpec, path_gradient_coeffs, path_weights
from .util import derive_seeds

__all__ = [
    "GradientEstimate",
    "local_evidence_grad",
    "bound_grad",
    "finite_difference_grad",
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


def _block_terms(spec: PathSpec, block: PathBlock, log_ratio: np.ndarray,
                 grad_l0: np.ndarray, grad_f: np.ndarray, weights: np.ndarray):
    """A kernel block's curve values and weighted sums of terms (i), (ii), influences.

    grad log pi_beta = grad L0 + dh/df grad f and grad g = dg/df grad f, so
    the per-sample contribution to the covariance identity at each beta is
    (grad L0 + dh/df grad f) phi + w dg/df grad f with phi = w (g - gbar); the
    sample's influence subtracts w times that beta's estimate.
    """
    dh_df, w_dg_df = path_gradient_coeffs(spec, block, log_ratio)
    values, phi = _block_influence(block)
    along_f = dh_df * phi
    term_i = phi @ grad_l0 + along_f @ grad_f
    term_ii = w_dg_df @ grad_f
    influence = (phi[:, :, None] * grad_l0 + (along_f + w_dg_df)[:, :, None] * grad_f
                 - block.w[:, :, None] * (term_i + term_ii)[:, None, :])
    return (values, weights @ term_i, weights @ term_ii,
            np.tensordot(weights, influence, axes=1))


def _path_step(model: LatentModel, params, spec: PathSpec, betas, weights,
               batch: ImportanceBatch) -> tuple[float, GradientEstimate]:
    """(sum_k weights_k E_(spec,betas_k), its gradient over lambda) in one batch pass.

    The batch's cached log densities supply the weights, so the model is only
    asked for its two gradient fields, once per batch.  Knots of zero weight
    are skipped.  All knots reweight the same samples, so the standard error is
    the delta-method one of the sum, sqrt(sum_s (sum_k weights_k phi_ks)^2) over
    the per-sample influences phi_ks.
    """
    weights = np.asarray(weights, dtype=float)
    knots = np.flatnonzero(weights)
    lam = model._resolve(params)
    grad_l0 = model.grad_log_proposal(batch.z, lam)
    grad_f = model.grad_log_target(batch.z, lam) - grad_l0
    # skipped knots add nothing to the sum, so leaving their curve entries 0
    # keeps the value bitwise the estimators' weights @ curve
    curve, start, blocks = np.zeros(weights.size), 0, []
    for block in path_weights(spec, np.asarray(betas, dtype=float)[knots], batch.log_ratio):
        rows = knots[start:start + len(block.betas)]
        values, *terms = _block_terms(spec, block, batch.log_ratio, grad_l0, grad_f,
                                      weights[rows])
        curve[rows] = values
        blocks.append(terms)
        start += rows.size
    term_i, term_ii, influence = (sum(parts) for parts in zip(*blocks))
    return float(weights @ curve), GradientEstimate(
        term_i=term_i, term_ii=term_ii, std_err=np.sqrt(np.sum(influence ** 2, axis=0)))


def local_evidence_grad(model: LatentModel, params, spec: PathSpec, beta: float,
                        batch: ImportanceBatch) -> GradientEstimate:
    """Estimate grad_lambda E_(spec,beta) from a batch drawn at the same lambda.

    Log densities come from the batch cache and their gradients are evaluated
    at ``params`` on the batch's sample points, so the batch must have been
    drawn from the proposal at this very parameter vector for the weights to
    be valid.
    """
    return _path_step(model, params, spec, [beta], [1.0], batch)[1]


def bound_grad(model: LatentModel, params, spec: PathSpec,
               schedule: PartitionSchedule, rule: IntegrationRule,
               batch: ImportanceBatch) -> GradientEstimate:
    """Gradient of the Riemann-integrated bound: rule-weighted sum over the schedule."""
    return _path_step(model, params, spec, schedule.betas,
                      rule_weights(schedule.betas, rule), batch)[1]


def finite_difference_grad(model: LatentModel, params,
                           objective: Callable[[LatentModel, np.ndarray], float],
                           step: float = 1e-4) -> np.ndarray:
    """Central finite differences of a (quadrature) functional of lambda.

    The oracle counterpart of the sampled gradients: ``objective`` is expected
    to be deterministic in (model, lambda), e.g. a quadrature local evidence.
    """
    lam = model._resolve(params)
    if step <= 0:
        raise ValueError("step must be positive")
    out = np.empty(lam.size)
    for j, bump in enumerate(step * np.eye(lam.size)):
        hi, lo = objective(model, lam + bump), objective(model, lam - bump)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("objective returned a non-finite value")
        out[j] = (hi - lo) / (2.0 * step)
    return out


@dataclass(frozen=True)
class BoundObjective:
    """Which bound to ascend, and the estimator budget per step.

    Only the bound's own parameter field (``alpha`` for hbo, ``delta`` for
    perturbed_hbo) may be nonzero, and only a bound with a default schedule
    takes a ``schedule``; anything else is rejected rather than ignored.  The
    bound is resolved once, here, into its path form.
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

    def value(self, batch: ImportanceBatch) -> float:
        return _BOUNDS[self.bound].value(batch, self.alpha or self.delta, self.schedule,
                                         self.rule)

    def gradient(self, model: LatentModel, params, batch: ImportanceBatch) -> GradientEstimate:
        return _path_step(model, params, *self._form, batch)[1]


@dataclass
class TrainingTrace:
    """(step, lambda, objective) sequence from one gradient-ascent run."""

    steps: np.ndarray
    params: np.ndarray
    objective: np.ndarray
    config: dict
    diverged: bool = False

    def __len__(self) -> int:
        return self.steps.size

    @property
    def final_params(self) -> np.ndarray:
        return self.params[-1]


def train(model: LatentModel, params0, objective: BoundObjective, steps: int,
          learning_rate: float, seed: int) -> TrainingTrace:
    """Plain gradient ascent with a fresh batch per step.

    Each step takes the objective's value and gradient from one pass of the
    path kernel over its batch (the value is the kernel's weights @ curve,
    which for the ELBO can differ from ``elbo`` in the last bits).  Per-step
    batch seeds derive deterministically from ``seed``, so identical calls
    produce identical traces.  If the parameters or the objective go
    non-finite, or a step's sampling, densities or gradients fail, the run
    aborts and returns the rows before that step flagged as diverged.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not np.isfinite(learning_rate):
        raise ValueError(f"learning_rate must be finite, got {learning_rate}")
    if steps and not model.has_gradients:
        raise ValueError(f"model {model.model_id!r} does not provide gradients")
    lam = model._resolve(params0).copy()
    step_seeds = derive_seeds(seed, steps + 1)
    rows_step, rows_lam, rows_val = [], [], []
    diverged = False
    for t in range(steps + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                batch = draw_batch(model, objective.sample_size, int(step_seeds[t]), lam)
                if t < steps:
                    value, grad = _path_step(model, lam, *objective._form, batch)
                else:  # the last batch only scores the final parameters
                    value = _form_value(batch, objective._form)
        except (ValueError, FloatingPointError):
            # lambda drove the proposal, densities or gradients non-finite
            diverged = True
            break
        rows_step.append(t)
        rows_lam.append(lam.copy())
        rows_val.append(value)
        if not np.isfinite(value):
            diverged = True
            break
        if t == steps:
            break
        lam = lam + learning_rate * grad.total
        if not np.all(np.isfinite(lam)):
            diverged = True
            break
    return TrainingTrace(
        steps=np.asarray(rows_step, dtype=int),
        params=np.asarray(rows_lam, dtype=float),
        objective=np.asarray(rows_val, dtype=float),
        config={"objective": {"bound": objective.bound}},
        diverged=diverged,
    )
