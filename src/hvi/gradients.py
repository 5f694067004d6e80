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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .estimators import (
    ImportanceBatch,
    IntegrationRule,
    PartitionSchedule,
    draw_batch,
    elbo,
    eubo,
    hbo,
    perturbed_hbo,
    rule_weights,
    tvo,
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
                 grad_l0: np.ndarray, grad_f: np.ndarray):
    """Per-beta terms (i), (ii) and std errs, each (B, P), for one kernel block.

    grad log pi_beta = grad L0 + dh/df grad f and grad g = dg/df grad f, so
    the per-sample contribution to the covariance identity at each beta is
    (grad L0 + dh/df grad f) (w g - w gbar) + w dg/df grad f.
    """
    dh_df, w_dg_df = path_gradient_coeffs(spec, block, log_ratio)
    centered = block.wg - block.wg.sum(axis=1, keepdims=True) * block.w
    along_f = dh_df * centered
    term_i = centered @ grad_l0 + along_f @ grad_f
    term_ii = w_dg_df @ grad_f
    per_sample = (centered[:, :, None] * grad_l0 + (along_f + w_dg_df)[:, :, None] * grad_f
                  - block.w[:, :, None] * (term_i + term_ii)[:, None, :])
    return term_i, term_ii, np.sqrt(np.sum(per_sample ** 2, axis=1))


def _path_grad(model: LatentModel, params, spec: PathSpec, betas, weights,
               batch: ImportanceBatch) -> GradientEstimate:
    """sum_k weights_k grad_lambda E_(spec,betas_k), in one pass over the batch.

    The batch's cached log densities supply the weights, so the model is only
    asked for its two gradient fields, once per batch.
    """
    if not model.has_gradients:
        raise ValueError(f"model {model.model_id!r} does not provide gradients")
    lam = model._resolve(params)
    grad_l0 = model.grad_log_proposal(batch.z, lam)
    grad_f = model.grad_log_target(batch.z, lam) - grad_l0
    blocks = [_block_terms(spec, block, batch.log_ratio, grad_l0, grad_f)
              for block in path_weights(spec, betas, batch.log_ratio)]
    term_i, term_ii, std_err = (np.concatenate(parts) for parts in zip(*blocks))
    weights = np.asarray(weights, dtype=float)
    # Cross-beta correlation from the shared batch is left unmodeled.
    return GradientEstimate(term_i=weights @ term_i, term_ii=weights @ term_ii,
                            std_err=np.sqrt(weights ** 2 @ std_err ** 2))


def local_evidence_grad(model: LatentModel, params, spec: PathSpec, beta: float,
                        batch: ImportanceBatch) -> GradientEstimate:
    """Estimate grad_lambda E_(spec,beta) from a batch drawn at the same lambda.

    Log densities come from the batch cache and their gradients are evaluated
    at ``params`` on the batch's sample points, so the batch must have been
    drawn from the proposal at this very parameter vector for the weights to
    be valid.
    """
    return _path_grad(model, params, spec, [beta], [1.0], batch)


def bound_grad(model: LatentModel, params, spec: PathSpec,
               schedule: PartitionSchedule, rule: IntegrationRule,
               batch: ImportanceBatch) -> GradientEstimate:
    """Gradient of the Riemann-integrated bound: rule-weighted sum over the schedule."""
    weights = rule_weights(schedule.betas, IntegrationRule.parse(rule))
    used = weights != 0.0
    return _path_grad(model, params, spec, schedule.betas[used], weights[used], batch)


def finite_difference_grad(model: LatentModel, params,
                           objective: Callable[[LatentModel, np.ndarray], float],
                           step: float = 1e-4) -> np.ndarray:
    """Central finite differences of a (quadrature) functional of lambda.

    The oracle counterpart of the sampled gradients: ``objective`` is expected
    to be deterministic in (model, lambda), e.g. a quadrature local evidence.
    """
    lam = model._resolve(params).copy()
    if step <= 0:
        raise ValueError("step must be positive")
    out = np.empty(lam.size)
    for j in range(lam.size):
        bumped = lam.copy()
        bumped[j] = lam[j] + step
        hi = objective(model, bumped)
        bumped[j] = lam[j] - step
        lo = objective(model, bumped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("objective returned a non-finite value")
        out[j] = (hi - lo) / (2.0 * step)
    return out


@dataclass(frozen=True)
class BoundObjective:
    """Which bound to ascend, and the estimator budget per step."""

    bound: str = "elbo"
    alpha: float = 0.0
    delta: float = 0.0
    schedule: Optional[PartitionSchedule] = None
    rule: IntegrationRule = IntegrationRule.LEFT
    sample_size: int = 100

    _SUPPORTED = ("elbo", "eubo", "tvo", "hbo", "perturbed_hbo")

    def __post_init__(self):
        if self.bound not in self._SUPPORTED:
            raise ValueError(
                f"unsupported training bound {self.bound!r}; expected one of {self._SUPPORTED}")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")

    def path_spec(self) -> PathSpec:
        if self.bound == "hbo":
            return PathSpec.holder(self.alpha)
        if self.bound == "perturbed_hbo":
            return PathSpec.perturbed(self.delta)
        return PathSpec.geometric()

    def resolved_schedule(self) -> PartitionSchedule:
        if self.schedule is not None:
            return self.schedule
        if self.bound == "tvo":
            return PartitionSchedule.log(50)
        return PartitionSchedule.uniform(50)

    def value(self, batch: ImportanceBatch) -> float:
        if self.bound == "elbo":
            return elbo(batch)
        if self.bound == "eubo":
            return eubo(batch)
        if self.bound == "tvo":
            return tvo(batch, self.resolved_schedule(), self.rule)
        if self.bound == "hbo":
            return hbo(batch, self.alpha, self.resolved_schedule(), self.rule)
        return perturbed_hbo(batch, self.delta, self.resolved_schedule(), self.rule)

    def gradient(self, model: LatentModel, params, batch: ImportanceBatch) -> GradientEstimate:
        if self.bound == "elbo":
            return local_evidence_grad(model, params, PathSpec.geometric(), 0.0, batch)
        if self.bound == "eubo":
            return local_evidence_grad(model, params, PathSpec.geometric(), 1.0, batch)
        return bound_grad(model, params, self.path_spec(), self.resolved_schedule(),
                          self.rule, batch)

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "alpha": self.alpha,
            "delta": self.delta,
            "schedule": self.resolved_schedule().to_json(),
            "rule": IntegrationRule.parse(self.rule).value,
            "sample_size": self.sample_size,
        }


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

    Per-step batch seeds derive deterministically from ``seed``, so identical
    calls produce identical traces.  If the parameters or the objective go
    non-finite the run aborts and returns the partial trace flagged as
    diverged.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    lam = model._resolve(params0).copy()
    step_seeds = derive_seeds(seed, steps + 1)
    rows_step, rows_lam, rows_val = [], [], []
    diverged = False
    for t in range(steps + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                batch = draw_batch(model, objective.sample_size, int(step_seeds[t]), lam)
                value = objective.value(batch)
        except (ValueError, FloatingPointError):
            # lambda drove the proposal or densities non-finite
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
        grad = objective.gradient(model, lam, batch)
        lam = lam + learning_rate * grad.total
        if not np.all(np.isfinite(lam)):
            diverged = True
            break
    config = {
        "objective": objective.to_json(),
        "steps": int(steps),
        "learning_rate": float(learning_rate),
        "seed": int(seed),
        "model": model.model_id,
    }
    return TrainingTrace(
        steps=np.asarray(rows_step, dtype=int),
        params=np.asarray(rows_lam, dtype=float),
        objective=np.asarray(rows_val, dtype=float),
        config=config,
        diverged=diverged,
    )
