"""Score-function gradient estimation and a plain gradient-ascent trainer.

The per-temperature gradient uses the covariance identity of Masrani et al.,
The Thermodynamic Variational Objective (arXiv:1907.00031),

    grad E_pi[g] = E_pi[grad g] + cov_pi(grad log pi_beta, g),

estimated with the batch's self-normalized weights, for every beta of a
schedule in one pass of ``estimators._reduce``.  On the geometric path
this is exactly the two-term estimator

    sum_s w_s^beta grad log pi_beta(Z_s) (f(Z_s) - fbar)   (term i)
  + sum_s w_s^beta grad f(Z_s)                             (term ii)

with fbar the weighted mean of f; term (i) is a REINFORCE gradient and term
(ii) interpolates the pathwise ELBO/IW-ELBO gradients.  The same covariance
structure is applied on the power-mean and perturbed paths (the identity's
derivation does not depend on the path); those branches are validated against
finite differences of the quadrature oracle in the test suite.  There is no
reparameterization anywhere: everything works for non-reparametrizable
proposals.  The gradient's std err is opt-in: ``train`` reads only the value and
the total, term (i) + term (ii), so a training step forms nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimators import _BOUNDS, _PATH_BOUNDS, ImportanceBatch, IntegrationRule, PartitionSchedule
from .estimators import _Form, _form_value, _reduce, _resolve, draw_batch
from .models import LatentModel
from .util import _count, derive_seeds

__all__ = [
    "BoundObjective",
    "TrainingTrace",
    "train",
]


def _path_step(model: LatentModel, lam: np.ndarray, form: _Form, batch: ImportanceBatch,
               std_err: bool = False) -> tuple:
    """(weights @ curve of ``form``, gradient terms (i) and (ii), their sum's std err or None)
    from one estimators._reduce pass, with the model's gradient fields at the ``lam`` the
    batch was drawn at, under the caller's numpy error state (train's, per run)."""
    grad_l0 = model.grad_log_proposal(batch.z, lam)
    grad_f = model.grad_log_target(batch.z, lam) - grad_l0
    values, *_, grad = _reduce(batch, form, fields=(grad_l0, grad_f), grad_std_err=std_err)
    return (float(form.weights @ values), *grad)


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
    _form: _Form = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bound not in _PATH_BOUNDS:
            raise ValueError(
                f"unsupported training bound {self.bound!r}; expected one of {_PATH_BOUNDS}")
        for name in ("alpha", "delta"):
            if getattr(self, name) != 0.0 and name != _BOUNDS[self.bound].param:
                raise ValueError(f"bound {self.bound!r} takes no {name}")
        object.__setattr__(self, "sample_size", _count("sample_size", self.sample_size, 1))
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
    (beyond the float range among them, see estimators._reduce), or its update is not
    finite, the run keeps the rows before that step and the failure's message.
    """
    steps = _count("steps", steps, 0)
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
                    value, term_i, term_ii, _ = _path_step(model, lam, objective._form, batch)
                else:  # the last batch only scores the final parameters
                    value = _form_value(batch, objective._form)
            except ValueError as exc:
                failure = str(exc)
                break
            rows_lam.append(lam.copy())
            rows_val.append(value)
            if t == steps:
                break
            lam = lam + learning_rate * (term_i + term_ii)
            if np.count_nonzero(np.isfinite(lam)) < lam.size:
                failure = "non-finite parameters"
                break
    return TrainingTrace(  # a full run has a row per step and one for its last batch
        params=np.asarray(rows_lam, dtype=float),
        objective=np.asarray(rows_val, dtype=float),
        config={"objective": {"bound": objective.bound}},
        failure=failure,
    )
