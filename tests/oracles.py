"""Quadrature and finite-difference oracles that only the tests read.

``quadrature_local_evidence`` is one point of the library's tiled curve.
``quadrature_curve_slope`` takes the whole grid at once through the pointwise
reference forms of ``path_forms`` and scipy's ``logsumexp``, so it shares no
reduction with the library.  ``finite_difference_grad`` differentiates any
deterministic functional of lambda.
"""

import math

import numpy as np
from scipy.special import logsumexp

from hvi import models
from hvi.paths import PathSpec
from path_forms import reference_integrand_parts, reference_log_density


def quadrature_local_evidence(model, alpha, beta, grid=None, params=None) -> float:
    """Exact local evidence: the expectation of the path integrand under pi_(alpha,beta)."""
    return float(models.quadrature_local_evidence_curve(model, alpha, [beta], grid, params)[0])


def quadrature_curve_slope(model, alpha, beta, grid=None, params=None) -> float:
    """d/dbeta of the local evidence, -E[g]^2 + (1 - alpha) E[g^2] under the normalized
    path density, formed in log space: a slope beyond the float range reads as the
    infinity of its sign.  At alpha = 1 the second term is 0 while E[g^2] can overflow,
    so the slope is -E E from the local evidence."""
    if alpha == 1.0:
        evidence = quadrature_local_evidence(model, alpha, beta, grid, params)
        return -evidence * evidence
    pts, log_cell = models.quadrature_grid(model, grid)
    l0, l1 = model.log_proposal(pts, params), model.log_target(pts, params)
    spec = PathSpec.holder(alpha)
    log_w = reference_log_density(spec, l0, l1, beta) + log_cell
    log_w -= logsumexp(log_w)
    sign, log_abs = reference_integrand_parts(spec, l0, l1, beta)
    log_first = logsumexp(log_w + log_abs, b=sign, return_sign=True)[0]
    terms = [math.log(abs(1.0 - alpha)) + logsumexp(log_w + 2.0 * log_abs), 2.0 * log_first]
    log_slope, slope_sign = logsumexp(terms, b=[math.copysign(1.0, 1.0 - alpha), -1.0],
                                      return_sign=True)
    with np.errstate(over="ignore"):
        return float(slope_sign * np.exp(log_slope))


def finite_difference_grad(model, params, objective, step=1e-4) -> np.ndarray:
    """Central finite differences of ``objective(model, lambda)``, deterministic in lambda."""
    lam = model._resolve(params)
    out = np.empty(lam.size)
    for j, bump in enumerate(step * np.eye(lam.size)):
        out[j] = (objective(model, lam + bump) - objective(model, lam - bump)) / (2.0 * step)
    return out
