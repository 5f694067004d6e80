"""Pointwise path forms for the tests: one read through the kernel, one written out.

``log_density`` and ``integrand`` read h = log pi_beta - L0 from
``hvi.paths.path_weights`` at one beta, so identities checked through them
hold for the code every estimator runs; ``integrand`` forms g from that h
through ``path_integrand_parts``.  The ``reference_*`` functions are an
independent pointwise implementation of the same math, in terms of the
endpoint log densities (L0, L1): the Hölder branch through ``logaddexp``.
Only tests that compare two implementations use them.
"""

import math

import numpy as np

from hvi.paths import PathSpec, path_weights
from hvi.util import log_abs_expm1


def _holder_log_scale(alpha: float, f):
    """log |e^(alpha f) - 1| - log |alpha|, so that log |g| = this - alpha*h."""
    return (alpha * np.maximum(f, 0.0) + log_abs_expm1(-alpha * np.abs(f))
            - math.log(abs(alpha)))


def path_integrand_parts(spec: PathSpec, block, log_ratio):
    """(sign, log |g|) of the integrand g for one PathBlock of path_weights over ``log_ratio``.

    On the power-mean branch g can overflow exactly where the weight
    underflows, so pair log |g| with block.log_w.
    """
    branch, param = spec.branch()
    f = np.asarray(log_ratio, dtype=float)
    if branch == "holder":
        return np.sign(f), _holder_log_scale(param, f) - param * block.h
    g = _plain_integrand(branch, param, f, block.betas)
    with np.errstate(divide="ignore"):
        return np.sign(g), np.log(np.abs(g))


def _kernel_block(spec: PathSpec, log_proposal, log_target, beta: float):
    """(L0, f, the kernel's block at beta over f flattened to at least one point)."""
    l0 = np.asarray(log_proposal, dtype=float)
    f = np.asarray(log_target, dtype=float) - l0
    flat = np.atleast_1d(f)
    return l0, f, flat, next(path_weights(spec, [beta], flat))


def log_density(spec: PathSpec, log_proposal, log_target, beta: float):
    """log pi_beta = L0 + h, with h from path_weights."""
    l0, f, _, block = _kernel_block(spec, log_proposal, log_target, beta)
    return l0 + block.h.reshape(f.shape)


def integrand(spec: PathSpec, log_proposal, log_target, beta: float):
    """d/dbeta log pi_beta from path_integrand_parts; may overflow to +-inf."""
    _, f, flat, block = _kernel_block(spec, log_proposal, log_target, beta)
    sign, log_abs = path_integrand_parts(spec, block, flat)
    with np.errstate(over="ignore"):
        return (sign * np.exp(log_abs)).reshape(f.shape)


def _pointwise(spec: PathSpec, log_proposal, log_target, beta: float):
    """(branch, param, L0, f, beta, h = log pi_beta - L0)."""
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    l0 = np.asarray(log_proposal, dtype=float)
    f = np.asarray(log_target, dtype=float) - l0
    branch, param = spec.branch()
    if branch == "geometric":
        h = beta * f
    elif branch == "perturbed":
        h = beta * f + (0.5 * param) * beta * (1.0 - beta) * (f * f)
    else:
        with np.errstate(divide="ignore"):
            h = np.logaddexp(np.log(beta) + param * f, np.log1p(-beta)) / param
    return branch, param, l0, f, beta, h


def reference_log_density(spec: PathSpec, log_proposal, log_target, beta: float):
    """log pi_beta(z) from the endpoint log densities L0, L1."""
    _, _, l0, _, _, h = _pointwise(spec, log_proposal, log_target, beta)
    return l0 + h


def _plain_integrand(branch: str, param: float, f, beta):
    """The integrand on the geometric and perturbed branches."""
    return f if branch == "geometric" else f + (0.5 - beta) * param * (f * f)


def reference_integrand_parts(spec: PathSpec, log_proposal, log_target, beta: float):
    """(sign, log |integrand|) from L0 and L1.

    On the power-mean path the integrand (1/a)(e^(a L1) - e^(a L0))/e^(a U)
    can overflow exactly where the weight underflows.
    """
    branch, param, _, f, beta, h = _pointwise(spec, log_proposal, log_target, beta)
    if branch == "holder":
        return np.sign(f), _holder_log_scale(param, f) - param * h
    g = _plain_integrand(branch, param, f, beta)
    with np.errstate(divide="ignore"):
        return np.sign(g), np.log(np.abs(g))


def reference_integrand(spec: PathSpec, log_proposal, log_target, beta: float):
    """d/dbeta log pi_beta(z) from L0 and L1; may overflow to +-inf."""
    branch, param, _, f, beta, _ = _pointwise(spec, log_proposal, log_target, beta)
    if branch != "holder":
        return _plain_integrand(branch, param, f, beta)
    sign, log_abs = reference_integrand_parts(spec, log_proposal, log_target, beta)
    with np.errstate(over="ignore"):
        return sign * np.exp(log_abs)
