"""Small shared numerical helpers."""

from __future__ import annotations

import numpy as np


def log_abs_expm1(x: np.ndarray) -> np.ndarray:
    """log |exp(x) - 1|, elementwise, without overflow for large |x|.

    For x > 0:  log(e^x - 1) = x + log(1 - e^(-x)).
    For x <= 0: log(1 - e^x).
    Returns -inf at x = 0.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        base = np.log(-np.expm1(-ax))
    return np.where(x > 0, ax + base, base)


def derive_seeds(seed: int, count: int) -> np.ndarray:
    """Child seeds for replicate/step tasks.

    Deterministic given (seed, count) and prefix-stable: the first k seeds do
    not depend on count, so shrinking a run keeps its replicates comparable.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
