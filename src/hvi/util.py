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


def _count(name: str, value, least: int) -> int:
    """``value``, a Python or numpy integer (not a bool) of at least ``least``, as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)
