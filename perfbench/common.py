"""Locating the hvi sources of the checkout and small statistics helpers.

The benchmark measures the library as it stands in the checkout it runs from,
never an installed copy, so every entry point puts ``<root>/src`` first on
``sys.path`` and verifies that ``hvi`` was imported from there.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


class MissingSources(RuntimeError):
    """The checkout holds no hvi sources to measure."""


def use_checkout_sources():
    """Import ``hvi`` from ``<root>/src``; raise MissingSources otherwise."""
    if not (SRC / "hvi" / "__init__.py").is_file():
        raise MissingSources(f"no hvi package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hvi
    import hvi.cli  # the one layer module the package does not import itself

    if Path(hvi.__file__).resolve().parent != (SRC / "hvi").resolve():
        raise MissingSources(f"hvi was imported from {hvi.__file__}, not from {SRC}")
    return hvi


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) without numpy."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
