"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output is
correct.  A timed operation whose output has any problem counts as failed, so
these checks feed ``failed`` / ``attempted`` (the run's fail ratio).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Slack for comparisons between estimates that are ordered exactly in real
# arithmetic but are summed in different orders in floating point.
ORDER_SLACK = 1e-9


def bounds_csv(text: str, bounds, seeds) -> list[str]:
    """``hvi bounds`` output: one finite row per seed, ordered as theory says.

    On any single batch elbo <= tvo <= eubo (the geometric curve is
    nondecreasing because its derivative is a weighted variance, and a left
    Riemann sum of a nondecreasing curve lies between its endpoints) and
    elbo <= iw_elbo (Jensen's inequality).
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["seed", *bounds]:
        return [f"bounds header {rows[0] if rows else None} != {['seed', *bounds]}"]
    body = rows[1:]
    if [r[0] for r in body] != [str(s) for s in seeds]:
        return [f"bounds rows for seeds {[r[0] for r in body]}, expected {list(seeds)}"]
    problems = []
    for row in body:
        try:
            v = dict(zip(bounds, (float(x) for x in row[1:])))
        except ValueError:
            problems.append(f"seed {row[0]}: unparsable row {row}")
            continue
        if len(v) != len(bounds) or not all(math.isfinite(x) for x in v.values()):
            problems.append(f"seed {row[0]}: missing or non-finite values {row}")
            continue
        if not v["elbo"] <= v["tvo"] + ORDER_SLACK:
            problems.append(f"seed {row[0]}: elbo {v['elbo']} > tvo {v['tvo']}")
        if not v["tvo"] <= v["eubo"] + ORDER_SLACK:
            problems.append(f"seed {row[0]}: tvo {v['tvo']} > eubo {v['eubo']}")
        if not v["elbo"] <= v["iw_elbo"] + ORDER_SLACK:
            problems.append(f"seed {row[0]}: elbo {v['elbo']} > iw_elbo {v['iw_elbo']}")
    return problems


def tune_json(text: str, candidates, betas) -> list[str]:
    """Grid ``hvi tune`` output: exact evaluation count and a finite pick."""
    try:
        result = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"tune output is not JSON: {exc}"]
    problems = []
    expected = len(candidates) * len(betas)
    if result.get("evaluations") != expected:
        problems.append(f"tune evaluations {result.get('evaluations')} != "
                        f"{len(candidates)} candidates x {len(betas)} betas")
    if result.get("alpha") not in [float(c) for c in candidates]:
        problems.append(f"tuned alpha {result.get('alpha')} is not a candidate")
    table = result.get("table", [])
    if len(table) != len(candidates):
        problems.append(f"tune table has {len(table)} rows, expected {len(candidates)}")
    for row in table:
        if not all(math.isfinite(x) for x in row.get("values", [math.nan])):
            problems.append(f"non-finite curve values at alpha {row.get('alpha')}")
    return problems


def training_trace(trace, steps: int) -> list[str]:
    """A criterion-11 training run: complete, finite, not diverged."""
    problems = []
    if trace.diverged:
        problems.append(f"{trace.config['objective']['bound']} training diverged")
    if len(trace) != steps + 1:
        problems.append(f"trace has {len(trace)} rows, expected {steps + 1}")
    if not np.all(np.isfinite(trace.objective)):
        problems.append("non-finite objective in trace")
    if not np.all(np.isfinite(trace.params)):
        problems.append("non-finite parameters in trace")
    return problems


def mmd_value(value: float) -> list[str]:
    if not (math.isfinite(value) and value >= 0.0):
        return [f"mmd {value} is not a finite nonnegative number"]
    return []


def log_marginal(value: float) -> list[str]:
    if not math.isfinite(value):
        return [f"log marginal {value} is not finite"]
    return []


def oracle_curve(alpha: float, betas, curve, log_p: float) -> list[str]:
    """Quadrature evidence curve on a uniform beta grid with an odd point count.

    Criterion 5: the curve is nondecreasing for alpha <= 0 and nonincreasing
    for alpha >= 1, on any grid.  The trapezoid area must match log p(x) within
    |T_h - T_2h|, three times the Richardson estimate of the trapezoid error,
    which is what the chosen beta spacing can support.
    """
    betas = np.asarray(betas, dtype=float)
    curve = np.asarray(curve, dtype=float)
    if curve.shape != betas.shape or not np.all(np.isfinite(curve)):
        return [f"alpha {alpha}: curve missing or non-finite"]
    problems = []
    steps = np.diff(curve)
    if alpha <= 0.0 and np.min(steps) < -ORDER_SLACK:
        problems.append(f"alpha {alpha}: curve decreases by {-np.min(steps):.3e}")
    if alpha >= 1.0 and np.max(steps) > ORDER_SLACK:
        problems.append(f"alpha {alpha}: curve increases by {np.max(steps):.3e}")
    area = float(np.trapezoid(curve, betas))
    coarse = float(np.trapezoid(curve[::2], betas[::2]))
    tolerance = abs(area - coarse) + ORDER_SLACK
    if abs(area - log_p) > tolerance:
        problems.append(f"alpha {alpha}: trapezoid area {area} vs log p {log_p}, "
                        f"gap {abs(area - log_p):.3e} > {tolerance:.3e}")
    return problems
