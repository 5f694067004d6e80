#!/usr/bin/env python3
"""Likelihood approximation error against partition budget K, TVO vs HBO.

For each budget the two thermodynamic bounds run on shared per-observation
batches and the integrated error weight p(x) |p(x) - p_hat(x)| comes from the
quadrature oracle.
"""

import argparse
import csv

import numpy as np

from hvi import models
from hvi.diagnostics import approx_error
from hvi.estimators import IntegrationRule, PartitionSchedule, bound_report, draw_batch


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="partition_budget_error.csv")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument("--batch-size", type=int, default=250)
    parser.add_argument("--budgets", type=int, nargs="+", default=[2, 5, 10, 30, 50])
    args = parser.parse_args()

    x_grid = np.linspace(-2.5, 2.5, 101)
    family = lambda x: models.make_sin_toy(x_obs=x)

    def estimate(bound_id, schedule):
        """Model -> the bound on its seeded batch, with ``schedule`` and the left rule."""
        return lambda m: bound_report(
            draw_batch(m, args.batch_size, args.seed), [bound_id], tvo_schedule=schedule,
            hbo_schedule=schedule, rule=IntegrationRule.LEFT)[bound_id]

    rows = []
    for partitions in args.budgets:
        schedule = PartitionSchedule.uniform(partitions)
        err_tvo = approx_error(family, x_grid, estimate("tvo", schedule))
        err_hbo = approx_error(family, x_grid, estimate(f"hbo[{args.alpha!r}]", schedule))
        rows.append([partitions, err_tvo, err_hbo])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partitions", "tvo_error", f"hbo_{args.alpha:g}_error"])
        writer.writerows([[row[0]] + [f"{v:.17g}" for v in row[1:]] for row in rows])
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
