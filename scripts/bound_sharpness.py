#!/usr/bin/env python3
"""Bound sharpness across observations on the sin toy (likelihood scale).

Reproduces the matched-configuration comparison (K = 100 partitions, batch
size B = 10, holder order 0.8): for each observation x the script evaluates
every bound on shared per-seed batches, averages over replicate seeds, and
writes one likelihood-scale column per bound next to the quadrature truth.
"""

import argparse
import csv
import math

import numpy as np

from hvi import models
from hvi.estimators import IntegrationRule, PartitionSchedule, bound_report, draw_batch
from hvi.util import derive_seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bound_sharpness.csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=10)
    parser.add_argument("--partitions", type=int, default=100)
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument("--replicates", type=int, default=50)
    parser.add_argument("--x-points", type=int, default=101)
    args = parser.parse_args()

    schedule = PartitionSchedule.uniform(args.partitions)
    seeds = derive_seeds(args.seed, args.replicates)
    bounds = ["elbo", "iw_elbo", "rvi[0.5]", "tvo", f"hbo[{args.alpha!r}]"]
    header = ["x", "p_true", "elbo", "iw_elbo", "rvi_0.5", "tvo", f"hbo_{args.alpha:g}"]
    rows = []
    for x in np.linspace(-2.5, 2.5, args.x_points):
        model = models.make_sin_toy(x_obs=float(x))
        p_true = math.exp(models.quadrature_log_marginal(model))
        sums = np.zeros(len(bounds))
        for seed in seeds:
            batch = draw_batch(model, args.batch_size, int(seed))
            report = bound_report(batch, bounds, schedule, schedule, IntegrationRule.LEFT)
            sums += np.exp(list(report.values()))
        rows.append([x, p_true, *(sums / args.replicates)])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[f"{v:.17g}" for v in row] for row in rows])
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
