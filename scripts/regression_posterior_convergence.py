#!/usr/bin/env python3
"""Posterior convergence on the Bayesian regression model, measured by MMD.

Trains a diagonal Gaussian proposal with several bounds at a matched budget
and tracks the kernel discrepancy to a random-walk Metropolis reference along
the way (bandwidth 0.5, reference-normalized).
"""

import argparse
import csv

import numpy as np

from hvi import models
from hvi.diagnostics import MmdReference, mcmc_reference, mmd
from hvi.estimators import PartitionSchedule
from hvi.gradients import BoundObjective, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="regression_posterior_convergence.csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--batch-size", type=int, default=100)
    parser.add_argument("--learning-rate", type=float, default=8e-4)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--mmd-every", type=int, default=250)
    args = parser.parse_args()

    model = models.make_bayes_regression(models.simulate_bayes_dataset(args.data_seed))
    reference = MmdReference.of(mcmc_reference(model, chains=4, steps=17500, burn_in=5000,
                                               thin=10, seed=42).pooled)
    init = model.default_params.values + np.array([1.5, -0.04, 0.5, 0.0, 0.0, 0.0])
    schedule = PartitionSchedule.uniform(5)
    objectives = {
        "elbo": BoundObjective(bound="elbo", sample_size=args.batch_size),
        "tvo": BoundObjective(bound="tvo", schedule=schedule,
                              sample_size=args.batch_size),
        f"hbo_{args.alpha:g}": BoundObjective(bound="hbo", alpha=args.alpha,
                                              schedule=schedule,
                                              sample_size=args.batch_size),
    }
    rows = []
    for label, objective in objectives.items():
        trace = train(model, init, objective, args.steps, args.learning_rate, args.seed)
        for i in range(0, len(trace), args.mmd_every):
            draws = model.sample_proposal(np.random.default_rng(args.seed + i), 2000,
                                          trace.params[i])  # row i holds step i
            rows.append([label, i, trace.objective[i], mmd(draws, reference)])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bound", "step", "objective", "mmd"])
        for row in rows:
            writer.writerow([row[0], row[1]] + [f"{v:.17g}" for v in row[2:]])
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
