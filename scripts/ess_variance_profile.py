#!/usr/bin/env python3
"""Estimation variance and effective sample size along thermodynamic curves.

Profiles the geometric path against a holder path over replicate batches;
variance spikes track curve curvature, and the holder path keeps samples
contributing at higher temperatures.
"""

import argparse
import csv

import numpy as np

from hvi import models
from hvi.diagnostics import curve_profile
from hvi.paths import PathSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="ess_variance_profile.csv")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument("--batch-size", type=int, default=1000)
    parser.add_argument("--replicates", type=int, default=50)
    parser.add_argument("--beta-points", type=int, default=21)
    args = parser.parse_args()

    model = models.make_sin_toy()
    betas = np.linspace(0.0, 1.0, args.beta_points)
    rows = []
    for label, spec in (("geometric", PathSpec("geometric")),
                        (f"holder_{args.alpha:g}", PathSpec("holder", alpha=args.alpha))):
        profile = curve_profile(model, spec, betas, args.batch_size,
                                args.replicates, args.seed)
        rows.extend(
            [label, betas[i], profile.means[i], profile.variances[i],
             profile.mean_ess[i]]
            for i in range(betas.size))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "beta", "mean", "variance", "mean_ess"])
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.17g}" for v in row[1:]])
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
