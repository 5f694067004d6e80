#!/usr/bin/env python3
"""Exact local-evidence surface over (alpha, beta) for the sin toy.

Emits the quadrature curve for each holder order so the flattening and the
monotonicity flip are visible in one table: one row per (alpha, beta).
"""

import argparse
import csv

import numpy as np

from hvi import models


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="evidence_surface.csv")
    parser.add_argument("--x-obs", type=float, default=0.0)
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0])
    parser.add_argument("--beta-points", type=int, default=51)
    args = parser.parse_args()

    model = models.make_sin_toy(x_obs=args.x_obs)
    betas = np.linspace(0.0, 1.0, args.beta_points)
    log_p, curves = models.quadrature_oracle(model, args.alphas, betas)
    rows = []
    for alpha, curve in zip(args.alphas, curves):
        rows.extend([alpha, b, v, log_p] for b, v in zip(betas, curve))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "local_evidence", "log_marginal"])
        writer.writerows([[f"{v:.17g}" for v in row] for row in rows])
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
