#!/usr/bin/env python3
"""Audit the Gram-weighted error bound for the greedy detector on random ensembles.

Samples mixed-state ensembles, builds the greedy PVM, and reports the
distribution of bound / error ratios (the bound should never be undercut).
Exits 1 when any trial's error exceeds its bound by more than 1e-9.
"""

import argparse
import sys

import numpy as np

from qmht.detectors import evaluate_errors, gs_detector, gs_error_bound
from qmht.sampling import random_density_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    ratios = []
    violations = 0
    for _ in range(args.trials):
        states = [
            random_density_matrix(args.dim, rng, rank=int(rng.integers(1, args.dim + 1)))
            for _ in range(args.states)
        ]
        det, diag = gs_detector(states)
        err = evaluate_errors(states, det).averaged
        bound = gs_error_bound(states, diag)
        if err > bound + 1e-9:
            violations += 1
        if err > 1e-12:
            ratios.append(bound / err)

    print(f"trials: {args.trials}, violations: {violations}")
    if ratios:
        print(
            f"bound/err ratio: min {min(ratios):.3f}, median {np.median(ratios):.3f}, "
            f"max {max(ratios):.3f}"
        )
    else:
        print("bound/err ratio: no trial has err > 1e-12")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
