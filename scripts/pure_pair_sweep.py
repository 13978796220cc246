#!/usr/bin/env python3
"""Sweep the |0> vs |+> pair across detector families and print the exponents.

Shows how each family's finite-n error exponent sits relative to the
pairwise Chernoff ceiling (log 2 for this pair).
"""

import argparse
import math

import numpy as np

from qmht.linalg import DensityMatrix
from qmht.tensorlab import run_power_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()

    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    states = [zero, plus]

    ns = range(1, args.n_max + 1)
    sweeps = {"gs": run_power_experiment(states, ns, "gs")}
    qcb = sweeps["gs"].qcb  # one Chernoff bound serves all three sweeps
    for kind in ("helstrom", "epsilon"):
        sweeps[kind] = run_power_experiment(states, ns, kind, qcb=qcb)
    print(f"pairwise Chernoff bound xi = {qcb.xi:.6f} (log 2 = {math.log(2):.6f})")
    print(f"{'n':>3} {'gs err':>12} {'gs exp':>8} {'hh exp':>8} "
          f"{'eps exp':>8} {'eps':>7} {'gs bound':>12}")
    for k in range(args.n_max):
        gs, hh, ep = (sweeps[kind].rows[k] for kind in ("gs", "helstrom", "epsilon"))
        print(
            f"{gs.n:>3} {gs.err:>12.4e} {gs.exponent:>8.4f} {hh.exponent:>8.4f} "
            f"{ep.exponent:>8.4f} {ep.epsilon:>7.4f} {gs.error_bound:>12.4e}"
        )
    for kind, report in sweeps.items():
        slope = report.exponent_slopes[kind]
        print(f"{kind}: top-half slope estimate of -log(err) vs n: {slope:.4f}")


if __name__ == "__main__":
    main()
