"""Overlap curves and the binary / multiple quantum Chernoff bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DensityMatrix

GRID_POINTS = 64
GRID = np.linspace(0.0, 1.0, GRID_POINTS)
GRID.setflags(write=False)
NEWTON_STEP_TOL = 1e-12
# bisection alone shrinks a two-cell bracket below NEWTON_STEP_TOL in 35 steps
NEWTON_MAX_STEPS = 60
CONSTANT_CURVE_ATOL = 1e-12
DISTINCT_STATES_ATOL = 1e-10


@dataclass(frozen=True)
class ChernoffResult:
    """Binary bound: xi is -log(q_star), +0.0 when q_star rounds to 1, or
    +inf when the overlap infimum is zero."""

    xi: float
    s_star: float
    q_star: float


@dataclass(frozen=True)
class MultipleChernoffResult:
    """Worst pair over a hypothesis set; indices are zero-based positions in the set."""

    xi: float
    argmin_pair: tuple[int, int]
    pairwise: dict[tuple[int, int], ChernoffResult]


class OverlapCurve:
    """tr[rho^(1-s) sigma^s] as a function of s, on the joint support.

    Terms with a zero eigenvalue on either side are dropped, which realizes
    the 0**0 == 0 convention at the endpoints. The curve is
    f(s) = sum_jk W_jk lam_j^(1-s) mu_k^s with W_jk = |<v_j|w_k>|^2 >= 0, a
    positive sum of exponentials in s, hence convex.
    """

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix) -> None:
        if rho.dim != sigma.dim:
            raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
        a, b = rho.spectrum(), sigma.spectrum()
        ia, ib = a.positive_indices(), b.positive_indices()
        self._lam = a.eigenvalues[ia]
        self._mu = b.eigenvalues[ib]
        cross = a.vectors[:, ia].conj().T @ b.vectors[:, ib]
        self._weights = np.abs(cross) ** 2
        log_lam, log_mu = np.log(self._lam), np.log(self._mu)
        self._lam_logs = np.stack([np.ones_like(log_lam), log_lam, log_lam**2])
        self._mu_logs = np.stack([np.ones_like(log_mu), log_mu, log_mu**2], axis=1)

    def __call__(self, s: float) -> float:
        return float(self.on_grid(np.array([s]))[0])

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """The curve at every point of ``grid`` in one stacked matmul.

        An empty support gives empty sums, hence 0.
        """
        s = grid[:, None, None]
        # (g, 1, p) @ (p, q) @ (g, q, 1): one vector-matrix-vector product per point
        return (self._lam ** (1.0 - s) @ self._weights @ self._mu[:, None] ** s)[:, 0, 0]

    def slope_and_curvature(self, s: float) -> tuple[float, float]:
        """(f'(s), f''(s)) from one (3 x p) W (q x 3) product.

        Entry (a, b) of the product is sum_jk lam_j^(1-s) (log lam_j)^a W_jk
        mu_k^s (log mu_k)^b; each term of f' carries log mu_k - log lam_j, and
        each term of f'' its square.
        """
        m = (self._lam_logs * self._lam ** (1.0 - s)) @ self._weights @ (
            self._mu_logs * self._mu[:, None] ** s
        )
        return float(m[0, 1] - m[1, 0]), float(m[0, 2] - 2.0 * m[1, 1] + m[2, 0])


def q_overlap(rho: DensityMatrix, sigma: DensityMatrix, s: float) -> float:
    """Support-restricted overlap sum_{jk} lam_j^(1-s) mu_k^s |<v_j|w_k>|^2."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    return OverlapCurve(rho, sigma)(s)


def _newton_minimum(curve: OverlapCurve, lo: float, hi: float, start: float) -> float:
    """Root of f' in [lo, hi] by Newton steps from ``start``, safeguarded by
    bisection; where f' keeps one sign the iterate closes on that end.

    f' is increasing, so its sign at each iterate shrinks the bracket. A step
    that leaves the bracket, or a curvature that rounding made non-positive,
    is replaced by the midpoint.
    """
    s = start
    for _ in range(NEWTON_MAX_STEPS):
        slope, curvature = curve.slope_and_curvature(s)
        if slope > 0.0:
            hi = s
        elif slope < 0.0:
            lo = s
        step = slope / curvature if curvature > 0.0 else math.inf
        nxt = s - step
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - s) <= NEWTON_STEP_TOL or hi - lo <= NEWTON_STEP_TOL
        s = nxt
        if done:
            break
    return s


def binary_qcb(rho: DensityMatrix, sigma: DensityMatrix) -> ChernoffResult:
    """Minimize the overlap curve on [0, 1].

    A 64-point uniform grid brackets the minimum, a safeguarded Newton
    iteration on f' refines it to 1e-12, and the closed-interval endpoints
    stay in the candidate set. A curve that is constant over the grid reports
    s_star = 0.5.
    """
    curve = OverlapCurve(rho, sigma)
    values = curve.on_grid(GRID)
    if float(values.max() - values.min()) <= CONSTANT_CURVE_ATOL:
        s_star = 0.5
        q_star = curve(0.5)
    else:
        k = int(np.argmin(values))
        lo = float(GRID[max(k - 1, 0)])
        hi = float(GRID[min(k + 1, GRID_POINTS - 1)])
        refined = _newton_minimum(curve, lo, hi, float(GRID[k]))
        candidates = sorted({0.0, float(GRID[k]), refined, 1.0})
        q_star, s_star = min(zip(curve.on_grid(np.array(candidates)).tolist(), candidates))
    # q* <= 1 for any two states; max keeps a q* that rounds to 1 from giving -0.0
    xi = math.inf if q_star <= 0.0 else max(0.0, -math.log(q_star))
    return ChernoffResult(xi=xi, s_star=float(s_star), q_star=float(q_star))


def check_distinct(states: Sequence[DensityMatrix]) -> None:
    """Raise ValueError naming the first pair of states of one dimension that
    agree entrywise within ``DISTINCT_STATES_ATOL``."""
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if float(np.abs(states[i].mat - states[j].mat).max()) <= DISTINCT_STATES_ATOL:
                raise ValueError(f"states {i} and {j} are duplicates")


def multiple_qcb(sigma_set: Sequence[DensityMatrix]) -> MultipleChernoffResult:
    """All pairwise bounds, their minimum, and the (lexicographically first) argmin pair."""
    states = list(sigma_set)
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    dim = states[0].dim
    if any(rho.dim != dim for rho in states):
        raise ValueError("states must share one dimension")
    check_distinct(states)
    pairwise: dict[tuple[int, int], ChernoffResult] = {}
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            pairwise[(i, j)] = binary_qcb(states[i], states[j])
    best_pair = min(pairwise, key=lambda pair: (pairwise[pair].xi, pair))
    return MultipleChernoffResult(
        xi=pairwise[best_pair].xi, argmin_pair=best_pair, pairwise=pairwise
    )
