"""Overlap curves and the binary / multiple quantum Chernoff bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DensityMatrix

GRID_POINTS = 64
GOLDEN_STEP_TOL = 1e-8
CONSTANT_CURVE_ATOL = 1e-12
DISTINCT_STATES_ATOL = 1e-10
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ChernoffResult:
    """Binary bound: xi is -log(q_star), or +inf when the overlap infimum is zero."""

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
    the 0**0 == 0 convention at the endpoints.
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

    def __call__(self, s: float) -> float:
        return float(self.on_grid(np.array([s]))[0])

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """The curve at every point of ``grid`` in one stacked matmul.

        An empty support gives empty sums, hence 0.
        """
        s = grid[:, None, None]
        # (g, 1, p) @ (p, q) @ (g, q, 1): one vector-matrix-vector product per point
        return (self._lam ** (1.0 - s) @ self._weights @ self._mu[:, None] ** s)[:, 0, 0]


def q_overlap(rho: DensityMatrix, sigma: DensityMatrix, s: float) -> float:
    """Support-restricted overlap sum_{jk} lam_j^(1-s) mu_k^s |<v_j|w_k>|^2."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    return OverlapCurve(rho, sigma)(s)


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Shrink a bracket around the minimum of a unimodal f; returns the midpoint.

    The interior point that survives a step is carried with its value into
    the next, so each step costs one evaluation of f.
    """
    left, right = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    f_left, f_right = f(left), f(right)
    while hi - lo > tol:
        if f_left <= f_right:
            hi, right, f_right = right, left, f_left
            left = hi - INV_PHI * (hi - lo)
            f_left = f(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + INV_PHI * (hi - lo)
            f_right = f(right)
    return 0.5 * (lo + hi)


def binary_qcb(rho: DensityMatrix, sigma: DensityMatrix) -> ChernoffResult:
    """Minimize the overlap curve on [0, 1].

    A 64-point uniform grid brackets the minimum, golden-section search refines
    it to 1e-8, and the closed-interval endpoints stay in the candidate set. A
    curve that is constant over the grid reports s_star = 0.5.
    """
    curve = OverlapCurve(rho, sigma)
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    values = curve.on_grid(grid)
    if float(values.max() - values.min()) <= CONSTANT_CURVE_ATOL:
        s_star = 0.5
        q_star = curve(0.5)
    else:
        k = int(np.argmin(values))
        lo = float(grid[max(k - 1, 0)])
        hi = float(grid[min(k + 1, GRID_POINTS - 1)])
        refined = _golden_section(curve, lo, hi, GOLDEN_STEP_TOL)
        candidates = sorted({0.0, float(grid[k]), float(refined), 1.0})
        q_star, s_star = min((curve(s), s) for s in candidates)
    xi = math.inf if q_star <= 0.0 else -math.log(q_star)
    return ChernoffResult(xi=xi, s_star=float(s_star), q_star=float(q_star))


def multiple_qcb(sigma_set: Sequence[DensityMatrix]) -> MultipleChernoffResult:
    """All pairwise bounds, their minimum, and the (lexicographically first) argmin pair."""
    states = list(sigma_set)
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    dim = states[0].dim
    if any(rho.dim != dim for rho in states):
        raise ValueError("states must share one dimension")
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if float(np.abs(states[i].mat - states[j].mat).max()) <= DISTINCT_STATES_ATOL:
                raise ValueError(f"states {i} and {j} are duplicates")
    pairwise: dict[tuple[int, int], ChernoffResult] = {}
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            pairwise[(i, j)] = binary_qcb(states[i], states[j])
    best_pair = min(pairwise, key=lambda pair: (pairwise[pair].xi, pair))
    return MultipleChernoffResult(
        xi=pairwise[best_pair].xi, argmin_pair=best_pair, pairwise=pairwise
    )
