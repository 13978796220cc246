"""Overlap curves and the binary / multiple quantum Chernoff bounds.

Every bound comes from one pass over a family (``pairwise_qcb``):
``multiple_qcb``, ``binary_qcb`` (the pass on two states),
``detectors.gs_error_bound`` and ``tensorlab.run_power_experiment`` all run
it. The pass builds each state's support once: its kept eigenvalues (the
1e-12 relative cut) and their vectors, with the grid power table and the
log-moment stack of each side of a pair that the state takes. Each pair
then costs one weight product, one stacked grid product and a few Newton
steps; its grid minimum is read off the grid, and only the Newton point is
evaluated anew. The supports come from each state's cached ``spectrum()``,
which takes no eigensolve for an exactly diagonal state
(``linalg.spectral_decompose``): a family of such states, the paper's
classical special case, has the 0/1 weights of the identity's columns, and
its curve is the classical sum_k p_k^(1-s) q_k^s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DensityMatrix, check_family

GRID_POINTS = 64
GRID = np.linspace(0.0, 1.0, GRID_POINTS)
GRID.setflags(write=False)
# the grid as Python floats, and as (g, 1, 1) stacks of the exponents s and 1 - s
_GRID_S = GRID.tolist()
_GRID_STACK = GRID[:, None, None]
_ONE_MINUS_GRID_STACK = 1.0 - _GRID_STACK
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


class _Support:
    """One state's kept eigenvalues ``values`` (above the 1e-12 relative
    cut) and their eigenvectors ``vectors``, with the tables of the pair
    sides it takes.

    As the left side (rho in tr[rho^(1-s) sigma^s]) it holds the adjoint of
    its vectors, the grid powers values^(1-s) as (g, 1, p) and the log
    moments as (3, p); as the right side the powers values^s as (g, p, 1)
    and the log moments as (p, 3).
    """

    __slots__ = ("values", "vectors", "adjoint", "left_grid", "left_logs", "right_grid",
                 "right_logs")

    def __init__(self, values, vectors, left: bool, right: bool) -> None:
        self.values, self.vectors = values, vectors
        logs = np.log(values)
        moments = np.empty((3, len(values)))
        moments[0] = 1.0
        moments[1] = logs
        np.multiply(logs, logs, out=moments[2])
        if left:
            self.adjoint = vectors.conj().T
            self.left_grid = values ** _ONE_MINUS_GRID_STACK
            self.left_logs = moments
        if right:
            self.right_grid = values[:, None] ** _GRID_STACK
            # C-contiguous, as a transposed view would move the products' rounding
            self.right_logs = moments.T.copy()


def _supports(states: Sequence[DensityMatrix]) -> list[_Support]:
    """The support of each state, built once: state i is the left side of
    the pairs (i, j > i) and the right side of the pairs (j < i, i), from
    its cached spectrum."""
    last = len(states) - 1
    supports = []
    for k, spectrum in enumerate(rho.spectrum() for rho in states):
        keep = spectrum.positive_indices()
        supports.append(
            _Support(spectrum.eigenvalues[keep], spectrum.vectors[:, keep], k < last, k > 0)
        )
    return supports


class OverlapCurve:
    """tr[rho^(1-s) sigma^s] as a function of s, on the joint support.

    Terms with a zero eigenvalue on either side are dropped, which realizes
    the 0**0 == 0 convention at the endpoints. The curve is
    f(s) = sum_jk W_jk lam_j^(1-s) mu_k^s with W_jk = |<v_j|w_k>|^2 >= 0, a
    positive sum of exponentials in s, hence convex. When both states are
    exactly diagonal, their vectors are the identity's columns, so W is 1
    where j and k are one basis index and 0 elsewhere.
    """

    __slots__ = ("_left", "_right", "_weights")

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix) -> None:
        self._join(*_supports(check_family([rho, sigma])))

    @classmethod
    def _between(cls, left: _Support, right: _Support) -> "OverlapCurve":
        curve = cls.__new__(cls)
        curve._join(left, right)
        return curve

    def _join(self, left: _Support, right: _Support) -> None:
        self._left, self._right = left, right
        self._weights = np.abs(left.adjoint @ right.vectors) ** 2

    def __call__(self, s: float) -> float:
        return float(self.on_grid(np.array([s]))[0])

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """The curve at every point of ``grid`` in one stacked matmul.

        An empty support gives empty sums, hence 0.
        """
        s = grid[:, None, None]
        lam, mu = self._left.values, self._right.values
        # (g, 1, p) @ (p, q) @ (g, q, 1): one vector-matrix-vector product per point
        return (lam ** (1.0 - s) @ self._weights @ mu[:, None] ** s)[:, 0, 0]

    def grid_values(self) -> list[float]:
        """``on_grid(GRID)`` from the two sides' power tables, bitwise."""
        return (self._left.left_grid @ self._weights @ self._right.right_grid)[:, 0, 0].tolist()

    def slope_and_curvature(self, s: float) -> tuple[float, float]:
        """(f'(s), f''(s)) from one (3 x p) W (q x 3) product.

        Entry (a, b) of the product is sum_jk lam_j^(1-s) (log lam_j)^a W_jk
        mu_k^s (log mu_k)^b; each term of f' carries log mu_k - log lam_j, and
        each term of f'' its square.
        """
        left, right = self._left, self._right
        m = (
            (left.left_logs * left.values ** (1.0 - s))
            @ self._weights
            @ (right.right_logs * right.values[:, None] ** s)
        ).tolist()
        return m[0][1] - m[1][0], m[0][2] - 2.0 * m[1][1] + m[2][0]


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


def _minimize(curve: OverlapCurve) -> ChernoffResult:
    """Minimize the overlap curve on [0, 1].

    A 64-point uniform grid brackets the minimum, a safeguarded Newton
    iteration on f' refines it to 1e-12, and the lower of the grid minimum
    and the Newton point wins, the smaller s on a tie. The grid minimum (its
    first occurrence) is read off the grid, which holds both endpoints of
    [0, 1], so they need no candidate of their own; only the Newton point is
    evaluated anew. A curve that is constant over the grid reports
    s_star = 0.5.
    """
    values = curve.grid_values()
    low = min(values)
    if max(values) - low <= CONSTANT_CURVE_ATOL:
        s_star, q_star = 0.5, curve(0.5)
    else:
        k = values.index(low)
        lo, hi = _GRID_S[max(k - 1, 0)], _GRID_S[min(k + 1, GRID_POINTS - 1)]
        refined = _newton_minimum(curve, lo, hi, _GRID_S[k])
        q_star, s_star = min((low, _GRID_S[k]), (curve(refined), refined))
    # q* <= 1 for any two states; max keeps a q* that rounds to 1 from giving -0.0
    xi = math.inf if q_star <= 0.0 else max(0.0, -math.log(q_star))
    return ChernoffResult(xi=xi, s_star=s_star, q_star=q_star)


def pairwise_qcb(states: Sequence[DensityMatrix]) -> MultipleChernoffResult:
    """Every pairwise bound of two or more states of one dimension in one
    pass, their minimum and the (lexicographically first) argmin pair. The
    states are not checked: ``multiple_qcb`` is the checked form."""
    supports = _supports(states)
    pairwise: dict[tuple[int, int], ChernoffResult] = {}
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            pairwise[(i, j)] = _minimize(OverlapCurve._between(supports[i], supports[j]))
    best_pair = min(pairwise, key=lambda pair: (pairwise[pair].xi, pair))
    return MultipleChernoffResult(
        xi=pairwise[best_pair].xi, argmin_pair=best_pair, pairwise=pairwise
    )


def binary_qcb(rho: DensityMatrix, sigma: DensityMatrix) -> ChernoffResult:
    """The Chernoff bound of one pair: ``pairwise_qcb`` on the two states."""
    return pairwise_qcb(check_family([rho, sigma])).pairwise[(0, 1)]


def overlap_power_sum(result: MultipleChernoffResult, n: int) -> float:
    """sum_(i != j) q*_ij^n over the ordered pairs of distinct states: twice
    the sum over the pairs i < j."""
    return 2.0 * sum(res.q_star**n for res in result.pairwise.values())


def check_distinct(states: Sequence[DensityMatrix]) -> None:
    """Raise ValueError naming the first pair of states of one dimension that
    agree entrywise within ``DISTINCT_STATES_ATOL``."""
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if float(np.abs(states[i].mat - states[j].mat).max()) <= DISTINCT_STATES_ATOL:
                raise ValueError(f"states {i} and {j} are duplicates")


def multiple_qcb(sigma_set: Sequence[DensityMatrix]) -> MultipleChernoffResult:
    """All pairwise bounds, their minimum, and the (lexicographically first)
    argmin pair, after checking that there are two or more distinct states
    of one dimension (``linalg.check_family``)."""
    states = check_family(sigma_set)
    check_distinct(states)
    return pairwise_qcb(states)
