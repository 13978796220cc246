"""n-copy experiments on tensor-power hypotheses.

Each base spectrum is cut once: eigenvalues at or below
``eigenvalue_zero_threshold`` become exactly 0, and a product of those
(a type class, k_j copies of label j) is a gs pick candidate iff it is > 0.
epsilon picks every candidate, so its error jumps with the support; it keeps
the cut the dense detectors make on the explicit powers, 1e-12 times the
largest n-fold eigenvalue. The cut only decides which classes are picked:
every mass and every Helstrom minimum is scored with the uncut eigenvalues.

Aligned families come first. When every base overlap table V_0^H V_a has
exactly one nonzero per column (decided once per call), the base eigenbases
agree up to permutation and phase, and every row kind runs on probability
rows p_a[j], state a's eigenvalue on its eigenvector parallel to column j of
V_0. Each product outcome of a type class then has the likelihood
P_a = prod_j p_a[j]^(k_j), so every error is a sum over the C(n+d-1, d-1)
classes weighted by their sizes n!/prod_j k_j!. State i claims each class
with a weight w_i: classical-ml and helstrom give the class to its argmax
label, and gs and epsilon to the states whose cut P_a is above the pick
cut, in ``greedy_order``, the c-th claimant with the weight |1^T R^-1 e_c|^2
of the class Gram matrix delta^2 J + epsilon^2 I (gs is epsilon = 0).
Every kind then scores its summed misses by one rule, and classical-ml
reads any commuting family from ``common_eigenbasis``.

Every other family, of every d, runs gs, epsilon and helstrom per
Schur-Weyl block in the Gelfand-Tsetlin basis (``schurweyl``). The d^n cap
of ``PowerHypothesisSet`` applies to both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .chernoff import MultipleChernoffResult, multiple_qcb
from .detectors import (
    EPSILON_FLOOR,
    common_eigenbasis,
    embedding_guard,
    greedy_order,
    lemma3_bound,
)
from .errors import DimensionLimitError
from .linalg import (
    DensityMatrix,
    dense_limit,
    eigenvalue_zero_threshold,
)
from .schurweyl import block_epsilon, block_gs, block_helstrom, joint_gram_floor, type_classes

DETECTOR_KINDS = ("gs", "epsilon", "helstrom", "classical-ml")
QCB_CEILING_SLACK = 0.02
EPSILON_CLIP = 1.0 / math.sqrt(2.0) - 1e-6
LI_WITNESS_TOL = 1e-9


@dataclass
class PowerHypothesisSet:
    """r hypotheses raised to the n-th tensor power, kept as base spectra;
    d^n may not exceed ``dense_limit()``, which ``QMHT_DENSE_LIMIT`` sets."""

    base: list[DensityMatrix]
    n: int
    spectra: list = field(init=False, repr=False)
    cut_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.base = list(self.base)
        if self.n < 1:
            raise ValueError(f"copy number must be positive, got {self.n}")
        if not self.base:
            raise ValueError("need at least one hypothesis")
        dim = self.base[0].dim
        if any(rho.dim != dim for rho in self.base):
            raise ValueError("states must share one dimension")
        if dim**self.n > (cap := dense_limit()):
            raise DimensionLimitError(f"{dim}**{self.n} exceeds the dense limit {cap}")
        self.spectra = [rho.spectrum() for rho in self.base]
        self.cut_values = np.array([_cut(dec.eigenvalues) for dec in self.spectra])

    @property
    def r(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return self.base[0].dim

    def pick_cut(self, kind: str) -> float:
        """A row of this kind picks a class iff its value on ``cut_values`` is
        above this: 0, except for epsilon, which picks every kept vector and so
        keeps the dense detectors' cut on the explicit powers, 1e-12 times the
        largest n-fold eigenvalue."""
        if kind != "epsilon":
            return 0.0
        return eigenvalue_zero_threshold(self.cut_values.max() ** self.n)


def _cut(values: np.ndarray) -> np.ndarray:
    """Eigenvalues with every one at or below ``eigenvalue_zero_threshold`` set
    to exactly 0, so that a product of them is > 0 iff no factor was cut."""
    return np.where(values > eigenvalue_zero_threshold(values), values, 0.0)


def _pairwise_overlap_power_sum(qcb: MultipleChernoffResult, n: int) -> float:
    """Sum over ordered distinct pairs of the n-th power of the overlap infimum."""
    return 2.0 * sum(res.q_star**n for res in qcb.pairwise.values())


def _aligned_rows(states: Sequence[DensityMatrix]) -> np.ndarray | None:
    """Probability rows of a family whose eigenbases agree up to permutation
    and phase, or None.

    Row a holds state a's eigenvalues, each at the column of V_0 that its
    eigenvector is parallel to. The family is aligned when every base
    overlap table V_0^H V_a has exactly one nonzero per column.
    """
    spectra = [rho.spectrum() for rho in states]
    rows = np.empty((len(spectra), spectra[0].dim))
    rows[0] = spectra[0].eigenvalues
    for a, dec in enumerate(spectra[1:], start=1):
        nonzero = spectra[0].vectors.conj().T @ dec.vectors != 0
        if np.any(nonzero.sum(axis=0) != 1):
            return None
        rows[a, nonzero.argmax(axis=0)] = dec.eigenvalues
    return rows


def _commuting_rows(states: Sequence[DensityMatrix]) -> np.ndarray:
    """Diagonals of a commuting family in ``common_eigenbasis``, clipped at 0;
    raises ValueError when the family does not commute."""
    basis = common_eigenbasis(states)
    return np.array(
        [np.maximum(np.real(np.diag(basis.conj().T @ rho.mat @ basis)), 0.0) for rho in states]
    )


def _claim_weights(claims: int, epsilon: float) -> np.ndarray:
    """|1^T R^-1 e_c|^2 for c = 1..claims, with R the Cholesky factor of the
    c x c embedded Gram matrix delta^2 J + epsilon^2 I of one type class:
    w_1 = 1, w_c = epsilon^2 / ((1 + (c-2) delta^2)(1 + (c-1) delta^2))."""
    delta_sq = 1.0 - epsilon * epsilon
    c = np.arange(2, claims + 1)
    weights = np.ones(claims)
    weights[1:] = epsilon * epsilon / ((1.0 + (c - 2) * delta_sq) * (1.0 + (c - 1) * delta_sq))
    return weights


def _type_class_error(
    rows: np.ndarray, cut_rows: np.ndarray, n: int, kind: str, floor: float, epsilon: float
) -> tuple[float, float]:
    """Detector error on the n-fold powers of an aligned family, and
    lambda_min_gram, from one term per type class.

    Every product outcome in a type class has the likelihood
    P_a = prod_j p_a[j]^(k_j) under state a. classical-ml and helstrom give
    the class weight w = 1 to the state ``np.argmax`` labels it with (for
    r = 2 the misses are then min(P_0, P_1), Helstrom's). For gs and
    epsilon the states whose P_a on ``cut_rows`` is above ``floor`` claim it
    in ``greedy_order``, the c-th with ``_claim_weights`` (gs: epsilon = 0).
    The P_a on ``rows`` score it: hypothesis 0 owns the completion and misses
    delta^2 P_0 sum_(i>=1) w_i; state i >= 1 misses P_i ((1 - w_i) +
    epsilon^2 w_i). lambda_min_gram is epsilon^2 when some class has two
    weighted claimants and 1 otherwise.
    """
    counts, sizes = type_classes(rows.shape[1], n)
    values = np.prod(rows[:, None, :] ** counts, axis=2)
    if kind in ("classical-ml", "helstrom"):
        weights = (np.argmax(values, axis=0) == np.arange(len(rows))[:, None]).astype(float)
    else:
        cut = np.prod(cut_rows[:, None, :] ** counts, axis=2)
        claim_weights = _claim_weights(len(rows), epsilon)
        weights = np.zeros_like(values)
        for m, column in enumerate(cut.T):
            streams = [[(value, None)] if value > floor else [] for value in column]
            claimants = [state for state, _, _ in greedy_order(streams)]
            weights[claimants, m] = claim_weights[: len(claimants)]
    eps_sq = epsilon * epsilon
    misses = values * (1.0 - weights + eps_sq * weights)
    misses[0] = (1.0 - eps_sq) * values[0] * weights[1:].sum(axis=0)
    shared = bool(np.any(np.count_nonzero(weights, axis=0) > 1))
    return float(np.mean([math.fsum(row) for row in misses * sizes])), eps_sq if shared else 1.0


def _schedule_from_overlap_sum(total: float) -> float:
    """The scheduled epsilon at copy number n: the cube root of ``total``, the
    summed n-th-power pairwise overlaps, clipped to [EPSILON_FLOOR, EPSILON_CLIP]."""
    return min(max(total ** (1.0 / 3.0), EPSILON_FLOOR), EPSILON_CLIP)


@dataclass(frozen=True)
class ExperimentRow:
    """One (n, detector) record of a tensor-power sweep."""

    n: int
    detector: str
    err: float
    exponent: float
    error_bound: float | None
    lambda_min_gram: float | None
    epsilon: float | None
    exceeds_qcb_ceiling: bool


@dataclass
class ExperimentReport:
    """Sweep records plus the base-set Chernoff data and slope diagnostics."""

    rows: list[ExperimentRow]
    qcb: MultipleChernoffResult
    exponent_slopes: dict[str, float | None]

    def __post_init__(self) -> None:
        keys = [(row.n, row.detector) for row in self.rows]
        if len(keys) != len(set(keys)):
            raise ValueError("rows must be keyed uniquely by (n, detector)")


def _fit_exponent_slope(rows: Sequence[ExperimentRow]) -> float | None:
    """Least-squares slope of -log(err) vs n over the top half of the range."""
    ns = [row.n for row in rows]
    if not ns:
        return None
    midpoint = 0.5 * (min(ns) + max(ns))
    points = [
        (row.n, -math.log(row.err))
        for row in rows
        if row.n >= midpoint and row.err > 0.0 and math.isfinite(row.exponent)
    ]
    if len(points) < 2:
        return None
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


def run_power_experiment(
    base: Sequence[DensityMatrix],
    n_range: Iterable[int],
    kind: str,
    *,
    epsilon_override: float | None = None,
    qcb: MultipleChernoffResult | None = None,
) -> ExperimentReport:
    """Sweep copy numbers, building the requested detector family on each power.

    ``kind`` selects the family: "gs" (greedy PVM), "epsilon" (embedded POVM
    with the scheduled or overridden perturbation), "helstrom" (binary optimal
    test, r = 2 only), or "classical-ml" (commuting families only). ``qcb``
    is ``multiple_qcb(base)`` from an earlier sweep of the same states; when
    it is given, it is used as is instead of being recomputed.
    """
    states = list(base)
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector kind {kind!r}")
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    if kind == "helstrom" and len(states) != 2:
        raise ValueError("helstrom runs on exactly two hypotheses")
    # one alignment verdict per call; classical-ml reads any commuting family
    probs = _commuting_rows(states) if kind == "classical-ml" else _aligned_rows(states)
    cut_probs = None if probs is None else np.array([_cut(row) for row in probs])
    ns = sorted({int(n) for n in n_range})
    if not ns or ns[0] < 1:
        raise ValueError("copy numbers must be positive integers")

    if qcb is None:
        qcb = multiple_qcb(states)
    r = len(states)
    rows: list[ExperimentRow] = []
    for n in ns:
        phs = PowerHypothesisSet(states, n)
        overlap_sum = _pairwise_overlap_power_sum(qcb, n)
        lam_min: float | None
        eps_n: float | None = None
        if kind == "epsilon":
            eps_n = (
                epsilon_override
                if epsilon_override is not None
                else _schedule_from_overlap_sum(overlap_sum)
            )
            embedding_guard(eps_n)
        if probs is not None:
            err, lam_min = _type_class_error(
                probs, cut_probs, n, kind, phs.pick_cut(kind), eps_n or 0.0
            )
        elif kind == "gs":
            err, lam_min = block_gs(phs)
        elif kind == "epsilon":
            err, lam_min = block_epsilon(phs, eps_n)
        else:
            err = block_helstrom(phs)
        bound: float | None
        if kind == "gs":
            bound = lemma3_bound(overlap_sum, lam_min, r)
        elif kind == "epsilon":
            bound = (2.0 * eps_n + overlap_sum / (eps_n * eps_n)) / r
        elif kind == "helstrom":
            bound = lam_min = None
        else:  # classical-ml
            bound = overlap_sum / r
        exponent = math.inf if err <= 0.0 else -math.log(err) / n
        ceiling = (
            math.isfinite(qcb.xi)
            and math.isfinite(exponent)
            and exponent > qcb.xi + QCB_CEILING_SLACK
        )
        rows.append(
            ExperimentRow(
                n=n,
                detector=kind,
                err=float(err),
                exponent=float(exponent),
                error_bound=bound,
                lambda_min_gram=lam_min,
                epsilon=eps_n,
                exceeds_qcb_ceiling=ceiling,
            )
        )
    return ExperimentReport(
        rows=rows, qcb=qcb, exponent_slopes={kind: _fit_exponent_slope(rows)}
    )


@dataclass(frozen=True)
class LiPairResult:
    """Support-intersection verdict for one pair, with the overlap witness."""

    pair: tuple[int, int]
    holds: bool
    witness: float


@dataclass(frozen=True)
class LiReport:
    pairs: tuple[LiPairResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(entry.holds for entry in self.pairs)


def pairwise_li_check(sigma_set: Sequence[DensityMatrix]) -> LiReport:
    """Test every pair of states for trivially intersecting supports.

    The witness is the top eigenvalue of P_i P_j P_i for the support
    projectors; it reaches 1 exactly when the supports share a direction.
    """
    states = list(sigma_set)
    projectors = []
    for rho in states:
        dec = rho.spectrum()
        kept = dec.vectors[:, dec.positive_indices()]
        projectors.append(kept @ kept.conj().T)
    results = []
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            sandwich = projectors[i] @ projectors[j] @ projectors[i]
            top = float(
                np.linalg.eigvalsh((sandwich + sandwich.conj().T) / 2.0)[-1]
            )
            results.append(
                LiPairResult(pair=(i, j), holds=top < 1.0 - LI_WITNESS_TOL, witness=top)
            )
    return LiReport(pairs=tuple(results))


def gram_convergence_check(
    base: Sequence[DensityMatrix], n_range: Iterable[int]
) -> list[tuple[int, float]]:
    """Minimal Gram eigenvalue of the joint positive eigenvector family per n.

    Requires pairwise trivially intersecting supports; the sequence then
    climbs toward 1 as the cross-state overlaps decay.
    """
    states = list(base)
    report = pairwise_li_check(states)
    if not report.all_pass:
        raise ValueError("supports must intersect trivially for every pair")
    out = []
    for n in sorted({int(n) for n in n_range}):
        out.append((n, joint_gram_floor(PowerHypothesisSet(states, n))))
    return out
