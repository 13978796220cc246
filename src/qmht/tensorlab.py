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
cut, in the order ``detectors.greedy_ranks`` gives (``greedy_order`` on
one-value streams, for every class at once), the c-th claimant with the
weight |1^T R^-1 e_c|^2 of the class Gram matrix delta^2 J + epsilon^2 I
(gs is epsilon = 0). Every kind then scores its summed misses by one rule,
and classical-ml reads any commuting family from ``common_eigenbasis``. A
sweep is scored in groups of consecutive n, up to ``CLASS_GROUP_LIMIT``
classes each, as whole arrays; each state's misses at each n are summed on
their own, so a row does not depend on the sweep it came in.

Every other family, of every d, runs gs, epsilon and helstrom per
Schur-Weyl block in the Gelfand-Tsetlin basis (``schurweyl``). The d^n cap
(``check_dense_limit``) applies to both routes, and a sweep that reaches
past it raises before any row is scored.
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
    greedy_ranks,
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
# An aligned sweep scores its consecutive n in groups of at most this many
# type classes (one n alone may exceed it), so a far-out sweep never holds
# the arrays of all its classes at once.
CLASS_GROUP_LIMIT = 1 << 14


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
        check_dense_limit(dim, [self.n])
        self.spectra = [rho.spectrum() for rho in self.base]
        self.cut_values = np.array([_cut(dec.eigenvalues) for dec in self.spectra])

    @property
    def r(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return self.base[0].dim

    def pick_cut(self, kind: str) -> float:
        """``class_pick_cut`` of this power."""
        return class_pick_cut(self.cut_values, self.n, kind)


def check_dense_limit(dim: int, ns: Iterable[int]) -> None:
    """Raise DimensionLimitError, naming the smallest n in ``ns`` with dim^n
    above ``dense_limit()``, if there is one."""
    cap = dense_limit()
    over = [n for n in ns if dim**n > cap]
    if over:
        raise DimensionLimitError(f"{dim}**{min(over)} exceeds the dense limit {cap}")


def class_pick_cut(cut_values: np.ndarray, n: int, kind: str) -> float:
    """A row of this kind at copy number n picks a type class iff its value on
    the cut spectra ``cut_values`` is above this: 0, except for epsilon, which
    picks every kept vector and so keeps the dense detectors' cut on the
    explicit powers, 1e-12 times the largest n-fold eigenvalue."""
    if kind != "epsilon":
        return 0.0
    return eigenvalue_zero_threshold(cut_values.max() ** n)


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


def _claim_weights(claims: int, epsilon: float | np.ndarray) -> np.ndarray:
    """|1^T R^-1 e_c|^2 for c = 1..claims, with R the Cholesky factor of the
    c x c embedded Gram matrix delta^2 J + epsilon^2 I of one type class:
    w_1 = 1, w_c = epsilon^2 / ((1 + (c-2) delta^2)(1 + (c-1) delta^2)).
    An array of epsilons gives one row of weights per epsilon."""
    eps = np.asarray(epsilon, dtype=float)
    eps_sq = (eps * eps)[..., None]
    delta_sq = 1.0 - eps_sq
    c = np.arange(2, claims + 1)
    later = eps_sq / ((1.0 + (c - 2) * delta_sq) * (1.0 + (c - 1) * delta_sq))
    return np.concatenate([np.ones(eps.shape + (1,)), later], axis=-1)


def _class_groups(dim: int, ns: Sequence[int]):
    """Slices of ``ns`` into runs of consecutive n with at most
    ``CLASS_GROUP_LIMIT`` type classes in all, or one n alone."""
    start = classes = 0
    for stop, n in enumerate(ns):
        count = math.comb(n + dim - 1, dim - 1)
        if stop > start and classes + count > CLASS_GROUP_LIMIT:
            yield slice(start, stop)
            start, classes = stop, 0
        classes += count
    yield slice(start, len(ns))


def _type_class_scores(
    rows: np.ndarray, ns: Sequence[int], kind: str, epsilons: Sequence[float]
):
    """Detector error on the n-fold powers of an aligned family, and
    lambda_min_gram, for every n of ``ns`` in turn: ``_class_group_scores``
    of each of the ``_class_groups``, whose arrays are freed before the next
    group's classes are built."""
    cut_rows = np.array([_cut(row) for row in rows])
    for group in _class_groups(rows.shape[1], ns):
        yield from _class_group_scores(rows, cut_rows, ns[group], kind, epsilons[group])


def _class_group_scores(
    rows: np.ndarray,
    cut_rows: np.ndarray,
    ns: Sequence[int],
    kind: str,
    epsilons: Sequence[float],
) -> list[tuple[float, float]]:
    """(err, lambda_min_gram) at every n of ``ns``, from one term per type
    class, all classes of all n in one set of arrays.

    Every product outcome in a type class has the likelihood
    P_a = prod_j p_a[j]^(k_j) under state a. classical-ml and helstrom give
    the class weight w = 1 to the state ``np.argmax`` labels it with (for
    r = 2 the misses are then min(P_0, P_1), Helstrom's). For gs and
    epsilon the states whose P_a on ``cut_rows`` is above ``class_pick_cut``
    claim it in ``greedy_ranks`` order, the c-th with ``_claim_weights`` of
    that n's epsilon (gs: 0). The P_a on ``rows`` score it: hypothesis 0 owns
    the completion and misses delta^2 P_0 sum_(i>=1) w_i; state i >= 1
    misses P_i ((1 - w_i) + epsilon^2 w_i). lambda_min_gram is epsilon^2
    when some class has two weighted claimants and 1 otherwise. Each
    state's misses at each n are summed by ``math.fsum``, so every row is
    the row of that n scored alone, bit for bit.
    """
    r, dim = rows.shape
    classes = [type_classes(dim, n) for n in ns]
    widths = [len(sizes) for _, sizes in classes]
    starts = np.cumsum([0] + widths)
    eps = np.array(epsilons)
    values = _class_values(rows, classes)
    if kind in ("classical-ml", "helstrom"):
        weights = (np.argmax(values, axis=0) == np.arange(r)[:, None]).astype(float)
    else:
        weights = _greedy_claims(
            _class_values(cut_rows, classes),
            np.repeat([class_pick_cut(cut_rows, n, kind) for n in ns], widths),
            np.repeat(_claim_weights(r, eps), widths, axis=0),
        )
    eps_sq = np.repeat(eps * eps, widths)
    # in place, so that few arrays of the group's size are alive at once
    misses = eps_sq * weights
    misses += 1.0 - weights
    misses *= values
    misses[0] = (1.0 - eps_sq) * values[0] * weights[1:].sum(axis=0)
    misses *= np.concatenate([sizes for _, sizes in classes])
    shared = np.logical_or.reduceat(np.count_nonzero(weights, axis=0) > 1, starts[:-1])
    scored = [memoryview(row) for row in misses]
    sums = [[math.fsum(row[lo:hi]) for row in scored] for lo, hi in zip(starts, starts[1:])]
    errs = np.mean(sums, axis=1).tolist()
    return [(err, e * e if many else 1.0) for err, e, many in zip(errs, epsilons, shared)]


def _class_values(rows: np.ndarray, classes) -> np.ndarray:
    """P_a = prod_j rows[a, j]^(k_j) of every state a on every class of the
    ``type_classes`` results ``classes``, one column per class in turn."""
    return np.hstack([np.prod(rows[:, None, :] ** counts, axis=2) for counts, _ in classes])


def _greedy_claims(cut: np.ndarray, floors: np.ndarray, claim_weights: np.ndarray) -> np.ndarray:
    """Weight of every state's claim on every class m: ``claim_weights[m, c]``
    for the c-th claimant in ``greedy_ranks`` order of the states whose
    ``cut`` value is above ``floors[m]``, and 0 for the others."""
    ranks = greedy_ranks(cut, cut > floors)
    weights = np.take_along_axis(claim_weights.T, np.maximum(ranks, 0), axis=0)
    weights[ranks < 0] = 0.0
    return weights


def _block_scores(
    states: Sequence[DensityMatrix], ns: Sequence[int], kind: str, epsilons: Sequence[float]
):
    """Detector error and lambda_min_gram (None for helstrom) for every n of
    ``ns`` in turn, from the Schur-Weyl blocks of each power."""
    for n, eps in zip(ns, epsilons):
        phs = PowerHypothesisSet(states, n)
        if kind == "gs":
            yield block_gs(phs)
        elif kind == "epsilon":
            yield block_epsilon(phs, eps)
        else:
            yield block_helstrom(phs), None


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
    ns = sorted({int(n) for n in n_range})
    if not ns or ns[0] < 1:
        raise ValueError("copy numbers must be positive integers")
    check_dense_limit(states[0].dim, ns)

    if qcb is None:
        qcb = multiple_qcb(states)
    r = len(states)
    overlap_sums = [_pairwise_overlap_power_sum(qcb, n) for n in ns]
    epsilons = [0.0] * len(ns)
    if kind == "epsilon":
        epsilons = [
            epsilon_override
            if epsilon_override is not None
            else _schedule_from_overlap_sum(total)
            for total in overlap_sums
        ]
        for eps in epsilons:
            embedding_guard(eps)
    if probs is not None:
        scores = _type_class_scores(probs, ns, kind, epsilons)
    else:
        scores = _block_scores(states, ns, kind, epsilons)
    rows: list[ExperimentRow] = []
    for n, overlap_sum, eps, (err, lam_min) in zip(ns, overlap_sums, epsilons, scores):
        bound: float | None
        if kind == "gs":
            bound = lemma3_bound(overlap_sum, lam_min, r)
        elif kind == "epsilon":
            bound = (2.0 * eps + overlap_sum / (eps * eps)) / r
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
                epsilon=eps if kind == "epsilon" else None,
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
