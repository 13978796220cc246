"""n-copy experiments on tensor-power hypotheses.

Aligned families come first. When every base overlap table V_0^H V_a has
exactly one nonzero per column (decided once per call), the base eigenbases
agree up to permutation and phase, and every row kind runs on probability
rows p_a[j], state a's eigenvalue on its eigenvector parallel to column j of
V_0. Each product outcome of a type class (a multiset of n labels) then has
the likelihood P_a = prod_j p_a[j]^(k_j), so every error is a sum over the
C(n+d-1, d-1) classes weighted by their sizes n!/prod_j k_j!. The states with
P_a above the product zero cut claim a class in ``greedy_order``: gs gives it
to the first claimant (lambda_min_gram 1), and epsilon gives the c-th
claimant the weight |1^T R^-1 e_c|^2 of its class Gram matrix
delta^2 J + epsilon^2 I (lambda_min_gram epsilon^2 once some class has two
claimants, 1 otherwise). classical-ml reads any commuting family from
``common_eigenbasis`` and labels each class by argmax; helstrom sums
(1/2) min(P_0, P_1). The d^n cap of ``PowerHypothesisSet`` still applies.

Other families keep their routes. Qubit greedy and Helstrom rows run per
Schur-Weyl block (``schurweyl``). For d >= 3, product eigenvectors of
rho^(x n) are index tuples over the base eigenvectors, and inner products
and state quadratic forms factor into products of d x d base tables. The
greedy detector builds each popped product vector as a d^n-vector and runs
it through the dense selection of ``gs_detector``, so every greedy row
follows one span rule; its frame is d^n x m for m picks, and rho^(x n) acts
on it by n mode products. The embedded (epsilon) detector, for every d, has
no span test: its Gram matrix delta^2 V^H V + epsilon^2 I is at least
epsilon^2 >= 1e-6, so it takes every product eigenvector above the zero cut
in greedy order, assembles that Gram matrix once from the base tables and
factors it with one Cholesky decomposition; the d >= 3 Helstrom test works
in the joint-support frame of the same tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .chernoff import MultipleChernoffResult, multiple_qcb
from .detectors import (
    EPSILON_FLOOR,
    _greedy_orthonormal_selection,
    common_eigenbasis,
    embedding_floor_guard,
    embedding_guard,
    greedy_order,
)
from .errors import DimensionLimitError
from .linalg import (
    DensityMatrix,
    dense_limit,
    eigenvalue_zero_threshold,
    gram_floor,
    iter_power_eigenpairs,
)
from .schurweyl import qubit_gs, qubit_helstrom

DETECTOR_KINDS = ("gs", "epsilon", "helstrom", "classical-ml")
QCB_CEILING_SLACK = 0.02
PRODUCT_ZERO_RTOL = 1e-12
EPSILON_CLIP = 1.0 / math.sqrt(2.0) - 1e-6
LI_WITNESS_TOL = 1e-9


@dataclass
class PowerHypothesisSet:
    """r hypotheses raised to the n-th tensor power, kept as base spectra."""

    base: list[DensityMatrix]
    n: int
    limit: int | None = None
    spectra: list = field(init=False, repr=False)
    zero_threshold: float = field(init=False)

    def __post_init__(self) -> None:
        self.base = list(self.base)
        if self.n < 1:
            raise ValueError(f"copy number must be positive, got {self.n}")
        if not self.base:
            raise ValueError("need at least one hypothesis")
        dim = self.base[0].dim
        if any(rho.dim != dim for rho in self.base):
            raise ValueError("states must share one dimension")
        cap = dense_limit() if self.limit is None else self.limit
        if dim**self.n > cap:
            raise DimensionLimitError(f"{dim}**{self.n} exceeds the dense limit {cap}")
        self.spectra = [rho.spectrum() for rho in self.base]
        top = max(float(dec.eigenvalues[0]) for dec in self.spectra)
        self.zero_threshold = PRODUCT_ZERO_RTOL * top**self.n

    @property
    def r(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return self.base[0].dim

    def eigenpair_stream(self, i: int) -> Iterator[tuple[float, tuple[int, ...]]]:
        """Product eigenpairs of state i above the zero cutoff, descending."""
        for pair in iter_power_eigenpairs(self.spectra[i].eigenvalues, self.n):
            if pair.value <= self.zero_threshold:
                return
            yield pair.value, pair.index_tuple

    def positive_index_tuples(self, i: int) -> np.ndarray:
        """All rank(rho_i)^n index tuples over strictly positive base eigenvalues."""
        positive = self.spectra[i].positive_indices()
        tuples = np.array(
            list(itertools.product(positive, repeat=self.n)), dtype=np.intp
        )
        return tuples.reshape(len(positive) ** self.n, self.n)


def _copy_product(table: np.ndarray, rows, cols, shape) -> np.ndarray:
    """prod_t table[rows[t], cols[t]] over the copy index t, as a complex array.

    ``rows[t]`` and ``cols[t]`` are the base indices of copy t: integer arrays
    that broadcast to ``shape``, or plain ints.
    """
    out = np.ones(shape, dtype=complex)
    for x, y in zip(rows, cols):
        out *= table[x, y]
    return out


class _ProductOracle:
    """Inner products and quadratic forms between implicit product vectors.

    ``overlap[a][b]`` holds the base eigenvector overlaps V_a^H V_b and
    ``qform[i][a][b]`` the base quadratic forms V_a^H rho_i V_b; products over
    the copy index give the tensor-power values.
    """

    def __init__(self, phs: PowerHypothesisSet) -> None:
        r = phs.r
        decs = phs.spectra
        self.overlap = [
            [decs[a].vectors.conj().T @ decs[b].vectors for b in range(r)]
            for a in range(r)
        ]
        self.qform = [
            [
                [
                    self.overlap[a][i] @ (decs[i].eigenvalues[:, None] * self.overlap[i][b])
                    for b in range(r)
                ]
                for a in range(r)
            ]
            for i in range(r)
        ]

    def gram_block(self, a: int, tuples_a: np.ndarray, b: int, tuples_b: np.ndarray) -> np.ndarray:
        return _copy_product(
            self.overlap[a][b], tuples_a.T[:, :, None], tuples_b.T[:, None, :],
            (len(tuples_a), len(tuples_b)),
        )

    def qform_block(self, state, a, tuples_a, b, tuples_b) -> np.ndarray:
        return _copy_product(
            self.qform[state][a][b], tuples_a.T[:, :, None], tuples_b.T[:, None, :],
            (len(tuples_a), len(tuples_b)),
        )


def _block_matrix(block_fn, tuples, positions) -> np.ndarray:
    """Square matrix with block ``block_fn(a, tuples[a], b, tuples[b])`` at
    rows ``positions[a]`` and columns ``positions[b]``; the positions must
    partition range(size)."""
    out = np.empty((sum(map(len, positions)),) * 2, dtype=complex)
    for a, (tuples_a, pos_a) in enumerate(zip(tuples, positions)):
        for b, (tuples_b, pos_b) in enumerate(zip(tuples, positions)):
            if len(pos_a) and len(pos_b):
                out[np.ix_(pos_a, pos_b)] = block_fn(a, tuples_a, b, tuples_b)
    return out


def _product_vector(phs: PowerHypothesisSet, state: int, tup) -> np.ndarray:
    """The d^n-vector kron_t v_(tup[t]) of base eigenvectors of one state."""
    return reduce(np.multiply.outer, phs.spectra[state].vectors.T[list(tup)]).ravel()


def _power_rows(mat: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Each row of ``rows`` (m x d^n) times mat^(x n), by n mode products."""
    d = len(mat)
    out = rows
    for _ in range(n):
        # contract the last tensor factor, then move the result to the front;
        # explicit sizes keep an owner with no rows (m = 0) well defined
        out = (out.reshape(-1, d) @ mat.T).reshape(len(rows), rows.shape[1] // d, d)
        out = out.transpose(0, 2, 1).reshape(rows.shape)
    return out


def _power_gs(phs: PowerHypothesisSet) -> tuple[float, float]:
    """Greedy Gram-Schmidt error on the n-fold powers, and lambda_min_gram.

    Product eigenpairs are popped in ``greedy_order`` and their d^n-vectors,
    Kronecker products built at pop time, run through the dense selection of
    ``gs_detector`` (two Gram-Schmidt passes, ``SPAN_RESIDUAL_TOL``).
    Hypothesis i >= 1 succeeds with tr[rho_i^(x n) P_i] over the frame rows it
    owns, and hypothesis 0, which owns the completion of the basis, with one
    minus its leak into the other rows; rho^(x n) acts on the frame by n mode
    products. ``lambda_min_gram`` is the Householder-QR Gram floor of the
    picked product vectors.
    """
    pops = list(greedy_order([phs.eigenpair_stream(i) for i in range(phs.r)]))
    candidates = (((state, tup), _product_vector(phs, state, tup)) for state, _, tup in pops)
    selection, frame = _greedy_orthonormal_selection(candidates, phs.dim**phs.n, len(pops))
    labels = np.array([state for state, _ in selection])
    successes = []
    for i, rho in enumerate(phs.base):
        rows = frame[labels != 0] if i == 0 else frame[labels == i]
        successes.append(float(np.real(np.vdot(rows, _power_rows(rho.mat, rows, phs.n)))))
    successes[0] = 1.0 - successes[0]
    picked = np.column_stack([_product_vector(phs, state, tup) for state, tup in selection])
    return 1.0 - float(np.mean(successes)), gram_floor(picked)


def _power_epsilon(phs: PowerHypothesisSet, epsilon: float) -> tuple[float, float]:
    """Embedded detector error on the n-fold powers, and lambda_min_gram.

    Every product eigenvector above the zero cut is picked, in
    ``greedy_order``: the private epsilon-directions make the embedded vectors
    linearly independent, so no span test runs. Their Gram matrix
    delta^2 V^H V + epsilon^2 I is assembled once from the base tables and
    factored with one Cholesky decomposition R^H R; the columns of R^-1 give
    the orthonormalized picks. Hypothesis 0 owns the arbitrary completion of
    the basis, so its success is one minus the mass its state leaks into the
    other labels. delta^2 multiplies every quadratic form, since the states
    never reach the private directions.
    """
    oracle = _ProductOracle(phs)
    picks = list(greedy_order([phs.eigenpair_stream(i) for i in range(phs.r)]))
    owners = np.array([state for state, _, _ in picks], dtype=np.intp)
    tuples = np.array([tup for _, _, tup in picks], dtype=np.intp)
    positions = [np.flatnonzero(owners == a) for a in range(phs.r)]
    owner_tuples = [tuples[pos] for pos in positions]
    scale = 1.0 - epsilon * epsilon
    gram = scale * _block_matrix(oracle.gram_block, owner_tuples, positions)
    # distinct picks share no private direction; each embedded vector is a
    # unit vector, delta^2 + epsilon^2 = 1
    np.fill_diagonal(gram, 1.0)
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    inverse = solve_triangular(np.linalg.cholesky(gram).conj().T, np.eye(len(picks)), lower=False)
    masses = []
    for i in range(phs.r):
        qform = scale * _block_matrix(partial(oracle.qform_block, i), owner_tuples, positions)
        cols = inverse[:, owners != 0] if i == 0 else inverse[:, positions[i]]
        masses.append(float(np.real(np.vdot(cols, qform @ cols))))
    masses[0] = 1.0 - masses[0]
    return 1.0 - float(np.mean(masses)), lam_min


def _pairwise_overlap_power_sum(qcb: MultipleChernoffResult, n: int) -> float:
    """Sum over ordered distinct pairs of the n-th power of the overlap infimum."""
    return 2.0 * sum(res.q_star**n for res in qcb.pairwise.values())


def _joint_positions(tuples: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Consecutive row ranges, one per state, for the stacked tuple families."""
    bounds = np.cumsum([0] + [len(t) for t in tuples])
    return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _helstrom_power_error(phs: PowerHypothesisSet) -> float:
    """Optimal binary test on the n-fold powers, computed in the joint support frame."""
    oracle = _ProductOracle(phs)
    tuples = [phs.positive_index_tuples(i) for i in range(2)]
    positions = _joint_positions(tuples)
    gram = _block_matrix(oracle.gram_block, tuples, positions)
    values, rotation = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    keep = values > eigenvalue_zero_threshold(values)
    frame = rotation[:, keep] / np.sqrt(values[keep])
    reduced = [
        frame.conj().T
        @ _block_matrix(partial(oracle.qform_block, state), tuples, positions)
        @ frame
        for state in range(2)
    ]
    difference = reduced[1] - reduced[0]
    diff_values, diff_vectors = np.linalg.eigh(
        (difference + difference.conj().T) / 2.0
    )
    mask = diff_values > 0.0
    plus, minus = diff_vectors[:, mask], diff_vectors[:, ~mask]
    # rho_1 has no mass outside the frame, so its miss is its mass on the
    # complement of P+ there; summing the two misses avoids 1 - (1 - err)
    miss_0 = np.vdot(plus, reduced[0] @ plus)
    miss_1 = np.vdot(minus, reduced[1] @ minus)
    return 0.5 * float(np.real(miss_0 + miss_1))


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


def _type_classes(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Label counts k of every type class of n draws from d labels, one class
    per row, and the class sizes n!/prod_j k_j! (exact integers, as floats)."""
    draws = itertools.combinations_with_replacement(range(d), n)
    counts = np.array([np.bincount(draw, minlength=d) for draw in draws])
    sizes = [
        math.factorial(n) // math.prod(map(math.factorial, row)) for row in counts.tolist()
    ]
    return counts, np.array(sizes, dtype=float)


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
    rows: np.ndarray, n: int, kind: str, zero_threshold: float, epsilon: float
) -> tuple[float, float | None]:
    """Detector error on the n-fold powers of an aligned family, and
    lambda_min_gram, from one term per type class.

    Every product outcome in a type class has the likelihood
    P_a = prod_j p_a[j]^(k_j) under state a. The states with P_a above
    ``zero_threshold`` claim the class in ``greedy_order``. gs gives it to its
    first claimant (``epsilon`` = 0); epsilon gives the c-th claimant the
    weight ``_claim_weights`` and scales every mass by delta^2. Their
    lambda_min_gram is epsilon^2 when some class has two weighted claimants
    and 1 otherwise. classical-ml labels each class by ``np.argmax`` and
    helstrom (r = 2) sums (1/2) min(P_0, P_1) per outcome.
    """
    counts, sizes = _type_classes(rows.shape[1], n)
    values = np.prod(rows[:, None, :] ** counts, axis=2)
    if kind == "helstrom":
        return 0.5 * float(sizes @ values.min(axis=0)), None
    if kind == "classical-ml":
        labels = np.argmax(values, axis=0)
        successes = [float(sizes[labels == i] @ values[i, labels == i]) for i in range(len(rows))]
        return 1.0 - float(np.mean(successes)), 1.0
    claim_weights = _claim_weights(len(rows), epsilon)
    weights = np.zeros_like(values)
    for m, column in enumerate(values.T):
        streams = [[(value, None)] if value > zero_threshold else [] for value in column]
        claimants = [state for state, _, _ in greedy_order(streams)]
        weights[claimants, m] = claim_weights[: len(claimants)]
    scale = 1.0 - epsilon * epsilon
    successes = scale * ((weights * values) @ sizes)
    # hypothesis 0 owns the completion: its success is one minus its leak
    successes[0] = 1.0 - scale * float((values[0] * weights[1:].sum(axis=0)) @ sizes)
    shared = bool(np.any(np.count_nonzero(weights, axis=0) > 1))
    return 1.0 - float(np.mean(successes)), epsilon * epsilon if shared else 1.0


def _schedule_from_overlap_sum(total: float) -> float:
    return min(max(total ** (1.0 / 3.0), EPSILON_FLOOR), EPSILON_CLIP)


def epsilon_schedule(sigma_set: Sequence[DensityMatrix], n: int) -> float:
    """Perturbation size for the embedded detector at copy number n.

    The cube root of the summed n-th-power pairwise overlaps, clipped to the
    validity region (and floored away from zero for orthogonal ensembles).
    """
    if n < 1:
        raise ValueError(f"copy number must be positive, got {n}")
    qcb = multiple_qcb(sigma_set)
    return _schedule_from_overlap_sum(_pairwise_overlap_power_sum(qcb, n))


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
    limit: int | None = None,
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

    if qcb is None:
        qcb = multiple_qcb(states)
    r = len(states)
    rows: list[ExperimentRow] = []
    for n in ns:
        phs = PowerHypothesisSet(states, n, limit=limit)
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
            err, lam_min = _type_class_error(probs, n, kind, phs.zero_threshold, eps_n or 0.0)
        elif kind == "gs":
            err, lam_min = qubit_gs(phs) if phs.dim == 2 else _power_gs(phs)
        elif kind == "epsilon":
            err, lam_min = _power_epsilon(phs, eps_n)
        else:
            err = qubit_helstrom(phs) if phs.dim == 2 else _helstrom_power_error(phs)
            lam_min = None
        bound: float | None
        if kind == "gs":
            bound = math.inf if lam_min == 0.0 else overlap_sum / (lam_min * r)
        elif kind == "epsilon":
            embedding_floor_guard(eps_n, lam_min)
            bound = (2.0 * eps_n + overlap_sum / (eps_n * eps_n)) / r
        elif kind == "helstrom":
            bound = None
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
        phs = PowerHypothesisSet(states, n)
        tuples = [phs.positive_index_tuples(i) for i in range(phs.r)]
        gram = _block_matrix(_ProductOracle(phs).gram_block, tuples, _joint_positions(tuples))
        lam_min = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[0])
        out.append((n, lam_min))
    return out
