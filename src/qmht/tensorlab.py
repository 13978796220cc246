"""n-copy experiments on tensor-power hypotheses with implicit eigenstructure.

Product eigenvectors of rho^(x n) are handled as index tuples; inner products
and state quadratic forms factor into products of d x d base tables, so no
d^n-dimensional vector is ever materialized. The greedy detector runs in Gram
coordinates (an incremental Cholesky factor of the picked vectors' Gram
matrix).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .chernoff import MultipleChernoffResult, multiple_qcb
from .detectors import (
    SELECTION_TIE_ATOL,
    common_eigenbasis,
    embedding_floor_guard,
    embedding_guard,
)
from .errors import DimensionLimitError, NumericalConsistencyError
from .linalg import (
    DensityMatrix,
    dense_limit,
    eigenvalue_zero_threshold,
    iter_power_eigenpairs,
)

DETECTOR_KINDS = ("gs", "epsilon", "helstrom", "classical-ml")
QCB_CEILING_SLACK = 0.02
# Span tests in Gram coordinates: 1 - |z|^2 loses accuracy like eps/lambda_min
# of the picked Gram matrix, so small computed residuals cannot be trusted
# directly. Residuals above the band are accepted outright; residuals inside
# it are settled by the numerical rank of the exactly assembled bordered Gram.
SPAN_VERIFY_BAND = 1e-6
SPAN_IDENTITY_SQ_TOL = 1e-10
GRAM_RANK_RTOL = 1e-12
PRODUCT_ZERO_RTOL = 1e-12
EPSILON_CLIP = 1.0 / math.sqrt(2.0) - 1e-6
EPSILON_FLOOR = 1e-3
LI_WITNESS_TOL = 1e-9


@dataclass
class PowerHypothesisSet:
    """r hypotheses raised to the n-th tensor power, never materialized."""

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

    def gram_rows(self, a: int, tuples_a: np.ndarray, b: int, tup_b) -> np.ndarray:
        return _copy_product(self.overlap[a][b], tuples_a.T, tup_b, len(tuples_a))

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

    def qform_diag(self, state, a, tuples_a) -> np.ndarray:
        table = self.qform[state][a][a]
        return np.real(_copy_product(table, tuples_a.T, tuples_a.T, len(tuples_a)))


class _EmbeddedOracle:
    """Product oracle for perturbed embedded vectors.

    Overlaps gain a delta^2 factor plus an epsilon^2 same-vector term (the
    private extra-block directions are orthonormal and state-disjoint);
    quadratic forms refer to the unperturbed embedded states, which kills the
    extra blocks and leaves a flat delta^2 factor.
    """

    def __init__(self, inner: _ProductOracle, epsilon: float) -> None:
        self.inner = inner
        self.eps_sq = epsilon * epsilon
        self.delta_sq = 1.0 - self.eps_sq

    def gram_rows(self, a, tuples_a, b, tup_b):
        out = self.delta_sq * self.inner.gram_rows(a, tuples_a, b, tup_b)
        if a == b:
            same = np.all(tuples_a == np.asarray(tup_b, dtype=np.intp)[None, :], axis=1)
            out = out + self.eps_sq * same
        return out

    def qform_block(self, state, a, tuples_a, b, tuples_b):
        return self.delta_sq * self.inner.qform_block(state, a, tuples_a, b, tuples_b)

    def qform_diag(self, state, a, tuples_a):
        return self.delta_sq * self.inner.qform_diag(state, a, tuples_a)


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


@dataclass
class _SelectionRun:
    """Outcome of the greedy selection in Gram coordinates.

    ``cholesky`` is the upper-triangular factor of the picked vectors' Gram
    matrix; None means the Gram matrix stayed exactly the identity.
    """

    owner_tuples: list[np.ndarray]
    owner_positions: list[np.ndarray]
    cholesky: np.ndarray | None

    @property
    def size(self) -> int:
        return sum(map(len, self.owner_positions))

    def lambda_min_gram(self) -> float:
        if self.cholesky is None:
            return 1.0
        gram = self.cholesky.conj().T @ self.cholesky
        return float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[0])


class _GramFactor:
    """Exact Gram matrix of the picked vectors plus its Cholesky factor.

    Stays in an implicit exact-identity state while every new Gram column is
    exactly zero; thereafter both the Gram matrix and the upper-triangular
    factor are kept in growing buffers.
    """

    def __init__(self) -> None:
        self.size = 0
        self._gram: np.ndarray | None = None
        self._factor: np.ndarray | None = None

    @property
    def is_identity(self) -> bool:
        return self._factor is None

    def factor(self) -> np.ndarray:
        return self._factor[: self.size, : self.size]

    def bordered_gram(self, gamma: np.ndarray) -> np.ndarray:
        """Exact Gram bordered by gamma; called only once the factor exists."""
        out = np.empty((self.size + 1, self.size + 1), dtype=complex)
        out[: self.size, : self.size] = self._gram[: self.size, : self.size]
        out[: self.size, self.size] = gamma
        out[self.size, : self.size] = gamma.conj()
        out[self.size, self.size] = 1.0
        return out

    def coefficients(self, gamma: np.ndarray) -> np.ndarray:
        if self._factor is None or self.size == 0:
            return gamma
        return solve_triangular(
            self._factor[: self.size, : self.size], gamma, trans="C", lower=False
        )

    def _materialize(self) -> None:
        cap = max(2 * (self.size + 1), 16)
        self._factor = np.zeros((cap, cap), dtype=complex)
        self._factor[: self.size, : self.size] = np.eye(self.size)
        self._gram = np.zeros((cap, cap), dtype=complex)
        self._gram[: self.size, : self.size] = np.eye(self.size)

    def _ensure_capacity(self) -> None:
        if self._factor is not None and self.size == len(self._factor):
            for name in ("_factor", "_gram"):
                old = getattr(self, name)
                bigger = np.zeros((2 * len(old),) * 2, dtype=complex)
                bigger[: self.size, : self.size] = old[: self.size, : self.size]
                setattr(self, name, bigger)

    def append(self, gamma: np.ndarray, z: np.ndarray, pivot: float) -> None:
        if self._factor is None and (self.size == 0 or (not np.any(gamma) and pivot == 1.0)):
            self.size += 1
            return
        if self._factor is None:
            self._materialize()
        self._ensure_capacity()
        self._factor[: self.size, self.size] = z
        self._factor[self.size, self.size] = pivot
        self._gram[: self.size, self.size] = gamma
        self._gram[self.size, : self.size] = gamma.conj()
        self._gram[self.size, self.size] = 1.0
        self.size += 1

    def append_refactored(self, gamma: np.ndarray, bordered: np.ndarray) -> None:
        """Append a borderline column, refreshing the factor from the exact Gram."""
        if self._factor is None:
            self._materialize()
        self._ensure_capacity()
        self._gram[: self.size, self.size] = gamma
        self._gram[self.size, : self.size] = gamma.conj()
        self._gram[self.size, self.size] = 1.0
        self.size += 1
        try:
            lower = np.linalg.cholesky(bordered)
        except np.linalg.LinAlgError as exc:
            raise NumericalConsistencyError(
                "borderline Gram column defeated the Cholesky refresh"
            ) from exc
        self._factor[: self.size, : self.size] = lower.conj().T


def _run_selection(phs: PowerHypothesisSet, oracle, ambient_dim: int) -> _SelectionRun:
    """Greedy eigenvalue-ordered selection over the per-state eigenpair streams.

    Vectors whose residual against the picked span is numerically zero are
    dropped at pop time, which selects exactly the same set as eliminating
    them eagerly after each step. Residuals inside the uncertainty band are
    settled by the numerical rank of the exact bordered Gram matrix, and the
    pick count never exceeds the ambient dimension.
    """
    r = phs.r
    streams = [phs.eigenpair_stream(i) for i in range(r)]
    heads: list[tuple[float, tuple[int, ...]] | None] = [next(s, None) for s in streams]

    # each stream yields a product eigenvector at most once, so d^n bounds
    # the picks of one state
    cap = phs.dim**phs.n
    owner_tuples = [np.empty((cap, phs.n), dtype=np.intp) for _ in range(r)]
    owner_positions = [np.empty(cap, dtype=np.intp) for _ in range(r)]
    counts = [0] * r
    state = _GramFactor()

    while True:
        best_state, best_value = -1, -math.inf
        for i in range(r):
            head = heads[i]
            if head is not None and head[0] > best_value + SELECTION_TIE_ATOL:
                best_state, best_value = i, head[0]
        if best_state < 0:
            break
        _, tup = heads[best_state]  # type: ignore[misc]
        heads[best_state] = next(streams[best_state], None)

        if state.size >= ambient_dim:
            continue  # the picked span already fills the space

        size = state.size
        gamma = np.empty(size, dtype=complex)
        for a in range(r):
            if counts[a]:
                gamma[owner_positions[a][: counts[a]]] = oracle.gram_rows(
                    a, owner_tuples[a][: counts[a]], best_state, tup
                )
        z = state.coefficients(gamma)
        residual_sq = 1.0 - float(np.real(np.vdot(z, z)))

        if state.is_identity:
            # no solve involved, so the residual is accurate to ~size*eps
            if residual_sq <= SPAN_IDENTITY_SQ_TOL:
                continue
            state.append(gamma, z, math.sqrt(residual_sq))
        elif residual_sq > SPAN_VERIFY_BAND:
            state.append(gamma, z, math.sqrt(residual_sq))
        else:
            bordered = state.bordered_gram(gamma)
            spectrum = np.linalg.eigvalsh((bordered + bordered.conj().T) / 2.0)
            if spectrum[0] <= GRAM_RANK_RTOL * max(1.0, float(spectrum[-1])):
                continue
            state.append_refactored(gamma, bordered)

        owner_positions[best_state][counts[best_state]] = size
        owner_tuples[best_state][counts[best_state]] = tup
        counts[best_state] += 1

    return _SelectionRun(
        owner_tuples=[buf[:c].copy() for buf, c in zip(owner_tuples, counts)],
        owner_positions=[buf[:c].copy() for buf, c in zip(owner_positions, counts)],
        cholesky=None if state.is_identity else state.factor().copy(),
    )


def _evaluate_selection(phs: PowerHypothesisSet, oracle, run: _SelectionRun) -> list[float]:
    """Success probabilities of the PVM encoded by a selection run.

    Hypothesis 0 owns the arbitrary completion of the basis, so its success is
    computed as one minus the mass its state leaks into the other labels.
    """
    r = phs.r
    size = run.size
    successes = [0.0] * r
    if run.cholesky is None:
        # orthonormal picks: basis directions equal the picked vectors
        for i in range(1, r):
            tuples_i = run.owner_tuples[i]
            if len(tuples_i):
                successes[i] = float(oracle.qform_diag(i, i, tuples_i).sum())
        leak = 0.0
        for a in range(1, r):
            tuples_a = run.owner_tuples[a]
            if len(tuples_a):
                leak += float(oracle.qform_diag(0, a, tuples_a).sum())
        successes[0] = 1.0 - leak
        return successes

    inverse = solve_triangular(run.cholesky, np.eye(size), lower=False)
    qforms = [
        _block_matrix(partial(oracle.qform_block, i), run.owner_tuples, run.owner_positions)
        for i in range(r)
    ]
    for i in range(1, r):
        cols = inverse[:, run.owner_positions[i]]
        if cols.size:
            successes[i] = float(
                np.real(np.einsum("ks,kl,ls->", cols.conj(), qforms[i], cols))
            )
    other = np.concatenate(run.owner_positions[1:])
    cols = inverse[:, np.sort(other)] if other.size else np.empty((size, 0))
    leak = (
        float(np.real(np.einsum("ks,kl,ls->", cols.conj(), qforms[0], cols)))
        if cols.size
        else 0.0
    )
    successes[0] = 1.0 - leak
    return successes


def _pairwise_overlap_power_sum(qcb: MultipleChernoffResult, n: int) -> float:
    """Sum over ordered distinct pairs of the n-th power of the overlap infimum."""
    return 2.0 * sum(res.q_star**n for res in qcb.pairwise.values())


def _joint_positions(tuples: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Consecutive row ranges, one per state, for the stacked tuple families."""
    bounds = np.cumsum([0] + [len(t) for t in tuples])
    return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _helstrom_power_error(phs: PowerHypothesisSet, oracle: _ProductOracle) -> float:
    """Optimal binary test on the n-fold powers, computed in the joint support frame."""
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
    plus = diff_vectors[:, diff_values > eigenvalue_zero_threshold(diff_values)]
    trace_0 = float(np.real(np.einsum("ka,kl,la->", plus.conj(), reduced[0], plus)))
    trace_1 = float(np.real(np.einsum("ka,kl,la->", plus.conj(), reduced[1], plus)))
    success_0 = 1.0 - trace_0
    success_1 = trace_1
    return 1.0 - 0.5 * (success_0 + success_1)


def _classical_ml_power_error(phs: PowerHypothesisSet) -> float:
    """Maximum-likelihood error on product distributions of a commuting family.

    Labels follow the smallest-maximizing-row rule of ``classical_ml``.
    """
    basis = common_eigenbasis(phs.base)
    rows = []
    for rho in phs.base:
        diag = np.real(np.diag(basis.conj().T @ rho.mat @ basis))
        rows.append(np.maximum(diag, 0.0))
    product_rows = []
    for row in rows:
        acc = np.ones(1)
        for _ in range(phs.n):
            acc = np.kron(acc, row)
        product_rows.append(acc)
    probs = np.vstack(product_rows)
    labels = np.argmax(probs, axis=0)
    successes = [float(probs[i, labels == i].sum()) for i in range(phs.r)]
    return 1.0 - float(np.mean(successes))


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
) -> ExperimentReport:
    """Sweep copy numbers, building the requested detector family on each power.

    ``kind`` selects the family: "gs" (greedy PVM), "epsilon" (embedded POVM
    with the scheduled or overridden perturbation), "helstrom" (binary optimal
    test, r = 2 only), or "classical-ml" (commuting families only).
    """
    states = list(base)
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector kind {kind!r}")
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    if kind == "helstrom" and len(states) != 2:
        raise ValueError("helstrom runs on exactly two hypotheses")
    if kind == "classical-ml":
        common_eigenbasis(states)  # raises for non-commuting input
    ns = sorted({int(n) for n in n_range})
    if not ns or ns[0] < 1:
        raise ValueError("copy numbers must be positive integers")

    qcb = multiple_qcb(states)
    r = len(states)
    rows: list[ExperimentRow] = []
    for n in ns:
        phs = PowerHypothesisSet(states, n, limit=limit)
        overlap_sum = _pairwise_overlap_power_sum(qcb, n)
        bound: float | None
        lam_min: float | None
        eps_n: float | None = None
        if kind == "gs":
            oracle = _ProductOracle(phs)
            run = _run_selection(phs, oracle, phs.dim**n)
            err = 1.0 - float(np.mean(_evaluate_selection(phs, oracle, run)))
            lam_min = run.lambda_min_gram()
            if lam_min <= 0.0:
                raise NumericalConsistencyError("picked Gram matrix is singular")
            bound = overlap_sum / (lam_min * r)
        elif kind == "epsilon":
            eps_n = (
                epsilon_override
                if epsilon_override is not None
                else _schedule_from_overlap_sum(overlap_sum)
            )
            embedding_guard(eps_n)
            oracle = _EmbeddedOracle(_ProductOracle(phs), eps_n)
            run = _run_selection(phs, oracle, (r + 1) * phs.dim**n)
            err = 1.0 - float(np.mean(_evaluate_selection(phs, oracle, run)))
            lam_min = run.lambda_min_gram()
            embedding_floor_guard(eps_n, lam_min)
            bound = (2.0 * eps_n + overlap_sum / (eps_n * eps_n)) / r
        elif kind == "helstrom":
            err = _helstrom_power_error(phs, _ProductOracle(phs))
            lam_min = None
            bound = None
        else:  # classical-ml
            err = _classical_ml_power_error(phs)
            lam_min = 1.0
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
