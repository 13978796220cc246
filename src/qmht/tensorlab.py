"""n-copy experiments on tensor-power hypotheses.

Qubit greedy and Helstrom rows run per Schur-Weyl block (``schurweyl``). For
d >= 3, product eigenvectors of rho^(x n) are index tuples over the base
eigenvectors, and inner products and state quadratic forms factor into
products of d x d base tables. The greedy detector builds each popped
product vector as a d^n-vector and runs it through the dense selection of
``gs_detector``, so every greedy row follows one span rule; its frame is
d^n x m for m picks, and rho^(x n) acts on it by n mode products. When the
base eigenbases agree up to permutation and phase (commuting families in
one basis), the product vectors form one orthonormal basis, no frame is
needed, and picks are scored from the base tables. The embedded (epsilon)
detector, for every d, has no span test: its Gram matrix
delta^2 V^H V + epsilon^2 I is at least epsilon^2 >= 1e-6, so it takes every
product eigenvector above the zero cut in greedy order, assembles that Gram
matrix once from the base tables and factors it with one Cholesky
decomposition; the d >= 3 Helstrom test works in the joint-support frame of
the same tables.
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

    def qform_diag(self, state, a, tuples_a) -> np.ndarray:
        table = self.qform[state][a][a]
        return np.real(_copy_product(table, tuples_a.T, tuples_a.T, len(tuples_a)))


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
    """Picked product vectors, by owner, with the upper-triangular Cholesky
    factor of their Gram matrix."""

    owner_tuples: list[np.ndarray]
    owner_positions: list[np.ndarray]
    cholesky: np.ndarray

    @property
    def size(self) -> int:
        return sum(map(len, self.owner_positions))

    def gram_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the picked vectors' Gram matrix."""
        gram = self.cholesky.conj().T @ self.cholesky
        return np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)


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


def _base_maps(oracle: _ProductOracle) -> list[list[int]] | None:
    """For every state a, the column of V_0 that each column of V_a is parallel
    to; None unless every table V_0^H V_a has exactly one nonzero per column."""
    maps = [list(range(len(oracle.overlap[0][0])))]
    for table in oracle.overlap[0][1:]:
        nonzero = table != 0
        if np.any(nonzero.sum(axis=0) != 1):
            return None
        maps.append(nonzero.argmax(axis=0).tolist())
    return maps


def _commuting_gs(phs: PowerHypothesisSet, oracle: _ProductOracle, maps, pops) -> float:
    """Greedy error when the product vectors form one orthonormal basis up to
    phase: a pop has residual 1 if its mapped key is new and 0 otherwise, and
    each pick scores its diagonal quadratic forms."""
    seen: set[tuple[int, ...]] = set()
    picks: list[list] = [[] for _ in range(phs.r)]
    for state, _, tup in pops:
        key = tuple(maps[state][t] for t in tup)
        if key not in seen:
            seen.add(key)
            picks[state].append(tup)
            if len(seen) == phs.dim**phs.n:
                break
    tuples = [np.array(p, dtype=np.intp).reshape(len(p), phs.n) for p in picks]
    successes = [0.0] * phs.r
    leak = 0.0
    for a in range(1, phs.r):
        if len(tuples[a]):
            successes[a] = float(oracle.qform_diag(a, a, tuples[a]).sum())
            leak += float(oracle.qform_diag(0, a, tuples[a]).sum())
    successes[0] = 1.0 - leak
    return 1.0 - float(np.mean(successes))


def _power_gs(phs: PowerHypothesisSet) -> tuple[float, float]:
    """Greedy Gram-Schmidt error on the n-fold powers, and lambda_min_gram.

    Product eigenpairs are popped in ``greedy_order`` and their d^n-vectors,
    Kronecker products built at pop time, run through the dense selection of
    ``gs_detector`` (two Gram-Schmidt passes, ``SPAN_RESIDUAL_TOL``).
    Hypothesis i >= 1 succeeds with tr[rho_i^(x n) P_i] over the frame rows it
    owns, and hypothesis 0, which owns the completion of the basis, with one
    minus its leak into the other rows; rho^(x n) acts on the frame by n mode
    products. ``lambda_min_gram`` is the Householder-QR Gram floor of the
    picked product vectors. Families whose base eigenbases agree up to
    permutation and phase skip the frame (``_commuting_gs``), with
    ``lambda_min_gram`` 1.
    """
    oracle = _ProductOracle(phs)
    pops = greedy_order([phs.eigenpair_stream(i) for i in range(phs.r)])
    maps = _base_maps(oracle)
    if maps is not None:
        return _commuting_gs(phs, oracle, maps, pops), 1.0
    pops = list(pops)
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


def _embedded_selection(
    phs: PowerHypothesisSet, oracle: _ProductOracle, epsilon: float
) -> _SelectionRun:
    """Every product eigenvector above the zero cut, in ``greedy_order``, with
    one Cholesky factor of the embedded Gram matrix delta^2 V^H V + epsilon^2 I.

    The private epsilon-directions make the embedded vectors linearly
    independent, so no pick is rejected and no span test runs.
    """
    picks = list(greedy_order([phs.eigenpair_stream(i) for i in range(phs.r)]))
    owners = np.array([state for state, _, _ in picks], dtype=np.intp)
    tuples = np.array([tup for _, _, tup in picks], dtype=np.intp)
    owner_positions = [np.flatnonzero(owners == a) for a in range(phs.r)]
    owner_tuples = [tuples[positions] for positions in owner_positions]
    gram = _block_matrix(oracle.gram_block, owner_tuples, owner_positions)
    gram *= 1.0 - epsilon * epsilon
    # distinct picks share no private direction; each embedded vector is a
    # unit vector, delta^2 + epsilon^2 = 1
    np.fill_diagonal(gram, 1.0)
    return _SelectionRun(owner_tuples, owner_positions, np.linalg.cholesky(gram).conj().T)


def _evaluate_selection(phs: PowerHypothesisSet, oracle, run: _SelectionRun, scale: float):
    """Success probabilities of the embedded detector's PVM.

    Hypothesis 0 owns the arbitrary completion of the basis, so its success is
    computed as one minus the mass its state leaks into the other labels.
    ``scale`` = delta^2 multiplies every quadratic form, since the states
    never reach the private epsilon-directions.
    """
    r = phs.r
    successes = [0.0] * r
    inverse = solve_triangular(run.cholesky, np.eye(run.size), lower=False)
    qforms = [
        scale
        * _block_matrix(partial(oracle.qform_block, i), run.owner_tuples, run.owner_positions)
        for i in range(r)
    ]
    for i in range(1, r):
        cols = inverse[:, run.owner_positions[i]]
        successes[i] = float(np.real(np.vdot(cols, qforms[i] @ cols)))
    cols = inverse[:, np.sort(np.concatenate(run.owner_positions[1:]))]
    successes[0] = 1.0 - float(np.real(np.vdot(cols, qforms[0] @ cols)))
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
    mask = diff_values > eigenvalue_zero_threshold(diff_values)
    plus, minus = diff_vectors[:, mask], diff_vectors[:, ~mask]
    # rho_1 has no mass outside the frame, so its miss is its mass on the
    # complement of P+ there; summing the two misses avoids 1 - (1 - err)
    miss_0 = np.vdot(plus, reduced[0] @ plus)
    miss_1 = np.vdot(minus, reduced[1] @ minus)
    return 0.5 * float(np.real(miss_0 + miss_1))


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
            err, lam_min = qubit_gs(phs) if phs.dim == 2 else _power_gs(phs)
            bound = math.inf if lam_min == 0.0 else overlap_sum / (lam_min * r)
        elif kind == "epsilon":
            eps_n = (
                epsilon_override
                if epsilon_override is not None
                else _schedule_from_overlap_sum(overlap_sum)
            )
            embedding_guard(eps_n)
            oracle = _ProductOracle(phs)
            run = _embedded_selection(phs, oracle, eps_n)
            successes = _evaluate_selection(phs, oracle, run, 1.0 - eps_n * eps_n)
            err = 1.0 - float(np.mean(successes))
            lam_min = float(run.gram_spectrum()[0])
            embedding_floor_guard(eps_n, lam_min)
            bound = (2.0 * eps_n + overlap_sum / (eps_n * eps_n)) / r
        elif kind == "helstrom":
            if phs.dim == 2:
                err = qubit_helstrom(phs)
            else:
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
