"""Construction and evaluation of multiple-hypothesis quantum detectors.

All detectors are built from spectral data of the hypothesis states; every
function is pure and instances are immutable after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chernoff import binary_qcb
from .errors import NumericalConsistencyError
from .linalg import DensityMatrix, HermitianMatrix, eigenvalue_zero_threshold, gram_floor

POVM_ATOL = 1e-9
SPAN_RESIDUAL_TOL = 1e-9
SELECTION_TIE_RTOL = 1e-12
COMMUTATOR_ATOL = 1e-10
COMMON_BASIS_ATOL = 1e-9
PRIOR_ATOL = 1e-10
# A probability, a prior or an eigenvalue that must be nonnegative may fall
# this far below 0 by rounding.
NONNEGATIVE_FLOOR = -1e-12
# Smallest embedding perturbation: the embedded Gram spectrum is floored at
# epsilon^2, and at 1e-6 that floor stays far above rounding noise.
EPSILON_FLOOR = 1e-3


class Detector:
    """An r-outcome measurement, held as a labelled frame.

    The frame T is d x m with orthonormal rows, and column c belongs to
    outcome ``labels[c]``: element i is T_i T_i^H over the columns labelled i,
    built on first read of ``elements``. The one check, T T^H = I (m = d for
    a PVM), makes every element PSD, the elements sum to the identity and,
    for a square T, projective and mutually orthogonal. A detector is given
    as ``Detector(kind=..., frame=T, labels=labels, outcomes=r)`` or by its
    elements, ``Detector(elements, kind=...)``: one stacked ``eigh`` factors
    element i = W diag(w) W^H into the columns W sqrt(w), labelled i, where
    every w must be >= -POVM_ATOL, and for a PVM within POVM_ATOL of 0 or 1,
    keeping only its eigenvalue-1 columns. ``elements`` returns a given list.
    """

    def __init__(
        self,
        elements: Sequence[HermitianMatrix] | None = None,
        kind: str = "POVM",
        *,
        frame: np.ndarray | None = None,
        labels: Sequence[int] | None = None,
        outcomes: int | None = None,
    ) -> None:
        if kind not in ("PVM", "POVM"):
            raise ValueError(f"kind must be PVM or POVM, got {kind!r}")
        self.kind = kind
        if frame is None:
            if not elements:
                raise ValueError("detector needs at least one element")
            self.elements = list(elements)
            frame, labels = _element_frame(self.elements, kind)
            outcomes = len(self.elements)
        elif elements is not None:
            raise ValueError("give a detector its elements or its frame, not both")
        self.frame = _read_only(np.asarray(frame))
        self.labels = _read_only(np.asarray(labels))
        if outcomes is None:
            raise ValueError("a frame detector needs its number of outcomes")
        self.outcomes = operator.index(outcomes)
        self._check_frame()
        self.dim = self.frame.shape[0]

    def _check_frame(self) -> None:
        frame, labels = self.frame, self.labels
        if frame.ndim != 2 or frame.shape[0] < 1:
            raise ValueError(f"expected a nonempty d x m frame, got shape {frame.shape}")
        dim = frame.shape[0]
        if self.outcomes < 1:
            raise ValueError(f"a detector needs at least one outcome, got {self.outcomes}")
        if labels.shape != frame.shape[1:] or labels.dtype.kind not in "iu":
            raise ValueError("a frame needs one integer label per column")
        if labels.size and not 0 <= labels.min() <= labels.max() < self.outcomes:
            raise ValueError(f"frame labels must lie in [0, {self.outcomes})")
        gap = float(np.abs(frame @ frame.conj().T - np.eye(dim)).max())
        if not gap <= POVM_ATOL:  # also catches a NaN
            raise NumericalConsistencyError(
                "frame rows are not orthonormal, so the elements do not sum to the "
                f"identity (max deviation {gap:.3e})"
            )
        if self.kind == "PVM" and frame.shape[1] != dim:
            raise NumericalConsistencyError(
                f"a PVM frame must be square, got shape {frame.shape}"
            )

    @functools.cached_property
    def elements(self) -> list[HermitianMatrix]:
        # only reached for a detector given by its frame: a given element list
        # is stored on the instance, which shadows this property
        blocks = (self.frame[:, self.labels == i] for i in range(self.outcomes))
        return [HermitianMatrix(b @ b.conj().T) for b in blocks]


def _element_frame(elements, kind):
    """The labelled frame of an element list: the columns W sqrt(w) of each
    element W diag(w) W^H in turn, those with w > 0 (w ~ 1 for a PVM)."""
    if any(e.dim != elements[0].dim for e in elements):
        raise ValueError("detector elements must share one dimension")
    values, vectors = np.linalg.eigh(np.stack([e.mat for e in elements]))
    if kind == "PVM":  # how far each spectrum strays from {0, 1}
        off, what = np.minimum(np.abs(values), np.abs(values - 1.0)).max(axis=1), "idempotent"
    else:
        off, what = -values[:, 0], "positive semidefinite"
    bad = np.flatnonzero(off > POVM_ATOL)
    if bad.size:
        raise NumericalConsistencyError(
            f"element {bad[0]} is not {what} (an eigenvalue is off by {off[bad[0]]:.3e})"
        )
    keep = values > (0.5 if kind == "PVM" else 0.0)
    # (element, row, column) -> row x (element, column), element-major
    return vectors.transpose(1, 0, 2)[:, keep] * np.sqrt(values[keep]), np.nonzero(keep)[0]


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class ErrorReport:
    """Per-hypothesis and averaged error probabilities under the uniform prior."""

    successes: tuple[float, ...]
    per_hypothesis: tuple[float, ...]
    averaged: float


def evaluate_errors(sigma_set: Sequence[DensityMatrix], det: Detector) -> ErrorReport:
    """Success and error probability of each hypothesis, errors averaged uniformly.

    Every detector is scored column by column of its frame: with
    q_ic = <t_c|rho_i|t_c>, Succ_i = tr[rho_i E_i] sums q_ic over the columns
    labelled i and err_i over all the others, its summed misses, from one
    stacked product of the states with the frame. A small err is then fixed
    relative to itself, not only to rounding of 1.
    """
    states = list(sigma_set)
    if len(states) != det.outcomes:
        raise ValueError(f"{len(states)} states vs {det.outcomes} detector elements")
    if any(rho.dim != det.dim for rho in states):
        raise ValueError("state dimension does not match the detector")
    frame = det.frame
    stack = np.stack([rho.mat for rho in states])
    overlaps = (frame.conj() * (stack @ frame)).sum(axis=1).real
    hits = det.labels == np.arange(len(states))[:, None]
    successes = tuple(np.where(hits, overlaps, 0.0).sum(axis=1).tolist())
    errors = tuple(np.where(hits, 0.0, overlaps).sum(axis=1).tolist())
    return ErrorReport(
        successes=successes, per_hypothesis=errors, averaged=float(np.mean(errors))
    )


def holevo_helstrom(rho1: DensityMatrix, rho2: DensityMatrix) -> Detector:
    """Optimal binary projective test onto the positive part of rho2 - rho1.

    The positive part is cut by sign (eigenvalues > 0), not relative to the
    largest eigenvalue; kernel directions of the difference are assigned to
    hypothesis 0.
    """
    if rho1.dim != rho2.dim:
        raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    frame, labels = _helstrom_frame(rho2.mat - rho1.mat)
    return Detector(kind="PVM", frame=frame, labels=labels, outcomes=2)


def _helstrom_frame(difference):
    """The eigenbasis of the Hermitian part of ``difference`` (rho_1 - rho_0),
    each column labelled 1 iff its eigenvalue is > 0."""
    values, vectors = np.linalg.eigh((difference + difference.conj().T) / 2.0)
    return vectors, (values > 0.0).astype(int)


def classical_ml(prob_matrix) -> np.ndarray:
    """Maximum-likelihood labeling of sample-space columns.

    Each column w gets the smallest row i with P[i, w] == max_j P[j, w]. This
    is the labeling the iterative rule produces (repeatedly label the largest
    entry among the undecided columns, ties to the smallest row, then column,
    index, and exclude that column), since labels come from exact comparisons.
    """
    probs = np.asarray(prob_matrix, dtype=float)
    if probs.ndim != 2 or probs.size == 0:
        raise ValueError(f"expected a nonempty r x d matrix, got shape {probs.shape}")
    if float(probs.min()) < NONNEGATIVE_FLOOR:
        raise ValueError("probabilities must be nonnegative")
    row_sums = probs.sum(axis=1)
    if float(np.abs(row_sums - 1.0).max()) > PRIOR_ATOL:
        raise ValueError("every row must sum to 1")
    return np.argmax(probs, axis=0)


@dataclass
class GsDiagnostics:
    """Execution record of the greedy orthonormalization.

    ``selection_order`` holds the (state, eigenindex) pairs actually picked,
    ``basis`` the full orthonormal basis (picked directions first, their
    Householder complement after): d x d for gs, and for epsilon the
    (d + m) x (d + m) unitary of the embedding with m picks, whose top d rows
    are the detector's frame. The detector's ``labels`` hold the hypothesis
    index of every basis column (0 on the complement). ``lambda_min_gram`` is
    the smallest eigenvalue of the picked Gram matrix by ``gram_floor``: of
    the picked eigenvectors V for gs, and of the embedded
    delta^2 V^H V + epsilon^2 I for epsilon, epsilon^2 + delta^2 gram_floor(V).
    """

    selection_order: list[tuple[int, int]]
    basis: np.ndarray
    lambda_min_gram: float


def _takes_lead(value, best):
    """Whether a later state's head ``value`` takes the lead from ``best``, the
    head of an earlier state: only by more than ``SELECTION_TIE_RTOL`` times
    |best|, so a near-tie goes to the smaller state index. Elementwise on
    arrays."""
    return value > best + SELECTION_TIE_RTOL * abs(best)


def greedy_order(streams):
    """Merge descending ``(value, item)`` streams into greedy pick order.

    Yields ``(state, value, item)`` triples, the largest head value first; a
    head that exceeds an earlier state's head by at most ``SELECTION_TIE_RTOL``
    times that head loses to the smaller state index (``_takes_lead``).
    Streams are read lazily, one pop at a time, so a consumer may stop early.
    """
    iterators = [iter(stream) for stream in streams]
    heads = [next(it, None) for it in iterators]
    while True:
        best_state, best_value = -1, -math.inf
        for i, head in enumerate(heads):
            if head is not None and (best_state < 0 or _takes_lead(head[0], best_value)):
                best_state, best_value = i, head[0]
        if best_state < 0:
            return
        value, item = heads[best_state]
        heads[best_state] = next(iterators[best_state], None)
        yield best_state, value, item


def greedy_ranks(values, present):
    """``greedy_order`` of single-value streams, one stream set per column.

    Column m of the r x M ``values`` gives state i the stream
    [values[i, m]] where ``present[i, m]`` holds, and an empty one elsewhere.
    Returns the r x M position of every state in its column's pick order,
    -1 for an empty stream. Each of the r passes is one scan over the states,
    across all columns at once: the first state not yet picked leads, and a later one
    takes the lead by ``_takes_lead``, as in ``greedy_order``.
    """
    values = np.asarray(values, dtype=float)
    left = np.array(present, dtype=bool)
    ranks = np.full(values.shape, -1)
    states = np.arange(len(values))[:, None]
    for position in range(len(values)):
        best = np.full(values.shape[1], -1)
        best_value = np.zeros(values.shape[1])
        for i, row in enumerate(values):
            lead = left[i] & ((best < 0) | _takes_lead(row, best_value))
            best = np.where(lead, i, best)
            best_value = np.where(lead, row, best_value)
        chosen = states == best
        ranks[chosen] = position
        left &= ~chosen
    return ranks


def _greedy_pops(sigma_set):
    """The states, their spectra, and the (state, eigenindex) pairs in
    ``greedy_order`` of their eigenvalues, up to the first value at or below
    the ``eigenvalue_zero_threshold`` of them all. Needs at least two states,
    of one dimension."""
    states = list(sigma_set)
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    if any(rho.dim != states[0].dim for rho in states):
        raise ValueError("states must share one dimension")
    decs = [rho.spectrum() for rho in states]
    zero_threshold = eigenvalue_zero_threshold(np.concatenate([d.eigenvalues for d in decs]))
    streams = [zip(dec.eigenvalues, itertools.count()) for dec in decs]
    pops = []
    for state, value, index in greedy_order(streams):
        if value <= zero_threshold:
            break
        pops.append((state, index))
    return states, decs, pops


def _gs_frame(candidates, dim, count):
    """The greedy PVM's labelled frame on C^dim, by eigenvalue-ordered
    selection with on-the-fly Gram-Schmidt.

    ``candidates`` yields at most ``count`` pairs ``((state, index), vector)``
    of unit vectors, in pick order. The residual of each vector against the
    picked frame (two classical Gram-Schmidt passes) becomes a new orthonormal
    direction unless its norm is at most ``SPAN_RESIDUAL_TOL``; once the frame
    spans C^dim the remaining candidates are not read. Returns the picked
    keys, the dim x dim basis of ``_complete_basis`` with its labels, and the
    ``gram_floor`` of the picked vectors.
    """
    frame = np.empty((min(dim, count), dim), dtype=complex)
    sources = np.empty_like(frame)
    selection = []
    for key, vector in candidates:
        kept = frame[: len(selection)]
        residual = vector.astype(complex)
        for _ in range(2):
            # conj(K conj(v)) is K^* v without copying the frame
            residual -= kept.T @ (kept @ residual.conj()).conj()
        norm = float(np.linalg.norm(residual))
        if norm <= SPAN_RESIDUAL_TOL:
            continue
        frame[len(selection)] = residual / norm
        sources[len(selection)] = vector
        selection.append(key)
        if len(selection) == dim:
            break
    basis, labels = _complete_basis(selection, frame[: len(selection)].T)
    return selection, basis, labels, gram_floor(sources[: len(selection)].T)


def _complete_basis(selection, columns):
    # One complete QR of the D x m ``columns`` orthonormalizes them in pick
    # order and appends their Householder complement, D x D in all, with the
    # picks labelled by state and the D - m completion columns labelled 0:
    # only the complement's projector enters the elements, whichever basis
    # QR picks. The factor is not checked here: gs hands it whole to a PVM
    # frame, whose check is the same condition, and epsilon checks it before
    # it keeps the top rows.
    dim, picks = columns.shape
    full_basis, _ = np.linalg.qr(columns, mode="complete")
    return full_basis, np.array([state for state, _ in selection] + [0] * (dim - picks))


def _embedded_gram_floor(vectors, epsilon):
    """Smallest eigenvalue of the embedded Gram delta^2 V^H V + epsilon^2 I."""
    return epsilon * epsilon + (1.0 - epsilon * epsilon) * gram_floor(vectors)


def gs_detector(sigma_set: Sequence[DensityMatrix]) -> tuple[Detector, GsDiagnostics]:
    """Eigenvalue-greedy Gram-Schmidt PVM for an arbitrary hypothesis set.

    Spectral decompositions feed the greedy selection; leftover directions
    after the positive eigenvalues run out complete the basis with label 0.
    """
    states, decs, pops = _greedy_pops(sigma_set)
    candidates = (((state, index), decs[state].vectors[:, index]) for state, index in pops)
    selection, basis, labels, lambda_min = _gs_frame(candidates, states[0].dim, len(pops))
    det = Detector(kind="PVM", frame=basis, labels=labels, outcomes=len(states))
    return det, GsDiagnostics(selection, basis, lambda_min)


def lemma3_bound(overlap_sum: float, lambda_min: float, r: int) -> float:
    """Error ceiling for the greedy PVM on r hypotheses: the summed pairwise
    overlap infima over (r times the smallest picked Gram eigenvalue),
    infinite iff that eigenvalue is 0 (``gram_floor`` is never negative)."""
    return math.inf if lambda_min <= 0.0 else overlap_sum / (lambda_min * r)


def gs_error_bound(sigma_set: Sequence[DensityMatrix], diagnostics: GsDiagnostics) -> float:
    """``lemma3_bound`` of a single-copy greedy PVM."""
    states = list(sigma_set)
    total = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            total += 2.0 * binary_qcb(states[i], states[j]).q_star
    return lemma3_bound(total, diagnostics.lambda_min_gram, len(states))


def pgm(sigma_set: Sequence[DensityMatrix], priors: Sequence[float]) -> Detector:
    """Square-root ("pretty good") measurement for prior-weighted hypotheses.

    Element i is A^(-1/2) p_i rho_i A^(-1/2) with A = sum_i p_i rho_i, built
    as its frame: with rho_i = V_i diag(lambda_i) V_i^H from the cached
    ``spectrum()``, outcome i owns the columns
    A^(-1/2) sqrt(p_i) V_i diag(sqrt(lambda_i)). The inverse square root is
    taken on the support of A only, and the kernel of A is labelled 0: the
    off-support deficit goes to the first element, so the tuple is a POVM on
    the full space. Priors a rounding below 0 count as 0.
    """
    states = list(sigma_set)
    weights = np.asarray(priors, dtype=float)
    if len(states) != len(weights):
        raise ValueError("one prior per state required")
    if float(weights.min()) < NONNEGATIVE_FLOOR:
        raise ValueError("priors must be nonnegative")
    if abs(float(weights.sum()) - 1.0) > PRIOR_ATOL:
        raise ValueError("priors must sum to 1")
    weights = np.maximum(weights, 0.0)
    average = sum(p * rho.mat for p, rho in zip(weights, states))
    values, vectors = np.linalg.eigh(average)
    keep = values > eigenvalue_zero_threshold(values)
    kept = vectors[:, keep]
    inv_sqrt = (kept * values[keep] ** -0.5) @ kept.conj().T
    blocks = [
        inv_sqrt @ (dec.vectors * np.sqrt(p * dec.eigenvalues))
        for p, dec in zip(weights, (rho.spectrum() for rho in states))
    ]
    blocks.append(vectors[:, ~keep])
    frame = np.hstack(blocks)
    # A^(-1/2) is rounded relative to the largest eigenvalue of A, so T T^H
    # misses I by up to cond(A) times that; one Newton-Schulz step takes T
    # back to a co-isometry to rounding
    frame += 0.5 * ((np.eye(len(frame)) - frame @ frame.conj().T) @ frame)
    labels = np.repeat([*range(len(states)), 0], [b.shape[1] for b in blocks])
    return Detector(kind="POVM", frame=frame, labels=labels, outcomes=len(states))


def common_eigenbasis(sigma_set: Sequence[DensityMatrix]) -> np.ndarray:
    """Unitary whose columns simultaneously diagonalize a commuting family.

    Diagonalizes the first state, then refines each degenerate block with the
    next states in turn. Raises ValueError when the family does not commute.
    """
    states = list(sigma_set)
    dim = states[0].dim
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            comm = states[i].mat @ states[j].mat - states[j].mat @ states[i].mat
            if float(np.abs(comm).max()) > COMMUTATOR_ATOL:
                raise ValueError(f"states {i} and {j} do not commute")
    basis = np.eye(dim, dtype=complex)
    blocks = [np.arange(dim)]
    for rho in states:
        refined: list[np.ndarray] = []
        for block in blocks:
            if block.size == 1:
                refined.append(block)
                continue
            sub = basis[:, block].conj().T @ rho.mat @ basis[:, block]
            values, rotation = np.linalg.eigh((sub + sub.conj().T) / 2.0)
            basis[:, block] = basis[:, block] @ rotation
            cut = 0
            for t in range(1, block.size):
                if values[t] - values[t - 1] > COMMUTATOR_ATOL:
                    refined.append(block[cut:t])
                    cut = t
            refined.append(block[cut:])
        blocks = refined
    for k, rho in enumerate(states):
        rotated = basis.conj().T @ rho.mat @ basis
        off = rotated - np.diag(np.diag(rotated))
        if float(np.abs(off).max()) > COMMON_BASIS_ATOL:
            raise NumericalConsistencyError(
                f"state {k} is not diagonal in the refined common basis"
            )
    return basis


@dataclass(frozen=True)
class BayesConditionReport:
    """Per-condition outcome of the optimal-success certificate checks."""

    m_hermitian: bool
    dominates: tuple[bool, ...]
    annihilates: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return self.m_hermitian and all(self.dominates) and all(self.annihilates)


def verify_bayes_conditions(
    sigma_set: Sequence[DensityMatrix], det: Detector, tol: float
) -> BayesConditionReport:
    """Check the optimality certificate of a candidate detector.

    With M = sum_i rho_i E_i, a success-maximizing detector has M Hermitian,
    M >= rho_i for every hypothesis, and (M - rho_i) E_i = 0. The frame is
    read through its columns T_i labelled i, without building E_i = T_i T_i^H
    first: M = sum_i (rho_i T_i) T_i^H, and the annihilation residual is
    ||((M - rho_i) T_i) T_i^H||_2 = ||(M - rho_i) E_i||_2.
    """
    states = list(sigma_set)
    if len(states) != det.outcomes:
        raise ValueError(f"{len(states)} states vs {det.outcomes} detector elements")
    factors = [det.frame[:, det.labels == i] for i in range(det.outcomes)]
    m_raw = sum((rho.mat @ t) @ t.conj().T for rho, t in zip(states, factors))
    hermitian = float(np.abs(m_raw - m_raw.conj().T).max()) <= tol
    m_sym = (m_raw + m_raw.conj().T) / 2.0
    dominates = tuple(
        float(np.linalg.eigvalsh(m_sym - rho.mat)[0]) >= -tol for rho in states
    )
    annihilates = tuple(
        float(np.linalg.norm(((m_sym - rho.mat) @ t) @ t.conj().T, 2)) <= tol
        for rho, t in zip(states, factors)
    )
    return BayesConditionReport(
        m_hermitian=hermitian, dominates=dominates, annihilates=annihilates
    )


def bayes_commuting(
    sigma_set: Sequence[DensityMatrix],
) -> tuple[Detector, float, HermitianMatrix]:
    """Exact Bayes detector for a commuting family, with its success certificate.

    In the common eigenbasis the certificate operator is the slotwise maximum
    of the diagonal probabilities; every slot goes to the smallest maximizing
    hypothesis. Returns (detector, mu, M) where mu = tr[M] is r times the
    optimal averaged success probability.
    """
    states = list(sigma_set)
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    basis = common_eigenbasis(states)
    probs = np.array(
        [np.real(np.diag(basis.conj().T @ rho.mat @ basis)) for rho in states]
    )
    winners = np.argmax(probs, axis=0)
    slot_max = probs.max(axis=0)
    mu = float(slot_max.sum())
    certificate = HermitianMatrix(basis @ np.diag(slot_max) @ basis.conj().T)
    # the Detector's frame check is the one check that the basis is unitary
    det = Detector(kind="PVM", frame=basis, labels=winners, outcomes=len(states))
    report = verify_bayes_conditions(states, det, tol=POVM_ATOL)
    if not report.passed:
        raise NumericalConsistencyError(
            "commuting Bayes candidate fails its optimality certificate"
        )
    return det, mu, certificate


def embedding_guard(epsilon: float) -> None:
    """Reject perturbation sizes outside the validity region of the embedding.

    The comparison matrix used to dominate the perturbation must be PSD: its
    smallest eigenvalue delta epsilon - epsilon^2 pins epsilon to
    (0, 1/sqrt(2)]. ``EPSILON_FLOOR`` keeps the epsilon^2 Gram floor far above
    rounding noise.
    """
    if not EPSILON_FLOOR <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [{EPSILON_FLOOR}, 1), got {epsilon}")
    delta = math.sqrt(1.0 - epsilon * epsilon)
    if delta * epsilon - epsilon**2 < NONNEGATIVE_FLOOR:
        raise ValueError(
            f"epsilon={epsilon} is too large for the embedding positivity guarantee"
        )


def epsilon_detector(
    sigma_set: Sequence[DensityMatrix], epsilon: float
) -> tuple[Detector, GsDiagnostics]:
    """POVM distilled from a projective detector on perturbed embedded states.

    The paper embeds each eigenvector in (r+1)d dimensions and mixes it with a
    private extra-block direction, which forces all perturbed eigenvectors to
    be jointly linearly independent (Gram eigenvalues >= epsilon^2), so every
    eigenvector above the zero cut is picked. Only the m picked eigenvectors
    ever use a private direction, so the embedding keeps just those: the
    (d + m) x m matrix X = [delta V; epsilon I_m] holds the picks' eigenvectors
    V in pick order over one private row per pick. One complete QR of X,
    checked unitary, orthonormalizes the picks and completes the basis.
    Element i is T_i T_i^H, where T_i holds the top d rows of the basis columns
    labelled i: the upper block of the embedded PVM, which is itself never
    built. This is the paper's POVM: the other rd - m embedded rows are zero
    in X, so they are zero in its orthonormalized picks X R^-1 too, and the
    completion's top block projects onto the complement of the picks' top
    block, I - T_p T_p^H, in either space. The result is a POVM that is
    generally not projective.
    """
    states, decs, selection = _greedy_pops(sigma_set)
    embedding_guard(epsilon)
    dim = states[0].dim
    delta = math.sqrt(1.0 - epsilon * epsilon)
    picks = len(selection)
    vectors = np.column_stack([decs[state].vectors[:, index] for state, index in selection])
    columns = np.zeros((dim + picks, picks), dtype=complex)
    columns[:dim] = delta * vectors
    columns[dim:] = epsilon * np.eye(picks)
    basis, labels = _complete_basis(selection, columns)
    # the frame check sees only the top d rows, so it does not imply this
    if float(np.abs(basis.conj().T @ basis - np.eye(dim + picks)).max()) > POVM_ATOL:
        raise NumericalConsistencyError("complete QR factor is not unitary")
    det = Detector(kind="POVM", frame=basis[:dim], labels=labels, outcomes=len(states))
    return det, GsDiagnostics(selection, basis, _embedded_gram_floor(vectors, epsilon))
