"""Construction and evaluation of multiple-hypothesis quantum detectors.

All detectors are built from spectral data of the hypothesis states; every
function is pure and instances are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chernoff import binary_qcb
from .errors import NumericalConsistencyError
from .linalg import (
    DensityMatrix,
    HermitianMatrix,
    eigenvalue_zero_threshold,
    gram_min_eigenvalue,
    positive_part_and_support,
)

POVM_ATOL = 1e-9
SPAN_RESIDUAL_TOL = 1e-9
SELECTION_TIE_ATOL = 1e-12
COMMUTATOR_ATOL = 1e-10
PRIOR_ATOL = 1e-10


@dataclass
class Detector:
    """An r-outcome measurement: PSD elements that sum to the identity.

    ``kind == "PVM"`` additionally demands idempotent, mutually orthogonal
    elements. Invariants are checked on construction.
    """

    elements: list[HermitianMatrix]
    kind: str = "POVM"

    def __post_init__(self) -> None:
        if self.kind not in ("PVM", "POVM"):
            raise ValueError(f"kind must be PVM or POVM, got {self.kind!r}")
        if not self.elements:
            raise ValueError("detector needs at least one element")
        dim = self.elements[0].dim
        if any(e.dim != dim for e in self.elements):
            raise ValueError("detector elements must share one dimension")
        total = sum(e.mat for e in self.elements)
        if float(np.abs(total - np.eye(dim)).max()) > POVM_ATOL:
            raise NumericalConsistencyError("detector elements do not sum to the identity")
        for k, element in enumerate(self.elements):
            low = float(np.linalg.eigvalsh(element.mat)[0])
            if low < -POVM_ATOL:
                raise NumericalConsistencyError(
                    f"element {k} is not positive semidefinite (eigenvalue {low:.3e})"
                )
        if self.kind == "PVM":
            for k, element in enumerate(self.elements):
                gap = float(np.abs(element.mat @ element.mat - element.mat).max())
                if gap > POVM_ATOL:
                    raise NumericalConsistencyError(f"element {k} is not idempotent")
            for k in range(len(self.elements)):
                for l in range(k + 1, len(self.elements)):
                    cross = float(np.abs(self.elements[k].mat @ self.elements[l].mat).max())
                    if cross > POVM_ATOL:
                        raise NumericalConsistencyError(
                            f"elements {k} and {l} are not orthogonal"
                        )

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ErrorReport:
    """Per-hypothesis and averaged error probabilities under the uniform prior."""

    successes: tuple[float, ...]
    per_hypothesis: tuple[float, ...]
    averaged: float


def evaluate_errors(sigma_set: Sequence[DensityMatrix], det: Detector) -> ErrorReport:
    """Succ_i = tr[rho_i E_i]; errors are their complements, averaged uniformly."""
    states = list(sigma_set)
    if len(states) != det.outcomes:
        raise ValueError(f"{len(states)} states vs {det.outcomes} detector elements")
    if any(rho.dim != det.dim for rho in states):
        raise ValueError("state dimension does not match the detector")
    successes = tuple(
        float(np.trace(rho.mat @ element.mat).real)
        for rho, element in zip(states, det.elements)
    )
    errors = tuple(1.0 - s for s in successes)
    return ErrorReport(
        successes=successes, per_hypothesis=errors, averaged=float(np.mean(errors))
    )


def holevo_helstrom(rho1: DensityMatrix, rho2: DensityMatrix) -> Detector:
    """Optimal binary projective test onto the positive part of rho2 - rho1.

    Kernel directions of the difference are assigned to hypothesis 0.
    """
    if rho1.dim != rho2.dim:
        raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    difference = HermitianMatrix(rho2.mat - rho1.mat)
    _, projector = positive_part_and_support(difference)
    complement = HermitianMatrix(np.eye(rho1.dim) - projector.mat)
    return Detector([complement, projector], kind="PVM")


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
    if float(probs.min()) < -1e-12:
        raise ValueError("probabilities must be nonnegative")
    row_sums = probs.sum(axis=1)
    if float(np.abs(row_sums - 1.0).max()) > PRIOR_ATOL:
        raise ValueError("every row must sum to 1")
    return np.argmax(probs, axis=0)


@dataclass
class GsDiagnostics:
    """Execution record of the greedy orthonormalization.

    ``selection_order`` holds the (state, eigenindex) pairs actually picked,
    ``basis`` the full orthonormal basis (picked directions first, arbitrary
    completion after), ``labels`` the hypothesis index of every basis column,
    and ``gram`` the Gram matrix of the picked source eigenvectors.
    """

    selection_order: list[tuple[int, int]]
    basis: np.ndarray
    labels: list[int]
    gram: HermitianMatrix
    stopping_index: int
    lambda_min_gram: float


def _greedy_orthonormal_selection(values_rows, vector_mats, dim, zero_threshold):
    """Greedy eigenvalue-ordered selection with on-the-fly Gram-Schmidt.

    ``values_rows[i]`` is a descending eigenvalue array for hypothesis i and
    ``vector_mats[i]`` the matching unit-vector columns in C^dim. At each step
    the largest remaining eigenvalue (ties to the smallest state, then
    eigenindex) contributes a new orthonormal direction; vectors that fall
    inside the accumulated span are dropped. Stops once only eigenvalues at or
    below ``zero_threshold`` remain.
    """
    r = len(values_rows)
    counts = [len(v) for v in values_rows]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    residuals = np.concatenate(
        [np.asarray(vector_mats[i]).T for i in range(r)], axis=0
    ).astype(complex)
    alive = np.ones(offsets[-1], dtype=bool)
    pointers = [0] * r

    basis: list[np.ndarray] = []
    labels: list[int] = []
    selection: list[tuple[int, int]] = []
    chosen: list[np.ndarray] = []

    while True:
        best_state, best_index, best_value = -1, -1, -math.inf
        for i in range(r):
            j = pointers[i]
            while j < counts[i] and not alive[offsets[i] + j]:
                j += 1
            pointers[i] = j
            if j < counts[i]:
                value = float(values_rows[i][j])
                if value > best_value + SELECTION_TIE_ATOL:
                    best_state, best_index, best_value = i, j, value
        if best_state < 0 or best_value <= zero_threshold:
            break

        flat = offsets[best_state] + best_index
        w = residuals[flat]
        norm = float(np.linalg.norm(w))
        if norm < SPAN_RESIDUAL_TOL:
            raise NumericalConsistencyError(
                "selected eigenvector lies inside the current span; "
                "it should have been eliminated"
            )
        direction = w / norm
        if basis:
            frame = np.array(basis)
            direction = direction - frame.T @ (frame.conj() @ direction)
            direction = direction / float(np.linalg.norm(direction))

        basis.append(direction)
        labels.append(best_state)
        selection.append((best_state, best_index))
        chosen.append(np.array(vector_mats[best_state][:, best_index]))
        alive[flat] = False

        idx = np.flatnonzero(alive)
        if idx.size:
            coeff = residuals[idx] @ direction.conj()
            residuals[idx] -= np.outer(coeff, direction)
            norms = np.linalg.norm(residuals[idx], axis=1)
            alive[idx[norms <= SPAN_RESIDUAL_TOL]] = False

    return selection, basis, labels, chosen


def _complete_basis(basis: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend an orthonormal family to a full basis using canonical directions."""
    have = list(basis)
    completion: list[np.ndarray] = []
    for k in range(dim):
        if len(have) == dim:
            break
        candidate = np.zeros(dim, dtype=complex)
        candidate[k] = 1.0
        for _ in range(2):
            for e in have:
                candidate = candidate - e * np.vdot(e, candidate)
        norm = float(np.linalg.norm(candidate))
        if norm > 1e-6:
            candidate = candidate / norm
            have.append(candidate)
            completion.append(candidate)
    if len(have) != dim:
        raise NumericalConsistencyError("failed to complete the orthonormal basis")
    return completion


def _assemble_pvm(selection, basis, labels, chosen, r, dim):
    completion = _complete_basis(basis, dim)
    full_basis = list(basis) + completion
    full_labels = list(labels) + [0] * len(completion)
    mats = [np.zeros((dim, dim), dtype=complex) for _ in range(r)]
    for direction, label in zip(full_basis, full_labels):
        mats[label] += np.outer(direction, direction.conj())
    det = Detector([HermitianMatrix(m) for m in mats], kind="PVM")
    gram, lam_min = gram_min_eigenvalue(chosen)
    if lam_min <= 0.0:
        raise NumericalConsistencyError("picked vectors have a singular Gram matrix")
    diagnostics = GsDiagnostics(
        selection_order=list(selection),
        basis=np.column_stack(full_basis),
        labels=full_labels,
        gram=gram,
        stopping_index=len(selection),
        lambda_min_gram=lam_min,
    )
    return det, diagnostics


def gs_detector(sigma_set: Sequence[DensityMatrix]) -> tuple[Detector, GsDiagnostics]:
    """Eigenvalue-greedy Gram-Schmidt PVM for an arbitrary hypothesis set.

    Spectral decompositions feed the greedy selection; leftover directions
    after the positive eigenvalues run out complete the basis with label 0.
    """
    states = list(sigma_set)
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    dim = states[0].dim
    if any(rho.dim != dim for rho in states):
        raise ValueError("states must share one dimension")
    decs = [rho.spectrum() for rho in states]
    values_rows = [dec.eigenvalues for dec in decs]
    vector_mats = [dec.vectors for dec in decs]
    zero_threshold = eigenvalue_zero_threshold(np.concatenate(values_rows))
    selection, basis, labels, chosen = _greedy_orthonormal_selection(
        values_rows, vector_mats, dim, zero_threshold
    )
    return _assemble_pvm(selection, basis, labels, chosen, len(states), dim)


def gs_error_bound(sigma_set: Sequence[DensityMatrix], diagnostics: GsDiagnostics) -> float:
    """Error ceiling for the greedy PVM: summed pairwise overlap infima over
    (r times the smallest Gram eigenvalue)."""
    states = list(sigma_set)
    lam_min = diagnostics.lambda_min_gram
    if lam_min <= 0.0:
        raise NumericalConsistencyError("Gram matrix is numerically singular")
    total = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            total += 2.0 * binary_qcb(states[i], states[j]).q_star
    return total / (lam_min * len(states))


def pgm(sigma_set: Sequence[DensityMatrix], priors: Sequence[float]) -> Detector:
    """Square-root ("pretty good") measurement for prior-weighted hypotheses.

    The averaged state's inverse square root is taken on its support only; the
    off-support deficit is added to the first element so the tuple is a POVM
    on the full space.
    """
    states = list(sigma_set)
    weights = np.asarray(priors, dtype=float)
    if len(states) != len(weights):
        raise ValueError("one prior per state required")
    if float(weights.min()) < -1e-12:
        raise ValueError("priors must be nonnegative")
    if abs(float(weights.sum()) - 1.0) > PRIOR_ATOL:
        raise ValueError("priors must sum to 1")
    dim = states[0].dim
    average = sum(p * rho.mat for p, rho in zip(weights, states))
    values, vectors = np.linalg.eigh(average)
    threshold = eigenvalue_zero_threshold(values)
    keep = values > threshold
    kept = vectors[:, keep]
    inv_sqrt = (kept * values[keep] ** -0.5) @ kept.conj().T
    deficit = np.eye(dim) - kept @ kept.conj().T
    elements = [inv_sqrt @ (p * rho.mat) @ inv_sqrt for p, rho in zip(weights, states)]
    elements[0] = elements[0] + deficit
    return Detector([HermitianMatrix(e) for e in elements], kind="POVM")


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
        if float(np.abs(off).max()) > 1e-9:
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
    M >= rho_i for every hypothesis, and (M - rho_i) E_i = 0.
    """
    states = list(sigma_set)
    if len(states) != det.outcomes:
        raise ValueError(f"{len(states)} states vs {det.outcomes} detector elements")
    m_raw = sum(rho.mat @ element.mat for rho, element in zip(states, det.elements))
    hermitian = float(np.abs(m_raw - m_raw.conj().T).max()) <= tol
    m_sym = (m_raw + m_raw.conj().T) / 2.0
    dominates = tuple(
        float(np.linalg.eigvalsh(m_sym - rho.mat)[0]) >= -tol for rho in states
    )
    annihilates = tuple(
        float(np.linalg.norm((m_sym - rho.mat) @ element.mat, 2)) <= tol
        for rho, element in zip(states, det.elements)
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
    elements = []
    for i in range(len(states)):
        indicator = (winners == i).astype(float)
        elements.append(HermitianMatrix(basis @ np.diag(indicator) @ basis.conj().T))
    det = Detector(elements, kind="PVM")
    report = verify_bayes_conditions(states, det, tol=1e-9)
    if not report.passed:
        raise NumericalConsistencyError(
            "commuting Bayes candidate fails its optimality certificate"
        )
    return det, mu, certificate


def embedding_guard(epsilon: float) -> None:
    """Reject perturbation sizes outside the validity region of the embedding.

    The comparison matrix used to dominate the perturbation must be PSD, which
    pins epsilon to (0, 1/sqrt(2)]. The PSD check runs numerically on the
    two-dimensional model matrix rather than trusting the closed form.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    delta = math.sqrt(1.0 - epsilon * epsilon)
    u = np.array([1.0, 0.0])
    f = np.array([0.0, 1.0])
    comparison = (delta * epsilon - epsilon**2) * (np.outer(u, u) + np.outer(f, f))
    comparison = comparison + 2.0 * epsilon**2 * np.outer(u, u)
    if float(np.linalg.eigvalsh(comparison)[0]) < -1e-12:
        raise ValueError(
            f"epsilon={epsilon} is too large for the embedding positivity guarantee"
        )


def embedding_floor_guard(epsilon: float, lambda_min: float) -> None:
    """Reject a picked Gram spectrum below the epsilon^2 floor of the embedding."""
    if lambda_min < epsilon * epsilon * (1.0 - 1e-9) - 1e-12:
        raise NumericalConsistencyError(
            "embedded Gram spectrum fell below the perturbation floor"
        )


def epsilon_detector(
    sigma_set: Sequence[DensityMatrix], epsilon: float
) -> tuple[Detector, GsDiagnostics]:
    """POVM distilled from a projective detector on perturbed embedded states.

    Each eigenvector is embedded in (r+1)d dimensions and mixed with a private
    extra-block direction, which forces all perturbed eigenvectors to be
    jointly linearly independent (Gram eigenvalues >= epsilon^2). The greedy
    PVM built there is cut back to the physical upper block, giving a POVM
    that is generally not projective.
    """
    states = list(sigma_set)
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    embedding_guard(epsilon)
    dim = states[0].dim
    if any(rho.dim != dim for rho in states):
        raise ValueError("states must share one dimension")
    delta = math.sqrt(1.0 - epsilon * epsilon)
    big_dim = (len(states) + 1) * dim
    decs = [rho.spectrum() for rho in states]
    values_rows = [dec.eigenvalues for dec in decs]
    perturbed = []
    for i, dec in enumerate(decs):
        columns = np.zeros((big_dim, dim), dtype=complex)
        columns[:dim, :] = delta * dec.vectors
        for j in range(dim):
            columns[(i + 1) * dim + j, j] += epsilon
        perturbed.append(columns)
    zero_threshold = eigenvalue_zero_threshold(np.concatenate(values_rows))
    selection, basis, labels, chosen = _greedy_orthonormal_selection(
        values_rows, perturbed, big_dim, zero_threshold
    )
    big_det, diagnostics = _assemble_pvm(
        selection, basis, labels, chosen, len(states), big_dim
    )
    blocks = [HermitianMatrix(element.mat[:dim, :dim]) for element in big_det.elements]
    det = Detector(blocks, kind="POVM")
    embedding_floor_guard(epsilon, diagnostics.lambda_min_gram)
    return det, diagnostics
