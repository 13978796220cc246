"""Construction and evaluation of multiple-hypothesis quantum detectors.

All detectors are built from spectral data of the hypothesis states, each
as its labelled frame (``Detector``), the one form a detector takes; every
function is pure and a detector owns read-only copies of its arrays.
Every route pops its pick candidates through one engine, ``pop_order``: a
stable sort of the stacked candidate streams wherever that is sure to equal
the ``greedy_order`` merge (``_near_ties`` states that guard), and that merge
elsewhere. ``greedy_ranks`` sorts one value per column and flags the columns
the guard fails on. The labelled frames of the greedy kinds are built here
for every route (``pick_frame``): gs by ``greedy_span``, and epsilon, the
embedded detector, in closed form from two Cholesky factors. The Bayes
conditions are decided by one rule, ``eigvalsh`` and the 2-norm
(``verify_bayes_conditions``). Exactly diagonal states are read off
their diagonals: their spectra by ``linalg.spectral_decompose``, their
blocks of the common basis by ``_common_diagonals`` while that basis is a
permutation. A family of such states stays on its r x d diagonal rows (the
row path): its basis order and certificate are read off the rows, which
give the dense bits because every entry of the dense products has at most
one nonzero term in its permutation basis, and its conditions hold as
built, so none is checked.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chernoff import overlap_power_sum, pairwise_qcb
from .errors import NumericalConsistencyError
# SPAN_RESIDUAL_TOL, gs's span rule, is read by ``greedy_span`` and named here
from .linalg import (
    DENSITY_TRACE_ATOL,
    SPAN_RESIDUAL_TOL,
    DensityMatrix,
    HermitianMatrix,
    check_family,
    eigenvalue_zero_threshold,
    factor_floor,
    gram_floor,
    greedy_span,
    is_exactly_diagonal,
    solve_lower,
)

POVM_ATOL = 1e-9
SELECTION_TIE_RTOL = 1e-12
COMMUTATOR_ATOL = 1e-10
COMMON_BASIS_ATOL = 1e-9
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
    for a square T, projective and mutually orthogonal. The detector keeps
    read-only copies of the frame and labels, so a later write to the
    caller's arrays does not change it.
    """

    def __init__(
        self, *, kind: str, frame: np.ndarray, labels: Sequence[int], outcomes: int | None = None
    ) -> None:
        if kind not in ("PVM", "POVM"):
            raise ValueError(f"kind must be PVM or POVM, got {kind!r}")
        frame, labels = np.array(frame), np.array(labels)
        if outcomes is None:
            raise ValueError("a frame detector needs its number of outcomes")
        outcomes = operator.index(outcomes)
        if frame.ndim != 2 or frame.shape[0] < 1:
            raise ValueError(f"expected a nonempty d x m frame, got shape {frame.shape}")
        dim = frame.shape[0]
        if outcomes < 1:
            raise ValueError(f"a detector needs at least one outcome, got {outcomes}")
        if labels.shape != frame.shape[1:] or labels.dtype.kind not in "iu":
            raise ValueError("a frame needs one integer label per column")
        if labels.size and not 0 <= labels.min() <= labels.max() < outcomes:
            raise ValueError(f"frame labels must lie in [0, {outcomes})")
        gap = float(np.abs(frame @ frame.conj().T - np.eye(dim)).max())
        if not gap <= POVM_ATOL:  # also catches a NaN
            raise NumericalConsistencyError(
                "frame rows are not orthonormal, so the elements do not sum to the "
                f"identity (max deviation {gap:.3e})"
            )
        if kind == "PVM" and frame.shape[1] != dim:
            raise NumericalConsistencyError(f"a PVM frame must be square, got shape {frame.shape}")
        frame.setflags(write=False)
        labels.setflags(write=False)
        self.kind, self.frame, self.labels = kind, frame, labels
        self.outcomes, self.dim = outcomes, dim

    @functools.cached_property
    def elements(self) -> list[HermitianMatrix]:
        blocks = (self.frame[:, self.labels == i] for i in range(self.outcomes))
        return [HermitianMatrix(b @ b.conj().T) for b in blocks]


@dataclass(frozen=True)
class ErrorReport:
    """Per-hypothesis and averaged error probabilities under the uniform prior."""

    successes: tuple[float, ...]
    per_hypothesis: tuple[float, ...]
    averaged: float


def _check_detector_family(sigma_set: Sequence[DensityMatrix], det: Detector) -> list:
    """The states as a list: one per outcome of ``det``, each of its dimension."""
    states = list(sigma_set)
    if len(states) != det.outcomes:
        raise ValueError(f"{len(states)} states vs {det.outcomes} detector elements")
    if any(rho.dim != det.dim for rho in states):
        raise ValueError("state dimension does not match the detector")
    return states


def evaluate_errors(sigma_set: Sequence[DensityMatrix], det: Detector) -> ErrorReport:
    """Success and error probability of each hypothesis, errors averaged uniformly.

    Every detector is scored column by column of its frame: the masses
    q_ic = <t_c|rho_i|t_c> come from one product of the row-stacked states
    with the frame, and one product of q with the one-hot labels gives the
    r x r sums S_ij = tr[rho_i E_j]. Succ_i is S_ii, and err_i sums the
    off-diagonal S_ij of row i, its misses, not 1 - Succ_i: a small err is
    then fixed relative to itself, not only to rounding of 1.
    """
    states = _check_detector_family(sigma_set, det)
    r, dim = len(states), det.dim
    frame = det.frame
    rows = np.concatenate([rho.mat for rho in states]) @ frame
    masses = (frame.conj() * rows.reshape(r, dim, -1)).sum(axis=1).real
    sums = masses @ (det.labels[:, None] == np.arange(r)).astype(float)
    successes = tuple(sums.diagonal().tolist())
    np.fill_diagonal(sums, 0.0)
    errors = sums.sum(axis=1)
    return ErrorReport(
        successes=successes,
        per_hypothesis=tuple(errors.tolist()),
        averaged=float(errors.sum()) / r,
    )


def holevo_helstrom(rho1: DensityMatrix, rho2: DensityMatrix) -> Detector:
    """Optimal binary projective test onto the positive part of rho2 - rho1.

    The positive part is cut by sign (eigenvalues > 0), not relative to the
    largest eigenvalue; kernel directions of the difference are assigned to
    hypothesis 0.
    """
    check_family([rho1, rho2])
    frame, labels = _helstrom_frame(rho2.mat - rho1.mat)
    return Detector(kind="PVM", frame=frame, labels=labels, outcomes=2)


def _helstrom_frame(difference):
    """The eigenbasis of the Hermitian part of ``difference`` (rho_1 - rho_0),
    each column labelled 1 iff its eigenvalue is > 0."""
    values, vectors = np.linalg.eigh((difference + difference.conj().T) / 2.0)
    return vectors, (values > 0.0).astype(int)


def check_distribution(values: np.ndarray, what: str, whole: str | None = None) -> None:
    """The one rule of a distribution, on each row (last axis) of ``values``:
    every entry finite and at least ``NONNEGATIVE_FLOOR``, the row summing
    to 1 within ``DENSITY_TRACE_ATOL``, the one sum rule of a state's trace
    too. The ValueError names ``what`` (for the sum, ``whole`` if given)."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    if float(values.min()) < NONNEGATIVE_FLOOR:
        raise ValueError(f"{what} must be nonnegative")
    if float(np.abs(values.sum(axis=-1) - 1.0).max()) > DENSITY_TRACE_ATOL:
        raise ValueError(f"{whole or what} must sum to 1")


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
    check_distribution(probs, "probabilities", "every row")
    return np.argmax(probs, axis=0)


@dataclass
class GsDiagnostics:
    """Execution record of the greedy orthonormalization.

    ``selection_order`` holds the (state, eigenindex) pairs actually picked,
    in pick order (for gs, the candidates whose distance to the span of the
    earlier picks is above ``SPAN_RESIDUAL_TOL``), whose orthonormalized
    directions come first in the detector's frame, labelled by their states.
    ``lambda_min_gram`` is the smallest eigenvalue of the picked Gram matrix,
    from sigma_min(R)^2 of a Householder R of the picked eigenvectors V
    (their ``gram_floor``): for gs, the R of the complete QR that builds the
    frame; for epsilon, the embedded Gram delta^2 V^H V + epsilon^2 I gives
    epsilon^2 + delta^2 gram_floor(V).
    """

    selection_order: list[tuple[int, int]]
    lambda_min_gram: float


def _takes_lead(value, best):
    """Whether a later state's head ``value`` takes the lead from ``best``, the
    head of an earlier state: only by more than ``SELECTION_TIE_RTOL`` times
    |best|, so a near-tie goes to the smaller state index."""
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


def _near_ties(higher, lower):
    """Whether sorted neighbours ``higher`` >= ``lower`` (elementwise on
    arrays) are distinct yet within twice ``SELECTION_TIE_RTOL`` times |lower|:
    where a sorted candidate list holds no such pair, ``_takes_lead`` decides
    every head comparison as an exact one would, so a stable sort gives the
    ``greedy_order`` merge. ``pop_order`` sorts unless this holds, and
    ``greedy_ranks`` flags the columns where it does."""
    gaps = higher - lower
    return (gaps > 0.0) & (gaps <= 2.0 * SELECTION_TIE_RTOL * np.abs(lower))


def greedy_ranks(values, present):
    """Pick positions of single-value streams by one stable sort per column,
    and the columns where the sort may differ from ``greedy_order``.

    Column m of the r x M ``values`` gives state i the stream
    [values[i, m]] where ``present[i, m]`` holds, and an empty one elsewhere.
    Returns the r x M position of every state in its column's sort (present
    states first, by descending value, ties to the smaller state), -1 for an
    empty stream, and the columns whose sorted present values hold
    ``_near_ties``. Any merge of streams that holds the values of another
    column orders them as the sort does.
    """
    # absent states sort last by their key alone: no value of theirs is compared
    order = np.argsort(np.where(present, -values, np.inf), axis=0, kind="stable")
    columns = np.arange(values.shape[1])
    ranks = np.empty(values.shape, dtype=int)
    ranks[order, columns] = np.arange(len(values))[:, None]
    ranks[~present] = -1
    ranked = values[order, columns]
    # where the lower neighbour is present, so is the higher one
    both = present[order[1:], columns]
    return ranks, np.flatnonzero((both & _near_ties(ranked[:-1], ranked[1:])).any(axis=0))


def pop_order(values, floor):
    """The flat indices s * K + k of the r x K ``values``, row s state s's
    candidate stream, in ``greedy_order``, up to the first popped value at
    or below ``floor``: the one pick-order engine of every route.

    One stable sort of the stacked streams (ties to the smaller state, then
    index) gives that order unless a kept value rises above the one before
    it in its stream, or ``_takes_lead`` decides a head comparison otherwise
    than an exact one would. That takes two distinct values within
    ``SELECTION_TIE_RTOL`` of each other, one of them kept, and then the
    kept values and the first cut one, sorted, hold ``_near_ties``. Exact
    ties sort as the merge pops them. Otherwise the ``greedy_order`` merge
    itself runs."""
    kept = values > floor
    if not (kept[:, 1:] & (values[:, 1:] > values[:, :-1])).any():
        flat = values.ravel()
        order = np.argsort(-flat, kind="stable")
        count = np.count_nonzero(kept)
        heads = flat[order[: count + 1]]
        if not _near_ties(heads[:-1], heads[1:]).any():
            return order[:count]
    pops = []
    for state, value, index in greedy_order(zip(row, itertools.count()) for row in values):
        if value <= floor:
            break
        pops.append(state * values.shape[1] + index)
    return np.array(pops, dtype=int)


def _greedy_pops(sigma_set):
    """The states, the (state, eigenindex) pairs that ``pop_order`` pops from
    their stacked spectra down to the ``eigenvalue_zero_threshold`` of them
    all, and those eigenvectors as the columns of one d x m array, in that
    order. Needs at least two states, of one dimension (``check_family``)."""
    states = check_family(sigma_set)
    decs = [rho.spectrum() for rho in states]
    values = np.stack([dec.eigenvalues for dec in decs])
    picks = pop_order(values, eigenvalue_zero_threshold(values))
    # a pick's flat index state * d + index is its column of the stacked bases
    vectors = np.take(np.concatenate([dec.vectors for dec in decs], axis=1), picks, axis=1)
    return states, [divmod(k, values.shape[1]) for k in picks.tolist()], vectors


def _gs_frame(owners, vectors):
    """The greedy PVM's labelled frame on C^D, by ``greedy_span`` of the
    D x K unit candidates ``vectors`` in pick order, column k owned by state
    ``owners[k]``. Returns the picked column indices, the D x D basis of the
    picks' complete QR, its labels (the picks' owners, then 0 for the
    Householder completion), and sigma_min(R)^2 of its R, the
    ``gram_floor`` of the picks."""
    picked, basis, factor = greedy_span(vectors)
    return picked, basis, _labels(owners[picked], len(basis)), factor_floor(factor)


def _labels(owners, dim):
    return np.concatenate([owners, np.zeros(dim - len(owners), dtype=int)])


def _epsilon_frame(owners, picks, epsilon: float):
    """The embedded detector's labelled frame on C^D, in closed form, and its
    Gram floor.

    The D x m unit ``picks`` V, column c owned by state ``owners[c]``,
    embed as X = [delta V; epsilon I_m]. Their Gram matrix
    delta^2 V^H V + epsilon^2 I is R^H R, one Cholesky decomposition, and
    the top D rows of the orthonormalized picks X R^-1 are P = delta V R^-1,
    each column labelled with its state. The complement of the picks in
    C^(D+m) is spanned by [I; -(delta/epsilon) V^H], whose Gram matrix is
    L L^H = I + (delta/epsilon)^2 V V^H, so its orthonormalized top rows
    are C = L^-H, labelled 0. Together they are the top D rows of a unitary
    completion of X R^-1, so every state's misses are masses, none a
    difference. The floor is the smallest eigenvalue of that Gram matrix,
    epsilon^2 + delta^2 gram_floor(V): exactly epsilon^2 with more picks
    than dimensions.
    """
    delta_sq = 1.0 - epsilon * epsilon
    gram = delta_sq * (picks.conj().T @ picks)
    # distinct picks share no private direction; each embedded vector is a
    # unit vector, delta^2 + epsilon^2 = 1
    np.fill_diagonal(gram, 1.0)
    # V R^-1 = (R^-H V^H)^H, with R^H the lower Cholesky factor
    lower = np.linalg.cholesky(gram)
    physical = math.sqrt(delta_sq) * solve_lower(lower, picks.conj().T).conj().T
    spread = (delta_sq / (epsilon * epsilon)) * (picks @ picks.conj().T)
    spread[np.diag_indices_from(spread)] += 1.0
    completion = solve_lower(np.linalg.cholesky(spread), np.eye(len(picks))).conj().T
    # (delta/epsilon)^2 V V^H is rounded relative to its size, so on the
    # directions that V misses, where C is ~I, P P^H + C C^H misses I by up
    # to (delta/epsilon)^2 eps (7e-11 at EPSILON_FLOOR); one Newton-Schulz
    # step on C takes it back to rounding
    gap = np.eye(len(picks)) - physical @ physical.conj().T - completion @ completion.conj().T
    completion += 0.5 * (gap @ completion)
    frame = np.hstack([physical, completion])
    floor = epsilon * epsilon + delta_sq * gram_floor(picks)
    return frame, _labels(owners, frame.shape[1]), floor


def pick_frame(kind: str, owners, picks, epsilon: float):
    """The labelled frame of a gs or epsilon detector on C^D, from the D x m
    unit ``picks`` in pick order, owned by the states ``owners``, and its
    Gram floor: gs is ``_gs_frame`` (windowed Householder selection,
    ``SPAN_RESIDUAL_TOL``, the Householder complement labelled 0, floor
    sigma_min(R)^2), epsilon ``_epsilon_frame``: the frames of the dense
    detectors, for the Schur-Weyl blocks and the pure route."""
    if kind == "gs":
        _, basis, labels, floor = _gs_frame(owners, picks)
        return basis, labels, floor
    return _epsilon_frame(owners, picks, epsilon)


def gs_detector(sigma_set: Sequence[DensityMatrix]) -> tuple[Detector, GsDiagnostics]:
    """Eigenvalue-greedy Gram-Schmidt PVM for an arbitrary hypothesis set.

    Spectral decompositions feed the greedy selection; leftover directions
    after the positive eigenvalues run out complete the basis with label 0.
    """
    states, pops, vectors = _greedy_pops(sigma_set)
    owners = np.array([state for state, _ in pops])
    picked, basis, labels, lambda_min = _gs_frame(owners, vectors)
    det = Detector(kind="PVM", frame=basis, labels=labels, outcomes=len(states))
    return det, GsDiagnostics([pops[k] for k in picked], lambda_min)


def lemma3_bound(overlap_sum: float, lambda_min: float, r: int) -> float:
    """Error ceiling for the greedy PVM on r hypotheses: the summed pairwise
    overlap infima over (r times the smallest picked Gram eigenvalue),
    infinite iff that eigenvalue is 0 (``gram_floor`` is never negative)."""
    return math.inf if lambda_min <= 0.0 else overlap_sum / (lambda_min * r)


def gs_error_bound(sigma_set: Sequence[DensityMatrix], diagnostics: GsDiagnostics) -> float:
    """``lemma3_bound`` of a single-copy greedy PVM."""
    states = list(sigma_set)
    total = overlap_power_sum(pairwise_qcb(states), 1)
    return lemma3_bound(total, diagnostics.lambda_min_gram, len(states))


def pgm(sigma_set: Sequence[DensityMatrix], priors: Sequence[float]) -> Detector:
    """Square-root ("pretty good") measurement for prior-weighted hypotheses.

    Element i is A^(-1/2) p_i rho_i A^(-1/2) with A = sum_i p_i rho_i, built
    as its frame: with rho_i = V_i diag(lambda_i) V_i^H from the cached
    ``spectrum()``, outcome i owns the columns
    A^(-1/2) sqrt(p_i) V_i diag(sqrt(lambda_i)) of its ``positive_indices()``
    only, and a state with prior 0 owns none. A is taken as B B^H, B the
    stack of those unrotated columns, so it holds exactly what the frame
    holds. The inverse square root is taken on the support of A only, and
    the kernel of A is labelled 0: the off-support deficit goes to the first
    element, so the tuple is a POVM on the full space. Priors a rounding
    below 0 count as 0.
    """
    states = check_family(sigma_set, least=1)
    weights = np.asarray(priors, dtype=float)
    if weights.ndim != 1:
        raise ValueError(f"priors must be one flat list, got shape {weights.shape}")
    if len(states) != len(weights):
        raise ValueError("one prior per state required")
    check_distribution(weights, "priors")
    weights = np.maximum(weights, 0.0)
    blocks = []
    for p, rho in zip(weights, states):
        dec = rho.spectrum()
        support = dec.positive_indices() if p > 0.0 else []
        blocks.append(dec.vectors[:, support] * np.sqrt(p * dec.eigenvalues[support]))
    columns = np.hstack(blocks)
    # an eigenvalue below its state's zero threshold is dropped from A too:
    # left in A, it could keep a direction there that the frame misses
    values, vectors = np.linalg.eigh(columns @ columns.conj().T)
    keep = values > eigenvalue_zero_threshold(values)
    kept = vectors[:, keep]
    inv_sqrt = (kept * values[keep] ** -0.5) @ kept.conj().T
    kernel = vectors[:, ~keep]
    widths = [b.shape[1] for b in blocks] + [kernel.shape[1]]
    frame = np.hstack([inv_sqrt @ columns, kernel])
    # A^(-1/2) is rounded relative to the largest eigenvalue of A, so T T^H
    # misses I by up to cond(A) times that; one Newton-Schulz step takes T
    # back to a co-isometry to rounding
    frame += 0.5 * ((np.eye(len(frame)) - frame @ frame.conj().T) @ frame)
    labels = np.repeat([*range(len(states)), 0], widths)
    return Detector(kind="POVM", frame=frame, labels=labels, outcomes=len(states))


def common_eigenbasis(sigma_set: Sequence[DensityMatrix]) -> np.ndarray:
    """Unitary whose columns simultaneously diagonalize a commuting family.

    Diagonalizes the first state, then refines each degenerate block with the
    next states in turn. Raises ValueError when the family is empty, its
    states differ in dimension (``check_family``), or they do not commute.
    """
    return _common_diagonals(check_family(sigma_set, least=1))[0]


def _common_diagonals(states):
    """``common_eigenbasis`` of a commuting family, the r x d real diagonals
    of its states in that basis, that basis as the identity's column order
    ``columns`` where every state is exactly diagonal and every block sorts,
    else None, and the largest commutator entry of any pair, 0 where no
    product was taken.

    Each pair's commutator is C - C^H with C = rho_i rho_j, one product,
    except for a pair of exactly diagonal states, which commute. Each state
    then refines the blocks of the basis in turn. A block whose state is
    exactly diagonal there is sorted, not eigensolved (``_ascending_order``),
    and only runs of tied values in a block are refined by the next states
    (``_tied_runs``); both rules scan Python floats. While the basis is a
    permutation of the identity's columns, a state's block is read off by
    indexing: an exactly diagonal state's off its diagonal row, with no
    check, since each entry of its rotation has at most one nonzero term;
    the diagonals likewise, off the rows of the exactly diagonal states and
    off the one rotation of each other state that checks it is diagonal
    there. So an exactly diagonal family whose blocks all sort takes no
    d x d product, commutator or check. Callers run ``check_family``.
    """
    dim = states[0].dim
    rows = [rho.mat.diagonal().real if is_exactly_diagonal(rho.mat) else None for rho in states]
    commutator = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if rows[i] is not None and rows[j] is not None:
                continue
            product = states[i].mat @ states[j].mat
            entry = float(np.abs(product - product.conj().T).max())
            if entry > COMMUTATOR_ATOL:
                raise ValueError(f"states {i} and {j} do not commute")
            commutator = max(commutator, entry)
    basis = np.eye(dim, dtype=complex)
    # while every block has been sorted, basis is the identity's columns
    # ``columns``, and a state rotates into it by indexing
    columns = np.arange(dim)
    blocks = [list(range(dim))]
    for rho, row in zip(states, rows):
        refined: list[list[int]] = []
        for block in blocks:
            if columns is not None and row is not None:
                sub = None
                entries = row[columns[block]].tolist()
                order = _ascending_order(entries)
            else:
                if columns is None:
                    sub = basis[:, block].conj().T @ rho.mat @ basis[:, block]
                else:  # the products' entries, up to the sign of a zero
                    sub = rho.mat[np.ix_(columns[block], columns[block])]
                entries = sub.diagonal().real.tolist()
                order = _ascending_order(entries) if is_exactly_diagonal(sub) else None
            if order is not None:
                values = [entries[k] for k in order]
                moved = [block[k] for k in order]
                basis[:, block] = basis[:, moved]
                if columns is not None:
                    columns[block] = columns[moved]
            else:
                if sub is None:
                    sub = rho.mat[np.ix_(columns[block], columns[block])]
                columns = None
                values, rotation = np.linalg.eigh((sub + sub.conj().T) / 2.0)
                values = values.tolist()
                basis[:, block] = basis[:, block] @ rotation
            refined.extend(_tied_runs(block, values))
        blocks = refined
    diagonals = np.empty((len(states), dim))
    for k, (rho, row) in enumerate(zip(states, rows)):
        if columns is not None and row is not None:
            diagonals[k] = row[columns]
            continue
        if columns is None:
            rotated = basis.conj().T @ rho.mat @ basis
        else:  # the products' entries, up to the sign of a zero
            rotated = rho.mat[np.ix_(columns, columns)]
        diagonals[k] = rotated.diagonal().real
        np.fill_diagonal(rotated, 0.0)
        if float(np.abs(rotated).max()) > COMMON_BASIS_ATOL:
            raise NumericalConsistencyError(
                f"state {k} is not diagonal in the refined common basis"
            )
    if any(row is None for row in rows):
        columns = None
    return basis, diagonals, columns, commutator


def _tied_runs(block, values):
    """The runs of two or more positions of the list ``block`` whose
    ascending ``values`` (Python floats) tie within ``COMMUTATOR_ATOL``: the
    blocks the next state refines."""
    runs, start = [], 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > COMMUTATOR_ATOL:
            if k - start > 1:
                runs.append(block[start:k])
            start = k
    return runs


def _ascending_order(values):
    """The order ``eigh`` puts the diagonal ``values`` (Python floats) in,
    as a list of positions, or None. LAPACK sorts the values by a selection
    sort, which moves tied values past each other, so the order is taken
    only where a stable sort is sure to match it: values already in
    ascending order, or distinct ones."""
    if all(a <= b for a, b in zip(values, values[1:])):
        return list(range(len(values)))
    order = sorted(range(len(values)), key=values.__getitem__)
    if all(values[a] < values[b] for a, b in zip(order, order[1:])):
        return order
    return None


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
    ((M - rho_i) T_i) T_i^H = (M - rho_i) E_i. Each condition is decided one
    way: max |M - M^H| against tol, the smallest ``eigvalsh`` eigenvalue of
    M - rho_i against -tol, with M symmetrized, and the 2-norm of the
    residual against tol.
    """
    states = _check_detector_family(sigma_set, det)
    factors = [det.frame[:, det.labels == i] for i in range(det.outcomes)]
    m_raw = sum((rho.mat @ t) @ t.conj().T for rho, t in zip(states, factors))
    m_sym = (m_raw + m_raw.conj().T) / 2.0
    gaps = [m_sym - rho.mat for rho in states]
    return BayesConditionReport(
        m_hermitian=float(np.abs(m_raw - m_raw.conj().T).max()) <= tol,
        dominates=tuple(float(np.linalg.eigvalsh(gap)[0]) >= -tol for gap in gaps),
        annihilates=tuple(
            float(np.linalg.norm(gap @ t @ t.conj().T, 2)) <= tol for gap, t in zip(gaps, factors)
        ),
    )


def bayes_commuting(
    sigma_set: Sequence[DensityMatrix],
) -> tuple[Detector, float, HermitianMatrix]:
    """Exact Bayes detector for a commuting family, with its success certificate.

    In the common eigenbasis the certificate operator is the slotwise maximum
    of the diagonal probabilities; every slot goes to the smallest maximizing
    hypothesis. Returns (detector, mu, M) where mu = tr[M] is r times the
    optimal averaged success probability. A family on the row path of
    ``_common_diagonals`` places M as the diagonal of the slot maxima by its
    permutation, with no d x d product, and needs no check: there M - rho_i
    is the diagonal of the gaps probs[winner] - p_i, each the rounded
    difference of a float and one no larger, so >= 0, and E_i keeps only
    the slots that i wins, whose gaps are exactly 0. Any other family
    rotates M out of its basis, where rounding off the diagonal can break a
    condition, and checks it by ``verify_bayes_conditions``.
    """
    states = check_family(sigma_set)
    basis, probs, columns, _ = _common_diagonals(states)
    winners = np.argmax(probs, axis=0)
    slot_max = probs.max(axis=0)
    mu = float(slot_max.sum())
    # the Detector's frame check is the one check that the basis is unitary
    det = Detector(kind="PVM", frame=basis, labels=winners, outcomes=len(states))
    if columns is not None:  # the same entries: each is the one nonzero term of its sum
        placed = np.zeros(len(slot_max))
        placed[columns] = slot_max
        return det, mu, HermitianMatrix(np.diag(placed))
    if not verify_bayes_conditions(states, det, tol=POVM_ATOL).passed:
        raise NumericalConsistencyError(
            "commuting Bayes candidate fails its optimality certificate"
        )
    return det, mu, HermitianMatrix((basis * slot_max) @ basis.conj().T)


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
    V in pick order over one private row per pick. Element i is T_i T_i^H,
    where T_i holds the top d rows of the orthonormalized embedding's columns
    labelled i, in closed form (``_epsilon_frame``): the upper block of the
    embedded PVM, which is itself never built. This is the paper's POVM: the
    other rd - m embedded rows are zero in X, so they are zero in its
    orthonormalized picks X R^-1 too, and the completion's top block
    projects onto the complement of the picks' top block, I - T_p T_p^H, in
    either space. The result is a POVM that is generally not projective,
    and its frame check is the one check on it. A bad epsilon raises before
    any eigensolve.
    """
    embedding_guard(epsilon)
    states, selection, vectors = _greedy_pops(sigma_set)
    owners = np.array([state for state, _ in selection])
    frame, labels, floor = pick_frame("epsilon", owners, vectors, epsilon)
    det = Detector(kind="POVM", frame=frame, labels=labels, outcomes=len(states))
    return det, GsDiagnostics(selection, floor)
