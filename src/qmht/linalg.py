"""Dense complex Hermitian linear algebra for finite-dimensional hypothesis states.

Everything here is a pure function over immutable values; instances are safe
to share across workers. ``spectral_decompose`` holds the one rule for
exactly diagonal matrices, the paper's classical case of probability
measures: it reads their spectrum off the diagonal, with no eigensolve, in
the order and bits that ``eigh`` gives. Each state keeps one spectrum,
``DensityMatrix.spectrum``: the object ``spectral_decompose`` returns,
copied only to clamp a value whose sign bit is set, and every consumer
takes it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
EIGENVALUE_ZERO_RTOL = 1e-12
# The one "sums to 1" tolerance: of a state's trace, priors, probability rows.
DENSITY_TRACE_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
PHASE_PIVOT_ATOL = 1e-12
SPAN_RESIDUAL_TOL = 1e-9
# d times this bounds the rounding of d terms of at most 1: of a rank-1
# spectrum's tail relative to its top (``is_rank_one``), and of a commuting
# family's commutator entries (``tensorlab.run_power_experiment``).
RANK_ONE_TAIL_RTOL = float(np.finfo(float).eps)
# Rows per diagonal block of ``solve_lower``'s forward substitution.
SOLVE_BLOCK = 64
DEFAULT_DENSE_LIMIT = 16384
DENSE_LIMIT_ENV = "QMHT_DENSE_LIMIT"


def dense_limit() -> int:
    """Largest dense dimension d**n the tensor-power machinery will touch."""
    raw = os.environ.get(DENSE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DENSE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{DENSE_LIMIT_ENV} must be positive, got {value}")
    return value


class HermitianMatrix:
    """A square complex matrix equal to its conjugate transpose.

    Construction symmetrizes the input; inputs with a NaN or infinite entry,
    or whose asymmetry exceeds 1e-12 (relative to the largest entry), are
    rejected.
    """

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        arr = np.asarray(mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a nonempty square matrix, got shape {arr.shape}")
        # the largest magnitude is NaN or inf iff some entry is
        top = float(np.abs(arr).max())
        if not math.isfinite(top):
            raise ValueError("matrix has a non-finite entry")
        scale = max(1.0, top)
        # on the halves H = A/2 nothing overflows; in range H + H^H is (A + A^H)/2
        half = arr / 2.0
        asym = 2.0 * float(np.abs(half - half.conj().T).max())
        if asym > HERMITICITY_ATOL * scale:
            raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
        out = half + half.conj().T
        out.setflags(write=False)
        self.mat = out

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


class DensityMatrix:
    """Unit-trace positive semidefinite Hermitian matrix: one hypothesis state.

    Positivity is proved by one Cholesky factorization of
    rho - DENSITY_EIG_FLOOR * I. Only a matrix that fails it pays for an
    eigensolve: it names the eigenvalue below the floor in the error, or
    accepts a matrix whose smallest eigenvalue is at the floor, where
    rounding can fail the factorization.
    """

    __slots__ = ("base", "_spectrum")

    def __init__(self, mat) -> None:
        base = HermitianMatrix(mat)
        trace = float(np.trace(base.mat).real)
        if abs(trace - 1.0) > DENSITY_TRACE_ATOL:
            raise ValueError(f"trace must equal 1 within {DENSITY_TRACE_ATOL}, got {trace!r}")
        try:
            np.linalg.cholesky(base.mat - DENSITY_EIG_FLOOR * np.eye(base.dim))
        except np.linalg.LinAlgError:
            low = float(np.linalg.eigvalsh(base.mat)[0])
            if low < DENSITY_EIG_FLOOR:
                raise ValueError(f"matrix has negative eigenvalue {low:.3e}") from None
        self.base = base
        self._spectrum = None

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def dim(self) -> int:
        return self.base.dim

    def spectrum(self) -> "SpectralDecomposition":
        """The cached ``spectral_decompose`` object; only if a value has its
        sign bit set, a copy with those values clamped to +0.0."""
        if self._spectrum is None:
            dec = spectral_decompose(self.base)
            if np.signbit(dec.eigenvalues).any():
                vals = np.maximum(dec.eigenvalues, 0.0)
                vals.setflags(write=False)
                dec = SpectralDecomposition(vals, dec.vectors)
            self._spectrum = dec
        return self._spectrum

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matching orthonormal eigenvector columns.

    Zero eigenvalues are kept with their multiplicity, so ``vectors`` is always
    a full unitary basis of the source space.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T

    def positive_indices(self) -> np.ndarray:
        """Indices of eigenvalues strictly above the relative zero threshold."""
        return np.flatnonzero(self.eigenvalues > eigenvalue_zero_threshold(self.eigenvalues))


def check_family(states, least: int = 2) -> list:
    """The ``states`` as a list, after the input rule of every family, raised
    as ValueError: at least ``least`` (2 or 1) states, all of one dimension."""
    family = list(states)
    if len(family) < least:
        need = "need at least two hypotheses" if least == 2 else "need at least one state"
        raise ValueError(need)
    if any(rho.dim != family[0].dim for rho in family):
        raise ValueError("states must share one dimension")
    return family


def eigenvalue_zero_threshold(eigenvalues: np.ndarray) -> float:
    """An eigenvalue at or below this counts as zero (1e-12 times the largest magnitude)."""
    arr = np.asarray(eigenvalues, dtype=float)
    top = float(np.abs(arr).max()) if arr.size else 0.0
    return EIGENVALUE_ZERO_RTOL * top


def is_rank_one(eigenvalues: np.ndarray) -> bool:
    """Whether a descending spectrum of d eigenvalues is rank 1 up to
    ``eigh``'s rounding: those below the largest sum to at most
    d ``RANK_ONE_TAIL_RTOL`` times the largest."""
    tail = float(eigenvalues[1:].sum())
    return tail <= RANK_ONE_TAIL_RTOL * len(eigenvalues) * float(eigenvalues[0])


def is_exactly_diagonal(mat: np.ndarray) -> bool:
    """Whether every nonzero entry of the square ``mat`` is on its diagonal."""
    return np.count_nonzero(mat) == np.count_nonzero(mat.diagonal())


def _normalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate every column so its first component above ``PHASE_PIVOT_ATOL``
    in magnitude is real and positive. Every column has one: a unit column
    of d entries has an entry of magnitude at least 1/sqrt(d)."""
    above = np.abs(vectors) > PHASE_PIVOT_ATOL
    pivots = vectors[above.argmax(axis=0), np.arange(vectors.shape[1])]
    # hypot, not np.abs: it rounds as the scalar abs() of one pivot does.
    # Fortran order is the layout a reordering by run gives, so that every
    # spectrum's vectors enter later products in one layout
    return np.multiply(vectors, pivots.conj() / np.hypot(pivots.real, pivots.imag), order="F")


def _tie_break_order(runs: list[tuple[int, int]], vectors: np.ndarray) -> np.ndarray:
    """Reorder the equal-eigenvalue ``runs`` (``_near_tie_runs``) by
    ascending lexicographic key of the vectors, (re, im) of the first
    component, then of the second, and so on.

    A run whose first real keys are all distinct is ordered by those alone;
    others, such as kernel vectors with exact-zero leading components, take
    the full ``lexsort``. For the unit vectors of an exactly diagonal matrix
    this key descends with the basis index, which is how
    ``spectral_decompose`` orders their runs without eigenvectors or keys."""
    order = np.arange(vectors.shape[1])
    for start, stop in runs:
        run = vectors[:, start:stop]
        lead = run[0].real
        local = np.argsort(lead, kind="stable")
        if not (np.diff(lead[local]) > 0.0).all():
            keys = np.empty((2 * run.shape[0], run.shape[1]))
            keys[0::2], keys[1::2] = run.real, run.imag
            # np.lexsort sorts by its last key first, and stably
            local = np.lexsort(keys[::-1])
        order[start:stop] = start + local
    return order


def _near_tie_runs(scan: list[float]) -> list[tuple[int, int]]:
    """The runs scan[start:stop] of two or more descending eigenvalues, each
    value within EIGENVALUE_ZERO_RTOL max(1, largest magnitude) of its run's
    first: the runs ``spectral_decompose`` orders by eigenvector. Python
    floats compare as numpy's IEEE values do."""
    tol = EIGENVALUE_ZERO_RTOL * max(1.0, max(map(abs, scan)))
    runs, start = [], 0
    while start < len(scan):
        stop = start + 1
        while stop < len(scan) and scan[start] - scan[stop] <= tol:
            stop += 1
        if stop - start > 1:
            runs.append((start, stop))
        start = stop
    return runs


def spectral_decompose(h: HermitianMatrix) -> SpectralDecomposition:
    """Eigendecomposition in descending eigenvalue order with deterministic conventions.

    Every eigenvector gets the positive-first-component phase; runs of equal
    eigenvalues are ordered by the ascending lexicographic key of the
    phase-normalized vectors, making repeated runs reproducible.

    An exactly diagonal matrix takes no eigensolve: its eigenvalues are its
    real diagonal, sorted descending, and its vectors the identity's
    columns. The key of a unit vector descends with its basis index, so each
    run holds its entries by descending index. These are the bits ``eigh``
    gives such a matrix, ties, near ties, zeros and negative entries
    included.
    """
    if is_exactly_diagonal(h.mat):
        entries = h.mat.diagonal().real
        order = np.argsort(-entries, kind="stable")
        for start, stop in _near_tie_runs(entries[order].tolist()):
            order[start:stop] = np.sort(order[start:stop])[::-1]
        values = entries[order]
        vectors = np.eye(h.dim, dtype=complex)[:, order]
    else:
        values, vectors = np.linalg.eigh(h.mat)
        values = values[::-1].copy()
        vectors = _normalize_phases(vectors[:, ::-1])
        runs = _near_tie_runs(values.tolist())
        if runs:
            order = _tie_break_order(runs, vectors)
            values = values[order]
            vectors = vectors[:, order]
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(values, vectors)


def gram_floor(columns: np.ndarray) -> float:
    """Smallest eigenvalue of the Gram matrix of the m columns of a D x m
    array, as sigma_min(R)^2 with R from a Householder QR: exactly 0 when
    m > D, never negative, and meaningful far below the ~1e-16 rounding noise
    of an eigensolve of the Gram matrix."""
    rows, count = columns.shape
    if count > rows:
        return 0.0
    return factor_floor(np.linalg.qr(columns, mode="r"))


def factor_floor(factor: np.ndarray) -> float:
    """sigma_min(R)^2 of the m x m triangular factor R of a QR of m columns:
    the smallest eigenvalue of their Gram matrix R^H R."""
    sigma_min = float(np.linalg.svd(factor, compute_uv=False)[-1])
    return sigma_min * sigma_min


def solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lower^-1 rhs for a lower-triangular ``lower``, by forward substitution
    in blocks of ``SOLVE_BLOCK`` rows: one small ``solve`` per diagonal block
    and one product per update. numpy has no triangular solve, and
    ``np.linalg.solve`` factors the whole matrix by LU first, which doubles
    the cost at 660 rows."""
    out = np.array(rhs, dtype=complex)
    for start in range(0, len(lower), SOLVE_BLOCK):
        stop = start + SOLVE_BLOCK
        out[start:stop] = np.linalg.solve(lower[start:stop, start:stop], out[start:stop])
        out[stop:] -= lower[stop:, start:stop] @ out[start:stop]
    return out


def greedy_span(vectors: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Greedy column selection by a windowed span test, and the complete QR
    of the picks.

    Column k of the D x K ``vectors`` is picked unless its distance to the
    span of the earlier picks is at most ``SPAN_RESIDUAL_TOL``; once the picks
    span C^D the remaining columns are not read. Columns are read in windows
    of as many as the picks still lack: each window is projected off the
    picks' orthonormal frame by two block Gram-Schmidt passes and factored by
    one Householder QR, whose |R_kk| is that distance for every column up to
    the first rejection. After a rejection at window column b, the residuals
    of the later columns against the grown span are Q[:, b:] R[b:, b + 1:];
    they are factored next, through one QR of the small R block (a QR column
    deletion), without reading them again. Returns the picked column indices
    and one complete QR of the m picks in pick order: Q, D x D, and R, m x m.
    A first window with no rejection is itself that QR.
    """
    dim, count = vectors.shape
    width = min(dim, count)
    basis, factor = np.linalg.qr(vectors[:, :width], mode="complete")
    accepted = np.abs(factor.diagonal()) > SPAN_RESIDUAL_TOL
    if accepted.all():
        return list(range(width)), basis, factor[:width]
    frame = np.empty((dim, dim), dtype=complex)
    picked: list[int] = []
    window, q, r = range(width), basis[:, :width], factor[:width]
    while True:
        b = int(np.argmin(accepted)) if not accepted.all() else len(window)
        frame[:, len(picked) : len(picked) + b] = q[:, :b]
        picked.extend(window[:b])
        if len(picked) == dim:
            break
        if b + 1 < len(window):
            window, (small_q, r) = window[b + 1 :], np.linalg.qr(r[b:, b + 1 :])
            q = q[:, b:] @ small_q
        else:
            start = window[-1] + 1
            if start == count:
                break
            window = range(start, min(count, start + dim - len(picked)))
            kept = frame[:, : len(picked)]
            residual = vectors[:, window]
            for _ in range(2):
                # conj(K^T conj(W)) is K^H W without copying the frame
                residual = residual - kept @ (kept.T @ residual.conj()).conj()
            q, r = np.linalg.qr(residual)
        accepted = np.abs(r.diagonal()) > SPAN_RESIDUAL_TOL
    basis, factor = np.linalg.qr(vectors[:, picked], mode="complete")
    return picked, basis, factor[: len(picked)]
