"""Schur-Weyl block route for qubit tensor powers.

For qubits, (C^2)^(x n) splits into spin blocks V_j (x) C^(m_j) with
N = 2j = n - 2h for h = 0..floor(n/2), m_j = C(n, h) - C(n, h - 1), and a
state rho = U diag(l0, l1) U^H acts there as pi_j(rho) (x) 1_(m_j) with

    pi_j(rho) = Sym^N(U) diag(l0^(h+N-q) l1^(h+q)) Sym^N(U)^H,  q = 0..N

(Bacon, Chuang and Harrow, quant-ph/0407082). The product eigenvectors of
state s with k ones span the line Sym^N(U_s) e_(k-h) (x) C^(m_j) in every
block with 0 <= k - h <= N, so the greedy detector runs on one line per
(type class, block), the greedy PVM is a sum of per-block projectors times
1_(m_j), and each detector error is a sum of positive per-block masses
weighted by m_j. Blocks have at most n + 1 rows.
"""

from __future__ import annotations

import math

import numpy as np

from .detectors import _greedy_orthonormal_selection, greedy_order
from .linalg import gram_floor


def symmetric_powers(u: np.ndarray, top: int) -> list[np.ndarray]:
    """Sym^N(U) for N = 0..top: U^(x N) on the symmetric subspace, in the Dicke
    basis D_0..D_N (D_q has q ones).

    Built by the recursion on N that splits off the first tensor factor,
    |D_q^N> = sqrt((N-q)/N) |0>|D_q^(N-1)> + sqrt(q/N) |1>|D_(q-1)^(N-1)>; every
    term has modulus at most 1, so no step cancels large terms.
    """
    out = [np.ones((1, 1), dtype=complex)]
    for m in range(1, top + 1):
        index = np.arange(m + 1)
        zeros, ones = m - index, index  # of D_q with its first factor |0>, |1>
        padded = np.zeros((m + 2, m + 2), dtype=complex)
        padded[1 : m + 1, 1 : m + 1] = out[-1]
        same = padded[1:, 1:]  # Sym^(m-1)(U)[p, q]
        row_down = padded[:-1, 1:]  # [p - 1, q]
        col_down = padded[1:, :-1]  # [p, q - 1]
        both_down = padded[:-1, :-1]  # [p - 1, q - 1]
        # integer products under each square root, one division by m: for a
        # diagonal U the result stays exactly diagonal with exact entries
        out.append(
            (
                np.sqrt(np.outer(zeros, zeros)) * u[0, 0] * same
                + np.sqrt(np.outer(ones, zeros)) * u[1, 0] * row_down
                + np.sqrt(np.outer(zeros, ones)) * u[0, 1] * col_down
                + np.sqrt(np.outer(ones, ones)) * u[1, 1] * both_down
            )
            / m
        )
    return out


def spin_blocks(n: int) -> list[tuple[int, int, int]]:
    """(h, N, m_j) for every spin block of n qubits, largest block first."""
    return [
        (h, n - 2 * h, math.comb(n, h) - (math.comb(n, h - 1) if h else 0))
        for h in range(n // 2 + 1)
    ]


def _blocks(phs):
    """Per spin block: (h, N, m_j, [(Sym^N(U_s), eigenvalues of pi_j(rho_s)) per s]).

    Column q of Sym^N(U_s) is the eigenvector of pi_j(rho_s) with eigenvalue
    l0^(h+N-q) l1^(h+q).
    """
    states = [
        (symmetric_powers(dec.vectors, phs.n), *(float(v) for v in dec.eigenvalues))
        for dec in phs.spectra
    ]
    for h, big_n, mult in spin_blocks(phs.n):
        q = np.arange(big_n + 1)
        operators = [
            (syms[big_n], l0 ** (h + big_n - q) * l1 ** (h + q)) for syms, l0, l1 in states
        ]
        yield h, big_n, mult, operators


def _masses(basis: np.ndarray, sym: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """<b_c|pi_j(rho)|b_c> for every column b_c of ``basis``."""
    return (np.abs(basis.conj().T @ sym) ** 2) @ weights


def _class_stream(phs, state: int):
    """(value, k) of the type classes of one state above the zero cut, descending."""
    l0, l1 = (float(v) for v in phs.spectra[state].eigenvalues)
    for k in range(phs.n + 1):
        value = l0 ** (phs.n - k) * l1**k
        if value <= phs.zero_threshold:
            return
        yield value, k


def qubit_gs(phs) -> tuple[float, float]:
    """Greedy Gram-Schmidt error on the n-fold qubit powers, and lambda_min_gram.

    Type classes are popped in ``greedy_order``; in each block the lines of
    the popped classes run through the dense selection (two Gram-Schmidt
    passes, ``SPAN_RESIDUAL_TOL``), the Householder complement goes to
    hypothesis 0, and the error is (1/r) sum_j m_j [tr pi_j(rho_0) P_j^(!=0)
    + sum_(i>=1) tr pi_j(rho_i)(1 - P_j^(i))]. ``lambda_min_gram`` is the
    smallest sigma_min(R_j)^2 over the blocks, with R_j from a Householder QR
    of block j's picked lines.
    """
    pops = list(greedy_order([_class_stream(phs, s) for s in range(phs.r)]))
    err = 0.0
    lam_min = math.inf
    for h, big_n, mult, operators in _blocks(phs):
        syms = [sym for sym, _ in operators]
        block_pops = [(s, k - h) for s, _, k in pops if 0 <= k - h <= big_n]
        candidates = (((s, q), syms[s][:, q]) for s, q in block_pops)
        selection, frame = _greedy_orthonormal_selection(candidates, big_n + 1, len(block_pops))
        basis, _ = np.linalg.qr(frame.T, mode="complete")
        labels = np.array([s for s, _ in selection] + [0] * (big_n + 1 - len(selection)))
        for i, (sym, weights) in enumerate(operators):
            err += mult * float(_masses(basis, sym, weights)[labels != i].sum())
        if selection:
            lines = np.column_stack([syms[s][:, q] for s, q in selection])
            lam_min = min(lam_min, gram_floor(lines))
    return err / phs.r, lam_min


def qubit_helstrom(phs) -> float:
    """Helstrom error on the n-fold powers of a qubit pair.

    err = (1/2) sum_j m_j [tr pi_j(rho_0) P_j^+ + tr pi_j(rho_1)(1 - P_j^+)],
    with P_j^+ the eigenspace of pi_j(rho_1) - pi_j(rho_0) with eigenvalues
    > 0, the cut of the dense ``holevo_helstrom``. No relative cut: a block
    eigenvalue far below the largest can carry a large multiplicity m_j, and
    an eigenvalue at rounding level costs at most its own size on either side.
    """
    err = 0.0
    for _, _, mult, operators in _blocks(phs):
        (sym_0, w_0), (sym_1, w_1) = operators
        difference = (sym_1 * w_1) @ sym_1.conj().T - (sym_0 * w_0) @ sym_0.conj().T
        values, vectors = np.linalg.eigh((difference + difference.conj().T) / 2.0)
        plus = values > 0.0
        err += mult * float(
            _masses(vectors, sym_0, w_0)[plus].sum()
            + _masses(vectors, sym_1, w_1)[~plus].sum()
        )
    return 0.5 * err
