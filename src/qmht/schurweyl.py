"""Schur-Weyl block route for tensor powers of every dimension.

(C^d)^(x n) splits into blocks V_lam (x) C^(f_lam) over the partitions lam of
n with at most d rows, f_lam exact (``multiplicity``), and a state
rho = U diag(p) U^H acts there as pi_lam(rho) (x) 1_(f_lam) with

    pi_lam(rho) = pi_lam(U) diag(prod_j p[j]^(w_j)) pi_lam(U)^H

(Bacon, Chuang and Harrow, quant-ph/0407082). V_lam carries the
Gelfand-Tsetlin basis, whose patterns are weight vectors with weights w, and
the generators E_ab of gl_d act on it by Molev's closed-form matrix elements
(math/0211289). lam = lambar + lam_d (1, ..., 1) has the patterns and
generators of its reduced shape lambar, so pi_lam(U) = det(U)^(lam_d)
pi_lambar(U); that phase changes neither pi_lam(rho) nor the span of any
column, so every block reads its reduced shape's unitaries. ``_sweep_blocks``
walks the reduced shapes by size N and builds each one's once: Sym^N(U) for
qubits (``symmetric_powers``), and for d >= 3, with U = exp(iH), one stacked
``eigh`` of i sum_ab H_ab E_ab (``block_unitary``). The product eigenvectors
of state s in type class k (label counts) span the weight-k columns of
pi_lam(U_s) (x) C^(f_lam) in every block; ``cut_spectrum`` and
``class_pick_cut``, the cut rule of every route, decide which classes are
picked, and gs and epsilon pop them through ``detectors.pop_order``, the one
pick-order engine, from one array of every state's class values per n
(``_class_pops``). ``block_scores`` scores a whole sweep of n from one
``base_spectra`` per call, and every kind as a labelled frame per block, each
n's terms summed in ``partitions`` order whatever order its blocks came in:
the dense detectors' own frames, ``detectors.pick_frame`` for gs and epsilon
on the matrix of those columns and ``detectors._helstrom_frame`` for
helstrom. Each error is (1/r) sum_lam f_lam times the block's
``frame_misses``, every state's mass on the frame columns of the other
labels. ``frame_misses`` takes any states given as weighted columns, and
``tensorlab``'s pure route calls it and ``pick_frame`` on r-column factors.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from .detectors import _helstrom_frame, pick_frame, pop_order
from .errors import DimensionLimitError
from .linalg import EIGENVALUE_ZERO_RTOL, eigenvalue_zero_threshold, gram_floor


@functools.cache
def type_classes(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Label counts k of every type class of n draws from d labels, one class
    per row, and the class sizes n!/prod_j k_j! (exact integers, as floats;
    DimensionLimitError past the float range), in the order of
    ``itertools.combinations_with_replacement(range(d), n)``."""
    counts, sizes = _exact_classes(d, n)
    sizes = np.array([_float(size, n) for size in sizes])
    # cached and shared by every caller, so read-only
    counts.setflags(write=False)
    sizes.setflags(write=False)
    return counts, sizes


def _exact_classes(d: int, n: int) -> tuple[np.ndarray, list[int]]:
    """``type_classes`` with the sizes as exact ints: k_0 from n down, each
    followed by the classes of the other d - 1 labels, of size
    C(n, k_0) times theirs."""
    if d == 1:
        return np.array([[n]]), [1]
    if d == 2:
        first = np.arange(n, -1, -1)
        return np.column_stack([first, n - first]), [math.comb(n, k) for k in first.tolist()]
    parts, sizes = [], []
    for first in range(n, -1, -1):
        rest, rest_sizes = _exact_classes(d - 1, n - first)
        parts.append(np.column_stack([np.full(len(rest), first), rest]))
        ways = math.comb(n, first)
        sizes += [ways * size for size in rest_sizes]
    return np.vstack(parts), sizes


def cut_spectrum(values: np.ndarray) -> np.ndarray:
    """Eigenvalues with every one at or below ``eigenvalue_zero_threshold`` set
    to exactly 0, so that a product of them (a type class) is > 0 iff no
    factor was cut."""
    return np.where(values > eigenvalue_zero_threshold(values), values, 0.0)


def class_pick_cut(cut: np.ndarray, ns, kind: str) -> np.ndarray:
    """A row of this kind at copy number n of ``ns`` picks a type class iff its
    value on the cut spectra ``cut`` is above n's floor: 0, except for epsilon,
    which picks every kept vector and so keeps the dense detectors' cut on the
    explicit powers, 1e-12 times the largest n-fold eigenvalue."""
    top = float(cut.max()) if kind == "epsilon" else 0.0
    return np.array([EIGENVALUE_ZERO_RTOL * top**n for n in ns])


@functools.cache
def partitions(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n into at most d parts, padded with zeros to length d,
    in descending lexicographic order."""
    if d == 1:
        return ((n,),)
    return tuple(
        (first,) + rest
        for first in range(n, -1, -1)
        for rest in partitions(n - first, d - 1)
        if rest[0] <= first
    )


@functools.cache
def multiplicity(lam: tuple[int, ...]) -> int:
    """f_lam, the dimension of the Specht module, by the determinant form
    n! prod_(i<j) (l_i - l_j) / prod_i l_i!, l_i = lam_i + d - 1 - i."""
    d = len(lam)
    shifted = [part + d - 1 - i for i, part in enumerate(lam)]
    spread = math.prod(a - b for a, b in itertools.combinations(shifted, 2))
    return math.factorial(sum(lam)) * spread // math.prod(map(math.factorial, shifted))


def _float(count: int, n: int) -> float:
    """An exact count at copy number n as a float; DimensionLimitError past its range."""
    try:
        return float(count)
    except OverflowError:
        raise DimensionLimitError(f"a multiplicity at n = {n} exceeds the float range") from None


def _gt_patterns(lam: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Every pattern with top row lam, as its rows from row d (lam) down to
    row 1, in ascending lexicographic order."""
    patterns = [(lam,)]
    for _ in range(len(lam) - 1):
        patterns = [
            pattern + (row,)
            for pattern in patterns
            for row in itertools.product(
                *(range(low, high + 1) for high, low in zip(pattern[-1], pattern[-1][1:]))
            )
        ]
    return patterns


def _raising_entry(pattern, k: int, i: int) -> float:
    """<pattern + delta_(k,i)| E_(k,k+1) |pattern>, for rows k = 1..d-1 and
    i = 0..k-1: Molev's formula with l_(k,i) = m_(k,i) - i."""
    d = len(pattern)
    above, row = pattern[d - k - 1], pattern[d - k]
    below = pattern[d - k + 1] if k > 1 else ()
    x = row[i] - i
    numerator = -math.prod(x - (m - j) for j, m in enumerate(above)) * math.prod(
        x + 1 - (m - j) for j, m in enumerate(below)
    )
    denominator = math.prod(
        (x - (m - j)) * (x + 1 - (m - j)) for j, m in enumerate(row) if j != i
    )
    return math.sqrt(numerator / denominator)


@functools.cache
def _reduced_weights(lam: tuple[int, ...]) -> np.ndarray:
    """The weights of the patterns of a reduced shape, one row each."""
    sums = np.array([[0] + [sum(row) for row in reversed(pattern)] for pattern in _gt_patterns(lam)])
    weights = np.diff(sums, axis=1)
    # cached and shared by every caller, so read-only
    weights.setflags(write=False)
    return weights


@functools.cache
def _column_classes(lam: tuple[int, ...]) -> np.ndarray:
    """The ``type_classes`` index of the weight of every column of V_lam
    (cached per lam): its reduced shape's weights plus lam_d."""
    low = lam[-1]
    counts, _ = type_classes(len(lam), sum(lam))
    index = {k: c for c, k in enumerate(map(tuple, counts.tolist()))}
    weights = _reduced_weights(tuple(part - low for part in lam)) + low
    classes = np.array([index[w] for w in map(tuple, weights.tolist())])
    # cached and shared by every caller, so read-only
    classes.setflags(write=False)
    return classes


@functools.cache
def _reduced_raising(lam: tuple[int, ...]) -> tuple[tuple[int, int, np.ndarray], ...]:
    """The real generators E_ab (a < b) of a reduced shape, built from its
    patterns: E_ab raises a pattern, which comes later in the lexicographic
    order, so it is strictly lower triangular."""
    d = len(lam)
    patterns = _gt_patterns(lam)
    index = {pattern: c for c, pattern in enumerate(patterns)}
    adjacent = []
    for k in range(1, d):
        generator = np.zeros((len(patterns), len(patterns)))
        for c, pattern in enumerate(patterns):
            for i in range(k):
                row = list(pattern[d - k])
                row[i] += 1
                raised = index.get(pattern[: d - k] + (tuple(row),) + pattern[d - k + 1 :])
                if raised is not None:
                    generator[raised, c] = _raising_entry(pattern, k, i)
        adjacent.append(generator)
    raising = {(a, a + 1): generator for a, generator in enumerate(adjacent)}
    for gap in range(2, d):
        for a in range(d - gap):
            # E_ab = [E_a(b-1), E_(b-1)b]
            left, right = raising[(a, a + gap - 1)], raising[(a + gap - 1, a + gap)]
            raising[(a, a + gap)] = left @ right - right @ left
    # cached and shared by every caller, so read-only
    for generator in raising.values():
        generator.setflags(write=False)
    return tuple((a, b, generator) for (a, b), generator in raising.items())


def unitary_log(u: np.ndarray) -> np.ndarray:
    """H, Hermitian up to rounding, with exp(iH) = u and spectrum in (-pi, pi],
    for one unitary or a stack of them (one result per unitary).

    Each u is first turned by a phase e^(i turn) that puts the middle of the
    widest gap between its eigenvalues at -1; that gap is at least 2 pi / d,
    so 1 + w is invertible. The Cayley transform K = i (1 - w)(1 + w)^-1 of
    the turned w is then Hermitian, with eigenvalues tan(alpha / 2) on the
    eigenvectors where w has e^(i alpha), and ``eigh`` returns an orthonormal
    eigenbasis of it even where u has repeated eigenvalues. H is that basis
    with the angles 2 arctan(kappa) - turn, wrapped to (-pi, pi].
    """
    angles = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    # the next eigenvalue angle counterclockwise from each one
    upper = np.concatenate([angles[..., 1:], angles[..., :1] + 2.0 * np.pi], axis=-1)
    widest = np.argmax(upper - angles, axis=-1)[..., None]
    turn = np.pi - 0.5 * np.take_along_axis(angles + upper, widest, axis=-1)
    turned = u * np.exp(1j * turn)[..., None]
    eye = np.eye(u.shape[-1])
    kappa, vectors = np.linalg.eigh(1j * np.linalg.solve(eye + turned, eye - turned))
    theta = np.remainder(2.0 * np.arctan(kappa) - turn - np.pi, -2.0 * np.pi) + np.pi
    return (vectors * theta[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def block_unitary(lam: tuple[int, ...], h: np.ndarray) -> np.ndarray:
    """pi_lam(exp(iH)) = exp(i sum_ab H_ab E_ab), by one ``eigh``, for one H
    or a stack of them (one result per H).

    Only the lower triangle of the Hermitian generator is built, from the
    real diagonal of H and its entries H_ab with a < b: ``eigh`` reads no
    more.
    """
    reduced = tuple(part - lam[-1] for part in lam)
    weights = _reduced_weights(reduced) + lam[-1]
    diagonal = np.real(np.diagonal(h, axis1=-2, axis2=-1)) @ weights.T
    generator = diagonal[..., None] * np.eye(len(weights), dtype=complex)
    for a, b, raising in _reduced_raising(reduced):
        generator += h[..., a, b, None, None] * raising
    phases, vectors = np.linalg.eigh(generator)
    return (vectors * np.exp(1j * phases)[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def symmetric_powers(u: np.ndarray, top: int):
    """Sym^N(U) for N = 0..top in turn, for one 2 x 2 unitary or a stack of
    them (one result per unitary): U^(x N) on the symmetric subspace, in the
    Dicke basis D_0..D_N (D_q has q ones). Only Sym^(N-1) is held to build
    Sym^N, with four (top + 1) x (top + 1) tables of coefficients per
    unitary.

    Built by the recursion on N that splits off the first tensor factor,
    |D_q^N> = sqrt((N-q)/N) |0>|D_q^(N-1)> + sqrt(q/N) |1>|D_(q-1)^(N-1)>; every
    term has modulus at most 1, so no step cancels large terms.
    """
    stack = u.shape[:-2]
    # integer products under each square root, one division by N: for a
    # diagonal U the result stays exactly diagonal with exact entries.
    # scaled[a, b][..., i, j] is sqrt(i j) <a|U|b>
    roots = np.sqrt(np.multiply.outer(np.arange(top + 1), np.arange(top + 1)))
    scaled = {(a, b): roots * u[..., a, b, None, None] for a in range(2) for b in range(2)}
    power = np.ones(stack + (1, 1), dtype=complex)
    yield power
    for m in range(1, top + 1):
        # [p, q] of Sym^m takes [k, l] = [p - a, q - b] of Sym^(m-1) times
        # <a|U|b> for first labels a and b, and the square roots of the
        # counts of those labels in D_p and D_q: m - k for label 0, k + 1
        # for label 1
        index = (slice(m, 0, -1), slice(1, m + 1))
        nxt = np.zeros(stack + (m + 1, m + 1), dtype=complex)
        for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
            nxt[..., a : a + m, b : b + m] += scaled[a, b][..., index[a], index[b]] * power
        nxt /= m
        power = nxt
        yield power


class _Block:
    """One block V_lam (x) C^(f_lam) of the n-fold powers of a family.

    ``values[s]`` holds the eigenvalue of pi_lam(rho_s), from the base
    spectrum ``eigenvalues[s]`` and lam's weights, on every column of
    ``unitaries[s]`` = pi_lambar(U_s) of the reduced shape, which ``build``
    returns for all states at once.
    """

    def __init__(self, lam, eigenvalues, build) -> None:
        self.mult = _float(multiplicity(lam), sum(lam))
        self.classes = _column_classes(lam)
        self.weights = type_classes(len(lam), sum(lam))[0][self.classes]
        self.values = np.prod(eigenvalues[:, None, :] ** self.weights, axis=2)
        self._build = build

    @property
    def unitaries(self) -> np.ndarray:
        return self._build()

    def columns(self, owners, classes) -> tuple[np.ndarray, np.ndarray]:
        """The owner and column index arrays of this block's columns of the
        popped classes, in pop order: pop j, class ``classes[j]`` of
        ``type_classes`` popped by state ``owners[j]``, owns the columns of
        that weight."""
        pop, column = np.nonzero(self.classes == classes[:, None])
        return owners[pop], column


def base_spectra(states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base eigenvalues of a family, one row per state, the same rows
    after ``cut_spectrum``, and the stack of eigenbases: all that the blocks
    of every n take from the states."""
    spectra = [rho.spectrum() for rho in states]
    eigenvalues = np.array([dec.eigenvalues for dec in spectra])
    cut = np.array([cut_spectrum(row) for row in eigenvalues])
    return eigenvalues, cut, np.array([dec.vectors for dec in spectra])


def _reduced_unitaries(d: int, top: int, vectors: np.ndarray):
    """(lambar, build) for every reduced shape lambar of size N = 0..top in
    turn, build() returning pi_lambar(U_s) for every eigenbasis U_s of
    ``vectors``: for d = 2 Sym^N(XUX), X the label swap (GT order is the
    Dicke order reversed); for d >= 3 ``block_unitary`` on one stacked
    ``unitary_log``, made on first use."""
    if d == 2:
        for size, power in enumerate(symmetric_powers(vectors[:, ::-1, ::-1], top)):
            yield (size, 0), lambda power=power: power
        return
    logs = unitary_log(vectors)
    for size in range(top + 1):
        for head in partitions(size, d - 1):
            lam = head + (0,)
            yield lam, functools.cache(functools.partial(block_unitary, lam, logs))


def _sweep_blocks(ns, eigenvalues: np.ndarray, vectors: np.ndarray):
    """Every block of the n-fold powers for every n of the ascending ``ns``,
    as (i, lam, block), n = ns[i]: each lam = lambar + k (1, ..., 1) with
    n = |lambar| + d k, for each reduced shape lambar of
    ``_reduced_unitaries`` in turn, holding one reduced shape at a time."""
    d = eigenvalues.shape[1]
    # the f_lam and class sizes grow with n, so the largest n leaves the
    # float range first: raise before any unitary is built
    for lam in partitions(ns[-1], d):
        _float(multiplicity(lam), ns[-1])
    type_classes(d, ns[-1])
    for reduced, build in _reduced_unitaries(d, ns[-1], vectors):
        size = sum(reduced)
        for i in range(bisect.bisect_left(ns, size), len(ns)):
            low, rest = divmod(ns[i] - size, d)
            if not rest:
                lam = tuple(part + low for part in reduced)
                yield i, lam, _Block(lam, eigenvalues, build)


def _score_sweep(ns, eigenvalues: np.ndarray, vectors: np.ndarray, score) -> list[list]:
    """``score(i, block)`` of every block of every n = ns[i] of
    ``_sweep_blocks``, listed per n in ``partitions(n, d)`` order, whatever
    order the blocks came in."""
    d = eigenvalues.shape[1]
    scores = [{} for _ in ns]
    for i, lam, block in _sweep_blocks(ns, eigenvalues, vectors):
        scores[i][lam] = score(i, block)
    return [[by_shape[lam] for lam in partitions(n, d)] for n, by_shape in zip(ns, scores)]


def _class_pops(n: int, cut: np.ndarray, floors):
    """The popped type classes at copy number n for each pick floor of
    ``floors``, as the owner and ``type_classes`` index of every pop, in
    ``pop_order`` of one r x C array that all floors share: row s holds state
    s's values on the cut spectra ``cut``, sorted descending (ties in
    ``type_classes`` order), popped down to the floor."""
    counts, _ = type_classes(cut.shape[1], n)
    values = np.prod(cut[:, None, :] ** counts, axis=2)
    order = np.argsort(-values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    flats = [pop_order(ranked, floor) for floor in floors]
    return [(flat // len(counts), order.ravel()[flat]) for flat in flats]


def frame_misses(frame, labels, columns, values) -> float:
    """Summed misses of a labelled frame of C^D: every state's mass on the
    frame columns not labelled with its index. State s is
    sum_c values[s, c] |u_c><u_c| over the columns u_c of ``columns[s]``, and
    the masses come from one stacked product |F^H U_s|^2 values_s over all
    states."""
    masses = (np.abs(frame.conj().T @ columns) ** 2) @ values[:, :, None]
    own = labels == np.arange(len(values))[:, None]
    return float(np.where(own, 0.0, masses[:, :, 0]).sum())


def block_scores(states, ns, kinds, epsilons):
    """For every n of the ascending ``ns`` in turn, the detector error and
    lambda_min_gram (None for helstrom) on the n-fold powers of each gs,
    epsilon or helstrom row of ``kinds`` (epsilons ``epsilons[kind]``), from
    one ``base_spectra`` of the states, one block at a time
    (``_score_sweep``), each pi_lam(U) built once for all.

    Each block is scored as a labelled frame of V_lam: err is
    (1/r) sum_lam f_lam times the block's ``frame_misses`` (helstrom's 1/2 is
    1/r), summed per n in ``partitions`` order. helstrom's frame is the
    dense ``holevo_helstrom``'s, ``_helstrom_frame`` of
    pi(rho_1) - pi(rho_0), with no relative cut: a block eigenvalue far below
    the largest can carry a large multiplicity f_lam, and an eigenvalue at
    rounding level costs at most its own size on either side. gs and epsilon
    pop type classes by ``_class_pops`` (epsilon down to ``class_pick_cut``,
    the dense detectors' cut: it picks every kept vector, so its error jumps
    with the support), and each block's ``pick_frame`` is built on the
    columns of the popped classes, gathered by one index into
    ``unitaries``; lambda_min_gram is the smallest of the blocks' floors. A
    block with no popped class goes to hypothesis 0 whole, and builds no
    pi_lam(U).
    """
    eigenvalues, cut, vectors = base_spectra(states)
    picking = [kind for kind in kinds if kind != "helstrom"]
    floors = [class_pick_cut(cut, ns, kind) for kind in picking]
    pops = {}  # per index of n, each picking kind's owners and type_classes indices

    def score(i, block):
        if picking and i not in pops:
            popped = _class_pops(ns[i], cut, [floor[i] for floor in floors])
            pops[i] = dict(zip(picking, popped))
        terms = []
        for kind in kinds:
            floor = None
            if kind == "helstrom":
                u = block.unitaries
                operators = (u * block.values[:, None, :]) @ np.swapaxes(u.conj(), -1, -2)
                frame, labels = _helstrom_frame(operators[1] - operators[0])
            else:
                owners, columns = block.columns(*pops[i][kind])
                if not owners.size:
                    # every direction goes to hypothesis 0
                    terms.append((block.mult * sum(float(row.sum()) for row in block.values[1:]), None))
                    continue
                picks = block.unitaries[owners, :, columns].T
                frame, labels, floor = pick_frame(kind, owners, picks, epsilons[kind][i])
            terms.append((block.mult * frame_misses(frame, labels, block.unitaries, block.values), floor))
        return terms

    for blocks in _score_sweep(ns, eigenvalues, vectors, score):
        errs = [0.0] * len(kinds)
        lam_mins = [None if kind == "helstrom" else math.inf for kind in kinds]
        for terms in blocks:
            for k, (term, floor) in enumerate(terms):
                errs[k] += term
                if floor is not None:
                    lam_mins[k] = min(lam_mins[k], floor)
        yield [(err / len(eigenvalues), lam_min) for err, lam_min in zip(errs, lam_mins)]


def joint_gram_floors(ns, cut: np.ndarray, vectors: np.ndarray) -> list[float]:
    """Smallest eigenvalue of the Gram matrix at each copy number n of the
    ascending ``ns`` of every product eigenvector with a positive value on the
    cut spectra, over all states: the joint Gram is
    sum_lam G_lam (x) 1_(f_lam), with G_lam the Gram of the positive columns
    of every pi_lam(U_s), whose smallest eigenvalue is the ``gram_floor`` of
    those columns; the minimum over the blocks does not depend on their
    order."""

    def score(_, block):
        positive = block.values > 0.0
        columns = [block.unitaries[s][:, kept] for s, kept in enumerate(positive) if kept.any()]
        return gram_floor(np.hstack(columns)) if columns else math.inf

    return [min(floors) for floors in _score_sweep(ns, cut, vectors, score)]
