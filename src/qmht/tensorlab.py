"""n-copy experiments on tensor-power hypotheses.

Each base spectrum is cut once (``schurweyl.cut_spectrum``, for every
route): eigenvalues at or below ``eigenvalue_zero_threshold`` become exactly
0, and a type class (k_j copies of label j) is a gs pick candidate iff its
product of those is > 0. epsilon picks every candidate, so its error jumps
with the support; it keeps the dense detectors' cut on the explicit powers,
1e-12 times the largest n-fold eigenvalue (``class_pick_cut``). The cut only
decides the picks: every mass and Helstrom minimum uses the uncut values.

Pure families come first, for gs, epsilon and helstrom, before any
commuting verdict: every state whose eigenvalues below the largest sum to at
most d eps lambda_top (``linalg.is_rank_one``, eigh's rounding of an exactly
rank-1 matrix). ``_pure_scores`` counts state s as lambda_top^n times the
n-fold power of its top eigenvector, which drops at most n times its tail
mass from each row, scores gs and epsilon on an r-column factor of those
powers' Gram matrix by the blocks' own frame and scorer
(``detectors.pick_frame``, ``schurweyl.frame_misses``), and helstrom by its
two-state closed form. A pure family that commutes to rounding keeps this
route: a common basis drops coherences that carry half of Helstrom's error
on |0>, (1e-17, 1).

Commuting families come next. One ``_common_diagonals`` call per
``run_power_experiment`` decides every other route. Where it succeeds, state
a's diagonal in the common eigenbasis is a probability row p_a[j].
classical-ml, which measures in that basis, always reads those rows. gs,
epsilon and helstrom read them where the largest commutator entry the call
saw is at most d ``COMMUTATOR_ROUNDING`` (0 for an exactly diagonal family,
which forms no product): such a family commutes to rounding in any basis,
and its rows are exact. A larger commutator, up to ``COMMUTATOR_ATOL``,
means off-diagonal entries the rows drop, which can carry a small error, so
those kinds keep the blocks, as they do where the call raises. Each product
outcome of a type class has the likelihood P_a = prod_j p_a[j]^(k_j), so
every error is a sum over the C(n+d-1, d-1) classes weighted by their sizes
n!/prod_j k_j!. State i claims each class with a weight w_i: classical-ml
and helstrom give the class to its argmax label, and gs and epsilon to the
states whose cut P_a is above the pick cut, in ``pop_order``, the one
pick-order engine (``_pick_ranks``: a sort of every class column, and on an
n with near ties the blocks' per-n pass, ``schurweyl._class_pops``), the
c-th claimant with the weight |1^T R^-1 e_c|^2 of the class Gram matrix
delta^2 J + epsilon^2 I (gs is epsilon = 0). Every kind then scores its
summed misses by one rule. A sweep is scored in groups of consecutive n, up
to ``CLASS_GROUP_LIMIT`` (kind, class) terms each, every kind of a group in
one stacked kinds x r x classes pass; each kind's misses of each state at
each n are summed on their own, so a row does not depend on the sweep or the
other kinds it came with.

Every other family, of every d, runs gs, epsilon and helstrom per
Schur-Weyl block in the Gelfand-Tsetlin basis (``schurweyl.block_scores``:
a labelled frame per block, from one ``base_spectra`` per sweep). The d^n
cap (``check_dense_limit``) applies to every route and to
``gram_convergence_check``: a sweep past it raises before any row is scored.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .chernoff import MultipleChernoffResult, check_distinct, overlap_power_sum, pairwise_qcb
from .detectors import (
    EPSILON_FLOOR,
    _common_diagonals,
    embedding_guard,
    greedy_ranks,
    lemma3_bound,
    pick_frame,
    pop_order,
)
from .errors import DimensionLimitError, NumericalConsistencyError
from .linalg import (
    DensityMatrix,
    dense_limit,
    is_rank_one,
)
from .schurweyl import (
    _class_pops,
    base_spectra,
    block_scores,
    class_pick_cut,
    cut_spectrum,
    frame_misses,
    joint_gram_floors,
    type_classes,
)

DETECTOR_KINDS = ("gs", "epsilon", "helstrom", "classical-ml")
EPSILON_CLIP = 1.0 / math.sqrt(2.0) - 1e-6
LI_WITNESS_TOL = 1e-9
# A family whose largest commutator entry is at most d times this commutes
# to rounding (its states' entries are at most 1), and every kind reads its
# rows in the common eigenbasis.
COMMUTATOR_ROUNDING = float(np.finfo(float).eps)
# A type-class sweep scores its consecutive n in groups of at most this many
# terms, one per requested kind and type class (one n alone may exceed it),
# so a far-out sweep never holds the arrays of all its classes at once.
CLASS_GROUP_LIMIT = 1 << 14


def check_dense_limit(dim: int, ns: Iterable[int]) -> None:
    """Raise DimensionLimitError, naming the smallest n in ``ns`` with dim^n
    above ``dense_limit()``, if there is one. No power is taken per n, and a
    range is read from its bounds, not walked."""
    cap = dense_limit()
    if dim < 2:
        return
    first, power = 1, dim  # the smallest n with dim**n > cap
    while power <= cap:
        first, power = first + 1, power * dim
    if isinstance(ns, range):
        ns = ns if ns.step > 0 else ns[::-1]
        ns = ns[max(0, -((ns.start - first) // ns.step)) :][:1]
    over = min((n for n in ns if n >= first), default=None)
    if over is not None:
        raise DimensionLimitError(f"{dim}**{over} exceeds the dense limit {cap}")


def _copy_numbers(n_range: Iterable[int], dim: int) -> list[int]:
    """The distinct copy numbers in ``n_range``, sorted and under the cap (a
    range is checked before it is walked). Each must be a positive Python or
    numpy integer: a float or a bool raises ValueError, not truncated, and
    so does an empty sweep."""
    if isinstance(n_range, range):
        check_dense_limit(dim, n_range)
    ns = set()
    for n in n_range:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"copy numbers must be positive integers, got {n!r}")
        ns.add(int(n))
    if not ns:
        raise ValueError("need at least one copy number")
    check_dense_limit(dim, ns)
    return sorted(ns)


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


def _class_groups(dim: int, ns: Sequence[int], kinds: int = 1):
    """Slices of ``ns`` into runs of consecutive n with at most
    ``CLASS_GROUP_LIMIT`` terms in all, one per kind of ``kinds`` and type
    class, or one n alone."""
    start = classes = 0
    for stop, n in enumerate(ns):
        count = kinds * math.comb(n + dim - 1, dim - 1)
        if stop > start and classes + count > CLASS_GROUP_LIMIT:
            yield slice(start, stop)
            start, classes = stop, 0
        classes += count
    yield slice(start, len(ns))


def _type_class_scores(rows: np.ndarray, ns: Sequence[int], kinds: Sequence[str], epsilons: dict):
    """For every n of ``ns`` in turn, the detector error and lambda_min_gram
    of each row of ``kinds`` (epsilons ``epsilons[kind]``) on the n-fold
    powers of the family with probability rows ``rows``:
    ``_class_group_scores`` of each of the ``_class_groups``, whose arrays
    are freed before the next group's classes are built, with each kind's
    pick cuts taken once."""
    cut_rows = np.array([cut_spectrum(row) for row in rows])
    floors = {kind: class_pick_cut(cut_rows, ns, kind) for kind in kinds}
    for group in _class_groups(rows.shape[1], ns, len(kinds)):
        sliced = ({kind: table[kind][group] for kind in kinds} for table in (epsilons, floors))
        yield from _class_group_scores(rows, cut_rows, ns[group], kinds, *sliced)


def _class_group_scores(
    rows: np.ndarray,
    cut_rows: np.ndarray,
    ns: Sequence[int],
    kinds: Sequence[str],
    epsilons: dict,
    floors: dict,
) -> list[tuple[tuple[float, float], ...]]:
    """(err, lambda_min_gram) of each of ``kinds`` at every n of ``ns``, one
    tuple per n, from one term per type class: all classes of all n, for
    every kind at once, in one stacked kinds x r x classes pass.

    Every product outcome in a type class has the likelihood
    P_a = prod_j p_a[j]^(k_j) under state a. classical-ml and helstrom give
    the class weight w = 1 to the state one shared ``np.argmax`` labels it
    with (for r = 2 the misses are then min(P_0, P_1), Helstrom's). For gs
    and epsilon the states whose P_a on ``cut_rows`` is above that n's
    ``floors[kind]`` claim it in ``_pick_ranks`` order, the c-th with
    ``_claim_weights`` of that n's epsilon (gs: 0). The P_a on ``rows`` score
    it, by one expression for every kind: hypothesis 0 owns the completion
    and misses delta^2 P_0 sum_(i>=1) w_i; state i >= 1 misses
    P_i ((1 - w_i) + epsilon^2 w_i). lambda_min_gram is epsilon^2 when some
    class has two weighted claimants and 1 otherwise. Each kind's misses of
    each state at each n are summed by ``math.fsum``, so every row is the row
    of that n and kind scored alone, bit for bit.
    """
    r, dim = rows.shape
    classes = [type_classes(dim, n) for n in ns]
    widths = [len(sizes) for _, sizes in classes]
    starts = np.cumsum([0] + widths)
    slots = np.repeat(np.arange(len(ns)), widths)  # the position in ns of each class's n
    sizes = np.concatenate([sizes for _, sizes in classes])
    values = _class_values(np.vstack([rows, cut_rows]), classes)
    values, cut_values = values[:r], values[r:]
    eps = np.array([epsilons[kind] for kind in kinds], dtype=float)
    weights = np.empty((len(kinds),) + values.shape)
    labelled = [k for k, kind in enumerate(kinds) if kind in ("classical-ml", "helstrom")]
    if labelled:
        weights[labelled] = np.argmax(values, axis=0) == np.arange(r)[:, None]
    if greedy := [k for k in range(len(kinds)) if k not in labelled]:
        ranks = {}  # by pick mask: gs and epsilon share one unless epsilon's cut drops a class
        picks = []
        for floor in (floors[kinds[k]] for k in greedy):
            present = cut_values > floor[slots]
            if (mask := present.tobytes()) not in ranks:
                ranks[mask] = _pick_ranks(cut_rows, ns, floor, cut_values, present, starts)
            picks.append(ranks[mask])
        # the state at position c of class m's pick order claims weight c of
        # that class's n; a state ranked -1 claims nothing
        picks = np.array(picks)
        claims = _claim_weights(r, eps[greedy])[np.arange(len(greedy))[:, None, None], slots, picks]
        weights[greedy] = np.where(picks < 0, 0.0, claims)
    shared = np.logical_or.reduceat(np.count_nonzero(weights, axis=1) > 1, starts[:-1], axis=1)
    eps_sq = (eps * eps)[:, None, slots]
    first = (1.0 - eps_sq[:, 0]) * values[0] * weights[:, 1:].sum(axis=1)
    # the weights become the misses in place, so that few arrays of the
    # group's size are alive at once
    unclaimed = 1.0 - weights
    misses = weights
    misses *= eps_sq
    misses += unclaimed
    misses *= values
    misses[:, 0] = first
    misses *= sizes
    scored = [memoryview(row) for row in misses.reshape(-1, len(sizes))]
    sums = [[math.fsum(row[lo:hi]) for row in scored] for lo, hi in zip(starts, starts[1:])]
    errs = np.mean(np.reshape(sums, (len(ns), len(kinds), r)), axis=2).tolist()
    lam_mins = [
        [e * e if many else 1.0 for e, many in zip(epsilons[kind], shared_k)]
        for kind, shared_k in zip(kinds, shared.tolist())
    ]
    return [tuple(zip(errs_n, lams_n)) for errs_n, lams_n in zip(errs, zip(*lam_mins))]


def _pick_ranks(cut_rows, ns, floors, cut_values, present, starts) -> np.ndarray:
    """The claim position of every state on the classes of ``ns`` (columns
    ``starts[i]:starts[i + 1]`` of ``cut_values`` for ``ns[i]``, claimed
    where ``present``, above ``floors[i]``), -1 where it claims none: the
    ``greedy_ranks`` sort, but on each n that owns a column it flags, each
    state's place among the pops of the class in ``_class_pops``."""
    ranks, flagged = greedy_ranks(cut_values, present)
    for i in np.unique(np.searchsorted(starts, flagged, side="right") - 1).tolist():
        [(owners, classes)] = _class_pops(ns[i], cut_rows, [floors[i]])
        grouped = np.argsort(classes, kind="stable")
        first = np.searchsorted(classes[grouped], classes[grouped])
        ranks[:, starts[i] : starts[i + 1]] = -1
        ranks[owners[grouped], starts[i] + classes[grouped]] = np.arange(len(first)) - first
    return ranks


def _class_values(rows: np.ndarray, classes) -> np.ndarray:
    """P_a = prod_j rows[a, j]^(k_j) of every state a on every class of the
    ``type_classes`` results ``classes``, one column per class in turn."""
    counts = np.vstack([counts for counts, _ in classes])
    return np.prod(rows[:, None, :] ** counts, axis=2)


def _pure_tops(states: Sequence[DensityMatrix]) -> np.ndarray | None:
    """The largest eigenvalue of every state of a family whose states are
    all rank 1 up to rounding (``is_rank_one``), or None."""
    spectra = [rho.spectrum().eigenvalues for rho in states]
    if not all(is_rank_one(values) for values in spectra):
        return None
    return np.array([values[0] for values in spectra])


def _pure_scores(
    states: Sequence[DensityMatrix],
    tops: np.ndarray,
    ns: Sequence[int],
    kinds: Sequence[str],
    epsilons: dict,
):
    """For every n of ``ns`` in turn, the detector error and lambda_min_gram
    (None for helstrom) of each row of ``kinds`` (epsilons ``epsilons[kind]``)
    of a pure family, on an r-column factor of the Gram matrix of its powers.

    State s counts as a_s |psi_s><psi_s|^(x n), with a_s = ``tops[s]``^n and
    psi_s its unit top eigenvector: this drops at most n times the state's
    tail mass. With C the k x r factor of the reduced QR
    [psi_0 ... psi_(r-1)] = Q C, k = min(d, r), F_n = R of qr(F_(n-1) (.) C),
    (.) the column-wise Kronecker product and F_0 a row of ones, has
    F_n^H F_n = G^(o n), G = C^H C: one QR of at most r k x r per n from
    n = 1, so a sweep's row is that n alone. gs and epsilon score the r
    columns of F_n, popped in ``pop_order`` of the a_s, by the blocks'
    ``pick_frame`` and ``frame_misses``. helstrom is half the summed misses
    of the pair, a b g / (a + b + sqrt((a - b)^2 + 4 a b (1 - g))) with
    g = |<psi_0|psi_1>|^(2n), which has no cancellation, and g and 1 - g
    come from the pair's overlap and t = 1 - overlap (``_pure_overlap``,
    ``_overlap_powers``), so nearly parallel states keep their digits too.
    """
    vectors = np.column_stack([rho.spectrum().vectors[:, 0] for rho in states])
    vectors /= np.linalg.norm(vectors, axis=0)
    base = np.linalg.qr(vectors, mode="r")
    if "helstrom" in kinds:
        overlap, t = _pure_overlap(vectors)
    factor, copies = np.ones((1, len(states))), 0
    for i, n in enumerate(ns):
        for copies in range(copies + 1, n + 1):
            factor = np.linalg.qr((factor[:, None, :] * base).reshape(-1, len(states)), mode="r")
        weights = tops**n
        order = pop_order(weights[:, None], -math.inf)
        scores = []
        for kind in kinds:
            if kind == "helstrom":
                a, b = weights
                g, one_minus_g = _overlap_powers(overlap, t, n)
                root = math.sqrt((a - b) ** 2 + 4.0 * a * b * one_minus_g)
                scores.append((a * b * g / (a + b + root), None))
                continue
            frame, labels, floor = pick_frame(kind, order, factor[:, order], epsilons[kind][i])
            misses = frame_misses(frame, labels, factor.T[:, :, None], weights[:, None])
            scores.append((misses / len(states), floor))
        yield scores


def _pure_overlap(vectors):
    """The overlap |<psi_0|psi_1>|^2 / (|psi_0|^2 |psi_1|^2) of the two
    columns of ``vectors`` and t = 1 - overlap, each rounded once from the
    exact value of those double columns: in integer arithmetic, whose
    true division rounds correctly, on parts scaled by one power of two per
    column, which cancels. A rounded inner product misses the overlap by a
    few eps, which is all of t for nearly parallel columns and all of the
    overlap for nearly orthogonal ones."""
    first, second = (_integer_parts(column) for column in vectors.T)
    real = sum(p * r + q * s for (p, q), (r, s) in zip(first, second))
    imag = sum(p * s - q * r for (p, q), (r, s) in zip(first, second))
    norms = sum(p * p + q * q for p, q in first) * sum(r * r + s * s for r, s in second)
    inner = real * real + imag * imag
    return inner / norms, (norms - inner) / norms


def _integer_parts(column):
    """The (real, imaginary) parts of a complex column as integers over one
    common power of two."""
    ratios = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in column.tolist()]
    scale = max(q for pair in ratios for _, q in pair)
    return [tuple(p * (scale // q) for p, q in pair) for pair in ratios]


def _overlap_powers(overlap: float, t: float, n: int) -> tuple[float, float]:
    """g = ``overlap``^n and 1 - g, with t = 1 - overlap. Where n t < 1/2, g
    is exp(n log1p(-t)), whose error is t's own rounding times n t plus
    under an ulp, where the power of the rounded overlap carries its
    rounding n times; elsewhere g is that power. 1 - g is
    -expm1(n log1p(-t)), 1 exactly when t = 1."""
    if t == 1.0:
        return overlap**n, 1.0
    log_g = n * math.log1p(-t)
    return (math.exp(log_g) if n * t < 0.5 else overlap**n), -math.expm1(log_g)


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


@dataclass
class ExperimentReport:
    """Sweep records plus the base-set Chernoff data."""

    rows: list[ExperimentRow]
    qcb: MultipleChernoffResult

    def __post_init__(self) -> None:
        keys = [(row.n, row.detector) for row in self.rows]
        if len(keys) != len(set(keys)):
            raise ValueError("rows must be keyed uniquely by (n, detector)")


def run_power_experiment(
    base: Sequence[DensityMatrix],
    n_range: Iterable[int],
    *kinds: str,
    epsilon_override: float | None = None,
) -> ExperimentReport:
    """Sweep copy numbers, scoring every requested detector family on each
    power in one pass; rows come out kind by kind, in the order given.

    Each kind selects a family: "gs" (greedy PVM), "epsilon" (embedded POVM
    with the scheduled or overridden perturbation), "helstrom" (binary optimal
    test, r = 2 only), or "classical-ml" (commuting families only). Every
    kind is checked before any row is scored; the route, the Chernoff bound
    and each route's per-family data are shared by all of them.
    """
    states = list(base)
    if not kinds:
        raise ValueError("need at least one detector kind")
    for k, kind in enumerate(kinds):
        if kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {kind!r}")
        if kind in kinds[:k]:
            raise ValueError(f"detector kind {kind!r} is listed twice")
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    if "helstrom" in kinds and len(states) != 2:
        raise ValueError("helstrom runs on exactly two hypotheses")
    if any(rho.dim != states[0].dim for rho in states):
        raise ValueError("states must share one dimension")
    # before the copy numbers: a family of 1 x 1 states, all duplicates, has
    # no n over the cap, so a far range would be walked in full
    check_distinct(states)
    ns = _copy_numbers(n_range, states[0].dim)
    # one route verdict per call: a rank-one family runs gs, epsilon and
    # helstrom on the pure route, classical-ml on the common basis, and the
    # other kinds of other families there only where they commute to rounding
    tops = _pure_tops(states)
    try:
        _, rows, _, commutator = _common_diagonals(states)
    except (ValueError, NumericalConsistencyError):
        if "classical-ml" in kinds:
            raise
        rows, commutator = None, math.inf
    commutes = tops is None and commutator <= states[0].dim * COMMUTATOR_ROUNDING

    qcb = pairwise_qcb(states)
    r = len(states)
    overlap_sums = [overlap_power_sum(qcb, n) for n in ns]
    epsilons = {kind: [0.0] * len(ns) for kind in kinds}
    if "epsilon" in kinds:
        epsilons["epsilon"] = [
            _schedule_from_overlap_sum(total) if epsilon_override is None else epsilon_override
            for total in overlap_sums
        ]
        for eps in epsilons["epsilon"]:
            embedding_guard(eps)

    # each route yields, per n, a score for each of its kinds
    class_kinds = tuple(kind for kind in kinds if commutes or kind == "classical-ml")
    others = tuple(kind for kind in kinds if kind not in class_kinds)
    routes = []
    if class_kinds:
        rows = np.maximum(rows, 0.0)
        routes.append((class_kinds, _type_class_scores(rows, ns, class_kinds, epsilons)))
    if others and tops is not None:
        routes.append((others, _pure_scores(states, tops, ns, others, epsilons)))
    elif others:
        routes.append((others, block_scores(states, ns, others, epsilons)))
    scores = {}
    for route_kinds, per_n in routes:
        scores.update(zip(route_kinds, zip(*per_n)))
    rows: list[ExperimentRow] = []
    for kind in kinds:
        for n, overlap_sum, eps, (err, lam_min) in zip(
            ns, overlap_sums, epsilons[kind], scores[kind]
        ):
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
            eps = eps if kind == "epsilon" else None
            rows.append(ExperimentRow(n, kind, float(err), float(exponent), bound, lam_min, eps))
    return ExperimentReport(rows=rows, qcb=qcb)


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
    if any(rho.dim != states[0].dim for rho in states):
        raise ValueError("states must share one dimension")
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
    climbs toward 1 as the cross-state overlaps decay. The whole sweep is
    checked against the d^n cap before any n is scored, and the base
    spectra are taken once for all of it (``schurweyl.joint_gram_floors``).
    A family of fewer than two states raises ValueError before the copy
    numbers are read: one 1 x 1 state has no n over the cap and no pair to
    reject, so a far range would be walked in full.
    """
    states = list(base)
    if len(states) < 2:
        raise ValueError("need at least two hypotheses")
    if not pairwise_li_check(states).all_pass:
        raise ValueError("supports must intersect trivially for every pair")
    ns = _copy_numbers(n_range, states[0].dim)
    _, cut, vectors = base_spectra(states)
    return list(zip(ns, joint_gram_floors(ns, cut, vectors)))
