"""Correctness references for benchmark outputs.

Every check here runs after the timed phase. A row is compared with an
independent reference where one is affordable:

- dense Kronecker materialization through ``qmht.detectors`` for small d^n;
- closed forms for the bundled pairs;
- exact maximum-likelihood errors of product distributions for commuting
  (diagonal) families, which is what ``gs``, ``classical-ml`` and
  ``helstrom`` compute there;
- the Holevo-Helstrom trace-norm formula and the commuting Bayes rule for the
  single-copy detectors.

Every row also gets invariant checks: 0 <= err <= 1 - 1/r (err <= 1 for the
POVMs ``epsilon`` and ``pgm``) and err <= its printed bound where finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Deviations below this are round-off and do not register in err_dev_max.
ERR_DEV_FLOOR = 1e-12
# Gross-error gate: a row further than this from its reference fails. Smaller
# drift is measured by err_dev_max rather than failed.
REF_ATOL = 1e-3
INVARIANT_ATOL = 1e-9
# Largest ambient dimension of a dense Kronecker reference, by detector: the
# dense greedy and the dense embedding are cubic with a slow basis completion,
# the dense Helstrom test is one Hermitian eigensolve.
DENSE_GS_MAX_DIM = 64
DENSE_EPSILON_MAX_DIM = 128
DENSE_HELSTROM_MAX_DIM = 512
# The greedy PVM never pops product eigenvalues at or below this share of the
# largest one; those directions complete the basis with label 0.
PRODUCT_ZERO_RTOL = 1e-12
POVM_KINDS = ("epsilon", "pgm")


# A row whose own lambda_min_gram is at or below this has a picked Gram with
# condition number 1e12 or more: its Gram-coordinate evaluation may be off by
# eps * cond ~ 1e-4 or worse, and the program prints that number with the row.
ILL_CONDITIONED_GRAM = 1e-12


def flags_ill_conditioned(lambda_min_gram) -> bool:
    return isinstance(lambda_min_gram, (int, float)) and lambda_min_gram <= ILL_CONDITIONED_GRAM


@dataclass
class Verdict:
    """Wrong outputs found in one job and the reference deviations measured.

    ``problems`` are wrong outputs on rows that look healthy; ``flagged``
    are wrong outputs on rows whose printed lambda_min_gram already marks the
    picked Gram as numerically singular. Either fails the job; only the first
    makes the run incorrect.
    """

    problems: list[str] = field(default_factory=list)
    flagged: list[str] = field(default_factory=list)
    deviations: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not self.flagged

    def fail(self, message: str, flagged: bool = False) -> None:
        (self.flagged if flagged else self.problems).append(message)

    def compare(self, label: str, err: float, reference: float, flagged: bool = False) -> None:
        deviation = abs(err - reference)
        self.deviations.append(deviation)
        if not deviation <= REF_ATOL:
            self.fail(
                f"{label}: err {err!r} is {deviation:.3g} from reference {reference!r}", flagged
            )

    def invariants(self, label: str, kind: str, err, r: int, bound=None, flagged: bool = False) -> None:
        if not isinstance(err, (int, float)) or not math.isfinite(err):
            self.fail(f"{label}: err {err!r} is not a finite number", flagged)
            return
        ceiling = 1.0 if kind in POVM_KINDS else 1.0 - 1.0 / r
        if not -INVARIANT_ATOL <= err <= ceiling + INVARIANT_ATOL:
            self.fail(f"{label}: err {err!r} outside [0, {ceiling:.6g}]", flagged)
        if isinstance(bound, (int, float)) and math.isfinite(bound):
            if err > bound * (1.0 + INVARIANT_ATOL) + INVARIANT_ATOL:
                self.fail(f"{label}: err {err!r} exceeds its bound {bound!r}", flagged)


def kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    return functools.reduce(np.kron, [np.asarray(mat, dtype=complex)] * n)


def dense_power_error(mats, n: int, kind: str, epsilon: float | None = None) -> float | None:
    """Averaged error of the detector built on explicit Kronecker powers.

    Returns None when the dense dimension is over the cap for ``kind`` or
    the dense construction itself gives up, so the row has no reference.
    """
    from qmht import detectors
    from qmht.errors import NumericalConsistencyError
    from qmht.linalg import DensityMatrix

    dim = len(mats[0]) ** n
    if kind == "gs" and dim > DENSE_GS_MAX_DIM:
        return None
    if kind == "epsilon" and (len(mats) + 1) * dim > DENSE_EPSILON_MAX_DIM:
        return None
    if kind == "helstrom" and dim > DENSE_HELSTROM_MAX_DIM:
        return None
    if kind not in ("gs", "epsilon", "helstrom"):
        return None
    powers = [DensityMatrix(kron_power(mat, n)) for mat in mats]
    try:
        if kind == "gs":
            det, _ = detectors.gs_detector(powers)
        elif kind == "epsilon":
            det, _ = detectors.epsilon_detector(powers, epsilon)
        else:
            det = detectors.holevo_helstrom(*powers)
    except NumericalConsistencyError:
        return None
    return detectors.evaluate_errors(powers, det).averaged


def commuting_power_error(prob_rows, n: int, kind: str) -> float | None:
    """Exact error on the n-fold product distributions of a diagonal family.

    ``classical-ml`` and ``helstrom`` give every outcome to a most likely
    hypothesis. ``gs`` does the same for outcomes above its product-eigenvalue
    cutoff and gives the rest to hypothesis 0.
    """
    if kind not in ("gs", "classical-ml", "helstrom"):
        return None
    rows = [np.asarray(row, dtype=float) for row in prob_rows]
    table = np.vstack([functools.reduce(np.kron, [row] * n) for row in rows])
    best = table.max(axis=0)
    if kind == "gs":
        cutoff = PRODUCT_ZERO_RTOL * max(float(row.max()) for row in rows) ** n
        below = best <= cutoff
        success = float(best[~below].sum() + table[0, below].sum())
    else:
        success = float(best.sum())
    return 1.0 - success / len(rows)


def helstrom_trace_norm_error(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Optimal binary error under equal priors: 1/2 - ||rho - sigma||_1 / 4."""
    values = np.linalg.eigvalsh(rho - sigma)
    return 0.5 - 0.25 * float(np.abs(values).sum())


def bayes_error(prob_matrix: np.ndarray) -> float:
    """Optimal error for a commuting family given as rows of probabilities."""
    probs = np.asarray(prob_matrix, dtype=float)
    return 1.0 - float(probs.max(axis=0).sum()) / probs.shape[0]


def labelled_error(prob_matrix: np.ndarray, labels: np.ndarray) -> float:
    """Averaged error of the decision rule that maps outcome w to labels[w]."""
    probs = np.asarray(prob_matrix, dtype=float)
    hits = probs[np.asarray(labels), np.arange(probs.shape[1])]
    return 1.0 - float(hits.sum()) / probs.shape[0]


def pair_closed_form(n: int) -> float:
    """err_n = 2^-(n+1): the bundled pure pair under gs, and the bundled
    commuting pair under gs, classical-ml and helstrom."""
    return 0.5**n / 2.0


def fmt12(value) -> str:
    """A JSON report value as the CSV report prints it."""
    if value is None:
        return ""
    if value == "inf" or (isinstance(value, float) and math.isinf(value)):
        return "inf"
    return f"{value:.12g}"
