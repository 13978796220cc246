"""Host-speed calibration: a fixed kernel timed between the benchmark's jobs.

The host that runs the benchmark is shared, and its speed drifts by 20-40 %
over seconds to minutes. A kernel that does the same kinds of work as the
jobs, but none of qmht's, slows down with them. Timing it after every job
gives the host's speed during the run, and the end-to-end times are reported
at the reference speed:

    reported = measured * REFERENCE_S / mean(kernel timings)

A change to qmht moves the measured job times and leaves the kernel alone,
so it shows in the reported times undiminished. The kernel uses only numpy,
on inputs fixed here, and never changes with the program. It has two parts,
because the host's slowdowns hit interpreter-bound and LAPACK-bound code by
different amounts and every workload runs both.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_DIM = 128
# interp: the Python-level loop of small numpy calls that dominates basis
# completion and the CLI's per-row work: a vector projected out of a fixed
# orthonormal family one direction at a time.
_FAMILY = list(
    np.linalg.qr(
        _RNG.standard_normal((_DIM, 24)) + 1j * _RNG.standard_normal((_DIM, 24))
    )[0].T
)
_SWEEPS = 16
# lapack: a dense Hermitian eigenvalue solve the size of an n = 8 qubit band
# check, as in tensorlab's Gram checks and the Helstrom joint support.
_B = _RNG.standard_normal((2 * _DIM, 2 * _DIM)) + 1j * _RNG.standard_normal((2 * _DIM, 2 * _DIM))
_HERMITIAN = _B @ _B.conj().T


def _interp() -> None:
    candidate = np.zeros(_DIM, dtype=complex)
    candidate[3] = 1.0
    for _ in range(_SWEEPS):
        for e in _FAMILY:
            candidate = candidate - e * np.vdot(e, candidate)
        float(np.linalg.norm(candidate))


def _lapack() -> None:
    np.linalg.eigvalsh(_HERMITIAN)


# Mean time of one kernel call on the reference host (2 CPUs of a shared
# x86-64 host, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
# It only sets the scale: every run divides by the same constant.
REFERENCE_S = 0.0100


class Calibration:
    """Timings of the kernel, taken between jobs."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        begin = time.perf_counter()
        _interp()
        _lapack()
        elapsed = time.perf_counter() - begin
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Reference speed over the speed measured: multiply a time by it.

        The mean, not the median, because the job times are summed too and
        short stalls slow both."""
        return REFERENCE_S / statistics.fmean(self.samples)
