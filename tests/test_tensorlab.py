import collections
import dataclasses
import itertools
import math
import os
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmht import detectors, schurweyl, tensorlab
from qmht.cli import load_scenario
from qmht.detectors import (
    classical_ml,
    epsilon_detector,
    evaluate_errors,
    greedy_order,
    greedy_ranks,
    gs_detector,
    gs_error_bound,
    holevo_helstrom,
)
from qmht.errors import DimensionLimitError, NumericalConsistencyError
from qmht.linalg import DENSE_LIMIT_ENV, RANK_ONE_TAIL_RTOL, SPAN_RESIDUAL_TOL, DensityMatrix
from qmht.sampling import (
    random_density_matrix,
    random_orthonormal,
    random_pure_state,
    random_state_vector,
)
from qmht.tensorlab import (
    CLASS_GROUP_LIMIT,
    DETECTOR_KINDS,
    EPSILON_CLIP,
    _claim_weights,
    _class_groups,
    _class_values,
    _pick_ranks,
    check_dense_limit,
    gram_convergence_check,
    pairwise_li_check,
    run_power_experiment,
)
from qmht.schurweyl import (
    _class_pops,
    base_spectra,
    block_scores,
    class_pick_cut,
    cut_spectrum,
    type_classes,
)
from conftest import diagonal, pure, route

LOG2 = math.log(2.0)
SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
EPS = sys.float_info.epsilon


def kron_power(rho: DensityMatrix, n: int) -> DensityMatrix:
    mat = rho.mat
    for _ in range(n - 1):
        mat = np.kron(mat, rho.mat)
    return DensityMatrix(mat)


def dense_gs_error(states, n):
    """Explicit-materialization oracle for the greedy detector error at level n."""
    powered = [kron_power(rho, n) for rho in states]
    det, _ = gs_detector(powered)
    return evaluate_errors(powered, det).averaged


def exact_aligned_pair_error(rows, n):
    """(1/2) sum_k C(n, k) min(P_0, P_1) over the n + 1 type classes of an
    aligned qubit pair, P_a = p_a[0]^k p_a[1]^(n-k), as a Fraction. Each
    double is an integer over a power of two, so every product is kept as an
    integer over one common power of two."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    shift = n * max(den.bit_length() - 1 for row in ratios for _, den in row)
    total = 0
    for k in range(n + 1):
        total += math.comb(n, k) * min(
            (num0**k * num1 ** (n - k))
            << (shift - (den0.bit_length() - 1) * k - (den1.bit_length() - 1) * (n - k))
            for (num0, den0), (num1, den1) in ratios
        )
    return Fraction(total, 2 << shift)


def aligned_families(count, seed):
    """Diagonal families (d 2-4, r 2-4): state 0 has a zero eigenvalue, state
    1 is its reversed probability row (so the two tie exactly on symmetric
    type classes), and the rest are random."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 5))
        first = rng.dirichlet(np.ones(d))
        first[int(rng.integers(d))] = 0.0
        rows = [first / first.sum(), (first / first.sum())[::-1]]
        rows += [rng.dirichlet(np.ones(d)) for _ in range(int(rng.integers(0, 3)))]
        yield [diagonal(row) for row in rows]


def sweep_families(count, seed):
    """Families with d 2-4 and r 2-4, some zero eigenvalues, and ties planted:
    state 1 is state 0 reversed, so the two tie on every symmetric class,
    exactly or, scaled by 1 + 1e-13, by n 1e-13 relative at copy number n,
    inside SELECTION_TIE_RTOL below n = 10 and outside above it. Each is
    diagonal, turned by one common phased permutation, or by one common
    random rotation: every one commutes to rounding."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        d = int(rng.integers(2, 5))
        rows = [rng.dirichlet(np.ones(d)) for _ in range(int(rng.integers(2, 5)))]
        rows[0][int(rng.integers(d))] = 0.0
        rows[0] /= rows[0].sum()
        rows[1] = rows[0][::-1] * (1.0 + 1e-13 if rng.random() < 0.5 else 1.0)
        if index % 3 == 0:
            turn = np.eye(d)
        elif index % 3 == 1:
            turn = np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
        else:
            turn = random_orthonormal(d, d, rng)
        yield [DensityMatrix(turn @ np.diag(row) @ turn.conj().T) for row in rows]


def count_unitary_logs(monkeypatch):
    """The shape of every stack that ``schurweyl.unitary_log`` is called on,
    appended as the calls come."""
    calls = []
    log = schurweyl.unitary_log

    def counting(u):
        calls.append(u.shape)
        return log(u)

    monkeypatch.setattr(schurweyl, "unitary_log", counting)
    return calls


def classical_ml_power_error(states, n):
    """Error of the ``classical_ml`` rule on the materialized product distributions."""
    rows = []
    for rho in states:
        p = np.real(np.diag(rho.mat))
        acc = np.ones(1)
        for _ in range(n):
            acc = np.kron(acc, p)
        rows.append(acc)
    probs = np.vstack(rows)
    labels = classical_ml(probs)
    return 1.0 - np.mean([probs[i, labels == i].sum() for i in range(len(states))])


def pure_families(count, seed):
    """Families of random pure states, d 2-4 and r 2-4 (r > d included)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d, r = (int(x) for x in rng.integers(2, 5, size=2))
        yield [random_pure_state(d, rng) for _ in range(r)]


def largest_tail(states):
    """The largest sum, over the states, of the eigenvalues below the top one."""
    return max(float(rho.spectrum().eigenvalues[1:].sum()) for rho in states)


def mp_pure_error(states, n, kind, epsilon=0.0):
    """Error of a gs, epsilon or helstrom row on the states
    a_s |psi_s><psi_s|^(x n), a_s = lambda_top^n, with psi_s the double top
    eigenvector normalized, in 50 digits from the Gram matrix G^(o n).

    Random pure states tie on a_s, so they pop in index order; gs skips a
    state whose residual is at most ``SPAN_RESIDUAL_TOL``. The orthonormalized
    picks P are (up to delta) Psi_P L^-H for the Cholesky factor L of
    delta^2 G_PP with unit diagonal (gs: delta = 1), so their amplitudes on
    psi_s are (L^-1 G_P,s). helstrom is the two-state closed form.
    """
    r = len(states)
    with mpmath.workdps(50):
        vectors = [mpmath.matrix(rho.spectrum().vectors[:, 0].tolist()) for rho in states]
        vectors = [v / mpmath.norm(v) for v in vectors]
        a = [mpmath.mpf(float(rho.spectrum().eigenvalues[0])) ** n for rho in states]
        gram = [[(vectors[i].H * vectors[j])[0] ** n for j in range(r)] for i in range(r)]
        if kind == "helstrom":
            g, total = abs(gram[0][1]) ** 2, a[0] + a[1]
            return float(a[0] * a[1] * g / (total + mpmath.sqrt(total**2 - 4 * a[0] * a[1] * g)))

        def amplitudes(picks, scale):
            embedded = [[1 if i == j else scale * gram[i][j] for j in picks] for i in picks]
            factor = mpmath.cholesky(mpmath.matrix(embedded))
            return mpmath.inverse(factor) * mpmath.matrix([gram[i] for i in picks])

        picks = []
        for s in range(r):
            if kind == "gs" and picks:
                amp = amplitudes(picks, 1)
                residual = 1 - mpmath.fsum(abs(amp[k, s]) ** 2 for k in range(len(picks)))
                if residual <= SPAN_RESIDUAL_TOL**2:
                    continue
            picks.append(s)
        scale = 1 - mpmath.mpf(epsilon) ** 2
        amp = amplitudes(picks, scale)
        err = scale * a[0] * mpmath.fsum(abs(amp[k, 0]) ** 2 for k, p in enumerate(picks) if p)
        for s in range(1, r):
            own = mpmath.fsum(abs(amp[k, s]) ** 2 for k, p in enumerate(picks) if p == s)
            err += a[s] * (1 - scale * own)
        return float(err / r)


class TestBaseSpectra:
    def test_product_values_sum_to_one(self):
        # each class value times its size n!/prod_j k_j!, over the classes
        # with value > 0
        rng = np.random.default_rng(0)
        base = [random_density_matrix(2, rng), random_density_matrix(3, rng, rank=2)]
        for state, n in ((base[0], 8), (base[1], 5)):
            _, cut, _ = base_spectra([state])
            counts, sizes = type_classes(state.dim, n)
            size_of = {tuple(row): size for row, size in zip(counts.tolist(), sizes)}
            [(_, index)] = _class_pops(n, cut, [0.0])
            popped = counts[index]
            values = np.prod(cut[0] ** popped, axis=1)
            # popped in descending order of their values
            assert (np.diff(values) <= 0.0).all()
            total = sum(size_of[tuple(k)] * value for k, value in zip(popped.tolist(), values))
            assert abs(total - 1.0) < 1e-13

    def test_rank_multiplies(self):
        # the base spectra are cut once, so the classes with a positive cut
        # value cover rank(rho)^n product outcomes
        rng = np.random.default_rng(1)
        base = [random_density_matrix(3, rng, rank=2), random_density_matrix(3, rng, rank=1)]
        _, cut, _ = base_spectra(base)
        assert [int(np.count_nonzero(row)) for row in cut] == [2, 1]
        counts, sizes = type_classes(3, 4)
        size_of = {tuple(row): size for row, size in zip(counts.tolist(), sizes)}
        [(owners, index)] = _class_pops(4, cut, [0.0])
        popped = counts[index]
        for state, rank in enumerate((2, 1)):
            classes = popped[owners == state].tolist()
            assert sum(size_of[tuple(k)] for k in classes) == rank**4

    def test_dimension_limit(self, monkeypatch):
        # on the type classes and on the blocks
        monkeypatch.setenv(DENSE_LIMIT_ENV, "16")
        base = [diagonal([0.5, 0.5]), diagonal([1.0, 0.0])]
        turn = random_orthonormal(2, 2, np.random.default_rng(2))
        turned = [diagonal([0.6, 0.4]), DensityMatrix(turn @ base[1].mat @ turn.conj().T)]
        assert route(turned) == "blocks"
        for states in (base, turned):
            with pytest.raises(DimensionLimitError):
                run_power_experiment(states, [5], "gs")


class TestRunPowerExperimentGs:
    def test_single_copy_matches_dense_detector(self):
        rng = np.random.default_rng(2)
        states = [random_density_matrix(3, rng, rank=2) for _ in range(3)]
        report = run_power_experiment(states, [1], "gs")
        det, _ = gs_detector(states)
        dense = evaluate_errors(states, det).averaged
        assert abs(report.rows[0].err - dense) < 1e-10

    def test_commuting_pair_sweep(self):
        states = [diagonal([0.5, 0.5]), diagonal([1.0, 0.0])]
        report = run_power_experiment(states, range(1, 13), "gs")
        # oracle: dense materialization for small n fixes the closed form err = (1/2)(1/2)^n
        for n in (1, 2, 3, 4, 5):
            assert abs(dense_gs_error(states, n) - 0.5 ** (n + 1)) < 1e-12
        for row in report.rows:
            assert abs(row.err - 0.5 ** (row.n + 1)) < 1e-12
            assert abs(row.exponent - (LOG2 + LOG2 / row.n)) < 1e-9
            assert abs(row.lambda_min_gram - 1.0) < 1e-12

    def test_pure_pair_sweep(self, zero_state, plus_state):
        # pure and not aligned: the pure route, up to n = 14, the largest
        # qubit n under the default d^n cap
        states = [zero_state, plus_state]
        assert route(states) == "pure"
        ns = range(1, 15)
        report = run_power_experiment(states, ns, "gs")
        for n in (1, 2, 3, 4, 5):
            assert abs(dense_gs_error(states, n) - 0.5 ** (n + 1)) < 1e-12
        assert [row.n for row in report.rows] == list(ns)
        for row in report.rows:
            assert abs(row.err - 0.5 ** (row.n + 1)) < 1e-10
            assert abs(row.lambda_min_gram - (1.0 - 2.0 ** (-row.n / 2))) < 1e-10
            assert row.err <= row.error_bound + 1e-12
        # |<0|+>|^(2n) = 2^-n, so Helstrom's error is (1 - sqrt(1 - 2^-n)) / 2
        others = run_power_experiment(states, ns, "helstrom", "epsilon").rows
        helstrom, epsilon = others[: len(ns)], others[len(ns) :]
        for row in helstrom:
            assert abs(row.err - 0.5 * (1.0 - math.sqrt(1.0 - 2.0**-row.n))) < 1e-12
        assert [row.n for row in epsilon] == list(ns)
        for row in epsilon:
            assert row.err <= row.error_bound

    def test_three_state_sweep_closed_form(self, zero_state, plus_state, one_state):
        states = [zero_state, plus_state, one_state]
        assert route(states) == "pure"
        report = run_power_experiment(states, range(1, 11), "gs")
        for row in report.rows:
            c2 = 0.5**row.n
            if row.n == 1:
                expected = 0.5  # the third state is swallowed by the span at n = 1
            else:
                expected = (c2 / 3.0) * (2.0 - c2) / (1.0 - c2)
            assert abs(row.err - expected) < 1e-10
        for n in (1, 2, 3, 4):
            assert abs(dense_gs_error(states, n) - report.rows[n - 1].err) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_random_ensembles(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        states = [
            random_density_matrix(2, rng, rank=int(rng.integers(1, 3))) for _ in range(r)
        ]
        row = run_power_experiment(states, [n], "gs").rows[0]
        # rare draws leave the picked Gram matrix nearly singular; evaluation
        # accuracy is then conditioning-limited on both paths
        tolerance = max(1e-9, 1e-14 / row.lambda_min_gram)
        assert abs(row.err - dense_gs_error(states, n)) < tolerance

    def test_oracle_equivalence_random_qutrit_ensembles(self):
        # qutrit rows take the Gelfand-Tsetlin blocks, where a type class
        # spans several columns per block, not one line as for qubits
        rng = np.random.default_rng(62)
        for _ in range(50):
            r = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            states = [
                random_density_matrix(3, rng, rank=int(rng.integers(1, 4))) for _ in range(r)
            ]
            row = run_power_experiment(states, [n], "gs").rows[0]
            assert abs(row.err - dense_gs_error(states, n)) < 1e-12
        rng = np.random.default_rng(11)
        states = [
            random_density_matrix(3, rng, rank=int(rng.integers(1, 4))) for _ in range(3)
        ]
        for row in run_power_experiment(states, [4, 5], "gs").rows:
            assert abs(row.err - dense_gs_error(states, row.n)) < 1e-12
        # at n = 1 the picks 0.5, 0.5, 0.45 of the first two states span C^3
        # before the third state's top eigenvalue comes up, so it owns no row
        rng = np.random.default_rng(5)
        states = []
        for spectrum in ((0.5, 0.45, 0.05), (0.5, 0.45, 0.05), (0.4, 0.35, 0.25)):
            basis = random_orthonormal(3, 3, rng)
            states.append(DensityMatrix(basis @ np.diag(spectrum) @ basis.conj().T))
        for row in run_power_experiment(states, [1, 2, 3], "gs").rows:
            assert abs(row.err - dense_gs_error(states, row.n)) < 1e-12

    def test_block_rows_match_dense_kronecker_powers(self):
        # every non-aligned row kind at d = 3 (n <= 5) and d = 4 (n <= 4),
        # with random ranks, against the dense detectors on explicit powers.
        # Dense epsilon picks the eigenvectors of products just above its
        # cut, which eigh fixes only to ~1e-16 / gap: the third state of the
        # d = 4, n = 4 draw has eigenvalue 1.4e-4, so kept products of 1.3e-12
        # sit 8x above the cut and next to cut ones of 3.5e-16. Its dense
        # epsilon err moves by 1.1e-11 to 5.8e-11 under permutations of the
        # explicit basis and reads 1.9e-10 off with one BLAS thread, while the
        # block row moves by 3e-16 under a unitary conjugation of the states;
        # so epsilon rows get the 1e-9 of the epsilon oracle test below.
        # Every other row agrees to 1.4e-14
        rng = np.random.default_rng(64)
        for d, n_max in ((3, 5), (4, 4)):
            for n in range(1, n_max + 1):
                states = [
                    random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
                    for _ in range(3)
                ]
                powered = [kron_power(rho, n) for rho in states]
                gs = run_power_experiment(states, [n], "gs").rows[0]
                dense = evaluate_errors(powered, gs_detector(powered)[0]).averaged
                assert abs(gs.err - dense) < 1e-12
                eps = run_power_experiment(states, [n], "epsilon", epsilon_override=0.4).rows[0]
                det, _ = epsilon_detector(powered, 0.4)
                assert abs(eps.err - evaluate_errors(powered, det).averaged) < 1e-9
                pair = powered[:2]
                helstrom = run_power_experiment(states[:2], [n], "helstrom").rows[0]
                dense = evaluate_errors(pair, holevo_helstrom(*pair)).averaged
                assert abs(helstrom.err - dense) < 1e-12

    def test_qutrit_pair_past_six_copies(self):
        # the product-vector route took 28 s at n = 7 and printed
        # 0.04706157049375426 (two Wishart qutrits after three qubits)
        rng = np.random.default_rng(11)
        [random_density_matrix(2, rng) for _ in range(3)]
        states = [random_density_matrix(3, rng) for _ in range(2)]
        start = time.perf_counter()
        row = run_power_experiment(states, [7], "gs").rows[0]
        assert time.perf_counter() - start < 1.0
        assert abs(row.err - 0.04706157049375426) < 1e-12

    def test_qutrit_gram_coordinate_defect(self):
        # a Gram-coordinate span rule picked a different set here and printed
        # 0.125940454930; the dense residual rule and a 40-digit Gram-Schmidt
        # give 0.128066373124
        rng = np.random.default_rng(3981)
        r = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        states = [
            random_density_matrix(3, rng, rank=int(rng.integers(1, 4))) for _ in range(r)
        ]
        row = run_power_experiment(states, [n], "gs").rows[0]
        assert abs(row.err - dense_gs_error(states, n)) < 1e-12
        assert abs(row.err - 0.128066373124) < 1e-12


class TestRunPowerExperimentOtherKinds:
    def test_helstrom_single_copy_matches_dense(self):
        rng = np.random.default_rng(3)
        states = [random_density_matrix(3, rng, rank=2), random_density_matrix(3, rng)]
        report = run_power_experiment(states, [1], "helstrom")
        dense = evaluate_errors(states, holevo_helstrom(*states)).averaged
        assert abs(report.rows[0].err - dense) < 1e-10

    def test_helstrom_qutrit_pair_matches_dense(self):
        # d >= 3 pairs take the block route past one copy too
        rng = np.random.default_rng(31)
        for ranks in ((1, 2), (2, 3), (3, 1), (1, 3), (2, 2), (3, 3)):
            states = [random_density_matrix(3, rng, rank=rank) for rank in ranks]
            report = run_power_experiment(states, [2, 3], "helstrom")
            for row in report.rows:
                powered = [kron_power(rho, row.n) for rho in states]
                dense = evaluate_errors(powered, holevo_helstrom(*powered)).averaged
                assert abs(row.err - dense) < 1e-12

    def test_helstrom_qutrit_small_error_relative_accuracy(self):
        # nearly orthogonal qutrits: err is summed from the two misses, not
        # taken as 1 - mean success, so it keeps its relative digits when
        # small; references are 40-digit eigendecompositions of the powers
        rho = DensityMatrix(
            np.array([[0.98, 0.004, 0.002j], [0.004, 0.015, 0.001], [-0.002j, 0.001, 0.005]])
        )
        sigma = DensityMatrix(
            np.array([[0.005, 0.001, -0.002j], [0.001, 0.015, 0.004], [0.002j, 0.004, 0.98]])
        )
        references = [0.012491282129232072, 0.0051202432557469693, 0.00029703920632954780]
        report = run_power_experiment([rho, sigma], [1, 2, 3], "helstrom")
        for row, reference in zip(report.rows, references, strict=True):
            assert abs(row.err - reference) < 1e-12 * reference

    def test_helstrom_pure_pair_closed_form(self, zero_state, plus_state):
        report = run_power_experiment([zero_state, plus_state], range(1, 13), "helstrom")
        for row in report.rows:
            expected = 0.5 * (1.0 - math.sqrt(1.0 - 0.5**row.n))
            assert abs(row.err - expected) < 1e-12

    def test_helstrom_mixed_pair_matches_dense(self):
        rng = np.random.default_rng(4)
        states = [random_density_matrix(2, rng), random_density_matrix(2, rng)]
        report = run_power_experiment(states, [3], "helstrom")
        powered = [kron_power(rho, 3) for rho in states]
        dense = evaluate_errors(powered, holevo_helstrom(*powered)).averaged
        assert abs(report.rows[0].err - dense) < 1e-9

    def test_helstrom_scores_eigenvalues_below_the_cut(self):
        # 1e-13 is below the zero cut of rho_0's spectrum; the cut decides
        # picks only, so the Helstrom minima keep it: err = (1/2) 1e-13^n on
        # the aligned pair, where cut values printed 0 and exponent inf
        tiny = DensityMatrix(np.diag([1.0 - 1e-13, 1e-13]).astype(complex))
        report = run_power_experiment([tiny, diagonal([0.0, 1.0])], [1, 2, 3], "helstrom")
        for row in report.rows:
            assert abs(row.err - 0.5 * 1e-13**row.n) < 1e-12 * 0.5 * 1e-13**row.n
        # the same state against a pure state that does not commute with it
        # takes the block route
        psi = np.array([1e-6, math.sqrt(1.0 - 1e-12)])
        for other in (diagonal([0.0, 1.0]), DensityMatrix(np.outer(psi, psi).astype(complex))):
            row = run_power_experiment([tiny, other], [1], "helstrom").rows[0]
            dense = evaluate_errors([tiny, other], holevo_helstrom(tiny, other)).averaged
            assert abs(row.err - dense) < 1e-15

    def test_helstrom_requires_two_states(self, zero_state, plus_state, one_state):
        with pytest.raises(ValueError):
            run_power_experiment([zero_state, plus_state, one_state], [1], "helstrom")

    def test_aligned_gs_equals_classical_ml_far_out(self, monkeypatch):
        # an absolute tie tolerance tied every value below 1e-12 to state 0,
        # so gs printed 0.667 = 1 - 1/r at n = 40, where classical-ml gives
        # 0.0353; at n = 200 a pick cut at 1e-12 times the top value to the
        # n also drops every class of some outcomes and gives 0.667 alone
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        states = [diagonal(row) for row in ([0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5])]
        gs = run_power_experiment(states, [40, 200], "gs").rows
        ml = run_power_experiment(states, [40, 200], "classical-ml").rows
        for gs_row, ml_row in zip(gs, ml, strict=True):
            assert abs(gs_row.err - ml_row.err) < 1e-12 * ml_row.err
        assert abs(ml[0].err - 0.0353) < 1e-4

    def test_aligned_rows_keep_their_digits_far_out(self, monkeypatch):
        # scored as one minus the mean success, these rows lost the error
        # itself: gs and classical-ml printed 6.127364996722e-06 at n = 200
        # (9.1e-10 relative off) and 3.62e-14 at n = 600 (85 % off)
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        rows = ((0.6, 0.4), (0.3, 0.7))
        states = [diagonal(row) for row in rows]
        by_kind = {
            kind: run_power_experiment(states, [200, 600], kind).rows
            for kind in ("gs", "classical-ml", "helstrom")
        }
        for index, n in enumerate((200, 600)):
            exact = exact_aligned_pair_error(rows, n)
            for kind_rows in by_kind.values():
                assert abs(kind_rows[index].err - exact) <= 1e-13 * exact
        assert by_kind["helstrom"] == [
            dataclasses.replace(row, detector="helstrom", error_bound=None, lambda_min_gram=None)
            for row in by_kind["classical-ml"]
        ]

    def test_rotated_commuting_family_matches_type_classes(self):
        # a common rotation leaves the family commuting to rounding, so it
        # runs the type classes of its common eigenbasis; the
        # Gelfand-Tsetlin blocks, called by name, agree at n = 6
        rows = ([0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5])
        rotation = random_orthonormal(3, 3, np.random.default_rng(7))
        plain = [diagonal(row) for row in rows]
        rotated = [DensityMatrix(rotation @ rho.mat @ rotation.conj().T) for rho in plain]
        for kind, r in (("gs", 3), ("epsilon", 3), ("helstrom", 2)):
            assert route(rotated[:r], kind) == "classes"
            turned = run_power_experiment(rotated[:r], [6], kind).rows[0]
            classes = run_power_experiment(plain[:r], [6], kind).rows[0]
            ((block, _),) = next(
                block_scores(rotated[:r], [6], [kind], {kind: [turned.epsilon or 0.0]})
            )
            assert abs(turned.err - classes.err) < 1e-12
            assert abs(block - classes.err) < 1e-12

    def test_classical_ml_matches_gs_on_commuting(self):
        # both families are aligned and take the type-class route; no two of
        # their states tie on a product value at n <= 6, so greedy labels
        # are maximum-likelihood labels
        qubits = [diagonal([0.7, 0.3]), diagonal([0.4, 0.6])]
        qutrits = [
            diagonal([0.5, 0.3, 0.2]), diagonal([0.15, 0.6, 0.25]), diagonal([0.35, 0.05, 0.6])
        ]
        for states in (qubits, qutrits):
            ml = run_power_experiment(states, range(1, 7), "classical-ml")
            gs = run_power_experiment(states, range(1, 7), "gs")
            for ml_row, gs_row in zip(ml.rows, gs.rows):
                assert abs(ml_row.err - gs_row.err) < 1e-12
                assert ml_row.lambda_min_gram == 1.0
        assert all(row.lambda_min_gram == 1.0 for row in gs.rows)

    def test_classical_ml_rejects_noncommuting(self, zero_state, plus_state):
        with pytest.raises(ValueError, match="commute"):
            run_power_experiment([zero_state, plus_state], [1], "classical-ml")

    def test_epsilon_rows_carry_schedule_and_floor(self, zero_state, plus_state):
        # the pure pair's overlap sum is 2 (1/2)^n; its cube root is clipped
        # at EPSILON_CLIP for n <= 2
        states = [zero_state, plus_state]
        report = run_power_experiment(states, range(1, 7), "epsilon")
        for row in report.rows:
            expected = min((2.0 * 0.5**row.n) ** (1.0 / 3.0), EPSILON_CLIP)
            assert row.epsilon == pytest.approx(expected)
            assert row.lambda_min_gram >= row.epsilon**2 * (1 - 1e-9)
            assert row.err <= row.error_bound + 1e-12

    def test_epsilon_override(self, zero_state, plus_state):
        report = run_power_experiment(
            [zero_state, plus_state], [2], "epsilon", epsilon_override=0.3
        )
        assert report.rows[0].epsilon == 0.3

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_epsilon_oracle_equivalence(self, seed):
        # the embedded run on materialized powers must reproduce the implicit
        # engine: the auxiliary-block rotation freedom never touches the
        # physical blocks
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        r = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.6))
        states = [
            random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))) for _ in range(r)
        ]
        row = run_power_experiment(
            states, [n], "epsilon", epsilon_override=eps
        ).rows[0]
        powered = [kron_power(rho, n) for rho in states]
        det, diag = epsilon_detector(powered, eps)
        dense_err = evaluate_errors(powered, det).averaged
        assert abs(row.err - dense_err) < 1e-9
        assert abs(row.lambda_min_gram - diag.lambda_min_gram) < 1e-9

    def test_cholesky_evaluation_panel_matches_dense(self):
        # epsilon rows of families that are not aligned are scored through
        # the Cholesky factor of each block's embedded Gram; the panel holds
        # epsilon rows well above the epsilon floor (where Gram coordinates
        # fix err only to ~5e-11), next to qutrit gs rows whose picked block
        # Grams are well conditioned.
        rng = np.random.default_rng(8)
        epsilon_rows = gs_rows = 0
        while epsilon_rows < 20 or gs_rows < 20:
            n = int(rng.integers(1, 4))
            if epsilon_rows <= gs_rows:
                d = int(rng.integers(2, 4))
                r = int(rng.integers(2, 5))
                eps = float(rng.uniform(0.1, 0.6))
                states = [
                    random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
                    for _ in range(r)
                ]
                row = run_power_experiment(
                    states, [n], "epsilon", epsilon_override=eps
                ).rows[0]
                powered = [kron_power(rho, n) for rho in states]
                det, diag = epsilon_detector(powered, eps)
                assert abs(row.lambda_min_gram - diag.lambda_min_gram) < 1e-12
                epsilon_rows += 1
            else:
                r = int(rng.integers(2, 4))
                states = [
                    random_density_matrix(3, rng, rank=int(rng.integers(1, 4)))
                    for _ in range(r)
                ]
                row = run_power_experiment(states, [n], "gs").rows[0]
                if row.lambda_min_gram < 1e-4:
                    continue
                assert row.lambda_min_gram < 1.0 - 1e-6
                powered = [kron_power(rho, n) for rho in states]
                det, _ = gs_detector(powered)
                gs_rows += 1
            assert abs(row.err - evaluate_errors(powered, det).averaged) < 1e-12

    def test_borderline_residual_is_kept_when_genuinely_independent(self):
        # overlap so close to 1 that the residual, 1e-4, is tiny but still
        # above the 1e-9 span tolerance, so the vector is kept
        gap = 1e-4
        vec = np.array([math.sqrt(1.0 - gap**2), gap], dtype=complex)
        states = [pure([1.0, 0.0]), DensityMatrix(np.outer(vec, vec.conj()))]
        row = run_power_experiment(states, [1], "gs").rows[0]
        det, diag = gs_detector(states)
        dense_err = evaluate_errors(states, det).averaged
        exact = 0.5 - gap**2 / 2.0
        assert abs(dense_err - exact) < 1e-12
        assert abs(row.err - exact) < 1e-6
        assert abs(row.lambda_min_gram - diag.lambda_min_gram) < 1e-12
        assert 0.0 < row.lambda_min_gram < 1e-6

    def test_classical_ml_power_matches_dense_rule(self):
        # the per-type-class argmax equals the iterative exclusion rule on the
        # materialized product distributions
        panel = [[diagonal([0.7, 0.3]), diagonal([0.4, 0.6]), diagonal([0.1, 0.9])]]
        panel += list(aligned_families(8, seed=41))
        for states in panel:
            n = 4 if states[0].dim == 2 else 3
            report = run_power_experiment(states, [n], "classical-ml")
            assert abs(report.rows[0].err - classical_ml_power_error(states, n)) < 1e-12

    def test_aligned_families_match_dense_detectors(self):
        # aligned families score one term per type class; the references are
        # the dense detectors on explicit Kronecker powers
        for states in aligned_families(12, seed=40):
            d, r = states[0].dim, len(states)
            for n in range(1, {2: 4, 3: 3, 4: 2}[d] + 1):
                powered = [kron_power(rho, n) for rho in states]
                gs_row = run_power_experiment(states, [n], "gs").rows[0]
                assert abs(gs_row.err - dense_gs_error(states, n)) < 1e-12
                assert gs_row.lambda_min_gram == 1.0
                eps_row = run_power_experiment(states, [n], "epsilon", epsilon_override=0.3).rows[0]
                det, diag = epsilon_detector(powered, 0.3)
                assert abs(eps_row.err - evaluate_errors(powered, det).averaged) < 1e-12
                assert abs(eps_row.lambda_min_gram - diag.lambda_min_gram) < 1e-12
                if r == 2:
                    row = run_power_experiment(states, [n], "helstrom").rows[0]
                    dense = evaluate_errors(powered, holevo_helstrom(*powered)).averaged
                    assert abs(row.err - dense) < 1e-12

    def test_claim_weights_match_class_cholesky(self):
        # w_c = |1^T R^-1 e_c|^2 for the Cholesky factor R of one type
        # class's embedded Gram matrix delta^2 J + epsilon^2 I (at these
        # epsilon the double-precision factor is accurate to ~1e-14)
        for eps in (0.1, 0.3, EPSILON_CLIP):
            for c in range(1, 7):
                gram = (1.0 - eps * eps) * np.ones((c, c)) + eps * eps * np.eye(c)
                factor = np.linalg.cholesky(gram).T
                expected = np.abs(np.ones(c) @ np.linalg.inv(factor)) ** 2
                np.testing.assert_allclose(_claim_weights(c, eps), expected, rtol=1e-12)

    def test_sweep_rows_equal_single_copy_number_rows(self, monkeypatch):
        # a sweep scores its classes in groups of consecutive n; each of its
        # rows must be the row of a sweep of that n alone, field by field
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))

        def check(states, ns, kind, **options):
            sweep = run_power_experiment(states, ns, kind, **options)
            for row in sweep.rows:
                alone = run_power_experiment(states, [row.n], kind, **options)
                assert dataclasses.asdict(row) == dataclasses.asdict(alone.rows[0])

        for states in sweep_families(24, seed=60):
            # rotated or not, each commutes to rounding: a family of rank-one
            # states takes the pure route, every other one the type classes
            assert route(states) == ("classes" if tensorlab._pure_tops(states) is None else "pure")
            ns = range(1, {2: 24, 3: 12, 4: 8}[states[0].dim] + 1)
            for kind in ("gs", "epsilon", "classical-ml"):
                check(states, ns, kind)
            check(states, ns, "epsilon", epsilon_override=0.2)
            if len(states) == 2:
                check(states, ns, "helstrom")
        # qubit blocks come by N = n - 2h across the sweep, so a row's
        # blocks arrive in another order than alone
        rng = np.random.default_rng(65)
        for r in (2, 3):
            states = [random_density_matrix(2, rng) for _ in range(r)]
            assert route(states) == "blocks"
            for kind in ("gs", "epsilon"):
                check(states, range(1, 17), kind)
            check(states, range(1, 17), "epsilon", epsilon_override=0.2)
            if r == 2:
                check(states, range(1, 17), "helstrom")
        for states in pure_families(6, seed=61):
            assert route(states) == "pure"
            for kind in ("gs", "epsilon"):
                check(states, range(1, 7), kind)
            check(states, range(1, 7), "epsilon", epsilon_override=0.2)
            if len(states) == 2:
                check(states, range(1, 7), "helstrom")
        # a non-aligned qutrit pair, on the blocks past n = 3
        rng = np.random.default_rng(62)
        states = [random_density_matrix(3, rng) for _ in range(2)]
        assert route(states) == "blocks"
        for kind in ("gs", "epsilon", "helstrom"):
            check(states, range(1, 6), kind)
        # one sweep past one class group
        states = [
            diagonal([0.6, 0.4]),
            diagonal(np.array([0.4, 0.6]) * (1.0 + 1e-13)),
            diagonal([0.75, 0.25]),
        ]
        assert len(list(_class_groups(2, range(1, 401)))) > 1
        for kind in ("gs", "epsilon"):
            check(states, range(1, 401), kind)

    def test_sweep_over_the_dimension_cap_raises(self, monkeypatch):
        # the cap names the smallest n over it, before any row is scored
        monkeypatch.setenv(DENSE_LIMIT_ENV, "16")
        states = [diagonal([0.6, 0.4]), diagonal([0.3, 0.7])]
        for kind in DETECTOR_KINDS:
            with pytest.raises(DimensionLimitError, match=r"2\*\*5 exceeds the dense limit 16"):
                run_power_experiment(states, range(1, 7), kind)

    def test_multiplicities_past_the_float_range_raise(self, monkeypatch):
        # with the cap lifted, a class size (type-class route) and a block's
        # f_lam (block route, helstrom alone pops no class) leave the float
        # range at n = 1100; both name n, and the block route raises before
        # it builds any unitary
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))

        def unbuilt(*args):
            raise AssertionError("a unitary was built")

        diagonals = [diagonal([0.9, 0.1]), diagonal([0.3, 0.7])]
        rng = np.random.default_rng(15)
        mixed = [random_density_matrix(2, rng) for _ in range(2)]
        assert route(mixed) == "blocks"
        monkeypatch.setattr(schurweyl, "symmetric_powers", unbuilt)
        for states, kind in ((diagonals, "classical-ml"), (mixed, "helstrom")):
            with pytest.raises(DimensionLimitError, match=r"at n = 1100 exceeds the float range"):
                run_power_experiment(states, [1100], kind)

    def test_dense_limit_names_the_smallest_n_over_the_cap(self, monkeypatch):
        # a range of either step direction is read from its bounds, any
        # other iterable walked; all name the same n as a walk over dim**n
        monkeypatch.setenv(DENSE_LIMIT_ENV, "100")
        shapes = itertools.product((2, 3), range(-2, 9), range(0, 12), (1, 2, 3))
        for dim, start, stop, step in shapes:
            ns = range(start, stop, step)
            over = [n for n in ns if dim**n > 100]
            for given in (ns, ns[::-1], list(ns)[::-1]):
                if over:
                    message = rf"^{dim}\*\*{min(over)} exceeds the dense limit 100$"
                    with pytest.raises(DimensionLimitError, match=message):
                        check_dense_limit(dim, given)
                else:
                    check_dense_limit(dim, given)
        for far in (range(1, 10**300), range(3, 10**300, 4)):
            with pytest.raises(DimensionLimitError, match=r"2\*\*7 exceeds the dense limit 100"):
                check_dense_limit(2, far)

    def test_block_sweep_takes_one_unitary_log(self, monkeypatch):
        # the base eigenbases' logarithms are taken once per call, not per n
        calls = count_unitary_logs(monkeypatch)
        rng = np.random.default_rng(63)
        states = [random_density_matrix(3, rng, rank=int(rng.integers(2, 4))) for _ in range(2)]
        assert route(states) == "blocks"
        for kind in ("gs", "epsilon", "helstrom"):
            calls.clear()
            run_power_experiment(states, range(1, 5), kind)
            assert calls == [(2, 3, 3)]

    def test_mixed_dimensions_are_rejected(self):
        # before any route reads the spectra
        states = [diagonal([0.6, 0.4]), diagonal([0.2, 0.3, 0.5])]
        for kind in DETECTOR_KINDS:
            with pytest.raises(ValueError, match="states must share one dimension"):
                run_power_experiment(states, [1, 2], kind)

    def test_commuting_triple_at_the_dimension_cap(self):
        # 2^14 = 16384 is the default cap; a Gram matrix over every product
        # eigenvector would be 49152 x 49152 here
        states = [diagonal([0.6, 0.4]), diagonal([0.25, 0.75]), diagonal([0.9, 0.1])]
        for kind in ("gs", "epsilon"):
            start = time.perf_counter()
            row = run_power_experiment(states, [14], kind).rows[0]
            assert time.perf_counter() - start < 1.0
            assert 0.0 <= row.err <= 1.0 - 1.0 / len(states)
            assert row.err <= row.error_bound

    @pytest.mark.xfail(
        strict=True,
        reason="OverlapCurve drops eigenvalues under the 1e-12 relative cut, so q* = 0 "
        "and the Lemma-3 bound prints 0.0, while the detectors score the uncut masses",
    )
    def test_bound_covers_masses_under_the_eigenvalue_cut(self):
        states = [diagonal([1e-13, 1.0 - 1e-13]), diagonal([1.0 - 1e-13, 1e-13])]
        for row in run_power_experiment(states, [1, 2, 3], "gs", "classical-ml").rows:
            assert 0.0 < row.err <= row.error_bound, (row.detector, row.n)
        det, diagnostics = gs_detector(states)
        assert evaluate_errors(states, det).averaged <= gs_error_bound(states, diagnostics)

    def test_unknown_kind(self, zero_state, plus_state):
        with pytest.raises(ValueError, match="kind"):
            run_power_experiment([zero_state, plus_state], [1], "bogus")

    def test_rows_unique_by_n_and_kind(self, zero_state, plus_state):
        report = run_power_experiment([zero_state, plus_state], [1, 2, 2, 3], "gs")
        assert [row.n for row in report.rows] == [1, 2, 3]

    def test_orthogonal_pair_reports_infinite_exponent(self, zero_state, one_state):
        report = run_power_experiment([zero_state, one_state], [1, 2], "gs")
        for row in report.rows:
            assert row.err == 0.0
            assert math.isinf(row.exponent)

    @pytest.mark.parametrize(
        "n_range",
        [[2.5], [np.float64(3.9)], [3.0], [True, 3], [np.bool_(True)], [0], [-1]],
    )
    @pytest.mark.parametrize("entry", ["run_power_experiment", "gram_convergence_check"])
    def test_copy_numbers_must_be_positive_integers(self, zero_state, plus_state, entry, n_range):
        # a float or a bool is rejected rather than truncated to an int
        states = [zero_state, plus_state]
        with pytest.raises(ValueError, match="positive integers"):
            if entry == "run_power_experiment":
                run_power_experiment(states, n_range, "gs")
            else:
                gram_convergence_check(states, n_range)

    def test_numpy_integer_copy_numbers(self, zero_state, plus_state):
        states = [zero_state, plus_state]
        ns = np.arange(1, 4)
        report = run_power_experiment(states, ns, "gs")
        assert [row.n for row in report.rows] == [1, 2, 3]
        assert all(type(row.n) is int for row in report.rows)
        assert gram_convergence_check(states, ns) == gram_convergence_check(states, [1, 2, 3])


class TestManyKindsInOnePass:
    @staticmethod
    def check(states, ns, kinds, **options):
        """One call on ``kinds`` gives, kind by kind in the order given, the
        rows of each kind alone, field by field."""
        together = run_power_experiment(states, ns, *kinds, **options)
        alone = [
            row for kind in kinds for row in run_power_experiment(states, ns, kind, **options).rows
        ]
        assert [row.detector for row in together.rows] == [kind for kind in kinds for _ in ns]
        assert [dataclasses.asdict(row) for row in together.rows] == [
            dataclasses.asdict(row) for row in alone
        ]

    def check_all_orders(self, states, ns, kinds, rng):
        for options in ({}, {"epsilon_override": 0.2}):
            self.check(states, ns, [kinds[k] for k in rng.permutation(len(kinds))], **options)

    def test_rows_equal_single_kind_rows_on_every_route(self):
        rng = np.random.default_rng(90)
        every = ("gs", "epsilon", "helstrom", "classical-ml")
        # aligned: diagonal, and turned by one common phased permutation
        for states in aligned_families(6, seed=91):
            kinds = every if len(states) == 2 else every[:2] + every[3:]
            self.check_all_orders(states, range(1, 7), kinds, rng)
            turn = np.eye(states[0].dim)[rng.permutation(states[0].dim)]
            turned = [DensityMatrix(turn @ rho.mat @ turn.T) for rho in states]
            assert route(turned) == "classes"
            self.check_all_orders(turned, range(1, 7), kinds, rng)
        # epsilon's pick cut drops classes that gs picks, so their ranks differ
        steep = [diagonal([0.4, 0.6]), diagonal([1.0 - 1e-7, 1e-7]), diagonal([0.7, 0.3])]
        self.check_all_orders(steep, range(1, 7), every[:2] + every[3:], rng)
        # commuting to rounding in a rotated basis: every kind on the type
        # classes of the common eigenbasis, but gs, epsilon and helstrom of
        # rank-one states on the pure route
        rows = ([0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5])
        rotation = random_orthonormal(3, 3, rng)
        rotated = [DensityMatrix(rotation @ np.diag(row) @ rotation.conj().T) for row in rows]
        orthogonal = [
            DensityMatrix(rotation @ np.diag(row) @ rotation.conj().T) for row in np.eye(3)[:2]
        ]
        # commuting within COMMUTATOR_ATOL but not to rounding: classical-ml
        # on the common eigenbasis, the other kinds on the blocks
        bump = np.zeros((3, 3))
        bump[0, 1] = bump[1, 0] = 1e-12
        nearly = [rotated[0], DensityMatrix(rotated[1].mat + bump)]
        assert route(nearly) == "blocks" and route(nearly, "classical-ml") == "classes"
        for states in (rotated, rotated[:2], orthogonal, nearly):
            assert route(states, "classical-ml") == "classes"
            kinds = every if len(states) == 2 else every[:2] + every[3:]
            self.check_all_orders(states, range(1, 5), kinds, rng)
        assert (route(rotated), route(orthogonal)) == ("classes", "pure")
        # pure, not commuting
        for states in pure_families(4, seed=92):
            assert route(states) == "pure"
            kinds = every[:3] if len(states) == 2 else every[:2]
            self.check_all_orders(states, range(1, 7), kinds, rng)
        # the blocks
        pair = [random_density_matrix(3, rng) for _ in range(2)]
        triple = [random_density_matrix(2, rng) for _ in range(3)]
        for states, kinds in ((pair, every[:3]), (triple, every[:2])):
            assert route(states) == "blocks"
            self.check_all_orders(states, range(1, 5), kinds, rng)

    def test_aligned_rows_equal_single_kind_rows_for_every_kind_list(self):
        # every subset of the kinds in every order, on aligned families with
        # a zero eigenvalue and exact ties, scored in one stacked pass
        for states in aligned_families(4, seed=94):
            every = ("gs", "epsilon", "helstrom", "classical-ml")
            every = every if len(states) == 2 else every[:2] + every[3:]
            for count in range(1, len(every) + 1):
                for kinds in itertools.permutations(every, count):
                    self.check(states, range(1, 6), kinds)
                    if "epsilon" in kinds:
                        self.check(states, range(1, 6), kinds, epsilon_override=0.2)

    def test_groups_bound_the_stacked_terms(self, monkeypatch):
        # every kind of a group is scored in one stacked pass, so a group of
        # several n holds at most CLASS_GROUP_LIMIT (kind, type class) terms
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        seen = []
        plain = tensorlab._class_group_scores

        def recording(rows, cut_rows, ns, kinds, epsilons, floors):
            seen.append((list(ns), len(kinds)))
            return plain(rows, cut_rows, ns, kinds, epsilons, floors)

        monkeypatch.setattr(tensorlab, "_class_group_scores", recording)
        states = [diagonal([0.6, 0.4]), diagonal([0.3, 0.7])]
        groups = []
        for kinds in (("gs",), DETECTOR_KINDS):
            seen.clear()
            run_power_experiment(states, range(1, 401), *kinds)
            assert [n for ns, _ in seen for n in ns] == list(range(1, 401))
            for ns, count in seen:
                assert count == len(kinds)
                assert len(ns) == 1 or count * sum(n + 1 for n in ns) <= CLASS_GROUP_LIMIT
            groups.append(len(seen))
        assert groups[1] > 3 * groups[0]

    @pytest.mark.parametrize(
        ("family", "kinds", "message"),
        [
            ("triple", ("gs", "helstrom"), "helstrom runs on exactly two hypotheses"),
            ("pure pair", ("gs", "epsilon", "classical-ml"), "do not commute"),
            ("pure pair", ("gs", "epsilon", "gs"), "'gs' is listed twice"),
            ("pure pair", ("helstrom", "bogus"), "unknown detector kind 'bogus'"),
            ("pure pair", (), "at least one detector kind"),
        ],
    )
    def test_every_kind_is_checked_before_any_row(
        self, zero_state, plus_state, one_state, monkeypatch, family, kinds, message
    ):
        def no_scores(*args):
            raise AssertionError("no row may be scored for a rejected call")

        for name in ("_type_class_scores", "_pure_scores", "block_scores"):
            monkeypatch.setattr(tensorlab, name, no_scores)
        monkeypatch.setattr(schurweyl, "_sweep_blocks", no_scores)
        states = [zero_state, plus_state] + ([one_state] if family == "triple" else [])
        with pytest.raises(ValueError, match=message):
            run_power_experiment(states, range(1, 4), *kinds)

    def test_block_run_builds_each_unitary_once(self, monkeypatch):
        # gs, epsilon and helstrom share every pi_lam(U), and every lam reads
        # its reduced shape's; helstrom needs all
        built = collections.Counter()
        plain = schurweyl.block_unitary

        def counting(lam, h):
            built[lam] += 1
            return plain(lam, h)

        rng = np.random.default_rng(93)
        states = [random_density_matrix(3, rng) for _ in range(2)]
        assert route(states) == "blocks"
        monkeypatch.setattr(schurweyl, "block_unitary", counting)
        ns = range(1, 6)
        run_power_experiment(states, ns, "gs", "epsilon", "helstrom")
        shapes = {lam for n in ns for lam in schurweyl.partitions(n, 3)}
        reduced = {tuple(part - lam[-1] for part in lam) for lam in shapes}
        assert (len(shapes), len(reduced)) == (1 + 2 + 3 + 4 + 5, 12)
        assert built == collections.Counter(reduced)


class TestCommutingVerdict:
    """One ``_common_diagonals`` call per sweep decides every route: a
    family that commutes to rounding runs every kind on the type classes of
    its common eigenbasis, exact at any n for a commuting family in any
    basis; classical-ml reads those rows wherever they exist."""

    @staticmethod
    def turned(rows, turn):
        return [DensityMatrix(turn @ np.diag(row) @ turn.conj().T) for row in rows]

    def test_rotated_commuting_families_match_their_diagonal_rows_far_out(self, monkeypatch):
        # a common unitary leaves every err as it is, so the diagonal
        # family's rows are exact references: the qubit pair to n = 200
        # (the blocks' Helstrom row is 1.4 relative off at n = 140, see the
        # strict xfail below), a qutrit pair to n = 14 and a cyclic qutrit
        # triple to n = 12
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        every = ("gs", "epsilon", "helstrom", "classical-ml")
        pair = ([0.9, 0.1], [0.3, 0.7])
        panel = [(pair, random_orthonormal(2, 2, np.random.default_rng(123)), 200)]
        for seed in (7, 8):
            turn = random_orthonormal(3, 3, np.random.default_rng(seed))
            panel.append((([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]), turn, 14))
            panel.append((([0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]), turn, 12))
        for rows, turn, n_max in panel:
            kinds = every if len(rows) == 2 else every[:2] + every[3:]
            states = self.turned(rows, turn)
            assert route(states) == "classes"
            ns = range(1, n_max + 1)
            exact = run_power_experiment([diagonal(row) for row in rows], ns, *kinds).rows
            found = run_power_experiment(states, ns, *kinds).rows
            for row, reference in zip(found, exact, strict=True):
                assert abs(row.err - reference.err) <= 1e-13 * reference.err, row

    @pytest.mark.xfail(
        strict=True,
        reason="the block Helstrom frame comes from eigh of the formed difference, whose "
        "eigenvectors carry an absolute rounding error that far-out errors fall below",
    )
    def test_block_helstrom_of_a_rotated_pair_far_out(self, monkeypatch):
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        rows = ((0.9, 0.1), (0.3, 0.7))
        states = self.turned(rows, random_orthonormal(2, 2, np.random.default_rng(123)))
        ((err, _),) = next(block_scores(states, [140], ["helstrom"], {"helstrom": [0.0]}))
        exact = exact_aligned_pair_error(rows, 140)
        assert abs(err - exact) <= 1e-12 * exact

    def test_a_nearly_orthogonal_pure_pair_stays_on_the_pure_route(self):
        # its commutator, 1e-10, is inside COMMUTATOR_ATOL but far above
        # rounding: the common basis drops the off-diagonal 1e-10 that
        # carries half of Helstrom's 2.5e-21, which type classes would
        # print as 5.0e-21. classical-ml, exact after measuring in that
        # basis, still reads its rows
        states = [pure([1.0, 0.0]), pure([1e-10, 1.0])]
        for kind in ("gs", "epsilon", "helstrom"):
            assert route(states, kind) == "pure"
        assert route(states, "classical-ml") == "classes"
        (row,) = run_power_experiment(states, [1], "classical-ml").rows
        assert abs(row.err - 5.0e-21) <= 1e-15 * 5.0e-21

    def test_helstrom_of_a_pure_pair_that_commutes_to_rounding(self):
        # its commutator is under 2 eps, but a rank-one family takes the pure
        # route first: type classes would drop the off-diagonal entries at
        # rounding level and print 5.0e-35 against 1/2 (1 - sqrt(1 - F)) = 2.5e-35
        states = [pure([1.0, 0.0]), pure([1e-17, 1.0])]
        assert route(states, "helstrom") == "pure"
        (row,) = run_power_experiment(states, [1], "helstrom").rows
        fidelity = 1e-17**2
        exact = fidelity / (2.0 * (1.0 + math.sqrt(1.0 - fidelity)))
        assert abs(row.err - exact) <= 1e-12 * exact

    def test_a_pair_that_commutes_without_a_stable_common_basis_runs_the_blocks(self):
        # eigenvalues 1e-9 apart under a random rotation: the commutator is
        # at rounding level, but eigh fixes the two eigenvectors only to
        # ~eps / 1e-9, so state 1 is not diagonal in the refined basis to
        # COMMON_BASIS_ATOL. gs and helstrom keep the blocks, and
        # classical-ml, which needs that basis, raises
        rotation = random_orthonormal(3, 3, np.random.default_rng(0))
        states = self.turned(([0.3, 0.3 + 1e-9, 0.4 - 1e-9], [0.2, 0.5, 0.3]), rotation)
        product = states[0].mat @ states[1].mat
        assert np.abs(product - product.conj().T).max() <= EPS
        with pytest.raises(NumericalConsistencyError, match="not diagonal"):
            run_power_experiment(states, [1], "classical-ml")
        for kind in ("gs", "helstrom"):
            assert route(states, kind) == "blocks"

    def test_a_degenerate_commuting_family_reads_its_common_basis(self):
        # state 0 is degenerate on modes 2 and 3, where state 1 is turned by
        # 0.4: on the blocks each state keeps its own eigh basis there, so gs
        # picks overlapping product vectors, and lambda_min_gram is 3.3e-7
        # at n = 8. The common basis is an eigenbasis of every
        # power, as the paper's gs detector allows, and its picks are
        # orthonormal: lambda_min_gram 1.0, with every err unchanged
        turn = np.eye(3)
        turn[1:, 1:] = [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]]
        states = [diagonal([0.5, 0.25, 0.25]), self.turned(([0.2, 0.3, 0.5],), turn)[0]]
        ns = range(1, 9)
        for kind in ("gs", "epsilon", "helstrom"):
            assert route(states, kind) == "classes"
            rows = run_power_experiment(states, ns, kind).rows
            epsilons = [row.epsilon or 0.0 for row in rows]
            blocks = [score for (score,) in block_scores(states, ns, [kind], {kind: epsilons})]
            for row, (err, lam_min) in zip(rows, blocks, strict=True):
                assert abs(row.err - err) <= 1e-14 * err
            if kind == "gs":
                assert all(row.lambda_min_gram == 1.0 for row in rows)
                assert 1e-7 < lam_min < 1e-6


class TestNearTies:
    def test_three_state_near_tie_matches_the_dense_detectors(self):
        # state 2's class-0 value is 0.5e-12 above state 1's, and state 0's
        # head of class 1 lies 0.8e-12 below both: within class 0 alone
        # state 1 leads, but in the global merge state 0's head lets state 2
        # pop first, as in the dense detectors
        y = 0.6 * (1.0 - 0.8e-12)
        states = [
            diagonal([0.3, y, 0.7 - y]),
            diagonal([0.6, 0.3, 0.1]),
            diagonal([0.6 * (1.0 + 0.5e-12), 0.1, 0.3 - 0.3e-12]),
        ]
        assert route(states) == "classes"
        for n in (1, 2, 3):
            powers = [kron_power(rho, n) for rho in states]
            gs = evaluate_errors(powers, gs_detector(powers)[0]).averaged
            epsilon = evaluate_errors(powers, epsilon_detector(powers, 0.3)[0]).averaged
            (gs_row,) = run_power_experiment(states, [n], "gs").rows
            (epsilon_row,) = run_power_experiment(
                states, [n], "epsilon", epsilon_override=0.3
            ).rows
            assert abs(gs_row.err - gs) <= 1e-15
            assert abs(epsilon_row.err - epsilon) <= 1e-15
        # the column's own merge gave 0.50000000000026 and 0.5175342542054165
        (gs_row,) = run_power_experiment(states, [1], "gs").rows
        assert gs_row.err == evaluate_errors(states, gs_detector(states)[0]).averaged

    def test_flagged_classes_take_the_pop_order(self, monkeypatch):
        # r = 3-4 diagonal rows, the later ones permutations of row 0 each
        # entry a 1e-13 (inside SELECTION_TIE_RTOL) or 3e-12 (outside)
        # relative step off, or exact: on every class the sort flags, the
        # ranks are each state's place among that class's pops in
        # ``_class_pops``, which merges once per flagged n; every other
        # column keeps the sort's ranks
        import qmht.detectors

        merges = []

        def counted(streams):
            merges.append(1)
            return greedy_order(streams)

        monkeypatch.setattr(qmht.detectors, "greedy_order", counted)
        rng = np.random.default_rng(34)
        flagged_total = reordered = 0
        for _ in range(60):
            d, r = int(rng.integers(2, 5)), int(rng.integers(3, 5))
            row = rng.dirichlet(np.ones(d))
            rows = [row]
            for _ in range(r - 1):
                steps = rng.choice([0.0, 1e-13, -1e-13, 3e-12], size=d)
                rows.append(row[rng.permutation(d)] * (1.0 + steps))
            cut_rows = np.array([cut_spectrum(q / q.sum()) for q in rows])
            ns = list(range(1, 6))
            classes = [type_classes(d, n) for n in ns]
            starts = np.cumsum([0] + [len(sizes) for _, sizes in classes])
            slots = np.repeat(np.arange(len(ns)), np.diff(starts))
            cut_values = _class_values(cut_rows, classes)
            for kind in ("gs", "epsilon"):
                floors = class_pick_cut(cut_rows, ns, kind)
                present = cut_values > floors[slots]
                sorted_ranks, flagged = greedy_ranks(cut_values, present)
                before = len(merges)
                ranks = _pick_ranks(cut_rows, ns, floors, cut_values, present, starts)
                assert len(merges) - before == len(set(slots[flagged].tolist()))
                for m in range(cut_values.shape[1]):
                    if m not in flagged:
                        assert ranks[:, m].tolist() == sorted_ranks[:, m].tolist()
                        continue
                    i = slots[m]
                    [(owners, index)] = _class_pops(ns[i], cut_rows, [floors[i]])
                    expected = np.full(r, -1)
                    claimants = owners[index == m - starts[i]]
                    expected[claimants] = np.arange(len(claimants))
                    assert ranks[:, m].tolist() == expected.tolist()
                    reordered += expected.tolist() != sorted_ranks[:, m].tolist()
                flagged_total += len(flagged)
        assert flagged_total > 100
        assert reordered > 0


class TestPureRoute:
    def test_rows_match_the_block_route(self, monkeypatch):
        # same picks and lambda_min_gram to 1e-12 relative. Each row is within
        # n 1e-15 of a 50-digit evaluation (n 5.6e-16 on 280 such families),
        # and the block row within the mass the route drops, n max_s tail_s,
        # plus the blocks' own rounding, n 1.5e-15 (up to n 1e-15 beyond the
        # dropped mass on 140 families, seed 80)
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(4**8))
        picks = []
        gs_frame, epsilon_frame = detectors._gs_frame, detectors._epsilon_frame

        def recording_gs(owners, vectors):
            picked, *rest = gs_frame(owners, vectors)
            picks.append(owners[picked].tolist())
            return picked, *rest

        def recording_epsilon(owners, vectors, epsilon):
            picks.append(owners.tolist())
            return epsilon_frame(owners, vectors, epsilon)

        monkeypatch.setattr(detectors, "_gs_frame", recording_gs)
        monkeypatch.setattr(detectors, "_epsilon_frame", recording_epsilon)
        ns = range(1, 9)
        for states in pure_families(16, seed=80):
            assert route(states) == "pure"
            tail = largest_tail(states)
            for kind in ("gs", "epsilon", "helstrom")[: 2 if len(states) > 2 else 3]:
                eps = 0.3 if kind == "epsilon" else 0.0
                picks.clear()
                scores = block_scores(states, ns, [kind], {kind: [eps] * len(ns)})
                blocks = [score for (score,) in scores]
                block_picks = picks[:]
                picks.clear()
                options = {"epsilon_override": eps} if kind == "epsilon" else {}
                rows = run_power_experiment(states, ns, kind, **options).rows
                assert picks == block_picks
                assert len(picks) == (0 if kind == "helstrom" else len(ns))
                for row, (err, lam_min) in zip(rows, blocks, strict=True):
                    reference = mp_pure_error(states, row.n, kind, eps)
                    assert abs(row.err - reference) <= row.n * 1e-15, (kind, row.n)
                    assert abs(row.err - err) <= row.n * (tail + 1.5e-15), (kind, row.n)
                    if lam_min is not None:
                        assert abs(row.lambda_min_gram - lam_min) <= 1e-12 * lam_min

    def test_rows_match_dense_kronecker_powers(self):
        # every d^n <= 729, on (d, r) = (2, 3), (2, 4), (4, 4), (3, 3), (4, 2)
        for states in pure_families(5, seed=81):
            d = states[0].dim
            for n in itertools.takewhile(lambda n: d**n <= 729, itertools.count(1)):
                powered = [kron_power(rho, n) for rho in states]
                gs = run_power_experiment(states, [n], "gs").rows[0]
                dense = evaluate_errors(powered, gs_detector(powered)[0]).averaged
                assert abs(gs.err - dense) < 1e-12
                eps = run_power_experiment(states, [n], "epsilon", epsilon_override=0.3).rows[0]
                det, diag = epsilon_detector(powered, 0.3)
                assert abs(eps.err - evaluate_errors(powered, det).averaged) < 1e-12
                assert abs(eps.lambda_min_gram - diag.lambda_min_gram) < 1e-12
                if len(states) == 2:
                    row = run_power_experiment(states, [n], "helstrom").rows[0]
                    dense = evaluate_errors(powered, holevo_helstrom(*powered)).averaged
                    assert abs(row.err - dense) < 1e-12

    def test_helstrom_closed_form(self):
        # (1/2)(1 - sqrt(1 - g)), g = |<psi_0|psi_1>|^(2n), on random pairs
        rng = np.random.default_rng(82)
        for d in (2, 3, 4):
            vectors = [random_state_vector(d, rng) for _ in range(2)]
            states = [pure(v) for v in vectors]
            overlap = abs(np.vdot(*vectors)) ** 2
            for row in run_power_experiment(states, range(1, 7), "helstrom").rows:
                expected = 0.5 * (1.0 - math.sqrt(1.0 - overlap**row.n))
                assert abs(row.err - expected) < 1e-15
        # nearly parallel pairs, 1 - g ~ 1e-17, whose computed overlap can
        # round above 1: err is 1/2 up to its own conditioning, sqrt(eps)
        for _ in range(20):
            vector, turn = random_orthonormal(3, 2, rng).T
            states = [pure(vector), pure(vector + 3e-9 * turn)]
            assert route(states) == "pure"
            for row in run_power_experiment(states, [1, 2], "helstrom").rows:
                assert abs(row.err - 0.5) < 1e-7

    def test_helstrom_keeps_the_digits_of_a_nearly_parallel_pair(self):
        # 1 - g ~ 4e-18 comes from t = 1 - overlap, not from 1 - g, which
        # rounds to 0 and printed err 0.5. References: (1/2)(1 - sqrt(1 - F^n))
        # in 50 digits, F = ((1 - x^2) / (1 + x^2))^2 for x the double 1e-9
        states = [pure([1.0, 1e-9]), pure([1.0, -1e-9])]
        x = mpmath.mpf(1e-9)
        with mpmath.workdps(50):
            overlap = ((1 - x * x) / (1 + x * x)) ** 2
            closed = [float((1 - mpmath.sqrt(1 - overlap**n)) / 2) for n in (1, 2, 3)]
        rows = run_power_experiment(states, [1, 2, 3], "helstrom").rows
        for row, expected in zip(rows, closed, strict=True):
            powered = [kron_power(rho, row.n) for rho in states]
            dense = evaluate_errors(powered, holevo_helstrom(*powered)).averaged
            assert abs(row.err - expected) <= 1e-15 * expected, row.n
            assert abs(row.err - dense) <= 1e-15 * expected, row.n

    def test_helstrom_keeps_the_digits_of_a_nearly_orthogonal_pair(self):
        # g = |<psi_0|psi_1>|^(2n) ~ 1e-20n stays the overlap's power, where
        # 1 - (1 - g) would round it to 0. References: the same closed form
        # as g / (2 (1 + sqrt(1 - g))) in 50 digits, x the double 1e-10
        states = [pure([1.0, 0.0]), pure([1e-10, 1.0])]
        x = mpmath.mpf(1e-10)
        with mpmath.workdps(50):
            overlap = x * x / (1 + x * x)
            closed = [
                float(overlap**n / (2 * (1 + mpmath.sqrt(1 - overlap**n)))) for n in (1, 2, 3)
            ]
        rows = run_power_experiment(states, [1, 2, 3], "helstrom").rows
        for row, expected in zip(rows, closed, strict=True):
            assert abs(row.err - expected) <= 1e-15 * expected, row.n

    def test_helstrom_overlap_power_is_no_farther_than_the_rounded_inner_product(self):
        # g = |<psi_0|psi_1>|^(2n) at n = 1, 8, 32 on 200 pure pairs, with
        # t = 1 - |<psi_0|psi_1>|^2 spread over [1e-12, 1 - 1e-12]: no g is
        # farther from a 50-digit evaluation on the route's own double
        # vectors than the power of the rounded inner product it replaced,
        # up to 2 ulps, and each normal g is within n eps of it (the rounded
        # inner product was up to 2.4e-10 off, for nearly orthogonal pairs)
        rng = np.random.default_rng(92)
        for k in range(200):
            spread = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
            planted = spread if k % 2 == 0 else 1.0 - spread
            first, turn = random_orthonormal(int(rng.integers(2, 5)), 2, rng).T
            phase = np.exp(2j * math.pi * rng.random())
            second = math.sqrt(1.0 - planted) * phase * first + math.sqrt(planted) * turn
            states = [pure(first), pure(second)]
            vectors = np.column_stack([rho.spectrum().vectors[:, 0] for rho in states])
            vectors /= np.linalg.norm(vectors, axis=0)
            overlap, t = tensorlab._pure_overlap(vectors)
            rounded = min(abs(np.vdot(vectors[:, 0], vectors[:, 1])) ** 2, 1.0)
            with mpmath.workdps(50):
                a, b = (mpmath.matrix(column.tolist()) for column in vectors.T)
                exact = abs((a.H * b)[0]) ** 2 / ((a.H * a)[0].real * (b.H * b)[0].real)
                for n in (1, 8, 32):
                    g, _ = tensorlab._overlap_powers(overlap, t, n)
                    reference = exact**n
                    slack = 2 * math.ulp(float(reference))
                    assert abs(g - reference) <= abs(rounded**n - reference) + slack, (k, n)
                    if reference >= sys.float_info.min:
                        assert abs(g - reference) <= n * EPS * reference, (k, n)

    def test_dependent_vectors_are_rejected(self):
        # the triple.json states |0>, |1>, |+> in a random 2-plane of C^3: at
        # n = 1 the third lies in the span of the first two, and both routes
        # reject it, err = 1/3 with orthonormal picks
        rng = np.random.default_rng(83)
        for _ in range(50):
            plane = random_orthonormal(3, 2, rng)
            states = [pure(plane @ np.array(v)) for v in ([1, 0], [0, 1], [1, 1])]
            assert route(states) == "pure"
            row = run_power_experiment(states, [1], "gs").rows[0]
            ((err, lam_min),) = next(block_scores(states, [1], ["gs"], {"gs": [0.0]}))
            for value in (row.err, err):
                assert abs(value - 1.0 / 3.0) < 1e-15
            for value in (row.lambda_min_gram, lam_min):
                assert abs(value - 1.0) < 1e-12

    def test_selection_boundary(self):
        # a tail of exactly d eps lambda_top is still rank 1; one ulp more,
        # or the 1e-13 of test_helstrom_scores_eigenvalues_below_the_cut, is not
        top = 1.0 - 2.0**-51
        edge = 2 * RANK_ONE_TAIL_RTOL * top
        for tail, taken in ((edge, "pure"), (np.nextafter(edge, 1.0), "blocks"), (1e-13, "blocks")):
            states = [diagonal([1.0 - tail if tail == 1e-13 else top, tail]), pure([1, 1])]
            assert route(states) == taken

    def test_gs_of_a_nearly_orthogonal_pure_pair(self):
        # gs keeps |0>^2 and loses the part of the second power along it:
        # err = 1/2 |<psi0|psi1>|^4 = 5e-41, where the blocks' frames,
        # orthonormal only to eps in more dimensions, print 6.9e-34
        states = [pure([1.0, 0.0]), pure([1e-10, 1.0])]
        assert route(states) == "pure"
        (row,) = run_power_experiment(states, [2], "gs").rows
        exact = 0.5 * 1e-10**4
        assert abs(row.err - exact) <= 1e-12 * exact

    def test_gs_of_turned_nearly_orthogonal_pairs(self):
        # the same pair turned by a random unitary of C^3: err is
        # 1/2 overlap^n on the route's double vectors up to the rounding of
        # their 1e-10 inner product, 7.3e-6 relative at most here
        for seed in range(20):
            turn = random_orthonormal(3, 3, np.random.default_rng(seed))
            states = [pure(turn @ np.array(v)) for v in ([1.0, 0.0, 0.0], [1e-10, 1.0, 0.0])]
            assert route(states) == "pure"
            with mpmath.workdps(60):
                a, b = (mpmath.matrix(rho.spectrum().vectors[:, 0].tolist()) for rho in states)
                overlap = abs((a.H * b)[0]) ** 2 / ((a.H * a)[0].real * (b.H * b)[0].real)
                for row in run_power_experiment(states, [2, 3], "gs").rows:
                    exact = float(overlap**row.n / 2)
                    assert abs(row.err - exact) <= 1e-4 * exact, (seed, row.n)

    def test_gs_of_a_pure_pair_that_commutes_to_rounding(self):
        # its commutator is under 2 eps, but a rank-one family takes the pure
        # route before the commuting verdict: 1/2 |<psi0|psi1>|^4 = 5e-69
        # exactly, where type classes, which drop the 1e-17 coherence, give
        # 1.0e-34
        states = [pure([1.0, 0.0]), pure([1e-17, 1.0])]
        assert route(states) == "pure"
        (row,) = run_power_experiment(states, [2], "gs").rows
        assert abs(row.err - 5e-69) <= 1e-12 * 5e-69

    def test_bundled_pure_pair_far_out(self, monkeypatch):
        # |0>, |+>: gs keeps |0>^n and misses half of |+>^n's overlap with
        # it, err = 2^-(n+1), and helstrom is g / (2 (1 + sqrt(1 - g))) with
        # g = 2^-n, to n = 1000
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        states = load_scenario(os.path.join(SCENARIOS, "pure_pair.json")).states
        rows = run_power_experiment(states, range(1, 1001), "gs", "helstrom").rows
        for row in rows:
            g = 2.0**-row.n
            exact = g / 2 if row.detector == "gs" else g / (2 * (1 + math.sqrt(1 - g)))
            assert abs(row.err - exact) <= row.n * 1e-15 * exact, (row.detector, row.n)

    def test_complex_gaussian_triple_far_out(self, monkeypatch):
        # d = 6, r = 3 at n = 40, against 50 digits on G^(o n)
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        rng = np.random.default_rng(3)
        states = [pure(rng.normal(size=6) + 1j * rng.normal(size=6)) for _ in range(3)]
        assert route(states) == "pure"
        for kind, options in (("gs", {}), ("epsilon", {"epsilon_override": 0.3})):
            (row,) = run_power_experiment(states, [40], kind, **options).rows
            reference = mp_pure_error(states, 40, kind, options.get("epsilon_override", 0.0))
            assert abs(row.err - reference) <= 1e-13 * reference, kind


class TestEpsilonSchedule:
    @staticmethod
    def scheduled(states, n):
        return run_power_experiment(states, [n], "epsilon").rows[0].epsilon

    def test_cube_root_values(self, zero_state, plus_state):
        # overlap sum for the pure pair is K_n = 2 * (1/2)^n
        states = [zero_state, plus_state]
        for n in (4, 7):
            expected = (2.0 * 0.5**n) ** (1.0 / 3.0)
            assert abs(self.scheduled(states, n) - expected) < 1e-12

    def test_clip_at_validity_boundary(self, zero_state, plus_state):
        assert self.scheduled([zero_state, plus_state], 1) == EPSILON_CLIP

    def test_orthogonal_ensemble_floors(self, zero_state, one_state):
        assert self.scheduled([zero_state, one_state], 3) == 1e-3

    def test_pinned_cube_roots(self):
        from qmht.tensorlab import _schedule_from_overlap_sum

        assert abs(_schedule_from_overlap_sum(0.001) - 0.1) < 1e-12
        assert abs(_schedule_from_overlap_sum(8e-6) - 0.02) < 1e-12
        assert _schedule_from_overlap_sum(1.5) == EPSILON_CLIP


class TestLiCheck:
    def test_one_dimensional_overlap(self):
        a = pure([1.0, 0.0])
        b = pure([1.0, 1.0])
        report = pairwise_li_check([a, b])
        entry = report.pairs[0]
        assert entry.holds
        assert abs(entry.witness - 0.5) < 1e-10

    def test_identical_supports_fail(self):
        rho = diagonal([0.5, 0.5, 0.0])
        sigma = diagonal([0.2, 0.8, 0.0])
        report = pairwise_li_check([rho, sigma])
        assert not report.pairs[0].holds
        assert report.pairs[0].witness >= 1.0 - 1e-9

    def test_full_rank_always_fails(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(3, rng)
        sigma = random_pure_state(3, rng)
        report = pairwise_li_check([rho, sigma])
        assert not report.pairs[0].holds

    def test_mixed_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match="states must share one dimension"):
            pairwise_li_check([pure([1.0, 0.0]), pure([0.0, 0.0, 1.0])])


class TestGramConvergence:
    def test_zero_plus_closed_form(self, zero_state, plus_state):
        out = gram_convergence_check([zero_state, plus_state], range(1, 11))
        for n, lam in out:
            assert abs(lam - (1.0 - 2.0 ** (-n / 2))) < 1e-8
        values = [lam for _, lam in out]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.9

    def test_orthogonal_supports_stay_at_one(self, zero_state, one_state):
        out = gram_convergence_check([zero_state, one_state], range(1, 6))
        for _, lam in out:
            assert abs(lam - 1.0) < 1e-10

    def test_mixed_li_pair_converges_upward(self):
        # rank-1 and rank-2 states with trivially intersecting supports in C^4
        rho = pure([1.0, 0.0, 0.0, 0.0])
        vecs = np.array(
            [[0.5, 0.5, math.sqrt(0.5), 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex
        )
        sigma = DensityMatrix(
            0.6 * np.outer(vecs[0], vecs[0].conj()) + 0.4 * np.outer(vecs[1], vecs[1].conj())
        )
        assert pairwise_li_check([rho, sigma]).all_pass
        out = gram_convergence_check([rho, sigma], range(1, 7))
        values = [lam for _, lam in out]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_rejects_intersecting_supports(self):
        rho = diagonal([0.5, 0.5, 0.0])
        sigma = diagonal([0.3, 0.7, 0.0])
        with pytest.raises(ValueError):
            gram_convergence_check([rho, sigma], range(1, 3))

    def test_mixed_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match="states must share one dimension"):
            gram_convergence_check([pure([1.0, 0.0]), pure([0.0, 0.0, 1.0])], [1])

    def test_sweep_over_the_cap_raises_before_any_block(self, zero_state, plus_state, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("no block may be built for a sweep over the cap")

        monkeypatch.setattr(schurweyl, "_sweep_blocks", no_blocks)
        monkeypatch.setenv(DENSE_LIMIT_ENV, "16")
        with pytest.raises(DimensionLimitError, match=r"2\*\*5 exceeds the dense limit 16"):
            gram_convergence_check([zero_state, plus_state], range(1, 7))

    def test_far_sweep_over_the_cap_raises_at_once(self, zero_state, plus_state, monkeypatch):
        # ascending or descending, a range is read from its bounds; the
        # last one's terms are 1 mod 11, so the first over the cap is 23
        monkeypatch.delenv(DENSE_LIMIT_ENV, raising=False)
        far_ranges = {
            range(1, 10**300): 15, range(10**12, 0, -1): 15, range(10**300, 0, -11): 23
        }
        for entry, (far, over) in itertools.product(
            ("run_power_experiment", "gram_convergence_check"), far_ranges.items()
        ):
            start = time.perf_counter()
            message = rf"2\*\*{over} exceeds the dense limit 16384"
            with pytest.raises(DimensionLimitError, match=message):
                if entry == "run_power_experiment":
                    run_power_experiment([zero_state, plus_state], far, "gs")
                else:
                    gram_convergence_check([zero_state, plus_state], far)
            assert time.perf_counter() - start < 1.0

    def test_descending_range_gives_the_ascending_rows(self, zero_state, plus_state):
        states = [zero_state, plus_state]
        for kind in ("gs", "epsilon", "helstrom"):
            down = run_power_experiment(states, range(5, 0, -1), kind).rows
            assert down == run_power_experiment(states, range(1, 6), kind).rows
        down = gram_convergence_check(states, range(5, 0, -1))
        assert down == gram_convergence_check(states, range(1, 6))

    @pytest.mark.parametrize("n_range", [[], range(0), range(3, 1), iter(())])
    @pytest.mark.parametrize("entry", ["run_power_experiment", "gram_convergence_check"])
    def test_empty_sweep_raises(self, zero_state, plus_state, entry, n_range):
        with pytest.raises(ValueError, match="need at least one copy number"):
            if entry == "run_power_experiment":
                run_power_experiment([zero_state, plus_state], n_range, "gs")
            else:
                gram_convergence_check([zero_state, plus_state], n_range)

    def test_far_sweep_of_one_by_one_states_raises_at_once(self):
        # no n is over the cap for d = 1, so the family, whose 1 x 1 states
        # are all duplicates, is rejected before the range is read
        states = [DensityMatrix([[1.0]]), DensityMatrix([[1.0]])]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="states 0 and 1 are duplicates"):
            run_power_experiment(states, range(1, 10**300), "gs")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_state_raises_before_the_range_is_read(self, dim):
        # one 1 x 1 state has no n over the cap and no pair to reject, so the
        # family is rejected before the copy numbers are read
        states = [DensityMatrix(np.eye(dim) / dim)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="need at least two hypotheses"):
            gram_convergence_check(states, range(1, 10**300))
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError, match="need at least two hypotheses"):
            gram_convergence_check([], [1])

    def test_sweep_values_equal_single_copy_number_values(self, zero_state, plus_state):
        # bit for bit, on the zero-plus pair and on mixed pairwise-LI
        # families in C^4 and C^6
        rng = np.random.default_rng(3)
        pair = [random_density_matrix(4, rng, rank=2) for _ in range(2)]
        triple = [random_density_matrix(6, rng, rank=2) for _ in range(3)]
        families = [([zero_state, plus_state], range(1, 9))]
        families += [(pair, range(1, 5)), (triple, range(1, 4))]
        for states, ns in families:
            assert pairwise_li_check(states).all_pass
            sweep = gram_convergence_check(states, ns)
            assert sweep == [gram_convergence_check(states, [n])[0] for n in ns]

    def test_pure_qubit_pairs_match_the_closed_form(self):
        # the Gram of two unit vectors with overlap g has floor 1 - |g|; at
        # copy number n, 1 - |g|^n. A sweep walks the qubit blocks by
        # N = n - 2h, and its floors equal those of each n alone, bit for bit
        rng = np.random.default_rng(64)
        ns = range(1, 15)
        for _ in range(10):
            pair = [random_pure_state(2, rng) for _ in range(2)]
            first, second = (rho.spectrum().vectors[:, 0] for rho in pair)
            overlap = abs(np.vdot(first, second))
            sweep = gram_convergence_check(pair, ns)
            assert sweep == [gram_convergence_check(pair, [n])[0] for n in ns]
            for n, floor in sweep:
                expected = 1.0 - overlap**n
                assert abs(floor - expected) <= 5e-14 * expected

    def test_one_unitary_log_per_sweep(self, monkeypatch):
        calls = count_unitary_logs(monkeypatch)
        rng = np.random.default_rng(3)
        states = [random_density_matrix(4, rng, rank=2) for _ in range(2)]
        gram_convergence_check(states, range(1, 5))
        assert calls == [(2, 4, 4)]
