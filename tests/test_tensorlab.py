import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmht.detectors import (
    classical_ml,
    epsilon_detector,
    evaluate_errors,
    gs_detector,
    holevo_helstrom,
)
from qmht.errors import DimensionLimitError
from qmht.linalg import DENSE_LIMIT_ENV, DensityMatrix
from qmht.sampling import random_density_matrix, random_orthonormal, random_pure_state
from qmht.tensorlab import (
    DETECTOR_KINDS,
    EPSILON_CLIP,
    PowerHypothesisSet,
    _aligned_rows,
    _claim_weights,
    _class_groups,
    gram_convergence_check,
    pairwise_li_check,
    run_power_experiment,
)
from qmht.schurweyl import _class_stream, type_classes
from conftest import diagonal, pure

LOG2 = math.log(2.0)


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
    diagonal, turned by one common phased permutation (still aligned), or by
    one common random rotation (not aligned: the block route)."""
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


class TestPowerHypothesisSet:
    def test_product_values_sum_to_one(self):
        # each class value times its size n!/prod_j k_j!, over the classes
        # with value > 0
        rng = np.random.default_rng(0)
        base = [random_density_matrix(2, rng), random_density_matrix(3, rng, rank=2)]
        for phs in (PowerHypothesisSet(base[:1], 8), PowerHypothesisSet(base[1:], 5)):
            counts, sizes = type_classes(phs.dim, phs.n)
            size_of = {tuple(row): size for row, size in zip(counts.tolist(), sizes)}
            total = sum(size_of[k] * value for value, k in _class_stream(phs, 0))
            assert abs(total - 1.0) < 1e-13

    def test_rank_multiplies(self):
        # the base spectra are cut once, so the classes with a positive cut
        # value cover rank(rho)^n product outcomes
        rng = np.random.default_rng(1)
        base = [random_density_matrix(3, rng, rank=2), random_density_matrix(3, rng, rank=1)]
        phs = PowerHypothesisSet(base, 4)
        assert [int(np.count_nonzero(row)) for row in phs.cut_values] == [2, 1]
        counts, sizes = type_classes(phs.dim, phs.n)
        size_of = {tuple(row): size for row, size in zip(counts.tolist(), sizes)}
        for state, rank in enumerate((2, 1)):
            assert sum(size_of[k] for _, k in _class_stream(phs, state)) == rank**4

    def test_dimension_limit(self, monkeypatch):
        monkeypatch.setenv(DENSE_LIMIT_ENV, "16")
        base = [diagonal([0.5, 0.5]), diagonal([1.0, 0.0])]
        with pytest.raises(DimensionLimitError):
            PowerHypothesisSet(base, 5)


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
        states = [zero_state, plus_state]
        report = run_power_experiment(states, range(1, 13), "gs")
        for n in (1, 2, 3, 4, 5):
            assert abs(dense_gs_error(states, n) - 0.5 ** (n + 1)) < 1e-12
        for row in report.rows:
            assert abs(row.err - 0.5 ** (row.n + 1)) < 1e-10
            assert abs(row.lambda_min_gram - (1.0 - 2.0 ** (-row.n / 2))) < 1e-10
            assert row.err <= row.error_bound + 1e-12

    def test_three_state_sweep_closed_form(self, zero_state, plus_state, one_state):
        states = [zero_state, plus_state, one_state]
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

    def test_exponent_slope_tracks_rate(self):
        states = [pure([1, 0]), pure([1, 1])]
        report = run_power_experiment(states, range(1, 13), "gs")
        slope = report.exponent_slopes["gs"]
        assert abs(slope - LOG2) < 0.01

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
        # a common rotation leaves the family commuting but not aligned in
        # the computed eigenbases, so it runs the Gelfand-Tsetlin blocks;
        # the unrotated family runs the type classes
        rows = ([0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5])
        rotation = random_orthonormal(3, 3, np.random.default_rng(7))
        plain = [diagonal(row) for row in rows]
        rotated = [DensityMatrix(rotation @ rho.mat @ rotation.conj().T) for rho in plain]
        for kind, r in (("gs", 3), ("epsilon", 3), ("helstrom", 2)):
            block = run_power_experiment(rotated[:r], [6], kind).rows[0]
            classes = run_power_experiment(plain[:r], [6], kind).rows[0]
            assert abs(block.err - classes.err) < 1e-12

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
                alone = run_power_experiment(states, [row.n], kind, qcb=sweep.qcb, **options)
                assert dataclasses.asdict(row) == dataclasses.asdict(alone.rows[0])

        aligned = 0
        for states in sweep_families(24, seed=60):
            if _aligned_rows(states) is None:
                ns = range(1, 4)
            else:
                ns = range(1, {2: 24, 3: 12, 4: 8}[states[0].dim] + 1)
                aligned += 1
            for kind in ("gs", "epsilon", "classical-ml"):
                check(states, ns, kind)
            check(states, ns, "epsilon", epsilon_override=0.2)
            if len(states) == 2:
                check(states, ns, "helstrom")
        assert aligned == 16
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

    def test_unknown_kind(self, zero_state, plus_state):
        with pytest.raises(ValueError, match="kind"):
            run_power_experiment([zero_state, plus_state], [1], "bogus")

    def test_rows_unique_by_n_and_kind(self, zero_state, plus_state):
        report = run_power_experiment([zero_state, plus_state], [1, 2, 2, 3], "gs")
        assert [row.n for row in report.rows] == [1, 2, 3]

    def test_ceiling_overshoot_is_flagged_not_failed(self, zero_state, plus_state):
        # finite-n exponents of a sub-unit-prefactor error sit above the
        # asymptotic bound; rows record that as a flag
        report = run_power_experiment([zero_state, plus_state], [1, 2], "gs")
        for row in report.rows:
            assert row.exponent > report.qcb.xi + 0.02
            assert row.exceeds_qcb_ceiling

    def test_orthogonal_pair_reports_infinite_exponent(self, zero_state, one_state):
        report = run_power_experiment([zero_state, one_state], [1, 2], "gs")
        for row in report.rows:
            assert row.err == 0.0
            assert math.isinf(row.exponent)
            assert not row.exceeds_qcb_ceiling
        assert report.exponent_slopes["gs"] is None


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
