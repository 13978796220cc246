import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmht.detectors import (
    Detector,
    bayes_commuting,
    classical_ml,
    common_eigenbasis,
    epsilon_detector,
    evaluate_errors,
    gs_detector,
    gs_error_bound,
    holevo_helstrom,
    pgm,
    verify_bayes_conditions,
)
from qmht.errors import NumericalConsistencyError
from qmht.linalg import DensityMatrix, HermitianMatrix
from qmht.chernoff import q_overlap
from qmht.sampling import random_density_matrix
from conftest import diagonal, pure

HELSTROM_ERR_ZERO_PLUS = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0


def projector(vec) -> HermitianMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return HermitianMatrix(np.outer(v, v.conj()))


class TestDetectorInvariants:
    def test_rejects_bad_sum(self):
        with pytest.raises(NumericalConsistencyError, match="identity"):
            Detector([projector([1, 0]), projector([1, 0])], kind="POVM")

    def test_rejects_non_projective_pvm(self):
        half = HermitianMatrix(np.eye(2) * 0.5)
        with pytest.raises(NumericalConsistencyError, match="idempotent"):
            Detector([half, half], kind="PVM")

    def test_rejects_negative_element(self):
        up = np.diag([1.5, 0.0]).astype(complex)
        down = np.diag([-0.5, 1.0]).astype(complex)
        with pytest.raises(NumericalConsistencyError, match="positive"):
            Detector([HermitianMatrix(up), HermitianMatrix(down)], kind="POVM")


class TestEvaluateErrors:
    def test_orthogonal_pvm_is_exact(self, zero_state, one_state):
        det = Detector([projector([1, 0]), projector([0, 1])], kind="PVM")
        report = evaluate_errors([zero_state, one_state], det)
        assert report.averaged == 0.0

    def test_uniform_povm(self):
        rng = np.random.default_rng(0)
        states = [random_density_matrix(3, rng) for _ in range(3)]
        third = HermitianMatrix(np.eye(3) / 3)
        det = Detector([third, third, third], kind="POVM")
        report = evaluate_errors(states, det)
        assert abs(report.averaged - (1 - 1 / 3)) < 1e-12

    def test_error_is_complement_of_success(self):
        rng = np.random.default_rng(1)
        states = [random_density_matrix(2, rng) for _ in range(2)]
        det = holevo_helstrom(*states)
        report = evaluate_errors(states, det)
        for err, succ in zip(report.per_hypothesis, report.successes):
            assert abs(err - (1.0 - succ)) < 1e-10

    def test_size_mismatch(self, zero_state):
        det = Detector([HermitianMatrix(np.eye(2))], kind="PVM")
        with pytest.raises(ValueError):
            evaluate_errors([zero_state, zero_state], det)


class TestHolevoHelstrom:
    def test_orthogonal_pair(self, zero_state, one_state):
        det = holevo_helstrom(zero_state, one_state)
        assert np.allclose(det.elements[0].mat, np.diag([1.0, 0.0]))
        assert np.allclose(det.elements[1].mat, np.diag([0.0, 1.0]))

    def test_identical_states_give_trivial_test(self):
        rho = diagonal([0.3, 0.7])
        det = holevo_helstrom(rho, rho)
        assert np.allclose(det.elements[0].mat, np.eye(2))
        assert np.abs(det.elements[1].mat).max() == 0.0

    def test_zero_plus_error_value(self, zero_state, plus_state):
        det = holevo_helstrom(zero_state, plus_state)
        report = evaluate_errors([zero_state, plus_state], det)
        assert abs(report.averaged - HELSTROM_ERR_ZERO_PLUS) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_no_rule_does_better(self, seed):
        # brute-force oracle: the optimal error is (1 - sum of positive eigenvalues of the difference) / 2
        rng = np.random.default_rng(seed)
        rho1 = random_density_matrix(3, rng)
        rho2 = random_density_matrix(3, rng)
        det = holevo_helstrom(rho1, rho2)
        report = evaluate_errors([rho1, rho2], det)
        eigs = np.linalg.eigvalsh(rho2.mat - rho1.mat)
        oracle = 0.5 * (1.0 - eigs[eigs > 0].sum())
        assert abs(report.averaged - oracle) < 1e-10


class TestClassicalMl:
    def test_ml_error_is_optimal_by_enumeration(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        labels = classical_ml(probs)
        assert labels.tolist() == [0, 1]
        err = 1.0 - np.mean([probs[i, labels == i].sum() for i in range(2)])
        assert abs(err - 0.35) < 1e-12
        # exhaustive oracle over all 4 deterministic rules
        def rule_error(rule):
            succ = [probs[i, [w for w in range(2) if rule[w] == i]].sum() for i in range(2)]
            return 1.0 - float(np.mean(succ))
        best = min(rule_error(rule) for rule in itertools.product(range(2), repeat=2))
        assert abs(err - best) < 1e-12

    def test_identical_rows_tie_to_first(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert classical_ml(probs).tolist() == [0, 0]

    def test_first_row_wins_when_dominating(self):
        # a probability row can only dominate everywhere via ties; they go to row 0
        probs = np.array([[0.4, 0.6], [0.4, 0.6], [0.4, 0.6]])
        assert classical_ml(probs).tolist() == [0, 0]

    def test_tie_above_first_row_goes_to_smaller_row(self):
        # column 0: rows 1 and 2 tie at 0.4, above row 0
        probs = np.array([[0.2, 0.8], [0.4, 0.6], [0.4, 0.6]])
        assert classical_ml(probs).tolist() == [1, 0]

    def test_label_is_columnwise_argmax(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(6), size=4)
        probs = probs / probs.sum(axis=1, keepdims=True)
        labels = classical_ml(probs)
        assert labels.tolist() == np.argmax(probs, axis=0).tolist()

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            classical_ml(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestGsDetector:
    def test_commuting_matches_classical_ml(self):
        states = [diagonal([0.7, 0.3]), diagonal([0.4, 0.6])]
        det, diag = gs_detector(states)
        report = evaluate_errors(states, det)
        assert abs(report.averaged - 0.35) < 1e-12
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        ml_labels = classical_ml(probs)
        # identify basis columns with canonical slots and compare labels
        for col, label in zip(diag.basis.T, diag.labels):
            slot = int(np.argmax(np.abs(col)))
            assert ml_labels[slot] == label

    def test_zero_plus_pinned_example(self, zero_state, plus_state):
        det, diag = gs_detector([zero_state, plus_state])
        assert diag.selection_order == [(0, 0), (1, 0)]
        assert diag.labels == [0, 1]
        assert np.allclose(np.abs(diag.basis[:, 0]), [1.0, 0.0])
        assert np.allclose(np.abs(diag.basis[:, 1]), [0.0, 1.0])
        report = evaluate_errors([zero_state, plus_state], det)
        assert abs(report.averaged - 0.25) < 1e-12

    def test_orthonormal_pure_states_are_perfect(self):
        states = [pure([1, 0, 0]), pure([0, 1, 0]), pure([0, 0, 1])]
        det, _ = gs_detector(states)
        report = evaluate_errors(states, det)
        assert report.averaged < 1e-12
        for k, rho in enumerate(states):
            overlap = np.trace(det.elements[k].mat @ rho.mat).real
            assert abs(overlap - 1.0) < 1e-12

    def test_selection_eigenvalues_are_monotone(self):
        rng = np.random.default_rng(4)
        states = [random_density_matrix(4, rng) for _ in range(3)]
        _, diag = gs_detector(states)
        values = [states[i].spectrum().eigenvalues[j] for i, j in diag.selection_order]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))

    def test_output_is_projective(self):
        rng = np.random.default_rng(5)
        states = [random_density_matrix(4, rng, rank=2) for _ in range(3)]
        det, diag = gs_detector(states)
        assert det.kind == "PVM"
        basis = diag.basis
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() < 1e-9

    def test_rejects_single_state(self, zero_state):
        with pytest.raises(ValueError):
            gs_detector([zero_state])


class TestGsErrorBound:
    def test_zero_plus_components(self, zero_state, plus_state):
        det, diag = gs_detector([zero_state, plus_state])
        assert abs(diag.lambda_min_gram - (1 - 1 / math.sqrt(2))) < 1e-10
        bound = gs_error_bound([zero_state, plus_state], diag)
        assert abs(bound - 1 / (1 - 1 / math.sqrt(2)) * 0.5) < 1e-9
        report = evaluate_errors([zero_state, plus_state], det)
        assert report.averaged <= bound

    def test_orthonormal_states_have_zero_bound(self):
        states = [pure([1, 0]), pure([0, 1])]
        det, diag = gs_detector(states)
        assert abs(diag.lambda_min_gram - 1.0) < 1e-12
        assert gs_error_bound(states, diag) < 1e-12

    def test_commuting_bound_matches_grid_infimum(self):
        states = [diagonal([0.7, 0.3]), diagonal([0.4, 0.6])]
        det, diag = gs_detector(states)
        assert abs(diag.lambda_min_gram - 1.0) < 1e-10
        bound = gs_error_bound(states, diag)
        p, q = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        grid = np.linspace(0, 1, 100_001)
        infimum = min(float(np.sum(p ** (1 - s) * q**s)) for s in grid)
        assert abs(bound - infimum) < 1e-6
        assert bound >= 0.35

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_bound_holds_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 7))
        states = [
            random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            for _ in range(r)
        ]
        det, diag = gs_detector(states)
        report = evaluate_errors(states, det)
        assert report.averaged <= gs_error_bound(states, diag) + 1e-9


class TestPgm:
    def test_orthogonal_pure_states_give_projectors(self):
        states = [pure([1, 0]), pure([0, 1])]
        det = pgm(states, [0.5, 0.5])
        assert np.allclose(det.elements[0].mat, np.diag([1.0, 0.0]), atol=1e-10)
        assert np.allclose(det.elements[1].mat, np.diag([0.0, 1.0]), atol=1e-10)

    def test_success_squared_bound_vs_optimal(self, zero_state, plus_state):
        det = pgm([zero_state, plus_state], [0.5, 0.5])
        report = evaluate_errors([zero_state, plus_state], det)
        succ_pgm = 1.0 - report.averaged
        succ_opt = 1.0 - HELSTROM_ERR_ZERO_PLUS
        assert succ_pgm >= succ_opt**2 - 1e-9

    def test_degenerate_priors_complete_first_element(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(3, rng)
        det = pgm([rho, rho], [1.0, 0.0])
        assert np.allclose(det.elements[0].mat, np.eye(3), atol=1e-9)
        assert np.abs(det.elements[1].mat).max() < 1e-12

    def test_rank_deficient_average_still_povm(self):
        states = [pure([1, 0, 0]), pure([0, 1, 0])]
        det = pgm(states, [0.5, 0.5])  # average has a kernel; completion goes to element 0
        total = det.elements[0].mat + det.elements[1].mat
        assert np.abs(total - np.eye(3)).max() < 1e-9


class TestBayesCommuting:
    def test_diagonal_example(self):
        det, mu, certificate = bayes_commuting([diagonal([0.7, 0.3]), diagonal([0.4, 0.6])])
        assert abs(mu - 1.3) < 1e-12
        assert np.allclose(np.sort(np.diag(certificate.mat).real), [0.6, 0.7])

    def test_identical_states(self):
        rho = diagonal([0.25, 0.75])
        det, mu, certificate = bayes_commuting([rho, rho])
        assert abs(mu - 1.0) < 1e-12
        assert np.abs(certificate.mat - rho.mat).max() < 1e-12

    def test_matches_holevo_helstrom_for_two_diagonal_states(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        states = [diagonal(p), diagonal(q)]
        det, mu, _ = bayes_commuting(states)
        bayes_succ = 1.0 - evaluate_errors(states, det).averaged
        hh_succ = 1.0 - evaluate_errors(states, holevo_helstrom(*states)).averaged
        assert abs(bayes_succ - hh_succ) < 1e-9
        assert abs(mu / 2.0 - bayes_succ) < 1e-9

    def test_commuting_non_diagonal_input(self):
        rng = np.random.default_rng(12)
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        a = DensityMatrix(basis @ np.diag([0.5, 0.3, 0.2]) @ basis.conj().T)
        b = DensityMatrix(basis @ np.diag([0.1, 0.6, 0.3]) @ basis.conj().T)
        det, mu, _ = bayes_commuting([a, b])
        assert abs(mu - (0.5 + 0.6 + 0.3)) < 1e-9

    def test_rejects_noncommuting(self, zero_state, plus_state):
        with pytest.raises(ValueError, match="commute"):
            bayes_commuting([zero_state, plus_state])


class TestVerifyBayesConditions:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_holevo_helstrom_passes(self, seed):
        rng = np.random.default_rng(seed)
        states = [random_density_matrix(3, rng), random_density_matrix(3, rng)]
        det = holevo_helstrom(*states)
        assert verify_bayes_conditions(states, det, tol=1e-8).passed

    def test_uniform_povm_fails(self):
        rng = np.random.default_rng(10)
        states = [random_density_matrix(2, rng), random_density_matrix(2, rng)]
        half = HermitianMatrix(np.eye(2) / 2)
        det = Detector([half, half], kind="POVM")
        assert not verify_bayes_conditions(states, det, tol=1e-8).passed

    def test_repeated_state_with_any_pvm_passes(self):
        rho = diagonal([0.5, 0.3, 0.2])
        det = Detector(
            [
                HermitianMatrix(np.diag([1.0, 0, 0])),
                HermitianMatrix(np.diag([0.0, 1, 0])),
                HermitianMatrix(np.diag([0.0, 0, 1])),
            ],
            kind="PVM",
        )
        assert verify_bayes_conditions([rho, rho, rho], det, tol=1e-8).passed


class TestEpsilonDetector:
    def test_trace_identity_under_perturbation(self):
        # direct check of the embedded-state overlap identity at epsilon = 0.6
        rng = np.random.default_rng(13)
        states = [random_density_matrix(2, rng), random_density_matrix(2, rng)]
        epsilon = 0.6
        delta = math.sqrt(1 - epsilon**2)
        tilde = []
        for i, rho in enumerate(states):
            dec = rho.spectrum()
            big = np.zeros((3 * 2, 3 * 2), dtype=complex)
            for j in range(2):
                vec = np.zeros(6, dtype=complex)
                vec[:2] = delta * dec.vectors[:, j]
                vec[(i + 1) * 2 + j] = epsilon
                big += dec.eigenvalues[j] * np.outer(vec, vec.conj())
            tilde.append(DensityMatrix(big))
        assert abs(delta**4 - 0.4096) < 1e-15
        for s in (0.1, 0.5, 0.9):
            lhs = q_overlap(tilde[0], tilde[1], s)
            rhs = 0.4096 * q_overlap(states[0], states[1], s)
            assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1e-30)

    def test_blocks_sum_to_identity(self):
        rng = np.random.default_rng(14)
        states = [random_density_matrix(3, rng, rank=2) for _ in range(3)]
        det, _ = epsilon_detector(states, 0.15)
        total = sum(e.mat for e in det.elements)
        assert np.abs(total - np.eye(3)).max() < 1e-9

    def test_vacuous_bound_example(self, zero_state, plus_state):
        det, diag = epsilon_detector([zero_state, plus_state], 0.5)
        report = evaluate_errors([zero_state, plus_state], det)
        bound = 0.5 * (2 * 0.5 + 0.5**-2 * 1.0)
        assert abs(bound - 2.5) < 1e-12
        assert report.averaged <= bound
        assert report.averaged <= 1.0

    def test_gram_floor(self):
        rng = np.random.default_rng(15)
        states = [random_density_matrix(2, rng) for _ in range(2)]
        for epsilon in (0.2, 0.5):
            _, diag = epsilon_detector(states, epsilon)
            assert diag.lambda_min_gram >= epsilon**2 * (1 - 1e-9)

    def test_generally_not_projective(self, zero_state, plus_state):
        det, _ = epsilon_detector([zero_state, plus_state], 0.5)
        assert det.kind == "POVM"
        element = det.elements[1].mat
        assert np.abs(element @ element - element).max() > 1e-6

    def test_epsilon_out_of_range(self, zero_state, plus_state):
        for bad in (0.0, 1.0, 0.9):
            with pytest.raises(ValueError):
                epsilon_detector([zero_state, plus_state], bad)


class TestCommonEigenbasis:
    def test_refines_degenerate_blocks(self):
        a = diagonal([0.5, 0.5])
        b = diagonal([0.3, 0.7])
        basis = common_eigenbasis([a, b])
        for rho in (a, b):
            rotated = basis.conj().T @ rho.mat @ basis
            off = rotated - np.diag(np.diag(rotated))
            assert np.abs(off).max() < 1e-10
