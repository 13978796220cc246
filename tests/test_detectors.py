import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmht.detectors import (
    EPSILON_FLOOR,
    POVM_ATOL,
    SELECTION_TIE_RTOL,
    Detector,
    bayes_commuting,
    classical_ml,
    common_eigenbasis,
    embedding_guard,
    epsilon_detector,
    evaluate_errors,
    gs_detector,
    gs_error_bound,
    greedy_order,
    greedy_ranks,
    holevo_helstrom,
    pgm,
    verify_bayes_conditions,
)
from qmht.errors import NumericalConsistencyError
from qmht.linalg import DensityMatrix, HermitianMatrix, eigenvalue_zero_threshold
from qmht.chernoff import q_overlap
from qmht.sampling import random_density_matrix, random_orthonormal
from qmht.tensorlab import EPSILON_CLIP, run_power_experiment
from conftest import diagonal, pure

HELSTROM_ERR_ZERO_PLUS = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0


def defect_ensemble_powers(n):
    """Explicit n-th powers of the ROADMAP defect ensemble (r = 3 qubits)."""
    rng = np.random.default_rng(5)
    draws = [
        [random_density_matrix(2, rng) for _ in range(int(rng.integers(2, 4)))]
        for _ in range(2)
    ]
    states = draws[1]
    assert len(states) == 3
    powers = []
    for rho in states:
        mat = np.ones((1, 1))
        for _ in range(n):
            mat = np.kron(mat, rho.mat)
        powers.append(DensityMatrix(mat))
    return powers


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

    def test_element_eigenvalue_boundaries(self):
        # element 0 has eigenvalue 1 + off, so the elements sum to the
        # identity within ``off``; the spectral checks decide first
        def elements(off):
            return [
                HermitianMatrix(np.diag([1.0 + off, 0.0])),
                HermitianMatrix(np.diag([0.0, 1.0])),
            ]

        det = Detector(elements(0.5 * POVM_ATOL), kind="PVM")
        assert det.frame.shape == (2, 2) and det.labels.tolist() == [0, 1]
        with pytest.raises(NumericalConsistencyError, match="idempotent"):
            Detector(elements(2.0 * POVM_ATOL), kind="PVM")
        with pytest.raises(NumericalConsistencyError, match="idempotent"):
            Detector(elements(-1.0 - 2.0 * POVM_ATOL), kind="PVM")
        low = [
            HermitianMatrix(np.diag([1.0 + 2.0 * POVM_ATOL, 0.5])),
            HermitianMatrix(np.diag([-2.0 * POVM_ATOL, 0.5])),
        ]
        with pytest.raises(NumericalConsistencyError, match="positive"):
            Detector(low, kind="POVM")
        for kind in ("PVM", "POVM"):
            with pytest.raises(NumericalConsistencyError, match="identity"):
                Detector([projector([1, 0]), projector([1, 1])], kind=kind)
        with pytest.raises(NumericalConsistencyError, match="identity"):
            Detector([projector([1, 0]), HermitianMatrix(np.zeros((2, 2)))], kind="PVM")

    def test_projector_elements_give_a_square_frame(self):
        # a rank-1 and a rank-2 projector in d = 3, in a rotated basis
        basis = random_orthonormal(3, 3, np.random.default_rng(3))
        one = HermitianMatrix(basis[:, :1] @ basis[:, :1].conj().T)
        two = HermitianMatrix(basis[:, 1:] @ basis[:, 1:].conj().T)
        det = Detector([one, two], kind="PVM")
        assert det.frame.shape == (3, 3)
        assert det.labels.tolist() == [0, 1, 1]
        assert det.elements[0] is one and det.elements[1] is two
        assert np.abs(det.frame.conj().T @ det.frame - np.eye(3)).max() < 1e-14

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="one dimension"):
            Detector([projector([1, 0]), HermitianMatrix(np.eye(3))], kind="POVM")


class TestFrameDetectors:
    @given(st.integers(2, 6), st.integers(2, 3), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_frames_pass_the_elementwise_check_and_score_alike(self, dim, r, seed):
        # every frame detector's lazily built elements pass the check of an
        # element list, summed-miss scoring agrees with 1 - tr[rho E] read
        # off those elements, and scaling the frame off a co-isometry is
        # caught by the one check
        rng = np.random.default_rng(seed)
        states = [
            random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            for _ in range(r)
        ]
        rotation = random_orthonormal(dim, dim, rng)
        commuting = [
            DensityMatrix(rotation @ np.diag(rng.dirichlet(np.ones(dim))) @ rotation.conj().T)
            for _ in range(r)
        ]
        epsilon_det = epsilon_detector(states, float(rng.uniform(0.05, 0.7)))[0]
        cases = [
            (states, gs_detector(states)[0]),
            (states, epsilon_det),
            (states[:2], holevo_helstrom(*states[:2])),
            (commuting, bayes_commuting(commuting)[0]),
            (states, pgm(states, rng.dirichlet(np.ones(r)))),
        ]
        for family, det in cases:
            Detector(det.elements, kind=det.kind)
            errors = evaluate_errors(family, det).per_hypothesis
            for rho, element, err in zip(family, det.elements, errors):
                # both factors are Hermitian, so tr[rho E] = vdot(E, rho)
                assert abs(err - (1.0 - np.vdot(element.mat, rho.mat).real)) <= 1e-13
            with pytest.raises(NumericalConsistencyError, match="orthonormal"):
                Detector(
                    kind=det.kind, frame=0.9 * det.frame, labels=det.labels,
                    outcomes=det.outcomes,
                )
        with pytest.raises(NumericalConsistencyError, match="square"):
            Detector(
                kind="PVM", frame=epsilon_det.frame, labels=epsilon_det.labels, outcomes=r
            )

    def test_rejects_malformed_frames(self):
        with pytest.raises(NumericalConsistencyError, match="orthonormal"):
            Detector(kind="POVM", frame=0.9 * np.eye(3), labels=[0, 1, 1], outcomes=2)
        with pytest.raises(NumericalConsistencyError, match="square"):
            Detector(kind="PVM", frame=np.eye(2, 3), labels=[0, 1, 1], outcomes=2)
        with pytest.raises(ValueError, match="lie in"):
            Detector(kind="PVM", frame=np.eye(2), labels=[0, 2], outcomes=2)
        with pytest.raises(ValueError, match="one integer label"):
            Detector(kind="PVM", frame=np.eye(2), labels=[0], outcomes=2)
        with pytest.raises(ValueError, match="outcomes"):
            Detector(kind="PVM", frame=np.eye(2), labels=[0, 1])
        with pytest.raises(ValueError, match="not both"):
            Detector([projector([1, 0]), projector([0, 1])], frame=np.eye(2), labels=[0, 1])
        for frame in (np.float64(1.0), np.ones(2)):
            with pytest.raises(ValueError, match="nonempty d x m frame"):
                Detector(kind="POVM", frame=frame, labels=[], outcomes=1)

    def test_elements_of_a_frame_are_its_labelled_projectors(self):
        det = Detector(kind="PVM", frame=np.eye(3)[:, [2, 0, 1]], labels=[1, 0, 1], outcomes=3)
        assert np.array_equal(det.elements[0].mat, np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(det.elements[1].mat, np.diag([0.0, 1.0, 1.0]))
        assert np.array_equal(det.elements[2].mat, np.zeros((3, 3)))
        assert det.elements is det.elements


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

    def test_success_matches_trace_of_product(self):
        rng = np.random.default_rng(2)
        for dim in (2, 5, 16):
            states = [random_density_matrix(dim, rng) for _ in range(3)]
            det = pgm(states, [1 / 3] * 3)
            report = evaluate_errors(states, det)
            for rho, element, succ in zip(states, det.elements, report.successes):
                assert abs(succ - np.trace(rho.mat @ element.mat).real) < 1e-14

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


class TestGreedyOrder:
    def test_equal_values_go_to_smaller_state(self):
        streams = [[(0.5, "a"), (0.3, "b")], [(0.5, "c"), (0.3, "d")], [(0.4, "e")]]
        order = [(state, item) for state, _, item in greedy_order(streams)]
        assert order == [(0, "a"), (1, "c"), (2, "e"), (0, "b"), (1, "d")]

    def test_values_within_tie_tolerance_go_to_smaller_state(self):
        close = 0.5 * (1.0 + 0.5 * SELECTION_TIE_RTOL)
        streams = [[(0.5, "a"), (0.1, "b")], [(close, "c")]]
        assert [item for _, _, item in greedy_order(streams)] == ["a", "c", "b"]

    def test_values_beyond_tie_tolerance_go_first(self):
        far = 0.5 * (1.0 + 2.0 * SELECTION_TIE_RTOL)
        streams = [[(0.5, "a")], [(far, "c")]]
        assert list(greedy_order(streams)) == [(1, far, "c"), (0, 0.5, "a")]
        # the tolerance is relative: values far below 1e-12 still order
        streams = [[(1e-20, "a")], [(2e-20, "c")]]
        assert [item for _, _, item in greedy_order(streams)] == ["c", "a"]

    def test_empty_streams_and_lazy_reads(self):
        rest = iter([(0.9, "x"), (0.8, "y"), (0.7, "z")])
        order = greedy_order([[], rest])
        assert next(order) == (1, 0.9, "x")
        # the head of each stream is read ahead by one pop, no further
        assert next(rest) == (0.7, "z")
        assert list(greedy_order([[], []])) == []

    def test_column_ranks_match_greedy_order(self):
        # each column is a set of one-value streams: exact ties, ties at
        # 1e-13 (inside SELECTION_TIE_RTOL) and 3e-12 (outside) relative,
        # zeros, values at the floor and columns with no claimant
        rng = np.random.default_rng(2024)
        floor = 1e-12
        for r in range(2, 6):
            values = np.empty((r, 600))
            for column in values.T:
                for i in range(r):
                    pick = rng.integers(7) if i else 0
                    earlier = column[rng.integers(i)] if i else 0.0
                    column[i] = (
                        rng.uniform(0.0, 1.0) * 10.0 ** -rng.integers(0, 20),
                        earlier,
                        earlier * (1.0 + rng.choice([-1.0, 1.0]) * 1e-13),
                        earlier * (1.0 + rng.choice([-1.0, 1.0]) * 3e-12),
                        0.0,
                        floor,
                        rng.uniform(0.0, 1.0),
                    )[pick]
            present = values > floor
            present[:, rng.random(600) < 0.05] = False
            ranks = greedy_ranks(values, present)
            for m, (column, shown) in enumerate(zip(values.T, present.T)):
                streams = [[(v, None)] if keep else [] for v, keep in zip(column, shown)]
                expected = np.full(r, -1)
                for position, (state, _, _) in enumerate(greedy_order(streams)):
                    expected[state] = position
                assert ranks[:, m].tolist() == expected.tolist(), column


class TestGsDetector:
    def test_vector_inside_span_is_skipped_mid_run(self):
        # state 1's top vector (e1+e2)/sqrt2 puts state 0's e2 (0.3) inside the
        # picked span; state 1's e4 (0.25) and state 0's e3 (0.2, tied with
        # state 1's (e1-e2)/sqrt2) are still picked after it. A common unitary
        # rotation leaves e2 a rounding-sized residual instead of an exact 0.
        e = np.eye(4)
        s = 1.0 / math.sqrt(2.0)
        vectors = [(e[0] + e[1]) * s, e[3], (e[0] - e[1]) * s, e[2]]
        values = [0.45, 0.25, 0.2, 0.1]
        rotation = random_orthonormal(4, 4, np.random.default_rng(0))
        mats = [
            np.diag([0.5, 0.3, 0.2, 0.0]),
            sum(v * np.outer(x, x) for v, x in zip(values, vectors)),
        ]
        states = [DensityMatrix(rotation @ m @ rotation.conj().T) for m in mats]
        det, diag = gs_detector(states)
        assert diag.selection_order == [(0, 0), (1, 0), (1, 1), (0, 2)]
        assert det.labels.tolist() == [0, 1, 1, 0]
        assert abs(evaluate_errors(states, det).averaged - 0.3625) < 1e-12

    def test_defect_ensemble_matches_high_precision_reference(self):
        # the r = 3 ensemble on which the implicit path loses 3.2e-4 at n = 6;
        # the dense span rule reaches the 60-digit mpmath greedy Gram-Schmidt value
        powers = defect_ensemble_powers(6)
        det, _ = gs_detector(powers)
        assert abs(evaluate_errors(powers, det).averaged - 0.269741190996) < 1e-10

    def test_commuting_matches_classical_ml(self):
        states = [diagonal([0.7, 0.3]), diagonal([0.4, 0.6])]
        det, diag = gs_detector(states)
        report = evaluate_errors(states, det)
        assert abs(report.averaged - 0.35) < 1e-12
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        ml_labels = classical_ml(probs)
        # identify basis columns with canonical slots and compare labels
        for col, label in zip(diag.basis.T, det.labels):
            slot = int(np.argmax(np.abs(col)))
            assert ml_labels[slot] == label

    def test_zero_plus_pinned_example(self, zero_state, plus_state):
        det, diag = gs_detector([zero_state, plus_state])
        assert diag.selection_order == [(0, 0), (1, 0)]
        assert det.labels.tolist() == [0, 1]
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

    def test_completion_direction_gets_label_zero(self):
        states = [diagonal([0.7, 0.3, 0.0]), diagonal([0.4, 0.6, 0.0])]
        det, diag = gs_detector(states)
        assert len(diag.selection_order) == 2
        assert np.abs(np.abs(diag.basis[:, 2]) - [0.0, 0.0, 1.0]).max() < 1e-12
        assert det.labels[2] == 0

    def test_non_unitary_basis_raises(self, monkeypatch):
        # scaling only the completion columns leaves every picked direction
        # intact, so only the frame check on the whole square factor sees it
        rng = np.random.default_rng(17)
        states = [random_density_matrix(4, rng, rank=1) for _ in range(3)]
        real_qr = np.linalg.qr

        def skewed_qr(a, mode="reduced"):
            out = real_qr(a, mode=mode)
            if mode != "complete":
                return out
            q, r = out
            q = q.copy()
            q[:, a.shape[1] :] *= 1.0 + 1e-6
            return q, r

        monkeypatch.setattr("qmht.detectors.np.linalg.qr", skewed_qr)
        with pytest.raises(NumericalConsistencyError, match="orthonormal"):
            gs_detector(states)


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

    def test_defect_ensemble_floor_matches_high_precision_reference(self):
        # the picked Gram of the defect ensemble's explicit powers has its
        # floor at or below the ~1e-16 noise of an eigensolve of that Gram.
        # References: the Gram matrix V^H V of the same double picks V (the
        # columns ``selection_order`` names, from each power's ``spectrum()``),
        # formed and solved by ``mpmath.eighe`` at 40 digits; its smallest
        # eigenvalue.
        for n, reference in ((5, 2.75655655887e-14), (6, 1.94198146678e-18)):
            powers = defect_ensemble_powers(n)
            det, diag = gs_detector(powers)
            assert abs(diag.lambda_min_gram - reference) <= 1e-4 * reference
            err = evaluate_errors(powers, det).averaged
            bound = gs_error_bound(powers, diag)
            assert math.isfinite(bound) and bound >= err
        # the n = 6 err, pinned as before
        assert abs(err - 0.2697411909957834) < 1e-14
        # a Gram floor at or below 0 has no ceiling
        for floor in (0.0, -diag.lambda_min_gram):
            singular = dataclasses.replace(diag, lambda_min_gram=floor)
            assert math.isinf(gs_error_bound(powers, singular))

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
        # a prior a rounding below 0 counts as 0
        for priors in ([1.0, 0.0], [1.0 + 5e-13, -5e-13]):
            det = pgm([rho, rho], priors)
            assert np.allclose(det.elements[0].mat, np.eye(3), atol=1e-9)
            assert np.abs(det.elements[1].mat).max() < 1e-12

    def test_ill_conditioned_averages(self):
        # d = 32 Wishart states of ranks 12, 8 and 12, whose average has its
        # smallest eigenvalue near 2e-8 and whose element A^(-1/2) p rho
        # A^(-1/2) rounds 9e-12 off Hermitian; and two nearly parallel pure
        # qubit states (smallest eigenvalue of A 1.3e-6), where the rounding
        # of A^(-1/2) alone put the two readings of err 1.3e-13 apart
        rng = np.random.default_rng(35)
        families = [[random_density_matrix(32, rng, rank=rank) for rank in (12, 8, 12)]]
        rng = np.random.default_rng(8931)
        families.append(
            [random_density_matrix(2, rng, rank=int(rng.integers(1, 3))) for _ in range(2)]
        )
        for states in families:
            det = pgm(states, [1 / len(states)] * len(states))
            errors = evaluate_errors(states, det).per_hypothesis
            for rho, element, err in zip(states, det.elements, errors):
                assert abs(err - (1.0 - np.trace(rho.mat @ element.mat).real)) <= 1e-14

    def test_rank_deficient_average_still_povm(self):
        states = [pure([1, 0, 0]), pure([0, 1, 0])]
        det = pgm(states, [0.5, 0.5])  # average has a kernel; completion goes to element 0
        total = det.elements[0].mat + det.elements[1].mat
        assert np.abs(total - np.eye(3)).max() < 1e-9
        assert np.abs(det.elements[0].mat - np.diag([1.0, 0.0, 1.0])).max() < 1e-12


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

    @given(st.integers(2, 6), st.integers(2, 3), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_pvm_frame_reports_as_its_elements(self, dim, r, seed):
        # reading a PVM frame through its labelled columns gives the same
        # verdicts as its explicit elements, for detectors that pass the
        # certificate and for ones that fail it
        rng = np.random.default_rng(seed)
        states = [random_density_matrix(dim, rng) for _ in range(r)]
        rotation = random_orthonormal(dim, dim, rng)
        commuting = [
            DensityMatrix(rotation @ np.diag(rng.dirichlet(np.ones(dim))) @ rotation.conj().T)
            for _ in range(r)
        ]
        bayes = bayes_commuting(commuting)[0]
        permuted = Detector(
            kind="PVM", frame=bayes.frame, labels=(bayes.labels + 1) % r, outcomes=r
        )
        cases = [
            (commuting, bayes),
            (commuting, permuted),
            (states[:2], holevo_helstrom(*states[:2])),
            (states, gs_detector(states)[0]),
        ]
        for family, det in cases:
            explicit = Detector(det.elements, kind="PVM")
            for tol in (1e-9, 1e-8):
                assert verify_bayes_conditions(family, det, tol) == verify_bayes_conditions(
                    family, explicit, tol
                )

    def test_povm_annihilation_is_read_off_its_elements(self):
        # a POVM frame's T_i is no isometry, so ||(M - rho_i) T_i||_2 would
        # differ from the certificate's ||(M - rho_i) E_i||_2; verdicts just
        # either side of the elementwise residual tell the two apart
        rng = np.random.default_rng(23)
        states = [random_density_matrix(3, rng) for _ in range(3)]
        for det in (pgm(states, [0.2, 0.3, 0.5]), epsilon_detector(states, 0.4)[0]):
            elements = [e.mat for e in det.elements]
            m = sum(rho.mat @ e for rho, e in zip(states, elements))
            m = (m + m.conj().T) / 2.0
            for i, (rho, e) in enumerate(zip(states, elements)):
                residual = np.linalg.norm((m - rho.mat) @ e, 2)
                assert verify_bayes_conditions(states, det, 1.001 * residual).annihilates[i]
                assert not verify_bayes_conditions(states, det, 0.999 * residual).annihilates[i]

    def test_annihilation_reads_every_labelled_column(self):
        # label 0 owns a slot where the family is diagonal, which annihilates,
        # and then a direction of a non-commuting block, which does not
        a = np.zeros((3, 3), dtype=complex)
        b = np.zeros((3, 3), dtype=complex)
        a[0, 0], a[1:, 1:] = 0.5, 0.5 * pure([1, 0]).mat
        b[0, 0], b[1:, 1:] = 0.1, 0.9 * pure([1, 1]).mat
        states = [DensityMatrix(a), DensityMatrix(b)]
        det = Detector(kind="PVM", frame=np.eye(3), labels=[0, 0, 1], outcomes=2)
        report = verify_bayes_conditions(states, det, tol=1e-9)
        assert report.annihilates == (False, False)
        assert report == verify_bayes_conditions(
            states, Detector(det.elements, kind="PVM"), tol=1e-9
        )


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
        # lambda_min_gram is the smallest eigenvalue of the embedded Gram
        # delta^2 V^H V + epsilon^2 I, which is well conditioned enough here
        # for an eigensolve to check it, with fewer and more picks than d
        rng = np.random.default_rng(15)
        for dim, rank in ((2, 2), (4, 1), (6, 2), (4, 3)):
            states = [random_density_matrix(dim, rng, rank=rank) for _ in range(2)]
            for epsilon in (0.2, 0.5):
                _, diag = epsilon_detector(states, epsilon)
                assert diag.lambda_min_gram >= epsilon**2 * (1 - 1e-9)
                vectors = np.column_stack(
                    [states[s].spectrum().vectors[:, i] for s, i in diag.selection_order]
                )
                gram = (1 - epsilon**2) * (vectors.conj().T @ vectors)
                gram += epsilon**2 * np.eye(len(diag.selection_order))
                assert abs(diag.lambda_min_gram - np.linalg.eigvalsh(gram)[0]) < 1e-14

    def test_generally_not_projective(self, zero_state, plus_state):
        det, _ = epsilon_detector([zero_state, plus_state], 0.5)
        assert det.kind == "POVM"
        element = det.elements[1].mat
        assert np.abs(element @ element - element).max() > 1e-6

    def test_embedded_basis_completion(self):
        rng = np.random.default_rng(16)
        states = [random_density_matrix(16, rng, rank=5) for _ in range(3)]
        det, diag = epsilon_detector(states, 0.3)
        # the private epsilon-directions make every eigenvector above the zero
        # cut independent, so each one is picked
        values = np.concatenate([rho.spectrum().eigenvalues for rho in states])
        picks = len(diag.selection_order)
        assert picks == int(np.sum(values > eigenvalue_zero_threshold(values)))
        basis = diag.basis
        size = 16 + picks
        assert basis.shape == (size, size)
        assert np.abs(basis.conj().T @ basis - np.eye(size)).max() < 1e-12
        picked = basis[:, :picks]
        completion = basis[:, picks:]
        assert completion.shape[1] > 0
        assert all(label == 0 for label in det.labels[picks:])
        complement = np.eye(size) - picked @ picked.conj().T
        assert np.abs(completion @ completion.conj().T - complement).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 16, 32])
    def test_elements_are_upper_blocks_of_embedded_pvm(self, dim):
        # rebuild the embedded PVM from the reported basis and labels, check it
        # as a PVM, and cut it back to its upper block
        rng = np.random.default_rng(100 + dim)
        for r in (2, 3):
            states = [
                random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
                for _ in range(r)
            ]
            for epsilon in (0.1, 0.3, 0.7):
                det, diag = epsilon_detector(states, epsilon)
                blocks = [diag.basis[:, det.labels == i] for i in range(r)]
                big = Detector([HermitianMatrix(b @ b.conj().T) for b in blocks], kind="PVM")
                upper = [HermitianMatrix(e.mat[:dim, :dim]) for e in big.elements]
                for new, old in zip(det.elements, upper):
                    assert np.abs(new.mat - old.mat).max() <= 1e-15
                old_report = evaluate_errors(states, Detector(upper, kind="POVM"))
                new_report = evaluate_errors(states, det)
                assert np.abs(
                    np.subtract(new_report.per_hypothesis, old_report.per_hypothesis)
                ).max() <= 1e-15
                assert abs(new_report.averaged - old_report.averaged) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 16, 32])
    def test_matches_the_full_embedding(self, dim):
        # the paper's (r+1)d embedding, each pick's private direction at row
        # (state + 1) d + index, gives the same POVM as the d + m one
        rng = np.random.default_rng(200 + dim)
        for r in (2, 3):
            states = [
                random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
                for _ in range(r)
            ]
            for epsilon in (1e-3, 0.1, 0.3, 0.7):
                det, diag = epsilon_detector(states, epsilon)
                selection = diag.selection_order
                columns = np.zeros(((r + 1) * dim, len(selection)), dtype=complex)
                for k, (state, index) in enumerate(selection):
                    vector = states[state].spectrum().vectors[:, index]
                    columns[:dim, k] = math.sqrt(1.0 - epsilon**2) * vector
                    columns[(state + 1) * dim + index, k] = epsilon
                full_basis, _ = np.linalg.qr(columns, mode="complete")
                labels = [state for state, _ in selection]
                labels += [0] * ((r + 1) * dim - len(selection))
                full = Detector(kind="POVM", frame=full_basis[:dim], labels=labels, outcomes=r)
                for new, old in zip(det.elements, full.elements):
                    assert np.abs(new.mat - old.mat).max() <= 1e-14
                assert np.abs(
                    np.subtract(
                        evaluate_errors(states, det).per_hypothesis,
                        evaluate_errors(states, full).per_hypothesis,
                    )
                ).max() <= 1e-15

    def test_floor_matches_high_precision_reference(self):
        # the defect ensemble's n = 4 powers at the epsilon floor, where the
        # 1/epsilon^2 = 1e6 conditioning of the embedded Gram amplifies input
        # rounding; the reference is a 40-digit mpmath Gram-Schmidt of the
        # same double eigenvectors, and the block route must reach it too
        reference = 0.345395214050463
        powers = defect_ensemble_powers(4)
        det, _ = epsilon_detector(powers, EPSILON_FLOOR)
        assert abs(evaluate_errors(powers, det).averaged - reference) <= 1e-13
        (row,) = run_power_experiment(
            defect_ensemble_powers(1), [4], "epsilon", epsilon_override=EPSILON_FLOOR
        ).rows
        assert abs(row.err - reference) <= 1e-13

    @pytest.mark.parametrize("rows", ["all", "extra"])
    def test_non_unitary_basis_raises(self, monkeypatch, rows):
        # scaling only the extra-block rows leaves the upper block a valid
        # POVM, so only the unitarity check on the QR factor can see it
        rng = np.random.default_rng(17)
        states = [random_density_matrix(4, rng, rank=2) for _ in range(3)]
        real_qr = np.linalg.qr

        def skewed_qr(a, mode="reduced"):
            out = real_qr(a, mode=mode)
            if mode != "complete":
                return out
            q, r = out
            q = q.copy()
            q[slice(None) if rows == "all" else slice(4, None)] *= 1.0 + 1e-6
            return q, r

        monkeypatch.setattr("qmht.detectors.np.linalg.qr", skewed_qr)
        with pytest.raises(NumericalConsistencyError, match="not unitary"):
            epsilon_detector(states, 0.3)

    def test_epsilon_out_of_range(self, zero_state, plus_state):
        for bad in (0.0, 1.0, 0.9, 1e-4):
            with pytest.raises(ValueError):
                epsilon_detector([zero_state, plus_state], bad)
        # the validity region [EPSILON_FLOOR, 1/sqrt(2)] at both of its ends
        for good in (EPSILON_CLIP, EPSILON_FLOOR):
            embedding_guard(good)
        for bad in (1.0 / math.sqrt(2.0) + 1e-9, EPSILON_FLOOR / 2):
            with pytest.raises(ValueError):
                embedding_guard(bad)


class TestCommonEigenbasis:
    def test_refines_degenerate_blocks(self):
        a = diagonal([0.5, 0.5])
        b = diagonal([0.3, 0.7])
        basis = common_eigenbasis([a, b])
        for rho in (a, b):
            rotated = basis.conj().T @ rho.mat @ basis
            off = rotated - np.diag(np.diag(rotated))
            assert np.abs(off).max() < 1e-10
