import collections
import dataclasses
import functools
import itertools
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmht.detectors
from qmht.cli import load_scenario
from qmht.detectors import (
    COMMUTATOR_ATOL,
    EPSILON_FLOOR,
    POVM_ATOL,
    SELECTION_TIE_RTOL,
    SPAN_RESIDUAL_TOL,
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
    _common_diagonals,
    _diagonal_bayes_conditions,
    _greedy_pops,
    _gs_frame,
)
from qmht.errors import NumericalConsistencyError
from qmht.linalg import (
    DensityMatrix,
    HermitianMatrix,
    eigenvalue_zero_threshold,
    gram_floor,
)
from qmht.chernoff import q_overlap
from qmht.sampling import random_density_matrix, random_orthonormal, random_pure_state
from qmht.schurweyl import _class_pops, _sweep_blocks, base_spectra
from qmht.tensorlab import EPSILON_CLIP, run_power_experiment
from conftest import diagonal, pure

HELSTROM_ERR_ZERO_PLUS = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


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


def embedding_panel(seed, dim, epsilons):
    """Random families of r = 2 and then 3 states of dimension ``dim`` and
    random ranks, each yielded with every epsilon of ``epsilons``."""
    rng = np.random.default_rng(seed)
    for r in (2, 3):
        states = [
            random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            for _ in range(r)
        ]
        for epsilon in epsilons:
            yield states, epsilon


def exact_embedded_povm(states, selection, epsilon, dps=34):
    """The embedded POVM on the picks ``selection`` of the double
    eigenvectors, in ``dps``-digit mpmath: the elements, as lists of rows,
    and the per-hypothesis errors against the double states.

    With V the picks in order, L L^H = delta^2 V^H V + epsilon^2 I and
    P = delta V L^-H, element i is the sum of p_c p_c^H over the picks c of
    state i, and element 0 also holds the completion I - P P^H.
    """
    with mpmath.workdps(dps):
        epsilon = mpmath.mpf(epsilon)
        delta_sq = 1 - epsilon * epsilon
        delta = mpmath.sqrt(delta_sq)
        columns = [
            [mpmath.mpc(z) for z in states[s].spectrum().vectors[:, i].tolist()]
            for s, i in selection
        ]
        dim, r = len(columns[0]), len(states)
        gram = mpmath.matrix(len(columns))
        for a, left in enumerate(columns):
            for b, right in enumerate(columns[: a + 1]):
                gram[a, b] = delta_sq * mpmath.fdot(right, left, conjugate=True)
                gram[b, a] = mpmath.conj(gram[a, b])
            gram[a, a] += epsilon * epsilon
        lower = mpmath.cholesky(gram)
        # P L^H = delta V, solved column by column
        picks = []
        for c, column in enumerate(columns):
            row = [mpmath.conj(lower[c, a]) for a in range(c)]
            picks.append(
                [(delta * column[k] - mpmath.fdot(row, (p[k] for p in picks))) / lower[c, c]
                 for k in range(dim)]
            )
        elements = [None] * r
        for i in range(1, r):
            own = [p for p, (s, _) in zip(picks, selection) if s == i]
            elements[i] = [
                [mpmath.fdot([p[k] for p in own], [p[l] for p in own], conjugate=True)
                 for l in range(dim)]
                for k in range(dim)
            ]
        elements[0] = [
            [int(k == l) - mpmath.fsum(e[k][l] for e in elements[1:]) for l in range(dim)]
            for k in range(dim)
        ]
        errors = []
        for i, rho in enumerate(states):
            mat = [[mpmath.mpc(z) for z in row] for row in rho.mat.tolist()]
            errors.append(mpmath.fsum(
                mpmath.re(mpmath.fdot(mat[k], (e[l][k] for l in range(dim))))
                for j, e in enumerate(elements) if j != i for k in range(dim)
            ))
        return elements, errors


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

    def test_writes_to_the_given_arrays_do_not_reach_the_detector(self):
        # a detector keeps read-only copies of its frame and labels, so the
        # caller's arrays stay writable and writing them moves nothing
        rng = np.random.default_rng(0)
        states = [random_density_matrix(3, rng) for _ in range(2)]
        built, _ = gs_detector(states)
        frame, labels = np.array(built.frame), np.array(built.labels)
        det = Detector(kind="PVM", frame=frame, labels=labels, outcomes=2)
        before = evaluate_errors(states, det)
        frame[:, 0] *= 2.0
        labels[:] = 1 - labels
        assert np.array_equal(det.frame, built.frame)
        assert np.array_equal(det.labels, built.labels)
        assert not det.frame.flags.writeable and not det.labels.flags.writeable
        assert evaluate_errors(states, det) == before
        assert det.elements[1].mat.tobytes() == built.elements[1].mat.tobytes()


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

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_misses_equal_the_element_form(self, r):
        # err_i against sum_{j != i} tr[rho_i E_j], read off the elements,
        # and Succ_i against tr[rho_i E_i], on labelled PVMs with random
        # labels (some outcomes own no column) and on the pgm and embedded
        # POVMs
        rng = np.random.default_rng(70 + r)
        for dim in (2, 5, 16):
            states = [
                random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
                for _ in range(r)
            ]
            detectors = [
                Detector(
                    kind="PVM", frame=random_orthonormal(dim, dim, rng),
                    labels=rng.integers(0, r, size=dim), outcomes=r,
                )
                for _ in range(3)
            ]
            detectors.append(pgm(states, rng.dirichlet(np.ones(r))))
            detectors.append(epsilon_detector(states, 0.3)[0])
            for det in detectors:
                report = evaluate_errors(states, det)
                # both factors are Hermitian, so tr[rho E] = vdot(E, rho)
                masses = np.array(
                    [[np.vdot(e.mat, rho.mat).real for e in det.elements] for rho in states]
                )
                for i, (err, succ) in enumerate(zip(report.per_hypothesis, report.successes)):
                    assert abs(err - (masses[i].sum() - masses[i, i])) <= 1e-14
                    assert abs(succ - masses[i, i]) <= 1e-14
                assert report.averaged == np.mean(report.per_hypothesis)

    def test_a_tiny_error_is_fixed_relative_to_itself(self):
        # |psi> = (sin t, cos t) is read as |0> with probability sin^2 t,
        # 1e-20, far below the rounding of 1 - Succ
        theta = 1e-10
        states = [pure([1.0, 0.0]), pure([math.sin(theta), math.cos(theta)])]
        det = Detector(kind="PVM", frame=np.eye(2), labels=[0, 1], outcomes=2)
        report = evaluate_errors(states, det)
        expected = math.sin(theta) ** 2 / 2.0
        assert abs(report.averaged - expected) <= 1e-12 * expected
        assert report.per_hypothesis[0] == 0.0


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        # every comparison with NaN is False, so the row checks alone let it pass
        with pytest.raises(ValueError, match="finite"):
            classical_ml([[bad, 1.0], [0.5, 0.5]])


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

    @staticmethod
    def flagged_columns(values, present, monkeypatch):
        """``greedy_ranks`` of the panel, asserted column by column to be the
        positions of ``greedy_order`` on its one-value streams wherever it
        does not flag the column, with every flagged column holding two
        distinct present values within 2 ``SELECTION_TIE_RTOL`` of each
        other; returns how many columns it flagged. It sorts only: it makes
        no ``greedy_order`` call."""
        expected = np.full(values.shape, -1)
        for m, (column, shown) in enumerate(zip(values.T, present.T)):
            streams = [[(v, None)] if keep else [] for v, keep in zip(column, shown)]
            for position, (state, _, _) in enumerate(greedy_order(streams)):
                expected[state, m] = position
        merges = []

        def counted(streams):
            merges.append(1)
            return greedy_order(streams)

        monkeypatch.setattr(qmht.detectors, "greedy_order", counted)
        ranks, flagged = greedy_ranks(values, present)
        monkeypatch.undo()
        assert not merges
        for m, column in enumerate(values.T):
            if m not in flagged:
                assert ranks[:, m].tolist() == expected[:, m].tolist(), column
        for m in flagged.tolist():
            kept = np.sort(values[present[:, m], m])
            gaps = np.diff(kept)
            assert ((gaps > 0.0) & (gaps <= 2.0 * SELECTION_TIE_RTOL * kept[:-1])).any()
        return len(flagged)

    def test_columns_without_near_ties_take_the_sort(self, monkeypatch):
        # random values over twenty decades, exact ties, zeros and absent
        # states: no column holds two distinct present values within 2e-12
        # relative
        rng = np.random.default_rng(2025)
        for r in range(2, 6):
            values = rng.uniform(0.0, 1.0, (r, 800)) * 10.0 ** -rng.integers(0, 20, (r, 800))
            values[1, ::7] = values[0, ::7]
            values[rng.random(values.shape) < 0.1] = 0.0
            present = (values > 1e-12) & (rng.random(values.shape) > 0.1)
            # an absent state sorts last and its value is never compared, so
            # one just below a present value is no near tie
            values[r - 1, ::5] = values[0, ::5] * (1.0 - 1e-13)
            present[r - 1, ::5] = False
            assert self.flagged_columns(values, present, monkeypatch) == 0

    def test_only_near_tie_columns_are_flagged(self, monkeypatch):
        # a few columns get a later state 1e-13 (inside SELECTION_TIE_RTOL)
        # above or below an earlier one; one more pair at 3e-12 is outside
        # the guard's 2e-12 and takes the sort
        rng = np.random.default_rng(2026)
        for r in range(2, 6):
            values = rng.uniform(0.1, 1.0, (r, 800))
            present = np.ones(values.shape, dtype=bool)
            present[:, ::11] = rng.random((r, len(range(0, 800, 11)))) > 0.3
            ties = rng.choice(800, 12, replace=False)
            values[r - 1, ties] = values[0, ties] * (1.0 + rng.choice([-1.0, 1.0], 12) * 1e-13)
            present[0, ties] = present[r - 1, ties] = True
            values[1, 5] = values[0, 5] * (1.0 + 3e-12)
            assert 5 not in ties
            assert self.flagged_columns(values, present, monkeypatch) == 12

    def test_column_ranks_match_greedy_order(self, monkeypatch):
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
            flagged = self.flagged_columns(values, present, monkeypatch)
            assert 0 < flagged < 600


def merged_pops(states):
    """The (state, eigenindex) pops of ``greedy_order`` down to the zero cut,
    and their eigenvectors, column by column: the merge itself."""
    decs = [rho.spectrum() for rho in states]
    cut = eigenvalue_zero_threshold(np.concatenate([dec.eigenvalues for dec in decs]))
    pops = []
    streams = [zip(dec.eigenvalues, itertools.count()) for dec in decs]
    for state, value, index in greedy_order(streams):
        if value <= cut:
            break
        pops.append((state, index))
    return pops, np.column_stack([decs[state].vectors[:, index] for state, index in pops])


class TestGreedyPops:
    def test_sorted_pops_equal_the_merge(self, monkeypatch):
        # Wishart states of random rank; permuted diagonals with exact ties
        # and zeros; explicit tensor powers, whose runs of equal products
        # come out of eigh as near ties; diagonals a 1e-13 or 3e-12 relative
        # step from a permutation of each other; two close small values that
        # rise along their stream; and tails a few ulps either side of the
        # zero cut
        import qmht.detectors

        merges = []

        def counted(streams):
            merges.append(1)
            return greedy_order(streams)

        monkeypatch.setattr(qmht.detectors, "greedy_order", counted)
        rng = np.random.default_rng(31)
        families = 3000
        for k in range(families):
            r, dim = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            kind = k % 6
            if kind == 0:
                states = [
                    random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
                    for _ in range(r)
                ]
            elif kind == 1:
                levels = np.append(rng.random(int(rng.integers(1, 4))), 0.0)
                row = levels[rng.integers(len(levels), size=dim)]
                row[0] = row[0] or 1.0
                states = [diagonal(rng.permutation(row / row.sum())) for _ in range(r)]
            elif kind == 2:
                base = [
                    random_density_matrix(2, rng, rank=int(rng.integers(1, 3))) for _ in range(r)
                ]
                if rng.random() < 0.5:  # a mirror image shares every product
                    base[1] = DensityMatrix(base[0].mat[::-1, ::-1])
                n = int(rng.integers(2, 4))
                states = [DensityMatrix(functools.reduce(np.kron, [s.mat] * n)) for s in base]
            elif kind == 3:
                row = rng.dirichlet(np.ones(dim))
                steps = rng.choice([0.0, 1e-15, 1e-13, 3e-12], size=(r - 1, dim))
                rows = [row] + [
                    row[rng.permutation(dim)] * (1.0 + rng.choice([-1.0, 1.0], size=dim) * step)
                    for step in steps
                ]
                states = [diagonal(q / q.sum()) for q in rows]
            elif kind == 4:
                # 1e-4 and 1e-4 + 5e-13 are 5e-9 apart relative, far past the
                # tie tolerance, but inside the spectral tie-break's absolute
                # 1e-12, which puts them in rising order
                rows = []
                for _ in range(r):
                    row = np.empty(dim + 1)
                    row[:2] = 1e-4 + 5e-13, 1e-4
                    row[2:] = rng.dirichlet(np.ones(dim - 1)) * (1.0 - row[:2].sum())
                    rows.append(row)
                states = [diagonal(q) for q in rows]
            else:
                cut = 0.5 * 1e-12
                rows = []
                for _ in range(r):
                    tail = cut + np.spacing(cut) * rng.integers(-3, 4, size=dim)
                    tail[0], tail[1] = 0.5, 0.5 - tail[2:].sum()
                    rows.append(tail)
                states = [diagonal(q) for q in rows]
            before = len(merges)
            _, pops, vectors = _greedy_pops(states)
            assert len(merges) - before in (0, 1)
            expected_pops, expected_vectors = merged_pops(states)
            assert pops == expected_pops
            assert np.array_equal(vectors, expected_vectors)
            assert vectors.flags.c_contiguous
        # both the sort and the merge it falls back to were exercised
        assert 0.2 * families < len(merges) < 0.8 * families


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
        det, _ = gs_detector(states)
        report = evaluate_errors(states, det)
        assert abs(report.averaged - 0.35) < 1e-12
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        ml_labels = classical_ml(probs)
        # identify frame columns with canonical slots and compare labels
        for col, label in zip(det.frame.T, det.labels):
            slot = int(np.argmax(np.abs(col)))
            assert ml_labels[slot] == label

    def test_zero_plus_pinned_example(self, zero_state, plus_state):
        det, diag = gs_detector([zero_state, plus_state])
        assert diag.selection_order == [(0, 0), (1, 0)]
        assert det.labels.tolist() == [0, 1]
        assert np.allclose(np.abs(det.frame[:, 0]), [1.0, 0.0])
        assert np.allclose(np.abs(det.frame[:, 1]), [0.0, 1.0])
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
        det, _ = gs_detector(states)
        assert det.kind == "PVM"
        basis = det.frame
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() < 1e-9

    def test_rejects_single_state(self, zero_state):
        with pytest.raises(ValueError):
            gs_detector([zero_state])

    def test_completion_direction_gets_label_zero(self):
        states = [diagonal([0.7, 0.3, 0.0]), diagonal([0.4, 0.6, 0.0])]
        det, diag = gs_detector(states)
        assert len(diag.selection_order) == 2
        assert np.abs(np.abs(det.frame[:, 2]) - [0.0, 0.0, 1.0]).max() < 1e-12
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


def sequential_gs_frame(vectors):
    """The sequential reference selection: each candidate column in turn is
    projected off the frame by two classical Gram-Schmidt passes and picked
    when its residual norm is above ``SPAN_RESIDUAL_TOL``, until the frame
    spans C^D. Returns the picked columns, the frame of normalized
    residuals, the smallest picked residual and the number of candidates
    rejected."""
    dim, count = vectors.shape
    frame = np.empty((dim, 0), dtype=complex)
    picked, smallest, read = [], math.inf, count
    for k in range(count):
        residual = vectors[:, k].astype(complex)
        for _ in range(2):
            residual -= frame @ (frame.conj().T @ residual)
        norm = float(np.linalg.norm(residual))
        if norm <= SPAN_RESIDUAL_TOL:
            continue
        frame = np.column_stack([frame, residual / norm])
        picked.append(k)
        smallest = min(smallest, norm)
        if len(picked) == dim:
            read = k + 1
            break
    return picked, frame, smallest, read - len(picked)


class TestGsFrameOracle:
    """``_gs_frame`` against ``sequential_gs_frame``: the same picks, the
    same lambda_min (both read sigma_min from the Householder R of the same
    picks) and the same elements to 1e-12. Every family here has its picks'
    residuals above 1e-3, so rounding fixes each picked direction, and with
    it each element, to ~1e-13."""

    @staticmethod
    def assert_matches(owners, vectors):
        picked, frame, smallest, rejected = sequential_gs_frame(vectors)
        chosen, basis, labels, floor = _gs_frame(owners, vectors)
        assert chosen == picked
        assert floor == gram_floor(vectors[:, picked])
        assert smallest > 1e-3
        owners = owners[picked]
        complement = np.eye(len(frame)) - frame @ frame.conj().T
        for i in range(max(labels.max(), owners.max()) + 1):
            ours = basis[:, labels == i]
            theirs = frame[:, owners == i]
            expected = theirs @ theirs.conj().T + (complement if i == 0 else 0.0)
            assert np.abs(ours @ ours.conj().T - expected).max() < 1e-12
        return rejected, len(picked) + rejected

    def test_windows_by_hand(self):
        rng = np.random.default_rng(3)
        a, b, c, e, f, g = random_orthonormal(6, 6, rng).T
        cases = {
            # a dependent candidate mid-window, then independent ones: the
            # rest of the window continues as the residuals Q[:, b:] R[b:, b+1:]
            "column deletion": [a, b, (a + b) / math.sqrt(2.0), c, e, f, g],
            # two dependent candidates in a row, then one that fills the frame
            # from a later window
            "two rejections": [a, (a - 1j * b) / math.sqrt(2.0), b, c, -a, e, f],
            # fewer candidates than dimensions, with and without a rejection
            "K < D": [a, b, c],
            "K < D, rejection": [a, b, (b - a) / math.sqrt(2.0), c],
            # the frame fills before the candidates run out
            "fills early": [a, b, c, e, f, g, (a + c) / math.sqrt(2.0)],
        }
        rejections = {}
        for name, columns in cases.items():
            vectors = np.column_stack(columns)
            owners = np.arange(vectors.shape[1]) % 3
            rejections[name] = self.assert_matches(owners, vectors)[0]
        assert rejections == {
            "column deletion": 1, "two rejections": 2, "K < D": 0, "K < D, rejection": 1,
            "fills early": 0,
        }

    def test_dense_rank_deficient_and_pure_families(self):
        rng = np.random.default_rng(8)
        rejected = 0
        for _ in range(3):
            # rank-2 qutrits: 24 candidates of the cubes in C^27
            rank2 = [random_density_matrix(3, rng, rank=2) for _ in range(3)]
            # pure qubits and a pure state in the span of the first two
            psi, phi = random_orthonormal(3, 2, rng).T
            mixed = [
                pure(psi), pure(phi), pure(psi + 0.5j * phi), pure(random_orthonormal(3, 1, rng)[:, 0])
            ]
            for states, n in ((rank2, 3), (mixed, 1), (mixed, 2)):
                powers = [DensityMatrix(functools.reduce(np.kron, [s.mat] * n)) for s in states]
                _, pops, vectors = _greedy_pops(powers)
                rejected += self.assert_matches(np.array(pops)[:, 0], vectors)[0]
        assert rejected >= 6

    def test_block_rank_deficient_pure_and_qutrit_families(self):
        rng = np.random.default_rng(9)
        scenario = load_scenario(os.path.join(SCENARIOS, "mixed_qutrit_pair.json"))
        families = [
            ([random_density_matrix(3, rng, rank=2) for _ in range(3)], 4),
            ([random_pure_state(3, rng) for _ in range(3)], 6),
            (scenario.states, 12),
        ]
        for states, n in families:
            eigenvalues, cut, vectors = base_spectra(states)
            [pops] = _class_pops(n, cut, [0.0])
            counts = np.zeros(2, dtype=int)
            for _, _, block in _sweep_blocks([n], eigenvalues, vectors):
                owners, columns = block.columns(*pops)
                if owners.size:
                    counts += self.assert_matches(owners, block.unitaries[owners, :, columns].T)
            rejected, read = counts
            if n == 12:
                # 238 of the 1,456 candidates read are rejected; in each of
                # the 18 blocks with a rejection, the first comes after 60 %
                # of the block's reads
                assert 0.1 * read < rejected < 0.3 * read


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
        # the n = 6 err against two 60-digit references. (1) The test's own
        # recipe: the same double picks, and the double powers, taken exact,
        # Gram-Schmidt-ed and scored in mpmath: 0.26974119099576236. The
        # row's smallest pick residual is 1.1e-5 (lambda_min 1.9e-18), and
        # err moves by at most 34 times a perturbation of the picks' unit
        # columns (to first order, over random perturbations of 1e-12 and
        # 1e-11); a Householder QR of the 64 picks perturbs them by about
        # sqrt(64) u = 8.9e-16, so 34 * 8.9e-16 = 3e-14. (2) ROADMAP F2,
        # ``mp_greedy_gs_error`` of test_schurweyl on the product
        # eigenvectors: 0.26974119099571358. The dense spectra differ from
        # those by rounding, which moves err by 4.8e-14 between the two
        # references (a column perturbation of 13 u); 1e-13 allows twice that.
        assert abs(err - 0.26974119099576236) < 3e-14
        assert abs(err - 0.26974119099571358) < 1e-13
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_priors(self, zero_state, plus_state, bad):
        # a ValueError, not the NumericalConsistencyError of the frame check,
        # which stands for an internal failure
        with pytest.raises(ValueError, match="finite"):
            pgm([zero_state, plus_state], [bad, 1.0])

    @staticmethod
    def direct_elements(states, priors):
        """A^(-1/2) p_i rho_i A^(-1/2) from the matrices, the kernel of A
        added to element 0, and dim ker A."""
        average = sum(p * rho.mat for p, rho in zip(priors, states))
        values, vectors = np.linalg.eigh(average)
        keep = values > eigenvalue_zero_threshold(values)
        inv_sqrt = (vectors[:, keep] * values[keep] ** -0.5) @ vectors[:, keep].conj().T
        elements = [inv_sqrt @ (p * rho.mat) @ inv_sqrt for p, rho in zip(priors, states)]
        elements[0] = elements[0] + vectors[:, ~keep] @ vectors[:, ~keep].conj().T
        return elements, int(np.count_nonzero(~keep))

    @pytest.mark.parametrize(
        "dim, ranks, priors",
        [
            (8, (2, 3, 1), (0.5, 0.3, 0.2)),
            (8, (3, 8, 2), (0.4, 0.0, 0.6)),
            (32, (8, 12, 6), (1 / 3, 1 / 3, 1 / 3)),
            (32, (20, 5, 32, 9), (0.1, 0.4, 0.3, 0.2)),
            (32, (10, 7, 12), (0.0, 0.5, 0.5)),
        ],
    )
    def test_frames_hold_the_positive_support_only(self, dim, ranks, priors):
        # each state with a positive prior owns one column per positive
        # eigenvalue, a zero-prior state none, and outcome 0 also one column
        # per dimension of the kernel of A; the elements are the
        # square-root measurement's
        rng = np.random.default_rng(dim + sum(ranks))
        states = [random_density_matrix(dim, rng, rank=rank) for rank in ranks]
        det = pgm(states, priors)
        expected, kernel = self.direct_elements(states, priors)
        owned = [
            len(rho.spectrum().positive_indices()) if p > 0.0 else 0
            for rho, p in zip(states, priors)
        ]
        assert det.frame.shape == (dim, sum(owned) + kernel)
        owned[0] += kernel
        assert np.bincount(det.labels, minlength=len(states)).tolist() == owned
        for element, direct in zip(det.elements, expected):
            assert np.abs(element.mat - direct).max() <= 1e-13

    def test_an_eigenvalue_dropped_as_zero_leaves_a_povm(self):
        # 5e-13 is below the first state's zero threshold and 2e-12 above the
        # second's: A, if summed from the matrices, keeps a 1.25e-12
        # direction in which the frame misses the first state's share, and
        # T T^H falls short of I by a fifth there
        states = [diagonal([1 - 5e-13, 5e-13]), diagonal([1 - 2e-12, 2e-12])]
        det = pgm(states, [0.5, 0.5])
        assert np.abs(det.frame @ det.frame.conj().T - np.eye(2)).max() <= 1e-15
        assert det.labels.tolist() == [0, 1, 1]

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

    def test_rejects_mixed_dimensions(self):
        # before any product of the states is taken
        with pytest.raises(ValueError, match="^states must share one dimension$"):
            bayes_commuting([diagonal([0.6, 0.4]), diagonal([0.2, 0.3, 0.5])])


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

    @staticmethod
    def exact_verdicts(states, det, tol):
        """The certificate by eigvalsh and 2-norms, as written in the conditions."""
        factors = [det.frame[:, det.labels == i] for i in range(det.outcomes)]
        m = sum((rho.mat @ t) @ t.conj().T for rho, t in zip(states, factors))
        hermitian = float(np.abs(m - m.conj().T).max()) <= tol
        m = (m + m.conj().T) / 2.0
        return (
            hermitian,
            tuple(float(np.linalg.eigvalsh(m - rho.mat)[0]) >= -tol for rho in states),
            tuple(
                float(np.linalg.norm((m - rho.mat) @ t @ t.conj().T, 2)) <= tol
                for rho, t in zip(states, factors)
            ),
        )

    def assert_exact(self, states, det, tol):
        report = verify_bayes_conditions(states, det, tol)
        verdicts = (report.m_hermitian, report.dominates, report.annihilates)
        assert verdicts == self.exact_verdicts(states, det, tol)
        return report

    def test_factorization_verdicts_equal_the_exact_ones(self):
        # the Cholesky and Frobenius tests decide only where they prove the
        # condition; every other verdict comes from eigvalsh or the 2-norm
        rng = np.random.default_rng(41)
        tol = 1e-9
        outcomes = collections.Counter()
        for _ in range(40):
            dim, r = int(rng.integers(2, 9)), int(rng.integers(2, 4))
            rotation = random_orthonormal(dim, dim, rng)
            rows = rng.dirichlet(np.ones(dim), size=r)
            commuting = [DensityMatrix(rotation @ np.diag(p) @ rotation.conj().T) for p in rows]
            bayes = bayes_commuting(commuting)[0]
            relabelled = bayes.labels.copy()
            slot = int(rng.integers(dim))
            relabelled[slot] = (relabelled[slot] + 1) % r  # a wrong label
            wrong = Detector(kind="PVM", frame=bayes.frame, labels=relabelled, outcomes=r)
            states = [
                random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
                for _ in range(r)
            ]
            cases = [
                (commuting, bayes),
                (commuting, wrong),
                (states[:2], holevo_helstrom(*states[:2])),
                (states, gs_detector(states)[0]),
                (states, pgm(states, [1.0 / r] * r)),
            ]
            for family, det in cases:
                outcomes[self.assert_exact(family, det, tol).passed] += 1
        assert outcomes[True] >= 80 and outcomes[False] >= 80

    @pytest.mark.parametrize("excess", [0.5, 2.0])
    def test_dominance_within_and_past_the_tolerance(self, excess):
        # slot 0 goes to state 0, whose probability there is excess * tol
        # below state 1's: M - rho_1 has that as its smallest eigenvalue
        tol = 1e-8
        rows = [[0.4, 0.3, 0.3], [0.4 + excess * tol, 0.1, 0.5 - excess * tol]]
        states = [diagonal(p) for p in rows]
        det = Detector(kind="PVM", frame=np.eye(3), labels=[0, 0, 1], outcomes=2)
        report = self.assert_exact(states, det, tol)
        assert report.dominates == (True, excess < 1.0)
        assert all(report.annihilates)

    def test_annihilation_between_the_frobenius_and_the_2_norm(self):
        # a coupling between slots of different labels leaves M a little off
        # Hermitian; state 0's residual over its three columns has a
        # Frobenius norm above its 2-norm, and tolerances below, between and
        # above the two decide as the 2-norm does
        rng = np.random.default_rng(42)
        dim = 6
        for _ in range(10):
            rows = 0.5 * rng.dirichlet(np.ones(dim), size=2) + 0.5 / dim
            coupling = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            coupling = 1e-4 * (coupling + coupling.conj().T)
            np.fill_diagonal(coupling, 0.0)
            states = [DensityMatrix(np.diag(rows[0]) + coupling), diagonal(rows[1])]
            det = Detector(kind="PVM", frame=np.eye(dim), labels=[0, 0, 0, 1, 1, 1], outcomes=2)
            factors = [det.frame[:, det.labels == i] for i in range(2)]
            m = sum((rho.mat @ t) @ t.conj().T for rho, t in zip(states, factors))
            residual = ((m + m.conj().T) / 2.0 - states[0].mat) @ factors[0]
            frobenius = float(np.linalg.norm(residual))
            spectral = float(np.linalg.norm(residual @ factors[0].conj().T, 2))
            assert frobenius > 1.01 * spectral
            between = math.sqrt(frobenius * spectral)
            for tol, holds in ((0.99 * spectral, False), (between, True), (1.01 * frobenius, True)):
                assert self.assert_exact(states, det, tol).annihilates[0] is holds


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
        # the frame is the top 16 rows of the embedding's (16 + m)-dimensional
        # unitary: its rows are orthonormal, the picks come first, labelled by
        # their states, and the completion projects onto the rest of C^16
        frame = det.frame
        size = 16 + picks
        assert frame.shape == (16, size)
        assert np.abs(frame @ frame.conj().T - np.eye(16)).max() < 1e-12
        picked = frame[:, :picks]
        completion = frame[:, picks:]
        assert completion.shape[1] > 0
        assert det.labels[:picks].tolist() == [state for state, _ in diag.selection_order]
        assert all(label == 0 for label in det.labels[picks:])
        complement = np.eye(16) - picked @ picked.conj().T
        assert np.abs(completion @ completion.conj().T - complement).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 16, 32])
    def test_elements_are_upper_blocks_of_embedded_pvm(self, dim):
        # rebuild the embedded PVM from the reported picks and labels by a
        # complete QR of the embedded picks, check it as a PVM, and cut it
        # back to its upper block. The closed form's elements are within
        # 2.08e-15 of the exact ones and this QR's within 5.99e-16, so the
        # two are within their sum of each other
        for states, epsilon in embedding_panel(100 + dim, dim, (0.1, 0.3, 0.7)):
            r = len(states)
            det, diag = epsilon_detector(states, epsilon)
            selection = diag.selection_order
            columns = np.zeros((dim + len(selection), len(selection)), dtype=complex)
            for k, (state, index) in enumerate(selection):
                vector = states[state].spectrum().vectors[:, index]
                columns[:dim, k] = math.sqrt(1.0 - epsilon * epsilon) * vector
                columns[dim + k, k] = epsilon
            basis, _ = np.linalg.qr(columns, mode="complete")
            blocks = [basis[:, det.labels == i] for i in range(r)]
            big = Detector([HermitianMatrix(b @ b.conj().T) for b in blocks], kind="PVM")
            upper = [HermitianMatrix(e.mat[:dim, :dim]) for e in big.elements]
            for new, old in zip(det.elements, upper):
                assert np.abs(new.mat - old.mat).max() <= 2.7e-15
            old_report = evaluate_errors(states, Detector(upper, kind="POVM"))
            new_report = evaluate_errors(states, det)
            assert np.abs(
                np.subtract(new_report.per_hypothesis, old_report.per_hypothesis)
            ).max() <= 1e-15
            assert abs(new_report.averaged - old_report.averaged) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 16, 32])
    def test_matches_the_full_embedding(self, dim):
        # the paper's (r+1)d embedding, each pick's private direction at row
        # (state + 1) d + index, gives the same POVM as the d + m one. Its
        # complete QR is within 6.50e-16 of the exact elements and 3.11e-16
        # of the exact errors, the closed form within 1.42e-14 and 2.82e-15
        # (at epsilon = 1e-3), so the two are within the sums
        for states, epsilon in embedding_panel(200 + dim, dim, (1e-3, 0.1, 0.3, 0.7)):
            r = len(states)
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
                assert np.abs(new.mat - old.mat).max() <= 1.5e-14
            assert np.abs(
                np.subtract(
                    evaluate_errors(states, det).per_hypothesis,
                    evaluate_errors(states, full).per_hypothesis,
                )
            ).max() <= 3.2e-15

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_matches_the_exact_embedded_povm(self, dim):
        # the panels of the two tests above against ``exact_embedded_povm``
        # at 34 digits, on the same double eigenvectors: the closed form is
        # within 7.16e-15 on elements (d = 16, epsilon = 1e-3) and 2.82e-15
        # on err (d = 2), the complete QR of the d + m embedding within
        # 5.06e-16 and 3.08e-16
        panels = ((100 + dim, (0.1, 0.3, 0.7)), (200 + dim, (1e-3, 0.1, 0.3, 0.7)))
        for seed, epsilons in panels:
            for states, epsilon in embedding_panel(seed, dim, epsilons):
                det, diag = epsilon_detector(states, epsilon)
                elements, errors = exact_embedded_povm(states, diag.selection_order, epsilon)
                for ours, exact in zip(det.elements, elements, strict=True):
                    assert max(
                        abs(mpmath.mpc(complex(x)) - y)
                        for row, exact_row in zip(ours.mat.tolist(), exact)
                        for x, y in zip(row, exact_row)
                    ) <= 1e-14
                per_hypothesis = evaluate_errors(states, det).per_hypothesis
                assert max(abs(x - y) for x, y in zip(per_hypothesis, errors)) <= 4e-15

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

    def test_skewed_completion_fails_the_frame_check(self, monkeypatch):
        # the completion is the one solve against the identity; scaled by
        # 1 + 1e-6, it keeps its span, and the Newton-Schulz step pulls it
        # back only along directions that the picks miss, so the frame
        # check T T^H = I, the one check on the POVM, sees the rest
        rng = np.random.default_rng(17)
        states = [random_density_matrix(4, rng, rank=2) for _ in range(3)]
        real_solve = qmht.detectors.solve_lower

        def skewed_solve(lower, rhs):
            out = real_solve(lower, rhs)
            if np.array_equal(rhs, np.eye(len(rhs))):
                out *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(qmht.detectors, "solve_lower", skewed_solve)
        with pytest.raises(NumericalConsistencyError, match="orthonormal"):
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
    def test_rejects_an_empty_family(self):
        with pytest.raises(ValueError, match="at least one state"):
            common_eigenbasis([])

    def test_a_skipped_diagonal_pair_still_names_the_first_failing_pair(self):
        # two exactly diagonal states commute without a product; a third,
        # non-diagonal state that commutes with neither is still caught, in
        # the order of the pairs
        rng = np.random.default_rng(44)
        first, second = diagonal([0.5, 0.3, 0.2]), diagonal([0.1, 0.2, 0.7])
        other = random_density_matrix(3, rng)
        for family, pair in (
            ([first, second, other], "0 and 2"),
            ([first, other, second], "0 and 1"),
            ([other, first, second], "0 and 1"),
        ):
            with pytest.raises(ValueError, match=f"^states {pair} do not commute$"):
                common_eigenbasis(family)

    def test_refines_degenerate_blocks(self):
        a = diagonal([0.5, 0.5])
        b = diagonal([0.3, 0.7])
        basis = common_eigenbasis([a, b])
        for rho in (a, b):
            rotated = basis.conj().T @ rho.mat @ basis
            off = rotated - np.diag(np.diag(rotated))
            assert np.abs(off).max() < 1e-10

    @staticmethod
    def eigh_refined_basis(states):
        """The refinement with an ``eigh`` of every block, diagonal or not."""
        dim = states[0].dim
        basis = np.eye(dim, dtype=complex)
        blocks = [np.arange(dim)]
        for rho in states:
            refined = []
            for block in blocks:
                if block.size > 1:
                    sub = basis[:, block].conj().T @ rho.mat @ basis[:, block]
                    values, rotation = np.linalg.eigh((sub + sub.conj().T) / 2.0)
                    basis[:, block] = basis[:, block] @ rotation
                    cuts = [t for t in range(1, block.size) if values[t] - values[t - 1] > 1e-10]
                    refined.extend(np.split(block, cuts))
                else:
                    refined.append(block)
            blocks = refined
        return basis

    def test_sorted_diagonal_blocks_equal_the_eigh_refinement(self):
        # exactly diagonal blocks are sorted, not eigensolved: with distinct
        # values, with ties already in order, and with ties out of order
        # (eigh's selection sort moves those, so they keep the eigh); up to
        # d = 40, past the size where LAPACK divides and conquers; and
        # commuting families whose later states are not diagonal
        rng = np.random.default_rng(43)
        for k in range(120):
            dim, r = int(rng.integers(2, 41)), int(rng.integers(2, 4))
            levels = rng.random(int(rng.integers(1, 4)))
            rows = []
            for _ in range(r):
                row = rng.random(dim) if k % 3 == 0 else levels[rng.integers(len(levels), size=dim)]
                rows.append(np.sort(row) if k % 3 == 1 else row)
            states = [diagonal(row / row.sum()) for row in rows]
            if k % 4 == 3:
                rotation = np.eye(dim, dtype=complex)
                rotation[:2, :2] = random_orthonormal(2, 2, rng)
                states[1:] = [
                    DensityMatrix(rotation @ rho.mat @ rotation.conj().T) for rho in states[1:]
                ]
                states[0] = diagonal(np.r_[0.5, 0.5, np.zeros(dim - 2)] if dim > 2 else [0.5, 0.5])
            basis, diagonals, _, _ = _common_diagonals(states)
            expected = self.eigh_refined_basis(states)
            assert np.array_equal(basis, expected)
            assert np.array_equal(common_eigenbasis(states), expected)
            # the diagonals equal the products' also where the basis rotates by indexing
            rotated = [(expected.conj().T @ rho.mat @ expected).diagonal().real for rho in states]
            assert np.array_equal(diagonals, rotated)


class TestDiagonalRowPath:
    @staticmethod
    def families(seed, count):
        """Exactly diagonal families, d 1-40 and r 2-4, with zeros and ties
        within and across states. A third have rows from three levels, each
        sorted, so that every tie is in order; a third permute one row of
        distinct values and a zero; a third draw unsorted rows from three
        levels, whose ties out of order keep most of them on the dense path."""
        rng = np.random.default_rng(seed)
        for k in range(count):
            dim, r = int(rng.integers(1, 41)), int(rng.integers(2, 5))
            levels = np.r_[0.0, rng.integers(1, 4, size=2)].astype(float)
            if k % 3 == 0:
                rows = np.sort(levels[rng.integers(3, size=(r, dim))], axis=1)
            elif k % 3 == 1:
                base = np.r_[0.0, rng.random(dim - 1)]
                rows = np.array([rng.permutation(base) for _ in range(r)])
            else:
                rows = levels[rng.integers(3, size=(r, dim))]
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            yield rng, [diagonal(row / row.sum()) for row in rows]

    def test_row_path_equals_the_dense_forms(self, monkeypatch):
        # the detector, mu and certificate bytes are the dense forms on the
        # eigh-refined basis, and the row conditions are the dense verdicts,
        # also for mislabelled slots, which fail them; no dense check runs
        dense_checks = []

        def counted(*args, **kwargs):
            dense_checks.append(1)
            return verify_bayes_conditions(*args, **kwargs)

        monkeypatch.setattr(qmht.detectors, "verify_bayes_conditions", counted)
        on_rows = mislabelled = 0
        for rng, states in self.families(seed=51, count=180):
            r, dim = len(states), states[0].dim
            basis, probs, columns, commutator = _common_diagonals(states)
            before = len(dense_checks)
            det, mu, certificate = bayes_commuting(states)
            expected = TestCommonEigenbasis.eigh_refined_basis(states)
            assert np.array_equal(det.frame, expected)
            assert np.array_equal(det.labels, np.argmax(probs, axis=0))
            slot_max = probs.max(axis=0)
            dense = HermitianMatrix((expected * slot_max) @ expected.conj().T)
            assert certificate.mat.tobytes() == dense.mat.tobytes()
            assert mu == float(slot_max.sum())
            if columns is None:
                assert len(dense_checks) == before + 1
                continue
            on_rows += 1
            assert len(dense_checks) == before and commutator == 0.0
            assert np.array_equal(basis, np.eye(dim)[:, columns])
            report = _diagonal_bayes_conditions(probs, det.labels)
            assert report.passed
            assert report == verify_bayes_conditions(states, det, POVM_ATOL)
            below = np.argwhere(probs < slot_max)
            relabels = [rng.integers(r, size=dim)]
            if below.size:
                state, slot = below[rng.integers(len(below))]
                wrong = det.labels.copy()
                wrong[slot] = state
                relabels.append(wrong)
            for labels in relabels:
                report = _diagonal_bayes_conditions(probs, labels)
                other = Detector(kind="PVM", frame=det.frame, labels=labels, outcomes=r)
                assert report == verify_bayes_conditions(states, other, POVM_ATOL)
                if not report.passed:
                    mislabelled += 1
        assert on_rows >= 100 and mislabelled >= 50, (on_rows, mislabelled)

    @staticmethod
    def sorted_columns(rows):
        """The row path's column order stated with numpy sorts: a stable
        argsort of each block, refused where the block neither ascends nor
        holds distinct values, whose runs are cut where neighbours differ
        by more than ``COMMUTATOR_ATOL``."""
        columns = np.arange(rows.shape[1])
        blocks = [np.arange(rows.shape[1])]
        for row in rows:
            refined = []
            for block in blocks:
                values = row[columns[block]]
                order = np.argsort(values, kind="stable")
                if not ((np.diff(values) >= 0.0).all() or (np.diff(values[order]) > 0.0).all()):
                    return None
                columns[block] = columns[block[order]]
                cuts = np.flatnonzero(np.diff(values[order]) > COMMUTATOR_ATOL) + 1
                refined.extend(run for run in np.split(block, cuts) if run.size > 1)
            blocks = refined
        return columns

    def test_row_scan_gives_the_sorted_order(self):
        # the scan on Python floats orders the columns as numpy's sorts do,
        # and refuses the same blocks, with ties exact, within the tolerance
        # and just past it; where it takes the rows, the basis is eigh's
        taken = refused = 0
        for k, (rng, states) in enumerate(self.families(seed=98, count=300)):
            rows = np.stack([rho.mat.diagonal().real for rho in states])
            if k % 2:
                rows = rows + COMMUTATOR_ATOL * rng.choice([0.0, 0.3, 1.5], size=rows.shape)
                states = [diagonal(row / row.sum()) for row in rows]
                rows = np.stack([rho.mat.diagonal().real for rho in states])
            _, _, columns, _ = _common_diagonals(states)
            expected = self.sorted_columns(rows)
            if expected is None:
                assert columns is None
                refused += 1
                continue
            assert columns.tolist() == expected.tolist()
            taken += 1
            if k % 2 == 0:
                refined = TestCommonEigenbasis.eigh_refined_basis(states)
                assert np.array_equal(np.eye(len(columns))[:, columns], refined)
        assert taken >= 100 and refused >= 50, (taken, refused)

    def test_one_non_diagonal_state_keeps_the_dense_check(self, monkeypatch):
        # a 1e-17 coherence commutes to rounding and leaves the basis a
        # permutation, but only a family of exactly diagonal states is
        # read off its rows
        dense_checks = []

        def counted(*args, **kwargs):
            dense_checks.append(1)
            return verify_bayes_conditions(*args, **kwargs)

        monkeypatch.setattr(qmht.detectors, "verify_bayes_conditions", counted)
        near = np.diag([0.6, 0.3, 0.1]).astype(complex)
        near[0, 1] = near[1, 0] = 1e-17
        states = [diagonal([0.2, 0.5, 0.3]), DensityMatrix(near)]
        basis, probs, columns, commutator = _common_diagonals(states)
        assert columns is None and 0.0 < commutator <= COMMUTATOR_ATOL
        assert np.array_equal(basis, np.eye(3)[:, [0, 2, 1]])
        bayes_commuting(states)
        assert dense_checks == [1]

    def test_a_non_diagonal_commuting_family_stays_dense(self):
        rng = np.random.default_rng(52)
        rotation = random_orthonormal(5, 5, rng)
        states = [
            DensityMatrix((rotation * p) @ rotation.conj().T)
            for p in ([0.4, 0.3, 0.2, 0.1, 0.0], [0.1, 0.1, 0.2, 0.2, 0.4])
        ]
        basis, probs, columns, commutator = _common_diagonals(states)
        # a common rotation leaves the commutator at rounding level, not 0
        assert columns is None and 0.0 < commutator <= 5 * np.finfo(float).eps
        det, mu, certificate = bayes_commuting(states)
        assert verify_bayes_conditions(states, det, POVM_ATOL).passed
        slot_max = probs.max(axis=0)
        dense = HermitianMatrix((basis * slot_max) @ basis.conj().T)
        assert certificate.mat.tobytes() == dense.mat.tobytes()
        assert abs(mu - 1.5) < 1e-12

