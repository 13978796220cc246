import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from qmht.chernoff import OverlapCurve, binary_qcb, multiple_qcb, q_overlap
from qmht.sampling import random_density_matrix
from conftest import diagonal

LOG2 = math.log(2.0)


class TestQOverlap:
    def test_identical_states(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(3, rng)
        for s in (0.0, 0.3, 1.0):
            assert abs(q_overlap(rho, rho, s) - 1.0) < 1e-10

    def test_pure_pair_is_squared_overlap(self, zero_state, plus_state):
        assert abs(q_overlap(zero_state, plus_state, 0.3) - 0.5) < 1e-12

    def test_scalar_formula(self):
        rho = diagonal([0.5, 0.5])
        sigma = diagonal([1.0, 0.0])
        assert abs(q_overlap(rho, sigma, 0.5) - 0.5**0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            q_overlap(diagonal([1.0]), diagonal([0.5, 0.5]), 0.5)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_range(self, seed, s):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(3, rng, rank=rng.integers(1, 4))
        sigma = random_density_matrix(3, rng, rank=rng.integers(1, 4))
        value = q_overlap(rho, sigma, s)
        assert -1e-12 <= value <= 1.0 + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_commuting_reduces_to_classical_sum(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        s = float(rng.uniform(0, 1))
        classical = float(np.sum(p ** (1 - s) * q**s))
        assert abs(q_overlap(diagonal(p), diagonal(q), s) - classical) < 1e-12

    @given(st.integers(0, 10_000), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_log_convex_midpoint(self, seed, s1, s2):
        rng = np.random.default_rng(seed)
        curve = OverlapCurve(
            random_density_matrix(3, rng), random_density_matrix(3, rng)
        )
        mid = curve(0.5 * (s1 + s2))
        assert mid <= math.sqrt(curve(s1) * curve(s2)) + 1e-9


class TestBinaryQcb:
    def test_identical_states(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(3, rng)
        res = binary_qcb(rho, rho)
        assert abs(res.xi) < 1e-9 and abs(res.q_star - 1.0) < 1e-10

    def test_pure_pair_constant_curve(self, zero_state, plus_state):
        res = binary_qcb(zero_state, plus_state)
        assert abs(res.xi - LOG2) < 1e-12
        assert res.s_star == 0.5

    def test_endpoint_infimum(self):
        res = binary_qcb(diagonal([0.5, 0.5]), diagonal([1.0, 0.0]))
        assert res.s_star == 0.0
        assert abs(res.q_star - 0.5) < 1e-12
        assert abs(res.xi - LOG2) < 1e-12

    def test_orthogonal_supports(self, zero_state, one_state):
        res = binary_qcb(zero_state, one_state)
        assert res.q_star == 0.0
        assert math.isinf(res.xi)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(3, rng, rank=2)
        sigma = random_density_matrix(3, rng)
        fwd = binary_qcb(rho, sigma)
        rev = binary_qcb(sigma, rho)
        assert abs(fwd.xi - rev.xi) < 1e-9
        assert abs(fwd.s_star - (1.0 - rev.s_star)) < 1e-5

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_never_beaten_by_fine_grid(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(3, rng)
        sigma = random_density_matrix(3, rng)
        res = binary_qcb(rho, sigma)
        curve = OverlapCurve(rho, sigma)
        fine = min(curve(s) for s in np.linspace(0.0, 1.0, 10_001))
        assert res.q_star <= fine + 1e-8


class TestGoldenSectionPanel:
    """binary_qcb on 40 seeded full-support diagonal pairs (d = 2-5)."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(40)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            yield rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))

    def test_matches_bounded_brent(self, monkeypatch):
        calls = []
        plain_call = OverlapCurve.__call__

        def counting_call(curve, s):
            calls.append(s)
            return plain_call(curve, s)

        monkeypatch.setattr(OverlapCurve, "__call__", counting_call)
        for p, q in self.pairs():
            calls.clear()
            res = binary_qcb(diagonal(p), diagonal(q))
            assert len(calls) <= 40
            ref = minimize_scalar(
                lambda s: float(np.sum(p ** (1.0 - s) * q**s)),
                bounds=(0.0, 1.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            assert abs(res.q_star - ref.fun) <= 1e-14 * ref.fun
            # Near its minimum the curve is flat to rounding over a window of
            # width sqrt(2 eps q* / f''), 7e-7 on the flattest pair here, so
            # the s_star reference is the root of the derivative, not ref.x.
            log_ratio = np.log(q / p)
            root = brentq(
                lambda s: float(np.sum(p ** (1.0 - s) * q**s * log_ratio)),
                0.0,
                1.0,
                xtol=1e-15,
            )
            assert abs(res.s_star - root) <= 1e-7


class TestMultipleQcb:
    def test_three_pure_states(self, zero_state, one_state, plus_state):
        res = multiple_qcb([zero_state, one_state, plus_state])
        assert math.isinf(res.pairwise[(0, 1)].xi)
        assert abs(res.pairwise[(0, 2)].xi - LOG2) < 1e-12
        assert abs(res.pairwise[(1, 2)].xi - LOG2) < 1e-12
        assert abs(res.xi - LOG2) < 1e-12
        assert res.argmin_pair == (0, 2)

    def test_two_states_reduces_to_binary(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(3, rng)
        sigma = random_density_matrix(3, rng)
        res = multiple_qcb([rho, sigma])
        assert res.pairwise[(0, 1)] == binary_qcb(rho, sigma)
        assert res.argmin_pair == (0, 1)

    def test_commuting_diagonal_triple(self):
        res = multiple_qcb([diagonal([0.5, 0.5]), diagonal([1.0, 0.0]), diagonal([0.0, 1.0])])
        assert abs(res.xi - LOG2) < 1e-12

    def test_rejects_duplicates(self):
        rho = diagonal([0.5, 0.5])
        with pytest.raises(ValueError, match="duplicates"):
            multiple_qcb([rho, diagonal([0.5, 0.5])])

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            multiple_qcb([diagonal([1.0, 0.0])])
