import itertools
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

import qmht.chernoff
import qmht.linalg
from qmht.chernoff import (
    GRID,
    OverlapCurve,
    binary_qcb,
    multiple_qcb,
    pairwise_qcb,
    q_overlap,
)
from qmht.cli import load_scenario
from qmht.detectors import gs_detector, gs_error_bound, lemma3_bound
from qmht.linalg import DensityMatrix
from qmht.sampling import random_density_matrix, random_orthonormal, random_state_vector
from conftest import diagonal, pure

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")

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

    @pytest.mark.parametrize("s", [-0.1, 1.5, math.nan])
    def test_s_outside_the_unit_interval(self, zero_state, plus_state, s):
        with pytest.raises(ValueError, match=rf"^s must lie in \[0, 1\], got {s}$"):
            q_overlap(zero_state, plus_state, s)

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

    def test_q_star_rounding_to_one_gives_positive_zero_xi(self):
        # -log(1.0) is -0.0, which printed "-0"; q* <= 1 for any two states
        res = binary_qcb(pure([1.0, 1e-9]), pure([1.0, -1e-9]))
        assert res.q_star == 1.0
        assert res.xi == 0.0 and math.copysign(1.0, res.xi) == 1.0

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


class TestMinimizerPanel:
    """binary_qcb on 40 seeded full-support diagonal pairs (d = 2-5)."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(40)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            yield rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))

    @staticmethod
    def counted_evaluations(monkeypatch):
        """Every evaluation of a curve or its derivatives, by method name; a
        single-point call runs through on_grid and counts twice."""
        calls = []
        for name in ("grid_values", "__call__", "on_grid", "slope_and_curvature"):
            plain = getattr(OverlapCurve, name)

            def counting(curve, *args, plain=plain, name=name):
                calls.append(name)
                return plain(curve, *args)

            monkeypatch.setattr(OverlapCurve, name, counting)
        return calls

    def test_matches_bounded_brent(self, monkeypatch):
        # the pass on each pair reads its grid once and evaluates at most
        # eight times in all
        calls = self.counted_evaluations(monkeypatch)
        for p, q in self.pairs():
            calls.clear()
            res = binary_qcb(diagonal(p), diagonal(q))
            assert calls.count("grid_values") == 1 and len(calls) <= 8, calls
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
            assert abs(res.s_star - root) <= 1e-12

    def test_one_pass_evaluates_each_pair_as_often(self, monkeypatch):
        # the pass over a whole family spends on each pair what it spends on
        # that pair alone, and builds each state's support once
        calls = self.counted_evaluations(monkeypatch)
        supports = []
        plain = qmht.chernoff._Support

        def counting(*args, **kwargs):
            supports.append(1)
            return plain(*args, **kwargs)

        monkeypatch.setattr(qmht.chernoff, "_Support", counting)
        rows = [p for pair in self.pairs() for p in pair if len(p) == 4][:4]
        family = [diagonal(p) for p in rows]
        res = multiple_qcb(family)
        assert len(res.pairwise) == 6 and len(supports) == 4
        assert calls.count("grid_values") == 6 and len(calls) <= 8 * 6, calls
        together, alone = len(calls), 0
        for i, j in res.pairwise:
            calls.clear()
            assert binary_qcb(family[i], family[j]) == res.pairwise[(i, j)]
            alone += len(calls)
        assert together == alone


def mp_reference(rho, sigma):
    """(s*, q*, f''(s*)) in 50 digits from the double entries of both states.

    Eigenvalues at or below 1e-12 times the largest are dropped, the support
    rule of OverlapCurve; s* is an endpoint where f' keeps one sign on [0, 1],
    else the root of f'.
    """
    with mpmath.workdps(50):

        def support(mat):
            values, vectors = mpmath.eighe(mpmath.matrix(mat.tolist()))
            cut = mpmath.mpf(1e-12) * max(abs(v) for v in values)
            keep = [i for i in range(len(values)) if values[i] > cut]
            return [(values[i], vectors[:, i]) for i in keep]

        terms = [
            (lam, mu, abs(mpmath.fdot(v, w, conjugate=True)) ** 2)
            for lam, v in support(rho.mat)
            for mu, w in support(sigma.mat)
        ]

        def derivative(s, order):
            return mpmath.fsum(
                weight * lam ** (1 - s) * mu**s * mpmath.log(mu / lam) ** order
                for lam, mu, weight in terms
            )

        if derivative(0, 1) >= 0:
            s_star = mpmath.mpf(0)
        elif derivative(1, 1) <= 0:
            s_star = mpmath.mpf(1)
        else:
            s_star = mpmath.findroot(lambda s: derivative(s, 1), (0, 1), solver="anderson")
        return s_star, derivative(s_star, 0), derivative(s_star, 2)


class TestHighPrecisionReferences:
    """binary_qcb on non-commuting pairs against 50-digit mpmath references."""

    @staticmethod
    def assert_matches(res, s_ref, q_ref, curvature, q_rtol):
        assert abs(res.q_star - float(q_ref)) <= q_rtol * float(q_ref)
        if s_ref in (0, 1):
            assert res.s_star == float(s_ref)
        else:
            # f' is fixed to ~eps, so s* to ~eps / f''(s*)
            assert curvature > 1e-2
            assert abs(res.s_star - float(s_ref)) <= 1e-12

    def test_mixed_qubit_pair(self):
        states = load_scenario(os.path.join(SCENARIOS, "mixed_qubit_pair.json")).states
        s_ref, q_ref, curvature = mp_reference(*states)
        assert mpmath.nstr(s_ref, 20) == "0.50717748924034928947"
        assert mpmath.nstr(q_ref, 20) == "0.85685701249697694049"
        self.assert_matches(binary_qcb(*states), s_ref, q_ref, curvature, 1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_qutrit_pairs(self, seed):
        # full-rank and rank-2 Wishart qutrits; several rank-deficient pairs
        # have their minimum at an endpoint. The double eigensolve alone moves
        # q* by up to 1.9e-15 relative on these pairs, hence 4e-15.
        rng = np.random.default_rng(seed)
        for ranks in ((3, 3), (2, 3), (3, 2), (2, 2)):
            rho = random_density_matrix(3, rng, rank=ranks[0])
            sigma = random_density_matrix(3, rng, rank=ranks[1])
            self.assert_matches(binary_qcb(rho, sigma), *mp_reference(rho, sigma), 4e-15)

    def test_monotone_curve_ends_at_an_endpoint(self):
        # rho: rank 2 with eigenvalues 1/2; sigma: full rank, eigenvalues all
        # below 1/2 in another basis. f'(1) < 0, so the curve falls on all of
        # [0, 1]: s* = 1 with q* = tr(P_rho sigma), and s* = 0 reversed.
        rng = np.random.default_rng(8)
        u, v = random_orthonormal(3, 3, rng), random_orthonormal(3, 3, rng)
        rho = DensityMatrix(u @ np.diag([0.5, 0.5, 0.0]) @ u.conj().T)
        sigma = DensityMatrix(v @ np.diag([0.45, 0.35, 0.2]) @ v.conj().T)
        for pair in ((rho, sigma), (sigma, rho)):
            s_ref, q_ref, curvature = mp_reference(*pair)
            assert s_ref == (1 if pair[0] is rho else 0)
            self.assert_matches(binary_qcb(*pair), s_ref, q_ref, curvature, 1e-15)

    def test_pure_against_mixed(self):
        # one-eigenvalue support: f(s) = sum_k |<psi|w_k>|^2 mu_k^s falls from
        # 1 to <psi|sigma|psi> at s = 1
        rng = np.random.default_rng(9)
        psi = random_state_vector(3, rng)
        pure = DensityMatrix(np.outer(psi, psi.conj()))
        sigma = random_density_matrix(3, rng)
        expected = float(np.vdot(psi, sigma.mat @ psi).real)
        for pair, s_end in (((pure, sigma), 1.0), ((sigma, pure), 0.0)):
            s_ref, q_ref, curvature = mp_reference(*pair)
            assert s_ref == s_end
            res = binary_qcb(*pair)
            self.assert_matches(res, s_ref, q_ref, curvature, 1e-15)
            assert abs(res.q_star - expected) <= 1e-15

    def test_constant_curve(self):
        # two pure qutrits: f(s) = |<psi|phi>|^2 for every s
        rng = np.random.default_rng(10)
        psi, phi = random_state_vector(3, rng), random_state_vector(3, rng)
        with mpmath.workdps(50):
            q_ref = abs(mpmath.fdot(psi.tolist(), phi.tolist(), conjugate=True)) ** 2
        res = binary_qcb(*(DensityMatrix(np.outer(x, x.conj())) for x in (psi, phi)))
        assert res.s_star == 0.5
        assert abs(res.q_star - float(q_ref)) <= 1e-15 * float(q_ref)


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

    @staticmethod
    def families(dim):
        """Eight random-rank families for each r = 2, 3, 4."""
        rng = np.random.default_rng(dim)
        for r in (2, 3, 4):
            for _ in range(8):
                yield [
                    random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
                    for _ in range(r)
                ]

    @pytest.mark.parametrize("dim", [2, 3, 5, 32])
    def test_pairs_equal_fresh_binary_bounds(self, dim):
        # every pairwise (q*, s*, xi) of multiple_qcb, and the gs bound's
        # overlap sum, equal bitwise those of binary_qcb on fresh copies,
        # whose spectra are computed anew
        for states in self.families(dim):
            r = len(states)
            res = multiple_qcb(states)
            _, diagnostics = gs_detector(states)
            bound = gs_error_bound(states, diagnostics)
            fresh = {
                (i, j): binary_qcb(DensityMatrix(states[i].mat), DensityMatrix(states[j].mat))
                for i in range(r)
                for j in range(i + 1, r)
            }
            assert res.pairwise == fresh
            total = 0.0
            for pair in fresh.values():
                total += 2.0 * pair.q_star
            assert bound == lemma3_bound(total, diagnostics.lambda_min_gram, r)

    @pytest.mark.parametrize("dim", [2, 3, 5, 32])
    def test_curve_equals_the_closed_form(self, dim):
        # the curve and its derivatives equal bitwise the closed forms on
        # freshly stacked C-contiguous arrays: a transposed view of a log
        # stack as a matmul operand moved q* on about one d = 32 family in
        # four
        for states in self.families(dim):
            for i, j in itertools.combinations(range(len(states)), 2):
                a, b = states[i].spectrum(), states[j].spectrum()
                ia, ib = a.positive_indices(), b.positive_indices()
                lam, mu = a.eigenvalues[ia], b.eigenvalues[ib]
                weights = np.abs(a.vectors[:, ia].conj().T @ b.vectors[:, ib]) ** 2
                grid = GRID[:, None, None]
                values = (lam ** (1.0 - grid) @ weights @ mu[:, None] ** grid)[:, 0, 0]
                lam_logs = np.stack([np.ones_like(lam), np.log(lam), np.log(lam) ** 2])
                mu_logs = np.stack([np.ones_like(mu), np.log(mu), np.log(mu) ** 2], axis=1)
                curve = OverlapCurve(states[i], states[j])
                assert np.array_equal(curve.on_grid(GRID), values)
                for s in (0.0, 0.3, 0.5, 1.0):
                    m = (lam_logs * lam ** (1.0 - s)) @ weights @ (mu_logs * mu[:, None] ** s)
                    expected = (m[0, 1] - m[1, 0], m[0, 2] - 2.0 * m[1, 1] + m[2, 0])
                    assert curve.slope_and_curvature(s) == expected

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


class TestDiagonalFamilies:
    """An exactly diagonal family reads its spectra off its diagonals, with
    no eigensolve (``spectral_decompose``'s diagonal rule)."""

    @staticmethod
    def families():
        """Exactly diagonal families, d 2-5 and r 2-4, whose rows have zeros;
        a quarter tie their levels exactly, a quarter hold near ties (a pair
        1e-13 apart, or a chain 0.6e-12 apart that ``spectral_decompose``
        cuts into two runs), and a quarter turn a zero entry into -1e-11,
        which the spectrum clamps to zero, or into 1e-14 or 1e-13, under
        the 1e-12 relative cut."""
        rng = np.random.default_rng(97)
        for k in range(240):
            dim, r = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            rows = rng.random((r, dim)) * (rng.random((r, dim)) < 0.7)
            if k % 4 == 1:
                rows = rng.choice([0.0, 1.0, 2.0], size=(r, dim))
            elif k % 4 == 2:
                rows[:, 0] += 0.5
                rows[:, -1] = rows[:, 0] * (1.0 + 1e-13 * rng.choice([-1.0, 1.0], size=r))
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            rows /= rows.sum(axis=1, keepdims=True)
            if k % 8 == 6 and dim >= 3:
                level = 1.0 / 3.0 if dim == 3 else rng.uniform(0.1, 1.0 / dim)
                chain = level + np.array([0.0, 0.6e-12, 1.2e-12])
                row = np.r_[chain, np.full(dim - 3, (1.0 - 3.0 * level) / max(dim - 3, 1))]
                rows = np.array([rng.permutation(row) for _ in range(r)])
            zeros = np.argwhere(rows == 0.0)
            if k % 4 == 3 and zeros.size:
                planted = rng.choice([-1e-11, 1e-14, 1e-13])
                rows[tuple(zeros[rng.integers(len(zeros))])] = planted
            yield [diagonal(row) for row in rows]

    @staticmethod
    def counted_decompositions(monkeypatch):
        calls = []
        plain = qmht.linalg.spectral_decompose

        def counting(h):
            calls.append(h.dim)
            return plain(h)

        monkeypatch.setattr(qmht.linalg, "spectral_decompose", counting)
        return calls

    @staticmethod
    def counted_eigensolves(monkeypatch):
        calls = []
        plain = np.linalg.eigh

        def counting(mat, *args, **kwargs):
            calls.append(len(mat))
            return plain(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_pass_equals_the_spectra_route(self, monkeypatch):
        # bitwise: the same family, with the diagonal rule switched off,
        # takes an eigensolve per state; with it on, no state is eigensolved
        eigensolves = self.counted_eigensolves(monkeypatch)
        on_spectra = 0
        for states in self.families():
            res = pairwise_qcb(states)
            assert eigensolves == []
            with monkeypatch.context() as patch:
                patch.setattr(qmht.linalg, "is_exactly_diagonal", lambda mat: False)
                spectra = pairwise_qcb([DensityMatrix(rho.mat) for rho in states])
            on_spectra += len(eigensolves)
            eigensolves.clear()
            assert res == spectra
            for (i, j), pair in res.pairwise.items():
                assert binary_qcb(states[i], states[j]) == pair
        assert on_spectra == sum(len(states) for states in self.families())

    def test_one_non_diagonal_state_sends_the_family_to_the_spectra(self, monkeypatch):
        # the rule is "exactly diagonal", not "commutes to rounding": an
        # off-diagonal entry of 1e-17 keeps that state's eigensolve
        decompositions = self.counted_decompositions(monkeypatch)
        eigensolves = self.counted_eigensolves(monkeypatch)
        near = np.array([[0.6, 1e-17], [1e-17, 0.4]], dtype=complex)
        res = multiple_qcb([diagonal([0.9, 0.1]), DensityMatrix(near), diagonal([0.3, 0.7])])
        assert decompositions == [2, 2, 2]
        assert eigensolves == [2]
        assert res.pairwise[(0, 2)] == binary_qcb(diagonal([0.9, 0.1]), diagonal([0.3, 0.7]))
