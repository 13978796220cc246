import functools
import itertools
import math
import time

import mpmath
import numpy as np
import pytest

from qmht.detectors import (
    EPSILON_FLOOR,
    POVM_ATOL,
    SPAN_RESIDUAL_TOL,
    Detector,
    _epsilon_frame,
    evaluate_errors,
    greedy_order,
    gs_detector,
    holevo_helstrom,
    _greedy_pops,
)
from qmht import schurweyl
from qmht.linalg import DENSE_LIMIT_ENV, DensityMatrix, eigenvalue_zero_threshold
from qmht.sampling import random_density_matrix, random_orthonormal, random_pure_state
from qmht.schurweyl import (
    _class_pops,
    _sweep_blocks,
    base_spectra,
    block_scores,
    block_unitary,
    class_pick_cut,
    cut_spectrum,
    multiplicity,
    partitions,
    symmetric_powers,
    type_classes,
    unitary_log,
)
from qmht.tensorlab import gram_convergence_check, run_power_experiment
from conftest import diagonal, route


def roadmap_ensembles(count):
    """The ROADMAP recipe: default_rng(5), each draw 2 or 3 Wishart qubits."""
    rng = np.random.default_rng(5)
    return [
        [random_density_matrix(2, rng) for _ in range(int(rng.integers(2, 4)))]
        for _ in range(count)
    ]


def defect_ensemble():
    """The recipe's second draw (r = 3): exact greedy Gram-Schmidt on its
    powers has picks with residuals down to ~1e-6 and exact zeros."""
    return roadmap_ensembles(2)[1]


def kron_power(rho, n):
    return DensityMatrix(functools.reduce(np.kron, [rho.mat] * n))


# Greedy Gram-Schmidt errors of the defect ensemble from 60-digit mpmath runs
# on product vectors built from the double base eigenvectors.
DEFECT_GS_REFERENCE = {
    5: 0.307874194165615,
    6: 0.269741190995714,
    7: 0.246866988686767,
    8: 0.225768131220222,
}
# Smallest eigenvalue of the block line Gram matrices of the same picks, in
# 60 digits; a double eigvalsh of those Grams returns +-1e-16 noise.
DEFECT_LAMBDA_REFERENCE = {6: 2.03725005979059e-18, 8: 4.49021910790314e-23}
# In double precision the n = 8 row is fixed only to ~1e-11: its smallest
# pick residual is ~1e-6, and relative changes of 2e-16 in the block lines
# move err with a standard deviation of 1.6e-11. Lines built by an eigh of
# the block generator put it 2.3e-11 off, and by the Sym^N recursion, whose
# entries carry errors relative to their own terms, 8.5e-12 off.
N8_ATOL = 1e-11


def t2_pair():
    """Two Wishart qutrits drawn from default_rng(11) after three Wishart qubits."""
    rng = np.random.default_rng(11)
    [random_density_matrix(2, rng) for _ in range(3)]
    return [random_density_matrix(3, rng) for _ in range(2)]


def mp_greedy_gs_error(states, n):
    """Greedy Gram-Schmidt error on the explicit n-fold powers, in 40 digits.

    The double base eigenvalues and eigenvectors are taken as exact. The
    candidates are the product eigenvectors a = u_(j_1) (x) ... (x) u_(j_n) of
    every state, in ``greedy_order`` of their values; the inner products of two
    of them, and their matrix elements under a power, are products of n base
    entries. Each frame vector q_k is kept as its coefficients on the picks,
    and a candidate is picked when its residual norm is above
    ``SPAN_RESIDUAL_TOL``. Hypothesis 0 owns the completion.
    """
    r, d = len(states), states[0].dim
    with mpmath.workdps(40):
        values = [[mpmath.mpf(float(x)) for x in rho.spectrum().eigenvalues] for rho in states]
        bases = [mpmath.matrix(rho.spectrum().vectors.tolist()) for rho in states]
        # overlap[s][t][j, l] = <u^s_j|u^t_l>
        overlap = [[bs.H * bt for bt in bases] for bs in bases]
        # inner[i][s][t][j, l] = <u^s_j|rho_i|u^t_l>, rho_i = V_i diag(p_i) V_i^H
        inner = [
            [
                [overlap[s][i] * mpmath.diag(values[i]) * overlap[i][t] for t in range(r)]
                for s in range(r)
            ]
            for i in range(r)
        ]

        def element(table, a, b):
            return mpmath.fprod(table[a[0]][b[0]][j, l] for j, l in zip(a[1], b[1]))

        streams = [
            sorted(
                (
                    (mpmath.fprod(values[s][j] for j in labels), (s, labels))
                    for labels in itertools.product(range(d), repeat=n)
                ),
                key=lambda item: -item[0],
            )
            for s in range(r)
        ]
        picks, frame = [], []  # frame[k][j]: coefficient of picks[j] in q_k
        for _, value, b in greedy_order(streams):
            if value <= 0 or len(picks) == d**n:
                break
            g = [element(overlap, a, b) for a in picks]
            y = [mpmath.fdot(g, x, conjugate=True) for x in frame]
            norm_sq = element(overlap, b, b) - mpmath.fsum(abs(c) ** 2 for c in y)
            residual = mpmath.sqrt(max(mpmath.re(norm_sq), 0))
            if residual <= SPAN_RESIDUAL_TOL:
                continue
            k = len(picks)
            x = [-mpmath.fdot(y[j:], (frame[m][j] for m in range(j, k))) / residual
                 for j in range(k)]
            picks.append(b)
            frame.append(x + [1 / residual])
        # state 0 misses its mass on the frame of every other label, state
        # i >= 1 its trace less its mass on its own frame: each q_k of label
        # i adds q_k^H (rho_0^(x n) - rho_i^(x n)) q_k
        powers = [[[element(inner[i], a, b) for b in picks] for a in picks] for i in range(r)]
        err = mpmath.fsum(mpmath.fsum(values[i]) ** n for i in range(1, r))
        for k, (owner, _) in enumerate(picks):
            if owner != 0:
                x = frame[k]
                rows = (
                    mpmath.fdot((p - q for p, q in zip(row0[: k + 1], row[: k + 1])), x)
                    for row0, row in zip(powers[0], powers[owner][: k + 1])
                )
                err += mpmath.re(mpmath.fdot(rows, x, conjugate=True))
        return float(err / r)


def mp_epsilon_error(states, n, epsilon):
    """Embedded detector error on the explicit n-fold powers, in 40 digits,
    when every product eigenvector is picked.

    The double base eigenvalues and eigenvectors are taken as exact, and the
    candidates, inner products and matrix elements are those of
    ``mp_greedy_gs_error``. The m picks V, in ``greedy_order`` of their
    values, have the embedded Gram matrix delta^2 V^H V + epsilon^2 I = R^H R;
    the physical part of the k-th orthonormalized pick is delta V x_k, with
    x_k column k of R^-1. State 0 misses its mass on the picks of every other
    label, and state i >= 1 its trace less its mass on its own picks.
    """
    r, d = len(states), states[0].dim
    with mpmath.workdps(40):
        values = [[mpmath.mpf(float(x)) for x in rho.spectrum().eigenvalues] for rho in states]
        bases = [mpmath.matrix(rho.spectrum().vectors.tolist()) for rho in states]
        overlap = [[bs.H * bt for bt in bases] for bs in bases]
        inner = [
            [
                [overlap[s][i] * mpmath.diag(values[i]) * overlap[i][t] for t in range(r)]
                for s in range(r)
            ]
            for i in range(r)
        ]

        def element(table, a, b):
            return mpmath.fprod(table[a[0]][b[0]][j, l] for j, l in zip(a[1], b[1]))

        streams = [
            sorted(
                (
                    (mpmath.fprod(values[s][j] for j in labels), (s, labels))
                    for labels in itertools.product(range(d), repeat=n)
                ),
                key=lambda item: -item[0],
            )
            for s in range(r)
        ]
        picks = [b for _, _, b in greedy_order(streams)]
        delta_sq = 1 - mpmath.mpf(epsilon) ** 2
        gram = mpmath.matrix([[delta_sq * element(overlap, a, b) for b in picks] for a in picks])
        for k in range(len(picks)):
            gram[k, k] = 1
        # R = L^H, so column k of R^-1 is the conjugate of row k of L^-1
        inverse = mpmath.inverse(mpmath.cholesky(gram))
        err = mpmath.fsum(mpmath.fsum(values[i]) ** n for i in range(1, r))
        for i in range(r):
            power = [[element(inner[i], a, b) for b in picks] for a in picks]
            for k, (owner, _) in enumerate(picks):
                if (owner != 0) if i == 0 else (owner == i):
                    x = [mpmath.conj(inverse[k, j]) for j in range(k + 1)]
                    rows = (mpmath.fdot(power[p][: k + 1], x) for p in range(k + 1))
                    mass = delta_sq * mpmath.re(mpmath.fdot(rows, x, conjugate=True))
                    err += mass if i == 0 else -mass
        return float(err / r)


def dicke_basis(big_n):
    """Columns D_0..D_N of the symmetric subspace of N qubits (D_q has q ones)."""
    dicke = np.zeros((2**big_n, big_n + 1))
    for x in range(2**big_n):
        dicke[x, bin(x).count("1")] = 1.0
    return dicke / np.linalg.norm(dicke, axis=0)


def mp_symmetric_power(u, big_n):
    """Sym^N(U) in the Dicke basis, from the closed form
    <D_p|U^(x N)|D_q> = sqrt(C(N,q) / C(N,p)) sum_k C(q,k) C(N-q,p-k)
    u00^(N-q-p+k) u01^(q-k) u10^(p-k) u11^k, at the working precision: k of
    the q ones of a string of D_q and p - k of its zeros turn into ones."""
    u00, u01, u10, u11 = (mpmath.mpmathify(complex(u[a, b])) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)))
    out = mpmath.matrix(big_n + 1, big_n + 1)
    for p in range(big_n + 1):
        for q in range(big_n + 1):
            total = mpmath.fsum(
                math.comb(q, k) * math.comb(big_n - q, p - k)
                * u00 ** (big_n - q - p + k) * u01 ** (q - k) * u10 ** (p - k) * u11**k
                for k in range(max(0, p + q - big_n), min(p, q) + 1)
            )
            out[p, q] = mpmath.sqrt(mpmath.mpf(math.comb(big_n, q)) / math.comb(big_n, p)) * total
    return out


def blocks_of(n, eigenvalues, vectors):
    """Every block of the n-fold powers, in the order the sweep builds them."""
    return [block for _, _, block in _sweep_blocks([n], eigenvalues, vectors)]


def reduced_shape(lam):
    """lam - lam_d (1, ..., 1)."""
    return tuple(part - lam[-1] for part in lam)


def block_generators(lam):
    """Every E_ab of V_lam, from the cached tables of its reduced shape."""
    weights = schurweyl._reduced_weights(reduced_shape(lam)) + lam[-1]
    generators = {(a, a): np.diag(weights[:, a]).astype(float) for a in range(len(lam))}
    for a, b, generator in schurweyl._reduced_raising(reduced_shape(lam)):
        generators[(a, b)] = generator
        generators[(b, a)] = generator.T
    return generators


def exp_i(h):
    """exp(iH) for one Hermitian H or a stack of them."""
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(1j * values)[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def adversarial_unitaries(d, rng):
    """d x d unitaries on which a log is easy to get wrong: -I and I, exactly
    repeated eigenvalues, a cluster within 1e-9 of -1 (at d = 2 also
    diag(-1, 1) and the swap), and Wishart eigenbases."""
    q = random_orthonormal(d, d, rng)

    def with_phases(angles):
        return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T

    out = [-np.eye(d, dtype=complex), np.eye(d, dtype=complex)]
    if d == 2:
        out += [np.diag([-1.0, 1.0]).astype(complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    out.append(with_phases([0.7] * (d - 1) + [-2.1]))
    out.append(with_phases([math.pi] * (d // 2) + [-0.4] * (d - d // 2)))
    out.append(with_phases(math.pi + rng.uniform(-1e-9, 1e-9, d)))
    out.append(with_phases([0.3] + list(math.pi + rng.uniform(-1e-9, 1e-9, d - 1))))
    out += [random_density_matrix(d, rng).spectrum().vectors for _ in range(20)]
    out += [random_density_matrix(d, rng, rank=1).spectrum().vectors for _ in range(5)]
    return out


class TestUnitaryLog:
    @staticmethod
    def check(u, h):
        assert np.abs(h - np.swapaxes(h.conj(), -1, -2)).max() < 1e-15
        assert np.abs(exp_i(h) - u).max() < 1e-14
        # (-pi, pi], up to the rounding of eigvalsh at the top: a cluster
        # within 1e-9 of -1 keeps eigenvalues on both sides of pi
        spectrum = np.linalg.eigvalsh(h)
        assert spectrum.min() > -math.pi and spectrum.max() < math.pi + 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_matrix(self, d):
        for u in adversarial_unitaries(d, np.random.default_rng(40 + d)):
            self.check(u, unitary_log(u))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_matches_one_matrix_at_a_time(self, d):
        stack = np.array(adversarial_unitaries(d, np.random.default_rng(40 + d)))
        logs = unitary_log(stack)
        assert logs.shape == stack.shape
        self.check(stack, logs)
        for u, h in zip(stack, logs):
            assert np.abs(h - unitary_log(u)).max() < 1e-15

    def test_exact_logs_of_reflections(self):
        # -1 maps to pi, never to -pi
        assert np.array_equal(unitary_log(-np.eye(3, dtype=complex)), math.pi * np.eye(3))
        h = unitary_log(np.array([[0, 1], [1, 0]], dtype=complex))
        expected = 0.5 * math.pi * np.array([[1, -1], [-1, 1]])
        assert np.abs(h - expected).max() < 1e-15


class TestSymmetricPowers:
    # Sym^N(U) is the one-row block pi_(N,0)(U). The qubit blocks come from
    # ``symmetric_powers``; the Gelfand-Tsetlin route (``block_unitary`` on
    # ``unitary_log``) stays here as their oracle
    def test_recursion_matches_extended_precision(self):
        # 40 digits of the closed form; each entry of Sym^N(U) is a sum of
        # products of N entries of U, so its error is bounded relative to the
        # same sum on |U| (elementwise relative error grows near the zeros
        # of an entry: 2.3e-12 here), and 0.41 N eps of it was seen
        rng = np.random.default_rng(6)
        tiny = math.sqrt(1.0 - 1e-12)
        us = [
            np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * random_orthonormal(2, 2, rng),
            random_density_matrix(2, rng).spectrum().vectors,
            np.array([[1e-6, -tiny], [tiny, 1e-6]], dtype=complex),
        ]
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for big_n, power in enumerate(symmetric_powers(np.array(us), 20)):
                assert power.shape == (len(us), big_n + 1, big_n + 1)
                for s, u in enumerate(us):
                    reference = mp_symmetric_power(u, big_n)
                    sizes = mp_symmetric_power(np.abs(u), big_n)
                    for (p, q), entry in np.ndenumerate(power[s]):
                        error = float(abs(mpmath.mpmathify(complex(entry)) - reference[p, q]))
                        assert error <= 1e-15
                        assert error <= 2.0 * max(big_n, 1) * eps * float(abs(sizes[p, q]))

    def test_recursion_stays_unitary(self):
        rng = np.random.default_rng(7)
        us = np.array([random_orthonormal(2, 2, rng) for _ in range(3)])
        *_, power = symmetric_powers(us, 200)
        assert power.shape == (3, 201, 201)
        assert np.abs(power.conj().transpose(0, 2, 1) @ power - np.eye(201)).max() < 1e-13

    def test_one_unitary_equals_its_stack_entry(self):
        rng = np.random.default_rng(8)
        us = np.array([random_orthonormal(2, 2, rng) for _ in range(3)])
        for stacked, *alone in zip(*(symmetric_powers(x, 12) for x in (us, *us))):
            for s, power in enumerate(alone):
                assert np.array_equal(stacked[s], power)

    def test_qubit_blocks_match_the_gelfand_tsetlin_route(self):
        # every block (N + h, h) of every n of a sweep reads Sym^N(U) with its
        # Dicke order reversed into GT order, which equals the eigh route on
        # its reduced shape (N, 0): the GT basis of (N, 0) is the Dicke basis
        # with the same signs, so the phase per column that the two might
        # differ by is 1
        rng = np.random.default_rng(9)
        states = [random_density_matrix(2, rng) for _ in range(3)]
        eigenvalues, _, vectors = base_spectra(states)
        logs = unitary_log(vectors)
        ns = list(range(1, 13))
        seen = set()
        for i, lam, block in _sweep_blocks(ns, eigenvalues, vectors):
            expected = block_unitary(reduced_shape(lam), logs)
            assert np.abs(block.unitaries - expected).max() < 1e-13
            seen.add((ns[i], lam))
        assert seen == {(n, lam) for n in ns for lam in partitions(n, 2)}

    def test_qubit_rows_take_no_logarithm_and_no_block_eigensolve(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a qubit block took a unitary log or an eigh")

        monkeypatch.setattr(schurweyl, "unitary_log", forbidden)
        monkeypatch.setattr(schurweyl, "block_unitary", forbidden)
        rng = np.random.default_rng(10)
        for r in (2, 3):
            states = [random_density_matrix(2, rng, rank=2 if s else 1) for s in range(r)]
            assert route(states) == "blocks"
            kinds = ("gs", "epsilon", "helstrom")[: 5 - r]
            report = run_power_experiment(states, range(1, 9), *kinds)
            assert len(report.rows) == 8 * len(kinds)
        pair = [random_pure_state(2, rng) for _ in range(2)]
        assert len(gram_convergence_check(pair, range(1, 9))) == 8

    def test_unitary_and_multiplicative(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            u = phase * random_orthonormal(2, 2, rng)
            v = random_orthonormal(2, 2, rng)
            logs = [unitary_log(x) for x in (u, v, u @ v)]
            for big_n in range(15):
                sym_u, sym_v, sym_uv = (block_unitary((big_n, 0), h) for h in logs)
                eye = np.eye(big_n + 1)
                assert np.abs(sym_u.conj().T @ sym_u - eye).max() < 1e-13
                assert np.abs(sym_uv - sym_u @ sym_v).max() < 1e-13

    def test_matches_restricted_kronecker_power(self):
        # the Gelfand-Tsetlin basis of (N, 0) is the Dicke basis, in the
        # order of its weights (count of the first label)
        rng = np.random.default_rng(1)
        u = random_orthonormal(2, 2, rng)
        big_n = 4
        weights = schurweyl._reduced_weights((big_n, 0))
        dicke = dicke_basis(big_n)[:, big_n - weights[:, 0]]
        dense = dicke.T @ functools.reduce(np.kron, [u] * big_n) @ dicke
        assert np.abs(dense - block_unitary((big_n, 0), unitary_log(u))).max() < 1e-14
        # and the recursion, in the Dicke order, which GT order reverses
        *_, power = symmetric_powers(u, big_n)
        assert np.abs(dense - power[::-1, ::-1]).max() < 1e-14

    def test_qubit_blocks_are_det_times_symmetric_power(self):
        # pi_(N+h, h)(U) = det(U)^h Sym^N(U)
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * random_orthonormal(2, 2, rng)
            h = unitary_log(u)
            for big_n in range(6):
                sym = block_unitary((big_n, 0), h)
                for extra in range(1, 4):
                    block = block_unitary((big_n + extra, extra), h)
                    expected = np.linalg.det(u) ** extra * sym
                    assert np.abs(block - expected).max() < 1e-13


class TestGelfandTsetlinBlocks:
    @pytest.mark.parametrize("lam", [(2, 1, 0), (2, 2, 0), (3, 1, 1), (2, 1, 1, 0), (3, 3, 0, 0)])
    def test_generators_satisfy_gl_commutators(self, lam):
        # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
        generators = block_generators(lam)
        zero = np.zeros_like(generators[(0, 0)])
        for (i, j), left in generators.items():
            for (k, l), right in generators.items():
                expected = (generators[(i, l)] if j == k else zero) - (
                    generators[(k, j)] if l == i else zero
                )
                assert np.abs(left @ right - right @ left - expected).max() < 1e-13

    @pytest.mark.parametrize("lam", [(2, 1, 0), (4, 2, 1), (2, 1, 1, 0), (3, 3, 0, 0)])
    def test_block_unitary_is_a_homomorphism(self, lam):
        rng = np.random.default_rng(sum(lam))
        d = len(lam)
        for _ in range(3):
            u, v = (random_orthonormal(d, d, rng) for _ in range(2))
            pi_u, pi_v, pi_uv = (block_unitary(lam, unitary_log(x)) for x in (u, v, u @ v))
            assert np.abs(pi_u @ pi_v - pi_uv).max() < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dimensions_and_purity_add_up(self, d):
        # sum_lam f_lam dim V_lam = d^n and sum_lam f_lam tr pi_lam(rho)^2 = (tr rho^2)^n
        rng = np.random.default_rng(30 + d)
        rho = random_density_matrix(d, rng)
        purity = float(np.vdot(rho.mat, rho.mat).real)
        for n in range(1, 9):
            eigenvalues, _, vectors = base_spectra([rho])
            blocks = blocks_of(n, eigenvalues, vectors)
            assert sum(block.mult * len(block.classes) for block in blocks) == d**n
            total = 0.0
            for block in blocks:
                pi = (block.unitaries[0] * block.values[0]) @ block.unitaries[0].conj().T
                total += block.mult * float(np.vdot(pi, pi).real)
            assert abs(total - purity**n) < 1e-13

    def test_shapes_share_the_generators_of_their_reduced_shape(self):
        # lam's own patterns give its reduced shape's weights plus lam_d and,
        # bit for bit, its reduced shape's generator arrays
        built = 0
        for d, top in ((2, 12), (3, 12), (4, 8)):
            for n in range(1, top + 1):
                for lam in partitions(n, d):
                    low = lam[-1]
                    if not low:
                        continue
                    weights = schurweyl._reduced_weights(reduced_shape(lam))
                    own_weights = schurweyl._reduced_weights.__wrapped__(lam)
                    own_raising = schurweyl._reduced_raising.__wrapped__(lam)
                    assert np.array_equal(own_weights, weights + low)
                    for (a, b, shared), (c, e, generator) in zip(
                        schurweyl._reduced_raising(reduced_shape(lam)), own_raising, strict=True
                    ):
                        assert (a, b) == (c, e)
                        assert shared.tobytes() == generator.tobytes()
                    built += 1
        assert built > 100

    def test_multiplicity_equals_the_hook_length_product(self):
        # the determinant form against n! / prod of hook lengths, box by box
        for n in range(41):
            for lam in partitions(n, 4):
                conjugate = [sum(1 for part in lam if part > j) for j in range(lam[0])]
                hooks = math.prod(
                    part - j + conjugate[j] - i - 1
                    for i, part in enumerate(lam)
                    for j in range(part)
                )
                assert multiplicity(lam) == math.factorial(n) // hooks

    def test_qutrit_blocks_are_det_phases_of_their_reduced_shapes(self):
        # every block lam of a d >= 3 sweep reads pi_lambar(U) of its reduced
        # shape, which is pi_lam(U) up to the phase det(U)^(lam_d) per state
        rng = np.random.default_rng(12)
        states = [random_density_matrix(3, rng) for _ in range(2)]
        eigenvalues, _, vectors = base_spectra(states)
        logs = unitary_log(vectors)
        phases = np.linalg.det(vectors)
        ns = list(range(1, 9))
        seen = set()
        for i, lam, block in _sweep_blocks(ns, eigenvalues, vectors):
            expected = block_unitary(lam, logs)
            got = (phases ** lam[-1])[:, None, None] * block.unitaries
            assert np.abs(got - expected).max() < 1e-13
            seen.add((ns[i], lam))
        assert seen == {(n, lam) for n in ns for lam in partitions(n, 3)}
        assert any(lam[-1] >= 2 for _, lam in seen)


def popped_stream(n, cut, kind="gs"):
    """(value, k) of every type class that ``_class_pops`` pops for ``kind``
    from the cut spectrum ``cut`` (1 x d) of one state, in pop order: k the
    label counts and the value prod_j cut_j^(k_j)."""
    counts, _ = type_classes(cut.shape[1], n)
    [(owners, classes)] = _class_pops(n, cut, class_pick_cut(cut, [n], kind))
    counts = counts[classes]
    assert not owners.any()
    return [(float(np.prod(cut[0] ** np.array(k))), tuple(k)) for k in counts.tolist()]


def merged_class_pops(n, cut, kind):
    """The (state, label counts) pops of the ``greedy_order`` merge of every
    state's class stream on the cut spectra ``cut``: its values sorted
    descending, ties in ``type_classes`` order, truncated at
    ``class_pick_cut``. The merge itself, of the truncated streams."""
    counts, _ = type_classes(cut.shape[1], n)
    (floor,) = class_pick_cut(cut, [n], kind)
    streams = []
    for row in cut:
        values = np.prod(row**counts, axis=1)
        order = np.argsort(-values, kind="stable")
        ranked = zip(values[order].tolist(), counts[order].tolist())
        streams.append([(value, tuple(k)) for value, k in ranked if value > floor])
    return [(state, k) for state, _, k in greedy_order(streams)]


class TestClassStream:
    def test_binomial_multiplicities(self):
        # class (n - k, k) of diag(p, 1 - p) has value p^(n-k) (1-p)^k and
        # size C(n, k)
        p = 0.7
        _, cut, _ = base_spectra([diagonal([p, 1 - p])])
        counts, sizes = type_classes(2, 3)
        size_of = {tuple(row): size for row, size in zip(counts.tolist(), sizes)}
        for value, k in popped_stream(3, cut):
            assert abs(value - p ** k[0] * (1 - p) ** k[1]) < 1e-15
            assert size_of[k] == math.comb(3, k[1])

    def test_type_classes_follow_combinations_with_replacement(self):
        # bit for bit the classes of the draws in that order, one bincount
        # and one exact size each, as ``_class_pops``'s stable sort needs
        for d, n in ((1, 4), (2, 1), (2, 9), (3, 1), (3, 6), (4, 5), (5, 3)):
            draws = itertools.combinations_with_replacement(range(d), n)
            counts = np.array([np.bincount(draw, minlength=d) for draw in draws])
            sizes = [
                math.factorial(n) // math.prod(map(math.factorial, row)) for row in counts.tolist()
            ]
            built_counts, built_sizes = type_classes(d, n)
            assert built_counts.dtype == counts.dtype
            assert np.array_equal(built_counts, counts)
            assert built_sizes.tobytes() == np.array(sizes, dtype=float).tobytes()

    def test_cold_type_classes_build(self):
        # 80601 classes, with sizes up to 3^400 / 1e5, exact before rounding
        start = time.perf_counter()
        counts, sizes = type_classes.__wrapped__(3, 400)
        assert time.perf_counter() - start < 1.5
        assert counts.shape == (80601, 3) and np.all(counts.sum(axis=1) == 400)
        # sum_k n!/prod k_j! = 3^n, to the rounding of 80601 addends
        assert abs(math.fsum(sizes) / 3.0**400 - 1.0) < 1e-12

    def test_single_copy_matches_spectrum(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(3, rng)
        stream = popped_stream(1, base_spectra([rho])[1])
        assert [value for value, _ in stream] == list(rho.spectrum().eigenvalues)
        assert [k for _, k in stream] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_values_sum_to_one(self):
        # class values weighted by class sizes n!/prod_j k_j! sum to tr rho^n
        rng = np.random.default_rng(11)
        rho = random_density_matrix(2, rng)
        for n in (3, 7, 12):
            counts, sizes = type_classes(2, n)
            size_of = {tuple(row): size for row, size in zip(counts.tolist(), sizes)}
            stream = popped_stream(n, base_spectra([rho])[1])
            total = sum(size_of[k] * value for value, k in stream)
            assert abs(total - 1.0) < 1e-13

    def test_descending_order_with_tuple_ties(self):
        # equal values keep the order of ``type_classes``; zero-valued
        # classes are left out
        _, cut, _ = base_spectra([diagonal([0.5, 0.5, 0.0])])
        assert popped_stream(2, cut) == [
            (0.25, (2, 0, 0)), (0.25, (1, 1, 0)), (0.25, (0, 2, 0))
        ]

    def test_matches_explicit_kronecker_oracle(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            rho = random_density_matrix(3, rng)
            counts, sizes = type_classes(3, n)
            size_of = {tuple(row): int(size) for row, size in zip(counts.tolist(), sizes)}
            stream = popped_stream(n, base_spectra([rho])[1])
            values = np.concatenate([np.full(size_of[k], value) for value, k in stream])
            oracle = np.sort(np.linalg.eigvalsh(kron_power(rho, n).mat))[::-1]
            assert np.abs(values - oracle).max() < 1e-15

    def test_class_columns_are_block_eigenvectors(self):
        # the product eigenvectors of class k span the weight-k columns of
        # pi_lam(U) in every block, with the class value as eigenvalue
        rng = np.random.default_rng(5)
        rho = random_density_matrix(3, rng)
        eigenvalues, cut, vectors = base_spectra([rho])
        stream = popped_stream(4, cut)
        counts = np.array([k for _, k in stream])
        [(_, classes)] = _class_pops(4, cut, class_pick_cut(cut, [4], "gs"))
        for block in blocks_of(4, eigenvalues, vectors):
            pi = (block.unitaries[0] * block.values[0]) @ block.unitaries[0].conj().T
            # each pop's index as its owner names the pop of every column
            pops, columns = block.columns(np.arange(len(stream)), classes)
            for j, c in zip(pops.tolist(), columns.tolist()):
                assert np.array_equal(block.weights[c], counts[j])
                column = block.unitaries[0][:, c]
                assert np.abs(pi @ column - stream[j][0] * column).max() < 1e-15
            # every column of a popped class, in pop order
            assert np.array_equal(np.sort(columns), np.arange(len(block.classes)))
            assert (np.diff(pops) >= 0).all()

    def test_column_lookup_matches_the_weight_comparison(self):
        # on every block of a qubit sweep to n = 120 and a qutrit sweep to
        # n = 12 (one state of rank 2, so that gs and epsilon pop fewer
        # classes than there are), the columns' type classes give the owner
        # and column arrays of the direct comparison of every pop's label
        # counts with every column weight, which the block's own patterns
        # give
        rng = np.random.default_rng(14)
        families = [
            ([random_density_matrix(2, rng) for _ in range(2)], 120),
            ([random_density_matrix(3, rng, rank=3 - s) for s in range(2)], 12),
        ]
        for states, top in families:
            eigenvalues, cut, vectors = base_spectra(states)
            ns = list(range(1, top + 1))
            pops = {}
            for i, lam, block in _sweep_blocks(ns, eigenvalues, vectors):
                if i not in pops:
                    floors = [class_pick_cut(cut, [ns[i]], kind)[0] for kind in ("gs", "epsilon")]
                    pops[i] = _class_pops(ns[i], cut, floors)
                weights = schurweyl._reduced_weights.__wrapped__(lam)
                assert np.array_equal(block.weights, weights)
                counts, _ = type_classes(cut.shape[1], ns[i])
                for owners, index in pops[i]:
                    pop, column = np.nonzero((weights == counts[index][:, None, :]).all(axis=2))
                    got_owners, got_columns = block.columns(owners, index)
                    assert np.array_equal(got_owners, owners[pop])
                    assert np.array_equal(got_columns, column)
            assert len(pops) == top

    def test_epsilon_pops_stop_at_the_pick_cut(self):
        # epsilon leaves out the classes at or below 1e-12 times the largest
        # class value, gs only the zero-valued ones
        _, cut, _ = base_spectra([diagonal([0.999, 1e-3, 0.0])])
        for n in (3, 4, 5):
            (floor,) = class_pick_cut(cut, [n], "epsilon")
            gs, epsilon = popped_stream(n, cut, "gs"), popped_stream(n, cut, "epsilon")
            assert epsilon == [(value, k) for value, k in gs if value > floor]
            assert all(value > 0.0 for value, _ in gs)
            assert len(gs) == n + 1
        assert len(epsilon) < len(gs)

    def test_pick_cuts_equal_the_per_n_threshold(self):
        # one floor per n, taken once per sweep, bit for bit the threshold of
        # the largest n-fold eigenvalue that each n once took on its own
        rng = np.random.default_rng(33)
        ns = range(1, 400)
        for d in (2, 3, 4):
            for _ in range(5):
                _, cut, _ = base_spectra([random_density_matrix(d, rng) for _ in range(3)])
                expected = [eigenvalue_zero_threshold(cut.max() ** n) for n in ns]
                floors = class_pick_cut(cut, ns, "epsilon")
                assert floors.tobytes() == np.array(expected).tobytes()
                assert class_pick_cut(cut, ns, "gs").tobytes() == bytes(8 * len(ns))

    def test_pops_equal_the_merge_of_truncated_streams(self, monkeypatch):
        # state 0 has a small eigenvalue, so class values straddle epsilon's
        # cut, and at times a zero or tied larger ones (up to 36 classes, past
        # the size below which an unstable sort may still keep the order of
        # ties); every other state is a permutation of it,
        # exact or a 1e-13 (inside SELECTION_TIE_RTOL) or 3e-12 (outside)
        # relative step off, or a spectrum of its own
        import qmht.detectors

        merges = []

        def counted(streams):
            merges.append(1)
            return greedy_order(streams)

        monkeypatch.setattr(qmht.detectors, "greedy_order", counted)
        rng = np.random.default_rng(32)
        pops = straddling = 0
        for _ in range(300):
            d, r = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            n = int(rng.integers(1, 9 if d == 2 else 8))
            row = rng.random(d)
            row[-1] = 10.0 ** -rng.uniform(1.5, 6.0)
            if rng.random() < 0.3:
                row[0] = 0.0
            elif rng.random() < 0.3:  # many classes of one value
                row[:-1] = row[0]
            rows = [row]
            for _ in range(r - 1):
                step = rng.choice([0.0, 1e-13, 3e-12, np.nan])
                if np.isnan(step):
                    rows.append(rng.random(d))
                else:
                    signs = rng.choice([-1.0, 1.0], size=d)
                    rows.append(row[rng.permutation(d)] * (1.0 + signs * step))
            cut = np.array([cut_spectrum(q / q.sum()) for q in rows])
            before = len(merges)
            kinds = ("gs", "epsilon")
            floors = [class_pick_cut(cut, [n], kind)[0] for kind in kinds]
            popped = dict(zip(kinds, _class_pops(n, cut, floors)))
            assert len(merges) - before in (0, 1, 2)
            counts, _ = type_classes(d, n)
            for kind, (owners, classes) in popped.items():
                got = list(zip(owners.tolist(), map(tuple, counts[classes].tolist())))
                assert got == merged_class_pops(n, cut, kind)
                pops += 1
            straddling += len(popped["epsilon"][0]) < len(popped["gs"][0])
        # both the sort and the merge it falls back to were exercised, and
        # epsilon's cut dropped classes that gs pops
        assert 0.1 * pops < len(merges) < 0.9 * pops
        assert straddling > 50


class TestSpinBlocks:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_dimensions_add_up(self, n):
        blocks = [
            (multiplicity(lam), len(schurweyl._reduced_weights(reduced_shape(lam))))
            for lam in partitions(n, 2)
        ]
        assert len(blocks) == n // 2 + 1
        assert sum(mult * dim for mult, dim in blocks) == 2**n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_block_spectrum_equals_kronecker_power(self, n):
        rng = np.random.default_rng(10 + n)
        for rho in (random_density_matrix(2, rng), random_pure_state(2, rng)):
            blocks = []
            eigenvalues, _, vectors = base_spectra([rho])
            for block in blocks_of(n, eigenvalues, vectors):
                pi = (block.unitaries[0] * block.values[0]) @ block.unitaries[0].conj().T
                blocks.append(np.repeat(np.linalg.eigvalsh(pi), int(block.mult)))
            block_spectrum = np.sort(np.concatenate(blocks))
            dense_spectrum = np.linalg.eigvalsh(kron_power(rho, n).mat)
            assert np.abs(block_spectrum - dense_spectrum).max() < 1e-14


class TestQubitGs:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_defect_ensemble_matches_high_precision_reference(self, n):
        # the Gram-coordinate engine was 3.2e-4 off at n = 6 and returned
        # err = -7624.6 at n = 8; block lines built by an eigh read 8.0e-15,
        # 4.1e-14 and 6.8e-14 off at n = 5-7, and the recursion's 7.2e-16,
        # 8.8e-15 and 8.0e-15
        row = run_power_experiment(defect_ensemble(), [n], "gs").rows[0]
        tolerance = N8_ATOL if n == 8 else 2e-14
        assert abs(row.err - DEFECT_GS_REFERENCE[n]) < tolerance

    @pytest.mark.parametrize("n", [6, 8])
    def test_lambda_min_gram_matches_high_precision_reference(self, n):
        row = run_power_experiment(defect_ensemble(), [n], "gs").rows[0]
        reference = DEFECT_LAMBDA_REFERENCE[n]
        assert abs(row.lambda_min_gram - reference) < 1e-4 * reference
        assert math.isfinite(row.error_bound)
        assert row.error_bound >= row.err

    def test_recipe_ensemble_36_regression(self):
        # the Gram-coordinate engine raised "picked Gram matrix is singular"
        # with one BLAS thread, and printed err 0.27499 with an infinite
        # bound with two
        states = roadmap_ensembles(37)[36]
        row = run_power_experiment(states, [8], "gs").rows[0]
        r = len(states)
        assert 0.0 <= row.err <= 1.0 - 1.0 / r
        assert row.lambda_min_gram > 0.0
        assert math.isfinite(row.error_bound)
        assert row.err <= row.error_bound
        powered = [kron_power(rho, 8) for rho in states]
        dense = evaluate_errors(powered, gs_detector(powered)[0]).averaged
        assert abs(row.err - dense) < 1e-12


class TestQutritGs:
    @pytest.mark.parametrize("n", [3, 4])
    def test_t2_matches_extended_precision_gram_schmidt(self, n):
        # the 40-digit greedy Gram-Schmidt on the explicit powers; the block
        # row agrees to 6e-16 at n = 3 and 4
        states = t2_pair()
        ((err, _),) = next(block_scores(states, [n], ["gs"], {"gs": [0.0]}))
        assert abs(err - mp_greedy_gs_error(states, n)) < 1e-12


class TestEpsilonFrame:
    def test_elements_match_the_embedded_qr(self):
        # [delta V R^-1, L^-H] is the top of the complete QR of the embedded
        # picks [delta V; epsilon I] up to a unitary within each label, so
        # the elements agree; the Detector checks T T^H = I to POVM_ATOL, and
        # the floor is sigma_min^2 of the QR's R
        rng = np.random.default_rng(70)
        for _ in range(24):
            d, r = int(rng.integers(2, 17)), int(rng.integers(2, 4))
            states = [
                random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))) for _ in range(r)
            ]
            _, pops, vectors = _greedy_pops(states)
            owners = np.array(pops)[:, 0]
            for eps in (EPSILON_FLOOR, 0.3, 0.7):
                frame, labels, floor = _epsilon_frame(owners, vectors, eps)
                det = Detector(kind="POVM", frame=frame, labels=labels, outcomes=r)
                gap = np.abs(frame @ frame.conj().T - np.eye(d)).max()
                assert gap <= POVM_ATOL
                embedded = np.vstack([math.sqrt(1.0 - eps * eps) * vectors, eps * np.eye(len(pops))])
                basis, factor = np.linalg.qr(embedded, mode="complete")
                qr = Detector(kind="POVM", frame=basis[:d], labels=labels, outcomes=r)
                for ours, theirs in zip(det.elements, qr.elements, strict=True):
                    assert np.abs(ours.mat - theirs.mat).max() < 1e-13
                sigma_min = np.linalg.svd(factor[: len(pops)], compute_uv=False)[-1]
                assert floor == pytest.approx(sigma_min**2, rel=1e-12)


class TestBlockEpsilon:
    def test_matches_extended_precision_reference(self):
        # full-rank Wishart families, so every product eigenvector is picked,
        # with r d^n <= 60; the blocks agree to 2.7e-14 relative here. Other
        # d = 4 pairs at n = 2 and EPSILON_FLOOR reach 5e-13, as the trace
        # less own mass did: their frame on the explicit product vectors
        # agrees to 4e-14, so the rest is lost in pi_lam(U), whose entries
        # are fixed only to absolute ~1e-16
        rng = np.random.default_rng(90)
        for d, r, n in ((2, 2, 3), (2, 3, 2), (3, 2, 2), (4, 2, 2), (4, 3, 1)):
            states = [random_density_matrix(d, rng) for _ in range(r)]
            assert route(states) == "blocks"
            for eps in (0.3, EPSILON_FLOOR):
                ((err, lam_min),) = next(block_scores(states, [n], ["epsilon"], {"epsilon": [eps]}))
                reference = mp_epsilon_error(states, n, eps)
                assert abs(err - reference) <= 5e-14 * reference, (d, r, n, eps)
                assert lam_min == pytest.approx(eps * eps, rel=1e-12)


class TestQubitHelstrom:
    def test_matches_dense_helstrom(self):
        rng = np.random.default_rng(20)
        for n in range(1, 8):
            for _ in range(3):
                states = [
                    random_density_matrix(2, rng, rank=int(rng.integers(1, 3)))
                    for _ in range(2)
                ]
                row = run_power_experiment(states, [n], "helstrom").rows[0]
                powered = [kron_power(rho, n) for rho in states]
                dense = evaluate_errors(powered, holevo_helstrom(*powered)).averaged
                assert abs(row.err - dense) < 1e-11

    def test_tiny_error_matches_reference(self):
        # err 3e-13, from block entries down to 1e-13 in size: an eigh-built
        # pi_lam(U), whose entries are fixed only to absolute ~1e-16, read
        # 2.1e-10 relative off. The reference is the summed misses of the
        # two states' Helstrom projectors in 50 digits
        tail = math.sqrt(1.0 - 1e-12)
        states = [
            diagonal([1.0 - 1e-13, 1e-13]),
            DensityMatrix(np.outer([1e-6, tail], [1e-6, tail]).astype(complex)),
        ]
        assert route(states) == "blocks"
        (row,) = run_power_experiment(states, [1], "helstrom").rows
        reference = 3.0000000000003747969e-13
        assert abs(row.err - reference) <= 1e-13 * reference

    def test_pure_pair_closed_form(self):
        rng = np.random.default_rng(21)
        states = [random_pure_state(2, rng) for _ in range(2)]
        fidelity = float(np.vdot(states[0].mat, states[1].mat).real)
        report = run_power_experiment(states, range(1, 15), "helstrom")
        for row in report.rows:
            overlap = fidelity**row.n
            # (1/2)(1 - sqrt(1 - F^n)), written without the cancellation
            expected = 0.5 * overlap / (1.0 + math.sqrt(1.0 - overlap))
            assert abs(row.err - expected) < 1e-12


# Helstrom errors of the first two states of the defect ensemble, from
# 50-digit per-block references: (1/2) sum_j m_j [tr pi_j(rho_1) - sum lambda+].
# A block eigenvalue far below the largest one still carries m_j copies, so a
# cut relative to the largest eigenvalue drops 2.8e-12 at n = 11 and 7.6e-11
# at n = 14 (2.3e-6 at n = 40); the sign cut keeps every positive eigenvalue.
F7_HELSTROM_REFERENCE = {
    11: 0.031570795959625058,
    14: 0.018096086977926957,
    20: 0.0062183521838223576,
    40: 2.176558547288164e-4,
}


class TestHelstromSignCut:
    def test_block_route_matches_references(self, monkeypatch):
        pair = defect_ensemble()[:2]
        # the block route builds no d^n object, so the dense cap is lifted
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        report = run_power_experiment(pair, sorted(F7_HELSTROM_REFERENCE), "helstrom")
        for row in report.rows:
            assert abs(row.err - F7_HELSTROM_REFERENCE[row.n]) < 1e-15

    def test_dense_detector_matches_trace_norm(self):
        powered = [kron_power(rho, 11) for rho in defect_ensemble()[:2]]
        err = evaluate_errors(powered, holevo_helstrom(*powered)).averaged
        # The detector is scored by its summed misses, <v|rho|v> over the
        # eigenvectors of the difference on the wrong side of the sign cut, so
        # err is fixed relative to itself; 1 - tr[rho E] on the explicit
        # 2048 x 2048 projector was off by a few 1e-15. The relative cut is
        # 2.8e-12 off. The reference is (1/2)(1 - ||rho_2 - rho_1||_1 / 2) to
        # 50 digits, so this is also the trace-norm check, and at 1e-15 a
        # stricter one than against a second eigensolve of the difference.
        assert abs(err - F7_HELSTROM_REFERENCE[11]) < 1e-15
