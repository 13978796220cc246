import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmht.linalg
from qmht import chernoff, detectors, tensorlab
from qmht.cli import load_scenario
from qmht.linalg import (
    EIGENVALUE_ZERO_RTOL,
    HERMITICITY_ATOL,
    DensityMatrix,
    HermitianMatrix,
    SpectralDecomposition,
    check_family,
    gram_floor,
    spectral_decompose,
)
from qmht.sampling import complex_gaussian, random_density_matrix, random_orthonormal


def random_hermitian(dim, rng, scale=1.0):
    g = complex_gaussian(rng, (dim, dim)) * scale
    return HermitianMatrix((g + g.conj().T) / 2)


# every public entry point that takes a family, as (family -> call, the
# fewest states it takes, None for a pair given by position)
FAMILY_ENTRY_POINTS = {
    "OverlapCurve": (lambda states: chernoff.OverlapCurve(*states), None),
    "q_overlap": (lambda states: chernoff.q_overlap(*states, 0.5), None),
    "binary_qcb": (lambda states: chernoff.binary_qcb(*states), None),
    "holevo_helstrom": (lambda states: detectors.holevo_helstrom(*states), None),
    "multiple_qcb": (chernoff.multiple_qcb, 2),
    "gs_detector": (detectors.gs_detector, 2),
    "epsilon_detector": (lambda states: detectors.epsilon_detector(states, 0.3), 2),
    "pgm": (lambda states: detectors.pgm(states, [1.0 / max(1, len(states))] * len(states)), 1),
    "bayes_commuting": (detectors.bayes_commuting, 2),
    "common_eigenbasis": (detectors.common_eigenbasis, 1),
    "pairwise_li_check": (tensorlab.pairwise_li_check, 2),
    "gram_convergence_check": (lambda states: tensorlab.gram_convergence_check(states, [1]), 2),
    **{
        f"run_power_experiment {kind}": (
            lambda states, kind=kind: tensorlab.run_power_experiment(states, [1], kind), 2
        )
        for kind in tensorlab.DETECTOR_KINDS
    },
}


class TestFamilyRule:
    """One rule, ``check_family``, for every family: at least two
    hypotheses (one state for ``pgm`` and ``common_eigenbasis``), all of one
    dimension, with one message each."""

    QUBIT = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    QUTRIT = DensityMatrix(np.diag([0.2, 0.3, 0.5]).astype(complex))

    def test_the_rule(self):
        assert check_family((self.QUBIT, self.QUBIT)) == [self.QUBIT, self.QUBIT]
        assert check_family(iter([self.QUTRIT]), least=1) == [self.QUTRIT]
        for states, least, message in (
            ([], 1, "need at least one state"),
            ([self.QUBIT], 2, "need at least two hypotheses"),
            ([self.QUBIT, self.QUTRIT], 1, "states must share one dimension"),
            ([self.QUTRIT, self.QUTRIT, self.QUBIT], 2, "states must share one dimension"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check_family(states, least)

    @pytest.mark.parametrize("name", FAMILY_ENTRY_POINTS)
    def test_every_entry_point_rejects_mixed_dimensions(self, name):
        call, _ = FAMILY_ENTRY_POINTS[name]
        for states in ([self.QUBIT, self.QUTRIT], [self.QUTRIT, self.QUBIT]):
            with pytest.raises(ValueError, match="^states must share one dimension$"):
                call(states)

    @pytest.mark.parametrize(
        "name", [name for name, (_, least) in FAMILY_ENTRY_POINTS.items() if least]
    )
    def test_every_entry_point_rejects_too_few_states(self, name):
        call, least = FAMILY_ENTRY_POINTS[name]
        message = "need at least two hypotheses" if least == 2 else "need at least one state"
        for states in ([], [self.QUBIT])[:least]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(states)


class TestHermitianMatrix:
    def test_symmetrizes_small_asymmetry(self):
        mat = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 0.0]])
        h = HermitianMatrix(mat)
        assert np.abs(h.mat - h.mat.conj().T).max() == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_entries_past_half_the_float_range(self):
        # A + A^H overflows here; the halves' sum and difference do not
        for mat in (np.diag([1.2e308, 6e307]), np.array([[1e308, 1.5e308], [1.5e308, 1e308]])):
            assert np.array_equal(HermitianMatrix(mat).mat, mat)
        with pytest.raises(ValueError, match="^matrix is not Hermitian: max asymmetry 1.000e\\+307$"):
            HermitianMatrix(np.array([[1e308, 1e308], [9e307, 1e308]]))

    def test_halves_give_the_bits_of_the_halved_sum(self):
        # A/2 + A^H/2 is (A + A^H)/2 bitwise, and the asymmetry verdict and
        # message are those of A - A^H, wherever no entry is subnormal when
        # halved: at scales 1e-280 to 1e300, just inside and outside the
        # tolerance
        rng = np.random.default_rng(41)
        for scale in 10.0 ** np.arange(-280, 301, 20):
            for dim in (1, 2, 5, 32):
                raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for rel in (1e-13, 1e-11):
                    noise = rel * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
                    mat = scale * (raw + raw.conj().T + noise)
                    assert np.abs(mat.view(float)[mat.view(float) != 0.0]).min() >= 2.0**-1021
                    asym = float(np.abs(mat - mat.conj().T).max())
                    if asym > HERMITICITY_ATOL * max(1.0, float(np.abs(mat).max())):
                        with pytest.raises(ValueError, match=re.escape(f"max asymmetry {asym:.3e}") + "$"):
                            HermitianMatrix(mat)
                        continue
                    out = HermitianMatrix(mat).mat
                    assert out.tobytes() == ((mat + mat.conj().T) / 2.0).tobytes()


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_entry(self, bad):
        mat = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            HermitianMatrix(mat)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(mat)


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("dim", [2, 16])
    def test_eigenvalue_floor_boundary(self, dim):
        # positivity is proved by a Cholesky factor of rho + 1e-10 I: an
        # eigenvalue of -2e-10 fails it and is named by the eigensolve, one of
        # -5e-11 passes; in a random basis, so no diagonal shortcut decides
        basis = random_orthonormal(dim, dim, np.random.default_rng(dim))
        for low, accepted in ((-2e-10, False), (-5e-11, True)):
            values = np.full(dim, 1.0 / (dim - 1))
            values[0] -= low
            values[-1] = low
            mat = (basis * values) @ basis.conj().T
            if accepted:
                assert DensityMatrix(mat).spectrum().eigenvalues.min() == 0.0
            else:
                with pytest.raises(ValueError, match=r"negative eigenvalue -2\.0\d\de-10"):
                    DensityMatrix(mat)
            mat[0, dim - 1] = math.nan
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix(mat)

    def test_clamps_tiny_negative_eigenvalues(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        assert rho.spectrum().eigenvalues.min() == 0.0


class TestSpectralDecompose:
    def test_diagonal_input(self):
        dec = spectral_decompose(HermitianMatrix(np.diag([0.7, 0.3]).astype(complex)))
        assert np.allclose(dec.eigenvalues, [0.7, 0.3])
        assert np.allclose(np.abs(dec.vectors), np.eye(2))

    def test_rank_one_projector(self):
        dec = spectral_decompose(HermitianMatrix(np.full((2, 2), 0.5)))
        assert np.allclose(dec.eigenvalues, [1.0, 0.0])
        assert np.allclose(dec.vectors[:, 0], np.array([1.0, 1.0]) / math.sqrt(2))

    def test_phase_convention(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(5, rng)
        dec = spectral_decompose(h)
        for k in range(5):
            col = dec.vectors[:, k]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12

    def test_degenerate_tie_order_is_lexicographic(self):
        dec = spectral_decompose(HermitianMatrix(np.diag([0.5, 0.5]).astype(complex)))
        # ascending lexicographic key puts e2 = (0, 1) before e1 = (1, 0)
        assert np.allclose(dec.vectors[:, 0], [0.0, 1.0])
        assert np.allclose(dec.vectors[:, 1], [1.0, 0.0])

    @given(st.integers(0, 10_000), st.integers(2, 16))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_roundtrip(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(dim, rng)
        dec = spectral_decompose(h)
        assert np.abs(dec.reconstruct() - h.mat).max() < 1e-9
        assert np.abs(dec.vectors.conj().T @ dec.vectors - np.eye(dim)).max() < 1e-12
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def loop_spectral_decompose(h):
    """The per-column reference: each column phase-normalized on its own,
    each degenerate run sorted by a tuple key."""
    values, vectors = np.linalg.eigh(h.mat)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    for k in range(vectors.shape[1]):
        vec = vectors[:, k]
        nonzero = np.flatnonzero(np.abs(vec) > 1e-12)
        if nonzero.size:
            pivot = vec[nonzero[0]]
            vectors[:, k] = vec * (pivot.conjugate() / abs(pivot))
    tol = 1e-12 * max(1.0, float(np.abs(values).max()))
    order = []
    start = 0
    while start < len(values):
        stop = start
        while stop + 1 < len(values) and values[start] - values[stop + 1] <= tol:
            stop += 1
        group = list(range(start, stop + 1))
        group.sort(
            key=lambda j: tuple(
                float(part) for z in vectors[:, j] for part in (z.real, z.imag)
            )
        )
        order.extend(group)
        start = stop + 1
    return values[order], vectors[:, order]


def lexicographic_key(vector):
    return tuple(float(part) for z in vector for part in (z.real, z.imag))


class TestTieBreakOrder:
    @staticmethod
    def runs(values):
        """The documented runs: from each start, the later eigenvalues within
        1e-12 times max(1, the largest magnitude) of the start's."""
        tol = EIGENVALUE_ZERO_RTOL * max(1.0, float(np.abs(values).max()))
        start = 0
        while start < len(values):
            stop = start
            while stop + 1 < len(values) and values[start] - values[stop + 1] <= tol:
                stop += 1
            yield range(start, stop + 1)
            start = stop + 1

    def test_ties_ascend_by_lexicographic_key(self):
        # planted degeneracies: repeated diagonal values (unit eigenvectors,
        # whose leading components tie at 0, so the full key decides), a
        # rotated degenerate state (distinct leading components) and
        # rank-deficient Wishart states (their kernels)
        rng = np.random.default_rng(64)
        inputs = []
        for dim in (2, 5, 16, 32):
            inputs.append(np.diag(rng.integers(0, 3, dim) / dim).astype(complex))
            basis = random_orthonormal(dim, dim, rng)
            spectrum = np.repeat([0.5, 0.25, 0.0], [1, dim // 2, dim - 1 - dim // 2])
            inputs.append((basis * spectrum) @ basis.conj().T)
            inputs.append(random_density_matrix(dim, rng, rank=max(1, dim // 3)).mat)
        leads = {"tied": 0, "distinct": 0}
        for mat in inputs:
            dec = spectral_decompose(HermitianMatrix(mat))
            for run in self.runs(dec.eigenvalues):
                if len(run) < 2:
                    continue
                keys = [lexicographic_key(dec.vectors[:, k]) for k in run]
                assert keys == sorted(keys)
                first = [key[0] for key in keys]
                leads["distinct" if len(set(first)) == len(first) else "tied"] += 1
        assert leads["tied"] >= 4 and leads["distinct"] >= 4, leads

    def test_runs_are_anchored_at_their_first_value(self):
        # a chain of near ties 0.7e-12 apart: the first two values form a run
        # (their unit vectors by descending index), the third is 1.4e-12 from
        # the run's first and starts its own
        values = [0.3 + 1.4e-12, 0.3 + 0.7e-12, 0.3, 0.1 - 2.1e-12]
        dec = spectral_decompose(HermitianMatrix(np.diag(values).astype(complex)))
        assert np.argmax(np.abs(dec.vectors), axis=0).tolist() == [1, 0, 2, 3]
        assert dec.eigenvalues.tolist() == [values[1], values[0], values[2], values[3]]


class TestVectorizedSpectralDecompose:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_loop_reference(self, seed):
        # random, exactly degenerate (a projector with repeated eigenvalues,
        # whose eigh columns are arbitrary inside each run) and rank-deficient
        # inputs at d = 32
        rng = np.random.default_rng(seed)
        basis = random_orthonormal(32, 32, rng)
        spectrum = np.repeat(rng.uniform(0.0, 1.0, 4), 8)
        inputs = [
            random_hermitian(32, rng),
            HermitianMatrix((basis * spectrum) @ basis.conj().T),
            HermitianMatrix(np.diag(np.repeat([0.5, 0.25, 0.0], [4, 8, 20])).astype(complex)),
            random_density_matrix(32, rng, rank=5).base,
        ]
        for h in inputs:
            dec = spectral_decompose(h)
            values, vectors = loop_spectral_decompose(h)
            assert np.array_equal(dec.eigenvalues, values)
            assert np.array_equal(dec.vectors, vectors)


class TestDiagonalRule:
    @staticmethod
    def diagonals(count):
        """Real diagonals, d 1-40: distinct values, exact ties of three
        levels, near ties 4e-13 apart, chains 0.6e-12 apart (runs that
        ``_near_tie_runs`` cuts), and zeros, -0.0, -1e-11 and 1e-14 planted
        among them."""
        rng = np.random.default_rng(44)
        for k in range(count):
            dim = int(rng.integers(1, 41))
            if k % 4 == 0:
                row = rng.random(dim)
            elif k % 4 == 1:
                row = rng.choice([0.0, 0.25, 0.5], size=dim)
            elif k % 4 == 2:
                row = rng.random() + 4e-13 * rng.integers(0, 3, size=dim)
            else:
                chain = rng.random() + 0.6e-12 * np.arange(min(dim, 5))
                row = rng.permutation(np.r_[chain, rng.random(dim - len(chain))])
            planted = rng.random(dim) < 0.3
            row[planted] = rng.choice([0.0, -0.0, -1e-11, 1e-14], size=int(planted.sum()))
            yield row

    def test_equals_the_eigh_path_bitwise(self, monkeypatch):
        # the diagonal rule gives eigh's bytes, values and vectors, with the
        # rule switched off
        for row in self.diagonals(600):
            h = HermitianMatrix(np.diag(row).astype(complex))
            dec = spectral_decompose(h)
            with monkeypatch.context() as patch:
                patch.setattr(qmht.linalg, "is_exactly_diagonal", lambda mat: False)
                solved = spectral_decompose(h)
            assert dec.eigenvalues.tobytes() == solved.eigenvalues.tobytes()
            assert dec.vectors.tobytes() == solved.vectors.tobytes()

    def test_takes_no_eigensolve(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("eigensolve on an exactly diagonal matrix")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        dec = spectral_decompose(HermitianMatrix(np.diag([0.2, 0.5, 0.0, 0.3]).astype(complex)))
        assert dec.eigenvalues.tolist() == [0.5, 0.3, 0.2, 0.0]
        assert np.argmax(np.abs(dec.vectors), axis=0).tolist() == [1, 3, 0, 2]


def roadmap_ensembles():
    """The ROADMAP's named families: the defect ensemble (whose first two
    states are the F7 pair), t2, the LI pair and triple, the rotated pair,
    and the qutrit triple."""
    rng = np.random.default_rng(5)
    for _ in range(2):
        defect = [random_density_matrix(2, rng) for _ in range(int(rng.integers(2, 4)))]
    yield defect
    rng = np.random.default_rng(11)
    [random_density_matrix(2, rng) for _ in range(3)]
    yield [random_density_matrix(3, rng) for _ in range(2)]
    for dim, count in ((4, 2), (6, 3)):
        rng = np.random.default_rng(3)
        yield [random_density_matrix(dim, rng, rank=2) for _ in range(count)]
    turn = random_orthonormal(2, 2, np.random.default_rng(123))
    yield [DensityMatrix((turn * p) @ turn.conj().T) for p in ([0.9, 0.1], [0.3, 0.7])]
    scenarios = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
    yield load_scenario(os.path.join(scenarios, "mixed_qutrit_triple.json")).states


class TestSpectrum:
    @staticmethod
    def recorded(monkeypatch, signed_zeros=False):
        """The objects ``spectral_decompose`` returns from now on, with each
        exact zero eigenvalue made -0.0 if ``signed_zeros``."""
        made = []

        def recording(h):
            dec = spectral_decompose(h)
            if signed_zeros:
                values = np.where(dec.eigenvalues == 0.0, -0.0, dec.eigenvalues)
                values.setflags(write=False)
                dec = SpectralDecomposition(values, dec.vectors)
            made.append(dec)
            return dec

        monkeypatch.setattr(qmht.linalg, "spectral_decompose", recording)
        return made

    @pytest.mark.parametrize(
        "entries, signed_zeros",
        [
            ([0.6, 0.0, 0.4], True),
            ([1.0 + 5e-11, -5e-11], False),
            ([0.5, 0.0, 0.5 + 1e-11, -1e-11], True),
        ],
    )
    def test_a_sign_bit_gets_a_clamped_copy(self, monkeypatch, entries, signed_zeros):
        # -0.0 does not survive HermitianMatrix's symmetrization, so it is
        # planted in the decomposition; the negative values come from the input
        made = self.recorded(monkeypatch, signed_zeros)
        spec = DensityMatrix(np.diag(entries).astype(complex)).spectrum()
        (dec,) = made
        signed = np.signbit(dec.eigenvalues)
        assert signed.any() and spec is not dec and spec.vectors is dec.vectors
        assert not np.signbit(spec.eigenvalues).any()
        assert spec.eigenvalues[signed].tolist() == [0.0] * int(signed.sum())
        assert spec.eigenvalues[~signed].tobytes() == dec.eigenvalues[~signed].tobytes()
        assert not spec.eigenvalues.flags.writeable

    def test_no_sign_bit_keeps_the_decomposition(self, monkeypatch):
        made = self.recorded(monkeypatch)
        rng = np.random.default_rng(1)
        states = [DensityMatrix(np.diag([0.7, 0.3, 0.0]).astype(complex))]
        states += [random_density_matrix(dim, rng) for dim in (2, 5, 16)]
        for rho in states:
            spec = rho.spectrum()
            assert not np.signbit(spec.eigenvalues).any()
            assert spec is made[-1] and rho.spectrum() is spec

    def test_equals_the_reference_bitwise_on_the_roadmap_ensembles(self):
        # the per-column reference, every value clamped, in its layout
        for family in roadmap_ensembles():
            for rho in family:
                dec = rho.spectrum()
                values, vectors = loop_spectral_decompose(rho.base)
                assert dec.eigenvalues.tobytes() == np.maximum(values, 0.0).tobytes()
                assert dec.vectors.tobytes() == vectors.tobytes()
                assert dec.vectors.strides == vectors.strides


class TestGram:
    def test_two_vectors_with_real_overlap(self):
        # a 60 degree pair: the Gram matrix [[1, 1/2], [1/2, 1]] has floor 1/2
        v1 = np.array([1.0, 0.0], dtype=complex)
        v2 = np.array([0.5, math.sqrt(0.75)], dtype=complex)
        assert abs(gram_floor(np.column_stack([v1, v2])) - 0.5) < 1e-12

    def test_orthonormal_family(self):
        assert abs(gram_floor(np.eye(3, dtype=complex)) - 1.0) < 1e-12

    def test_repeated_vector_is_singular(self):
        v = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)
        assert abs(gram_floor(np.column_stack([v, v]))) < 1e-12

    def test_more_columns_than_rows_is_exactly_singular(self):
        rng = np.random.default_rng(2)
        assert gram_floor(complex_gaussian(rng, (3, 4))) == 0.0

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_gram_is_psd(self, seed, count):
        # never negative, with or without more columns than rows
        rng = np.random.default_rng(seed)
        columns = np.column_stack([random_orthonormal(6, 1, rng)[:, 0] for _ in range(count)])
        assert gram_floor(columns) >= 0.0

    def test_resolves_a_floor_far_below_eigensolve_noise(self):
        # the orthonormal columns of a 6 x 4 matrix scaled by phases times
        # sigma = (1, 0.5, 1e-3, 1e-12) and permuted: each entry is exact to
        # relative rounding, so sigma_min^2 = 1e-24 is fixed to about 1e-16
        # relative, where an eigensolve of the Gram matrix returns +-1e-16
        rng = np.random.default_rng(0)
        phases = np.exp(2j * np.pi * rng.random(4))
        scaled = random_orthonormal(6, 4, rng) * (np.array([1.0, 0.5, 1e-3, 1e-12]) * phases)
        columns = scaled[:, [2, 0, 3, 1]]
        assert abs(gram_floor(columns) - 1e-24) <= 1e-6 * 1e-24
