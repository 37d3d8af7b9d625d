import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from typlab.errors import TyplabError
from typlab.operators import (
    RECONSTRUCTION_RTOL,
    UNITARITY_RTOL,
    VALIDATION_PANEL_ENTRIES,
    HermitianOperator,
    SpectralDecomposition,
    _max_asymmetry,
    eigendecompose,
    heisenberg_observable,
    spectral_moments,
)
from typlab.rng import SeedStream

from conftest import hilbert_schmidt_inner, is_diagonal, random_hermitian


def power_trace_moments(op: HermitianOperator) -> list[float]:
    """c_i = Tr{A^i}/n, i = 1..8, by repeated matrix products: the oracle
    for the eigenvalue power sums."""
    power = op.matrix
    moments = [float(np.trace(power).real) / op.dim]
    for _ in range(7):
        power = power @ op.matrix
        moments.append(float(np.trace(power).real) / op.dim)
    return moments


def one_column_off_norm(u: np.ndarray) -> np.ndarray:
    """U with its first column scaled by 1 + delta, so U^dagger U - I is the
    rank-1 diag(2 delta + delta^2, 0, ...) at 10 times ``UNITARITY_RTOL``: the
    hardest error for a few probes."""
    n = u.shape[0]
    delta = np.sqrt(1 + 10 * UNITARITY_RTOL * np.sqrt(n)) - 1
    return u * np.append(1 + delta, np.ones(n - 1))


def top_eigenvalue_off(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w with its top eigenvalue raised so that U diag(w) U^dagger - H is
    rank 1 at 10 times ``RECONSTRUCTION_RTOL`` ||H||_F; the order is kept."""
    return np.append(w[:-1], w[-1] + 10 * RECONSTRUCTION_RTOL * np.linalg.norm(h))


class TestValidation:
    def test_identity_is_valid(self):
        op = HermitianOperator(np.eye(3))
        assert op.dim == 3

    def test_conjugate_symmetry_violation(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1j
        m[1, 0] = 1j  # should be -1j
        message = re.escape("not Hermitian: max |M - M^dagger| = 2.000e+00 ")
        with pytest.raises(TyplabError, match=message):
            HermitianOperator(m)
        assert _max_asymmetry(m) == pytest.approx(2.0)

    def test_real_diagonal_pm1_is_valid(self):
        op = HermitianOperator(np.diag([1.0, -1.0]))
        assert op.dim == 2

    def test_non_square_rejected(self):
        with pytest.raises(TyplabError, match="expected a square matrix"):
            HermitianOperator(np.zeros((2, 3)))

    def test_imaginary_diagonal_rejected(self):
        with pytest.raises(TyplabError, match="not Hermitian"):
            HermitianOperator(np.diag([1.0 + 1e-6j, 2.0]))

    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 0): np.nan},
            {(0, 0): np.inf},
            {(1, 1): -np.inf},
            {(0, 0): complex(0.0, np.inf)},
            {(0, 1): np.nan},
            {(0, 1): np.inf},
            {(1, 0): complex(np.inf, -np.inf)},
            {(0, 1): np.inf, (1, 0): np.inf},
        ],
    )
    def test_non_finite_entries_rejected(self, entries):
        m = np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex)
        for entry, value in entries.items():
            m[entry] = value
        with pytest.raises(TyplabError, match="non-finite"):
            HermitianOperator(m)

    def test_matrix_is_frozen(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
    def test_random_hermitian_constructions_validate(self, n, seed):
        op = random_hermitian(n, seed)
        assert op.dim == n

    def test_one_by_one(self):
        assert HermitianOperator(np.array([[2.0]])).dim == 1
        with pytest.raises(TyplabError, match="not Hermitian"):
            HermitianOperator(np.array([[1j]]))
        with pytest.raises(TyplabError, match="non-finite"):
            HermitianOperator(np.array([[np.nan]]))


class TestValidationPanels:
    """The Hermitian check runs over row panels; n = 300 gives panels of
    218 rows, so the last one is partial."""

    n = 300

    def matrix(self):
        assert self.n % (VALIDATION_PANEL_ENTRIES // self.n) != 0
        return random_hermitian(self.n, seed=3).matrix.copy()

    @pytest.mark.parametrize("entry", [(299, 5), (5, 299), (250, 250), (0, 0)])
    def test_nan_anywhere_rejected(self, entry):
        m = self.matrix()
        m[entry] = np.nan
        with pytest.raises(TyplabError, match="non-finite"):
            HermitianOperator(m)

    def test_nan_in_last_panel_outranks_earlier_asymmetry(self):
        m = self.matrix()
        m[3, 7] += 1.0  # asymmetric, in the first panel
        m[290, 4] = np.inf
        with pytest.raises(TyplabError, match="non-finite"):
            HermitianOperator(m)

    def test_asymmetric_pair_in_last_panel_reports_whole_matrix_maximum(self):
        m = self.matrix()
        m[250, 290] += 3e-9
        m[290, 250] -= 1e-9j
        expected = float(np.abs(m - m.conj().T).max())
        with pytest.raises(TyplabError, match=re.escape(f"max |M - M^dagger| = {expected:.3e} ")):
            HermitianOperator(m)
        assert _max_asymmetry(m) == expected

    def test_validation_peak_memory_near_the_copy(self):
        m = random_hermitian(1000, seed=4).matrix.copy()
        tracemalloc.start()
        try:
            HermitianOperator(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m.nbytes


class TestIsDiagonal:
    @pytest.mark.parametrize(
        "entries, expected",
        [
            ({}, True),
            ({(0, 0): 0.0, (1, 1): 0.0}, True),  # zeros on the diagonal
            ({(0, 2): 1e-13}, False),  # one off-diagonal entry, within tolerance
            ({(0, 0): 0.0, (1, 2): 0.5, (2, 1): 0.5}, False),
        ],
    )
    def test_off_diagonal_entries_detected(self, entries, expected):
        m = np.diag([1.0, -1.0, 2.0]).astype(complex)
        for entry, value in entries.items():
            m[entry] = value
        assert is_diagonal(HermitianOperator(m)) is expected


class TestSpectralMoments:
    def test_pm1_moments(self):
        moments = spectral_moments(np.array([1.0, -1.0, 1.0, -1.0]))
        assert moments[1] == 0.0
        assert moments[2] == 1.0
        assert moments[3] == 0.0
        assert moments[4] == 1.0

    @pytest.mark.parametrize("order", [0, 9, -1])
    def test_out_of_range_order(self, order):
        moments = spectral_moments(np.ones(2))
        assert list(moments) == list(range(1, 9))
        assert order not in moments

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
    def test_matrix_and_eigenvalue_paths_agree(self, n, seed):
        op = random_hermitian(n, seed)
        via_products = power_trace_moments(op)
        via_eigen = spectral_moments(eigendecompose(op).eigenvalues)
        for i in range(1, 9):
            scale = max(1.0, abs(via_eigen[i]))
            assert abs(via_products[i - 1] - via_eigen[i]) <= 1e-10 * scale

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
    def test_variance_nonnegative(self, n, seed):
        m = spectral_moments(eigendecompose(random_hermitian(n, seed)).eigenvalues)
        assert m[2] - m[1] ** 2 >= -1e-12
        assert m[4] >= 0 and m[8] >= 0
        assert m[8] >= m[4] ** 2 - 1e-12 * max(1.0, m[4] ** 2)

    def test_diagonal_fast_path_matches_products(self):
        diag = np.linspace(-2.0, 3.0, 6)
        via_products = power_trace_moments(HermitianOperator(np.diag(diag)))
        fast = spectral_moments(diag)
        for i in range(1, 9):
            assert fast[i] == pytest.approx(via_products[i - 1], rel=1e-12)


class TestEigendecompose:
    def test_already_diagonal_sorted(self):
        dec = eigendecompose(HermitianOperator(np.diag([2.0, 1.0])))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0])
        # permutation eigenvectors up to phase
        assert np.allclose(np.abs(dec.eigenvectors), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        dec = eigendecompose(HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.full((2, 2), 1 / np.sqrt(2)))

    @pytest.mark.parametrize("n", [50, 2000])
    def test_reconstruction_residual(self, n):
        op = random_hermitian(n, seed=n)
        dec = eigendecompose(op)
        h = op.matrix
        residual = np.linalg.norm(
            (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T - h, "fro"
        )
        assert residual <= 1e-8 * np.linalg.norm(h, "fro")

    def test_unitarity(self):
        dec = eigendecompose(random_hermitian(80, seed=8))
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.linalg.norm(gram - np.eye(80), "fro") <= 1e-10 * np.sqrt(80)

    def test_rejects_unsorted_eigenvalues(self):
        with pytest.raises(TyplabError, match="not sorted ascending"):
            SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2, dtype=complex))

    def test_residuals_recorded_below_tolerance(self):
        dec = eigendecompose(random_hermitian(60, seed=2))
        assert 0.0 <= dec.unitarity_residual <= UNITARITY_RTOL
        assert 0.0 <= dec.reconstruction_residual <= RECONSTRUCTION_RTOL
        bare = SpectralDecomposition(dec.eigenvalues, dec.eigenvectors)
        assert bare.reconstruction_residual is None

    def test_keeps_the_eigenvectors_eigh_returned(self, monkeypatch):
        returned = []
        eigh = np.linalg.eigh

        def recording(h):
            w, u = eigh(h)
            returned.append(u)
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", recording)
        dec = eigendecompose(random_hermitian(20, seed=5))
        assert dec.eigenvectors is returned[0]
        assert not dec.eigenvectors.flags.writeable

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda h, w, u: (w, u * 1.001), "not unitary"),
            (lambda h, w, u: (w * (1 + 1e-6), u), "reconstruction residual"),
            (lambda h, w, u: (w, one_column_off_norm(u)), "not unitary"),
            (lambda h, w, u: (top_eigenvalue_off(h, w), u), "reconstruction residual"),
        ],
        ids=["eigenvectors", "eigenvalues", "one-column", "one-eigenvalue"],
    )
    def test_corrupted_solver_output_rejected(self, monkeypatch, corrupt, message):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: corrupt(h, *eigh(h)))
        with pytest.raises(TyplabError, match=message):
            eigendecompose(random_hermitian(30, seed=6))

    @staticmethod
    def noisy_decomposition(n: int):
        """(w, U, H) from eigh with known errors: eigenvalue noise of
        ||E||_F = 1e-10 ||H||_F in the reconstruction and column norms off by
        about 1e-12, so both residuals sit far above rounding and below the
        tolerances."""
        op = random_hermitian(n, seed=n + 1)
        w, u = np.linalg.eigh(op.matrix)
        noise = SeedStream(n).normal(2 * n)
        w = w + noise[:n] * (1e-10 * np.linalg.norm(op.matrix) / np.linalg.norm(noise[:n]))
        u = u * (1 + 1e-12 * noise[n:])
        return w, u, op

    @pytest.mark.parametrize("n", [30, 200, 600])
    def test_estimates_track_the_exact_residuals(self, n):
        w, u, op = self.noisy_decomposition(n)
        dec = SpectralDecomposition(w, u, source=op)
        h = op.matrix
        exact_unitarity = np.linalg.norm(u.conj().T @ u - np.eye(n)) / np.sqrt(n)
        exact_reconstruction = np.linalg.norm((u * w) @ u.conj().T - h) / np.linalg.norm(h)
        assert 1e-13 < exact_unitarity < UNITARITY_RTOL
        assert 1e-11 < exact_reconstruction < RECONSTRUCTION_RTOL
        assert 0.5 <= dec.unitarity_residual / exact_unitarity <= 2.0
        assert 0.5 <= dec.reconstruction_residual / exact_reconstruction <= 2.0

    def test_residuals_repeat_bit_for_bit(self):
        w, u, op = self.noisy_decomposition(200)
        first = SpectralDecomposition(w, u, source=op)
        second = SpectralDecomposition(w, u, source=op)
        assert first.unitarity_residual == second.unitarity_residual
        assert first.reconstruction_residual == second.reconstruction_residual

    def test_checks_hold_no_dense_temporary(self):
        n = 600
        op = random_hermitian(n, seed=12)
        w, u = np.linalg.eigh(op.matrix)
        u.flags.writeable = False  # kept without a copy, as eigendecompose does
        tracemalloc.start()
        try:
            SpectralDecomposition(w, u, source=op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 16 * n**2

    def test_caller_arrays_cannot_change_the_decomposition(self):
        w = np.array([0.0, 1.0, 2.0])
        u = np.eye(3, dtype=complex)
        frozen_view = u.view()
        frozen_view.flags.writeable = False
        for vectors in (u, frozen_view):
            dec = SpectralDecomposition(w, vectors)
            u[0, 0] = 5.0
            w[0] = -7.0
            assert dec.eigenvectors[0, 0] == 1.0 and dec.eigenvalues[0] == 0.0
            assert not dec.eigenvectors.flags.writeable
            u[0, 0] = 1.0
            w[0] = 0.0


class TestHilbertSchmidt:
    def test_identity_inner(self):
        assert hilbert_schmidt_inner(np.eye(5), np.eye(5)) == pytest.approx(5.0)

    def test_pm1_inner(self):
        a = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        assert hilbert_schmidt_inner(a, a) == pytest.approx(4.0)

    def test_conjugate_symmetry(self):
        from conftest import random_state_block

        x = random_state_block(6, 6, seed=1)
        y = random_state_block(6, 6, seed=2)
        assert hilbert_schmidt_inner(x, y) == pytest.approx(
            np.conj(hilbert_schmidt_inner(y, x))
        )

    def test_cauchy_schwarz_100_pairs(self):
        from conftest import random_state_block

        for k in range(100):
            x = random_state_block(10, 10, seed=2 * k)
            y = random_state_block(10, 10, seed=2 * k + 1)
            lhs = abs(hilbert_schmidt_inner(x, y))
            rhs = np.sqrt(
                hilbert_schmidt_inner(x, x).real * hilbert_schmidt_inner(y, y).real
            )
            assert lhs <= rhs * (1 + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(TyplabError, match="shapes differ"):
            hilbert_schmidt_inner(np.eye(2), np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(TyplabError, match="X must be square"):
            hilbert_schmidt_inner(np.zeros((2, 3)), np.zeros((2, 3)))


class TestHeisenberg:
    def test_t0_returns_observable(self):
        a = random_hermitian(12, 3)
        dec = eigendecompose(random_hermitian(12, 4))
        at0 = heisenberg_observable(a, dec, 0.0)
        assert np.abs(at0.matrix - a.matrix).max() <= 1e-12

    def test_conserved_observable(self):
        h = random_hermitian(10, 5)
        dec = eigendecompose(h)
        # H commutes with itself, so H(t) = H for all t.
        for t in (0.3, 2.0, 17.5):
            ht = heisenberg_observable(h, dec, t)
            assert np.abs(ht.matrix - h.matrix).max() <= 1e-10

    def test_autocorrelation_bounded(self):
        # Tr{A(t) A} <= Tr{A^2}, the Cauchy-Schwarz consequence.
        a = random_hermitian(14, 6)
        dec = eigendecompose(random_hermitian(14, 7))
        limit = hilbert_schmidt_inner(a.matrix, a.matrix).real
        for t in (0.1, 1.0, 5.0, 25.0):
            at = heisenberg_observable(a, dec, t)
            value = hilbert_schmidt_inner(at.matrix, a.matrix).real
            assert value <= limit * (1 + 1e-12)

    def test_moments_preserved(self):
        a = random_hermitian(16, 8)
        dec = eigendecompose(random_hermitian(16, 9))
        base = spectral_moments(eigendecompose(a).eigenvalues)
        at = spectral_moments(eigendecompose(heisenberg_observable(a, dec, 3.7)).eigenvalues)
        for i in (1, 2, 4, 8):
            assert at[i] == pytest.approx(base[i], rel=1e-8, abs=1e-10)
