import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from typlab.ensembles import (
    STATE_BLOCK_AMPLITUDES,
    OmegaParams,
    StateVector,
    commuting_unitary,
    make_omega,
    make_omegas,
    sample_uniform_state,
    sample_uniform_states,
    uniform_state_blocks,
)
from typlab.errors import TyplabError
from typlab.evolution import expectation, expectations
from typlab.models import build_observable_pm1
from typlab.operators import spectral_moments
from typlab.rng import SeedStream
from typlab.stats import norm_variance_analytic

from conftest import (
    NOT_PM1_OBSERVABLES,
    average_density,
    dense_observable,
    hilbert_schmidt_inner,
)


def array_sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def normalized_rows(z: np.ndarray) -> np.ndarray:
    """States from a (count, 2n) normal block, real parts first, normalized
    row by row."""
    n = z.shape[1] // 2
    states = np.empty((len(z), n), dtype=np.complex128)
    states.real = z[:, :n]
    states.imag = z[:, n:]
    for row in states:
        row /= np.linalg.norm(row[None, :], axis=1)
    return states


def whole_draw_states(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform states from one whole (count, 2n) normal draw."""
    return normalized_rows(SeedStream(seed).normal(2 * n * count).reshape(count, 2 * n))


def block_draw_states(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform states from consecutive ``normal(2 n rows)`` draws of one
    stream (the reference for the row-block sampler)."""
    rows = max(1, STATE_BLOCK_AMPLITUDES // n)
    stream = SeedStream(seed)
    z = np.concatenate([stream.normal(2 * n * min(rows, count - s)) for s in range(0, count, rows)])
    return normalized_rows(z.reshape(count, 2 * n))


class TestUniformSampling:
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32))
    def test_unit_norm(self, n, seed):
        psi = sample_uniform_state(n, seed)
        assert abs(psi.norm_sq - 1.0) <= 1e-12

    def test_deterministic(self):
        a = sample_uniform_state(50, 7)
        b = sample_uniform_state(50, 7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_mean_expectation_vanishes_for_trace_free(self):
        n, count = 2000, 10_000
        a = build_observable_pm1(n, seed=3)
        states = sample_uniform_states(n, count, seed=17)
        values = expectations(a, states)
        se = values.std(ddof=1) / np.sqrt(count)
        assert abs(values.mean()) < 3 * se

    def test_variance_matches_uniform_formula(self):
        # Monte Carlo oracle for the 1/(n+1) spectral-variance law
        n, count = 200, 10_000
        a = build_observable_pm1(n, seed=3)
        values = expectations(a, sample_uniform_states(n, count, seed=29))
        assert values.var(ddof=1) == pytest.approx(1.0 / (n + 1), rel=0.10)

    def test_batch_bits_pinned(self):
        # two blocks, of 655 and 345 rows, each its own draw of one stream
        states = sample_uniform_states(200, 1000, 7)
        assert array_sha256(states) == (
            "963e145ce89a444dd9766f9dfd4017a7b6d6cdd8346b94971fc69817dae1a03a"
        )

    @pytest.mark.parametrize(
        "n, count, seed, digest",
        [
            # large n, a few rows
            (9000, 3, 11, "7e95152704885044f2ebd10c3db2976d007a9821bfc58d73ee69689a7f706c09"),
            # odd n and odd count, the last block shorter than the others
            (201, 77, 13, "f4e85874f3cbec37292e12bc3ff829a6e17873f2eb748334449fb11e4315f792"),
        ],
    )
    def test_batch_bits_pinned_at_block_edges(self, n, count, seed, digest):
        # sha256 of the bytes the whole-array assembly produced
        assert array_sha256(sample_uniform_states(n, count, seed)) == digest

    @pytest.mark.parametrize(
        "n, count, seed",
        [
            (200, 20_000, 7),  # verify's sizes, many blocks
            (201, 77, 13),  # odd count: the middle row straddles the cosine/sine boundary
            (9000, 3, 11),  # large n, a few rows in one block
            (140_000, 3, 5),  # n above the block size: one row per block
            (5, 7, 1),  # fewer rows than one block
        ],
    )
    def test_blocks_are_consecutive_draws_of_one_stream(self, n, count, seed):
        reference = block_draw_states(n, count, seed)
        rows = max(1, STATE_BLOCK_AMPLITUDES // n)
        drawn = 0
        for first, block in uniform_state_blocks(n, count, seed):
            assert first == drawn
            assert len(block) == min(rows, count - first)
            assert np.array_equal(block, reference[first : first + len(block)])
            drawn += len(block)
        assert drawn == count
        assert np.array_equal(sample_uniform_states(n, count, seed), reference)

    def test_batch_peak_memory_near_result_size(self):
        tracemalloc.start()
        try:
            states = sample_uniform_states(200, 20_000, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * states.nbytes

    def test_batch_rows_are_normalized(self):
        states = sample_uniform_states(64, 100, seed=5)
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


class TestOmega:
    def test_zero_deviation_is_identity(self):
        psi = sample_uniform_state(32, 4)
        params = OmegaParams(d=0.0, observable=build_observable_pm1(32, seed=1))
        omega = make_omega(psi, params)
        assert np.array_equal(omega.amplitudes, psi.amplitudes)

    def test_two_dim_closed_form(self):
        a = np.array([1.0, -1.0])
        psi = StateVector(np.array([1.0, 0.0], dtype=complex))
        omega = make_omega(psi, OmegaParams(d=0.1, observable=a))
        assert omega.amplitudes[0] == pytest.approx(1.1 / np.sqrt(1.01), rel=1e-15)
        assert omega.amplitudes[1] == 0.0
        assert omega.norm_sq == pytest.approx(1.21 / 1.01, rel=1e-14)

    def test_norm_mean_matches_unity(self):
        n, count, d = 2000, 10_000, 0.1
        a = build_observable_pm1(n, seed=3)
        params = OmegaParams(d=d, observable=a)
        omegas = make_omegas(sample_uniform_states(n, count, seed=41), params)
        norms = np.sum(omegas.conj() * omegas, axis=1).real
        band = 3 * np.sqrt(norm_variance_analytic(d, 0.0, n) / count)
        assert abs(norms.mean() - 1.0) < band

    def test_batch_matches_single(self):
        a = build_observable_pm1(16, seed=2)
        params = OmegaParams(d=0.2, observable=a)
        psi = sample_uniform_state(16, 9)
        single = make_omega(psi, params)
        batch = make_omegas(psi.amplitudes[None, :], params)
        assert np.allclose(single.amplitudes, batch[0], rtol=0, atol=0)

    def test_bits_pinned(self):
        # sha256 of the array bytes the dense-matrix kernels produced: the
        # elementwise kernels must reproduce them bit for bit
        params = OmegaParams(d=0.1, observable=build_observable_pm1(200, seed=3))
        omegas = make_omegas(whole_draw_states(200, 1000, 7), params)
        assert array_sha256(omegas) == (
            "d837eb2b24421b2ca0ed547398a7bf43e82c47f8a23788da2e90df394adf8131"
        )
        omega = make_omega(sample_uniform_state(200, 9), params)
        assert array_sha256(omega.amplitudes) == (
            "95ad2a9c715012518daf4e7fa2d7bde1313c24d47e85a67092b1c5072e888629"
        )

    @pytest.mark.parametrize("observable", NOT_PM1_OBSERVABLES.values(), ids=NOT_PM1_OBSERVABLES)
    def test_observable_not_pm1_rejected(self, observable):
        # the gate every ensemble, propagation and exact variance reads through
        with pytest.raises(TyplabError, match="must be a sign vector of entries"):
            OmegaParams(d=0.1, observable=observable())

    @pytest.mark.parametrize(
        "signs, c1",
        [([1, -1, -1, 1], 0.0), ([1, 1, -1], 1 / 3), ([1] * 4, 1.0), ([-1] * 4, -1.0)],
        ids=["balanced", "unbalanced", "identity", "minus-identity"],
    )
    def test_c1_is_the_trace_per_dimension(self, signs, c1):
        params = OmegaParams(d=0.1, observable=np.array(signs))
        assert type(params.c1) is float and params.c1 == c1
        assert params.c1 == spectral_moments(params.observable)[1]

    def test_observable_stored_as_read_only_copy(self):
        signs = np.array([1, -1, -1, 1])
        params = OmegaParams(d=0.1, observable=signs)
        signs[0] = -1
        assert params.observable.dtype == np.float64
        assert params.observable.tolist() == [1.0, -1.0, -1.0, 1.0]
        assert not params.observable.flags.writeable


class TestAverageDensity:
    def test_zero_deviation_is_maximally_mixed(self):
        a = build_observable_pm1(8, seed=1)
        rho = average_density(OmegaParams(d=0.0, observable=a), 8)
        assert np.allclose(rho.matrix, np.eye(8) / 8, atol=1e-15)

    def test_small_case_arithmetic(self):
        a = build_observable_pm1(4, seed=5)
        rho = average_density(OmegaParams(d=0.1, observable=a), 4)
        expected = (1.01 * np.eye(4) + 0.2 * np.diag(a)) / (4 * 1.01)
        assert np.allclose(rho.matrix, expected, atol=1e-15)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_monte_carlo_projector_converges(self):
        n, d = 100, 0.1
        a = build_observable_pm1(n, seed=3)
        params = OmegaParams(d=d, observable=a)
        analytic = average_density(params, n).matrix
        omegas = make_omegas(sample_uniform_states(n, 10_000, seed=53), params)

        def distance(count):
            block = omegas[:count]
            avg = (block.T @ block.conj()) / count
            diff = avg - analytic
            return np.sqrt(hilbert_schmidt_inner(diff, diff).real)

        # Exact sphere moments give E[dist^2] = (1 - 1/n)/N for the uniform
        # ensemble (each projector has unit HS norm); d adds O(d) corrections.
        d2, d3, d4 = distance(100), distance(1_000), distance(10_000)
        assert d4 < 5 * np.sqrt((1 - 1 / n) / 10_000)
        assert d3 < d2 and d4 < d3
        assert d4 < d2 / 5

    def test_dimension_check(self):
        a = build_observable_pm1(4, seed=1)
        with pytest.raises(TyplabError, match="n = 6 does not match observable dim 4"):
            average_density(OmegaParams(d=0.1, observable=a), 6)


class TestCommutingUnitary:
    def test_unitary_and_diagonal(self):
        a = build_observable_pm1(12, seed=1)
        phases = commuting_unitary(a, seed=8)
        assert phases.shape == (12,)
        # |exp(i theta)| is 1 up to the rounding of cos and sin: within 1 ulp
        assert np.abs(np.abs(phases) - 1.0).max() <= np.finfo(float).eps
        u = np.diag(phases)
        assert np.allclose(u @ u.conj().T, np.eye(12), atol=1e-14)

    def test_bits_pinned(self):
        # The phases are exp(i 2 pi u) of the seed's uniforms, bit for bit.
        a = build_observable_pm1(200, seed=3)
        phases = commuting_unitary(a, seed=11)
        inline = np.exp(1j * ((2.0 * np.pi) * SeedStream(11).uniform(200)))
        assert phases.tobytes() == inline.tobytes()
        assert array_sha256(phases) == (
            "331a7950050e8230ef7b0c47e188cab1591628ab22126eff02eab620253d8534"
        )

    def test_exact_commutation(self):
        a = build_observable_pm1(20, seed=2)
        u = np.diag(commuting_unitary(a, seed=9))
        assert np.linalg.norm(u @ np.diag(a) - np.diag(a) @ u, "fro") == 0.0

    def test_expectation_invariance_per_state(self):
        a = build_observable_pm1(30, seed=3)
        dense = dense_observable(a)
        params = OmegaParams(d=0.1, observable=a)
        for k in range(20):
            omega = make_omega(sample_uniform_state(30, 100 + k), params)
            phases = commuting_unitary(a, seed=200 + k)
            rotated = StateVector(phases * omega.amplitudes)
            assert abs(expectation(dense, rotated) - expectation(dense, omega)) <= 1e-10
