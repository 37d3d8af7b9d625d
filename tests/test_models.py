import hashlib
import tracemalloc

import numpy as np
import pytest

from typlab.config import ModelSpec
from typlab.errors import TyplabError
from typlab.models import (
    OBSERVABLE_STREAM,
    PERTURBATION_STREAM,
    assemble_hamiltonian,
    build_model,
    build_observable_pm1,
    build_perturbation,
    build_v_constant,
    build_v_gaussian,
)
from typlab.operators import HermitianOperator, spectral_moments
from typlab.rng import child_seed

from conftest import build_h0, is_diagonal


class TestBuildH0:
    def test_paper_spacing(self):
        h0 = build_h0(4, 8.33e-5)
        assert np.array_equal(h0.matrix.diagonal().real, np.arange(4) * 8.33e-5)
        assert np.allclose(
            h0.matrix.diagonal().real, [0.0, 8.33e-5, 1.666e-4, 2.499e-4], rtol=1e-12
        )

    def test_two_levels(self):
        assert np.array_equal(build_h0(2, 1.0).matrix, np.diag([0.0, 1.0]))

    def test_zero_spacing_rejected(self):
        with pytest.raises(TyplabError, match="level spacing must be > 0"):
            build_h0(3, 0.0)

    def test_tiny_dimension_rejected(self):
        with pytest.raises(TyplabError, match="dimension must be >= 2, got 1"):
            build_h0(1, 1.0)


class TestObservable:
    def test_two_dim_arrangements(self):
        assert sorted(build_observable_pm1(2, seed=0).tolist()) == [-1.0, 1.0]

    def test_read_only_float_vector(self):
        a = build_observable_pm1(10, seed=4)
        assert a.shape == (10,) and a.dtype == np.float64
        with pytest.raises(ValueError):
            a[0] = 3.0

    def test_dense_form_is_the_diagonal(self):
        a = build_observable_pm1(10, seed=4)
        assert np.array_equal(a.matrix, np.diag(np.asarray(a)))
        assert is_diagonal(HermitianOperator(a.matrix))

    def test_paper_scale_moments_exact(self):
        # full paper dimension; the sign vector keeps this cheap
        a = build_observable_pm1(6000, seed=99)
        m = spectral_moments(a)
        assert list(m.values()) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_balanced_counts(self):
        diag = build_observable_pm1(40, seed=5)
        assert int((diag == 1.0).sum()) == 20
        assert int((diag == -1.0).sum()) == 20

    def test_deterministic(self):
        a = build_observable_pm1(30, seed=77)
        b = build_observable_pm1(30, seed=77)
        assert np.array_equal(a, b)

    def test_seed_changes_placement(self):
        a = build_observable_pm1(30, seed=1)
        b = build_observable_pm1(30, seed=2)
        assert not np.array_equal(a, b)


class TestGaussianPerturbation:
    def test_zero_scale_is_zero_matrix(self):
        v = build_v_gaussian(10, 0.0, seed=1)
        assert not np.any(v)

    def test_offdiagonal_second_moment(self):
        mean_sq = 2.25e-8
        v = build_v_gaussian(2000, mean_sq, seed=31)
        rows, cols = np.triu_indices(2000, k=1)
        sample = np.abs(v[rows, cols]) ** 2
        # |V_jk|^2 is exponential with mean mean_sq, so SE = mean / sqrt(m)
        se = mean_sq / np.sqrt(sample.size)
        assert abs(sample.mean() - mean_sq) < 3 * se

    def test_hermitian_by_construction(self):
        v = build_v_gaussian(50, 1e-4, seed=3)
        HermitianOperator(v)

    def test_diagonal_variance_scale(self):
        v = build_v_gaussian(4000, 1.0, seed=9)
        diag = v.diagonal().real
        assert abs(np.var(diag) - 1.0) < 5 / np.sqrt(4000)

    def test_deterministic(self):
        a = build_v_gaussian(25, 1e-3, seed=8)
        b = build_v_gaussian(25, 1e-3, seed=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "n, mean_sq, seed, digest",
        [
            (7, 0.25, 11, "aa167ff55882693e1c22bf3045f961108f73fe1aabed827707aefafae6d1c00c"),
            (300, 2.25e-6, 2024, "060a2f7f92bb9921f56dc645cc60b8f57b91625ea2486f6b09763a41106e9131"),
        ],
    )
    def test_bytes_pinned(self, n, mean_sq, seed, digest):
        # digests of the index-scatter fill that the row-wise fill replaced
        assert hashlib.sha256(build_v_gaussian(n, mean_sq, seed).tobytes()).hexdigest() == digest


class TestConstantPerturbation:
    def test_rank_one_structure(self):
        v = build_v_constant(3, 4.0)
        assert np.array_equal(v.real, np.full((3, 3), 2.0))
        eigenvalues = np.linalg.eigvalsh(v)
        assert np.allclose(eigenvalues, [0.0, 0.0, 6.0], atol=1e-12)

    def test_paper_entry_value(self):
        v = build_v_constant(4, 2.25e-8)
        assert v[0, 0].real == pytest.approx(1.5e-4, rel=1e-15)

    def test_top_eigenvalue_at_paper_scale(self):
        # the nonzero eigenvalue of the all-constant matrix is n * sqrt(v),
        # checked by applying the matrix to the uniform vector
        v = build_v_constant(6000, 2.25e-8)
        ones = np.ones(6000)
        image = v @ ones
        assert np.allclose(image, 0.9 * ones, rtol=1e-12)
        assert 6000 * np.sqrt(2.25e-8) == pytest.approx(0.9, rel=1e-14)

    def test_top_eigenvalue_small_instance(self):
        v = build_v_constant(600, 2.25e-6)
        top = np.linalg.eigvalsh(v)[-1]
        assert top == pytest.approx(600 * 1.5e-3, rel=1e-10)


class TestAssemble:
    def test_zero_perturbation_gives_h0(self):
        spec = ModelSpec(n=6, delta_e=0.5, v_kind="gaussian", v_scale=0.0, seed=4)
        h = assemble_hamiltonian(spec)
        assert np.array_equal(h.matrix, build_h0(6, 0.5).matrix)

    @pytest.mark.parametrize("v_scale", [2.25e-8, 6.25e-6])
    def test_paper_scenarios_assemble(self, v_scale):
        spec = ModelSpec(n=100, delta_e=8.33e-5, v_kind="gaussian", v_scale=v_scale, seed=11)
        h = assemble_hamiltonian(spec)
        HermitianOperator(h.matrix)
        assert np.any(h.matrix - np.diag(h.matrix.diagonal()))  # dense

    @pytest.mark.parametrize("v_kind, v_scale", [("gaussian", 1e-6), ("constant", 4e-8)])
    def test_bytes_equal_dense_sum(self, v_kind, v_scale):
        spec = ModelSpec(n=40, delta_e=1e-3, v_kind=v_kind, v_scale=v_scale, seed=9)
        dense = build_h0(spec.n, spec.delta_e).matrix + build_perturbation(spec)
        assert assemble_hamiltonian(spec).matrix.tobytes() == dense.tobytes()

    def test_bit_identical_for_equal_specs(self):
        spec = ModelSpec(n=40, delta_e=1e-3, v_kind="gaussian", v_scale=1e-6, seed=123)
        a = build_model(spec)
        b = build_model(spec)
        assert np.array_equal(a.hamiltonian.matrix, b.hamiltonian.matrix)
        assert np.array_equal(a.observable, b.observable)

    def test_build_peak_memory(self):
        # run_large_n's model: the peak stays within 3.5 dense matrices
        n = 1200
        spec = ModelSpec(n=n, delta_e=4.165e-4, v_kind="gaussian", v_scale=5.625e-7, seed=7)
        tracemalloc.start()
        try:
            build_model(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 16 * n**2

    def test_build_validates_once(self, monkeypatch):
        # V is Hermitian by construction; H's one gate checks every entry
        validated = []
        original = HermitianOperator.__post_init__

        def counting(op):
            validated.append(np.shape(op.matrix))
            original(op)

        monkeypatch.setattr(HermitianOperator, "__post_init__", counting)
        build_model(ModelSpec(n=40, delta_e=1e-3, v_kind="gaussian", v_scale=1e-6, seed=5))
        assert validated == [(40, 40)]

    def test_observable_and_perturbation_use_distinct_streams(self):
        assert child_seed(123, OBSERVABLE_STREAM) != child_seed(123, PERTURBATION_STREAM)


class TestModelSpecValidation:
    def test_odd_dimension(self):
        with pytest.raises(TyplabError, match="field 'model.n' must be even, got 5"):
            ModelSpec(n=5, delta_e=1.0, v_kind="gaussian", v_scale=0.0, seed=0)

    def test_bad_kind(self):
        with pytest.raises(TyplabError, match="field 'model.v_kind' must be one of"):
            ModelSpec(n=4, delta_e=1.0, v_kind="banded", v_scale=0.0, seed=0)

    def test_negative_scale(self):
        with pytest.raises(TyplabError, match="field 'model.v_scale' must be >= 0"):
            ModelSpec(n=4, delta_e=1.0, v_kind="gaussian", v_scale=-1.0, seed=0)

    def test_zero_spacing(self):
        with pytest.raises(TyplabError, match="field 'model.delta_e' must be > 0"):
            ModelSpec(n=4, delta_e=0.0, v_kind="gaussian", v_scale=0.0, seed=0)
