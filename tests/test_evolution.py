import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from typlab.config import load_config
from typlab.ensembles import (
    OmegaParams,
    StateVector,
    make_omega,
    make_omegas,
    sample_uniform_state,
    sample_uniform_states,
)
from typlab.errors import TyplabError
from typlab.evolution import (
    expectation,
    expectations,
    run_ensemble,
    trajectory_omegas,
)
from typlab.models import ModelSpec, build_model, build_observable_pm1
from typlab.operators import HermitianOperator, eigendecompose, heisenberg_observable
from typlab.rng import child_seed
from typlab.stats import sample_stats

from conftest import (
    dense_expectations,
    dense_observable,
    pm1_with_plus_fraction,
    random_hermitian,
    random_state_block,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_series(dec, a_op, omega, times):
    """The per-trajectory formula that run_ensemble replaced: the dense
    A~ = U^dagger A U as a quadratic form on each phase-rotated eigenbasis
    state, valid for any Hermitian A."""
    u = dec.eigenvectors
    a_eig = u.conj().T @ a_op.matrix @ u
    state_eig = u.conj().T @ omega.amplitudes
    evolved = np.exp(np.outer(-1j * dec.eigenvalues, times)) * state_eig[:, None]
    values = np.sum(evolved.conj() * (a_eig @ evolved), axis=0)
    assert np.abs(values.imag).max() <= 1e-10 * omega.norm_sq
    return values.real


@pytest.fixture(scope="module")
def dense_model():
    spec = ModelSpec(n=40, delta_e=0.02, v_kind="gaussian", v_scale=1e-4, seed=12)
    model = build_model(spec)
    return model, eigendecompose(model.hamiltonian)


class TestExpectation:
    def test_basis_state(self):
        a = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
        assert expectation(a, StateVector(np.array([1.0, 0.0], dtype=complex))) == 1.0

    def test_balanced_superposition(self):
        a = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
        phi = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        assert expectation(a, phi) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_state_scale(self):
        n = 2000
        a = dense_observable(build_observable_pm1(n, seed=1))
        value = expectation(a, sample_uniform_state(n, 8))
        assert abs(value) < 3 * np.sqrt(1.0 / (n + 1))

    def test_imaginary_residue_guard(self):
        # forge a corrupted operator by bypassing validation
        bad = HermitianOperator.__new__(HermitianOperator)
        object.__setattr__(bad, "matrix", np.array([[0.0, 1e-3j], [0.0, 0.0]]))
        phi = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        with pytest.raises(TyplabError, match="imaginary residue"):
            expectation(bad, phi)

    @pytest.mark.parametrize(
        "observable",
        [
            lambda: build_observable_pm1(60, seed=4),
            lambda: pm1_with_plus_fraction(60, 0.7, seed=5),
            lambda: np.ones(60),
            lambda: -np.ones(60),
        ],
        ids=["balanced", "plus-0.7", "identity", "minus-identity"],
    )
    def test_expectations_match_dense_product(self, observable):
        a = observable()
        states = sample_uniform_states(60, 500, seed=31)
        omegas = make_omegas(states, OmegaParams(d=0.3, observable=a))
        for block in (states, omegas):
            values = expectations(a, block)
            assert values.dtype == np.float64
            assert np.abs(values - dense_expectations(dense_observable(a), block)).max() <= 1e-15


class TestTrajectories:
    def test_commuting_hamiltonian_constant_series(self):
        n = 16
        a = build_observable_pm1(n, seed=4)
        h = HermitianOperator(np.diag(np.arange(n) * 0.3).astype(complex))
        dec = eigendecompose(h)
        params = OmegaParams(d=0.1, observable=a)
        values = run_ensemble(dec, params, trajectory_omegas(params, 3, 3), np.linspace(0.0, 20.0, 15))
        assert np.ptp(values, axis=1).max() <= 1e-10

    def test_schroedinger_equals_heisenberg(self, dense_model):
        model, dec = dense_model
        a = dense_observable(model.observable)
        params = OmegaParams(d=0.1, observable=model.observable)
        times = np.linspace(0.0, 15.0, 7)
        omegas = trajectory_omegas(params, 2, 9)
        values = run_ensemble(dec, params, omegas, times)
        for omega, series in zip(omegas.T, values):
            for k, t in enumerate(times):
                heisenberg = expectation(heisenberg_observable(a, dec, t), StateVector(omega))
                assert series[k] == pytest.approx(heisenberg, abs=1e-9)

    def test_initial_value_matches_plain_expectation(self, dense_model):
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        omegas = trajectory_omegas(params, 4, 10)
        values = run_ensemble(dec, params, omegas, np.linspace(0.0, 5.0, 4))
        for omega, series in zip(omegas.T, values):
            start = expectation(dense_observable(model.observable), StateVector(omega))
            assert series[0] == pytest.approx(start, abs=1e-12)


class TestEnsembleRuns:
    @pytest.mark.parametrize("observable", ["model", "identity", "unbalanced", "minus-identity"])
    def test_matches_per_trajectory_reference(self, dense_model, observable):
        model, dec = dense_model
        a = {
            "model": model.observable,
            "identity": np.ones(40),
            "unbalanced": pm1_with_plus_fraction(40, 0.7, seed=3),
            "minus-identity": -np.ones(40),
        }[observable]
        params = OmegaParams(d=0.1, observable=a)
        times = np.linspace(0.0, 10.0, 12)
        omegas = trajectory_omegas(params, 6, base_seed=21)
        values = run_ensemble(dec, params, omegas, times)
        assert values.shape == (6, 12)
        for omega, series in zip(omegas.T, values):
            reference = reference_series(dec, dense_observable(a), StateVector(omega), times)
            assert np.abs(series - reference).max() <= 1e-12

    # run_ensemble reads the observable through OmegaParams, whose gate
    # stops these before any propagation.
    def test_non_diagonal_observable_rejected(self, dense_model):
        _, dec = dense_model
        with pytest.raises(TyplabError, match="must be a sign vector of entries"):
            params = OmegaParams(d=0.1, observable=random_hermitian(40, seed=5))
            run_ensemble(dec, params, np.ones((40, 2), complex), np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("diagonal", [[2.0, -2.0], [1.0, 0.0], [1.0, -1.0 + 1e-9]])
    def test_observable_not_pm1_rejected(self, dense_model, diagonal):
        _, dec = dense_model
        a = np.tile(diagonal, 20)
        with pytest.raises(TyplabError, match="must be a sign vector of entries"):
            params = OmegaParams(d=0.1, observable=a)
            run_ensemble(dec, params, np.ones((40, 2), complex), np.linspace(0.0, 1.0, 3))

    def test_repeat_runs_identical(self, dense_model):
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        times = np.linspace(0.0, 10.0, 12)
        a = run_ensemble(dec, params, trajectory_omegas(params, 5, base_seed=33), times)
        b = run_ensemble(dec, params, trajectory_omegas(params, 5, base_seed=33), times)
        assert np.array_equal(a, b)

    def test_peak_memory_below_one_dense_matrix(self):
        # no n x n temporary: U^dagger omega is formed without conj(U)
        n = 400
        model = build_model(
            ModelSpec(n=n, delta_e=0.01, v_kind="gaussian", v_scale=1e-4, seed=3)
        )
        dec = eigendecompose(model.hamiltonian)
        params = OmegaParams(d=0.1, observable=model.observable)
        omegas = trajectory_omegas(params, 4, base_seed=8)
        times = np.linspace(0.0, 10.0, 5)
        tracemalloc.start()
        try:
            run_ensemble(dec, params, omegas, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n**2


class TestTrajectoryOmegas:
    def test_columns_are_the_oracle_draw_bit_for_bit(self, dense_model):
        # The draw rule perfbench/oracle.py recomputes independently.
        model, _ = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        omegas = trajectory_omegas(params, 7, 2026)
        assert omegas.shape == (40, 7) and omegas.flags.c_contiguous
        for i in range(7):
            drawn = make_omega(sample_uniform_state(40, child_seed(2026, i)), params)
            assert omegas[:, i].tobytes() == drawn.amplitudes.tobytes()

    def test_kernel_propagates_a_block_it_did_not_draw(self, dense_model):
        # Unnormalized gaussian states: run_ensemble takes any (n, M) block.
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        block = random_state_block(40, 3, seed=17).T
        times = np.linspace(0.0, 10.0, 6)
        values = run_ensemble(dec, params, block, times)
        for column, series in zip(block.T, values):
            reference = reference_series(
                dec, dense_observable(model.observable), StateVector(column), times
            )
            assert np.abs(series - reference).max() <= 1e-12


def fitted_decay_rate(config_name):
    """Decay rate of the sampled mean from a log-linear fit over t <= 150,
    and the Fermi golden rule rate 2 pi v_scale / delta_e of the config."""
    config = load_config(CONFIGS / config_name)
    model = build_model(config.model)
    dec = eigendecompose(model.hamiltonian)
    times = np.linspace(0.0, config.time.t_max, config.time.points)
    params = OmegaParams(d=config.d, observable=model.observable)
    omegas = trajectory_omegas(params, config.num_trajectories, config.base_seed)
    values = run_ensemble(dec, params, omegas, times)
    mean, _ = sample_stats(values)
    early = times <= 150.0
    slope = np.polyfit(times[early], np.log(mean[early]), 1)[0]
    golden_rule = 2 * np.pi * config.model.v_scale / config.model.delta_e
    return -slope, golden_rule


class TestRelaxationContrast:
    """The paper's contrast: a gaussian random perturbation relaxes the
    mean exponentially at the Fermi golden rule rate, a constant one of the
    same magnitude hardly relaxes it at all."""

    def test_gaussian_perturbation_relaxes_at_golden_rule_rate(self):
        rate, golden_rule = fitted_decay_rate("scenario_i.json")
        assert 0.9 <= rate / golden_rule <= 1.1

    def test_constant_perturbation_does_not_relax(self):
        rate, golden_rule = fitted_decay_rate("scenario_iii.json")
        assert rate / golden_rule < 0.05
