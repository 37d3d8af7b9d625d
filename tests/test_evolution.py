import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from typlab.config import NODE_BLOCKS, STATE_BLOCKS, TRAJECTORY_ARRAYS, ModelSpec, load_config
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
    GRID_BLOCK,
    PHASE_ERROR_TOL,
    _bessel_j,
    expectation,
    expectations,
    propagation_error_bound,
    propagation_plan,
    run_ensemble,
    trajectory_omegas,
)
from typlab.models import build_model, build_observable_pm1
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


def per_point_series(dec, signs, omegas, times):
    """The per-point kernel the node interpolation replaced: one
    (n_+ x n) by (n x M) product per grid time, for a sign vector A."""
    u_plus = dec.eigenvectors[np.asarray(signs) > 0]
    coeff = dec.eigenvectors.conj().T @ omegas
    norms_sq = np.sum(np.abs(omegas) ** 2, axis=0)
    values = np.empty((omegas.shape[1], len(times)))
    for k, t in enumerate(times):
        evolved = u_plus @ (np.exp(-1j * dec.eigenvalues * t)[:, None] * coeff)
        values[:, k] = 2.0 * np.sum(np.abs(evolved) ** 2, axis=0) - norms_sq
    return values


def phase_error(grid, nodes, weights, w):
    """The measured max_{k,t} |sum_q Q_tq exp(-i w_k tau_q) - exp(-i w_k t)|
    over the entries of w, with the node phases formed as the kernel forms
    them and the real Q multiplying their float64 view; rounding included."""
    part = -1j * w
    phases = np.exp(np.multiply.outer(nodes, part))
    error = (weights @ phases.view(np.float64)).view(np.complex128)
    error -= np.exp(np.multiply.outer(grid, part))
    return float(np.abs(error).max())


def chebyshev_tails(theta):
    """4 sum_{k>=r} |J_k(theta)| for r = 0, 1, ..., and the J_k, from the FFT
    of exp(-i theta cos phi), whose k-th Fourier coefficient is
    (-i)^k J_k(theta).  The grid is fine enough that aliasing is below
    rounding, and the FFT runs in long double so that the rounding of its
    ~1000 coefficients sums to well under the tolerance."""
    if np.finfo(np.longdouble).eps > 2.0**-60:
        pytest.skip("the FFT route needs an extended-precision long double")
    size = 2 ** int(np.ceil(np.log2(4 * theta + 512)))
    phi = np.arange(size, dtype=np.longdouble) * (8 * np.arctan(np.longdouble(1)) / size)
    coeff = np.fft.fft(np.exp(-1j * np.longdouble(theta) * np.cos(phi)))[: size // 2] / size
    j = (1j ** np.arange(size // 2) * coeff).real
    # Coefficients at the FFT's rounding level would add up to ~1e-15 over
    # the top orders; the true J_k there sum to less than 1e-16.
    terms = np.where(np.abs(j) > 1e-17, np.abs(j), 0.0)
    return 4 * np.cumsum(terms[::-1])[::-1], j


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
        # No n x n temporary: U^dagger omega is formed without conj(U).  No
        # buffer grows with the grid either: the long grid, whose blocks take
        # far fewer nodes than points, holds no (n x T) array.
        n = 400
        model = build_model(
            ModelSpec(n=n, delta_e=0.01, v_kind="gaussian", v_scale=1e-4, seed=3)
        )
        dec = eigendecompose(model.hamiltonian)
        params = OmegaParams(d=0.1, observable=model.observable)
        omegas = trajectory_omegas(params, 4, base_seed=8)
        long_grid = np.linspace(0.0, 10.0, 4000)
        plan = propagation_plan(dec.eigenvalues, long_grid)
        assert sum(len(block.nodes) for block in plan) < len(long_grid) / 10
        for times in (np.linspace(0.0, 10.0, 5), long_grid):
            tracemalloc.start()
            try:
                run_ensemble(dec, params, omegas, times)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * n**2

    @pytest.mark.parametrize(
        "n, m, points, t_max, direct",
        [
            (200, 3, 40, 300.0, True),
            (200, 100, 150, 300.0, False),
            (400, 4, 4000, 300.0, False),
            (600, 100, 200, 300.0, False),
            (600, 3, 512, 3000.0, True),
        ],
    )
    def test_memory_census_bounds_propagation(self, n, m, points, t_max, direct):
        # config.py's census of the states, node temporaries and trajectory
        # arrays bounds what sampling, propagation and aggregation allocate,
        # with U_+ (8 n^2 bytes) counted in PEAK_MATRICES.  Direct blocks
        # take as many nodes as grid points, and two of them in a row hold
        # the most node temporaries at once.
        model = build_model(
            ModelSpec(n=n, delta_e=0.5 / n, v_kind="gaussian", v_scale=0.81 / n**2, seed=5)
        )
        dec = eigendecompose(model.hamiltonian)
        params = OmegaParams(d=0.1, observable=model.observable)
        times = np.linspace(0.0, t_max, points)
        plan = propagation_plan(dec.eigenvalues, times)
        assert {block.weights is None for block in plan} == {direct}
        tracemalloc.start()
        try:
            sample_stats(run_ensemble(dec, params, trajectory_omegas(params, m, 8), times))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (
            8 * n**2
            + STATE_BLOCKS * 16 * n * m
            + NODE_BLOCKS * 16 * n * min(points, GRID_BLOCK)
            + TRAJECTORY_ARRAYS * 8 * m * points
        )


class TestNodeInterpolation:
    """The kernel propagates at Chebyshev nodes and interpolates to the
    grid; the per-point kernel is the reference."""

    @pytest.mark.parametrize(
        "name, count",
        [("verify_small", 44), ("scenario_i", 74), ("scenario_ii", 71), ("scenario_iii", 132)],
    )
    def test_scenarios_match_per_point_kernel(self, name, count):
        # scenario_iii's constant perturbation has an outlier level, which
        # widens the spectrum and takes the most nodes.
        config = load_config(CONFIGS / f"{name}.json")
        model = build_model(config.model)
        dec = eigendecompose(model.hamiltonian)
        params = OmegaParams(d=config.d, observable=model.observable)
        omegas = trajectory_omegas(params, config.num_trajectories, config.base_seed)
        times = config.times
        plan = propagation_plan(dec.eigenvalues, times)
        assert [block.weights is not None for block in plan] == [True]
        assert len(plan[0].nodes) == count
        values = run_ensemble(dec, params, omegas, times)
        worst = np.abs(values - per_point_series(dec, model.observable, omegas, times)).max()
        # |delta a| <= 2 max ||omega||^2 (2 eps + eps^2), below 1e-12.
        bound = propagation_error_bound(dec.eigenvalues, times, omegas)
        eps = plan[0].phase_error
        max_norm_sq = np.max(np.sum(np.abs(omegas) ** 2, axis=0))
        assert bound == pytest.approx(2 * max_norm_sq * (2 * eps + eps**2), rel=1e-12, abs=0)
        assert 0.0 < eps <= 1e-13 and bound < 1e-12
        assert worst <= min(1e-13, bound)

    def test_odd_grid_midpoint_on_a_node(self, dense_model):
        # 41 points on [0, 10] take 17 nodes: the middle node is the middle
        # grid point exactly, and its row of Q is that node's unit row, with
        # no division by zero.
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        times = np.linspace(0.0, 10.0, 41)
        (block,) = propagation_plan(dec.eigenvalues, times)
        assert len(block.nodes) == 17
        assert block.nodes[8] == times[20]
        assert np.array_equal(block.weights[20], np.eye(17)[8])
        omegas = trajectory_omegas(params, 4, base_seed=41)
        values = run_ensemble(dec, params, omegas, times)
        reference = per_point_series(dec, model.observable, omegas, times)
        assert np.abs(values - reference).max() <= 1e-13

    @pytest.mark.parametrize(
        "times, count",
        [(-np.linspace(0.0, 10.0, 41), 17), (np.linspace(-10.0, 10.0, 81), 22)],
        ids=["descending", "symmetric"],
    )
    def test_grids_that_do_not_start_at_zero(self, dense_model, times, count):
        # The count reads the block's |span|, so a descending grid takes the
        # nodes of its mirror image, and t = -10..10 those of its length 20.
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        (block,) = propagation_plan(dec.eigenvalues, times)
        assert len(block.nodes) == count
        assert (block.nodes[0], block.nodes[-1]) == (times[0], times[-1])
        omegas = trajectory_omegas(params, 4, base_seed=43)
        values = run_ensemble(dec, params, omegas, times)
        reference = per_point_series(dec, model.observable, omegas, times)
        assert np.abs(values - reference).max() <= 1e-13

    def test_two_points_are_propagated_directly(self, dense_model):
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        times = np.array([0.0, 7.5])
        plan = propagation_plan(dec.eigenvalues, times)
        assert [(b.weights, b.phase_error) for b in plan] == [(None, 0.0)]
        omegas = trajectory_omegas(params, 3, base_seed=2)
        values = run_ensemble(dec, params, omegas, times)
        assert values.shape == (3, 2)
        reference = per_point_series(dec, model.observable, omegas, times)
        assert np.abs(values - reference).max() <= 1e-13
        assert propagation_error_bound(dec.eigenvalues, times, omegas) == 0.0

    def test_undersampled_grid_is_propagated_directly(self, dense_model):
        # 30 points over t = 600: 16 rad of the spectral width per step, past
        # the Nyquist limit, so the block's grid points are its nodes.
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        times = np.linspace(0.0, 600.0, 30)
        plan = propagation_plan(dec.eigenvalues, times)
        assert [b.weights for b in plan] == [None]
        # A theta far past the 30 points skips the count: r > theta exceeds them.
        assert [b.weights for b in propagation_plan(dec.eigenvalues, 1e4 * times)] == [None]
        assert np.array_equal(plan[0].nodes, times)
        omegas = trajectory_omegas(params, 3, base_seed=4)
        values = run_ensemble(dec, params, omegas, times)
        reference = per_point_series(dec, model.observable, omegas, times)
        assert np.abs(values - reference).max() <= 1e-13

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["identity", "minus-identity"])
    def test_identity_observables(self, dense_model, sign):
        # A = I keeps every +1 row and A = -I none: a(t) = +/-||omega||^2.
        _, dec = dense_model
        params = OmegaParams(d=0.1, observable=np.full(40, sign))
        times = np.linspace(0.0, 40.0, 120)
        plan = propagation_plan(dec.eigenvalues, times)
        assert all(block.weights is not None for block in plan)
        omegas = trajectory_omegas(params, 3, base_seed=6)
        values = run_ensemble(dec, params, omegas, times)
        norms_sq = np.sum(np.abs(omegas) ** 2, axis=0)
        assert np.abs(values - sign * norms_sq[:, None]).max() <= max(
            propagation_error_bound(dec.eigenvalues, times, omegas), 1e-14
        )
        reference = per_point_series(dec, params.observable, omegas, times)
        assert np.abs(values - reference).max() <= 1e-13

    def test_long_grid_blocks_meet_the_tolerance(self, dense_model):
        # More points than one block: the blocks tile the grid in order, and
        # each keeps its own phase error within the tolerance.
        model, dec = dense_model
        params = OmegaParams(d=0.1, observable=model.observable)
        times = np.linspace(0.0, 30.0, 700)
        plan = propagation_plan(dec.eigenvalues, times)
        assert len(plan) == 3
        assert [b.rows.start for b in plan] == [0] + [b.rows.stop for b in plan[:-1]]
        assert plan[-1].rows.stop == len(times)
        assert all(0.0 < b.phase_error <= 1e-13 for b in plan)
        omegas = trajectory_omegas(params, 3, base_seed=8)
        values = run_ensemble(dec, params, omegas, times)
        reference = per_point_series(dec, model.observable, omegas, times)
        assert np.abs(values - reference).max() <= 1e-13


class TestNodeCount:
    """The a-priori node count against an independent route to the
    Chebyshev coefficients of exp(-i theta x), and against the measured
    phase error on random spectra."""

    @pytest.mark.parametrize(
        "theta", [*np.geomspace(1e-3, 300.0, 25), 17.0, 39.7, 37.3, 87.9]
    )
    def test_bessel_recurrence_matches_the_fft_coefficients(self, theta):
        j = _bessel_j(theta)
        tails, reference = chebyshev_tails(theta)
        assert np.abs(j - reference[: len(j)]).max() <= 1e-15
        # Past the recurrence's top order, the terms are the FFT's rounding.
        assert np.abs(reference[len(j) :]).max() <= 1e-17
        own = 4 * np.cumsum(np.abs(j)[::-1])[::-1]
        r = int(np.argmax(own <= PHASE_ERROR_TOL))
        # The FFT route's tails near the tolerance are good to about 0.2%.
        assert own[r - 1 : r + 1] == pytest.approx(tails[r - 1 : r + 1], rel=1e-2)
        assert tails[r - 1] > 0.99 * PHASE_ERROR_TOL

    @pytest.mark.parametrize("offset", [False, True], ids=["from-zero", "offset"])
    def test_count_is_the_fewest_and_bounds_the_measured_error(self, offset):
        # The worst phase error of a random centred spectrum is at most the
        # edge tail plus rounding, and one node fewer misses the tail bound.
        rng = np.random.default_rng(2209 + offset)
        u = 2.0**-53
        interpolated = 0
        for _ in range(100):
            n = int(rng.integers(10, 401))
            eigenvalues = np.sort(rng.uniform(-1.0, 1.0, n)) * rng.uniform(0.01, 2.0)
            eigenvalues += rng.uniform(-5.0, 5.0)
            start = rng.uniform(-50.0, 50.0) if offset else 0.0
            grid = start + np.linspace(0.0, rng.uniform(0.0, 200.0), int(rng.integers(3, 257)))
            (block,) = propagation_plan(eigenvalues, grid)
            w = eigenvalues - (eigenvalues[0] + eigenvalues[-1]) / 2
            theta = float(np.abs(w).max()) * abs(grid[-1] - grid[0]) / 2
            tails, _ = chebyshev_tails(theta)
            if block.weights is None:
                assert len(grid) <= 2 or tails[len(grid) - 1] > 0.99 * PHASE_ERROR_TOL
                continue
            interpolated += 1
            r = len(block.nodes)
            assert r == 2 or tails[r - 1] > 0.99 * PHASE_ERROR_TOL
            assert block.phase_error <= PHASE_ERROR_TOL
            assert block.phase_error == pytest.approx(tails[r], rel=1e-2, abs=1e-16)
            lebesgue = float(np.abs(block.weights).sum(axis=1).max())
            rounding = (r + 1) * u * lebesgue + (1 + lebesgue) * u * float(
                np.abs(w).max() * np.abs(grid).max()
            )
            measured = phase_error(grid, block.nodes, block.weights, w)
            assert measured <= block.phase_error + rounding
        assert interpolated >= 50


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
