import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from typlab.config import ModelSpec
from typlab.ensembles import OmegaParams, sample_uniform_states
from typlab.errors import TyplabError
from typlab.evolution import run_ensemble, trajectory_omegas
from typlab.models import build_model, build_observable_pm1
from typlab.operators import (
    HermitianOperator,
    eigendecompose,
    heisenberg_observable,
    spectral_moments,
)
from typlab.stats import (
    exact_hv_series,
    mean_expectation_analytic,
    norm_variance_analytic,
    sample_stats,
    sharp_variance_bound,
    variance_bound,
)

from conftest import (
    dense_expectations,
    dense_observable,
    ha_uniform,
    hv_at_time_exact,
    hv_uniform,
    moment_map,
    pm1_with_plus_fraction,
    random_hermitian,
)


def pm1_operator(n: int, seed: int) -> HermitianOperator:
    return dense_observable(build_observable_pm1(n, seed))


def general_norm_variance(d, c1, c2, c3, c4, n):
    """The norm variance for a general observable in its moments c_1..c_4:
    the uniform variance of (1 + dA)^2 / (1 + d^2)."""
    numerator = 4 * d**2 * (c2 - c1**2) + 4 * d**3 * (c3 - c1 * c2) + d**4 * (c4 - c2**2)
    return numerator / ((n + 1) * (1.0 + d**2) ** 2)


def general_mean_expectation(d, c1, c2, c3):
    """The mean expectation value for a general observable in its moments
    c_1..c_3: the normalized trace of (1 + dA) A (1 + dA) / (1 + d^2)."""
    return (c1 + 2 * d * c2 + d**2 * c3) / (1.0 + d**2)


def general_variance_bound(d, c4, c8, n):
    """The paper's time-independent bound for a general observable, in c_4
    and c_8."""
    root_c4 = np.sqrt(c4)
    quarter = (c4 * c8) ** 0.25
    numerator = (
        1.0
        + 4 * d * root_c4
        + 6 * d**2 * c4
        + 4 * d**3 * root_c4 * quarter
        + d**4 * np.sqrt(c4 * c8)
    )
    return float(numerator) / ((n + 1) * (1.0 + d**2) ** 2)


def reference_hv_series(a_op, dec, d, times):
    """The general energy-basis formula that exact_hv_series replaced, valid
    for any Hermitian A: with A~ = U^dagger A U, B = A~(t) the phase-rotated
    A~ and S = (1 + d A~)^2,

        Tr{D}   = (Tr{B} + 2d Tr{A~ B} + d^2 Tr{A~^2 B}) / (1 + d^2)
        Tr{D^2} = Tr{(B S)^2} / (1 + d^2)^2
    """
    n = a_op.dim
    u = dec.eigenvectors
    a_eig = u.conj().T @ a_op.matrix @ u
    a_eig_sq = a_eig @ a_eig
    s_eig = np.eye(n, dtype=np.complex128) + 2.0 * d * a_eig + d**2 * a_eig_sq
    alpha = 1.0 + d**2
    out = np.empty(len(times))
    for k, t in enumerate(np.asarray(times, dtype=float)):
        phase = np.exp(1j * dec.eigenvalues * t)
        b = (phase[:, None] * a_eig) * phase.conj()[None, :]
        tr_d = (
            np.trace(b) + 2.0 * d * np.vdot(a_eig, b) + d**2 * np.vdot(a_eig_sq, b)
        ).real / alpha
        x = b @ s_eig
        tr_d_sq = np.sum(x * x.T).real / alpha**2
        out[k] = (tr_d_sq / n - (tr_d / n) ** 2) / (n + 1)
    return out


class TestUniformFormulas:
    def test_identity_mean(self):
        assert ha_uniform(HermitianOperator(np.eye(7))) == 1.0

    def test_trace_free_mean(self):
        assert ha_uniform(pm1_operator(20, seed=1)) == 0.0

    def test_identity_variance(self):
        assert hv_uniform(HermitianOperator(np.eye(7))) == 0.0

    def test_pm1_variance(self):
        n = 24
        assert hv_uniform(pm1_operator(n, seed=1)) == pytest.approx(1 / (n + 1))

    def test_monte_carlo_oracle_mean(self):
        n, count = 50, 100_000
        d_op = random_hermitian(n, seed=13)
        values = dense_expectations(d_op, sample_uniform_states(n, count, seed=14))
        se = values.std(ddof=1) / np.sqrt(count)
        assert abs(values.mean() - ha_uniform(d_op)) < 3 * se

    def test_monte_carlo_oracle_variance(self):
        n, count = 50, 100_000
        d_op = random_hermitian(n, seed=13)
        values = dense_expectations(d_op, sample_uniform_states(n, count, seed=15))
        assert values.var(ddof=1) == pytest.approx(hv_uniform(d_op), rel=0.10)


class TestMomentMap:
    def test_zero_deviation_is_identity_map(self):
        c_op = random_hermitian(9, 3)
        mapped = moment_map(c_op, random_hermitian(9, 4), 0.0)
        assert np.allclose(mapped.matrix, c_op.matrix, rtol=0, atol=1e-15)

    def test_identity_input_consistent_with_norm_average(self):
        a = pm1_operator(12, seed=2)
        mapped = moment_map(HermitianOperator(np.eye(12)), a, 0.1)
        expected = (np.eye(12) + 0.2 * a.matrix + 0.01 * np.eye(12)) / 1.01
        assert np.allclose(mapped.matrix, expected, atol=1e-14)
        assert ha_uniform(mapped) == pytest.approx(1.0, abs=1e-14)

    def test_observable_input_reproduces_mean_formula(self):
        a = pm1_operator(12, seed=2)
        assert ha_uniform(moment_map(a, a, 0.1)) == pytest.approx(0.2 / 1.01, rel=1e-14)


class TestAnalyticIdentities:
    @pytest.mark.parametrize("d", [0.0, 0.05, 0.1, 0.3])
    @pytest.mark.parametrize("n", [50, 200])
    def test_norm_variance_identity(self, d, n):
        a = pm1_operator(n, seed=n + 1)
        direct = norm_variance_analytic(d, 0.0, n)
        composed = hv_uniform(moment_map(HermitianOperator(np.eye(n)), a, d))
        assert abs(direct - composed) <= 1e-12

    @pytest.mark.parametrize("d", [0.0, 0.05, 0.1, 0.3])
    @pytest.mark.parametrize("n", [50, 200])
    def test_mean_expectation_identity(self, d, n):
        a = pm1_operator(n, seed=n + 1)
        direct = mean_expectation_analytic(d, 0.0)
        composed = ha_uniform(moment_map(a, a, d))
        assert abs(direct - composed) <= 1e-12

    @pytest.mark.parametrize(
        "signs, mean, norm_mean, norm_variance",
        [
            (pm1_with_plus_fraction(60, 0.7, seed=4), 0.9505, 1.2202, 4.173e-3),  # c1 = 0.4
            (np.ones(60), 1.5505, 1.5505, 0.0),  # A = I, c1 = 1
        ],
        ids=["c1=0.4", "identity"],
    )
    def test_identities_off_trace_free(self, signs, mean, norm_mean, norm_variance):
        # the dense composition (1 + dA) C (1 + dA) / (1 + d^2) at n = 60, d = 0.3
        n, d = 60, 0.3
        a = dense_observable(signs)
        c1 = float(np.mean(signs))
        composed_mean = ha_uniform(moment_map(a, a, d))
        composed_norm_mean = ha_uniform(moment_map(HermitianOperator(np.eye(n)), a, d))
        composed_norm_variance = hv_uniform(moment_map(HermitianOperator(np.eye(n)), a, d))
        assert abs(mean_expectation_analytic(d, c1) - composed_mean) <= 1e-12
        assert abs(norm_variance_analytic(d, c1, n) - composed_norm_variance) <= 1e-12
        assert composed_mean == pytest.approx(mean, abs=1e-4)
        assert composed_norm_mean == pytest.approx(norm_mean, abs=1e-4)
        assert composed_norm_variance == pytest.approx(norm_variance, abs=1e-6)

    def test_norm_variance_values(self):
        assert norm_variance_analytic(0.0, 0.0, 100) == 0.0
        # 4 d^2 / ((n+1) (1+d^2)^2) with d=0.1, n=6000
        expected = 0.04 / (6001 * 1.01**2)
        assert norm_variance_analytic(0.1, 0.0, 6000) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(6.534e-6, rel=1e-3)

    def test_mean_expectation_values(self):
        assert mean_expectation_analytic(0.0, 0.0) == 0.0
        assert mean_expectation_analytic(0.1, 0.0) == pytest.approx(0.2 / 1.01, rel=1e-15)
        # slope 2 at the origin
        h = 1e-7
        slope = (mean_expectation_analytic(h, 0.0) - mean_expectation_analytic(-h, 0.0)) / (2 * h)
        assert slope == pytest.approx(2.0, abs=1e-9)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("c1", [-1.0, -0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 60, 600, 1200])
def test_sign_vector_forms_equal_the_general_ones_bit_for_bit(c1, n):
    # a sign vector has c2 = c4 = c8 = 1 and c3 = c1 exactly; the forms
    # regroup the general ones, so off c1 = 0 they agree to rounding
    for d in [float(x) for x in np.linspace(0.0, 0.999, 334)] + [0.1, 0.3, 1 / 3]:
        norm_variance = norm_variance_analytic(d, c1, n)
        mean = mean_expectation_analytic(d, c1)
        general = general_norm_variance(d, c1, 1.0, c1, 1.0, n)
        general_mean = general_mean_expectation(d, c1, 1.0, c1)
        if c1 == 0.0:
            assert bits(norm_variance) == bits(general)
            assert bits(mean) == bits(general_mean)
        else:
            assert norm_variance == pytest.approx(general, rel=1e-14, abs=0.0)
            assert mean == pytest.approx(general_mean, rel=0.0, abs=1e-15)
        assert bits(variance_bound(d, n)) == bits(general_variance_bound(d, 1.0, 1.0, n))


def test_sign_vector_moments_are_exact():
    # The even moments of a sign vector are 1 and the odd ones c1, so
    # OmegaParams.c1 fixes them all.
    signs = pm1_with_plus_fraction(50, 0.3, seed=2)
    c = spectral_moments(signs)
    assert [c[i] for i in (2, 4, 6, 8)] == [1.0] * 4
    assert c[3] == c[5] == c[7] == c[1] == OmegaParams(d=0.1, observable=signs).c1


class TestVarianceBound:
    def test_reduces_to_uniform_variance_at_zero(self):
        assert variance_bound(0.0, 100) == pytest.approx(1 / 101)

    def test_paper_parameters(self):
        # for c4 = c8 = 1 the numerator telescopes to (1+d)^4
        expected = 1.1**4 / (6001 * 1.01**2)
        assert variance_bound(0.1, 6000) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(2.392e-4, rel=1e-3)

    def test_monotone_in_deviation(self):
        grid = np.linspace(0.0, 0.99, 200)
        values = [variance_bound(d, 500) for d in grid]
        assert np.all(np.diff(values) > 0)

    def test_sharp_bound_at_the_paper_parameters(self):
        # (1 + 4 d^2/alpha^2)/(n + 1) at c1 = 0, 1.38x below the paper's
        sharp = sharp_variance_bound(0.1, 0.0, 6000)
        assert sharp == pytest.approx((1 + 0.04 / 1.01**2) / 6001, rel=1e-14)
        assert variance_bound(0.1, 6000) / sharp == pytest.approx(1.381, abs=1e-3)
        assert sharp_variance_bound(0.0, 0.0, 100) == variance_bound(0.0, 100)


@pytest.fixture(scope="module")
def small_model():
    spec = ModelSpec(n=60, delta_e=8.33e-3, v_kind="gaussian", v_scale=2.25e-4, seed=6)
    model = build_model(spec)
    return model, eigendecompose(model.hamiltonian)


class TestExactTimeVariance:

    def test_initial_uniform_limit(self, small_model):
        model, dec = small_model
        a = dense_observable(model.observable)
        assert hv_at_time_exact(a, dec, 0.0, 0.0) == pytest.approx(1 / 61, rel=1e-10)

    def test_dominated_by_bound(self, small_model):
        model, dec = small_model
        bound = variance_bound(0.1, 60)
        a = dense_observable(model.observable)
        for t in np.linspace(0.0, 40.0, 25):
            assert hv_at_time_exact(a, dec, 0.1, t) <= bound + 1e-10

    def test_constant_when_commuting(self):
        a = pm1_operator(16, seed=4)
        # a Hamiltonian diagonal in the same basis commutes with A
        h = HermitianOperator(np.diag(np.arange(16) * 0.5).astype(complex))
        dec = eigendecompose(h)
        values = [hv_at_time_exact(a, dec, 0.1, t) for t in (0.0, 1.0, 8.0)]
        assert np.ptp(values) <= 1e-12

    def test_series_matches_pointwise_composition(self, small_model):
        model, dec = small_model
        times = np.linspace(0.0, 12.0, 9)
        series, _ = exact_hv_series(dec, OmegaParams(d=0.1, observable=model.observable), times)
        a = dense_observable(model.observable)
        direct = [hv_at_time_exact(a, dec, 0.1, t) for t in times]
        assert np.allclose(series, direct, rtol=1e-10, atol=1e-16)

    @pytest.mark.parametrize("fraction", [0.5, 0.7])
    def test_autocorrelation_fixes_the_exact_mean(self, small_model, fraction):
        # C(t) = Tr{A A(t)}/n, and the exact mean Tr{D(t)}/n = c1 + 2 d C/alpha
        _, dec = small_model
        signs = pm1_with_plus_fraction(60, fraction, seed=3)
        times = np.linspace(0.0, 12.0, 9)
        _, autocorrelation = exact_hv_series(dec, OmegaParams(d=0.1, observable=signs), times)
        a = dense_observable(signs)
        a_t = [heisenberg_observable(a, dec, t) for t in times]
        direct = [np.vdot(a.matrix, x.matrix).real / 60 for x in a_t]
        assert np.abs(autocorrelation - direct).max() <= 1e-12
        means = [ha_uniform(moment_map(x, a, 0.1)) for x in a_t]
        assert np.abs(np.mean(signs) + 0.2 * autocorrelation / 1.01 - means).max() <= 1e-12

    @pytest.mark.parametrize("d", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("observable", ["balanced", "unbalanced", "identity", "minus-identity"])
    def test_series_matches_general_formula(self, small_model, observable, d):
        model, dec = small_model
        a = {
            "balanced": model.observable,
            "unbalanced": pm1_with_plus_fraction(60, 0.7, seed=3),
            "identity": np.ones(60),
            "minus-identity": -np.ones(60),
        }[observable]
        times = np.linspace(0.0, 40.0, 13)
        series, _ = exact_hv_series(dec, OmegaParams(d=d, observable=a), times)
        reference = reference_hv_series(dense_observable(a), dec, d, times)
        assert np.abs(series - reference).max() <= 1e-12

    @pytest.mark.parametrize("n", [6, 16, 40])
    @pytest.mark.parametrize("fraction", [0.5, 0.25, 0.75, 1.0])
    def test_sharp_bound_and_the_identity_at_zero_on_random_models(self, n, fraction):
        # Random dense H, balanced and unbalanced sign vectors (and A = I),
        # t = 0 and 200 random times up to 1e4.
        dec = eigendecompose(random_hermitian(n, seed=n))
        signs = pm1_with_plus_fraction(n, fraction, seed=n + 1)
        tau = float(np.mean(signs))
        times = np.concatenate([[0.0], np.random.default_rng(n).uniform(0.0, 1e4, 200)])
        for d in (0.0, 0.1, 0.3, 0.9):
            series, _ = exact_hv_series(dec, OmegaParams(d=d, observable=signs), times)
            assert series.max() <= sharp_variance_bound(d, tau, n) + 1e-15
            assert abs((n + 1) * series[0] - (1 - tau**2)) <= 1e-12

    # exact_hv_series reads the observable through OmegaParams, whose gate
    # stops these before any work.
    @pytest.mark.parametrize("diagonal", [[2.0, -2.0], [1.0, 0.0], [1.0, -1.0 + 1e-9]])
    def test_observable_not_pm1_rejected(self, small_model, diagonal):
        _, dec = small_model
        with pytest.raises(TyplabError, match="must be a sign vector of entries"):
            params = OmegaParams(d=0.1, observable=np.tile(diagonal, 30))
            exact_hv_series(dec, params, np.array([0.0, 1.0]))

    def test_non_diagonal_observable_rejected(self, small_model):
        _, dec = small_model
        with pytest.raises(TyplabError, match="must be a sign vector of entries"):
            params = OmegaParams(d=0.1, observable=random_hermitian(60, seed=5))
            exact_hv_series(dec, params, np.array([0.0, 1.0]))


class TestSampleStats:
    def test_identical_trajectories_zero_variance(self):
        values = np.array([[0.2, 0.1, 0.05], [0.2, 0.1, 0.05]])
        mean, variance = sample_stats(values)
        assert np.array_equal(variance, np.zeros(3))
        assert np.array_equal(mean, np.array([0.2, 0.1, 0.05]))

    def test_unbiased_divisor(self):
        _, variance = sample_stats(np.array([np.full(3, 0.0), np.full(3, 1.0)]))
        assert np.allclose(variance, 0.5)  # (M-1) divisor

    def test_equals_the_centred_formula(self):
        # numpy's mean and ddof=1 variance are the explicit centred sums,
        # bit for bit, on 100 shapes from (2, 1) to (1000, 200).
        rng = np.random.default_rng(3)
        for m, t in [(2, 5), (1000, 3), *rng.integers([2, 1], [1001, 201], size=(98, 2))]:
            values = rng.normal(0.1, 0.05, size=(m, t))
            mean = values.sum(axis=0) / m
            variance = ((values - mean) ** 2).sum(axis=0) / (m - 1)
            assert all(map(np.array_equal, sample_stats(values), (mean, variance)))

    def test_law_of_large_numbers_initial_mean(self):
        n, m, d = 20, 10_000, 0.1
        a = build_observable_pm1(n, seed=2)
        spec = ModelSpec(n=n, delta_e=0.05, v_kind="gaussian", v_scale=1e-4, seed=2)
        model = build_model(spec)
        dec = eigendecompose(model.hamiltonian)
        params = OmegaParams(d=d, observable=a)
        values = run_ensemble(dec, params, trajectory_omegas(params, m, 71), np.array([0.0, 1.0]))
        mean, _ = sample_stats(values)
        band = 3 * np.sqrt(variance_bound(d, n) / m)
        assert abs(mean[0] - mean_expectation_analytic(d, 0.0)) < band


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_mapped_operator_stays_hermitian(n, seed, d):
    c_op = random_hermitian(n, seed)
    a_op = random_hermitian(n, seed + 1)
    mapped = moment_map(c_op, a_op, d)
    assert np.abs(mapped.matrix - mapped.matrix.conj().T).max() <= 1e-12
