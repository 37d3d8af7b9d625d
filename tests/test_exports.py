import typlab

# The public API, sorted.  A name enters or leaves only by editing this list.
EXPORTS = [
    "CheckResult",
    "ExperimentConfig",
    "HermitianOperator",
    "ModelSpec",
    "ModelSystem",
    "OmegaParams",
    "OutputSettings",
    "RNG_ALGORITHM",
    "SeedStream",
    "SpectralDecomposition",
    "StateVector",
    "TimeSettings",
    "TyplabError",
    "build_model",
    "build_observable_pm1",
    "child_seed",
    "commuting_unitary",
    "eigendecompose",
    "exact_hv_series",
    "execute_run",
    "expectation",
    "expectations",
    "heisenberg_observable",
    "load_config",
    "make_omega",
    "make_omegas",
    "mean_expectation_analytic",
    "norm_variance_analytic",
    "run_ensemble",
    "run_verification",
    "sample_stats",
    "sample_uniform_state",
    "sample_uniform_states",
    "spectral_moments",
    "trajectory_omegas",
    "variance_bound",
]


def test_all_is_the_pinned_sorted_list():
    assert EXPORTS == sorted(EXPORTS)
    assert typlab.__all__ == EXPORTS
    assert all(hasattr(typlab, name) for name in EXPORTS)
