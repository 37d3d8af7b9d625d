"""typlab: a numerical laboratory for dynamical typicality of quantum
expectation values.

Builds constrained pure-state ensembles over model Hamiltonians,
propagates exact Schroedinger dynamics through dense eigendecomposition,
and checks ensemble statistics against closed-form Hilbert-space-average
formulas and the time-independent variance bound.
"""

from .config import ExperimentConfig, OutputSettings, TimeSettings, load_config
from .ensembles import (
    OmegaParams,
    StateVector,
    commuting_unitary,
    make_omega,
    make_omegas,
    sample_uniform_state,
    sample_uniform_states,
)
from .errors import TyplabError
from .evolution import (
    expectation,
    expectations,
    run_ensemble,
    trajectory_omegas,
)
from .experiment import execute_run
from .models import (
    ModelSpec,
    ModelSystem,
    build_model,
    build_observable_pm1,
)
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    eigendecompose,
    heisenberg_observable,
    spectral_moments,
)
from .rng import RNG_ALGORITHM, SeedStream, child_seed
from .stats import (
    exact_hv_series,
    mean_expectation_analytic,
    norm_variance_analytic,
    sample_stats,
    variance_bound,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
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
