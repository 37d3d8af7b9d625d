"""End-to-end verification checks: Monte Carlo estimates against every
closed-form ensemble formula, bound domination (exact and sampled),
commuting-unitary invariance, picture equivalence, and the 1/n scaling of
the typicality variance.  Each check is one error against one tolerance.

The checks reuse what verify builds once: the trajectory states of
``bound-sampled``, drawn by :func:`~typlab.evolution.trajectory_omegas`,
are the states of commuting invariance, and the smallest scaling model's
decomposition is the one picture equivalence propagates on.  Picture
equivalence checks the propagation kernel that ``typlab run`` ships:
:func:`~typlab.evolution.run_ensemble`'s trajectories against the dense
Heisenberg-picture values ``<omega|A(t)|omega>`` of the same states.

Each check is deterministic given the config's base seed; Monte Carlo
streams use dedicated child indices far above the trajectory range.

verify holds no Monte Carlo block: the uniform and substitute-ensemble
checks draw their states with :func:`~typlab.ensembles.uniform_state_blocks`
and reduce each row block to its per-state scalars as it is drawn, which
gives the values the whole (count, n) block gives, bit for bit.  The
largest arrays verify holds are then the n = 800 scaling model and its
eigendecomposition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .ensembles import (
    OmegaParams,
    StateVector,
    commuting_unitary,
    make_omegas,
    uniform_state_blocks,
)
from .evolution import expectation, expectations, run_ensemble, trajectory_omegas
from .models import ModelSpec, build_model
from .operators import HermitianOperator, eigendecompose, heisenberg_observable
from .rng import child_seed
from .stats import (
    exact_hv_series,
    mean_expectation_analytic,
    norm_mean_analytic,
    norm_variance_analytic,
    sample_stats,
    variance_bound,
)

N_UNIFORM_SAMPLES = 20_000
N_OMEGA_SAMPLES = 10_000
N_COMMUTING_UNITARIES = 10
N_PICTURE_STATES = 5
N_PICTURE_TIMES = 8
SCALING_DIMS = (100, 200, 400, 800)
SCALING_GRID_POINTS = 25

UNIFORM_MC_STREAM = 0x7E000001
OMEGA_MC_STREAM = 0x7E000002
COMMUTING_UNITARY_STREAM = 0x7E000004
PICTURE_STATE_STREAM = 0x7E000005

BOUND_EXCEED_FRACTION = 0.01
BOUND_EXCEED_FACTOR = 1.5


@dataclass(frozen=True)
class CheckResult:
    """One check: it passes when its measured error is within its tolerance."""

    name: str
    error: float
    tolerance: float
    measured: str
    criterion: str

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance

    @property
    def margin(self) -> float:
        """The fraction of the tolerance left; negative means failed."""
        if self.tolerance > 0:
            return float(1.0 - self.error / self.tolerance)
        return 1.0 if self.error == 0 else -np.inf  # a zero tolerance


def _bound_sampled_error(fraction: float, ratio: float) -> float:
    # Each of bound-sampled's conditions in units of its allowance; both hold at <= 1.
    return max(fraction / BOUND_EXCEED_FRACTION, (ratio - 1) / (BOUND_EXCEED_FACTOR - 1))


def _uniform_expectations(a: np.ndarray, seed: int) -> np.ndarray:
    """<psi|A|psi> of ``N_UNIFORM_SAMPLES`` uniform states drawn from ``seed``,
    each block of states reduced as it is drawn."""
    vals = np.empty(N_UNIFORM_SAMPLES)
    for first, block in uniform_state_blocks(a.size, N_UNIFORM_SAMPLES, seed):
        vals[first : first + len(block)] = expectations(a, block)
    return vals


def _omega_norms_and_expectations(
    params: OmegaParams, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """<omega|omega> and <omega|A|omega> of ``N_OMEGA_SAMPLES`` substitute-
    ensemble states drawn from ``seed``, each block reduced as it is drawn."""
    norms = np.empty(N_OMEGA_SAMPLES)
    qev = np.empty(N_OMEGA_SAMPLES)
    for first, block in uniform_state_blocks(params.observable.size, N_OMEGA_SAMPLES, seed):
        omegas = make_omegas(block, params)
        rows = slice(first, first + len(block))
        norms[rows] = np.sum(omegas.real**2 + omegas.imag**2, axis=1)
        qev[rows] = expectations(params.observable, omegas)
    return norms, qev


def run_verification(config: ExperimentConfig) -> list[CheckResult]:
    """Run every verification check; returns results in a fixed order."""
    model = build_model(config.model)
    d = config.d
    params = OmegaParams(d=d, observable=model.observable)
    a = params.observable
    n = a.size
    base = config.base_seed
    results: list[CheckResult] = []

    # The observable gate: A must be trace-free.  For a sign vector it is the
    # only moment gate, as the even moments are exactly 1 and the odd ones c1.
    c1 = params.moments[1]
    results.append(
        CheckResult(
            "moment-gate",
            abs(c1),
            1e-12,
            f"c1 = {c1:.3g}, n_plus = {np.count_nonzero(a > 0)}",
            "|c1| <= 1e-12",
        )
    )

    # Uniform-ensemble mean c1 and variance (1 - c1^2)/(n + 1) (c2 = 1 for a
    # sign vector) against the Monte Carlo estimator.
    vals = _uniform_expectations(a, child_seed(base, UNIFORM_MC_STREAM))
    hv = (1 - c1**2) / (n + 1)
    se = float(vals.std(ddof=1)) / np.sqrt(N_UNIFORM_SAMPLES)
    err = abs(float(vals.mean()) - c1)
    results.append(
        CheckResult(
            "uniform-mean",
            err,
            3 * se,
            f"sample {vals.mean():.6f} vs analytic {c1:.6f}",
            f"|diff| <= 3 SE = {3 * se:.2e} ({N_UNIFORM_SAMPLES} states)",
        )
    )
    var_err = abs(float(vals.var(ddof=1)) - hv)
    results.append(
        CheckResult(
            "uniform-variance",
            var_err,
            max(0.10 * hv, 1e-20),
            f"sample {vals.var(ddof=1):.4e} vs analytic {hv:.4e}",
            "relative error <= 10%",
        )
    )

    # Substitute-ensemble norm and expectation statistics.
    eq_norm_mean = norm_mean_analytic(d, c1)
    eq_norm_var = norm_variance_analytic(d, c1, n)
    eq_mean = mean_expectation_analytic(d, c1)
    eq_bound = variance_bound(d, n)
    norms, qev = _omega_norms_and_expectations(params, child_seed(base, OMEGA_MC_STREAM))
    tol = max(3 * np.sqrt(eq_norm_var / N_OMEGA_SAMPLES), 1e-12)
    results.append(
        CheckResult(
            "omega-norm-mean",
            abs(float(norms.mean()) - eq_norm_mean),
            tol,
            f"sample {norms.mean():.6f} vs analytic {eq_norm_mean:.6g}",
            f"|diff| <= 3 sigma = {tol:.2e} ({N_OMEGA_SAMPLES} states)",
        )
    )
    results.append(
        CheckResult(
            "omega-norm-variance",
            abs(float(norms.var(ddof=1)) - eq_norm_var),
            max(0.15 * eq_norm_var, 1e-20),
            f"sample {norms.var(ddof=1):.4e} vs analytic {eq_norm_var:.4e}",
            "relative error <= 15%",
        )
    )
    tol = max(3 * np.sqrt(eq_bound / N_OMEGA_SAMPLES), 1e-12)
    results.append(
        CheckResult(
            "omega-mean-qev",
            abs(float(qev.mean()) - eq_mean),
            tol,
            f"sample {qev.mean():.6f} vs analytic {eq_mean:.6f}",
            f"|diff| <= 3 sigma of bound = {tol:.2e}",
        )
    )

    # Bound domination, exact and sampled, on the config's grid.
    dec = eigendecompose(model.hamiltonian)
    times = config.times
    series = exact_hv_series(dec, params, times)
    worst = float((series - eq_bound).max())
    results.append(
        CheckResult(
            "bound-exact",
            max(worst, 0.0),
            1e-10,
            f"max(exact HV - bound) = {worst:.2e}",
            "exact HV <= bound + 1e-10 at every grid point",
        )
    )
    omegas = trajectory_omegas(params, config.num_trajectories, base)
    _, variance = sample_stats(run_ensemble(dec, params, omegas, times))
    exceed_fraction = float((variance > eq_bound).mean())
    worst_ratio = float((variance / eq_bound).max())
    results.append(
        CheckResult(
            "bound-sampled",
            _bound_sampled_error(exceed_fraction, worst_ratio),
            1.0,
            f"{exceed_fraction * 100:.1f}% of points exceed; worst var/bound = {worst_ratio:.3f}",
            f"<= {BOUND_EXCEED_FRACTION * 100:.0f}% of points exceed, none beyond "
            f"{BOUND_EXCEED_FACTOR:.1f}x (M = {config.num_trajectories})",
        )
    )

    # Per-state invariance of the bound-sampled states under unitaries
    # commuting with the observable.
    states = omegas.T
    reference = expectations(a, states)
    unitary_base = child_seed(base, COMMUTING_UNITARY_STREAM)
    worst_shift = 0.0
    for j in range(N_COMMUTING_UNITARIES):
        rotated = commuting_unitary(a, child_seed(unitary_base, j)) * states
        worst_shift = max(worst_shift, float(np.abs(expectations(a, rotated) - reference).max()))
    results.append(
        CheckResult(
            "commuting-invariance",
            worst_shift,
            1e-10,
            f"max |<Uw|A|Uw> - <w|A|w>| = {worst_shift:.2e}",
            f"<= 1e-10 over {len(states)} states x {N_COMMUTING_UNITARIES} unitaries",
        )
    )

    # 1/n scaling of the maximal exact HV over matched models; the size equal
    # to the config's reuses its model and decomposition, and the smallest
    # one also serves picture equivalence.
    max_hv = []
    for size in SCALING_DIMS:
        scale = config.model.n / size
        spec_k = ModelSpec(
            n=size,
            delta_e=config.model.delta_e * scale,
            v_kind=config.model.v_kind,
            v_scale=config.model.v_scale * scale**2,
            seed=config.model.seed,
        )
        if spec_k == config.model:
            model_k, dec_k = model, dec
        else:
            model_k = build_model(spec_k)
            dec_k = eigendecompose(model_k.hamiltonian)
        times_k = np.linspace(0.0, config.time.t_max, SCALING_GRID_POINTS)
        params_k = OmegaParams(d=d, observable=model_k.observable)
        max_hv.append(float(exact_hv_series(dec_k, params_k, times_k).max()))
        if size == SCALING_DIMS[0]:
            pe_dec, pe_params = dec_k, params_k

    # The shipped propagation kernel, run_ensemble, against the dense
    # Heisenberg picture <omega|A(t)|omega> of the same states, on the
    # smallest scaling model; A(t) is formed once per time.
    pe_omegas = trajectory_omegas(
        pe_params, N_PICTURE_STATES, child_seed(base, PICTURE_STATE_STREAM)
    )
    pe_times = np.linspace(0.0, config.time.t_max, N_PICTURE_TIMES)
    schroedinger = run_ensemble(pe_dec, pe_params, pe_omegas, pe_times)
    # The one dense observable: the Heisenberg picture needs A as a matrix.
    pe_a = HermitianOperator(np.diag(pe_params.observable))
    worst_pe = 0.0
    for k, t in enumerate(pe_times):
        a_t = heisenberg_observable(pe_a, pe_dec, t)
        for i, omega in enumerate(pe_omegas.T):
            worst_pe = max(worst_pe, abs(schroedinger[i, k] - expectation(a_t, StateVector(omega))))
    results.append(
        CheckResult(
            "picture-equivalence",
            worst_pe,
            1e-9,
            f"max |Schroedinger - Heisenberg| = {worst_pe:.2e}",
            f"<= 1e-9 at n = {SCALING_DIMS[0]}, {N_PICTURE_STATES} states x {len(pe_times)} times",
        )
    )

    slope = float(np.polyfit(np.log(SCALING_DIMS), np.log(max_hv), 1)[0])
    results.append(
        CheckResult(
            "inverse-n-scaling",
            abs(slope + 1.0),
            0.3,
            f"log-log slope = {slope:.3f} over n = {SCALING_DIMS}",
            "slope in [-1.3, -0.7]",
        )
    )

    return results


def format_report(results: list[CheckResult]) -> str:
    """Fixed-width pass/fail table with measured values and margins."""
    name_width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.name:<{name_width}}  margin {r.margin:+7.2f}  "
            f"{r.measured}  |  {r.criterion}"
        )
    failed = [r.name for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        + (f"; first failing: {failed[0]}" if failed else "")
    )
    return "\n".join(lines)
