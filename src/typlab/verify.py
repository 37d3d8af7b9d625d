"""End-to-end verification checks: Monte Carlo estimates of the uniform
ensemble's closed forms, the exact deviation map of the substitute
ensemble, bound domination, the sampled variance against the exact one,
commuting-unitary invariance, picture equivalence, and the 1/n scaling of
the typicality variance.  Each check is one error against one tolerance.

The checks reuse what verify builds once: the exact variance series of
``bound-exact`` is the target of ``variance-sampled``, whose trajectory
states, drawn by :func:`~typlab.evolution.trajectory_omegas`, are the
states of commuting invariance, and the smallest scaling model's
decomposition is the one picture equivalence propagates on.  Picture
equivalence checks the propagation kernel that ``typlab run`` ships:
:func:`~typlab.evolution.run_ensemble`'s trajectories against the dense
Heisenberg-picture values ``<omega|A(t)|omega>`` of the same states.

Each check is deterministic given the config's base seed; Monte Carlo
streams use dedicated child indices far above the trajectory range.

The substitute ensemble's closed forms are affine images of one Haar
scalar u = <psi|A|psi>: for A^2 = I and alpha = 1 + d^2, the map
``(1 + d A)/sqrt(alpha)`` gives ||omega||^2 = 1 + 2 d u/alpha and
<omega|A|omega> = u + 2 d/alpha exactly.  So one Monte Carlo pass samples u
for the uniform checks, and ``deviation-map`` checks those two identities
per state and the closed forms against the images of u's mean and variance.

verify holds no Monte Carlo block: the pass draws its states with
:func:`~typlab.ensembles.uniform_state_blocks` and reduces each row block
to its per-state scalars as it is drawn.  The largest arrays verify holds
are then the n = 800 scaling model and its eigendecomposition.
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
N_COMMUTING_UNITARIES = 10
N_PICTURE_STATES = 5
N_PICTURE_TIMES = 8
SCALING_DIMS = (100, 200, 400, 800)
SCALING_GRID_POINTS = 25

UNIFORM_MC_STREAM = 0x7E000001
COMMUTING_UNITARY_STREAM = 0x7E000004
PICTURE_STATE_STREAM = 0x7E000005


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


def _haar_scalars(params: OmegaParams, seed: int) -> tuple[np.ndarray, float]:
    """u = <psi|A|psi> of ``N_UNIFORM_SAMPLES`` uniform states drawn from
    ``seed``, and the worst residual of ||omega||^2 = 1 + 2 d u/alpha and
    <omega|A|omega> = u + 2 d/alpha over their images ``make_omegas(psi)``,
    alpha = 1 + d^2; each block of states is reduced as it is drawn."""
    a, d = params.observable, params.d
    alpha = 1 + d**2
    vals = np.empty(N_UNIFORM_SAMPLES)
    worst = 0.0
    for first, block in uniform_state_blocks(a.size, N_UNIFORM_SAMPLES, seed):
        u = expectations(a, block)
        vals[first : first + len(block)] = u
        omegas = make_omegas(block, params)
        norms = np.sum(omegas.real**2 + omegas.imag**2, axis=1)
        worst = max(
            worst,
            float(np.abs(norms - (1 + 2 * d * u / alpha)).max()),
            float(np.abs(expectations(a, omegas) - (u + 2 * d / alpha)).max()),
        )
    return vals, worst


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
    vals, worst_map = _haar_scalars(params, child_seed(base, UNIFORM_MC_STREAM))
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

    # The substitute ensemble is the deviation map of those states: its two
    # per-state identities, and its closed forms against the affine images
    # of u's mean c1 and variance hv.
    alpha = 1 + d**2
    worst_map = max(
        worst_map,
        abs(norm_mean_analytic(d, c1) - (1 + 2 * d * c1 / alpha)),
        abs(norm_variance_analytic(d, c1, n) - (2 * d / alpha) ** 2 * hv),
        abs(mean_expectation_analytic(d, c1) - (c1 + 2 * d / alpha)),
    )
    results.append(
        CheckResult(
            "deviation-map",
            worst_map,
            1e-12,
            f"max residual = {worst_map:.2e}",
            f"|w|^2 = 1 + 2du/alpha and <w|A|w> = u + 2d/alpha over {N_UNIFORM_SAMPLES} "
            "states, and the 3 closed forms, to 1e-12",
        )
    )

    # Bound domination on the config's grid.
    eq_bound = variance_bound(d, n)
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

    # The sampled variance against the exact HV on the same grid, in units of
    # the standard error sqrt(2/(M - 1)) of var/HV for near-Gaussian a_i(t).
    # 4.5 is a family-wise threshold over the correlated grid points: a
    # correct sampler reads 1.78 on verify_small, and a zero variance
    # sqrt((M - 1)/2), 7.04 at M = 100.  The exact HV is 0 to rounding for
    # A = +/-I; flooring it at 1e-12 bound keeps the ratio finite there.
    m = config.num_trajectories
    omegas = trajectory_omegas(params, m, base)
    _, variance = sample_stats(run_ensemble(dec, params, omegas, times))
    ratio = variance / np.maximum(series, 1e-12 * eq_bound)
    z = float((np.abs(ratio - 1) / np.sqrt(2 / (m - 1))).max())
    results.append(
        CheckResult(
            "variance-sampled",
            z,
            4.5,
            f"max |var/HV - 1| / sqrt(2/(M - 1)) = {z:.2f}",
            f"<= 4.5 over {len(times)} grid points (M = {m})",
        )
    )

    # Per-state invariance of the variance-sampled states under unitaries
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
