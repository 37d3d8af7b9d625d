"""End-to-end verification checks, each one error against one tolerance:
the observable's moment gate, Monte Carlo estimates of the uniform
ensemble's closed forms, the substitute ensemble's deviation map, the exact
variance against the paper's and the sharp bound, the 1/n law at t = 0, the
sampled mean and variance against the exact ones, and picture equivalence.

verify builds one model, one decomposition and one trajectory ensemble, at
the config's size.  The 1/n law needs no other size: for a sign vector,
(n + 1) HV(0) = 1 - c1^2 exactly, and the sharp bound caps (n + 1) HV(t) at
1 + 4 d^2/alpha^2 for c1 = 0 (:mod:`typlab.stats`).  The trajectories,
propagated by the kernel that ``typlab run`` ships
(:func:`~typlab.evolution.run_ensemble`), are the Schroedinger side of
picture equivalence, against the dense ``<omega|A(t)|omega>`` of their
first states at a few grid points.

Each check is deterministic given the config's base seed; the Monte Carlo
states' child seeds branch from a child index far above the trajectory range.

The substitute ensemble's closed forms are affine images of one Haar
scalar u = <psi|A|psi>: for A^2 = I and alpha = 1 + d^2, the map
``(1 + d A)/sqrt(alpha)`` gives ||omega||^2 = 1 + 2 d u/alpha and
<omega|A|omega> = u + 2 d/alpha exactly.  So one Monte Carlo pass samples u
for the uniform checks, and ``deviation-map`` checks those two identities
per state and the norm variance's closed form against the image of u's
variance (the mean closed forms are those images written out).

The Monte Carlo pass draws state i with the sampler ``typlab run`` ships,
``sample_uniform_state(n, child_seed(seed, i))`` as in
:func:`~typlab.evolution.trajectory_omegas`, and reduces the states chunk by
chunk to their scalars, so verify holds no Monte Carlo block: its largest
arrays are the config's Hamiltonian, eigenvectors and dense A(t).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .ensembles import (
    STATE_BLOCK_AMPLITUDES,
    OmegaParams,
    StateVector,
    make_omegas,
    sample_uniform_state,
)
from .evolution import expectation, expectations, run_ensemble, trajectory_omegas
from .models import build_model
from .operators import HermitianOperator, eigendecompose, heisenberg_observable
from .rng import child_seed
from .stats import (
    exact_hv_series,
    norm_variance_analytic,
    sample_stats,
    sharp_variance_bound,
    variance_bound,
)

N_UNIFORM_SAMPLES = 5_000
N_PICTURE_STATES = 5
N_PICTURE_TIMES = 8

UNIFORM_MC_STREAM = 0x7E000001


@dataclass(frozen=True)
class CheckResult:
    """One check: it passes when its measured error is within its tolerance."""

    name: str
    error: float
    tolerance: float
    measured: str
    criterion: str

    def __post_init__(self) -> None:
        # numpy scalars would make ``passed`` an np.bool_
        object.__setattr__(self, "error", float(self.error))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance

    @property
    def margin(self) -> float:
        """The fraction of the tolerance left; negative means failed."""
        if self.tolerance > 0:
            return 1.0 - self.error / self.tolerance
        return 1.0 if self.error == 0 else -np.inf  # a zero tolerance


def _haar_scalars(params: OmegaParams, seed: int) -> tuple[np.ndarray, float]:
    """u = <psi|A|psi> of ``N_UNIFORM_SAMPLES`` uniform states, state i being
    ``sample_uniform_state(n, child_seed(seed, i))``, and the worst residual
    of ||omega||^2 = 1 + 2 d u/alpha and <omega|A|omega> = u + 2 d/alpha over
    their images ``make_omegas(psi)``, alpha = 1 + d^2; the states are
    stacked into chunks of ``max(1, STATE_BLOCK_AMPLITUDES // n)`` rows, each
    reduced as it is drawn."""
    a, d = params.observable, params.d
    n = a.size
    alpha = 1 + d**2
    rows = max(1, STATE_BLOCK_AMPLITUDES // n)
    vals = np.empty(N_UNIFORM_SAMPLES)
    worst = 0.0
    for first in range(0, N_UNIFORM_SAMPLES, rows):
        chunk = range(first, min(first + rows, N_UNIFORM_SAMPLES))
        block = np.array([sample_uniform_state(n, child_seed(seed, i)).amplitudes for i in chunk])
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
    c1 = params.c1
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
    results.append(
        CheckResult(
            "uniform-mean",
            abs(vals.mean() - c1),
            3 * se,
            f"sample {vals.mean():.6f} vs analytic {c1:.6f}",
            f"|diff| <= 3 SE = {3 * se:.2e} ({N_UNIFORM_SAMPLES} states of the run's sampler)",
        )
    )
    results.append(
        CheckResult(
            "uniform-variance",
            abs(vals.var(ddof=1) - hv),
            max(0.10 * hv, 1e-20),
            f"sample {vals.var(ddof=1):.4e} vs analytic {hv:.4e}",
            "relative error <= 10%",
        )
    )

    # The substitute ensemble is the deviation map of those states: its two
    # per-state identities, and the norm variance's closed form against the
    # affine image of u's variance hv.
    alpha = 1 + d**2
    worst_map = max(worst_map, abs(norm_variance_analytic(d, c1, n) - (2 * d / alpha) ** 2 * hv))
    results.append(
        CheckResult(
            "deviation-map",
            worst_map,
            1e-12,
            f"max residual = {worst_map:.2e}",
            f"|w|^2 = 1 + 2du/alpha and <w|A|w> = u + 2d/alpha over {N_UNIFORM_SAMPLES} "
            "states, and the norm-variance closed form, to 1e-12",
        )
    )

    # Bound domination on the config's grid, by the paper's and the sharp bound.
    eq_bound = variance_bound(d, n)
    sharp = sharp_variance_bound(d, c1, n)
    dec = eigendecompose(model.hamiltonian)
    times = config.times
    series, autocorrelation = exact_hv_series(dec, params, times)
    worst = float((series - min(eq_bound, sharp)).max())
    results.append(
        CheckResult(
            "bound-exact",
            max(worst, 0.0),
            1e-10,
            f"max HV = {series.max():.4e}, paper bound {eq_bound:.4e}, sharp {sharp:.4e}",
            "exact HV <= paper bound and <= sharp bound, + 1e-10, at every grid point",
        )
    )

    # The 1/n law at the config's size: C = F = 1 at t = times[0] = 0.
    scaled = (n + 1) * series
    results.append(
        CheckResult(
            "variance-at-zero",
            abs(scaled[0] - (1 - c1**2)),
            1e-12,
            f"(n + 1) HV(0) = {scaled[0]:.14f}, (n + 1) max HV = {scaled.max():.4f} at n = {n}",
            "|(n + 1) HV(0) - (1 - c1^2)| <= 1e-12",
        )
    )

    # The sampled mean against the exact c1 + 2 d C(t)/alpha in units of
    # sqrt(HV/M), and var/HV against 1 in units of its standard error
    # sqrt(2/(M - 1)) for near-Gaussian a_i(t).  4.5 is a family-wise
    # threshold over the correlated grid points: on verify_small a correct
    # sampler reads 2.47 and 1.78, an undeviated one 28.8 on the mean, and a
    # zero variance sqrt((M - 1)/2) = 7.04 at M = 100.  Flooring HV at
    # 1e-12 bound keeps the ratios finite for A = +/-I, where it is 0.
    m = config.num_trajectories
    omegas = trajectory_omegas(params, m, base)
    trajectories = run_ensemble(dec, params, omegas, times)
    mean, variance = sample_stats(trajectories)
    floored = np.maximum(series, 1e-12 * eq_bound)
    z_mean = np.abs(mean - (c1 + 2 * d * autocorrelation / alpha)) / np.sqrt(floored / m)
    results.append(
        CheckResult(
            "mean-sampled",
            z_mean.max(),
            4.5,
            f"max |mean - (c1 + 2d C/alpha)| / sqrt(HV/M) = {z_mean.max():.2f}",
            f"<= 4.5 over {len(times)} grid points (M = {m})",
        )
    )
    z = (np.abs(variance / floored - 1) / np.sqrt(2 / (m - 1))).max()
    results.append(
        CheckResult(
            "variance-sampled",
            z,
            4.5,
            f"max |var/HV - 1| / sqrt(2/(M - 1)) = {z:.2f}",
            f"<= 4.5 over {len(times)} grid points (M = {m})",
        )
    )

    # The shipped propagation kernel, run_ensemble, against the dense
    # Heisenberg picture <omega|A(t)|omega> of the first trajectory states at
    # grid points spread over the run; A(t) is formed once per time.
    states = omegas.T[:N_PICTURE_STATES]
    steps = np.unique(np.linspace(0, len(times) - 1, N_PICTURE_TIMES).astype(int))
    # The one dense observable: the Heisenberg picture needs A as a matrix.
    dense_a = HermitianOperator(np.diag(a))
    worst_pe = 0.0
    for k in steps:
        a_t = heisenberg_observable(dense_a, dec, times[k])
        for i, omega in enumerate(states):
            worst_pe = max(worst_pe, abs(trajectories[i, k] - expectation(a_t, StateVector(omega))))
    results.append(
        CheckResult(
            "picture-equivalence",
            worst_pe,
            1e-9,
            f"max |Schroedinger - Heisenberg| = {worst_pe:.2e}",
            f"<= 1e-9 at n = {n}, {len(states)} states x {len(steps)} times",
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
