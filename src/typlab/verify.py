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
picture equivalence, against the Heisenberg-picture ``<omega|A(t)|omega>``
of their first states at every grid point, with A formed once in the
energy eigenbasis, A~ = U^dagger A U.

Each check is deterministic given the config's base seed; the Monte Carlo
states' child seeds branch from a child index far above the trajectory range.
The two sampled checks take their thresholds from M, the number of grid
points T and one family-wise false-failure rate, ``SAMPLED_ALPHA``, through
the laws of their statistics (:mod:`typlab.stats`), so a correct program
fails each at about that rate at any M and T that parse accepts.

The substitute ensemble's closed forms are affine images of one Haar
scalar u = <psi|A|psi>: for A^2 = I and alpha = 1 + d^2, the map
``(1 + d A)/sqrt(alpha)`` gives ||omega||^2 = 1 + 2 d u/alpha and
<omega|A|omega> = u + 2 d/alpha exactly.  So one Monte Carlo pass samples u
for the uniform checks, and ``deviation-map`` checks those two identities
per state and the norm variance's closed form against the image of u's
variance (the mean closed forms are those images written out).

The Monte Carlo pass draws state i with the sampler ``typlab run`` ships,
from seed ``child_seed(seed, i)`` as in
:func:`~typlab.evolution.trajectory_omegas`, with the same bits.  It draws
each chunk of states with one :func:`~typlab.ensembles.uniform_states` call
and reduces it to its scalars before the next, so verify holds no Monte
Carlo block: its largest arrays are the config's Hamiltonian H, its
eigenvectors U and A~.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .ensembles import STATE_BLOCK_AMPLITUDES, OmegaParams, make_omegas, uniform_states
from .evolution import expectations, run_ensemble, trajectory_omegas
from .models import build_model
from .operators import eigendecompose
from .rng import child_seed
from .stats import (
    chi2_cdf,
    chi2_quantile,
    exact_hv_series,
    norm_variance_analytic,
    normal_quantile,
    sample_stats,
    sharp_variance_bound,
    variance_bound,
)

N_UNIFORM_SAMPLES = 5_000
N_PICTURE_STATES = 5

UNIFORM_MC_STREAM = 0x7E000001

# The family-wise rate at which mean-sampled and variance-sampled may each
# fail a correct program, over all grid points together.
SAMPLED_ALPHA = 1e-3


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
    """u = <psi|A|psi> of ``N_UNIFORM_SAMPLES`` uniform states, state i drawn
    from ``child_seed(seed, i)``, and the worst residual of
    ||omega||^2 = 1 + 2 d u/alpha and <omega|A|omega> = u + 2 d/alpha over
    their images ``make_omegas(psi)``, alpha = 1 + d^2; the states are drawn
    in chunks of ``max(1, STATE_BLOCK_AMPLITUDES // n)`` rows, one
    ``uniform_states`` call each, each chunk reduced as it is drawn."""
    a, d = params.observable, params.d
    n = a.size
    alpha = 1 + d**2
    rows = max(1, STATE_BLOCK_AMPLITUDES // n)
    vals = np.empty(N_UNIFORM_SAMPLES)
    worst = 0.0
    for first in range(0, N_UNIFORM_SAMPLES, rows):
        chunk = range(first, min(first + rows, N_UNIFORM_SAMPLES))
        block = uniform_states(n, [child_seed(seed, i) for i in chunk])
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


def _sampled_checks(
    trajectories: np.ndarray,
    series: np.ndarray,
    autocorrelation: np.ndarray,
    params: OmegaParams,
) -> list[CheckResult]:
    """``mean-sampled`` and ``variance-sampled`` of an (M, T) trajectory
    array against the exact HV(t) ``series`` and the exact mean
    c1 + 2 d C(t)/alpha, with a family-wise false-failure rate of
    ``SAMPLED_ALPHA`` over the T grid points (Bonferroni, valid for
    correlated points): q = SAMPLED_ALPHA/(2T) in each tail at each point.

    Both checks read normal scores against Phi^{-1}(1 - q).  The mean's
    score is z = |mean - exact|/sqrt(HV/M).  The variance's is
    Phi^{-1}(F(x)) of x = (M - 1) var/HV under the chi^2_{M-1} distribution
    function F, taken at the smallest and the largest var/HV, so it passes
    exactly when every x lies between the chi^2_{M-1} quantiles at q and
    1 - q.  HV is floored at 1e-12 times the paper's bound, which keeps the
    ratios finite for A = +/-I, where it is 0.
    """
    m, points = trajectories.shape
    d, c1, n = params.d, params.c1, params.observable.size
    q = SAMPLED_ALPHA / (2 * points)
    z_max = normal_quantile(1 - q)
    family = f"alpha = {SAMPLED_ALPHA:g} over {points} grid points (M = {m})"
    mean, variance = sample_stats(trajectories)
    floored = np.maximum(series, 1e-12 * variance_bound(d, n))

    z = np.abs(mean - (c1 + 2 * d * autocorrelation / (1 + d**2))) / np.sqrt(floored / m)
    mean_check = CheckResult(
        "mean-sampled",
        z.max(),
        z_max,
        f"max |mean - (c1 + 2d C/alpha)| / sqrt(HV/M) = {z.max():.2f}",
        f"<= Phi^-1(1 - alpha/2T) = {z_max:.2f}, {family}",
    )

    k = m - 1
    ratio = variance / floored
    low, high = (normal_quantile(chi2_cdf(k * r, k)) for r in (ratio.min(), ratio.max()))
    window = [chi2_quantile(p, k) / k for p in (q, 1 - q)]
    variance_check = CheckResult(
        "variance-sampled",
        max(-low, high),
        z_max,
        f"var/HV in [{ratio.min():.3g}, {ratio.max():.3g}], normal scores {low:.2f}, {high:.2f}",
        f"|score| <= {z_max:.2f}: var/HV in the chi^2_{k} window "
        f"[{window[0]:.3g}, {window[1]:.3g}], {family}",
    )
    return [mean_check, variance_check]


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

    # The sampled mean and variance of the config's M trajectories against
    # the exact ones, at thresholds set by M, T and SAMPLED_ALPHA.
    m = config.num_trajectories
    omegas = trajectory_omegas(params, m, base)
    trajectories = run_ensemble(dec, params, omegas, times)
    results.extend(_sampled_checks(trajectories, series, autocorrelation, params))

    # The shipped kernel, run_ensemble, against the Heisenberg picture of
    # its first trajectory states at every grid point: with A~ = U^dagger A U
    # formed once and c = U^dagger omega fixed, <omega|A(t)|omega> =
    # Re c(t)^dagger A~ c(t), c(t) = exp(-i w t) c, at O(k n^2) per time.
    u = dec.eigenvectors
    a_eig = u.conj().T @ (a[:, None] * u)
    coeff = u.conj().T @ omegas[:, :N_PICTURE_STATES]
    reference = np.empty((coeff.shape[1], len(times)))
    for k, t in enumerate(times):
        c_t = np.exp(-1j * dec.eigenvalues * t)[:, None] * coeff
        reference[:, k] = np.einsum("jk,jk->k", c_t.conj(), a_eig @ c_t).real
    worst_pe = np.abs(trajectories[:N_PICTURE_STATES] - reference).max()
    results.append(
        CheckResult(
            "picture-equivalence",
            worst_pe,
            1e-9,
            f"max |Schroedinger - Heisenberg| = {worst_pe:.2e}",
            f"<= 1e-9 at n = {n}, {len(reference)} states x {len(times)} times",
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
