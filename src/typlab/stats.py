"""Closed-form ensemble statistics and sample estimators.

The uniform-ensemble mean of an expectation value is the normalized trace;
its variance is the spectral variance over n + 1.  Statistics of the
substitute ensemble follow by mapping the measured operator through
``D = (1 + d A) C (1 + d A) / (1 + d^2)`` and reusing the uniform formulas.
The time-dependent variance admits a closed-form Cauchy-Schwarz upper
bound in the moments c_4 and c_8; the exact value is also computed here by
evaluating the same machinery with the Heisenberg-evolved observable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NegativeMomentError, TooFewTrajectoriesError
from .operators import HermitianOperator, SpectralDecomposition, heisenberg_observable


def ha_uniform(d_op: HermitianOperator) -> float:
    """Uniform-ensemble mean of the expectation value: Tr{D}/n."""
    return float(np.trace(d_op.matrix).real) / d_op.dim


def hv_uniform(d_op: HermitianOperator) -> float:
    """Uniform-ensemble variance: (c_2 - c_1^2)/(n + 1)."""
    n = d_op.dim
    c1 = float(np.trace(d_op.matrix).real) / n
    # Tr{D^2} = ||D||_F^2 for Hermitian D; no matrix product needed.
    c2 = float(np.vdot(d_op.matrix, d_op.matrix).real) / n
    return (c2 - c1**2) / (n + 1)


def moment_map(c_op: HermitianOperator, a_op: HermitianOperator, d: float) -> HermitianOperator:
    """Map a measured operator to its uniform-ensemble equivalent:
    ``D = (1 + d A) C (1 + d A) / (1 + d^2)``.

    Moments of the substitute ensemble's expectation values of C equal
    uniform-ensemble moments of D.
    """
    if c_op.dim != a_op.dim:
        raise DimensionMismatchError(
            f"operator dims differ: {c_op.dim} vs {a_op.dim}"
        )
    shift = np.eye(a_op.dim, dtype=np.complex128) + d * a_op.matrix
    mapped = shift @ c_op.matrix @ shift / (1.0 + d**2)
    return HermitianOperator(0.5 * (mapped + mapped.conj().T))


def norm_variance_analytic(d: float, c3: float, c4: float, n: int) -> float:
    """Variance of omega norms:
    ``(4 d^2 + 4 d^3 c_3 + d^4 (c_4 - 1)) / ((n + 1) (1 + d^2)^2)``.

    Agrees with ``hv_uniform(moment_map(I, A, d))`` for a trace-free,
    c_2 = 1 observable.
    """
    if n < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {n}")
    return (4 * d**2 + 4 * d**3 * c3 + d**4 * (c4 - 1.0)) / ((n + 1) * (1.0 + d**2) ** 2)


def mean_expectation_analytic(d: float, c3: float) -> float:
    """Mean expectation value over the substitute ensemble:
    ``(2 d + d^2 c_3) / (1 + d^2)``."""
    return (2 * d + d**2 * c3) / (1.0 + d**2)


def variance_bound(d: float, c4: float, c8: float, n: int) -> float:
    """Time-independent upper bound on the expectation-value variance:

    ``(1 + 4 d sqrt(c4) + 6 d^2 c4 + 4 d^3 sqrt(c4) (c4 c8)^{1/4}
       + d^4 sqrt(c4 c8)) / ((n + 1) (1 + d^2)^2)``

    Derived with positive-coefficient Cauchy-Schwarz steps, hence valid for
    d >= 0 only; negative d is rejected rather than guessed.
    """
    if c4 < 0 or c8 < 0:
        raise NegativeMomentError(f"even moments must be >= 0, got c4={c4}, c8={c8}")
    if d < 0:
        raise ValueError(f"the bound is derived for d >= 0, got d={d}")
    if n < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {n}")
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


def hv_at_time_exact(
    a_op: HermitianOperator, dec: SpectralDecomposition, d: float, t: float
) -> float:
    """Exact expectation-value variance at time t:
    ``hv_uniform(moment_map(A(t), A, d))``.

    Always below :func:`variance_bound` (to rounding) for d >= 0.
    """
    return hv_uniform(moment_map(heisenberg_observable(a_op, dec, t), a_op, d))


def exact_hv_series(
    a_op: HermitianOperator,
    dec: SpectralDecomposition,
    d: float,
    times: np.ndarray,
) -> np.ndarray:
    """:func:`hv_at_time_exact` over a whole time grid, one matrix product
    per time point.

    Works in the energy eigenbasis, where A(t) is an elementwise phase
    rotation of A~ = U^dagger A U and all traces are basis-invariant:
    with S = (1 + d A)^2,

        Tr{D}   = (Tr{A(t)} + 2d Tr{A A(t)} + d^2 Tr{A^2 A(t)}) / (1 + d^2)
        Tr{D^2} = Tr{(A(t) S)^2} / (1 + d^2)^2

    Algebraically identical to the per-time composition; the tests pin the
    agreement.
    """
    if a_op.dim != dec.dim:
        raise DimensionMismatchError(
            f"observable dim {a_op.dim} does not match decomposition dim {dec.dim}"
        )
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
        c1 = tr_d / n
        c2 = tr_d_sq / n
        out[k] = (c2 - c1**2) / (n + 1)
    return out


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time sample mean and unbiased variance over an ensemble."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    count: int

    def __post_init__(self):
        for name in ("times", "mean", "variance"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.times.shape == self.mean.shape == self.variance.shape):
            raise DimensionMismatchError(
                f"times {self.times.shape}, mean {self.mean.shape} and variance "
                f"{self.variance.shape} must share one shape"
            )
        if self.count < 2:
            raise TooFewTrajectoriesError(
                f"variance needs at least 2 trajectories, got {self.count}"
            )
        if np.any(self.variance < 0):
            raise ValueError("sample variance must be non-negative")


def sample_stats(trajectories: np.ndarray, times: np.ndarray) -> EnsembleStats:
    """Per-time mean and unbiased (M - 1) sample variance of an (M, T)
    trajectory array sampled at ``times``.

    Summation runs over the rows in order, so repeated runs aggregate
    identically.
    """
    values = np.asarray(trajectories, dtype=np.float64)
    m = values.shape[0]
    if m < 2:
        raise TooFewTrajectoriesError(f"need at least 2 trajectories, got {m}")
    mean = values.mean(axis=0)
    centered = values - mean
    variance = (centered**2).sum(axis=0) / (m - 1)
    return EnsembleStats(times=times, mean=mean, variance=variance, count=m)
