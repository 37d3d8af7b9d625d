"""Closed-form ensemble statistics and sample estimators.

The uniform-ensemble mean of an expectation value is the normalized trace;
its variance is the spectral variance over n + 1.  Statistics of the
substitute ensemble follow by mapping the measured operator through
``D = (1 + d A) C (1 + d A) / (1 + d^2)`` and reusing the uniform formulas.
The time-dependent variance admits a closed-form Cauchy-Schwarz upper
bound, derived for a general observable in the moments c_4 and c_8.  Every
observable here is a +/-1 sign vector, so the even moments are exactly 1 and
the odd ones equal c_1: the closed forms take c_1 and n alone.

The exact time-dependent variance is the uniform-ensemble variance of
``D(t) = (1 + d A) A(t) (1 + d A) / (1 + d^2)``.  The observable is diagonal
+/-1, read as its sign vector: A = 2 P_+ - I with P_+ the projector onto
its n_+ basis states of eigenvalue +1, A^2 = I, and the variance depends on
two correlators only: the autocorrelation C(t) = Tr{A A(t)}/n and the
out-of-time-order correlator F(t) = Tr{(A(t) A)^2}/n.  With
tau = Tr{A}/n = (2 n_+ - n)/n and alpha = 1 + d^2, (1 + d A)^2 = alpha + 2 d A
gives

    Tr{D}/n   = tau + 2 d C / alpha
    Tr{D^2}/n = 1 + 4 d tau / alpha + 4 d^2 F / alpha^2
    HV(t)     = [1 - tau^2 + 4 d tau (1 - C) / alpha
                 + 4 d^2 (F - C^2) / alpha^2] / (n + 1).

Both correlators come from the n_+ x n_+ block Y = P_+ e^{-iHt} P_+, in the
energy eigenbasis ``Y = U_+ e^{-iwt} U_+^dagger`` with U_+ the +1 rows of
the eigenvector matrix: with G = Y^dagger Y = P_+ P_+(t) P_+,
Tr{P_+ P_+(t)} = Tr G and Tr{(P_+(t) P_+)^2} = ||G||_F^2, so expanding
A = 2 P_+ - I,

    C = (4 Tr G - 4 n_+ + n) / n
    F = (16 ||G||_F^2 - 16 Tr G + n) / n.

A and A(t) are unitary involutions, so C is in [-1, 1], and X = A(t) A is
unitary, so F = Tr{X^2}/n <= 1.  With C^2 >= 0 and d >= 0 this bounds
(n + 1) HV(t) by 1 - tau^2 + 8 d max(tau, 0)/alpha + 4 d^2/alpha^2 for any H
(:func:`sharp_variance_bound`), 1.38x below the paper's bound at tau = 0,
d = 0.1.  At t = 0, C = F = 1, so (n + 1) HV(0) = 1 - tau^2 exactly.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .operators import SpectralDecomposition, plus_rows

if TYPE_CHECKING:
    from .ensembles import OmegaParams


def norm_variance_analytic(d: float, c1: float, n: int) -> float:
    """Variance of omega norms:
    ``4 d^2 (1 - c_1^2) / ((n + 1) (1 + d^2)^2)``.

    It is the uniform-ensemble variance of ``(1 + d A)^2 / (1 + d^2)
    = 1 + 2 d A / (1 + d^2)``, the identity mapped through D; the tests
    check the two agree, for unbalanced observables and A = I too.
    """
    return 4 * d**2 * (1 - c1**2) / ((n + 1) * (1.0 + d**2) ** 2)


def mean_expectation_analytic(d: float, c1: float) -> float:
    """Mean expectation value over the substitute ensemble:
    ``c_1 + 2 d / (1 + d^2)``, the normalized trace of
    ``(1 + d A) A (1 + d A) / (1 + d^2) = A + 2 d / (1 + d^2)``."""
    return c1 + 2 * d / (1 + d**2)


def variance_bound(d: float, n: int) -> float:
    """Time-independent upper bound on the expectation-value variance,
    ``(1 + 4 d + 6 d^2 + 4 d^3 + d^4) / ((n + 1) (1 + d^2)^2)``.

    It is the paper's bound for a general observable at c_4 = c_8 = 1, as
    for every sign vector; the numerator is summed term by term as there,
    not as (1 + d)^4, so both give the same bits.  Derived with
    positive-coefficient Cauchy-Schwarz steps, hence valid for d >= 0 only,
    which :class:`~typlab.config.ExperimentConfig` requires of every run.
    """
    return (1.0 + 4 * d + 6 * d**2 + 4 * d**3 + d**4) / ((n + 1) * (1.0 + d**2) ** 2)


def sharp_variance_bound(d: float, c1: float, n: int) -> float:
    """The sharp bound on the exact variance, alpha = 1 + d^2 and d >= 0:
    ``(1 - c_1^2 + 8 d max(c_1, 0) / alpha + 4 d^2 / alpha^2) / (n + 1)``."""
    alpha = 1.0 + d**2
    return (1 - c1**2 + 8 * d * max(c1, 0.0) / alpha + 4 * d**2 / alpha**2) / (n + 1)


def exact_hv_series(
    dec: SpectralDecomposition, params: OmegaParams, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The exact expectation-value variance HV(t) of the substitute ensemble
    ``params`` at each time, and the autocorrelation C(t), which fixes the
    exact mean tau + 2 d C(t)/alpha.

    Per time point it forms ``Y = (U_+ e^{-iwt}) U_+^dagger`` and
    G = Y^dagger Y, and reads C, the OTOC F and HV off Tr G and ||G||_F^2
    as the module docstring derives, for balanced and unbalanced observables
    alike, including +/-I.  HV stays below :func:`sharp_variance_bound` (to
    rounding) for d >= 0.  The tests pin the agreement with the dense
    per-time composition and with the general energy-basis formula.
    """
    d = params.d
    u_plus = plus_rows(params.observable, dec)
    u_plus_h = u_plus.conj().T
    n = dec.dim
    n_plus = u_plus.shape[0]
    tau = params.c1
    alpha = 1.0 + d**2

    out = np.empty(len(times))
    autocorrelation = np.empty(len(times))
    for k, t in enumerate(np.asarray(times, dtype=float)):
        y = (u_plus * np.exp(-1j * dec.eigenvalues * t)) @ u_plus_h
        g = y.conj().T @ y
        tr_g = float(np.trace(g).real)
        c = autocorrelation[k] = (4.0 * tr_g - 4 * n_plus + n) / n
        f = (16.0 * float(np.vdot(g, g).real) - 16.0 * tr_g + n) / n
        out[k] = (
            1.0
            - tau**2
            + 4.0 * d * tau * (1.0 - c) / alpha
            + 4.0 * d**2 * (f - c**2) / alpha**2
        ) / (n + 1)
    return out, autocorrelation


def sample_stats(trajectories: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-time ``(mean, variance)`` of an (M, T) trajectory array, the
    variance unbiased with the (M - 1) divisor.

    Summation runs over the rows in order, so repeated runs aggregate
    identically; M >= 2, as the config requires.
    """
    values = np.asarray(trajectories, dtype=np.float64)
    return values.mean(axis=0), values.var(axis=0, ddof=1)
