"""The trajectory sampler, the propagation kernel and expectation values.

:func:`trajectory_omegas` draws every trajectory state.  :func:`run_ensemble`
is the one propagation kernel, for any state block; ``typlab run`` ships it
and verify's picture-equivalence check tests it.  One eigendecomposition of
H is reused for every trajectory and time: all states are rotated into the
energy eigenbasis once and diagonal phases are applied per time point.  The
observable is diagonal +/-1 and is read as its sign vector a,
A = 2 P_+ - I, so <omega|A|omega> = 2 ||P_+ omega||^2 - ||omega||^2 and only
the n_+ rows of the eigenvector matrix where a = +1 are rotated back; the
series are real by construction.  The batch :func:`expectations` are
likewise the sign-weighted squared amplitudes, real by construction.  The
single-state :func:`expectation` takes any Hermitian operator (the
picture-equivalence check feeds it the dense A(t), its reference for the
kernel) and checks its imaginary residue, never silently discarding it.
"""
from __future__ import annotations

import logging

import numpy as np

from .ensembles import OmegaParams, StateVector, make_omega, sample_uniform_state
from .errors import TyplabError
from .operators import HermitianOperator, SpectralDecomposition, plus_rows
from .rng import child_seed

logger = logging.getLogger(__name__)

IMAG_RESIDUE_RTOL = 1e-10


def expectation(a_op: HermitianOperator, phi: StateVector) -> float:
    """Re <phi|A|phi>, after asserting the imaginary residue is negligible.

    The residue tolerance is relative to the squared norm of the state; a
    violation signals a Hermiticity bug upstream and raises
    :class:`TyplabError`.
    """
    value = complex(np.vdot(phi.amplitudes, a_op.matrix @ phi.amplitudes))
    if abs(value.imag) > IMAG_RESIDUE_RTOL * phi.norm_sq:
        raise TyplabError(
            f"imaginary residue {value.imag:.3e} exceeds "
            f"{IMAG_RESIDUE_RTOL:.0e} * ||phi||^2"
        )
    return value.real


def expectations(signs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<phi|A|phi> for each row of a (count, n) block of states, with A the
    diagonal observable of sign vector ``signs``.

    The value is ``sum_j a_j |phi_j|^2``: no n x n product, and real by
    construction.  ``signs`` is the (n,) vector, never a matrix, and the
    states have n columns.  The squares are summed in place, so the call
    holds one float temporary of the states' shape.
    """
    sq = states.real**2
    sq += states.imag**2
    return sq @ signs


def trajectory_omegas(params: OmegaParams, m: int, base_seed: int) -> np.ndarray:
    """The C-contiguous (n, M) block of trajectory states: column i is
    ``make_omega(sample_uniform_state(n, child_seed(base_seed, i)), params)``.

    Initial values far from the analytic ensemble mean (3 sigma of the
    variance bound) are logged with the trajectory's seed; m >= 1.
    """
    n = params.observable.size
    seeds = [child_seed(base_seed, i) for i in range(m)]
    omegas = np.empty((n, m), dtype=np.complex128)
    for i, seed in enumerate(seeds):
        omegas[:, i] = make_omega(sample_uniform_state(n, seed), params).amplitudes

    center, spread = params.start_value_band
    for seed, start in zip(seeds, expectations(params.observable, omegas.T)):
        if abs(start - center) > spread:
            logger.warning(
                "trajectory seed %d starts at %.4f, outside %.4f +/- %.4f",
                seed,
                start,
                center,
                spread,
            )
    return omegas


def run_ensemble(
    dec: SpectralDecomposition,
    params: OmegaParams,
    omegas: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """The (M, T) array a_i(t_k) = <omega_i(t_k)|A|omega_i(t_k)> of the
    states in the M columns of ``omegas`` at the T entries of ``times``,
    with A = ``params.observable``; the run's grid is ``ExperimentConfig.times``.

    All states are rotated into the energy eigenbasis at once,
    C = U^dagger [omega_0 ... omega_{M-1}].  A is the validated sign vector,
    A = 2 P_+ - I, so at each time point

        a_i(t) = 2 ||U_+ exp(-i w t) c_i||^2 - ||omega_i||^2

    with U_+ the n_+ rows of U where A = +1: one (n_+ x n) by (n x M)
    product per time point, and the values are real by construction.
    """
    u_plus = plus_rows(params.observable, dec)
    # (U^T conj(omega))^* is U^dagger omega without a conjugated copy of U.
    coeff = (dec.eigenvectors.T @ omegas.conj()).conj()
    norms_sq = np.sum(omegas.real**2 + omegas.imag**2, axis=0)

    values = np.empty((omegas.shape[1], len(times)))
    for k, t in enumerate(times):
        evolved = u_plus @ (np.exp(-1j * dec.eigenvalues * t)[:, None] * coeff)
        values[:, k] = 2.0 * np.sum(evolved.real**2 + evolved.imag**2, axis=0) - norms_sq
    return values
