"""The trajectory sampler, the propagation kernel and expectation values.

:func:`trajectory_omegas` draws every trajectory state and checks none;
``execute_run`` counts the starts outside the start band.  :func:`run_ensemble`
is the one propagation kernel, for any state block; ``typlab run`` ships it
and verify's picture-equivalence check tests it.  One eigendecomposition of
H is reused for every trajectory and time: all states are rotated into the
energy eigenbasis once and diagonal phases are applied per propagation
time.  The observable is diagonal +/-1 and is read as its sign vector a,
A = 2 P_+ - I, so <omega|A|omega> = 2 ||P_+ omega||^2 - ||omega||^2 and only
the n_+ rows of the eigenvector matrix where a = +1 are rotated back; the
series are real by construction.

**Nodes and interpolation.**  Every evolved amplitude
z(t) = U_+ exp(-i w t) c is band-limited by the spectral width, and a run's
grid is usually far denser than that needs.  So the kernel propagates
exactly at Chebyshev-Lobatto nodes tau_q and maps z to the grid with a real
barycentric interpolation matrix Q, z(t) ~ sum_q Q_tq z(tau_q), before the
squares are taken (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).
The spectrum is centred first, w -> w - (w_min + w_max)/2, as the global
phase drops out of |.|^2.  :func:`propagation_plan` cuts the grid into
blocks of at most ``GRID_BLOCK`` points, so no temporary grows with the grid,
and counts each block's nodes a priori.  On a block t = m + h x, x in
[-1, 1], eigenvalue w_k has the phase exp(-i w_k m) exp(-i theta_k x),
theta_k = |w_k h|, whose Chebyshev coefficients are 2 (-i)^j J_j(theta_k);
interpolation at r Lobatto nodes errs by at most 4 sum_{j>=r} |J_j(theta_k)|
(Trefethen, Approximation Theory and Approximation Practice, Thm 4.2).
The band edge bounds every eigenvalue: J_j is positive and increasing on
[0, j], so for r > theta = max|w| |h| no term at theta_k <= theta exceeds
its value at theta.  Each block takes the fewest such r whose edge tail

    eps = 4 sum_{j>=r} |J_j(theta)|

is at most ``PHASE_ERROR_TOL`` = 1e-13.  Since ||U_+ x|| <= ||x||, that
bounds |a_i(t) - exact| <= 2 ||omega_i||^2 (2 eps + eps^2)
(:func:`propagation_error_bound`, ``meta["health"]["propagation_error_bound"]``).
The bound holds in exact arithmetic; rounding adds about
u (r L + (1 + L) max|w| max|t|), with u = 2^-53 and L the largest row
abs-sum of Q, and the direct path's phases round alike.
A block that would need as many nodes as it has grid points, short or
undersampled, is propagated directly at its grid points, without Q and with
eps = 0; both kinds of block run through the same loop.  The end grid
points of a block are nodes, so t = 0 is always propagated directly.

The batch :func:`expectations` are likewise the sign-weighted squared
amplitudes, real by construction.  The single-state :func:`expectation`
takes any Hermitian operator and checks its imaginary residue; it serves
only the benchmark's tracer and the tests, which feed it the dense A(t)
(``BENCHMARK_ONLY`` in ``tests/test_exports.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import OmegaParams, StateVector, make_omega, sample_uniform_state
from .errors import TyplabError
from .operators import HermitianOperator, SpectralDecomposition, plus_rows
from .rng import child_seed

IMAG_RESIDUE_RTOL = 1e-10
# Grid points per propagation block, so no kernel temporary exceeds (GRID_BLOCK x n).
GRID_BLOCK = 256
# The largest phase error eps a block's interpolation may have.
PHASE_ERROR_TOL = 1e-13
# Grid points squared per chunk, which bounds the interpolated rows held.
INTERPOLATION_ROWS = 64


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
    ``make_omega(sample_uniform_state(n, child_seed(base_seed, i)), params)``;
    m >= 1."""
    n = params.observable.size
    omegas = np.empty((n, m), dtype=np.complex128)
    for i in range(m):
        psi = sample_uniform_state(n, child_seed(base_seed, i))
        omegas[:, i] = make_omega(psi, params).amplitudes
    return omegas


def _norms_sq(omegas: np.ndarray) -> np.ndarray:
    """||omega_i||^2 of the columns of ``omegas``, holding one float block."""
    sq = omegas.real**2
    sq += omegas.imag**2
    return sq.sum(axis=0)


def _centred(eigenvalues: np.ndarray) -> np.ndarray:
    """w - (w_min + w_max)/2: the spectrum with the global phase removed,
    which drops out of every |.|^2 and minimises max |w|."""
    return eigenvalues - (eigenvalues[0] + eigenvalues[-1]) / 2


@dataclass(frozen=True)
class TimeBlock:
    """One block of a run's grid and the times it is propagated at.

    ``rows`` selects the block's grid points.  States are propagated exactly
    at ``nodes``; ``weights`` is the real (len(rows), len(nodes))
    interpolation matrix Q that maps node values to the grid points, or None
    when the nodes are the grid points themselves.  ``phase_error`` is the
    a-priori tail bound eps on max_{k,t} |sum_q Q_tq exp(-i w_k tau_q) -
    exp(-i w_k t)| over the centred spectrum w and the block's grid, in
    exact arithmetic; 0.0 without Q.
    """

    rows: slice
    nodes: np.ndarray
    weights: np.ndarray | None
    phase_error: float


def _lobatto_weights(grid: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r >= 2 Chebyshev-Lobatto nodes on [grid[0], grid[-1]] and the
    barycentric interpolation matrix from them to ``grid``.

    The end nodes are the end grid points exactly, and a grid point equal
    to a node gets the unit row of that node, not a division by zero.
    """
    j = np.arange(r)
    # sin, not cos, so the middle node of an odd r is exactly 0.
    x = np.sin(np.pi * (2 * j - (r - 1)) / (2 * (r - 1)))
    mid, half = (grid[0] + grid[-1]) / 2, (grid[-1] - grid[0]) / 2
    nodes = mid + half * x
    nodes[0], nodes[-1] = grid[0], grid[-1]
    barycentric = (-1.0) ** j
    barycentric[[0, -1]] /= 2
    diff = grid[:, None] - nodes
    hit = diff == 0
    diff[hit] = 1.0
    weights = barycentric / diff
    weights /= weights.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    weights[on_node] = hit[on_node]
    return nodes, weights


def _bessel_j(theta: float) -> np.ndarray:
    """J_0(theta), ..., J_K(theta) for theta >= 0, with K = theta +
    20 theta^(1/3) + 40 far enough past theta that J_K is negligible.

    Miller's backward recurrence J_{k-1} = (2k/theta) J_k - J_{k+1}, run on
    the ratios J_k/J_{k-1} so that nothing overflows, and normalised by
    J_0 + 2 sum_k J_2k = 1."""
    top = int(theta + 20 * theta ** (1 / 3) + 40)
    ratios = np.empty(top + 1)
    ratios[0] = rho = 1.0
    for k in range(top, 0, -1):
        rho = theta / (2 * k - theta * rho)
        ratios[k] = rho
    j = np.cumprod(ratios)
    return j / (j[0] + 2 * j[2::2].sum())


def _time_block(w: np.ndarray, grid: np.ndarray, rows: slice) -> TimeBlock:
    """The block of ``rows`` with the fewest Chebyshev nodes r > theta whose
    tail bound eps = 4 sum_{k>=r} |J_k(theta)| is at most ``PHASE_ERROR_TOL``,
    or the direct block when that takes as many nodes as the block has grid
    points; theta = max|w| times half the block's span."""
    theta = float(np.abs(w).max(initial=0.0)) * abs(grid[-1] - grid[0]) / 2
    # r > theta keeps every term of the tail on the rising side of J_k.
    r = max(2, int(theta) + 1)
    if r < len(grid):
        tails = 4 * np.cumsum(np.abs(_bessel_j(theta))[::-1])[::-1]
        r = max(r, int(np.argmax(tails <= PHASE_ERROR_TOL)))
    if r >= len(grid):
        return TimeBlock(rows, grid, None, 0.0)
    return TimeBlock(rows, *_lobatto_weights(grid, r), float(tails[r]))


def propagation_plan(eigenvalues: np.ndarray, times: np.ndarray) -> list[TimeBlock]:
    """The :class:`TimeBlock` list that covers ``times`` for the spectrum
    ``eigenvalues``: the grid cut into equal blocks of at most
    ``GRID_BLOCK`` points, each with its own nodes."""
    w = _centred(eigenvalues)
    count = -(-len(times) // GRID_BLOCK)
    edges = [len(times) * k // count for k in range(count + 1)]
    return [_time_block(w, times[lo:hi], slice(lo, hi)) for lo, hi in zip(edges, edges[1:])]


def propagation_error_bound(
    eigenvalues: np.ndarray, times: np.ndarray, omegas: np.ndarray
) -> float:
    """2 max_i ||omega_i||^2 (2 eps + eps^2), with eps the largest phase error
    of ``propagation_plan(eigenvalues, times)``: a bound on |a_i(t) - exact|
    over the columns of ``omegas``; 0.0 when every grid time is propagated directly."""
    eps = max(block.phase_error for block in propagation_plan(eigenvalues, times))
    return 2.0 * float(_norms_sq(omegas).max()) * (2 * eps + eps**2)


def run_ensemble(
    dec: SpectralDecomposition, params: OmegaParams, omegas: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """The (M, T) array a_i(t_k) = <omega_i(t_k)|A|omega_i(t_k)> of the
    states in the M columns of ``omegas`` at the T entries of ``times``,
    with A = ``params.observable``; the run's grid is ``ExperimentConfig.times``,
    cut into the blocks of :func:`propagation_plan`.

    All states are rotated into the energy eigenbasis at once,
    c_i = U^dagger omega_i.  A is the validated sign vector, A = 2 P_+ - I, so

        a_i(t) = 2 ||U_+ exp(-i w t) c_i||^2 - ||omega_i||^2

    with U_+ the n_+ rows of U where A = +1, and the values are real by
    construction.  Per block and trajectory, one (r x n) by (n x n_+)
    product gives z = U_+ exp(-i w tau) c_i at the block's r nodes; its grid
    rows, z's own or Q z, are squared ``INTERPOLATION_ROWS`` at a time.
    """
    plan = propagation_plan(dec.eigenvalues, times)
    u_plus = plus_rows(params.observable, dec)
    # (omega^dagger U)^* rows are U^dagger omega, without a conjugated copy of U.
    coeff = omegas.conj().T @ dec.eigenvectors
    np.conjugate(coeff, out=coeff)
    w = _centred(dec.eigenvalues)
    values = np.empty((len(coeff), len(times)))
    for block in plan:
        phases = np.exp(np.multiply.outer(block.nodes, -1j * w))
        block_values = values[:, block.rows]
        for i, c in enumerate(coeff):
            z = ((phases * c) @ u_plus.T).view(np.float64)
            for lo in range(0, block_values.shape[1], INTERPOLATION_ROWS):
                rows = slice(lo, lo + INTERPOLATION_ROWS)
                y = z[rows] if block.weights is None else block.weights[rows] @ z
                block_values[i, rows] = np.einsum("tj,tj->t", y, y)
    values *= 2.0
    values -= _norms_sq(omegas)[:, None]
    return values
