"""Pure-state ensembles: uniform (Haar) samples, the near-constrained
substitute ensemble, and commuting unitaries for invariance tests.

Uniform states are sampled by drawing all real and imaginary amplitude
components as independent standard normals and normalizing; the resulting
distribution on the unit sphere is invariant under every unitary.  A batch
is drawn in row blocks (:func:`uniform_state_blocks`), each the next draw of
one stream, so a consumer that reduces each block as it comes holds one
block, never the batch.  The substitute ensemble
applies ``(1 + d A)/sqrt(1 + d^2)`` to a uniform state and is deliberately
not renormalized: its norm spread is part of what the closed-form
statistics describe.  The observable is diagonal +/-1 and is
carried as its sign vector, so the map acts elementwise; :class:`OmegaParams`
is the one place that checks that form, and the other functions take a sign
vector (never a matrix) and states of its dim.
"""
from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TyplabError
from .operators import spectral_moments
from .rng import SeedStream
from .stats import (
    mean_expectation_analytic,
    norm_mean_analytic,
    norm_variance_analytic,
    variance_bound,
)

logger = logging.getLogger(__name__)

NORM_BAND_SIGMAS = 10.0
# Complex amplitudes per row block of uniform states (2 MiB, 655 rows at
# verify's n = 200).  There, on 2 cores, verify's Monte Carlo stage timed
# alike with blocks of 64 to 2048 rows and 1.7x slower with 4096 rows.  Each
# block is its own draw, so this size is part of verify's sample layout:
# changing it changes every Monte Carlo state after the first block.
STATE_BLOCK_AMPLITUDES = 1 << 17


@dataclass(frozen=True)
class StateVector:
    """A complex 1-d amplitude vector; immutable after construction."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class OmegaParams:
    """Deviation parameter and observable defining the substitute ensemble.

    ``observable`` is the sign vector of a diagonal observable, A = 2 P_+ - I:
    its 1-d diagonal, non-empty, every entry exactly +1 or -1, stored as a
    read-only float64 copy; anything else, a matrix included, raises
    :class:`TyplabError`; every ensemble, propagation and exact variance
    reads the observable through this class.  ``d`` is the deviation that
    :class:`~typlab.config.ExperimentConfig` checks, 0 <= d < 1.
    """

    d: float
    observable: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.observable)
        if a.ndim != 1 or not a.size or a.dtype.kind not in "iuf" or not np.all(np.abs(a) == 1):
            raise TyplabError(
                f"the observable must be a sign vector of entries +1 or -1, "
                f"got an array of shape {a.shape} and dtype {a.dtype}"
            )
        signs = a.astype(np.float64)
        signs.flags.writeable = False
        object.__setattr__(self, "observable", signs)

    @cached_property
    def moments(self) -> dict[int, float]:
        """The observable's spectral moments ``{i: c_i}``, i = 1..8; for a
        sign vector the even ones are 1 and the odd ones equal c_1."""
        return spectral_moments(self.observable)

    @cached_property
    def norm_sq_band(self) -> tuple[float, float]:
        """Soft plausibility band for omega norms: the analytic mean +/- 10
        sqrt(norm HV), and at least +/- 1e-12, so that a zero variance (d = 0
        or A = +/-I) leaves room for rounding."""
        c1 = self.moments[1]
        center = norm_mean_analytic(self.d, c1)
        variance = norm_variance_analytic(self.d, c1, self.observable.size)
        spread = max(NORM_BAND_SIGMAS * np.sqrt(variance), 1e-12)
        return center - spread, center + spread

    @cached_property
    def start_value_band(self) -> tuple[float, float]:
        """Analytic mean of initial expectation values and a 3-sigma spread
        from the variance bound."""
        center = mean_expectation_analytic(self.d, self.moments[1])
        spread = 3.0 * np.sqrt(variance_bound(self.d, self.observable.size))
        return center, spread


def sample_uniform_state(n: int, seed: int) -> StateVector:
    """One state from the uniform distribution of normalized states.

    Draws 2n standard normals from the seed's stream (first n are the real
    parts, next n the imaginary parts) and normalizes to unit norm; n >= 1.
    """
    z = SeedStream(seed).normal(2 * n)
    amp = z[:n] + 1j * z[n:]
    return StateVector(amp / np.linalg.norm(amp))


def uniform_state_blocks(n: int, count: int, seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """The rows of :func:`sample_uniform_states` ``(n, count, seed)`` as
    ``(first_row, block)`` pairs, one (rows, n) block at a time.

    Blocks have ``max(1, STATE_BLOCK_AMPLITUDES // n)`` rows, the last
    fewer.  Each is built from the next ``normal(2 * n * rows)`` of one
    ``SeedStream(seed)``: row i of the block from its normals
    ``[2 n i, 2 n (i + 1))``, the first n the real parts and the last n the
    imaginary parts.  No (count, n) array is ever held, and a block is freed
    as soon as its consumer drops it; n >= 1.
    """
    stream = SeedStream(seed)
    rows = max(1, STATE_BLOCK_AMPLITUDES // n)
    for first in range(0, count, rows):
        z = stream.normal(2 * n * min(rows, count - first)).reshape(-1, 2 * n)
        block = np.empty((len(z), n), dtype=np.complex128)
        block.real = z[:, :n]
        block.imag = z[:, n:]
        block /= np.linalg.norm(block, axis=1)[:, None]
        yield first, block


def sample_uniform_states(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` uniform states as rows of a (count, n) array: the gather of
    :func:`uniform_state_blocks`.

    All states come from one stream, drawn block by block, so a batch that
    fits in one block is one (count, 2n) normal draw and a longer one is
    the concatenation of such draws.  This batch layout differs from
    repeated single-state calls and exists for Monte Carlo estimates where
    only the joint distribution matters.  The call needs little memory
    beyond its result; n >= 1.
    """
    states = np.empty((count, n), dtype=np.complex128)
    for first, block in uniform_state_blocks(n, count, seed):
        states[first : first + len(block)] = block
    return states


def make_omega(psi: StateVector, params: OmegaParams) -> StateVector:
    """Apply the deviation map ``(1 + d A)/sqrt(1 + d^2)`` to a state.

    The map of :func:`make_omegas`, applied to the state's one-row view.  No
    renormalization: the image ensemble is only near-normalized.  A norm
    outside the 10-sigma analytic band is logged, not fatal.
    """
    omega = StateVector(make_omegas(psi.amplitudes[None, :], params)[0])
    low, high = params.norm_sq_band
    if not low <= omega.norm_sq <= high:
        logger.warning(
            "omega norm^2 = %.6f outside soft band [%.6f, %.6f]",
            omega.norm_sq,
            low,
            high,
        )
    return omega


def make_omegas(psis: np.ndarray, params: OmegaParams) -> np.ndarray:
    """The deviation map for a (count, n) block of states, one per row: A is
    diagonal +/-1, so the map is ``(psi + d * (a * psi)) / sqrt(1 + d^2)``
    elementwise with ``a = params.observable``."""
    return (psis + params.d * (params.observable * psis)) / np.sqrt(1.0 + params.d**2)


def commuting_unitary(signs: np.ndarray, seed: int) -> np.ndarray:
    """A random unitary ``e^{iB}`` with diagonal real B, commuting with the
    diagonal observable of sign vector ``signs``, returned as its (n,)
    diagonal: the phase vector ``exp(i * angles)``.

    The angles are uniform in [0, 2*pi) from the seed's stream.  Apply it
    to a state elementwise, ``phases * psi``; ``np.diag(phases)`` commutes
    with A identically.
    """
    return np.exp(1j * SeedStream(seed).angles(len(signs)))
