"""Pure-state ensembles: uniform (Haar) samples, the near-constrained
substitute ensemble, and commuting unitaries for invariance tests.

Uniform states are sampled by drawing all real and imaginary amplitude
components as independent standard normals and normalizing; the resulting
distribution on the unit sphere is invariant under every unitary.  The
substitute ensemble applies ``(1 + d A)/sqrt(1 + d^2)`` to a uniform state
and is deliberately not renormalized: its norm spread is part of what the
closed-form statistics describe.  The observable is diagonal +/-1 and is
carried as its sign vector, so the map acts elementwise; :class:`OmegaParams`
is the one place that checks that form, and the other functions take a sign
vector (never a matrix) and states of its dim.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TyplabError
from .operators import spectral_moments
from .rng import SeedStream
from .stats import mean_expectation_analytic, norm_variance_analytic, variance_bound

logger = logging.getLogger(__name__)

NORM_BAND_SIGMAS = 10.0
# Complex amplitudes per block when assembling a batch of uniform states.
STATE_BLOCK_VALUES = 8192


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
        """Soft plausibility band for omega norms: 1 +/- 10 sqrt(norm HV)."""
        n = self.observable.size
        spread = NORM_BAND_SIGMAS * np.sqrt(norm_variance_analytic(self.d, self.moments[1], n))
        return 1.0 - spread, 1.0 + spread

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


def sample_uniform_states(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` uniform states as rows of a (count, n) array.

    All states come from one stream, drawn as a single (count, 2n) normal
    block; this batch layout differs from repeated single-state calls and
    exists for Monte Carlo estimates where only the joint distribution
    matters.  The rows are built in the normal block's own buffer: blocks
    of ``max(1, STATE_BLOCK_VALUES // n)`` rows are copied out, written
    back as complex amplitudes over the same bytes and normalized in
    place, so the call needs little memory beyond its result; n >= 1.
    """
    z = SeedStream(seed).normal(2 * n * count).reshape(count, 2 * n)
    amp = z.view(np.complex128)
    rows = max(1, STATE_BLOCK_VALUES // n)
    for s in range(0, count, rows):
        block = z[s : s + rows].copy()
        out = amp[s : s + rows]
        out.real = block[:, :n]
        out.imag = block[:, n:]
        out /= np.linalg.norm(out, axis=1)[:, None]
    return amp


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
