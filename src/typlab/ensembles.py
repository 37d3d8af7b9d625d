"""Pure-state ensembles: uniform (Haar) samples, the near-constrained
substitute ensemble, and commuting unitaries.  No typlab code calls
:func:`commuting_unitary`, :func:`sample_uniform_states` or
``operators.spectral_moments``: they stay only while ``perfbench/tracer``
names them, until the benchmark's next revision.

Uniform states are sampled by drawing all real and imaginary amplitude
components as independent standard normals and normalizing; the resulting
distribution on the unit sphere is invariant under every unitary.  A batch
is drawn in row blocks (:func:`uniform_state_blocks`), each the next draw of
one stream, so a consumer that reduces each block as it comes holds one
block, never the batch.  The substitute ensemble
applies ``(1 + d A)/sqrt(1 + d^2)`` to a uniform state and is deliberately
not renormalized: its norm spread is part of what the closed-form
statistics describe.  Sampling checks no drawn state; a run's one per-state
diagnostic, the start band, is counted in :mod:`typlab.experiment`.  The
observable is diagonal +/-1 and is carried as its sign vector, so the map
acts elementwise; :class:`OmegaParams` is the one place that checks that
form, and the other functions take a sign vector (never a matrix) and
states of its dim.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import TyplabError
from .rng import SeedStream

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

    @property
    def c1(self) -> float:
        """Tr{A}/n; as A^2 = I, the even moments c_i are 1 and the odd ones c1."""
        return float(np.mean(self.observable))


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
    """Apply the deviation map ``(1 + d A)/sqrt(1 + d^2)`` to a state: the
    map of :func:`make_omegas` on the state's one-row view.  No
    renormalization: the image ensemble is only near-normalized."""
    return StateVector(make_omegas(psi.amplitudes[None, :], params)[0])


def make_omegas(psis: np.ndarray, params: OmegaParams) -> np.ndarray:
    """The deviation map for a (count, n) block of states, one per row: A is
    diagonal +/-1, so the map is ``(psi + d * (a * psi)) / sqrt(1 + d^2)``
    elementwise with ``a = params.observable``."""
    return (psis + params.d * (params.observable * psis)) / np.sqrt(1.0 + params.d**2)


def commuting_unitary(signs: np.ndarray, seed: int) -> np.ndarray:
    """A random unitary ``e^{iB}`` with diagonal real B, commuting with the
    diagonal observable of sign vector ``signs``, as its (n,) diagonal
    ``exp(i * angles)``, angles ``2*pi*u`` from the seed's uniforms u.  Apply
    it to a state elementwise, ``phases * psi``."""
    return np.exp(1j * ((2.0 * np.pi) * SeedStream(seed).uniform(len(signs))))
