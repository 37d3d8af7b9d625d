"""Pure-state ensembles: uniform (Haar) samples, the near-constrained
substitute ensemble, and commuting unitaries.  The functions here that no
typlab code calls stay only while ``perfbench/tracer`` names them, until
the benchmark's next revision; ``BENCHMARK_ONLY`` in
``tests/test_exports.py`` is the one list of such names.

Uniform states are sampled by drawing all real and imaginary amplitude
components as independent standard normals and normalizing; the resulting
distribution on the unit sphere is invariant under every unitary.
:func:`uniform_states` is the one Haar sampler: it draws one state per seed,
a chunk of seeds in one call.  ``typlab verify``'s Monte Carlo pass draws
its states with it a chunk at a time.  :func:`sample_uniform_state` is its
one-seed form, and ``typlab run`` draws each trajectory state with it,
seed by seed, in :func:`~typlab.evolution.trajectory_omegas`: its M <= 100
draws are under 1% of a ``scenario_i`` run, and the benchmark's tracer
(``perfbench/tracer.py``) and the CLI tests reach the run's states through
that per-seed call.  Both paths give state i the same bits.

The substitute ensemble applies ``(1 + d A)/sqrt(1 + d^2)`` to a uniform
state and is deliberately not renormalized: its norm spread is part of what
the closed-form statistics describe.  Sampling checks no drawn state; a
run's one per-state diagnostic, the start band, is counted in
:mod:`typlab.experiment`.  The observable is diagonal +/-1 and is carried
as its sign vector, so the map acts elementwise; :class:`OmegaParams` is
the one place that checks that form, and the other functions take a sign
vector (never a matrix) and states of its dim.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import TyplabError
from .rng import SeedStream

# Complex amplitudes per row block of uniform states (2 MiB, 655 rows at
# n = 200).  It has two uses: verify's Monte Carlo pass draws this many
# amplitudes of states as one chunk of :func:`uniform_states` before it
# reduces them, and each block of :func:`sample_uniform_states` is its own
# draw, so there the size is part of the batch's bits.
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


def uniform_states(n: int, seeds: Sequence[int]) -> np.ndarray:
    """Uniform states as the rows of a (k, n) array, one per seed.

    Row i is drawn from ``SeedStream(seeds[i])``: 2n standard normals, the
    first n the real parts and the next n the imaginary parts, normalized
    to unit norm.  All rows come from one multi-seed ``normal`` call, and
    each row of states is written over its own row of normals, so the call
    holds one (k, 2n) block.  Each row is divided by its own 1-d
    ``np.linalg.norm``, not by a norm along ``axis=1``, whose sums round
    differently, so row i has the bits of a one-seed draw; n >= 1.
    """
    z = SeedStream(seeds).normal(2 * n)
    states = z.view(np.complex128)  # over the normals' own buffer
    for normals, row in zip(z, states):
        parts = normals.copy()  # the packed row overwrites what it reads
        row.real = parts[:n]
        row.imag = parts[n:]
        row /= np.linalg.norm(row)
    return states


def sample_uniform_state(n: int, seed: int) -> StateVector:
    """One state from the uniform distribution of normalized states: the
    one row of ``uniform_states(n, [seed])``; n >= 1."""
    return StateVector(uniform_states(n, [seed])[0])


def sample_uniform_states(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` uniform states as rows of a (count, n) array, all from one
    ``SeedStream(seed)``.

    Rows are drawn in blocks of ``max(1, STATE_BLOCK_AMPLITUDES // n)``, the
    last fewer.  Each block is the next ``normal(2 * n * rows)`` of the
    stream: row i of the block from its normals ``[2 n i, 2 n (i + 1))``,
    the first n the real parts and the last n the imaginary parts.  This
    batch layout differs from repeated single-state calls and exists for
    Monte Carlo estimates where only the joint distribution matters.  The
    call needs little memory beyond its result; n >= 1.
    """
    states = np.empty((count, n), dtype=np.complex128)
    stream = SeedStream(seed)
    rows = max(1, STATE_BLOCK_AMPLITUDES // n)
    for first in range(0, count, rows):
        z = stream.normal(2 * n * min(rows, count - first)).reshape(-1, 2 * n)
        block = states[first : first + len(z)]
        block.real = z[:, :n]
        block.imag = z[:, n:]
        block /= np.linalg.norm(block, axis=1)[:, None]
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
