"""Model systems: equidistant-spectrum H0, the +/-1 observable, and the
two perturbation kinds, gaussian and constant, each with one fixed
diagonal convention.

Everything is built in the eigenbasis of H0, where the observable is
diagonal; it is carried as its sign vector, the (n,) vector of its +/-1
diagonal entries, and never as a dense matrix.  V is a plain array,
Hermitian by construction; H = H0 + V is validated once.  All construction
is deterministic under the seed of a :class:`~typlab.config.ModelSpec`, the
config's model section; the observable placement and the perturbation
entries draw from separate child streams of that seed (indices
``OBSERVABLE_STREAM`` and ``PERTURBATION_STREAM``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelSpec
from .operators import HermitianOperator
from .rng import SeedStream, child_seed

OBSERVABLE_STREAM = 0
PERTURBATION_STREAM = 1


class SignVector(np.ndarray):
    """A read-only (n,) float64 sign vector.  ``matrix`` builds its dense
    diagonal form on each use, for code written against dense operators
    such as ``perfbench/oracle.py``; typlab itself never builds it."""

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self)).astype(np.complex128)


def build_observable_pm1(n: int, seed: int) -> SignVector:
    """Sign vector of a diagonal observable with equally many randomly
    placed +1 and -1 entries.

    The +1 entries go to the first n/2 positions of a seeded shuffle of
    ``arange(n)``, n even.  By construction c_1 = 0 and c_2 = 1 exactly.
    """
    perm = SeedStream(seed).shuffled_indices(n)
    diag = np.full(n, -1.0)
    diag[perm[: n // 2]] = 1.0
    signs = diag.view(SignVector)
    signs.flags.writeable = False
    return signs


def build_v_gaussian(n: int, mean_sq: float, seed: int) -> np.ndarray:
    """Hermitian perturbation with complex gaussian off-diagonal elements,
    as an (n, n) complex array.

    For j < k the entry is x + iy with x, y independent zero-mean normals
    of variance mean_sq/2 each, so E|V_jk|^2 = mean_sq; the lower triangle
    is the conjugate.  The diagonal is real gaussian with variance mean_sq.

    Stream consumption order: upper-triangle real parts (row-major j < k),
    upper-triangle imaginary parts, then the diagonal.
    The scaled draws are written one row j at a time, into V[j, j+1:] and,
    conjugated, into the column V[j+1:, j], so the only n x n array is V
    itself; H's validation checks it.
    """
    v = np.zeros((n, n), dtype=np.complex128)
    if mean_sq == 0:
        return v
    stream = SeedStream(seed)
    m = n * (n - 1) // 2
    x, y = stream.normal(m), stream.normal(m)
    sigma = np.sqrt(mean_sq / 2.0)
    np.multiply(x, sigma, out=x)
    np.multiply(y, sigma, out=y)
    start = 0
    for j in range(n - 1):
        stop = start + n - 1 - j
        v.real[j, j + 1 :] = x[start:stop]
        v.imag[j, j + 1 :] = y[start:stop]
        np.conjugate(v[j, j + 1 :], out=v[j + 1 :, j])
        start = stop
    del x, y  # freed before H's validation copies V
    np.fill_diagonal(v, np.sqrt(mean_sq) * stream.normal(n))
    return v


def build_v_constant(n: int, value_sq: float) -> np.ndarray:
    """Perturbation with every entry equal to sqrt(value_sq), as an (n, n)
    complex array: a rank-1 matrix whose only nonzero eigenvalue is
    n * sqrt(value_sq).
    """
    return np.full((n, n), np.sqrt(value_sq), dtype=np.complex128)


def build_perturbation(spec: ModelSpec) -> np.ndarray:
    """The perturbation selected by a spec, seeded from its child stream."""
    v_seed = child_seed(spec.seed, PERTURBATION_STREAM)
    if spec.v_kind == "gaussian":
        return build_v_gaussian(spec.n, spec.v_scale, v_seed)
    return build_v_constant(spec.n, spec.v_scale)


def assemble_hamiltonian(spec: ModelSpec) -> HermitianOperator:
    """H = H0 + V for the given spec.

    H0 is diagonal with equidistant levels ``k * delta_e``, k = 0..n-1,
    starting at zero (expectation-value dynamics are invariant under a
    global energy shift).  Its levels are added in place to the diagonal of
    V, and the sum is validated once, so the only n x n arrays are V and
    the validated copy H.
    """
    h = build_perturbation(spec)
    levels = np.arange(spec.n)
    h[levels, levels] += levels * float(spec.delta_e)
    return HermitianOperator(h)


@dataclass(frozen=True)
class ModelSystem:
    """A built model: the observable's sign vector and the Hamiltonian."""

    observable: SignVector
    hamiltonian: HermitianOperator


def build_model(spec: ModelSpec) -> ModelSystem:
    """Build the observable's sign vector and the Hamiltonian for a spec."""
    return ModelSystem(
        observable=build_observable_pm1(spec.n, child_seed(spec.seed, OBSERVABLE_STREAM)),
        hamiltonian=assemble_hamiltonian(spec),
    )
