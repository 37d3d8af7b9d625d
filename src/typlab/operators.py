"""Dense complex Hermitian operator algebra.

Construction and validation of Hermitian operators, eigendecomposition,
spectral moments, the sign vector of a diagonal +/-1 observable and the +1
block of the eigenvector matrix, and Heisenberg-picture time dependence of
observables.  Everything here is dense complex128 apart from the real sign
vector; values are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotDiagonalError,
    NotHermitianError,
    NotSquareError,
    OutOfRangeError,
    TyplabError,
)

HERMITICITY_ATOL = 1e-12
RECONSTRUCTION_RTOL = 1e-8
UNITARITY_RTOL = 1e-10
MOMENT_ORDERS = tuple(range(1, 9))


def _frozen_complex(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HermitianOperator:
    """A validated dense Hermitian matrix.

    Construction is the validation gate: every entry must be finite, and
    conjugate symmetry must hold to ``HERMITICITY_ATOL`` per entry (which
    also pins the diagonal's imaginary parts).  The stored array is
    read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
        m = np.array(m, dtype=np.complex128, order="C", copy=True)
        # A NaN or infinite entry, on the diagonal or off it, makes its own
        # difference non-finite, and max() propagates it; NaN would pass the
        # tolerance comparison below.
        with np.errstate(invalid="ignore"):
            asym = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
        if not np.isfinite(asym):
            raise TyplabError("matrix has non-finite entries (NaN or inf)")
        if asym > HERMITICITY_ATOL:
            raise NotHermitianError(asym, HERMITICITY_ATOL)
        diag_imag = float(np.abs(m.diagonal().imag).max()) if m.size else 0.0
        if diag_imag > HERMITICITY_ATOL:
            raise NotHermitianError(diag_imag, HERMITICITY_ATOL)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "HermitianOperator":
        return cls(np.eye(n, dtype=np.complex128))

    def is_diagonal(self) -> bool:
        """True when every off-diagonal entry is exactly zero.

        Counts nonzero real and imaginary parts over the whole matrix and
        over its diagonal, so no n x n copy is made; counting the float64
        view is faster than counting complex entries.
        """
        diag = self.matrix.diagonal()
        nonzero_diag = np.count_nonzero(diag.real) + np.count_nonzero(diag.imag)
        return bool(np.count_nonzero(self.matrix.view(np.float64)) == nonzero_diag)

    def real_diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector matrix of an operator.

    Columns of ``eigenvectors`` are the eigenvectors.  Unitarity is checked
    at construction; the reconstruction residual against the source operator
    is checked by :func:`eigendecompose`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        u = _frozen_complex(self.eigenvectors)
        n = u.shape[0]
        if w.ndim != 1 or u.ndim != 2 or u.shape != (n, n) or w.shape[0] != n:
            raise DimensionMismatchError(
                f"eigenvalues shape {w.shape} does not match eigenvectors shape {u.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ConvergenceError("eigenvalues contain non-finite entries")
        if np.any(np.diff(w) < 0):
            raise ConvergenceError("eigenvalues are not sorted ascending")
        gram_residual = float(
            np.linalg.norm(u.conj().T @ u - np.eye(n), ord="fro")
        )
        if gram_residual > UNITARITY_RTOL * np.sqrt(n):
            raise ConvergenceError(
                f"eigenvector matrix is not unitary: ||U^dagger U - I||_F = "
                f"{gram_residual:.3e} at dim {n}"
            )
        w.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", u)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


def eigendecompose(op: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator (LAPACK ``eigh``).

    The result satisfies ``||U diag(w) U^dagger - H||_F <= 1e-8 ||H||_F``;
    a solver failure or a residual above that raises
    :class:`ConvergenceError` with the dimension and residual.
    """
    h = op.matrix
    n = op.dim
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge at dim {n}: {exc}") from exc
    dec = SpectralDecomposition(w, u)
    h_norm = float(np.linalg.norm(h, ord="fro"))
    residual = float(np.linalg.norm((u * w) @ u.conj().T - h, ord="fro"))
    if residual > RECONSTRUCTION_RTOL * max(h_norm, 1e-300):
        raise ConvergenceError(
            f"reconstruction residual {residual:.3e} exceeds "
            f"{RECONSTRUCTION_RTOL:.0e} * ||H||_F = {RECONSTRUCTION_RTOL * h_norm:.3e} "
            f"at dim {n}"
        )
    return dec


@dataclass(frozen=True)
class SpectralMoments:
    """Normalized spectral moments c_i = Tr{A^i}/n for i = 1..8."""

    c: dict[int, float] = field(repr=False)

    def __post_init__(self):
        if sorted(self.c) != list(MOMENT_ORDERS):
            raise OutOfRangeError(f"moments must cover orders 1..8, got {sorted(self.c)}")
        c = {i: float(v) for i, v in self.c.items()}
        # Even-power moments are means of non-negative numbers; c2 >= c1^2 and
        # c8 >= c4^2 are Jensen inequalities on the spectral distribution.
        slack = 1e-12
        if c[2] - c[1] ** 2 < -slack * max(1.0, abs(c[2])):
            raise OutOfRangeError(f"spectral variance negative: c2={c[2]}, c1={c[1]}")
        if c[4] < -slack or c[8] < -slack:
            raise OutOfRangeError(f"even moments negative: c4={c[4]}, c8={c[8]}")
        if c[8] - c[4] ** 2 < -slack * max(1.0, c[4] ** 2):
            raise OutOfRangeError(f"power-mean inequality violated: c8={c[8]}, c4={c[4]}")
        object.__setattr__(self, "c", c)

    def __getitem__(self, order: int) -> float:
        if order not in self.c:
            raise OutOfRangeError(f"moment order must be in 1..8, got {order}")
        return self.c[order]

    def as_list(self) -> list[float]:
        return [self.c[i] for i in MOMENT_ORDERS]


def spectral_moments(
    op: HermitianOperator, dec: SpectralDecomposition | None = None
) -> SpectralMoments:
    """All moments c_i = Tr{A^i}/n, i = 1..8, in one pass.

    Uses repeated matrix multiplication, or the eigenvalue power sum when a
    decomposition is supplied; the two routes agree to 1e-10 relative.  An
    exactly diagonal operator is its own decomposition and is handled
    without matrix products.  Index the result by order; an order outside
    1..8 raises :class:`OutOfRangeError`.
    """
    n = op.dim
    if dec is not None:
        if dec.dim != n:
            raise DimensionMismatchError(
                f"decomposition dim {dec.dim} does not match operator dim {n}"
            )
        spectrum = dec.eigenvalues
    elif op.is_diagonal():
        spectrum = op.real_diagonal()
    else:
        spectrum = None

    c: dict[int, float] = {}
    if spectrum is not None:
        for i in MOMENT_ORDERS:
            c[i] = float(np.mean(spectrum**i))
    else:
        a = op.matrix
        power = a
        c[1] = float(np.trace(power).real) / n
        for i in MOMENT_ORDERS[1:]:
            power = power @ a
            c[i] = float(np.trace(power).real) / n
    return SpectralMoments(c)


def pm1_signs(a_op: HermitianOperator) -> np.ndarray:
    """The real diagonal of an observable that is diagonal with every entry
    exactly +1 or -1, so that A = 2 P_+ - I with P_+ the projector onto the
    +1 basis states; anything else raises :class:`NotDiagonalError`.
    """
    signs = a_op.real_diagonal()
    if not a_op.is_diagonal() or not np.all(np.abs(signs) == 1.0):
        raise NotDiagonalError("the observable must be diagonal with entries +1 or -1")
    return signs


def plus_rows(a_op: HermitianOperator, dec: SpectralDecomposition) -> np.ndarray:
    """U_+, the rows of the eigenvector matrix U where the observable is +1.

    The observable must pass :func:`pm1_signs`, so that
    U^dagger P_+ U = U_+^dagger U_+.  The block is (n_+, n) and empty when
    A = -I.
    """
    if a_op.dim != dec.dim:
        raise DimensionMismatchError(
            f"observable dim {a_op.dim} does not match decomposition dim {dec.dim}"
        )
    return dec.eigenvectors[pm1_signs(a_op) > 0]


def heisenberg_observable(
    op: HermitianOperator, dec: SpectralDecomposition, t: float
) -> HermitianOperator:
    """A(t) = e^{+iHt} A e^{-iHt} through the spectral decomposition of H.

    In the energy eigenbasis the evolution is an elementwise phase,
    ``A~(t)_jk = exp(i (w_j - w_k) t) A~_jk``.  The result is symmetrized
    against round-off before validation; at t = 0 it equals A up to the
    basis round trip (well below 1e-12 for the operators used here).
    """
    if op.dim != dec.dim:
        raise DimensionMismatchError(
            f"observable dim {op.dim} does not match decomposition dim {dec.dim}"
        )
    u = dec.eigenvectors
    a_eig = u.conj().T @ op.matrix @ u
    phase = np.exp(1j * dec.eigenvalues * t)
    rotated = (phase[:, None] * a_eig) * phase.conj()[None, :]
    back = u @ rotated @ u.conj().T
    return HermitianOperator(0.5 * (back + back.conj().T))
