"""Dense complex Hermitian operator algebra.

Construction and validation of Hermitian operators, eigendecomposition with
its residual checks, the +1 block of the eigenvector matrix for a diagonal
+/-1 observable given by its sign vector, and the dense Heisenberg-picture
A(t) that verify checks the propagation kernel against.  Operators are
dense complex128; values are immutable after construction.

Memory contract: set-up holds no n x n temporary beyond ``eigh``'s own.
Validation works on row panels of ``VALIDATION_PANEL_ENTRIES`` entries,
``eigh``'s eigenvectors are kept without a copy and the residual checks
subtract I and H in place, so a run peaks below ``PEAK_MATRICES`` dense
n x n complex matrices of 16 n^2 bytes (5.5 by peak RSS at n = 1200).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import TyplabError

HERMITICITY_ATOL = 1e-12
RECONSTRUCTION_RTOL = 1e-8
UNITARITY_RTOL = 1e-10
VALIDATION_PANEL_ENTRIES = 1 << 16
PEAK_MATRICES = 6


def _max_asymmetry(m: np.ndarray) -> float:
    """max |M - M^dagger| over all entries, one row panel at a time.  A NaN
    or infinite entry makes its own difference non-finite, and the first
    such panel maximum is returned at once: NaN would pass a tolerance test.
    """
    n = m.shape[0]
    rows = max(1, VALIDATION_PANEL_ENTRIES // max(n, 1))
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for s in range(0, n, rows):
            diff = m[:, s : s + rows].T.conj()
            np.subtract(m[s : s + rows], diff, out=diff)
            panel = float(np.abs(diff).max())
            if not np.isfinite(panel):
                return panel
            worst = max(worst, panel)
    return worst


@dataclass(frozen=True)
class HermitianOperator:
    """A validated dense Hermitian matrix.

    Construction is the validation gate: every entry must be finite, and
    conjugate symmetry must hold to ``HERMITICITY_ATOL`` per entry (which
    also pins the diagonal's imaginary parts).  The stored array is a
    read-only copy, and the checks add only row-panel temporaries to it.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise TyplabError(f"expected a square matrix, got shape {m.shape}")
        m = np.array(m, dtype=np.complex128, order="C", copy=True)
        asym = _max_asymmetry(m)
        if not np.isfinite(asym):
            raise TyplabError("matrix has non-finite entries (NaN or inf)")
        if asym > HERMITICITY_ATOL:
            raise TyplabError(
                f"matrix is not Hermitian: max |M - M^dagger| = {asym:.3e} "
                f"exceeds tolerance {HERMITICITY_ATOL:.1e}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector matrix of an operator.

    Columns of ``eigenvectors`` are the eigenvectors.  A writeable array is
    copied, so the caller's later writes cannot reach the decomposition; a
    read-only one that owns its memory (from :func:`eigendecompose`) is not.
    Construction checks unitarity, and given ``source`` H the reconstruction,
    raising :class:`TyplabError`; it keeps ``unitarity_residual`` =
    ||U^dagger U - I||_F / sqrt(n) <= ``UNITARITY_RTOL`` and
    ``reconstruction_residual`` = ||U diag(w) U^dagger - H||_F / ||H||_F
    <= ``RECONSTRUCTION_RTOL`` (None without a source).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: InitVar[HermitianOperator | None] = None
    unitarity_residual: float = field(init=False)
    reconstruction_residual: float | None = field(init=False)

    def __post_init__(self, source):
        w = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        u = np.asarray(self.eigenvectors)
        if u.flags.writeable or not u.flags.owndata or u.dtype != np.complex128:
            u = np.array(u, dtype=np.complex128, order="C", copy=True)
        u.flags.writeable = False
        n = u.shape[0]
        if w.ndim != 1 or u.ndim != 2 or u.shape != (n, n) or w.shape[0] != n:
            raise TyplabError(
                f"eigenvalues shape {w.shape} does not match eigenvectors shape {u.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise TyplabError("eigenvalues contain non-finite entries")
        if np.any(np.diff(w) < 0):
            raise TyplabError("eigenvalues are not sorted ascending")
        gram = u.conj().T @ u
        gram[np.diag_indices(n)] -= 1.0
        gram_residual = float(np.linalg.norm(gram))
        del gram
        if gram_residual > UNITARITY_RTOL * np.sqrt(n):
            raise TyplabError(
                f"eigenvector matrix is not unitary: ||U^dagger U - I||_F = "
                f"{gram_residual:.3e} at dim {n}"
            )
        reconstruction = None
        if source is not None:
            h = source.matrix
            if h.shape != u.shape:
                raise TyplabError(f"operator dim {source.dim} does not match {n}")
            h_norm = max(float(np.linalg.norm(h)), 1e-300)
            scaled = u.conj().T
            scaled *= w[:, None]
            back = u @ scaled
            back -= h
            residual = float(np.linalg.norm(back))
            if residual > RECONSTRUCTION_RTOL * h_norm:
                raise TyplabError(
                    f"reconstruction residual {residual:.3e} exceeds "
                    f"{RECONSTRUCTION_RTOL:.0e} * ||H||_F = {RECONSTRUCTION_RTOL * h_norm:.3e} "
                    f"at dim {n}"
                )
            reconstruction = residual / h_norm
        w.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", u)
        object.__setattr__(self, "unitarity_residual", gram_residual / np.sqrt(max(n, 1)))
        object.__setattr__(self, "reconstruction_residual", reconstruction)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


def eigendecompose(op: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator (LAPACK ``eigh``).

    The result satisfies ``||U diag(w) U^dagger - H||_F <= 1e-8 ||H||_F``;
    a solver failure or a residual above that raises
    :class:`TyplabError` with the dimension and residual.  ``eigh``'s
    eigenvectors are frozen and kept without a copy.
    """
    try:
        w, u = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise TyplabError(f"eigh did not converge at dim {op.dim}: {exc}") from exc
    u.flags.writeable = False
    return SpectralDecomposition(w, u, source=op)


def spectral_moments(spectrum: np.ndarray) -> dict[int, float]:
    """The moments c_i = Tr{A^i}/n = mean(lambda^i), i = 1..8, of a real
    spectrum as an ``{order: value}`` dict; no typlab code calls it."""
    values = np.asarray(spectrum, dtype=np.float64)
    return {i: float(np.mean(values**i)) for i in range(1, 9)}


def plus_rows(signs: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """U_+, the rows of the eigenvector matrix U where the observable is +1.

    ``signs`` is the observable's +/-1 sign vector as
    :class:`~typlab.ensembles.OmegaParams` validates it, A = 2 P_+ - I, so
    that U^dagger P_+ U = U_+^dagger U_+.  The block is (n_+, n) and empty
    when A = -I.
    """
    return dec.eigenvectors[signs > 0]


def heisenberg_observable(
    op: HermitianOperator, dec: SpectralDecomposition, t: float
) -> HermitianOperator:
    """A(t) = e^{+iHt} A e^{-iHt} through the spectral decomposition of H.

    In the energy eigenbasis the evolution is an elementwise phase,
    ``A~(t)_jk = exp(i (w_j - w_k) t) A~_jk``.  The result is symmetrized
    against round-off before validation; at t = 0 it equals A up to the
    basis round trip (well below 1e-12 for the operators used here).
    """
    u = dec.eigenvectors
    a_eig = u.conj().T @ op.matrix @ u
    phase = np.exp(1j * dec.eigenvalues * t)
    rotated = (phase[:, None] * a_eig) * phase.conj()[None, :]
    back = u @ rotated @ u.conj().T
    return HermitianOperator(0.5 * (back + back.conj().T))
