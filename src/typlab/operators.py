"""Dense complex Hermitian operator algebra.

Construction and validation of Hermitian operators, eigendecomposition with
its residual checks, the +1 block of the eigenvector matrix for a diagonal
+/-1 observable given by its sign vector, and the dense Heisenberg-picture
A(t) that verify checks the propagation kernel against.  Operators are
dense complex128; values are immutable after construction.

Memory contract: beyond H and its eigenvectors U, set-up's only n x n
temporaries are ``eigh``'s own, the copy of H it factors and its workspace.
Hermitian validation works on row panels of ``VALIDATION_PANEL_ENTRIES``
entries, ``eigh``'s eigenvectors are kept without a copy, and the residual
checks work on (n, ``PROBE_COUNT``) probe blocks.  So a run peaks below
``PEAK_MATRICES`` dense n x n complex matrices of 16 n^2 bytes (5.36 by peak
RSS above the interpreter's at n = 1200, 5.21 at n = 2000).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import TyplabError
from .rng import SeedStream

HERMITICITY_ATOL = 1e-12
RECONSTRUCTION_RTOL = 1e-8
UNITARITY_RTOL = 1e-10
VALIDATION_PANEL_ENTRIES = 1 << 16
PEAK_MATRICES = 6
PROBE_COUNT = 8
PROBE_SEED = 1977  # fixed, so a config's residual estimates repeat bit for bit


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


def _probes(n: int) -> np.ndarray:
    """The (n, PROBE_COUNT) complex probe block X, the same for every call at
    a given n: its real and imaginary parts are standard normals, interleaved
    row-major, from ``SeedStream(PROBE_SEED)``."""
    normals = SeedStream(PROBE_SEED).normal(2 * n * PROBE_COUNT)
    return normals.view(np.complex128).reshape(n, PROBE_COUNT)


def _adjoint_times(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """U^dagger Y for an (n, k) block Y, formed as (Y^dagger U)^dagger so that
    no conjugate copy of U is made."""
    return (y.conj().T @ u).conj().T


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
    raising :class:`TyplabError`; it keeps ``unitarity_residual``, the
    estimate of ||U^dagger U - I||_F / sqrt(n), <= ``UNITARITY_RTOL`` and
    ``reconstruction_residual``, the estimate of
    ||U diag(w) U^dagger - H||_F / ||H||_F, <= ``RECONSTRUCTION_RTOL`` (None
    without a source).

    Both are ``PROBE_COUNT``-probe estimates (Freivalds' check): for the
    fixed complex Gaussian block X of :func:`_probes` and an error matrix E,
    ||E X||_F / ||X||_F estimates ||E||_F / sqrt(n), so the checks cost
    O(k n^2) and form no n x n product.  They are ||U^dagger (U X) - X||_F
    / ||X||_F and sqrt(n) ||U (w * U^dagger X) - H X||_F / (||X||_F ||H||_F).
    The hardest error for few probes is rank 1: a decomposition whose
    residual is f times a tolerance passes with probability at most
    P(Gamma(8, 1) <= 8 / f^2), about 1.1e-3 at f = 2 and 3.9e-14 at f = 10
    (Halko, Martinsson & Tropp, SIAM Rev. 53, 217 (2011), sec. 4.3).  The
    shipped configs' residuals sit about 1e6 times below the tolerances.
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
        probes = _probes(n)
        probe_norm = max(float(np.linalg.norm(probes)), 1e-300)
        error = _adjoint_times(u, u @ probes)
        error -= probes
        unitarity = float(np.linalg.norm(error)) / probe_norm
        if unitarity > UNITARITY_RTOL:
            raise TyplabError(
                f"eigenvector matrix is not unitary: ||U^dagger U - I||_F = "
                f"{unitarity * np.sqrt(n):.3e} at dim {n}"
            )
        reconstruction = None
        if source is not None:
            h = source.matrix
            if h.shape != u.shape:
                raise TyplabError(f"operator dim {source.dim} does not match {n}")
            h_norm = max(float(np.linalg.norm(h)), 1e-300)
            scaled = _adjoint_times(u, probes)
            scaled *= w[:, None]
            error = u @ scaled
            error -= h @ probes
            residual = float(np.linalg.norm(error)) * np.sqrt(n) / probe_norm
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
        object.__setattr__(self, "unitarity_residual", unitarity)
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
