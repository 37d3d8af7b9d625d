import numpy as np
import pytest
from hypothesis import settings

from typlab.ensembles import OmegaParams
from typlab.errors import TyplabError
from typlab.evolution import IMAG_RESIDUE_RTOL
from typlab.operators import HermitianOperator, SpectralDecomposition, heisenberg_observable
from typlab.rng import SeedStream

settings.register_profile("numeric", max_examples=25, deadline=None)
settings.load_profile("numeric")


def random_hermitian(n: int, seed: int, scale: float = 1.0) -> HermitianOperator:
    """A seeded dense Hermitian matrix with normal entries (test helper)."""
    stream = SeedStream(seed)
    z = stream.normal(2 * n * n)
    x = (z[: n * n] + 1j * z[n * n :]).reshape(n, n)
    return HermitianOperator(scale * 0.5 * (x + x.conj().T))


def build_h0(n: int, delta_e: float) -> HermitianOperator:
    """Diagonal H0 with equidistant levels k * delta_e, k = 0..n-1 (test
    helper; the dense H0 that ``assemble_hamiltonian`` adds in place)."""
    if n < 2:
        raise TyplabError(f"dimension must be >= 2, got {n}")
    if not delta_e > 0:
        raise TyplabError(f"level spacing must be > 0, got {delta_e}")
    return HermitianOperator(np.diag(np.arange(n) * float(delta_e)).astype(np.complex128))


def random_state_block(n: int, count: int, seed: int) -> np.ndarray:
    """Raw (count, n) complex gaussian block, unnormalized (test helper)."""
    z = SeedStream(seed).normal(2 * n * count).reshape(count, 2 * n)
    return z[:, :n] + 1j * z[:, n:]


def pm1_with_plus_fraction(n: int, fraction: float, seed: int) -> np.ndarray:
    """Sign vector of a diagonal +/-1 observable with round(fraction * n)
    randomly placed +1 entries, balanced or not (test helper)."""
    plus = SeedStream(seed).shuffled_indices(n)[: round(fraction * n)]
    diag = np.full(n, -1.0)
    diag[plus] = 1.0
    return diag


def dense_observable(signs: np.ndarray) -> HermitianOperator:
    """The dense diagonal operator of a sign vector (test helper; the form
    the dense-operator oracles below take)."""
    return HermitianOperator(np.diag(np.asarray(signs, dtype=float)))


def is_diagonal(op: HermitianOperator) -> bool:
    """True when every off-diagonal entry of an operator is exactly zero
    (test helper).

    Counts nonzero real and imaginary parts over the whole matrix and over
    its diagonal, so no n x n copy is made.
    """
    diag = op.matrix.diagonal()
    nonzero_diag = np.count_nonzero(diag.real) + np.count_nonzero(diag.imag)
    return bool(np.count_nonzero(op.matrix.view(np.float64)) == nonzero_diag)


def ha_uniform(d_op: HermitianOperator) -> float:
    """Uniform-ensemble mean of the expectation value of any Hermitian D:
    Tr{D}/n (test helper; the dense closed form)."""
    return float(np.trace(d_op.matrix).real) / d_op.dim


def hv_uniform(d_op: HermitianOperator) -> float:
    """Uniform-ensemble variance of the expectation value of any Hermitian
    D: (c_2 - c_1^2)/(n + 1) (test helper; the dense closed form)."""
    n = d_op.dim
    c1 = float(np.trace(d_op.matrix).real) / n
    # Tr{D^2} = ||D||_F^2 for Hermitian D; no matrix product needed.
    c2 = float(np.vdot(d_op.matrix, d_op.matrix).real) / n
    return (c2 - c1**2) / (n + 1)


def moment_map(c_op: HermitianOperator, a_op: HermitianOperator, d: float) -> HermitianOperator:
    """Map a measured operator to its uniform-ensemble equivalent:
    ``D = (1 + d A) C (1 + d A) / (1 + d^2)`` (test helper).

    Moments of the substitute ensemble's expectation values of C equal
    uniform-ensemble moments of D.
    """
    if c_op.dim != a_op.dim:
        raise TyplabError(f"operator dims differ: {c_op.dim} vs {a_op.dim}")
    shift = np.eye(a_op.dim, dtype=np.complex128) + d * a_op.matrix
    mapped = shift @ c_op.matrix @ shift / (1.0 + d**2)
    return HermitianOperator(0.5 * (mapped + mapped.conj().T))


def hv_at_time_exact(
    a_op: HermitianOperator, dec: SpectralDecomposition, d: float, t: float
) -> float:
    """Exact expectation-value variance at time t for any Hermitian A,
    ``hv_uniform(moment_map(A(t), A, d))`` (test helper; the dense
    per-time composition that ``exact_hv_series`` replaces)."""
    return hv_uniform(moment_map(heisenberg_observable(a_op, dec, t), a_op, d))


def dense_expectations(a_op: HermitianOperator, states: np.ndarray) -> np.ndarray:
    """<phi|A|phi> for each row of a (count, n) block and any Hermitian A,
    through the dense product, after asserting the imaginary residue is
    negligible (test helper; the oracle for the sign-vector kernel)."""
    if states.ndim != 2 or states.shape[1] != a_op.dim:
        raise TyplabError(
            f"state block shape {states.shape} does not match observable dim {a_op.dim}"
        )
    applied = states @ a_op.matrix.T
    values = np.sum(states.conj() * applied, axis=1)
    norms = np.sum(states.conj() * states, axis=1).real
    worst = float(np.abs(values.imag).max(initial=0.0))
    if worst > IMAG_RESIDUE_RTOL * float(norms.max(initial=1.0)):
        raise TyplabError(
            f"imaginary residue {worst:.3e} exceeds {IMAG_RESIDUE_RTOL:.0e} * ||phi||^2"
        )
    return values.real


def hilbert_schmidt_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr{X^dagger Y} of two square matrices
    (test helper).

    Conjugate-symmetric: ``(X, Y) == conj((Y, X))``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise TyplabError(f"X must be square, got shape {x.shape}")
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise TyplabError(f"Y must be square, got shape {y.shape}")
    if x.shape != y.shape:
        raise TyplabError(f"shapes differ: {x.shape} vs {y.shape}")
    # Tr{X^dagger Y} = sum_jk conj(X_jk) Y_jk, elementwise, no matrix product.
    return complex(np.vdot(x, y))


def average_density(params: OmegaParams, n: int) -> HermitianOperator:
    """Analytic ensemble average of the projector onto an omega state:
    ``(1 + 2 d A + d^2 A^2) / (n (1 + d^2))`` (test helper).

    Its trace is ``(1 + d^2 c_2)/(1 + d^2)``, exactly 1 for c_2 = 1.
    """
    a = np.diag(params.observable)
    if n != a.shape[0]:
        raise TyplabError(f"n = {n} does not match observable dim {a.shape[0]}")
    d = params.d
    mat = np.eye(n, dtype=np.complex128) + 2.0 * d * a + d**2 * (a @ a)
    return HermitianOperator(mat / (n * (1.0 + d**2)))


# Observables the sign-vector gate (OmegaParams) must reject with
# TyplabError: entries other than exactly +/-1, matrices, and the
# empty vector, whose c1 would be NaN.
NOT_PM1_OBSERVABLES = {
    "empty": lambda: np.array([]),
    "diag(2,-2)": lambda: np.array([2.0, -2.0]),
    "diag(1,0)": lambda: np.array([1.0, 0.0]),
    "dense": lambda: random_hermitian(2, seed=1),
    "nan": lambda: np.array([1.0, np.nan]),
    "inf": lambda: np.array([np.inf, -1.0]),
    "near-one": lambda: np.array([1.0, -1.0 + 1e-9]),
    "complex": lambda: np.array([1.0, -1.0 + 0j]),
    "matrix": lambda: np.diag([1.0, -1.0]),
}


@pytest.fixture
def pm1_observable():
    from typlab.models import build_observable_pm1

    return build_observable_pm1(8, seed=123)
