import numpy as np
import pytest
from hypothesis import settings

from typlab.operators import HermitianOperator
from typlab.rng import SeedStream

settings.register_profile("numeric", max_examples=25, deadline=None)
settings.load_profile("numeric")


def random_hermitian(n: int, seed: int, scale: float = 1.0) -> HermitianOperator:
    """A seeded dense Hermitian matrix with normal entries (test helper)."""
    stream = SeedStream(seed)
    z = stream.normal(2 * n * n)
    x = (z[: n * n] + 1j * z[n * n :]).reshape(n, n)
    return HermitianOperator(scale * 0.5 * (x + x.conj().T))


def random_state_block(n: int, count: int, seed: int) -> np.ndarray:
    """Raw (count, n) complex gaussian block, unnormalized (test helper)."""
    z = SeedStream(seed).normal(2 * n * count).reshape(count, 2 * n)
    return z[:, :n] + 1j * z[:, n:]


def pm1_with_plus_fraction(n: int, fraction: float, seed: int) -> HermitianOperator:
    """Diagonal +/-1 observable with round(fraction * n) randomly placed +1
    entries, balanced or not (test helper)."""
    plus = SeedStream(seed).shuffled_indices(n)[: round(fraction * n)]
    diag = np.full(n, -1.0)
    diag[plus] = 1.0
    return HermitianOperator(np.diag(diag))


@pytest.fixture
def pm1_observable():
    from typlab.models import build_observable_pm1

    return build_observable_pm1(8, seed=123)
