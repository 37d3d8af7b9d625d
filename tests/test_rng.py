import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from typlab.errors import TyplabError
from typlab.rng import MASK64, NORMAL_BLOCK_PAIRS, SeedStream, child_seed, mix64


def reference_normal(stream: SeedStream, count: int) -> np.ndarray:
    """Box-Muller from two separate uniform draws, on whole arrays (the
    unblocked reference for ``SeedStream.normal``)."""
    if count == 0:
        return np.empty(0)
    half = (count + 1) // 2
    u1 = 1.0 - stream.uniform(half)
    u2 = stream.uniform(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    return np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:count]


def test_mix64_is_deterministic_and_64bit():
    assert mix64(0) == mix64(0)
    for x in (0, 1, 2**63, MASK64, 0xDEADBEEF):
        assert 0 <= mix64(x) <= MASK64


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=0, max_value=MASK64))
def test_mix64_injective_on_pairs(a, b):
    if a != b:
        assert mix64(a) != mix64(b)


def test_child_seed_injective_over_prefix():
    base = 987654321
    children = [child_seed(base, i) for i in range(10_000)]
    assert len(set(children)) == len(children)


def test_seed_stream_rejects_out_of_range_seed():
    with pytest.raises(TyplabError, match="seed must fit in 64 bits, got -1"):
        SeedStream(-1)
    with pytest.raises(TyplabError, match="seed must fit in 64 bits, got 18446744073709551616"):
        SeedStream(2**64)


def test_same_seed_same_stream():
    a = SeedStream(42)
    b = SeedStream(42)
    assert np.array_equal(a.raw(100), b.raw(100))
    assert np.array_equal(a.normal(101), b.normal(101))
    assert np.array_equal(a.uniform(7), b.uniform(7))


def test_uniform_range_and_mean():
    u = SeedStream(7).uniform(200_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # standard error 1/sqrt(12 N) ~ 6.5e-4
    assert abs(u.mean() - 0.5) < 4 * 6.5e-4


def test_normal_moments():
    z = SeedStream(11).normal(1_000_000)
    assert abs(z.mean()) < 4e-3  # 4 sigma of the sample mean
    assert abs(z.var() - 1.0) < 6e-3
    assert abs((z**3).mean()) < 1.5e-2


def test_normal_odd_count():
    z = SeedStream(3).normal(5)
    assert z.shape == (5,)
    assert np.all(np.isfinite(z))


# sha256 of the bytes of SeedStream(2024).normal(count) and of the normal(7)
# drawn next on the same stream, as the unblocked Box-Muller produced them.
# The counts straddle one block of NORMAL_BLOCK_PAIRS pairs (16384 normals);
# 40001 spans three blocks and ends on an odd count.
NORMAL_PINS = {
    16383: (
        "2e13b0ee51b57d17a7284d44aa35af3134885860440b6800f495eef6d415c6d9",
        "33c2ac5bd9c6fe335804f022eb45b108478cf7df64070bb04c8703a7a17d8e36",
    ),
    16384: (
        "e1c998974396e51b9e0214091ccac91889b82352caa9fe6f0ee60eb5374396f6",
        "33c2ac5bd9c6fe335804f022eb45b108478cf7df64070bb04c8703a7a17d8e36",
    ),
    16385: (
        "b096bca6c79a726197df5a71d5198cabb3253dbfce42e1853e8b1a7686ccaccf",
        "16c3119333d63442e6015f49e3c50b31f302b3b5c2218dfc84405b1417fd5de2",
    ),
    40001: (
        "8952f75c8197112525e7780152f203344f5bd24c6ecd192532bbf6cac16ba80d",
        "3298a4ed7a921850493d1b47115909cfac2b428a7b35b8dcbb0da4b4d39eda7e",
    ),
}


@pytest.mark.parametrize("count", sorted(NORMAL_PINS))
def test_normal_bits_pinned_across_blocks(count):
    stream = SeedStream(2024)
    values, following = stream.normal(count), stream.normal(7)
    digests = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (values, following))
    assert digests == NORMAL_PINS[count]


@pytest.mark.parametrize(
    "count",
    [0, 1, 2, 3, 5, 2 * NORMAL_BLOCK_PAIRS - 2, 2 * NORMAL_BLOCK_PAIRS + 1]
    + [2 * NORMAL_BLOCK_PAIRS + 2, 100_001],
)
def test_normal_matches_unblocked_reference(count):
    stream, reference = SeedStream(77), SeedStream(77)
    assert np.array_equal(stream.normal(count), reference_normal(reference, count))
    assert np.array_equal(stream.raw(3), reference.raw(3))  # same stream position


def test_angles_range():
    # commuting_unitary's angles 2*pi*u, down to u = 0 and up to the largest
    # uniform 1 - 2^-53, stay in [0, 2*pi).
    u = np.concatenate([SeedStream(5).uniform(10_000), [0.0, 1.0 - 2.0**-53]])
    a = (2.0 * np.pi) * u
    assert a.min() >= 0.0
    assert a.max() < 2 * np.pi


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=MASK64))
def test_shuffled_indices_is_permutation(n, seed):
    idx = SeedStream(seed).shuffled_indices(n)
    assert sorted(idx.tolist()) == list(range(n))


def test_shuffle_uniformity_coarse():
    # Position of element 0 should be uniform; chi-square-ish sanity check.
    n, trials = 8, 8000
    counts = np.zeros(n)
    for seed in range(trials):
        perm = SeedStream(seed).shuffled_indices(n)
        counts[int(np.where(perm == 0)[0][0])] += 1
    expected = trials / n
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))
