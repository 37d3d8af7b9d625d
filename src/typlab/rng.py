"""Seeded random streams with a pinned bit-level algorithm.

All randomness in typlab flows through :class:`SeedStream`.  It draws raw
64-bit words from a Philox-4x64-10 counter generator (via numpy's bit
generator) and applies fixed, documented transforms on top of the raw
stream:

* uniforms: the high 53 bits of each word, scaled by 2^-53;
* normals: Box-Muller on uniform pairs, cosine block first (a request for
  ``count`` normals consumes ``half = ceil(count/2)`` words for each of the
  two uniform blocks, drawn together as one run of words: pair j reads
  words j and half + j, output position p < half is the cosine of pair p
  and position p >= half the sine of pair p - half);
* shuffles: descending Fisher-Yates with ``j = floor(u * (i + 1))``;
* angles: ``2*pi*u``.

numpy's ``Generator`` convenience methods are deliberately not used: their
mapping from bits to variates may change between numpy releases, whereas
the raw Philox output and the transforms above are fixed here.  The stream
identity is recorded in run metadata as :data:`RNG_ALGORITHM`.

Philox is counter-based, so any word of a stream is reached without
drawing the ones before it: ``np.random.Philox(key=seed).advance(k)`` skips
4k words, as one counter step gives four, and drawing ``offset % 4`` more
reaches word ``offset``.  :meth:`SeedStream.normal_chunks` seeks this way
to yield a request for normals slice by slice, and never holds the whole
draw; :meth:`SeedStream.normal` is its one slice.  Box-Muller runs in
blocks of ``NORMAL_BLOCK_PAIRS`` pairs.  Neither the slicing nor the
blocking changes a value or the stream position, so :data:`RNG_ALGORITHM`
is unchanged by them.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import TyplabError

MASK64 = (1 << 64) - 1

_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_CHILD_KEY = 0x9E3779B97F4A7C15  # odd, so (i + 1) * key is injective mod 2^64

RNG_ALGORITHM = "philox4x64-10/u53/box-muller"
SEED_DERIVATION = f"child_seed(i) = mix64(base_seed XOR (i+1)*{_CHILD_KEY:#x})"

# Box-Muller pairs per block: each temporary of a block is 64 KiB, below
# glibc's mmap threshold, so the blocks reuse heap memory and freeing them
# never raises that threshold for later large allocations.
NORMAL_BLOCK_PAIRS = 8192


def _u53(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the high 53 bits of each 64-bit word."""
    return (words >> np.uint64(11)) * np.float64(2.0**-53)


def _box_muller(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius and angle of the Box-Muller pairs whose uniforms come from the
    words ``w1`` (mapped to (0, 1] so the log stays finite) and ``w2``."""
    radius = np.sqrt(-2.0 * np.log(1.0 - _u53(w1)))
    theta = (2.0 * np.pi) * _u53(w2)
    return radius, theta


def _merged_spans(*spans: tuple[int, int]) -> list[tuple[int, int]]:
    """The non-empty ``[lo, hi)`` spans, overlapping or touching ones merged."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(span for span in spans if span[0] < span[1]):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def mix64(x: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_MULT_1) & MASK64
    x ^= x >> 27
    x = (x * _MIX_MULT_2) & MASK64
    x ^= x >> 31
    return x


def child_seed(base_seed: int, index: int) -> int:
    """Derive the index-th child of a base seed.

    ``mix64(base ^ (index + 1) * KEY)`` with an odd 64-bit constant; the
    multiply is injective modulo 2^64 and mix64 is a bijection, so distinct
    indices in [0, 2^64 - 1) give distinct children for a fixed base.
    """
    return mix64((base_seed ^ ((index + 1) * _CHILD_KEY)) & MASK64)


class SeedStream:
    """Deterministic stream of random variates from one 64-bit seed."""

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed <= MASK64:
            raise TyplabError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self._bits = np.random.Philox(key=seed)
        self._position = 0  # words drawn so far

    def _seek(self, position: int) -> np.random.Philox:
        """A fresh generator at word ``position`` of this seed's stream."""
        bits = np.random.Philox(key=self.seed)
        bits.advance(position // 4)  # one counter step gives four words
        bits.random_raw(position % 4)
        return bits

    def raw(self, count: int) -> np.ndarray:
        """``count`` raw 64-bit words from the Philox counter stream."""
        self._position += count
        return np.atleast_1d(self._bits.random_raw(count))

    def uniform(self, count: int) -> np.ndarray:
        """Doubles in [0, 1), one word each, from the high 53 bits."""
        return _u53(self.raw(count))

    def normal(self, count: int) -> np.ndarray:
        """``count`` standard normals via Box-Muller, in the layout of the
        module docstring: the one slice of ``normal_chunks(count, count)``."""
        if count == 0:
            return np.empty(0)
        return next(self.normal_chunks(count, count))

    def normal_chunks(self, count: int, size: int) -> Iterator[np.ndarray]:
        """``count`` standard normals as consecutive slices of ``size``
        values (the last may be shorter); size >= 1.

        The stream moves on at once by the ``2 * ceil(count/2)`` words the
        request draws.  Each slice seeks its words instead: its
        cosine positions ``[lo, hi)`` read words ``[lo, hi)`` and
        ``[half + lo, half + hi)``, and its sine positions those of pairs
        ``[lo - half, hi - half)``.  A pair whose cosine and sine both fall
        in the slice, as all do in ``normal``'s one slice, is transformed
        once.  The transform runs in blocks of ``NORMAL_BLOCK_PAIRS``, so
        one slice and one block of temporaries are all a consumer holds.
        """
        half = (count + 1) // 2
        start = self._position
        self._position += 2 * half
        self._bits = self._seek(self._position)
        return self._normal_slices(start, half, count, size)

    def _normal_slices(self, start: int, half: int, count: int, size: int):
        for s in range(0, count, size):
            e = min(s + size, count)
            out = np.empty(e - s)
            # The slice holds the cosines of pairs [s, e) and the sines of
            # pairs [s - half, e - half), each cut to [0, half).  A pair in
            # both spans is transformed once.
            cosines = (s, min(e, half))
            sines = (max(s - half, 0), e - half)
            for lo, hi in _merged_spans(cosines, sines):
                words1 = self._seek(start + lo)
                words2 = self._seek(start + half + lo)
                for p in range(lo, hi, NORMAL_BLOCK_PAIRS):
                    q = min(p + NORMAL_BLOCK_PAIRS, hi)
                    radius, theta = _box_muller(words1.random_raw(q - p), words2.random_raw(q - p))
                    for trig, (a, b), first in ((np.cos, cosines, s), (np.sin, sines, s - half)):
                        a, b = max(a, p), min(b, q)
                        if a < b:
                            np.multiply(
                                radius[a - p : b - p],
                                trig(theta[a - p : b - p]),
                                out=out[a - first : b - first],
                            )
            yield out

    def angles(self, count: int) -> np.ndarray:
        """Uniform angles in [0, 2*pi)."""
        return (2.0 * np.pi) * self.uniform(count)

    def shuffled_indices(self, n: int) -> np.ndarray:
        """A uniformly shuffled ``arange(n)`` (descending Fisher-Yates).

        Index choice ``j = floor(u * (i + 1))`` from 53-bit uniforms; the
        modulo bias is below 2^-40 for the dimensions used here.
        """
        idx = np.arange(n)
        if n < 2:
            return idx
        u = self.uniform(n - 1)
        for k, i in enumerate(range(n - 1, 0, -1)):
            j = int(u[k] * (i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        return idx
