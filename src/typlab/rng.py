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
* angles, in :func:`~typlab.ensembles.commuting_unitary`: ``2*pi*u``.

numpy's ``Generator`` convenience methods are deliberately not used: their
mapping from bits to variates may change between numpy releases, whereas
the raw Philox output and the transforms above are fixed here.  The stream
identity is recorded in run metadata as :data:`RNG_ALGORITHM`.

:meth:`SeedStream.normal` evaluates Box-Muller in blocks of at most
``NORMAL_BLOCK_PAIRS`` pairs and writes the normals over the words it drew.
Neither the blocking nor the reuse of the word buffer changes a value or
the stream position, so :data:`RNG_ALGORITHM` is unchanged by it.

A :class:`SeedStream` built from a 1-d sequence of k seeds draws the k
streams side by side: every draw is a (k, count) block whose row i equals
the same draw from ``SeedStream(seeds[i])``, and the transforms above run
along the last axis.  One ``Philox`` serves all rows: before each row's
words it is re-keyed to that row's seed through its public ``state`` (key
``[seed, 0]`` and the counter of the words already drawn, as
``Philox(key=seed)`` would have it), which costs a few microseconds where
building a keyed ``Philox`` costs several times that.  So a block of k
short draws, such as the Haar states of
:func:`~typlab.ensembles.uniform_states`, is one call and not k.
"""
from __future__ import annotations

from collections.abc import Sequence

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
    """Deterministic streams of random variates, one per 64-bit seed:
    ``SeedStream(seed)`` draws 1-d arrays, and ``SeedStream(seeds)`` (k, count)
    blocks of k streams side by side (the module docstring)."""

    def __init__(self, seed: int | Sequence[int]):
        one = np.ndim(seed) == 0
        seeds = [int(s) for s in ([seed] if one else seed)]
        for s in seeds:
            if not 0 <= s <= MASK64:
                raise TyplabError(f"seed must fit in 64 bits, got {s}")
        # One seed keeps its keyed generator, so its draws return the
        # generator's own array with no row copy (the model's V is one draw
        # of 2 n^2 normals); rows re-key one shared generator.
        self._rows = None if one else seeds
        self._bits = np.random.Philox(key=seeds[0] if one else 0)
        self._drawn = 0  # words drawn from each row's stream

    def raw(self, count: int) -> np.ndarray:
        """``count`` raw 64-bit words from each Philox counter stream.

        For rows, the generator is re-keyed to each row's seed at the counter
        of the words already drawn; the counter counts blocks of 4 words, so
        the words already read from a partly read block are drawn again and
        dropped.
        """
        if self._rows is None:
            return self._bits.random_raw(count)
        words = np.empty((len(self._rows), count), dtype=np.uint64)
        skip = self._drawn % 4
        state = self._bits.state
        state["state"]["counter"] = np.array([self._drawn // 4, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 4  # an empty buffer
        for row, seed in zip(words, self._rows):
            state["state"]["key"] = np.array([seed, 0], dtype=np.uint64)
            self._bits.state = state
            row[:] = self._bits.random_raw(skip + count)[skip:]
        self._drawn += count
        return words

    def uniform(self, count: int) -> np.ndarray:
        """Doubles in [0, 1), one word each, from the high 53 bits."""
        return _u53(self.raw(count))

    def normal(self, count: int) -> np.ndarray:
        """``count`` standard normals from each stream via Box-Muller, in the
        layout of the module docstring.

        Each stream's ``2 * half`` words come from one draw, which leaves it
        where two draws of ``half`` would.  Box-Muller runs along the last
        axis, in blocks of ``max(1, NORMAL_BLOCK_PAIRS // half)`` rows and,
        when ``half`` exceeds ``NORMAL_BLOCK_PAIRS``, of that many pairs:
        pairs ``[s, e)`` read u1 (mapped to (0, 1] so the log stays finite)
        from words ``[s, e)`` and u2 from words ``[half + s, half + e)``, and
        write their cosines and sines over exactly those words, which no later
        block reads.  The result is a view of the word buffer, so the call
        needs no memory beyond its result and one block of temporaries.
        """
        if count == 0:
            return self.raw(0).view(np.float64)
        half = (count + 1) // 2
        words = self.raw(2 * half)
        pairs = words.reshape(-1, 2 * half)  # one row per stream, a view
        out = pairs.view(np.float64)
        rows = max(1, NORMAL_BLOCK_PAIRS // half)
        for first in range(0, len(pairs), rows):
            r = slice(first, first + rows)
            for s in range(0, half, NORMAL_BLOCK_PAIRS):
                e = min(s + NORMAL_BLOCK_PAIRS, half)
                radius = np.sqrt(-2.0 * np.log(1.0 - _u53(pairs[r, s:e])))
                theta = (2.0 * np.pi) * _u53(pairs[r, half + s : half + e])
                np.multiply(radius, np.cos(theta), out=out[r, s:e])
                np.multiply(radius, np.sin(theta), out=out[r, half + s : half + e])
        return words.view(np.float64)[..., :count]

    def shuffled_indices(self, n: int) -> np.ndarray:
        """A uniformly shuffled ``arange(n)`` (descending Fisher-Yates), from
        a one-seed stream.

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
