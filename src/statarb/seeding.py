"""Per-run random streams, derived for a batch of runs at a time.

Run r of an experiment reads the normals of
``np.random.default_rng(seed)`` with
``seed = SeedSequence([master_seed, axis_index, r]).generate_state(1,
np.uint64)[0]``.  Built run by run, those two SeedSequences (one explicit,
one inside ``default_rng``) cost ≈26 µs per run, a fifth of a short run.
SeedSequence's hash (O'Neill's ``seed_seq`` design as adopted by numpy, pool
size 4) is fixed uint32 arithmetic, so this module evaluates it on whole
columns of runs at once, in two passes:

1. ``run_seeds``: ``[master_seed, axis_index, r]`` -> the 64-bit run seed;
2. ``stream_states``: seed -> the four uint64 words of
   ``SeedSequence(seed).generate_state(4, np.uint64)``, all that PCG64 reads.

``RunStream`` hands one run's four words to ``default_rng``, which then
builds the generator ``default_rng(seed)`` would build.  The tests pin both
passes and the resulting normals against numpy's own SeedSequence.

This module imports ``numpy.random``, so ``harness`` imports it on first use,
not when the package is imported.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["SEED_BATCH", "RunStream", "run_seeds", "run_streams",
           "stream_states"]

# Runs per batch: each temporary column is 4 KiB of uint32.
SEED_BATCH = 1024

# numpy.random.SeedSequence's constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(n: int) -> list[int]:
    """The uint32 entropy words SeedSequence takes from a nonnegative int,
    low word first; 0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's mix_entropy for a batch: entropy[i] is the uint32
    column of entropy word i, one entry per run; returns the four pool
    columns.  uint32 array arithmetic wraps as the reference's does."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L
        result -= y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint64) for a batch: row k
    holds run k's words, each row contiguous."""
    hash_const = _INIT_B
    state = np.empty((pool[0].size, 2 * n_words), dtype="<u4")
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        state[:, i] = value
    # word pairs are little-endian halves of one uint64, on any host
    return state.view("<u8").astype(np.uint64, copy=False)


def run_seeds(master_seed: int, axis_index: int, runs: range) -> np.ndarray:
    """The uint64 seed of each run r in runs:
    SeedSequence([master_seed, axis_index, r]).generate_state(1, np.uint64).
    """
    one_word = range(runs.start, max(runs.start, min(runs.stop, 2**32)))
    n = len(one_word)
    entropy = [np.full(n, w, dtype=np.uint32)
               for w in _words(master_seed) + _words(axis_index)]
    entropy.append(np.arange(one_word.start, one_word.stop, dtype=np.uint32))
    seeds = _generate_state(_pool(entropy), 1)[:, 0]
    if one_word.stop == runs.stop:
        return seeds
    # a run index of two or more words (no experiment has 2**32 runs)
    rest = [np.random.SeedSequence([master_seed, axis_index, r])
            .generate_state(1, np.uint64)[0]
            for r in range(one_word.stop, runs.stop)]
    return np.concatenate([seeds, np.array(rest, dtype=np.uint64)])


def stream_states(seeds: np.ndarray) -> np.ndarray:
    """Row k: SeedSequence(int(seeds[k])).generate_state(4, np.uint64), the
    words PCG64 is seeded from in default_rng(int(seeds[k]))."""
    # a seed below 2**32 is one entropy word, which SeedSequence pads to the
    # same pool as the two words [seed, 0]
    entropy = [(seeds & _MASK32).astype(np.uint32),
               (seeds >> 32).astype(np.uint32)]
    return _generate_state(_pool(entropy), 4)


class RunStream(ISeedSequence):
    """One run's seed for np.random.default_rng: the four PCG64 seeding
    words that SeedSequence(seed) would generate, computed in a batch."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int,
                       dtype: np.dtype | type = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a RunStream holds only the 4 uint64 words "
                             "that PCG64 reads")
        return self._state


def run_streams(master_seed: int, axis_index: int,
                n_runs: int) -> Iterator[RunStream]:
    """The streams of runs 0 .. n_runs-1, derived SEED_BATCH runs at a time;
    stream r seeds default_rng exactly as run_seeds' seed r does."""
    for start in range(0, n_runs, SEED_BATCH):
        runs = range(start, min(start + SEED_BATCH, n_runs))
        yield from map(RunStream, stream_states(
            run_seeds(master_seed, axis_index, runs)))
