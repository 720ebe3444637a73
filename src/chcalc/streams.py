"""Counter-based random streams: numpy's SeedSequence hash over a block of seeds.

``_seed_words`` hashes a block of entropies at once into the state words each
one's PCG64 would draw from its SeedSequence; ``_generator`` builds that stream.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import check_min

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# _POOL words filled by hashmix/mix, then read out by the output hash.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _hasher(init: int, mult: int):
    """One of SeedSequence's two word hashes; each call advances its constant."""
    const = init

    def hash_word(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hash_word


def _seed_words(entropy: list) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of a
    block of entropies. An int entry is split into its little-endian 32-bit
    words, shared by every row; uint32 array entries give one word per row
    and broadcast together. Each step of the hash runs on whole columns in
    uint32 arithmetic; with no array entry the block is one row."""
    words = []
    for entry in entropy:
        if isinstance(entry, np.ndarray):
            words.append(entry)
            continue
        entry = operator.index(entry)
        check_min(entry, "seed entropy", 0)
        words.append(np.array([entry & _MASK32], dtype=np.uint32))
        while entry > _MASK32:
            entry >>= 32
            words.append(np.array([entry & _MASK32], dtype=np.uint32))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output(pool[i % _POOL]) for i in range(2 * _POOL)], axis=-1)
    # Pairs of words form little-endian uint64s, as in generate_state.
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PrecomputedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The stream of one ``_seed_words`` row."""
    return np.random.Generator(np.random.PCG64(_PrecomputedSeed(words)))
