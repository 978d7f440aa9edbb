"""The draws random_cg makes from numpy.random.default_rng(seed), in pure Python.

default_rng(seed) is PCG64 seeded through a SeedSequence: the seed's 32-bit
words are hashed into a pool of four words, and the pool is hashed out into
a 128-bit state and a 128-bit increment.  PCG64 steps the 128-bit LCG and
outputs the XSL-RR permutation of the new state (O'Neill, PCG,
HMC-CS-2014-0905).  ``random`` keeps the top 53 bits of a 64-bit output.
``permutation`` is numpy's Fisher-Yates shuffle: each index comes from
masked rejection on 32-bit outputs, which split a 64-bit output low half
first and keep the high half for the next call.  The stream matches numpy's
draw for draw, so graphs generated with numpy read back the same.
"""

from __future__ import annotations

import operator

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants: the pool is filled and mixed with the A
# sequence and hashed out with the B sequence
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) pairs of count successive hashmix calls.

    The hash constant runs on by one multiplication per call, whatever the
    data, so the sequence is fixed.
    """
    out, const = [], init
    for _ in range(count):
        nxt = const * mult & _M32
        out.append((const, nxt))
        const = nxt
    return tuple(out)


# filling and mixing the pool takes 4 * max(words, 4) hashmix calls;
# hashing it out into four 64-bit words takes 8
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)
_MIX_ORDER = tuple((src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst)


def _seed_words(seed: int) -> list:
    """The seed as 32-bit words, least significant first; 0 is one word."""
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _seed_state(seed: int):
    """The (state, increment) PCG64 seeded from SeedSequence(seed) starts from."""
    entropy = _seed_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    consts = iter(_HASH_A if len(entropy) == _POOL_SIZE
                  else _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy)))

    def hashmix(value: int) -> int:
        x, m = next(consts)
        value = (value ^ x) * m & _M32
        return value ^ value >> 16

    def mix(dst: int, value: int) -> None:
        out = (_MIX_L * pool[dst] - _MIX_R * hashmix(value)) & _M32
        pool[dst] = out ^ out >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    # every word into every other, then each word past the pool into all
    for src, dst in _MIX_ORDER:
        mix(dst, pool[src])
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mix(dst, word)
    words = []
    for i, (x, m) in enumerate(_HASH_B):
        value = (pool[i % _POOL_SIZE] ^ x) * m & _M32
        words.append(value ^ value >> 16)
    # four little-endian 64-bit words: state high, state low, inc high, inc low
    state_hi, state_lo, inc_hi, inc_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    return state_hi << 64 | state_lo, inc_hi << 64 | inc_lo


class PCG64:
    """numpy's default_rng(seed) for ``random`` and ``permutation``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        initstate, initseq = _seed_state(seed)
        self._inc = (initseq << 1 | 1) & _M128
        # state 0, one step, add the seed, one more step
        self._state = ((self._inc + initstate) * _MULTIPLIER + self._inc) & _M128
        self._half = None  # the buffered high half of a 64-bit output

    def next64(self) -> int:
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _M128
        out = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (out >> rot | out << (64 - rot)) & _M64

    def next32(self) -> int:
        if self._half is not None:
            out, self._half = self._half, None
            return out
        out = self.next64()
        self._half = out >> 32
        return out & _M32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one output."""
        return (self.next64() >> 11) * 2.0**-53

    def permutation(self, items) -> list:
        """A shuffled copy of items."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            out[i], out[j] = out[j], out[i]
        return out
