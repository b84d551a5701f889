"""Trial substreams' first two uniforms, computed for many trials at once.

Trial k draws from numpy.random.default_rng(SeedSequence(entropy=seed,
spawn_key=(k,))).  This module reproduces, bit for bit and without
importing numpy.random, the two steps numpy takes per trial:

* SeedSequence: hash-mix the uint32 entropy words into a 4-word pool,
  then ``generate_state(4, uint64)``.  The seed's words fill the pool and
  are cross-mixed before the spawn key is mixed in, so that part is mixed
  once per seed (``seed_prefix``) and only the key word is mixed per
  trial (``state_words``).
* PCG64 (O'Neill, HMC-CS-2014-0905, 2014): the ``setseq`` seeding of a
  128-bit LCG from those four words, then two steps with XSL-RR output,
  each turned into a double as ``(x >> 11) * 2**-53``
  (``first_two_uniforms``).

Trials are lanes of uint32/uint64 arrays; the 128-bit LCG state is two
uint64 limbs.  Spawn keys must be below 2**32 (one uint32 word).
"""

import numpy as np

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MULT_HI, MULT_LO = np.uint64(PCG_MULT >> 64), np.uint64(PCG_MULT & (2**64 - 1))
MULT_LO0, MULT_LO1 = np.uint64(PCG_MULT & MASK32), np.uint64((PCG_MULT >> 32) & MASK32)


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of n successive hashmix calls, as (n, 1) columns."""
    xor, mul = [], []
    for _ in range(n):
        xor.append(init)
        init = init * mult & MASK32
        mul.append(init)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# generate_state(4, uint64) hashes the pool, cycled, into 8 uint32 words.
GEN_XOR, GEN_MUL = _hash_consts(INIT_B, MULT_B, 2 * POOL_SIZE)


def _mix(x: int, y: int) -> int:
    r = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return r ^ (r >> XSHIFT)


def seed_prefix(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool after every entropy word but the spawn key, and the hash
    constants that mix the key word into each pool word; (4, 1) columns."""
    words = []
    while True:
        words.append(seed & MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (POOL_SIZE - len(words))   # padded when a spawn key follows
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ (value >> XSHIFT)

    pool = [hashmix(w) for w in words[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    key_xor, key_mul = _hash_consts(hash_const, MULT_A, POOL_SIZE)
    return np.array(pool, np.uint32)[:, None], key_xor, key_mul


def state_words(prefix, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(k,)).generate_state(4, uint64) per key:
    a (4, len(keys)) uint64 array; ``keys`` is uint32."""
    pool, key_xor, key_mul = prefix
    h = (keys ^ key_xor) * key_mul
    h ^= h >> XSHIFT
    pool = MIX_MULT_L * pool - MIX_MULT_R * h
    pool ^= pool >> XSHIFT
    state = (np.concatenate([pool, pool]) ^ GEN_XOR) * GEN_MUL
    state ^= state >> XSHIFT
    state = state.astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * PCG_MULT + inc (mod 2**128) on (high, low) uint64 limbs."""
    # high word of lo * MULT_LO, from 32-bit halves (MULT_LO0 is the low one)
    a0, a1 = lo & MASK32, lo >> 32
    p00, p01, p10 = a0 * MULT_LO0, a0 * MULT_LO1, a1 * MULT_LO0
    mid = (p00 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    lo_mult_hi = a1 * MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * MULT_LO + inc_lo
    new_hi = lo_mult_hi + lo * MULT_HI + hi * MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def first_two_uniforms(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generator(PCG64(seed words)).random() twice, per column of ``words``."""
    # setseq seeding: inc = (words[2]:words[3] << 1) | 1; the state steps
    # from 0 (giving inc), adds initstate words[0]:words[1] and steps again
    inc_hi = (words[2] << 1) | (words[3] >> 63)
    inc_lo = (words[3] << 1) | 1
    lo = inc_lo + words[1]
    hi = inc_hi + words[0] + (lo < inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    draws = []
    for _ in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        rot = hi >> 58
        x = hi ^ lo
        x = (x >> rot) | (x << ((64 - rot) & 63))
        draws.append((x >> 11) * 2.0**-53)
    return draws[0], draws[1]
