"""Deterministic seed derivation and low-level random streams.

Every random quantity in the library is keyed by a 64-bit value derived
from (master_seed, stream tag, indices...) through iterated SplitMix64
scrambling.  Keys depend only on their inputs, never on generation order,
so paths, modes and steps can be produced in parallel and still match a
serial run bit for bit.  The mixing function below is the fixed,
documented construction; changing it breaks stored-seed reproducibility.

Generators are Philox4x64-10, a counter-based bit generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): output block b
of key k is ten keyed rounds applied to the counter (b, 0, 0, 0), so the
stream of every key can be computed at once.  ``philox_raw`` does that in
numpy for an array of keys and returns, bit for bit, the raw outputs that
``make_generator(k)`` would draw from; callers map them to uniforms and
bounded integers the way numpy's ``Generator`` does.  The first two rounds
multiply words that depend on the key alone or on the block alone, so they
run on (K, 1) and (1, blocks) arrays; only rounds 3-10 run on (K, blocks).
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import ndtri

# SplitMix64 constants, as Python ints for one key and as uint64 for arrays.
_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al.).
# A multiplier is kept with its low and high 32-bit halves for `_mulhilo`.
_PHILOX_M0 = tuple(map(np.uint64, (0xD2E7470EE14C6C93, 0xE14C6C93, 0xD2E7470E)))
_PHILOX_M1 = tuple(map(np.uint64, (0xCA5A826395121157, 0x95121157, 0xCA5A8263)))
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)

# Stream tags for the independent noise components (arbitrary fixed values).
TAG_WIENER = 0x57
TAG_JUMP = 0x4A
TAG_PATH = 0x50
TAG_TRIAL = 0x54
TAG_INITIAL = 0x49
TAG_PROBE = 0x48


def splitmix64(x):
    """One SplitMix64 output round, vectorized over uint64 arrays."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + _GAMMA
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        x = x ^ (x >> np.uint64(31))
    return x


def _splitmix64_int(x):
    """`splitmix64` of one Python int in [0, 2^64), in Python arithmetic."""
    x = (x + _GAMMA_INT) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1_INT) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2_INT) & _MASK
    return x ^ (x >> 31)


def derive_key(master_seed, *parts):
    """Mix a master seed with integer parts into a child key.

    Parts may be scalars or broadcastable integer arrays, and so may the
    seed, as a uint64 array; the result broadcasts accordingly.  Scalars
    return a plain int; when the seed is an int and every part a Python int
    in [0, 2^64) the key is computed in Python arithmetic, with the same
    bits as the uint64 array arithmetic.
    """
    if isinstance(master_seed, np.ndarray):
        acc = splitmix64(master_seed)
    else:
        seed = int(master_seed) & _MASK
        if all(type(part) is int and 0 <= part <= _MASK for part in parts):
            acc = _splitmix64_int(seed)
            for part in parts:
                acc = _splitmix64_int(acc ^ ((part * _GAMMA_INT) & _MASK))
            return acc
        acc = splitmix64(np.uint64(seed))
    for part in parts:
        p = np.asarray(part, dtype=np.uint64)
        with np.errstate(over="ignore"):
            acc = splitmix64(acc ^ (p * _GAMMA))
    if acc.ndim == 0:
        return int(acc)
    return acc


def uniform_from_keys(keys):
    """Map uint64 keys to doubles in the open interval (0, 1)."""
    keys = np.asarray(keys, dtype=np.uint64)
    return ((keys >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normals_from_keys(keys):
    """Standard normal draws, one per key, via the inverse Gaussian CDF."""
    return ndtri(uniform_from_keys(keys))


def make_generator(key):
    """Counter-based numpy Generator for a derived key (Poisson, uniforms)."""
    return np.random.Generator(np.random.Philox(key=int(key)))


# One Philox Generator per thread for `rekeyed_generator`, with the state
# dict of a fresh stream whose key is overwritten per call.
_REKEYED = threading.local()


def rekeyed_generator(key):
    """A Generator at the start of the stream of `key`, drawing bit for bit
    what ``make_generator(key)`` draws.

    Building a Philox draws operating-system entropy that a given key then
    discards; this re-keys one Generator per thread instead.  It is valid
    until the next call in the same thread, so a caller must not let it
    escape.
    """
    if not hasattr(_REKEYED, "generator"):
        _REKEYED.generator = make_generator(0)
        _REKEYED.state = _REKEYED.generator.bit_generator.state
    _REKEYED.state["state"]["key"][0] = int(key)
    _REKEYED.generator.bit_generator.state = _REKEYED.state
    return _REKEYED.generator


def _mulhilo(m, x):
    """High and low 64-bit halves of m·x for a uint64 array x, where `m` is
    a multiplier with its low and high 32-bit halves.

    The high half sums 32-bit partial products with no intermediate
    overflow (Hacker's Delight, §8-2).
    """
    m, m_lo, m_hi = m
    x_lo, x_hi = x & _LO32, x >> _HALF
    t = ((m_lo * x_lo) >> _HALF) + m_lo * x_hi
    u = (t & _LO32) + m_hi * x_lo
    return m_hi * x_hi + (t >> _HALF) + (u >> _HALF), m * x


def philox_raw(keys, count):
    """First `count` raw outputs of ``Philox(key=k)`` per key, shape (K, count).

    Philox4x64-10 with key (k, 0): output 4(b−1) + i is word i of the ten
    rounds applied to the counter (b, 0, 0, 0), the counter starting at 1
    as in numpy.  Row j equals ``np.random.Philox(key=keys[j]).random_raw(count)``.
    Round 1 leaves (k, 0, hi(M0·b), lo(M0·b)), so round 2 multiplies M0·k,
    which depends on the key alone, and M1·hi(M0·b), on the block alone:
    both rounds run on (K, 1) and (1, blocks) arrays, whose words broadcast
    to (K, blocks) in round 3.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    blocks = -(-int(count) // 4)
    counters = np.arange(1, blocks + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hi, lo = _mulhilo(_PHILOX_M0, counters)
        k0, k1 = keys + _PHILOX_W0, _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, keys)
        hi1, lo1 = _mulhilo(_PHILOX_M1, hi)
        c0, c1, c2, c3 = hi1 ^ k0, lo1, hi0 ^ (lo ^ k1), lo0
        for _ in range(8):
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    raw = np.stack((c0, c1, c2, c3), axis=-1).reshape(keys.size, 4 * blocks)
    return raw[:, :count]
