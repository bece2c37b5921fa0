"""Deterministic seed derivation and low-level random streams.

Every random quantity in the library is keyed by a 64-bit value derived
from (master_seed, stream tag, indices...) through iterated SplitMix64
scrambling.  Keys depend only on their inputs, never on generation order,
so paths, modes and steps can be produced in parallel and still match a
serial run bit for bit.  The mixing function below is the fixed,
documented construction; changing it breaks stored-seed reproducibility.

Generators are Philox4x64-10, a counter-based bit generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): output block b
of key k is ten keyed rounds applied to a counter that depends on b
alone, so any block of a stream can be computed without the blocks before
it.  ``philox_raw`` reads the first outputs of one key's stream in a
single C call; a caller that lays its draws out at fixed offsets of that
stream, as the condition checks do with one row of outputs per trial, can
still draw any one of them alone with ``Philox.advance``.
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


def philox_raw(key, count):
    """The first `count` raw outputs of the Philox stream of `key`:
    ``np.random.Philox(key=key).random_raw(count)``, one C call.  Outputs
    4b to 4b + 3 are block b, the first that ``Philox(key=key).advance(b)``
    draws.
    """
    return np.random.Philox(key=int(key)).random_raw(count)
