"""Deterministic seed derivation and low-level random streams.

Every random quantity in the library is keyed by a 64-bit value derived
from (master_seed, stream tag, indices...) through iterated SplitMix64
scrambling.  Keys depend only on their inputs, never on generation order,
so paths, modes and steps can be produced in parallel and still match a
serial run bit for bit.  The mixing function below is the fixed,
documented construction; changing it breaks stored-seed reproducibility.

Generators are Philox, a counter-based bit generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): its whole state is a
key, a counter and an output buffer, so re-keying one generator with key k,
a zero counter and an empty buffer gives draw for draw the stream of a fresh
``Philox(key=k)``.  ``keyed_generators`` does that for a run of keys and
saves building (and seeding) a generator per key.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

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


def derive_key(master_seed, *parts):
    """Mix a master seed with integer parts into a child key.

    Parts may be scalars or broadcastable integer arrays; the result
    broadcasts accordingly.  Scalars return a plain int.
    """
    acc = splitmix64(np.uint64(int(master_seed) & 0xFFFFFFFFFFFFFFFF))
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


def keyed_generators(keys):
    """One Generator re-keyed before each yield: ``make_generator(k)`` per key.

    Before yielding for key k the Philox state is set to key [k, 0], counter
    0, an empty buffer (``buffer_pos`` 4) and no stored 32-bit half, which is
    exactly the state ``Philox(key=k)`` starts in.  The same object is
    yielded each time, so draw from it before advancing the iterator.
    """
    bitgen = np.random.Philox(0)
    generator = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"]["counter"][:] = 0
    state["buffer"][:] = 0
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    key = state["state"]["key"]
    key[1] = 0
    for k in np.asarray(keys, dtype=np.uint64).ravel():
        key[0] = k
        bitgen.state = state
        yield generator
