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

Gaussian draws invert the normal CDF with Moshier's Cephes ``ndtri``, the
routine ``scipy.special.ndtri`` runs, ported to numpy with its coefficients
and its Horner order.  Its central branch, e^-2 < u <= 1 - e^-2 (about
73 % of draws), is a rational function of u - 0.5 made of IEEE additions,
multiplications and one division, so it has the C routine's bits.  The
tails set x = sqrt(-2 log u) (of 1 - u above the middle) and switch
rationals in 1/x at x = 8, that is u = e^-32.  Their ``log`` is numpy's,
which may differ from the C library's in the last bit and, like the BLAS
products the schemes make, between CPUs; within one machine draws stay
bit-identical for every worker count and block split.
"""

from __future__ import annotations

import threading

import numpy as np

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

# The largest double below 1: the clamp that keeps uniforms in (0, 1).
_BELOW_ONE = np.nextafter(1.0, 0.0)

# Cephes ndtri (Moshier): branch points e^-2 and 1 - e^-2, sqrt(2 pi), and
# the rational approximations, highest power first.  P0/Q0 serve
# |u - 0.5| <= 3/8 in the variable (u - 0.5)^2; P1/Q1 and P2/Q2 serve
# x = sqrt(-2 log u) in [2, 8) and [8, 64) in the variable 1/x.  The Q
# arrays omit their leading coefficient, which is 1.
_EXP_M2 = 0.13533528323661269189
_ONE_MINUS_EXP_M2 = 1.0 - 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _splitmix64(x):
    """One SplitMix64 output round, vectorized over uint64 arrays; the
    caller ignores the overflow of the wrapping arithmetic."""
    x = x + _GAMMA
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


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
        acc = np.asarray(master_seed, dtype=np.uint64)
    else:
        seed = int(master_seed) & _MASK
        if all(type(part) is int and 0 <= part <= _MASK for part in parts):
            acc = _splitmix64_int(seed)
            for part in parts:
                acc = _splitmix64_int(acc ^ ((part * _GAMMA_INT) & _MASK))
            return acc
        acc = np.asarray(seed, dtype=np.uint64)
    with np.errstate(over="ignore"):
        acc = _splitmix64(acc)
        for part in parts:
            acc = _splitmix64(acc ^ (np.asarray(part, dtype=np.uint64) * _GAMMA))
    if acc.ndim == 0:
        return int(acc)
    return acc


def uniform_from_keys(keys):
    """Map uint64 keys to doubles in the open interval (0, 1).

    The top 53 bits of a key plus one half, times 2^-53.  For the 2^11 keys
    whose top bits are all ones that sum rounds to 2^53; they map to the
    largest double below 1 instead, and every other key is unaffected.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    u = ((keys >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE)


def normals_from_keys(keys):
    """Standard normal draws, one per key, via the inverse Gaussian CDF.

    The inverse is Cephes' ``ndtri`` in numpy (see the module docstring):
    draws with e^-2 < u <= 1 - e^-2 have its bits, and tail draws may
    differ from them in the last bit, where numpy's ``log`` does.
    """
    return _ndtri(uniform_from_keys(keys))


def _polevl(x, coef):
    """Cephes ``polevl``: coef[0]·x^N + ... + coef[N], by Horner's rule."""
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coef):
    """Cephes ``p1evl``: `_polevl` with an implied leading coefficient 1."""
    out = x + coef[0]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _ndtri(u):
    """Cephes ``ndtri``, the inverse standard normal CDF, for doubles in the
    open interval (0, 1).

    The central rational is evaluated in place over every draw, then
    overwritten on the tail draws, which are gathered and inverted alone.
    """
    shape = np.shape(u)
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    y = u - 0.5
    y2 = y * y
    x = _polevl(y2, _P0)
    x *= y2
    x /= _p1evl(y2, _Q0)
    x *= y
    x += y
    x *= _S2PI
    tail = np.flatnonzero((u <= _EXP_M2) | (u > _ONE_MINUS_EXP_M2))
    if tail.size:
        x[tail] = _ndtri_tail(u[tail])
    return x.reshape(shape)[()]


def _ndtri_tail(u):
    """`_ndtri` of a 1-d array of draws with u <= e^-2 or u > 1 - e^-2."""
    # min(u, 1 - u) is u below the middle and 1 - u above it.
    x = np.minimum(u, 1.0 - u)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = _polevl(z, _P1)
    x1 *= z
    x1 /= _p1evl(z, _Q1)
    if x.max() >= 8.0:
        far = np.flatnonzero(x >= 8.0)
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x0 = np.log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    x0 -= x1
    # positive above the middle, negative below it
    return np.copysign(x0, u - 0.5, out=x0)


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
