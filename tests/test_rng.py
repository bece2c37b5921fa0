"""Uniform and Gaussian draws from keys, with scipy as a test-only reference.

``rng._ndtri`` ports Cephes' ``ndtri``, which ``scipy.special.ndtri`` runs.
On its central branch, e^-2 < u <= 1 - e^-2, both evaluate the same
rational with IEEE additions, multiplications and one division, so they
agree bit for bit wherever the C build does not fuse a multiply and an add;
x86-64 builds do not.  The tails take two logarithms, numpy's here and the C
library's in scipy: where those differ in the last bit, the difference is
carried through the tail formula, so the tails are compared with a scalar
transcription of the C routine instead, bit for bit, and with scipy within a
few units in the last place.
"""

import math
import platform

import numpy as np
import pytest
from scipy.special import ndtri

from spdesim import rng
from spdesim.rng import derive_key, normals_from_keys, uniform_from_keys

# x86-64 builds of scipy evaluate the central rational without fused
# multiply-adds; other platforms may fuse them and move its last bit.
CENTRAL_ULPS = 0 if platform.machine().lower() in ("x86_64", "amd64") else 2
# A one-ulp difference in either tail logarithm moves the result by up to
# about six units in its last place (seen: six in 4,000,000 draws).
TAIL_ULPS = 8


def _key_draws(count, seed=11):
    return uniform_from_keys(derive_key(np.arange(count, dtype=np.uint64), seed))


def _central(u):
    return (u > rng._EXP_M2) & (u <= rng._ONE_MINUS_EXP_M2)


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def _cephes_ndtri(y0, log):
    """Cephes ndtri.c for one double, line by line, with the given log."""

    def polevl(x, coef):
        ans = coef[0]
        for c in coef[1:]:
            ans = ans * x + c
        return ans

    def p1evl(x, coef):
        ans = x + coef[0]
        for c in coef[1:]:
            ans = ans * x + c
        return ans

    code = 1
    y = y0
    if y > rng._ONE_MINUS_EXP_M2:
        y = 1.0 - y
        code = 0
    if y > rng._EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * polevl(y2, rng._P0) / p1evl(y2, rng._Q0))
        return x * rng._S2PI
    x = math.sqrt(-2.0 * log(y))
    x0 = x - log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * polevl(z, rng._P1) / p1evl(z, rng._Q1)
    else:
        x1 = z * polevl(z, rng._P2) / p1evl(z, rng._Q2)
    x = x0 - x1
    return -x if code != 0 else x


def _numpy_log(y):
    return float(np.log(np.float64(y)))


def test_top_keys_map_below_one_and_to_finite_normals():
    # the 2^11 keys whose top 53 bits are all ones used to give exactly 1.0
    # and, through the inverse CDF, +inf
    top = (np.uint64(2**53 - 1) << np.uint64(11)) | np.arange(2**11, dtype=np.uint64)
    assert top[-1] == np.uint64(2**64 - 1)
    u = uniform_from_keys(top)
    assert (u == np.nextafter(1.0, 0.0)).all()
    z = normals_from_keys(top)
    assert np.isfinite(z).all()
    assert (z == z[0]).all() and 8.0 < z[0] < 8.3


def test_clamp_keeps_every_other_keys_bits():
    keys = np.concatenate([
        derive_key(np.arange(200_000, dtype=np.uint64), 3),
        np.array([0, 1, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11 - 1], dtype=np.uint64),
    ])
    assert ((keys >> np.uint64(11)) != np.uint64(2**53 - 1)).all()
    old = ((keys >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    got = uniform_from_keys(keys)
    assert np.array_equal(got.view(np.uint64), old.view(np.uint64))
    assert (got > 0.0).all() and (got < 1.0).all()


def test_ndtri_matches_scipy_on_a_million_key_draws():
    u = _key_draws(1_000_000)
    got = rng._ndtri(u)
    want = ndtri(u)
    central = _central(u)
    assert 0.72 < central.mean() < 0.74
    if CENTRAL_ULPS == 0:
        assert np.array_equal(got[central], want[central])
    else:
        assert _ulps(got[central], want[central]).max() <= CENTRAL_ULPS
    tails = ~central
    assert _ulps(got[tails], want[tails]).max() <= TAIL_ULPS
    # a last-bit difference of the logarithm is rare
    assert np.count_nonzero(got[tails] != want[tails]) < 1e-3 * tails.sum()


def test_ndtri_is_the_cephes_routine_with_numpys_log():
    u = _key_draws(20_000, seed=12)
    got = rng._ndtri(u)
    want = ndtri(u)
    tails = np.flatnonzero(~_central(u))
    assert tails.size > 4_000
    for i in tails:
        assert got[i] == _cephes_ndtri(float(u[i]), _numpy_log)
    if CENTRAL_ULPS == 0:
        # the transcription with the C library's log is scipy's routine
        for i in tails[:2_000]:
            assert want[i] == _cephes_ndtri(float(u[i]), math.log)


def test_ndtri_at_the_branch_points():
    points = [
        rng._EXP_M2,  # central/tail switch below the middle
        rng._ONE_MINUS_EXP_M2,  # central/tail switch above it
        math.exp(-2.0),
        1.0 - math.exp(-2.0),
        math.exp(-32.0),  # x = 8, the switch between the tail rationals
        2.0**-54,  # the smallest uniform from a key
        float(np.nextafter(1.0, 0.0)),  # the largest, clamped
        0.5,
    ]
    u = np.array(points)
    u = np.unique(np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)]))
    u = u[u < 1.0]
    got = rng._ndtri(u)
    want = ndtri(u)
    assert np.isfinite(got).all()
    assert np.array_equal(np.sign(got), np.sign(u - 0.5))
    central = _central(u)
    assert _ulps(got[central], want[central]).max() <= CENTRAL_ULPS
    assert _ulps(got[~central], want[~central]).max() <= TAIL_ULPS
    for value, z in zip(u, got):
        assert z == _cephes_ndtri(float(value), _numpy_log)
    # both tail rationals are exercised: x = sqrt(-2 log u) crosses 8
    x = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    assert (x < 8.0).any() and (x >= 8.0).any()


@pytest.mark.parametrize("shape", [(8, 1, 4096), (3, 5, 7), (1,), ()])
def test_ndtri_keeps_the_shape_and_draws_each_value_alone(shape):
    # a draw does not depend on the other draws of its call, so any split
    # of a block into calls, by worker or by group of paths, has its bits
    u = _key_draws(max(1, math.prod(shape)), seed=13).reshape(shape)
    got = rng._ndtri(u)
    assert np.shape(got) == shape
    flat = u.reshape(-1)
    split = [rng._ndtri(part) for part in np.array_split(flat, min(flat.size, 7))]
    assert np.array_equal(np.reshape(got, -1), np.concatenate(split))
    assert rng._ndtri(flat[-1]) == np.reshape(got, -1)[-1]
