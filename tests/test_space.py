import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spdesim.space import (
    GalerkinSpace,
    _dual_norms,
    build_sine_space,
    c_b,
    dual_norms,
    norms,
    pairing,
    project,
    restrict,
    sine_basis_matrix,
    smooth_profile,
    v_norms,
)


def sine_gram_oracle(n):
    """V-Gram entries by direct quadrature of the derivative products."""
    gram = np.zeros((n, n))
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            f = lambda x: (
                np.sqrt(2) * j * np.pi * np.cos(j * np.pi * x)
                * np.sqrt(2) * k * np.pi * np.cos(k * np.pi * x)
            )
            gram[j - 1, k - 1], _ = scipy.integrate.quad(f, 0.0, 1.0, limit=200)
    return gram


def test_sine_space_gram_against_quadrature():
    space = build_sine_space(3)
    assert np.allclose(space.v_gram, sine_gram_oracle(3), rtol=1e-10, atol=1e-10)


def test_sine_space_dim_one():
    space = build_sine_space(1)
    assert space.v_gram.shape == (1, 1)
    assert space.v_gram[0, 0] == pytest.approx(np.pi**2, rel=1e-12)


def test_sine_space_rejects_zero():
    with pytest.raises(ValueError):
        build_sine_space(0)


def test_nesting_restriction_matches_smaller_space():
    big = build_sine_space(2)
    small = restrict(big, 1)
    direct = build_sine_space(1)
    assert np.array_equal(small.v_gram, direct.v_gram)


def test_project_identity_on_own_space():
    space = build_sine_space(4)
    x = np.array([0.3, -1.2, 4.0, 0.01])
    assert np.array_equal(project(space, x), x)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), extra=st.integers(0, 8), data=st.data())
def test_project_undoes_embed(n, extra, data):
    x = np.array(
        data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)),
        dtype=float,
    )
    space = build_sine_space(n + extra)
    got = project(restrict(space, n), np.pad(x, (0, extra)))
    assert got.tobytes() == x.tobytes()


def test_project_truncates_coordinates():
    space = build_sine_space(2)
    assert np.array_equal(project(space, np.array([1.0, 2.0, 3.0])), [1.0, 2.0])


def test_project_is_h_contraction():
    rng = np.random.default_rng(7)
    small = build_sine_space(3)
    for _ in range(1000):
        x = rng.normal(size=8)
        assert np.linalg.norm(project(small, x)) <= np.linalg.norm(x) + 1e-15


def test_project_idempotent_and_self_adjoint():
    rng = np.random.default_rng(8)
    space = build_sine_space(3)
    for _ in range(200):
        h = rng.normal(size=6)
        k = rng.normal(size=6)
        ph = np.pad(project(space, h), (0, 3))
        pk = np.pad(project(space, k), (0, 3))
        assert np.array_equal(project(space, ph), project(space, h))
        assert ph @ k == pytest.approx(h @ pk, abs=1e-12)


def test_project_rejects_short_vector():
    space = build_sine_space(4)
    with pytest.raises(ValueError):
        project(space, np.ones(2))


def test_pairing_and_projection_symmetry():
    rng = np.random.default_rng(9)
    space = build_sine_space(2)
    assert pairing(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert pairing(np.arange(3.0), np.zeros(3)) == 0.0
    for _ in range(100):
        x = rng.normal(size=4)
        phi = rng.normal(size=4)
        lhs = pairing(project(space, x), project(space, phi))
        rhs = pairing(project(space, x), project(space, phi))
        assert lhs == rhs
        # adjoint identity in the ambient space
        assert pairing(np.pad(project(space, x), (0, 2)), phi) == pytest.approx(
            pairing(x, np.pad(project(space, phi), (0, 2))), abs=1e-12
        )


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(np.ones(2), np.ones(3))


@pytest.mark.parametrize("n,expected", [(1, np.pi**2), (2, 5 * np.pi**2)])
def test_c_b_small_values(n, expected):
    assert c_b(build_sine_space(n)) == pytest.approx(expected, rel=1e-12)


def test_c_b_closed_form_and_monotone():
    values = []
    for n in range(1, 65):
        got = c_b(build_sine_space(n))
        want = np.pi**2 * n * (n + 1) * (2 * n + 1) / 6.0
        assert got == pytest.approx(want, rel=1e-10)
        values.append(got)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_norms_zero_vector():
    space = build_sine_space(3)
    assert norms(space, np.zeros(3)) == (0.0, 0.0, 0.0)


def test_norms_dim_one_triple():
    space = build_sine_space(1)
    h, v, dual = norms(space, np.array([1.0]))
    assert h == pytest.approx(1.0, rel=1e-14)
    assert v == pytest.approx(np.pi, rel=1e-14)
    assert dual == pytest.approx(1.0 / np.pi, rel=1e-14)


def test_norms_rejects_nonfinite():
    space = build_sine_space(2)
    with pytest.raises(ValueError):
        norms(space, np.array([1.0, np.nan]))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    shape=st.sampled_from([(1,), (7,), (3, 4)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_norms_and_pairing_rows_equal_single_calls(n, shape, seed):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(n, n))
    gram = root @ root.T + n * np.eye(n)
    space = GalerkinSpace(dim=n, v_gram=(gram + gram.T) / 2)
    x = rng.uniform(-5, 5, shape + (n,))
    phi = rng.normal(size=shape + (n,))
    batched = norms(space, x)
    paired = pairing(x, phi)
    assert all(np.shape(b) == shape for b in batched) and paired.shape == shape
    for idx in np.ndindex(shape):
        single = norms(space, x[idx])
        assert all(type(value) is float for value in single)
        for got, want in zip(batched, single):
            assert got[idx] == pytest.approx(want, rel=1e-13)
        assert paired[idx] == pairing(x[idx], phi[idx])
    # one vector against a batch broadcasts row by row
    rows = pairing(phi.reshape(-1, n)[0], x)
    assert rows.shape == shape
    # on a diagonal Gram, as on every sine space, the product with the Gram
    # is exact, so each V-norm row has the bits of a single-vector call; a
    # dense Gram's product runs as gemv for one vector and gemm for a batch,
    # which differ in the last bits
    diagonal = GalerkinSpace(dim=n, v_gram=np.diag(np.diag(gram)))
    v = v_norms(diagonal, x)
    for idx in np.ndindex(shape):
        single = v_norms(diagonal, x[idx])
        assert type(single) is float
        assert v[idx].tobytes() == np.float64(single).tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        norms(space, np.where(np.arange(n) == n - 1, np.nan, x))


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_v_and_dual_norms_are_those_of_norms(n, lead):
    rng = np.random.default_rng(n)
    root = rng.normal(size=(n, n))
    gram = root @ root.T + n * np.eye(n)
    space = GalerkinSpace(dim=n, v_gram=(gram + gram.T) / 2)
    x = rng.uniform(-5, 5, lead + (n,))
    _, v, dual = norms(space, x)
    for got, want in ((v_norms(space, x), v), (dual_norms(space, x), dual)):
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    bad = np.where(np.arange(n) == n - 1, np.inf, x)
    for wrong in (bad, x[..., :-1] if n > 1 else np.ones(lead + (2,))):
        with pytest.raises(ValueError) as want:
            norms(space, wrong)
        for split in (v_norms, dual_norms):
            with pytest.raises(ValueError) as got:
                split(space, wrong)
            assert str(got.value) == str(want.value)


def test_norm_inequalities_random():
    rng = np.random.default_rng(11)
    space = build_sine_space(8)
    big = build_sine_space(16)
    cb = c_b(space)
    for _ in range(2000):
        x = rng.uniform(-5, 5, 16)
        px = project(space, x)
        h, v, _ = norms(space, px)
        _, _, dual_big = norms(big, x)
        assert v**2 <= cb * h**2 * (1 + 1e-10) + 1e-12
        assert h**2 <= cb * dual_big**2 * (1 + 1e-10) + 1e-12


def test_projection_error_decreases_on_smooth_profile():
    profile = smooth_profile(64, normalize=False)
    errors = []
    for n in (2, 4, 8, 16, 32):
        space = build_sine_space(n)
        tail = profile.copy()
        tail[:n] = 0.0
        errors.append(np.linalg.norm(tail))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_smooth_profile_matches_quadrature_coefficients():
    profile = smooth_profile(5, normalize=False)
    for k in range(1, 6):
        f = lambda x: x * (1 - x) * np.sqrt(2) * np.sin(k * np.pi * x)
        want, _ = scipy.integrate.quad(f, 0.0, 1.0, limit=100)
        assert profile[k - 1] == pytest.approx(want, abs=1e-12)


def test_space_rejects_indefinite_gram():
    from spdesim.space import GalerkinSpace

    bad = GalerkinSpace(dim=2, v_gram=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        norms(bad, np.ones(2))


def test_indefinite_symmetric_gram_fails_at_its_first_dual_norm():
    gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    space = GalerkinSpace(dim=2, v_gram=gram)
    with pytest.raises(ValueError, match="^v_gram is not positive definite$"):
        dual_norms(space, np.ones(2))
    with pytest.raises(ValueError, match="^v_gram is not positive definite$"):
        _dual_norms(space, np.ones((3, 2)))


def _cho_solve_dual_norms(space, x):
    """Dual norms by a Cholesky factorization and solve in scipy."""
    factor = scipy.linalg.cho_factor(space.v_gram, lower=True)
    rows = x.reshape(-1, space.dim)
    solved = scipy.linalg.cho_solve(factor, rows.T, check_finite=False)
    return np.sqrt(np.vecdot(x, solved.T.reshape(x.shape)))


def test_dual_norms_equal_cho_solve_on_sine_spaces():
    # a diagonal Gram makes both routes one multiplication by 1/L_kk per
    # factor, so they agree bit for bit
    rng = np.random.default_rng(5)
    for n in range(1, 65):
        space = build_sine_space(n)
        for lead in ((2000,), (), (3, 4)):
            x = rng.normal(size=lead + (n,)) * rng.lognormal(0.0, 3.0, lead + (n,))
            got = np.asarray(_dual_norms(space, x))
            want = _cho_solve_dual_norms(space, x)
            assert got.tobytes() == want.tobytes(), (n, lead)


@pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
def test_dual_norms_match_cho_solve_on_dense_grams(n):
    rng = np.random.default_rng(n)
    root = rng.normal(size=(n, n))
    space = GalerkinSpace(dim=n, v_gram=root @ root.T + n * np.eye(n))
    x = rng.normal(size=(2000, n))
    got = _dual_norms(space, x)
    want = _cho_solve_dual_norms(space, x)
    assert np.max(np.abs(got - want) / want) <= 1e-15


def test_space_rejects_asymmetric_gram():
    from spdesim.space import GalerkinSpace

    with pytest.raises(ValueError):
        GalerkinSpace(dim=2, v_gram=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_sine_basis_matrix_orthonormal():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * (nodes + 1)
    weights = 0.5 * weights
    basis = sine_basis_matrix(4, nodes)
    gram = (basis * weights) @ basis.T
    assert np.allclose(gram, np.eye(4), atol=1e-12)
