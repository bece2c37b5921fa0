"""Finite-dimensional Galerkin subspaces of a Gelfand triple V ⊂ H ⊂ V*.

A space is described by a basis family whose members are orthonormal in H,
so coordinate vectors *are* H-inner products and the H-Gram matrix is the
identity by construction.  The V-geometry enters through an explicit Gram
matrix G, and dual norms are evaluated with its inverse, i.e. as the norm
of a functional restricted to the subspace: with the Cholesky factor
G = L Lᵀ and W = L⁻¹, G⁻¹ = Wᵀ W.  Vectors are plain float arrays:
an "H vector" holds coordinates against the basis, a "dual vector" holds
the actions of a functional on the basis; both coincide numerically for
functionals represented by H elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

@dataclass(frozen=True)
class GalerkinSpace:
    """Span of the first `dim` members of a nested, H-orthonormal basis."""

    dim: int
    v_gram: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"space dimension must be >= 1, got {self.dim}")
        gram = np.asarray(self.v_gram, dtype=float)
        if gram.shape != (self.dim, self.dim):
            raise ValueError("v_gram shape does not match dim")
        if not np.isfinite(gram).all():
            raise ValueError("v_gram has non-finite entries")
        if not np.allclose(gram, gram.T, rtol=1e-12, atol=1e-12):
            raise ValueError("v_gram must be symmetric")
        object.__setattr__(self, "v_gram", gram)

    @cached_property
    def _v_chol_inv(self):
        """W = L⁻¹ for the Cholesky factor L of v_gram, so that
        v_gram⁻¹ = Wᵀ W; also certifies positive definiteness on first use."""
        try:
            return np.linalg.inv(np.linalg.cholesky(self.v_gram))
        except np.linalg.LinAlgError as exc:
            raise ValueError("v_gram is not positive definite") from exc

    @cached_property
    def _v_chol_inv_t(self):
        """C-contiguous Wᵀ, so that `_dual_norms` multiplies by no
        transposed operand."""
        return np.ascontiguousarray(self._v_chol_inv.T)


def build_sine_space(n):
    """Span of sqrt(2)·sin(kπx), k = 1..n, on (0,1) with Dirichlet ends.

    H is L²(0,1); the V-norm is the L² norm of the derivative, whose Gram
    matrix is diag(k²π²).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    return GalerkinSpace(dim=int(n), v_gram=np.diag((k * np.pi) ** 2))


def restrict(space, n):
    """Leading-subspace of dimension n from the same basis family."""
    if not 1 <= n <= space.dim:
        raise ValueError(f"cannot restrict dim-{space.dim} space to {n}")
    if n == space.dim:
        return space
    return GalerkinSpace(dim=int(n), v_gram=space.v_gram[:n, :n])


def _as_vector(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d coordinate vector, got shape {x.shape}")
    return x


def project(space, x):
    """First space.dim coordinates of x.

    Because the basis is H-orthonormal this single formula is both the
    orthogonal H-projection and its continuous extension to functionals.
    """
    x = _as_vector(x)
    if x.size < space.dim:
        raise ValueError(f"source dimension {x.size} < target {space.dim}")
    return x[: space.dim].copy()


def c_b(space):
    """Sum of squared V-norms of the basis vectors (trace of the V-Gram)."""
    return float(np.trace(space.v_gram))


def _as_rows(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValueError("expected coordinate vectors, got a scalar")
    return x


def _scalar_or_rows(value):
    return float(value) if np.ndim(value) == 0 else value


def _checked_rows(space, x, finite=True):
    x = _as_rows(x)
    if x.shape[-1] != space.dim:
        raise ValueError(
            f"vector of length {x.shape[-1]} not in dim-{space.dim} space"
        )
    if finite and not np.isfinite(x).all():
        raise ValueError("non-finite coordinates")
    return x


def norms(space, x):
    """(H-norm, V-norm, dual norm) of coordinate vectors in the space.

    `x` has shape (..., dim) and each row is one vector; a single vector
    of shape (dim,) gives Python floats, a batch gives arrays of shape (...).
    The V-norm and the dual norm are those of `v_norms` and `dual_norms`.
    """
    x = _checked_rows(space, x)
    h = np.sqrt(np.vecdot(x, x))
    return _scalar_or_rows(h), v_norms(space, x), dual_norms(space, x)


def v_norms(space, x):
    """V-norms of coordinate vectors, shaped and checked as in `norms`.

    Each is the quadratic form xᵀ G x of the V-Gram G, taken as the pairing
    of x with x @ G, which multiplies by G itself, not a transposed view:
    xᵀ G x = xᵀ Gᵀ x.
    """
    x = _checked_rows(space, x)
    return _scalar_or_rows(np.sqrt(np.einsum("...i,...i->...", x, x @ space.v_gram)))


def dual_norms(space, x):
    """Dual norms of coordinate vectors, shaped and checked as in `norms`.

    The dual norm is the exact V*-norm of the functional restricted to the
    subspace, i.e. the Gram-inverse quadratic form xᵀ Wᵀ W x, taken for
    every row with two products by the cached inverse Cholesky factor W.
    """
    return _dual_norms(space, _checked_rows(space, x))


def _dual_norms(space, x):
    """`dual_norms` without the finiteness check: a row with a non-finite
    coordinate gets a non-finite norm, and every other row its own.

    Unlike `v_norms` and `pairing`, it pairs each row with `np.vecdot`,
    not `np.einsum`: on a diagonal V-Gram, as on every sine space, that
    gives the bits of a Cholesky solve (`scipy.linalg.cho_solve`), which
    the tests pin it to."""
    x = _checked_rows(space, x, finite=False)
    w_t = space._v_chol_inv_t
    return _scalar_or_rows(np.sqrt(np.vecdot(x, (x @ w_t) @ space._v_chol_inv)))


def pairing(x, phi):
    """Duality pairing of coordinates with functional actions, row by row.

    Shapes (..., n) broadcast against each other; two single vectors give a
    Python float.  Each row is one contraction of its own, so its value does
    not depend on how many rows the call holds.
    """
    x = _as_rows(x)
    phi = _as_rows(phi)
    if x.shape[-1] != phi.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {phi.shape[-1]}")
    return _scalar_or_rows(np.einsum("...i,...i->...", x, phi))


def sine_basis_matrix(n, points):
    """Matrix e_k(x_i) of the sine family, shape (n, len(points))."""
    points = np.asarray(points, dtype=float)
    k = np.arange(1, n + 1, dtype=float)[:, None]
    return np.sqrt(2.0) * np.sin(k * np.pi * points[None, :])


def sine_derivative_matrix(n):
    """H-coordinates of projected derivatives in the sine family.

    Column k holds the coordinates of Π_n(e_k'); entries are
    4jk/(j² − k²) when j + k is odd and zero otherwise (antisymmetric).
    """
    j = np.arange(1, n + 1, dtype=float)[:, None]
    k = np.arange(1, n + 1, dtype=float)[None, :]
    odd = ((j + k) % 2) == 1
    denom = np.where(odd, j**2 - k**2, 1.0)
    return np.where(odd, 4.0 * j * k / denom, 0.0)


def smooth_profile(dim, normalize=True):
    """Sine coordinates of x(1−x): a fixed smooth initial profile."""
    k = np.arange(1, dim + 1, dtype=float)
    coeff = np.where(k % 2 == 1, 4.0 * np.sqrt(2.0) / (np.pi * k) ** 3, 0.0)
    if normalize:
        coeff = coeff / np.linalg.norm(coeff)
    return coeff
