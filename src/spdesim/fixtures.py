"""Shipped coefficient families on the sine basis.

Three fixtures cover the regimes the schemes need to exercise:

* ``heat_jump`` - half-Laplacian drift, gradient noise against one Wiener
  mode, and Lipschitz state-dependent jumps weighted by the mark.  An
  optional linear reaction term breaks plain dissipativity while
  remaining within the relaxed (rate-K) version, which the exponential
  transform removes exactly.
* ``additive_multimode`` - half-Laplacian drift with constant
  multi-mode Wiener noise (mode k scaled k^{-3/2}) and an additive
  first-mode jump; exercises Wiener truncation levels.
* ``semilinear`` - half-Laplacian plus a bounded non-increasing scalar
  nonlinearity applied pointwise in space through composite quadrature;
  exercises the nonlinear implicit solver.

These and ``zero_triple`` are built through one constructor, `_triple`,
which states what all four share: they are autonomous, p = 2, a
`LinearDrift`'s matrix is `linear_A`, and F = `WeightedJump(profile,
weight)` with `jump_profile = profile`.

Evaluator classes are module level and stateless so triples can cross
process pools, and all are dimension polymorphic: called with the first n
coordinates they return the leading-subspace projection of the operator
value, consistently with the nested basis.  They take one state of shape
(n,) or a batch of shape (..., n) and act row by row, so a matrix M
applies as ``x @ M[:n, :n].T``; `MatrixNoise` instead multiplies by the
leading block of a C-contiguous (θ·D)ᵀ that it forms once, so that the
product has no transposed operand.  They are autonomous and ignore the
time, whether it is a scalar or an array of times, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientTriple, ConditionConstants
from .space import sine_basis_matrix, sine_derivative_matrix


@dataclass(frozen=True)
class LinearDrift:
    """A(x) = M x for an ambient matrix M, restricted by input length."""

    matrix: np.ndarray

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        return x @ self.matrix[:n, :n].T


@dataclass(frozen=True)
class MatrixNoise:
    """B(x) = theta · D x against a single Wiener mode.

    The value is one product ``x @ S[:n, :n]`` with S the C-contiguous
    (theta · D)ᵀ, formed once per instance, so that no operand of the
    product is transposed.  It is within a few ulp of theta · (x @ Dᵀ).
    """

    matrix: np.ndarray
    theta: float

    def __post_init__(self):
        scaled_t = np.ascontiguousarray((self.theta * self.matrix).T)
        object.__setattr__(self, "_scaled_t", scaled_t)

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        return (x @ self._scaled_t[:n, :n])[..., None]


@dataclass(frozen=True)
class ConstantNoise:
    """State-independent B with a fixed coordinate matrix."""

    matrix: np.ndarray

    def __call__(self, t, x):
        shape = np.shape(x)
        b = self.matrix[: shape[-1]]
        return np.broadcast_to(b, shape[:-1] + b.shape)


@dataclass(frozen=True)
class SineJumpProfile:
    """Coordinatewise Lipschitz map x -> amplitude · sin(x)."""

    amplitude: float

    def __call__(self, t, x):
        out = np.sin(np.asarray(x, dtype=float))
        out *= self.amplitude
        return out


@dataclass(frozen=True)
class FirstModeProfile:
    """Constant profile pointing along the first basis vector."""

    def __call__(self, t, x):
        out = np.zeros(np.shape(x))
        out[..., 0] = 1.0
        return out


@dataclass(frozen=True)
class ZeroProfile:
    def __call__(self, t, x):
        return np.zeros(np.shape(x))


@dataclass(frozen=True)
class IdentityWeight:
    def __call__(self, xi):
        return np.asarray(xi, dtype=float)


@dataclass(frozen=True)
class WeightedJump:
    """F(t, x, ξ) = weight(ξ) · profile(t, x), broadcast over marks."""

    profile: object
    weight: object

    def __call__(self, t, x, xi):
        w = np.asarray(self.weight(xi), dtype=float)
        return np.multiply.outer(np.asarray(self.profile(t, x), dtype=float), w)


@dataclass(frozen=True)
class ZeroNoise:
    def __call__(self, t, x):
        return np.zeros(np.shape(x) + (1,))


@dataclass(frozen=True)
class SemilinearDrift:
    """A(x) = -1/2 Δx + pointwise g(u) integrated against the basis.

    g(s) = -amplitude · tanh(s): bounded, non-increasing, Lipschitz with
    constant `amplitude`, so the perturbation is itself dissipative.  The
    spatial integrals use composite Gauss-Legendre with 4 points per basis
    half-wave of the ambient resolution.
    """

    basis: np.ndarray
    quad_weights: np.ndarray
    laplace_diag: np.ndarray
    amplitude: float

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        u_nodes = x @ self.basis[:n]
        g_nodes = -self.amplitude * np.tanh(u_nodes)
        spread = (self.quad_weights * g_nodes) @ self.basis[:n].T
        return self.laplace_diag[:n] * x + spread


def _sine_quadrature(dim, points_per_halfwave=4):
    """Composite Gauss-Legendre rule on (0, 1), `dim` cells."""
    nodes01, w01 = np.polynomial.legendre.leggauss(points_per_halfwave)
    nodes01 = 0.5 * (nodes01 + 1.0)
    w01 = 0.5 * w01
    offsets = np.arange(dim)[:, None] / dim
    nodes = (offsets + nodes01[None, :] / dim).ravel()
    weights = np.tile(w01 / dim, dim)
    return nodes, weights


def _laplace_diag(dim):
    k = np.arange(1, dim + 1, dtype=float)
    return -0.5 * (k * np.pi) ** 2


def _triple(space, marks, drift, noise, profile, wiener_modes, alpha, **constants):
    """The shape every shipped triple shares: autonomous, p = 2, the drift's
    matrix as `linear_A` when it is a `LinearDrift`, and
    F = `WeightedJump(profile, weight)` with `jump_profile = profile`, the
    weight the marks' own or, without marks, the mark itself.  The growth
    constant is cast to float here, the other `constants` (lam, k1, k1bar,
    k2, horizon) pass to `ConditionConstants` as they are."""
    weight = IdentityWeight() if marks is None else marks.weight
    return CoefficientTriple(
        dim=space.dim,
        eval_A=drift,
        eval_B=noise,
        eval_F=WeightedJump(profile, weight),
        constants=ConditionConstants(p=2.0, alpha=float(alpha), **constants),
        autonomous=True,
        wiener_modes=wiener_modes,
        linear_A=drift.matrix if isinstance(drift, LinearDrift) else None,
        jump_profile=profile,
    )


def heat_jump(
    space,
    marks,
    theta=0.5,
    lipschitz=0.1,
    reaction=0.0,
    lambda_const=None,
    alpha=None,
    k1=0.1,
    k1bar=None,
    k2=0.1,
    horizon=1.0,
):
    """Gradient-noise heat equation with multiplicative mark-weighted jumps.

    Constants are calibrated from the parameters: the coercivity weight
    defaults to (1 − θ²)/2, the growth constant covers the half-Laplacian
    plus the reaction term, and the H-growth allowance absorbs the jump
    intensity plus twice the reaction rate.
    """
    if not -1.0 < theta < 1.0 and lambda_const is None:
        raise ValueError("theta outside (-1, 1) requires an explicit lambda_const")
    lam = (1.0 - theta**2) / 2.0 if lambda_const is None else float(lambda_const)
    if lam <= 0:
        raise ValueError("coercivity weight must be positive")
    if alpha is None:
        alpha = max(2.0, 1.1 * (0.5 + reaction / np.pi**2) ** 2 / lam**2)
    if k1bar is None:
        k1bar = 0.05 + 2.0 * max(reaction, 0.0)
    dim = space.dim
    return _triple(
        space,
        marks,
        LinearDrift(np.diag(_laplace_diag(dim) + reaction)),
        MatrixNoise(sine_derivative_matrix(dim), theta),
        SineJumpProfile(lipschitz),
        wiener_modes=1,
        alpha=alpha,
        lam=lam,
        k1=k1,
        k1bar=k1bar,
        k2=k2,
        horizon=horizon,
    )


def additive_multimode(
    space,
    marks,
    modes=None,
    lambda_const=0.5,
    alpha=1.25,
    k1=2.0,
    k1bar=0.0,
    k2=0.5,
    horizon=1.0,
):
    """Heat drift with additive decaying multi-mode noise and a first-mode jump."""
    dim = space.dim
    modes = dim if modes is None else int(modes)
    sigma = np.arange(1, modes + 1, dtype=float) ** -1.5
    b = np.zeros((dim, modes))
    np.fill_diagonal(b, sigma[: min(dim, modes)])
    return _triple(
        space,
        marks,
        LinearDrift(np.diag(_laplace_diag(dim))),
        ConstantNoise(b),
        FirstModeProfile(),
        wiener_modes=modes,
        alpha=alpha,
        lam=lambda_const,
        k1=k1,
        k1bar=k1bar,
        k2=k2,
        horizon=horizon,
    )


def semilinear(
    space,
    marks=None,
    amplitude=0.5,
    lambda_const=0.5,
    alpha=1.5,
    k1=0.1,
    k1bar=0.0,
    k2=1.0,
    horizon=1.0,
):
    """Nonlinear dissipative drift, no driving noise; solver workout."""
    dim = space.dim
    nodes, weights = _sine_quadrature(dim)
    drift = SemilinearDrift(
        basis=sine_basis_matrix(dim, nodes),
        quad_weights=weights,
        laplace_diag=_laplace_diag(dim),
        amplitude=float(amplitude),
    )
    return _triple(
        space,
        marks,
        drift,
        ZeroNoise(),
        ZeroProfile(),
        wiener_modes=0,
        alpha=alpha,
        lam=lambda_const,
        k1=k1,
        k1bar=k1bar,
        k2=k2,
        horizon=horizon,
    )


def zero_triple(space, marks=None, horizon=1.0):
    """A = B = F = 0; transports the initial condition unchanged."""
    return _triple(
        space,
        marks,
        LinearDrift(np.zeros((space.dim, space.dim))),
        ZeroNoise(),
        ZeroProfile(),
        wiener_modes=0,
        alpha=1.0,
        lam=1e-6,
        k1=0.0,
        k1bar=0.0,
        k2=0.0,
        horizon=horizon,
    )
