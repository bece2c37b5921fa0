"""Explicit and implicit Galerkin time-stepping schemes.

All three scheme kinds run through one stepping loop and differ only in
the drift update.  The explicit scheme starts from zero, injects the
projected initial condition at the first knot, and adds δ times the
lagged-window drift mean; its stability is governed by the product of the
step size with the basis constant of the space.  The implicit schemes
start from the (projected) initial condition and solve a monotone step
equation in which the drift is averaged over the current window.  In
every kind the noise coefficients are averaged over the lagged window.
"Unprojected" runs are realized at the ambient resolution of the
experiment: a truly infinite-dimensional state is not representable, so
the plain and projected implicit kinds are one code path and differ only
through the projection dimension.

Explicit trajectories that leave double-precision range record the first
non-finite step and stop instead of raising: instability outside the
stability region is a legitimate, reportable outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.linalg

from .averaging import DEFAULT_QUADRATURE, cell_weight_means, impl_A, tilde_F, time_mean
from .noise import TimeGrid, build_partition, coarsen_wiener, compensated_cell_increments
from .rng import TAG_INITIAL, derive_key, make_generator
from .space import c_b, project, restrict, smooth_profile

EXPLICIT = "explicit"
IMPLICIT = "implicit"
IMPLICIT_PROJECTED = "implicit_projected"
SCHEME_KINDS = (EXPLICIT, IMPLICIT, IMPLICIT_PROJECTED)
# The implicit step is solved to a residual of SOLVER_TOL·(1 + ‖y‖).
SOLVER_TOL = 1e-10


class ImplicitStepError(RuntimeError):
    """Raised when the monotone step equation cannot be solved."""


@dataclass(frozen=True)
class SchemeConfig:
    """Resolution triple and initial condition of one scheme run.

    `initial` may be a coordinate vector (length >= n; projected), a
    callable receiving a numpy Generator for random initial data, or None
    for the default smooth profile.  The Wiener truncation and the
    mark-partition level share `l`.
    """

    kind: str
    n: int
    m: int
    l: int
    initial: object = None
    max_iter: int = 200

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.n < 1 or self.m < 2 or self.l < 1:
            raise ValueError("need n >= 1, m >= 2, l >= 1")


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool


@dataclass
class Trajectory:
    """Grid values of one scheme run plus per-step diagnostics."""

    kind: str
    n: int
    m: int
    l: int
    knots: np.ndarray
    values: np.ndarray
    blow_up_step: int | None = None
    solver_iterations: list = field(default_factory=list)
    solver_residuals: list = field(default_factory=list)

    @property
    def final(self):
        return self.values[self.m]

    def to_json(self, **extra):
        """The trajectory as one JSON object; `extra` keys follow its own."""
        return json.dumps(
            {
                "kind": self.kind,
                "n": self.n,
                "m": self.m,
                "l": self.l,
                "knots": self.knots.tolist(),
                "values": self.values.tolist(),
                "blow_up_step": self.blow_up_step,
                "solver_iterations": list(self.solver_iterations),
                "solver_residuals": list(self.solver_residuals),
                **extra,
            }
        )

    def final_csv(self):
        lines = ["mode,value"]
        for k, value in enumerate(self.final, start=1):
            lines.append(f"{k},{value:.17g}")
        return "\n".join(lines) + "\n"


def stability_margin(alpha, grid, space, gamma=0.5):
    """(ρ, gate) for the explicit scheme: ρ = 1 − α·δ·C_B and α·δ·C_B ≤ γ."""
    product = alpha * grid.delta * c_b(space)
    return 1.0 - product, bool(product <= gamma)


def step_energy_bound(constants, space, grid, zeta_sq):
    """A-priori bound on sup_i E‖u(t_i)‖_H² inside the stability region.

    Follows the coercivity convention: the H-quadratic allowance K̄1 drives
    the exponential, the additive allowances K1 and δ·C_B·K2 the constant.
    """
    k1, _ = scipy.integrate.quad(constants.k1_fn, 0.0, grid.T, limit=200)
    k1bar, _ = scipy.integrate.quad(constants.k1bar_fn, 0.0, grid.T, limit=200)
    k2, _ = scipy.integrate.quad(constants.k2_fn, 0.0, grid.T, limit=200)
    base = zeta_sq + k1 + grid.delta * c_b(space) * k2
    return base * np.exp(k1bar)


def _resolve_initial(config, space, master_seed):
    init = config.initial
    if init is None:
        zeta = smooth_profile(config.n)
    elif callable(init):
        zeta = np.asarray(
            init(make_generator(derive_key(master_seed, TAG_INITIAL))), dtype=float
        )
    else:
        zeta = np.asarray(init, dtype=float)
    if zeta.size < config.n:
        raise ValueError(f"initial condition has {zeta.size} < n = {config.n} coords")
    return project(space, zeta)


def _jump_scalars(triple, grid, partition, bundle):
    """Per-step jump-term scalars for factorized jump coefficients.

    The compensated integral against a factorized F collapses to
    profile(x) times (sum of per-cell weight means at the observed jumps
    minus δ times the total weight mass of the level set).
    """
    ratio, wmass = cell_weight_means(partition)
    scalars = np.zeros(grid.m + 1)
    if bundle.jump_times.size:
        steps = np.searchsorted(grid.knots, bundle.jump_times, side="left")
        cells = np.asarray(partition.locate(bundle.jump_marks))
        valid = cells >= 0
        np.add.at(scalars, steps[valid], ratio[cells[valid]])
    scalars[1:] -= grid.delta * float(wmass.sum())
    scalars[0] = 0.0
    return scalars


def _check_bundle(config, bundle):
    if bundle.m % config.m != 0:
        raise ValueError(f"bundle grid {bundle.m} not divisible by m = {config.m}")
    if config.l > bundle.l_level:
        raise ValueError(f"bundle level {bundle.l_level} < requested l = {config.l}")


def run_explicit(space, triple, config, bundle, quad=DEFAULT_QUADRATURE):
    """Projected explicit scheme driven by one noise bundle."""
    if config.kind != EXPLICIT:
        raise ValueError(f"config kind {config.kind!r} is not explicit")
    if triple.constants.p != 2.0:
        raise ValueError("the explicit scheme requires p = 2")
    if triple.constants.lambda_max() > 1.0 + 1e-12:
        raise ValueError("the explicit scheme requires the coercivity weight <= 1")
    return _run_steps(space, triple, config, bundle, quad)


def run_implicit(space, triple, config, bundle, quad=DEFAULT_QUADRATURE):
    """Implicit scheme (plain or projected) driven by one noise bundle.

    The plain variant runs at the ambient resolution of the supplied
    space, the projected variant at config.n; within the nested basis the
    two share one code path since projection is coordinate truncation.
    """
    if config.kind not in (IMPLICIT, IMPLICIT_PROJECTED):
        raise ValueError(f"config kind {config.kind!r} is not implicit")
    return _run_steps(space, triple, config, bundle, quad)


def _run_steps(space, triple, config, bundle, quad):
    """The stepping loop shared by every scheme kind.

    Step i adds to the previous value, in this order, δ times the lagged
    drift mean (explicit only), the Wiener term and the compensated jump
    term; the implicit schemes then solve the step equation with the
    result as right-hand side.  The explicit scheme starts at knot 1, the
    implicit ones at knot 0, and the noise terms vanish before knot 2.
    """
    _check_bundle(config, bundle)
    explicit = config.kind == EXPLICIT
    n, m, l = config.n, config.m, config.l
    space = restrict(space, n)
    grid = TimeGrid(bundle.T, m)
    delta = grid.delta
    modes = min(l, triple.wiener_modes)
    dw = coarsen_wiener(bundle, m, modes)
    partition = build_partition(bundle.marks, l)
    first = 1 if explicit else 0
    values = np.zeros((m + 1, n))
    values[first] = _resolve_initial(config, space, bundle.master_seed)
    factorized = triple.jump_profile is not None
    if factorized:
        scalars = _jump_scalars(triple, grid, partition, bundle)
    else:
        rule = partition.marks.cell_rule(partition.lo, partition.hi, 4)
    traj = Trajectory(
        kind=config.kind, n=n, m=m, l=l, knots=grid.knots, values=values
    )
    direct = None
    if not explicit and triple.linear_A is not None and triple.autonomous:
        mat = np.eye(n) - delta * triple.linear_A[:n, :n]
        direct = (mat, scipy.linalg.lu_factor(mat))
    knots = grid.knots.tolist()
    autonomous = triple.autonomous
    x = values[first]
    # explicit overflow is reported through the blow-up marker, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(first + 1, m + 1):
            new = x
            if i >= 2:
                t0, t1 = knots[i - 2], knots[i - 1]
                if explicit:
                    drift = time_mean(triple.eval_A, x, t0, t1, autonomous, quad)
                    new = x + delta * drift
                if modes:
                    bmat = time_mean(triple.eval_B, x, t0, t1, autonomous, quad)
                    new = new + bmat[:, :modes] @ dw[:, i - 1]
                if factorized:
                    profile = time_mean(
                        triple.jump_profile, x, t0, t1, autonomous, quad
                    )
                    new = new + scalars[i] * profile
                else:
                    cols = tilde_F(triple, grid, partition, i, x, rule, quad)
                    new = new + cols @ compensated_cell_increments(
                        bundle, partition, grid, i
                    )
            if explicit:
                if not np.isfinite(new).all():
                    traj.blow_up_step = i
                    values[i:] = np.nan
                    break
            else:
                new, report = solve_implicit_step(
                    triple,
                    grid,
                    i,
                    new,
                    max_iter=config.max_iter,
                    quad=quad,
                    _direct=direct,
                )
                traj.solver_iterations.append(report.iterations)
                traj.solver_residuals.append(report.residual)
            values[i] = new
            x = new
    return traj


def solve_implicit_step(
    triple,
    grid,
    i,
    y,
    max_iter=200,
    x0=None,
    quad=DEFAULT_QUADRATURE,
    _direct=None,
):
    """Solve x − δ·(Π_n)A^m_i(x) = y for the implicit step.

    Affine autonomous drifts are solved directly through the LU factor of
    I − δA (`_direct` passes the matrix and its factor in, built once per
    run); otherwise a damped residual iteration runs first and a
    finite-difference Newton step takes over when it stalls.
    Non-convergence signals that the step equation has left the strongly
    monotone regime, i.e. the time step is too large.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    delta = grid.delta

    if triple.linear_A is not None and triple.autonomous:
        try:
            if _direct is None:
                mat = np.eye(n) - delta * triple.linear_A[:n, :n]
                _direct = (mat, scipy.linalg.lu_factor(mat))
            mat, lu = _direct
            x = scipy.linalg.lu_solve(lu, y)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise ImplicitStepError(
                "implicit step matrix is singular; increase the number of "
                "time steps m"
            ) from exc
        residual = float(np.linalg.norm(mat @ x - y))
        return x, SolveReport(iterations=0, residual=residual, converged=True)

    target = SOLVER_TOL * (1.0 + float(np.linalg.norm(y)))

    def residual_vec(x):
        return x - delta * impl_A(triple, grid, i, x, quad) - y

    x = y.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    r = residual_vec(x)
    rn = float(np.linalg.norm(r))
    omega = 1.0
    stall = 0
    for iteration in range(1, max_iter + 1):
        if rn <= target:
            return x, SolveReport(iterations=iteration - 1, residual=rn, converged=True)
        if stall >= 3 or omega < 1e-3:
            # finite-difference Newton on the residual map
            jac = np.eye(n)
            h = 1e-7 * (1.0 + np.abs(x))
            base = delta * impl_A(triple, grid, i, x, quad)
            for k in range(n):
                xk = x.copy()
                xk[k] += h[k]
                jac[:, k] -= (delta * impl_A(triple, grid, i, xk, quad) - base) / h[k]
            try:
                dx = np.linalg.solve(jac, r)
            except np.linalg.LinAlgError as exc:
                raise ImplicitStepError(
                    "implicit step linearization is singular; increase m"
                ) from exc
            step = 1.0
            for _ in range(30):
                xn = x - step * dx
                r_new = residual_vec(xn)
                rn_new = float(np.linalg.norm(r_new))
                if rn_new < rn:
                    x, r, rn = xn, r_new, rn_new
                    break
                step *= 0.5
            else:
                raise ImplicitStepError(
                    "implicit step iteration cannot reduce the residual; increase m"
                )
            omega, stall = 1.0, 0
            continue
        xn = x - omega * r
        r_new = residual_vec(xn)
        rn_new = float(np.linalg.norm(r_new))
        if rn_new < rn:
            if rn_new > 0.5 * rn:
                stall += 1
            x, r, rn = xn, r_new, rn_new
            omega = min(1.0, omega * 1.5)
        else:
            omega *= 0.5
            stall += 1
    if rn <= target:
        return x, SolveReport(iterations=max_iter, residual=rn, converged=True)
    raise ImplicitStepError(
        f"implicit step did not converge within {max_iter} iterations "
        f"(residual {rn:.3e} > {target:.3e}); increase the number of time steps m"
    )


def run_scheme(space, triple, config, bundle, quad=DEFAULT_QUADRATURE):
    """Dispatch on the configured scheme kind."""
    if config.kind == EXPLICIT:
        return run_explicit(space, triple, config, bundle, quad)
    return run_implicit(space, triple, config, bundle, quad)
