"""Explicit and implicit Galerkin time-stepping schemes.

All three scheme kinds run through one stepping loop, `run_block`, and
differ only in the drift update.  The loop steps a block of paths
together: the state is a (paths, n) array, row p driven by its own noise
bundle, and each coefficient is evaluated once per step for the whole
block; a one-path run is a block of one.  A block keeps at every knot only
what its caller reads: nothing, the squared H-norms or the states.  The
explicit scheme starts from zero, injects the projected initial condition
at the first knot, and adds δ times the lagged-window drift mean; its
stability is governed by the product of the step size with the basis
constant of the space.  The implicit schemes start from the (projected)
initial condition and solve a monotone step equation in which the drift is
averaged over the current window.  An affine autonomous drift A is stepped
as one product with a matrix formed once per block: I + δA in the
explicit scheme, the inverse of I − δA in the implicit ones.  A diagonal
matrix, as every shipped fixture's, is kept as the vector of its diagonal
and the product is a column-wise scaling with the same bits.  In every
kind the noise coefficients are averaged over the lagged window.
"Unprojected" runs are realized at the ambient resolution of the
experiment: a truly infinite-dimensional state is not representable, so
the plain and projected implicit kinds are one code path and differ only
through the projection dimension.

One rule loses a path in every kind: it blows up at the first knot whose
squared H-norm is not finite, instead of raising, since instability
outside the stability region is a legitimate, reportable outcome.  An
implicit path whose step equation cannot be solved fails at that step
instead.  A lost path is marked and set to NaN while the other paths of
its block go on.  Each knot is tested with one scalar, the total energy of
the paths still going, which also covers the direct solve of an affine
drift; the paths are told apart one by one only when it is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .averaging import cell_weight_means, impl_A, tilde_F, time_mean
from .noise import TimeGrid, build_partition
from .rng import TAG_INITIAL, derive_key, make_generator
from .space import c_b, project, restrict, smooth_profile

EXPLICIT = "explicit"
IMPLICIT = "implicit"
IMPLICIT_PROJECTED = "implicit_projected"
SCHEME_KINDS = (EXPLICIT, IMPLICIT, IMPLICIT_PROJECTED)
# The implicit step is solved to a residual of SOLVER_TOL·(1 + ‖y‖) within
# SOLVER_MAX_ITER iterations.
SOLVER_TOL = 1e-10
SOLVER_MAX_ITER = 200
# What a block keeps at every knot besides its final states (`run_block`).
ENERGIES = "energies"
STATES = "states"


class ImplicitStepError(RuntimeError):
    """Raised when the monotone step equation of a one-path run cannot be
    solved."""


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

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.n < 1 or self.m < 2 or self.l < 1:
            raise ValueError("need n >= 1, m >= 2, l >= 1")


@dataclass
class SolveReport:
    """Implicit-step outcome per row of a block: iterations, residual norm
    and convergence as (P,) arrays, and each failed row's cause in
    `reasons` (None where the row converged)."""

    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray
    reasons: list


def stability_margin(alpha, grid, space, gamma=0.5):
    """(ρ, gate) for the explicit scheme: ρ = 1 − α·δ·C_B and α·δ·C_B ≤ γ."""
    product = alpha * grid.delta * c_b(space)
    return 1.0 - product, bool(product <= gamma)


def step_energy_bound(constants, space, grid, zeta_sq):
    """A-priori bound on sup_i E‖u(t_i)‖_H² inside the stability region.

    Follows the coercivity convention: the H-quadratic allowance K̄1 drives
    the exponential, the additive allowances K1 and δ·C_B·K2 the constant:
    (ζ² + T·(K1 + δ·C_B·K2))·exp(T·K̄1).
    """
    c = constants
    base = zeta_sq + grid.T * (c.k1 + grid.delta * c_b(space) * c.k2)
    return base * np.exp(grid.T * c.k1bar)


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


# Finest-grid steps of per-path noise built at a time, so that a block
# holds no (m, paths) array of Wiener increments or jump data and no second
# copy of its bundles' increments.  A chunk's Wiener increments pass through
# three arrays of up to (paths, modes, NOISE_CHUNK): the copied fine
# increments, their sums and the sums laid out step by step.
NOISE_CHUNK = 256


def _jump_events(grid, partition, bundles):
    """The (step, path, cell) of every jump of a block with a mark in a cell.

    A jump at t enters the step i with t in (t_{i−1}, t_i].  The events are
    stably sorted by step, so within a path they stay in time order.
    """
    times = [bundle.jump_times for bundle in bundles]
    rows = np.repeat(np.arange(len(bundles)), [t.size for t in times])
    steps = np.searchsorted(grid.knots, np.concatenate(times), side="left")
    cells = partition.locate(np.concatenate([b.jump_marks for b in bundles]))
    keep = np.flatnonzero(cells >= 0)
    keep = keep[np.argsort(steps[keep], kind="stable")]
    return steps[keep], rows[keep], cells[keep]


def _noise_rows(bundles, grid, partition, modes, factorized, start):
    """The per-path noise of steps start..m of a block, step by step.

    Yields each step's (paths, modes) Wiener increments and its jump data,
    read from the block's `_jump_events`: for a `factorized` F the (paths,)
    sums of the cell weight means of its jumps minus δ·Σ weight mass, else
    the (paths, cells) compensated cell increments, jump counts minus δ·ν.
    The steps come in chunks of NOISE_CHUNK finest-grid steps, and the
    Wiener increments of a chunk are coarsened for all paths at once, as
    `coarsen_wiener` sums them, from a copy of that chunk's fine ones.
    """
    m, paths = grid.m, len(bundles)
    factor = bundles[0].m // m
    span = max(1, NOISE_CHUNK // factor)
    steps, rows, cells = _jump_events(grid, partition, bundles)
    ratio, wmass = cell_weight_means(partition)
    for lo in range(start - 1, m, span):
        hi = min(lo + span, m)
        fine = np.stack([b.wiener[:modes, lo * factor : hi * factor] for b in bundles])
        dw = fine.reshape(paths, modes, hi - lo, factor).sum(axis=3)
        dw = np.ascontiguousarray(dw.transpose(2, 0, 1))
        edges = np.searchsorted(steps, np.arange(lo + 1, hi + 2))
        if factorized:
            here = slice(edges[0], edges[-1])
            scalars = np.zeros((hi - lo, paths))
            np.add.at(scalars, (steps[here] - lo - 1, rows[here]), ratio[cells[here]])
            yield from zip(dw, scalars - grid.delta * float(wmass.sum()))
            continue
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            counts = np.zeros((paths, partition.size))
            np.add.at(counts, (rows[a:b], cells[a:b]), 1.0)
            yield dw[k], counts - grid.delta * partition.nu


def _check_bundles(config, bundles, modes):
    if not bundles:
        raise ValueError("a block needs at least one bundle")
    first = bundles[0]
    for bundle in bundles:
        if (bundle.T, bundle.m, bundle.marks) != (first.T, first.m, first.marks):
            raise ValueError("a block's bundles must share horizon, grid and marks")
        if bundle.m % config.m != 0:
            raise ValueError(f"bundle grid {bundle.m} not divisible by m = {config.m}")
        if config.l > bundle.l_level:
            raise ValueError(f"bundle level {bundle.l_level} < requested l = {config.l}")
        if modes > bundle.l_modes:
            raise ValueError(f"bundle has {bundle.l_modes} modes, need {modes}")


def _row_norms(x):
    """H-norm of every row, each a dot product as `np.linalg.norm` takes it."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


@dataclass
class BlockRun:
    """What a study reads of one block of P paths stepped together.

    `final` holds the terminal states (P, n) and `kept` what `run_block`
    was asked to keep at every knot: None, the squared H-norms (m+1, P) or
    the states (m+1, P, n).  A path's entries are NaN from the knot at
    which it was lost.  Per path, `blow_up_steps` gives the first knot
    whose squared H-norm is not finite and `failures` the implicit solver
    failure as "step i: reason", None where there is none.
    `solver_iterations` is (m, P) for the implicit kinds and empty for the
    explicit one.  `solver_residuals` is (m, P) for the implicit kinds when
    the states are kept, the only case a caller (`simulate`) reads it, and
    empty, (0, P), otherwise: a block that keeps no states computes no
    residual.
    """

    final: np.ndarray
    kept: np.ndarray | None
    blow_up_steps: list
    failures: list
    solver_iterations: np.ndarray
    solver_residuals: np.ndarray


def run_block(space, triple, config, bundles, keep=None):
    """Step one block of paths together, path p driven by ``bundles[p]``.

    Returns a `BlockRun` that keeps at every knot what `keep` names: None
    for nothing (a ladder reads only the final states), ENERGIES for the
    squared H-norms (`monte_carlo`) or STATES for the states (`simulate`).
    What is kept changes no bit of the run; only a block that keeps the
    states records the implicit solver's residuals, and the others leave
    `solver_residuals` empty.

    Row p of the state steps path p.  Step i adds to the previous value,
    in this order, δ times the lagged drift mean (explicit only), the
    Wiener term and the compensated jump term; the implicit schemes then
    solve the step equation with the result as right-hand side.  An affine
    autonomous explicit drift takes the first term and the previous value
    together, as one product of the states with I + δA.  With one Wiener
    mode the Wiener term is the broadcast product of the noise column with
    the increment, else a batched matrix product.  An autonomous triple's
    coefficients are evaluated once per step, at the midpoint of the
    window.  The explicit scheme starts at knot 1, the implicit ones at
    knot 0, and the noise terms vanish before knot 2.  Grid, partition,
    jump events and, for an affine autonomous drift, I + δA or the inverse
    of I − δA are built once for the block.

    A row whose step equation cannot be solved fails at that step; any
    other row whose squared H-norm at a knot, the initial one included, is
    not finite blows up there.  One scalar, the total energy of the rows
    not yet lost, tests a knot; only when it is not finite are the rows
    classified one by one.  It also covers the direct solve of an affine
    drift: a row of that solve with a coordinate that is not finite has
    no finite solution.  A lost row becomes NaN and the other rows go on;
    the loop stops once none is left.  Every row is evaluated at every
    step, so no row's arithmetic depends on the values of the others, and
    a block's rows may differ from blocks of one in the last bits only.
    """
    if keep not in (None, ENERGIES, STATES):
        raise ValueError(f"keep must be None, ENERGIES or STATES, not {keep!r}")
    explicit = config.kind == EXPLICIT
    if explicit and triple.constants.p != 2.0:
        raise ValueError("the explicit scheme requires p = 2")
    if explicit and triple.constants.lam > 1.0 + 1e-12:
        raise ValueError("the explicit scheme requires the coercivity weight <= 1")
    n, m, l = config.n, config.m, config.l
    modes = min(l, triple.wiener_modes)
    _check_bundles(config, bundles, modes)
    paths = len(bundles)
    space = restrict(space, n)
    grid = TimeGrid(bundles[0].T, m)
    delta = grid.delta
    partition = build_partition(bundles[0].marks, l)
    factorized = triple.jump_profile is not None
    if not factorized:
        rule = partition.marks.cell_rule(partition.lo, partition.hi, 4)
    product = inv_t = None
    if triple.linear_A is not None and triple.autonomous:
        if explicit:
            product = _operator((np.eye(n) + delta * triple.linear_A[:n, :n]).T)
        else:
            mat_t, inv_t = _factor(triple, n, delta)
    first = 1 if explicit else 0
    x = np.array([_resolve_initial(config, space, b.master_seed) for b in bundles])
    kept = None
    if keep == ENERGIES:
        kept = np.full((m + 1, paths), np.nan)
    elif keep == STATES:
        kept = np.full((m + 1, paths, n), np.nan)
    blow_up = np.full(paths, -1)
    failures = [None] * paths
    solver_steps = 0 if explicit else m
    iterations = np.zeros((solver_steps, paths), dtype=int)
    residuals = np.full((solver_steps if keep == STATES else 0, paths), np.nan)
    live = np.ones(paths, dtype=bool)
    alive = paths

    def settle(i, state):
        """Lose the live rows of knot i that failed or blew up, and keep
        what was asked for.  A finite total energy over the live rows
        clears the knot: a sum of non-negative energies is finite only if
        each of them is."""
        nonlocal alive
        if keep == ENERGIES:
            energy = np.einsum("pj,pj->p", state, state)
            total = np.add.reduce(energy if alive == paths else energy[live])
        else:
            rows = state if alive == paths else state[live]
            total = np.vdot(rows, rows)
        if not math.isfinite(total):
            if keep != ENERGIES:
                energy = np.einsum("pj,pj->p", state, state)
            if inv_t is not None and i > 0:
                failed = live & ~np.isfinite(state).all(axis=1)
                for p in np.flatnonzero(failed):
                    failures[p] = f"step {i}: {NO_FINITE_SOLUTION}"
                state[failed] = energy[failed] = np.nan
                live[failed] = False
            lost = live & ~np.isfinite(energy)
            state[lost] = energy[lost] = np.nan
            blow_up[lost] = i
            live[lost] = False
            alive = int(np.count_nonzero(live))
        if keep == ENERGIES:
            kept[i] = energy
        elif keep == STATES:
            kept[i] = state

    # the coefficients of step i are averaged over the window of knots
    # i − 2 and i − 1: an autonomous one is evaluated at its midpoint
    knots = grid.knots.tolist()
    coefficients = (triple.eval_A, triple.eval_B, triple.jump_profile)
    if triple.autonomous:
        windows = [0.5 * (t0 + t1) for t0, t1 in zip(knots, knots[1:])]
        mean_A, mean_B, mean_profile = coefficients
    else:
        windows = list(zip(knots, knots[1:]))
        mean_A, mean_B, mean_profile = (partial(_window_mean, f) for f in coefficients)
    # overflow is reported through the blow-up marker, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if explicit:
            settle(0, np.zeros((paths, n)))
        settle(first, x)
        noise = _noise_rows(bundles, grid, partition, modes, factorized, first + 1)
        for i, (dw, jump) in zip(range(first + 1, m + 1), noise):
            if not alive:
                break
            new = x
            if i >= 2:
                window = windows[i - 2]
                if product is not None:
                    new = _apply(x, product)
                elif explicit:
                    new = x + delta * mean_A(window, x)
                # each noise term is added into a fresh array, the drift
                # part or the term itself, never into x or a coefficient
                if modes:
                    bmat = mean_B(window, x)
                    if modes == 1:
                        term = bmat[..., 0] * dw
                    else:
                        term = np.matmul(bmat[..., :modes], dw[..., None])[..., 0]
                    new = np.add(new, term, out=term if new is x else new)
                if factorized:
                    term = jump[:, None] * mean_profile(window, x)
                else:
                    cols = tilde_F(triple, grid, partition, i, x, rule)
                    term = np.matmul(cols, jump[..., None])[..., 0]
                new = np.add(new, term, out=term if new is x else new)
            if inv_t is not None:
                y, new = new, _apply(new, inv_t)
                if keep == STATES:
                    residuals[i - 1] = _row_norms(_apply(new, mat_t) - y)
            elif not explicit:
                new, report = _solve_iterative(triple, grid, i, new)
                iterations[i - 1] = report.iterations
                if keep == STATES:
                    residuals[i - 1] = report.residual
                failed = live & ~report.converged
                if failed.any():
                    for p in np.flatnonzero(failed):
                        failures[p] = f"step {i}: {report.reasons[p]}"
                    live &= ~failed
                    alive = int(np.count_nonzero(live))
            settle(i, new)
            x = new
    return BlockRun(
        final=x,
        kept=kept,
        blow_up_steps=[int(step) if step >= 0 else None for step in blow_up],
        failures=failures,
        solver_iterations=iterations,
        solver_residuals=residuals,
    )


def _window_mean(fn, window, x):
    """Time mean of a non-autonomous coefficient over a window (t0, t1)."""
    return time_mean(fn, x, *window, False)


def solve_implicit_step(triple, grid, i, y):
    """Solve x − δ·(Π_n)A^m_i(x) = y for every row of a (P, n) block `y`.

    Affine autonomous drifts are solved directly as one product of the block
    with the inverse of I − δA, with zero iterations and the residual
    ‖(I − δA)x − y‖, read off the matrix without evaluating the drift, in
    the report.  (`run_block` makes the same product itself, computes that
    residual only in a block that keeps the states, and finds rows without
    a finite solution through its knot test.)  Otherwise a damped residual
    iteration starts from `y` and a finite-difference Newton step takes
    over when it stalls, with damping, stall count and convergence kept per
    row.  Non-convergence signals that the step equation has left the
    strongly monotone regime, i.e. the time step is too large.  A row that
    cannot be solved is marked (NaN in x, False in ``report.converged``,
    its cause in ``report.reasons``) and the other rows are solved
    regardless.  Returns x and a `SolveReport`.
    """
    y = np.asarray(y, dtype=float)
    if triple.linear_A is None or not triple.autonomous:
        return _solve_iterative(triple, grid, i, y)
    mat_t, inv_t = _factor(triple, y.shape[1], grid.delta)
    x = _apply(y, inv_t)
    residual = _row_norms(_apply(x, mat_t) - y)
    solved = np.isfinite(x).all(axis=1)
    x[~solved] = np.nan
    reasons = [None if ok else NO_FINITE_SOLUTION for ok in solved]
    return x, SolveReport(np.zeros(len(y), dtype=int), residual, solved, reasons)


NO_FINITE_SOLUTION = (
    "implicit step has no finite solution; increase the number of time steps m"
)


def _factor(triple, n, delta):
    """The transposed matrix I − δA of an affine autonomous drift and its
    transposed inverse, as `_operator`s: x = _apply(y, inv_t) solves
    (I − δA)x = y row by row, and _apply(x, mat_t) − y is its residual.

    A singular I − δA gets a NaN inverse: every row it is applied to then
    has no finite solution, as with any other non-finite one.
    """
    mat = np.eye(n) - delta * triple.linear_A[:n, :n]
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        inv = np.full((n, n), np.nan)
    return _operator(mat.T), _operator(inv.T)


def _operator(matrix):
    """What `_apply` takes for the product with `matrix`: the vector of its
    diagonal when every other entry is zero, else the matrix itself."""
    diagonal = np.diagonal(matrix)
    if np.count_nonzero(matrix - np.diag(diagonal)):
        return matrix
    return diagonal.copy()


def _apply(x, operator):
    """``x @ matrix`` for an `_operator` of the matrix, row by row.

    A diagonal scales each column: every other term of the product is an
    exact zero, so the finite values agree bit for bit, and the added +0
    turns the −0 of a zero coordinate into the +0 the product gives.  A
    row that is not finite may differ in its other coordinates (the
    product spreads inf·0 = NaN over the row); the knot test loses such a
    row either way.
    """
    if operator.ndim == 2:
        return x @ operator
    out = x * operator
    out += 0.0
    return out


def _solve_iterative(triple, grid, i, y):
    """Damped residual iteration with a Newton fallback, row by row."""
    max_iter = SOLVER_MAX_ITER
    delta = grid.delta
    rows, n = y.shape

    def residual_vec(x):
        return x - delta * impl_A(triple, grid, i, x) - y

    target = SOLVER_TOL * (1.0 + _row_norms(y))
    x = y.copy()
    r = residual_vec(x)
    rn = _row_norms(r)
    omega = np.ones(rows)
    stall = np.zeros(rows, dtype=int)
    iterations = np.full(rows, max_iter)
    reasons = [None] * rows
    live = np.isfinite(y).all(axis=1)
    for p in np.flatnonzero(~live):
        reasons[p] = NO_FINITE_SOLUTION
    for iteration in range(1, max_iter + 1):
        done = live & (rn <= target)
        iterations[done] = iteration - 1
        live &= ~done
        if not live.any():
            break
        newton = live & ((stall >= 3) | (omega < 1e-3))
        damped = live & ~newton
        if newton.any():
            # finite-difference Newton on the residual map
            jac = np.broadcast_to(np.eye(n), (rows, n, n)).copy()
            h = 1e-7 * (1.0 + np.abs(x))
            base = delta * impl_A(triple, grid, i, x)
            for k in range(n):
                xk = x.copy()
                xk[:, k] += h[:, k]
                jac[:, :, k] -= (
                    delta * impl_A(triple, grid, i, xk) - base
                ) / h[:, k, None]
            dx = np.zeros_like(x)
            for p in np.flatnonzero(newton):
                try:
                    dx[p] = np.linalg.solve(jac[p], r[p])
                except np.linalg.LinAlgError:
                    newton[p] = live[p] = False
                    reasons[p] = "implicit step linearization is singular; increase m"
            step = np.ones(rows)
            for _ in range(30):
                if not newton.any():
                    break
                xn = x - step[:, None] * dx
                r_new = residual_vec(xn)
                rn_new = _row_norms(r_new)
                better = newton & (rn_new < rn)
                x[better], r[better] = xn[better], r_new[better]
                rn[better], omega[better], stall[better] = rn_new[better], 1.0, 0
                newton &= ~better
                step[newton] *= 0.5
            for p in np.flatnonzero(newton):
                live[p] = False
                reasons[p] = (
                    "implicit step iteration cannot reduce the residual; increase m"
                )
        if damped.any():
            xn = x - omega[:, None] * r
            r_new = residual_vec(xn)
            rn_new = _row_norms(r_new)
            better = damped & (rn_new < rn)
            worse = damped & ~better
            stall += better & (rn_new > 0.5 * rn)
            x[better], r[better], rn[better] = xn[better], r_new[better], rn_new[better]
            omega[better] = np.minimum(1.0, omega[better] * 1.5)
            omega[worse] *= 0.5
            stall += worse
    for p in np.flatnonzero(live & ~(rn <= target)):
        reasons[p] = (
            f"implicit step did not converge within {max_iter} iterations "
            f"(residual {rn[p]:.3e} > {target[p]:.3e}); "
            "increase the number of time steps m"
        )
    solved = np.array([reason is None for reason in reasons])
    x[~solved] = np.nan
    return x, SolveReport(iterations, rn, solved, reasons)
