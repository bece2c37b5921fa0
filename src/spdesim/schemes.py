"""Explicit and implicit Galerkin time-stepping schemes.

All three scheme kinds run through one stepping loop, `run_block`, and
differ only in the drift update.  The loop steps a block of paths
together: the state is a (paths, n) array, row p driven by path p of the
block's `BlockNoise`, and each coefficient is evaluated once per step for
the whole block; a one-path run is a block of one.  A block keeps at every
knot only what its caller reads: nothing, the squared H-norms or the
states.  The explicit scheme starts from zero, injects the projected
initial condition at the first knot, and adds δ times the lagged-window
drift mean; its stability is governed by the product of the step size with
the basis constant of the space.  The implicit schemes start from the
(projected) initial condition and solve a monotone step equation in which
the drift is averaged over the current window.  An affine autonomous drift
A is stepped as one product with a matrix formed once per block: I + δA in
the explicit scheme, the inverse of I − δA in the implicit ones.  A
diagonal matrix, as every shipped fixture's, is kept as the vector of its
diagonal and the product is a column-wise scaling with the same bits.  In
every kind the noise coefficients are averaged over the lagged window.
"Unprojected" runs are realized at the ambient resolution of the
experiment: a truly infinite-dimensional state is not representable, so
the plain and projected implicit kinds are one code path and differ only
through the projection dimension.

One rule loses a path in every kind: it blows up at the first knot whose
squared H-norm is not finite, instead of raising, since instability
outside the stability region is a legitimate, reportable outcome.  An
implicit path whose step equation cannot be solved fails at that step
instead.  A lost path is marked and set to NaN while the other paths of
its block go on.  A block writes the states of KNOT_CHUNK knots into one
buffer and tests them with one scalar, the total energy of the paths still
going, which also covers both implicit solvers, since each leaves a path
it cannot solve not finite; the knots are scanned and the paths told
apart one by one only when it is not finite, and the loop stops after the
first chunk that leaves no path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .averaging import impl_A, tilde_F, time_mean
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
    """Implicit-step outcome per row of a block: iterations and residual
    norm as (P,) arrays, and each failed row's cause in `reasons` (None
    where the row converged)."""

    iterations: np.ndarray
    residual: np.ndarray
    reasons: list

    @property
    def converged(self):
        """(P,) bools, True where a row's reason is None."""
        return np.array([reason is None for reason in self.reasons], dtype=bool)


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


# Knots a block steps between two knot tests (`run_block`): their states
# fill one (KNOT_CHUNK, paths, n) buffer, about 0.5 MB at 64 paths and
# n = 32, which one finiteness test and one energy pass then read.  The
# noise of a chunk's steps is built at once (`BlockNoise.knot_chunks`), a
# one-mode Wiener increment and a factorized jump scalar as one more such
# plane each.
KNOT_CHUNK = 32


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


def run_block(space, triple, config, noise, keep=None):
    """Step one block of paths together, row p driven by path p of `noise`,
    the `BlockNoise` that `read_block` reads from the block's bundles.

    The block must drive the configuration: its grid divisible by m, its
    level at least l and the Wiener modes the triple reads at l among its
    own; `noise.knot_chunks` rejects any other with a ValueError before the
    block is stepped.  Returns a `BlockRun` that keeps at every knot what
    `keep` names: None for nothing (a ladder reads only the final states),
    ENERGIES for the squared H-norms (`monte_carlo`) or STATES for the
    states (`simulate`).  What is kept changes no bit of the run; only a
    block that keeps the states records the implicit solver's residuals,
    and the others leave `solver_residuals` empty.

    Row p of the state steps path p.  Step i adds to the previous value,
    in this order, δ times the lagged drift mean (explicit only), the
    Wiener term and the compensated jump term; the implicit schemes then
    solve the step equation with the result as right-hand side.  An affine
    autonomous explicit drift takes the first term and the previous value
    together, as one product of the states with I + δA.  The noise of a
    chunk's steps is built before the chunk is stepped, by the reader that
    `noise.knot_chunks` gives the configuration: the block's fine Wiener
    increments summed to the rung, and the jump data of the block's jump
    list binned once at the rung's grid and partition.  With one Wiener
    mode the Wiener term is the product of the noise column with a plane
    that repeats each path's increment along the state, else a batched
    matrix product; a factorized jump term is the product of the profile
    with a plane of each path's jump scalar, a general one a batched
    matrix product with the cell increments.  The two noise terms are
    formed in two scratch arrays of the block, never in the state or in a
    coefficient's value.  An autonomous triple's coefficients are
    evaluated once per step, at the midpoint of the window.  The explicit
    scheme starts at knot 1, the implicit ones at knot 0, and the noise
    terms vanish before knot 2.  Grid, partition, the binned jumps, a
    path-independent initial condition and, for an affine autonomous
    drift, I + δA or the inverse of I − δA are built once for the block;
    so is the chord matrix of any other implicit drift (`_chord_matrix`),
    which `_solve_iterative` reads.

    A row whose step equation cannot be solved fails at that step; any
    other row whose squared H-norm at a knot, the initial one included, is
    not finite blows up there.  The states of up to KNOT_CHUNK knots are
    written into one buffer and tested together by one scalar, the total
    energy of the rows not yet lost; only when it is not finite are the
    knots scanned in order and the rows classified one by one.  That one
    test serves both solvers: an implicit row lost at a knot after the
    first failed there if a coordinate is not finite, which the direct
    solve gives a row without a finite solution and the iterative one a
    row it cannot solve, and blew up otherwise.  The failure names
    NO_FINITE_SOLUTION for the direct solve and the solver's reason at
    that knot for the iterative one.  A lost row is NaN from its loss knot
    on, in its states, energies and later solver residuals, and its later
    iteration counts are SOLVER_MAX_ITER, those of a solve of NaN; the
    other rows go on, and the loop stops at the end of the first chunk
    that leaves none.  Every row is evaluated at every step, so no row's
    arithmetic depends on the values of the others, the chunk length
    changes no bit, and a block's rows may differ from blocks of one in
    the last bits only.
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
    factorized = triple.jump_profile is not None
    # the reader rejects a configuration that the block cannot drive
    chunk = KNOT_CHUNK
    chunks = noise.knot_chunks(m, l, modes, factorized, n, chunk)
    paths = len(noise.master_seeds)
    space = restrict(space, n)
    grid = TimeGrid(noise.T, m)
    delta = grid.delta
    if not factorized:
        partition = build_partition(noise.marks, l)
        rule = partition.marks.cell_rule(partition.lo, partition.hi, 4)
    drift = solve = None
    if triple.linear_A is not None and triple.autonomous:
        if explicit:
            matrix = np.eye(n) + delta * triple.linear_A[:n, :n]
            drift = _writer(_operator(matrix.T), paths)
        else:
            mat_t, inv_t = _factor(triple, n, delta)
            solve, residual_of = _writer(inv_t, paths), _writer(mat_t, paths)
            product = np.empty((paths, n))
    iterative = not explicit and solve is None
    chord = _chord_matrix(triple, grid, n) if iterative else None
    first = 1 if explicit else 0
    # states[0] holds the knot before a chunk and states[1 + j] its knot j
    states = np.empty((chunk + 1, paths, n))
    # a random initial condition is drawn per path, any other once
    seeds = noise.master_seeds if callable(config.initial) else [None]
    states[0] = [_resolve_initial(config, space, seed) for seed in seeds]
    wiener, jumps = np.empty((paths, n)), np.empty((paths, n))
    rhs = None if explicit else np.empty((paths, n))
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
    # the iterative solver's failure reasons per row at knot j of a chunk
    reasons = [None] * chunk
    live = np.ones(paths, dtype=bool)
    alive = paths

    def settle(lo, block):
        """Lose the live rows of knots lo, lo + 1, ... (``block[j]`` holds
        knot lo + j) that failed or blew up, and keep what was asked for.
        A finite total energy over the live rows clears the chunk: a sum of
        non-negative energies is finite only if each of them is."""
        nonlocal alive
        k = len(block)
        flat = block.reshape(k * paths, n)
        energy = None
        if keep == ENERGIES:
            energy = np.einsum("pj,pj->p", flat, flat).reshape(k, paths)
            rows = energy if alive == paths else energy[:, live]
            total = np.add.reduce(rows, axis=None)
        else:
            rows = block if alive == paths else block[:, live]
            total = np.vdot(rows, rows)
        if not math.isfinite(total):
            if energy is None:
                energy = np.einsum("pj,pj->p", flat, flat).reshape(k, paths)
            for j in range(k):
                i = lo + j
                lost = live & ~np.isfinite(energy[j])
                if not lost.any():
                    continue
                blown = lost
                if not explicit and i > 0:
                    # either solver leaves a row it cannot solve not finite
                    failed = lost & ~np.isfinite(block[j]).all(axis=1)
                    for p in np.flatnonzero(failed):
                        reason = reasons[j][p] if iterative else NO_FINITE_SOLUTION
                        failures[p] = f"step {i}: {reason}"
                    blown = lost & ~failed
                blow_up[blown] = i
                live[lost] = False
                # rows lost at knot i stepped on inside the chunk: their
                # states, energies and residuals from there are NaN, and
                # their iteration counts those of a solve of NaN
                block[j:, lost] = energy[j:, lost] = np.nan
                residuals[i:, lost] = np.nan
                if iterative:
                    iterations[i:, lost] = SOLVER_MAX_ITER
            alive = int(np.count_nonzero(live))
        if keep == ENERGIES:
            kept[lo : lo + k] = energy
        elif keep == STATES:
            kept[lo : lo + k] = block

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
            settle(0, np.zeros((1, paths, n)))
        settle(first, states[:1])
        for lo in range(first + 1, m + 1, chunk):
            if not alive:
                break
            k = min(chunk, m + 1 - lo)
            dws, jump_rows = chunks(lo, k)
            for j in range(k):
                i = lo + j
                x, new = states[j], states[j + 1]
                # y takes the sum of the terms: the new state if explicit,
                # else the right-hand side of the step equation
                y = new if explicit else rhs
                if i >= 2:
                    window = windows[i - 2]
                    if modes:
                        bmat = mean_B(window, x)
                        if modes == 1:
                            np.multiply(bmat[..., 0], dws[j], out=wiener)
                        else:
                            column, dw = wiener[..., None], dws[j, ..., None]
                            np.matmul(bmat[..., :modes], dw, out=column)
                    if factorized:
                        np.multiply(jump_rows[j], mean_profile(window, x), out=jumps)
                    else:
                        cols = tilde_F(triple, grid, partition, i, x, rule)
                        np.matmul(cols, jump_rows[j, ..., None], out=jumps[..., None])
                    base = x
                    if drift is not None:
                        drift(x, new)
                        base = new
                    elif explicit:
                        np.multiply(mean_A(window, x), delta, out=new)
                        new += x
                        base = new
                    if modes:
                        np.add(base, wiener, out=y)
                        base = y
                    np.add(base, jumps, out=y)
                else:
                    y = x
                if solve is not None:
                    solve(y, new)
                    if keep == STATES:
                        residuals[i - 1] = _row_norms(residual_of(new, product) - y)
                elif iterative:
                    new[...], report = _solve_iterative(triple, grid, i, y, chord)
                    iterations[i - 1] = report.iterations
                    if keep == STATES:
                        residuals[i - 1] = report.residual
                    reasons[j] = report.reasons
            settle(lo, states[1 : k + 1])
            states[0] = states[k]
    return BlockRun(
        final=states[0].copy(),
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
    a finite solution through its knot test.)  Otherwise every row is
    solved by chord steps from `y`, with M = (I − δJ₀)⁻ᵀ formed once for
    the call from the drift's Jacobian J₀ at the origin at step 1, and by
    finite-difference Newton steps from the first chord step that does not
    halve its residual (`_solve_iterative`).  Non-convergence signals that
    the step equation has left the strongly monotone regime, i.e. the time
    step is too large.  A row that cannot be solved is marked (NaN in x,
    its cause in ``report.reasons``, so False in ``report.converged``) and
    the other rows are solved regardless, without a warning, as in
    `run_block`.  Returns x and a `SolveReport`.

    A `y` that is not a (P, n) block with n at most the triple's dimension
    and a step index `i` outside 1..m, the steps a scheme solves, are a
    ValueError.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] > triple.dim:
        raise ValueError(f"y must be (P, n) with n <= {triple.dim}, not {y.shape}")
    if not 1 <= i <= grid.m:
        raise ValueError(f"step index i = {i} outside 1..{grid.m}")
    rows, n = y.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if triple.linear_A is None or not triple.autonomous:
            return _solve_iterative(triple, grid, i, y, _chord_matrix(triple, grid, n))
        mat_t, inv_t = _factor(triple, n, grid.delta)
        x = _writer(inv_t, rows)(y, np.empty_like(y))
        residual = _row_norms(_writer(mat_t, rows)(x, np.empty_like(y)) - y)
    solved = np.isfinite(x).all(axis=1)
    x[~solved] = np.nan
    reasons = [None if ok else NO_FINITE_SOLUTION for ok in solved]
    return x, SolveReport(np.zeros(rows, dtype=int), residual, reasons)


NO_FINITE_SOLUTION = (
    "implicit step has no finite solution; increase the number of time steps m"
)


def _factor(triple, n, delta):
    """The transposed matrix I − δA of an affine autonomous drift and its
    transposed inverse, as `_operator`s: `_writer(inv_t, P)` writes the
    solution x of (I − δA)x = y for every row of a (P, n) block y, and
    `_writer(mat_t, P)` of x minus y is its residual.

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
    """What `_writer` takes for the product with `matrix`: the vector of its
    diagonal when every other entry is zero, else the matrix itself."""
    diagonal = np.diagonal(matrix)
    if np.count_nonzero(matrix - np.diag(diagonal)):
        return matrix
    return diagonal.copy()


def _writer(operator, paths):
    """``x @ matrix`` for an `_operator` of the matrix, as a function
    (x, out) that writes it into out, and returns out, for a (paths, n)
    block x.

    A diagonal scales each column, multiplying a (paths, n) copy of itself
    so that no operand is broadcast: every other term of the product is an
    exact zero, so the finite values agree bit for bit, and the added +0
    turns the −0 of a zero coordinate into the +0 the product gives.  A
    row that is not finite may differ in its other coordinates (the
    product spreads inf·0 = NaN over the row); the knot test loses such a
    row either way.
    """
    if operator.ndim == 2:
        return lambda x, out: np.matmul(x, operator, out=out)
    scale = np.tile(operator, (paths, 1))

    def scaled(x, out):
        np.multiply(x, scale, out=out)
        out += 0.0
        return out

    return scaled


def _jacobians(triple, grid, i, x):
    """I − δ·A'(x) of the step residual at every row of a (P, n) block `x`,
    by forward differences with steps h = 1e-7·(1 + |x|), from one drift
    call on each row stacked with its n perturbed copies."""
    n = x.shape[1]
    h = 1e-7 * (1.0 + np.abs(x))
    stack = np.repeat(x[:, None, :], n + 1, axis=1)
    diagonal = np.arange(n)
    stack[:, diagonal + 1, diagonal] += h
    values = grid.delta * impl_A(triple, grid, i, stack)
    slopes = (values[:, 1:] - values[:, :1]) / h[:, :, None]
    return np.eye(n) - slopes.transpose(0, 2, 1)


def _chord_matrix(triple, grid, n):
    """The chord step's M = (I − δJ₀)⁻ᵀ, with J₀ the finite-difference
    Jacobian of the drift at the origin at step 1, or None where I − δJ₀
    is singular."""
    try:
        inverse = np.linalg.inv(_jacobians(triple, grid, 1, np.zeros((1, n)))[0])
    except np.linalg.LinAlgError:
        return None
    return np.ascontiguousarray(inverse.T)


def _solve_iterative(triple, grid, i, y, chord):
    """Chord iteration with a per-row Newton fallback, row by row.

    Every row starts from `y` and takes one step per iteration.  A chord
    step is x ← x − r(x)·M, with r(x) = x − δA(x) − y and M = `chord`
    (`_chord_matrix`); it is kept where it lowers the residual.  A row
    whose residual a chord step does not at least halve, and every row
    where `chord` is None, takes finite-difference Newton steps from then
    on, each with a halving line search.  The residual and Newton's
    Jacobians are evaluated at every row, so that no row's arithmetic
    depends on which rows need them.  A row converges at a residual of
    SOLVER_TOL·(1 + ‖y‖) and fails where its Newton linearization is
    singular, where no Newton step lowers its residual or after
    SOLVER_MAX_ITER iterations.
    """
    rows = len(y)

    def residual_of(x):
        return x - grid.delta * impl_A(triple, grid, i, x) - y

    target = SOLVER_TOL * (1.0 + _row_norms(y))
    x = y.copy()
    r = residual_of(x)
    rn = _row_norms(r)
    iterations = np.full(rows, SOLVER_MAX_ITER)
    live = np.isfinite(y).all(axis=1)
    reasons = [None if ok else NO_FINITE_SOLUTION for ok in live]
    newton = np.full(rows, chord is None)
    for iteration in range(1, SOLVER_MAX_ITER + 1):
        done = live & (rn <= target)
        iterations[done] = iteration - 1
        live &= ~done
        if not live.any():
            break
        solving = live & newton
        chording = live & ~newton
        if chording.any():
            xn = x - r @ chord
            r_new = residual_of(xn)
            rn_new = _row_norms(r_new)
            newton |= chording & ~(rn_new <= 0.5 * rn)
            better = chording & (rn_new < rn)
            x[better], r[better], rn[better] = xn[better], r_new[better], rn_new[better]
        if solving.any():
            jac = _jacobians(triple, grid, i, x)
            dx = np.zeros_like(x)
            for p in np.flatnonzero(solving):
                try:
                    dx[p] = np.linalg.solve(jac[p], r[p])
                except np.linalg.LinAlgError:
                    solving[p] = live[p] = False
                    reasons[p] = "implicit step linearization is singular; increase m"
            step = np.ones(rows)
            for _ in range(30):
                if not solving.any():
                    break
                xn = x - step[:, None] * dx
                r_new = residual_of(xn)
                rn_new = _row_norms(r_new)
                better = solving & (rn_new < rn)
                x[better], r[better], rn[better] = xn[better], r_new[better], rn_new[better]
                solving &= ~better
                step[solving] *= 0.5
            for p in np.flatnonzero(solving):
                live[p] = False
                reasons[p] = (
                    "implicit step iteration cannot reduce the residual; increase m"
                )
    for p in np.flatnonzero(live & ~(rn <= target)):
        reasons[p] = (
            f"implicit step did not converge within {SOLVER_MAX_ITER} iterations "
            f"(residual {rn[p]:.3e} > {target[p]:.3e}); "
            "increase the number of time steps m"
        )
    report = SolveReport(iterations, rn, reasons)
    x[~report.converged] = np.nan
    return x, report
