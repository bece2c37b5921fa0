"""Operator triples (A, B, F), their structural constants, and verifiers.

The drift A maps into the dual space (returned as basis actions), the
Wiener coefficient B into Hilbert-Schmidt operators (returned as a
dim × modes matrix of H-coordinates, column k the image of the k-th noise
mode), and the jump coefficient F into H (one coordinate vector per mark;
evaluators must broadcast over a vector of marks into a dim × k matrix).

All evaluators are *dimension polymorphic along the nested basis family*:
called with a shorter coordinate vector they must return the projection of
the operator value onto that leading subspace.  This lets a single triple
drive simulations at every resolution of a coupled study.

All evaluators also take a *batch of states*: `x` has shape (..., n), the
trailing axis holding the coordinates, and the value gains the same leading
axes - A and the jump profile return (..., n), B returns (..., n, modes)
and F returns (..., n, k) for k marks.  Each row is evaluated as if it were
passed alone (matrices act as ``x @ M[:n, :n].T``), so a block of paths is
stepped with one call per coefficient.  The time `t` is a scalar, the time
of every row, or an array that broadcasts to x.shape[:-1], one time per
row: the condition checks pass (P,) times, one per trial, and a time
mean passes its quadrature times as (TIME_POINTS, 1, ...) against states
stacked along a new leading axis.  An evaluator that does not depend on
time ignores `t`, as the shipped ones do.

The structural conditions (dissipativity, coercivity, growth,
hemicontinuity, and the derived bounds on the noise coefficients) quantify
over the whole space, so the checkers here are statistical: they sample
random inputs, evaluate the defining inequality, and report the worst
violation with a witness.  A check with seed s draws all its trials from
the one Philox stream keyed derive_key(s, TAG_TRIAL), in one C call
(`rng.philox_raw`): trial j is row j of its raw outputs laid out w to a
row, where w, a multiple of 4, is fixed by the draw kind and n.  Trial j
is therefore the counter blocks j·w/4 to (j+1)·w/4 − 1 of that stream:
it depends on the seed and j alone, and can be drawn by itself with
``Philox.advance``.  `BoxSampler.points` and `BoxSampler.pairs` map the
rows to samples.

These draws depend on the sampler, the draw kind ("points" or "pairs"),
the seed and the trial count alone, not on the triple, so they are drawn
once and shared: checks with the same four inputs, such as one suite
config run on several triples, reuse the arrays.  Only the last four
draws are kept, one suite's sampled checks (about 4 MB at 10,000 trials
and n = 8), and they are read-only: an evaluator that writes into the
states it is given, which evaluators must not do, raises ValueError
instead of changing later checks.  A process that runs one suite, as
``spdesim check-conditions`` does, draws as much as without sharing.
A declared jump profile's values at a check's draws are shared the same
way, keyed on the profile, the draws and the chunk size: triples whose
profiles are equal, such as mutations of one triple that keep its
profile, evaluate it once per check, state and chunk.  The values are
computed chunk by chunk as the scan takes them, so they have the bits of
a per-triple call.  Only the last suite's three profile-bearing checks
(C1, C2 and PropBF) are kept, read-only: about 0.64 MB at 2,000 trials
and n = 8, 3.2 MB at 10,000.  An undeclared F, or a profile that cannot
be hashed, is evaluated by each check on its own.

Trials are evaluated a chunk at a time as one array: times of shape (P,),
states of shape (P, n), the pairings of `space` row by row, and mark
integrals through `MarkIntegral.integral_sq`.  A check computes only the
norms it reads: C2 and PropBF the V-norms of the states (`space.v_norms`),
C3 those and the dual norms of A(x) (two products with the inverse
Cholesky factor of the V-Gram per chunk).  A triple that declares
`jump_profile` has its jump integrals in closed form from the (P, n)
profile values; only an undeclared F is evaluated as
(P, n, k) values at the k quadrature marks.
A chunk holds max(1, SCAN_VALUES // width) trials.  The width is n times
the largest of n, B's Wiener modes and, for an undeclared F only, the k
quadrature marks (n·n for C3, which evaluates A alone): the widest array a
trial adds to the chunk, or the n·n multiply-adds of its state's products
with n × n matrices (the V-Gram of its norms, the inverse Cholesky
factor of its dual norm, an affine fixture's matrices).  So an undeclared
F keeps its (P, n, k) values near 1 MB (204 trials at n = 8 and k = 80), and a
declared profile at n = 8 scans 2,048 trials as one chunk.  Bounding the
products keeps each below the size at which OpenBLAS spreads it over
threads, which on matrices this small costs more than it saves: with two
BLAS threads on two CPUs, a V-norm and dual-norm pass over (8192, 8)
states took 8 ms against 0.35 ms over (4096, 8).
Each coefficient is called once per chunk with the chunk's (P,) times.  The
condition constants are numbers, the same at every time.  Witnesses and
verdicts do not depend on the chunk size on a diagonal V-Gram, as on
every shipped sine space.  On a dense Gram a last chunk of one trial
takes numpy's matrix-vector (gemv) path, so its norms may differ in the
last bits from those the same trial gets as a row of a larger chunk's
matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .noise import build_partition
from .rng import TAG_TRIAL, derive_key, philox_raw
from .space import _dual_norms, pairing, v_norms

DEFAULT_TOLERANCE = 1e-8
# Half-width of the coordinate box the statistical checks sample states from.
SAMPLE_BOX = 5.0
# Values, 1 MB of float64, that one chunk of a sampled check may reach in
# its widest per-trial array, and multiply-adds in each product of its
# states with an n × n matrix: a check of width w per trial scans
# max(1, SCAN_VALUES // w) trials as one array.
SCAN_VALUES = 2**17


def _uniform(raw, low, high):
    """numpy's ``uniform(low, high)`` of raw outputs: low + (high−low)·(raw>>11)·2⁻⁵³."""
    return low + (high - low) * ((raw >> np.uint64(11)) * 2.0**-53)


@dataclass(frozen=True)
class ConditionConstants:
    """Exponents and allowances entering the conditions, all numbers.

    `lam` is the coercivity weight (strictly positive; must stay <= 1 for
    the explicit scheme), `k1` the additive coercivity allowance, `k1bar`
    the H-norm growth allowance, `k2` the drift growth allowance.
    `horizon` is the end of the time interval [0, horizon] they hold on.
    """

    p: float
    alpha: float
    lam: float
    k1: float
    k1bar: float
    k2: float
    horizon: float = 1.0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("exponent p must be >= 2")
        if self.alpha < 1:
            raise ValueError("growth constant must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        for name in ("lam", "k1", "k1bar", "k2"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def q(self):
        return self.p / (self.p - 1.0)

    @property
    def k3(self):
        """Combined allowance (2/q)·K2 + K1 from the noise-bound estimates."""
        return (2.0 / self.q) * self.k2 + self.k1


@dataclass(frozen=True)
class CoefficientTriple:
    """The operators (A, B, F) with their condition constants.

    `autonomous` declares that every evaluator ignores `t`, so that a time
    mean is one evaluation at the window midpoint; that is all it selects.
    `linear_A`, when set, is the matrix of a linear drift that holds at
    every t, and it must be the matrix of `eval_A`: ``eval_A(t, x)`` is
    ``x @ linear_A[:n, :n].T``, up to rounding, for every n, t and batch x
    of shape (..., n).  An `exponential_transform` keeps it, shifted by
    −½·rate·I, up to the rounding of γ⁻¹A(γx) − ½·rate·x in its `eval_A`.
    A declared `linear_A` alone selects the affine step, whether or not
    the triple is autonomous: the schemes step that drift without
    evaluating it, explicitly as one product with I + δA, implicitly with
    the inverse of I − δA; a diagonal `linear_A`, as every shipped fixture
    declares, makes that product a column-wise scaling with the same bits.
    `jump_profile`, when set, declares the factorization
    F(t, x, ξ) = ξ · jump_profile(t, x): in every mark family the mark is
    its own jump weight.  The schemes then take their jump cell means from
    closed-form cell masses, and the condition checks integrate ∫‖F‖² ν in
    closed form, without evaluating F at any mark.  A profile must be a
    pure function of (t, x); if it is hashable, the condition checks share
    its values with every triple whose profile compares equal.
    """

    dim: int
    eval_A: object
    eval_B: object
    eval_F: object
    constants: ConditionConstants
    autonomous: bool = True
    wiener_modes: int = 1
    linear_A: np.ndarray | None = None
    jump_profile: object | None = None


@dataclass(frozen=True)
class BoxSampler:
    """Coordinates uniform in [−SAMPLE_BOX, SAMPLE_BOX]^dim, t in [0, horizon].

    Pair draws mix independent box samples with single-mode bumps of one
    argument: conditions that fail only along individual basis directions
    would otherwise be invisible at desk-scale trial counts.

    `points` and `pairs` draw the trials of a check, and `points` the
    hemicontinuity probe's time and directions, from the Philox stream of
    one key: trial j is row j of the stream's raw outputs, w to a row for w
    the kind's output count rounded up to a multiple of 4, and each output
    is mapped as numpy's ``Generator.uniform`` maps it.
    """

    dim: int
    horizon: float = 1.0

    def points(self, key, trials):
        """t (P,) and x (P, n) of `trials` trials: a row's outputs are t,
        then x.  Trial 0 is the origin, whatever its outputs."""
        raw = _rows(key, trials, 1 + self.dim)
        x = _uniform(raw[:, 1 : self.dim + 1], -SAMPLE_BOX, SAMPLE_BOX)
        x[:1] = 0.0
        return _uniform(raw[:, 0], 0.0, self.horizon), x

    def pairs(self, key, trials):
        """t (P,), x and y (P, n) of `trials` trials, y an independent box
        sample or x bumped in one mode.

        A row's outputs are t, x, the branch uniform, then either y or the
        mode and the bump.  The mode is ((raw >> 32)·n) >> 32, the high 32
        bits of its output scaled to [0, n), which never rejects; for one
        mode no output is spent on it.
        """
        n = self.dim
        raw = _rows(key, trials, 2 * n + 2)
        t = _uniform(raw[:, 0], 0.0, self.horizon)
        x = _uniform(raw[:, 1 : n + 1], -SAMPLE_BOX, SAMPLE_BOX)
        fresh = _uniform(raw[:, n + 1], 0.0, 1.0) < 0.5
        other = _uniform(raw[:, n + 2 : 2 * n + 2], -SAMPLE_BOX, SAMPLE_BOX)
        y = np.where(fresh[:, None], other, x)
        mode = ((raw[:, n + 2] >> np.uint64(32)) * np.uint64(n)) >> np.uint64(32)
        bump = _uniform(raw[:, n + 2 + (n > 1)], -2.0 * SAMPLE_BOX, 2.0 * SAMPLE_BOX)
        rows = np.flatnonzero(~fresh)
        y[rows, mode[rows].astype(np.intp)] += bump[rows]
        return t, x, y


def _rows(key, trials, count):
    """The raw outputs of `trials` trials of `count` outputs each, from the
    stream of `key`: (trials, w) with w `count` rounded up to a multiple of
    4, so that each row is whole counter blocks."""
    width = -(-count // 4) * 4
    return philox_raw(key, trials * width).reshape(trials, width)


class MarkIntegral:
    """∫ ‖G(ξ)‖² ν(dξ) over the full mark space.

    A factorized G(ξ) = ξ·p is integrated in closed form: ‖p‖² times the
    constant `weight_sq`, the integral of ξ² over the marks.  Any other G
    goes through the quadrature: the level-l exhaustion set cell by cell,
    4 points per cell, plus the analytic tail mass of ξ² times ‖G(ξ)‖²/ξ²
    at the reference mark, the upper edge of the last cell.  That tail term
    is exact whenever G is factorized, which covers the shipped coefficient
    families; otherwise it is the declared truncation estimate.
    `weight_sq` uses the same nodes and tail.
    """

    def __init__(self, marks, level=2):
        partition = build_partition(marks, level)
        nodes, weights = marks.cell_rule(partition.lo, partition.hi, 4)
        self.nodes = nodes.ravel()
        self.weights = weights.ravel()
        self.tail_sq = marks.tail_mass_sq(level)
        self.ref_mark = float(partition.hi[-1])
        self.ref_scale = self.tail_sq / self.ref_mark**2 if self.tail_sq > 0 else 0.0
        self.weight_sq = float(self.weights @ self.nodes**2) + self.tail_sq

    def integral_sq(self, g=None, profile=None):
        """∫ ‖g(ξ)‖² ν(dξ); g maps a vector of k marks to a (..., dim, k) array.

        For a factorized integrand ξ·p pass the (..., dim) values of
        p as `profile` instead of g: the integral is then `weight_sq`·‖p‖²,
        with no mark evaluated.  Leading axes are a batch with one integral
        each, returned as an array of that shape; a single value gives a
        Python float.
        """
        if profile is not None:
            p = np.asarray(profile, dtype=float)
            total = self.weight_sq * np.einsum("...i,...i->...", p, p)
            return float(total) if total.ndim == 0 else total
        vals = np.atleast_2d(np.asarray(g(self.nodes), dtype=float))
        total = np.einsum("...ik,k->...", vals**2, self.weights)
        if self.ref_scale:
            ref = np.atleast_2d(np.asarray(g(np.array([self.ref_mark])), dtype=float))
            total = total + self.ref_scale * np.einsum("...ik,...ik->...", ref, ref)
        return float(total) if total.ndim == 0 else total


@dataclass
class ConditionReport:
    """Outcome of one statistical condition check."""

    condition_id: str
    trials: int
    worst_violation: float
    witness: dict
    passed: bool

    def __str__(self):
        state = "passed" if self.passed else "FAILED"
        return (
            f"{self.condition_id}: {state} "
            f"(worst violation {self.worst_violation:.3e} over {self.trials} trials)"
        )


# one entry per sampled check of a suite: the last suite's draws, about 4 MB
# at 10,000 trials and n = 8
@lru_cache(maxsize=4)
def _trial_draws(sampler, kind, seed, trials):
    """The columns `sampler.points` or `sampler.pairs` (`kind`) draws for
    trials 0 .. trials−1 of a check with `seed`, set read-only.

    The check's stream is keyed by `seed`, so the draws depend on these
    arguments alone: the checks a suite config runs on several triples
    draw once and share the arrays.
    """
    columns = getattr(sampler, kind)(derive_key(seed, TAG_TRIAL), trials)
    for column in columns:
        column.flags.writeable = False
    return columns


# one entry per profile-bearing check of a suite config (C1, C2 and
# PropBF): about 0.64 MB at 2,000 trials and n = 8, 3.2 MB at 10,000
@lru_cache(maxsize=3)
def _profile_values(profile, sampler, kind, seed, trials, rows):
    """A declared jump profile at the draws `_trial_draws(sampler, kind,
    seed, trials)`, per chunk of `rows` trials: one tuple per chunk of the
    values at each state of the chunk (x, then y for pairs), each copied
    and set read-only.

    The profile is called as `_scan` would call it, chunk by chunk in its
    order, so each value has the bits of that call; equal profiles share
    the values, so the triples a suite config checks with one profile
    evaluate it once per check, state and chunk.
    """
    t, *states = _trial_draws(sampler, kind, seed, trials)
    chunks = []
    for lo in range(0, trials, rows):
        values = tuple(
            np.array(profile(t[lo : lo + rows], x[lo : lo + rows])) for x in states
        )
        for value in values:
            value.flags.writeable = False
        chunks.append(values)
    return tuple(chunks)


def _shared_profile(triple, sampler, kind, seed, trials, rows):
    """`_profile_values` of the triple's declared jump profile, or None for
    an undeclared F or a profile that cannot be hashed."""
    profile = triple.jump_profile
    if profile is None:
        return None
    try:
        hash(profile)
    except TypeError:
        return None
    return _profile_values(profile, sampler, kind, seed, trials, rows)


def _scan(condition_id, sampler, kind, trials, seed, evaluate, width, triple=None):
    """Worst of `evaluate` over a check's trial draws, a chunk of trials at once.

    The samples of all trials are the column arrays (times (P,), states
    (P, n)) that `sampler` draws by `kind` ("points" or "pairs"), and
    `evaluate` returns the P values of a chunk of them.  Given `triple`,
    `evaluate` also takes F at each state of the chunk, after the states
    and as `_jump_sq` takes it: the shared values of a declared profile
    (`_shared_profile`), else `_jump_at` of the chunk.  `width` is the
    number of values per trial of the widest array `evaluate` builds; a
    chunk holds max(1, SCAN_VALUES // width) trials, all of them when they
    fit.  The witness is the first trial that reaches the largest value,
    and a non-finite value raises with the sample of the first such trial.
    """
    columns = _trial_draws(sampler, kind, seed, trials)
    rows = max(1, SCAN_VALUES // width)
    shared = None
    if triple is not None:
        shared = _shared_profile(triple, sampler, kind, seed, trials, rows)
    worst = -math.inf
    witness = {}
    for k, lo in enumerate(range(0, trials, rows)):
        chunk = [c[lo : lo + rows] for c in columns]
        if shared is not None:
            jumps = shared[k]
        elif triple is not None:
            jumps = [_jump_at(triple, chunk[0], state) for state in chunk[1:]]
        else:
            jumps = ()
        values = np.asarray(evaluate(*chunk, *jumps), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(
                f"{condition_id}: non-finite evaluation at witness "
                f"{[c[first].tolist() for c in chunk]}"
            )
        best = int(np.argmax(values))
        if values[best] > worst:
            worst = float(values[best])
            witness = {"trial": lo + best, "sample": [c[best].tolist() for c in chunk]}
    return ConditionReport(
        condition_id=condition_id,
        trials=trials,
        worst_violation=worst,
        witness=witness,
        passed=bool(worst <= DEFAULT_TOLERANCE),
    )


def _sq_sum(b):
    """Squared Hilbert-Schmidt norm of each (n, modes) matrix in a batch."""
    return np.einsum("...ij,...ij->...", b, b)


def _coefficient_width(triple, n, mark_quadrature):
    """Width of a check evaluating B and F: F's n·k values at the k
    quadrature marks of an undeclared F, B's n·modes values or a state's
    n·n products, whichever is widest."""
    widest = max(n, triple.wiener_modes)
    if triple.jump_profile is None:
        widest = max(widest, mark_quadrature.nodes.size)
    return n * widest


def _jump_at(triple, t, x):
    """F of `triple` at a chunk of states and their times, as `_jump_sq` takes it.

    These are the (P, n) values of a declared jump profile, else a map
    from a vector of marks to F's (P, n, k) values that evaluates F once
    per distinct vector, so that a check integrating F(x, ·) twice (PropBF)
    evaluates it once.
    """
    if triple.jump_profile is not None:
        return triple.jump_profile(t, x)
    values = {}

    def at(xi):
        key = xi.tobytes()
        if key not in values:
            values[key] = triple.eval_F(t, x, xi)
        return values[key]

    return at


def _jump_sq(mark_quadrature, fx, fy=None):
    """∫‖F(x, ξ)‖² ν(dξ), or ∫‖F(x, ξ) − F(y, ξ)‖² ν(dξ) given fy, per row;
    `fx` and `fy` are what `_scan` hands a check: a declared profile's
    values or `_jump_at`'s map."""
    if callable(fx):
        g = fx if fy is None else (lambda xi: fx(xi) - fy(xi))
        return mark_quadrature.integral_sq(g)
    return mark_quadrature.integral_sq(profile=fx if fy is None else fx - fy)


def check_monotonicity(triple, space, sampler, trials, mark_quadrature, seed=0):
    """Worst sampled value of the one-sided dissipativity inequality.

    Evaluates 2⟨A(x)−A(y), x−y⟩ + ‖B(x)−B(y)‖₂² + ∫‖F(x,ξ)−F(y,ξ)‖² ν(dξ),
    which must stay non-positive.  `space` is unused; it keeps the
    signature shared by the sampled checks.
    """

    def evaluate(t, x, y, fx, fy):
        drift = 2.0 * pairing(x - y, triple.eval_A(t, x) - triple.eval_A(t, y))
        noise = _sq_sum(triple.eval_B(t, x) - triple.eval_B(t, y))
        return drift + noise + _jump_sq(mark_quadrature, fx, fy)

    width = _coefficient_width(triple, sampler.dim, mark_quadrature)
    return _scan("C1", sampler, "pairs", trials, seed, evaluate, width, triple)


def check_coercivity(triple, space, sampler, trials, mark_quadrature, seed=0):
    """Worst sampled violation of the energy-dissipation inequality.

    The origin is always probed first; random box samples follow.
    """
    c = triple.constants

    def evaluate(t, x, fx):
        v = v_norms(space, x)
        lhs = 2.0 * pairing(x, triple.eval_A(t, x))
        lhs += _sq_sum(triple.eval_B(t, x))
        lhs += _jump_sq(mark_quadrature, fx)
        lhs += c.lam * v**c.p
        return lhs - c.k1 - c.k1bar * pairing(x, x)

    width = _coefficient_width(triple, sampler.dim, mark_quadrature)
    return _scan("C2", sampler, "points", trials, seed, evaluate, width, triple)


def check_growth(triple, space, sampler, trials, mark_quadrature, seed=0):
    """Worst sampled violation of the dual-norm growth bound on the drift.

    The origin is always probed first: affine offsets with no additive
    allowance fail exactly there.  `mark_quadrature` is unused; it keeps
    the signature shared by the sampled checks.
    """
    c = triple.constants

    def evaluate(t, x):
        v = v_norms(space, x)
        # non-finite drift values reach `_scan`, which names the witness
        dual = _dual_norms(space, triple.eval_A(t, x))
        return dual**c.q - c.alpha * c.lam**c.q * v**c.p - c.k2 * c.lam ** (c.q - 1.0)

    return _scan("C3", sampler, "points", trials, seed, evaluate, sampler.dim**2)


def probe_hemicontinuity(triple, x, y, z, t, epsilons=None):
    """Gap |⟨A(x+εy), z⟩ − ⟨A(x), z⟩| along a vanishing ε ladder.

    The shifted states x + εy are evaluated as one (len(ε), n) batch.
    Passes when the gap at the smallest ε is below DEFAULT_TOLERANCE and
    the gap sequence is eventually decreasing: each of the last ten gaps
    exceeds the one before it by at most 1e-6 times that gap plus 1e-15,
    or by at most a rounding floor of 4·eps·Σᵢ|zᵢ·A(t, x)ᵢ| where that is
    larger.  eps·Σᵢ|zᵢ·A(t, x)ᵢ| is the rounding bound of the pairing
    ⟨A(x), z⟩, so at the smallest ε, where every gap is the rounding of
    two such pairings, the gaps may rise and fall by about that much.
    """
    if epsilons is None:
        epsilons = 2.0 ** -np.arange(1, 21)
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.ndim != 1 or epsilons.size < 2 or not (np.diff(epsilons) < 0).all():
        raise ValueError("epsilons must decrease strictly to 0")
    drift = np.asarray(triple.eval_A(t, x))
    base = pairing(z, drift)
    shifted = np.asarray(x) + epsilons[:, None] * np.asarray(y)
    gaps = np.abs(pairing(z, np.asarray(triple.eval_A(t, shifted))) - base)
    if not np.isfinite(gaps).all():
        raise ValueError("non-finite drift evaluation in hemicontinuity probe")
    tail = gaps[-min(10, gaps.size) :]
    floor = 4.0 * np.finfo(float).eps * float(np.abs(np.asarray(z) * drift).sum())
    allowed = np.maximum(1e-6 * tail[:-1] + 1e-15, floor)
    decreasing = bool(np.all(np.diff(tail) <= allowed))
    worst = float(gaps[-1])
    return ConditionReport(
        condition_id="C4",
        trials=epsilons.size,
        worst_violation=worst,
        witness={"gaps": gaps.tolist(), "eventually_decreasing": decreasing},
        passed=bool(worst <= DEFAULT_TOLERANCE and decreasing),
    )


def check_bf_bounds(triple, space, sampler, trials, mark_quadrature, seed=0):
    """Worst sampled violation of the two derived bounds on (B, F).

    The difference bound uses the constant (3α + 2/p)·λ against
    ‖x‖_V^p + ‖y‖_V^p plus (4/q)·K2; the absolute bound uses
    2α·λ‖x‖_V^p + K̄1‖x‖_H² + K3.
    """
    c = triple.constants

    def evaluate(t, x, y, fx, fy):
        vx = v_norms(space, x)
        vy = v_norms(space, y)
        bx = triple.eval_B(t, x)
        by = triple.eval_B(t, y)
        diff_lhs = _sq_sum(bx - by) + _jump_sq(mark_quadrature, fx, fy)
        diff_rhs = (
            (3.0 * c.alpha + 2.0 / c.p) * c.lam * (vx**c.p + vy**c.p)
            + (4.0 / c.q) * c.k2
        )
        abs_lhs = _sq_sum(bx) + _jump_sq(mark_quadrature, fx)
        abs_rhs = 2.0 * c.alpha * c.lam * vx**c.p + c.k1bar * pairing(x, x) + c.k3
        return np.maximum(diff_lhs - diff_rhs, abs_lhs - abs_rhs)

    width = _coefficient_width(triple, sampler.dim, mark_quadrature)
    return _scan("PropBF", sampler, "pairs", trials, seed, evaluate, width, triple)


@dataclass(frozen=True)
class _Transformed:
    """γ⁻¹·coefficient(t, γx, *marks) for B, F and the jump profile, with
    γ_t = exp(−rate·t/2).

    `t` is a time or an array of times that broadcasts to x.shape[:-1];
    γ gets one trailing axis per axis the state, or the value, has beyond
    x.shape[:-1], so that row p is scaled by the γ of its own time.
    """

    coefficient: object
    rate: float

    def gamma(self, t):
        """γ at each time of `t`, with t's shape, one `math.exp` per value:
        `np.exp` may differ from it in the last bit."""
        return np.reshape(
            [math.exp(-0.5 * self.rate * s) for s in np.ravel(t).tolist()], np.shape(t)
        )

    def __call__(self, t, x, *marks):
        x = np.asarray(x)
        g = self.gamma(t)
        value = np.asarray(self.coefficient(t, g[..., None] * x, *marks))
        return value / g.reshape(g.shape + (1,) * (value.ndim - x.ndim + 1))


@dataclass(frozen=True)
class _TransformedA(_Transformed):
    """γ⁻¹·A(t, γx) − ½·rate·x."""

    def __call__(self, t, x):
        return super().__call__(t, x) - (0.5 * self.rate) * np.asarray(x)


def exponential_transform(triple, rate):
    """Absorb a relaxed-dissipativity rate K = `rate` into the coefficients.

    Returns the triple (Ā, B̄, F̄) with Ā(x) = γ⁻¹A(γx) − ½Kx,
    B̄(x) = γ⁻¹B(γx), F̄(x, ξ) = γ⁻¹F(γx, ξ) and γ_t = exp(−½Kt): a
    triple satisfying the relaxed one-sided bound with rate K is turned
    into one satisfying the strict dissipativity inequality.  A linear
    drift stays linear, Ā(x) = (A − ½K·I)x, so a declared `linear_A`
    is kept as `linear_A` − ½K·I and the transformed triple is stepped as
    affine; `autonomous` is False, since B̄ and F̄ depend on t through γ.
    The rate must be a finite number >= 0.
    """
    rate = float(rate)
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be a finite number >= 0, got {rate}")
    if rate == 0:
        return replace(triple)
    c = triple.constants
    inflate = math.exp(-0.5 * rate * c.horizon) ** -2
    profile, linear = triple.jump_profile, triple.linear_A
    if linear is not None:
        linear = linear - 0.5 * rate * np.eye(len(linear))
    return replace(
        triple,
        eval_A=_TransformedA(triple.eval_A, rate),
        eval_B=_Transformed(triple.eval_B, rate),
        eval_F=_Transformed(triple.eval_F, rate),
        jump_profile=None if profile is None else _Transformed(profile, rate),
        constants=replace(c, k1=inflate * c.k1, k2=inflate * c.k2),
        autonomous=False,
        linear_A=linear,
    )
