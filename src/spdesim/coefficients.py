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
violation with a witness.  Trial j of a check with seed s draws its sample
from the Philox stream keyed derive_key(s, TAG_TRIAL, j).  A check draws all
its trials as arrays from one pass of raw outputs (`rng.philox_raw`), mapped
the way numpy's ``Generator`` maps them, so each trial's sample is bit for
bit the one `BoxSampler.point` or `BoxSampler.pair` draws from
``make_generator`` for that key.

These draws depend on the sampler, the draw kind ("points" or "pairs"),
the seed and the trial count alone, not on the triple, so they are drawn
once and shared: checks with the same four inputs, such as one suite
config run on several triples, reuse the arrays.  Only the last four
draws are kept, one suite's sampled checks (about 4 MB at 10,000 trials
and n = 8), and they are read-only: an evaluator that writes into the
states it is given, which evaluators must not do, raises ValueError
instead of changing later checks.  A process that runs one suite, as
``spdesim check-conditions`` does, draws as much as without sharing.

Trials are evaluated SCAN_CHUNK at a time as one array: times of shape
(P,), states of shape (P, n), the pairings of `space` row by row, and
mark integrals through `MarkIntegral.integral_sq`.  A check computes only
the norms it reads: C2 and PropBF the V-norms of the states
(`space.v_norms`), C3 those and the dual norms of A(x)
(`space.dual_norms`, one Cholesky solve per chunk).  A triple that
declares `jump_profile` has its jump integrals in closed form from the
(P, n) profile values; only an undeclared F is evaluated as (P, n, k)
values at the quadrature marks.
Each coefficient is called once per chunk with the chunk's (P,) times.  The
condition constants are numbers, the same at every time.  Witnesses and
verdicts do not depend on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .noise import build_partition
from .rng import TAG_TRIAL, derive_key, make_generator, philox_raw
from .space import dual_norms, pairing, v_norms

DEFAULT_TOLERANCE = 1e-8
# Half-width of the coordinate box the statistical checks sample states from.
SAMPLE_BOX = 5.0
# Trials a sampled check draws and evaluates as one array; for an F without
# a declared profile, with at most a few hundred mark nodes, this bounds its
# (P, n, k) values at the quadrature marks near 1 MB.
SCAN_CHUNK = 256


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
    mean is one evaluation at the window midpoint.
    `linear_A`, when set, is the matrix of an autonomous linear drift, and
    it must be the matrix of `eval_A`: ``eval_A(t, x) == x @
    linear_A[:n, :n].T`` for every n, t and batch x of shape (..., n).  For
    an autonomous triple the schemes step that drift without evaluating
    it: explicitly as one product with I + δA, implicitly with the inverse
    of I − δA.  `jump_profile`, when set, declares the factorization
    F(t, x, ξ) = weight(ξ) · jump_profile(t, x) against the owning mark
    space's weight.  The schemes then take their jump cell means from
    closed-form cell masses, and the condition checks integrate ∫‖F‖² ν in
    closed form, without evaluating F at any mark.
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

    `point` and `pair` draw one trial from a generator and define the
    samples; `points` and `pairs` draw trial j of a check for each key j as
    column arrays, equal bit for bit to the former on ``make_generator``.
    """

    dim: int
    horizon: float = 1.0

    def draw_t(self, rng):
        return float(rng.uniform(0.0, self.horizon))

    def draw_x(self, rng):
        return rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, self.dim)

    def point(self, rng, trial):
        """(t, x) with x the origin at trial 0 and a box sample after it."""
        t = self.draw_t(rng)
        return t, np.zeros(self.dim) if trial == 0 else self.draw_x(rng)

    def pair(self, rng, trial):
        """(t, x, y) with y an independent box sample or x bumped in one mode."""
        t = self.draw_t(rng)
        x = self.draw_x(rng)
        if rng.random() < 0.5:
            return t, x, self.draw_x(rng)
        y = x.copy()
        mode = int(rng.integers(self.dim))
        y[mode] += rng.uniform(-2.0 * SAMPLE_BOX, 2.0 * SAMPLE_BOX)
        return t, x, y

    def points(self, keys):
        """`point` for trials 0, 1, ... keyed `keys`: t (P,) and x (P, n).

        Row 0 is trial 0, so x[0] is the origin.
        """
        raw = philox_raw(keys, 1 + self.dim)
        x = _uniform(raw[:, 1:], -SAMPLE_BOX, SAMPLE_BOX)
        x[:1] = 0.0
        return _uniform(raw[:, 0], 0.0, self.horizon), x

    def pairs(self, keys):
        """`pair` for trials 0, 1, ... keyed `keys`: t (P,), x and y (P, n).

        The trial's stream is t, x, the branch uniform, then either y or
        the mode and the bump.  The mode is Lemire's bounded integer on the
        low 32 bits of its raw output (none is consumed for one mode); a
        row where that method would reject and redraw is drawn by `pair`.
        """
        n = self.dim
        raw = philox_raw(keys, 2 * n + 2)
        t = _uniform(raw[:, 0], 0.0, self.horizon)
        x = _uniform(raw[:, 1 : n + 1], -SAMPLE_BOX, SAMPLE_BOX)
        fresh = _uniform(raw[:, n + 1], 0.0, 1.0) < 0.5
        y = np.where(
            fresh[:, None], _uniform(raw[:, n + 2 :], -SAMPLE_BOX, SAMPLE_BOX), x
        )
        # for n = 1 this gives mode 0 and never rejects, as `integers(1)` does
        product = (raw[:, n + 2] & np.uint64(0xFFFFFFFF)) * np.uint64(n)
        mode = (product >> np.uint64(32)).astype(np.intp)
        reject = (product & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n
        bump = _uniform(raw[:, n + 2 + (n > 1)], -2.0 * SAMPLE_BOX, 2.0 * SAMPLE_BOX)
        rows = np.flatnonzero(~fresh)
        y[rows, mode[rows]] += bump[rows]
        for j in np.flatnonzero(~fresh & reject):
            t[j], x[j], y[j] = self.pair(make_generator(keys[j]), j)
        return t, x, y


class MarkIntegral:
    """∫ ‖G(ξ)‖² ν(dξ) over the full mark space.

    A factorized G(ξ) = weight(ξ)·p, with weight the mark space's, is
    integrated in closed form: ‖p‖² times the constant `weight_sq`, the
    integral of weight² over the marks.  Any other G goes through the
    quadrature: the level-l exhaustion set cell by cell, 4 points per cell,
    plus the analytic tail mass, extrapolated through the family's mark
    weight.  That tail term is exact whenever G is factorized, which covers
    the shipped coefficient families; otherwise it is the declared
    truncation estimate.  `weight_sq` uses the same nodes and tail.
    """

    def __init__(self, marks, level=2):
        self.marks = marks
        self.level = level
        partition = build_partition(marks, level)
        nodes, weights = marks.cell_rule(partition.lo, partition.hi, 4)
        self.nodes = nodes.ravel()
        self.weights = weights.ravel()
        self.tail_sq = marks.tail_mass_sq(level)
        self.ref_mark = float(partition.hi[-1])
        ref_w = float(np.asarray(marks.weight(self.ref_mark)))
        self.ref_scale = self.tail_sq / ref_w**2 if self.tail_sq > 0 else 0.0
        node_w = np.asarray(marks.weight(self.nodes), dtype=float)
        self.weight_sq = float(self.weights @ node_w**2) + self.tail_sq

    def integral_sq(self, g=None, profile=None):
        """∫ ‖g(ξ)‖² ν(dξ); g maps a vector of k marks to a (..., dim, k) array.

        For a factorized integrand weight(ξ)·p pass the (..., dim) values of
        p as `profile` instead of g: the integral is then `weight_sq`·‖p‖²,
        with no mark evaluated.  Leading axes are a batch with one integral
        each, returned as an array of that shape; a single value gives a
        Python float.
        """
        if profile is not None:
            total = self.weight_sq * np.sum(np.asarray(profile, dtype=float) ** 2, -1)
            return float(total) if total.ndim == 0 else total
        vals = np.atleast_2d(np.asarray(g(self.nodes), dtype=float))
        total = np.einsum("...ik,k->...", vals**2, self.weights)
        if self.ref_scale:
            ref = np.atleast_2d(np.asarray(g(np.array([self.ref_mark])), dtype=float))
            total = total + self.ref_scale * np.sum(ref**2, axis=(-2, -1))
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

    Every trial has its own keyed stream, so the draws depend on these
    arguments alone: the checks a suite config runs on several triples
    draw once and share the arrays.
    """
    columns = getattr(sampler, kind)(derive_key(seed, TAG_TRIAL, np.arange(trials)))
    for column in columns:
        column.flags.writeable = False
    return columns


def _scan(condition_id, sampler, kind, trials, seed, evaluate):
    """Worst of `evaluate` over keyed per-trial draws, SCAN_CHUNK trials at once.

    The samples of all trials are the column arrays (times (P,), states
    (P, n)) that `sampler` draws by `kind` ("points" or "pairs"), and
    `evaluate` returns the P values of a chunk of them.  The witness is the
    first trial that reaches the largest value, and a non-finite value
    raises with the sample of the first such trial.
    """
    columns = _trial_draws(sampler, kind, seed, trials)
    worst = -math.inf
    witness = {}
    for lo in range(0, trials, SCAN_CHUNK):
        chunk = [c[lo : lo + SCAN_CHUNK] for c in columns]
        values = np.asarray(evaluate(*chunk), dtype=float)
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
    return np.sum(b**2, axis=(-2, -1))


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
    `fx` and `fy` come from `_jump_at`."""
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

    def evaluate(t, x, y):
        drift = 2.0 * pairing(x - y, triple.eval_A(t, x) - triple.eval_A(t, y))
        noise = _sq_sum(triple.eval_B(t, x) - triple.eval_B(t, y))
        jump = _jump_sq(mark_quadrature, _jump_at(triple, t, x), _jump_at(triple, t, y))
        return drift + noise + jump

    return _scan("C1", sampler, "pairs", trials, seed, evaluate)


def check_coercivity(triple, space, sampler, trials, mark_quadrature, seed=0):
    """Worst sampled violation of the energy-dissipation inequality.

    The origin is always probed first; random box samples follow.
    """
    c = triple.constants

    def evaluate(t, x):
        v = v_norms(space, x)
        lhs = 2.0 * pairing(x, triple.eval_A(t, x))
        lhs += _sq_sum(triple.eval_B(t, x))
        lhs += _jump_sq(mark_quadrature, _jump_at(triple, t, x))
        lhs += c.lam * v**c.p
        return lhs - c.k1 - c.k1bar * pairing(x, x)

    return _scan("C2", sampler, "points", trials, seed, evaluate)


def check_growth(triple, space, sampler, trials, mark_quadrature, seed=0):
    """Worst sampled violation of the dual-norm growth bound on the drift.

    The origin is always probed first: affine offsets with no additive
    allowance fail exactly there.  `mark_quadrature` is unused; it keeps
    the signature shared by the sampled checks.
    """
    c = triple.constants

    def evaluate(t, x):
        v = v_norms(space, x)
        dual = dual_norms(space, triple.eval_A(t, x))
        return dual**c.q - c.alpha * c.lam**c.q * v**c.p - c.k2 * c.lam ** (c.q - 1.0)

    return _scan("C3", sampler, "points", trials, seed, evaluate)


def probe_hemicontinuity(triple, x, y, z, t, epsilons=None):
    """Gap |⟨A(x+εy), z⟩ − ⟨A(x), z⟩| along a vanishing ε ladder.

    The shifted states x + εy are evaluated as one (len(ε), n) batch.
    Passes when the gap at the smallest ε is below DEFAULT_TOLERANCE and
    the gap sequence is eventually decreasing.
    """
    if epsilons is None:
        epsilons = 2.0 ** -np.arange(1, 21)
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.ndim != 1 or epsilons.size < 2 or not (np.diff(epsilons) < 0).all():
        raise ValueError("epsilons must decrease strictly to 0")
    base = pairing(z, np.asarray(triple.eval_A(t, x)))
    shifted = np.asarray(x) + epsilons[:, None] * np.asarray(y)
    gaps = np.abs(pairing(z, np.asarray(triple.eval_A(t, shifted))) - base)
    if not np.isfinite(gaps).all():
        raise ValueError("non-finite drift evaluation in hemicontinuity probe")
    tail = gaps[-min(10, gaps.size) :]
    decreasing = bool(np.all(np.diff(tail) <= 1e-6 * tail[:-1] + 1e-15))
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

    def evaluate(t, x, y):
        vx = v_norms(space, x)
        vy = v_norms(space, y)
        bx = triple.eval_B(t, x)
        by = triple.eval_B(t, y)
        fx = _jump_at(triple, t, x)
        fy = _jump_at(triple, t, y)
        diff_lhs = _sq_sum(bx - by) + _jump_sq(mark_quadrature, fx, fy)
        diff_rhs = (
            (3.0 * c.alpha + 2.0 / c.p) * c.lam * (vx**c.p + vy**c.p)
            + (4.0 / c.q) * c.k2
        )
        abs_lhs = _sq_sum(bx) + _jump_sq(mark_quadrature, fx)
        abs_rhs = 2.0 * c.alpha * c.lam * vx**c.p + c.k1bar * pairing(x, x) + c.k3
        return np.maximum(diff_lhs - diff_rhs, abs_lhs - abs_rhs)

    return _scan("PropBF", sampler, "pairs", trials, seed, evaluate)


@dataclass(frozen=True)
class _Transformed:
    """γ⁻¹·base(t, γx, *marks) for B, F and the jump profile, with
    γ_t = exp(−rate·t/2).

    `t` is a time or an array of times that broadcasts to x.shape[:-1];
    γ gets one trailing axis per axis the state, or the value, has beyond
    x.shape[:-1], so that row p is scaled by the γ of its own time.
    """

    base: object
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
        value = np.asarray(self.base(t, g[..., None] * x, *marks))
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
    into one satisfying the strict dissipativity inequality.  The rate
    must be a finite number >= 0.
    """
    rate = float(rate)
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be a finite number >= 0, got {rate}")
    if rate == 0:
        return replace(triple)
    c = triple.constants
    inflate = math.exp(-0.5 * rate * c.horizon) ** -2
    profile = (
        _Transformed(triple.jump_profile, rate)
        if triple.jump_profile is not None
        else None
    )
    return replace(
        triple,
        eval_A=_TransformedA(triple.eval_A, rate),
        eval_B=_Transformed(triple.eval_B, rate),
        eval_F=_Transformed(triple.eval_F, rate),
        jump_profile=profile,
        constants=replace(c, k1=inflate * c.k1, k2=inflate * c.k2),
        autonomous=False,
        linear_A=None,
    )
