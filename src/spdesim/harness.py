"""Monte Carlo driver, coupled strong-error estimation, and suites.

Paths run in fixed blocks of BLOCK_PATHS consecutive path indices: path j
draws its bundle from a key derived from (master_seed, path tag, j), each
configuration steps a whole block at once, workers take whole blocks and
return per-path results only, and aggregation always runs single-threaded
in path order with compensated summation.  The block layout does not
depend on the worker count, so the output is byte-identical no matter how
many workers computed it; batched arithmetic can make it differ from
one-path runs in the last bits.

One path loop serves both drivers: per block one bundle per path at the
finest resolution drives every configuration once, so a ladder runs each
path's reference once for all of its rungs.  Strong errors are estimated
at the terminal time only: the squared H-distance of each rung's terminal
value to the reference's (embedded into shared coordinates by
zero-padding) is averaged with a normal-approximation confidence
interval.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .coefficients import (
    BoxSampler,
    MarkIntegral,
    check_bf_bounds,
    check_coercivity,
    check_growth,
    check_monotonicity,
    probe_hemicontinuity,
)
from .noise import TimeGrid, read_block, sample_bundles
from .rng import TAG_PATH, TAG_PROBE, derive_key
from .schemes import ENERGIES, EXPLICIT, run_block
from .space import c_b, restrict

Z95 = 1.959963984540054


def neumaier_sum(values):
    """Compensated (Neumaier) summation over the leading axis.

    Where the plain sum is not finite (an infinite summand, or an
    overflow) it is returned as is: the compensation would turn it into
    NaN through inf − inf.  A 1-d input is summed in Python floats, the
    same IEEE operations without a numpy call per value, and the result
    is an np.float64 either way.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        total = comp = 0.0
        for value in values.tolist():
            t = total + value
            if abs(total) >= abs(value):
                comp += (total - t) + value
            else:
                comp += (value - t) + total
            total = t
        return np.float64(total + comp if math.isfinite(total) else total)
    total = np.zeros(values.shape[1:])
    comp = np.zeros_like(total)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in values:
            t = total + row
            big = np.where(np.abs(total) >= np.abs(row), total, row)
            small = np.where(np.abs(total) >= np.abs(row), row, total)
            comp = comp + ((big - t) + small)
            total = t
        return np.where(np.isfinite(total), total + comp, total)[()]


@dataclass
class MCStats:
    """Per-knot moments of the squared H-norm over completed paths."""

    knot_mean: np.ndarray
    knot_var: np.ndarray
    final_mean: float
    final_var: float
    paths: int
    blowups: int
    failures: int


def _path_seed(master_seed, j):
    return derive_key(master_seed, TAG_PATH, j)


# Paths run in fixed blocks of path indices [64k, 64k + 64), whatever the
# worker count, so every path meets the same batched arithmetic.
BLOCK_PATHS = 64

# Outcome of one scheme run on one path; where a row combines runs, the
# larger outcome wins, so a blow-up of either run outranks a solver failure.
COMPLETED, FAILED, BLOWN_UP = 0, 1, 2


def _outcomes(run):
    """Per-path outcome of one `BlockRun`, as a (paths,) array."""
    blown = np.array([step is not None for step in run.blow_up_steps])
    failed = np.array([failure is not None for failure in run.failures])
    return np.where(blown, BLOWN_UP, np.where(failed, FAILED, COMPLETED))


def _run_paths(space, triple, configs, marks, master_seed, reduce, keep, block):
    """Outcome and value columns of one block of path indices, and run
    seconds per config.

    Path j samples one bundle at the finest configuration (the last one),
    all through one `sample_bundles` call; the block's noise is read once
    (`read_block`), and every configuration steps the whole block on it
    once through `run_block`, keeping at every knot what `keep` names.
    `reduce` maps the block's runs, one `BlockRun` per configuration, to
    the arrays ``(outcomes, values)`` of shape (columns, paths) and
    (columns, paths, ...); a value is read only where its outcome is
    COMPLETED.
    """
    finest = configs[-1]
    grid = TimeGrid(triple.constants.horizon, finest.m)
    modes = min(finest.l, triple.wiener_modes)
    seeds = [_path_seed(master_seed, j) for j in block]
    noise = read_block(sample_bundles(seeds, grid, modes, marks, finest.l))
    seconds = np.zeros(len(configs))
    runs = []
    for k, config in enumerate(configs):
        started = time.perf_counter()
        runs.append(run_block(space, triple, config, noise, keep))
        seconds[k] = time.perf_counter() - started
    return (*reduce(runs), seconds)


def _knot_energies(runs):
    """Monte Carlo columns: the squared H-norm at every knot of the one run."""
    (run,) = runs
    return _outcomes(run)[None], run.kept.T[None]


def _terminal_gaps(runs):
    """Ladder columns: squared terminal H-distance of each run to the last one.

    Terminal values are embedded into shared coordinates by zero-padding.
    A rung counts as blown up when it or the reference blew up, otherwise
    as failed when it or the reference failed.
    """
    dim = max(run.final.shape[1] for run in runs)
    finals = [np.pad(run.final, ((0, 0), (0, dim - run.final.shape[1]))) for run in runs]
    diffs = np.array([final - finals[-1] for final in finals[:-1]])
    outcomes = np.maximum([_outcomes(run) for run in runs[:-1]], _outcomes(runs[-1]))
    return outcomes, np.vecdot(diffs, diffs)


# Thread caps that spawned workers inherit unless the caller set them: each
# worker already keeps a core busy, and a BLAS that starts its own threads
# in every worker makes a 512-path implicit block take 20.8 s against 1.8 s
# with one thread.
WORKER_THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set each of WORKER_THREAD_CAPS that is not set to 1, for the workers
    spawned inside, and remove them again afterwards."""
    added = [name for name in WORKER_THREAD_CAPS if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


def _path_study(
    space, triple, configs, marks, paths, master_seed, workers, reduce, keep
):
    """Outcome and value columns over all paths in path order, and run
    seconds per config.

    Workers take whole blocks; no more workers start than there are
    blocks, and a single block runs in this process.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    blocks = [
        range(start, min(start + BLOCK_PATHS, paths))
        for start in range(0, paths, BLOCK_PATHS)
    ]
    run = partial(
        _run_paths, space, triple, tuple(configs), marks, master_seed, reduce, keep
    )
    workers = min(workers, len(blocks))
    if workers <= 1:
        parts = [run(block) for block in blocks]
    else:
        spawn = multiprocessing.get_context("spawn")
        with _one_blas_thread(), ProcessPoolExecutor(workers, spawn) as pool:
            parts = list(pool.map(run, blocks))
    outcomes, values, seconds = zip(*parts)
    return np.concatenate(outcomes, axis=1), np.concatenate(values, axis=1), sum(seconds)


def _completed(outcomes, values):
    """Values of the completed paths of one column in path order, blow-ups
    and failures."""
    return (
        values[outcomes == COMPLETED],
        int(np.count_nonzero(outcomes == BLOWN_UP)),
        int(np.count_nonzero(outcomes == FAILED)),
    )


def _mean_var(values):
    """Compensated mean and sample variance over the leading axis; the
    variance is None for a single value.  Values that overflow give an
    infinite mean or variance (NaN where inf − inf), without warnings."""
    count = values.shape[0]
    mean = neumaier_sum(values) / count
    if count < 2:
        return mean, None
    with np.errstate(over="ignore", invalid="ignore"):
        return mean, neumaier_sum((values - mean) ** 2) / (count - 1)


def monte_carlo(space, triple, config, marks, paths, master_seed, workers=1):
    """Path statistics of one scheme configuration.

    Blown-up paths and paths whose implicit solver failed are counted and
    excluded from the moment aggregation.
    """
    outcomes, values, _ = _path_study(
        space, triple, [config], marks, paths, master_seed, workers,
        _knot_energies, ENERGIES,
    )
    ok, blowups, failures = _completed(outcomes[0], values[0])
    if ok.size == 0:
        nan = np.full(config.m + 1, np.nan)
        return MCStats(nan, nan, float("nan"), float("nan"), paths, blowups, failures)
    mean, var = _mean_var(ok)
    if var is None:
        var = np.zeros_like(mean)
    return MCStats(
        knot_mean=mean,
        knot_var=var,
        final_mean=float(mean[-1]),
        final_var=float(var[-1]),
        paths=paths,
        blowups=blowups,
        failures=failures,
    )


def _error_stats(outcomes, gaps):
    """Mean, 95% half-width, blow-ups and failures of one gap column."""
    gaps, blowups, failures = _completed(outcomes, gaps)
    if gaps.size == 0:
        return float("nan"), float("nan"), blowups, failures
    mean, var = _mean_var(gaps)
    half = float("nan") if var is None else float(Z95 * np.sqrt(var / gaps.size))
    return float(mean), half, blowups, failures


@dataclass(frozen=True)
class LadderSpec:
    """Resolution ladder for a convergence study.

    Rung coordinates (n, m, l) must increase strictly, every rung m must
    divide the reference m, and rung levels must not exceed the reference.
    With `strict_gate` the explicit-mode validation additionally requires
    the stability quotient C_B(n)/m to decrease along the ladder.
    """

    rungs: tuple
    reference: tuple
    paths: int
    master_seed: int
    kind: str = EXPLICIT
    strict_gate: bool = False

    def __post_init__(self):
        if not self.rungs:
            raise ValueError("ladder needs at least one rung")
        if self.paths < 1:
            raise ValueError("ladder needs at least one path")
        rungs = tuple(tuple(int(v) for v in r) for r in self.rungs)
        ref = tuple(int(v) for v in self.reference)
        object.__setattr__(self, "rungs", rungs)
        object.__setattr__(self, "reference", ref)
        for r in rungs + (ref,):
            if len(r) != 3 or min(r) < 1:
                raise ValueError(f"bad resolution triple {r}")
        for a, b in zip(rungs, rungs[1:]):
            if not (a[0] < b[0] and a[1] < b[1] and a[2] < b[2]):
                raise ValueError(
                    f"rung coordinates must increase strictly: {a} -> {b}"
                )
        for r in rungs:
            if ref[1] % r[1] != 0:
                raise ValueError(f"rung m = {r[1]} does not divide reference {ref[1]}")
            if r[0] > ref[0] or r[2] > ref[2]:
                raise ValueError(f"rung {r} exceeds the reference {ref}")


def validate_ladder(ladder, space):
    """Explicit-mode stability gate: C_B(n)/m must decrease when strict."""
    if ladder.kind == EXPLICIT and ladder.strict_gate:
        quotients = [
            c_b(restrict(space, n)) / m
            for (n, m, _) in ladder.rungs + (ladder.reference,)
        ]
        diffs = np.diff(quotients)
        if not (diffs < 0).all():
            raise ValueError(
                "explicit ladder violates the decreasing C_B(n)/m stability gate: "
                f"quotients {quotients}"
            )


@dataclass
class ConvergenceRow:
    n: int
    m: int
    l: int
    cb_over_m: float
    estimate: float
    half_width: float
    blowups: int
    failures: int
    seconds: float


@dataclass
class ConvergenceReport:
    """Per-rung strong-error estimates against the reference resolution.

    A row's `seconds` sums that rung's scheme runs over all paths;
    `reference_seconds` sums the reference runs.
    """

    rows: list
    monotone: bool
    separated: bool
    reference_seconds: float

    @property
    def verdict(self):
        return "pass" if (self.monotone and self.separated) else "fail"

    def to_csv(self, timing=False):
        lines = ["rung_n,rung_m,rung_l,cb_over_m,est_sq_error,ci_half_width,blowups,seconds"]
        for r in self.rows:
            seconds = r.seconds if timing else 0.0
            lines.append(
                f"{r.n},{r.m},{r.l},{r.cb_over_m:.17g},{r.estimate:.17g},"
                f"{r.half_width:.17g},{r.blowups},{seconds:.17g}"
            )
        return "\n".join(lines) + "\n"


def convergence_study(space, triple, marks, ladder, config_template, workers=1):
    """Coupled strong-error ladder against the reference resolution.

    Every path runs each rung and the reference once on one bundle.  The
    verdict is "pass" when the estimates decrease monotonically and the
    95% intervals of the first and last rung do not overlap.
    """
    validate_ladder(ladder, space)
    configs = [
        replace(config_template, kind=ladder.kind, n=n, m=m, l=l)
        for n, m, l in ladder.rungs + (ladder.reference,)
    ]
    outcomes, gaps, seconds = _path_study(
        space,
        triple,
        configs,
        marks,
        ladder.paths,
        ladder.master_seed,
        workers,
        _terminal_gaps,
        None,
    )
    rows = []
    for k, config in enumerate(configs[:-1]):
        est, half, blowups, failures = _error_stats(outcomes[k], gaps[k])
        rows.append(
            ConvergenceRow(
                n=config.n,
                m=config.m,
                l=config.l,
                cb_over_m=c_b(restrict(space, config.n)) / config.m,
                estimate=est,
                half_width=half,
                blowups=blowups,
                failures=failures,
                seconds=float(seconds[k]),
            )
        )
    estimates = [r.estimate for r in rows]
    monotone = all(b < a for a, b in zip(estimates, estimates[1:]))
    if len(rows) > 1:
        separated = (
            rows[0].estimate - rows[0].half_width
            > rows[-1].estimate + rows[-1].half_width
        )
    else:
        separated = True
    return ConvergenceReport(
        rows=rows,
        monotone=monotone,
        separated=separated,
        reference_seconds=float(seconds[-1]),
    )


@dataclass(frozen=True)
class SuiteConfig:
    """Trial count and master seed of the structural-condition suite."""

    trials: int = 10_000
    seed: int = 2024

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("condition suite needs at least one trial")


@lru_cache(maxsize=32)
def _mark_integral(marks):
    """MarkIntegral(marks) at its level 2, cached: mark spaces are frozen and
    a suite runs on the same marks triple after triple.  The nodes handed
    to evaluators are read-only, like the shared trial draws."""
    quadrature = MarkIntegral(marks)
    quadrature.nodes.flags.writeable = False
    return quadrature


def run_condition_suite(triple, space, marks, config=SuiteConfig()):
    """All structural checks on one triple; returns the five reports.

    States are sampled from the box of half-width SAMPLE_BOX.  Mark
    integrals of a triple that declares `jump_profile` are taken in closed
    form; those of any other F use the level-2 partition with 4 points per
    cell.  A check passes when its worst violation is at most
    DEFAULT_TOLERANCE.  The hemicontinuity probe (C4) reads its own keyed
    stream, `BoxSampler.points` of (config.seed, TAG_PROBE): trials 1 to 3,
    normalised, are its directions and trial 1's t its time (trial 0 is the
    origin), drawn afresh on every call.

    The four sampled checks draw their trials once per (sampler, draw
    kind, seed, trials), and a later call with the same space dimension,
    horizon and `config` reuses those read-only arrays: only the last
    suite's draws are kept, about 4 MB at 10,000 trials and n = 8.  A
    declared, hashable jump profile is evaluated at those draws once per
    check, state and chunk and shared with the later calls whose triple's
    profile compares equal: only the last suite's C1, C2 and PropBF values
    are kept, read-only, about 0.64 MB at 2,000 trials and n = 8 and
    3.2 MB at 10,000.  The mark quadrature is built once per mark space.
    Reports are the same bit for bit whether draws and values are shared
    or not; a process that runs one suite gains nothing.  A check scans
    its trials in chunks sized by
    `coefficients.SCAN_VALUES`: 204 trials per chunk for an undeclared F
    at n = 8 on power-law marks, and 2,048 for a declared profile at
    n = 8.
    """
    sampler = BoxSampler(dim=space.dim, horizon=triple.constants.horizon)
    quadrature = _mark_integral(marks)
    # built per call so that names patched into this module are the ones run
    checks = (check_monotonicity, check_coercivity, check_growth)
    reports = [
        check(triple, space, sampler, config.trials, quadrature, seed=config.seed + k)
        for k, check in enumerate(checks)
    ]
    # trial 0 of `points` is the origin: the probe reads trials 1 to 3
    t, directions = sampler.points(derive_key(config.seed, TAG_PROBE), 4)
    x, y, z = (v / np.linalg.norm(v) for v in directions[1:])
    reports.append(probe_hemicontinuity(triple, x, y, z, t[1], 2.0 ** -np.arange(1, 41)))
    reports.append(
        check_bf_bounds(
            triple, space, sampler, config.trials, quadrature, seed=config.seed + 4
        )
    )
    return reports
