import concurrent.futures
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdesim import averaging, harness
from spdesim.coefficients import BoxSampler, exponential_transform, probe_hemicontinuity
from spdesim.fixtures import additive_multimode, heat_jump, semilinear, zero_triple
from spdesim.harness import (
    ConvergenceReport,
    LadderSpec,
    SuiteConfig,
    convergence_study,
    monte_carlo,
    neumaier_sum,
    run_condition_suite,
    validate_ladder,
)
from spdesim.noise import PowerLawMarks, TimeGrid, read_block, sample_bundles
from spdesim.rng import TAG_PATH, TAG_PROBE, TAG_TRIAL, derive_key
from spdesim.schemes import STATES, BlockRun, SchemeConfig, run_block
from spdesim.space import build_sine_space, restrict, smooth_profile

MARKS = PowerLawMarks()
SPACE = build_sine_space(16)
ZETA = smooth_profile(16)
TEMPLATE = SchemeConfig(kind="explicit", n=1, m=2, l=1, initial=ZETA)


def _cfg(kind="explicit", n=4, m=64, l=2):
    return SchemeConfig(kind=kind, n=n, m=m, l=l, initial=ZETA)


def _one_rung(triple, coarse, fine, paths, seed):
    """Estimate, half-width, blow-ups and failures of the ladder with the
    single rung `coarse` against the reference `fine`."""
    ladder = LadderSpec(
        rungs=((coarse.n, coarse.m, coarse.l),),
        reference=(fine.n, fine.m, fine.l),
        paths=paths,
        master_seed=seed,
        kind=coarse.kind,
    )
    (row,) = convergence_study(SPACE, triple, MARKS, ladder, coarse).rows
    return row.estimate, row.half_width, row.blowups, row.failures


def test_neumaier_matches_fsum():
    import math

    rng = np.random.default_rng(0)
    data = rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, 500)
    assert neumaier_sum(data) == pytest.approx(math.fsum(data), rel=1e-15)


def test_neumaier_returns_the_plain_sum_where_it_is_not_finite():
    # the compensation would be inf - inf = NaN; no RuntimeWarning either
    inf = float("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert neumaier_sum([1.0, inf]) == inf
        assert neumaier_sum([1e308, 1e308]) == inf
        assert neumaier_sum([-1e308, 2.0, -1e308]) == -inf
        assert np.isnan(neumaier_sum([inf, -inf]))
        cols = neumaier_sum(np.array([[1.0, inf, 1e308], [2.0, 1.0, 1e308]]))
    assert cols.tolist() == [3.0, inf, inf]


def test_neumaier_sums_a_column_in_floats_as_the_array_path_does():
    # the 1-d path makes the array path's additions, comparisons and final
    # choice on Python floats: each column of a 2-d sum has the same bits
    inf, nan = float("inf"), float("nan")
    columns = np.array(
        [
            [1.0, inf, -inf, nan, 1e308, -1e308, 0.0, -0.0, -0.0, inf],
            [2.0, 1.0, 3.0, 1.0, 1e308, -1e308, -0.0, -0.0, 0.0, -inf],
            [1e-17, -2.0, inf, 2.0, -1e308, 1.0, 0.0, -0.0, -0.0, 1.0],
        ]
    )
    rng = np.random.default_rng(5)
    wide = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-20, 20, (40, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in (columns, columns[:1], wide, wide[:1]):
            sums = neumaier_sum(block)
            for j in range(block.shape[1]):
                got = neumaier_sum(block[:, j])
                assert type(got) is np.float64
                assert got.tobytes() == sums[j].tobytes()


def test_spawned_workers_get_one_blas_thread(monkeypatch):
    # each cap the caller left unset is 1 in the workers and unset again
    # afterwards; a value the caller set is kept
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    triple = heat_jump(SPACE, MARKS)
    outcomes, caps, _ = harness._path_study(
        SPACE, triple, [_cfg(n=2, m=8, l=1)], MARKS, 65, 3, 2, _thread_caps, None
    )
    assert (outcomes == 0).all()
    assert caps.tolist() == [[1] * 65, [1] * 65, [3] * 65]
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert "OMP_NUM_THREADS" not in os.environ
    assert os.environ["MKL_NUM_THREADS"] == "3"


def _thread_caps(runs):
    """Reduce of a block that reads its process's thread caps, one column
    per cap and 0 where one is unset."""
    assert multiprocessing.parent_process() is not None
    paths = len(runs[0].final)
    caps = [int(os.environ.get(name, 0)) for name in harness.WORKER_THREAD_CAPS]
    return np.zeros((3, paths), dtype=int), np.repeat([caps], paths, axis=0).T


def test_overflowing_gaps_give_an_infinite_half_width():
    # the (4, 16) rung is far outside the explicit stability region: its
    # squared gaps stay finite but their squared deviations overflow
    ladder = LadderSpec(
        rungs=((4, 16, 1), (8, 64, 2)), reference=(16, 256, 3), paths=70, master_seed=7
    )
    template = SchemeConfig(kind="explicit", n=8, m=64, l=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = convergence_study(
            SPACE, heat_jump(SPACE, MARKS), MARKS, ladder, template
        )
    for row in report.rows:
        assert np.isfinite(row.estimate) and row.half_width == float("inf")
        assert (row.blowups, row.failures) == (0, 0)


def test_overflowing_energies_are_blow_ups_at_knot_0():
    # the state stays finite but its squared norm overflows at knot 0, so
    # every path blows up there and no path is left to average
    space = restrict(SPACE, 8)
    cfg = SchemeConfig(
        kind="implicit_projected", n=8, m=16, l=2, initial=np.full(8, 1e160)
    )
    triple = semilinear(space, MARKS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = monte_carlo(space, triple, cfg, MARKS, 6, 5)
    assert (stats.blowups, stats.failures) == (6, 0)
    assert np.isnan(stats.knot_mean).all() and np.isnan(stats.final_mean)
    grid = TimeGrid(1.0, 16)
    seeds = [derive_key(5, TAG_PATH, j) for j in range(6)]
    bundles = sample_bundles(seeds, grid, 0, MARKS, 2)
    assert run_block(space, triple, cfg, read_block(bundles)).blow_up_steps == [0] * 6


def test_monte_carlo_zero_triple_degenerate():
    triple = zero_triple(SPACE, MARKS)
    stats = monte_carlo(SPACE, triple, _cfg(n=3, m=8, l=1), MARKS, 12, 5)
    assert stats.paths == 12 and stats.blowups == 0
    assert np.allclose(stats.knot_var, 0.0, atol=1e-30)
    # zero at t0, then the transported initial profile
    assert stats.knot_mean[0] == 0.0
    assert np.allclose(stats.knot_mean[1:], stats.knot_mean[1], rtol=1e-15)


def test_monte_carlo_worker_invariance():
    # 65 paths are two blocks, so the many-worker run starts worker processes
    triple = heat_jump(SPACE, MARKS)
    one = monte_carlo(SPACE, triple, _cfg(), MARKS, 65, 99, workers=1)
    many = monte_carlo(SPACE, triple, _cfg(), MARKS, 65, 99, workers=8)
    assert np.array_equal(one.knot_mean, many.knot_mean)
    assert np.array_equal(one.knot_var, many.knot_var)
    assert one.final_mean == many.final_mean
    assert one.blowups == many.blowups


def test_monte_carlo_counts_blowups():
    triple = heat_jump(SPACE, MARKS, theta=0.0, lipschitz=0.0, lambda_const=0.5)
    # n = 16 at m = 64 is far outside the drift stability region
    cfg = SchemeConfig(kind="explicit", n=16, m=64, l=1, initial=ZETA * 1e280)
    stats = monte_carlo(SPACE, triple, cfg, MARKS, 4, 3)
    assert stats.blowups == 4
    assert np.isnan(stats.final_mean)


def test_coupled_error_identical_configs_zero():
    triple = heat_jump(SPACE, MARKS)
    est, half, _, _ = _one_rung(triple, _cfg(), _cfg(), 8, 17)
    assert est == 0.0
    assert half == 0.0


def test_coupled_error_zero_noise_matches_deterministic_gap():
    triple = heat_jump(SPACE, MARKS, theta=0.0, lipschitz=0.0, lambda_const=0.5)
    coarse = _cfg(kind="implicit_projected", n=8, m=16, l=2)
    fine = _cfg(kind="implicit_projected", n=8, m=256, l=2)
    est, half, _, _ = _one_rung(triple, coarse, fine, 5, 23)
    k = np.arange(1, 9)
    zc = ZETA[:8] / (1 + (1 / 16) * k**2 * np.pi**2 / 2) ** 16
    zf = ZETA[:8] / (1 + (1 / 256) * k**2 * np.pi**2 / 2) ** 256
    want = np.sum((zc - zf) ** 2)
    assert est == pytest.approx(want, rel=1e-9)
    assert half == pytest.approx(0.0, abs=1e-20)


def test_coupled_coarse_run_is_bitwise_standalone():
    # the rung of a one-path ladder equals a standalone run driven by the
    # same bundle
    triple = heat_jump(SPACE, MARKS)
    coarse = _cfg(n=4, m=16, l=1)
    fine = _cfg(n=8, m=64, l=2)
    seed = 31
    path_seed = derive_key(seed, TAG_PATH, 0)
    bundle = sample_bundles([path_seed], TimeGrid(1.0, 64), 1, MARKS, 2)[0]
    alone = run_block(SPACE, triple, coarse, read_block([bundle]), keep=STATES)
    est, _, _, _ = _one_rung(triple, coarse, fine, 1, seed)
    fine_run = run_block(SPACE, triple, fine, read_block([bundle]), keep=STATES)
    gap = np.concatenate([alone.kept[-1, 0], np.zeros(4)]) - fine_run.kept[-1, 0]
    assert est == float(gap @ gap)


def test_half_width_shrinks_with_paths():
    # additive noise keeps the squared-gap distribution light-tailed, so
    # the confidence machinery shows its root-N scaling cleanly
    triple = additive_multimode(SPACE, MARKS)
    coarse = _cfg(n=2, m=16, l=1)
    fine = _cfg(n=4, m=64, l=2)
    widths = []
    for paths in (100, 400, 1600):
        _, half, _, _ = _one_rung(triple, coarse, fine, paths, 41)
        widths.append(half)
    for a, b in zip(widths, widths[1:]):
        assert a / b == pytest.approx(2.0, rel=0.2)


def test_ladder_validation_rules():
    with pytest.raises(ValueError, match="strictly"):
        LadderSpec(rungs=((4, 64, 2), (8, 64, 3)), reference=(16, 256, 4), paths=1, master_seed=0)
    with pytest.raises(ValueError, match="strictly"):
        LadderSpec(rungs=((4, 64, 2), (4, 128, 3)), reference=(16, 256, 4), paths=1, master_seed=0)
    with pytest.raises(ValueError, match="divide"):
        LadderSpec(rungs=((2, 48, 1),), reference=(4, 64, 2), paths=1, master_seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        LadderSpec(rungs=((8, 32, 1),), reference=(4, 64, 2), paths=1, master_seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        LadderSpec(rungs=((4, 32, 3),), reference=(4, 64, 2), paths=1, master_seed=0)


def test_strict_gate_rejects_growing_quotient():
    ladder = LadderSpec(
        rungs=((4, 64, 2), (8, 256, 3)),
        reference=(16, 1024, 4),
        paths=1,
        master_seed=0,
        strict_gate=True,
    )
    with pytest.raises(ValueError, match="stability gate"):
        validate_ladder(ladder, SPACE)
    relaxed = dataclasses.replace(ladder, strict_gate=False)
    validate_ladder(relaxed, SPACE)


def test_strict_gate_accepts_decreasing_quotient():
    ladder = LadderSpec(
        rungs=((2, 64, 1), (3, 512, 2)),
        reference=(4, 4096, 3),
        paths=1,
        master_seed=0,
        strict_gate=True,
    )
    validate_ladder(ladder, SPACE)


def test_single_rung_equal_to_reference():
    triple = heat_jump(SPACE, MARKS)
    ladder = LadderSpec(
        rungs=((4, 32, 2),), reference=(4, 32, 2), paths=6, master_seed=53
    )
    report = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE)
    assert report.rows[0].estimate == 0.0
    assert report.monotone and report.separated


def test_convergence_study_small_ladder():
    triple = heat_jump(SPACE, MARKS)
    ladder = LadderSpec(
        rungs=((2, 16, 1), (4, 64, 2)), reference=(8, 256, 3), paths=60, master_seed=67
    )
    report = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE)
    assert report.rows[0].estimate > report.rows[1].estimate
    assert report.monotone
    assert report.verdict in ("pass", "fail")
    csv = report.to_csv()
    header, *rows = csv.strip().splitlines()
    assert header.startswith("rung_n,rung_m,rung_l,cb_over_m")
    assert len(rows) == 2
    assert rows[0].endswith(",0")  # timing suppressed by default


def test_monte_carlo_moment_bound():
    # empirical counterpart of the a-priori second-moment bound: inside the
    # stability region the peak mean squared norm stays under the analytic
    # constant within sampling error
    from spdesim.schemes import step_energy_bound
    from spdesim.noise import TimeGrid

    triple = heat_jump(SPACE, MARKS)
    cfg = _cfg(n=4, m=256, l=2)
    stats = monte_carlo(SPACE, triple, cfg, MARKS, 200, 2718)
    assert stats.blowups == 0
    peak = stats.knot_mean.max()
    idx = stats.knot_mean.argmax()
    bound = step_energy_bound(
        triple.constants, restrict(SPACE, 4), TimeGrid(1.0, 256), 1.0
    )
    assert peak <= bound + 4.0 * np.sqrt(stats.knot_var[idx] / 200)


def _exact_knot_energies(kind, n, m, l, A, wiener, profile, zeta):
    """E‖x_i‖² = tr S_i of a linear scheme with independent noise.

    With a linear drift A, a Wiener term whose covariance map S ↦
    E[B(x) B(x)ᵀ] is `wiener` and a constant jump profile p, step i ≥ 2
    adds δ·wiener(S) + v_J·p pᵀ to S = S_{i−1}, where v_J = δ Σ_c ν_c ·
    ratio_c² is the variance of the compensated jump scalar.  The explicit
    scheme then applies P = I + δA to the previous state and the sum,
    S_i = P S Pᵀ + δ·wiener(S) + v_J·p pᵀ, from S_1 = ζζᵀ (S_0 = 0); the
    implicit one solves with Q = (I − δA)⁻¹, S_i = Q(S + δ·wiener(S) +
    v_J·p pᵀ)Qᵀ, from S_0 = ζζᵀ with no noise at step 1.
    """
    from spdesim.averaging import cell_weight_means
    from spdesim.noise import build_partition

    delta = 1.0 / m
    partition = build_partition(MARKS, l)
    ratio, _ = cell_weight_means(partition)
    v_jump = delta * float(np.sum(partition.nu * ratio**2))
    S = np.zeros((m + 1, n, n))
    if kind == "explicit":
        P, first = np.eye(n) + delta * A, 1
    else:
        P, first = np.linalg.inv(np.eye(n) - delta * A), 0
    S[first] = np.outer(zeta, zeta)
    for i in range(first + 1, m + 1):
        prev = S[i - 1]
        noise = 0.0
        if i >= 2:
            noise = delta * wiener(prev) + v_jump * np.outer(profile, profile)
        if kind == "explicit":
            S[i] = P @ prev @ P.T + noise
        else:
            S[i] = P @ (prev + noise) @ P.T
    return np.trace(S, axis1=1, axis2=2)


@pytest.mark.parametrize(
    "kind, m", [("explicit", 64), ("implicit_projected", 32), ("iterative", 32)]
)
@pytest.mark.parametrize("fixture", ["heat_jump", "additive_multimode", "transformed"])
def test_knot_energies_match_the_exact_second_moments(fixture, kind, m):
    # seeds, paths, knots and the |z| bound were fixed before the first
    # run: |z| <= 4 at each of up to 63 knots with 4,000 paths; the jump
    # marks are heavy-tailed, so a single knot's z wanders more than a
    # Gaussian one would.  "iterative" is implicit_projected with the
    # drift's `linear_A` dropped, so that the iterative solver, not the
    # direct product, solves each step.  "transformed" is the heat_jump
    # case under `exponential_transform` at rate K = 2: B̄ = B for a linear
    # B, and the kept `linear_A` is the drift A − ½K·I, stepped as affine
    # although the triple is not autonomous
    n, l, paths, seed = 4, 3, 4000, 26
    space = build_sine_space(n)
    k = np.arange(1, n + 1, dtype=float)
    A = np.diag(-0.5 * (k * np.pi) ** 2)
    if fixture in ("heat_jump", "transformed"):
        # multiplicative gradient noise θ·D x against one mode, no jumps
        theta = 0.5
        triple = heat_jump(space, MARKS, theta=theta, lipschitz=0.0)
        if fixture == "transformed":
            rate = 2.0
            triple = exponential_transform(triple, rate)
            A = A - 0.5 * rate * np.eye(n)
        j = k[:, None]
        odd = (j + k) % 2 == 1
        D = np.where(odd, 4.0 * j * k / np.where(odd, j**2 - k**2, 1.0), 0.0)
        wiener = lambda S: theta**2 * D @ S @ D.T  # noqa: E731
        profile, zeta = np.zeros(n), smooth_profile(n)
    else:
        # additive noise on l modes, mode k scaled k^{-3/2}, and a jump
        # along the first mode, from the zero state
        triple = additive_multimode(space, MARKS)
        b = np.diag(k ** -1.5)[:, :l]
        wiener = lambda S: b @ b.T  # noqa: E731
        profile, zeta = np.eye(n)[0], np.zeros(n)
    if kind == "iterative":
        kind, triple = "implicit_projected", dataclasses.replace(triple, linear_A=None)
    cfg = SchemeConfig(kind=kind, n=n, m=m, l=l, initial=zeta)
    stats = monte_carlo(space, triple, cfg, MARKS, paths, seed)
    assert stats.blowups == stats.failures == 0
    want = _exact_knot_energies(kind, n, m, l, A, wiener, profile, zeta)
    z = (stats.knot_mean[2:] - want[2:]) / np.sqrt(stats.knot_var[2:] / paths)
    assert np.abs(z).max() <= 4.0, z


def test_hemicontinuity_probe_has_its_own_stream(monkeypatch):
    # the probe's time and three directions are trials 1 to 3 of the
    # TAG_PROBE stream, normalised (trial 0 is the origin), not rows of the
    # trial stream of a sampled check (here the first check's)
    probed = []

    def recording(triple, x, y, z, t, eps):
        probed.append((t, x, y, z))
        return probe_hemicontinuity(triple, x, y, z, t, eps)

    monkeypatch.setattr(harness, "probe_hemicontinuity", recording)
    space = restrict(SPACE, 8)
    config = SuiteConfig(trials=8, seed=2024)
    run_condition_suite(heat_jump(SPACE, MARKS), space, MARKS, config)
    sampler = BoxSampler(dim=8, horizon=heat_jump(SPACE, MARKS).constants.horizon)

    def directions(key):
        t, x = sampler.points(key, 4)
        return t[1], [v / np.linalg.norm(v) for v in x[1:]]

    t, want = directions(derive_key(2024, TAG_PROBE))
    assert len(probed) == 1 and probed[0][0] == t
    for got, direction in zip(probed[0][1:], want):
        assert got.tobytes() == direction.tobytes()
    _, trial = directions(derive_key(2024, TAG_TRIAL))
    assert not np.allclose(probed[0][1], trial[0])


def test_suite_config_needs_a_trial():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least one trial"):
            SuiteConfig(trials=trials)


def test_condition_suite_shapes():
    triple = heat_jump(SPACE, MARKS)
    reports = run_condition_suite(
        triple, restrict(SPACE, 8), MARKS, SuiteConfig(trials=200)
    )
    assert [r.condition_id for r in reports] == ["C1", "C2", "C3", "C4", "PropBF"]
    assert all(r.passed for r in reports)


def _rung_configs(ladder, template=TEMPLATE):
    return [
        dataclasses.replace(template, kind=ladder.kind, n=n, m=m, l=l)
        for n, m, l in ladder.rungs + (ladder.reference,)
    ]


def test_solver_failures_are_counted_per_path(monkeypatch):
    # one chord step cannot solve the nonlinear step equation, so
    # every path fails; the study reports that instead of raising
    from spdesim import schemes

    monkeypatch.setattr(schemes, "SOLVER_MAX_ITER", 1)
    triple = semilinear(SPACE, MARKS)
    cfg = SchemeConfig(kind="implicit_projected", n=4, m=8, l=1, initial=ZETA)
    stats = monte_carlo(SPACE, triple, cfg, MARKS, 3, 5)
    assert (stats.paths, stats.blowups, stats.failures) == (3, 0, 3)
    assert np.isnan(stats.final_mean)
    ladder = LadderSpec(
        rungs=((2, 8, 1),),
        reference=(4, 32, 2),
        paths=3,
        master_seed=5,
        kind="implicit_projected",
    )
    report = convergence_study(SPACE, triple, MARKS, ladder, cfg)
    row = report.rows[0]
    assert (row.blowups, row.failures) == (0, 3)
    assert np.isnan(row.estimate)


def _one_path_run(blow_up_step=None, failure=None):
    return BlockRun(
        final=np.full((1, 2), np.nan),
        kept=None,
        blow_up_steps=[blow_up_step],
        failures=[failure],
        solver_iterations=np.zeros((0, 1), dtype=int),
        solver_residuals=np.zeros((0, 1)),
    )


def test_blowup_outranks_solver_failure_in_a_ladder_row():
    # one path, one rung: whichever of the rung and the reference blew up
    # while the other failed, the rung counts a blow-up and no failure
    blown = _one_path_run(blow_up_step=2)
    failed = _one_path_run(failure="step 1: implicit step did not converge")
    for runs in ([blown, failed], [failed, blown]):
        outcomes, gaps = harness._terminal_gaps(runs)
        est, half, blowups, failures = harness._error_stats(outcomes[0], gaps[0])
        assert (blowups, failures) == (1, 0)
        assert np.isnan(est) and np.isnan(half)


def test_convergence_study_honours_quadrature(monkeypatch):
    # a time-dependent triple, so the rule per window changes the means
    triple = exponential_transform(heat_jump(SPACE, MARKS), 2.0)
    ladder = LadderSpec(
        rungs=((2, 16, 1),), reference=(4, 64, 2), paths=3, master_seed=29
    )
    default = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE)
    # three paths are one block, run in this process, so the patch holds
    monkeypatch.setattr(averaging, "TIME_POINTS", 1)
    rung, ref = _rung_configs(ladder)
    grid = TimeGrid(1.0, ref.m)
    modes = min(ref.l, triple.wiener_modes)
    bundles = [
        sample_bundles([derive_key(29, TAG_PATH, j)], grid, modes, MARKS, ref.l)[0]
        for j in range(ladder.paths)
    ]
    coarse = run_block(SPACE, triple, rung, read_block(bundles))
    fine = run_block(SPACE, triple, ref, read_block(bundles))
    gaps = []
    for coarse_final, fine_final in zip(coarse.final, fine.final):
        diff = np.concatenate([coarse_final, np.zeros(2)]) - fine_final
        gaps.append(float(diff @ diff))
    want = float(neumaier_sum(np.asarray(gaps)) / len(gaps))
    got = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE)
    assert got.rows[0].estimate == want
    assert default.rows[0].estimate != want


def test_ladder_runs_each_config_once_per_block(monkeypatch):
    calls, draws = [], []
    original, sample = harness.run_block, harness.sample_block

    def counting(space, triple, config, noise, *args, **kwargs):
        calls.append(((config.n, config.m, config.l), len(noise.master_seeds)))
        return original(space, triple, config, noise, *args, **kwargs)

    def sampling(master_seeds, *args):
        draws.append(len(master_seeds))
        return sample(master_seeds, *args)

    monkeypatch.setattr(harness, "run_block", counting)
    monkeypatch.setattr(harness, "sample_block", sampling)
    # 65 paths are a block of 64 and a block of one
    ladder = LadderSpec(
        rungs=((2, 16, 1), (4, 64, 2)), reference=(8, 256, 3), paths=65, master_seed=7
    )
    convergence_study(SPACE, heat_jump(SPACE, MARKS), MARKS, ladder, TEMPLATE)
    configs = ladder.rungs + (ladder.reference,)
    assert calls == [(c, 64) for c in configs] + [(c, 1) for c in configs]
    # each block's noise is drawn once, for all of its configurations
    assert draws == [64, 1]


def test_a_ladder_of_exact_rungs_passes():
    # from zero, heat_jump stays at 0 on every path (multiplicative Wiener
    # noise and jumps through sin(0)), so every rung estimate is exactly 0:
    # neither decreasing nor separated, and still a pass
    ladder = LadderSpec(
        rungs=((2, 16, 1), (4, 64, 2)), reference=(8, 256, 3), paths=8, master_seed=4242
    )
    zero = dataclasses.replace(TEMPLATE, initial=np.zeros(16))
    report = convergence_study(SPACE, heat_jump(SPACE, MARKS), MARKS, ladder, zero)
    assert [row.estimate for row in report.rows] == [0.0, 0.0]
    assert not report.monotone and not report.separated
    assert report.verdict == "pass"
    # a NaN or a non-zero estimate keeps the monotone-and-separated rule
    for estimates in ([0.0, float("nan")], [0.0, 5e-324], [1e-3, 0.0], [float("nan")] * 2):
        rows = [dataclasses.replace(row, estimate=e) for row, e in zip(report.rows, estimates)]
        for monotone, separated in ((True, True), (True, False), (False, True)):
            got = ConvergenceReport(rows, monotone, separated, 0.0).verdict
            assert got == ("pass" if monotone and separated else "fail")


def test_ladder_rows_equal_standalone_coupled_errors():
    triple = heat_jump(SPACE, MARKS)
    ladder = LadderSpec(
        rungs=((2, 16, 1), (4, 64, 2)), reference=(8, 256, 3), paths=6, master_seed=71
    )
    report = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE)
    *rungs, ref = _rung_configs(ladder)
    for row, rung in zip(report.rows, rungs):
        alone = _one_rung(triple, rung, ref, 6, 71)
        assert (row.estimate, row.half_width, row.blowups, row.failures) == alone


def test_transformed_monte_carlo_worker_invariant():
    # 65 paths are two blocks, so the two-worker run sends the transformed
    # (time-dependent) triple through a worker pool
    triple = exponential_transform(heat_jump(SPACE, MARKS, reaction=0.3), 0.6)
    cfg = _cfg(n=4, m=16, l=2)
    one = monte_carlo(SPACE, triple, cfg, MARKS, 65, 61, workers=1)
    two = monte_carlo(SPACE, triple, cfg, MARKS, 65, 61, workers=2)
    assert one.knot_mean.tobytes() == two.knot_mean.tobytes()
    assert one.knot_var.tobytes() == two.knot_var.tobytes()
    counts = [(r.paths, r.blowups, r.failures) for r in (one, two)]
    assert counts[0] == counts[1]


def test_implicit_ladder_csv_worker_invariant():
    # 65 paths are two blocks, so the two-worker run starts worker processes
    triple = heat_jump(SPACE, MARKS)
    ladder = LadderSpec(
        rungs=((2, 16, 1), (4, 64, 2)),
        reference=(8, 256, 3),
        paths=65,
        master_seed=83,
        kind="implicit_projected",
    )
    one = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE, workers=1)
    two = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE, workers=2)
    assert one.to_csv() == two.to_csv()


class RecordingPool:
    """Stands in for the process pool: records its size and the blocks it
    is handed, and maps in-process."""

    sizes = []
    blocks = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.blocks.extend(items)
        return map(fn, items)


@pytest.mark.parametrize(
    "paths, workers, started",
    [(40, 8, []), (64, 3, []), (65, 8, [2]), (130, 2, [2]), (130, 8, [3])],
)
def test_workers_never_outnumber_blocks(monkeypatch, paths, workers, started):
    # `_path_study` imports the pool where it starts one, so the stand-in
    # replaces it in `concurrent.futures` itself
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "blocks", [])
    triple = heat_jump(SPACE, MARKS)
    monte_carlo(SPACE, triple, _cfg(n=2, m=8, l=1), MARKS, paths, 3, workers=workers)
    assert RecordingPool.sizes == started
    if started:
        # whole fixed blocks of 64 path indices, whatever the worker count
        want = [range(s, min(s + 64, paths)) for s in range(0, paths, 64)]
        assert RecordingPool.blocks == want


def test_importing_the_package_loads_no_process_pool():
    # only a study on more than one worker imports the pool machinery; a
    # two-worker study still spawns, as the next test's runs do
    script = (
        "import sys, spdesim; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


@settings(max_examples=10, deadline=None)
@given(
    paths=st.sampled_from([1, 63, 64, 65, 130]),
    workers=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_results_do_not_depend_on_workers_or_block_edges(paths, workers, seed):
    # blocks are fixed path ranges, so every worker count computes every
    # path in the same block with the same batched arithmetic
    triple = heat_jump(SPACE, MARKS)
    ladder = LadderSpec(
        rungs=((2, 8, 1), (4, 16, 2)), reference=(8, 32, 2), paths=paths, master_seed=seed
    )
    cfg = _cfg(kind="implicit_projected", n=4, m=16, l=2)

    def results(w):
        report = convergence_study(SPACE, triple, MARKS, ladder, TEMPLATE, workers=w)
        stats = monte_carlo(SPACE, triple, cfg, MARKS, paths, seed, workers=w)
        moments = (stats.knot_mean.tobytes(), stats.knot_var.tobytes())
        return report.to_csv(), moments, (stats.paths, stats.blowups, stats.failures)

    assert results(workers) == results(1)
