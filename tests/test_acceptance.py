"""End-to-end acceptance suite.

Each test prints one pass/fail line.  Statistical criteria run on fixed
master seeds, so outcomes are deterministic; the heavy convergence
ladders (criteria 7 and 8) dominate the runtime at a few minutes total.
"""

import contextlib
import time

import numpy as np
import pytest

from spdesim.fixtures import LinearDrift, heat_jump, semilinear
from spdesim.harness import (
    LadderSpec,
    SuiteConfig,
    convergence_study,
    monte_carlo,
    run_condition_suite,
)
from spdesim.noise import (
    PowerLawMarks,
    TimeGrid,
    build_partition,
    compensated_cell_increments,
    sample_bundles,
)
from spdesim.schemes import (
    STATES,
    SchemeConfig,
    run_block,
    solve_implicit_step,
    stability_margin,
)
from spdesim.space import build_sine_space, c_b, smooth_profile

MARKS = PowerLawMarks()


@contextlib.contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {label}")
        raise
    else:
        elapsed = time.perf_counter() - started
        print(f"criterion {number:2d} PASS: {label} [{elapsed:.1f}s]")


def test_criterion_01_projection_and_norm_inequalities():
    with criterion(1, "projection and norm-inequality suite"):
        rng = np.random.default_rng(1001)
        for n in (2, 4, 8, 16):
            cb = c_b(build_sine_space(n))
            k_small = np.arange(1, n + 1, dtype=float)
            k_big = np.arange(1, 2 * n + 1, dtype=float)
            x = rng.uniform(-5.0, 5.0, size=(10_000, 2 * n))
            proj = x[:, :n]
            h_sq = np.sum(proj**2, axis=1)
            v_sq = np.sum(proj**2 * (k_small * np.pi) ** 2, axis=1)
            dual_sq = np.sum(x**2 / (k_big * np.pi) ** 2, axis=1)
            # both inequalities with relative slack 1e-10
            assert (v_sq <= cb * h_sq * (1 + 1e-10)).all()
            assert (h_sq <= cb * dual_sq * (1 + 1e-10)).all()
            # idempotence, self-adjointness, H-contraction
            again = proj[:, :n]
            assert np.abs(again - proj).max() <= 1e-12
            y = rng.uniform(-5.0, 5.0, size=(10_000, 2 * n))
            lhs = np.einsum("ij,ij->i", proj, y[:, :n])
            rhs = np.einsum("ij,ij->i", x[:, :n], y[:, :n])
            assert np.abs(lhs - rhs).max() <= 1e-12
            assert (h_sq <= np.sum(x**2, axis=1) + 1e-12).all()


def test_criterion_02_basis_constant_and_stability_gate():
    with criterion(2, "basis-constant arithmetic and stability gate"):
        for n in range(1, 65):
            got = c_b(build_sine_space(n))
            want = np.pi**2 * n * (n + 1) * (2 * n + 1) / 6.0
            assert abs(got - want) <= 1e-10 * want
        # gate flips at the predicted step count for gamma = 0.5, alpha = 1
        for n in (4, 8, 16):
            space = build_sine_space(n)
            threshold = int(np.ceil(c_b(space) / 0.5))
            _, inside_at = stability_margin(
                1.0, TimeGrid(1.0, threshold), space, gamma=0.5
            )
            _, inside_below = stability_margin(
                1.0, TimeGrid(1.0, threshold - 1), space, gamma=0.5
            )
            assert inside_at and not inside_below


def test_criterion_03_compensator_statistics():
    with criterion(3, "compensated-increment moments and aggregation"):
        assert MARKS.total_mass(2) == pytest.approx(6.0, rel=1e-12)
        part = build_partition(MARKS, 2)
        grid = TimeGrid(4.0, 2)  # delta = 2 keeps every cell's mean count moderate
        bundles = 100_000
        total = np.zeros(part.size)
        total_sq = np.zeros(part.size)
        # seeds 0 .. 99,999 in blocks of 1,000, summed row by row in seed order
        for lo in range(0, bundles, 1000):
            block = sample_bundles(range(lo, lo + 1000), grid, 0, MARKS, 2)
            for inc in compensated_cell_increments(block, part, grid, 1):
                total += inc
                total_sq += inc**2
        mean = total / bundles
        var = (total_sq - bundles * mean**2) / (bundles - 1)
        sigma = np.sqrt(grid.delta * part.nu)
        assert (np.abs(mean) <= 4.0 * sigma / np.sqrt(bundles)).all()
        assert (np.abs(var - grid.delta * part.nu) <= 0.05 * grid.delta * part.nu).all()
        # cross-level aggregation: integer counts, additive compensators
        fine = build_partition(MARKS, 3)
        block = sample_bundles(range(100), grid, 0, MARKS, 3)
        rows_f = compensated_cell_increments(block, fine, grid, 1)
        rows_c = compensated_cell_increments(block, part, grid, 1)
        for inc_f, inc_c in zip(rows_f, rows_c):
            counts_f = np.rint(inc_f + grid.delta * fine.nu).astype(int)
            counts_c = np.rint(inc_c + grid.delta * part.nu).astype(int)
            for p in range(part.size):
                children = np.nonzero(fine.parent == p)[0]
                assert counts_f[children].sum() == counts_c[p]
                assert inc_f[children].sum() == pytest.approx(inc_c[p], abs=1e-12)


def test_criterion_04_implicit_step_oracle():
    with criterion(4, "implicit step against the diagonal closed form"):
        rng = np.random.default_rng(44)
        for n in (4, 16):
            space = build_sine_space(n)
            triple = heat_jump(space, MARKS, theta=0.0, lipschitz=0.0, lambda_const=0.5)
            k = np.arange(1, n + 1, dtype=float)
            for delta in (0.1, 0.01):
                m = round(1.0 / delta)
                grid = TimeGrid(1.0, m)
                for _ in range(25):
                    y = rng.uniform(-5, 5, (1, n))
                    x, report = solve_implicit_step(triple, grid, 1, y)
                    want = y / (1.0 + delta * (k * np.pi) ** 2 / 2.0)
                    assert np.abs(x - want).max() <= 1e-10
                    assert report.converged.all()
        space = build_sine_space(8)
        sem = semilinear(space, MARKS)
        grid = TimeGrid(1.0, 10)
        # the ten right-hand sides solved as one block and one by one: the
        # root does not depend on the rows it is solved with
        ys = rng.uniform(-2, 2, (10, 8))
        xa, ra = solve_implicit_step(sem, grid, 2, ys)
        for trial, y in enumerate(ys):
            xb, rb = solve_implicit_step(sem, grid, 2, y[None])
            bound = 1e-10 * (1 + np.linalg.norm(y))
            assert ra.residual[trial] <= bound and rb.residual[0] <= bound
            assert np.abs(xa[trial] - xb[0]).max() <= 1e-8


def test_criterion_05_zero_noise_scheme_oracles():
    with criterion(5, "zero-noise trajectories against mode recursions"):
        m = 256
        n = 12
        space = build_sine_space(n)
        triple = heat_jump(space, MARKS, theta=0.0, lipschitz=0.0, lambda_const=0.5)
        zeta = np.ones(n)
        grid = TimeGrid(1.0, m)
        bundle = sample_bundles([55], grid, 1, MARKS, 2)[0]
        k = np.arange(1, n + 1, dtype=float)
        exp_factor = 1.0 - grid.delta * (k * np.pi) ** 2 / 2.0
        imp_factor = 1.0 / (1.0 + grid.delta * (k * np.pi) ** 2 / 2.0)

        cfg_e = SchemeConfig(kind="explicit", n=n, m=m, l=2, initial=zeta)
        traj_e = run_block(space, triple, cfg_e, [bundle], keep=STATES).kept[:, 0]
        cfg_i = SchemeConfig(kind="implicit_projected", n=n, m=m, l=2, initial=zeta)
        traj_i = run_block(space, triple, cfg_i, [bundle], keep=STATES).kept[:, 0]
        for i in range(1, m + 1):
            want_e = zeta * exp_factor ** (i - 1)
            want_i = zeta * imp_factor**i
            # 1e-10 absolutely, relative on modes the recursion amplifies
            tol_e = 1e-10 * np.maximum(1.0, np.abs(want_e))
            assert (np.abs(traj_e[i] - want_e) <= tol_e).all()
            assert np.abs(traj_i[i] - want_i).max() <= 1e-10
        # blow-up boundary: growth exactly when delta > 4/(k pi)^2
        for k_mode in range(1, n + 1):
            unstable = grid.delta > 4.0 / (k_mode * np.pi) ** 2
            grew = abs(traj_e[m][k_mode - 1]) > abs(traj_e[1][k_mode - 1])
            assert grew == unstable
        assert any(
            grid.delta > 4.0 / (k_mode * np.pi) ** 2 for k_mode in range(1, n + 1)
        )


def test_criterion_06_stability_under_refinement():
    with criterion(6, "bounded second moments at (8, 2048, 3) vs (8, 4096, 3)"):
        space = build_sine_space(8)
        triple = heat_jump(space, MARKS)
        zeta = smooth_profile(8)
        paths = 200
        stats = {}
        for m in (2048, 4096):
            cfg = SchemeConfig(kind="explicit", n=8, m=m, l=3, initial=zeta)
            stats[m] = monte_carlo(space, triple, cfg, MARKS, paths, 314159)
            assert stats[m].blowups == 0
        peaks = {m: float(st.knot_mean.max()) for m, st in stats.items()}
        assert all(np.isfinite(v) for v in peaks.values())
        idx = {m: int(st.knot_mean.argmax()) for m, st in stats.items()}
        band = 4.0 * np.sqrt(
            stats[2048].knot_var[idx[2048]] / paths
            + stats[4096].knot_var[idx[4096]] / paths
        )
        assert abs(peaks[2048] - peaks[4096]) <= band + 1e-15
        # the terminal moment agrees within its own 4-sigma band as well
        band_T = 4.0 * np.sqrt(
            stats[2048].final_var / paths + stats[4096].final_var / paths
        )
        assert abs(stats[2048].final_mean - stats[4096].final_mean) <= band_T
        # the gate product alpha * delta * C_B stays below one for alpha = 1,
        # i.e. the configuration sits inside a stability region I_gamma
        rho, _ = stability_margin(1.0, TimeGrid(1.0, 2048), space, gamma=0.99)
        assert rho > 0.0


def test_criterion_07_strong_convergence_explicit():
    with criterion(7, "explicit coupled ladder converges monotonically"):
        space = build_sine_space(32)
        triple = heat_jump(space, MARKS)
        zeta = smooth_profile(32)
        template = SchemeConfig(kind="explicit", n=1, m=2, l=1, initial=zeta)
        ladder = LadderSpec(
            rungs=((4, 64, 2), (8, 256, 3), (16, 1024, 4)),
            reference=(32, 4096, 5),
            paths=500,
            master_seed=20240501,
        )
        report = convergence_study(space, triple, MARKS, ladder, template)
        estimates = [r.estimate for r in report.rows]
        assert all(r.blowups == 0 for r in report.rows)
        assert report.monotone, f"estimates not monotone: {estimates}"
        assert report.separated
        assert report.verdict == "pass"


def test_criterion_08_strong_convergence_implicit():
    with criterion(8, "implicit coupled ladder converges monotonically"):
        space = build_sine_space(32)
        triple = heat_jump(space, MARKS)
        zeta = smooth_profile(32)
        template = SchemeConfig(kind="implicit_projected", n=1, m=2, l=1, initial=zeta)
        ladder = LadderSpec(
            rungs=((4, 32, 2), (8, 128, 3), (16, 512, 4)),
            reference=(32, 2048, 5),
            paths=500,
            master_seed=20240501,
            kind="implicit_projected",
        )
        report = convergence_study(space, triple, MARKS, ladder, template)
        estimates = [r.estimate for r in report.rows]
        assert all(r.blowups == 0 for r in report.rows)
        assert report.monotone, f"estimates not monotone: {estimates}"
        assert report.separated
        assert report.verdict == "pass"


def test_criterion_09_condition_suite_and_mutations():
    with criterion(9, "condition suite and targeted mutations"):
        import dataclasses

        space = build_sine_space(8)
        config = SuiteConfig(trials=10_000)
        passed = {
            r.condition_id: r.passed
            for r in run_condition_suite(heat_jump(space, MARKS), space, MARKS, config)
        }
        assert passed == {"C1": True, "C2": True, "C3": True, "C4": True, "PropBF": True}

        def suite(triple):
            return {
                r.condition_id: r.passed
                for r in run_condition_suite(triple, space, MARKS, config)
            }

        # theta outside the unit interval: coercivity is the target
        got = suite(heat_jump(space, MARKS, theta=1.2, lambda_const=0.375))
        assert not got["C2"]
        assert got["C3"] and got["C4"] and got["PropBF"]

        # growth constant below its threshold: growth is the target
        got = suite(heat_jump(space, MARKS, alpha=1.0))
        assert not got["C3"]
        assert got["C1"] and got["C2"] and got["C4"] and got["PropBF"]

        # negated drift: dissipativity is the target
        base = heat_jump(space, MARKS)
        anti = dataclasses.replace(
            base, eval_A=LinearDrift(-base.linear_A), linear_A=-base.linear_A
        )
        got = suite(anti)
        assert not got["C1"]
        assert got["C3"] and got["C4"] and got["PropBF"]

        # reaction term without the exponential transform: dissipativity
        got = suite(heat_jump(space, MARKS, reaction=5.0))
        assert not got["C1"]
        assert got["C2"] and got["C3"] and got["C4"] and got["PropBF"]


def test_criterion_10_reproducibility_across_workers(tmp_path):
    with criterion(10, "byte-identical reports for 1 vs 8 workers"):
        from spdesim.cli import main

        config = tmp_path / "repro.cfg"
        config.write_text(
            """
[space]
n = 8

[coefficients]
fixture = heat_jump

[noise]
master_seed = 1234

[scheme]
kind = explicit
n = 8
m = 256
l = 3

[run]
paths = 40

[ladder]
rungs = 2:16:1, 4:64:2
reference = 8:256:3
"""
        )
        out1 = tmp_path / "w1.csv"
        out8 = tmp_path / "w8.csv"
        assert main(["converge", "--config", str(config), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["converge", "--config", str(config), "--out", str(out8), "--workers", "8"]) == 0
        assert out1.read_bytes() == out8.read_bytes()
