import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdesim.coefficients import exponential_transform
from spdesim.fixtures import additive_multimode, heat_jump, semilinear, zero_triple
from spdesim.noise import (
    AtomMarks,
    NoiseBundle,
    PowerLawMarks,
    TimeGrid,
    read_block,
    sample_bundles,
)
from spdesim.rng import TAG_INITIAL, derive_key, make_generator
from spdesim.schemes import (
    ENERGIES,
    NO_FINITE_SOLUTION,
    SOLVER_TOL,
    STATES,
    SchemeConfig,
    run_block,
    solve_implicit_step,
    stability_margin,
    step_energy_bound,
)
from spdesim.space import build_sine_space, smooth_profile

MARKS = PowerLawMarks()


def _bundle(seed, m, modes=1, level=2, T=1.0):
    return sample_bundles([seed], TimeGrid(T, m), modes, MARKS, level)[0]


def _path(space, triple, cfg, bundle):
    """One path as `simulate` runs it: a block of one that keeps its states."""
    return run_block(space, triple, cfg, read_block([bundle]), keep=STATES)


def _values(space, triple, cfg, bundle):
    """The (m+1, n) knot states of one path."""
    return _path(space, triple, cfg, bundle).kept[:, 0]


def _quiet_heat(space):
    """Heat drift only: no Wiener term, no jumps."""
    return heat_jump(space, MARKS, theta=0.0, lipschitz=0.0, lambda_const=0.5)


def explicit_mode_recursion(zeta, m, n, T=1.0):
    """Scalar oracle: u_k(t_i) = u_k(t_1) (1 - delta k^2 pi^2 / 2)^(i-1)."""
    k = np.arange(1, n + 1)
    factor = 1.0 - (T / m) * k**2 * np.pi**2 / 2.0
    out = np.zeros((m + 1, n))
    out[1] = zeta[:n]
    for i in range(2, m + 1):
        out[i] = out[i - 1] * factor
    return out


def implicit_mode_recursion(zeta, m, n, T=1.0):
    k = np.arange(1, n + 1)
    factor = 1.0 / (1.0 + (T / m) * k**2 * np.pi**2 / 2.0)
    out = np.zeros((m + 1, n))
    out[0] = zeta[:n]
    for i in range(1, m + 1):
        out[i] = out[i - 1] * factor
    return out


def test_explicit_zero_triple_transports_initial():
    space = build_sine_space(3)
    triple = zero_triple(space, MARKS)
    e1 = np.array([1.0, 0.0, 0.0])
    cfg = SchemeConfig(kind="explicit", n=3, m=8, l=1, initial=e1)
    values = _values(space, triple, cfg, _bundle(3, 8))
    assert np.array_equal(values[0], np.zeros(3))
    for i in range(1, 9):
        assert np.array_equal(values[i], e1)


def test_explicit_matches_mode_recursion():
    space = build_sine_space(8)
    zeta = smooth_profile(8)
    m = 256
    cfg = SchemeConfig(kind="explicit", n=8, m=m, l=2, initial=zeta)
    values = _values(space, _quiet_heat(space), cfg, _bundle(4, m))
    oracle = explicit_mode_recursion(zeta, m, 8)
    assert np.abs(values - oracle).max() < 1e-10


def test_explicit_initial_convention():
    space = build_sine_space(4)
    zeta = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = SchemeConfig(kind="explicit", n=4, m=4, l=1, initial=zeta)
    values = _values(space, _quiet_heat(space), cfg, _bundle(5, 4))
    assert np.array_equal(values[0], np.zeros(4))
    assert np.array_equal(values[1], zeta)


def test_explicit_rejects_wrong_exponent():
    space = build_sine_space(4)
    triple = _quiet_heat(space)
    bad = dataclasses.replace(
        triple, constants=dataclasses.replace(triple.constants, p=3.0)
    )
    cfg = SchemeConfig(kind="explicit", n=4, m=4, l=1)
    with pytest.raises(ValueError):
        run_block(space, bad, cfg, read_block([_bundle(6, 4)]))


def test_explicit_rejects_large_lambda():
    space = build_sine_space(4)
    triple = heat_jump(space, MARKS, lambda_const=1.5)
    cfg = SchemeConfig(kind="explicit", n=4, m=4, l=1)
    with pytest.raises(ValueError):
        run_block(space, triple, cfg, read_block([_bundle(6, 4)]))


def test_explicit_blowup_marker():
    # far outside the drift stability region the iteration overflows and
    # the run records the first knot whose squared H-norm is not finite
    # instead of raising; the state there is still finite
    space = build_sine_space(32)
    cfg = SchemeConfig(kind="explicit", n=32, m=256, l=1, initial=np.full(32, 10.0))
    triple, bundle = _quiet_heat(space), _bundle(7, 256)
    run = _path(space, triple, cfg, bundle)
    step = run.blow_up_steps[0]
    assert step is not None
    values = run.kept[:, 0]
    assert np.isnan(values[step:]).all()
    assert np.isfinite(values[step - 1]).all()
    energies = run_block(space, triple, cfg, read_block([bundle]), keep=ENERGIES).kept[:, 0]
    assert np.isnan(energies[step:]).all() and np.isfinite(energies[:step]).all()
    # the same iteration by hand, mode by mode: its energy first overflows
    # at the marked knot, where every coordinate is still finite
    x = np.full(32, 10.0)
    factor = 1.0 - (1 / 256) * np.arange(1, 33) ** 2 * np.pi**2 / 2.0
    with np.errstate(over="ignore"):
        energy = [float(x @ x)]
        for _ in range(step - 1):
            x = x * factor
            energy.append(float(x @ x))
    assert np.isfinite(energy[:-1]).all() and energy[-1] == np.inf
    assert np.isfinite(x).all()


def test_explicit_mode_growth_boundary():
    # per-mode amplification exceeds one exactly when delta > 4/(k pi)^2
    space = build_sine_space(12)
    m = 256
    zeta = np.full(12, 1.0)
    cfg = SchemeConfig(kind="explicit", n=12, m=m, l=1, initial=zeta)
    values = _values(space, _quiet_heat(space), cfg, _bundle(8, m))
    delta = 1.0 / m
    for k in range(1, 13):
        grew = abs(values[m][k - 1]) > abs(values[1][k - 1])
        assert grew == (delta > 4.0 / (k * np.pi) ** 2)


@pytest.mark.parametrize("n,delta", [(4, 0.1), (16, 0.1), (4, 0.01), (16, 0.01)])
def test_implicit_step_affine_closed_form(n, delta):
    space = build_sine_space(n)
    triple = _quiet_heat(space)
    m = max(2, round(1.0 / delta))
    grid = TimeGrid(m * delta, m)
    rng = np.random.default_rng(10 + n)
    k = np.arange(1, n + 1)
    for _ in range(20):
        y = rng.uniform(-5, 5, (1, n))
        x, report = solve_implicit_step(triple, grid, 1, y)
        want = y / (1.0 + delta * k**2 * np.pi**2 / 2.0)
        assert np.abs(x - want).max() < 1e-10
        assert report.converged.all()


def test_implicit_step_documented_example():
    space = build_sine_space(2)
    triple = _quiet_heat(space)
    grid = TimeGrid(0.2, 2)  # delta = 0.1
    (x,), _ = solve_implicit_step(triple, grid, 1, np.array([[1.0, 1.0]]))
    assert x[0] == pytest.approx(1.0 / (1.0 + 0.1 * np.pi**2 / 2.0), abs=1e-4)
    assert x[1] == pytest.approx(1.0 / (1.0 + 0.1 * 4 * np.pi**2 / 2.0), abs=1e-4)
    assert x[0] == pytest.approx(0.6696, abs=2e-4)
    assert x[1] == pytest.approx(0.3363, abs=2e-4)


def test_implicit_step_zero_drift_is_identity():
    space = build_sine_space(3)
    triple = zero_triple(space, MARKS)
    grid = TimeGrid(1.0, 4)
    y = np.array([[0.5, -1.0, 2.0]])
    x, report = solve_implicit_step(triple, grid, 2, y)
    assert np.allclose(x, y, atol=1e-14)
    assert report.converged.all()


def test_implicit_step_semilinear_unique_root():
    space = build_sine_space(6)
    triple = semilinear(space, MARKS)
    grid = TimeGrid(1.0, 10)
    rng = np.random.default_rng(21)
    y = rng.uniform(-2, 2, (1, 6))
    x, report = solve_implicit_step(triple, grid, 3, y)
    assert report.converged.all()
    assert report.residual[0] <= 1e-10 * (1 + np.linalg.norm(y))


def test_implicit_matches_mode_recursion():
    space = build_sine_space(8)
    zeta = smooth_profile(8)
    m = 256
    cfg = SchemeConfig(kind="implicit_projected", n=8, m=m, l=2, initial=zeta)
    values = _values(space, _quiet_heat(space), cfg, _bundle(9, m))
    oracle = implicit_mode_recursion(zeta, m, 8)
    assert np.abs(values - oracle).max() < 1e-10
    # unconditional decay even at coarse steps
    coarse = SchemeConfig(kind="implicit_projected", n=8, m=4, l=2, initial=zeta)
    values_c = _values(space, _quiet_heat(space), coarse, _bundle(9, 4))
    norms = np.linalg.norm(values_c, axis=1)
    assert (np.diff(norms) < 0).all()


def test_implicit_constant_for_zero_triple():
    space = build_sine_space(3)
    triple = zero_triple(space, MARKS)
    zeta = np.array([1.0, -2.0, 0.5])
    cfg = SchemeConfig(kind="implicit", n=3, m=6, l=1, initial=zeta)
    for row in _values(space, triple, cfg, _bundle(11, 6)):
        assert np.array_equal(row, zeta)


def test_projected_equals_unprojected_at_ambient_dim():
    space = build_sine_space(6)
    triple = heat_jump(space, MARKS)
    zeta = smooth_profile(6)
    bundle = _bundle(12, 64, modes=1, level=2)
    base = dict(n=6, m=64, l=2, initial=zeta)
    plain = _values(space, triple, SchemeConfig(kind="implicit", **base), bundle)
    projected = _values(
        space, triple, SchemeConfig(kind="implicit_projected", **base), bundle
    )
    assert np.array_equal(plain, projected)


def test_implicit_residual_contract():
    space = build_sine_space(8)
    triple = heat_jump(space, MARKS)
    cfg = SchemeConfig(kind="implicit_projected", n=8, m=32, l=2)
    run = _path(space, triple, cfg, _bundle(13, 32))
    for i, resid in enumerate(run.solver_residuals[:, 0], start=1):
        y_norm = np.linalg.norm(run.kept[i - 1, 0])
        assert resid <= 1e-10 * (1 + y_norm) + 1e-12


def test_direct_solve_does_not_evaluate_the_drift(monkeypatch):
    # the direct path reads its residual off the matrix I − δA
    from spdesim import schemes

    def forbidden(*args, **kwargs):
        raise AssertionError("drift evaluated on the direct path")

    monkeypatch.setattr(schemes, "impl_A", forbidden)
    space = build_sine_space(4)
    triple = heat_jump(space, MARKS)
    cfg = SchemeConfig(kind="implicit_projected", n=4, m=16, l=2)
    run = _path(space, triple, cfg, _bundle(19, 16))
    assert run.solver_iterations[:, 0].tolist() == [0] * 16
    assert run.solver_residuals.max() <= 1e-14


@pytest.mark.parametrize("keep", [None, ENERGIES, STATES])
def test_singular_step_matrix_fails_every_row_without_a_warning(keep):
    space = build_sine_space(4)
    grid = TimeGrid(1.0, 16)
    # δ = 1/16, so I − δ·(I/δ) is exactly zero
    triple = dataclasses.replace(_quiet_heat(space), linear_A=np.eye(4) / grid.delta)
    rows = np.random.default_rng(4).uniform(-2.0, 2.0, (3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, report = solve_implicit_step(triple, grid, 1, rows)
        cfg = SchemeConfig(kind="implicit_projected", n=4, m=16, l=2)
        run = run_block(space, triple, cfg, read_block(_bundles(3)), keep=keep)
    assert np.isnan(x).all()
    assert report.converged.tolist() == [False] * 3
    assert report.reasons == [NO_FINITE_SOLUTION] * 3
    assert run.failures == [f"step 1: {NO_FINITE_SOLUTION}"] * 3
    assert run.blow_up_steps == [None] * 3
    assert np.isnan(run.final).all()
    if keep is not None:
        assert np.isnan(run.kept[1:]).all() and not np.isnan(run.kept[0]).any()


@pytest.mark.parametrize("keep", [None, ENERGIES, STATES])
def test_an_overflowing_right_hand_side_fails_at_its_step(keep):
    # the knot test of a direct solve tells the rows apart only when the
    # total energy is not finite: a row whose right-hand side overflows at
    # step 6 has no finite solution there, so it fails instead of blowing up
    space = build_sine_space(8)
    triple = heat_jump(space, MARKS)
    cfg = SchemeConfig(kind="implicit_projected", n=8, m=16, l=2)
    calm = [_bundle(seed, 64) for seed in range(40, 45)]
    wiener = calm[2].wiener.copy()
    # the fine increments of coarse step 6, whose sum overflows
    wiener[:, 20:24] = 1e308
    loud = calm[:2] + [dataclasses.replace(calm[2], wiener=wiener)] + calm[3:]
    want = run_block(space, triple, cfg, read_block(calm), keep=keep)
    got = run_block(space, triple, cfg, read_block(loud), keep=keep)
    assert want.failures == [None] * 5
    assert got.failures == [None, None, f"step 6: {NO_FINITE_SOLUTION}", None, None]
    assert got.blow_up_steps == want.blow_up_steps == [None] * 5
    assert np.isnan(got.final[2]).all()
    if keep is not None:
        assert np.isnan(got.kept[6:, 2]).all() and not np.isnan(got.kept[:6, 2]).any()
    others = [0, 1, 3, 4]
    assert got.final[others].tobytes() == want.final[others].tobytes()
    for name in ("solver_iterations", "solver_residuals"):
        got_rows, want_rows = getattr(got, name), getattr(want, name)
        assert got_rows[:, others].tobytes() == want_rows[:, others].tobytes()
    if keep is not None:
        assert got.kept[:, others].tobytes() == want.kept[:, others].tobytes()


def test_direct_solve_of_a_stiff_non_normal_drift():
    # A = −S + K with S symmetric positive definite (eigenvalues 1 to 3000)
    # and K skew: dissipative, not diagonal, not symmetric, and δ‖A‖ ≥ 100
    n = 32
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    skew = rng.standard_normal((n, n))
    linear_A = -(q * np.geomspace(1.0, 3000.0, n)) @ q.T + 50.0 * (skew - skew.T)
    space = build_sine_space(n)
    triple = dataclasses.replace(_quiet_heat(space), linear_A=linear_A)
    grid = TimeGrid(1.0, 16)
    assert grid.delta * np.linalg.norm(linear_A, 2) >= 100.0
    y = rng.uniform(-5.0, 5.0, (64, n))
    x, report = solve_implicit_step(triple, grid, 1, y)
    mat = np.eye(n) - grid.delta * linear_A
    want = np.linalg.solve(mat, y.T).T
    # row-wise relative error: single small coordinates carry the absolute
    # rounding of the whole row
    error = np.linalg.norm(x - want, axis=1) / np.linalg.norm(want, axis=1)
    assert error.max() <= 1e-12
    assert report.converged.all()
    bound = SOLVER_TOL * (1.0 + np.linalg.norm(y, axis=1))
    assert (report.residual <= bound).all()


class CountingDrift:
    """x ↦ x·Aᵀ for a matrix A, recording how many rows each call takes."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.rows = []

    def __call__(self, t, x):
        self.rows.append(int(np.prod(np.shape(x)[:-1])))
        return x @ self.matrix.T


def test_a_non_normal_affine_drift_is_solved_by_chord_steps_alone():
    # A = −S + K with S symmetric positive definite and K skew, given
    # without `linear_A`: J₀ is A up to rounding, so one chord step with
    # M = (I − δA)⁻ᵀ solves every step and no Newton Jacobian follows J₀.
    # The drift sees J₀'s n + 1 rows once, then per step the residual of
    # y and of the chord step, P rows each.  M not transposed fails here:
    # for a non-normal A, (I − δA)⁻¹ is not (I − δA)⁻ᵀ, unlike a diagonal
    n, m, paths = 6, 16, 5
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    skew = rng.standard_normal((n, n))
    linear_A = -(q * np.geomspace(1.0, 50.0, n)) @ q.T + 10.0 * (skew - skew.T)
    space = build_sine_space(n)
    drift = CountingDrift(linear_A)
    triple = dataclasses.replace(_quiet_heat(space), eval_A=drift, linear_A=None)
    cfg = SchemeConfig(kind="implicit_projected", n=n, m=m, l=1, initial=smooth_profile(n))
    bundles = sample_bundles(range(70, 70 + paths), TimeGrid(1.0, m), 1, MARKS, 1)
    run = run_block(space, triple, cfg, read_block(bundles), keep=STATES)
    assert drift.rows == [n + 1] + [paths] * (2 * m)
    assert run.failures == [None] * paths
    assert (run.solver_iterations == 1).all()
    direct = dataclasses.replace(triple, linear_A=linear_A)
    want = run_block(space, direct, cfg, read_block(bundles), keep=STATES).kept
    scale = 1.0 + np.linalg.norm(want, axis=-1)
    assert (np.abs(run.kept - want).max(axis=-1) <= m * SOLVER_TOL * scale).all()


def _run_bits(run):
    return (
        run.final.tobytes(),
        None if run.kept is None else run.kept.tobytes(),
        run.blow_up_steps,
        run.failures,
        run.solver_iterations.tobytes(),
        run.solver_residuals.tobytes(),
    )


@pytest.mark.parametrize("keep", [None, ENERGIES, STATES])
@pytest.mark.parametrize("kind", ["explicit", "implicit", "implicit_projected"])
def test_a_diagonal_drift_steps_with_the_bits_of_its_matrix_product(
    kind, keep, monkeypatch
):
    from spdesim import schemes

    # −0.0 initial coordinates, which x·d keeps and the product turns into
    # +0, and the zero triple, whose I + δA and inverse are the identity
    n, m = 6, 32
    space = build_sine_space(n)
    signed = np.array([-0.0, 1.5, -0.0, -2.0, 0.0, 0.25])
    bundles = [_bundle(seed, m, modes=n, level=3) for seed in range(4)]
    cases = [
        (heat_jump(space, MARKS), None),
        (heat_jump(space, MARKS), signed),
        (additive_multimode(space, MARKS), signed),
        (zero_triple(space, MARKS), np.zeros(n)),
        (zero_triple(space, MARKS), signed),
    ]
    grid = TimeGrid(1.0, m)
    y = np.array([signed, -signed, np.zeros(n), [-0.0] * n])
    for triple, initial in cases:
        cfg = SchemeConfig(kind=kind, n=n, m=m, l=3, initial=initial)
        diagonal = _run_bits(run_block(space, triple, cfg, read_block(bundles), keep=keep))
        solved = solve_implicit_step(triple, grid, 2, y)
        with monkeypatch.context() as patch:
            patch.setattr(schemes, "_operator", lambda matrix: matrix)
            product = _run_bits(run_block(space, triple, cfg, read_block(bundles), keep=keep))
            want = solve_implicit_step(triple, grid, 2, y)
        assert diagonal == product
        assert solved[0].tobytes() == want[0].tobytes()
        assert solved[1].residual.tobytes() == want[1].residual.tobytes()


def test_only_a_diagonal_drift_steps_as_a_vector(monkeypatch):
    from spdesim import schemes

    d = np.array([1.0, -0.5, 2.0])
    assert np.array_equal(schemes._operator(np.diag(d)), d)
    for matrix in (np.diag(d) + np.eye(3, k=1), np.diag([1.0, np.nan, 2.0])):
        assert schemes._operator(matrix) is matrix
    # a non-diagonal affine drift keeps the matrix product in every kind
    space = build_sine_space(4)
    triple = _quiet_heat(space)
    triple = dataclasses.replace(triple, linear_A=triple.linear_A + np.eye(4, k=-1))
    applied = []
    writer = schemes._writer

    def recording_writer(operator, paths):
        applied.append(operator.ndim)
        return writer(operator, paths)

    monkeypatch.setattr(schemes, "_writer", recording_writer)
    for kind in ("explicit", "implicit", "implicit_projected"):
        cfg = SchemeConfig(kind=kind, n=4, m=16, l=2)
        run_block(space, triple, cfg, read_block([_bundle(1, 16)]), keep=STATES)
    assert applied and set(applied) == {2}


def test_adaptedness_prefix():
    # zeroing all bundle data after t_i leaves the trajectory prefix intact
    space = build_sine_space(6)
    triple = heat_jump(space, MARKS)
    m = 16
    bundle = _bundle(14, m, modes=1, level=2)
    cfg = SchemeConfig(kind="explicit", n=6, m=m, l=2)
    full = _values(space, triple, cfg, bundle)
    cut = 10
    t_cut = cut / m
    keep = bundle.jump_times <= t_cut
    wiener = bundle.wiener.copy()
    wiener[:, cut:] = 0.0
    truncated = NoiseBundle(
        T=bundle.T,
        m=bundle.m,
        l_modes=bundle.l_modes,
        l_level=bundle.l_level,
        master_seed=bundle.master_seed,
        wiener=wiener,
        jump_times=bundle.jump_times[keep],
        jump_marks=bundle.jump_marks[keep],
        marks=bundle.marks,
    )
    prefix = _values(space, triple, cfg, truncated)
    assert np.array_equal(full[: cut + 1], prefix[: cut + 1])


def test_explicit_reads_only_lagged_coefficients():
    # altering the drift on (t_{i-1}, T] cannot change values[i]
    space = build_sine_space(4)
    m = 8
    cut_index = 5
    t_cut = (cut_index - 1) / m

    class PiecewiseDrift:
        def __init__(self, jump):
            self.jump = jump

        def __call__(self, t, x):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t)[..., None]
            base = -0.05 * x * (1.0 + t)
            return np.where(t > t_cut, base + self.jump * x, base)

    marks = MARKS
    base = heat_jump(space, marks, theta=0.0, lipschitz=0.0)
    bundle = _bundle(15, m, modes=1, level=2)
    cfg = SchemeConfig(kind="explicit", n=4, m=m, l=2)
    runs = []
    for jump in (0.0, 50.0):
        triple = dataclasses.replace(
            base, eval_A=PiecewiseDrift(jump), linear_A=None, autonomous=False
        )
        runs.append(_values(space, triple, cfg, bundle))
    assert np.array_equal(runs[0][: cut_index + 1], runs[1][: cut_index + 1])
    assert not np.array_equal(runs[0][m], runs[1][m])


@pytest.mark.parametrize("kind", ["explicit", "implicit_projected"])
def test_generic_and_non_autonomous_triples_match_fast_paths(kind):
    # the generic jump quadrature and the non-autonomous time means (with
    # the nonlinear solver for the implicit kind) must reproduce the
    # factorized, autonomous, directly solved run on atom marks
    marks = AtomMarks(positions=(0.25, 0.5, 1.0), weights=(1.0, 2.0, 0.5))
    space = build_sine_space(4)
    triple = heat_jump(space, marks)
    bundle = sample_bundles([18], TimeGrid(1.0, 256), 1, marks, 3)[0]
    cfg = SchemeConfig(kind=kind, n=4, m=256, l=3)
    base = _values(space, triple, cfg, bundle)
    scale = np.abs(base).max()
    assert bundle.jump_times.size and scale > 0
    generic = dataclasses.replace(triple, jump_profile=None)
    got = _values(space, generic, cfg, bundle)
    assert np.abs(got - base).max() <= 1e-12 * scale
    non_autonomous = dataclasses.replace(triple, linear_A=None, autonomous=False)
    got = _values(space, non_autonomous, cfg, bundle)
    assert np.abs(got - base).max() <= 1e-8 * scale


def test_stability_margin_examples():
    space = build_sine_space(4)
    rho, inside = stability_margin(1.0, TimeGrid(1.0, 100), space, gamma=0.5)
    assert rho == pytest.approx(1.0 - 30 * np.pi**2 / 100, rel=1e-12)
    assert rho == pytest.approx(-1.9609, abs=1e-3)
    assert not inside
    rho2, inside2 = stability_margin(1.0, TimeGrid(1.0, 1000), space, gamma=0.5)
    assert rho2 == pytest.approx(0.70391, abs=1e-4)
    assert inside2
    rho3, _ = stability_margin(1.0, TimeGrid(1.0, 10**7), space, gamma=0.5)
    assert rho3 == pytest.approx(1.0, abs=1e-4)


def test_energy_bound_dominates_quiet_run():
    space = build_sine_space(8)
    triple = _quiet_heat(space)
    zeta = smooth_profile(8)
    m = 512
    cfg = SchemeConfig(kind="explicit", n=8, m=m, l=2, initial=zeta)
    values = _values(space, triple, cfg, _bundle(16, m))
    bound = step_energy_bound(triple.constants, space, TimeGrid(1.0, m), 1.0)
    assert (np.linalg.norm(values, axis=1) ** 2 <= bound).all()


def test_solver_failure_advises_more_steps(monkeypatch):
    from spdesim import schemes

    # the chord and Newton steps solve this step in 17 iterations; one
    # iteration, a chord step that does not lower the residual, does not
    monkeypatch.setattr(schemes, "SOLVER_MAX_ITER", 1)
    space = build_sine_space(4)

    class StiffDrift:
        def __call__(self, t, x):
            # violently non-monotone: the step map loses contractivity
            return 1e6 * np.asarray(x, dtype=float) ** 3

    triple = dataclasses.replace(
        semilinear(space, MARKS), eval_A=StiffDrift(), linear_A=None
    )
    grid = TimeGrid(1.0, 2)
    x, report = solve_implicit_step(triple, grid, 1, np.full((1, 4), 3.0))
    assert not report.converged[0] and np.isnan(x).all()
    assert "increase" in report.reasons[0]


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(kind="unknown", n=2, m=4, l=1)
    with pytest.raises(ValueError):
        SchemeConfig(kind="explicit", n=0, m=4, l=1)


ATOMS = AtomMarks(positions=(0.25, 0.5, 1.0), weights=(1.0, 2.0, 0.5))


class RandomInitial:
    """Initial data drawn from the path's own generator."""

    def __call__(self, rng):
        return rng.normal(size=6)


def _block_cases():
    space = build_sine_space(6)
    base = heat_jump(space, MARKS)
    triples = {
        "factorized": (base, MARKS),
        "generic": (dataclasses.replace(base, jump_profile=None), MARKS),
        "non_autonomous": (
            dataclasses.replace(base, linear_A=None, autonomous=False), MARKS
        ),
        "transformed": (
            exponential_transform(heat_jump(space, MARKS, reaction=2.0), 4.5), MARKS
        ),
        "semilinear": (semilinear(space, MARKS, amplitude=5.0), MARKS),
        "additive": (additive_multimode(space, MARKS), MARKS),
        "atoms": (heat_jump(space, ATOMS), ATOMS),
    }
    for name, (triple, marks) in triples.items():
        for kind in ("explicit", "implicit", "implicit_projected"):
            yield pytest.param(space, triple, marks, kind, id=f"{name}-{kind}")


def _bundles(count, marks=MARKS, seed=100):
    return sample_bundles(range(seed, seed + count), TimeGrid(1.0, 64), 3, marks, 3)


def _config(kind):
    n = 6 if kind == "implicit" else 4
    return SchemeConfig(kind=kind, n=n, m=32, l=3, initial=RandomInitial())


@pytest.mark.parametrize("space, triple, marks, kind", _block_cases())
def test_block_of_one_equals_run_scheme_bitwise(space, triple, marks, kind):
    # a block of one as a ladder (nothing kept) and as `monte_carlo`
    # (energies kept) runs it equals the one-path run of `simulate` (states
    # kept) bit for bit, and the kept energies are those of the kept states;
    # only the run that keeps the states records solver residuals, the
    # others hold an empty (0, 1) placeholder
    cfg = _config(kind)
    steps = 0 if kind == "explicit" else cfg.m
    for bundle in _bundles(2, marks):
        path = _path(space, triple, cfg, bundle)
        states = path.kept[:, 0]
        assert path.final[0].tobytes() == states[-1].tobytes()
        assert path.solver_residuals.shape == (steps, 1)
        energies = np.einsum("ij,ij->i", states, states)
        for keep in (None, ENERGIES):
            run = run_block(space, triple, cfg, read_block([bundle]), keep=keep)
            assert run.final.tobytes() == path.final.tobytes()
            assert run.blow_up_steps == path.blow_up_steps == [None]
            assert run.failures == path.failures == [None]
            got, want = run.solver_iterations, path.solver_iterations
            assert got.tobytes() == want.tobytes()
            assert run.solver_residuals.shape == (0, 1)
        assert run.kept[:, 0].tobytes() == energies.tobytes()
        again = _path(space, triple, cfg, bundle)
        assert again.solver_residuals.tobytes() == path.solver_residuals.tobytes()


def test_unread_residuals_are_not_computed(monkeypatch):
    # the direct path computes ‖(I − δA)x − y‖ only for a block that keeps
    # the states, the one case whose caller (`simulate`) reads it
    from spdesim import schemes

    calls = []
    row_norms = schemes._row_norms

    def counting(x):
        calls.append(x.shape)
        return row_norms(x)

    monkeypatch.setattr(schemes, "_row_norms", counting)
    space = build_sine_space(6)
    triple = heat_jump(space, MARKS)
    cfg = _config("implicit_projected")
    bundles = _bundles(3)
    for keep in (None, ENERGIES):
        run = run_block(space, triple, cfg, read_block(bundles), keep=keep)
        assert calls == []
        assert run.solver_residuals.shape == (0, 3)
    run = run_block(space, triple, cfg, read_block(bundles), keep=STATES)
    assert len(calls) == cfg.m
    assert run.solver_residuals.shape == (cfg.m, 3)
    # step i solved (I − δA)x = y for the knot i state x, so (I − δA)x is
    # its right-hand side y up to the residual itself
    grid = TimeGrid(1.0, cfg.m)
    mat = np.eye(cfg.n) - grid.delta * triple.linear_A[: cfg.n, : cfg.n]
    y_norm = np.linalg.norm(run.kept[1:] @ mat.T, axis=-1)
    assert (run.solver_residuals <= SOLVER_TOL * (1.0 + y_norm)).all()


@pytest.mark.parametrize("kind", ["explicit", "implicit_projected"])
def test_a_block_keeps_only_what_it_is_asked_for(kind):
    space = build_sine_space(6)
    cfg = _config(kind)
    bundles = _bundles(3)
    shapes = {None: None, ENERGIES: (cfg.m + 1, 3), STATES: (cfg.m + 1, 3, cfg.n)}
    for keep, shape in shapes.items():
        run = run_block(space, heat_jump(space, MARKS), cfg, read_block(bundles), keep=keep)
        assert (run.kept is None) if shape is None else (run.kept.shape == shape)
    with pytest.raises(ValueError, match="keep"):
        run_block(space, heat_jump(space, MARKS), cfg, read_block(bundles), keep="final")


@pytest.mark.parametrize("space, triple, marks, kind", _block_cases())
def test_block_rows_match_one_path_runs(space, triple, marks, kind):
    # batched arithmetic moves the last bits, nothing more; where the step
    # equation is solved iteratively, a moved bit may cost or save one
    # iteration, so rows agree to the solver tolerance summed over the steps
    cfg = _config(kind)
    iterative = kind != "explicit" and (triple.linear_A is None or not triple.autonomous)
    rtol = cfg.m * SOLVER_TOL if iterative else 1e-12
    bundles = _bundles(5, marks)
    run = run_block(space, triple, cfg, read_block(bundles), keep=ENERGIES)
    assert run.final.shape == (5, cfg.n)
    assert run.kept.shape == (cfg.m + 1, 5)
    for p, bundle in enumerate(bundles):
        alone = run_block(space, triple, cfg, read_block([bundle]), keep=ENERGIES)
        scale = np.abs(alone.final).max()
        assert np.abs(run.final[p] - alone.final[0]).max() <= rtol * scale
        energies = alone.kept[:, 0]
        assert np.abs(run.kept[:, p] - energies).max() <= rtol * energies.max()


def test_explicit_blowup_leaves_the_other_paths_unchanged():
    space = build_sine_space(8)
    triple = heat_jump(space, MARKS)
    cfg = SchemeConfig(kind="explicit", n=8, m=64, l=2, initial=smooth_profile(8))
    calm = _bundles(5)
    loud = list(calm)
    # one path's Wiener increments overflow the noise term
    loud[2] = dataclasses.replace(calm[2], wiener=calm[2].wiener * 1e305)
    want = run_block(space, triple, cfg, read_block(calm), keep=ENERGIES)
    got = run_block(space, triple, cfg, read_block(loud), keep=ENERGIES)
    assert want.blow_up_steps == [None] * 5
    step = got.blow_up_steps[2]
    assert step is not None
    assert got.blow_up_steps == [None, None, step, None, None]
    assert np.isnan(got.final[2]).all() and np.isnan(got.kept[step:, 2]).all()
    assert not np.isnan(got.kept[:step, 2]).any()
    others = [0, 1, 3, 4]
    assert got.final[others].tobytes() == want.final[others].tobytes()
    assert got.kept[:, others].tobytes() == want.kept[:, others].tobytes()
    assert _path(space, triple, cfg, loud[2]).blow_up_steps == [step]


@pytest.mark.parametrize("keep", [None, STATES])
def test_a_lost_row_leaves_the_scalar_knot_test_on(keep, monkeypatch):
    # after a row is lost, the total over the live rows still clears the
    # later chunks, so the energies are taken row by row only in the chunk
    # with the loss, in one pass over its knots
    from spdesim import schemes

    space = build_sine_space(8)
    triple = heat_jump(space, MARKS)
    cfg = SchemeConfig(kind="explicit", n=8, m=64, l=2, initial=smooth_profile(8))
    loud = _bundles(5)
    loud[2] = dataclasses.replace(loud[2], wiener=loud[2].wiener * 1e305)
    want = run_block(space, triple, cfg, read_block(loud), keep=keep)
    einsum = np.einsum
    rows = []

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "pj,pj->p":
            rows.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    got = run_block(space, triple, cfg, read_block(loud), keep=keep)
    monkeypatch.undo()
    step = got.blow_up_steps[2]
    assert step is not None
    # the explicit chunks hold knots 2..33 and 34..64
    chunk = schemes.KNOT_CHUNK
    lo = 2 + (step - 2) // chunk * chunk
    assert rows == [5 * min(chunk, cfg.m + 1 - lo)]
    assert _run_bits(got) == _run_bits(want)


def _lose_at(bundle, m, knot, scale):
    """`bundle` with the increments of step `knot` of an m-step grid
    scaled: 1e305 overflows a state's energy there, inf a coordinate."""
    factor = bundle.m // m
    wiener = bundle.wiener.copy()
    wiener[:, (knot - 1) * factor : knot * factor] *= scale
    return dataclasses.replace(bundle, wiener=wiener)


# (path, knot, scale) of each loss: on, just before and just after an edge
# of the chunks of 3 knots and of KNOT_CHUNK = 32 knots; path 5 is lost at
# knot 31 and would be lost again at knot 32, in the same chunk
CHUNK_LOSSES = {
    "explicit": [(0, 4, 1e305), (1, 5, np.inf), (2, 32, 1e305), (3, 33, np.inf),
                 (4, 34, 1e305), (5, 31, np.inf), (5, 32, 1e305)],
    "implicit_projected": [(0, 3, 1e305), (1, 4, np.inf), (2, 31, np.inf),
                           (3, 32, 1e305), (4, 33, np.inf), (5, 30, 1e305),
                           (5, 31, np.inf)],
}


def _loss_triple(space, kind):
    """heat_jump, or for kind "semilinear" a drift solved iteratively with
    heat_jump's multiplicative noise."""
    triple = heat_jump(space, MARKS)
    if kind == "semilinear":
        triple = dataclasses.replace(
            semilinear(space, MARKS), eval_B=triple.eval_B, wiener_modes=1
        )
    return triple


def _chunk_case(kind):
    """A block of 8 paths, 6 of them lost at the knots of CHUNK_LOSSES."""
    space = build_sine_space(6)
    triple = _loss_triple(space, kind)
    losses = CHUNK_LOSSES["implicit_projected" if kind == "semilinear" else kind]
    kind = "implicit_projected" if kind == "semilinear" else kind
    cfg = SchemeConfig(kind=kind, n=6, m=64, l=2, initial=smooth_profile(6))
    bundles = [_bundle(seed, 128) for seed in range(40, 48)]
    for path, knot, scale in losses:
        bundles[path] = _lose_at(bundles[path], cfg.m, knot, scale)
    return space, triple, cfg, bundles, losses


@pytest.mark.parametrize("keep", [None, ENERGIES, STATES])
@pytest.mark.parametrize("kind", ["explicit", "implicit_projected", "semilinear"])
def test_knot_chunks_change_no_bit(kind, keep, monkeypatch):
    # a block tests KNOT_CHUNK knots at once and scans them one by one only
    # when a row is lost there, so the chunk length moves no bit of any
    # field, NaNs of lost rows and solver residuals included
    from spdesim import schemes

    space, triple, cfg, bundles, losses = _chunk_case(kind)
    runs = []
    for chunk in (1, 3, schemes.KNOT_CHUNK):
        monkeypatch.setattr(schemes, "KNOT_CHUNK", chunk)
        runs.append(_run_bits(run_block(space, triple, cfg, read_block(bundles), keep=keep)))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    # each path is lost at its first scaled knot: an explicit row always
    # blows up, an implicit one fails where a coordinate is not finite
    # and its solver residual is the one computed at that step (inf or a
    # number where it blew up), NaN after it
    _, _, blow_up_steps, failures, _, _ = runs[0]
    residuals = run_block(space, triple, cfg, read_block(bundles), keep=keep).solver_residuals
    for path in range(6):
        knot, scale = min((k, s) for p, k, s in losses if p == path)
        if kind == "explicit" or scale != np.inf:
            assert blow_up_steps[path] == knot and failures[path] is None
            if keep == STATES and kind != "explicit":
                assert not np.isnan(residuals[knot - 1, path])
        else:
            assert blow_up_steps[path] is None
            assert failures[path].startswith(f"step {knot}: ")
        if keep == STATES and kind != "explicit":
            assert np.isnan(residuals[knot:, path]).all()
    assert blow_up_steps[6:] == failures[6:] == [None, None]


@st.composite
def _loss_cases(draw):
    """A kind, a block of 1 to 5 paths with up to 2·paths losses at distinct
    (path, knot), knots 2..32 of a 32-step grid (the noise enters at knot
    2), KNOT_CHUNK and keep."""
    kind = draw(st.sampled_from(["explicit", "implicit_projected", "semilinear"]))
    paths = draw(st.integers(1, 5))
    loss = st.tuples(st.integers(0, paths - 1), st.integers(2, 32),
                     st.sampled_from([np.inf, 1e305]))
    losses = draw(st.lists(loss, max_size=2 * paths, unique_by=lambda t: t[:2]))
    chunk = draw(st.integers(1, 34))
    keep = draw(st.sampled_from([None, ENERGIES, STATES]))
    return kind, paths, losses, chunk, keep


def _rows_agree(got, want, rtol):
    """NaN at the same places and the finite values within rtol of the
    largest of `want`."""
    lost = np.isnan(want)
    assert (np.isnan(got) == lost).all()
    scale = np.abs(want[~lost]).max(initial=0.0)
    assert np.abs(got[~lost] - want[~lost]).max(initial=0.0) <= rtol * scale


@settings(max_examples=200, deadline=None)
@given(case=_loss_cases())
def test_each_row_of_a_block_is_lost_as_it_is_alone(case):
    # the loss rule: a row is lost at its first scaled knot, an explicit row
    # and a row with a finite overflowing state by blowing up, an implicit
    # row with a coordinate that is not finite by failing, and it is NaN from
    # there while the other rows go on; so each row is lost where it is lost
    # as a block of one, and its values differ from that run only in the
    # last bits that `run_block` allows a block (a moved bit may cost the
    # iterative solver one iteration, so there the bound is its tolerance
    # summed over the steps)
    from spdesim import schemes

    kind, paths, losses, chunk, keep = case
    space = build_sine_space(4)
    triple = _loss_triple(space, kind)
    kind = "implicit_projected" if kind == "semilinear" else kind
    cfg = SchemeConfig(kind=kind, n=4, m=32, l=2, initial=smooth_profile(4))
    rtol = cfg.m * SOLVER_TOL if triple.linear_A is None else 1e-12
    bundles = sample_bundles(range(40, 40 + paths), TimeGrid(1.0, 64), 1, MARKS, 2)
    for path, knot, scale in losses:
        bundles[path] = _lose_at(bundles[path], cfg.m, knot, scale)
    default = schemes.KNOT_CHUNK
    schemes.KNOT_CHUNK = chunk
    try:
        run = run_block(space, triple, cfg, read_block(bundles), keep=keep)
        alone = [run_block(space, triple, cfg, read_block([b]), keep=keep) for b in bundles]
    finally:
        schemes.KNOT_CHUNK = default
    for path, one in enumerate(alone):
        assert run.blow_up_steps[path] == one.blow_up_steps[0]
        assert run.failures[path] == one.failures[0]
        lost = [(k, s) for p, k, s in losses if p == path]
        if not lost:
            assert run.blow_up_steps[path] is None and run.failures[path] is None
        else:
            knot, scale = min(lost)
            if kind == "explicit" or scale != np.inf:
                assert run.blow_up_steps[path] == knot and run.failures[path] is None
            else:
                assert run.blow_up_steps[path] is None
                assert run.failures[path].startswith(f"step {knot}: ")
        _rows_agree(run.final[path], one.final[0], rtol)
        if keep is not None:
            _rows_agree(run.kept[:, path], one.kept[:, 0], rtol)


def _declared_affine_triples(space):
    return {
        "heat_jump": heat_jump(space, MARKS),
        "reaction": heat_jump(space, MARKS, reaction=5.0),
        "additive": additive_multimode(space, MARKS),
        "zero": zero_triple(space, MARKS),
    }


@pytest.mark.parametrize("name", ["heat_jump", "reaction", "additive", "zero"])
def test_declared_linear_A_is_the_matrix_of_eval_A(name):
    # the explicit scheme steps a declared affine drift with linear_A in
    # place of eval_A, so every shipped fixture that declares one must
    # evaluate to x @ linear_A[:n, :n].T exactly
    space = build_sine_space(8)
    triple = _declared_affine_triples(space)[name]
    assert triple.autonomous and triple.linear_A.shape == (8, 8)
    rng = np.random.default_rng(6)
    for n in (1, 3, 8):
        x = rng.uniform(-5.0, 5.0, (7, n))
        want = x @ triple.linear_A[:n, :n].T
        for t in (0.0, 0.3, 1.0):
            got = np.asarray(triple.eval_A(t, x), dtype=float)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["heat_jump", "reaction", "additive"])
def test_explicit_product_matches_the_evaluated_drift(name):
    # x @ (I + δA).T and x + δ·eval_A(x) differ in the last bits only
    space = build_sine_space(6)
    triple = _declared_affine_triples(space)[name]
    evaluated = dataclasses.replace(triple, linear_A=None)
    cfg = _config("explicit")
    bundles = _bundles(5)
    want = run_block(space, evaluated, cfg, read_block(bundles), keep=ENERGIES)
    got = run_block(space, triple, cfg, read_block(bundles), keep=ENERGIES)
    assert got.blow_up_steps == want.blow_up_steps == [None] * 5
    scale = np.abs(want.final).max()
    assert np.abs(got.final - want.final).max() <= 1e-12 * scale
    energies = want.kept
    assert np.abs(got.kept - energies).max() <= 1e-12 * energies.max()
    # the overflow of `test_explicit_blowup_leaves_the_other_paths_unchanged`
    # is lost at the same knot either way
    space = build_sine_space(8)
    triple = _declared_affine_triples(space)[name]
    evaluated = dataclasses.replace(triple, linear_A=None)
    cfg = SchemeConfig(kind="explicit", n=8, m=64, l=2, initial=smooth_profile(8))
    loud = _bundles(5)
    loud[2] = dataclasses.replace(loud[2], wiener=loud[2].wiener * 1e305)
    want = run_block(space, evaluated, cfg, read_block(loud))
    got = run_block(space, triple, cfg, read_block(loud))
    assert got.blow_up_steps == want.blow_up_steps
    assert got.blow_up_steps[2] is not None


@pytest.mark.parametrize("kind", ["explicit", "implicit_projected"])
def test_an_overflowing_block_total_loses_only_rows_that_overflow(kind):
    # a block that keeps no energies tests each knot with its total energy
    # first; when that overflows, the rows are tested one by one
    space = build_sine_space(2)
    triple = zero_triple(space, MARKS)
    bundles = _bundles(3)
    knot = 1 if kind == "explicit" else 0
    for coord, lost in ((7e153, None), (2e154, knot)):
        # each row's energy 2·coord² is finite for 7e153, the total of three
        # rows is not; for 2e154 every row's energy overflows
        initial = np.array([coord, coord])
        cfg = SchemeConfig(kind=kind, n=2, m=8, l=1, initial=initial)
        for keep in (None, ENERGIES, STATES):
            run = run_block(space, triple, cfg, read_block(bundles), keep=keep)
            assert run.blow_up_steps == [lost] * 3
            assert run.failures == [None] * 3
            if lost is None:
                assert run.final.tobytes() == np.tile(initial, (3, 1)).tobytes()
            else:
                assert np.isnan(run.final).all()


class QuietOrLoud:
    """Initial data of order one on some paths and of order 1e-13 on the rest."""

    def __call__(self, rng):
        return smooth_profile(4) * (1.0 if rng.random() < 0.3 else 1e-13)


def test_solver_failure_leaves_the_other_paths_unchanged(monkeypatch):
    # one chord step solves the step equation only for states so small
    # that the residual starts below the tolerance; an order-one state fails
    from spdesim import schemes

    monkeypatch.setattr(schemes, "SOLVER_MAX_ITER", 1)
    space = build_sine_space(4)
    triple = semilinear(space, MARKS)
    initial = QuietOrLoud()
    cfg = SchemeConfig(kind="implicit_projected", n=4, m=8, l=1, initial=initial)

    def loud(seed):
        return initial(make_generator(derive_key(seed, TAG_INITIAL)))[0] > 1e-6

    seeds = range(200, 260)
    quiet = [s for s in seeds if not loud(s)][:5]
    noisy = next(s for s in seeds if loud(s))
    grid = TimeGrid(1.0, 8)
    calm = sample_bundles(quiet, grid, 0, MARKS, 1)
    mixed = calm[:2] + sample_bundles([noisy], grid, 0, MARKS, 1) + calm[3:]
    want = run_block(space, triple, cfg, read_block(calm), keep=ENERGIES)
    got = run_block(space, triple, cfg, read_block(mixed), keep=ENERGIES)
    assert want.failures == [None] * 5
    assert got.failures[2].startswith("step 1: implicit step did not converge")
    assert [f is None for f in got.failures] == [True, True, False, True, True]
    assert got.blow_up_steps == [None] * 5
    assert np.isnan(got.final[2]).all() and np.isnan(got.kept[1:, 2]).all()
    others = [0, 1, 3, 4]
    assert got.final[others].tobytes() == want.final[others].tobytes()
    assert got.kept[:, others].tobytes() == want.kept[:, others].tobytes()
    assert (got.solver_iterations[:, others] == want.solver_iterations[:, others]).all()
    alone = _path(space, triple, cfg, mixed[2])
    assert alone.failures == [got.failures[2]]


class FiniteOrHuge:
    """Initial data of order one on most paths and of order 1e160 on the
    rest: each coordinate is finite, the squared H-norm overflows."""

    def __call__(self, rng):
        return smooth_profile(4) * (1e160 if rng.random() < 0.3 else 1.0)


def test_overflowing_energy_is_a_blow_up_not_a_failure():
    # an implicit row whose state stays finite but whose squared H-norm
    # overflows is lost like an explicit one: a blow-up at that knot
    space = build_sine_space(4)
    triple = semilinear(space, MARKS)
    initial = FiniteOrHuge()
    cfg = SchemeConfig(kind="implicit", n=4, m=8, l=1, initial=initial)

    def huge(seed):
        return initial(make_generator(derive_key(seed, TAG_INITIAL)))[0] > 1.0

    seeds = range(300, 360)
    grid = TimeGrid(1.0, 8)
    calm = sample_bundles([s for s in seeds if not huge(s)][:5], grid, 0, MARKS, 1)
    loud = sample_bundles([next(s for s in seeds if huge(s))], grid, 0, MARKS, 1)[0]
    mixed = calm[:2] + [loud] + calm[3:]
    want = run_block(space, triple, cfg, read_block(calm), keep=ENERGIES)
    got = run_block(space, triple, cfg, read_block(mixed), keep=ENERGIES)
    assert got.blow_up_steps == [None, None, 0, None, None]
    assert got.failures == want.failures == [None] * 5
    assert np.isnan(got.final[2]).all() and np.isnan(got.kept[:, 2]).all()
    others = [0, 1, 3, 4]
    assert got.final[others].tobytes() == want.final[others].tobytes()
    assert got.kept[:, others].tobytes() == want.kept[:, others].tobytes()
    for name in ("solver_iterations", "solver_residuals"):
        got_rows, want_rows = getattr(got, name), getattr(want, name)
        assert got_rows[:, others].tobytes() == want_rows[:, others].tobytes()


def test_block_rejects_mismatched_bundles():
    # `read_block` checks the block once, `run_block` each configuration
    # against the block
    space = build_sine_space(4)
    cfg = SchemeConfig(kind="explicit", n=4, m=8, l=1)
    triple = heat_jump(space, MARKS)
    with pytest.raises(ValueError, match="at least one bundle"):
        read_block([])
    with pytest.raises(ValueError, match="share"):
        read_block([_bundle(1, 8), _bundle(2, 16)])
    # heat_jump reads one mode, which both bundles carry, but their
    # increments cannot be stacked into one array
    with pytest.raises(ValueError, match="must share .*Wiener modes"):
        read_block([_bundle(1, 8), _bundle(2, 8, modes=2)])
    # three Wiener modes at l = 3 from bundles that carry one
    cfg = SchemeConfig(kind="explicit", n=4, m=8, l=3)
    block = read_block([_bundle(1, 8, level=3)])
    with pytest.raises(ValueError, match="has 1 modes, need 3"):
        run_block(space, additive_multimode(space, MARKS), cfg, block)
    # a grid that does not divide the block's, a level beyond the lowest of
    # the block's bundles
    cfg = SchemeConfig(kind="explicit", n=4, m=3, l=1)
    with pytest.raises(ValueError, match="bundle grid 8 not divisible by m = 3"):
        run_block(space, triple, cfg, read_block([_bundle(1, 8)]))
    cfg = SchemeConfig(kind="explicit", n=4, m=8, l=3)
    block = read_block([_bundle(1, 8, level=3), _bundle(2, 8, level=2)])
    with pytest.raises(ValueError, match="bundle level 2 < requested l = 3"):
        run_block(space, triple, cfg, block)


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("kind", ["explicit", "implicit_projected"])
def test_noise_chunks_do_not_change_a_block(monkeypatch, kind, generic):
    # the noise of a block is built KNOT_CHUNK steps at a time
    from spdesim import schemes

    space = build_sine_space(6)
    triple = heat_jump(space, MARKS)
    if generic:
        triple = dataclasses.replace(triple, jump_profile=None)
    cfg = _config(kind)
    bundles = _bundles(3)
    whole = run_block(space, triple, cfg, read_block(bundles), keep=ENERGIES)
    monkeypatch.setattr(schemes, "KNOT_CHUNK", 5)
    chunked = run_block(space, triple, cfg, read_block(bundles), keep=ENERGIES)
    assert chunked.final.tobytes() == whole.final.tobytes()
    assert chunked.kept.tobytes() == whole.kept.tobytes()


def _hand_bundle(grid, knots, marks, m=64, seed=None):
    """A bundle of an m-step grid with one Wiener mode (zero unless a
    seed is given) and jumps on the knots of `grid`."""
    wiener = np.zeros((1, m))
    if seed is not None:
        wiener = np.random.default_rng(seed).normal(0.0, m**-0.5, (1, m))
    return NoiseBundle(
        T=grid.T,
        m=m,
        l_modes=1,
        l_level=3,
        master_seed=0,
        wiener=wiener,
        jump_times=grid.knots[list(knots)],
        jump_marks=np.array(marks, dtype=float),
        marks=MARKS,
    )


@pytest.mark.parametrize("start", [1, 2])
def test_noise_rows_match_the_per_step_reference(start):
    # one event list serves both jump forms, across chunks of 5 steps (20
    # steps of the bundles' grid), for marks outside E^2, a bundle without
    # jumps and jumps placed on knots.  The references are taken per bundle
    # and per step: the jumps with times in (t_{i-1}, t_i], binned by cell,
    # and the sum of the 4 fine Wiener increments of the step.  A one-mode
    # increment and a factorized jump scalar fill every column of their
    # (k, paths, n) planes
    from spdesim.averaging import cell_weight_means
    from spdesim.noise import build_partition

    grid = TimeGrid(1.0, 16)
    part = build_partition(MARKS, 2)
    n, chunk = 3, 5
    # t_1, both sides of the chunk edges of either start, a mark outside
    # E^2 (0.03) and t_16 = T
    knots = [1, 5, 5, 6, 10, 11, 11, 16]
    marks = [0.5, 0.1, 1.0, 0.3, 0.7, 0.2, 0.03, 1.0]
    on_knots = _hand_bundle(grid, knots, marks, seed=8)
    sampled = [_bundle(seed, 64, level=3) for seed in (7, 8)]
    assert any((part.locate(b.jump_marks) < 0).any() for b in sampled)
    bundles = sampled + [_hand_bundle(grid, [], [], seed=0), on_knots]
    ratio, wmass = cell_weight_means(part)

    def per_step(factorized):
        noise = read_block(bundles).knot_chunks(grid.m, part.level, 1, factorized, n, chunk)
        for lo in range(start, grid.m + 1, chunk):
            dw, jump = noise(lo, min(chunk, grid.m + 1 - lo))
            # the planes are overwritten by the next call
            yield from zip(dw.copy(), jump.copy())

    general = list(per_step(False))
    factorized = list(per_step(True))
    assert len(general) == len(factorized) == grid.m - start + 1
    knot_counts = []
    steps = enumerate(zip(general, factorized), start=start)
    for i, ((dw, rows), (dw_factorized, scalars)) in steps:
        assert dw.shape == (len(bundles), n)
        assert dw_factorized.tobytes() == dw.tobytes()
        assert scalars.shape == (len(bundles), n)
        for p, bundle in enumerate(bundles):
            window = grid.knots[i - 1 : i + 1]
            a, b = np.searchsorted(bundle.jump_times, window, side="right")
            cells = part.locate(bundle.jump_marks[a:b])
            want = np.bincount(cells[cells >= 0], minlength=part.size)
            want = want - grid.delta * part.nu
            assert rows[p].tobytes() == want.tobytes()
            factor = bundle.m // grid.m
            want = bundle.wiener[0, (i - 1) * factor : i * factor].sum()
            assert dw[p].tobytes() == np.repeat(want, n).tobytes()
            assert scalars[p].tobytes() == np.repeat(scalars[p, 0], n).tobytes()
        counts = np.rint(rows + grid.delta * part.nu)
        want = counts @ ratio - grid.delta * wmass.sum()
        np.testing.assert_allclose(scalars[:, 0], want, rtol=0.0, atol=1e-12)
        knot_counts.append(counts[3].sum())
    expected = {1: 1, 5: 2, 6: 1, 10: 1, 11: 1, 16: 1}
    assert knot_counts == [expected.get(i, 0) for i in range(start, grid.m + 1)]
    # a chunk without any jump in the block holds only the compensators
    quiet = [_hand_bundle(grid, [], [])]
    compensators = {True: -grid.delta * wmass.sum(), False: -grid.delta * part.nu}
    for factorized, want in compensators.items():
        noise = read_block(quiet).knot_chunks(grid.m, part.level, 1, factorized, n, chunk)
        dw, jump = noise(start, chunk)
        assert not dw.any()
        assert jump.tobytes() == np.broadcast_to(want, jump.shape).tobytes()


@pytest.mark.parametrize("name", ["heat_jump", "general", "additive"])
def test_sampled_rows_and_replayed_bundles_step_alike(name):
    # bundles that are the rows of one `sample_bundles` array are read
    # through a view of it, separate arrays (replays) through one stack;
    # both give every field of a block the same bits, on a rung coarser
    # than the bundles and whatever is kept
    from spdesim.noise import bundle_from_json, bundle_to_json

    space = build_sine_space(6)
    triple = heat_jump(space, MARKS)
    if name == "general":
        triple = dataclasses.replace(triple, jump_profile=None)
    elif name == "additive":
        triple = additive_multimode(space, MARKS)
    sampled = sample_bundles(range(300, 310), TimeGrid(1.0, 128), 3, MARKS, 3)
    replayed = [bundle_from_json(bundle_to_json(bundle)) for bundle in sampled]
    fine = read_block(sampled).fine_wiener
    assert fine is sampled[0].wiener.base
    stacked = read_block(replayed).fine_wiener
    assert not np.shares_memory(stacked, fine)
    assert stacked.tobytes() == fine.tobytes()
    # a reordered or partial list of the rows is stacked too
    for order in (sampled[::-1], sampled[2:5]):
        got = read_block(order).fine_wiener
        assert not np.shares_memory(got, fine)
        assert got.tobytes() == np.stack([b.wiener for b in order]).tobytes()
    for kind in ("explicit", "implicit_projected"):
        cfg = SchemeConfig(kind=kind, n=6, m=32, l=3, initial=smooth_profile(6))
        for keep in (None, ENERGIES, STATES):
            want = _run_bits(run_block(space, triple, cfg, read_block(replayed), keep=keep))
            assert _run_bits(run_block(space, triple, cfg, read_block(sampled), keep=keep)) == want


@pytest.mark.parametrize("direct", [True, False])
def test_block_solve_marks_rows_without_a_finite_solution(direct):
    space = build_sine_space(4)
    triple = _quiet_heat(space)
    if not direct:
        triple = dataclasses.replace(triple, linear_A=None)
    grid = TimeGrid(1.0, 16)
    rows = np.random.default_rng(3).uniform(-2.0, 2.0, (3, 4))
    rows[1, 2] = np.nan
    x, report = solve_implicit_step(triple, grid, 2, rows)
    assert report.converged.tolist() == [True, False, True]
    assert report.reasons[1].startswith("implicit step has no finite solution")
    assert np.isnan(x[1]).all()
    for p in (0, 2):
        alone, _ = solve_implicit_step(triple, grid, 2, rows[p : p + 1])
        np.testing.assert_allclose(x[p], alone[0], rtol=1e-14, atol=1e-15)
    _, alone = solve_implicit_step(triple, grid, 2, rows[1:2])
    assert alone.reasons[0].startswith("implicit step has no finite solution")


def _solve_triple(direct):
    """heat_jump at n = 4, solved directly or, without `linear_A`, by the
    iterative solver."""
    triple = heat_jump(build_sine_space(4), MARKS)
    return triple if direct else dataclasses.replace(triple, linear_A=None)


@pytest.mark.parametrize("direct", [True, False])
def test_solve_reports_an_infinite_row_without_a_warning(direct):
    # inf − inf in the residual and inf·0 in the products are NaN, which
    # numpy warns of unless the solve ignores it, as `run_block` does
    triple, grid = _solve_triple(direct), TimeGrid(1.0, 16)
    rows = np.array([[0.5, -1.0, 0.25, 2.0], [1.0, np.inf, 0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, report = solve_implicit_step(triple, grid, 2, rows)
        alone, _ = solve_implicit_step(triple, grid, 2, rows[:1])
    assert report.converged.tolist() == [True, False]
    assert report.reasons[1] == NO_FINITE_SOLUTION
    assert np.isnan(x[1]).all()
    assert x[0].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("direct", [True, False])
def test_solve_rejects_a_y_that_is_not_a_block(direct):
    with pytest.raises(ValueError, match=r"y must be \(P, n\) .*not \(4,\)"):
        solve_implicit_step(_solve_triple(direct), TimeGrid(1.0, 16), 1, np.ones(4))


@pytest.mark.parametrize("direct", [True, False])
def test_solve_rejects_more_coordinates_than_the_triple(direct):
    with pytest.raises(ValueError, match=r"y must be .*n <= 4, not \(2, 5\)"):
        solve_implicit_step(_solve_triple(direct), TimeGrid(1.0, 16), 1, np.ones((2, 5)))


@pytest.mark.parametrize("direct", [True, False])
@pytest.mark.parametrize("i", [0, 17])
def test_solve_rejects_a_step_outside_the_grid(direct, i):
    # step 0 is no step of a scheme, and the two solvers disagreed there:
    # the direct one solved with I − δA, the iterative one returned y
    with pytest.raises(ValueError, match=f"step index i = {i} outside 1..16"):
        solve_implicit_step(_solve_triple(direct), TimeGrid(1.0, 16), i, np.ones((2, 4)))


class StallFrom:
    """A drift with δ·A(t, x) = x exactly, for δ = 1/16, at times after
    `start` on rows whose first coordinate is positive, and zero elsewhere.

    Where δ·A(x) = x the step residual x − δ·A(x) − y is −y whatever x: no
    chord step lowers it, and Newton's finite-difference Jacobian
    I − δ·A'(x) is zero up to rounding.  It is exactly zero when every
    coordinate of the state plus its difference step is exact, as for
    (2^-33, 0, 0, 0), so the linearization is singular; for (1, 1.5, 0.75,
    0.3) rounding leaves it regular and tiny, and no Newton step reduces
    the residual.
    """

    def __init__(self, start):
        self.start = start

    def __call__(self, t, x):
        stall = (x[..., :1] > 0.0) & (t > self.start)
        return np.where(stall, 16.0 * x, 0.0)


SOLVER_FAILURES = {
    "singular": (
        [2.0**-33, 0.0, 0.0, 0.0],
        "implicit step linearization is singular; increase m",
    ),
    "no descent": (
        [1.0, 1.5, 0.75, 0.3],
        "implicit step iteration cannot reduce the residual; increase m",
    ),
}
SOLVABLE = [-1.0, 0.5, 0.25, 0.125]


@pytest.mark.parametrize("name", sorted(SOLVER_FAILURES))
def test_solver_failures_mark_only_their_row(name):
    stalling, reason = SOLVER_FAILURES[name]
    space = build_sine_space(4)
    triple = dataclasses.replace(_quiet_heat(space), eval_A=StallFrom(0.0), linear_A=None)
    grid = TimeGrid(1.0, 16)
    rows = np.array([SOLVABLE, stalling, SOLVABLE])
    x, report = solve_implicit_step(triple, grid, 3, rows)
    assert report.converged.tolist() == [True, False, True]
    assert report.reasons == [None, reason, None]
    assert np.isnan(x[1]).all()
    assert x[[0, 2]].tobytes() == rows[[0, 2]].tobytes()


class TwoStates:
    """Initial data `stalling` on about half of the paths, SOLVABLE on the
    rest."""

    def __init__(self, stalling):
        self.stalling = stalling

    def __call__(self, rng):
        return np.array(self.stalling if rng.random() < 0.5 else SOLVABLE)


@pytest.mark.parametrize("name", sorted(SOLVER_FAILURES))
def test_a_block_records_the_solver_failure_at_its_step(name):
    # the drift stalls the solver from step 5 on (its window's midpoint
    # passes t = 1/4), where the block loses the stalling rows as failures
    # with the solver's reason, not as blow-ups
    from spdesim.schemes import SOLVER_MAX_ITER

    stalling, reason = SOLVER_FAILURES[name]
    space = build_sine_space(4)
    triple = dataclasses.replace(_quiet_heat(space), eval_A=StallFrom(0.25), linear_A=None)
    initial = TwoStates(stalling)
    cfg = SchemeConfig(kind="implicit_projected", n=4, m=16, l=1, initial=initial)
    seeds = range(500, 506)
    bundles = sample_bundles(seeds, TimeGrid(1.0, 16), 1, MARKS, 1)
    stalls = [initial(make_generator(derive_key(s, TAG_INITIAL)))[0] > 0 for s in seeds]
    assert any(stalls) and not all(stalls)
    run = run_block(space, triple, cfg, read_block(bundles), keep=STATES)
    assert run.blow_up_steps == [None] * 6
    for p, stall in enumerate(stalls):
        states = run.kept[:, p]
        if stall:
            assert run.failures[p] == f"step 5: {reason}"
            assert not np.isnan(states[:5]).any() and np.isnan(states[5:]).all()
            assert (run.solver_iterations[5:, p] == SOLVER_MAX_ITER).all()
        else:
            assert run.failures[p] is None
            assert states.tobytes() == np.tile(SOLVABLE, (17, 1)).tobytes()


# the mark of the hand-placed jump at knot t_j of a 16-step grid
KNOT_JUMP_MARKS = {2: 0.25, 5: 1.0, 11: 0.5, 16: 1.0}


def _knot_jump_bundle(knots):
    """A 64-step bundle without Wiener noise whose jumps sit exactly on the
    knots t_j of a 16-step grid, j in `knots` (t_16 = T)."""
    return NoiseBundle(
        T=1.0,
        m=64,
        l_modes=1,
        l_level=3,
        master_seed=5,
        wiener=np.zeros((1, 64)),
        jump_times=TimeGrid(1.0, 16).knots[list(knots)],
        jump_marks=np.array([KNOT_JUMP_MARKS[j] for j in knots], dtype=float),
        marks=ATOMS,
    )


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("kind", ["explicit", "implicit"])
def test_jumps_on_knots(kind, m):
    # sampled jump times never land on a knot, so these are placed by hand;
    # a jump at t_i lies in the window (t_{i-1}, t_i] and enters step i,
    # through the factorized jump path and the generic cell path alike
    space = build_sine_space(4)
    triple = heat_jump(space, ATOMS)
    generic = dataclasses.replace(triple, jump_profile=None)
    cfg = SchemeConfig(kind=kind, n=4, m=m, l=3, initial=smooth_profile(4))
    bundle = _knot_jump_bundle(KNOT_JUMP_MARKS)
    # atom marks and no Wiener noise: both paths do the same dyadic arithmetic
    want = _values(space, triple, cfg, bundle)
    assert _values(space, generic, cfg, bundle).tobytes() == want.tobytes()
    for path in (triple, generic):
        quiet = _values(space, path, cfg, _knot_jump_bundle([]))
        for j in KNOT_JUMP_MARKS:
            i = j * m // 16
            got = _values(space, path, cfg, _knot_jump_bundle([j]))
            assert got[:i].tobytes() == quiet[:i].tobytes()
            assert not np.array_equal(got[i], quiet[i])


@pytest.mark.parametrize("kind", ["explicit", "implicit"])
def test_a_jump_at_the_horizon_enters_the_last_step(kind):
    # 49·(1/49) rounds below 1, so the last knot is T itself: a replayed
    # jump at t = T enters step 49 of a block and of the block's
    # compensated increments, in the factorized and the general jump form
    # alike
    from spdesim.noise import bundle_from_json, bundle_to_json, build_partition

    m = 49
    assert m * (1.0 / m) < 1.0
    grid = TimeGrid(1.0, m)
    assert grid.knots[-1] == 1.0 and (np.diff(grid.knots) > 0).all()
    quiet = sample_bundles([3], grid, 1, MARKS, 2)[0]
    payload = json.loads(bundle_to_json(quiet))
    payload["jump_times"].append(1.0)
    payload["jump_marks"].append(0.5)
    at_T = bundle_from_json(json.dumps(payload))
    part = build_partition(MARKS, 2)
    noise = read_block([at_T, quiet]).knot_chunks(m, part.level, 0, False, 4, 1)
    at_T_row, quiet_row = noise(m, 1)[1][0]
    extra = at_T_row - quiet_row
    cell = part.locate([0.5])[0]
    assert np.rint(extra).tolist() == (np.arange(part.size) == cell).tolist()
    space = build_sine_space(4)
    triple = heat_jump(space, MARKS)
    cfg = SchemeConfig(kind=kind, n=4, m=m, l=2, initial=smooth_profile(4))
    for jumps in (triple, dataclasses.replace(triple, jump_profile=None)):
        want = _values(space, jumps, cfg, quiet)
        got = _values(space, jumps, cfg, at_T)
        assert np.isfinite(got).all() and np.isfinite(want).all()
        assert got[:m].tobytes() == want[:m].tobytes()
        assert not np.array_equal(got[m], want[m])
