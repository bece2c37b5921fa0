import dataclasses

import numpy as np

from spdesim.averaging import (
    TIME_POINTS,
    cell_weight_means,
    impl_A,
    tilde_F,
    time_mean,
)
from spdesim.coefficients import CoefficientTriple, ConditionConstants
from spdesim.fixtures import additive_multimode, heat_jump
from spdesim.noise import (
    PowerLawMarks,
    TimeGrid,
    build_partition,
    read_block,
    sample_bundles,
)
from spdesim.schemes import STATES, SchemeConfig, run_block
from spdesim.space import build_sine_space

MARKS = PowerLawMarks()
SPACE = build_sine_space(4)


def _constants():
    return ConditionConstants(
        p=2.0, alpha=1.0, lam=0.5, k1=1.0, k1bar=0.0, k2=1.0
    )


class RecordingDrift:
    """Time-scaled linear drift that records the query times of every call."""

    def __init__(self, scale=1.0):
        self.scale = scale
        self.queries = []

    def __call__(self, t, x):
        self.queries.append(np.ravel(t))
        return self.scale * np.asarray(t)[..., None] * np.asarray(x, dtype=float)


class TimeScaledNoise:
    def __init__(self):
        self.queries = []

    def __call__(self, t, x):
        self.queries.append(np.ravel(t))
        return np.asarray(t)[..., None, None] * np.asarray(x, dtype=float)[..., None]


class CellConstantJump:
    """F constant on every partition cell; cell averaging must be exact."""

    def __init__(self, partition, values):
        self.partition = partition
        self.values = values  # (dim, cells)

    def __call__(self, t, x, xi):
        cells = np.asarray(self.partition.locate(np.atleast_1d(xi)))
        out = np.zeros((self.values.shape[0], cells.size))
        ok = cells >= 0
        out[:, ok] = self.values[:, cells[ok]]
        return out


def _time_scaled_triple(drift):
    """Non-autonomous one-mode triple with a generic jump coefficient t·x·ξ."""
    return CoefficientTriple(
        dim=4,
        eval_A=drift,
        eval_B=TimeScaledNoise(),
        eval_F=lambda t, x, xi: np.asarray(t)[..., None, None] * np.multiply.outer(
            np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        ),
        constants=_constants(),
        autonomous=False,
        wiener_modes=1,
    )


def _run(triple, kind, m, bundle, l=2):
    """The (m+1, 4) knot states of one path."""
    cfg = SchemeConfig(kind=kind, n=4, m=m, l=l, initial=np.ones(4))
    return run_block(SPACE, triple, cfg, read_block([bundle]), keep=STATES).kept[:, 0]


def _bundle(m, modes=1, level=2):
    return sample_bundles([21], TimeGrid(1.0, m), modes, MARKS, level)[0]


def test_tilde_A_zero_at_first_two_knots():
    # the explicit scheme queries the lagged drift mean from step 2 on only
    m = 8
    drift = RecordingDrift()
    values = _run(_time_scaled_triple(drift), "explicit", m, _bundle(m))
    assert np.concatenate(drift.queries).size == TIME_POINTS * (m - 1)
    assert np.array_equal(values[0], np.zeros(4))
    assert np.array_equal(values[1], np.ones(4))


def test_time_mean_linear_integrand_exact():
    # mean of s*x over [0, 0.25] is 0.125*x
    x = np.array([1.0, -2.0, 0.5, 3.0])
    got = time_mean(RecordingDrift(), x, 0.0, 0.25, autonomous=False)
    assert np.allclose(got, 0.125 * x, rtol=1e-14)


def test_tilde_A_autonomous_shortcut():
    # the averaged drift of an autonomous coefficient is one evaluation
    drift = RecordingDrift()
    x = np.array([0.4, 0.2, -0.1, 1.0])
    time_mean(drift, x, 0.5, 0.625, autonomous=True)
    assert [q.tolist() for q in drift.queries] == [[0.5625]]
    eval_A = heat_jump(SPACE, MARKS).eval_A
    want = np.asarray(eval_A(0.0, x))
    assert np.allclose(time_mean(eval_A, x, 0.5, 0.625, True), want, rtol=1e-15)


def test_tilde_B_autonomous_matches_evaluator():
    triple = additive_multimode(SPACE, MARKS)
    eval_B = triple.eval_B
    x = np.ones(4)
    want = np.asarray(eval_B(0.0, x))
    got = time_mean(eval_B, x, 0.5, 0.75, autonomous=True)
    assert got.shape == (4, triple.wiener_modes)
    assert np.allclose(got, want, rtol=1e-15)


def test_window_discipline_lagged():
    # explicit step i queries the drift and the noise only on [t_{i-2}, t_{i-1}],
    # with one call per window that carries all its quadrature times
    m = 8
    grid = TimeGrid(1.0, m)
    drift = RecordingDrift()
    triple = _time_scaled_triple(drift)
    _run(triple, "explicit", m, _bundle(m))
    for fn in (drift, triple.eval_B):
        assert [q.shape for q in fn.queries] == [(TIME_POINTS,)] * (m - 1)
        steps = np.reshape(fn.queries, (m - 1, TIME_POINTS))
        for i, queries in enumerate(steps, start=2):
            assert (grid.knots[i - 2] <= queries).all()
            assert (queries <= grid.knots[i - 1]).all()


def test_window_discipline_current():
    drift = RecordingDrift()
    triple = _time_scaled_triple(drift)
    grid = TimeGrid(1.0, 8)
    impl_A(triple, grid, 5, np.ones(4))
    t0, t1 = grid.knots[4], grid.knots[5]
    assert all(t0 <= q <= t1 for q in np.concatenate(drift.queries))


def test_impl_A_zero_at_origin_and_first_window():
    drift = RecordingDrift()
    triple = _time_scaled_triple(drift)
    grid = TimeGrid(1.0, 4)
    x = np.ones(4)
    assert np.array_equal(impl_A(triple, grid, 0, x), np.zeros(4))
    got = impl_A(triple, grid, 1, x)
    assert np.allclose(got, 0.125 * x, rtol=1e-14)


def test_impl_A_autonomous():
    triple = heat_jump(SPACE, MARKS)
    grid = TimeGrid(1.0, 4)
    x = np.array([1.0, 0.0, 0.0, 2.0])
    assert np.allclose(
        impl_A(triple, grid, 2, x), np.asarray(triple.eval_A(0.0, x)), rtol=1e-15
    )


def test_tilde_B_zero_convention_and_truncation():
    # without any noise a run agrees up to knot 1 and not at knot 2
    m = 8
    bundle = _bundle(m)
    quiet = dataclasses.replace(
        bundle,
        wiener=np.zeros_like(bundle.wiener),
        jump_times=bundle.jump_times[:0],
        jump_marks=bundle.jump_marks[:0],
    )
    for kind in ("explicit", "implicit_projected"):
        loud = _run(_time_scaled_triple(RecordingDrift()), kind, m, bundle)
        calm = _run(_time_scaled_triple(RecordingDrift()), kind, m, quiet)
        assert np.array_equal(loud[:2], calm[:2])
        assert not np.array_equal(loud[2], calm[2])
    # only the first min(l, wiener_modes) increment rows move the trajectory
    triple = additive_multimode(SPACE, MARKS, modes=2)
    bundle = _bundle(16, modes=3, level=3)
    for l, used in ((1, 1), (3, 2)):
        base = _run(triple, "explicit", 16, bundle, l)
        for k in range(3):
            wiener = bundle.wiener.copy()
            wiener[k] *= 2.0
            moved = dataclasses.replace(bundle, wiener=wiener)
            got = _run(triple, "explicit", 16, moved, l)
            assert np.array_equal(got, base) == (k >= used)


def _rule(part, points):
    return part.marks.cell_rule(part.lo, part.hi, points)


def test_tilde_F_zero_at_first_two_knots():
    triple = heat_jump(SPACE, MARKS)
    part = build_partition(MARKS, 2)
    grid = TimeGrid(1.0, 4)
    cols = tilde_F(triple, grid, part, 1, np.ones(4), _rule(part, 4))
    assert np.array_equal(cols, np.zeros((4, part.size)))


def test_tilde_F_power_law_cell_average_closed_form():
    # cell means of F = xi * f(x) against the power-law density are
    # sqrt(lo * hi) * f(x); the factorized F takes them from cell_weight_means
    triple = heat_jump(SPACE, MARKS, lipschitz=0.3)
    part = build_partition(MARKS, 2)
    x = np.array([0.7, -0.3, 0.1, 0.0])
    profile = time_mean(triple.jump_profile, x, 0.25, 0.5, triple.autonomous)
    cols = np.multiply.outer(profile, cell_weight_means(part)[0])
    want = np.multiply.outer(0.3 * np.sin(x), np.sqrt(part.lo * part.hi))
    assert np.allclose(cols, want, rtol=1e-12)


def test_tilde_F_generic_quadrature_matches_factorized():
    factorized = heat_jump(SPACE, MARKS, lipschitz=0.2)
    part = build_partition(MARKS, 2)
    grid = TimeGrid(1.0, 4)
    x = np.array([2.0, 1.0, -0.5, 0.25])
    profile = time_mean(factorized.jump_profile, x, 0.0, 0.25, True)
    fast = np.multiply.outer(profile, cell_weight_means(part)[0])
    slow = tilde_F(factorized, grid, part, 2, x, _rule(part, 8))
    assert np.allclose(fast, slow, rtol=1e-10, atol=1e-13)


def test_tilde_F_cell_constant_fixed_point():
    # averaging an already cell-constant jump coefficient is the identity,
    # so applying the averaging twice changes nothing
    part = build_partition(MARKS, 2)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(4, part.size))
    triple = dataclasses.replace(
        heat_jump(SPACE, MARKS),
        eval_F=CellConstantJump(part, values),
        jump_profile=None,
    )
    grid = TimeGrid(1.0, 4)
    x = np.zeros(4)
    once = tilde_F(triple, grid, part, 2, x, _rule(part, 6))
    assert np.allclose(once, values, rtol=1e-9, atol=1e-12)
    again = tilde_F(
        dataclasses.replace(triple, eval_F=CellConstantJump(part, once)),
        grid,
        part,
        2,
        x,
        _rule(part, 6),
    )
    assert np.allclose(again, once, rtol=1e-9, atol=1e-12)


def test_tilde_F_massless_cell_column_is_zero():
    from spdesim.noise import AtomMarks

    atoms = AtomMarks(positions=(0.25, 0.75), weights=(1.0, 0.0))
    part = build_partition(atoms, 1)
    triple = heat_jump(SPACE, atoms)
    grid = TimeGrid(1.0, 4)
    cols = tilde_F(triple, grid, part, 2, np.ones(4), _rule(part, 4))
    assert np.array_equal(cols[:, 1], np.zeros(4))
    assert np.abs(cols[:, 0]).max() > 0
