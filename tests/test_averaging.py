import dataclasses
import warnings

import numpy as np
import pytest

from spdesim.averaging import (
    TIME_POINTS,
    _unit_rule,
    cell_integrals,
    cell_weight_means,
    time_mean,
    window_means,
)
from spdesim.coefficients import CoefficientTriple, ConditionConstants
from spdesim.fixtures import _sine_quadrature, additive_multimode, heat_jump
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


class TimeScaledJump:
    """Generic jump coefficient t·x·ξ that records its query times."""

    def __init__(self):
        self.queries = []

    def __call__(self, t, x, xi):
        self.queries.append(np.ravel(t))
        t = np.asarray(t)[..., None, None]
        return t * np.multiply.outer(np.asarray(x, dtype=float), xi)


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
        eval_F=TimeScaledJump(),
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
    got = time_mean(RecordingDrift(), (0.0, 0.25), x)
    assert np.allclose(got, 0.125 * x, rtol=1e-14)


def test_tilde_A_autonomous_shortcut():
    # the averaged drift of an autonomous coefficient is one evaluation
    triple = heat_jump(SPACE, MARKS)
    windows, mean = window_means(triple, TimeGrid(1.0, 8))
    drift = RecordingDrift()
    x = np.array([0.4, 0.2, -0.1, 1.0])
    mean(drift)(windows[4], x)
    assert [q.tolist() for q in drift.queries] == [[0.5625]]
    want = np.asarray(triple.eval_A(0.0, x))
    assert np.allclose(mean(triple.eval_A)(windows[4], x), want, rtol=1e-15)


def test_tilde_B_autonomous_matches_evaluator():
    triple = additive_multimode(SPACE, MARKS)
    eval_B = triple.eval_B
    x = np.ones(4)
    want = np.asarray(eval_B(0.0, x))
    windows, mean = window_means(triple, TimeGrid(1.0, 4))
    got = np.asarray(mean(eval_B)(windows[2], x))
    assert got.shape == (4, triple.wiener_modes)
    assert np.allclose(got, want, rtol=1e-15)


def test_window_discipline_lagged():
    # explicit step i queries the drift and the noise, the general jump
    # coefficient too, only on [t_{i-2}, t_{i-1}], with one call per window
    # that carries all its quadrature times
    m = 8
    grid = TimeGrid(1.0, m)
    drift = RecordingDrift()
    triple = _time_scaled_triple(drift)
    _run(triple, "explicit", m, _bundle(m))
    for fn in (drift, triple.eval_B, triple.eval_F):
        assert [q.shape for q in fn.queries] == [(TIME_POINTS,)] * (m - 1)
        steps = np.reshape(fn.queries, (m - 1, TIME_POINTS))
        for i, queries in enumerate(steps, start=2):
            assert (grid.knots[i - 2] <= queries).all()
            assert (queries <= grid.knots[i - 1]).all()


def test_window_discipline_current():
    # step i of an iterative implicit block queries the drift only on
    # [t_{i-1}, t_i]: the solver's set-up and then every step's chord and
    # Newton iterations call it window by window, in step order, one call
    # carrying all quadrature times of one window
    m = 8
    knots = TimeGrid(1.0, m).knots
    drift = RecordingDrift()
    triple = _time_scaled_triple(drift)
    run = run_block(
        SPACE, triple, SchemeConfig(kind="implicit_projected", n=4, m=m, l=2),
        read_block([_bundle(m)]),
    )
    assert (run.solver_iterations > 0).all()
    windows = []
    for queries in drift.queries:
        assert queries.shape == (TIME_POINTS,)
        window = int(np.searchsorted(knots, queries[0])) - 1
        assert (knots[window] <= queries).all() and (queries <= knots[window + 1]).all()
        windows.append(window)
    # the set-up's Jacobian at the origin is taken on step 1's window
    assert windows[0] == 0 and windows == sorted(windows)
    assert sorted(set(windows)) == list(range(m))


def test_window_means_autonomous_midpoints():
    # an autonomous triple's windows are the midpoints of the subintervals
    # and its means the evaluators themselves; any other triple's windows
    # are the subintervals, its means time_mean over them
    x = np.array([1.0, 0.0, 0.0, 2.0])
    grid = TimeGrid(1.0, 4)
    triple = heat_jump(SPACE, MARKS)
    windows, mean = window_means(triple, grid)
    assert windows == [0.125, 0.375, 0.625, 0.875]
    assert mean(triple.eval_A) is triple.eval_A
    drift = RecordingDrift()
    windows, mean = window_means(_time_scaled_triple(drift), grid)
    assert windows == [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
    assert np.array_equal(mean(drift)(windows[2], x), time_mean(drift, (0.5, 0.75), x))


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


def _cell_means(eval_F, part, points, x, t=0.0):
    """Cell means of F at one time: its cell integrals over the cell masses."""
    return cell_integrals(eval_F, _rule(part, points))(t, x) / part.nu


def test_tilde_F_zero_at_first_two_knots():
    # both kinds query a general jump coefficient from step 2 on only, as
    # the lagged noise terms vanish before knot 2
    m = 8
    for kind in ("explicit", "implicit_projected"):
        triple = _time_scaled_triple(RecordingDrift())
        values = _run(triple, kind, m, _bundle(m))
        assert np.concatenate(triple.eval_F.queries).size == TIME_POINTS * (m - 1)
        assert np.isfinite(values).all()


def test_tilde_F_power_law_cell_average_closed_form():
    # cell means of F = xi * f(x) against the power-law density are
    # sqrt(lo * hi) * f(x), taken by cell quadrature for a general F and
    # from cell_weight_means for the factorized one
    triple = heat_jump(SPACE, MARKS, lipschitz=0.3)
    part = build_partition(MARKS, 2)
    x = np.array([0.7, -0.3, 0.1, 0.0])
    want = np.multiply.outer(0.3 * np.sin(x), np.sqrt(part.lo * part.hi))
    assert np.allclose(_cell_means(triple.eval_F, part, 8, x), want, rtol=1e-10)
    profile = triple.jump_profile(0.375, x)
    cols = np.multiply.outer(profile, cell_weight_means(part)[0])
    assert np.allclose(cols, want, rtol=1e-12)


def test_tilde_F_generic_quadrature_matches_factorized():
    factorized = heat_jump(SPACE, MARKS, lipschitz=0.2)
    part = build_partition(MARKS, 2)
    x = np.array([2.0, 1.0, -0.5, 0.25])
    windows, mean = window_means(factorized, TimeGrid(1.0, 4))
    profile = mean(factorized.jump_profile)(windows[0], x)
    fast = np.multiply.outer(profile, cell_weight_means(part)[0])
    integrals = mean(cell_integrals(factorized.eval_F, _rule(part, 8)))(windows[0], x)
    assert np.allclose(fast, integrals / part.nu, rtol=1e-10, atol=1e-13)


def test_tilde_F_cell_constant_fixed_point():
    # averaging an already cell-constant jump coefficient is the identity,
    # so applying the averaging twice changes nothing
    part = build_partition(MARKS, 2)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(4, part.size))
    x = np.zeros(4)
    once = _cell_means(CellConstantJump(part, values), part, 6, x)
    assert np.allclose(once, values, rtol=1e-9, atol=1e-12)
    again = _cell_means(CellConstantJump(part, once), part, 6, x)
    assert np.allclose(again, once, rtol=1e-9, atol=1e-12)


def test_tilde_F_massless_cell_column_is_zero():
    # a massless cell's integral is zero, and a block takes its column as
    # zero, 0/0 = 0, without a warning, so its paths stay finite
    from spdesim.noise import AtomMarks

    atoms = AtomMarks(positions=(0.25, 0.75), weights=(1.0, 0.0))
    part = build_partition(atoms, 1)
    triple = dataclasses.replace(heat_jump(SPACE, atoms), jump_profile=None)
    integrals = cell_integrals(triple.eval_F, _rule(part, 4))(0.0, np.ones(4))
    assert np.array_equal(integrals[:, 1], np.zeros(4))
    assert np.abs(integrals[:, 0]).max() > 0
    bundles = sample_bundles([3, 4], TimeGrid(1.0, 16), 1, atoms, 1)
    for kind in ("explicit", "implicit_projected"):
        cfg = SchemeConfig(kind=kind, n=4, m=16, l=1, initial=np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = run_block(SPACE, triple, cfg, read_block(bundles), keep=STATES)
        assert np.isfinite(run.kept).all() and run.blow_up_steps == [None, None]


def test_the_shared_unit_rule_is_read_only_and_keeps_the_bits_of_its_copies():
    # one cached rule serves the time means, the power-law mark cells and
    # the semilinear quadrature, so no caller may write into it; each of
    # them has the bits it had when it mapped its own `leggauss` to (0, 1)
    nodes, weights = _unit_rule(4)
    for array in (nodes, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
    own_nodes, own_weights = np.polynomial.legendre.leggauss(4)
    own_nodes = 0.5 * (own_nodes + 1.0)
    own_weights = 0.5 * own_weights
    assert nodes.tobytes() == own_nodes.tobytes()
    assert weights.tobytes() == own_weights.tobytes()

    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)

    def fn(t, x):
        return np.sin(t[..., None] * x) + t[..., None] ** 3

    want = own_weights[0] * fn(0.25 + 0.25 * own_nodes[:1], x[None])[0]
    for w, node in zip(own_weights[1:], own_nodes[1:]):
        want = want + w * fn(0.25 + 0.25 * np.array([node]), x[None])[0]
    assert time_mean(fn, (0.25, 0.5), x).tobytes() == want.tobytes()

    partition = build_partition(MARKS, 3)
    lo, hi = partition.lo[:, None], partition.hi[:, None]
    want_nodes = lo + (hi - lo) * own_nodes[None, :]
    want_weights = (hi - lo) * own_weights[None, :] * want_nodes ** (-MARKS.beta)
    got_nodes, got_weights = MARKS.cell_rule(partition.lo, partition.hi, 4)
    assert got_nodes.tobytes() == want_nodes.tobytes()
    assert got_weights.tobytes() == want_weights.tobytes()

    dim = 8
    offsets = np.arange(dim)[:, None] / dim
    got_nodes, got_weights = _sine_quadrature(dim)
    assert got_nodes.tobytes() == (offsets + own_nodes[None, :] / dim).ravel().tobytes()
    assert got_weights.tobytes() == np.tile(own_weights / dim, dim).tobytes()
