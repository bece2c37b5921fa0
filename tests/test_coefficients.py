import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdesim import coefficients
from spdesim.averaging import TIME_POINTS
from spdesim.coefficients import (
    BoxSampler,
    ConditionConstants,
    MarkIntegral,
    check_bf_bounds,
    check_coercivity,
    check_growth,
    check_monotonicity,
    exponential_transform,
    probe_hemicontinuity,
)
from spdesim.fixtures import (
    LinearDrift,
    additive_multimode,
    heat_jump,
    semilinear,
    zero_triple,
)
from spdesim.harness import SuiteConfig, run_condition_suite
from spdesim.noise import AtomMarks, PowerLawMarks
from spdesim.rng import TAG_TRIAL, derive_key, make_generator, philox_raw
from spdesim.space import build_sine_space

MARKS = PowerLawMarks()
SPACE = build_sine_space(8)
SAMPLER = BoxSampler(dim=8)
TRIALS = 800


@pytest.fixture(scope="module")
def quadrature():
    return MarkIntegral(MARKS, level=2)


@pytest.fixture(scope="module")
def base(quadrature):
    return heat_jump(SPACE, MARKS)


def test_mark_integral_exact_for_weight(quadrature):
    # int xi^2 nu(dxi) over (0, 1] = 2/3 for the power-law family
    got = quadrature.integral_sq(lambda xi: np.asarray(xi, dtype=float)[None, :])
    assert got == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_mark_integral_atoms():
    atoms = AtomMarks(positions=(0.5, 1.0), weights=(2.0, 1.0))
    mq = MarkIntegral(atoms, level=1)
    got = mq.integral_sq(lambda xi: np.asarray(xi, dtype=float)[None, :])
    assert got == pytest.approx(2.0 * 0.25 + 1.0, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(1,), (5,), (2, 3)]),
    atoms=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_mark_integral_rows_equal_single_calls(shape, atoms, seed):
    marks = AtomMarks(positions=(0.5, 1.0), weights=(2.0, 1.0)) if atoms else MARKS
    mq = MarkIntegral(marks, level=2)
    triple = heat_jump(SPACE, marks, lipschitz=0.7)
    x = np.random.default_rng(seed).uniform(-5, 5, shape + (8,))
    batched = mq.integral_sq(lambda xi: triple.eval_F(0.3, x, xi))
    assert batched.shape == shape
    for idx in np.ndindex(shape):
        single = mq.integral_sq(lambda xi: triple.eval_F(0.3, x[idx], xi))
        assert type(single) is float
        assert batched[idx] == pytest.approx(single, rel=1e-13)


ATOMS = AtomMarks(positions=(0.25, 0.5, 1.0), weights=(3.0, 2.0, 1.0))
FACTORIZED = {
    "heat_jump": heat_jump,
    "additive_multimode": additive_multimode,
    "semilinear": semilinear,
    "zero_triple": zero_triple,
    "transformed": lambda space, marks: exponential_transform(
        heat_jump(space, marks, reaction=5.0), 0.7
    ),
}


@pytest.mark.parametrize("marks", [MARKS, ATOMS], ids=["power-law", "atoms"])
@pytest.mark.parametrize("name", sorted(FACTORIZED))
def test_declared_profile_is_the_jump_coefficient(name, marks):
    """F(t, x, ξ) = weight(ξ) · jump_profile(t, x), the factorization that
    the schemes and the condition checks rely on."""
    triple = FACTORIZED[name](SPACE, marks)
    rng = np.random.default_rng(5)
    mq = MarkIntegral(marks)
    xi = np.concatenate([mq.nodes, [mq.ref_mark]])
    weight = np.asarray(marks.weight(xi), dtype=float)
    for t in (0.0, 0.37, 1.0):
        for shape in ((8,), (5, 8), (2, 3, 8)):
            x = rng.uniform(-5.0, 5.0, shape)
            want = weight * np.asarray(triple.jump_profile(t, x))[..., None]
            got = np.asarray(triple.eval_F(t, x, xi))
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("marks", [MARKS, ATOMS], ids=["power-law", "atoms"])
def test_factorized_mark_integral_matches_the_quadrature(marks):
    mq = MarkIntegral(marks)
    p = np.random.default_rng(6).uniform(-3.0, 3.0, (4, 8))
    quadrature = mq.integral_sq(lambda xi: np.multiply.outer(p, marks.weight(xi)))
    closed = mq.integral_sq(profile=p)
    assert closed.shape == (4,)
    np.testing.assert_allclose(closed, quadrature, rtol=1e-14, atol=0.0)
    single = mq.integral_sq(profile=p[1])
    assert type(single) is float and single == closed[1]


@pytest.mark.parametrize("marks", [MARKS, ATOMS], ids=["power-law", "atoms"])
@pytest.mark.parametrize("name", sorted(FACTORIZED))
def test_closed_form_jump_integrals_match_the_quadrature(name, marks):
    """A declared profile gives the reports the general quadrature gives."""
    triple = FACTORIZED[name](SPACE, marks)
    general = dataclasses.replace(triple, jump_profile=None)
    config = SuiteConfig(trials=2000, seed=17)
    closed = run_condition_suite(triple, SPACE, marks, config)
    quadrature = run_condition_suite(general, SPACE, marks, config)
    for got, want in zip(closed, quadrature):
        assert (got.condition_id, got.trials, got.passed) == (
            want.condition_id, want.trials, want.passed
        )
        assert got.witness == want.witness
        move = abs(got.worst_violation - want.worst_violation)
        assert move <= 1e-12 * abs(want.worst_violation)


def _suite_triples():
    base = heat_jump(SPACE, MARKS)
    return {
        "base": base,
        "theta": heat_jump(SPACE, MARKS, theta=1.2, lambda_const=0.375),
        "anti": dataclasses.replace(
            base, eval_A=LinearDrift(-base.linear_A), linear_A=-base.linear_A
        ),
        "transformed": exponential_transform(heat_jump(SPACE, MARKS, reaction=0.3), 0.6),
        "semilinear": semilinear(SPACE, MARKS),
    }


@pytest.mark.parametrize("trials", [1, 255, 256, 257, 600])
@settings(max_examples=2, deadline=None)
@given(
    name=st.sampled_from(sorted(_suite_triples())),
    seed=st.integers(0, 2**32 - 1),
)
def test_reports_do_not_depend_on_the_scan_chunk(trials, name, seed):
    triple = _suite_triples()[name]
    config = SuiteConfig(trials=trials, seed=seed)
    chunked = run_condition_suite(triple, SPACE, MARKS, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coefficients, "SCAN_CHUNK", 1)
        one_by_one = run_condition_suite(triple, SPACE, MARKS, config)
    for got, want in zip(chunked, one_by_one):
        assert (got.condition_id, got.trials, got.passed) == (
            want.condition_id, want.trials, want.passed
        )
        assert got.witness.get("trial") == want.witness.get("trial")
        assert got.witness.get("sample") == want.witness.get("sample")
        assert got.worst_violation == pytest.approx(want.worst_violation, rel=1e-12)


def _fingerprint(reports):
    return [
        (r.condition_id, r.trials, np.float64(r.worst_violation).tobytes(),
         r.witness, r.passed)
        for r in reports
    ]


@pytest.mark.parametrize("trials", [1, 257])
@pytest.mark.parametrize("name", sorted(_suite_triples()))
def test_shared_draws_give_the_reports_of_a_cold_run(name, trials):
    """A suite on triple B after one on triple A reuses A's draws and
    reports what B reports from a cold cache, bit for bit."""
    triples = _suite_triples()
    config = SuiteConfig(trials=trials, seed=31)
    coefficients._trial_draws.cache_clear()
    cold = run_condition_suite(triples[name], SPACE, MARKS, config)
    for other in sorted(set(triples) - {name}):
        coefficients._trial_draws.cache_clear()
        run_condition_suite(triples[other], SPACE, MARKS, config)
        warm = run_condition_suite(triples[name], SPACE, MARKS, config)
        assert _fingerprint(warm) == _fingerprint(cold)


def test_a_repeated_suite_config_draws_no_trials(monkeypatch):
    passes = []

    def counting(keys, count):
        passes.append(len(keys))
        return philox_raw(keys, count)

    monkeypatch.setattr(coefficients, "philox_raw", counting)
    coefficients._trial_draws.cache_clear()
    triples = _suite_triples()
    config = SuiteConfig(trials=300, seed=8)
    run_condition_suite(triples["base"], SPACE, MARKS, config)
    assert passes == [300] * 4
    run_condition_suite(triples["semilinear"], SPACE, MARKS, config)
    assert passes == [300] * 4


class WritingDrift:
    """The base drift, which also zeroes the states it is given."""

    def __init__(self, drift):
        self.drift = drift

    def __call__(self, t, x):
        x[..., 0] = 0.0
        return self.drift(t, x)


def test_shared_draws_are_read_only(base, quadrature):
    report = check_coercivity(base, SPACE, SAMPLER, 40, quadrature, seed=3)
    t, x = coefficients._trial_draws(SAMPLER, "points", 3, 40)
    assert report.witness["sample"][1] == x[report.witness["trial"]].tolist()
    for column in (t, x):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    writing = dataclasses.replace(base, eval_A=WritingDrift(base.eval_A), linear_A=None)
    with pytest.raises(ValueError, match="read-only"):
        check_coercivity(writing, SPACE, SAMPLER, 40, quadrature, seed=3)


class PatchyDrift:
    """The base drift, NaN wherever the first coordinate exceeds 4."""

    def __init__(self, drift):
        self.drift = drift

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x[..., :1] > 4.0, np.nan, self.drift(t, x))


@pytest.mark.parametrize(
    "check, draw", [(check_monotonicity, "pair"), (check_coercivity, "point")]
)
def test_first_non_finite_trial_is_the_witness(base, quadrature, check, draw):
    patchy = dataclasses.replace(base, eval_A=PatchyDrift(base.eval_A), linear_A=None)
    trials, seed = 600, 21
    # the same draws, one fresh generator per trial
    samples = [
        getattr(SAMPLER, draw)(make_generator(derive_key(seed, TAG_TRIAL, j)), j)
        for j in range(trials)
    ]
    bad = [j for j, sample in enumerate(samples) if any(s[0] > 4.0 for s in sample[1:])]
    assert bad and bad[-1] >= coefficients.SCAN_CHUNK  # a later chunk has one too
    witness = [np.asarray(s).tolist() for s in samples[bad[0]]]
    with pytest.raises(ValueError) as err:
        check(patchy, SPACE, SAMPLER, trials, quadrature, seed=seed)
    assert str(err.value).endswith(f"non-finite evaluation at witness {witness}")


def test_monotonicity_passes_on_base(base, quadrature):
    report = check_monotonicity(base, SPACE, SAMPLER, TRIALS, quadrature, seed=1)
    assert report.passed
    assert report.worst_violation <= 0.0
    assert report.trials == TRIALS


def test_monotonicity_equal_arguments_vanish(base, quadrature):
    x = np.linspace(-2, 3, 8)
    lhs = (
        2.0 * (x - x) @ (np.asarray(base.eval_A(0.1, x)) - base.eval_A(0.1, x))
        + np.sum(
            (np.asarray(base.eval_B(0.1, x)) - np.asarray(base.eval_B(0.1, x))) ** 2
        )
        + quadrature.integral_sq(
            lambda xi: np.asarray(base.eval_F(0.1, x, xi))
            - np.asarray(base.eval_F(0.1, x, xi))
        )
    )
    assert abs(lhs) <= 1e-12


def test_monotonicity_fails_on_negated_drift(base, quadrature):
    anti = dataclasses.replace(
        base, eval_A=LinearDrift(-base.linear_A), linear_A=-base.linear_A
    )
    report = check_monotonicity(anti, SPACE, SAMPLER, TRIALS, quadrature, seed=2)
    assert not report.passed
    assert report.worst_violation > 0
    assert "sample" in report.witness


def test_coercivity_passes_on_base(base, quadrature):
    report = check_coercivity(base, SPACE, SAMPLER, TRIALS, quadrature, seed=3)
    assert report.passed


def test_coercivity_zero_input_margin(base, quadrature):
    # at x = 0 the left side reduces to the jump mass minus K1, negative
    # for fixtures with F(0) = 0
    c = base.constants
    lhs = quadrature.integral_sq(lambda xi: base.eval_F(0.0, np.zeros(8), xi))
    assert lhs - c.k1 <= 0


def test_coercivity_fails_with_inflated_weight(base, quadrature):
    c = base.constants
    inflated = dataclasses.replace(
        base, constants=dataclasses.replace(c, lam=10 * 0.375)
    )
    report = check_coercivity(inflated, SPACE, SAMPLER, TRIALS, quadrature, seed=4)
    assert not report.passed


def test_coercivity_fails_for_theta_outside_unit(quadrature):
    bad = heat_jump(SPACE, MARKS, theta=1.2, lambda_const=0.375)
    report = check_coercivity(bad, SPACE, SAMPLER, TRIALS, quadrature, seed=5)
    assert not report.passed


def test_growth_passes_on_base(base, quadrature):
    report = check_growth(base, SPACE, SAMPLER, TRIALS, quadrature, seed=6)
    assert report.passed


def test_growth_zero_input(base):
    a0 = np.asarray(base.eval_A(0.0, np.zeros(8)))
    assert np.linalg.norm(a0) == 0.0


def test_growth_fails_below_threshold(quadrature):
    # alpha must exceed 1/(4 lambda^2) = 16/9 for the half-Laplacian
    weak = heat_jump(SPACE, MARKS, alpha=1.0)
    report = check_growth(weak, SPACE, SAMPLER, TRIALS, quadrature, seed=7)
    assert not report.passed


def test_growth_fails_for_affine_offset_without_allowance(quadrature):
    base = heat_jump(SPACE, MARKS)

    class AffineDrift:
        def __call__(self, t, x):
            x = np.asarray(x, dtype=float)
            out = base.eval_A(t, x).copy()
            out[..., 0] += 1.0
            return out

    affine = dataclasses.replace(
        base,
        eval_A=AffineDrift(),
        linear_A=None,
        constants=dataclasses.replace(base.constants, k2=0.0),
    )
    report = check_growth(affine, SPACE, SAMPLER, TRIALS, quadrature, seed=8)
    assert not report.passed


def test_hemicontinuity_linear_decay(base):
    x = np.full(8, 0.5)
    y = np.full(8, -0.25)
    z = np.linspace(0.1, 0.8, 8)
    eps = 2.0 ** -np.arange(1, 21)
    report = probe_hemicontinuity(base, x, y, z, 0.0, epsilons=eps)
    gaps = np.asarray(report.witness["gaps"])
    # linear drift: gap(eps) = eps * |<A(y), z>| exactly
    scale = abs(z @ np.asarray(base.eval_A(0.0, y)))
    assert np.allclose(gaps, eps * scale, rtol=1e-6)


def test_hemicontinuity_zero_direction(base):
    report = probe_hemicontinuity(
        base, np.ones(8), np.zeros(8), np.ones(8), 0.2
    )
    assert report.passed
    assert report.worst_violation == 0.0


def test_hemicontinuity_semilinear(base):
    sem = semilinear(SPACE, MARKS)
    rng = np.random.default_rng(12)
    x = rng.normal(size=8) / 4
    y = rng.normal(size=8) / 4
    z = rng.normal(size=8) / 4
    report = probe_hemicontinuity(
        sem, x, y, z, 0.0, epsilons=2.0 ** -np.arange(1, 41)
    )
    assert report.passed
    assert report.worst_violation < 1e-8


def test_hemicontinuity_rejects_bad_ladder(base):
    with pytest.raises(ValueError):
        probe_hemicontinuity(
            base, np.ones(8), np.ones(8), np.ones(8), 0.0,
            epsilons=np.array([0.5, 0.5]),
        )


def test_bf_bounds_pass_on_base(base, quadrature):
    report = check_bf_bounds(base, SPACE, SAMPLER, TRIALS, quadrature, seed=9)
    assert report.passed


def test_bf_bounds_evaluate_an_undeclared_F_once_per_chunk(base, quadrature):
    # F at x enters both the difference and the absolute bound; one chunk
    # evaluates F at x and at y once each at the quadrature nodes, then
    # once each at the reference mark
    sizes = []

    def recording(t, x, xi):
        sizes.append(np.size(xi))
        return base.eval_F(t, x, xi)

    triple = dataclasses.replace(base, jump_profile=None, eval_F=recording)
    check_bf_bounds(triple, SPACE, SAMPLER, coefficients.SCAN_CHUNK, quadrature)
    nodes = quadrature.nodes.size
    assert sizes == [nodes, nodes, 1, 1]


def test_bf_bounds_zero_pair(base, quadrature):
    c = base.constants
    zeros = np.zeros(8)
    diff = np.sum(
        (np.asarray(base.eval_B(0.0, zeros)) - np.asarray(base.eval_B(0.0, zeros))) ** 2
    )
    assert diff <= (4.0 / c.q) * c.k2


def test_k3_combination():
    c = ConditionConstants(p=2.0, alpha=1.0, lam=0.5, k1=0.3, k1bar=0.0, k2=0.7)
    assert c.k3 == pytest.approx((2.0 / c.q) * 0.7 + 0.3, rel=1e-15)


def test_constants_validation():
    with pytest.raises(ValueError):
        ConditionConstants(p=1.5, alpha=1.0, lam=1.0, k1=0.0, k1bar=0.0, k2=0.0)
    with pytest.raises(ValueError):
        ConditionConstants(p=2.0, alpha=0.5, lam=1.0, k1=0.0, k1bar=0.0, k2=0.0)
    # the constants are numbers, stored as floats; a function of time is refused
    c = ConditionConstants(p=2.0, alpha=1.0, lam=1, k1=0, k1bar=0, k2=np.float64(2))
    assert [type(v) for v in (c.lam, c.k1, c.k1bar, c.k2)] == [float] * 4
    with pytest.raises(TypeError):
        ConditionConstants(p=2.0, alpha=1.0, lam=lambda t: 1.0, k1=0, k1bar=0, k2=0)


def test_transform_identity_for_zero_rate(base):
    same = exponential_transform(base, 0.0)
    x = np.linspace(-1, 1, 8)
    assert np.array_equal(
        np.asarray(same.eval_A(0.3, x)), np.asarray(base.eval_A(0.3, x))
    )
    assert same.autonomous


def test_transform_gamma_closed_form(base):
    moved = exponential_transform(base, 2.0)
    # A is linear, so the drift picks up exactly -(K/2) x = -x
    x = np.linspace(0.2, 0.9, 8)
    want = np.asarray(base.eval_A(0.5, x)) - x
    assert np.allclose(np.asarray(moved.eval_A(0.5, x)), want, rtol=1e-9)


def test_transform_scales_by_closed_form_gamma(base):
    # rate K = 2: gamma_t = exp(-t), the same for every evaluator, and the
    # evaluators are gamma^-1 base(t, gamma x) with the constants K1, K2
    # inflated by gamma_T^-2
    moved = exponential_transform(base, 2.0)
    t, x, xi = 0.3, np.linspace(-1.0, 1.0, 8), np.array([0.2, 0.9])
    g = math.exp(-t)
    for fn in (moved.eval_A, moved.eval_B, moved.eval_F, moved.jump_profile):
        assert fn.gamma(t) == g
    assert np.array_equal(moved.eval_B(t, x), base.eval_B(t, g * x) / g)
    assert np.array_equal(moved.eval_F(t, x, xi), base.eval_F(t, g * x, xi) / g)
    assert np.array_equal(moved.jump_profile(t, x), base.jump_profile(t, g * x) / g)
    assert np.array_equal(moved.eval_A(t, x), base.eval_A(t, g * x) / g - x)
    inflate = math.exp(-1.0) ** -2
    c, b = moved.constants, base.constants
    assert (c.k1, c.k2) == (inflate * b.k1, inflate * b.k2)
    assert (c.lam, c.k1bar) == (b.lam, b.k1bar)


def _shipped_evaluators():
    """Every shipped evaluator class, by name, with the marks it takes."""
    heat = heat_jump(SPACE, MARKS)
    additive = additive_multimode(SPACE, MARKS)
    semi = semilinear(SPACE, MARKS)
    xi = np.array([0.2, 0.9])
    return {
        "LinearDrift": (heat.eval_A, ()),
        "MatrixNoise": (heat.eval_B, ()),
        "ConstantNoise": (additive.eval_B, ()),
        "SineJumpProfile": (heat.jump_profile, ()),
        "FirstModeProfile": (additive.jump_profile, ()),
        "ZeroProfile": (semi.jump_profile, ()),
        "ZeroNoise": (semi.eval_B, ()),
        "WeightedJump": (heat.eval_F, (xi,)),
        "SemilinearDrift": (semi.eval_A, ()),
    }


P = 5
# (times, states) shape pairs where the times broadcast to states.shape[:-1]
TIME_BATCHES = [
    ((P,), (P, 8)),
    ((P,), (TIME_POINTS, P, 8)),
    ((TIME_POINTS, 1), (TIME_POINTS, P, 8)),
]


@pytest.mark.parametrize("name", sorted(_shipped_evaluators()))
def test_shipped_evaluators_ignore_a_batch_of_times(name):
    """An array of times gives the value of its first time, bit for bit."""
    fn, marks = _shipped_evaluators()[name]
    assert type(fn).__name__ == name
    rng = np.random.default_rng(8)
    for t_shape, x_shape in TIME_BATCHES:
        t = rng.uniform(0.0, 1.0, t_shape)
        x = rng.uniform(-5.0, 5.0, x_shape)
        want = np.asarray(fn(t.flat[0], x, *marks))
        assert np.array_equal(np.asarray(fn(t, x, *marks)), want)


@pytest.mark.parametrize("fixture", [heat_jump, semilinear])
def test_transformed_evaluators_take_each_row_at_its_time(fixture):
    """γ is taken per time value: a batch equals the per-row scalar calls."""
    moved = exponential_transform(fixture(SPACE, MARKS), 0.9)
    xi = np.array([0.2, 0.9])
    rng = np.random.default_rng(9)
    evaluators = [
        (moved.eval_A, ()),
        (moved.eval_B, ()),
        (moved.eval_F, (xi,)),
        (moved.jump_profile, ()),
    ]
    for t_shape, x_shape in TIME_BATCHES:
        t = rng.uniform(0.0, 1.0, t_shape)
        x = rng.uniform(-5.0, 5.0, x_shape)
        times = np.broadcast_to(t, x_shape[:-1])
        for fn, marks in evaluators:
            got = np.asarray(fn(t, x, *marks))
            rows = [
                np.asarray(fn(float(times[i]), x[i], *marks))
                for i in np.ndindex(x_shape[:-1])
            ]
            want = np.reshape(rows, got.shape)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    t = rng.uniform(0.0, 1.0, (3, 4))
    gamma = moved.eval_B.gamma(t)
    assert gamma.shape == t.shape
    want = [[math.exp(-0.5 * 0.9 * s) for s in row] for row in t.tolist()]
    assert gamma.tolist() == want


def test_transform_restores_monotonicity(quadrature):
    # a mild reaction term keeps the relaxed bound with rate K = 2c, and
    # the transform removes it exactly for a linear drift
    perturbed = heat_jump(SPACE, MARKS, reaction=0.3)
    fixed = exponential_transform(perturbed, 0.6)
    report = check_monotonicity(fixed, SPACE, SAMPLER, TRIALS, quadrature, seed=10)
    assert report.passed


def test_transform_fixes_strong_reaction(quadrature):
    perturbed = heat_jump(SPACE, MARKS, reaction=5.0)
    broken = check_monotonicity(perturbed, SPACE, SAMPLER, TRIALS, quadrature, seed=11)
    assert not broken.passed
    fixed = exponential_transform(perturbed, 10.0)
    report = check_monotonicity(fixed, SPACE, SAMPLER, TRIALS, quadrature, seed=11)
    assert report.passed


def test_transform_rejects_negative_rate(base):
    for rate in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rate"):
            exponential_transform(base, rate)


def test_additive_and_semilinear_pass_all(quadrature):
    for triple in (additive_multimode(SPACE, MARKS), semilinear(SPACE, MARKS)):
        assert check_monotonicity(
            triple, SPACE, SAMPLER, TRIALS, quadrature, seed=13
        ).passed
        assert check_coercivity(
            triple, SPACE, SAMPLER, TRIALS, quadrature, seed=14
        ).passed
        assert check_growth(
            triple, SPACE, SAMPLER, TRIALS, quadrature, seed=15
        ).passed
        assert check_bf_bounds(
            triple, SPACE, SAMPLER, TRIALS, quadrature, seed=16
        ).passed
