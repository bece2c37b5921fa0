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
    SineJumpProfile,
    additive_multimode,
    heat_jump,
    semilinear,
    zero_triple,
)
from spdesim.harness import SuiteConfig, run_condition_suite
from spdesim.noise import AtomMarks, PowerLawMarks
from spdesim.rng import TAG_TRIAL, derive_key, philox_raw
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
    whole = run_condition_suite(triple, SPACE, MARKS, config)
    # 1-row chunks, then chunks of 2 to 100 rows (a check is at least n·n
    # wide), which split 257 trials unevenly
    for values in (1, 100 * SAMPLER.dim**2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coefficients, "SCAN_VALUES", values)
            chunked = run_condition_suite(triple, SPACE, MARKS, config)
        for got, want in zip(whole, chunked):
            assert (got.condition_id, got.trials, got.passed) == (
                want.condition_id, want.trials, want.passed
            )
            assert got.witness.get("trial") == want.witness.get("trial")
            assert got.witness.get("sample") == want.witness.get("sample")
            assert got.worst_violation == pytest.approx(want.worst_violation, rel=1e-12)


class Recording:
    """An evaluator that records the batch shape of every call, followed by
    the number of marks it was given, if any."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.batches = []

    def __call__(self, t, x, *marks):
        self.batches.append(np.shape(x)[:-1] + tuple(np.size(m) for m in marks))
        return self.evaluate(t, x, *marks)


@pytest.mark.parametrize("trials", [2000, 10_000])
def test_a_declared_profile_is_scanned_in_chunks_of_its_products(base, trials):
    # a check of heat_jump is n·n wide, so at n = 8 it scans 2,048 trials
    # per chunk: the 2,000 of a benchmark block as one array
    rows = coefficients.SCAN_VALUES // SAMPLER.dim**2
    assert rows == 2048
    names = ("eval_A", "eval_B", "jump_profile")
    recorded = {name: Recording(getattr(base, name)) for name in names}
    triple = dataclasses.replace(base, **recorded)
    run_condition_suite(triple, SPACE, MARKS, SuiteConfig(trials=trials, seed=5))
    chunks = [(min(rows, trials - lo),) for lo in range(0, trials, rows)]
    pairs = [p for chunk in chunks for p in (chunk, chunk)]
    # C1 and PropBF evaluate at x and y, C2 at x; C3 evaluates A alone at x,
    # and the hemicontinuity probe A at one state and 40 shifted ones
    assert recorded["eval_A"].batches == pairs + chunks + chunks + [(), (40,)]
    assert recorded["eval_B"].batches == pairs + chunks + pairs
    assert recorded["jump_profile"].batches == pairs + chunks + pairs


def test_an_undeclared_F_stays_within_the_scan_values(base, quadrature):
    recording = Recording(base.eval_F)
    triple = dataclasses.replace(base, jump_profile=None, eval_F=recording)
    trials, n, k = 2000, SAMPLER.dim, quadrature.nodes.size
    rows = coefficients.SCAN_VALUES // (n * k)
    assert (k, rows) == (80, 204)
    run_condition_suite(triple, SPACE, MARKS, SuiteConfig(trials=trials, seed=6))
    at_nodes = [p for p, marks in recording.batches if marks == k]
    assert max(at_nodes) * n * k <= coefficients.SCAN_VALUES
    # C1 and PropBF evaluate F at x and y, C2 at x, each once per chunk
    assert len(at_nodes) == 5 * math.ceil(trials / rows)
    assert sum(at_nodes) == 5 * trials


def _fingerprint(reports):
    return [
        (r.condition_id, r.trials, np.float64(r.worst_violation).tobytes(),
         r.witness, r.passed)
        for r in reports
    ]


def _clear_shared():
    """Empty both module caches of the condition checks: draws and profile
    values."""
    coefficients._trial_draws.cache_clear()
    coefficients._profile_values.cache_clear()


@pytest.mark.parametrize("trials", [1, 257, 2000])
@pytest.mark.parametrize("name", sorted(_suite_triples()))
def test_shared_draws_give_the_reports_of_a_cold_run(name, trials):
    """A suite on triple B after one on triple A reuses A's draws, and A's
    profile values where the profiles are equal, and reports what B
    reports from cold caches, bit for bit."""
    triples = _suite_triples()
    config = SuiteConfig(trials=trials, seed=31)
    _clear_shared()
    cold = run_condition_suite(triples[name], SPACE, MARKS, config)
    for other in sorted(set(triples) - {name}):
        _clear_shared()
        run_condition_suite(triples[other], SPACE, MARKS, config)
        warm = run_condition_suite(triples[name], SPACE, MARKS, config)
        assert _fingerprint(warm) == _fingerprint(cold)


def test_a_repeated_suite_config_draws_no_trials(monkeypatch):
    counts = []

    def counting(key, count):
        counts.append(count)
        return philox_raw(key, count)

    monkeypatch.setattr(coefficients, "philox_raw", counting)
    coefficients._trial_draws.cache_clear()
    triples = _suite_triples()
    config = SuiteConfig(trials=300, seed=8)
    run_condition_suite(triples["base"], SPACE, MARKS, config)
    # one call per sampled check: at n = 8 a pair row is 18 outputs padded
    # to 20, a point row 9 padded to 12
    assert counts == [300 * 20, 300 * 12, 300 * 12, 300 * 20]
    run_condition_suite(triples["semilinear"], SPACE, MARKS, config)
    assert len(counts) == 4


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


def _profile_triples():
    """``heat_jump`` and the four mutations the condition benchmark checks,
    all five with the jump profile SineJumpProfile(0.1)."""
    base = heat_jump(SPACE, MARKS)
    return {
        "base": base,
        "theta": heat_jump(SPACE, MARKS, theta=1.2, lambda_const=0.375),
        "alpha": heat_jump(SPACE, MARKS, alpha=1.0),
        "anti": dataclasses.replace(
            base, eval_A=LinearDrift(-base.linear_A), linear_A=-base.linear_A
        ),
        "reaction": heat_jump(SPACE, MARKS, reaction=5.0),
    }


@pytest.mark.parametrize("trials", [2000, 10_000])
def test_equal_profiles_are_evaluated_once_per_check_state_and_chunk(
    trials, monkeypatch
):
    batches = []
    call = SineJumpProfile.__call__

    def recording(self, t, x):
        batches.append(len(x))
        return call(self, t, x)

    monkeypatch.setattr(SineJumpProfile, "__call__", recording)
    coefficients._profile_values.cache_clear()
    triples = _profile_triples()
    assert len({triple.jump_profile for triple in triples.values()}) == 1
    rows = coefficients.SCAN_VALUES // SAMPLER.dim**2
    chunks = [min(rows, trials - lo) for lo in range(0, trials, rows)]
    pairs = [p for chunk in chunks for p in (chunk, chunk)]
    config = SuiteConfig(trials=trials, seed=9)
    for triple in triples.values():
        run_condition_suite(triple, SPACE, MARKS, config)
        # C1 and PropBF at x and y, C2 at x, chunk by chunk, for the first
        # triple only
        assert batches == pairs + chunks + pairs


def test_shared_profile_values_are_read_only(base, quadrature):
    coefficients._profile_values.cache_clear()
    check_monotonicity(base, SPACE, SAMPLER, 40, quadrature, seed=3)
    rows = coefficients.SCAN_VALUES // SAMPLER.dim**2
    (chunk,) = coefficients._profile_values(
        base.jump_profile, SAMPLER, "pairs", 3, 40, rows
    )
    assert coefficients._profile_values.cache_info().hits == 1
    t, x, y = coefficients._trial_draws(SAMPLER, "pairs", 3, 40)
    for state, values in zip((x, y), chunk):
        assert values.tobytes() == base.jump_profile(t, state).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


@dataclasses.dataclass(frozen=True)
class ScaledSine:
    """x -> amplitude · sin(x) coordinate by coordinate; the ndarray field
    makes it unhashable."""

    amplitude: np.ndarray

    def __call__(self, t, x):
        out = np.sin(np.asarray(x, dtype=float))
        out *= self.amplitude[: np.shape(x)[-1]]
        return out


def test_an_unhashable_profile_is_scanned_without_sharing(base):
    profile = ScaledSine(np.full(SPACE.dim, 0.1))
    with pytest.raises(TypeError):
        hash(profile)
    triple = dataclasses.replace(base, jump_profile=profile)
    config = SuiteConfig(trials=257, seed=12)
    coefficients._profile_values.cache_clear()
    got = run_condition_suite(triple, SPACE, MARKS, config)
    assert coefficients._profile_values.cache_info().currsize == 0
    # the same values as the base triple's SineJumpProfile(0.1)
    assert _fingerprint(got) == _fingerprint(
        run_condition_suite(base, SPACE, MARKS, config)
    )


class PatchyDrift:
    """The base drift, NaN wherever the first coordinate exceeds 4."""

    def __init__(self, drift):
        self.drift = drift

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x[..., :1] > 4.0, np.nan, self.drift(t, x))


@pytest.mark.parametrize(
    "check, draw",
    [(check_monotonicity, "pair"), (check_coercivity, "point"), (check_growth, "point")],
)
def test_first_non_finite_trial_is_the_witness(
    base, quadrature, check, draw, monkeypatch
):
    # base has one Wiener mode and a declared profile: every check is n·n
    # wide and scans 256 trials at a time
    monkeypatch.setattr(coefficients, "SCAN_VALUES", 256 * SAMPLER.dim**2)
    patchy = dataclasses.replace(base, eval_A=PatchyDrift(base.eval_A), linear_A=None)
    trials, seed = 600, 21
    # the rows of the check's stream, drawn outside the check
    columns = getattr(SAMPLER, draw + "s")(derive_key(seed, TAG_TRIAL), trials)
    samples = list(zip(*columns))
    bad = [j for j, sample in enumerate(samples) if any(s[0] > 4.0 for s in sample[1:])]
    assert bad and bad[-1] >= 256  # a later chunk has one too
    witness = [np.asarray(s).tolist() for s in samples[bad[0]]]
    with pytest.raises(ValueError) as err:
        check(patchy, SPACE, SAMPLER, trials, quadrature, seed=seed)
    assert str(err.value).endswith(f"non-finite evaluation at witness {witness}")


# The first two rows of each draw kind from the trial stream of seed 3 at
# horizon 1.5, column by column as little-endian float64 bytes.  Row 0 of
# the pairs takes the bump at n = 1 and a fresh y at n = 8, row 1 the other.
_PINNED_ROWS = {
    (1, "points"): (
        "7badb81a11c7d93ff0e448cd4591af3f",
        "00000000000000006099b0e92201f03f",
    ),
    (1, "pairs"): (
        "7badb81a11c7d93ff0e448cd4591af3f",
        "8e729933b3d304406099b0e92201f03f",
        "4069e0d73967db3feb44a581588313c0",
    ),
    (8, "points"): (
        "7badb81a11c7d93fc360dc479f33d53f",
        (
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "fc9acc50e7bb06c030c06f47fea10840786452a58ad010c0732e3c1f881411c0"
            "90bfa6e665badcbff208fe15a1d511c078923bc135a9e1bfd0843e1e5b7f12c0"
        ),
    ),
    (8, "pairs"): (
        "7badb81a11c7d93f70701c882ad9ac3f",
        (
            "8e729933b3d30440082efa56328de83f66659df8cb66f1bf1434a4b2195b12c0"
            "6099b0e92201f03fb440883d34a0f7bfeb44a581588313c0240a5af096741340"
            "74f4befcad5210c03896146d4de50c40373a5f21516d08c0002fc3ddabffad3f"
            "c014093206af134040ab2da44548cc3f2a855f9ce0b2134040f3fff13464e53f"
        ),
        (
            "443ca05a2a3f0840f88d8161d84cef3f5eaf1d44fb5406c0fc9acc50e7bb06c0"
            "30c06f47fea10840786452a58ad010c0732e3c1f881411c090bfa6e665badcbf"
            "74f4befcad5210c03896146d4de50c40373a5f21516d08c0002fc3ddabffad3f"
            "c014093206af134042c09e64a81c0ec02a855f9ce0b2134040f3fff13464e53f"
        ),
    ),
}


@pytest.mark.parametrize("dim, kind", sorted(_PINNED_ROWS))
def test_first_rows_of_a_trial_stream_are_pinned(dim, kind):
    # numpy keeps the raw Philox stream stable: a change in it, or in how a
    # row maps to a sample, changes every condition report
    sampler = BoxSampler(dim=dim, horizon=1.5)
    columns = getattr(sampler, kind)(derive_key(3, TAG_TRIAL), 2)
    got = [np.asarray(c, "<f8").tobytes().hex() for c in columns]
    assert got == list(_PINNED_ROWS[dim, kind])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    dim=st.sampled_from([1, 2, 3, 5, 8, 32]),
    data=st.data(),
)
def test_a_trial_is_the_map_of_its_own_counter_blocks(seed, dim, data):
    # trial j of w raw outputs is blocks j·w/4 .. (j+1)·w/4 − 1 of the
    # check's stream, drawn here alone; repeating that row for every trial
    # maps it at position j, where trial 0 alone is the origin of `points`
    trials = data.draw(st.integers(1, 40))
    j = data.draw(st.integers(0, trials - 1))
    key = derive_key(seed, TAG_TRIAL)
    sampler = BoxSampler(dim=dim, horizon=1.5)
    for kind, count in (("points", 1 + dim), ("pairs", 2 * dim + 2)):
        width = -(-count // 4) * 4
        row = np.random.Philox(key=key).advance(j * width // 4).random_raw(width)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                coefficients, "philox_raw", lambda _, count: np.tile(row, count // width)
            )
            alone = getattr(sampler, kind)(key, trials)
        drawn = getattr(sampler, kind)(key, trials)
        assert [c[j].tobytes() for c in drawn] == [c[j].tobytes() for c in alone]


def test_fewer_trials_draw_the_first_rows_of_more():
    key = derive_key(17, TAG_TRIAL)
    for kind in ("points", "pairs"):
        few = getattr(SAMPLER, kind)(key, 2_000)
        many = getattr(SAMPLER, kind)(key, 10_000)
        assert [c.tobytes() for c in few] == [c[:2_000].tobytes() for c in many]


def test_verdicts_hold_for_forty_seeds():
    """heat_jump passes every check, and each mutation of criterion 09
    fails the check it targets, at 2,000 trials for seeds 0 to 39."""
    base = heat_jump(SPACE, MARKS)
    anti = dataclasses.replace(
        base, eval_A=LinearDrift(-base.linear_A), linear_A=-base.linear_A
    )
    mutations = [
        ("C2", heat_jump(SPACE, MARKS, theta=1.2, lambda_const=0.375)),
        ("C3", heat_jump(SPACE, MARKS, alpha=1.0)),
        ("C1", anti),
        ("C1", heat_jump(SPACE, MARKS, reaction=5.0)),
    ]
    for seed in range(40):
        config = SuiteConfig(trials=2_000, seed=seed)
        reports = run_condition_suite(base, SPACE, MARKS, config)
        assert all(r.passed for r in reports), (seed, [str(r) for r in reports])
        for target, triple in mutations:
            reports = run_condition_suite(triple, SPACE, MARKS, config)
            passed = {r.condition_id: r.passed for r in reports}
            assert not passed[target], (seed, target)


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
    # the trials of one chunk: F's (P, n, k) values fill SCAN_VALUES
    rows = coefficients.SCAN_VALUES // (SAMPLER.dim * quadrature.nodes.size)
    check_bf_bounds(triple, SPACE, SAMPLER, rows, quadrature)
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


def test_scaling_evaluators_return_fresh_arrays_of_the_plain_expression():
    """`MatrixNoise`, `SineJumpProfile` and `LinearDrift` return fresh
    writable arrays with the bits of their plain expressions, x @ Sᵀ[:n, :n]
    with S = θ·D taken once, a·sin(x) and x @ Aᵀ, and leave the state as it
    was.  The noise value is within the rounding of both products of
    θ·(x @ Dᵀ): one dot product of n terms each, and the two scalings."""
    theta = 0.3
    triple = heat_jump(SPACE, MARKS, theta=theta, lipschitz=0.7)
    assert type(triple.eval_B).__name__ == "MatrixNoise"
    assert type(triple.jump_profile).__name__ == "SineJumpProfile"
    assert type(triple.eval_A).__name__ == "LinearDrift"
    D, A = triple.eval_B.matrix, triple.linear_A
    scaled_t = np.ascontiguousarray((theta * D).T)
    rng = np.random.default_rng(13)
    for shape in [(8,), (5, 8), (4, 6), (3, 5, 7)]:
        n = shape[-1]
        x = rng.uniform(-5.0, 5.0, shape)
        stacked = np.broadcast_to(x, (TIME_POINTS,) + shape)
        x.flags.writeable = False
        before = x.copy()
        for state in (x, stacked):
            cases = [
                (triple.eval_B, (state @ scaled_t[:n, :n])[..., None]),
                (triple.jump_profile, 0.7 * np.sin(state)),
                (triple.eval_A, state @ A[:n, :n].T),
            ]
            for fn, want in cases:
                got = fn(0.5, state)
                assert isinstance(got, np.ndarray) and got.flags.writeable
                assert not np.shares_memory(got, x)
                assert not np.shares_memory(got, fn(0.5, state))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            plain = theta * (state @ D[:n, :n].T)
            scale = theta * (np.abs(state) @ np.abs(D[:n, :n]).T)
            gap = np.abs(triple.eval_B(0.5, state)[..., 0] - plain)
            assert (gap <= (n + 1) * np.finfo(float).eps * scale).all()
        assert x.tobytes() == before.tobytes()


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
