import base64
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdesim.noise import (
    DRAW_PATHS,
    AtomMarks,
    NoiseBundle,
    PowerLawMarks,
    TimeGrid,
    build_partition,
    bundle_from_json,
    bundle_to_json,
    coarsen,
    read_block,
    sample_bundles,
)
from spdesim.rng import (
    TAG_PATH,
    TAG_WIENER,
    derive_key,
    make_generator,
    normals_from_keys,
    rekeyed_generator,
)

MARKS = PowerLawMarks()
ATOMS = AtomMarks(positions=(0.25, 0.5, 1.0), weights=(1.0, 2.0, 0.5))


def test_grid_knots_cover_horizon():
    grid = TimeGrid(2.0, 8)
    assert grid.delta == pytest.approx(0.25)
    assert grid.knots[0] == 0.0
    assert grid.knots[-1] == pytest.approx(2.0, abs=1e-15)
    assert (np.diff(grid.knots) > 0).all()


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)


@pytest.mark.parametrize("level,mass", [(1, 2.0), (2, 6.0), (3, 14.0)])
def test_power_law_level_masses(level, mass):
    assert MARKS.total_mass(level) == pytest.approx(mass, rel=1e-12)


def test_weight_mass_at_beta_two_is_the_log_of_the_cell_ratio():
    # at beta = 2 the closed form of ∫ ξ ν(dξ) = ∫ dξ/ξ is log(hi/lo), the
    # branch the exponent 2 − beta = 0 takes; 8 Gauss–Legendre nodes of
    # `cell_rule` per cell agree, and the cells of E^3 add up to log 4^3
    marks = PowerLawMarks(beta=2.0)
    edges = marks.cell_edges(3)
    lo, hi = edges[:-1], edges[1:]
    got = marks.weight_mass(lo, hi)
    assert got.tobytes() == np.log(hi / lo).tobytes()
    nodes, weights = marks.cell_rule(lo, hi, 8)
    np.testing.assert_allclose(got, (weights * nodes).sum(axis=1), rtol=1e-12)
    assert got.sum() == pytest.approx(3.0 * np.log(4.0), rel=1e-14)


def test_power_law_tail_mass():
    # closed form of the squared-weight tail below the level cutoff
    for level in (1, 2, 3):
        eps = MARKS.epsilon(level)
        assert MARKS.tail_mass_sq(level) == pytest.approx(
            (2.0 / 3.0) * eps**1.5, rel=1e-12
        )


def test_partition_level_one():
    part = build_partition(MARKS, 1)
    assert part.size >= 3
    assert part.nu.sum() == pytest.approx(2.0, rel=1e-10)
    assert ((part.hi - part.lo) < MARKS.epsilon(1)).all()
    assert part.parent is None


def test_partition_level_two_refines_level_one():
    coarse = build_partition(MARKS, 1)
    fine = build_partition(MARKS, 2)
    assert ((fine.hi - fine.lo) < MARKS.epsilon(2)).all()
    assert fine.nu.sum() == pytest.approx(6.0, rel=1e-10)
    inside = fine.parent >= 0
    # every refined cell sits in exactly one coarse cell
    assert np.array_equal(inside, fine.lo >= MARKS.epsilon(1) - 1e-15)
    for j in np.nonzero(inside)[0]:
        p = fine.parent[j]
        assert coarse.lo[p] <= fine.lo[j] and fine.hi[j] <= coarse.hi[p] + 1e-15


def test_partition_cells_fit_shells():
    # shell k spans marks in [eps_k, eps_{k-1}); each cell lies in the first
    # shell whose inner cutoff is at or below its left end
    part = build_partition(MARKS, 3)
    for j in range(part.size):
        k = next(k for k in range(1, 4) if MARKS.epsilon(k) - 1e-15 <= part.lo[j])
        assert part.hi[j] <= MARKS.epsilon(k - 1) + 1e-15


def test_atom_partition():
    atoms = AtomMarks(positions=(0.2, 0.5, 0.9), weights=(1.0, 2.0, 0.5))
    part = build_partition(atoms, 2)
    assert part.size == 3
    assert part.nu.sum() == pytest.approx(3.5)
    located = part.locate(np.array([0.5, 0.9, 0.3]))
    assert list(located) == [1, 2, -1]


def test_bundle_determinism_and_shape():
    grid = TimeGrid(1.0, 16)
    a = sample_bundles([12345], grid, 3, MARKS, 2)[0]
    b = sample_bundles([12345], grid, 3, MARKS, 2)[0]
    assert a.wiener.shape == (3, 16)
    assert np.array_equal(a.wiener, b.wiener)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_marks, b.jump_marks)
    assert (a.jump_marks >= MARKS.epsilon(2)).all()
    assert ((a.jump_times > 0) & (a.jump_times <= 1.0)).all()


def test_block_drawn_bundles_are_the_one_path_bundles():
    # 19 paths fill two draw groups and part of a third; the seeds include
    # a negative one and keys of 2^63 and above
    grid = TimeGrid(1.0, 64)
    seeds = [derive_key(3, TAG_PATH, j) for j in range(17)] + [-5, 2**64 - 1]
    assert len(seeds) > 2 * DRAW_PATHS and len(seeds) % DRAW_PATHS
    assert any(seed >= 2**63 for seed in seeds)
    for modes in (0, 1, 3):
        block = sample_bundles(seeds, grid, modes, MARKS, 2)
        assert len(block) == len(seeds)
        mode_idx = np.arange(1, modes + 1, dtype=np.uint64)[:, None]
        step_idx = np.arange(1, grid.m + 1, dtype=np.uint64)[None, :]
        for seed, bundle in zip(seeds, block):
            alone = sample_bundles([seed], grid, modes, MARKS, 2)[0]
            for field in dataclasses.fields(NoiseBundle):
                got, want = getattr(bundle, field.name), getattr(alone, field.name)
                if isinstance(got, np.ndarray):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                else:
                    assert got == want
            # every increment is the draw of its own key, as one path takes it
            keys = derive_key(seed, TAG_WIENER, mode_idx, step_idx)
            want = normals_from_keys(keys) * np.sqrt(grid.delta)
            assert bundle.wiener.tobytes() == want.tobytes()


def test_bundle_rejects_empty_mass():
    grid = TimeGrid(1.0, 4)
    empty = AtomMarks(positions=(0.5,), weights=(0.0,))
    with pytest.raises(ValueError):
        sample_bundles([1], grid, 1, empty, 1)


@pytest.mark.parametrize("position", [float("inf"), float("-inf"), float("nan")])
def test_atoms_reject_a_position_that_is_not_finite(position):
    # one atom passes the increasing-positions check whatever its position
    with pytest.raises(ValueError, match="atom positions must be finite"):
        AtomMarks(positions=(position,), weights=(1.0,))
    payload = _bundle_payload(ATOMS)
    payload["atom_positions"][-1] = position
    with pytest.raises(
        ValueError, match="bundle field atom_positions: atom positions must be finite"
    ):
        bundle_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "name, values, message",
    [
        ("atom_positions", [0.5, 0.25, 1.0], "atom positions must be strictly increasing"),
        ("atom_positions", [], "atoms need matching non-empty position/weight lists"),
        ("atom_weights", [1.0, -2.0, 0.5], "atom weights must be finite and non-negative"),
        ("atom_weights", [1.0, 2.0], "atoms need matching non-empty position/weight lists"),
    ],
    ids=["unsorted-positions", "no-positions", "negative-weight", "short-weights"],
)
def test_bundle_json_names_the_atom_list_the_atoms_reject(name, values, message):
    payload = _bundle_payload(ATOMS)
    payload[name] = values
    with pytest.raises(ValueError, match=f"bundle field {name}: {message}"):
        bundle_from_json(json.dumps(payload))


def test_wiener_moments():
    grid = TimeGrid(1.0, 8)
    data = np.stack([b.wiener for b in sample_bundles(range(2000), grid, 2, MARKS, 1)])
    var = data.var(axis=0)
    assert np.abs(data.mean()) < 4 * np.sqrt(grid.delta / data.size)
    assert np.allclose(var, grid.delta, rtol=0.15)
    # cross-mode independence: sample correlation stays in the noise band
    corr = np.corrcoef(data[:, 0, 0], data[:, 1, 0])[0, 1]
    assert abs(corr) < 0.1


def test_jump_count_mean():
    grid = TimeGrid(1.0, 4)
    bundles = sample_bundles(range(4000), grid, 1, MARKS, 2)
    counts = [bundle.jump_times.size for bundle in bundles]
    mean = np.mean(counts)
    # Poisson(6): 4 sigma band at this sample size
    assert abs(mean - 6.0) < 4 * np.sqrt(6.0 / len(counts))


def _wiener(bundles, m, modes):
    """The (bundles, modes, m) Wiener increments of an m-step grid, read
    through `read_block` in one chunk."""
    dw, _ = read_block(bundles).knot_chunks(m, 1, modes, False, 1, m)(1, m)
    return dw.transpose(1, 2, 0)


def _increments(bundles, partition, grid, i):
    """The (bundles, cells) compensated cell increments of step i, read
    through `read_block` one step at a time."""
    noise = read_block(bundles).knot_chunks(grid.m, partition.level, 0, False, 1, 1)
    return noise(i, 1)[1][0]


def test_coarsen_telescopes_exactly():
    grid = TimeGrid(1.0, 4)
    bundle = sample_bundles([5], grid, 2, MARKS, 1)[0]
    coarse = _wiener([bundle], 2, 2)[0]
    fine = bundle.wiener
    assert coarse[0, 0] == fine[0, 0] + fine[0, 1]
    assert coarse[1, 1] == fine[1, 2] + fine[1, 3]
    assert np.array_equal(_wiener([bundle], 4, 2)[0], fine)


def test_coarsen_rejects_non_divisor():
    bundle = sample_bundles([5], TimeGrid(1.0, 4), 1, MARKS, 1)[0]
    with pytest.raises(ValueError, match="bundle grid 4 not divisible by m = 3"):
        _wiener([bundle], 3, 1)
    with pytest.raises(ValueError, match="bundle has 1 modes, need 5"):
        _wiener([bundle], 2, 5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    tag=st.integers(0, 255),
    indices=st.lists(st.integers(0, 2**63), min_size=1, max_size=16),
    data=st.data(),
)
def test_derive_key_over_an_index_array_equals_scalar_calls(seed, tag, indices, data):
    keys = derive_key(seed, tag, np.array(indices, dtype=np.uint64))
    assert keys.tolist() == [derive_key(seed, tag, i) for i in indices]
    order = data.draw(st.permutations(range(len(indices))))
    permuted = derive_key(seed, tag, np.array(indices, dtype=np.uint64)[order])
    assert np.array_equal(permuted, keys[order])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**65),
    parts=st.lists(st.integers(0, 2**64 - 1), max_size=4),
)
def test_derive_key_of_python_ints_equals_the_uint64_arithmetic(seed, parts):
    # Python int parts take the Python-arithmetic path, uint64 scalars the
    # array path; both give the same key
    want = derive_key(seed, *(np.uint64(p) for p in parts))
    got = derive_key(seed, *parts)
    assert type(got) is int and got == want
    with pytest.raises(OverflowError):
        derive_key(seed, *parts, -1)
    with pytest.raises(OverflowError):
        derive_key(seed, 2**64, *parts)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
def test_rekeyed_generator_draws_what_a_fresh_generator_draws(keys):
    # each stream starts fresh, whatever the previous key's stream left in
    # the bit generator's buffer and its cached 32-bit half
    for k in keys:
        gen = rekeyed_generator(k)
        got = (gen.poisson(24.0), gen.random(3), gen.integers(0, 9, 3, dtype=np.uint32))
        fresh = make_generator(k)
        want = (fresh.poisson(24.0), fresh.random(3), fresh.integers(0, 9, 3, dtype=np.uint32))
        assert [np.asarray(v).tobytes() for v in got] == [
            np.asarray(v).tobytes() for v in want
        ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    m_coarse=st.sampled_from([1, 2, 64, 512, 4096]),
    modes=st.integers(1, 2),
)
def test_coarse_increments_are_bit_exact_sums_of_fine_ones(seed, m_coarse, modes):
    bundle = sample_bundles([seed], TimeGrid(1.0, 4096), 2, MARKS, 1)[0]
    factor = 4096 // m_coarse
    want = [
        [bundle.wiener[j, i * factor : (i + 1) * factor].sum() for i in range(m_coarse)]
        for j in range(modes)
    ]
    # a grid has at least two steps: the one-step sum is `coarsen`'s alone,
    # the summation the reader takes
    if m_coarse == 1:
        got = coarsen(bundle.wiener[:modes], factor)
    else:
        got = _wiener([bundle], m_coarse, modes)[0]
    assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    level=st.integers(2, 4),
    marks=st.sampled_from([MARKS, PowerLawMarks(beta=1.2), ATOMS]),
)
def test_cell_counts_aggregate_through_parent(seed, level, marks):
    # a bundle large enough to put jumps in most cells
    bundle = sample_bundles([seed], TimeGrid(8.0, 2), 0, marks, level)[0]
    fine = build_partition(marks, level)
    coarse = build_partition(marks, level - 1)
    fine_counts = np.bincount(fine.locate(bundle.jump_marks), minlength=fine.size)
    inside = fine.parent >= 0
    summed = np.bincount(
        fine.parent[inside], weights=fine_counts[inside], minlength=coarse.size
    )
    cells = coarse.locate(bundle.jump_marks)
    want = np.bincount(cells[cells >= 0], minlength=coarse.size)
    assert np.array_equal(summed, want)


def test_coarse_increment_variance():
    grid = TimeGrid(1.0, 8)
    vals = _wiener(sample_bundles(range(4000), grid, 1, MARKS, 1), 2, 1)[:, 0, 0]
    assert np.var(vals) == pytest.approx(0.5, rel=0.1)


def _manual_bundle(times, marks_vals, level=2, m=4, T=1.0):
    order = np.argsort(times)
    return NoiseBundle(
        T=T,
        m=m,
        l_modes=0,
        l_level=level,
        master_seed=0,
        wiener=np.zeros((0, m)),
        jump_times=np.asarray(times, dtype=float)[order],
        jump_marks=np.asarray(marks_vals, dtype=float)[order],
        marks=MARKS,
    )


def test_compensated_increment_single_jump():
    # cell [0.25, 0.4375) at level 1 has mass 2(2 - 1.5119...) but use the
    # definitional check: one jump in-window minus delta * nu.
    part = build_partition(MARKS, 1)
    grid = TimeGrid(1.0, 4)
    bundle = _manual_bundle([0.1], [0.3], level=1)
    inc = _increments([bundle], part, grid, 1)[0]
    j = int(part.locate(np.array([0.3]))[0])
    expect = -grid.delta * part.nu
    expect[j] += 1.0
    assert np.allclose(inc, expect, atol=1e-15)


def test_compensated_increment_no_jumps():
    part = build_partition(MARKS, 2)
    grid = TimeGrid(1.0, 4)
    bundle = _manual_bundle([], [])
    inc = _increments([bundle], part, grid, 2)[0]
    assert np.allclose(inc, -grid.delta * part.nu, atol=1e-16)


def test_compensated_increment_window_is_left_open():
    part = build_partition(MARKS, 1)
    grid = TimeGrid(1.0, 4)
    # jump exactly at a knot belongs to the window ending there
    bundle = _manual_bundle([0.25, 0.5], [0.5, 0.5], level=1)
    inc1 = _increments([bundle], part, grid, 1)[0]
    inc2 = _increments([bundle], part, grid, 2)[0]
    j = int(part.locate(np.array([0.5]))[0])
    assert inc1[j] == pytest.approx(1.0 - grid.delta * part.nu[j])
    assert inc2[j] == pytest.approx(1.0 - grid.delta * part.nu[j])


def test_cross_level_aggregation_exact():
    fine = build_partition(MARKS, 3)
    coarse = build_partition(MARKS, 2)
    grid = TimeGrid(1.0, 4)
    for seed in range(50):
        bundle = sample_bundles([seed], grid, 0, MARKS, 3)[0]
        inc_f = _increments([bundle], fine, grid, 2)[0]
        inc_c = _increments([bundle], coarse, grid, 2)[0]
        counts_f = inc_f + grid.delta * fine.nu
        counts_c = inc_c + grid.delta * coarse.nu
        for p in range(coarse.size):
            children = np.nonzero(fine.parent == p)[0]
            # integer counts aggregate exactly, compensators additively
            assert counts_f[children].sum() == pytest.approx(counts_c[p], abs=1e-9)
            assert inc_f[children].sum() == pytest.approx(inc_c[p], abs=1e-12)


def test_level_restriction_commutes_with_increments():
    # marks outside the partition's level set are ignored, so a bundle
    # sampled at a deeper level reproduces the shallow-level increments
    part = build_partition(MARKS, 1)
    grid = TimeGrid(1.0, 4)
    bundle = _manual_bundle([0.2, 0.6, 0.9], [0.3, 0.1, 0.8], level=2)
    shallow = _manual_bundle([0.2, 0.9], [0.3, 0.8], level=1)
    for i in (1, 2, 3, 4):
        got = _increments([bundle], part, grid, i)[0]
        want = _increments([shallow], part, grid, i)[0]
        assert np.array_equal(got, want)


def test_increment_level_guard():
    part = build_partition(MARKS, 3)
    bundle = _manual_bundle([0.2], [0.5], level=2)
    with pytest.raises(ValueError):
        _increments([bundle], part, TimeGrid(1.0, 4), 1)


def _mixed_block(grid):
    """Sampled bundles at level 3, some with marks outside E^2, a bundle
    without jumps, a bundle with jumps on knots (one of them outside E^2)
    and one with a jump at T."""
    sampled = sample_bundles(range(40, 44), grid, 0, MARKS, 3)
    part = build_partition(MARKS, 2)
    assert any((part.locate(b.jump_marks) < 0).any() for b in sampled)
    on_knots = _manual_bundle(
        grid.knots[[1, 7, 7, 30, grid.m]], [0.5, 0.1, 1.0, 0.03, 0.5], level=3, m=grid.m
    )
    empty = _manual_bundle([], [], m=grid.m)
    at_T = _manual_bundle([grid.T], [0.5], m=grid.m)
    return sampled[:2] + [empty, on_knots] + sampled[2:] + [at_T]


def test_block_increments_are_the_one_bundle_increments():
    # 49·(1/49) rounds below 1, so the last knot is T itself
    grid = TimeGrid(1.0, 49)
    part = build_partition(MARKS, 2)
    block = _mixed_block(grid)
    counts = np.zeros((len(block), part.size))
    for i in range(1, grid.m + 1):
        rows = _increments(block, part, grid, i)
        assert rows.shape == (len(block), part.size)
        for p, bundle in enumerate(block):
            alone = _increments([bundle], part, grid, i)
            assert alone.shape == (1, part.size)
            assert rows[p].tobytes() == alone[0].tobytes()
        step_counts = np.rint(rows + grid.delta * part.nu)
        counts += step_counts
        # the jumps on knots enter the steps ending there; 0.03 is outside E^2
        want = {1: 1, 7: 2, grid.m: 1}.get(i, 0)
        assert step_counts[3].sum() == want
        assert step_counts[-1].sum() == (i == grid.m)
    assert not counts[2].any()
    # over all steps, every jump with a mark in E^2 is counted once
    for p, bundle in enumerate(block):
        cells = part.locate(bundle.jump_marks)
        want = np.bincount(cells[cells >= 0], minlength=part.size)
        assert counts[p].tolist() == want.tolist()


def test_block_increments_guard_every_bundle():
    grid = TimeGrid(1.0, 49)
    part = build_partition(MARKS, 2)
    block = _mixed_block(grid)
    shallow = _manual_bundle([0.2], [0.5], level=1, m=grid.m)
    elsewhere = _manual_bundle([0.2], [0.5], m=grid.m, T=2.0)
    for p in (0, 3, len(block)):
        for bad, match in (
            (shallow, "bundle level 1 < requested l = 2"),
            (elsewhere, "horizon"),
        ):
            with pytest.raises(ValueError, match=match):
                _increments(block[:p] + [bad] + block[p:], part, grid, 1)
    for i in (0, grid.m + 1):
        with pytest.raises(ValueError, match=f"steps {i}..{i} outside 1..49"):
            _increments(block, part, grid, i)


def _check_reader(bundles, m, level, chunk=32):
    """The Wiener and general-form jump chunks that the reader gives the
    configuration (m, level) of a block, against references built from each
    bundle's raw increments and jump list: sums of `bundle.wiener`, and
    compensated counts from ``np.searchsorted`` on the knots, then
    `locate`, then minus δ·ν."""
    grid = TimeGrid(bundles[0].T, m)
    part = build_partition(bundles[0].marks, level)
    paths, modes, factor = len(bundles), bundles[0].l_modes, bundles[0].m // m
    noise = read_block(bundles).knot_chunks(m, level, modes, False, 1, chunk)
    fine = np.stack([bundle.wiener for bundle in bundles])
    wiener = fine.reshape(paths, modes, m, factor).sum(axis=-1).transpose(2, 0, 1)
    steps, rows, cells = [], [], []
    for p, bundle in enumerate(bundles):
        step = np.searchsorted(grid.knots, bundle.jump_times, side="left")
        cell = part.locate(bundle.jump_marks)
        steps.append(step[cell >= 0])
        rows.append(np.full(np.count_nonzero(cell >= 0), p))
        cells.append(cell[cell >= 0])
    steps, rows, cells = map(np.concatenate, (steps, rows, cells))
    assert 1 <= steps.min() and steps.max() <= m
    for lo in range(1, m + 1, chunk):
        k = min(chunk, m + 1 - lo)
        dw, jump = noise(lo, k)
        assert dw.tobytes() == wiener[lo - 1 : lo - 1 + k].tobytes()
        here = (steps >= lo) & (steps < lo + k)
        want = np.zeros((k, paths, part.size))
        np.add.at(want, (steps[here] - lo, rows[here], cells[here]), 1.0)
        want -= grid.delta * part.nu
        assert np.array_equal(jump, want)
    return steps.size


def test_the_reader_bins_criterion_07_paths_at_every_rung():
    # criterion 07's first block: 64 paths at (4096, level 5), on each of
    # its rungs and its reference
    seeds = [derive_key(20240501, TAG_PATH, j) for j in range(64)]
    bundles = sample_bundles(seeds, TimeGrid(1.0, 4096), 1, MARKS, 5)
    jumps = [_check_reader(bundles, m, level) for m, level in
             ((64, 2), (256, 3), (1024, 4), (4096, 5))]
    # a deeper level reads every mark a shallower one reads, and more
    assert jumps == sorted(jumps) and jumps[0] > 0 and jumps[-1] > jumps[-2]


def test_the_reader_bins_atom_marks():
    bundles = sample_bundles(range(20, 36), TimeGrid(2.0, 64), 2, ATOMS, 2)
    for m, level in ((16, 1), (64, 2)):
        assert _check_reader(bundles, m, level, chunk=5) > 0


def test_the_reader_bins_a_grid_that_is_not_a_power_of_two():
    # m = 49 inside M = 196, with jumps on the knots of the 49-step grid, a
    # mark outside E^2 (0.03) and a jump at T, which the last knot is
    grid = TimeGrid(1.0, 49)
    on_knots = NoiseBundle(
        T=1.0,
        m=196,
        l_modes=1,
        l_level=3,
        master_seed=0,
        wiener=np.random.default_rng(5).normal(0.0, 196**-0.5, (1, 196)),
        jump_times=grid.knots[[1, 7, 7, 30, 49]],
        jump_marks=np.array([0.5, 0.1, 1.0, 0.03, 0.5]),
        marks=MARKS,
    )
    bundles = sample_bundles(range(60, 66), TimeGrid(1.0, 196), 1, MARKS, 3)
    bundles.insert(2, on_knots)
    for m, level in ((49, 2), (98, 1), (196, 3)):
        assert _check_reader(bundles, m, level) > 0


@pytest.mark.parametrize(
    "times, marks_vals",
    [([0.3, 0.5, 0.7], [0.5, 0.9]), ([0.3, 0.5], [0.9, 0.5, 0.7]), ([[0.3]], [[0.5]])],
    ids=["more-times", "more-marks", "nested"],
)
def test_bundle_rejects_jump_lists_that_are_not_flat_and_of_equal_length(
    times, marks_vals
):
    # unequal lists would hand one path's marks to the next path's jumps in
    # a block's jump events
    with pytest.raises(ValueError, match="jump times and marks must be flat lists"):
        NoiseBundle(
            T=1.0,
            m=4,
            l_modes=0,
            l_level=2,
            master_seed=0,
            wiener=np.zeros((0, 4)),
            jump_times=np.array(times),
            jump_marks=np.array(marks_vals),
            marks=MARKS,
        )


def test_bundle_json_roundtrip():
    grid = TimeGrid(1.0, 8)
    bundle = sample_bundles([77], grid, 2, MARKS, 2)[0]
    clone = bundle_from_json(bundle_to_json(bundle))
    assert np.array_equal(clone.wiener, bundle.wiener)
    assert np.array_equal(clone.jump_times, bundle.jump_times)
    assert np.array_equal(clone.jump_marks, bundle.jump_marks)
    assert clone.marks.beta == MARKS.beta


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    m=st.integers(2, 16),
    modes=st.integers(0, 3),
    level=st.integers(1, 3),
    marks=st.sampled_from([MARKS, PowerLawMarks(beta=1.2), ATOMS]),
)
def test_bundle_json_roundtrip_is_bit_exact(seed, m, modes, level, marks):
    bundle = sample_bundles([seed], TimeGrid(1.5, m), modes, marks, level)[0]
    clone = bundle_from_json(bundle_to_json(bundle))
    for name in ("wiener", "jump_times", "jump_marks"):
        got, want = getattr(clone, name), getattr(bundle, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for name in ("T", "m", "l_modes", "l_level", "master_seed", "marks"):
        assert getattr(clone, name) == getattr(bundle, name)


def _bundle_payload(marks=ATOMS):
    bundle = sample_bundles([5], TimeGrid(1.0, 8), 2, marks, 2)[0]
    payload = json.loads(bundle_to_json(bundle))
    assert len(payload["jump_times"]) >= 2
    return payload


@pytest.mark.parametrize(
    "name, value",
    [
        ("T", None),  # None: the field is left out
        ("beta", None),
        ("T", -1.0),
        ("l_level", 0),
        ("master_seed", 1.5),
        ("jump_times", -0.5),
        ("jump_times", 2.0),
        ("jump_marks", 5.0),
        ("jump_marks", 0.01),
        ("beta", "x"),
        ("beta", 5.0),
        ("wiener_b64", 5),
        ("jump_times", "abc"),
        ("atom_positions", "ab"),
        ("bundle", []),  # the whole payload is replaced
    ],
)
def test_bundle_json_rejects_missing_and_out_of_range_fields(name, value):
    # power-law marks at level 2 on T = 1: E^2 is [1/16, 1]
    payload = _bundle_payload(ATOMS if name.startswith("atom_") else MARKS)
    match = f"bundle field {name}"
    if name == "bundle":
        payload, match = value, "bundle JSON"
    elif value is None:
        del payload[name]
    elif name.startswith("jump_") and isinstance(value, float):
        payload[name][0] = value
    else:
        payload[name] = value
    with pytest.raises(ValueError, match=match):
        bundle_from_json(json.dumps(payload))


def test_bundle_json_rejects_unknown_mark_family():
    payload = _bundle_payload()
    payload["marks_family"] = "gaussian"
    with pytest.raises(ValueError, match="marks_family"):
        bundle_from_json(json.dumps(payload))


def test_bundle_json_rejects_missing_marks():
    payload = _bundle_payload()
    payload["jump_marks"] = payload["jump_marks"][:-1]
    with pytest.raises(ValueError, match="jump_marks"):
        bundle_from_json(json.dumps(payload))


def test_bundle_json_rejects_wrong_wiener_length():
    payload = _bundle_payload()
    raw = base64.b64decode(payload["wiener_b64"])
    payload["wiener_b64"] = base64.b64encode(raw[:-8]).decode("ascii")
    with pytest.raises(ValueError, match="wiener_b64"):
        bundle_from_json(json.dumps(payload))


def test_bundle_json_rejects_unsorted_times():
    payload = _bundle_payload()
    payload["jump_times"] = payload["jump_times"][::-1]
    with pytest.raises(ValueError, match="jump_times: times not sorted"):
        bundle_from_json(json.dumps(payload))


def test_bundle_json_rejects_nested_times_and_non_finite_marks():
    payload = _bundle_payload()
    payload["jump_times"] = [payload["jump_times"]]
    with pytest.raises(ValueError, match="jump_times"):
        bundle_from_json(json.dumps(payload))
    payload = _bundle_payload()
    payload["jump_marks"][0] = float("nan")
    with pytest.raises(ValueError, match="jump_marks"):
        bundle_from_json(json.dumps(payload))
