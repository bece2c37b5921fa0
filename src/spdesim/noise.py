"""Driving noise: time grids, truncated Wiener increments, jump measures.

One `NoiseBundle` holds a full realization of the driving noise at the
finest configured resolution: per-mode Brownian increments on the finest
time grid and the complete record of jump (time, mark) points on
[0, T] × E^L.  Every coarser resolution is obtained from the same bundle
by exact aggregation - summing fine Wiener increments and re-binning the
same jump points - which is what makes coupled multi-resolution runs
meaningful pathwise.  A study draws its block of paths as one
`BlockNoise` (`sample_block`): the block's fine Wiener increments as one
array and its jumps as one flat list.  Replayed bundles are read into one
by `read_block`, and `sample_bundles` gives the rows of a drawn block as
bundles for replay and JSON.  `BlockNoise.knot_chunks` gives one
configuration of the block, at its grid and mark partition, the Wiener
increments (summed by `coarsen`) and the jump data of its steps, a chunk
of steps at a time.
`schemes.run_block` steps a block on a `BlockNoise`.

Mark spaces ship in two families: a power-law density on (0, 1] exhausted
by the compacts [4^-l, 1], and finite atom lists.  In both a mark ξ is
its own jump weight, so both give the cell integrals of ξ, the tail
integral of ξ², the total mass, inverse-CDF sampling and a per-cell
quadrature rule; code that needs the family itself tests
``isinstance(marks, AtomMarks)``.  Partitions of the exhaustion sets are
built nested across levels so that cell counts at a finer level aggregate
exactly to cell counts at a coarser one: from the power-law family's cell
edges and masses, and from the atoms' positions and weights directly.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .averaging import _unit_rule, cell_weight_means
from .rng import TAG_JUMP, TAG_WIENER, derive_key, make_generator, normals_from_keys


@dataclass(frozen=True)
class TimeGrid:
    """Equipartition of [0, T] into m subintervals of length T/m."""

    T: float
    m: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.m < 2:
            raise ValueError("need at least 2 time steps")

    @property
    def delta(self):
        return self.T / self.m

    @cached_property
    def knots(self):
        """t_0 .. t_m; t_m is T itself, since m·(T/m) can round below T
        (T = 1, m = 49) and a jump at T must still enter step m."""
        knots = np.arange(self.m + 1) * (self.T / self.m)
        knots[-1] = self.T
        return knots


@dataclass(frozen=True)
class PowerLawMarks:
    """ν(dξ) = ξ^(−beta) dξ on (0, 1], exhausted by E^l = [4^−l, 1].

    A mark is its own jump weight.  beta in (1, 3) keeps ν sigma-finite
    with infinite total mass while ∫ ξ² ν stays finite.
    """

    beta: float = 1.5

    support_id = "unit-interval-power-law"

    def __post_init__(self):
        if not 1.0 < self.beta < 3.0:
            raise ValueError("power-law exponent must lie in (1, 3)")

    def epsilon(self, level):
        """Diameter bound and inner cutoff of E^level: 4^−level."""
        return 4.0 ** (-level)

    def mass(self, lo, hi):
        """ν([lo, hi)) per cell."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        e = 1.0 - self.beta
        return (hi**e - lo**e) / e

    def weight_mass(self, lo, hi):
        """Closed form of ∫ ξ ν(dξ) over [lo, hi) per cell."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        e = 2.0 - self.beta
        if abs(e) < 1e-12:
            return np.log(hi / lo)
        return (hi**e - lo**e) / e

    def total_mass(self, level):
        return float(self.mass(self.epsilon(level), 1.0))

    def tail_mass_sq(self, level):
        """Closed form of ∫ ξ² ν(dξ) over E \\ E^level."""
        e = 3.0 - self.beta
        return float(self.epsilon(level) ** e / e)

    def sample(self, u, level):
        """Marks on E^level from uniforms via the inverse CDF."""
        u = np.asarray(u, dtype=float)
        e = 1.0 - self.beta
        a = self.epsilon(level) ** e
        return (a + u * (1.0 - a)) ** (1.0 / e)

    def cell_edges(self, level):
        """Ascending cell boundaries covering E^level."""
        # Shell k = [eps_k, eps_{k-1}) carries 4^(level-k+1) equal cells,
        # i.e. each shell is born with 4 cells and refined 4x per level;
        # widths are (3/4)·4^(−level) < eps_level, strictly.
        edges = [np.array([self.epsilon(level)])]
        for k in range(level, 0, -1):
            lo, hi = self.epsilon(k), self.epsilon(k - 1)
            cells = 4 ** (level - k + 1)
            edges.append(np.linspace(lo, hi, cells + 1)[1:])
        return np.concatenate(edges)

    def cell_rule(self, lo, hi, points):
        """Quadrature nodes and weights for ∫ · ν(dξ) over each cell
        [lo, hi), `points` Gauss–Legendre nodes per cell."""
        nodes01, w01 = _unit_rule(points)
        lo = np.asarray(lo, dtype=float)[:, None]
        hi = np.asarray(hi, dtype=float)[:, None]
        nodes = lo + (hi - lo) * nodes01[None, :]
        weights = (hi - lo) * w01[None, :] * nodes ** (-self.beta)
        return nodes, weights


@dataclass(frozen=True)
class AtomMarks:
    """Finite measure ν = Σ w_i δ_{ξ_i}; every exhaustion level is all of E."""

    positions: tuple
    weights: tuple

    support_id = "finite-atoms"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pos.ndim != 1 or pos.shape != w.shape or pos.size == 0:
            raise ValueError("atoms need matching non-empty position/weight lists")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("atom weights must be finite and non-negative")
        if not np.isfinite(pos).all():
            raise ValueError("atom positions must be finite")
        if not (np.diff(pos) > 0).all():
            raise ValueError("atom positions must be strictly increasing")
        object.__setattr__(self, "positions", tuple(float(p) for p in pos))
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def _pos(self):
        return np.asarray(self.positions)

    def _w(self):
        return np.asarray(self.weights)

    def _inside(self, lo, hi):
        # [lo, hi) cells, except degenerate point cells which are closed
        pos = self._pos()
        lo = np.atleast_1d(np.asarray(lo, dtype=float))[:, None]
        hi = np.atleast_1d(np.asarray(hi, dtype=float))[:, None]
        half_open = (pos[None, :] >= lo) & (pos[None, :] < hi)
        point = (hi == lo) & (pos[None, :] == lo)
        return half_open | point

    def weight_mass(self, lo, hi):
        out = self._inside(lo, hi) @ (self._w() * self._pos())
        return out if np.ndim(lo) else float(out[0])

    def total_mass(self, level):
        return float(self._w().sum())

    def tail_mass_sq(self, level):
        return 0.0

    def sample(self, u, level):
        w = self._w()
        cdf = np.cumsum(w) / w.sum()
        idx = np.searchsorted(cdf, np.asarray(u, dtype=float), side="left")
        return self._pos()[np.minimum(idx, w.size - 1)]

    def cell_rule(self, lo, hi, points):
        """Each point cell's atom as its one node, with the atom's weight."""
        nodes = np.asarray(lo, dtype=float)[:, None]
        weights = self._w()[:, None]
        return nodes, weights


@dataclass(frozen=True)
class MarkPartition:
    """Cells of diameter < ε_level covering E^level, with ν-masses.

    Cells are ordered by position.
    """

    level: int
    lo: np.ndarray
    hi: np.ndarray
    nu: np.ndarray
    marks: PowerLawMarks | AtomMarks

    @property
    def size(self):
        return self.lo.size

    @cached_property
    def _edges(self):
        return np.append(self.lo, self.hi[-1])

    @cached_property
    def parent(self):
        """Containing cell one level down per cell (−1 outside E^{level−1}).

        None at level 1.
        """
        if self.level == 1:
            return None
        if isinstance(self.marks, AtomMarks):
            return np.arange(self.size)
        coarse = build_partition(self.marks, self.level - 1)
        return np.asarray(coarse.locate(0.5 * (self.lo + self.hi)))

    def locate(self, xi):
        """Cell index per mark; −1 for marks outside E^level.

        Cells are left-closed, the outermost closes at the upper support
        endpoint.
        """
        xi = np.asarray(xi, dtype=float)
        if isinstance(self.marks, AtomMarks):
            pos = np.asarray(self.marks.positions)
            idx = np.searchsorted(pos, xi)
            idx = np.minimum(idx, pos.size - 1)
            ok = np.isclose(pos[idx], xi, rtol=1e-12, atol=0.0)
            return np.where(ok, idx, -1)
        idx = np.searchsorted(self._edges, xi, side="right") - 1
        idx = np.where(xi == self._edges[-1], self.size - 1, idx)
        return np.where((idx >= 0) & (idx < self.size), idx, -1)


def build_partition(marks, level):
    """Nested partition of E^level, finer than the exhaustion shells."""
    if level < 1:
        raise ValueError("partition level must be >= 1")
    if isinstance(marks, AtomMarks):
        pos = np.asarray(marks.positions)
        w = np.asarray(marks.weights)
        return MarkPartition(
            level=level, lo=pos.copy(), hi=pos.copy(), nu=w.copy(), marks=marks
        )
    edges = marks.cell_edges(level)
    lo, hi = edges[:-1], edges[1:]
    nu = np.asarray(marks.mass(lo, hi), dtype=float)
    return MarkPartition(level=level, lo=lo, hi=hi, nu=nu, marks=marks)


@dataclass(frozen=True)
class NoiseBundle:
    """One realized driving path at the finest resolution.

    wiener[k−1, i−1] holds the increment of Wiener mode k over the i-th
    finest step; jumps are sorted by time with marks inside E^l_level.  The
    constructor checks the shape of `wiener` and that the jump times and
    marks are flat lists of equal length; `sample_bundles` sorts the jumps
    itself, and `bundle_from_json` checks their order.
    """

    T: float
    m: int
    l_modes: int
    l_level: int
    master_seed: int
    wiener: np.ndarray
    jump_times: np.ndarray
    jump_marks: np.ndarray
    marks: PowerLawMarks | AtomMarks

    def __post_init__(self):
        if self.wiener.shape != (self.l_modes, self.m):
            raise ValueError("wiener increment matrix has wrong shape")
        times, marks = np.shape(self.jump_times), np.shape(self.jump_marks)
        if len(times) != 1 or marks != times:
            raise ValueError("jump times and marks must be flat lists of equal length")


# Paths whose Wiener increments are drawn as one array by `sample_bundles`:
# a whole block at once would hold its keys beside the draws, twice the
# block's increments, while groups of 8 paths draw as fast.
DRAW_PATHS = 8


def sample_block(master_seeds, grid, l_modes, marks, l_level):
    """The `BlockNoise` of one noise realization per master seed, path p
    driven by ``master_seeds[p]`` and fully determined by it.

    Wiener increments are one N(0, δ) draw per (path, mode, step), each
    from its own derived key, so generation order is immaterial: they are
    drawn DRAW_PATHS paths at a time into the block's one (paths, modes, m)
    array.  A path's jump record is Poisson with mean T·ν(E^level), the
    mass asked for once per call; times are uniform on (0, T], marks follow
    ν restricted and normalized on E^level.  Each path draws its jumps from
    the stream of its own key, ``make_generator(derive_key(seed,
    TAG_JUMP))``; the call builds one generator and re-keys its state per
    path, since building a Philox draws operating-system entropy that a
    given key then discards.  The block needs at least one seed.
    """
    if l_modes < 0 or l_level < 1:
        raise ValueError("need l_modes >= 0 and l_level >= 1")
    seeds = [int(seed) for seed in master_seeds]
    if not seeds:
        raise ValueError("a block needs at least one seed")
    nu_total = marks.total_mass(l_level)
    if not np.isfinite(nu_total) or nu_total <= 0:
        raise ValueError(f"invalid mark-space mass {nu_total} at level {l_level}")
    keyed = np.array([seed % 2**64 for seed in seeds], dtype=np.uint64)
    wiener = np.empty((len(seeds), l_modes, grid.m))
    mode_idx = np.arange(1, l_modes + 1, dtype=np.uint64)[:, None]
    step_idx = np.arange(1, grid.m + 1, dtype=np.uint64)[None, :]
    # without modes there is nothing to draw
    for lo in range(0, len(seeds) if l_modes else 0, DRAW_PATHS):
        group = keyed[lo : lo + DRAW_PATHS, None, None]
        keys = derive_key(group, TAG_WIENER, mode_idx, step_idx)
        wiener[lo : lo + DRAW_PATHS] = normals_from_keys(keys)
    wiener *= np.sqrt(grid.delta)
    gen = make_generator(0)
    state = gen.bit_generator.state
    times, xis = [], []
    for jump_key in derive_key(keyed, TAG_JUMP).tolist():
        # a fresh stream of the key: counter, buffer and cached half reset
        state["state"]["key"][0] = jump_key
        gen.bit_generator.state = state
        count = int(gen.poisson(grid.T * nu_total))
        t = grid.T * (1.0 - gen.random(count))
        xi = marks.sample(gen.random(count), l_level)
        order = np.argsort(t, kind="stable")
        times.append(t[order])
        xis.append(xi[order])
    return _block(seeds, grid.T, grid.m, l_modes, l_level, marks, wiener, times, xis)


def sample_bundles(master_seeds, grid, l_modes, marks, l_level):
    """The rows of ``sample_block(master_seeds, ...)`` as bundles, for
    replay and JSON: bundle p holds seed p, row p of the block's Wiener
    array (a view) and its own slice of the block's jump lists."""
    noise = sample_block(master_seeds, grid, l_modes, marks, l_level)
    cuts = np.searchsorted(noise.jump_rows, np.arange(1, len(noise.master_seeds)))
    return [
        NoiseBundle(T=grid.T, m=grid.m, l_modes=l_modes, l_level=l_level, master_seed=seed,
                    wiener=increments, jump_times=times, jump_marks=xi, marks=marks)
        for seed, increments, times, xi in zip(
            noise.master_seeds,
            noise.fine_wiener,
            np.split(noise.jump_times, cuts),
            np.split(noise.jump_marks, cuts),
        )
    ]


def coarsen(fine, factor):
    """Increments of a grid `factor` times coarser, along the last axis of
    `fine`: each is the sum of the `factor` fine increments it spans."""
    *lead, steps = fine.shape
    return fine.reshape(*lead, steps // factor, factor).sum(axis=-1)


@dataclass(frozen=True)
class BlockNoise:
    """The noise of a block of paths, drawn once by `sample_block` or read
    from replayed bundles by `read_block`, that every configuration
    stepping the block shares.

    `fine_wiener` holds the (paths, l_modes, m) finest-grid Wiener
    increments, row p those of path p.  The jumps of all paths are one flat
    list in path-then-time order: `jump_times`, `jump_marks` and in
    `jump_rows` the path of each.  `l_level` is the lowest level of the
    paths, the one every path reaches.
    """

    master_seeds: tuple
    T: float
    m: int
    l_modes: int
    l_level: int
    marks: PowerLawMarks | AtomMarks
    fine_wiener: np.ndarray
    jump_times: np.ndarray
    jump_marks: np.ndarray
    jump_rows: np.ndarray

    def knot_chunks(self, m, level, modes, factorized, n, chunk):
        """The noise of a configuration that steps the block on an m-step
        grid of its horizon with the mark partition of E^level, built up to
        `chunk` steps at a time, so that it holds no (m, paths) array of
        increments or jump data.

        Returns ``noise(lo, k)``, which gives the Wiener increments and the
        jump data of steps lo .. lo + k − 1, k ≤ chunk, as two arrays whose
        row j belongs to step lo + j.  The Wiener increments of the first
        `modes` modes are `fine_wiener` summed by `coarsen`; with one mode
        each path's increment is repeated along a (k, paths, n) plane, else
        they are (k, paths, modes).  The jumps are binned once for the
        configuration: a jump at t enters the step i with t in
        (t_{i−1}, t_i] (``np.searchsorted`` on the knots), its mark the
        cell that `MarkPartition.locate` gives in the partition of E^level,
        and jumps outside E^level are dropped; the events are stably sorted by step,
        so within a path they stay in time order.  A chunk's jump data are
        one ``np.bincount`` of its events: for a `factorized` F the sum of
        the cell weight means of a path's jumps minus δ·Σ weight mass,
        repeated along a (k, paths, n) plane, else the (k, paths, cells)
        compensated cell increments, jump counts minus δ·ν.  The two planes
        are scratch arrays, overwritten by the next call.

        An m that does not divide the block's, a level above the block's,
        more modes than the block carries and steps outside 1..m are a
        ValueError.
        """
        grid = TimeGrid(self.T, m)
        if self.m % m != 0:
            raise ValueError(f"bundle grid {self.m} not divisible by m = {m}")
        if level > self.l_level:
            raise ValueError(f"bundle level {self.l_level} < requested l = {level}")
        if modes > self.l_modes:
            raise ValueError(f"bundle has {self.l_modes} modes, need {modes}")
        partition = build_partition(self.marks, level)
        paths, factor = len(self.master_seeds), self.m // m
        fine = self.fine_wiener[:, :modes] if modes else None
        wiener_plane = np.empty((chunk, paths, n)) if modes == 1 else None
        steps = np.searchsorted(grid.knots, self.jump_times, side="left")
        cells = partition.locate(self.jump_marks)
        keep = np.flatnonzero(cells >= 0)
        keep = keep[np.argsort(steps[keep], kind="stable")]
        steps, rows, cells = steps[keep], self.jump_rows[keep], cells[keep]
        if factorized:
            ratio, wmass = cell_weight_means(partition)
            bins, weights = rows, ratio[cells]
            compensator = grid.delta * float(wmass.sum())
            width, jump_plane = paths, np.empty((chunk, paths, n))
        else:
            bins, weights = rows * partition.size + cells, np.ones(cells.size)
            compensator = grid.delta * partition.nu
            width = paths * partition.size

        def noise(lo, k):
            if lo < 1 or lo + k - 1 > grid.m:
                raise ValueError(f"steps {lo}..{lo + k - 1} outside 1..{grid.m}")
            dw = None
            if modes:
                dw = coarsen(fine[:, :, (lo - 1) * factor : (lo - 1 + k) * factor], factor)
                if modes == 1:
                    plane = wiener_plane[:k]
                    plane[...] = dw[:, 0].T[..., None]
                    dw = plane
                else:
                    dw = np.ascontiguousarray(dw.transpose(2, 0, 1))
            a, b = np.searchsorted(steps, (lo, lo + k))
            here = (steps[a:b] - lo) * width + bins[a:b]
            counts = np.bincount(here, weights[a:b], minlength=k * width)
            if factorized:
                jump = jump_plane[:k]
                jump[...] = (counts - compensator).reshape(k, paths, 1)
            else:
                jump = counts.reshape(k, paths, partition.size) - compensator
            return dw, jump

        return noise


def read_block(bundles):
    """The `BlockNoise` of a block of replayed bundles, path p driven by
    ``bundles[p]``; a study draws its block with `sample_block` instead.

    The block needs at least one bundle, and its bundles must share their
    horizon, grid, Wiener modes and marks; anything else is a ValueError.
    `fine_wiener` is one stack of the bundles' increments.
    """
    if not bundles:
        raise ValueError("a block needs at least one bundle")
    first = bundles[0]
    shared = (first.T, first.m, first.l_modes, first.marks)
    if any((b.T, b.m, b.l_modes, b.marks) != shared for b in bundles):
        raise ValueError(
            "a block's bundles must share horizon, grid, Wiener modes and marks"
        )
    return _block(
        [bundle.master_seed for bundle in bundles], first.T, first.m, first.l_modes,
        min(bundle.l_level for bundle in bundles), first.marks,
        np.stack([bundle.wiener for bundle in bundles]),
        [bundle.jump_times for bundle in bundles], [bundle.jump_marks for bundle in bundles],
    )


def _block(seeds, T, m, l_modes, l_level, marks, wiener, times, xis):
    """The `BlockNoise` whose path p has master seed ``seeds[p]``, Wiener
    increments ``wiener[p]`` and jumps ``times[p]`` with marks ``xis[p]``."""
    return BlockNoise(
        tuple(seeds), T, m, l_modes, l_level, marks, wiener,
        np.concatenate(times), np.concatenate(xis),
        np.repeat(np.arange(len(times)), [t.size for t in times]),
    )


def bundle_to_json(bundle):
    """Documented replay layout: jump list plus base64 increment matrix."""
    payload = {
        "T": bundle.T,
        "m": bundle.m,
        "l_modes": bundle.l_modes,
        "l_level": bundle.l_level,
        "master_seed": bundle.master_seed,
        "wiener_b64": base64.b64encode(
            np.ascontiguousarray(bundle.wiener).tobytes()
        ).decode("ascii"),
        "jump_times": bundle.jump_times.tolist(),
        "jump_marks": bundle.jump_marks.tolist(),
        "marks_family": bundle.marks.support_id,
    }
    if isinstance(bundle.marks, PowerLawMarks):
        payload["beta"] = bundle.marks.beta
    else:
        payload["atom_positions"] = list(bundle.marks.positions)
        payload["atom_weights"] = list(bundle.marks.weights)
    return json.dumps(payload)


def bundle_from_json(text):
    """Inverse of `bundle_to_json`; a missing or malformed field raises
    ValueError naming it, as do jump times outside (0, T] and marks outside
    E^l_level, and so does a payload that is not a JSON object."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"bundle JSON: a {type(payload).__name__}, not an object")

    def field(name, convert=lambda value: value):
        if name not in payload:
            raise ValueError(f"bundle field {name}: missing")
        try:
            return convert(payload[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bundle field {name}: {exc}") from None

    def floats(values):
        return np.asarray(values, dtype=float)

    family = payload.get("marks_family")
    if family == PowerLawMarks.support_id:
        marks = field("beta", lambda beta: PowerLawMarks(beta=float(beta)))
    elif family == AtomMarks.support_id:
        positions = field("atom_positions", floats)

        def atoms(weights):
            return AtomMarks(positions=positions, weights=floats(weights))

        # the positions are checked first, against unit weights, so that an
        # error names the list at fault
        field("atom_positions", lambda _: atoms(np.ones_like(positions)))
        marks = field("atom_weights", atoms)
    else:
        raise ValueError(f"bundle field marks_family: unknown mark family {family!r}")
    # any int is a seed, as `derive_key` takes it modulo 2^64
    for name, low in (("m", 2), ("l_modes", 0), ("l_level", 1), ("master_seed", None)):
        value = field(name)
        if type(value) is not int or low is not None and value < low:
            at_least = "" if low is None else f" >= {low}"
            raise ValueError(f"bundle field {name}: {value!r} is not an integer{at_least}")
    T = field("T")
    if type(T) not in (int, float) or not 0 < T < np.inf:
        raise ValueError(f"bundle field T: {T!r} is not a positive finite horizon")
    shape = (payload["l_modes"], payload["m"])
    raw = field("wiener_b64", base64.b64decode)
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ValueError(
            f"bundle field wiener_b64: {len(raw)} bytes do not hold "
            f"{shape[0]} x {shape[1]} float64 increments"
        )
    wiener = np.frombuffer(raw, dtype=np.float64).reshape(shape)
    jump_times = field("jump_times", floats)
    jump_marks = field("jump_marks", floats)
    if jump_times.ndim != 1:
        raise ValueError("bundle field jump_times: not a flat list of times")
    if jump_marks.shape != jump_times.shape:
        raise ValueError(
            f"bundle field jump_marks: {jump_marks.size} marks for "
            f"{jump_times.size} jump times"
        )
    if not np.isfinite(wiener).all():
        raise ValueError("bundle field wiener_b64: non-finite values")
    # the range checks below also reject non-finite times and marks
    if not ((jump_times > 0) & (jump_times <= T)).all():
        raise ValueError(f"bundle field jump_times: times outside (0, T = {T}]")
    if (np.diff(jump_times) < 0).any():
        raise ValueError("bundle field jump_times: times not sorted")
    level = payload["l_level"]
    if not (build_partition(marks, level).locate(jump_marks) >= 0).all():
        raise ValueError(f"bundle field jump_marks: marks outside E^{level}")
    return NoiseBundle(
        T=T,
        m=payload["m"],
        l_modes=payload["l_modes"],
        l_level=payload["l_level"],
        master_seed=payload["master_seed"],
        wiener=wiener.copy(),
        jump_times=jump_times,
        jump_marks=jump_marks,
        marks=marks,
    )
