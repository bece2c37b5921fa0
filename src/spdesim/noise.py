"""Driving noise: time grids, truncated Wiener increments, jump measures.

One `NoiseBundle` holds a full realization of the driving noise at the
finest configured resolution: per-mode Brownian increments on the finest
time grid and the complete record of jump (time, mark) points on
[0, T] × E^L.  Every coarser resolution is obtained from the same bundle
by exact aggregation - summing fine Wiener increments and re-binning the
same jump points - which is what makes coupled multi-resolution runs
meaningful pathwise.

Mark spaces ship in two families: a power-law density on (0, 1] exhausted
by the compacts [4^-l, 1], and finite atom lists.  Partitions of the
exhaustion sets are built nested across levels so that cell counts at a
finer level aggregate exactly to cell counts at a coarser one.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rng import TAG_JUMP, TAG_WIENER, derive_key, normals_from_keys, rekeyed_generator


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
        return np.arange(self.m + 1) * (self.T / self.m)


class MarkSpace:
    """Common interface of the shipped jump-mark families."""

    support_id = "abstract"

    def epsilon(self, level):
        """Diameter bound (and inner cutoff, for intervals) at a level."""
        return 4.0 ** (-level)

    def mass(self, lo, hi):
        raise NotImplementedError

    def weight(self, xi):
        """Mark weight h(ξ): the jump amplitude carried by mark ξ."""
        raise NotImplementedError

    def weight_mass(self, lo, hi):
        """Closed form of ∫ h(ξ) ν(dξ) over [lo, hi)."""
        raise NotImplementedError

    def total_mass(self, level):
        raise NotImplementedError

    def tail_mass_sq(self, level):
        """Closed form of ∫ h(ξ)² ν(dξ) over E \\ E^level."""
        raise NotImplementedError

    def sample(self, u, level):
        """Marks on E^level from uniforms via the inverse CDF."""
        raise NotImplementedError

    def cell_edges(self, level):
        """Ascending cell boundaries covering E^level (interval families)."""
        raise NotImplementedError

    def cell_rule(self, lo, hi, points):
        """Quadrature nodes/weights for ∫ · ν(dξ) over each cell [lo, hi)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawMarks(MarkSpace):
    """ν(dξ) = ξ^(−beta) dξ on (0, 1], exhausted by E^l = [4^−l, 1].

    The mark weight is h(ξ) = ξ.  beta in (1, 3) keeps ν sigma-finite with
    infinite total mass while ∫ ξ² ν stays finite.
    """

    beta: float = 1.5

    support_id = "unit-interval-power-law"

    def __post_init__(self):
        if not 1.0 < self.beta < 3.0:
            raise ValueError("power-law exponent must lie in (1, 3)")

    def mass(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        e = 1.0 - self.beta
        return (hi**e - lo**e) / e

    def weight(self, xi):
        return np.asarray(xi, dtype=float)

    def weight_mass(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        e = 2.0 - self.beta
        if abs(e) < 1e-12:
            return np.log(hi / lo)
        return (hi**e - lo**e) / e

    def total_mass(self, level):
        return float(self.mass(self.epsilon(level), 1.0))

    def tail_mass_sq(self, level):
        e = 3.0 - self.beta
        return float(self.epsilon(level) ** e / e)

    def sample(self, u, level):
        u = np.asarray(u, dtype=float)
        e = 1.0 - self.beta
        a = self.epsilon(level) ** e
        return (a + u * (1.0 - a)) ** (1.0 / e)

    def cell_edges(self, level):
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
        nodes01, w01 = np.polynomial.legendre.leggauss(points)
        nodes01 = 0.5 * (nodes01 + 1.0)
        w01 = 0.5 * w01
        lo = np.asarray(lo, dtype=float)[:, None]
        hi = np.asarray(hi, dtype=float)[:, None]
        nodes = lo + (hi - lo) * nodes01[None, :]
        weights = (hi - lo) * w01[None, :] * nodes ** (-self.beta)
        return nodes, weights


@dataclass(frozen=True)
class AtomMarks(MarkSpace):
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

    def mass(self, lo, hi):
        out = self._inside(lo, hi) @ self._w()
        return out if np.ndim(lo) else float(out[0])

    def weight(self, xi):
        return np.asarray(xi, dtype=float)

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

    def cell_edges(self, level):
        raise NotImplementedError("atom cells are points, not intervals")

    def cell_rule(self, lo, hi, points):
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
    marks: MarkSpace

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
    constructor checks the shape of `wiener`; `sample_bundle` sorts the
    jumps itself, and `bundle_from_json` checks their order.
    """

    T: float
    m: int
    l_modes: int
    l_level: int
    master_seed: int
    wiener: np.ndarray
    jump_times: np.ndarray
    jump_marks: np.ndarray
    marks: MarkSpace

    def __post_init__(self):
        if self.wiener.shape != (self.l_modes, self.m):
            raise ValueError("wiener increment matrix has wrong shape")


@lru_cache(maxsize=32)
def _total_mass(marks, level):
    """ν(E^level), cached: every path of a study samples on the same marks."""
    return marks.total_mass(level)


# Paths whose Wiener increments are drawn as one array by `sample_bundles`:
# a whole block at once would hold its keys beside the draws, twice the
# block's increments, while groups of 8 paths draw as fast.
DRAW_PATHS = 8


def sample_bundle(master_seed, grid, l_modes, marks, l_level):
    """Draw one noise realization, fully determined by master_seed.

    The one-path case of `sample_bundles`.
    """
    return sample_bundles([master_seed], grid, l_modes, marks, l_level)[0]


def sample_bundles(master_seeds, grid, l_modes, marks, l_level):
    """Draw one noise realization per master seed, each fully determined by
    its seed.

    Wiener increments are one N(0, δ) draw per (path, mode, step), each
    from its own derived key, so generation order is immaterial: they are
    drawn DRAW_PATHS paths at a time into one (paths, modes, m) array, and
    bundle p holds row p of it.  The jump record is Poisson with mean
    T·ν(E^level); times are uniform on (0, T], marks follow ν restricted
    and normalized on E^level.
    """
    if l_modes < 0 or l_level < 1:
        raise ValueError("need l_modes >= 0 and l_level >= 1")
    nu_total = _total_mass(marks, l_level)
    if not np.isfinite(nu_total) or nu_total <= 0:
        raise ValueError(f"invalid mark-space mass {nu_total} at level {l_level}")
    seeds = [int(seed) for seed in master_seeds]
    wiener = np.empty((len(seeds), l_modes, grid.m))
    mode_idx = np.arange(1, l_modes + 1, dtype=np.uint64)[:, None]
    step_idx = np.arange(1, grid.m + 1, dtype=np.uint64)[None, :]
    # without modes there is nothing to draw
    for lo in range(0, len(seeds) if l_modes else 0, DRAW_PATHS):
        group = [seed % 2**64 for seed in seeds[lo : lo + DRAW_PATHS]]
        group = np.array(group, dtype=np.uint64)[:, None, None]
        keys = derive_key(group, TAG_WIENER, mode_idx, step_idx)
        wiener[lo : lo + DRAW_PATHS] = normals_from_keys(keys)
    wiener *= np.sqrt(grid.delta)
    bundles = []
    for seed, increments in zip(seeds, wiener):
        gen = rekeyed_generator(derive_key(seed, TAG_JUMP))
        count = int(gen.poisson(grid.T * nu_total))
        times = grid.T * (1.0 - gen.random(count))
        xi = marks.sample(gen.random(count), l_level)
        order = np.argsort(times, kind="stable")
        bundles.append(
            NoiseBundle(
                T=grid.T,
                m=grid.m,
                l_modes=l_modes,
                l_level=l_level,
                master_seed=seed,
                wiener=increments,
                jump_times=times[order],
                jump_marks=xi[order],
                marks=marks,
            )
        )
    return bundles


def coarsen_wiener(bundle, m_coarse, modes, start=0, stop=None):
    """Increments on a coarser grid as exact sums of fine increments.

    Returns the (modes, stop − start) increments of coarse steps
    start + 1 .. stop, by default all m_coarse of them.
    """
    if modes > bundle.l_modes:
        raise ValueError(f"bundle has {bundle.l_modes} modes, need {modes}")
    if m_coarse < 1 or bundle.m % m_coarse != 0:
        raise ValueError(f"{m_coarse} does not divide finest m = {bundle.m}")
    stop = m_coarse if stop is None else stop
    if not 0 <= start <= stop <= m_coarse:
        raise ValueError(f"coarse steps {start}..{stop} outside 0..{m_coarse}")
    factor = bundle.m // m_coarse
    fine = bundle.wiener[:modes, start * factor : stop * factor]
    return fine.reshape(modes, stop - start, factor).sum(axis=2)


def compensated_cell_increments(bundle, partition, grid, i):
    """Ñ((t_{i−1}, t_i] × cell_j) for every cell of the partition.

    Component j counts the bundle's jumps falling in the time window with a
    mark in cell j, minus the compensator δ·ν(cell_j).
    """
    if partition.level > bundle.l_level:
        raise ValueError(
            f"partition level {partition.level} exceeds bundle level {bundle.l_level}"
        )
    if not 1 <= i <= grid.m:
        raise ValueError(f"step index {i} outside 1..{grid.m}")
    if abs(grid.T - bundle.T) > 1e-12 * max(grid.T, bundle.T):
        raise ValueError("grid horizon does not match bundle horizon")
    knots = grid.knots
    a = np.searchsorted(bundle.jump_times, knots[i - 1], side="right")
    b = np.searchsorted(bundle.jump_times, knots[i], side="right")
    cells = partition.locate(bundle.jump_marks[a:b])
    cells = cells[cells >= 0]
    counts = np.bincount(cells, minlength=partition.size).astype(float)
    return counts - grid.delta * partition.nu


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
    for name, low in (("m", 2), ("l_modes", 0), ("l_level", 1), ("master_seed", 0)):
        value = field(name)
        if type(value) is not int or value < low:
            raise ValueError(f"bundle field {name}: {value!r} is not an integer >= {low}")
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
