"""Integral-mean discretizations of the coefficients.

The explicit time stepping replaces each coefficient at step i with its
average over the *previous* subinterval [t_{i−2}, t_{i−1}] (zero at the
first two knots); the implicit stepping averages the drift over the
*current* subinterval [t_{i−1}, t_i] instead.  Jump coefficients are
additionally averaged over each partition cell against the intensity
measure, with the convention 0/0 = 0 on massless cells.

Time means use TIME_POINTS Gauss-Legendre nodes per window, exact for
autonomous coefficients (evaluated once at the window midpoint) and for
polynomial time dependence up to degree 2·TIME_POINTS − 1.  Mark-cell
integrals use the closed-form weight masses whenever the triple declares
the factorized form F = weight(ξ)·profile(t, x), and per-cell quadrature
against the density otherwise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Gauss-Legendre nodes per time window of a non-autonomous coefficient;
# `time_mean` reads it at call time.
TIME_POINTS = 4


@lru_cache(maxsize=16)
def _unit_rule(points):
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def time_mean(fn, x, t0, t1, autonomous):
    """Average of t ↦ fn(t, x) over [t0, t1]; a single evaluation when autonomous.

    The state is passed through rather than closed over so that callers
    stepping a trajectory hand in a bound evaluator without building a
    closure per step.
    """
    if autonomous:
        return np.asarray(fn(0.5 * (t0 + t1), x), dtype=float)
    nodes, weights = _unit_rule(TIME_POINTS)
    ts = t0 + (t1 - t0) * nodes
    acc = weights[0] * np.asarray(fn(ts[0], x), dtype=float)
    for w, t in zip(weights[1:], ts[1:]):
        acc = acc + w * np.asarray(fn(t, x), dtype=float)
    return acc


def _check_step(grid, i):
    if not 0 <= i <= grid.m:
        raise ValueError(f"step index {i} outside 0..{grid.m}")


def cell_weight_means(partition):
    """Per-cell ratio ∫ weight ν / ν for a factorized jump coefficient."""
    wmass = np.asarray(
        partition.marks.weight_mass(partition.lo, partition.hi), dtype=float
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(partition.nu > 0, wmass / partition.nu, 0.0)
    return ratio, wmass


def tilde_F(triple, grid, partition, i, x, rule):
    """Jump coefficient averaged in time and over each partition cell.

    Returns a (..., dim, cells) array for states of shape (..., dim) whose
    column j is the mean of F over [t_{i−2}, t_{i−1}] × cell_j against the
    normalized cell mass, with the cell integrals taken by `rule`, the
    (nodes, weights) of `partition.marks.cell_rule`; columns are zero at
    the first two knots and for massless cells.  Factorized jump
    coefficients need no cell quadrature: their cell means are
    `cell_weight_means`.
    """
    _check_step(grid, i)
    x = np.asarray(x, dtype=float)
    if i < 2:
        return np.zeros(x.shape + (partition.size,))
    nodes, weights = rule

    def cell_integrals(s, x):
        vals = np.asarray(triple.eval_F(s, x, nodes.ravel()), dtype=float)
        vals = vals.reshape(x.shape + (partition.size, -1))
        return np.einsum("...dcq,cq->...dc", vals, weights)

    t0, t1 = float(grid.knots[i - 2]), float(grid.knots[i - 1])
    integrals = time_mean(cell_integrals, x, t0, t1, triple.autonomous)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(partition.nu > 0, integrals / partition.nu, 0.0)


def impl_A(triple, grid, i, x):
    """Drift averaged over the current subinterval; zero at the origin knot.

    `x` is one state (dim,) or a batch (..., dim).
    """
    _check_step(grid, i)
    x = np.asarray(x, dtype=float)
    if i == 0:
        return np.zeros(x.shape)
    knots = grid.knots
    t0, t1 = float(knots[i - 1]), float(knots[i])
    return time_mean(triple.eval_A, x, t0, t1, triple.autonomous)
