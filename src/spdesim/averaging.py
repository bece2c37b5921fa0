"""Integral-mean discretizations of the coefficients.

One rule, `window_means`, gives the window of every coefficient mean:
window j is the grid's subinterval [t_j, t_{j+1}].  The explicit time
stepping replaces each coefficient at step i with its mean over the
*previous* subinterval [t_{i−2}, t_{i−1}], window i − 2; the implicit
stepping averages the drift over the *current* one [t_{i−1}, t_i], window
i − 1.  A jump coefficient without the factorized form is additionally
averaged over each partition cell against the intensity measure: the time
mean of its `cell_integrals` is divided by the cell masses, with the
convention 0/0 = 0 on massless cells.

Time means use TIME_POINTS Gauss-Legendre nodes per window, exact for
polynomial time dependence up to degree 2·TIME_POINTS − 1; an autonomous
triple's coefficients are evaluated once, at the window midpoint, instead.
A time-dependent coefficient is called once per window, on the states
stacked TIME_POINTS times along a new leading axis with one node time per
stacked copy.  Mark-cell integrals use the closed-form weight masses
whenever the triple declares the factorized form F = ξ·profile(t, x),
and per-cell quadrature against the density otherwise.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

# Gauss-Legendre nodes per time window of a non-autonomous coefficient;
# `time_mean` reads it at call time.
TIME_POINTS = 4


@lru_cache(maxsize=16)
def _unit_rule(points):
    """Gauss-Legendre nodes and weights of `points` points on (0, 1), set
    read-only: one cached pair serves the time means, the power-law mark
    cells and the semilinear fixture's spatial quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for array in rule:
        array.flags.writeable = False
    return rule


def time_mean(fn, window, x):
    """Average of t ↦ fn(t, x) over the window (t0, t1).

    fn is called once, on `x` stacked TIME_POINTS times along a new
    leading axis, with the node times shaped (TIME_POINTS, 1, ...) to
    broadcast against it, and the node values are summed in node order.
    The state is passed through rather than closed over so that callers
    stepping a trajectory hand in a bound evaluator without building a
    closure per step.
    """
    t0, t1 = window
    nodes, weights = _unit_rule(TIME_POINTS)
    x = np.asarray(x, dtype=float)
    ts = (t0 + (t1 - t0) * nodes).reshape((TIME_POINTS,) + (1,) * (x.ndim - 1))
    vals = np.asarray(fn(ts, np.broadcast_to(x, (TIME_POINTS,) + x.shape)), dtype=float)
    acc = weights[0] * vals[0]
    for w, val in zip(weights[1:], vals[1:]):
        acc = acc + w * val
    return acc


def window_means(triple, grid):
    """The m windows of `grid` and the mean over one of them of a
    coefficient of `triple`: (windows, mean).

    Window j stands for [t_j, t_{j+1}]; explicit step i reads window
    i − 2 and implicit step i window i − 1.  ``mean(fn)`` is the function
    (window, x) of the mean of t ↦ fn(t, x) over the window.  For an
    autonomous triple the windows are the midpoints and ``mean(fn)`` is fn
    itself, called at the midpoint; otherwise they are the pairs (t0, t1)
    and ``mean(fn)`` is `time_mean` over them.
    """
    knots = grid.knots.tolist()
    if triple.autonomous:
        return [0.5 * (t0 + t1) for t0, t1 in zip(knots, knots[1:])], lambda fn: fn
    return list(zip(knots, knots[1:])), lambda fn: partial(time_mean, fn)


def cell_integrals(eval_F, rule):
    """(s, x) ↦ the integral of F(s, x, ·) over each partition cell
    against the mark measure, a (..., dim, cells) array for states of shape
    (..., dim), taken by `rule`, the (nodes, weights) of
    `partition.marks.cell_rule`."""
    nodes, weights = rule

    def integrals(s, x):
        vals = np.asarray(eval_F(s, x, nodes.ravel()), dtype=float)
        vals = vals.reshape(x.shape + (len(nodes), -1))
        return np.einsum("...dcq,cq->...dc", vals, weights)

    return integrals


def cell_weight_means(partition):
    """Per-cell ratio ∫ ξ ν(dξ) / ν for a factorized jump coefficient."""
    wmass = np.asarray(
        partition.marks.weight_mass(partition.lo, partition.hi), dtype=float
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(partition.nu > 0, wmass / partition.nu, 0.0)
    return ratio, wmass
