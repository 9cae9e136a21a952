"""Gaussian expectations by the trapezoid rule on a uniform grid.

``integrate(f, step)`` returns E[f(t)] for t ~ N(0, 1) as the weighted sum
of ``f`` over the nodes ``t = k * step`` with ``|t| <= NODE_REACH`` (one more
node on each side when the step does not divide it).  For an integrand
analytic in the strip ``|Im t| < a`` the error falls like
``exp(-2 pi a / step)`` (Trefethen and Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 2014); the Gaussian mass beyond
``NODE_REACH`` is below ``1e-32``.  With no poles the error is of order
``exp(-2 pi**2 / step**2)``, about ``1e-214`` at ``MAX_STEP``, so the
rule is exact to rounding.  Callers choose the step from the distance of
their integrand's nearest poles.

A 1-D array of steps evaluates a whole grid of expectations in one call:
row k has its own nodes at ``steps[k]``, ``f`` sees the rows' nodes
concatenated in order, and each row is summed on its own, so a row's value
does not depend on the rows beside it.  ``node_counts`` gives each row's
node count.

``expect(integrand, steps, *params, terms=1)`` is the grid entry the rates
use: it repeats each row's parameters onto the row's nodes, so an integrand
sees them beside t, and runs the rows through ``integrate`` in blocks of at
most 2**14 values (``_BLOCK``), so no array grows with the grid's length.
At that size each of an integrand's temporaries is 128 KB and stays in
cache; 2**13 and 2**15 both ran the default ``rate-sweep`` slower.

The procedure is pure floating-point arithmetic with no randomness, so
identical inputs give bit-identical results.  Integrands must evaluate
elementwise on numpy arrays.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

NODE_REACH = 12.0
MAX_STEP = 0.2


def node_counts(step):
    """Number of nodes the rule uses at each step, as int64 (a 0-d array
    for a scalar step)."""
    return 2 * np.ceil(NODE_REACH / np.asarray(step, dtype=float)).astype(np.int64) + 1


def integrate(f: Callable, step=MAX_STEP):
    """E[f(t)] for t ~ N(0, 1); ``f`` is evaluated once, on the array of
    all nodes, and every step must lie in (0, MAX_STEP].  A scalar step
    gives a float, a 1-D array of steps an array of per-row expectations."""
    steps = np.asarray(step, dtype=float)
    if steps.ndim > 1 or not np.all((steps > 0.0) & (steps <= MAX_STEP)):
        raise ValueError(f"step must be in (0, {MAX_STEP}], got {step!r}")
    rows = steps.reshape(-1)
    counts = node_counts(rows)
    starts = np.cumsum(counts) - counts
    # Row k's nodes are steps[k] * (-half_k ... half_k).
    node_step = np.repeat(rows, counts)
    offsets = np.arange(counts.sum(), dtype=float) - np.repeat(starts + counts // 2, counts)
    t = node_step * offsets
    fx = np.asarray(f(t), dtype=float)
    if fx.shape != t.shape:
        raise ValueError("integrand must evaluate elementwise on arrays")
    if not np.all(np.isfinite(fx)):
        raise ValueError("integrand returned non-finite values at the nodes")
    weights = np.exp(-0.5 * t * t) * (node_step / math.sqrt(2.0 * math.pi))
    sums = np.add.reduceat(weights * fx, starts)
    return float(sums[0]) if steps.ndim == 0 else sums


# Rows of a grid are evaluated in blocks, so that no array an integrand
# holds exceeds this many values (nodes times the terms it keeps per node)
# whatever the grid's length.  A row with more nodes is a block of its own.
_BLOCK = 2**14


def _blocks(counts, limit):
    """Slices of consecutive rows whose node counts sum to at most
    ``limit``, or single rows above it."""
    start, total = 0, 0
    for k, count in enumerate(counts.tolist()):
        if total and total + count > limit:
            yield slice(start, k)
            start, total = k, 0
        total += count
    yield slice(start, len(counts))


def expect(integrand, steps, *params, terms=1):
    """E[integrand(t, *node_params)] for each row, t ~ N(0, 1), by the
    trapezoid rule at the row's step.  Each array in ``params`` holds one
    value per row along its last axis, and is repeated onto the row's nodes
    there.  The integrand keeps at most ``terms`` values per node, and the
    rows run in blocks of at most ``_BLOCK // terms`` nodes, one
    ``integrate`` call each."""
    out = np.empty(steps.size)
    counts = node_counts(steps)
    for rows in _blocks(counts, _BLOCK // terms):
        node_params = [np.repeat(p[..., rows], counts[rows], axis=-1) for p in params]
        out[rows] = integrate(lambda t: integrand(t, *node_params), steps[rows])
    return out


def plogp(p):
    """p * log2(p), continuously extended with plogp(0) = 0.

    Accepts scalars or arrays; rejects negative densities.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("plogp requires p >= 0")
    positive = arr > 0.0
    out = np.where(positive, arr * np.log2(np.where(positive, arr, 1.0)), 0.0)
    if np.ndim(p) == 0:
        return float(out)
    return out
