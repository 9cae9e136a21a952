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
cache.  Timed on the default ``rate-sweep`` in fresh processes (36
interleaved runs per size, 2-vCPU Xeon, numpy 2.4), 2**12 ran 20-28 %
slower, 2**15 22-34 % and 2**16 6-23 %; 2**13 was level with it (-2.5 to
+0.4 %).  A grid that fits in one block goes to ``integrate`` whole.

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
    rows = steps.reshape(-1)
    # One min/max pair checks every step; a NaN step fails both comparisons.
    if steps.ndim > 1 or rows.size and not (rows.min() > 0.0 and rows.max() <= MAX_STEP):
        raise ValueError(f"step must be in (0, {MAX_STEP}], got {step!r}")
    counts = node_counts(rows)
    starts = counts.cumsum() - counts
    # Row k's nodes are steps[k] * (-half_k ... half_k), built in place.
    t = np.arange(counts.sum(), dtype=float)
    t -= (starts + counts // 2).repeat(counts)
    t *= rows.repeat(counts)
    fx = np.asarray(f(t), dtype=float)
    if fx.shape != t.shape:
        raise ValueError("integrand must evaluate elementwise on arrays")
    weights = -0.5 * t
    weights *= t
    np.exp(weights, out=weights)
    weights *= (rows / math.sqrt(2.0 * math.pi)).repeat(counts)
    weights *= fx
    # Every weight is positive and finite, so a row's sum is finite exactly
    # when the integrand is finite at all of the row's nodes; +inf and -inf
    # in one row sum to NaN, which is rejected here, not warned about.
    with np.errstate(invalid="ignore"):
        sums = np.add.reduceat(weights, starts)
    if not np.isfinite(sums).all():
        raise ValueError("integrand returned non-finite values at the nodes")
    return float(sums[0]) if steps.ndim == 0 else sums


# Rows of a grid are evaluated in blocks, so that no array an integrand
# holds exceeds this many values (nodes times the terms it keeps per node)
# whatever the grid's length.  A row with more nodes is a block of its own.
_BLOCK = 2**14


def _blocks(counts, limit):
    """Slices of consecutive rows whose node counts sum to at most
    ``limit``, or single rows above it."""
    if counts.sum() <= limit:  # the whole grid is one block: no walk
        yield slice(None)
        return
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
        node_params = [p[..., rows].repeat(counts[rows], axis=-1) for p in params]
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
