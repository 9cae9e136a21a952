"""Seeded link-level simulation: BER counting and plug-in entropy estimates.

Work is partitioned into fixed-size chunks of symbol indices; chunk ``k`` owns
``NoiseStream(seed, stream_id=k)`` for all of its randomness and returns one
array of totals; the arrays are added in chunk order.  Because the partition
depends only on ``n_symbols``, results are bit-identical for any worker
count.  The ``workers`` field merely parallelizes chunk execution.

Every chunk draws through :func:`_draw`: the class sizes of all its axes in
one multinomial draw, how many of the chunk's equiprobable symbols hold each
index 2*x + z, and then every axis's noise in one
:func:`layered_bpsk.channel.noise_real` call, real axis first.  The noise
goes to the symbols in class order: index 0 first, then 1, 2 and 3.  That
order fixes the random stream, and with it every CSV byte ``ber`` prints.

Two passes run on those draws, each with one estimator.  The BER kernel
simulates one or two axes at a list of grid points and only counts errors.
Its draws are made once per chunk and shared by all grid points (common
random numbers), and it counts by thresholds, not symbol by symbol: a chunk
sorts each class's contiguous slice of the noise once, in place, and a
binary search finds, for every grid point, how much of a class's noise lifts
its amplitude past each level the receiver compares with.  The decisions
in a region between those levels do not depend on beta, so one table from
:func:`layered_bpsk.modem.decide` serves every grid point.  Point k of
:func:`sweep_1d` therefore reports exactly what :func:`simulate_1d` reports
at its weights, and ``ber`` runs its whole grid in one sweep.
:func:`ber_predictions_1d` takes its errors from that same table, summed
over the Gaussian mass each class puts in each region in place of the
counts, so the predictions and the counts state the receiver once.
:func:`empirical_entropy` alone estimates the received-signal entropy, on
the draws of one axis.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NoiseStream, check_seed, noise_real
from .core import NoiseSpec, SimReport, WeightPair, is_finite
from .modem import _INDEX_BITS, amplitude_table, decide
from .rates import check_amplitude, layered_pdf, mixture_pdf

DECISION_FEEDBACK = "decision-feedback"
GENIE_AIDED = "genie-aided"
_MODES = (DECISION_FEEDBACK, GENIE_AIDED)

MIN_SYMBOLS = 10_000
# Largest symbol count of one run, under half a minute of one worker's time
# at roughly 27 ns per symbol at one grid point on a 2-vCPU Xeon; a larger
# count is far more likely a typo.
MAX_SYMBOLS = 10**9
# Largest worker count.  Each running worker thread holds one chunk's arrays,
# 1 to 5 MB, and threads beyond the host's cores only wait their turn; a
# larger count is far more likely a typo.
MAX_WORKERS = 64
_CHUNK = 1 << 17


def _check_mode(mode) -> None:
    """The mode rule: one of ``_MODES``."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run."""

    n_symbols: int
    w: WeightPair
    spec: NoiseSpec
    seed: int
    mode: str = DECISION_FEEDBACK
    wp: WeightPair | None = None
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.n_symbols, int) or not MIN_SYMBOLS <= self.n_symbols <= MAX_SYMBOLS:
            raise ValueError(f"n_symbols must be an integer in [{MIN_SYMBOLS}, {MAX_SYMBOLS}], "
                             f"got {self.n_symbols!r}")
        check_seed(self.seed)
        _check_mode(self.mode)
        if not isinstance(self.workers, int) or not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be an integer in [1, {MAX_WORKERS}], "
                             f"got {self.workers!r}")


def qfunc(t: float) -> float:
    """Gaussian tail probability Q(t) = erfc(t / sqrt(2)) / 2."""
    if not is_finite(t):
        raise ValueError(f"qfunc requires a finite argument, got {t!r}")
    return 0.5 * math.erfc(float(t) / math.sqrt(2.0))


def _tail(distance: float, sigma: float) -> float:
    """Q(distance / sigma) for a distance >= 0; 0 when the ratio is +inf."""
    t = distance / sigma
    return 0.0 if t == math.inf else qfunc(t)


def _normal_mass(lo: float, hi: float, mean: float, sigma: float) -> float:
    """P(lo <= Y < hi) for Y ~ N(mean, sigma**2); either bound may be infinite.

    Taken from the tail on the interval's side of the mean, so a small mass
    keeps its relative precision; a tail that starts an infinite number of
    sigmas away, at an infinite bound or by overflow, holds no mass.
    """
    if lo >= mean:
        return _tail(lo - mean, sigma) - _tail(hi - mean, sigma)
    if hi <= mean:
        return _tail(mean - hi, sigma) - _tail(mean - lo, sigma)
    return 1.0 - _tail(mean - lo, sigma) - _tail(hi - mean, sigma)


# The receiver compares a sample with -beta, 0 and beta: its region edges at
# beta = 1, with -inf and +inf outside.
_EDGES = (-1.0, 0.0, 1.0)
_X_BITS, _Z_BITS = _INDEX_BITS.T


def _wrong(mode: str) -> np.ndarray:
    """wrong[s, k, r]: whether stage s (z, then x) errs for class k in region r.

    Class k holds the symbols of index k and region r the samples in
    [edge r, edge r + 1) of (-inf, -beta, 0, beta, inf).  A region's
    decisions do not depend on beta, so :func:`layered_bpsk.modem.decide`
    runs at beta = 1 on each region's lowest sample.  In genie-aided mode
    the second stage subtracts the true z, isolating error propagation.
    """
    z_hat, x_hat = decide(np.array([-math.inf, *_EDGES]), 1.0,
                          _Z_BITS[:, None] if mode == GENIE_AIDED else None)
    return np.array([z_hat != _Z_BITS[:, None], x_hat != _X_BITS[:, None]])


_WRONG = {mode: _wrong(mode) for mode in _MODES}


def _errors(table: np.ndarray, mode: str) -> np.ndarray:
    """Errors summed over a (..., 4, 4) table of (class, region) values.

    Each value adds to the errors its region's decisions make against its
    class's bits in ``mode``; the result's last axis is (z errors, x errors).
    """
    return (table[..., None, :, :] * _WRONG[mode]).sum(axis=(-2, -1))


def ber_predictions_1d(w: WeightPair, spec: NoiseSpec, mode: str) -> tuple[float, float]:
    """Q-function BER predictions (ber_z, ber_x) of the receiver in ``mode``.

    ``mass[k, r]`` is the Gaussian mass that class k, at amplitude
    ``amplitude_table(w)[k]``, puts in region r of the receiver.  Each
    prediction is the error sum :func:`_simulate` takes over its counts,
    taken over ``mass`` and divided by 4: the expected errors per symbol.
    In genie-aided mode the sums equal 0.5*Q(a/sigma) + 0.5*Q(b/sigma) over
    ``w.sign_pair`` for z and over ``w.residual_pair`` for x.
    """
    _check_mode(mode)
    sigma = math.sqrt(spec.sigma2)
    edges = [-math.inf, *(w.beta * e for e in _EDGES), math.inf]
    regions = list(zip(edges, edges[1:]))
    mass = np.array([[_normal_mass(lo, hi, a, sigma) for lo, hi in regions]
                     for a in amplitude_table(w).tolist()])
    ber_z, ber_x = _errors(mass, mode).tolist()
    return ber_z / 4.0, ber_x / 4.0


def _run_chunks(cfg: SimConfig, chunk_fn) -> np.ndarray:
    """Run chunk_fn(stream, size) over the fixed partition, chunk k on
    ``NoiseStream(cfg.seed, k)``; add its arrays in chunk order.

    One worker runs the chunks in the calling thread, which spares a pool
    thread and the malloc arena it would fill.
    """
    sizes = [min(_CHUNK, cfg.n_symbols - start) for start in range(0, cfg.n_symbols, _CHUNK)]

    def run(stream_id: int, size: int) -> np.ndarray:
        return chunk_fn(NoiseStream(cfg.seed, stream_id, cfg.spec), size)

    if cfg.workers == 1:
        return sum(map(run, range(len(sizes)), sizes))
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return sum(pool.map(run, range(len(sizes)), sizes))


def _draw(stream: NoiseStream, size: int, axes: int):
    """One chunk's class sizes and noise on ``axes`` axes, in the module's draw order.

    The two bits of a symbol are independent and equiprobable, so an axis's
    four class sizes, how many of its ``size`` symbols hold each index
    2*x + z, follow Multinomial(size; 1/4, 1/4, 1/4, 1/4); one draw gives
    them for every axis.  An axis's noise goes to its symbols in class
    order, its first m0 samples to the symbols of index 0, the next m1 to
    those of index 1, and so on.  The noise is i.i.d. and drawn apart from
    the class sizes, so that pairing leaves the channel law unchanged.
    Returns each axis's four class sizes and an (axes, size) array of
    noise, whose rows are what consecutive per-axis draws would give.
    """
    sizes = stream.generator.multinomial(size, [0.25] * 4, size=axes)
    return sizes, noise_real((axes, size), stream)


def _threshold(a: float, c: float) -> float:
    """The least float n with fl(a + n) >= c, for finite a and a finite
    float below c.

    a + n rounds to c or above exactly when it lies above the midpoint of c
    and the float below it, so the search starts at that midpoint less a.
    One fsum of the halved terms gives half of it, which cannot overflow,
    to within its last rounding, and doubling is exact up to the float
    range; only subnormal terms lose a bit or two when halved.  Rounding is
    monotone, so a few nextafter steps then make the threshold exact; it is
    +inf when no finite n reaches c.
    """
    n = 2.0 * math.fsum((0.25 * c, 0.25 * math.nextafter(c, -math.inf), -0.5 * a))
    while a + n < c:
        n = math.nextafter(n, math.inf)
    while a + math.nextafter(n, -math.inf) >= c:
        n = math.nextafter(n, -math.inf)
    return n


def _simulate(cfg: SimConfig, points: Sequence[tuple[WeightPair, ...]]) -> list[SimReport]:
    """The layered scheme at each of ``points``, one WeightPair per axis.

    Every point runs on the same class sizes and noise, counted by
    thresholds.  Class k of a point, the symbols sent at
    a = ``amplitude_table(w)[k]``, receives y = fl(a + n) for noise n, and
    the receiver only compares y with -beta, 0 and beta.
    ``_threshold(a, c)`` is the least noise with y >= c, so the class's
    noise below its three thresholds splits into the four regions of
    :func:`_wrong`.  A chunk sorts in place each class's slice of the
    noise, as :func:`_draw` pairs them, and counts it below every threshold
    of every point, and below +inf, the class's size, in an array laid out
    like the thresholds.  Their differences are each point's (class, region)
    counts, and one :func:`_errors` call sums every point's errors.
    """
    if not points:
        return []
    # tau[p, axis, k]: class k's thresholds at -beta, 0 and beta, then +inf.
    tau = np.array([[[[_threshold(a, w.beta * e) for e in _EDGES] + [math.inf]
                      for a in amplitude_table(w).tolist()]
                     for w in point] for point in points])

    def chunk(stream: NoiseStream, size: int) -> np.ndarray:
        sizes, noise = _draw(stream, size, len(points[0]))
        below = np.empty(tau.shape, dtype=int)
        classes = np.split(noise.reshape(-1), np.cumsum(sizes)[:-1])
        for (axis, k), class_noise in zip(np.ndindex(sizes.shape), classes):
            class_noise.sort()
            below[:, axis, k] = np.searchsorted(class_noise, tau[:, axis, k])
        return below

    counts = np.diff(_run_chunks(cfg, chunk), axis=-1, prepend=0)
    errors = _errors(counts, cfg.mode)
    return [SimReport(n_symbols=cfg.n_symbols, errors=tuple((z, x) for z, x in row))
            for row in errors.tolist()]


def sweep_1d(cfg: SimConfig, weights: Sequence[WeightPair]) -> list[SimReport]:
    """``simulate_1d`` at each entry of ``weights`` in place of ``cfg.w``.

    All points share each chunk's class sizes and noise (common random
    numbers), so report k equals ``simulate_1d(replace(cfg, w=weights[k]))``
    field for field, at a fraction of the cost of running them one by one.
    """
    return _simulate(cfg, [(w,) for w in weights])


def simulate_1d(cfg: SimConfig) -> SimReport:
    """Simulate the one-dimensional layered scheme end to end."""
    return sweep_1d(cfg, [cfg.w])[0]


def simulate_2d(cfg: SimConfig) -> SimReport:
    """Simulate the two-dimensional layered scheme; requires cfg.wp.

    Axis 0 of the report is the real axis (weights ``cfg.w``), axis 1 the
    imaginary axis (``cfg.wp``).
    """
    if cfg.wp is None:
        raise ValueError("simulate_2d requires cfg.wp for the imaginary axis")
    return _simulate(cfg, [(cfg.w, cfg.wp)])[0]


@dataclass(frozen=True)
class EntropyEstimate:
    """Plug-in estimate of the received-signal entropy."""

    bits: float
    std_error: float


def empirical_entropy(cfg: SimConfig, amplitude: float | None = None) -> EntropyEstimate:
    """Sample mean of -log2 p(y) over simulated received samples.

    With ``amplitude=None`` the samples come from the layered 1-D scheme and
    p is its four-point mixture density.  Passing an amplitude simulates
    plain antipodal signalling at that amplitude instead (0 gives pure
    noise), with p the matching two-point mixture.  Either way a chunk draws
    what :func:`simulate_1d` draws, and each class's amplitude, repeated by
    its size, meets its slice of the noise; the antipodal sign is the z bit.
    """
    if amplitude is None:
        table, density, shape = amplitude_table(cfg.w), layered_pdf, cfg.w
    else:
        amplitude = check_amplitude(amplitude)
        # The z bit is the sign.
        table, density, shape = np.where(_Z_BITS, amplitude, -amplitude), mixture_pdf, amplitude

    def chunk(stream: NoiseStream, size: int) -> np.ndarray:
        [sizes], [noise] = _draw(stream, size, 1)
        neg_log2_p = -np.log2(density(np.repeat(table, sizes) + noise, shape, cfg.spec.sigma2))
        return np.array([neg_log2_p.sum(), (neg_log2_p * neg_log2_p).sum()])

    n = cfg.n_symbols
    ent_sum, ent_sumsq = _run_chunks(cfg, chunk).tolist()
    mean = ent_sum / n
    variance = max(ent_sumsq / n - mean * mean, 0.0) * n / (n - 1)
    return EntropyEstimate(mean, math.sqrt(variance / n))
