"""Seeded link-level simulation: BER counting and plug-in entropy estimates.

Work is partitioned into fixed-size chunks of symbol indices; chunk ``k`` owns
``NoiseStream(seed, stream_id=k)`` for all of its randomness and returns one
array of totals; the arrays are added in chunk order.  Because the partition
depends only on ``n_symbols``, results are bit-identical for any worker
count.  The ``workers`` field merely parallelizes chunk execution.

Every chunk draws through :func:`_draw`: each axis's symbols from raw
64-bit PCG64 words, axis after axis (real axis first), and then each axis's
noise through :func:`layered_bpsk.channel.noise_real` in the same order.
Each word gives 32 symbols, two bits each, x the high bit and z the low one.
A chunk keeps only how many symbols hold each index 2*x + z, and gives its
noise to the symbols in class order: index 0 first, then 1, 2 and 3.  That
order and layout fix the random stream, and with it every CSV byte ``ber``
prints.

Two passes run on those draws, each with one estimator.  The BER kernel
simulates one or two axes at a list of grid points and only counts errors.
Its draws are made once per chunk and shared by all grid points (common
random numbers), and it counts by thresholds, not symbol by symbol: a chunk
sorts each class's contiguous slice of the noise once, in place, and a
binary search finds, for every grid point, how much of a class's noise lifts
its amplitude past each level the receiver compares with.
:func:`layered_bpsk.modem.decide` then decides once per region between
those levels.  Point k of :func:`sweep_1d` therefore reports exactly what
:func:`simulate_1d` reports at its weights, and ``ber`` runs its whole grid
in one sweep.  :func:`empirical_entropy` alone estimates the received-signal
entropy, on the draws of one axis.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NoiseStream, noise_real
from .core import NoiseSpec, SimReport, WeightPair
from .modem import _INDEX_BITS, amplitude_table, decide
from .rates import layered_pdf, mixture_pdf

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
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not isinstance(self.workers, int) or not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be an integer in [1, {MAX_WORKERS}], "
                             f"got {self.workers!r}")


def qfunc(t: float) -> float:
    """Gaussian tail probability Q(t) = erfc(t / sqrt(2)) / 2."""
    if not math.isfinite(t):
        raise ValueError(f"qfunc requires a finite argument, got {t!r}")
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def _normal_mass(lo: float, hi: float, mean: float, sigma: float) -> float:
    """P(lo <= Y < hi) for Y ~ N(mean, sigma**2); either bound may be infinite.

    Taken from the tail on the interval's side of the mean, so a small mass
    keeps its relative precision.
    """
    def upper(t: float) -> float:  # P(Y >= t)
        return 0.0 if t == math.inf else qfunc((t - mean) / sigma)

    def lower(t: float) -> float:  # P(Y < t)
        return 0.0 if t == -math.inf else qfunc((mean - t) / sigma)

    if lo >= mean:
        return upper(lo) - upper(hi)
    if hi <= mean:
        return lower(hi) - lower(lo)
    return 1.0 - lower(lo) - upper(hi)


def ber_predictions_1d(w: WeightPair, spec: NoiseSpec, mode: str) -> tuple[float, float]:
    """Q-function BER predictions (ber_z, ber_x) of the receiver in ``mode``.

    The sign stage sees ``w.sign_pair`` in both modes.  With the true z
    removed (genie-aided) the second stage sees ``w.residual_pair``.  With
    the decided z fed back, x_hat = +1 exactly when y lies in [-beta, 0) or
    [beta, inf), so ber_x is the mean over ``w.points`` of the Gaussian mass
    of the region that decides against the sent x.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    sigma = math.sqrt(spec.sigma2)

    def pair_ber(pair: tuple[float, float]) -> float:
        a, b = pair
        return 0.5 * qfunc(a / sigma) + 0.5 * qfunc(b / sigma)

    if mode == GENIE_AIDED:
        return pair_ber(w.sign_pair), pair_ber(w.residual_pair)
    b = w.beta
    decides_plus = ((-b, 0.0), (b, math.inf))
    decides_minus = ((-math.inf, -b), (0.0, b))
    ber_x = sum(_normal_mass(lo, hi, amplitude, sigma)
                for x, _, amplitude in w.points
                for lo, hi in (decides_minus if x == 1 else decides_plus)) / 4.0
    return pair_ber(w.sign_pair), ber_x


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


# Row b counts how many of byte b's four 2-bit fields hold each symbol index
# 2*x + z, so a byte histogram times this table gives an axis's class sizes.
# Built from Python ints: building a table with numpy operations at import
# raised the peak memory of the rate workloads in perfbench by 64 KB.
_BYTE_COUNTS = np.frombuffer(
    bytes((b >> 6 == k) + (b >> 4 & 3 == k) + (b >> 2 & 3 == k) + (b & 3 == k)
          for b in range(256) for k in range(4)),
    np.uint8).reshape(256, 4)


def _draw(stream: NoiseStream, size: int, axes: int):
    """One chunk's class sizes and noise on ``axes`` axes, in the module's draw order.

    Each axis draws ceil(size / 32) raw words from the generator's PCG64 and
    reads them as little-endian bytes, so the symbols do not depend on the
    machine's byte order.  Byte j gives symbols 4j to 4j + 3 from its bits
    7-6, 5-4, 3-2 and 1-0, and the fields past ``size`` in the last word are
    dropped.  Only each class's size is kept: an axis's noise goes to its
    symbols in class order, its first m0 samples to the symbols of index 0
    in position order, the next m1 to those of index 1, and so on.  The
    noise is i.i.d. and drawn apart from the bits, so that pairing leaves
    the channel law unchanged.  Returns a list of each axis's four class
    sizes and a list of each axis's noise.
    """
    def class_sizes() -> np.ndarray:
        words = stream.generator.bit_generator.random_raw((size + 31) // 32)
        octets = words.astype("<u8", copy=False).view(np.uint8)
        full, rest = divmod(size, 4)
        sizes = np.bincount(octets[:full], minlength=256) @ _BYTE_COUNTS
        for shift in (6, 4, 2, 0)[:rest]:
            sizes[octets[full] >> shift & 3] += 1
        return sizes

    return [class_sizes() for _ in range(axes)], [noise_real(size, stream) for _ in range(axes)]


def _threshold(a: float, c: float) -> float:
    """The least float n with fl(a + n) >= c, for finite a and c.

    a + n rounds to c or above exactly when it lies above the midpoint of c
    and the float below it, so the search starts at that midpoint less a,
    which one fsum gives to within its last rounding.  Rounding is monotone,
    so nextafter steps then make the threshold exact; it is +inf when no
    finite n reaches c.
    """
    try:
        n = math.fsum((0.5 * c, 0.5 * math.nextafter(c, -math.inf), -a))
    except OverflowError:  # the midpoint lies beyond the float range, on the side of -a
        n = math.copysign(sys.float_info.max, -a)
    while a + n < c:
        n = math.nextafter(n, math.inf)
    while a + math.nextafter(n, -math.inf) >= c:
        n = math.nextafter(n, -math.inf)
    return n


_X_BITS, _Z_BITS = _INDEX_BITS.T


def _simulate(cfg: SimConfig, points: Sequence[tuple[WeightPair, ...]]) -> list[SimReport]:
    """The layered scheme at each of ``points``, one WeightPair per axis.

    Every point runs on the same bits and noise, counted by thresholds.
    Class k of a point, the symbols sent at a = ``amplitude_table(w)[k]``,
    receives y = fl(a + n) for noise n, and the receiver only compares y
    with -beta, 0 and beta.  ``_threshold(a, c)`` is the least noise with
    y >= c, so the class's noise below its three thresholds splits into four
    regions, each of one set of decisions.  A chunk sorts in place each
    class's slice of the noise, as :func:`_draw` pairs them, and returns its
    count below every threshold of every point, and below +inf, which is the
    class's size, in an array of shape (axes, 4 classes, 4 * points).  After
    the chunks are added, :func:`layered_bpsk.modem.decide` runs once per
    region on its lowest received sample (-inf, -beta, 0 or beta), and the
    region's count adds to the errors its decisions make against the class's
    bits.  In genie-aided mode the second stage subtracts the class's true z
    instead of the decision, isolating error propagation.
    """
    if not points:
        return []
    axes = len(points[0])
    # tau[p, axis, k]: class k's thresholds at -beta, 0 and beta, then +inf.
    tau = np.array([[[[_threshold(a, c) for c in (-w.beta, 0.0, w.beta)] + [math.inf]
                      for a in amplitude_table(w).tolist()]
                     for w in point] for point in points])
    searched = tau.transpose(1, 2, 0, 3).reshape(axes, 4, -1)

    def chunk(stream: NoiseStream, size: int) -> np.ndarray:
        sizes, noise = _draw(stream, size, axes)
        rows = []
        for axis_sizes, axis_noise, axis_searched in zip(sizes, noise, searched):
            classes = np.split(axis_noise, np.cumsum(axis_sizes[:-1]))
            for class_noise in classes:
                class_noise.sort()
            rows.append([np.searchsorted(class_noise, thresholds)
                         for class_noise, thresholds in zip(classes, axis_searched)])
        return np.array(rows)

    below = _run_chunks(cfg, chunk).reshape(axes, 4, len(points), 4).transpose(2, 0, 1, 3)
    counts = np.diff(below, axis=-1, prepend=0)
    # Each region's lowest received sample, the last one beta itself.
    y = np.array([[[[-math.inf, -w.beta, 0.0, w.beta]] for w in point] for point in points])
    z_hat, x_hat = decide(y, y[..., 3:], _Z_BITS[:, None] if cfg.mode == GENIE_AIDED else None)
    errors = np.stack([(counts * (z_hat != _Z_BITS[:, None])).sum(axis=(-2, -1)),
                       (counts * (x_hat != _X_BITS[:, None])).sum(axis=(-2, -1))], axis=-1)
    return [SimReport(n_symbols=cfg.n_symbols, seed=cfg.seed, mode=cfg.mode,
                      errors=tuple((z, x) for z, x in row))
            for row in errors.tolist()]


def sweep_1d(cfg: SimConfig, weights: Sequence[WeightPair]) -> list[SimReport]:
    """``simulate_1d`` at each entry of ``weights`` in place of ``cfg.w``.

    All points share each chunk's bits and noise (common random numbers),
    so report k equals ``simulate_1d(replace(cfg, w=weights[k]))`` field for
    field, at a fraction of the cost of running them one by one.
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
    n_symbols: int


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
        if not math.isfinite(amplitude) or amplitude < 0.0:
            raise ValueError(f"amplitude must be a finite number >= 0, got {amplitude!r}")
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
    return EntropyEstimate(mean, math.sqrt(variance / n), n)
