"""Seeded link-level simulation: BER counting and plug-in entropy estimates.

Work is partitioned into fixed-size chunks of symbol indices; chunk ``k`` owns
``NoiseStream(seed, stream_id=k)`` for all of its randomness and returns one
array of totals; the arrays are added in chunk order.  Because the partition
depends only on ``n_symbols``, results are bit-identical for any worker
count.  The ``workers`` field merely parallelizes chunk execution.

Every chunk draws through :func:`_draw`: each axis's bits as two
``integers(0, 2, dtype=int64)`` arrays, x then z, axis after axis (real axis
first), and then each axis's noise through
:func:`layered_bpsk.channel.noise_real` in the same order.  That order and
dtype fix the random stream, and with it every CSV byte ``ber`` prints.

Two passes run on those draws, each with one estimator.  The BER kernel
simulates one or two axes at a list of grid points and only counts errors.
Its draws are made once per chunk and shared by all grid points (common
random numbers), and it counts by thresholds, not symbol by symbol: a chunk
splits the noise by symbol index and sorts each class once, and a binary
search finds, for every grid point, how much of a class's noise lifts its
amplitude past each level the receiver compares with.
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
from .modem import _INDEX_BITS, amplitude_table, decide, symbol_index
from .rates import layered_pdf, mixture_pdf

DECISION_FEEDBACK = "decision-feedback"
GENIE_AIDED = "genie-aided"
_MODES = (DECISION_FEEDBACK, GENIE_AIDED)

MIN_SYMBOLS = 10_000
# Largest symbol count of one run, about a minute of one worker's time at
# roughly 70 ns per symbol at one grid point; a larger count is far more
# likely a typo.
MAX_SYMBOLS = 10**9
# Largest worker count.  Each running worker thread holds one chunk's arrays,
# a few MB, and threads beyond the host's cores only wait their turn; a
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
    ``NoiseStream(cfg.seed, k)``; add its arrays in chunk order."""
    sizes = [min(_CHUNK, cfg.n_symbols - start) for start in range(0, cfg.n_symbols, _CHUNK)]

    def run(stream_id: int, size: int) -> np.ndarray:
        return chunk_fn(NoiseStream(cfg.seed, stream_id, cfg.spec), size)

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return sum(pool.map(run, range(len(sizes)), sizes))


def _draw(stream: NoiseStream, size: int, axes: int):
    """One chunk's symbols and noise on ``axes`` axes, in the module's draw order.

    Returns a list of each axis's :func:`layered_bpsk.modem.symbol_index`,
    written over its x draw, and a list of each axis's noise.
    """
    def bits() -> np.ndarray:
        return stream.generator.integers(0, 2, size=size, dtype=np.int64)

    indices = []
    for _ in range(axes):
        x01 = bits()
        indices.append(symbol_index(x01, bits(), out=x01))
    return indices, [noise_real(size, stream) for _ in range(axes)]


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


def _class_noise(noise: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """The noise of the symbols with index ``k``, sorted."""
    class_noise = np.compress(index == k, noise)
    class_noise.sort()
    return class_noise


_X_BITS, _Z_BITS = _INDEX_BITS.T


def _simulate(cfg: SimConfig, points: Sequence[tuple[WeightPair, ...]]) -> list[SimReport]:
    """The layered scheme at each of ``points``, one WeightPair per axis.

    Every point runs on the same bits and noise, counted by thresholds.
    Class k of a point, the symbols sent at a = ``amplitude_table(w)[k]``,
    receives y = fl(a + n) for noise n, and the receiver only compares y
    with -beta, 0 and beta.  ``_threshold(a, c)`` is the least noise with
    y >= c, so the class's noise below its three thresholds splits into four
    regions, each of one set of decisions.  A chunk sorts each class's noise
    once and returns its count below every threshold of every point, and
    below +inf, which is the class's size, in an array of shape
    (axes, 4 classes, 4 * points).  After the chunks are added,
    :func:`layered_bpsk.modem.decide` runs once per region on its lowest
    received sample (-inf, -beta, 0 or beta), and the region's count adds to
    the errors its decisions make against the class's bits.  In genie-aided
    mode the second stage subtracts the class's true z instead of the
    decision, isolating error propagation.
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
        indices, noise = _draw(stream, size, axes)
        return np.array([[np.searchsorted(_class_noise(axis_noise, index, k), thresholds)
                          for k, thresholds in enumerate(axis_searched)]
                         for index, axis_noise, axis_searched in zip(indices, noise, searched)])

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
    what :func:`simulate_1d` draws; the antipodal sign is the z bit.
    """
    if amplitude is None:
        table, density, shape = amplitude_table(cfg.w), layered_pdf, cfg.w
    else:
        if not math.isfinite(amplitude) or amplitude < 0.0:
            raise ValueError(f"amplitude must be a finite number >= 0, got {amplitude!r}")
        # The z bit is the sign.
        table, density, shape = np.where(_Z_BITS, amplitude, -amplitude), mixture_pdf, amplitude

    def chunk(stream: NoiseStream, size: int) -> np.ndarray:
        [index], [noise] = _draw(stream, size, 1)
        neg_log2_p = -np.log2(density(table[index] + noise, shape, cfg.spec.sigma2))
        return np.array([neg_log2_p.sum(), (neg_log2_p * neg_log2_p).sum()])

    n = cfg.n_symbols
    ent_sum, ent_sumsq = _run_chunks(cfg, chunk).tolist()
    mean = ent_sum / n
    variance = max(ent_sumsq / n - mean * mean, 0.0) * n / (n - 1)
    return EntropyEstimate(mean, math.sqrt(variance / n), n)
