"""Seeded link-level simulation: BER counting and plug-in entropy estimates.

Work is partitioned into fixed-size chunks of symbol indices; chunk ``k`` owns
``NoiseStream(seed, stream_id=k)`` for all of its randomness, and results are
reduced in chunk order.  Because the partition depends only on ``n_symbols``,
reports are bit-identical for any worker count.  The ``workers`` field merely
parallelizes chunk execution.

Each chunk draws its bits as two ``integers(0, 2, dtype=int64)`` arrays, x
then z (then x' and z' in 2-D), and then the noise through
:func:`layered_bpsk.channel.awgn_real` or ``awgn_complex``.  That order and
dtype fix the random stream, and with it every CSV byte ``ber`` prints.  The
0/1 draws index a 4-entry amplitude table built from ``WeightPair.points``,
the table the scalar encoder in :mod:`layered_bpsk.modem` reads, and the two
decisions are boolean compares equal to modem's sign rule, ties deciding +1;
the test suite pins both against the scalar modem.  The plug-in entropy costs
more per symbol than the rest of the kernel bar the noise, so
``simulate_1d(cfg, entropy=False)`` skips it; the ``ber`` command does.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NoiseStream, awgn_complex, awgn_real
from .core import NoiseSpec, SimReport, WeightPair
from .rates import layered_pdf, mixture_pdf

DECISION_FEEDBACK = "decision-feedback"
GENIE_AIDED = "genie-aided"
_MODES = (DECISION_FEEDBACK, GENIE_AIDED)

MIN_SYMBOLS = 10_000
# Largest symbol count of one run, about a minute of one worker's time at
# roughly 55 ns per symbol; a larger count is far more likely a typo.
MAX_SYMBOLS = 10**9
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
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers!r}")


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


def _chunk_sizes(n: int) -> list[int]:
    return [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]


def _run_chunks(cfg: SimConfig, chunk_fn):
    """Run chunk_fn(stream_id, size) over the fixed partition, reduce in order."""
    sizes = _chunk_sizes(cfg.n_symbols)
    if cfg.workers == 1:
        parts = [chunk_fn(k, size) for k, size in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(chunk_fn, range(len(sizes)), sizes))
    return [sum(component) for component in zip(*parts)]


def _draw_axis(generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One axis's bits as 0/1 draws, x then z; 1 stands for the bit +1."""
    return (generator.integers(0, 2, size=n, dtype=np.int64),
            generator.integers(0, 2, size=n, dtype=np.int64))


def _encode(x01: np.ndarray, z01: np.ndarray, w: WeightPair) -> np.ndarray:
    """Amplitudes of ``w.points`` looked up at index 2*x01 + z01."""
    table = np.empty(4)
    for x, z, amplitude in w.points:
        table[(x + 1) + (z + 1) // 2] = amplitude
    return table.take(2 * x01 + z01)


def _decide(y: np.ndarray, beta: float,
            feedback: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (z_hat, x_hat) decisions, True for +1, by modem's rule.

    z_hat = sign(y) and x_hat = sign(y - fb*beta), ties deciding +1, where fb
    is z_hat or, in genie-aided mode, the true z passed as ``feedback``.  For
    finite floats y - beta >= 0 exactly when y >= beta, so x_hat is +1
    exactly when y >= beta, or when y >= -beta and fb is -1.
    """
    z_hat = y >= 0.0
    fb = z_hat if feedback is None else feedback
    return z_hat, (y >= beta) | ((y >= -beta) & ~fb)


def _axis_errors(y: np.ndarray, x01: np.ndarray, z01: np.ndarray,
                 w: WeightPair, genie: bool) -> tuple[int, int]:
    z = z01.astype(bool)
    z_hat, x_hat = _decide(y, w.beta, z if genie else None)
    return (int(np.count_nonzero(z_hat != z)),
            int(np.count_nonzero(x_hat != x01.astype(bool))))


def _entropy_sums(neg_log2_p: np.ndarray) -> tuple[float, float]:
    return float(neg_log2_p.sum()), float((neg_log2_p * neg_log2_p).sum())


def _entropy_stats(ent_sum: float, ent_sumsq: float, n: int) -> tuple[float, float]:
    mean = ent_sum / n
    variance = max(ent_sumsq / n - mean * mean, 0.0) * n / (n - 1)
    return mean, math.sqrt(variance / n)


def _binomial_ci(errors: int, n: int) -> float:
    p = errors / n
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def _axis_fields(err_z: int, err_x: int, n: int, suffix: str = "") -> dict:
    return {f"errors_z{suffix}": err_z, f"errors_x{suffix}": err_x,
            f"ber_z{suffix}": err_z / n, f"ber_x{suffix}": err_x / n,
            f"ci_z{suffix}": _binomial_ci(err_z, n), f"ci_x{suffix}": _binomial_ci(err_x, n)}


def _report(cfg: SimConfig, errors: list, ent_sums: list) -> SimReport:
    """SimReport from per-axis (err_z, err_x) counts and, if computed, the
    two entropy sums."""
    n = cfg.n_symbols
    fields = _axis_fields(errors[0], errors[1], n)
    if len(errors) == 4:
        fields.update(_axis_fields(errors[2], errors[3], n, "_prime"))
    entropy, entropy_se = _entropy_stats(*ent_sums, n) if ent_sums else (None, None)
    return SimReport(n_symbols=n, seed=cfg.seed, mode=cfg.mode, empirical_entropy=entropy,
                     entropy_std_error=entropy_se, **fields)


def simulate_1d(cfg: SimConfig, entropy: bool = True) -> SimReport:
    """Simulate the one-dimensional layered scheme end to end.

    Counts z and x errors separately against the transmitted bits; in
    genie-aided mode the second stage subtracts the true z instead of the
    decision, isolating error propagation.  With ``entropy=False`` the
    plug-in entropy is skipped and its report fields are None; the error
    counts are the same either way.
    """
    w, sigma2 = cfg.w, cfg.spec.sigma2
    genie = cfg.mode == GENIE_AIDED

    def chunk(stream_id: int, size: int):
        stream = NoiseStream(cfg.seed, stream_id, cfg.spec)
        x01, z01 = _draw_axis(stream.generator, size)
        y = awgn_real(_encode(x01, z01, w), stream)
        counts = _axis_errors(y, x01, z01, w, genie)
        if not entropy:
            return counts
        return counts + _entropy_sums(-np.log2(layered_pdf(y, w, sigma2)))

    sums = _run_chunks(cfg, chunk)
    return _report(cfg, sums[:2], sums[2:])


def simulate_2d(cfg: SimConfig) -> SimReport:
    """Simulate the two-dimensional layered scheme; requires cfg.wp.

    Per-chunk draw order: x, z, x', z' bits, then the complex noise.
    """
    if cfg.wp is None:
        raise ValueError("simulate_2d requires cfg.wp for the imaginary axis")
    w, wp, sigma2 = cfg.w, cfg.wp, cfg.spec.sigma2
    genie = cfg.mode == GENIE_AIDED

    def chunk(stream_id: int, size: int):
        stream = NoiseStream(cfg.seed, stream_id, cfg.spec)
        x01, z01 = _draw_axis(stream.generator, size)
        xp01, zp01 = _draw_axis(stream.generator, size)
        y = awgn_complex(_encode(x01, z01, w) + 1j * _encode(xp01, zp01, wp), stream)
        neg_log2_p = -np.log2(layered_pdf(y.real, w, sigma2)) \
            - np.log2(layered_pdf(y.imag, wp, sigma2))
        return (_axis_errors(y.real, x01, z01, w, genie)
                + _axis_errors(y.imag, xp01, zp01, wp, genie)
                + _entropy_sums(neg_log2_p))

    sums = _run_chunks(cfg, chunk)
    return _report(cfg, sums[:4], sums[4:])


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
    noise), with p the matching two-point mixture.
    """
    if amplitude is None:
        report = simulate_1d(cfg, entropy=True)
        return EntropyEstimate(report.empirical_entropy, report.entropy_std_error,
                               cfg.n_symbols)

    if not math.isfinite(amplitude) or amplitude < 0.0:
        raise ValueError(f"amplitude must be a finite number >= 0, got {amplitude!r}")
    sigma2 = cfg.spec.sigma2

    def chunk(stream_id: int, size: int):
        stream = NoiseStream(cfg.seed, stream_id, cfg.spec)
        x01 = stream.generator.integers(0, 2, size=size, dtype=np.int64)
        y = awgn_real(amplitude * (2 * x01 - 1), stream)
        return _entropy_sums(-np.log2(mixture_pdf(y, amplitude, sigma2)))

    ent_sum, ent_sumsq = _run_chunks(cfg, chunk)
    mean, std_error = _entropy_stats(ent_sum, ent_sumsq, cfg.n_symbols)
    return EntropyEstimate(mean, std_error, cfg.n_symbols)

