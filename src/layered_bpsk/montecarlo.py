"""Seeded link-level simulation: BER counting and plug-in entropy estimates.

Work is partitioned into fixed-size chunks of symbol indices; chunk ``k`` owns
``NoiseStream(seed, stream_id=k)`` for all of its randomness (x bits, then z
bits, then noise), and results are reduced in chunk order.  Because the
partition depends only on ``n_symbols``, reports are bit-identical for any
worker count.  The ``workers`` field merely parallelizes chunk execution.

Transmit amplitudes are looked up in the constellation table
``WeightPair.points``, the same table the scalar encoder in
:mod:`layered_bpsk.modem` reads.  The array sign decisions apply the rule of
modem's scalar demodulators, ties at zero deciding +1; the test suite pins
the two paths against each other.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NoiseStream, awgn_complex, awgn_real
from .core import Bit, NoiseSpec, SimReport, SymbolFrame, WeightPair
from .modem import encode_1d, encode_2d
from .rates import layered_pdf, mixture_pdf

DECISION_FEEDBACK = "decision-feedback"
GENIE_AIDED = "genie-aided"
_MODES = (DECISION_FEEDBACK, GENIE_AIDED)

MIN_SYMBOLS = 10_000
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
        if not isinstance(self.n_symbols, int) or self.n_symbols < MIN_SYMBOLS:
            raise ValueError(f"n_symbols must be an integer >= {MIN_SYMBOLS}, got {self.n_symbols!r}")
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


def ber_predictions_1d(w: WeightPair, spec: NoiseSpec) -> tuple[float, float]:
    """Q-function BER predictions (ber_z, ber_x) assuming correct feedback.

    The sign stage sees ``w.sign_pair``; with the true z removed the second
    stage sees ``w.residual_pair``.
    """
    sigma = math.sqrt(spec.sigma2)

    def pair_ber(pair: tuple[float, float]) -> float:
        a, b = pair
        return 0.5 * qfunc(a / sigma) + 0.5 * qfunc(b / sigma)

    return pair_ber(w.sign_pair), pair_ber(w.residual_pair)


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


def _random_bits(generator, n: int) -> np.ndarray:
    return 2 * generator.integers(0, 2, size=n, dtype=np.int64) - 1


def _tx_amplitudes_1d(x: np.ndarray, z: np.ndarray, w: WeightPair) -> np.ndarray:
    # x + 2*z + 3 sends the four +-1 bit pairs to the distinct slots 0, 2, 4, 6.
    table = np.zeros(7)
    for bx, bz, amplitude in w.points:
        table[bx + 2 * bz + 3] = amplitude
    return table.take(x + 2 * z + 3)


def _sign_decisions(values: np.ndarray) -> np.ndarray:
    # Ties at exactly zero decide +1, matching modem._sign_bit.
    return np.where(values >= 0.0, 1, -1)


def _entropy_sums(neg_log2_p: np.ndarray) -> tuple[float, float]:
    return float(neg_log2_p.sum()), float((neg_log2_p * neg_log2_p).sum())


def _binomial_ci(errors: int, n: int) -> float:
    p = errors / n
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def simulate_1d(cfg: SimConfig) -> SimReport:
    """Simulate the one-dimensional layered scheme end to end.

    Counts z and x errors separately against the transmitted bits; in
    genie-aided mode the second stage subtracts the true z instead of the
    decision, isolating error propagation.
    """
    w, sigma2 = cfg.w, cfg.spec.sigma2
    genie = cfg.mode == GENIE_AIDED

    def chunk(stream_id: int, size: int):
        stream = NoiseStream(cfg.seed, stream_id, cfg.spec)
        gen = stream.generator
        x = _random_bits(gen, size)
        z = _random_bits(gen, size)
        y = awgn_real(_tx_amplitudes_1d(x, z, w), stream)
        z_hat = _sign_decisions(y)
        feedback = z if genie else z_hat
        x_hat = _sign_decisions(y - feedback * w.beta)
        ent_sum, ent_sumsq = _entropy_sums(-np.log2(layered_pdf(y, w, sigma2)))
        return (int(np.count_nonzero(z_hat != z)),
                int(np.count_nonzero(x_hat != x)),
                ent_sum, ent_sumsq)

    err_z, err_x, ent_sum, ent_sumsq = _run_chunks(cfg, chunk)
    return _report_1d(cfg, err_z, err_x, ent_sum, ent_sumsq)


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
        gen = stream.generator
        x = _random_bits(gen, size)
        z = _random_bits(gen, size)
        xp = _random_bits(gen, size)
        zp = _random_bits(gen, size)
        tx = _tx_amplitudes_1d(x, z, w) + 1j * _tx_amplitudes_1d(xp, zp, wp)
        y = awgn_complex(tx, stream)
        z_hat = _sign_decisions(y.real)
        zp_hat = _sign_decisions(y.imag)
        fb_re = z if genie else z_hat
        fb_im = zp if genie else zp_hat
        x_hat = _sign_decisions(y.real - fb_re * w.beta)
        xp_hat = _sign_decisions(y.imag - fb_im * wp.beta)
        neg_log2_p = -np.log2(layered_pdf(y.real, w, sigma2)) \
            - np.log2(layered_pdf(y.imag, wp, sigma2))
        ent_sum, ent_sumsq = _entropy_sums(neg_log2_p)
        return (int(np.count_nonzero(z_hat != z)),
                int(np.count_nonzero(x_hat != x)),
                int(np.count_nonzero(zp_hat != zp)),
                int(np.count_nonzero(xp_hat != xp)),
                ent_sum, ent_sumsq)

    err_z, err_x, err_zp, err_xp, ent_sum, ent_sumsq = _run_chunks(cfg, chunk)
    n = cfg.n_symbols
    entropy, entropy_se = _entropy_stats(ent_sum, ent_sumsq, n)
    return SimReport(
        n_symbols=n,
        seed=cfg.seed,
        mode=cfg.mode,
        errors_z=err_z,
        errors_x=err_x,
        ber_z=err_z / n,
        ber_x=err_x / n,
        ci_z=_binomial_ci(err_z, n),
        ci_x=_binomial_ci(err_x, n),
        empirical_entropy=entropy,
        entropy_std_error=entropy_se,
        errors_z_prime=err_zp,
        errors_x_prime=err_xp,
        ber_z_prime=err_zp / n,
        ber_x_prime=err_xp / n,
        ci_z_prime=_binomial_ci(err_zp, n),
        ci_x_prime=_binomial_ci(err_xp, n),
    )


def _entropy_stats(ent_sum: float, ent_sumsq: float, n: int) -> tuple[float, float]:
    mean = ent_sum / n
    variance = max(ent_sumsq / n - mean * mean, 0.0) * n / (n - 1)
    return mean, math.sqrt(variance / n)


def _report_1d(cfg: SimConfig, err_z: int, err_x: int,
               ent_sum: float, ent_sumsq: float) -> SimReport:
    n = cfg.n_symbols
    entropy, entropy_se = _entropy_stats(ent_sum, ent_sumsq, n)
    return SimReport(
        n_symbols=n,
        seed=cfg.seed,
        mode=cfg.mode,
        errors_z=err_z,
        errors_x=err_x,
        ber_z=err_z / n,
        ber_x=err_x / n,
        ci_z=_binomial_ci(err_z, n),
        ci_x=_binomial_ci(err_x, n),
        empirical_entropy=entropy,
        entropy_std_error=entropy_se,
    )


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
        report = simulate_1d(cfg)
        return EntropyEstimate(report.empirical_entropy, report.entropy_std_error,
                               cfg.n_symbols)

    if not math.isfinite(amplitude) or amplitude < 0.0:
        raise ValueError(f"amplitude must be a finite number >= 0, got {amplitude!r}")
    sigma2 = cfg.spec.sigma2

    def chunk(stream_id: int, size: int):
        stream = NoiseStream(cfg.seed, stream_id, cfg.spec)
        x = _random_bits(stream.generator, size)
        y = awgn_real(amplitude * x, stream)
        return _entropy_sums(-np.log2(mixture_pdf(y, amplitude, sigma2)))

    ent_sum, ent_sumsq = _run_chunks(cfg, chunk)
    mean, std_error = _entropy_stats(ent_sum, ent_sumsq, cfg.n_symbols)
    return EntropyEstimate(mean, std_error, cfg.n_symbols)


def sample_frames(w: WeightPair, spec: NoiseSpec, seed: int, n_frames: int,
                  wp: WeightPair | None = None) -> list[SymbolFrame]:
    """Generate a few transmission records through the scalar reference path."""
    stream = NoiseStream(seed, 0, spec)
    gen = stream.generator
    frames = []
    for _ in range(n_frames):
        x = Bit(int(2 * gen.integers(0, 2) - 1))
        z = Bit(int(2 * gen.integers(0, 2) - 1))
        if wp is None:
            tx = encode_1d(x, z, w)
            frames.append(SymbolFrame(x=x, z=z, tx_amplitude=tx,
                                      rx_sample=awgn_real(tx, stream)))
        else:
            x_prime = Bit(int(2 * gen.integers(0, 2) - 1))
            z_prime = Bit(int(2 * gen.integers(0, 2) - 1))
            tx = encode_2d(x, z, x_prime, z_prime, w, wp)
            frames.append(SymbolFrame(x=x, z=z, tx_amplitude=tx,
                                      rx_sample=awgn_complex(tx, stream),
                                      x_prime=x_prime, z_prime=z_prime))
    return frames
