"""Closed-form and integral rate quantities for layered BPSK over AWGN.

Two SNR normalizations coexist here and are kept explicit throughout:

* Amplitude-domain functions (``bpsk_rate``, ``rate_z`` ... ``rate_2d``,
  ``exact_mi_1d``) take an amplitude (or WeightPair) plus the noise variance
  ``sigma2`` of the real dimension the signal occupies.  These are the
  entropy-integral definitions evaluated verbatim.

* SNR-domain functions (``bpsk_rate_at_snr``, ``qpsk_rate_at_snr``,
  ``shannon_capacity`` and the Eb/N0 helpers) use the received SNR
  ``rho = signal power / (2 * sigma2)``: the signal lives on one or both axes
  of a complex-baseband channel whose total noise power is ``N0 = 2 * sigma2``.
  Under this standard normalization the capacity, BPSK and QPSK curves all
  leave the origin with slope log2(e), and conventional BPSK's rho/R ratio
  approaches ln 2 = -1.59 dB, the usual low-rate power limit.  The equivalent
  per-stream SNRs, ``rho_bpsk`` for the first stream and ``rho_x`` for the
  second, are plain power/sigma2 arithmetic in whatever normalization the
  caller passes; ``ebn0_1d`` and ``ebn0_2d`` pass ``2 * sigma2`` so their
  first-order rate predictions line up with the integral rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import WeightPair, mean_power, weights_from_ratio
from .quadrature import IntegralSpec, integrate, plogp

LOG2_E = math.log2(math.e)

# Entropy integrals cover this many noise deviations around every mixture
# mean; the discarded p*log2(p) tail beyond them is below 1e-25.
TAIL_SIGMAS = 12.0

# A rate is saturated, exactly, once every decision boundary between
# neighbouring points lies at least this many noise deviations away from
# them: the missing information is then below Q(40) ~ 1e-350, far under one
# ulp.  Returning it directly also keeps the entropy windows, which lose
# resolution near 1e16 deviations, away from huge amplitudes.
SATURATION_SIGMAS = 40.0


def _check_sigma2(sigma2: float) -> float:
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be a finite number > 0, got {sigma2!r}")
    return float(sigma2)


def gaussian_entropy(sigma2: float) -> float:
    """Differential entropy in bits of a real N(0, sigma2) variable."""
    return 0.5 * math.log2(2.0 * math.pi * math.e * _check_sigma2(sigma2))


def mixture_pdf(y, amplitude: float, sigma2: float):
    """Density of an equiprobable two-point amplitude {+A, -A} plus noise."""
    sigma2 = _check_sigma2(sigma2)
    if not math.isfinite(amplitude) or amplitude < 0.0:
        raise ValueError(f"amplitude must be a finite number >= 0, got {amplitude!r}")
    y = np.asarray(y, dtype=float)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
    inv = 0.5 / sigma2
    out = 0.5 * norm * (np.exp(-((y - amplitude) ** 2) * inv)
                        + np.exp(-((y + amplitude) ** 2) * inv))
    if out.ndim == 0:
        return float(out)
    return out


def layered_pdf(y, w: WeightPair, sigma2: float):
    """Density of the four-point layered constellation ``w.amplitudes``."""
    sigma2 = _check_sigma2(sigma2)
    y = np.asarray(y, dtype=float)
    norm = 0.25 / math.sqrt(2.0 * math.pi * sigma2)
    inv = 0.5 / sigma2
    out = np.zeros_like(y, dtype=float)
    for mean in w.amplitudes:
        out = out + np.exp(-((y - mean) ** 2) * inv)
    out = norm * out
    if out.ndim == 0:
        return float(out)
    return out


def _entropy_bits(pdf: Callable, means: tuple, sigma2: float) -> float:
    """-integral of p*log2(p) over +-TAIL_SIGMAS sigma around every mean.

    Integration runs piecewise over one window per mixture component, merged
    where they overlap, so widely separated components are always resolved by
    the initial partition.  Outside every window the density is below the
    TAIL_SIGMAS-sigma Gaussian tail and the dropped p*log2(p) mass is under
    1e-25.  Every window uses ``IntegralSpec``'s default accuracy, the one
    accuracy setting of the rate engine.
    """
    reach = TAIL_SIGMAS * math.sqrt(sigma2)
    windows: list[list[float]] = []
    for mean in sorted(means):
        low, high = mean - reach, mean + reach
        if windows and low <= windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], high)
        else:
            windows.append([low, high])
    total = 0.0
    for low, high in windows:
        total += integrate(lambda y: plogp(pdf(y)), IntegralSpec(low, high))
    return -total


def received_entropy_layered(w: WeightPair, sigma2: float) -> float:
    """Entropy in bits of the four-point layered mixture output."""
    return _entropy_bits(lambda y: layered_pdf(y, w, sigma2), w.amplitudes, sigma2)


@lru_cache(maxsize=8192)
def _bpsk_rate_cached(amplitude: float, sigma2: float) -> float:
    entropy = _entropy_bits(lambda y: mixture_pdf(y, amplitude, sigma2),
                            (amplitude, -amplitude), sigma2)
    rate = entropy - gaussian_entropy(sigma2)
    # Quadrature round-off can leave ~1e-12 of either sign at the extremes;
    # the true value lives in [0, 1] for a binary input.
    return min(max(rate, 0.0), 1.0)


def bpsk_rate(amplitude: float, sigma2: float) -> float:
    """Achievable rate H(Y) - H(N) in bits/sec/Hz of amplitude-A antipodal
    signalling on a real dimension with noise variance sigma2; exactly 1 from
    A = SATURATION_SIGMAS * sigma up."""
    if not math.isfinite(amplitude) or amplitude < 0.0:
        raise ValueError(f"amplitude must be a finite number >= 0, got {amplitude!r}")
    if amplitude == 0.0:
        return 0.0  # output density collapses to the noise density exactly
    sigma2 = _check_sigma2(sigma2)
    if amplitude >= SATURATION_SIGMAS * math.sqrt(sigma2):
        return 1.0
    return _bpsk_rate_cached(float(amplitude), sigma2)


def _pair_rate(pair: tuple[float, float], sigma2: float) -> float:
    """Mean antipodal rate over two equiprobable amplitudes."""
    a, b = pair
    return 0.5 * (bpsk_rate(a, sigma2) + bpsk_rate(b, sigma2))


def rate_z(w: WeightPair, sigma2: float) -> float:
    """First-stream rate: the sign decision sees ``w.sign_pair``."""
    return _pair_rate(w.sign_pair, sigma2)


def rate_x(w: WeightPair, sigma2: float) -> float:
    """Second-stream rate: after subtracting the first-stream decision the
    residual amplitudes are ``w.residual_pair``."""
    return _pair_rate(w.residual_pair, sigma2)


def rate_1d(w: WeightPair, sigma2: float) -> float:
    """Sum rate of the two layered streams on one dimension."""
    return rate_z(w, sigma2) + rate_x(w, sigma2)


def rate_2d(w: WeightPair, wp: WeightPair, sigma2: float) -> float:
    """Sum rate over both axes; exactly doubles rate_1d when w == wp."""
    return rate_1d(w, sigma2) + rate_1d(wp, sigma2)


def exact_mi_1d(w: WeightPair, sigma2: float) -> float:
    """Exact mutual information of the equiprobable four-point constellation.

    Audit quantity: H(Y) - H(N) with the full four-component output density,
    reported alongside the per-stream decomposition but never substituted
    for it.  Once the half-gap between +-alpha and +-beta/2 is at least
    SATURATION_SIGMAS noise deviations, Y tells +-alpha apart from every
    other point, and only +-beta/2 can still be confused: the MI is then
    1.5 + bpsk_rate(beta/2) / 2, which is exactly 2 once beta/2 is that far
    from zero too.
    """
    reach = SATURATION_SIGMAS * math.sqrt(_check_sigma2(sigma2))
    if 0.5 * (w.alpha - 0.5 * w.beta) >= reach:
        return 1.5 + 0.5 * bpsk_rate(0.5 * w.beta, sigma2)
    mi = received_entropy_layered(w, sigma2) - gaussian_entropy(sigma2)
    return min(max(mi, 0.0), 2.0)


def shannon_capacity(rho: float) -> float:
    """AWGN capacity log2(1 + rho) at received SNR rho."""
    if not math.isfinite(rho) or rho < 0.0:
        raise ValueError(f"rho must be a finite number >= 0, got {rho!r}")
    return math.log2(1.0 + rho)


def taylor_capacity(rho: float) -> float:
    """First-order capacity near zero SNR: rho * log2(e)."""
    return rho * LOG2_E


def rho_bpsk(w: WeightPair, sigma2: float) -> float:
    """Average-power SNR of the layered constellation, power / sigma2."""
    return w.average_power() / _check_sigma2(sigma2)


def rho_x(w: WeightPair, sigma2: float) -> float:
    """Equivalent SNR of the second stream from its residual amplitudes."""
    return mean_power(w.residual_pair) / _check_sigma2(sigma2)


def taylor_rate_1d(w: WeightPair, sigma2: float) -> float:
    """First-order sum rate near zero SNR: (rho_z + rho_x) * log2(e), where
    the first stream's SNR rho_z is rho_bpsk."""
    return (rho_bpsk(w, sigma2) + rho_x(w, sigma2)) * LOG2_E


def rate_diff(w: WeightPair, sigma2: float) -> float:
    """First-order rate advantage over power-matched conventional BPSK:
    rho_x * log2(e).  Positive for every valid WeightPair."""
    return rho_x(w, sigma2) * LOG2_E


def snr_to_amplitude(rho: float, sigma2: float) -> float:
    """Amplitude whose power gives received SNR rho against N0 = 2 * sigma2."""
    if not math.isfinite(rho) or rho < 0.0:
        raise ValueError(f"rho must be a finite number >= 0, got {rho!r}")
    return math.sqrt(2.0 * _check_sigma2(sigma2) * rho)


def bpsk_rate_at_snr(rho: float, sigma2: float = 1.0) -> float:
    """Conventional BPSK rate as a function of received SNR.

    All transmit power sits on the real axis; rho counts it against the total
    noise power 2 * sigma2 of the complex channel.
    """
    return bpsk_rate(snr_to_amplitude(rho, sigma2), sigma2)


def qpsk_rate_at_snr(rho: float, sigma2: float = 1.0) -> float:
    """Per-axis-BPSK QPSK rate at received SNR rho: the power splits evenly
    over both axes, so each axis runs at per-axis SNR rho and the rate is
    twice the per-axis BPSK rate."""
    if not math.isfinite(rho) or rho < 0.0:
        raise ValueError(f"rho must be a finite number >= 0, got {rho!r}")
    per_axis_amplitude = math.sqrt(_check_sigma2(sigma2) * rho)
    return 2.0 * bpsk_rate(per_axis_amplitude, sigma2)


def ebn0_1d(w: WeightPair, sigma2: float) -> float:
    """Energy-per-bit over N0 for the one-dimensional scheme.

    sigma2 is the per-dimension noise variance; the SNR terms are normalized
    by the total noise power N0 = 2 * sigma2 so the ratio is comparable with
    the conventional-BPSK curve and its -1.59 dB floor.
    """
    r1 = rate_1d(w, sigma2)
    if r1 <= 0.0:
        raise ValueError("rate is zero at this operating point; Eb/N0 undefined")
    n0 = 2.0 * sigma2
    return (rho_bpsk(w, n0) + rho_x(w, n0)) / r1


def ebn0_2d(w: WeightPair, wp: WeightPair, sigma2: float) -> float:
    """Energy-per-bit over N0 for the two-dimensional scheme.

    Sums both axes' SNR terms over the doubled rate; equals ebn0_1d exactly
    when both axes use the same weights.
    """
    r2 = rate_2d(w, wp, sigma2)
    if r2 <= 0.0:
        raise ValueError("rate is zero at this operating point; Eb/N0 undefined")
    n0 = 2.0 * sigma2
    energy = (rho_bpsk(w, n0) + rho_x(w, n0)) + (rho_bpsk(wp, n0) + rho_x(wp, n0))
    return energy / r2


def to_db(ratio: float) -> float:
    """Linear power ratio to decibels."""
    if not ratio > 0.0:
        raise ValueError(f"dB conversion requires a positive ratio, got {ratio!r}")
    return 10.0 * math.log10(ratio)


@dataclass(frozen=True)
class OperatingPoint:
    """The rate quantities the CLI prints for one grid point, in bits/sec/Hz.

    ``snr_linear`` is the received SNR ``rho = power / (2 * sigma2)`` of the
    point.  The layered fields, ``ebn0_db`` to ``exact_mi``, are None for a
    baseline-only point, which has no weights.
    """

    snr_linear: float
    r_bpsk: float
    qpsk_rate: float
    capacity: float
    ebn0_db: float | None = None
    r_z: float | None = None
    r_x: float | None = None
    r_1: float | None = None
    r_2: float | None = None
    exact_mi: float | None = None


def operating_point(rho: float, sigma2: float, ratio: float | None = None) -> OperatingPoint:
    """Evaluate the baselines at received SNR rho and, given an alpha/beta
    ratio, the layered scheme at the same average power as conventional BPSK,
    ``weights_from_ratio(ratio, 2 * sigma2 * rho)``."""
    layered = {}
    if ratio is not None:
        w = weights_from_ratio(ratio, 2.0 * sigma2 * rho)
        r_z = rate_z(w, sigma2)
        r_x = rate_x(w, sigma2)
        r_1 = r_z + r_x
        layered = dict(ebn0_db=to_db(ebn0_1d(w, sigma2)), r_z=r_z, r_x=r_x,
                       r_1=r_1, r_2=r_1 + r_1, exact_mi=exact_mi_1d(w, sigma2))
    return OperatingPoint(snr_linear=rho, r_bpsk=bpsk_rate_at_snr(rho, sigma2),
                          qpsk_rate=qpsk_rate_at_snr(rho, sigma2),
                          capacity=shannon_capacity(rho), **layered)
