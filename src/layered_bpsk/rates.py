"""Closed-form and integral rate quantities for layered BPSK over AWGN.

Two domains coexist here and are kept explicit throughout:

* Amplitude-domain functions (``bpsk_rate``, ``rate_z`` ... ``rate_2d``,
  ``exact_mi_1d``, ``mixture_mi``, the Eb/N0 helpers) take an amplitude (or
  WeightPair, or a list of points) plus the noise variance ``sigma2`` of the
  real dimension the signal occupies, the scale the amplitude is measured in.

* SNR-domain functions (``shannon_capacity``, ``bpsk_rate_at_snr``,
  ``qpsk_rate_at_snr``, ``operating_point_grid``) take the received SNR
  ``rho = signal power / (2 * sigma2)`` alone, which fixes every rate, and
  evaluate at sigma2 = 1: the signal lives on one or both axes of a
  complex-baseband channel whose total noise power is ``N0 = 2 * sigma2``.
  ``signal_power(rho, sigma2)`` is the one place that power, 2 * sigma2 * rho,
  is formed: ``snr_to_amplitude``, the amplitudes and layer weights of
  ``operating_point_grid`` and the CLI's ``ber`` weights read it, and every
  power of the CLI's dB range, 2e-300 to 2e300, gives valid layer weights.
  Under this standard normalization the capacity, BPSK and QPSK curves all
  leave the origin with slope log2(e), and conventional BPSK's rho/R ratio
  approaches ln 2 = -1.59 dB, the usual low-rate power limit.  The equivalent
  per-stream SNRs, ``rho_bpsk`` for the first stream and ``rho_x`` for the
  second, are plain power/sigma2 arithmetic in whatever normalization the
  caller passes; ``ebn0_1d`` and ``ebn0_2d`` take them against N0 = 2 * sigma2
  so their first-order rate predictions line up with the integral rates.

Every mutual information, BPSK's included, is that of equiprobable real
points, and ``_mi_bits`` is its one entry.  An outer pair of points whose
half-gap to its neighbour is ``SATURATION_SIGMAS`` noise deviations or more
is told apart exactly, which saturates BPSK at exactly 1 and the exact MI at
exactly 2.  What is left is a Gaussian expectation over the normalized noise
t ~ N(0, 1) (``_mixture_nats``), which ``quadrature.expect`` evaluates at a
step set by the distance of the integrand's poles, pair by pair (``_steps``).
That step rule bounds every integral's node count at any SNR; the exact
pairs only skip integrals.  Every printed rate is correct to its last
printed (12th significant) digit.

A grid of rates is evaluated at once: ``bpsk_rate_grid``, ``exact_mi_grid``
and ``operating_point_grid`` hand all of a grid's rows to ``_mi_bits``, and
``quadrature.expect`` runs them in blocks of bounded size.
``operating_point_grid`` takes every ratio of a sweep at once, so a sweep
makes two ``_mi_bits`` calls, one for its BPSK rates and one for its exact
MIs, and evaluates its baselines once for all ratios.  Each scalar is
rows of one such batch, equal to the grid's rows bit for bit: ``bpsk_rate``
and ``bpsk_rate_at_snr`` are one row of ``bpsk_rate_grid``; ``rate_z``,
``rate_x`` and ``rate_1d`` three rows of it, the ``_stream_amplitudes``, read
by the ``_stream_rates`` the grid uses; ``exact_mi_1d`` and ``mixture_mi`` one
row of ``_mi_bits``; ``operating_point`` and ``qpsk_rate_at_snr`` one point of
``operating_point_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .core import WeightPair, check_sigma2, is_finite, mean_power, weights_from_ratio
from .quadrature import MAX_STEP

LOG2_E = math.log2(math.e)
LN2 = math.log(2.0)

# A rate is saturated, exactly, once every decision boundary between
# neighbouring points lies at least this many noise deviations away from
# them.  At that distance mpmath puts the missing information at 8.0e-33
# bits, both for BPSK at A = 12 sigma and for the exact MI at an outer
# half-gap of 12 sigma: 16 orders under one ulp, and level with the 1e-32
# Gaussian tail that ``quadrature.NODE_REACH`` = 12 already drops.
# Returning it directly skips that pair's integral, and keeps an amplitude of
# any size out of the arithmetic in noise deviations.
SATURATION_SIGMAS = 12.0


def check_amplitude(amplitude) -> float:
    """The amplitude rule: a finite real >= 0, returned as a float."""
    if not (is_finite(amplitude) and amplitude >= 0.0):
        raise ValueError(f"amplitude must be a finite number >= 0, got {amplitude!r}")
    return float(amplitude)


def _check_rho(rho) -> float:
    """The received-SNR rule: a finite real >= 0, returned as a float."""
    if not (is_finite(rho) and rho >= 0.0):
        raise ValueError(f"rho must be a finite number >= 0, got {rho!r}")
    return float(rho)


def gaussian_entropy(sigma2: float) -> float:
    """Differential entropy in bits of a real N(0, sigma2) variable."""
    return 0.5 * math.log2(2.0 * math.pi * math.e * check_sigma2(sigma2))


def _points_pdf(y, points, sigma2: float):
    """Density of equiprobable real ``points`` plus N(0, sigma2) noise."""
    y = np.asarray(y, dtype=float)
    inv = 0.5 / sigma2
    out = sum(np.exp(-((y - mean) ** 2) * inv) for mean in points)
    out = (1.0 / len(points)) / math.sqrt(2.0 * math.pi * sigma2) * out
    return float(out) if out.ndim == 0 else out


def mixture_pdf(y, amplitude: float, sigma2: float):
    """Density of an equiprobable two-point amplitude {+A, -A} plus noise."""
    sigma2 = check_sigma2(sigma2)
    amplitude = check_amplitude(amplitude)
    return _points_pdf(y, (amplitude, -amplitude), sigma2)


def layered_pdf(y, w: WeightPair, sigma2: float):
    """Density of the four-point layered constellation ``w.amplitudes``."""
    return _points_pdf(y, w.amplitudes, check_sigma2(sigma2))


# Largest exponent of the rule's error that a pair's step may spend; see
# ``_steps``.  exp(-64) ~ 1.6e-28, far under one ulp of every rate.
_POLE_EXPONENT = 64.0


def _steps(c):
    """Trapezoid step of each row of ``c``, an array (rows, n) of points in
    noise deviations: the smallest step any pair of the row allows.

    The integrand's poles from a pair at half-gap g sit near
    t = -g +- i pi / (2g), where the Gaussian weight is exp(-g**2 / 2), so
    their error at step h is of order exp(-g**2 / 2 - pi**2 / (g h))
    (Trefethen and Weideman, SIAM Review 2014).  A pair allows the larger of
    two steps, capped at ``MAX_STEP``: a tenth of the poles' distance,
    MAX_STEP pi / (4g), which puts the error near exp(-20 pi) ~ 5e-28; and
    the coarser step that keeps the error under exp(-_POLE_EXPONENT), where
    it exists.  For BPSK that happens from about A = 1.5 sigma on: a rate
    then takes at most 679 nodes (near A = 6.3 sigma) where the spread alone
    asked for up to 1833, and 121 from A = 11.3 sigma on.  A point paired
    with itself (g = 0) allows ``MAX_STEP``.
    """
    g = 0.5 * np.abs(c[:, :, None] - c[:, None, :])
    # Each divisor is raised to the value at which its quotient reaches the
    # cap exactly (pi / pi = 1, and pi**2 / (pi**2 / MAX_STEP) rounds to
    # MAX_STEP), so a pair below the threshold takes the cap with no masked
    # divide and no division by zero.
    spread = MAX_STEP * (math.pi / np.maximum(4.0 * g, math.pi))
    room = g * (_POLE_EXPONENT - 0.5 * g * g)
    pole = math.pi**2 / np.maximum(room, math.pi**2 / MAX_STEP)
    return np.maximum(spread, pole).min(axis=(1, 2))


def _log_cosh(v):
    """log cosh v as log1p(2 sinh(v/2)**2): >= 0, with full relative
    precision near v = 0."""
    return np.log1p(2.0 * np.sinh(0.5 * v) ** 2)


def _log_mean_exp(u, w):
    """log sum_j w[j] exp(u[:, j, :]), for weights w summing to 1, as
    log1p(sum_j w[j] expm1(u)), which keeps the digits of a small result.
    Its one caller, the log cosh form, runs only while every |c_j| < 2, so
    u >= -c_j**2 / 2 > -2 and the sum stays above expm1(-2) > -1; and
    u <= |c_j (c_i + t)| < 2 (2 + quadrature.NODE_REACH) = 28, so no exp
    overflows."""
    return np.log1p((w[None, :, None] * np.expm1(u)).sum(axis=1))


def _mixture_nats(c):
    """Mutual information in nats of each row of ``c``, an array (rows, n)
    of equiprobable points in noise deviations, sorted and symmetric about
    zero (see ``mixture_mi``); its one caller is ``_mi_bits``.

    The Gaussian weight is even in t, and the integrand of point -c_i at t
    is that of c_i at -t, so only the non-negative half of each row is
    summed, each point weighted by the share of the row it stands for (a
    zero in an odd row by 1/n, every other point by 2/n).  The log cosh
    form pairs c_j with -c_j the same way.
    """
    n = c.shape[1]
    m = n // 2  # sorted: c[:, m:] are the points >= 0
    w = np.array([1.0 / n] * (n % 2) + [2.0 / n] * m)
    steps = _steps(c)
    nats = np.empty(c.shape[0])
    near = c[:, -1] < 2.0
    if near.any():
        cn = c[near]
        h = cn[:, m:].T  # (point, row)

        def log_cosh_form(t, h):
            ci, cj = h[:, None, :], h[None, :, :]
            u = _log_cosh(cj * (ci + t)) - 0.5 * cj * cj
            return (w[:, None] * _log_mean_exp(u, w)).sum(axis=0)

        nats[near] = 0.5 * ((cn * cn).sum(axis=1) / n) - quadrature.expect(
            log_cosh_form, steps[near], h, terms=h.shape[0]**2)
    if not near.all():
        far = c[~near].T  # (point, row)
        others = [[j for j in range(n) if j != i] for i in range(m, n)]
        d = far[m:, None, :] - far[others]  # (i, j != i, row)

        def separation_form(t, d):
            terms = np.exp(-0.5 * d * (d + 2.0 * t)).sum(axis=1)
            return (w[:, None] * np.log1p(terms)).sum(axis=0)

        nats[~near] = math.log(n) - quadrature.expect(separation_form, steps[~near], d,
                                                      terms=d[..., 0].size)
    return nats


def _mi_bits(points, sigma2: float) -> np.ndarray:
    """Mutual information in bits of each row of ``points``, an array
    (rows, n) of equiprobable real points in amplitude units, sorted and
    symmetric about zero, plus N(0, sigma2) noise.

    An outer pair whose half-gap to its neighbour (for n = 2, to each other)
    is at least SATURATION_SIGMAS deviations is told apart exactly: Y names
    the pair or the rest, so the row carries the label entropy
    log2 n - (n-2)/n log2(n-2) plus (n-2)/n times the rest's own bits.  The
    half-gap is measured in amplitude units, before any division by sigma,
    as the difference of halves, which cannot overflow; the rest is peeled
    the same way.  A single point left over is zero and carries no
    information.  The other rows are evaluated in noise deviations by
    ``_mixture_nats``.
    """
    sigma = math.sqrt(check_sigma2(sigma2))
    bits = np.empty(points.shape[0])
    rows = np.arange(bits.size)  # the rows whose rest is still open
    label, share = 0.0, 1.0  # bits of the pairs told apart so far, and the rest's weight

    def evaluate(open_rows, rest):
        bits[open_rows] = label + share * (_mixture_nats(rest / sigma) / LN2)

    for n in range(points.shape[1], 1, -2):
        told = 0.5 * points[:, -1] - 0.5 * points[:, -2] >= SATURATION_SIGMAS * sigma
        if not told.any():  # no pair is told apart: every open row is evaluated whole
            evaluate(rows, points)
            return bits
        if not told.all():
            evaluate(rows[~told], points[~told])
        label += share * (math.log2(n) - (n - 2) / n * math.log2(max(n - 2, 1)))
        share *= (n - 2) / n
        rows, points = rows[told], points[told, 1:-1]
    bits[rows] = label
    return bits


def mixture_mi(points, sigma2: float) -> float:
    """Mutual information in bits of equiprobable real points, symmetric
    about zero, plus N(0, sigma2) noise.  The points must be distinct: a
    repeated point would weigh its value twice, and the distinct values
    would no longer be equiprobable.

    With c the points in noise deviations and y = c_i + t, the information
    in nats is log n - mean_i E_t[log sum_j exp(d_ij)], where
    d_ij = -(c_i - c_j) (c_i - c_j + 2t) / 2 is log p(y|c_j) - log p(y|c_i).
    The j = i term (d_ii = 0) is kept out of the sum, as log1p of the rest,
    so the expectation is small wherever the points are told apart and the
    rate keeps its last digits up to saturation; no d exceeds t**2 / 2, so
    no exp overflows.  While every point lies within two deviations of zero
    the rate is evaluated as
    mean(c**2) / 2 - mean_i E_t[log mean_j exp(log cosh(c_j y) - c_j**2 / 2)]
    instead, which pairs c_j with -c_j: the terms linear in t cancel
    exactly, so the low-SNR digits survive.
    """
    if not all(map(is_finite, points)):
        raise ValueError(f"points must be finite numbers, got {points!r}")
    row = np.sort(np.asarray(points, dtype=float))
    if not np.array_equal(row, -row[::-1]):
        raise ValueError(f"points must be symmetric about zero, got {points!r}")
    if np.any(row[1:] == row[:-1]):
        raise ValueError(f"points must be distinct, got {points!r}")
    return float(_mi_bits(row[None, :], sigma2)[0])


def received_entropy_layered(w: WeightPair, sigma2: float) -> float:
    """Entropy in bits of the four-point layered mixture output."""
    return exact_mi_1d(w, sigma2) + gaussian_entropy(sigma2)


def bpsk_rate_grid(amplitudes, sigma2: float) -> np.ndarray:
    """``bpsk_rate`` of every amplitude in a 1-D sequence, as an array;
    element k equals ``bpsk_rate(amplitudes[k], sigma2)`` bit for bit."""
    a = np.asarray(amplitudes).reshape(-1)
    # One min/max pair checks a numeric array (a NaN fails the min).  Any
    # other goes to the scalar rule entry by entry, as the caller passed
    # them, which names the first bad one.
    if a.dtype.kind not in "iuf" or a.size and not (a.min() >= 0.0 and a.max() < math.inf):
        entries = np.asarray(amplitudes, dtype=object).reshape(-1).tolist()
        a = np.array([check_amplitude(v) for v in entries])
    return _mi_bits(np.multiply.outer(a.astype(float, copy=False), (-1.0, 1.0)), sigma2)


def bpsk_rate(amplitude: float, sigma2: float) -> float:
    """Achievable rate H(Y) - H(N) in bits/sec/Hz of amplitude-A antipodal
    signalling on a real dimension with noise variance sigma2; exactly 1 from
    A = SATURATION_SIGMAS * sigma up.

    It is ``mixture_mi`` of the two points +-A: with s = A**2 / sigma2 and
    v = s + sqrt(s) t, ln 2 - E[log(1 + exp(-2v))] nats from A = 2 sigma up,
    where the expectation is small near saturation, so the last digits
    survive there, and s - E[log cosh v] below, where nothing cancels, so
    the low-SNR digits survive.  The one-amplitude case of
    ``bpsk_rate_grid``.
    """
    return float(bpsk_rate_grid([amplitude], sigma2)[0])


def _stream_amplitudes(w: WeightPair) -> tuple[float, float, float]:
    """(alpha, beta/2, alpha - beta): the sign pair ``w.sign_pair`` and the
    residual pair ``w.residual_pair`` share beta/2, so three BPSK rates give
    both streams."""
    return (*w.sign_pair, w.residual_pair[0])


def _stream_rates(bits):
    """(r_z, r_x) as arrays, from the BPSK rates of ``_stream_amplitudes``
    triples laid end to end: each stream's rate is the mean of its pair's."""
    outer, half, inner = np.reshape(bits, (-1, 3)).T
    return 0.5 * (outer + half), 0.5 * (inner + half)


def rate_z(w: WeightPair, sigma2: float) -> float:
    """First-stream rate: the sign decision sees ``w.sign_pair``."""
    return _stream_rates(bpsk_rate_grid(_stream_amplitudes(w), sigma2))[0].item()


def rate_x(w: WeightPair, sigma2: float) -> float:
    """Second-stream rate: after subtracting the first-stream decision the
    residual amplitudes are ``w.residual_pair``."""
    return _stream_rates(bpsk_rate_grid(_stream_amplitudes(w), sigma2))[1].item()


def rate_1d(w: WeightPair, sigma2: float) -> float:
    """Sum rate of the two layered streams on one dimension."""
    r_z, r_x = _stream_rates(bpsk_rate_grid(_stream_amplitudes(w), sigma2))
    return (r_z + r_x).item()


def rate_2d(w: WeightPair, wp: WeightPair, sigma2: float) -> float:
    """Sum rate over both axes; exactly doubles rate_1d when w == wp."""
    return rate_1d(w, sigma2) + rate_1d(wp, sigma2)


def exact_mi_grid(weights, sigma2: float) -> np.ndarray:
    """``exact_mi_1d`` of every WeightPair in a sequence, as an array;
    element k equals ``exact_mi_1d(weights[k], sigma2)`` bit for bit."""
    points = np.array([w.amplitudes for w in weights], dtype=float).reshape(-1, 4)
    return _mi_bits(np.sort(points, axis=1), sigma2)


def exact_mi_1d(w: WeightPair, sigma2: float) -> float:
    """Exact mutual information of the equiprobable four-point constellation.

    Audit quantity: H(Y) - H(N) with the full four-component output density,
    reported alongside the per-stream decomposition but never substituted
    for it.  Once the half-gap between +-alpha and +-beta/2 is at least
    SATURATION_SIGMAS noise deviations, Y tells +-alpha apart from every
    other point, and only +-beta/2 can still be confused: the MI is then
    1.5 + bpsk_rate(beta/2) / 2, which is exactly 2 once beta/2 is that far
    from zero too.  The one-pair case of ``exact_mi_grid``.
    """
    return float(exact_mi_grid([w], sigma2)[0])


def shannon_capacity(rho: float) -> float:
    """AWGN capacity log2(1 + rho) at received SNR rho, through log1p so
    that no digit is lost at low SNR."""
    return math.log1p(_check_rho(rho)) / LN2


def rho_bpsk(w: WeightPair, sigma2: float) -> float:
    """Average-power SNR of the layered constellation, power / sigma2."""
    return w.average_power() / check_sigma2(sigma2)


def rho_x(w: WeightPair, sigma2: float) -> float:
    """Equivalent SNR of the second stream from its residual amplitudes."""
    return mean_power(w.residual_pair) / check_sigma2(sigma2)


def rate_diff(w: WeightPair, sigma2: float) -> float:
    """First-order rate advantage over power-matched conventional BPSK:
    rho_x * log2(e).  Positive for every valid WeightPair."""
    return rho_x(w, sigma2) * LOG2_E


def signal_power(rho: float, sigma2: float) -> float:
    """Signal power 2 * sigma2 * rho that gives received SNR rho against
    N0 = 2 * sigma2.  Doubled last, which is exact, so it is inf only where
    the power itself overflows, not wherever 2 * sigma2 does."""
    return 2.0 * (sigma2 * rho)


def snr_to_amplitude(rho: float, sigma2: float) -> float:
    """Amplitude whose power gives received SNR rho against N0 = 2 * sigma2."""
    return math.sqrt(signal_power(_check_rho(rho), check_sigma2(sigma2)))


def bpsk_rate_at_snr(rho: float) -> float:
    """Conventional BPSK rate at received SNR rho.

    All transmit power sits on the real axis; rho counts it against the total
    noise power N0 = 2 of the complex channel at unit variance per axis.
    """
    return bpsk_rate(snr_to_amplitude(rho, 1.0), 1.0)


def qpsk_rate_at_snr(rho: float) -> float:
    """Per-axis-BPSK QPSK rate at received SNR rho: the power splits evenly
    over both axes, so each axis runs at per-axis SNR rho and the rate is
    twice the per-axis BPSK rate.  A field of ``operating_point``."""
    return operating_point(rho).qpsk_rate


def ebn0_1d(w: WeightPair, sigma2: float) -> float:
    """Energy-per-bit over N0 for the one-dimensional scheme.

    sigma2 is the per-dimension noise variance; the SNR terms are normalized
    by the total noise power N0 = 2 * sigma2 so the ratio is comparable with
    the conventional-BPSK curve and its -1.59 dB floor.
    """
    r1 = _nonzero_rate(rate_1d(w, sigma2))
    return _n0_energy(w, sigma2) / r1


def _nonzero_rate(rate: float) -> float:
    """The sum rate an Eb/N0 divides by, which must not be zero."""
    if rate <= 0.0:
        raise ValueError("rate is zero at this operating point; Eb/N0 undefined")
    return rate


def _n0_energy(w: WeightPair, sigma2: float) -> float:
    """rho_z + rho_x of one axis against N0 = 2 * sigma2.  Each power is
    halved before it is divided by sigma2, which is exact unless the power is
    subnormal, so neither a sigma2 nor a power above half the float range
    overflows where the result is finite."""
    sigma2 = check_sigma2(sigma2)
    return 0.5 * w.average_power() / sigma2 + 0.5 * mean_power(w.residual_pair) / sigma2


def ebn0_2d(w: WeightPair, wp: WeightPair, sigma2: float) -> float:
    """Energy-per-bit over N0 for the two-dimensional scheme.

    Sums both axes' SNR terms over the doubled rate, each divided by the
    rate before they are added, so the sum overflows only where the result
    does; equals ebn0_1d exactly when both axes use the same weights.
    """
    r2 = _nonzero_rate(rate_2d(w, wp, sigma2))
    return _n0_energy(w, sigma2) / r2 + _n0_energy(wp, sigma2) / r2


def to_db(ratio: float) -> float:
    """Linear power ratio to decibels."""
    if not ratio > 0.0:
        raise ValueError(f"dB conversion requires a positive ratio, got {ratio!r}")
    return 10.0 * math.log10(ratio)


@dataclass(frozen=True)
class OperatingPoint:
    """The rate quantities the CLI prints for one grid point, in bits/sec/Hz.

    ``snr_linear`` is the received SNR ``rho = power / N0`` of the point.
    The layered fields, ``ebn0_db`` to ``exact_mi``, are None for a
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


def operating_point_grid(rhos, ratios=(), *, exact_mi: bool = True) -> list[OperatingPoint]:
    """Evaluate the baselines at each received SNR rho and, for each
    alpha/beta ratio, the layered scheme at the same average power as
    conventional BPSK, ``weights_from_ratio(ratio, signal_power(rho, 1.0))``.

    The points come ratio-major, ``len(rhos)`` of them per ratio, or the
    baselines alone without ratios.  The two baselines are evaluated once
    and shared by every ratio.  Every BPSK rate of the grid is evaluated in
    one ``bpsk_rate_grid`` call and every exact MI in one ``exact_mi_grid``
    call: per point the two baselines, per point and ratio the three
    ``_stream_amplitudes`` (r_z and r_x share the beta/2 term), and the
    Eb/N0 divides by the same r_1.  With ``exact_mi=False`` the exact MI is
    left out and its field is None.
    """
    rhos = [_check_rho(rho) for rho in rhos]
    sigma2 = 1.0  # rho alone fixes every field; the variance only sets the scale
    capacity = [shannon_capacity(rho) for rho in rhos]
    # snr_to_amplitude without its checks: every rho is checked above.
    amplitudes = [math.sqrt(signal_power(rho, sigma2)) for rho in rhos]
    amplitudes += [math.sqrt(sigma2 * rho) for rho in rhos]  # QPSK's per-axis amplitude
    weights = [weights_from_ratio(ratio, signal_power(rho, sigma2))
               for ratio in ratios for rho in rhos]
    amplitudes += [a for w in weights for a in _stream_amplitudes(w)]
    rates = bpsk_rate_grid(amplitudes, sigma2)
    n = len(rhos)
    per_rho = dict(snr_linear=rhos, capacity=capacity, r_bpsk=rates[:n],
                   qpsk_rate=2.0 * rates[n:2 * n])
    columns = {name: np.tile(col, max(len(ratios), 1)) for name, col in per_rho.items()}
    if weights:
        r_z, r_x = _stream_rates(rates[2 * n:])
        r_1 = r_z + r_x
        columns.update(r_z=r_z, r_x=r_x, r_1=r_1, r_2=r_1 + r_1, ebn0_db=[
            to_db(_n0_energy(w, sigma2) / _nonzero_rate(r))
            for w, r in zip(weights, r_1.tolist())])
        if exact_mi:
            columns["exact_mi"] = exact_mi_grid(weights, sigma2)
    columns = {name: np.asarray(col).tolist() for name, col in columns.items()}
    return [OperatingPoint(**dict(zip(columns, values))) for values in zip(*columns.values())]


def operating_point(rho: float, ratio: float | None = None) -> OperatingPoint:
    """The one-point case of ``operating_point_grid``."""
    return operating_point_grid([rho], () if ratio is None else (ratio,))[0]
