"""Reference values the benchmark checks the program's outputs against.

Nothing here imports ``layered_bpsk``: rates and mutual information come from
Gauss-Hermite expectations over the noise (numpy ``hermegauss`` nodes), BER
from closed-form Gaussian tail probabilities, so a defect in the package's
adaptive quadrature cannot hide in both the output and its reference.

Units follow the package: ``sigma2`` is the noise variance per real
dimension, the received SNR is ``rho = power / (2 * sigma2)``.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

GH_NODES = 300
_T, _W = hermegauss(GH_NODES)
_W = _W / math.sqrt(2.0 * math.pi)  # E[f(t)] = sum(_W * f(_T)) for t ~ N(0, 1)
LN2 = math.log(2.0)

# Digits of agreement are capped here: the CSV prints 12 significant digits.
DIGITS_CAP = 12.0


def bpsk_rate(s):
    """Mutual information in bits of antipodal signalling at amplitude SNR
    ``s = A**2 / sigma2``, as E[log1p(tanh v)] / ln 2 with v = s + sqrt(s) t.

    log1p(tanh v) keeps full relative precision near v = 0, which is what the
    low-SNR rows need; below v = -1 the identity ln 2 - logaddexp(0, -2v)
    takes over so far nodes do not reach log1p(-1) = -inf.
    """
    s = np.asarray(s, dtype=float)[..., None]
    v = s + np.sqrt(s) * _T
    f = np.where(v < -1.0, LN2 - np.logaddexp(0.0, -2.0 * v),
                 np.log1p(np.tanh(np.maximum(v, -1.0))))
    return (f @ _W) / LN2


def mixture_mi(points, sigma2: float) -> float:
    """Mutual information in bits of equiprobable real points plus N(0, sigma2).

    I = -mean_i E_t[log mean_j exp(d_ij)] / ln 2 with
    d_ij = -((x_i - c_j)**2 + 2 sigma t (x_i - c_j)) / (2 sigma2).  The inner
    log-mean-exp uses log1p(mean(expm1(d))) while every d is below 1, which
    avoids the 2 - 2.000... cancellation at low SNR, and a shifted log-sum-exp
    otherwise.
    """
    c = np.asarray(points, dtype=float) / math.sqrt(sigma2)
    diff = (c[:, None] - c[None, :])[..., None]  # (i, j, 1)
    d = -(diff * diff + 2.0 * diff * _T) / 2.0  # (i, j, node)
    m = d.max(axis=1)  # >= 0 because d_ii = 0
    lse = m + np.log(np.exp(d - m[:, None, :]).mean(axis=1))
    small = np.log1p(np.expm1(np.minimum(d, 1.0)).mean(axis=1))
    g = np.where(m < 1.0, small, lse)
    return float(-(g @ _W).mean() / LN2)


def capacity(rho: float) -> float:
    return math.log1p(rho) / LN2


def weights(ratio: float, rho: float, sigma2: float) -> tuple[float, float]:
    """(alpha, beta) with alpha/beta = ratio and average power
    alpha**2/2 + (beta/2)**2/2 = 2 * sigma2 * rho."""
    beta = math.sqrt(2.0 * sigma2 * rho / (0.5 * ratio * ratio + 0.125))
    return ratio * beta, beta


def layered_points(alpha: float, beta: float) -> tuple[float, ...]:
    return (alpha, -alpha, 0.5 * beta, -0.5 * beta)


def layered_rates(ratio: float, rho: float, sigma2: float) -> dict[str, float]:
    """Every rate of one rate-sweep row, plus its Eb/N0 in linear units."""
    alpha, beta = weights(ratio, rho, sigma2)
    i_alpha, i_half, i_diff = bpsk_rate(
        np.array([alpha, 0.5 * beta, alpha - beta]) ** 2 / sigma2)
    r_z = 0.5 * (i_alpha + i_half)
    r_x = 0.5 * (i_diff + i_half)
    r_1 = r_z + r_x
    n0 = 2.0 * sigma2
    rho_x = (0.5 * (alpha - beta) ** 2 + 0.5 * (0.5 * beta) ** 2) / n0
    return {
        "r_z": float(r_z), "r_x": float(r_x), "r_1": float(r_1), "r_2": float(2.0 * r_1),
        "bpsk": float(bpsk_rate(2.0 * rho)), "qpsk": float(2.0 * bpsk_rate(rho)),
        "capacity": capacity(rho),
        "exact_mi": mixture_mi(layered_points(alpha, beta), sigma2),
        "ebn0": (rho + rho_x) / float(r_1),
    }


def qfunc(t: float) -> float:
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def _prob_between(lo: float, hi: float, mean: float, sigma: float) -> float:
    """P(lo <= Y < hi) for Y ~ N(mean, sigma**2); hi may be infinite."""
    upper = qfunc((hi - mean) / sigma) if math.isfinite(hi) else 0.0
    return qfunc((lo - mean) / sigma) - upper


def ber_genie(alpha: float, beta: float, sigma2: float) -> tuple[float, float]:
    """(ber_z, ber_x) with correct first-stream feedback.  ber_z is exact in
    both feedback modes, since the first decision never sees feedback."""
    sigma = math.sqrt(sigma2)
    ber_z = 0.5 * qfunc(alpha / sigma) + 0.5 * qfunc(0.5 * beta / sigma)
    ber_x = 0.5 * qfunc((alpha - beta) / sigma) + 0.5 * qfunc(0.5 * beta / sigma)
    return ber_z, ber_x


def ber_x_decision_feedback(alpha: float, beta: float, sigma2: float) -> float:
    """Second-stream BER when the receiver feeds back its own z decision.

    z_hat = sign(y) and x_hat = sign(y - z_hat * beta), ties deciding +1, so
    x_hat = +1 exactly when y lies in [-beta, 0) or [beta, inf).
    """
    sigma = math.sqrt(sigma2)
    errors = 0.0
    for x in (1, -1):
        for z in (1, -1):
            mean = alpha * x if x == z else 0.5 * beta * z
            p_plus = (_prob_between(-beta, 0.0, mean, sigma)
                      + _prob_between(beta, math.inf, mean, sigma))
            errors += 1.0 - p_plus if x == 1 else p_plus
    return errors / 4.0


def sigma_bound(checks: int, false_alarm: float = 1e-3) -> float:
    """z-score a statistical check must stay within so that a correct program
    fails any of ``checks`` two-sided checks in one run with probability at
    most ``false_alarm`` (Bonferroni)."""
    return statistics.NormalDist().inv_cdf(1.0 - false_alarm / (2.0 * checks))


def digits(value: float, reference: float) -> float:
    """Correct significant digits, -log10 of the relative error, capped."""
    if value == reference:
        return DIGITS_CAP
    if reference == 0.0 or not math.isfinite(value):
        return 0.0
    rel = abs(value - reference) / abs(reference)
    return min(DIGITS_CAP, -math.log10(rel))
