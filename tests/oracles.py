"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's own rate evaluator, a
trapezoid rule in the normalized noise t at a pole-aware step: entropies
come from brute-force trapezoid sums of p*log2(p) on a dense uniform grid in
y, a different variable, formula and step, so a defect in the package's
rule cannot hide in both routes at once.  The ``mpmath_*`` references
integrate the densities in y by mpmath's tanh-sinh rule at 30 significant
digits and return mpmath numbers, for pins at double precision.
"""

import math

import mpmath
import numpy as np

TRAPEZOID_NODES = 2_000_001
TRAPEZOID_TAIL_SIGMAS = 14.0


def gaussian_entropy_bits(sigma2):
    return 0.5 * math.log2(2.0 * math.pi * math.e * sigma2)


def trapezoid_entropy(means, sigma2, nodes=TRAPEZOID_NODES):
    """-integral p*log2(p) for an equiprobable Gaussian mixture, by trapezoid."""
    means = np.asarray(means, dtype=float)
    half_width = float(np.max(np.abs(means))) + TRAPEZOID_TAIL_SIGMAS * math.sqrt(sigma2)
    y = np.linspace(-half_width, half_width, nodes)
    norm = 1.0 / (len(means) * math.sqrt(2.0 * math.pi * sigma2))
    p = np.zeros_like(y)
    for mean in means:
        p += np.exp(-((y - mean) ** 2) / (2.0 * sigma2))
    p *= norm
    integrand = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -float(np.trapezoid(integrand, y))


def trapezoid_bpsk_rate(amplitude, sigma2, nodes=TRAPEZOID_NODES):
    """Brute-force H(Y) - H(N) for antipodal signalling."""
    hy = trapezoid_entropy([amplitude, -amplitude], sigma2, nodes)
    return hy - gaussian_entropy_bits(sigma2)


def trapezoid_exact_mi(w, sigma2, nodes=TRAPEZOID_NODES):
    """Brute-force mutual information of the four-point layered constellation."""
    means = [w.alpha, -w.alpha, 0.5 * w.beta, -0.5 * w.beta]
    return trapezoid_entropy(means, sigma2, nodes) - gaussian_entropy_bits(sigma2)


def trapezoid_ber_x_decision_feedback(w, sigma2, nodes=200_001):
    """Brute-force second-stream BER of the decision-feedback receiver.

    The decisions z_hat = sign(y) and x_hat = sign(y - z_hat * beta), ties
    deciding +1, are constant between the breakpoints -beta, 0 and beta.  Each
    segment's decision is taken at its midpoint, and every symbol's Gaussian
    density is integrated by trapezoid over the segments that get its x wrong.
    """
    sigma = math.sqrt(sigma2)
    reach = w.alpha + TRAPEZOID_TAIL_SIGMAS * sigma
    edges = [-reach, -w.beta, 0.0, w.beta, reach]
    symbols = [(1, w.alpha), (-1, -w.alpha), (-1, 0.5 * w.beta), (1, -0.5 * w.beta)]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        z_hat = 1.0 if mid >= 0.0 else -1.0
        x_hat = 1 if mid - z_hat * w.beta >= 0.0 else -1
        y = np.linspace(lo, hi, nodes)
        for x, mean in symbols:
            if x != x_hat:
                density = (np.exp(-((y - mean) ** 2) / (2.0 * sigma2))
                           / (sigma * math.sqrt(2.0 * math.pi)))
                total += float(np.trapezoid(density, y))
    return total / 4.0


def q_function_ber_genie(w, sigma2):
    """Closed-form (ber_z, ber_x) of the genie-aided receiver.

    Each stage sees two equiprobable antipodal amplitudes: the sign stage
    ``w.sign_pair`` and, with the true z removed, the second stage
    ``w.residual_pair``, and errs with 0.5*Q(a/sigma) + 0.5*Q(b/sigma) over
    its pair (a, b).
    """
    sigma = math.sqrt(sigma2)

    def q(t):
        return 0.5 * math.erfc(t / math.sqrt(2.0))

    def pair_ber(pair):
        a, b = pair
        return 0.5 * q(a / sigma) + 0.5 * q(b / sigma)

    return pair_ber(w.sign_pair), pair_ber(w.residual_pair)


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mpmath_mixture_mi(points, dps=30):
    """Mutual information in bits of equiprobable real points plus N(0, 1)
    noise: log n - mean_i E[log sum_j p(y|c_j) / p(y|c_i)], y ~ N(c_i, 1),
    integrated in y between the points."""
    with mpmath.workdps(dps):
        c = [mpmath.mpf(p) for p in points]
        cuts = [-mpmath.inf] + sorted(set(c)) + [mpmath.inf]

        def expectation(ci):
            def f(y):
                ratios = (mpmath.exp(((y - ci) ** 2 - (y - cj) ** 2) / 2) for cj in c)
                return mpmath.npdf(y, ci, 1) * mpmath.log(mpmath.fsum(ratios))
            return mpmath.quad(f, cuts)

        nats = mpmath.log(len(c)) - mpmath.fsum(expectation(ci) for ci in c) / len(c)
        return nats / mpmath.log(2)


def mpmath_bpsk_rate(amplitude, dps=30):
    """Antipodal rate in bits at amplitude A over N(0, 1) noise:
    1 - E[log2(1 + exp(-2 A y))], y ~ N(A, 1)."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(amplitude)
        f = lambda y: mpmath.npdf(y, a, 1) * mpmath.log1p(mpmath.exp(-2 * a * y))
        return 1 - mpmath.quad(f, [-mpmath.inf, -a, 0, a, mpmath.inf]) / mpmath.log(2)


def per_symbol_errors(seed, n_symbols, chunk, sigma2, axes, genie):
    """(z errors, x errors) per axis of the layered link, decided symbol by symbol.

    ``axes`` lists each axis's (alpha, beta).  The draws follow the
    simulator's stream: chunk k of ``chunk`` symbols uses the generator
    seeded with (seed, k).  It draws every axis's class sizes at once, how
    many symbols hold each index 2*x + z, as Multinomial(size; 1/4, 1/4,
    1/4, 1/4), and then each axis's N(0, sigma2) noise.  An axis's symbols
    are listed in class order, m0 of index 0, then m1 of index 1, and so on,
    and noise sample j goes to symbol j.  The receiver is the paper's:
    z_hat = sign(y), then x_hat = sign(y - fb*beta) with fb the decided z
    (the true z when ``genie``), ties deciding +1.
    """
    errors = np.zeros((len(axes), 2), dtype=np.int64)
    for stream_id, start in enumerate(range(0, n_symbols, chunk)):
        size = min(chunk, n_symbols - start)
        rng = np.random.default_rng((seed, stream_id))
        sizes = rng.multinomial(size, [0.25] * 4, size=len(axes))
        for axis_sizes, (alpha, beta), axis_errors in zip(sizes, axes, errors):
            index = np.repeat(np.arange(4), axis_sizes)
            x, z = 2 * (index >> 1) - 1, 2 * (index & 1) - 1
            amplitude = np.where(x == z, alpha * z, 0.5 * beta * z)
            y = amplitude + rng.normal(0.0, math.sqrt(sigma2), size=size)
            z_hat = np.where(y >= 0.0, 1, -1)
            x_hat = np.where(y - (z if genie else z_hat) * beta >= 0.0, 1, -1)
            axis_errors += [np.count_nonzero(z_hat != z), np.count_nonzero(x_hat != x)]
    return tuple((int(z_errors), int(x_errors)) for z_errors, x_errors in errors)
