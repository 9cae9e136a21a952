"""Release acceptance checks, one test per criterion at its stated tolerance.

Each test prints a single `criterion N: PASS/FAIL` line; run with

    pytest tests/test_acceptance.py -v -s

to see them live.  Tolerances are fixed here, not calibrated elsewhere.
"""

import itertools
import math
import time

from layered_bpsk.cli import main
from layered_bpsk.core import Bit, NoiseSpec, WeightPair, weights_from_ratio
from layered_bpsk.modem import demod_1d, demod_2d, encode_1d, encode_2d
from layered_bpsk.montecarlo import GENIE_AIDED, SimConfig, empirical_entropy, qfunc, simulate_1d
from layered_bpsk.rates import (
    LOG2_E,
    bpsk_rate,
    bpsk_rate_at_snr,
    ebn0_1d,
    ebn0_2d,
    qpsk_rate_at_snr,
    rate_1d,
    rate_2d,
    rate_diff,
    received_entropy_layered,
    rho_bpsk,
    shannon_capacity,
    snr_to_amplitude,
    to_db,
)

from oracles import trapezoid_bpsk_rate

BITS = (Bit.PLUS, Bit.MINUS)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_bpsk_rate_anchor():
    """bpsk_rate(1, 1) agrees with the brute-force trapezoid oracle to 1e-6."""
    start = time.perf_counter()
    oracle = trapezoid_bpsk_rate(1.0, 1.0)
    value = bpsk_rate(1.0, 1.0)
    elapsed = time.perf_counter() - start
    gap = abs(value - oracle)
    ok = gap <= 1e-6 and elapsed < 1.0
    _report(1, ok, f"rate={value:.9f} oracle={oracle:.9f} "
                   f"|diff|={gap:.2e} <= 1e-6, {elapsed:.2f}s < 1s")


def test_criterion_2_saturation():
    """rate_1d -> 2 and rate_2d -> 4 bits/sec/Hz once alpha/sigma >= 20."""
    start = time.perf_counter()
    worst_1d = 0.0
    worst_2d = 0.0
    for alpha in (20.0, 24.0, 28.0, 32.0):
        w = WeightPair(alpha, alpha / 2.0)
        worst_1d = max(worst_1d, abs(rate_1d(w, 1.0) - 2.0))
        worst_2d = max(worst_2d, abs(rate_2d(w, w, 1.0) - 4.0))
    elapsed = time.perf_counter() - start
    ok = worst_1d <= 1e-2 and worst_2d <= 2e-2 and elapsed < 5.0
    _report(2, ok, f"max|r1-2|={worst_1d:.2e} <= 1e-2, "
                   f"max|r2-4|={worst_2d:.2e} <= 2e-2, {elapsed:.2f}s < 5s")


def test_criterion_3_doubling_identity():
    """rate_2d(w, w, sigma2) equals 2 * rate_1d(w, sigma2) to 1e-9 on a 40-point grid."""
    worst = 0.0
    points = 0
    for ratio in (1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0):
        for sigma2 in (0.25, 0.5, 1.0, 2.0, 4.0):
            w = weights_from_ratio(ratio, 2.0)
            worst = max(worst, abs(rate_2d(w, w, sigma2) - 2.0 * rate_1d(w, sigma2)))
            points += 1
    ok = points == 40 and worst <= 1e-9
    _report(3, ok, f"{points} grid points, max|r2 - 2*r1|={worst:.2e} <= 1e-9")


def test_criterion_4_low_snr_capacity_crossover():
    """Layered rate exceeds capacity at low SNR and the first-order rate
    advantage matches the integral difference."""
    sigma2 = 1.0
    n0 = 2.0 * sigma2

    # Crossover: per-axis received SNR 0.02 keeps the average-power SNR at or
    # below 0.05 under either noise normalization.
    rho = 0.02
    w = weights_from_ratio(4.0, n0 * rho)
    gate = max(rho_bpsk(w, n0), rho_bpsk(w, sigma2))
    gap = rate_1d(w, sigma2) - shannon_capacity(rho)
    crossover_ok = gate <= 0.05 and gap > 0.0

    # First-order advantage at average-power SNR 1e-3: rho_x * log2(e) vs the
    # integral rates of the layered scheme and power-matched plain BPSK.
    rho_avg = 1e-3
    w_low = weights_from_ratio(4.0, n0 * rho_avg)
    predicted = rate_diff(w_low, n0)
    measured = rate_1d(w_low, sigma2) - bpsk_rate(snr_to_amplitude(rho_avg, sigma2),
                                                  sigma2)
    relative = abs(predicted - measured) / abs(measured)
    taylor_ok = relative <= 0.05

    ok = crossover_ok and taylor_ok
    _report(4, ok, f"r1-C={gap:+.4e} > 0 at snr {rho} (gate {gate:.3f} <= 0.05); "
                   f"rate_diff vs integral diff rel err {relative:.3%} <= 5%")


def test_criterion_5_ebn0_limit():
    """Conventional BPSK's rho/R ratio sits on the -1.59 dB floor and the
    two-dimensional Eb/N0 reduces exactly to the one-dimensional one."""
    rho = 1e-4
    floor_db = to_db(rho / bpsk_rate_at_snr(rho))
    floor_ok = abs(floor_db - (-1.5917)) <= 0.02

    pairs = (
        (WeightPair(2.0, 1.0), 1.0),
        (weights_from_ratio(4.0, 0.5), 0.25),
        (weights_from_ratio(8.0, 3.0), 2.0),
    )
    identity_ok = all(ebn0_2d(w, w, s2) == ebn0_1d(w, s2) for w, s2 in pairs)

    ok = floor_ok and identity_ok
    _report(5, ok, f"rho/R at 1e-4 = {floor_db:+.4f} dB vs -1.5917 "
                   f"(|diff| <= 0.02); ebn0_2d == ebn0_1d exact: {identity_ok}")


def test_criterion_6_derivatives_at_low_snr():
    """Capacity, BPSK and QPSK rate slopes near zero SNR all equal log2(e)
    within 1%."""
    def central_slope(fn):
        rho, step = 1e-3, 1e-4
        return (fn(rho + step) - fn(rho - step)) / (2.0 * step)

    slopes = {
        "capacity": central_slope(shannon_capacity),
        "bpsk": central_slope(bpsk_rate_at_snr),
        "qpsk": central_slope(qpsk_rate_at_snr),
    }
    errors = {name: abs(slope - LOG2_E) / LOG2_E for name, slope in slopes.items()}
    ok = all(err < 0.01 for err in errors.values())
    detail = ", ".join(f"{name} {slope:.4f} ({errors[name]:.2%})"
                       for name, slope in slopes.items())
    _report(6, ok, f"slopes vs log2(e)={LOG2_E:.4f} within 1%: {detail}")


def test_criterion_7_monte_carlo_cross_validation():
    """Seeded simulation reproduces the quadrature entropy and the Q-function
    BER oracles at (alpha, beta, sigma2) = (2, 1, 1) with n = 1e6."""
    start = time.perf_counter()
    w = WeightPair(2.0, 1.0)
    spec = NoiseSpec(1.0)
    n = 1_000_000
    cfg = SimConfig(n_symbols=n, w=w, spec=spec, seed=42424242, mode=GENIE_AIDED)
    report = simulate_1d(cfg)
    estimate = empirical_entropy(cfg)

    entropy_ref = received_entropy_layered(w, spec.sigma2)
    entropy_dev = abs(estimate.bits - entropy_ref)
    entropy_ok = entropy_dev <= 3.0 * estimate.std_error

    pred_z = 0.5 * qfunc(2.0) + 0.5 * qfunc(0.5)
    pred_x = 0.5 * qfunc(1.0) + 0.5 * qfunc(0.5)
    anchors_ok = (abs(pred_z - 0.16564) <= 1e-5 and abs(pred_x - 0.23360) <= 1e-5)
    ber_z, ber_x = report.ber(0)
    dev_z = abs(ber_z - pred_z) / math.sqrt(pred_z * (1 - pred_z) / n)
    dev_x = abs(ber_x - pred_x) / math.sqrt(pred_x * (1 - pred_x) / n)
    ber_ok = dev_z <= 3.0 and dev_x <= 3.0

    elapsed = time.perf_counter() - start
    ok = entropy_ok and anchors_ok and ber_ok and elapsed < 10.0
    _report(7, ok, f"entropy dev {entropy_dev:.2e} <= 3se={3*estimate.std_error:.2e}; "
                   f"ber devs {dev_z:.2f} / {dev_x:.2f} sigma <= 3; {elapsed:.2f}s < 10s")


def test_criterion_8_property_suites(tmp_path):
    """Round trips, scale invariance, monotonicity and CSV determinism."""
    w, wp = WeightPair(2.0, 1.0), WeightPair(1.7, 0.3)
    trips_1d = all(
        (lambda r: (r.z_hat, r.x_hat) == (z, x))(demod_1d(encode_1d(x, z, w), w))
        for x, z in itertools.product(BITS, repeat=2)
    )
    trips_2d = all(
        (lambda r: (r.z_hat, r.x_hat, r.z_hat_prime, r.x_hat_prime) == (z, x, zp, xp))(
            demod_2d(encode_2d(x, z, xp, zp, w, wp), w, wp))
        for x, z, xp, zp in itertools.product(BITS, repeat=4)
    )

    scale_ok = all(abs(bpsk_rate(a, 1.0) - bpsk_rate(c * a, c * c)) <= 1e-8
                   for a in (0.5, 1.0, 2.0) for c in (0.5, 3.0, 17.0))

    grid = [bpsk_rate(a, 1.0) for a in (0.0, 0.3, 0.8, 1.5, 2.5, 4.0)]
    monotone_ok = all(lo < hi for lo, hi in zip(grid, grid[1:])) \
        and all(0.0 <= v <= 1.0 for v in grid)

    ber_args = ["ber", "--min-db", "0", "--max-db", "1", "--step-db", "1",
                "--symbols", "50000", "--seed", "5"]
    ber_runs = []
    for i, extra in enumerate(([], [], ["--workers", "3"])):
        path = tmp_path / f"ber{i}.csv"
        assert main(ber_args + extra + ["--out", str(path)]) == 0
        ber_runs.append(path.read_bytes())
    sweep_args = ["rate-sweep", "--min-db", "-2", "--max-db", "0", "--step-db", "1",
                  "--ratio", "2"]
    sweep_runs = []
    for i in range(2):
        path = tmp_path / f"sweep{i}.csv"
        assert main(sweep_args + ["--out", str(path)]) == 0
        sweep_runs.append(path.read_bytes())
    determinism_ok = (len(ber_runs[0]) > 0 and len(sweep_runs[0]) > 0
                      and ber_runs[0] == ber_runs[1] == ber_runs[2]
                      and sweep_runs[0] == sweep_runs[1])

    ok = trips_1d and trips_2d and scale_ok and monotone_ok and determinism_ok
    _report(8, ok, f"round trips 4/16: {trips_1d}/{trips_2d}; scale<=1e-8: "
                   f"{scale_ok}; monotone: {monotone_ok}; CSV determinism "
                   f"(seed + workers): {determinism_ok}")
