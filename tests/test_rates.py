import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_bpsk import quadrature
from layered_bpsk.cli import main
from layered_bpsk.core import WeightPair, weights_from_ratio
from layered_bpsk.quadrature import node_counts
from layered_bpsk.rates import (
    LOG2_E,
    SATURATION_SIGMAS,
    bpsk_rate,
    bpsk_rate_grid,
    bpsk_rate_at_snr,
    ebn0_1d,
    ebn0_2d,
    exact_mi_1d,
    exact_mi_grid,
    gaussian_entropy,
    layered_pdf,
    mixture_mi,
    mixture_pdf,
    operating_point,
    operating_point_grid,
    qpsk_rate_at_snr,
    rate_1d,
    rate_2d,
    rate_diff,
    rate_x,
    rate_z,
    received_entropy_layered,
    rho_bpsk,
    rho_x,
    shannon_capacity,
    snr_to_amplitude,
    taylor_capacity,
    taylor_rate_1d,
    to_db,
)

from oracles import (
    gaussian_entropy_bits,
    mpmath_bpsk_rate,
    mpmath_mixture_mi,
    trapezoid_bpsk_rate,
    trapezoid_entropy,
    trapezoid_exact_mi,
)


def _slope_near_zero(rate_fn):
    """Central finite-difference slope of a rate-vs-SNR curve near zero SNR."""
    rho, step = 1e-3, 1e-4
    return (rate_fn(rho + step) - rate_fn(rho - step)) / (2.0 * step)


W21 = WeightPair(2.0, 1.0)

# Plug-in Monte Carlo estimate of the four-point mutual information at
# weights (2, 1), sigma2 = 1: mean of -log2 p(y) over 1e7 seeded samples
# (numpy default_rng(20260809)) minus the Gaussian entropy.
MC_EXACT_MI_W21 = 0.805414
MC_EXACT_MI_TOL = 1e-3  # three-decimal agreement; MC standard error 2.6e-4


@st.composite
def weight_pairs(draw):
    beta = draw(st.floats(min_value=1e-3, max_value=1e3))
    ratio = draw(st.floats(min_value=1.000001, max_value=1e3))
    return WeightPair(alpha=beta * ratio, beta=beta)


class TestMixturePdf:
    def test_reference_value(self):
        # Equal-amplitude overlap at the origin collapses to the unit normal
        # density evaluated one sigma out.
        expected = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert mixture_pdf(0.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_zero_amplitude_collapses_to_normal(self):
        y = np.linspace(-5, 5, 101)
        normal = np.exp(-(y**2) / 2.0) / math.sqrt(2.0 * math.pi)
        assert np.allclose(mixture_pdf(y, 0.0, 1.0), normal, rtol=1e-14, atol=0)

    def test_even_symmetry(self):
        y = np.linspace(0.0, 8.0, 200)
        assert np.array_equal(mixture_pdf(y, 1.7, 0.8), mixture_pdf(-y, 1.7, 0.8))

    def test_validation(self):
        with pytest.raises(ValueError):
            mixture_pdf(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            mixture_pdf(0.0, 1.0, 0.0)

    def test_degenerate_four_point_reduces_to_two_point(self):
        # If both constellation magnitudes coincided the four-point density
        # would be exactly the antipodal one; checked on the raw mixture since
        # WeightPair forbids that corner.
        y = np.linspace(-6, 6, 301)
        a = 1.3
        four = 0.25 * sum(
            np.exp(-((y - m) ** 2) / 2.0) for m in (a, -a, a, -a)
        ) / math.sqrt(2.0 * math.pi)
        assert np.allclose(four, mixture_pdf(y, a, 1.0), rtol=1e-14, atol=0)


class TestBpskRate:
    def test_zero_amplitude_is_zero(self):
        assert bpsk_rate(0.0, 1.0) == 0.0

    def test_zero_amplitude_rejects_negative_sigma2(self):
        with pytest.raises(ValueError, match="sigma2"):
            bpsk_rate(0.0, -1.0)

    def test_zero_amplitude_rejects_nan_sigma2(self):
        with pytest.raises(ValueError, match="sigma2"):
            bpsk_rate(0.0, math.nan)

    @pytest.mark.parametrize("amplitude, sigma2", [
        (1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (1.2, 0.36),
    ])
    def test_against_trapezoid_oracle(self, amplitude, sigma2):
        assert bpsk_rate(amplitude, sigma2) == pytest.approx(
            trapezoid_bpsk_rate(amplitude, sigma2), abs=1e-7)

    def test_frozen_anchor(self):
        assert bpsk_rate(1.0, 1.0) == pytest.approx(0.4859441541, abs=1e-9)

    def test_saturates_toward_one_bit(self):
        assert bpsk_rate(6.0, 1.0) >= 0.999
        assert bpsk_rate(6.0, 1.0) <= 1.0

    def test_vanishes_in_heavy_noise(self):
        assert bpsk_rate(1.0, 1e8) < 1e-6

    @pytest.mark.parametrize("sigma2", [1.0, 0.04, 1e6])
    def test_saturation_is_exact_and_continuous(self, sigma2):
        sigma = math.sqrt(sigma2)
        assert bpsk_rate(SATURATION_SIGMAS * sigma, sigma2) == 1.0
        assert bpsk_rate(1e200 * sigma, sigma2) == 1.0
        # Just below the switch the integral already rounds to one bit.
        assert bpsk_rate(0.999 * SATURATION_SIGMAS * sigma, sigma2) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_amplitude(self):
        grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 4.0]
        values = [bpsk_rate(a, 1.0) for a in grid]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 17.0])
    def test_scale_invariance(self, scale):
        base = bpsk_rate(1.0, 1.0)
        scaled = bpsk_rate(scale, scale**2)
        assert abs(base - scaled) <= 1e-8

    @pytest.mark.parametrize("amplitude, sigma2", [(1.7, 0.5), (0.9, 2.3)])
    def test_against_quadpack(self, amplitude, sigma2):
        # Third route, independent of both the package's trapezoid rule in
        # the noise and the trapezoid oracle in y.
        from scipy.integrate import quad

        def integrand(y):
            p = mixture_pdf(y, amplitude, sigma2)
            return -p * math.log2(p) if p > 0 else 0.0

        half = amplitude + 14.0 * math.sqrt(sigma2)
        h_y, _ = quad(integrand, -half, half, epsabs=1e-13, epsrel=1e-12, limit=400)
        reference = h_y - gaussian_entropy(sigma2)
        assert bpsk_rate(amplitude, sigma2) == pytest.approx(reference, abs=1e-9)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            bpsk_rate(-1.0, 1.0)


class TestLayeredRates:
    def test_rate_z_composition(self):
        expected = 0.5 * (bpsk_rate(2.0, 1.0) + bpsk_rate(0.5, 1.0))
        assert rate_z(W21, 1.0) == expected

    def test_rate_x_composition(self):
        expected = 0.5 * (bpsk_rate(1.0, 1.0) + bpsk_rate(0.5, 1.0))
        assert rate_x(W21, 1.0) == expected

    def test_rate_x_first_term_vanishes_with_weight_gap(self):
        w = WeightPair(1.0 + 1e-9, 1.0)
        assert rate_x(w, 1.0) == pytest.approx(0.5 * bpsk_rate(0.5, 1.0), abs=1e-6)

    @pytest.mark.parametrize("w, sigma2", [
        (W21, 1.0), (WeightPair(4.0, 1.0), 1.0), (WeightPair(1.5, 1.0), 0.5),
        (WeightPair(3.0, 2.0), 4.0),
    ])
    def test_rate_x_below_rate_z(self, w, sigma2):
        assert rate_x(w, sigma2) < rate_z(w, sigma2)

    def test_rate_1d_is_stream_sum(self):
        assert rate_1d(W21, 1.0) == rate_z(W21, 1.0) + rate_x(W21, 1.0)

    def test_rate_1d_saturates_at_two_bits(self):
        assert rate_1d(WeightPair(20.0, 10.0), 1.0) == pytest.approx(2.0, abs=1e-2)

    def test_rate_1d_vanishes_in_heavy_noise(self):
        assert rate_1d(W21, 1e8) < 1e-6

    def test_rate_2d_doubles_symmetric_weights(self):
        assert rate_2d(W21, W21, 1.0) == 2.0 * rate_1d(W21, 1.0)

    def test_rate_2d_sums_asymmetric_axes(self):
        wp = WeightPair(3.0, 1.0)
        assert rate_2d(W21, wp, 1.0) == rate_1d(W21, 1.0) + rate_1d(wp, 1.0)


class TestExactMi:
    def test_against_trapezoid_oracle(self):
        assert exact_mi_1d(W21, 1.0) == pytest.approx(
            trapezoid_exact_mi(W21, 1.0), abs=1e-7)

    def test_against_monte_carlo_plugin(self):
        assert exact_mi_1d(W21, 1.0) == pytest.approx(MC_EXACT_MI_W21,
                                                      abs=MC_EXACT_MI_TOL)

    def test_bounded_by_constellation_size(self):
        assert exact_mi_1d(WeightPair(50.0, 1.0), 1.0) <= 2.0

    def test_isolated_outer_points(self):
        # Half-gap (alpha - beta/2)/2 = 49.75 sigma: only +-beta/2 can be
        # confused, which the brute-force integral confirms.
        w = WeightPair(100.0, 1.0)
        assert exact_mi_1d(w, 1.0) == 1.5 + 0.5 * bpsk_rate(0.5, 1.0)
        assert exact_mi_1d(w, 1.0) == pytest.approx(trapezoid_exact_mi(w, 1.0), abs=1e-7)
        # Amplitudes near 1e17 sigma, where the entropy windows lose resolution.
        assert exact_mi_1d(WeightPair(1e17, 1e-3), 1.0) == 1.5 + 0.5 * bpsk_rate(5e-4, 1.0)
        assert exact_mi_1d(WeightPair(1e17, 1e16), 1.0) == 2.0

    def test_saturation_switch_is_continuous(self):
        # Outer half-gaps just below and just above SATURATION_SIGMAS.
        below = exact_mi_1d(WeightPair(2.0 * SATURATION_SIGMAS + 0.4, 1.0), 1.0)
        above = exact_mi_1d(WeightPair(2.0 * SATURATION_SIGMAS + 0.6, 1.0), 1.0)
        assert below == pytest.approx(above, abs=1e-9)
        assert exact_mi_1d(WeightPair(3.0 * SATURATION_SIGMAS, 2.0 * SATURATION_SIGMAS - 0.1),
                           1.0) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("w, sigma2", [
        (W21, 1.0), (WeightPair(4.0, 1.0), 1.0), (WeightPair(1.5, 1.0), 0.5),
        (WeightPair(10.0, 3.0), 4.0), (W21, 0.25),
    ])
    def test_at_least_first_stream_rate(self, w, sigma2):
        # The four-point input resolves the sign and the magnitude, so its
        # information cannot fall below the sign-stream average.
        assert exact_mi_1d(w, sigma2) >= rate_z(w, sigma2) - 1e-9


# The package evaluates every rate by a trapezoid rule in the normalized noise
# t; tests/oracles.py integrates p log p by a dense trapezoid rule in y, a
# different variable, formula and step.  Amplitudes and weights run from
# 0.25 to 8 noise deviations; half the cases use sigma2 = 0.36.
PIN_TOL = 1e-13
PIN_AMPLITUDES = (0.25, 0.5, 0.9, 1.4, 2.0, 2.5, 3.5, 5.0, 6.5, 8.0)
PIN_WEIGHTS = ((0.5, 0.25), (1.0, 0.5), (1.5, 1.0), (2.0, 1.0), (3.0, 2.0),
               (4.0, 1.0), (5.0, 3.0), (6.0, 1.0), (8.0, 4.0), (8.0, 7.5))


def _pin_sigma2(k):
    return (1.0, 0.36)[k % 2]


class TestPinnedToOracle:
    @pytest.mark.parametrize("k", range(len(PIN_AMPLITUDES)))
    def test_bpsk_rate(self, k):
        sigma2 = _pin_sigma2(k)
        amplitude = PIN_AMPLITUDES[k] * math.sqrt(sigma2)
        assert abs(bpsk_rate(amplitude, sigma2)
                   - trapezoid_bpsk_rate(amplitude, sigma2)) <= PIN_TOL

    @pytest.mark.parametrize("k", range(len(PIN_WEIGHTS)))
    def test_exact_mi(self, k):
        sigma2 = _pin_sigma2(k)
        alpha, beta = (v * math.sqrt(sigma2) for v in PIN_WEIGHTS[k])
        w = WeightPair(alpha, beta)
        assert abs(exact_mi_1d(w, sigma2) - trapezoid_exact_mi(w, sigma2)) <= PIN_TOL


# Low-SNR series of the binary-input information in nats at amplitude SNR
# s = A**2 / sigma2; the next term is of order s**4, under 1e-15 of the
# result from s = 1e-5 down.  A symmetric four-point input of the same power
# has the same series to this order.
LOW_SNR = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5)


def _series_nats(s):
    return s / 2.0 - s**2 / 4.0 + s**3 / 6.0


class TestLowSnrSeries:
    @pytest.mark.parametrize("s", LOW_SNR)
    def test_bpsk_rate(self, s):
        nats = bpsk_rate(math.sqrt(s), 1.0) * math.log(2.0)
        assert nats == pytest.approx(_series_nats(s), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s", LOW_SNR)
    @pytest.mark.parametrize("ratio", [1.01, 2.0, 8.0])
    def test_exact_mi(self, s, ratio):
        nats = exact_mi_1d(weights_from_ratio(ratio, s), 1.0) * math.log(2.0)
        assert nats == pytest.approx(_series_nats(s), rel=1e-14, abs=0.0)


class TestMixtureMi:
    @pytest.mark.parametrize("amplitude", [0.3, 0.999, 1.0, 1.9, 2.0, 2.1, 5.0, 30.0])
    def test_two_points_are_bpsk(self, amplitude):
        # Both of mixture_mi's forms against the antipodal rate in mpmath,
        # which shares no code with them.
        rate = mixture_mi((amplitude, -amplitude), 1.0)
        assert _rel_error(rate, mpmath_bpsk_rate(amplitude)) <= 5e-16

    def test_scale_invariance(self):
        points = (2.0, -2.0, 0.5, -0.5)
        scaled = tuple(3.0 * p for p in points)
        assert mixture_mi(scaled, 9.0) == pytest.approx(mixture_mi(points, 1.0), rel=1e-15)

    def test_asymmetric_points_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            mixture_mi((2.0, 0.5), 1.0)


class TestOneEntry:
    """``mixture_mi``, ``bpsk_rate`` and ``exact_mi_1d`` share one entry,
    which checks sigma2 first and tells an outer pair apart exactly once its
    gap to its neighbour is 2 * SATURATION_SIGMAS deviations, before any
    division by sigma."""

    @pytest.mark.parametrize("w", [WeightPair(1e17, 1e-3), WeightPair(100.0, 1.0),
                                   WeightPair(60.0, 30.0)])
    def test_mixture_mi_is_exact_mi(self, w):
        assert mixture_mi(w.amplitudes, 1.0).hex() == exact_mi_1d(w, 1.0).hex()

    def test_outer_gap_at_the_threshold_is_told_apart(self):
        sigma2 = 0.36
        gap = 2.0 * SATURATION_SIGMAS * math.sqrt(sigma2)
        w = WeightPair(gap + 0.5, 1.0)
        assert w.alpha - 0.5 * w.beta == gap
        told = 1.5 + 0.5 * bpsk_rate(0.5, sigma2)
        assert mixture_mi(w.amplitudes, sigma2) == exact_mi_1d(w, sigma2) == told

    def test_huge_pair_saturates_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mixture_mi((1e200, -1e200), 1.0) == 1.0
            assert bpsk_rate(sys.float_info.max, 1.0) == 1.0

    def test_three_points_told_apart_carry_their_label_entropy(self):
        assert mixture_mi((-30.0, 0.0, 30.0), 1.0) == math.log2(3)

    # bpsk_rate(0.0, -1.0) is TestBpskRate's.
    @pytest.mark.parametrize("call", [lambda: mixture_mi((0.0,), -1.0),
                                      lambda: mixture_mi((1e200, -1e200), -1.0),
                                      lambda: exact_mi_grid([], math.nan)])
    def test_sigma2_checked_before_anything_else(self, call):
        with pytest.raises(ValueError, match="sigma2"):
            call()


class TestClosedForms:
    def test_shannon_capacity_points(self):
        assert shannon_capacity(1.0) == 1.0
        assert shannon_capacity(3.0) == 2.0
        assert shannon_capacity(0.0) == 0.0

    def test_capacity_keeps_digits_at_low_snr(self):
        # log2(1 + rho) rounds 1 + rho and keeps about 7 digits at 1e-10.
        rho = 1e-10
        assert shannon_capacity(rho) == pytest.approx((rho - rho**2 / 2.0) * LOG2_E,
                                                      rel=1e-15, abs=0.0)

    def test_taylor_capacity(self):
        assert taylor_capacity(0.01) == pytest.approx(0.0144270, abs=5e-8)
        assert taylor_capacity(0.0) == 0.0

    def test_taylor_upper_bounds_capacity(self):
        for rho in (1e-4, 0.01, 0.5, 3.0, 100.0):
            assert taylor_capacity(rho) >= shannon_capacity(rho)

    def test_rho_arithmetic(self):
        assert rho_bpsk(W21, 1.0) == 2.125
        assert rho_x(W21, 1.0) == 0.625

    @given(w=weight_pairs(), sigma2=st.floats(min_value=1e-3, max_value=1e3))
    def test_rho_x_below_rho_bpsk(self, w, sigma2):
        assert rho_x(w, sigma2) < rho_bpsk(w, sigma2)

    def test_taylor_rate_reference(self):
        assert taylor_rate_1d(W21, 1.0) == pytest.approx(2.75 * LOG2_E, rel=1e-14)

    def test_rate_diff_identity(self):
        lhs = rate_diff(W21, 1.0)
        rhs = taylor_rate_1d(W21, 1.0) - rho_bpsk(W21, 1.0) * LOG2_E
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(w=weight_pairs(), sigma2=st.floats(min_value=1e-3, max_value=1e3))
    def test_rate_diff_positive(self, w, sigma2):
        assert rate_diff(w, sigma2) > 0.0

    def test_rate_diff_small_beta_limit(self):
        w = WeightPair(1.0, 1e-8)
        assert rate_diff(w, 1.0) == pytest.approx(0.5 * LOG2_E, rel=1e-6)

    def test_to_db(self):
        assert to_db(10.0) == 10.0
        assert to_db(1.0) == 0.0
        with pytest.raises(ValueError):
            to_db(0.0)

    def test_snr_to_amplitude(self):
        assert snr_to_amplitude(0.0, 1.0) == 0.0
        assert snr_to_amplitude(2.0, 1.0) == 2.0  # power 4 against N0 = 2
        # 2 * sigma2 alone overflows; the power 2e298 does not.
        assert snr_to_amplitude(1e-10, 1e308) == pytest.approx(math.sqrt(2e298))


class TestSnrDomain:
    def test_zero_snr_rates(self):
        assert bpsk_rate_at_snr(0.0) == 0.0
        assert qpsk_rate_at_snr(0.0) == 0.0

    def test_low_rate_power_limit(self):
        rho = 1e-4
        value_db = to_db(rho / bpsk_rate_at_snr(rho))
        assert abs(value_db - (-1.5917)) <= 0.02

    def test_capacity_slope_at_low_snr(self):
        slope = _slope_near_zero(shannon_capacity)
        assert abs(slope - LOG2_E) / LOG2_E < 0.001

    def test_bpsk_slope_at_low_snr(self):
        slope = _slope_near_zero(bpsk_rate_at_snr)
        assert abs(slope - LOG2_E) / LOG2_E < 0.01

    def test_qpsk_slope_at_low_snr(self):
        slope = _slope_near_zero(qpsk_rate_at_snr)
        assert abs(slope - LOG2_E) / LOG2_E < 0.01

    @pytest.mark.parametrize("rho", [1e-3, 5e-3, 1e-2])
    def test_bpsk_tracks_capacity_to_second_order(self, rho):
        gap = abs(bpsk_rate_at_snr(rho) - shannon_capacity(rho))
        assert gap <= 0.01 * rho * LOG2_E

    def test_rates_vanish_with_snr(self):
        for rho in (1e-3, 1e-5):
            assert 0.0 < bpsk_rate_at_snr(rho) < 2.0 * rho * LOG2_E
            assert 0.0 < qpsk_rate_at_snr(rho) < 2.0 * rho * LOG2_E


class TestEbN0:
    def test_symmetric_axes_match_exactly(self):
        for w, sigma2 in ((W21, 1.0), (WeightPair(4.0, 1.0), 0.5),
                          (WeightPair(1.5, 0.7), 2.0)):
            assert ebn0_2d(w, w, sigma2) == ebn0_1d(w, sigma2)

    def test_zero_rate_rejected(self, monkeypatch):
        # The guard fires when the operating point carries no information;
        # quadrature round-off keeps real weight pairs epsilon above zero, so
        # pin the branch directly.
        monkeypatch.setattr("layered_bpsk.rates.rate_1d", lambda *a, **k: 0.0)
        with pytest.raises(ValueError, match="Eb/N0 undefined"):
            ebn0_1d(W21, 1.0)

    def test_zero_rate_rejected_2d(self, monkeypatch):
        monkeypatch.setattr("layered_bpsk.rates.rate_2d", lambda *a, **k: 0.0)
        with pytest.raises(ValueError, match="Eb/N0 undefined"):
            ebn0_2d(W21, W21, 1.0)

    def test_power_near_the_float_range_stays_finite(self):
        # rho_z + rho_x against sigma2 = 0.6 is about 2.8e308, past the float
        # range, but against N0 = 1.2 it is finite: each power is halved
        # before it is divided by sigma2.
        w = WeightPair(1.3e154, 1e152)
        expected = (rho_bpsk(w, 1.2) + rho_x(w, 1.2)) / rate_1d(w, 0.6)
        assert math.isfinite(expected)
        assert ebn0_1d(w, 0.6) == expected

    def test_two_axes_near_the_float_range_stay_finite(self):
        # Each axis's term is about 3.5e307 after division by the rate, so
        # their sum is finite although the two energies add past the range.
        w = WeightPair(1.3e154, 1e152)
        assert ebn0_2d(w, w, 0.6) == ebn0_1d(w, 0.6) == 6.9878125e307
        wp = WeightPair(1.2e154, 1e152)
        assert math.isfinite(ebn0_2d(w, wp, 0.6))

    def test_approaches_low_rate_floor(self):
        # Near zero SNR the layered scheme's Eb/N0 approaches ln 2 as well.
        w = weights_from_ratio(2.0, 2e-4)
        assert to_db(ebn0_1d(w, 1.0)) == pytest.approx(to_db(math.log(2.0)), abs=0.05)


class TestOperatingPoint:
    @pytest.mark.parametrize("ratio", [1.001, 3.0, 1e3])
    @pytest.mark.parametrize("rho", [1e-9, 0.5, 1e4])
    def test_fields_consistent(self, rho, ratio):
        # Every scalar function equals its record field bit for bit.
        p = operating_point(rho, ratio=ratio)
        assert p.r_1 == p.r_z + p.r_x
        assert p.r_2 == 2.0 * p.r_1
        assert p.capacity == shannon_capacity(p.snr_linear)
        w = weights_from_ratio(ratio, 2.0 * rho)
        assert (p.r_z, p.r_x, p.r_1) == (rate_z(w, 1.0), rate_x(w, 1.0), rate_1d(w, 1.0))
        assert p.r_2 == rate_2d(w, w, 1.0)
        assert p.ebn0_db == to_db(ebn0_1d(w, 1.0)) == to_db(ebn0_2d(w, w, 1.0))
        assert p.exact_mi == exact_mi_1d(w, 1.0)
        assert (p.r_bpsk, p.qpsk_rate) == (bpsk_rate_at_snr(rho), qpsk_rate_at_snr(rho))

    def test_baseline_only_point(self):
        p = operating_point(0.5)
        assert (p.r_bpsk, p.qpsk_rate) == (bpsk_rate_at_snr(0.5), qpsk_rate_at_snr(0.5))
        assert p.r_z is p.r_1 is p.exact_mi is p.ebn0_db is None


def _bits(values):
    return [float(v).hex() for v in values]


def _spy_integrate(monkeypatch):
    """Record the node count of every ``integrate`` call the rates make."""
    calls = []
    integrate = quadrature.integrate

    def spy(f, step):
        calls.append(int(node_counts(step).sum()))
        return integrate(f, step)

    monkeypatch.setattr(quadrature, "integrate", spy)
    return calls


class TestGridEqualsOneRow:
    """Each grid form's element k equals the scalar call on row k, bit for
    bit, whatever the rows beside it and the block it lands in."""

    SIGMA2 = 0.36
    SIGMA = 0.6
    # In noise deviations: zero, the log cosh form, both sides of the switch
    # at 2, the widest steps, both sides of saturation and far beyond it.
    ROOTS = (0.0, 1e-6, 0.3, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
             math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0), 2.5,
             6.3, 11.3, math.nextafter(SATURATION_SIGMAS, 0.0), SATURATION_SIGMAS, 40.0, 1e200)
    # (alpha, beta) in noise deviations: the log cosh form, both sides of
    # reach = 2, the separation form, and outer half-gaps on both sides of
    # saturation, also with beta/2 itself saturated.
    WEIGHTS = ((0.02, 0.01), (1.0, 0.5), (math.nextafter(2.0, 0.0), 1.0), (2.0, 1.0),
               (math.nextafter(2.0, 3.0), 1.0), (4.0, 1.0), (30.0, 29.0),
               (2.0 * SATURATION_SIGMAS + 0.48, 1.0), (2.0 * SATURATION_SIGMAS + 0.52, 1.0),
               (3.0 * SATURATION_SIGMAS, 2.0 * SATURATION_SIGMAS + 0.1))

    def test_bpsk_rate_grid(self):
        amplitudes = [r * self.SIGMA for r in self.ROOTS]
        grid = bpsk_rate_grid(amplitudes, self.SIGMA2)
        assert _bits(grid) == _bits(bpsk_rate(a, self.SIGMA2) for a in amplitudes)
        assert grid[0] == 0.0 and all(grid[-4:] == 1.0)

    def test_exact_mi_grid(self):
        weights = [WeightPair(a * self.SIGMA, b * self.SIGMA) for a, b in self.WEIGHTS]
        grid = exact_mi_grid(weights, self.SIGMA2)
        assert _bits(grid) == _bits(exact_mi_1d(w, self.SIGMA2) for w in weights)
        assert grid[-1] == 2.0

    def test_rows_straddle_blocks(self, monkeypatch):
        calls = _spy_integrate(monkeypatch)
        amplitudes = np.linspace(5.5, 7.0, 240)  # about 670 nodes each
        grid = bpsk_rate_grid(amplitudes, 1.0)
        assert len(calls) >= 2 and max(calls) <= 2**16
        weights = [WeightPair(a, 1.0) for a in np.linspace(8.0, 20.0, 40)]  # 1200 to 3000 nodes
        mi = exact_mi_grid(weights, 1.0)
        assert len(calls) >= 5 and max(calls) <= 2**16
        monkeypatch.undo()
        assert _bits(grid) == _bits(bpsk_rate(a, 1.0) for a in amplitudes)
        assert _bits(mi) == _bits(exact_mi_1d(w, 1.0) for w in weights)

    def test_empty_grids(self):
        assert bpsk_rate_grid([], 1.0).size == 0
        assert exact_mi_grid([], 1.0).size == 0
        assert operating_point_grid([], 2.0) == []

    def test_grid_checks_every_row(self):
        with pytest.raises(ValueError, match="amplitude.*-1.0"):
            bpsk_rate_grid([1.0, -1.0], 1.0)
        with pytest.raises(ValueError, match="rho"):
            operating_point_grid([1.0, math.nan])

    @pytest.mark.parametrize("ratio", [None, 1.001, 2.0, 8.0, 1e3])
    def test_operating_point_grid(self, ratio):
        rhos = [0.0 if ratio is None else 1e-9, 1e-3, 0.37, 1.0, 10.0, 10.0 ** 4.5, 1e6]
        grid = operating_point_grid(rhos, ratio)
        assert grid == [operating_point(rho, ratio) for rho in rhos]

    def test_operating_point_grid_without_exact_mi(self):
        rhos = [1e-3, 0.37, 10.0, 1e4]
        lean = operating_point_grid(rhos, 4.0, exact_mi=False)
        full = operating_point_grid(rhos, 4.0)
        assert all(p.exact_mi is None for p in lean)
        assert lean == [dataclasses.replace(p, exact_mi=None) for p in full]


class TestMixtureMiOddPoints:
    # The half-sum weights a point at zero by 1/n and every other by 2/n.
    @pytest.mark.parametrize("points", [(-0.7, 0.0, 0.7), (-2.5, 0.0, 2.5),
                                        (-3.0, -1.0, 0.0, 1.0, 3.0)])
    def test_against_trapezoid_oracle(self, points):
        reference = trapezoid_entropy(points, 1.0) - gaussian_entropy_bits(1.0)
        assert abs(mixture_mi(points, 1.0) - reference) <= PIN_TOL


def _rel_error(value, reference):
    with mpmath.workdps(30):
        return float(abs(mpmath.mpf(value) - reference) / reference)


class TestMpmathPins:
    """Saturation at 12 sigma and the pole-weighted pair steps, against
    mpmath at 30 digits."""

    @pytest.mark.parametrize("root", [1.0, 2.0, 4.0, 6.0, 8.0, 11.9, 12.0, 20.0, 39.0])
    def test_bpsk_rate(self, root):
        assert _rel_error(bpsk_rate(root, 1.0), mpmath_bpsk_rate(root)) <= 5e-16

    @pytest.mark.parametrize("half_gap", [SATURATION_SIGMAS - 0.01, SATURATION_SIGMAS + 0.01])
    def test_exact_mi_across_saturation(self, half_gap):
        # Outer half-gap (alpha - beta/2) / 2 just below and just above the
        # switch to 1.5 + bpsk_rate(beta/2) / 2.
        alpha = 2.0 * half_gap + 0.5
        reference = mpmath_mixture_mi((alpha, -alpha, 0.5, -0.5))
        assert abs(exact_mi_1d(WeightPair(alpha, 1.0), 1.0) - reference) <= 1e-15

    @pytest.mark.parametrize("alpha, beta", [(8.0, 0.5), (13.0, 6.0), (16.0, 2.0), (20.0, 0.5)])
    def test_exact_mi_pole_weighted_step(self, alpha, beta):
        # Weights whose pole-weighted step is 2 to 8 times the one the
        # widest pair's spread alone allows.
        w = WeightPair(alpha, beta)
        assert abs(exact_mi_1d(w, 1.0) - mpmath_mixture_mi(w.amplitudes)) <= 1e-15


def test_default_rate_sweep_node_budget(monkeypatch, tmp_path):
    # Nodes of every rate integral, counted with quadrature.node_counts.
    # The default capacity-gap evaluates the default rate-sweep's BPSK rates
    # (300 847 nodes) and no exact MI; the rate-sweep's exact MI takes 86 526
    # more.  A step rule that widens again fails here.
    nodes = []
    expect = quadrature.expect

    def spy(integrand, steps, *params, **kwargs):
        nodes.append(int(node_counts(steps).sum()))
        return expect(integrand, steps, *params, **kwargs)

    def count(command):
        nodes.clear()
        assert main([command, "--out", str(tmp_path / "out.csv")]) == 0
        return sum(nodes)

    monkeypatch.setattr(quadrature, "expect", spy)
    bpsk = count("capacity-gap")
    assert bpsk <= 310_000
    assert count("rate-sweep") - bpsk <= 90_000


class TestBreakdown:
    def test_entropy_pieces(self):
        # H(Y) of the four-point mixture always exceeds the noise entropy.
        assert received_entropy_layered(W21, 1.0) > gaussian_entropy(1.0)
        assert layered_pdf(0.0, W21, 1.0) > 0.0


_SETTINGS_SLOW = settings(max_examples=15, deadline=None)


@_SETTINGS_SLOW
@given(w=weight_pairs())
def test_rate_1d_additivity_property(w):
    assert rate_1d(w, 1.0) == rate_z(w, 1.0) + rate_x(w, 1.0)


# Information-theory properties over the CLI's useful SNR range.
SNR_DB = st.floats(min_value=-100.0, max_value=60.0)
RATIOS = st.floats(min_value=1.001, max_value=1e3)
_SETTINGS_RANGE = settings(max_examples=150, deadline=None)

# QPSK and the capacity share their series up to rho**3 (2 * (rho/2 -
# rho**2/4 + rho**3/6) against log1p(rho)), so below about -50 dB they
# differ by less than their rounding; the largest excess seen on a dense
# sweep is 3 ulp.  The exact MI stays a relative 5e-11 or more below C at
# -100 dB, but shares the bound.
CAPACITY_ULPS = 4

# Every rate switches between two forms of its integral once a point leaves
# two deviations of zero: bpsk_rate at A = 2 sigma, the exact MI at an outer
# point of 2 sigma.  BPSK's forms agree exactly at the switch, the exact
# MI's to 3 ulp at the ratios tested below and to 5 ulp at worst over 400
# ratios from 1.0001 to 1000; elsewhere no rate was seen to fall by even one
# ulp over SNR steps of 1e-13.
MONOTONE_ULPS = 4


def _capacity_bound(rho):
    bound = min(2.0, shannon_capacity(rho))
    return bound + CAPACITY_ULPS * math.ulp(bound)


def _mi_at(rho, ratio):
    return exact_mi_1d(weights_from_ratio(ratio, 2.0 * rho), 1.0)


@_SETTINGS_RANGE
@given(db=SNR_DB)
def test_bpsk_below_capacity_property(db):
    # All power on one axis: C - BPSK is about rho**2 / 2 nats, far above
    # rounding, so no slack is needed.
    rho = 10.0 ** (db / 10.0)
    assert bpsk_rate_at_snr(rho) <= shannon_capacity(rho)


@_SETTINGS_RANGE
@given(db=SNR_DB, ratio=RATIOS)
def test_qpsk_and_exact_mi_below_capacity_property(db, ratio):
    rho = 10.0 ** (db / 10.0)
    assert qpsk_rate_at_snr(rho) <= _capacity_bound(rho)
    assert 0.0 <= _mi_at(rho, ratio) <= _capacity_bound(rho)


@_SETTINGS_RANGE
@given(db=SNR_DB, ratio=RATIOS,
       gap=st.one_of(st.floats(min_value=0.0, max_value=1e-9),
                     st.floats(min_value=0.0, max_value=10.0)))
def test_rates_non_decreasing_in_snr_property(db, ratio, gap):
    lo, hi = 10.0 ** (db / 10.0), 10.0 ** (min(db + gap, 60.0) / 10.0)
    for rate in (bpsk_rate_at_snr, qpsk_rate_at_snr, shannon_capacity,
                 lambda rho: _mi_at(rho, ratio)):
        upper = rate(hi)
        assert rate(lo) <= upper + MONOTONE_ULPS * math.ulp(upper)


def test_rates_continuous_across_form_switches():
    low, high = (bpsk_rate(a, 1.0) for a in (math.nextafter(2.0, 0.0), 2.0))
    assert abs(high - low) <= MONOTONE_ULPS * math.ulp(high)
    for ratio in (1.001, 2.0, 8.0):
        points = [(a, -a, a / ratio / 2.0, -a / ratio / 2.0)
                  for a in (math.nextafter(2.0, 0.0), 2.0)]
        low, high = (mixture_mi(p, 1.0) for p in points)
        assert abs(high - low) <= MONOTONE_ULPS * math.ulp(high)


# Every zero-mean input on one real axis has Eb/N0 >= ln 2 (-1.59 dB).  A
# dense scan over this range found the smallest ebn0_1d at ln 2 * (1 + 1.2e-10),
# well clear of rounding; the slack covers the last bits of the rates.
EBN0_ULPS = 4
WIDE_RATIOS = st.floats(min_value=1.0, max_value=1e8, exclude_min=True)


@_SETTINGS_RANGE
@given(db=SNR_DB, ratio=WIDE_RATIOS)
def test_ebn0_never_below_wideband_limit_property(db, ratio):
    w = weights_from_ratio(ratio, 2.0 * 10.0 ** (db / 10.0))
    assert ebn0_1d(w, 1.0) >= math.log(2.0) - EBN0_ULPS * math.ulp(math.log(2.0))
