import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_bpsk.core import (
    Bit,
    NoiseSpec,
    SimReport,
    WeightPair,
    weights_from_ratio,
)


class TestBit:
    def test_only_antipodal_values_constructible(self):
        assert Bit(1) is Bit.PLUS
        assert Bit(-1) is Bit.MINUS
        for bad in (0, 2, -2):
            with pytest.raises(ValueError):
                Bit(bad)

    def test_behaves_as_integer(self):
        assert Bit.PLUS * 2.5 == 2.5
        assert Bit.MINUS * 2.5 == -2.5
        assert -Bit.PLUS == -1


class TestWeightPair:
    def test_valid_pair(self):
        w = WeightPair(2.0, 1.0)
        assert (w.alpha, w.beta) == (2.0, 1.0)
        assert w.ratio == 2.0

    def test_equal_weights_rejected(self):
        with pytest.raises(ValueError, match="alpha must exceed beta"):
            WeightPair(1.0, 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            WeightPair(2.0, -1.0)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            WeightPair(2.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            WeightPair(math.nan, 1.0)
        with pytest.raises(ValueError, match="beta must be a finite number"):
            WeightPair(2.0, math.inf)

    def test_immutable(self):
        w = WeightPair(2.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.alpha = 3.0

    def test_average_power(self):
        # Four equiprobable amplitudes {+-2, +-0.5}: (4 + 0.25) / 2.
        assert WeightPair(2.0, 1.0).average_power() == 2.125

    def test_constellation_table(self):
        w = WeightPair(2, 1)
        assert w.points == ((1, 1, 2.0), (-1, -1, -2.0), (-1, 1, 0.5), (1, -1, -0.5))
        assert w.amplitudes == (2.0, -2.0, 0.5, -0.5)
        assert all(type(a) is float for a in w.amplitudes)
        assert all(z * a > 0 for _, z, a in w.points)  # the sign carries z
        assert w.sign_pair == (2.0, 0.5)
        assert w.residual_pair == (1.0, 0.5)

    @given(alpha=st.floats(min_value=1e-6, max_value=1e6),
           scale=st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
    def test_every_constructed_pair_is_ordered(self, alpha, scale):
        w = WeightPair(alpha, alpha * scale)
        assert w.alpha > w.beta > 0


class TestWeightsFromRatio:
    def test_reference_point(self):
        w = weights_from_ratio(2.0, 2.125)
        assert math.isclose(w.alpha, 2.0, rel_tol=1e-12)
        assert math.isclose(w.beta, 1.0, rel_tol=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="avg_power"):
            weights_from_ratio(2.0, 0.0)

    def test_ratio_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            weights_from_ratio(1.0, 1.0)
        with pytest.raises(ValueError, match="ratio"):
            weights_from_ratio(0.5, 1.0)

    @pytest.mark.parametrize("bad", [1e300, math.inf, math.nan])
    def test_huge_ratio_rejected(self, bad):
        with pytest.raises(ValueError, match="ratio"):
            weights_from_ratio(bad, 1.0)

    def test_high_ratio_asymptote(self):
        # beta -> 0 and alpha -> sqrt(2 * power) as the ratio grows.
        w = weights_from_ratio(1e8, 3.0)
        assert w.beta < 1e-7
        assert math.isclose(w.alpha, math.sqrt(6.0), rel_tol=1e-9)

    @pytest.mark.parametrize("ratio", [math.nextafter(1.0, 2.0), 1.0000000000001, 1e150])
    @pytest.mark.parametrize("power", [2e-300, 2e300])
    def test_corners_of_the_accepted_domain(self, ratio, power):
        # 2e-300 and 2e300 are the signal powers at -3000 and +3000 dB, the
        # ends of the CLI's grid, at unit noise variance.
        w = weights_from_ratio(ratio, power)
        assert w.beta >= sys.float_info.min
        assert math.isfinite(w.alpha) and w.alpha > w.beta
        assert abs(w.average_power() - power) <= 4 * math.ulp(power)

    @settings(max_examples=200)
    @given(ratio=st.floats(min_value=1.000001, max_value=1e6),
           power=st.floats(min_value=1e-10, max_value=1e10))
    def test_round_trip(self, ratio, power):
        w = weights_from_ratio(ratio, power)
        assert math.isclose(w.ratio, ratio, rel_tol=1e-12)
        assert math.isclose(w.average_power(), power, rel_tol=1e-12)


class TestNoiseSpec:
    def test_valid(self):
        assert NoiseSpec(0.25).sigma2 == 0.25

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            NoiseSpec(bad)


class TestSimReport:
    def _kwargs(self, **overrides):
        base = dict(n_symbols=10_000, errors=((10, 20),))
        base.update(overrides)
        return base

    def test_valid_report(self):
        report = SimReport(**self._kwargs(errors=((10, 20), (0, 10_000))))
        assert report.ber(0) == (0.001, 0.002)
        assert report.ber(1) == (0.0, 1.0)
        assert report.ci(0) == (3.0 * math.sqrt(0.001 * 0.999 / 10_000),
                                3.0 * math.sqrt(0.002 * 0.998 / 10_000))
        assert report.ci(1) == (0.0, 0.0)

    def test_ber_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="axis 0"):
            SimReport(**self._kwargs(errors=((10_001, 0),)))
        with pytest.raises(ValueError, match="axis 1"):
            SimReport(**self._kwargs(errors=((0, 0), (0, -1))))
