import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layered_bpsk.core import Bit, WeightPair
from layered_bpsk.modem import (
    _INDEX_BITS,
    amplitude_table,
    decide,
    demod_1d,
    demod_2d,
    demod_bpsk,
    encode_1d,
    encode_2d,
    symbol_index,
)

W21 = WeightPair(2.0, 1.0)
BITS = (Bit.PLUS, Bit.MINUS)


@st.composite
def weight_pairs(draw):
    beta = draw(st.floats(min_value=1e-3, max_value=1e3))
    ratio = draw(st.floats(min_value=1.000001, max_value=1e3))
    return WeightPair(alpha=beta * ratio, beta=beta)


class TestEncode1D:
    @pytest.mark.parametrize("x, z, expected", [
        (Bit.PLUS, Bit.PLUS, 2.0),
        (Bit.MINUS, Bit.MINUS, -2.0),
        (Bit.PLUS, Bit.MINUS, -0.5),
        (Bit.MINUS, Bit.PLUS, 0.5),
    ])
    def test_four_amplitudes(self, x, z, expected):
        assert encode_1d(x, z, W21) == expected

    def test_accepts_plain_ints(self):
        assert encode_1d(1, -1, W21) == -0.5

    def test_rejects_non_antipodal(self):
        with pytest.raises(ValueError):
            encode_1d(0, 1, W21)

    @given(w=weight_pairs(), x=st.sampled_from(BITS), z=st.sampled_from(BITS))
    def test_sign_always_matches_z(self, w, x, z):
        assert math.copysign(1, encode_1d(x, z, w)) == float(z)

    @given(w=weight_pairs(), x=st.sampled_from(BITS), z=st.sampled_from(BITS))
    def test_negating_bits_negates_amplitude(self, w, x, z):
        assert encode_1d(Bit(-x), Bit(-z), w) == -encode_1d(x, z, w)


class TestDemod1D:
    def test_noiseless_case_1(self):
        result = demod_1d(2.0, W21)
        assert (result.z_hat, result.x_tilde, result.x_hat) == (Bit.PLUS, 1.0, Bit.PLUS)

    def test_noiseless_case_3(self):
        # Recovers x=+1, z=-1 from the small negative amplitude.
        result = demod_1d(-0.5, W21)
        assert (result.z_hat, result.x_tilde, result.x_hat) == (Bit.MINUS, 0.5, Bit.PLUS)

    def test_tie_break_at_zero(self):
        result = demod_1d(0.0, W21)
        assert result.z_hat is Bit.PLUS
        assert result.x_tilde == -W21.beta
        assert result.x_hat is Bit.MINUS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            demod_1d(bad, W21)

    @given(w=weight_pairs(), x=st.sampled_from(BITS), z=st.sampled_from(BITS))
    def test_noiseless_round_trip(self, w, x, z):
        result = demod_1d(encode_1d(x, z, w), w)
        assert (result.z_hat, result.x_hat) == (z, x)

    @given(w=weight_pairs(), x=st.sampled_from(BITS), z=st.sampled_from(BITS))
    def test_residual_amplitudes(self, w, x, z):
        # With a correct first-stage decision the residual is alpha - beta
        # (bits agree) or beta / 2 (bits differ).
        result = demod_1d(encode_1d(x, z, w), w)
        expected = w.alpha - w.beta if x == z else 0.5 * w.beta
        assert math.isclose(abs(result.x_tilde), expected, rel_tol=1e-12, abs_tol=1e-300)

    @given(w=weight_pairs(), y=st.floats(min_value=-1e6, max_value=1e6))
    def test_negating_sample_negates_decisions(self, w, y):
        if y == 0.0 or y == w.beta or y == -w.beta:
            return  # tie-break points are deliberately asymmetric
        plus, minus = demod_1d(y, w), demod_1d(-y, w)
        assert plus.z_hat == -minus.z_hat
        assert plus.x_hat == -minus.x_hat


class TestIndexBits:
    def test_inverts_symbol_index(self):
        for k, (x, z) in enumerate(_INDEX_BITS):
            assert symbol_index(x, z) == k
            amplitude = encode_1d(1 if x else -1, 1 if z else -1, W21)
            assert amplitude_table(W21)[k] == amplitude


class TestDecide:
    # Samples at the thresholds 0, beta and -beta of W21 (beta = 1) and their
    # float neighbours, with the expected z_hat and x_hat under decision
    # feedback and x_hat under genie feedback of z = +1 and of z = -1.
    # Ties decide +1.
    #   y                              z_hat  x_hat  genie z=+1  genie z=-1
    TIES = [
        (math.nextafter(-1.0, -math.inf), -1,    -1,    -1,         -1),
        (-1.0,                            -1,    +1,    -1,         +1),
        (math.nextafter(-1.0, 0.0),       -1,    +1,    -1,         +1),
        (math.nextafter(0.0, -1.0),       -1,    +1,    -1,         +1),
        (0.0,                             +1,    -1,    -1,         +1),
        (math.nextafter(0.0, 1.0),        +1,    -1,    -1,         +1),
        (math.nextafter(1.0, 0.0),        +1,    -1,    -1,         +1),
        (1.0,                             +1,    +1,    +1,         +1),
        (math.nextafter(1.0, math.inf),   +1,    +1,    +1,         +1),
    ]

    def test_ties_and_neighbours_both_feedback_modes(self):
        y = np.array([row[0] for row in self.TIES])
        expected = [[flag > 0 for flag in column] for column in list(zip(*self.TIES))[1:]]
        z_hat, x_hat = decide(y, W21.beta)
        _, x_genie_plus = decide(y, W21.beta, np.ones(y.size, dtype=bool))
        _, x_genie_minus = decide(y, W21.beta, np.zeros(y.size, dtype=bool))
        assert [list(z_hat), list(x_hat), list(x_genie_plus), list(x_genie_minus)] == expected
        for yk, z, x, _, _ in self.TIES:
            result = demod_1d(yk, W21)
            assert (result.z_hat, result.x_hat) == (z, x)


class TestModem2D:
    def test_noiseless_example_agreeing(self):
        assert encode_2d(Bit.PLUS, Bit.PLUS, Bit.PLUS, Bit.PLUS, W21, W21) == 2 + 2j
        result = demod_2d(2 + 2j, W21, W21)
        assert (result.z_hat, result.z_hat_prime, result.x_hat, result.x_hat_prime) \
            == (Bit.PLUS, Bit.PLUS, Bit.PLUS, Bit.PLUS)

    def test_noiseless_example_mixed(self):
        tx = encode_2d(Bit.PLUS, Bit.MINUS, Bit.MINUS, Bit.PLUS, W21, W21)
        assert tx == -0.5 + 0.5j
        result = demod_2d(tx, W21, W21)
        assert (result.z_hat, result.z_hat_prime) == (Bit.MINUS, Bit.PLUS)
        assert (result.x_hat, result.x_hat_prime) == (Bit.PLUS, Bit.MINUS)

    def test_all_sixteen_round_trips(self):
        w, wp = WeightPair(2.0, 1.0), WeightPair(1.5, 0.6)
        for x, z, xp, zp in itertools.product(BITS, repeat=4):
            result = demod_2d(encode_2d(x, z, xp, zp, w, wp), w, wp)
            assert (result.z_hat, result.x_hat, result.z_hat_prime, result.x_hat_prime) \
                == (z, x, zp, xp)

    @given(w=weight_pairs(), wp=weight_pairs(),
           a=st.floats(min_value=-100, max_value=100),
           b=st.floats(min_value=-100, max_value=100))
    def test_real_axis_independent_of_imaginary(self, w, wp, a, b):
        assert demod_2d(complex(a, b), w, wp).z_hat == demod_1d(a, w).z_hat

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            demod_2d(bad, W21, W21)


class TestBaselines:
    def test_bpsk_mapping(self):
        assert demod_bpsk(-0.3) is Bit.MINUS
        assert demod_bpsk(0.3) is Bit.PLUS

    def test_bpsk_rejects_non_finite(self):
        with pytest.raises(ValueError):
            demod_bpsk(math.nan)
