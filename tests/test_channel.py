import math

import numpy as np
import pytest
from scipy import stats

from layered_bpsk.channel import NoiseStream, awgn_real
from layered_bpsk.core import NoiseSpec

SPEC = NoiseSpec(1.0)


def _stream(seed=12345, stream_id=0, spec=SPEC):
    return NoiseStream(seed, stream_id, spec)


def _complex_noise(n, stream):
    """A complex channel's noise: two consecutive real draws, real axis first."""
    return awgn_real(np.zeros(n), stream), awgn_real(np.zeros(n), stream)


class TestDeterminism:
    def test_identical_parameters_reproduce_sequences(self):
        a = awgn_real(np.zeros(4096), _stream())
        b = awgn_real(np.zeros(4096), _stream())
        assert np.array_equal(a, b)

    def test_complex_sequences_reproduce(self):
        a = _complex_noise(4096, _stream())
        b = _complex_noise(4096, _stream())
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = awgn_real(np.zeros(4096), _stream(stream_id=0))
        b = awgn_real(np.zeros(4096), _stream(stream_id=1))
        assert not np.array_equal(a, b)


class TestValidation:
    def test_bad_seed_rejected(self):
        for bad in (-1, 2**64, 1.5):
            with pytest.raises(ValueError):
                NoiseStream(bad, 0, SPEC)

    def test_bad_stream_id_rejected(self):
        with pytest.raises(ValueError):
            NoiseStream(1, -1, SPEC)


class TestStatistics:
    N = 1_000_000

    def test_mean_near_zero(self):
        samples = awgn_real(np.zeros(self.N), _stream(seed=7))
        # CLT bound: 4 sigma / sqrt(n) with sigma = 1.
        assert abs(samples.mean()) < 4.0 / math.sqrt(self.N)

    def test_variance_within_one_percent(self):
        spec = NoiseSpec(0.49)
        samples = awgn_real(np.zeros(self.N), _stream(seed=11, spec=spec))
        assert abs(samples.var() / spec.sigma2 - 1.0) < 0.01

    def test_complex_per_dimension_variance(self):
        spec = NoiseSpec(2.25)
        real, imag = _complex_noise(self.N, _stream(seed=13, spec=spec))
        assert abs(real.var() / spec.sigma2 - 1.0) < 0.01
        assert abs(imag.var() / spec.sigma2 - 1.0) < 0.01

    def test_complex_axes_uncorrelated(self):
        real, imag = _complex_noise(self.N, _stream(seed=17))
        corr = np.corrcoef(real, imag)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(self.N)

    def test_substreams_uncorrelated(self):
        a = awgn_real(np.zeros(self.N), _stream(seed=19, stream_id=0))
        b = awgn_real(np.zeros(self.N), _stream(seed=19, stream_id=1))
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(self.N)

    def test_kolmogorov_smirnov_against_standard_normal(self):
        spec = NoiseSpec(4.0)
        samples = awgn_real(np.zeros(100_000), _stream(seed=23, spec=spec))
        result = stats.kstest(samples / math.sqrt(spec.sigma2), "norm")
        assert result.pvalue > 0.001

    def test_degenerate_noise_limit(self):
        spec = NoiseSpec(1e-300)
        tx = np.array([1.5, 0.5])
        assert awgn_real(tx, _stream(spec=spec)) == pytest.approx(tx, abs=1e-140)
