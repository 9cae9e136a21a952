import dataclasses
import math
import statistics
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special

from layered_bpsk import montecarlo
from layered_bpsk.channel import NoiseStream
from layered_bpsk.core import MAX_RATIO, NoiseSpec, WeightPair, weights_from_ratio
from layered_bpsk.modem import amplitude_table
from layered_bpsk.montecarlo import (
    DECISION_FEEDBACK,
    GENIE_AIDED,
    MAX_SYMBOLS,
    MAX_WORKERS,
    SimConfig,
    _CHUNK,
    _draw,
    _threshold,
    ber_predictions_1d,
    empirical_entropy,
    qfunc,
    simulate_1d,
    simulate_2d,
    sweep_1d,
)
from layered_bpsk.rates import (
    bpsk_rate,
    gaussian_entropy,
    rate_z,
    received_entropy_layered,
    signal_power,
)

from oracles import binary_entropy, per_symbol_errors, trapezoid_ber_x_decision_feedback

W21 = WeightPair(2.0, 1.0)
SPEC1 = NoiseSpec(1.0)
SEED = 20177
OPERATING_POINTS = [(W21, 1.0), (WeightPair(3.0, 1.0), 0.25), (WeightPair(4.0, 1.0), 4.0)]


def _cfg(**overrides):
    base = dict(n_symbols=1_000_000, w=W21, spec=SPEC1, seed=SEED,
                mode=GENIE_AIDED)
    base.update(overrides)
    return SimConfig(**base)


class TestQfunc:
    def test_reference_points(self):
        assert qfunc(0.0) == 0.5
        assert qfunc(1.0) == pytest.approx(0.158655, abs=1e-6)
        assert qfunc(8.0) < 1e-14

    def test_matches_erfc_reference(self):
        for t in np.linspace(0.0, 8.0, 33):
            reference = 0.5 * special.erfc(t / math.sqrt(2.0))
            assert qfunc(float(t)) == pytest.approx(reference, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            qfunc(math.inf)


class TestConfigValidation:
    def test_minimum_symbols(self):
        with pytest.raises(ValueError, match="n_symbols"):
            _cfg(n_symbols=9_999)

    def test_symbol_cap_is_inclusive(self):
        assert _cfg(n_symbols=MAX_SYMBOLS).n_symbols == MAX_SYMBOLS
        with pytest.raises(ValueError, match="n_symbols"):
            _cfg(n_symbols=MAX_SYMBOLS + 1)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _cfg(mode="oracle")

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            _cfg(workers=0)

    def test_worker_cap_is_inclusive(self):
        # Only builds configurations: no simulation runs, so no thread starts.
        assert _cfg(workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(ValueError, match="workers"):
            _cfg(workers=MAX_WORKERS + 1)

    def test_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            _cfg(seed=-1)

    def test_2d_requires_wp(self):
        with pytest.raises(ValueError, match="wp"):
            simulate_2d(_cfg(n_symbols=10_000))


class TestDraw:
    @pytest.mark.parametrize("axes", [1, 2])
    def test_order_matches_reference_generator(self, axes):
        # Each axis's ceil(n / 32) raw PCG64 words as little-endian bytes,
        # bit by bit from the most significant: x0, z0, x1, z1 and so on, the
        # bits past symbol n dropped, of which each axis keeps its class
        # sizes.  Then each axis's noise: the stream every golden ber digest
        # depends on.  No n is a multiple of 32, and n mod 4 takes every value.
        sigma2 = 0.25
        for n in (31, 1000, 10001, 10002):
            sizes, noise = _draw(NoiseStream(5, 3, NoiseSpec(sigma2)), n, axes)
            reference = np.random.default_rng((5, 3))
            assert len(sizes) == len(noise) == axes
            for axis_sizes in sizes:
                words = reference.bit_generator.random_raw(-(-n // 32)).astype("<u8")
                bits = np.unpackbits(words.view(np.uint8))[:2 * n]
                index = 2 * bits[0::2] + bits[1::2]
                assert axis_sizes.tolist() == np.bincount(index, minlength=4).tolist()
            for axis_noise in noise:
                assert np.array_equal(axis_noise,
                                      reference.normal(0.0, math.sqrt(sigma2), size=n))

    def test_byte_counts_match_a_per_byte_decode(self):
        assert montecarlo._BYTE_COUNTS.shape == (256, 4)
        for byte, counts in enumerate(montecarlo._BYTE_COUNTS.tolist()):
            fields = np.unpackbits(np.array([byte], np.uint8)).reshape(4, 2)
            assert sum(counts) == 4
            assert counts == np.bincount(2 * fields[:, 0] + fields[:, 1], minlength=4).tolist()


def _reaches_level_first(a, c, tau):
    # Received samples are fl(a + n): tau reaches level c, the float below it does not.
    return a + tau >= c > a + math.nextafter(tau, -math.inf)


class TestThreshold:
    @given(ratio=st.floats(1.0, MAX_RATIO, exclude_min=True),
           sigma2=st.floats(1e-12, 1e12), snr_db=st.floats(-20.0, 40.0))
    @example(ratio=1e20, sigma2=1.0, snr_db=0.0)  # beta below ulp(alpha)
    @example(ratio=1.0 + 2.0**-40, sigma2=1.0, snr_db=0.0)  # alpha - beta far below beta
    def test_is_the_least_noise_reaching_each_level(self, ratio, sigma2, snr_db):
        w = weights_from_ratio(ratio, signal_power(10.0 ** (snr_db / 10.0), sigma2))
        for a in amplitude_table(w).tolist():
            for c in (-w.beta, 0.0, w.beta):
                assert _reaches_level_first(a, c, _threshold(a, c))

    def test_beta_below_ulp_of_alpha_empties_a_region(self):
        # No float lands in [-beta, 0) from +-alpha, so two thresholds coincide.
        w = weights_from_ratio(1e20, 2.0)
        assert w.beta < math.ulp(w.alpha)
        for a in (w.alpha, -w.alpha):
            assert _threshold(a, -w.beta) == _threshold(a, 0.0) == -a

    @pytest.mark.parametrize("a, c, tau", [(-1.7e308, 1e308, math.inf),
                                           (1.7e308, -1e308, -sys.float_info.max)])
    def test_float_range_ends(self, a, c, tau):
        assert _threshold(a, c) == tau
        assert _reaches_level_first(a, c, tau)


class TestSimulate1D:
    def test_noiseless_round_trip_both_modes(self):
        for mode in (DECISION_FEEDBACK, GENIE_AIDED):
            report = simulate_1d(_cfg(n_symbols=10_000, spec=NoiseSpec(1e-12),
                                      mode=mode))
            assert report.errors == ((0, 0),)

    def test_genie_ber_matches_q_function_oracle(self):
        report = simulate_1d(_cfg())
        pred_z, pred_x = ber_predictions_1d(W21, SPEC1, GENIE_AIDED)
        n = report.n_symbols
        assert pred_z == pytest.approx(0.16564, abs=1e-5)
        assert pred_x == pytest.approx(0.23360, abs=1e-5)
        ber_z, ber_x = report.ber(0)
        assert abs(ber_z - pred_z) <= 3.0 * math.sqrt(pred_z * (1 - pred_z) / n)
        assert abs(ber_x - pred_x) <= 3.0 * math.sqrt(pred_x * (1 - pred_x) / n)

    @pytest.mark.parametrize("w, sigma2", OPERATING_POINTS)
    def test_decision_feedback_prediction_matches_region_integral(self, w, sigma2):
        _, pred_x = ber_predictions_1d(w, NoiseSpec(sigma2), DECISION_FEEDBACK)
        _, genie_x = ber_predictions_1d(w, NoiseSpec(sigma2), GENIE_AIDED)
        assert pred_x == pytest.approx(trapezoid_ber_x_decision_feedback(w, sigma2),
                                       rel=1e-9)
        assert pred_x > genie_x

    @pytest.mark.parametrize("w, sigma2", OPERATING_POINTS)
    def test_decision_feedback_ber_matches_prediction(self, w, sigma2):
        # Two checks per operating point; Bonferroni keeps a correct
        # simulator's chance of failing any of them below 1e-3.
        z = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 2 * len(OPERATING_POINTS)))
        n = 400_000
        report = simulate_1d(_cfg(n_symbols=n, w=w, spec=NoiseSpec(sigma2),
                                  mode=DECISION_FEEDBACK))
        pred_z, pred_x = ber_predictions_1d(w, NoiseSpec(sigma2), DECISION_FEEDBACK)
        ber_z, ber_x = report.ber(0)
        assert abs(ber_z - pred_z) <= z * math.sqrt(pred_z * (1 - pred_z) / n)
        assert abs(ber_x - pred_x) <= z * math.sqrt(pred_x * (1 - pred_x) / n)

    @pytest.mark.parametrize("w, sigma2", OPERATING_POINTS)
    def test_decision_feedback_never_beats_genie(self, w, sigma2):
        spec = NoiseSpec(sigma2)
        genie = simulate_1d(_cfg(n_symbols=200_000, w=w, spec=spec, mode=GENIE_AIDED))
        feedback = simulate_1d(_cfg(n_symbols=200_000, w=w, spec=spec,
                                    mode=DECISION_FEEDBACK))
        assert feedback.ber(0)[1] >= genie.ber(0)[1]
        assert feedback.ber(0)[0] == genie.ber(0)[0]  # first stage identical

    def test_reproducible(self):
        assert simulate_1d(_cfg()) == simulate_1d(_cfg())

    def test_worker_count_does_not_change_report(self):
        assert simulate_1d(_cfg(workers=1)) == simulate_1d(_cfg(workers=3))

    def test_one_worker_runs_every_chunk_in_the_calling_thread(self, monkeypatch):
        threads = []

        def draw(stream, size, axes):
            threads.append(threading.get_ident())
            return _draw(stream, size, axes)

        monkeypatch.setattr(montecarlo, "_draw", draw)
        simulate_1d(_cfg(n_symbols=2 * _CHUNK + 7_777, workers=1))
        assert threads == [threading.get_ident()] * 3

    def test_confidence_radius_formula(self):
        report = simulate_1d(_cfg(n_symbols=100_000))
        n = report.n_symbols
        ber_z, ber_x = report.ber(0)
        assert report.ci(0) == (3.0 * math.sqrt(ber_z * (1 - ber_z) / n),
                                3.0 * math.sqrt(ber_x * (1 - ber_x) / n))

    def test_hard_decisions_cannot_beat_soft_rate(self):
        for w, sigma2 in ((W21, 1.0), (WeightPair(4.0, 1.0), 0.5)):
            report = simulate_1d(_cfg(n_symbols=200_000, w=w, spec=NoiseSpec(sigma2)))
            hard_rate = 1.0 - binary_entropy(report.ber(0)[0])
            assert hard_rate <= rate_z(w, sigma2) + 0.02


class TestSweep1D:
    # Three chunks, the last one partial, so three workers run in parallel.
    N = 2 * _CHUNK + 7_777
    GRID = [WeightPair(2.0, 1.0), WeightPair(3.0, 0.5), WeightPair(1.5, 1.2),
            WeightPair(2.0, 1.0)]

    @pytest.mark.parametrize("mode", [DECISION_FEEDBACK, GENIE_AIDED])
    @pytest.mark.parametrize("reverse", [True, False])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_one_simulation_per_point(self, mode, reverse, workers):
        # A point's report does not depend on its place in the grid.
        cfg = _cfg(n_symbols=self.N, mode=mode, workers=workers)
        grid = self.GRID[::-1] if reverse else self.GRID
        assert sweep_1d(cfg, grid) == [simulate_1d(dataclasses.replace(cfg, w=w))
                                       for w in grid]

    def test_empty_grid_gives_no_reports(self):
        assert sweep_1d(_cfg(n_symbols=self.N), []) == []


class TestCountsMatchPerSymbolOracle:
    # Three chunks, the last one partial, so three workers run in parallel.
    N = 2 * _CHUNK + 7_777
    GRIDS = {
        "noiseless": (1e-12, [WeightPair(2.0, 1.0), WeightPair(1.5, 1.2), WeightPair(4.0, 0.1)]),
        "loud": (1e6, [weights_from_ratio(ratio, signal_power(10.0 ** (db / 10.0), 1e6))
                       for ratio in (2.0, 5.0) for db in (-10.0, 5.0, 20.0)]),
        "extreme_ratios": (1.0, [weights_from_ratio(MAX_RATIO, 2.0),
                                 weights_from_ratio(0.7 * MAX_RATIO, 30.0),
                                 weights_from_ratio(1.0 + 1e-9, 2.0)]),
    }

    @pytest.mark.parametrize("mode", [DECISION_FEEDBACK, GENIE_AIDED])
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_sweep_and_2d_count_every_error(self, grid, mode):
        sigma2, weights = self.GRIDS[grid]
        genie = mode == GENIE_AIDED
        w, wp = weights[0], weights[-1]
        expected_1d = [per_symbol_errors(SEED, self.N, _CHUNK, sigma2, [(v.alpha, v.beta)], genie)
                       for v in weights]
        expected_2d = per_symbol_errors(SEED, self.N, _CHUNK, sigma2,
                                        [(w.alpha, w.beta), (wp.alpha, wp.beta)], genie)
        for workers in (1, 3):
            cfg = _cfg(n_symbols=self.N, w=w, wp=wp, spec=NoiseSpec(sigma2), mode=mode,
                       workers=workers)
            assert [report.errors for report in sweep_1d(cfg, weights)] == expected_1d
            assert simulate_2d(cfg).errors == expected_2d


class TestSimulate2D:
    def test_noiseless_round_trip(self):
        report = simulate_2d(_cfg(n_symbols=10_000, spec=NoiseSpec(1e-12),
                                  wp=WeightPair(1.5, 0.6)))
        assert report.errors == ((0, 0), (0, 0))

    def test_axes_match_1d_statistics(self):
        n = 1_000_000
        report_2d = simulate_2d(_cfg(n_symbols=n, wp=W21))
        report_1d = simulate_1d(_cfg(n_symbols=n, seed=SEED + 1))
        for a, b in zip(report_2d.ber(0) + report_2d.ber(1), report_1d.ber(0) * 2):
            assert abs(a - b) <= 3.0 * math.sqrt(2.0 * b * (1 - b) / n)

    def test_swapping_axes_swaps_statistics(self):
        n = 1_000_000
        wp = WeightPair(4.0, 1.0)
        forward = simulate_2d(_cfg(n_symbols=n, wp=wp))
        swapped = simulate_2d(_cfg(n_symbols=n, w=wp, wp=W21))
        for a, b in zip(forward.ber(0) + forward.ber(1), swapped.ber(1) + swapped.ber(0)):
            assert abs(a - b) <= 3.0 * math.sqrt(2.0 * b * (1 - b) / n)

    def test_reproducible_across_workers(self):
        assert simulate_2d(_cfg(n_symbols=500_000, wp=W21, workers=1)) \
            == simulate_2d(_cfg(n_symbols=500_000, wp=W21, workers=4))


class TestEmpiricalEntropy:
    def test_noise_only_matches_gaussian_entropy(self):
        est = empirical_entropy(_cfg(), amplitude=0.0)
        expected = gaussian_entropy(1.0)
        assert expected == pytest.approx(2.04710, abs=1e-5)
        assert abs(est.bits - expected) <= 3.0 * est.std_error

    def test_layered_matches_quadrature(self):
        est = empirical_entropy(_cfg())
        expected = received_entropy_layered(W21, 1.0)
        assert abs(est.bits - expected) <= 3.0 * est.std_error

    def test_antipodal_matches_bpsk_rate(self):
        # H(Y) = I(X; Y) + H(N) at a mid SNR, where neither end's limit holds.
        est = empirical_entropy(_cfg(), amplitude=1.0)
        expected = bpsk_rate(1.0, 1.0) + gaussian_entropy(1.0)
        assert abs(est.bits - expected) <= 3.0 * est.std_error

    def test_high_snr_antipodal_information_approaches_one_bit(self):
        spec = NoiseSpec(0.01)
        est = empirical_entropy(_cfg(n_symbols=100_000, spec=spec), amplitude=3.0)
        assert est.bits - gaussian_entropy(spec.sigma2) == pytest.approx(1.0, abs=0.01)

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            empirical_entropy(_cfg(n_symbols=10_000), amplitude=-1.0)


def test_noise_stream_partition_is_symbol_count_only():
    # The chunk layout must not depend on workers: same substreams, any pool.
    sequential = simulate_1d(_cfg(n_symbols=300_000, workers=1))
    threaded = simulate_1d(_cfg(n_symbols=300_000, workers=7))
    assert sequential == threaded


def test_streams_used_by_chunks_are_disjoint():
    # Chunk k draws from NoiseStream(seed, k); spot-check the first two differ.
    a = NoiseStream(SEED, 0, SPEC1).generator.normal(size=8)
    b = NoiseStream(SEED, 1, SPEC1).generator.normal(size=8)
    assert not np.array_equal(a, b)
