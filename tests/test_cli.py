import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layered_bpsk
from layered_bpsk.cli import _NUMERIC_FLAGS, MAX_GRID_POINTS, _grid_db, main
from layered_bpsk.montecarlo import MAX_SYMBOLS, MAX_WORKERS
from layered_bpsk.rates import LOG2_E


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _assert_finite_rows(capsys, argv, n_rows):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    header, rows = _rows(out)
    assert len(rows) == n_rows
    assert all(math.isfinite(float(cell)) for row in rows
               for name, cell in zip(header, row) if name != "mode")


class TestRateSweep:
    def test_header_and_shape(self, capsys):
        code, out, err = _run(capsys, "rate-sweep", "--min-db", "-4", "--max-db", "-2",
                              "--step-db", "1", "--ratio", "2", "--ratio", "4")
        assert code == 0 and err == ""
        header, rows = _rows(out)
        assert header == ["ebn0_db", "ratio", "r_z_bits_per_hz", "r_x_bits_per_hz",
                          "r_1_bits_per_hz", "r_2_bits_per_hz", "bpsk_rate_bits_per_hz",
                          "qpsk_rate_bits_per_hz", "capacity_bits_per_hz",
                          "exact_mi_bits_per_hz"]
        assert len(rows) == 4  # 2 ratios x 2 grid points, ratio-major
        assert [row[1] for row in rows] == ["2", "2", "4", "4"]

    def test_repeated_ratio_prints_both_blocks(self, capsys):
        grid = ("--min-db", "-4", "--max-db", "-1", "--step-db", "1")
        _, once, _ = _run(capsys, "rate-sweep", *grid, "--ratio", "2")
        code, twice, _ = _run(capsys, "rate-sweep", *grid, "--ratio", "2", "--ratio", "2")
        assert code == 0
        block = once.split("\n", 1)[1]
        assert twice == once + block and block.count("\n") == 3

    def test_empty_grid_gives_header_only(self, capsys):
        code, out, _ = _run(capsys, "rate-sweep", "--min-db", "5", "--max-db", "5",
                            "--step-db", "1")
        assert code == 0
        assert out.count("\n") == 1
        assert out.endswith("\n")

    def test_layered_rate_beats_bpsk_at_low_snr(self, capsys):
        code, out, _ = _run(capsys, "rate-sweep", "--axis", "snr_db", "--min-db", "-20",
                            "--max-db", "-10", "--step-db", "2", "--ratio", "2",
                            "--ratio", "4")
        assert code == 0
        _, rows = _rows(out)
        for row in rows:
            assert float(row[4]) > float(row[6])  # r_1 > bpsk_rate

    def test_snr_axis_echoes_grid(self, capsys):
        _, out, _ = _run(capsys, "rate-sweep", "--axis", "snr_db", "--min-db", "0",
                         "--max-db", "2", "--step-db", "1", "--ratio", "2")
        _, rows = _rows(out)
        assert [row[0] for row in rows] == ["0", "1"]

    def test_rate_columns_internally_consistent(self, capsys):
        _, out, _ = _run(capsys, "rate-sweep", "--axis", "snr_db", "--min-db", "-10",
                         "--max-db", "0", "--step-db", "5", "--ratio", "4")
        _, rows = _rows(out)
        for row in rows:
            r_z, r_x, r_1, r_2 = (float(v) for v in row[2:6])
            assert r_1 == pytest.approx(r_z + r_x, abs=1e-10)
            assert r_2 == pytest.approx(2.0 * r_1, abs=1e-10)
            assert all(float(v) >= 0.0 for v in row[2:])

    def test_high_snr_saturation(self, capsys):
        # alpha/sigma >= 20 at ratio 2 corresponds to ~26.3 dB received SNR.
        _, out, _ = _run(capsys, "rate-sweep", "--axis", "snr_db", "--min-db", "28",
                         "--max-db", "29", "--step-db", "1", "--ratio", "2")
        _, rows = _rows(out)
        assert float(rows[0][4]) == pytest.approx(2.0, abs=1e-2)
        assert float(rows[0][5]) == pytest.approx(4.0, abs=2e-2)

    @pytest.mark.parametrize("snr_db", [320, 340, 2999])
    def test_rates_saturate_up_to_the_top_of_the_range(self, capsys, snr_db):
        grid = ("--min-db", str(snr_db), "--max-db", str(snr_db + 1), "--step-db", "1")
        code, out, err = _run(capsys, "rate-sweep", "--axis", "snr_db", *grid, "--ratio", "2")
        assert code == 0 and err == ""
        _, rows = _rows(out)
        assert rows[0][2:8] == ["1", "1", "2", "4", "1", "2"]
        assert float(rows[0][8]) == pytest.approx(snr_db * math.log2(10.0) / 10.0, rel=1e-11)
        assert rows[0][9] == "2"
        code, out, err = _run(capsys, "appendix", *grid)
        assert code == 0 and err == ""
        assert _rows(out)[1][0][2:4] == ["2", "1"]

    def test_ratio_labels_parse_back_to_their_values(self, capsys):
        # To 12 digits the second ratio reads 1, outside the accepted range
        # and the label of every ratio that close to 1.
        ratios = ("1e150", "1.0000000000001")
        code, out, _ = _run(capsys, "rate-sweep", "--min-db", "2999", "--max-db", "3000",
                            *(part for r in ratios for part in ("--ratio", r)))
        assert code == 0
        _, rows = _rows(out)
        labels = [rows[0][1], rows[-1][1]]
        assert [float(label) for label in labels] == [float(r) for r in ratios]
        assert labels[0] != labels[1]

    def test_determinism(self, capsys):
        argv = ("rate-sweep", "--min-db", "-6", "--max-db", "-4", "--step-db", "0.5")
        _, first, _ = _run(capsys, *argv)
        _, second, _ = _run(capsys, *argv)
        assert first == second

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = _run(capsys, "rate-sweep", "--min-db", "0", "--max-db", "1",
                            "--step-db", "1", "--ratio", "2", "--out", str(out_path))
        assert code == 0 and out == ""
        content = out_path.read_bytes()
        assert content.endswith(b"\n") and b"\r" not in content


class TestCapacityGap:
    def test_low_snr_gap_positive_for_ratio_four(self, capsys):
        code, out, _ = _run(capsys, "capacity-gap", "--axis", "snr_db", "--min-db",
                            "-20", "--max-db", "-14", "--step-db", "2", "--ratio", "4")
        assert code == 0
        _, rows = _rows(out)
        for row in rows:
            assert float(row[2]) > 0.0
            assert float(row[3]) > 0.0

    def test_high_snr_gap_negative(self, capsys):
        _, out, _ = _run(capsys, "capacity-gap", "--axis", "snr_db", "--min-db", "15",
                         "--max-db", "16", "--step-db", "1", "--ratio", "4")
        _, rows = _rows(out)
        assert float(rows[0][2]) < 0.0
        assert float(rows[0][3]) < 0.0

    def test_gaps_vanish_with_snr(self, capsys):
        _, out, _ = _run(capsys, "capacity-gap", "--axis", "snr_db", "--min-db", "-80",
                         "--max-db", "-79", "--step-db", "1", "--ratio", "4")
        _, rows = _rows(out)
        assert abs(float(rows[0][2])) < 1e-6
        assert abs(float(rows[0][3])) < 1e-6


class TestAppendix:
    def test_columns_and_slopes(self, capsys):
        code, out, _ = _run(capsys, "appendix", "--min-db", "-31", "--max-db", "-29",
                            "--step-db", "0.5")
        assert code == 0
        header, rows = _rows(out)
        assert header[0] == "snr_linear"
        # Around rho = 1e-3 every slope column sits within 1% of log2(e).
        for row in rows:
            for column in (4, 5, 6):
                assert abs(float(row[column]) - LOG2_E) / LOG2_E < 0.01

    def test_capacity_column_exact(self, capsys):
        _, out, _ = _run(capsys, "appendix", "--min-db", "-10", "--max-db", "-8",
                         "--step-db", "1")
        _, rows = _rows(out)
        for row in rows:
            rho = float(row[0])
            assert float(row[1]) == pytest.approx(math.log2(1.0 + rho), rel=1e-10)

    def test_rates_vanish_at_low_snr(self, capsys):
        _, out, _ = _run(capsys, "appendix", "--min-db", "-40", "--max-db", "-38",
                         "--step-db", "1")
        _, rows = _rows(out)
        for row in rows:
            for column in (1, 2, 3):
                assert 0.0 < float(row[column]) < 1e-3


class TestBer:
    ARGS = ("ber", "--min-db", "-2", "--max-db", "0", "--step-db", "1",
            "--symbols", "50000", "--mode", "genie-aided", "--seed", "99")

    def test_predictions_within_reported_ci(self, capsys):
        code, out, _ = _run(capsys, *self.ARGS)
        assert code == 0
        header, rows = _rows(out)
        assert header == ["snr_db", "mode", "ber_z", "ber_x", "ber_z_pred",
                          "ber_x_pred", "ci_radius", "seed"]
        for row in rows:
            assert row[1] == "genie-aided"
            assert row[7] == "99"
            ci = float(row[6])
            assert abs(float(row[2]) - float(row[4])) <= ci
            assert abs(float(row[3]) - float(row[5])) <= ci

    def test_decision_feedback_prediction_within_reported_ci(self, capsys):
        # At 0 dB the genie value, 0.2399, lies far outside this radius.
        code, out, _ = _run(capsys, "ber", "--min-db", "0", "--max-db", "1",
                            "--symbols", "200000")
        assert code == 0
        _, rows = _rows(out)
        assert rows[0][1] == "decision-feedback"
        for row in rows:
            ci = float(row[6])
            assert abs(float(row[2]) - float(row[4])) <= ci
            assert abs(float(row[3]) - float(row[5])) <= ci

    def test_seed_determinism(self, capsys):
        _, first, _ = _run(capsys, *self.ARGS)
        _, second, _ = _run(capsys, *self.ARGS)
        assert first == second

    def test_worker_count_does_not_change_bytes(self, capsys):
        _, first, _ = _run(capsys, *self.ARGS, "--workers", "1")
        _, second, _ = _run(capsys, *self.ARGS, "--workers", "4")
        assert first == second

    def test_worker_count_does_not_change_bytes_across_chunks(self, capsys):
        # Two full 2**17-symbol chunks and a partial one, so three workers
        # really split the run.
        argv = ("ber", "--min-db", "0", "--max-db", "2", "--step-db", "1",
                "--symbols", str(2 * 131072 + 7777))
        _, first, _ = _run(capsys, *argv, "--workers", "1")
        _, second, _ = _run(capsys, *argv, "--workers", "3")
        assert first == second

    def test_small_symbol_count_is_usage_error(self, capsys):
        code, out, err = _run(capsys, "ber", "--symbols", "100")
        assert code == 1 and out == ""
        assert err.startswith("layered-bpsk: error:") and err.count("\n") == 1
        assert "symbols" in err


def test_module_entry_point_matches_in_process_output(capsys):
    argv = ["rate-sweep", "--min-db", "0", "--max-db", "1", "--step-db", "1",
            "--ratio", "2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    # The child finds the package where this process imported it from, also
    # when it is not installed.
    env = dict(os.environ, PYTHONPATH=str(Path(layered_bpsk.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "layered_bpsk.cli", *argv],
                            capture_output=True, text=True, check=True, env=env)
    assert result.stdout == expected


@pytest.mark.parametrize("joined", [
    ("appendix", "--min-db=-1e1", "--max-db", "0"),
    ("rate-sweep", "--min-db=-2E0", "--max-db=-1.5e0", "--ratio", "2"),
    ("capacity-gap", "--min-db=-1e0", "--max-db=-.5e0", "--step-db", "5e-1"),
    ("ber", "--min-db=-1e0", "--max-db=-5e-1", "--symbols", "10000"),
])
def test_negative_value_in_exponent_notation_reads_as_a_number(capsys, joined):
    # argparse itself accepts only the --flag=value form of these values.
    spaced = [part for token in joined for part in token.split("=", 1)]
    code, expected, _ = _run(capsys, *joined)
    assert code == 0 and expected.count("\n") > 1
    code, out, err = _run(capsys, *spaced)
    assert code == 0 and err == ""
    assert out == expected


@pytest.mark.parametrize("argv, flag", [
    (("rate-sweep", "--ratio", "-2e0"), "--ratio"),
    (("ber", "--seed", "-1e0"), "--seed"),
    (("ber", "--symbols", "-1e4"), "--symbols"),
    (("ber", "--workers", "-2e0"), "--workers"),
])
def test_every_numeric_flag_reads_a_negative_exponent_value(capsys, argv, flag):
    # Each value reaches its flag and is rejected there; a flag missing from
    # cli._NUMERIC_FLAGS would instead see no value at all.
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("layered-bpsk: error:") and err.count("\n") == 1
    assert flag in err and "expected one argument" not in err


GRID_COMMANDS = ["rate-sweep", "capacity-gap", "appendix", "ber"]


class TestFailureModes:
    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_zero_step_rejected(self, capsys, command):
        code, out, err = _run(capsys, command, "--step-db", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("layered-bpsk: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_min_above_max_rejected(self, capsys, command):
        code, _, err = _run(capsys, command, "--min-db", "5", "--max-db", "0")
        assert code == 1 and "min-db" in err

    def test_bad_ratio_rejected(self, capsys):
        code, _, err = _run(capsys, "rate-sweep", "--ratio", "1.0",
                            "--min-db", "0", "--max-db", "1", "--step-db", "1")
        assert code == 1 and "ratio" in err

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_bad_sigma2_rejected(self, capsys, command):
        # No command takes a noise variance, so none lists or accepts --sigma2.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--sigma2" not in capsys.readouterr().out
        code, out, err = _run(capsys, command, "--sigma2", "2",
                              "--min-db", "0", "--max-db", "1", "--step-db", "1")
        assert code == 1 and out == ""
        assert err.startswith("layered-bpsk: error:") and err.count("\n") == 1

    def test_unwritable_output_path(self, capsys):
        code, _, err = _run(capsys, "rate-sweep", "--min-db", "0", "--max-db", "1",
                            "--step-db", "1", "--ratio", "2",
                            "--out", "/nonexistent-dir/sweep.csv")
        assert code == 1
        assert err.startswith("layered-bpsk: error:")

    @pytest.mark.parametrize("argv, flag", [
        (("rate-sweep", "--ratio", "1e300", "--min-db", "0", "--max-db", "1"), "--ratio"),
        (("ber", "--ratio", "1e300", "--min-db", "0", "--max-db", "1",
          "--symbols", "10000"), "--ratio"),
        (("rate-sweep", "--min-db", "4000", "--max-db", "4001"), "--max-db"),
        (("appendix", "--min-db", "-4001", "--max-db", "-4000"), "--min-db"),
        (("appendix", "--min-db", "-4e3", "--max-db", "0"), "--min-db"),
        # No command takes a noise variance, in either form.
        (("rate-sweep", "--sigma2=-1e0"), "--sigma2"),
        (("capacity-gap", "--ratio", "-2E0"), "--ratio"),
        # An empty grid runs no simulation, so these fail before any work.
        (("ber", "--symbols", str(MAX_SYMBOLS + 1), "--min-db", "0", "--max-db", "0"),
         "symbols"),
        (("ber", "--workers", "0", "--min-db", "0", "--max-db", "0"), "workers"),
        (("ber", "--seed", str(2**64), "--min-db", "0", "--max-db", "0"), "seed"),
        (("ber", "--workers", str(MAX_WORKERS + 1), "--min-db", "0", "--max-db", "0"),
         "workers"),
        # Malformed command lines are reported the same way, not as usage.
        (("ber", "--symbols", "abc"), "--symbols"),
        (("ber", "--mode", "foo"), "--mode"),
        (("rate-sweep", "--bogus"), "--bogus"),
        ((), "command"),
    ])
    def test_out_of_range_input_is_one_line_error(self, capsys, argv, flag):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("layered-bpsk: error:") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("argv", [
        *(("rate-sweep", "--ratio", r) for r in ("1e150", "1.0000000000001")),
        *(("capacity-gap", "--ratio", r) for r in ("1e150", "1.0000000000001")),
        *(("ber", "--symbols", "10000", "--ratio", r) for r in ("1e150", "1.0000000000001")),
        ("appendix",),
    ])
    def test_top_of_the_grid_prints_finite_rows(self, capsys, argv):
        # At unit noise variance the signal power 2 * rho is 2e300 at +3000 dB.
        _assert_finite_rows(capsys, (*argv, "--min-db", "2999", "--max-db", "3000"), 2)

    @pytest.mark.parametrize("argv, n_rows", [
        *(((command, *flags, "--min-db", "-3000", "--max-db", "-2998", "--ratio", "1e150"), 4)
          for command, *flags in (("rate-sweep",), ("capacity-gap",),
                                  ("ber", "--symbols", "10000"))),
        (("ber", "--symbols", "10000", "--min-db", "-2999.0078125", "--max-db", "-2999",
          "--ratio", "9.87654321e149"), 1),
        (("rate-sweep", "--min-db", "-2998.0078125", "--max-db", "-2997",
          "--ratio", "1.23456789e149"), 3),
    ])
    def test_bottom_of_the_grid_prints_finite_rows(self, capsys, argv, n_rows):
        # The signal power is 2e-300 at -3000 dB.  At ratio 1e150, beta**2 =
        # 2e-300 / (0.5e300 + 0.125) lies below the float range, but beta
        # itself does not.
        _assert_finite_rows(capsys, argv, n_rows)

    @pytest.mark.parametrize("max_db, message", [
        ("1e6", "--max-db"),  # 1e12 points, and beyond the dB bound as well
        ("1000", f"exceed {MAX_GRID_POINTS} points"),  # 1e9 points
    ])
    def test_oversized_grid_rejected_before_it_is_built(self, capsys, max_db, message):
        code, _, err = _run(capsys, "rate-sweep", "--min-db", "0", "--max-db", max_db,
                            "--step-db", "1e-6")
        assert code == 1
        assert err.startswith("layered-bpsk: error:") and message in err

    def test_grid_cap_is_inclusive(self):
        step = 2.0**-7  # exact in binary, so the point count is exact too

        def grid(points):
            args = argparse.Namespace(min_db=0.0, max_db=points * step, step_db=step)
            return _grid_db(args, (2.0,))

        assert len(grid(MAX_GRID_POINTS)) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="grid"):
            grid(MAX_GRID_POINTS + 1)


def test_numeric_flags_are_options_of_the_parser(capsys):
    listed = ""
    for command in ("rate-sweep", "capacity-gap", "appendix", "ber"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed += capsys.readouterr().out
    for flag in sorted(_NUMERIC_FLAGS):
        assert re.search(rf"(^|\s){re.escape(flag)}\s", listed), flag
