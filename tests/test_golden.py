"""Byte-for-byte pins of the CLI's CSV output.

Each case runs one command in-process and compares the SHA-256 of the file it
writes with a recorded digest.  A refactor must leave every digest as it is.
A change that alters output bytes on purpose updates the digest here and says
so in CHANGES.md.
"""

import hashlib

import pytest

from layered_bpsk.cli import main

BER_GRID = ("ber", "--min-db", "0", "--max-db", "3", "--step-db", "1",
            "--symbols", "20000")

GOLDEN = {
    "rate-sweep": (
        ("rate-sweep",),
        "922f1341e82b7a30b542449bf7504352daf78b47107a572530fb3db901ca7db8"),
    "capacity-gap": (
        ("capacity-gap",),
        "fa0f38a8a4f1062a8b48f99d1831989d8d29cb3d68f7078e8d78c321e09d7a5f"),
    "appendix": (
        ("appendix",),
        "cdfbadfd8fec99056eac71d5e22d8232b265b0f354102a6f823f671b05891c04"),
    "ber-decision-feedback": (
        BER_GRID,
        "ae493711a32525b0f98b484a2acba1337b8ed275ac7cc643b775834ea84034bc"),
    "ber-genie-aided": (
        BER_GRID + ("--mode", "genie-aided"),
        "36b357c68ea18275adb21079bef52dd27899afa92e0817448e5d2c189c02cba4"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_digest(case, tmp_path):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Library simulator pin: every error count and every entropy estimate of these
# calls, hashed.  Three chunks of 2**17 symbols each (the last one partial),
# so the 3-worker runs really run chunks in parallel.
SIM_SYMBOLS = 270_000
SIM_AMPLITUDE = 1.25
SIM_POINTS = ((2.0, 2.0, 1.0), (4.0, 1.0, 0.5))  # (ratio, power, sigma2)
SIM_DIGEST = "833f27ac543394bb6c17f089f471cad8722df855b5a0762cb6fed4c7dda7dc17"


def _sim_lines():
    from layered_bpsk.core import NoiseSpec, weights_from_ratio
    from layered_bpsk.montecarlo import (DECISION_FEEDBACK, GENIE_AIDED, SimConfig,
                                         empirical_entropy, simulate_1d, simulate_2d)

    def floats(*values):
        return " ".join(float.hex(v) for v in values)

    def counts(report):
        return " ".join(f"{z},{x}" for z, x in report.errors)

    for ratio, power, sigma2 in SIM_POINTS:
        w = weights_from_ratio(ratio, power)
        wp = weights_from_ratio(ratio + 1.0, power)
        for mode in (DECISION_FEEDBACK, GENIE_AIDED):
            for workers in (1, 3):
                cfg = SimConfig(n_symbols=SIM_SYMBOLS, w=w, spec=NoiseSpec(sigma2),
                                seed=20260418, mode=mode, wp=wp, workers=workers)
                yield f"1d {counts(simulate_1d(cfg))}"
                yield f"2d {counts(simulate_2d(cfg))}"
                for amplitude in (None, SIM_AMPLITUDE):
                    est = empirical_entropy(cfg, amplitude)
                    yield f"entropy {amplitude} {floats(est.bits, est.std_error)}"


def test_library_simulator_digest():
    text = "\n".join(_sim_lines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SIM_DIGEST
