"""Byte-for-byte pins of the CLI's CSV output.

Each case runs one command in-process and compares the SHA-256 of the file it
writes with a recorded digest.  A refactor must leave every digest as it is.
A change that alters output bytes on purpose updates the digest here and says
so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layered_bpsk
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
        "5aaaf57334bff43b1b90989a57f9816797ccb91015c8576e34c6aa54c93eafef"),
    "ber-genie-aided": (
        BER_GRID + ("--mode", "genie-aided"),
        "ce8333ecaa461240bb8d53d2274188be3ef538ce524711ef6297f3ca5f334191"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_digest(case, tmp_path):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# numpy picks its SIMD kernels from the host CPU when it is imported, and
# NPY_DISABLE_CPU_FEATURES lowers that choice for one process.  Each level
# below re-runs the digests above, and the library simulator pin below, in a
# child process at the x86-64 dispatch level a CI runner without those
# features would get.
DISPATCH_LEVELS = {
    "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
    "X86_V2": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
}

_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from layered_bpsk.cli import main
names, argvs = json.loads(sys.argv[1])
print(json.dumps([name for name in names if __cpu_features__.get(name)]))
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "out.csv"
    for argv in argvs:
        if main([*argv, "--out", str(out)]) != 0:
            sys.exit(1)
        print(hashlib.sha256(out.read_bytes()).hexdigest())
from test_golden import _sim_digest
print(_sim_digest())
"""


@pytest.mark.parametrize("level", sorted(DISPATCH_LEVELS))
def test_cli_output_digests_at_lower_dispatch_level(level):
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__

    names = DISPATCH_LEVELS[level].split()
    if any(name in __cpu_baseline__ for name in names):
        pytest.skip(f"this numpy's baseline is above {level}")
    if not any(__cpu_features__.get(name) for name in names):
        pytest.skip(f"this host runs at {level} or below already")
    src = str(Path(layered_bpsk.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": DISPATCH_LEVELS[level],
           "PYTHONPATH": os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
    cases = sorted(GOLDEN)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([names, [GOLDEN[c][0] for c in cases]])],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    still_on, *digests, sim_digest = child.stdout.splitlines()
    assert json.loads(still_on) == []
    assert digests == [GOLDEN[c][1] for c in cases]
    assert sim_digest == SIM_DIGEST


# Library simulator pin: every error count of these calls exactly, and every
# entropy estimate at the CLI's 12 significant digits, hashed.  numpy's SIMD
# exp and log round differently at each dispatch level, so an estimate's
# last bits move between levels while its 12 digits and the counts do not.
# Three chunks of 2**17 symbols each (the last one partial), so the 3-worker
# runs really run chunks in parallel.
SIM_SYMBOLS = 270_000
SIM_AMPLITUDE = 1.25
SIM_POINTS = ((2.0, 2.0, 1.0), (4.0, 1.0, 0.5))  # (ratio, power, sigma2)
SIM_DIGEST = "6ebcd54e3df21c3b084fbbf899fa7c13dfd1ea0bf2f9f1f8ea32582fd0a8c12b"


def _sim_lines():
    from layered_bpsk.core import NoiseSpec, weights_from_ratio
    from layered_bpsk.montecarlo import (DECISION_FEEDBACK, GENIE_AIDED, SimConfig,
                                         empirical_entropy, simulate_1d, simulate_2d)

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
                    yield f"entropy {amplitude} {est.bits:.12g} {est.std_error:.12g}"


def _sim_digest():
    text = "\n".join(_sim_lines()) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_library_simulator_digest():
    assert _sim_digest() == SIM_DIGEST
