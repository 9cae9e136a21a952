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
        "1a9a37ed6802e63e4559384ff8572a1f2c751d442da7dd76cc6b837dc131819f"),
    "capacity-gap": (
        ("capacity-gap",),
        "8cb97ecde92f2d6637cf4a894631a6ccf60da9024d9e5b9c9c0d4c19d58d4e38"),
    "appendix": (
        ("appendix",),
        "fddf5afa57d77d42032ed91511e56f5b2218b9a3c65adf1a4b64aba2c125a4a0"),
    "ber-decision-feedback": (
        BER_GRID,
        "2f9576e36ff19872a007d0116531a7683233d1d2ce6a288b8926b356fb8ea73b"),
    "ber-genie-aided": (
        BER_GRID + ("--mode", "genie-aided"),
        "dcdf9a1766f880901b1d8d0c7d9532f4e8c654a2e8eef1e5eef63684f880b7f8"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_digest(case, tmp_path):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
