"""One-off cross-check of the benchmark's Gauss-Hermite references against
the brute-force trapezoid oracles in ``tests/oracles.py``, at moderate SNR
where the trapezoid rule is accurate.

    python3 perfbench/crosscheck.py

Prints each pair and exits non-zero when one differs by more than 1e-11.
The result is recorded in perfbench/README.md; the benchmark itself does
not run this, as the trapezoid sums take seconds.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402

TOLERANCE = 1e-11


def _trapezoid():
    path = HERE.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("trapezoid_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    trap = _trapezoid()
    worst = 0.0
    for amplitude in (0.5, 1.0, 3.0):
        gh = float(oracles.bpsk_rate(amplitude * amplitude))
        tr = trap.trapezoid_bpsk_rate(amplitude, 1.0)
        worst = max(worst, abs(gh - tr))
        print(f"bpsk A={amplitude}: hermegauss {gh!r} trapezoid {tr!r} diff {gh - tr:.2e}")
    for alpha, beta in ((2.0, 1.0), (1.2, 0.4), (4.0, 1.0)):
        gh = oracles.mixture_mi(oracles.layered_points(alpha, beta), 1.0)
        tr = trap.trapezoid_exact_mi(SimpleNamespace(alpha=alpha, beta=beta), 1.0)
        worst = max(worst, abs(gh - tr))
        print(f"exact MI alpha={alpha} beta={beta}: hermegauss {gh!r} trapezoid {tr!r} "
              f"diff {gh - tr:.2e}")
    print(f"largest difference {worst:.2e} (tolerance {TOLERANCE:.0e})")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
