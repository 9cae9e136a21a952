"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \\
        --spawn-ns T --csv PATH --result PATH

MODE is ``plain`` (timings only), ``traced`` (timings plus spans) or
``micro`` (the per-layer microbenchmarks).  ``--spawn-ns`` is the parent's
CLOCK_MONOTONIC reading just before it started this process, so set-up time
covers interpreter start, ``import layered_bpsk`` and the parser build.
Plain and traced repetitions time the reference kernel of ``calibrate.py``
just before and just after the workload.  The result is written as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _median_ns(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def _micro(lb, inp, seed: int, csv_path: str) -> dict:
    """Per-call costs of single layers, on cold (never repeated) rate keys."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = {}
    out["cli.parse_ms"] = _median_ns(
        lambda: lb.cli.build_parser().parse_args(list(inp.argv)), 200) * 1e-6

    rho = 10.0 ** rng.uniform(-2.0, 2.0, size=400)
    calls = iter(rho[:200])
    out["rates.bpsk_rate_us"] = _median_ns(
        lambda: lb.bpsk_rate((2.0 * next(calls)) ** 0.5, 1.0), 200) * 1e-3
    pairs = iter([lb.weights_from_ratio(r, 2.0 * p) for r, p in
                  zip(rng.uniform(1.5, 8.0, size=100), rho[200:300])])
    out["rates.exact_mi_1d_us"] = _median_ns(lambda: lb.exact_mi_1d(next(pairs), 1.0), 100) * 1e-3

    # One cold rate-sweep row through the CLI, parse and write included.
    point_ms = []
    for snr_db, ratio in zip(rng.uniform(-20.0, 20.0, size=200), rng.choice([2.0, 4.0, 8.0], 200)):
        argv = ["rate-sweep", "--min-db", repr(float(snr_db)), "--max-db", repr(float(snr_db) + 0.25),
                "--ratio", repr(float(ratio)), "--out", csv_path]
        start = time.perf_counter_ns()
        lb.cli.main(argv)
        point_ms.append((time.perf_counter_ns() - start) * 1e-6)
    quartiles = statistics.quantiles(point_ms, n=20)
    out["rates.grid_point_ms_p50"] = statistics.median(point_ms)
    out["rates.grid_point_ms_p95"] = quartiles[18]

    n = 1 << 20
    spec = lb.NoiseSpec(1.0)
    zeros = np.zeros(n)
    stream = lb.NoiseStream(seed % 2**64, 0, spec)
    out["channel.awgn_real_ns_per_sym"] = _median_ns(lambda: lb.awgn_real(zeros, stream), 5) / n

    w = lb.weights_from_ratio(2.0, 2.0)

    def config(workers: int, **kwargs):
        return lb.SimConfig(n_symbols=n, w=w, spec=spec, seed=seed % 2**64, workers=workers,
                            **kwargs)

    sim = {workers: _median_ns(lambda: lb.simulate_1d(config(workers)), 3) for workers in (1, 2)}
    out["montecarlo.ns_per_sym"] = sim[1] / n
    out["montecarlo.speedup_2w"] = sim[1] / sim[2]
    # The 2-D path and the entropy estimator, genie-aided at two workers.
    genie = config(2, mode=lb.GENIE_AIDED, wp=w)
    out["montecarlo.simulate_2d_ns_per_sym"] = _median_ns(lambda: lb.simulate_2d(genie), 3) / n
    out["montecarlo.empirical_entropy_ns_per_sym"] = _median_ns(
        lambda: lb.empirical_entropy(genie), 3) / n
    out["montecarlo.entropy_fixed_ns_per_sym"] = _median_ns(
        lambda: lb.empirical_entropy(genie, 2.0), 3) / n
    out.update(_low_snr(lb, seed, csv_path))
    return out


def _low_snr(lb, seed: int, csv_path: str) -> dict:
    """Precision of the appendix below the timed range (-100 to -40 dB),
    where the package's rates are known to lose digits.  Not timed and not
    part of the run's pass/fail: the timed workloads must pass."""
    from workloads import WORKLOADS, low_snr_inputs

    inp = low_snr_inputs(seed)
    lb.cli.main(list(inp.argv) + ["--out", csv_path])
    appendix = WORKLOADS["appendix_wide"]
    checked = appendix.check(Path(csv_path).read_text(), inp, appendix.reference(inp))
    return {"rates.low_snr_digits_min": checked.digits_min,
            "rates.low_snr_failed_rows": checked.failed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "micro"), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import layered_bpsk as lb
    import layered_bpsk.cli
    lb.cli.build_parser()
    ready = _now()
    if not Path(lb.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"layered_bpsk imported from {lb.__file__}, not from this checkout")

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inp = workload.inputs(args.seed)
    result = {"setup_s": (ready - args.spawn_ns) * 1e-9,
              "python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__}
    if args.mode == "micro":
        result["micro"] = _micro(lb, inp, args.seed, args.csv)
    else:
        tracer = None
        if args.mode == "traced":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        from calibrate import calibrate
        before = calibrate()
        start = _now()
        status = lb.cli.main(list(inp.argv) + ["--out", args.csv])
        result["wall_s"] = (_now() - start) * 1e-9
        result["calib_s"] = [before, calibrate()]
        if status != 0:
            raise SystemExit(f"layered-bpsk {' '.join(inp.argv)} exited with {status}")
        if tracer is not None:
            result["layers"] = tracer.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
