"""Steadiness self-check: runs the benchmark on several seeds and compares
the spread of every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--seconds S]

For each set, each workload runs ``--runs`` times with distinct seeds
(workloads interleaved, one run at a time).  For every metric it reports the
median and the quartile spread (q3 - q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``.  A spread passes below a third of the
bound (``setup_s`` is exempt); with two or more sets, each later set's
median must not be worse than the first set's by more than the bound.  The
exit code is 0 when everything passes.  The summary is written to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The run's result line and its elapsed seconds."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - start


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {}  # (set, workload, metric) -> list of values
    correct = {}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + 1000 * s + i
            for w in workloads:
                result, elapsed = run_once(w, seed, args.seconds)
                correct.setdefault(w, []).append(result["correct"])
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print(f"set {s} run {i} {w} seed {seed} ({elapsed:.1f} s): " + " ".join(
                    f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)

    ok = True
    summary = []
    for w in workloads:
        for name, m in metrics.items():
            first = None
            for s in range(args.sets):
                vals = values.get((s, w, name), [])
                if len(vals) < 2:
                    ok = False
                    summary.append({"workload": w, "metric": name, "set": s, "error": "missing"})
                    continue
                median, rel = spread(vals)
                spread_ok = name == "setup_s" or rel <= m["bound"] / 3.0
                if first is None:
                    first, drift = median, 0.0
                else:
                    worse = median - first if m["better"] == "lower" else first - median
                    drift = worse / abs(first) if first else 0.0
                drift_ok = drift <= m["bound"]
                ok &= spread_ok and drift_ok
                summary.append({"workload": w, "metric": name, "set": s, "median": median,
                                "spread": rel, "bound": m["bound"], "drift": drift,
                                "pass": spread_ok and drift_ok})
                print(f"{w:14s} {name:12s} set {s} median {median:<12.6g} spread {rel:7.4f} "
                      f"drift {drift:+7.4f} bound {m['bound']:.3f} "
                      f"{'ok' if spread_ok and drift_ok else 'FAIL'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"args": vars(args), "correct": correct, "summary": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
