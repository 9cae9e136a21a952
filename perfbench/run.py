"""Benchmark entry point: runs one workload, checks its output, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository; it imports the package
from ``src/`` of that checkout and exits with code 2 when there is none.

Every repetition is a fresh interpreter (``worker.py``), started one at a
time, so neither the rate cache nor numpy warm-up carries over.  With
``--trace 0`` the workload repeats for about S seconds and the last output
line holds the end-to-end metrics, medians over repetitions; workload time
is given in units of the reference kernel in ``calibrate.py``.  With
``--trace 1`` plain and traced repetitions alternate, followed by one
microbenchmark process; the last line holds the per-layer metrics, and
``trace.overhead_frac`` compares the traced walls with the plain ones.
Metric names and units come from BENCHMARK.json.

The references are computed before any repetition starts.  Every distinct
CSV is checked against them; a repetition whose CSV digest differs from the
first one's breaks the determinism contract and all its rows count as
failed.  The line before the last one holds the provenance record, which is
also written to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PLAIN_REPS = 3
REP_TIMEOUT_S = 120  # a hung repetition still leaves the run under 180 s
MICRO_RESERVE_S = 4.0
# One process at a time, and no BLAS thread pools: the run uses at most the
# two threads the two-worker microbenchmarks ask for.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def _now() -> float:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) * 1e-9


class Run:
    """The repetitions of one benchmark invocation and their checked outputs."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.inputs = self.workload.inputs(seed)
        self.out_dir = out_dir
        start = _now()
        self.reference = self.workload.reference(self.inputs)
        self.reference_s = _now() - start
        self.reps: list[dict] = []
        self.checked: dict[str, object] = {}  # CSV digest -> Checked
        self.first_digest: str | None = None

    def spawn(self, mode: str) -> dict:
        index = len(self.reps)
        csv = self.out_dir / f"rep{index}.csv"
        result = self.out_dir / f"rep{index}.json"
        for path in (csv, result):
            path.unlink(missing_ok=True)
        env = dict(os.environ, **CHILD_ENV)
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload.name,
                "--seed", str(self.seed), "--mode", mode, "--spawn-ns", str(spawn_ns),
                "--csv", str(csv), "--result", str(result)]
        rep = {"mode": mode}
        started = _now()
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
            if proc.returncode != 0 or not result.is_file():
                rep["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        except subprocess.TimeoutExpired:
            rep["error"] = f"timed out after {REP_TIMEOUT_S} s"
        rep["elapsed_s"] = _now() - started
        if "error" not in rep:
            rep.update(json.loads(result.read_text()))
        if mode == "micro":
            csv.unlink(missing_ok=True)
        else:
            self._check(rep, csv)
        result.unlink(missing_ok=True)
        self.reps.append(rep)
        return rep

    def _check(self, rep: dict, csv: Path) -> None:
        text = csv.read_text() if csv.is_file() and "error" not in rep else ""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self.checked:
            self.checked[digest] = self.workload.check(text, self.inputs, self.reference)
        checked = self.checked[digest]
        rep["digest"] = digest
        rep["rows"] = max(0, text.count("\n") - 1)
        rep["attempted"] = checked.attempted
        rep["failed"] = checked.failed
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest or "error" in rep:
            rep["failed"] = rep["attempted"]
        if not self.reps:
            csv.replace(self.out_dir / "output.csv")
        else:
            csv.unlink(missing_ok=True)

    def totals(self) -> tuple[int, int]:
        """Rows attempted and failed over every checked repetition."""
        reps = [r for r in self.reps if r["mode"] != "micro"]
        return sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps)

    def plain(self) -> list[dict]:
        return [r for r in self.reps if r["mode"] == "plain" and "error" not in r]

    def traced(self) -> list[dict]:
        return [r for r in self.reps if r["mode"] == "traced" and "error" not in r]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def wall_ref(rep: dict) -> float:
    """The repetition's workload time in units of the reference kernel,
    timed in the same process just before and just after the workload."""
    return rep["wall_s"] / statistics.fmean(rep["calib_s"])


def end_to_end(run: Run) -> dict:
    """setup_s, wall_ref and peak_rss_mb are medians over repetitions.  On a
    shared host the same repetition runs up to 1.8x slower when other
    tenants are busy, in phases of seconds to minutes, and the reference
    kernel slows with it; dividing by it removes most of that drift from
    wall_ref.  The raw times are in the provenance record."""
    plain = run.plain()
    attempted, failed = run.totals()
    return {
        "setup_s": _median(r["setup_s"] for r in plain),
        "wall_ref": _median(wall_ref(r) for r in plain),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        "pass_frac": 1.0 - failed / attempted if attempted else 0.0,
        "digits_p5": min(c.digits_p5() for c in run.checked.values()),
    }


def per_layer(run: Run) -> dict:
    traced = run.traced()
    metrics = {}
    names = sorted({name for r in traced for name in r["layers"]})
    for name in names:
        entries = [r["layers"][name] for r in traced if name in r["layers"]]
        calls = _median(e["calls"] for e in entries)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = _median(e["self_s"] for e in entries)
        if "distinct" in entries[0]:
            metrics[f"{name}.unique_frac"] = _median(
                e["distinct"] / e["calls"] if e["calls"] else 0.0 for e in entries)
    integrate = [r["layers"]["quadrature.integrate"] for r in traced
                 if "quadrature.integrate" in r["layers"]]
    if integrate:
        metrics["quadrature.evals_per_integral"] = _median(
            e["evals"] / e["calls"] if e["calls"] else 0.0 for e in integrate)
    if "cli.main.self_s" in metrics:
        metrics["cli.self_s"] = metrics["cli.main.self_s"]
    metrics["cli.rows"] = _median(r["rows"] for r in traced)
    plain_wall = _median(r["wall_s"] for r in run.plain())
    traced_wall = _median(r["wall_s"] for r in traced)
    if plain_wall and traced_wall:
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    for rep in run.reps:
        if rep["mode"] == "micro" and "micro" in rep:
            metrics.update(rep["micro"])
    return metrics


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(run: Run, args, metrics: dict) -> dict:
    reps = [r for r in run.reps if r["mode"] != "micro"]
    plain = run.plain()
    first = next((r for r in run.reps if "python" in r), {})
    wall = min((r["wall_s"] for r in plain), default=None)
    attempted, failed = run.totals()
    return {
        "workload": run.workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": sys.argv, "program_argv": list(run.inputs.argv),
        "python": first.get("python"), "numpy": first.get("numpy"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "platform": platform.platform(),
        "trace_overhead_frac": metrics.get("trace.overhead_frac"),
        "reference_s": run.reference_s,
        "reps": {mode: sum(r["mode"] == mode for r in run.reps)
                 for mode in ("plain", "traced", "micro")},
        "errors": [r["error"] for r in run.reps if "error" in r],
        "digests": sorted({r["digest"] for r in reps}),
        "rows_attempted": attempted, "rows_failed": failed,
        "fail_frac": failed / attempted if attempted else None,
        "digits_min": min(c.digits_min for c in run.checked.values()),
        "worst_cell": min(run.checked.values(), key=lambda c: c.digits_min).worst,
        "wall_s": wall,
        "rows_per_s": max((r["rows"] / r["wall_s"] for r in plain), default=None),
        "symbols_per_s": run.inputs.symbols / wall if wall and run.inputs.symbols else None,
        "plain_wall_s": [r["wall_s"] for r in plain],
        "plain_setup_s": [r["setup_s"] for r in plain],
        "plain_calib_s": [r["calib_s"] for r in plain],
        "metrics": metrics,
    }


def _warm_up() -> None:
    """Compile the package's bytecode and load numpy's shared libraries once,
    so the first measured set-up is not an outlier."""
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    subprocess.run([sys.executable, "-c", "import numpy"], env=dict(os.environ, **CHILD_ENV),
                   check=True, timeout=REP_TIMEOUT_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "layered_bpsk" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no layered_bpsk source tree or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    _warm_up()
    run = Run(args.workload, args.seed, out_dir)
    start = _now()

    def elapsed() -> float:
        return _now() - start

    if args.trace:
        budget = args.seconds - MICRO_RESERVE_S
        while True:
            pair = [run.spawn("plain"), run.spawn("traced")]
            cost = sum(r["elapsed_s"] for r in pair)
            if elapsed() + cost > budget:
                break
        run.spawn("micro")
    else:
        while True:
            run.spawn("plain")
            plain = run.plain()
            cost = _median(r["elapsed_s"] for r in plain) or 0.0
            if len(run.reps) >= MIN_PLAIN_REPS and (elapsed() + cost > args.seconds
                                                    or not plain):
                break

    computed = per_layer(run) if args.trace else end_to_end(run)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in listed if computed.get(m["name"]) is not None}
    attempted, failed = run.totals()
    record = provenance(run, args, computed)
    (HERE / "out" / f"{out_dir.name}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": record}))
    print(json.dumps({"correct": failed == 0 and not record["errors"],
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
