"""The benchmark's workloads: CLI arguments drawn from a seed, the
references, and the checks of the CLI's CSV output.

``capacity-gap`` is left out on purpose: it evaluates the same per-point
rates as ``rate-sweep``, so it would measure no layer the sweep does not.

Each check returns ``Checked``: rows attempted and failed, and the correct
digits of the analytic cells (rates on the sweeps, the Q-function
predictions on ``ber``).  A rate or prediction cell passes at
``ROW_DIGITS`` correct digits; a simulated cell passes within
``oracles.sigma_bound`` standard errors of its oracle.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field

import oracles

ROW_DIGITS = 6.0  # relative error 1e-6
SIGMA2 = 1.0
RATE_SWEEP_RATIOS = (2.0, 4.0, 8.0)
BER_SYMBOLS = 1_000_000


@dataclass(frozen=True)
class Inputs:
    """Everything a run of one workload is given, derived from the seed."""

    seed: int
    argv: tuple[str, ...]  # arguments of the layered-bpsk CLI
    grid_db: tuple[float, ...]
    symbols: int = 0  # simulated symbols per run of the workload


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    digits_min: float = oracles.DIGITS_CAP  # fewest correct digits of any cell
    worst: str = ""
    row_digits: list = field(default_factory=list)  # per row with analytic cells
    _row_min: float | None = None

    def cell(self, name: str, value: float, reference: float) -> bool:
        """Record one analytic cell; True when it has ROW_DIGITS digits."""
        d = oracles.digits(value, reference)
        if d < self.digits_min:
            self.digits_min, self.worst = d, f"{name}={value!r} ref={reference!r}"
        self._row_min = d if self._row_min is None else min(self._row_min, d)
        return d >= ROW_DIGITS

    def row(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        if self._row_min is not None:
            self.row_digits.append(self._row_min)
        self._row_min = None

    def digits_p5(self) -> float:
        """5th percentile over rows of the row's fewest correct digits: on
        240 or 320 rows, the lowest percentile with ten rows beyond it.  The
        single worst cell moves by a digit when the grid shifts; this does
        not."""
        if len(self.row_digits) < 2:
            return self.row_digits[0] if self.row_digits else 0.0
        return statistics.quantiles(self.row_digits, n=20)[0]


def grid(min_db: float, max_db: float, step_db: float) -> tuple[float, ...]:
    """The half-open CLI grid [min_db, max_db) at step_db, in the CLI's own
    arithmetic (min + k * step) so row k has the same SNR bits."""
    count = max(0, math.ceil((max_db - min_db) / step_db - 1e-9))
    return tuple(min_db + k * step_db for k in range(count))


def _grid_offset(seed: int, step_db: float) -> float:
    # A multiple of step/64 keeps every grid value an exact binary fraction.
    return random.Random(seed).randrange(64) / 64.0 * step_db


def _sweep_inputs(command: str, seed: int, lo: float, hi: float) -> Inputs:
    off = _grid_offset(seed, 0.5)
    argv = (command, "--min-db", repr(lo + off), "--max-db", repr(hi + off))
    return Inputs(seed, argv, grid(lo + off, hi + off, 0.5))


def _parse(text: str):
    lines = text.split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _rows(text: str, expected: int):
    """Yield (k, row or None) for every expected row; extra rows count as
    attempted and failed."""
    _, rows = _parse(text)
    for k in range(max(expected, len(rows))):
        yield k, (rows[k] if k < len(rows) and k < expected else None)


def _within(value: float, mean: float, std_error: float, z: float) -> bool:
    return math.isfinite(value) and abs(value - mean) <= z * std_error


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


# -- rate_sweep -------------------------------------------------------------

_SWEEP_CELLS = (("r_z_bits_per_hz", "r_z"), ("r_x_bits_per_hz", "r_x"),
                ("r_1_bits_per_hz", "r_1"), ("r_2_bits_per_hz", "r_2"),
                ("bpsk_rate_bits_per_hz", "bpsk"), ("qpsk_rate_bits_per_hz", "qpsk"),
                ("capacity_bits_per_hz", "capacity"), ("exact_mi_bits_per_hz", "exact_mi"))


def rate_sweep_inputs(seed: int) -> Inputs:
    return _sweep_inputs("rate-sweep", seed, -20.0, 20.0)


def rate_sweep_reference(inp: Inputs) -> list:
    return [(ratio, oracles.layered_rates(ratio, 10.0 ** (db / 10.0), SIGMA2))
            for ratio in RATE_SWEEP_RATIOS for db in inp.grid_db]


def rate_sweep_check(text: str, inp: Inputs, ref: list) -> Checked:
    out = Checked()
    for k, row in _rows(text, len(ref)):
        try:
            ratio, want = ref[k]
            ok = float(row["ratio"]) == ratio
            for column, key in _SWEEP_CELLS:
                ok &= out.cell(f"row {k} {column}", float(row[column]), want[key])
            ebn0 = 10.0 ** (float(row["ebn0_db"]) / 10.0)
            ok &= oracles.digits(ebn0, want["ebn0"]) >= ROW_DIGITS
        except (IndexError, KeyError, TypeError, ValueError):
            ok = False
        out.row(ok)
    return out


# -- appendix_wide ----------------------------------------------------------

# The timed range stops 15 dB above the package's low-SNR precision defect:
# at the seed every rate below about -55 dB is off by more than 1e-6, and
# the digits fall by one per 10 dB.  A timed workload must pass its checks,
# so the defect's range is measured by ``low_snr_inputs`` in the traced
# run's microbenchmark process instead, and reported without a gate.
APPENDIX_MIN_DB, APPENDIX_MAX_DB = -40.0, 60.0
LOW_SNR_MIN_DB = -100.0


def appendix_inputs(seed: int) -> Inputs:
    return _sweep_inputs("appendix", seed, APPENDIX_MIN_DB, APPENDIX_MAX_DB)


def low_snr_inputs(seed: int) -> Inputs:
    """The appendix below the timed range, down to -100 dB."""
    return _sweep_inputs("appendix", seed, LOW_SNR_MIN_DB, APPENDIX_MIN_DB)


def appendix_reference(inp: Inputs) -> dict:
    rho = [10.0 ** (db / 10.0) for db in inp.grid_db]
    curves = {
        "capacity": [oracles.capacity(r) for r in rho],
        "qpsk": [float(v) for v in 2.0 * oracles.bpsk_rate(rho)],
        "bpsk": [float(v) for v in oracles.bpsk_rate([2.0 * r for r in rho])],
    }
    return {"rho": rho, **curves}


_APPENDIX_CELLS = (("capacity_bits_per_hz", "capacity_slope_bits_per_snr", "capacity"),
                   ("qpsk_rate_bits_per_hz", "qpsk_slope_bits_per_snr", "qpsk"),
                   ("bpsk_rate_bits_per_hz", "bpsk_slope_bits_per_snr", "bpsk"))


def _slope_ok(value: float, curve: list, rho: list, k: int) -> bool:
    """Central-difference slope check; the tolerance is what a ROW_DIGITS
    relative error in each neighbouring rate could move the slope by."""
    lo, hi = max(k - 1, 0), min(k + 1, len(rho) - 1)
    if lo == hi:
        return math.isnan(value)
    width = rho[hi] - rho[lo]
    want = (curve[hi] - curve[lo]) / width
    rel = 10.0 ** -ROW_DIGITS
    return abs(value - want) <= rel * abs(want) + rel * (abs(curve[hi]) + abs(curve[lo])) / width


def appendix_check(text: str, inp: Inputs, ref: dict) -> Checked:
    out = Checked()
    rho = ref["rho"]
    for k, row in _rows(text, len(rho)):
        try:
            ok = oracles.digits(float(row["snr_linear"]), rho[k]) >= 11.0
            for rate_col, slope_col, key in _APPENDIX_CELLS:
                ok &= out.cell(f"{inp.grid_db[k]!r} dB {rate_col}", float(row[rate_col]),
                               ref[key][k])
                ok &= _slope_ok(float(row[slope_col]), ref[key], rho, k)
        except (IndexError, KeyError, TypeError, ValueError):
            ok = False
        out.row(ok)
    return out


# -- ber --------------------------------------------------------------------

def ber_inputs(seed: int) -> Inputs:
    sim_seed = seed % 2**64
    points = grid(-5.0, 10.0, 0.5)
    return Inputs(sim_seed, ("ber", "--seed", str(sim_seed), "--workers", "1"), points,
                  BER_SYMBOLS * len(points))


def ber_reference(inp: Inputs) -> list:
    ref = []
    for db in inp.grid_db:
        alpha, beta = oracles.weights(2.0, 10.0 ** (db / 10.0), SIGMA2)
        genie_z, genie_x = oracles.ber_genie(alpha, beta, SIGMA2)
        ref.append((genie_z, genie_x, oracles.ber_x_decision_feedback(alpha, beta, SIGMA2)))
    return ref


def ber_check(text: str, inp: Inputs, ref: list) -> Checked:
    out = Checked()
    z = oracles.sigma_bound(2 * len(ref))
    n = BER_SYMBOLS
    for k, row in _rows(text, len(ref)):
        try:
            genie_z, genie_x, df_x = ref[k]
            ber_z, ber_x = float(row["ber_z"]), float(row["ber_x"])
            ok = (oracles.digits(float(row["snr_db"]), inp.grid_db[k]) >= 11.0
                  and row["mode"] == "decision-feedback" and row["seed"] == str(inp.seed))
            ok &= _within(ber_z, genie_z, _binomial_se(genie_z, n), z)
            ok &= _within(ber_x, df_x, _binomial_se(df_x, n), z)
            ok &= out.cell(f"{inp.grid_db[k]!r} dB ber_z_pred", float(row["ber_z_pred"]), genie_z)
            # The x prediction may be the genie or the decision-feedback value.
            pred_x = float(row["ber_x_pred"])
            ok &= out.cell(f"{inp.grid_db[k]!r} dB ber_x_pred", pred_x,
                           min((genie_x, df_x), key=lambda r: abs(pred_x - r)))
            ci = 3.0 * max(_binomial_se(ber_z, n), _binomial_se(ber_x, n))
            ok &= oracles.digits(float(row["ci_radius"]), ci) >= ROW_DIGITS
        except (IndexError, KeyError, TypeError, ValueError):
            ok = False
        out.row(ok)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    reference: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("rate_sweep", rate_sweep_inputs, rate_sweep_reference, rate_sweep_check),
    Workload("appendix_wide", appendix_inputs, appendix_reference, appendix_check),
    Workload("ber", ber_inputs, ber_reference, ber_check),
)}
