"""Command-line front end producing deterministic CSV sweeps.

Sweep grids are half-open dB ranges ``[min, max)`` stepped by ``--step-db``;
``--min-db`` equal to ``--max-db`` yields a header-only file.  A point within
1e-9 of a step below ``--max-db`` counts as ``--max-db`` and is left out, so
``appendix --min-db 0 --max-db 1e-10`` prints only the header.  Grids always
parameterize the received SNR ``rho = power / N0``, which alone fixes every
row, at unit noise variance per real dimension; with ``--axis ebn0_db`` the
rows are the same operating points with their Eb/N0 reported as the leading
column (Eb/N0 flattens near its floor, so curves are generated
parametrically rather than by inverting it).

All numeric fields are printed with 12 significant digits, except a
``ratio`` label that 12 digits would give another value, which prints as its
shortest round-trip ``repr``.  Rows end with LF, and output is
byte-identical across repeated runs with the same flags and seed, for any
``--workers`` value.

Each subparser names its ``cmd_*`` function as ``run``, and ``main`` parses,
runs it and writes its rows; ``rate-sweep`` and ``capacity-gap`` share one
ratio-major row loop.  One grid check, ``_grid_db``, serves every command:
it checks the grid flags and the ratios before any grid point is evaluated.
Every ratio it accepts has valid layer weights at every grid point it
accepts.  Any bad input, a malformed command line included, ends with one
``layered-bpsk: error:`` line and exit code 1.
"""

from __future__ import annotations

import argparse
import math
import sys

from .core import MAX_RATIO, NoiseSpec, is_finite, weights_from_ratio
from .montecarlo import (
    DECISION_FEEDBACK,
    GENIE_AIDED,
    MAX_SYMBOLS,
    MAX_WORKERS,
    MIN_SYMBOLS,
    SimConfig,
    ber_predictions_1d,
    sweep_1d,
)
from .rates import operating_point_grid, shannon_capacity, signal_power

DEFAULT_SEED = 42424242
DEFAULT_RATIOS = (2.0, 4.0, 8.0)
# Largest dB grid one command accepts, checked before the grid is built.
MAX_GRID_POINTS = 100_000
# Grid bounds lie within +-MAX_ABS_DB, so every 10 ** (dB / 10) is a finite,
# normal float.
MAX_ABS_DB = 3000.0
# The noise of every command, unit variance per real dimension; the signal
# power 2 * rho then lies in [2e-300, 2e300] within +-MAX_ABS_DB.
_NOISE = NoiseSpec(1.0)

# Options that take a number.  argparse reads a value such as -1e3 as an
# option name, since only plain negative numbers like -5 or -0.5 are exempt,
# so main() joins each of these with a negative value as --flag=value first.
_NUMERIC_FLAGS = frozenset({"--min-db", "--max-db", "--step-db", "--ratio",
                            "--seed", "--symbols", "--workers"})

_RATE_SWEEP_HEADER = (
    "ratio", "r_z_bits_per_hz", "r_x_bits_per_hz", "r_1_bits_per_hz",
    "r_2_bits_per_hz", "bpsk_rate_bits_per_hz", "qpsk_rate_bits_per_hz",
    "capacity_bits_per_hz", "exact_mi_bits_per_hz",
)
_GAP_HEADER = ("ratio", "rate1_minus_capacity_bits_per_hz",
               "rate2_minus_capacity_bits_per_hz")
_APPENDIX_HEADER = (
    "snr_linear", "capacity_bits_per_hz", "qpsk_rate_bits_per_hz",
    "bpsk_rate_bits_per_hz", "capacity_slope_bits_per_snr",
    "qpsk_slope_bits_per_snr", "bpsk_slope_bits_per_snr",
)
_BER_HEADER = ("snr_db", "mode", "ber_z", "ber_x", "ber_z_pred", "ber_x_pred",
               "ci_radius", "seed")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _rho(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _grid_db(args, ratios: tuple[float, ...] = ()) -> list[float]:
    """The dB grid of one command, after checking every grid flag and each
    of ``ratios``.

    The grid is half-open, [min_db, max_db): equal bounds give an empty grid
    and therefore a header-only CSV, and a point within 1e-9 steps of max_db
    is left out.  It has at most MAX_GRID_POINTS points.
    Within +-MAX_ABS_DB the signal power lies in [2e-300, 2e300], where
    ``weights_from_ratio`` gives valid weights for every ratio in
    (1, MAX_RATIO].
    """
    lo, hi, step = args.min_db, args.max_db, args.step_db
    if not all(is_finite(v) for v in (lo, hi, step)):
        raise ValueError("grid bounds and step must be finite")
    if lo > hi:
        raise ValueError(f"--min-db must not exceed --max-db, got {lo} > {hi}")
    if lo < -MAX_ABS_DB or hi > MAX_ABS_DB:
        raise ValueError(f"--min-db and --max-db must lie within +-{MAX_ABS_DB:g} dB, "
                         f"got {lo} and {hi}")
    if step <= 0:
        raise ValueError(f"--step-db must be positive, got {step}")
    steps = (hi - lo) / step - 1e-9
    if steps > MAX_GRID_POINTS:
        raise ValueError(f"the dB grid would exceed {MAX_GRID_POINTS} points; "
                         f"raise --step-db or narrow --min-db/--max-db")
    for ratio in ratios:
        if not (is_finite(ratio) and 1.0 < ratio <= MAX_RATIO):
            raise ValueError(
                f"--ratio values must be finite and in (1, {MAX_RATIO:g}], got {ratio}")
    return [lo + k * step for k in range(max(0, math.ceil(steps)))]


def _ratio_rows(args, header: tuple[str, ...], cells, exact_mi: bool = True):
    """Rows of a layered sweep, ratio-major: the axis value, the ratio, then
    ``cells(point)`` of each operating point.  Every ratio's points come
    from one ``operating_point_grid`` call, in the same order."""
    ratios = tuple(args.ratio or DEFAULT_RATIOS)
    grid = _grid_db(args, ratios)
    points = operating_point_grid([_rho(db) for db in grid], ratios, exact_mi=exact_mi)
    rows = []
    for k, ratio in enumerate(ratios):
        # A label must parse back to its own ratio, which 12 digits may not.
        label = _fmt(ratio) if float(_fmt(ratio)) == ratio else repr(ratio)
        for snr_db, p in zip(grid, points[k * len(grid):(k + 1) * len(grid)]):
            lead = snr_db if args.axis == "snr_db" else p.ebn0_db
            rows.append([_fmt(lead), label] + [_fmt(v) for v in cells(p)])
    return (args.axis,) + header, rows


def cmd_rate_sweep(args) -> tuple[tuple[str, ...], list[list[str]]]:
    return _ratio_rows(args, _RATE_SWEEP_HEADER, lambda p: (
        p.r_z, p.r_x, p.r_1, p.r_2, p.r_bpsk, p.qpsk_rate, p.capacity, p.exact_mi))


def cmd_capacity_gap(args) -> tuple[tuple[str, ...], list[list[str]]]:
    # The 2-D scheme occupies both axes, so its own channel SNR is twice the
    # per-axis sweep SNR.  The gap columns print no exact MI, so it is not
    # evaluated.
    return _ratio_rows(args, _GAP_HEADER, lambda p: (
        p.r_1 - p.capacity, p.r_2 - shannon_capacity(2.0 * p.snr_linear)), exact_mi=False)


def _central_slopes(rho: list[float], values: list[float]) -> list[float]:
    n = len(rho)
    slopes = []
    for i in range(n):
        lo = max(i - 1, 0)
        hi = min(i + 1, n - 1)
        if hi == lo:
            slopes.append(math.nan)
        else:
            slopes.append((values[hi] - values[lo]) / (rho[hi] - rho[lo]))
    return slopes


def cmd_appendix(args) -> tuple[tuple[str, ...], list[list[str]]]:
    # appendix has no --ratio, so it builds no layered weights.
    points = operating_point_grid([_rho(db) for db in _grid_db(args)])
    rhos = [p.snr_linear for p in points]
    curves = [[p.capacity for p in points], [p.qpsk_rate for p in points],
              [p.r_bpsk for p in points]]
    columns = [rhos, *curves, *(_central_slopes(rhos, curve) for curve in curves)]
    return _APPENDIX_HEADER, [[_fmt(v) for v in row] for row in zip(*columns)]


def cmd_ber(args) -> tuple[tuple[str, ...], list[list[str]]]:
    ratio = args.ratio
    grid = _grid_db(args, (ratio,))
    # One config checks the simulation flags before any work, also for an
    # empty grid; the sweep runs every point on the same draws.
    base = SimConfig(n_symbols=args.symbols, w=weights_from_ratio(ratio, 1.0), spec=_NOISE,
                     seed=args.seed, mode=args.mode, workers=args.workers)
    weights = [weights_from_ratio(ratio, signal_power(_rho(snr_db), _NOISE.sigma2))
               for snr_db in grid]
    rows = []
    for snr_db, w, report in zip(grid, weights, sweep_1d(base, weights)):
        ber_z, ber_x = report.ber(0)
        pred_z, pred_x = ber_predictions_1d(w, _NOISE, args.mode)
        rows.append([_fmt(snr_db), args.mode, _fmt(ber_z), _fmt(ber_x),
                     _fmt(pred_z), _fmt(pred_x),
                     _fmt(max(report.ci(0))), str(args.seed)])
    return _BER_HEADER, rows


def _write_csv(out: str, header: tuple[str, ...], rows: list[list[str]]) -> None:
    text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _add_grid_flags(parser, min_db: float, max_db: float) -> None:
    parser.add_argument("--min-db", type=float, default=min_db,
                        help=f"grid start in dB, inclusive (default {min_db})")
    parser.add_argument("--max-db", type=float, default=max_db,
                        help=f"grid end in dB, exclusive (default {max_db})")
    parser.add_argument("--step-db", type=float, default=0.5,
                        help="grid step in dB (default 0.5)")
    parser.add_argument("--out", default="-",
                        help="output CSV path, or - for stdout (default -)")


def _add_rate_flags(parser) -> None:
    parser.add_argument("--axis", choices=("snr_db", "ebn0_db"), default="ebn0_db",
                        help="leading column: Eb/N0 (default) or the SNR grid value")
    parser.add_argument("--ratio", type=float, action="append", metavar="R",
                        help="alpha/beta ratio, repeatable (default 2 4 8)")


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as ValueError, which ``main`` reports
    in one line, instead of printing usage and exiting with code 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="layered-bpsk",
        description="Achievable-rate sweeps and link simulations for layered BPSK "
                    "over AWGN, written as deterministic CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate-sweep",
                          help="rates of the layered scheme vs conventional baselines")
    _add_grid_flags(rate, min_db=-20.0, max_db=20.0)
    _add_rate_flags(rate)
    rate.set_defaults(run=cmd_rate_sweep)

    gap = sub.add_parser("capacity-gap",
                         help="layered-scheme rate minus AWGN capacity")
    _add_grid_flags(gap, min_db=-20.0, max_db=20.0)
    _add_rate_flags(gap)
    gap.set_defaults(run=cmd_capacity_gap)

    appendix = sub.add_parser("appendix",
                              help="baseline rate curves and slopes vs linear SNR")
    _add_grid_flags(appendix, min_db=-40.0, max_db=0.0)
    appendix.set_defaults(run=cmd_appendix)

    ber = sub.add_parser("ber", help="Monte Carlo bit error rates with Q-function "
                                     "predictions")
    _add_grid_flags(ber, min_db=-5.0, max_db=10.0)
    ber.add_argument("--ratio", type=float, default=2.0,
                     help="alpha/beta ratio (default 2)")
    ber.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"RNG seed (default {DEFAULT_SEED})")
    ber.add_argument("--symbols", type=int, default=1_000_000,
                     help=f"symbols per grid point, {MIN_SYMBOLS} to {MAX_SYMBOLS} "
                          "(default 1000000)")
    ber.add_argument("--mode", choices=(DECISION_FEEDBACK, GENIE_AIDED),
                     default=DECISION_FEEDBACK,
                     help="second-stage feedback: demodulated or true bits")
    ber.add_argument("--workers", type=int, default=1,
                     help=f"parallel workers, 1 to {MAX_WORKERS}; output is identical "
                          "for any value")
    ber.set_defaults(run=cmd_ber)
    return parser


def _is_negative_number(token: str) -> bool:
    if not token.startswith("-"):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -1e3`` as ``--flag=-1e3`` for every numeric flag."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _NUMERIC_FLAGS and _is_negative_number(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_negative_values(argv))
        header, rows = args.run(args)
        _write_csv(args.out, header, rows)
    except (ValueError, OSError) as exc:
        print(f"layered-bpsk: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
