"""Command-line pipeline: solve fields, simulate experiments, fit results.

Subcommands: ``field``, ``ple``, ``decay``, ``g2``, ``stark``, ``fit``,
``resonance``, ``reproduce``. Each figure of ``reproduce`` is one
pipeline over the dataset kind ``FIGURES`` gives it: the kind's dataset
function returns the arrays its simulator drew as the columns of its
CSV, whose file name and ``{column: type}`` table ``FITS`` alone
declares, then the kind's fit step reads that CSV back as arrays, fits
them and writes ``fit_report.csv`` (``REPORT_COLUMNS``). ``fit --kind``
runs the same step on a CSV it is given, so its report is the figure's,
byte for byte. Each kind is also a subcommand, the no-fit form of its
first figure: ``ple``, ``decay``, ``g2`` and ``stark`` of ``fig2``,
``fig3b``, ``fig3c`` and ``fig4a``. fig2's and fig4's fit stages fit their
whole file in one Poisson likelihood of one line-sum model, a sum of
Lorentzians on one offset: fig4's lines follow each swept ion's line law.

``main`` writes ``config.toml`` and ``manifest.json`` once, before the
run, so partial outputs of a failed run still carry their provenance;
``field`` and ``resonance`` write them only under an explicit ``--out``
(or, for ``field --dump-grid``, into ``[run] output_dir``). Dataset paths
go to stdout, one per line (``field`` and ``resonance`` print their small
key=value reports first); diagnostics go to stderr.

Exit codes are the ``EXIT_*`` constants. A config that fails to load
exits 2 where it happens; every later failure, from writing the manifest
on, exits with the code and message of its row of ``FAILURES``, the one
table of failure class, exit code and message. Every refused input is a
``ConfigError``, so an exit code other than 2 means that a config that
loaded failed at run time.
"""

from __future__ import annotations

import argparse
import functools
import math
import shlex
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import (
    estimate_g2_zero,
    find_peaks,
    fit_exponential_decay,
    fit_lorentzians,
    fit_stark_sweep,
)
from .config import ConfigError, ExperimentConfig, RunSettings, default_config, load_config
from .csvio import read_table, write_table
from .electrostatics import field_at, solve_potential
from .experiment import (
    SimulationError,
    simulate_decay_histogram,
    simulate_g2_histogram,
    simulate_ple_scan,
    simulate_stark_scan,
)
from .manifest import write_run_manifest
from .optimize import FitError, FitResult
from .stark import NoResonanceError, VoltageOutOfRangeError, resonance_voltage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SIMULATION = 4
EXIT_FITTING = 5
EXIT_NO_RESONANCE = 6
EXIT_VOLTAGE_RANGE = 7


class FieldOverflowError(ArithmeticError):
    """The per-volt probe field, times ``field``'s voltage, is not finite."""


# Each run-time failure's (class, exit code, message format of exc and out_dir),
# read in order, so a class comes before its bases.
FAILURES = (
    (NoResonanceError, EXIT_NO_RESONANCE, "{exc}"),
    (VoltageOutOfRangeError, EXIT_VOLTAGE_RANGE, "{exc} (required voltage {exc.required_voltage_v:.17g} V)"),
    (FieldOverflowError, EXIT_SOLVER, "{exc}"),
    (ConfigError, EXIT_CONFIG, "{exc}"),
    (SimulationError, EXIT_SIMULATION, "simulation failed: {exc}"),
    (FitError, EXIT_FITTING, "fitting failed: {exc}"),
    (OSError, EXIT_CONFIG, "cannot write output directory {out_dir}: {exc}"),  # only writes under out_dir raise it
    (MemoryError, EXIT_CONFIG, "out of memory: {exc}"),
)

Row = tuple[str, float, float, str]  # one fit_report.csv row: quantity, value, stderr, units


def _finite_float(text: str) -> float:
    """argparse type for a finite number; anything else is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for a master seed, checked as ``[run] seed`` is; anything else is a usage error (exit 2)."""
    try:
        return RunSettings(seed=int(text)).seed
    except ValueError:  # not an integer, or outside [0, 2**64)
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}") from None


@functools.cache  # built once per process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starksim",
        description="Stark-tuning simulation and analysis pipeline",
    )
    parser.add_argument("--version", action="version", version=f"starksim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="TOML config (built-in defaults if omitted)")
        p.add_argument("--seed", type=_seed, default=None, help="override the master seed, in [0, 2**64)")
        p.add_argument("--out", type=Path, default=None, help="override the output directory")

    p = sub.add_parser("field", help="solve the electrode field at the probe point")
    add_common(p)
    p.add_argument("--voltage", type=_finite_float, default=None,
                   help="bias across the pair (default: config potentials)")
    p.add_argument("--dump-grid", action="store_true", help="also write the potential grid CSV")

    for kind, (name, *_) in FITS.items():  # each kind's command: its first figure, unfitted
        figure = next(figure for figure, figure_kind in FIGURES.items() if figure_kind == kind)
        p = sub.add_parser(kind, help=f"write {figure}'s {name}, unfitted")
        add_common(p)
        p.set_defaults(figure=figure, fit=False)
        if kind == "ple":
            p.add_argument("--voltage", type=_finite_float, default=0.0,
                           help="electrode bias during the scan of the whole ion registry")

    p = sub.add_parser("fit", help="fit a dataset produced by the simulators")
    add_common(p)
    p.add_argument("--kind", choices=FITS, required=True)
    p.add_argument("--input", type=Path, required=True)

    p = sub.add_parser("resonance", help="voltage bringing two ions into resonance")
    add_common(p)
    p.add_argument("--ion-a", required=True)
    p.add_argument("--ion-b", required=True)

    p = sub.add_parser("reproduce", help="run a full figure-reproduction pipeline")
    add_common(p)
    p.add_argument("figure", choices=FIGURES)
    p.set_defaults(fit=True, voltage=0.0)
    return parser


def _rows(fit: FitResult, quantities: Sequence[tuple[str, str]]) -> list[Row]:
    """fit_report.csv rows ``(name, value, stderr, units)`` of the named parameters."""
    return [(name, fit.value(name), fit.stderr(name), units) for name, units in quantities]


def _volts_to_field(config: ExperimentConfig) -> float:
    """The probe field per volt of bias along the inter-electrode axis, in
    V/cm per V, of the configured layout and solver: the one component of
    the field the ions' lines read."""
    layout = config.layout
    return field_at(solve_potential(layout, config.solver.spacing_um), layout.probe_point_um)[0]


def _ple(args, config: ExperimentConfig, seed: int) -> tuple[np.ndarray, ...]:
    """Scan of the whole registry at ``args.voltage``: ple_scan.csv's columns."""
    field = _volts_to_field(config) * args.voltage if args.voltage != 0.0 else 0.0  # 0 V needs no solve
    frequencies, counts = simulate_ple_scan(config.ions, config.emitter, config.protocol, config.detector, field, seed)
    return frequencies, counts, np.full(counts.size, config.protocol.integration_time_s)


def _fit_peaks(config: ExperimentConfig, frequencies_mhz, counts, integration_s) -> list[Row]:
    """fig2's fit stage: one fit of the scan as the sum of a Lorentzian at
    each peak found and one shared offset. The scan is sorted by frequency first,
    since peak finding, the starting guess and the pitch read neighbouring rows."""
    order = np.argsort(frequencies_mhz, kind="stable")
    peaks = find_peaks(counts[order], 5.0)
    if not peaks:
        return []
    fit = fit_lorentzians(frequencies_mhz[order], counts[order], peaks)
    return _rows(fit, [(name, "MHz") for name in fit.names if name.endswith(("_center_mhz", "_fwhm_mhz"))])


def _decay(args, config: ExperimentConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Decay histogram of the shared emitter: decay.csv's columns, a count per bin centre."""
    return simulate_decay_histogram(config.emitter, config.protocol, config.detector, config.decay, seed)


def _fit_lifetime(config: ExperimentConfig, times_us, counts) -> list[Row]:
    """fig3b's fit stage, the one reader of its bins: a lifetime fit above a pinned dark floor.

    The bins, sorted by time, from ``[decay] fit_start_us`` on are fitted;
    fewer than 4 are refused. The bin width is the median spacing of all
    the bins, which must be evenly spaced (a repeated or missing row is
    refused), and the floor per bin, the detector's dark mean over that
    width, is reported with zero error.
    """
    order = np.argsort(times_us, kind="stable")
    times_us, counts = times_us[order], counts[order]
    keep = times_us >= config.decay.fit_start_us
    if (kept := np.count_nonzero(keep)) < 4:
        raise FitError(f"need at least 4 bins from [decay] fit_start_us = {config.decay.fit_start_us:g} us, got {kept}")
    spacings = np.diff(times_us)
    bin_width_us = float(np.median(spacings))
    uneven = np.flatnonzero((spacings == 0.0) | (np.abs(spacings - bin_width_us) > 1e-9 * bin_width_us))
    if uneven.size:
        a, b = times_us[uneven[0]: uneven[0] + 2].tolist()
        raise FitError(f"bins must be evenly spaced: the bins at {a:.17g} and {b:.17g} us are {b - a:.6g} us apart, "
                       f"against a median spacing of {bin_width_us:.6g} us")
    dark_floor = config.detector.dark_mean(bin_width_us, config.decay.n_pulses)
    fit = fit_exponential_decay(times_us[keep], counts[keep], dark_floor)
    return [*_rows(fit, [("tau_us", "us"), ("amplitude", "counts")]), ("background", dark_floor, 0.0, "counts")]


def _g2(args, config: ExperimentConfig, seed: int) -> tuple[np.ndarray, ...]:
    """Autocorrelation histogram of the shared emitter: g2.csv's columns, a
    count per lag, each also over the mean of the side lags; a histogram
    without a side-lag coincidence has no such mean, a simulation failure."""
    lags, coincidences = simulate_g2_histogram(config.emitter, config.g2, config.protocol, seed)
    side_mean = coincidences[lags != 0].mean()  # [g2] max_lag >= 1: there are side lags
    if side_mean == 0.0:
        raise SimulationError(f"no coincidences at the {lags.size - 1} side lags, so g2 cannot be normalized")
    return lags, coincidences, coincidences / side_mean


def _fit_g2(config: ExperimentConfig, lags, coincidences, normalized) -> list[Row]:
    """fig3c's fit stage."""
    estimate = estimate_g2_zero(lags, coincidences)
    return [("g2_zero", estimate.g2_zero, estimate.standard_error, "dimensionless")]


def _stark(args, config: ExperimentConfig, seed: int) -> tuple[np.ndarray, ...]:
    """Voltage sweeps, drawn as one on ``seed``: stark_scan.csv's columns, an entry per scan point. Each window
    holds the line of every swept ion: fig4b sweeps every ion of the registry, fig4a the [stark] ion alone."""
    if args.figure == "fig4b":
        ions = config.ions
    elif config.stark.ion_id or config.ions:
        ions = [config.ion(config.stark.ion_id or config.ions[0].ion_id)]
    else:
        raise ConfigError("[stark].ion_id '' names the first ion, but the ion registry is empty")
    return simulate_stark_scan(ions, config.emitter, config.stark, _volts_to_field(config), config.protocol,
                               config.detector, seed)


def _fit_stark(config: ExperimentConfig, ion_ids, voltages_v, fields_v_per_cm, frequencies_mhz, counts) -> list[Row]:
    """fig4's fit stage: one fit of every ion's line law, reported ion by ion in file order with the fit's chi2."""
    fit = fit_stark_sweep(ion_ids, fields_v_per_cm, frequencies_mhz, counts)
    report: list[Row] = []
    for ion_id in dict.fromkeys(ion_ids.tolist()):
        report += _rows(fit, [(f"stark_coefficient_{ion_id}", "kHz/(V/cm)"), (f"zero_field_frequency_{ion_id}", "MHz"),
                              (f"zero_field_fwhm_{ion_id}", "MHz"), (f"broadening_{ion_id}", "MHz/(kV/cm)")])
        report.append((f"line_reduced_chi_square_{ion_id}", fit.reduced_chi_square, 0.0, "dimensionless"))
    return report


# The one statement of each dataset: kind -> (its file name, the file's
# {column: type}, the dataset function that draws its columns, and its fit
# stage, which takes them in order). Each kind is also the subcommand that
# writes its first figure's dataset unfitted.
FITS = {
    "ple": ("ple_scan.csv", {"frequency_offset_mhz": float, "counts": int, "integration_s": float}, _ple, _fit_peaks),
    "decay": ("decay.csv", {"time_us": float, "counts": int}, _decay, _fit_lifetime),
    "g2": ("g2.csv", {"lag_pulses": int, "coincidences": int, "normalized": float}, _g2, _fit_g2),
    "stark": (
        "stark_scan.csv",
        {"ion_id": str, "voltage_v": float, "field_v_per_cm": float, "frequency_mhz": float, "counts": int},
        _stark,
        _fit_stark,
    ),
}
FIGURES = {"fig2": "ple", "fig3b": "decay", "fig3c": "g2", "fig4a": "stark", "fig4b": "stark"}  # figure -> its kind
REPORT_COLUMNS = {"quantity": str, "value": float, "stderr": float, "units": str}  # fit_report.csv, a Row a line
GRID_COLUMNS = {"x_um": float, "y_um": float, "potential_v": float}  # potential_grid.csv, a grid node a line, x fastest


def _fit_csv(kind: str, config: ExperimentConfig, dataset: Path, out_dir: Path) -> Path:
    """The one fit step of ``reproduce`` and ``fit``: read a dataset CSV, fit it, write fit_report.csv."""
    _, columns, _, fit = FITS[kind]
    try:
        data = read_table(dataset, columns)
    except ValueError as exc:  # read_table names the file, and the row and column of a bad cell
        raise FitError(str(exc)) from None
    report = fit(config, *data)
    return write_table(out_dir / "fit_report.csv", REPORT_COLUMNS, list(zip(*report)) or [()] * len(REPORT_COLUMNS))


def _cmd_figure(args, config: ExperimentConfig, seed: int, out_dir: Path) -> list[Path]:
    kind = FIGURES[args.figure]
    name, columns, dataset, _ = FITS[kind]
    path = write_table(out_dir / name, columns, dataset(args, config, seed))
    return [path, _fit_csv(kind, config, path, out_dir)] if args.fit else [path]


def _cmd_fit(args, config: ExperimentConfig, seed: int, out_dir: Path) -> list[Path]:
    return [_fit_csv(args.kind, config, args.input, out_dir)]


def _print_report(**values: float) -> None:
    """``field``'s and ``resonance``'s report: a ``key=value`` line per value, to 17 digits, and 0 never as "-0"."""
    for key, value in values.items():
        print(f"{key}={0.0 if value == 0.0 else value:.17g}")


def _cmd_field(args, config: ExperimentConfig, seed: int, out_dir: Path | None) -> list[Path]:
    layout = config.layout
    voltage = args.voltage if args.voltage is not None else layout.bias_v
    grid = solve_potential(layout, config.solver.spacing_um)
    unit = field_at(grid, layout.probe_point_um)
    e_parallel, e_perpendicular = (component * voltage for component in unit)
    if not (math.isfinite(e_parallel) and math.isfinite(e_perpendicular)):
        raise FieldOverflowError(f"the probe field overflows at a bias of {voltage:.17g} V")
    _print_report(voltage_v=voltage, e_parallel_v_per_cm=e_parallel, e_perpendicular_v_per_cm=e_perpendicular,
                  volts_to_field_v_per_cm_per_v=unit[0])
    if not args.dump_grid:
        return []
    rows, cols = grid.values.shape
    potentials = (grid.values * voltage + 0.0).ravel()  # + 0.0: no "-0" cells where the product is -0
    columns = (np.tile(grid.x_coords_um, rows), np.repeat(grid.y_coords_um, cols), potentials)
    return [write_table(out_dir / "potential_grid.csv", GRID_COLUMNS, columns)]


def _cmd_resonance(args, config: ExperimentConfig, seed: int, out_dir: Path | None) -> list[Path]:
    ion_a = config.ion(args.ion_a)
    ion_b = config.ion(args.ion_b)
    volts_to_field = _volts_to_field(config)
    voltage = resonance_voltage(ion_a, ion_b, volts_to_field, config.run.max_voltage_v)
    field = volts_to_field * voltage
    (f_a, _), (f_b, _) = ion_a.line(field), ion_b.line(field)
    _print_report(voltage_v=voltage, residual_detuning_mhz=abs(f_a - f_b))
    print("feasible=true")  # a voltage beyond [run] max_voltage_v raised VoltageOutOfRangeError
    return []


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.command_line = shlex.join(["starksim", *argv])  # recorded in every manifest
    try:
        config = load_config(args.config) if args.config is not None else default_config()
        if args.command == "ple" and abs(args.voltage) > config.run.max_voltage_v:
            raise ConfigError(
                f"--voltage {args.voltage:g} V is outside the +/-{config.run.max_voltage_v:g} V of [run].max_voltage_v"
            )
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else config.run.seed
    out_dir = args.out if args.out is not None else Path(config.run.output_dir)
    reports_only = args.command in ("field", "resonance") and not getattr(args, "dump_grid", False)
    if args.out is None and reports_only:
        out_dir = None  # the report commands print to stdout and write files only when asked to
    handlers = {"field": _cmd_field, "fit": _cmd_fit, "resonance": _cmd_resonance}
    try:
        if out_dir is not None:
            write_run_manifest(out_dir, config, seed, args.command_line)
        paths = handlers.get(args.command, _cmd_figure)(args, config, seed, out_dir)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        code, text = next((code, text) for cls, code, text in FAILURES if isinstance(exc, cls))
        print("error: " + text.format(exc=exc, out_dir=out_dir), file=sys.stderr)
        return code
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
