"""Command-line pipeline: solve fields, simulate experiments, fit results.

Subcommands: ``field``, ``ple``, ``decay``, ``g2``, ``stark``, ``fit``,
``resonance``, ``reproduce``. Each figure of ``reproduce`` is one
pipeline: a dataset function simulates and returns the rows of its CSV,
whose file name and columns ``FITS`` alone declares, then the figure's
fit step reads that CSV back, fits it and writes ``fit_report.csv``.
``fit --kind`` runs the same step on a CSV it is given, so its report is
the figure's, byte for byte. ``ple``, ``decay``,
``g2`` and ``stark`` are the no-fit forms of ``fig2``, ``fig3b``,
``fig3c`` and ``fig4a``. fig4's fit stage fits each ion's whole sweep,
the counts at every voltage, to the ion's line law in one Poisson
likelihood; fig2's fits the whole scan in one, as the sum of its lines
and one offset.

``main`` writes ``config.toml`` and ``manifest.json`` once, before the
run, so partial outputs of a failed run still carry their provenance;
``field`` and ``resonance`` write them only under an explicit ``--out``
(or, for ``field --dump-grid``, into ``[run] output_dir``). Dataset paths
go to stdout, one per line (``field`` and ``resonance`` print their small
key=value reports first); diagnostics go to stderr.

Exit codes: 0 ok, 2 configuration/validation failure or an output
directory that cannot be written (the manifest or any later file), 3 the
field solve broke down on non-finite numbers, 4 simulation failure, 5
fitting failure (``FitError`` only), a ``fit --input`` that cannot be read included, 6
resonance has no solution, 7 resonance voltage beyond the configured
limit.
"""

from __future__ import annotations

import argparse
import functools
import math
import shlex
import sys
from dataclasses import replace
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
from .electrostatics import ConvergenceError, GeometryError, field_at, field_per_volt
from .experiment import (
    SimulationError,
    mix_seed,
    simulate_decay_histogram,
    simulate_g2_histogram,
    simulate_ple_scan,
    simulate_stark_scan,
)
from .manifest import write_run_manifest
from .optimize import DegenerateDataError, FitError, FitResult
from .stark import (
    NoResonanceError,
    StarkModelError,
    VoltageOutOfRangeError,
    resonance_voltage,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SIMULATION = 4
EXIT_FITTING = 5
EXIT_NO_RESONANCE = 6
EXIT_VOLTAGE_RANGE = 7

FIGURES = ("fig2", "fig3b", "fig3c", "fig4a", "fig4b")

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

    p = sub.add_parser("ple", help="simulate a PLE scan of the whole ion registry")
    add_common(p)
    p.add_argument("--voltage", type=_finite_float, default=0.0,
                   help="electrode bias during the scan")
    p.set_defaults(figure="fig2", fit=False)

    for name, figure, text in (
        ("decay", "fig3b", "simulate a fluorescence decay histogram"),
        ("g2", "fig3c", "simulate an intensity-autocorrelation histogram"),
        ("stark", "fig4a", "simulate voltage-swept scans of the [stark] ion"),
    ):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.set_defaults(figure=figure, fit=False)

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


def _rows(fit: FitResult, quantities: Sequence[tuple[str, str]], prefix: str = "", suffix: str = "") -> list[Row]:
    """fit_report.csv rows ``(prefix + name + suffix, value, stderr, units)`` of the named parameters."""
    return [(prefix + name + suffix, fit.value(name), fit.stderr(name), units) for name, units in quantities]


def _volts_to_field(config: ExperimentConfig) -> float:
    """The probe field per volt of bias along the inter-electrode axis, in
    V/cm per V, of the configured layout and solver: the one component of
    the field the ions' lines read."""
    return field_per_volt(config.layout, config.solver.spacing_um)[0].e_parallel_v_per_cm


def _ple(args, config: ExperimentConfig, seed: int) -> list[tuple]:
    """Scan of the whole registry at ``args.voltage``: ple_scan.csv's rows."""
    field = _volts_to_field(config) * args.voltage if args.voltage != 0.0 else 0.0  # 0 V needs no solve
    frequencies, counts = simulate_ple_scan(config.ions, config.emitter, config.protocol, config.detector, field, seed)
    integration_s = config.protocol.integration_time_s
    return [(f, c, integration_s) for f, c in zip(frequencies.tolist(), counts.tolist())]


def _fit_peaks(config: ExperimentConfig, frequencies_mhz, counts, integration_s) -> list[Row]:
    """fig2's fit stage: one fit of the scan as the sum of a Lorentzian at
    each peak found and one shared offset. The scan is sorted by frequency
    first, since peak finding and the starting guess read neighbouring rows."""
    order = np.argsort(frequencies_mhz, kind="stable")
    frequencies_mhz, counts = np.array(frequencies_mhz)[order], np.array(counts)[order]
    peaks = find_peaks(counts, 5.0)
    report: list[Row] = []
    for index, line in enumerate(fit_lorentzians(frequencies_mhz, counts, peaks) if peaks else [], start=1):
        report += _rows(line, [("center_mhz", "MHz"), ("fwhm_mhz", "MHz")], f"peak{index}_")
    return report


def _decay(args, config: ExperimentConfig, seed: int) -> list[tuple]:
    """Decay histogram of the shared emitter: decay.csv's rows, one per bin centre."""
    times_us, counts = simulate_decay_histogram(config.emitter, config.protocol, config.detector, config.decay, seed)
    return list(zip(times_us.tolist(), counts.tolist()))


def _fit_lifetime(config: ExperimentConfig, times_us, counts) -> list[Row]:
    """fig3b's fit stage: a lifetime fit of the bins wholly inside the detection window.

    The bin width is the median spacing of the bin centres, and the dark
    floor per bin is pinned from the detector calibration. A last bin that
    overruns the window holds truncated signal and fewer darks, which
    neither the model nor the floor describe, so it is left out.
    """
    times_us = np.array(times_us)
    if times_us.size < 2:
        raise DegenerateDataError("need at least two bins")
    bin_width_us = float(np.median(np.diff(times_us)))
    n_inside = int(np.count_nonzero(times_us + bin_width_us / 2.0 <= config.protocol.window_length_us * (1 + 1e-9)))
    dark_floor = config.detector.dark_mean_per_pulse(bin_width_us) * config.decay.n_pulses
    fit = fit_exponential_decay(times_us[:n_inside], counts[:n_inside], config.decay.fit_start_us, dark_floor)
    return _rows(fit, [("tau_us", "us"), ("amplitude", "counts"), ("background", "counts")])


def _g2(args, config: ExperimentConfig, seed: int) -> list[tuple]:
    """Autocorrelation histogram of the shared emitter: g2.csv's rows, one per
    lag, each count also over the mean of the side lags (``[g2] max_lag >= 1``
    guarantees there are some)."""
    lags, coincidences = simulate_g2_histogram(config.emitter, config.g2, config.protocol, seed)
    normalized = coincidences / coincidences[lags != 0].mean()
    return list(zip(lags.tolist(), coincidences.tolist(), normalized.tolist()))


def _fit_g2(config: ExperimentConfig, lags, coincidences, normalized) -> list[Row]:
    """fig3c's fit stage."""
    estimate = estimate_g2_zero(lags, coincidences)
    return [("g2_zero", estimate.g2_zero, estimate.standard_error, "dimensionless")]


def _stark(args, config: ExperimentConfig, seed: int) -> list[tuple]:
    """Voltage sweeps: stark_scan.csv's rows, one per scan point. fig4a sweeps
    the [stark] ion on ``seed``, fig4b every ion, each on ``mix_seed(seed, index)``."""
    if args.figure == "fig4a":
        sweeps = [(config.ion(config.stark.ion_id), seed)]
    else:
        sweeps = [(ion, mix_seed(seed, index)) for index, ion in enumerate(config.ions)]
    volts_to_field = _volts_to_field(config)
    rows = []
    for ion, ion_seed in sweeps:
        scans = simulate_stark_scan(
            ion, config.emitter, config.stark, volts_to_field, config.protocol, config.detector, ion_seed
        )
        for voltage, (field, frequencies, counts) in zip(config.stark.voltages_v, scans):
            rows += [(ion.ion_id, float(voltage), field, f, c) for f, c in zip(frequencies.tolist(), counts.tolist())]
    return rows


def _fit_stark(config: ExperimentConfig, ion_ids, voltages_v, fields_v_per_cm, frequencies_mhz, counts) -> list[Row]:
    """fig4's fit stage: one fit of each ion's sweep to its line law, ions in file order."""
    if not ion_ids:
        raise DegenerateDataError("no scan points to fit")
    ion_ids, fields_v_per_cm = np.array(ion_ids), np.array(fields_v_per_cm)
    frequencies_mhz, counts = np.array(frequencies_mhz), np.array(counts)
    report: list[Row] = []
    for ion_id in dict.fromkeys(ion_ids.tolist()):
        mine = ion_ids == ion_id
        try:
            fit = fit_stark_sweep(fields_v_per_cm[mine], frequencies_mhz[mine], counts[mine])
        except FitError as exc:
            raise FitError(f"{ion_id}: {exc}") from None
        quantities = [("stark_coefficient", "kHz/(V/cm)"), ("zero_field_frequency", "MHz"),
                      ("zero_field_fwhm", "MHz"), ("broadening", "MHz/(kV/cm)")]
        report += _rows(fit, quantities, suffix=f"_{ion_id}")
        report.append((f"line_reduced_chi_square_{ion_id}", fit.reduced_chi_square, 0.0, "dimensionless"))
    return report


# The one statement of each dataset's format: kind -> (its file name, the
# file's {column: type}, its fit stage, which takes the columns in order).
FITS = {
    "ple": ("ple_scan.csv", {"frequency_offset_mhz": float, "counts": int, "integration_s": float}, _fit_peaks),
    "decay": ("decay.csv", {"time_us": float, "counts": int}, _fit_lifetime),
    "g2": ("g2.csv", {"lag_pulses": int, "coincidences": int, "normalized": float}, _fit_g2),
    "stark": (
        "stark_scan.csv",
        {"ion_id": str, "voltage_v": float, "field_v_per_cm": float, "frequency_mhz": float, "counts": int},
        _fit_stark,
    ),
}
REPORT_COLUMNS = ("quantity", "value", "stderr", "units")  # fit_report.csv, one Row per line
PIPELINES = {  # figure -> (its dataset function, the FITS kind of its CSV)
    "fig2": (_ple, "ple"),
    "fig3b": (_decay, "decay"),
    "fig3c": (_g2, "g2"),
    "fig4a": (_stark, "stark"),
    "fig4b": (_stark, "stark"),
}


class UnreadableDatasetError(FitError):
    """A dataset CSV that cannot be opened or read back as its FITS columns."""


def _fit_csv(kind: str, config: ExperimentConfig, dataset: Path, out_dir: Path) -> Path:
    """The one fit step of ``reproduce`` and ``fit``: read a dataset CSV, fit it, write fit_report.csv."""
    _, columns, fit = FITS[kind]
    try:
        data = read_table(dataset, columns)
    except ValueError as exc:  # read_table names the file, and the row and column of a bad cell
        raise UnreadableDatasetError(str(exc)) from None
    return write_table(out_dir / "fit_report.csv", REPORT_COLUMNS, fit(config, *data))


def _cmd_figure(args, config: ExperimentConfig, seed: int, out_dir: Path) -> list[Path]:
    simulate, kind = PIPELINES[args.figure]
    name, columns, _ = FITS[kind]
    path = write_table(out_dir / name, columns, simulate(args, config, seed))
    return [path, _fit_csv(kind, config, path, out_dir)] if args.fit else [path]


def _cmd_fit(args, config: ExperimentConfig, seed: int, out_dir: Path) -> list[Path]:
    return [_fit_csv(args.kind, config, args.input, out_dir)]


def _cmd_field(args, config: ExperimentConfig, seed: int, out_dir: Path | None) -> list[Path]:
    layout = config.layout
    voltage = args.voltage if args.voltage is not None else layout.bias_v
    scale, grid = field_per_volt(layout, config.solver.spacing_um, voltage_v=voltage)
    if voltage == 0.0:  # the per-volt field came from a 1 V solve; at 0 V the potential is zero
        grid = replace(grid, quarter=np.zeros_like(grid.quarter))
    probe = field_at(grid, layout.probe_point_um)

    def fmt(value: float) -> str:
        return format(0.0 if value == 0.0 else value, ".17g")

    print(f"voltage_v={fmt(voltage)}")
    print(f"e_parallel_v_per_cm={fmt(probe.e_parallel_v_per_cm)}")
    print(f"e_perpendicular_v_per_cm={fmt(probe.e_perpendicular_v_per_cm)}")
    print(f"volts_to_field_v_per_cm_per_v={fmt(scale.e_parallel_v_per_cm)}")
    if not args.dump_grid:
        return []
    xs = grid.x_coords_um.tolist()
    rows = ((x, y, v) for y, row in zip(grid.y_coords_um.tolist(), grid.values.tolist()) for x, v in zip(xs, row))
    return [write_table(out_dir / "potential_grid.csv", ("x_um", "y_um", "potential_v"), rows)]


def _cmd_resonance(args, config: ExperimentConfig, seed: int, out_dir: Path | None) -> list[Path]:
    ion_a = config.ion(args.ion_a)
    ion_b = config.ion(args.ion_b)
    volts_to_field = _volts_to_field(config)
    voltage = resonance_voltage(ion_a, ion_b, volts_to_field, config.run.max_voltage_v)
    field = volts_to_field * voltage
    (f_a, _), (f_b, _) = ion_a.line(field), ion_b.line(field)
    print(f"voltage_v={voltage:.17g}")
    print(f"residual_detuning_mhz={abs(f_a - f_b):.17g}")
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
    if out_dir is not None:
        try:
            write_run_manifest(out_dir, config, seed, args.command_line)
        except OSError as exc:  # a file where the directory should be, no permission, ...
            print(f"error: cannot write output directory {out_dir}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        paths = handlers.get(args.command, _cmd_figure)(args, config, seed, out_dir)
    except NoResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESONANCE
    except VoltageOutOfRangeError as exc:
        print(
            f"error: {exc} (required voltage {exc.required_voltage_v:.17g} V)",
            file=sys.stderr,
        )
        return EXIT_VOLTAGE_RANGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, GeometryError, StarkModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except FitError as exc:
        print(f"error: fitting failed: {exc}", file=sys.stderr)
        return EXIT_FITTING
    except OSError as exc:  # only writes under out_dir raise it
        print(f"error: cannot write output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
