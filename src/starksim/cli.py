"""Command-line pipeline: solve fields, simulate experiments, fit results.

Subcommands: ``field``, ``ple``, ``decay``, ``g2``, ``stark``, ``fit``,
``resonance``, ``reproduce``. Dataset paths go to stdout (one per line;
``field`` and ``resonance`` print their small key=value reports
instead, and write a manifest only under an explicit ``--out``);
diagnostics go to stderr.

Exit codes: 0 ok, 2 configuration/validation failure, 3 the field
solver missed its tolerance within the iteration cap or broke down on
non-finite numbers, 4 simulation failure, 5 fitting failure, 6
resonance has no solution, 7 resonance voltage beyond the configured
limit.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import (
    UndefinedNormalizationError,
    estimate_g2_zero,
    find_peaks,
    fit_exponential_decay,
    fit_linear_weighted,
    fit_lorentzian,
    read_decay_csv,
    read_g2_csv,
    read_ple_csv,
    write_fit_report_csv,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .electrostatics import (
    ConvergenceError,
    FieldVector,
    GeometryError,
    PotentialGrid,
    field_at,
    field_per_volt,
    write_grid_csv,
)
from .experiment import (
    Histogram,
    SimulationError,
    mix_seed,
    simulate_decay_histogram,
    simulate_g2_histogram,
    simulate_ple_scan,
    simulate_stark_scan,
    write_decay_csv,
    write_g2_csv,
    write_ple_csv,
    write_stark_csv,
)
from .manifest import write_run_manifest
from .optimize import FitError, FitResult
from .stark import (
    NoResonanceError,
    StarkModelError,
    VoltageOutOfRangeError,
    resonance_voltage,
    stark_shift_empirical,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SIMULATION = 4
EXIT_FITTING = 5
EXIT_NO_RESONANCE = 6
EXIT_VOLTAGE_RANGE = 7

FIGURES = ("fig2", "fig3b", "fig3c", "fig4a", "fig4b")


def _finite_float(text: str) -> float:
    """argparse type for a finite number; anything else is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starksim",
        description="Stark-tuning simulation and analysis pipeline",
    )
    parser.add_argument("--version", action="version", version=f"starksim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="TOML config (built-in defaults if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=Path, default=None, help="override the output directory")

    p = sub.add_parser("field", help="solve the electrode field at the probe point")
    add_common(p)
    p.add_argument("--voltage", type=_finite_float, default=None, help="bias across the pair (default: config potentials)")
    p.add_argument("--dump-grid", action="store_true", help="also write the potential grid CSV")

    p = sub.add_parser("ple", help="simulate a PLE scan of the whole ion registry")
    add_common(p)
    p.add_argument("--voltage", type=_finite_float, default=0.0, help="electrode bias during the scan")

    for name, text in (("decay", "simulate a fluorescence decay histogram"),
                       ("g2", "simulate an intensity-autocorrelation histogram"),
                       ("stark", "simulate a voltage-swept scan and fit the line response")):
        p = sub.add_parser(name, help=text)
        add_common(p)

    p = sub.add_parser("fit", help="fit a dataset produced by the simulators")
    add_common(p)
    p.add_argument("--kind", choices=("ple", "decay", "g2"), required=True)
    p.add_argument("--input", type=Path, required=True)

    p = sub.add_parser("resonance", help="voltage bringing two ions into resonance")
    add_common(p)
    p.add_argument("--ion-a", required=True)
    p.add_argument("--ion-b", required=True)

    p = sub.add_parser("reproduce", help="run a full figure-reproduction pipeline")
    add_common(p)
    p.add_argument("figure", choices=FIGURES)
    return parser


def _fit_decay(config: ExperimentConfig, histogram: Histogram) -> FitResult:
    """Lifetime fit of the bins wholly inside the detection window.

    The dark floor per bin is pinned from the detector calibration. A last
    bin that overruns the window holds truncated signal and fewer darks,
    which neither the model nor the floor describe, so it is left out.
    """
    edges = histogram.bin_edges_us
    n_inside = int(np.count_nonzero(edges[1:] <= config.protocol.window_length_us * (1.0 + 1e-9)))
    bin_width_us = float(edges[1] - edges[0])
    dark_floor = config.detector.dark_rate_hz * bin_width_us * 1e-6 * config.decay.n_pulses
    return fit_exponential_decay(
        Histogram(bin_edges_us=edges[: n_inside + 1], counts=histogram.counts[:n_inside]),
        config.decay.fit_start_us,
        known_background=dark_floor,
    )


def _field_per_volt(
    config: ExperimentConfig, voltage_v: float | None = None
) -> tuple[FieldVector, PotentialGrid]:
    """:func:`field_per_volt` of the configured layout, dielectric and solver."""
    return field_per_volt(
        config.layout,
        config.dielectric,
        config.solver.spacing_um,
        config.solver.tolerance_v,
        voltage_v=voltage_v,
        max_iterations=config.solver.max_iterations,
    )


def _cmd_field(args, config: ExperimentConfig, seed: int, out_dir: Path | None) -> int:
    layout = config.layout
    voltage = args.voltage if args.voltage is not None else layout.bias_v
    scale, grid = _field_per_volt(config, voltage)
    probe = field_at(grid, layout.probe_point_um) if voltage != 0.0 else FieldVector(0.0, 0.0)

    def fmt(value: float) -> str:
        return format(0.0 if value == 0.0 else value, ".17g")

    print(f"voltage_v={fmt(voltage)}")
    print(f"e_parallel_v_per_cm={fmt(probe.e_parallel_v_per_cm)}")
    print(f"e_perpendicular_v_per_cm={fmt(probe.e_perpendicular_v_per_cm)}")
    print(f"volts_to_field_v_per_cm_per_v={fmt(scale.e_parallel_v_per_cm)}")
    if out_dir is not None:
        write_run_manifest(out_dir, config, seed, args.command_line)
        if args.dump_grid:
            path = out_dir / "potential_grid.csv"
            write_grid_csv(grid, path)
            print(path)
    return EXIT_OK


def _cmd_ple(args, config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    if abs(args.voltage) > config.run.max_voltage_v:
        raise SimulationError(
            f"voltage {args.voltage} V outside the +/-{config.run.max_voltage_v} V limit"
        )
    if args.voltage != 0.0:
        field = _field_per_volt(config)[0].scaled(args.voltage)
    else:
        field = FieldVector(0.0, 0.0)
    scan = simulate_ple_scan(config.simulated_ions(), config.protocol, config.detector, field, seed)
    write_run_manifest(out_dir, config, seed, args.command_line)
    path = out_dir / "ple_scan.csv"
    write_ple_csv(scan, path)
    print(path)
    return EXIT_OK


def _cmd_decay(args, config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    emitter = config.effective_emitter(config.ion(config.decay.ion_id))
    histogram = simulate_decay_histogram(
        emitter, config.protocol, config.detector,
        config.decay.n_pulses, config.decay.bin_width_us, seed,
    )
    write_run_manifest(out_dir, config, seed, args.command_line)
    path = out_dir / "decay.csv"
    write_decay_csv(histogram, path)
    print(path)
    return EXIT_OK


def _cmd_g2(args, config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    emitter = config.effective_emitter(config.ion(config.g2.ion_id))
    histogram = simulate_g2_histogram(
        emitter, config.g2.background_fraction, config.protocol,
        config.g2.n_pulses, config.g2.max_lag, seed,
    )
    write_run_manifest(out_dir, config, seed, args.command_line)
    path = out_dir / "g2.csv"
    write_g2_csv(histogram, path)
    print(path)
    return EXIT_OK


def _stark_pipeline(
    config: ExperimentConfig, unit_field: FieldVector, ion_id: str, seed: int
) -> tuple[list[tuple], FitResult]:
    """Voltage sweep, per-voltage Lorentzian fits, weighted line through the
    (field, centre) points. Returns the stark_scan.csv rows and the line fit."""
    ion = config.simulated_ion(ion_id)
    points = simulate_stark_scan(
        ion,
        config.stark.voltages_v,
        unit_field,
        config.protocol,
        config.detector,
        seed,
        window_half_width_mhz=config.stark.window_half_width_mhz,
        v_max=config.run.max_voltage_v,
    )
    rows = []
    fields, centres, errors = [], [], []
    for point in points:
        fit = fit_lorentzian(point.scan.frequencies_mhz, point.scan.counts)
        rows.append(
            (
                point.voltage_v,
                point.field.e_parallel_v_per_cm,
                fit.value("center_mhz"),
                fit.stderr("center_mhz"),
                fit.value("fwhm_mhz"),
                fit.stderr("fwhm_mhz"),
            )
        )
        fields.append(point.field.e_parallel_v_per_cm)
        centres.append(fit.value("center_mhz"))
        errors.append(fit.stderr("center_mhz"))
    line = fit_linear_weighted(fields, centres, errors)
    return rows, line


def _line_report(ion_id: str, line: FitResult) -> list[tuple[str, float, float, str]]:
    return [
        (
            f"stark_coefficient_{ion_id}",
            line.value("slope_khz_per_v_cm"),
            line.stderr("slope_khz_per_v_cm"),
            "kHz/(V/cm)",
        ),
        (
            f"zero_field_frequency_{ion_id}",
            line.value("intercept_mhz"),
            line.stderr("intercept_mhz"),
            "MHz",
        ),
        (f"line_reduced_chi_square_{ion_id}", line.reduced_chi_square, 0.0, "dimensionless"),
    ]


def _cmd_stark(args, config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    ion_id = config.ion(config.stark.ion_id).ion_id
    rows, line = _stark_pipeline(config, _field_per_volt(config)[0], ion_id, seed)
    write_run_manifest(out_dir, config, seed, args.command_line)
    scan_path = out_dir / "stark_scan.csv"
    write_stark_csv(rows, scan_path)
    report_path = out_dir / "fit_report.csv"
    write_fit_report_csv(_line_report(ion_id, line), report_path)
    print(scan_path)
    print(report_path)
    return EXIT_OK


def _cmd_fit(args, config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    rows: list[tuple[str, float, float, str]] = []
    if args.kind == "ple":
        frequencies, counts, _ = read_ple_csv(args.input)
        fit = fit_lorentzian(frequencies, counts)
        rows = [
            ("amplitude", fit.value("amplitude"), fit.stderr("amplitude"), "counts"),
            ("center_mhz", fit.value("center_mhz"), fit.stderr("center_mhz"), "MHz"),
            ("fwhm_mhz", fit.value("fwhm_mhz"), fit.stderr("fwhm_mhz"), "MHz"),
            ("offset", fit.value("offset"), fit.stderr("offset"), "counts"),
            ("reduced_chi_square", fit.reduced_chi_square, 0.0, "dimensionless"),
        ]
    elif args.kind == "decay":
        fit = _fit_decay(config, read_decay_csv(args.input))
        rows = [
            ("amplitude", fit.value("amplitude"), fit.stderr("amplitude"), "counts"),
            ("tau_us", fit.value("tau_us"), fit.stderr("tau_us"), "us"),
            ("background", fit.value("background"), fit.stderr("background"), "counts"),
            ("reduced_chi_square", fit.reduced_chi_square, 0.0, "dimensionless"),
        ]
    else:
        estimate = estimate_g2_zero(read_g2_csv(args.input))
        rows = [("g2_zero", estimate.g2_zero, estimate.standard_error, "dimensionless")]
    write_run_manifest(out_dir, config, seed, args.command_line)
    path = out_dir / "fit_report.csv"
    write_fit_report_csv(rows, path)
    print(path)
    return EXIT_OK


def _cmd_resonance(args, config: ExperimentConfig, seed: int, out_dir: Path | None) -> int:
    ion_a = config.ion(args.ion_a)
    ion_b = config.ion(args.ion_b)
    unit_field, _ = _field_per_volt(config)
    voltage = resonance_voltage(
        ion_a, ion_b, unit_field.e_parallel_v_per_cm, config.run.max_voltage_v
    )
    field = unit_field.scaled(voltage)
    f_a = ion_a.zero_field_frequency_mhz + stark_shift_empirical(ion_a, field).shift_mhz
    f_b = ion_b.zero_field_frequency_mhz + stark_shift_empirical(ion_b, field).shift_mhz
    print(f"voltage_v={voltage:.17g}")
    print(f"residual_detuning_mhz={abs(f_a - f_b):.17g}")
    print(f"feasible={'true' if abs(voltage) <= config.run.max_voltage_v else 'false'}")
    if out_dir is not None:
        write_run_manifest(out_dir, config, seed, args.command_line)
    return EXIT_OK


def _cmd_reproduce(args, config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    write_run_manifest(out_dir, config, seed, args.command_line)
    report: list[tuple[str, float, float, str]] = []
    paths: list[Path] = []

    if args.figure == "fig2":
        scan = simulate_ple_scan(
            config.simulated_ions(), config.protocol, config.detector, FieldVector(0.0, 0.0), seed
        )
        path = out_dir / "ple_scan.csv"
        write_ple_csv(scan, path)
        paths.append(path)
        for index, peak in enumerate(find_peaks(scan, 5.0), start=1):
            window = np.abs(scan.frequencies_mhz - peak.center_mhz) <= 30.0
            fit = fit_lorentzian(scan.frequencies_mhz[window], scan.counts[window])
            report.append(
                (f"peak{index}_center_mhz", fit.value("center_mhz"), fit.stderr("center_mhz"), "MHz")
            )
            report.append(
                (f"peak{index}_fwhm_mhz", fit.value("fwhm_mhz"), fit.stderr("fwhm_mhz"), "MHz")
            )
    elif args.figure == "fig3b":
        emitter = config.effective_emitter(config.ion(config.decay.ion_id))
        histogram = simulate_decay_histogram(
            emitter, config.protocol, config.detector,
            config.decay.n_pulses, config.decay.bin_width_us, seed,
        )
        path = out_dir / "decay.csv"
        write_decay_csv(histogram, path)
        paths.append(path)
        fit = _fit_decay(config, histogram)
        report = [
            ("tau_us", fit.value("tau_us"), fit.stderr("tau_us"), "us"),
            ("amplitude", fit.value("amplitude"), fit.stderr("amplitude"), "counts"),
            ("background", fit.value("background"), fit.stderr("background"), "counts"),
        ]
    elif args.figure == "fig3c":
        emitter = config.effective_emitter(config.ion(config.g2.ion_id))
        histogram = simulate_g2_histogram(
            emitter, config.g2.background_fraction, config.protocol,
            config.g2.n_pulses, config.g2.max_lag, seed,
        )
        path = out_dir / "g2.csv"
        write_g2_csv(histogram, path)
        paths.append(path)
        estimate = estimate_g2_zero(histogram)
        report = [("g2_zero", estimate.g2_zero, estimate.standard_error, "dimensionless")]
    elif args.figure == "fig4a":
        ion_id = config.ion(config.stark.ion_id).ion_id
        rows, line = _stark_pipeline(config, _field_per_volt(config)[0], ion_id, seed)
        path = out_dir / "stark_scan.csv"
        write_stark_csv(rows, path)
        paths.append(path)
        report = _line_report(ion_id, line)
    else:  # fig4b
        unit_field, _ = _field_per_volt(config)
        for ion_index, ion in enumerate(config.ions):
            rows, line = _stark_pipeline(config, unit_field, ion.ion_id, mix_seed(seed, ion_index))
            path = out_dir / f"stark_scan_{ion.ion_id}.csv"
            write_stark_csv(rows, path)
            paths.append(path)
            report.extend(_line_report(ion.ion_id, line))

    report_path = out_dir / "fit_report.csv"
    write_fit_report_csv(report, report_path)
    paths.append(report_path)
    for path in paths:
        print(path)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.command_line = shlex.join(["starksim", *argv])  # recorded in every manifest
    try:
        config = load_config(args.config) if args.config is not None else default_config()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else config.run.seed
    out_dir = args.out if args.out is not None else Path(config.run.output_dir)
    if args.out is None and args.command in ("field", "resonance") and not getattr(args, "dump_grid", False):
        out_dir = None  # the report commands print to stdout and write files only when asked to
    handlers = {
        "field": _cmd_field,
        "ple": _cmd_ple,
        "decay": _cmd_decay,
        "g2": _cmd_g2,
        "stark": _cmd_stark,
        "fit": _cmd_fit,
        "resonance": _cmd_resonance,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args, config, seed, out_dir)
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
        print(f"error: field solver did not converge: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, GeometryError, StarkModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (FitError, UndefinedNormalizationError, ValueError, OSError) as exc:
        print(f"error: fitting failed: {exc}", file=sys.stderr)
        return EXIT_FITTING


if __name__ == "__main__":
    raise SystemExit(main())
