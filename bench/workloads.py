"""Workload inputs, op commands and output checks.

Every op is a short sequence of ``starksim`` command lines run through
``starksim.cli.main(argv)``. The program sees only argv and the config
file the benchmark writes; that file sets keys of ``[layout]``,
``[dielectric]`` and ``solver.spacing_um`` only, so every other setting
is the program's default, which describes the paper's device.

The checks compare outputs with the physics those inputs imply, using
the paper's device constants below rather than anything the program
computes. Check functions are pure: they take the captured outputs and
return a list of failure messages, so ``selftest.py`` can feed them
corrupted outputs.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "counting", "refine")

# Paper device constants (ion registry, lifetime, autocorrelation).
ION_REGISTRY = {  # id: (zero-field frequency MHz, Stark coefficient kHz/(V/cm))
    "ion1": (0.0, 19.8),
    "ion2": (-40.0, -8.447059760917158),
    "ion3": (60.0, 23.2),
    "ion4": (130.0, -23.0),
    "ion5": (-155.0, 22.903),
    "ion6": (215.0, -22.65),
    "ion7": (-250.0, -9.8),
}
MAX_VOLTAGE_V = 333.0
EFFECTIVE_LIFETIME_US = 11.4e3 / 278.0  # bulk 11.4 ms shortened 278x by the cavity
BACKGROUND_FRACTION = 0.051
# single emitter plus Poissonian background fraction b: g2(0) = 1 - (1 - b)^2
G2_ZERO_EXPECTED = 1.0 - (1.0 - BACKGROUND_FRACTION) ** 2
RESONANT_PAIR = ("ion1", "ion7")  # sweep tunes these two lines onto one frequency
PLE_HEADER = ["frequency_offset_mhz", "counts", "integration_s"]
PLE_POINTS = 121  # -300..300 MHz at 5 MHz pitch
DECAY_BINS = 85  # 85 us window at 1 us bins
G2_LAGS = 21  # lags -10..10

# A correct program lands within a few standard errors; 8 keeps the chance
# of a false failure negligible over thousands of checks while a value
# shifted by 10 standard errors is still rejected.
K_SIGMA = 8.0
# Accuracy a refine field must reach against the exact discrete solution:
# three times the largest error of the refine ops of seeds 1-10 at the
# baseline commit (1.12e-5, median 8.1e-6), so a solver that stops several
# times earlier fails, while a more accurate one passes.
REFINE_REL_TOL = 3.4e-5
# Agreement of fields of one geometry that separate commands solve; each
# solve stops on its own. Accuracy is checked on refine.
FIELD_REL_TOL = 1e-4
# Consistency of one number computed twice by the same arithmetic.
SAME_REL_TOL = 1e-9
# A PLE line is present when the counts within LINE_WINDOW_MHZ of its expected
# centre exceed the scan's median background by K_SIGMA Poisson standard
# deviations; in 2000 simulated scans at the resonance voltage every line did
# by at least 15.6.
LINE_WINDOW_MHZ = 10.0
# At resonance one line carries the light of both ions: its excess over the
# background was 1.97 +- 0.11 times the mean of the single lines in those 2000
# scans (smallest 1.65); with the pair off resonance it is about 1.
MERGED_LINE_MIN_RATIO = 1.4

PAPER_GAP_UM = 100.0
PAPER_ELECTRODE_WIDTH_UM = 200.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Geometry:
    electrode_width_um: float
    gap_um: float
    bias_v: float
    domain_extent_um: tuple[float, float]
    spacing_um: float
    permittivity_above: float = 1.0
    permittivity_below: float = 9.0
    probe_point_um: tuple[float, float] = (0.0, 0.0)

    @property
    def potentials_v(self) -> tuple[float, float]:
        return (self.bias_v / 2.0, -self.bias_v / 2.0)

    def config_text(self) -> str:
        def num(value: float) -> str:
            return repr(float(value))

        width, height = self.domain_extent_um
        return "\n".join(
            [
                "[layout]",
                f"electrode_width_um = {num(self.electrode_width_um)}",
                f"gap_um = {num(self.gap_um)}",
                f"electrode_potentials_v = [{num(self.potentials_v[0])}, {num(self.potentials_v[1])}]",
                f"domain_extent_um = [{num(width)}, {num(height)}]",
                f"probe_point_um = [{num(self.probe_point_um[0])}, {num(self.probe_point_um[1])}]",
                "",
                "[dielectric]",
                f"relative_permittivity_above = {num(self.permittivity_above)}",
                f"relative_permittivity_below = {num(self.permittivity_below)}",
                "",
                "[solver]",
                f"spacing_um = {num(self.spacing_um)}",
                "",
            ]
        )


@dataclass(frozen=True)
class Command:
    name: str
    # Without --config/--seed/--out, which the runner adds. "@a/b" names
    # file b written by the earlier command a of the op; "$a.k" is replaced
    # by the value of key k that command a printed as "k=value".
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Op:
    workload: str
    index: int
    seed: int
    geometry: Geometry
    commands: tuple[Command, ...]


@dataclass
class CommandResult:
    name: str
    exit_code: int | None  # None when main() raised
    stdout: str
    stderr: str
    files: dict[str, str] = field(default_factory=dict)
    error: str = ""


def _domain(offsets: tuple[int, int, float], index: int, spacing_um: float, nx: int, ny: int) -> tuple[float, float]:
    """Domain extent for op ``index``: widths 1000 + 2h*i and heights 600 + 2h*j.

    ``nx`` and ``ny`` are coprime, so ops ``0 .. nx*ny-1`` all get distinct
    node grids, and any ``nx`` consecutive ops cover every width once. This
    keeps the median op cost steady across seeds while no op repeats a
    geometry an earlier op solved. A sub-cell jitter makes every layout
    distinct even after the grid pattern repeats.
    """
    offset_x, offset_y, phase = offsets
    step = 2.0 * spacing_um
    width = 1000.0 + step * ((offset_x + index) % nx)
    height = 600.0 + step * ((offset_y + index) % ny)
    jitter = 0.2 * spacing_um * ((phase + index * _GOLDEN) % 1.0)
    return (width + jitter, height + jitter)


def make_ops(workload: str, seed: int, count: int) -> list[Op]:
    """The first ``count`` ops of a workload; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    offsets = (rng.randrange(1 << 16), rng.randrange(1 << 16), rng.random())
    ops = []
    for index in range(count):
        op_seed = rng.randrange(1, 1 << 31)
        if workload == "sweep":
            # Stark tuning of a new device: its field, the voltage that brings
            # the ion1 and ion7 lines together, and a PLE scan at that voltage.
            # 5 um is gap/20, the default spacing; widths 1000-1080 um and
            # heights 600-630 um keep the resonance within the voltage limit.
            # The fitted Stark sweeps (reproduce fig4a and fig4b) are left out
            # because a correct op must not fail: their per-voltage Lorentzian
            # fits fail on about 1 in 10^4 scans, so about 1 op in 200 would
            # exit 5. `starksim reproduce fig4b --seed 468815427` with
            # [layout] domain_extent_um = [1040.2619341502011, 620.2619341502011]
            # shows it.
            spacing = PAPER_GAP_UM / 20.0
            geometry = Geometry(
                PAPER_ELECTRODE_WIDTH_UM, PAPER_GAP_UM, MAX_VOLTAGE_V,
                _domain(offsets, index, spacing, 9, 4), spacing,
            )
            commands = (
                Command("field", ("field",)),
                Command("resonance", ("resonance", "--ion-a", RESONANT_PAIR[0], "--ion-b", RESONANT_PAIR[1])),
                Command("ple", ("ple", "--voltage=$resonance.voltage_v")),
            )
        elif workload == "counting":
            spacing = PAPER_GAP_UM / 20.0
            geometry = Geometry(
                PAPER_ELECTRODE_WIDTH_UM, PAPER_GAP_UM, MAX_VOLTAGE_V,
                _domain(offsets, index, spacing, 9, 4), spacing,
            )
            commands = (
                Command("fig2", ("reproduce", "fig2")),
                Command("fig3b", ("reproduce", "fig3b")),
                Command("fig3c", ("reproduce", "fig3c")),
                Command("fit_decay", ("fit", "--kind", "decay", "--input", "@fig3b/decay.csv")),
                Command("fit_g2", ("fit", "--kind", "g2", "--input", "@fig3c/g2.csv")),
            )
        else:
            # refine: gap/40 on the paper layout grown by at most 30 x 10 um,
            # so op costs stay close; the bias and the crystal permittivity
            # are drawn per op, so every op is a new field problem
            spacing = PAPER_GAP_UM / 40.0
            bias = round(200.0 + 133.0 * rng.random(), 3)
            permittivity = round(8.8 + 0.4 * rng.random(), 4)
            geometry = Geometry(
                PAPER_ELECTRODE_WIDTH_UM, PAPER_GAP_UM, bias,
                _domain(offsets, index, spacing, 7, 3), spacing, permittivity_below=permittivity,
            )
            commands = (Command("field", ("field",)),)
        ops.append(Op(workload, index, op_seed, geometry, commands))
    return ops


# ---------------------------------------------------------------------------
# output parsing


def _rows(text: str | None, header: list[str]) -> list[list[str]] | str:
    """Data rows of a CSV text, or a failure message."""
    if text is None:
        return "missing file"
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return f"unexpected header {rows[0] if rows else None!r}"
    if not text.endswith("\n"):
        return "truncated (no final newline)"
    data = [r for r in rows[1:] if r]
    if any(len(r) != len(header) for r in data):
        return "row with a wrong number of fields"
    return data


def _report(text: str | None) -> dict[str, tuple[float, float]] | str:
    rows = _rows(text, ["quantity", "value", "stderr", "units"])
    if isinstance(rows, str):
        return rows
    try:
        return {r[0]: (float(r[1]), float(r[2])) for r in rows}
    except ValueError as exc:
        return f"unparsable value: {exc}"


def parse_key_values(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _within_sigma(name: str, value: float, stderr: float, expected: float, max_stderr: float) -> list[str]:
    if not (math.isfinite(value) and math.isfinite(stderr)) or not 0.0 < stderr <= max_stderr:
        return [f"{name}: value {value!r} with stderr {stderr!r} (want 0 < stderr <= {max_stderr})"]
    if abs(value - expected) > K_SIGMA * stderr:
        return [
            f"{name}: {value:.6g} is {abs(value - expected) / stderr:.1f} stderr from "
            f"expected {expected:.6g} (limit {K_SIGMA:g})"
        ]
    return []


class _Outputs:
    """Lookup of command results by name, collecting failures as it goes."""

    def __init__(self, results: list[CommandResult], expected: tuple[str, ...]):
        self.by_name = {r.name: r for r in results}
        self.failures: list[str] = []
        for name in expected:
            result = self.by_name.get(name)
            if result is None:
                self.failures.append(f"{name}: not run")
            elif result.exit_code != 0:
                detail = result.error or result.stderr.strip()[-200:]
                self.failures.append(f"{name}: exit code {result.exit_code} {detail}".rstrip())

    def ok(self, name: str) -> CommandResult | None:
        result = self.by_name.get(name)
        return result if result is not None and result.exit_code == 0 else None

    def table(self, name: str, filename: str, header: list[str], n_rows: int | None = None):
        result = self.ok(name)
        if result is None:
            return None
        rows = _rows(result.files.get(filename), header)
        if isinstance(rows, str):
            self.failures.append(f"{name}/{filename}: {rows}")
            return None
        if n_rows is not None and len(rows) != n_rows:
            self.failures.append(f"{name}/{filename}: {len(rows)} rows, want {n_rows}")
            return None
        return rows

    def report(self, name: str, required: list[str]):
        result = self.ok(name)
        if result is None:
            return None
        report = _report(result.files.get("fit_report.csv"))
        if isinstance(report, str):
            self.failures.append(f"{name}/fit_report.csv: {report}")
            return None
        missing = [q for q in required if q not in report]
        if missing:
            self.failures.append(f"{name}/fit_report.csv: missing {missing}")
            return None
        return report

    def key_values(self, name: str, required: list[str]):
        result = self.ok(name)
        if result is None:
            return None
        values = parse_key_values(result.stdout)
        missing = [k for k in required if k not in values]
        if missing:
            self.failures.append(f"{name}: stdout lacks {missing}")
            return None
        return values


# ---------------------------------------------------------------------------
# checks

FIELD_KEYS = ["voltage_v", "e_parallel_v_per_cm", "e_perpendicular_v_per_cm", "volts_to_field_v_per_cm_per_v"]


def _check_field_report(out: _Outputs, name: str, geometry: Geometry) -> dict[str, float] | None:
    kv = out.key_values(name, FIELD_KEYS)
    if kv is None:
        return None
    try:
        values = {k: float(kv[k]) for k in FIELD_KEYS}
    except ValueError as exc:
        out.failures.append(f"{name}: unparsable stdout {exc}")
        return None
    voltage = values["voltage_v"]
    e_par = values["e_parallel_v_per_cm"]
    plate = voltage / geometry.gap_um * 1e4  # parallel plates at the gap: an upper bound
    if voltage != geometry.bias_v:
        out.failures.append(f"{name}: voltage {voltage} V, configured {geometry.bias_v} V")
    if not 0.3 * plate < e_par < plate:
        out.failures.append(f"{name}: E_parallel {e_par} V/cm outside (0.3, 1) x {plate} V/cm")
    if not _close(values["volts_to_field_v_per_cm_per_v"] * voltage, e_par, SAME_REL_TOL):
        out.failures.append(f"{name}: volts-to-field scale disagrees with the probe field")
    result = out.ok(name)
    if result is not None and not {"manifest.json", "config.toml"} <= set(result.files):
        out.failures.append(f"{name}: no manifest in the output directory")
    return values


def _check_resonance_scan(out: _Outputs, rows: list[list[str]], e_par: float) -> None:
    """Check a PLE scan taken at the resonance voltage, where the field is ``e_par``.

    Every line whose window lies in the scan must stand out of the
    background at its Stark-shifted centre, and the resonant pair's shared
    line must carry about twice the light of a single line.
    """
    frequencies = [float(r[0]) for r in rows]
    counts = [int(r[1]) for r in rows]
    if any(c < 0 for c in counts):
        out.failures.append("ple/ple_scan.csv: negative counts")
        return
    background = statistics.median(counts)
    excess = {}
    for ion_id, (f0, coefficient) in ION_REGISTRY.items():
        centre = f0 + coefficient * e_par / 1000.0
        if not frequencies[0] + LINE_WINDOW_MHZ <= centre <= frequencies[-1] - LINE_WINDOW_MHZ:
            continue
        window = [c for f, c in zip(frequencies, counts) if abs(f - centre) <= LINE_WINDOW_MHZ]
        excess[ion_id] = sum(window) - len(window) * background
        if not excess[ion_id] > K_SIGMA * math.sqrt(max(sum(window), 1)):
            out.failures.append(f"ple: no {ion_id} line at {centre:.1f} MHz (excess {excess[ion_id]:g} counts)")
    singles = [value for ion_id, value in excess.items() if ion_id not in RESONANT_PAIR]
    if RESONANT_PAIR[0] not in excess or not singles:
        out.failures.append(f"ple: the resonant line or every single line lies outside the scan ({sorted(excess)})")
    elif not excess[RESONANT_PAIR[0]] >= MERGED_LINE_MIN_RATIO * statistics.fmean(singles):
        ratio = excess[RESONANT_PAIR[0]] / statistics.fmean(singles)
        out.failures.append(f"ple: the resonant line has {ratio:.2f} x a single line's counts, "
                            f"want >= {MERGED_LINE_MIN_RATIO}")


def check_sweep(op: Op, results: list[CommandResult]) -> list[str]:
    out = _Outputs(results, tuple(c.name for c in op.commands))
    field_values = _check_field_report(out, "field", op.geometry)

    voltage = None
    kv = out.key_values("resonance", ["voltage_v", "residual_detuning_mhz", "feasible"])
    if kv is not None:
        voltage = float(kv["voltage_v"])
        if kv["feasible"] != "true" or not abs(voltage) <= MAX_VOLTAGE_V:
            out.failures.append(f"resonance: voltage {voltage} V infeasible")
        if not abs(float(kv["residual_detuning_mhz"])) <= 1e-6:
            out.failures.append(f"resonance: residual {kv['residual_detuning_mhz']} MHz")
        if field_values is not None:
            (fa, sa), (fb, sb) = (ION_REGISTRY[i] for i in RESONANT_PAIR)
            scale = field_values["volts_to_field_v_per_cm_per_v"]
            expected = (fb - fa) / ((sa - sb) * scale / 1000.0)
            if not _close(voltage, expected, FIELD_REL_TOL):
                out.failures.append(f"resonance: voltage {voltage} V, closed form gives {expected} V")

    rows = out.table("ple", "ple_scan.csv", PLE_HEADER, PLE_POINTS)
    if rows is not None and field_values is not None and voltage is not None:
        _check_resonance_scan(out, rows, field_values["volts_to_field_v_per_cm_per_v"] * voltage)
    return out.failures


def check_counting(op: Op, results: list[CommandResult]) -> list[str]:
    out = _Outputs(results, tuple(c.name for c in op.commands))

    rows = out.table("fig2", "ple_scan.csv", PLE_HEADER, PLE_POINTS)
    if rows is not None and any(int(r[1]) < 0 for r in rows):
        out.failures.append("fig2/ple_scan.csv: negative counts")
    report = out.report("fig2", [])
    if report is not None:
        centres = sorted(v for k, v in report.items() if k.endswith("_center_mhz"))
        expected = sorted(f0 for f0, _ in ION_REGISTRY.values())
        if len(centres) != len(expected):
            out.failures.append(f"fig2: {len(centres)} peaks, want one per registry ion ({len(expected)})")
        else:
            for (value, stderr), f0 in zip(centres, expected):
                out.failures += _within_sigma(f"fig2 peak near {f0:g} MHz", value, stderr, f0, 2.0)

    out.table("fig3b", "decay.csv", ["time_us", "counts"], DECAY_BINS)
    tau = out.report("fig3b", ["tau_us"])
    if tau is not None:
        out.failures += _within_sigma("fig3b tau_us", *tau["tau_us"], EFFECTIVE_LIFETIME_US, 1.0)

    out.table("fig3c", "g2.csv", ["lag_pulses", "coincidences", "normalized"], G2_LAGS)
    g2 = out.report("fig3c", ["g2_zero"])
    if g2 is not None:
        out.failures += _within_sigma("fig3c g2_zero", *g2["g2_zero"], G2_ZERO_EXPECTED, 0.02)

    refit = out.report("fit_decay", ["tau_us", "amplitude", "background"])
    if refit is not None and tau is not None and not _close(refit["tau_us"][0], tau["tau_us"][0], SAME_REL_TOL):
        out.failures.append(f"fit_decay: tau {refit['tau_us'][0]} us, fig3b fitted {tau['tau_us'][0]} us")
    refit = out.report("fit_g2", ["g2_zero"])
    if refit is not None and g2 is not None and refit["g2_zero"][0] != g2["g2_zero"][0]:
        out.failures.append(f"fit_g2: g2(0) {refit['g2_zero'][0]}, fig3c estimated {g2['g2_zero'][0]}")
    return out.failures


def check_refine(op: Op, results: list[CommandResult]) -> tuple[list[str], dict[str, float] | None]:
    """Checks that need no oracle; returns the failures and the parsed field."""
    out = _Outputs(results, tuple(c.name for c in op.commands))
    values = _check_field_report(out, "field", op.geometry)
    return out.failures, values


def check_refine_oracle(values: dict[str, float], exact: tuple[float, float]) -> tuple[list[str], float]:
    """Compare the printed field with the exact discrete solution; returns (failures, relative error)."""
    e_par, e_perp = exact
    scale = math.hypot(e_par, e_perp)
    error = math.hypot(values["e_parallel_v_per_cm"] - e_par, values["e_perpendicular_v_per_cm"] - e_perp)
    rel = error / scale
    if not rel <= REFINE_REL_TOL:
        return [f"field: {rel:.3g} relative error against the exact solution (limit {REFINE_REL_TOL:g})"], rel
    return [], rel


def check(op: Op, results: list[CommandResult]) -> tuple[list[str], dict[str, float] | None]:
    """Failures of one op, and for refine the printed field the oracle check needs."""
    try:
        if op.workload == "refine":
            return check_refine(op, results)
        return {"sweep": check_sweep, "counting": check_counting}[op.workload](op, results), None
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
        return [f"unreadable output: {exc!r}"], None
