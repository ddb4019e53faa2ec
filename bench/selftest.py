"""Checker self-test: the output checks pass real outputs and reject corrupted ones.

Usage, from the repository root:

    python3 bench/selftest.py

Runs one op of each workload through the CLI, checks that its outputs
pass, then feeds the checks corrupted copies (a lifetime or peak off by
10 standard errors, a non-zero exit code, an exception, a truncated CSV,
a missing peak, a PLE line missing, shifted or not doubled at resonance,
a field off the exact solution by 1e-3 and by just over the refine
tolerance) and requires each one to be rejected. Exits 1 if a
clean op fails or a corruption passes.
"""

from __future__ import annotations

import copy
import os
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from oracle import exact_probe_field  # noqa: E402
from run import WORK, execute  # noqa: E402
from workloads import (  # noqa: E402
    EFFECTIVE_LIFETIME_US,
    G2_ZERO_EXPECTED,
    ION_REGISTRY,
    LINE_WINDOW_MHZ,
    REFINE_REL_TOL,
    RESONANT_PAIR,
    check,
    check_refine_oracle,
    make_ops,
)


def _result(results, name):
    return next(r for r in results if r.name == name)


def exit_code(name, code):
    def corrupt(results):
        _result(results, name).exit_code = code
    return corrupt


def raised(name):
    def corrupt(results):
        result = _result(results, name)
        result.exit_code, result.error = None, "Traceback: RuntimeError"
    return corrupt


def truncate(name, filename):
    def corrupt(results):
        files = _result(results, name).files
        files[filename] = files[filename][: int(len(files[filename]) * 0.6)]
    return corrupt


def off_by_sigmas(name, quantity, expected, sigmas=10.0):
    """Put a fit_report value ``sigmas`` of its own stderr away from the expected value."""
    def corrupt(results):
        files = _result(results, name).files
        lines = files["fit_report.csv"].splitlines(keepends=True)
        for i, line in enumerate(lines):
            fields = line.split(",")
            if fields[0] == quantity:
                fields[1] = repr(expected + sigmas * float(fields[2]))
                lines[i] = ",".join(fields)
        files["fit_report.csv"] = "".join(lines)
    return corrupt


def drop_rows(name, filename, prefix):
    def corrupt(results):
        files = _result(results, name).files
        files[filename] = "".join(
            line for line in files[filename].splitlines(keepends=True) if not line.startswith(prefix)
        )
    return corrupt


def edit_stdout(name, **transforms):
    def corrupt(results):
        result = _result(results, name)
        lines = []
        for line in result.stdout.splitlines():
            key, sep, value = line.partition("=")
            lines.append(f"{key}={transforms[key](value)}" if sep and key in transforms else line)
        result.stdout = "\n".join(lines) + "\n"
    return corrupt


# Field and line centres at the ion1/ion7 resonance follow from the registry alone.
RESONANT_FIELD = (ION_REGISTRY["ion7"][0] - ION_REGISTRY["ion1"][0]) / (
    (ION_REGISTRY["ion1"][1] - ION_REGISTRY["ion7"][1]) / 1000.0)
SINGLE = "ion3"  # a single line inside the scan at resonance


def _edit_scan(transform):
    def corrupt(results):
        files = _result(results, "ple").files
        header, *rows = files["ple_scan.csv"].splitlines()
        rows = [row.split(",") for row in rows]
        counts = transform([float(r[0]) for r in rows], [int(r[1]) for r in rows])
        files["ple_scan.csv"] = "\n".join([header] + [",".join([r[0], str(c), r[2]]) for r, c in zip(rows, counts)]) + "\n"
    return corrupt


def reshape_line(ion_id, factor):
    """Scale the line of ``ion_id`` above the scan's median background by ``factor``."""
    f0, coefficient = ION_REGISTRY[ion_id]
    centre = f0 + coefficient * RESONANT_FIELD / 1000.0

    def transform(frequencies, counts):
        background = statistics.median(counts)
        return [round(background + factor * (c - background)) if abs(f - centre) <= LINE_WINDOW_MHZ else c
                for f, c in zip(frequencies, counts)]
    return _edit_scan(transform)


def shift_scan(points):
    return _edit_scan(lambda frequencies, counts: counts[points:] + counts[:points])


def scaled(factor):
    return lambda value: repr(float(value) * factor)


CORRUPTIONS = {
    "sweep": {
        "field off by 1%": edit_stdout("field", e_parallel_v_per_cm=scaled(1.01),
                                       volts_to_field_v_per_cm_per_v=scaled(1.01)),
        "resonance infeasible": edit_stdout("resonance", feasible=lambda v: "false"),
        "resonance residual 1 kHz": edit_stdout("resonance", residual_detuning_mhz=lambda v: "0.001"),
        "resonance voltage off by 1%": edit_stdout("resonance", voltage_v=scaled(1.01)),
        "ple exit code 4": exit_code("ple", 4),
        "ple raised": raised("ple"),
        "ple ple_scan.csv truncated": truncate("ple", "ple_scan.csv"),
        f"ple {SINGLE} line missing": reshape_line(SINGLE, 0.0),
        "ple resonant line of one ion only": reshape_line(RESONANT_PAIR[0], 0.5),
        "ple lines 20 MHz off": shift_scan(4),
    },
    "counting": {
        "fig2 exit code 4": exit_code("fig2", 4),
        "fig2 ple_scan.csv truncated": truncate("fig2", "ple_scan.csv"),
        "fig2 one peak missing": drop_rows("fig2", "fit_report.csv", "peak7_"),
        "fig2 peak off by 10 sigma": off_by_sigmas("fig2", "peak3_center_mhz", -40.0),  # third-lowest ion
        "fig3b tau off by 10 sigma": off_by_sigmas("fig3b", "tau_us", EFFECTIVE_LIFETIME_US),
        "fig3b decay.csv truncated": truncate("fig3b", "decay.csv"),
        "fig3c g2(0) off by 10 sigma": off_by_sigmas("fig3c", "g2_zero", G2_ZERO_EXPECTED),
        "fig3c g2.csv truncated": truncate("fig3c", "g2.csv"),
        "fit decay disagrees with fig3b": off_by_sigmas("fit_decay", "tau_us", EFFECTIVE_LIFETIME_US, 1.0),
        "fit g2 exit code 5": exit_code("fit_g2", 5),
        "fit decay fit_report.csv truncated": truncate("fit_decay", "fit_report.csv"),
    },
    "refine": {
        "field exit code 3": exit_code("field", 3),
        "field raised": raised("field"),
        "field off the exact solution by 1e-3": edit_stdout("field", e_parallel_v_per_cm=scaled(1.001),
                                                            volts_to_field_v_per_cm_per_v=scaled(1.001)),
        # the clean op is at most REFINE_REL_TOL / 3 off, so this lands above the limit
        "field 1.5 x REFINE_REL_TOL further off": edit_stdout(
            "field", e_parallel_v_per_cm=scaled(1 + 1.5 * REFINE_REL_TOL),
            e_perpendicular_v_per_cm=scaled(1 + 1.5 * REFINE_REL_TOL),
            volts_to_field_v_per_cm_per_v=scaled(1 + 1.5 * REFINE_REL_TOL)),
        "voltage differs from the config": edit_stdout("field", voltage_v=lambda v: repr(float(v) + 1.0)),
        "stdout lacks the field": edit_stdout("field", e_parallel_v_per_cm=lambda v: ""),
    },
}


def _failures(op, results, exact):
    failures, values = check(op, results)
    if op.workload == "refine" and values is not None:
        failures += check_refine_oracle(values, exact)[0]
    return failures


def main() -> int:
    import starksim.cli as cli

    os.environ.pop("STARKSIM_THREADS", None)
    work = WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    ok = True
    try:
        for workload, corruptions in CORRUPTIONS.items():
            op = make_ops(workload, 1, 1)[0]
            _, results = execute(cli, op, work)
            exact = exact_probe_field(op.geometry) if workload == "refine" else None
            clean = _failures(op, results, exact)
            print(f"{workload}: clean op {'passes' if not clean else 'FAILS: ' + '; '.join(clean)}")
            ok &= not clean
            for label, corrupt in corruptions.items():
                broken = copy.deepcopy(results)
                corrupt(broken)
                failures = _failures(op, broken, exact)
                print(f"  {label:<40} {'rejected: ' + failures[0] if failures else 'NOT REJECTED'}")
                ok &= bool(failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
