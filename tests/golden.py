"""Golden outputs: a fixed matrix of starksim runs and what each one wrote.

Each run is one or more ``starksim.cli.main`` calls in a fresh temporary
working directory that holds the run's input files, with relative paths
(``--out`` and the inputs), so stdout is the same
on every machine. A run records the last call's exit code (or the class
of the exception that escaped ``main``), its stdout and stderr, the
warnings it raised, and the SHA-256 of every file the run wrote except
``manifest.json``, which holds times and host facts. Earlier calls of a
run only make its input and must exit 0.

The table, with the numpy version it was written under, is
``tests/fixtures/golden.json``; ``tests/test_golden.py`` reruns the
matrix and compares. Regenerate it, after a change to an output that is
meant, with::

    python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TABLE = TESTS / "fixtures" / "golden.json"
sys.path.insert(0, str(TESTS.parent / "src"))

import numpy as np  # noqa: E402

from starksim.cli import main  # noqa: E402

CONFIG = "in.toml"  # a run's config file, in its working directory; not an output


def _matrix() -> dict[str, tuple[dict[str, str], list[list[str]]]]:
    """Run name -> (its input files, name -> text, in its working directory, where ``CONFIG`` is passed to every
    call as ``--config`` and the defaults apply without it; the ``main`` argv of each call)."""
    runs: dict[str, tuple[dict[str, str], list[list[str]]]] = {}
    for seed in ("1", "7"):
        for figure in ("fig2", "fig3b", "fig3c", "fig4a", "fig4b"):
            runs[f"reproduce-{figure}-seed{seed}"] = ({}, [["reproduce", figure, "--seed", seed, "--out", "out"]])
        for kind in ("ple", "decay", "g2", "stark"):
            runs[f"{kind}-seed{seed}"] = ({}, [[kind, "--seed", seed, "--out", "out"]])
    retired = (TESTS / "fixtures" / "config_with_retired_keys.toml").read_text(encoding="utf-8")
    runs["reproduce-fig4b-retired-keys"] = ({CONFIG: retired}, [["reproduce", "fig4b", "--out", "out"]])
    runs["field"] = ({}, [["field"]])
    runs["field-1e308V"] = ({}, [["field", "--voltage", "1e308"]])
    runs["field-100V-dump-grid"] = ({}, [["field", "--voltage", "100", "--dump-grid", "--out", "out"]])
    for a, b in (("ion1", "ion7"), ("ion2", "ion3"), ("ion1", "nope")):
        runs[f"resonance-{a}-{b}"] = ({}, [["resonance", "--ion-a", a, "--ion-b", b]])
    # one zero-field frequency and a negative slope: the voltage is -0.0
    same_f0 = "".join(f'[[ions]]\nid = "{ion_id}"\nstark_coefficient_khz_per_v_cm = {s}\nzero_field_fwhm_mhz = 6.7\n'
                      for ion_id, s in (("a", 19.8), ("b", 30.0)))
    runs["resonance-same-f0-negative-slope"] = ({CONFIG: same_f0}, [["resonance", "--ion-a", "a", "--ion-b", "b"]])
    runs["ple-120V"] = ({}, [["ple", "--voltage", "120", "--out", "out"]])
    for kind, dataset in (("ple", "ple_scan.csv"), ("decay", "decay.csv"), ("g2", "g2.csv"), ("stark", "stark_scan.csv")):
        runs[f"fit-{kind}"] = ({}, [[kind, "--out", "data"],
                                    ["fit", "--kind", kind, "--input", f"data/{dataset}", "--out", "fit"]])
    # an id no registry may hold, quoted: its comma and line break once reached fit_report.csv unquoted
    runs["fit-stark-comma-id"] = (
        {"in.csv": 'ion_id,voltage_v,field_v_per_cm,frequency_mhz,counts\n"ion,1\nx",0,0,0,1\n'},
        [["fit", "--kind", "stark", "--input", "in.csv", "--out", "fit"]],
    )
    for width in ("0.1", "0.25", "0.5", "2.0", "2.5"):
        runs[f"reproduce-fig3b-{width}us-bins"] = (
            {CONFIG: f"[decay]\nbin_width_us = {width}\n"}, [["reproduce", "fig3b", "--out", "out"]]
        )
    # fig2's fit stage refuses fewer than 8 distinct frequencies, ion1's line held or none
    for name, scan in (("7-points", "[-15.0, 15.0]"), ("3-points-no-line", "[100.0, 110.0]")):
        runs[f"reproduce-fig2-{name}"] = (
            {CONFIG: f"[protocol]\nscan_range_mhz = {scan}\n"}, [["reproduce", "fig2", "--out", "out"]]
        )
    runs["decay-100us-bin"] = ({CONFIG: "[decay]\nbin_width_us = 100.0\n"}, [["decay", "--out", "out"]])
    runs["reproduce-fig3b-lifetime-underflows"] = (
        {CONFIG: "[emitter]\nbulk_lifetime_ms = 5e-324\nenhancement_factor = 1e300\n"},
        [["reproduce", "fig3b", "--out", "out"]],
    )
    bad = {  # one key each, refused at load time
        "decay-n_pulses": ("[decay]\nn_pulses = 0\n", "decay"),
        "detector-dark_rate_hz": ("[detector]\ndark_rate_hz = 1e20\n", "decay"),
        "protocol-scan_pitch_mhz": ("[protocol]\nscan_pitch_mhz = -1.0\n", "ple"),
        "stark-window_half_width_mhz": ("[stark]\nwindow_half_width_mhz = 1e308\n", "stark"),
        "layout-gap_um": ("[layout]\ngap_um = nan\n", "field"),
        "run-seed": ("[run]\nseed = -5\n", "g2"),
        "run-seed-nested-3000-deep": ("[run]\nseed = " + "[" * 3000 + "]" * 3000 + "\n", "decay"),
    }
    for name, (text, command) in bad.items():
        runs[f"bad-{name}"] = ({CONFIG: text}, [[command, "--out", "out"]])
    # no --out, so the run reads the output_dir it refuses
    runs["bad-run-output_dir-nul"] = ({CONFIG: '[run]\noutput_dir = "a\\u0000b"\n'}, [["decay"]])
    return runs


def _call(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    # every warning recorded, whatever filters the caller (pytest, say) has set
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code: int | str = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaped exception is an outcome to record
            code = type(exc).__name__
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def run_matrix() -> dict:
    """Every run of the matrix, by name, as the table records it."""
    records = {}
    cwd = os.getcwd()
    for name, (inputs, calls) in _matrix().items():
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                for input_name, text in inputs.items():
                    Path(input_name).write_text(text, encoding="utf-8")
                options = ["--config", CONFIG] if CONFIG in inputs else []
                for argv in calls[:-1]:
                    setup = _call([*argv, *options])
                    assert setup["exit"] == 0, (name, argv, setup)
                record = _call([*calls[-1], *options])
                record["files"] = {
                    path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(Path().rglob("*"))
                    if path.is_file() and path.name != "manifest.json" and path.as_posix() not in inputs
                }
            finally:
                os.chdir(cwd)
        records[name] = record
    return records


if __name__ == "__main__":
    table = {"numpy": np.__version__, "runs": run_matrix()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(TABLE)
