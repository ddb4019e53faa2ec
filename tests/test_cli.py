import argparse
import contextlib
import itertools
import json
import math
import os
import re
import shlex
import signal
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from starksim import cli
from starksim.analysis import fit_exponential_decay
from starksim.cli import (
    EXIT_CONFIG,
    EXIT_FITTING,
    EXIT_NO_RESONANCE,
    EXIT_OK,
    EXIT_SIMULATION,
    EXIT_SOLVER,
    EXIT_VOLTAGE_RANGE,
    FAILURES,
    FIGURES,
    FITS,
    GRID_COLUMNS,
    REPORT_COLUMNS,
    main,
)
from starksim.config import (
    config_file_digest,
    config_to_dict,
    default_config,
    dump_toml,
    dumps_config,
    load_config,
    loads_config,
)
from starksim.csvio import read_table
from starksim.electrostatics import solve_potential
from starksim.stark import VoltageOutOfRangeError, resonance_voltage


# the rows of a default decay.csv's noiseless histogram: 1 us bins over the 85 us window
DECAY_ROWS = [f"{i + 0.5},{round(1200.0 * math.exp(-(i + 0.5) / 41.0) + 20.0)}\n" for i in range(85)]
# eight scan rows of background, no line: smoothed, their one local maximum stands 1 count above its valleys,
# against the 5 sqrt(median) = 9.4 counts of a peak
PLE_ROWS = [f"{f:.1f},{c},5.0\n" for f, c in zip(np.arange(-20.0, 20.0, 5.0), (3, 4, 3, 5, 4, 3, 4, 3))]


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.toml"
    path.write_text(dumps_config(default_config()), encoding="utf-8")
    return path


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.toml"
    path.write_text(
        "[decay]\nn_pulses = 500000\n\n[g2]\nn_pulses = 200000\n\n"
        "[stark]\nvoltages_v = [-333.0, 0.0, 333.0]\n",
        encoding="utf-8",
    )
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(capsys, *argv):
    """``run`` with every warning an error, so a run that would print a
    warning block to stderr ahead of its own lines fails instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


def reproduce_pulls(capsys, tmp_path, figure, seeds, truth):
    """{quantity: its pulls (value - truth) / stderr} over ``reproduce figure`` at each seed."""
    pulls = {quantity: [] for quantity in truth}
    for seed in seeds:
        out_dir = tmp_path / f"{figure}-{seed}"
        code, _, err = run(capsys, "reproduce", figure, "--seed", seed, "--out", out_dir)
        assert code == EXIT_OK, err
        quantities, values, stderrs, _ = read_table(out_dir / "fit_report.csv", REPORT_COLUMNS)
        report = dict(zip(quantities, zip(values, stderrs)))
        for quantity, expected in truth.items():
            value, stderr = report[quantity]
            pulls[quantity].append((value - expected) / stderr)
    return pulls


def assert_calibrated(pulls):
    """Each quantity's pulls have |mean| <= 0.3 and sd in [0.8, 1.2]: its reported error is its spread."""
    stats = {quantity: (statistics.fmean(p), statistics.stdev(p)) for quantity, p in pulls.items()}
    off = {quantity: f"mean {mean:.3f}, sd {sd:.3f}" for quantity, (mean, sd) in stats.items()
           if not (abs(mean) <= 0.3 and 0.8 <= sd <= 1.2)}
    assert not off, off


class TestFieldCommand:
    def test_prints_probe_field_and_scale(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "field", "--config", config_path, "--out", out_dir)
        assert code == EXIT_OK
        values = dict(line.split("=") for line in out.splitlines() if "=" in line)
        assert float(values["voltage_v"]) == 333.0
        assert float(values["e_parallel_v_per_cm"]) == pytest.approx(21652.534344268526)
        assert float(values["volts_to_field_v_per_cm_per_v"]) == pytest.approx(65.02262565846404)
        assert (out_dir / "manifest.json").exists()

    def test_grid_dump(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "field", "--config", config_path, "--out", out_dir, "--dump-grid")
        assert code == EXIT_OK
        path = out_dir / "potential_grid.csv"
        assert str(path) in out
        assert path.read_text().splitlines()[0] == "x_um,y_um,potential_v"
        # one row per node, x fastest, every value read back exactly
        config = default_config()
        grid = solve_potential(config.layout, config.solver.spacing_um)
        x, y, potential = read_table(path, GRID_COLUMNS)
        rows, columns = grid.values.shape
        assert np.array_equal(x, np.tile(grid.x_coords_um, rows))
        assert np.array_equal(y, np.repeat(grid.y_coords_um, columns))
        assert np.array_equal(potential, (config.layout.bias_v * grid.values).ravel())  # the bias times the per-volt grid

    def test_zero_voltage(self, capsys, config_path, tmp_path):
        code, out, _ = run(capsys, "field", "--config", config_path, "--voltage", 0, "--out", tmp_path)
        assert code == EXIT_OK
        values = dict(line.split("=") for line in out.splitlines())
        assert float(values["e_parallel_v_per_cm"]) == 0.0
        assert float(values["volts_to_field_v_per_cm_per_v"]) > 0.0

    def test_zero_voltage_grid_dump_is_zero(self, capsys, config_path, tmp_path):
        # the dump is the per-volt grid times 0 V: "0" in every cell, never "-0"
        code, _, _ = run(
            capsys, "field", "--config", config_path, "--voltage", 0, "--out", tmp_path, "--dump-grid"
        )
        assert code == EXIT_OK
        rows = (tmp_path / "potential_grid.csv").read_text().splitlines()[1:]
        assert rows and {row.rsplit(",", 1)[1] for row in rows} == {"0"}

    def test_malformed_config_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("[layout]\ngap_um =\n", encoding="utf-8")
        code, _, err = run(capsys, "field", "--config", bad)
        assert code == EXIT_CONFIG
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text, argv, bias",
        [
            ("", ["--voltage", "1e308"], "1e+308"),
            # finite potentials whose bias overflows to inf
            ("[layout]\nelectrode_potentials_v = [1e308, -1e308]\n", [], "inf"),
        ],
        ids=["voltage-flag", "config-bias"],
    )
    def test_non_finite_solve_exits_3(self, capsys, tmp_path, text, argv, bias):
        path = tmp_path / "huge.toml"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_strict(capsys, "field", "--config", path, *argv)
        assert (code, out) == (EXIT_SOLVER, "")
        # the one error line, naming the bias, with no numpy warning ahead of it
        assert err == f"error: the probe field overflows at a bias of {bias} V\n"

    def test_scale_is_one_number_at_every_voltage(self, capsys):
        # one per-volt solve: the scale prints byte-identical at every bias, and the field is scale * V exactly
        reports = []
        for voltage in (0.0, 1.0, 100.0, 333.0, -333.0):
            code, out, _ = run(capsys, "field", "--voltage", voltage)
            assert code == EXIT_OK
            reports.append(dict(line.split("=") for line in out.splitlines()))
            scale = float(reports[-1]["volts_to_field_v_per_cm_per_v"])
            assert float(reports[-1]["e_parallel_v_per_cm"]) == scale * voltage
        assert len({report["volts_to_field_v_per_cm_per_v"] for report in reports}) == 1

    @pytest.mark.parametrize(
        "argv",
        [["resonance", "--ion-a", "ion1", "--ion-b", "ion7"], ["reproduce", "fig4a"], ["ple", "--voltage", "10"]],
        ids=["resonance", "fig4a", "ple"],
    )
    def test_commands_with_their_own_voltage_ignore_the_potentials(self, capsys, tmp_path, argv):
        # resonance finds its voltage, fig4a sweeps [stark] voltages_v and ple takes --voltage:
        # none reads the layout's potentials, not even a pair whose bias overflows
        runs = []
        for index, potentials in enumerate(("[50.0, -50.0]", "[166.5, -166.5]", "[1e308, -1e308]")):
            path, out_dir = tmp_path / f"layout{index}.toml", tmp_path / f"out{index}"
            path.write_text(f"[layout]\nelectrode_potentials_v = {potentials}\n", encoding="utf-8")
            code, out, err = run_strict(capsys, *argv, "--config", path, "--out", out_dir)
            files = {f.name: f.read_bytes() for f in out_dir.iterdir() if f.name not in ("manifest.json", "config.toml")}
            runs.append((code, out.replace(str(out_dir), "<out>"), err, files))
        assert runs[0][0] == EXIT_OK
        assert runs[0] == runs[1] == runs[2]


class TestSolverSettings:
    def field_with(self, capsys, tmp_path, solver_text):
        path = tmp_path / "solver.toml"
        path.write_text("[solver]\n" + solver_text, encoding="utf-8")
        return run(capsys, "field", "--config", path, "--out", tmp_path / "out")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_tolerance_exits_2(self, capsys, tmp_path, value):
        # a retired key is still checked as a finite number
        code, _, err = self.field_with(capsys, tmp_path, f"tolerance_v = {value}\n")
        assert code == EXIT_CONFIG
        assert "[solver].tolerance_v" in err

    def test_retired_keys_load_and_are_dropped(self, capsys, tmp_path):
        # the solve is exact, so the iterative solver's stopping rule is retired
        code, out, _ = self.field_with(capsys, tmp_path, "tolerance_v = 0.0\nmax_iterations = 0\n")
        assert code == EXIT_OK
        assert (tmp_path / "out" / "config.toml").read_text(encoding="utf-8") == dumps_config(default_config())
        assert out == run(capsys, "field")[1]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spacing_exits_2(self, capsys, tmp_path, value):
        code, _, err = self.field_with(capsys, tmp_path, f"spacing_um = {value}\n")
        assert code == EXIT_CONFIG
        assert "[solver].spacing_um" in err

    def test_relaxation_factor_is_unknown(self, capsys, tmp_path):
        code, _, err = self.field_with(capsys, tmp_path, "relaxation_factor = 1.9\n")
        assert code == EXIT_CONFIG
        assert "unknown key" in err

    def test_non_finite_potential_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.toml"
        path.write_text("[layout]\nelectrode_potentials_v = [nan, -1.0]\n", encoding="utf-8")
        code, _, err = run(capsys, "field", "--config", path, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "[layout].electrode_potentials_v" in err


class TestLoadTimeChecks:
    """Bad input fails at load time with exit 2, naming the offending key."""

    def run_with(self, capsys, tmp_path, text, *argv):
        path = tmp_path / "bad.toml"
        path.write_text(text, encoding="utf-8")
        return run(capsys, *argv, "--config", path, "--out", tmp_path / "out")

    @pytest.mark.parametrize(
        "section, key, value, argv",
        [
            ("layout", "gap_um", "nan", ["field"]),
            ("layout", "domain_extent_um", "[nan, 600.0]", ["field"]),
            ("layout", "electrode_potentials_v", "[1.0, -inf]", ["field"]),
            ("protocol", "integration_time_s", "inf", ["ple"]),
            ("detector", "dark_rate_hz", "nan", ["reproduce", "fig2"]),
            ("cavity", "quality_factor", "nan", ["reproduce", "fig2"]),
            ("run", "max_voltage_v", "nan", ["resonance", "--ion-a", "ion1", "--ion-b", "ion7"]),
            ("decay", "bin_width_us", "nan", ["decay"]),
            ("dielectric", "relative_permittivity_below", "nan", ["field"]),
            ("stark", "voltages_v", "[0.0, nan, 333.0]", ["stark"]),
            # an integer beyond the float range
            pytest.param("layout", "gap_um", "1" + "0" * 400, ["field"], id="layout-gap_um-huge-int"),
        ],
    )
    def test_non_finite_number_exits_2(self, capsys, tmp_path, section, key, value, argv):
        code, out, err = self.run_with(capsys, tmp_path, f"[{section}]\n{key} = {value}\n", *argv)
        assert code == EXIT_CONFIG
        assert f"[{section}].{key} must be finite" in err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, where, argv",
        [
            ("[decay]\nn_pulses = 0\n", "[decay].n_pulses", ["reproduce", "fig3b"]),
            ("[g2]\nmax_lag = 0\n", "[g2].max_lag", ["reproduce", "fig3c"]),
            ("[g2]\nn_pulses = 10\nmax_lag = 10\n", "[g2].n_pulses", ["reproduce", "fig3c"]),
            ("[g2]\nbackground_fraction = 1.0\n", "[g2].background_fraction", ["reproduce", "fig3c"]),
            ("[stark]\nvoltages_v = []\n", "[stark].voltages_v", ["reproduce", "fig4a"]),
            ("[stark]\nvoltages_v = [0.0, 333.0]\n", "[stark].voltages_v", ["reproduce", "fig4a"]),
            ("[run]\nmax_voltage_v = 0.0\n", "[run].max_voltage_v", ["ple", "--voltage", "0"]),
            ("[run]\nseed = -5\n", "[run].seed", ["reproduce", "fig3b"]),
            ("[run]\nseed = 18446744073709551616\n", "[run].seed", ["reproduce", "fig3b"]),
            # 11.4 ms / 1e6 gives a lifetime limit of 13.96 MHz, above every registry linewidth
            ("[emitter]\nenhancement_factor = 1e6\n",
             "[emitter] with ion 'ion1': linewidth 6.7 MHz is below the lifetime limit",
             ["reproduce", "fig3b"]),
            # retired, but still checked as a string
            ("[decay]\nion_id = 5\n", "[decay].ion_id: expected a string", ["reproduce", "fig3b"]),
            # the one ion_id still checked against the registry
            ('[stark]\nion_id = "ion99"\n', "[stark].ion_id 'ion99' is not in the ion registry",
             ["reproduce", "fig4a"]),
            ("[emitter]\nbulk_lifetime_ms = 0.0\n", "[emitter].bulk_lifetime_ms must be positive, got 0.0",
             ["reproduce", "fig3b"]),
            ("[emitter]\nenhancement_factor = 0.5\n", "[emitter].enhancement_factor must be >= 1, got 0.5",
             ["reproduce", "fig3b"]),
            # checked against [run] max_voltage_v at load time, not when the sweep reaches 400 V
            ("[stark]\nvoltages_v = [0.0, 100.0, 400.0]\n",
             "[stark].voltages_v holds 400 V, outside the +/-333 V of [run].max_voltage_v", ["stark"]),
            ("[decay]\nbin_width_us = 0.0\n", "[decay].bin_width_us must be positive, got 0.0", ["decay"]),
            ("[stark]\nwindow_half_width_mhz = -5.0\n", "[stark].window_half_width_mhz must be positive, got -5.0",
             ["reproduce", "fig4a"]),
            # checked as solve_potential checks it, though fig2 solves no field
            ("[solver]\nspacing_um = 10.0\n", "[solver].spacing_um must lie in (0, gap/20 = 5] um, got 10.0",
             ["reproduce", "fig2"]),
            # inside the 1000 um box, but the field stencil of a 5 um grid reaches past its edge
            ("[layout]\nprobe_point_um = [498.0, 0.0]\n",
             "[layout].probe_point_um (498.0, 0.0) um is not one cell (5 um) inside the grid's edge",
             ["reproduce", "fig4b"]),
            # values of the wrong shape
            ("[stark]\nvoltages_v = 3.0\n", "[stark].voltages_v: expected an array", ["reproduce", "fig4a"]),
            ("[layout]\nprobe_point_um = [1.0]\n", "[layout].probe_point_um: expected an array of 2 numbers",
             ["field"]),
            ("[[ions]]\nzero_field_fwhm_mhz = 6.7\n", "[[ions]]: missing key 'id'", ["reproduce", "fig2"]),
            ("ions = 3\n", "[[ions]] must be a table array", ["reproduce", "fig2"]),
        ],
    )
    def test_out_of_range_exits_2(self, capsys, tmp_path, text, where, argv):
        code, out, err = self.run_with(capsys, tmp_path, text, *argv)
        assert code == EXIT_CONFIG
        assert where in err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, where, argv",
        [
            # each of the first four once ended in a traceback after the manifest was written
            ("[protocol]\nscan_range_mhz = [-1e308, 1e308]\n", "[protocol].scan_range_mhz", ["ple"]),
            ("[protocol]\nscan_range_mhz = [-1e307, 1e307]\n", "[protocol].scan_range_mhz", ["ple"]),
            ("[stark]\nwindow_half_width_mhz = 1e308\n", "[stark].window_half_width_mhz", ["stark"]),
            ("[decay]\nn_pulses = 100000000000000000000\n", "[decay].n_pulses", ["decay"]),
            ("[protocol]\nintegration_time_s = 1e300\n", "[protocol].integration_time_s", ["ple"]),
            ("[g2]\nn_pulses = 9223372036854775808\n", "[g2].n_pulses", ["g2"]),
            # each below 2**63, but its largest array exceeds numpy's 2**63 - 1 bytes: each ended in a traceback
            ("[protocol]\nscan_range_mhz = [-1e6, 1e6]\nscan_pitch_mhz = 3e-13\n", "[protocol].scan_range_mhz", ["ple"]),
            ("[g2]\nn_pulses = 4000000000000000000\n", "[g2].n_pulses", ["g2"]),
            ("[decay]\nbin_width_us = 1e-17\n", "[decay].bin_width_us", ["decay"]),
            ("[decay]\nbin_width_us = 1e-300\n", "[decay].bin_width_us", ["decay"]),
            ("[layout]\ndomain_extent_um = [1e30, 1e30]\n",
             "[layout].domain_extent_um at [solver].spacing_um = 5 um", ["field"]),
            ("[layout]\ndomain_extent_um = [1e300, 600.0]\n",
             "[layout].domain_extent_um at [solver].spacing_um = 5 um", ["field"]),
            ("[solver]\nspacing_um = 1e-300\n", "[layout].domain_extent_um at [solver].spacing_um = 1e-300 um", ["field"]),
            # an infinite count of nodes, which once raised OverflowError inside the load-time grid check
            ("[solver]\nspacing_um = 5e-324\n",
             "[layout].domain_extent_um at [solver].spacing_um = 4.94066e-324 um", ["reproduce", "fig3c"]),
        ],
    )
    def test_count_numpy_cannot_hold_exits_2(self, capsys, tmp_path, text, where, argv):
        # refused at load time, before any array is made
        code, out, err = self.run_with(capsys, tmp_path, text, *argv)
        assert code == EXIT_CONFIG
        pattern = rf"{re.escape(where)} gives a count of \S+, above numpy's largest, \S+\n"
        assert re.fullmatch("error: invalid configuration: " + pattern, err), err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, where, argv",
        [
            # each once ended in a traceback from numpy's Poisson sampler after the manifest was written
            ("[detector]\ndark_rate_hz = 1e20\n", "[detector].dark_rate_hz", ["ple"]),
            ("[detector]\ndark_rate_hz = 1e20\n", "[detector].dark_rate_hz", ["decay"]),
            ("[detector]\ndark_rate_hz = 1e20\n", "[detector].dark_rate_hz", ["reproduce", "fig4a"]),
            ("[g2]\nbackground_fraction = 0.9999999999999999\n", "[g2].background_fraction", ["g2"]),
        ],
    )
    def test_poisson_mean_numpy_refuses_exits_2(self, capsys, tmp_path, text, where, argv):
        code, out, err = self.run_with(capsys, tmp_path, text, *argv)
        assert code == EXIT_CONFIG
        pattern = rf"{re.escape(where)} gives a Poisson mean of \S+, above numpy's largest, 9.223e\+18\n"
        assert re.fullmatch("error: invalid configuration: " + pattern, err), err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, where",
        [
            *((f"[protocol]\n{key} = -1.0\n", f"[protocol].{key} must be positive, got -1.0")
              for key in ("pulse_length_us", "repetition_rate_khz", "window_delay_us", "window_length_us",
                          "integration_time_s", "scan_pitch_mhz")),
            ("[protocol]\nwindow_length_us = 95.0\n",
             "[protocol] pulse_length_us + window_delay_us + window_length_us = 10 + 1 + 95 us exceed the "
             "repetition period, 100 us at repetition_rate_khz = 10"),
            ("[protocol]\nscan_range_mhz = [300.0, -300.0]\n",
             "[protocol].scan_range_mhz must be increasing, got (300.0, -300.0)"),
            ("[detector]\ntotal_efficiency = 1.5\n", "[detector].total_efficiency must lie in [0, 1], got 1.5"),
            ("[detector]\ndark_rate_hz = -1.0\n", "[detector].dark_rate_hz must be >= 0, got -1.0"),
            ("[layout]\ngap_um = -1.0\n", "[layout].gap_um must be positive, got -1.0"),
            ("[layout]\nelectrode_width_um = 0.0\n", "[layout].electrode_width_um must be positive, got 0.0"),
            ("[layout]\ndomain_extent_um = [880.0, 600.0]\n",
             "[layout].domain_extent_um width 880.0 um leaves less than 2x gap margin around the electrodes"),
            ("[layout]\ndomain_extent_um = [1000.0, 300.0]\n",
             "[layout].domain_extent_um height 300.0 um leaves less than 2x gap margin around the surface"),
            ('[[ions]]\nid = "a"\nstark_coefficient_khz_per_v_cm = 1.0\nzero_field_fwhm_mhz = 0.0\n',
             "[[ions]].zero_field_fwhm_mhz of 'a' must be positive, got 0.0"),
            ('[[ions]]\nid = "a"\nstark_coefficient_khz_per_v_cm = 1.0\nzero_field_fwhm_mhz = 5.0\n'
             "broadening_mhz_per_kv_cm = -1.0\n",
             "[[ions]].broadening_mhz_per_kv_cm of 'a' must be >= 0, got -1.0"),
            ('[[ions]]\nid = "a"\nstark_coefficient_khz_per_v_cm = 1.0\nzero_field_fwhm_mhz = 5.0\n' * 2,
             "[[ions]].id 'a' is not unique"),
            ("[emitter]\nsaturation_excitation_prob = 1.5\n",
             "[emitter].saturation_excitation_prob must lie in [0, 1], got 1.5"),
            # each once loaded: the bin gave one row centred at 50 us; the lifetime ended in a ZeroDivisionError
            ("[decay]\nbin_width_us = 100.0\n",
             "[decay].bin_width_us = 100 us is wider than [protocol].window_length_us = 85 us"),
            ("[emitter]\nbulk_lifetime_ms = 5e-324\nenhancement_factor = 1e300\n",
             "[emitter] bulk_lifetime_ms = 5e-324 over enhancement_factor = 1e+300 gives a lifetime of 0 us"),
            # each ended in a traceback: tomllib's RecursionError; "embedded null byte" from os.mkdir
            ("[run]\nseed = " + "[" * 3000 + "]" * 3000 + "\n", "arrays or inline tables nest too deeply to parse"),
            ('[run]\noutput_dir = "a\\u0000b"\n', "[run].output_dir 'a\\x00b' may not hold a NUL"),
        ],
    )
    def test_refusal_names_key_and_value(self, capsys, tmp_path, text, where):
        code, out, err = self.run_with(capsys, tmp_path, text, "reproduce", "fig2")
        assert code == EXIT_CONFIG
        assert err == f"error: invalid configuration: {where}\n"
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ion_id", ['a"b', "a/b", "a b", "a#b", ""])
    def test_bad_ion_id_exits_2(self, capsys, tmp_path, ion_id):
        text = (
            f"[[ions]]\nid = {json.dumps(ion_id)}\nstark_coefficient_khz_per_v_cm = 1.0\n"
            "zero_field_fwhm_mhz = 5.0\n"
        )
        code, _, err = self.run_with(capsys, tmp_path, text, "reproduce", "fig4b")
        assert code == EXIT_CONFIG
        assert "[[ions]].id" in err

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_out_exits_2(self, capsys, tmp_path, below):
        # the manifest is written before the run, so no command starts its run
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        out_dir = blocker / below if below else blocker
        code, out, err = run(capsys, "reproduce", "fig3b", "--out", out_dir)
        assert code == EXIT_CONFIG
        assert err.startswith(f"error: cannot write output directory {out_dir}: ")
        assert out == "" and blocker.read_text(encoding="utf-8") == "not a directory\n"

    def test_quote_in_output_dir_round_trips_and_runs(self, capsys, tmp_path):
        # the writer escapes strings, so a '"' needs no rule of its own
        output_dir = tmp_path / 'runs"x'
        config = default_config()
        config = replace(config, run=replace(config.run, output_dir=str(output_dir)))
        text = dumps_config(config)
        assert loads_config(text) == config
        path = tmp_path / "quote.toml"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "reproduce", "fig3b", "--config", path)
        assert code == EXIT_OK
        assert out.splitlines() == [str(output_dir / "decay.csv"), str(output_dir / "fit_report.csv")]
        assert (output_dir / "config.toml").read_text(encoding="utf-8") == text

    def test_ple_voltage_beyond_the_limit_exits_2(self, capsys, tmp_path):
        # checked against [run] max_voltage_v before the manifest, as [stark] voltages_v is
        code, out, err = run(capsys, "ple", "--voltage", "-333.5", "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert err == "error: invalid configuration: --voltage -333.5 V is outside the +/-333 V of [run].max_voltage_v\n"
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["directory", "not utf-8", "missing"])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "config.toml"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b"\xff\xfe[layout]\n")
        code, out, err = run(capsys, "field", "--config", path, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        # load_config names the file in a ConfigError
        assert re.fullmatch(f"error: invalid configuration: {re.escape(str(path))}: [^\n]+\n", err), err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["field", "ple"])
    @pytest.mark.parametrize("voltage", ["nan", "inf", "-inf", "volts"])
    def test_non_finite_voltage_flag_exits_2(self, capsys, tmp_path, command, voltage):
        with pytest.raises(SystemExit) as exit_info:
            main([command, f"--voltage={voltage}", "--out", str(tmp_path / "out")])
        assert exit_info.value.code == EXIT_CONFIG
        assert "argument --voltage: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # mix_seed works modulo 2**64, so -1 and 2**65 - 1 would alias 2**64 - 1
    @pytest.mark.parametrize("seed", ["-1", "-5", "18446744073709551616", "36893488147419103231", "seven"])
    def test_seed_flag_outside_64_bits_exits_2(self, capsys, tmp_path, seed):
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "fig3b", f"--seed={seed}", "--out", str(tmp_path / "out")])
        assert exit_info.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: expected an integer in [0, 2**64)" in captured.err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "decay", "--seed", 2**64 - 1, "--out", tmp_path / "out")
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == 2**64 - 1


class TestResonanceCommand:
    def test_reports_voltage_and_residual(self, capsys, config_path):
        code, out, _ = run(capsys, "resonance", "--config", config_path, "--ion-a", "ion1", "--ion-b", "ion7")
        assert code == EXIT_OK
        values = dict(line.split("=") for line in out.splitlines())
        assert abs(float(values["voltage_v"])) <= 333.0
        assert float(values["residual_detuning_mhz"]) < 1e-3
        assert values["feasible"] == "true"

    def test_identical_ions_need_zero_volts(self, capsys, tmp_path):
        text = (
            "[[ions]]\nid = \"a\"\nstark_coefficient_khz_per_v_cm = 19.8\nzero_field_fwhm_mhz = 6.7\n"
            "[[ions]]\nid = \"b\"\nstark_coefficient_khz_per_v_cm = 19.8\nzero_field_fwhm_mhz = 6.7\n"
        )
        path = tmp_path / "same.toml"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "resonance", "--config", path, "--ion-a", "a", "--ion-b", "b")
        assert code == EXIT_OK
        assert "voltage_v=0" in out

    def test_zero_volts_print_without_a_sign(self, capsys, tmp_path):
        # one zero-field frequency and a negative slope: the voltage is 0 / (negative), -0.0
        text = (
            "[[ions]]\nid = \"a\"\nstark_coefficient_khz_per_v_cm = 19.8\nzero_field_fwhm_mhz = 6.7\n"
            "[[ions]]\nid = \"b\"\nstark_coefficient_khz_per_v_cm = 30.0\nzero_field_fwhm_mhz = 6.7\n"
        )
        path = tmp_path / "same_f0.toml"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "resonance", "--config", path, "--ion-a", "a", "--ion-b", "b")
        assert code == EXIT_OK
        assert out.splitlines() == ["voltage_v=0", "residual_detuning_mhz=0", "feasible=true"]

    def test_no_solution_exits_6(self, capsys, tmp_path):
        text = (
            "[[ions]]\nid = \"a\"\nstark_coefficient_khz_per_v_cm = 19.8\nzero_field_fwhm_mhz = 6.7\n"
            "zero_field_frequency_mhz = 0.0\n"
            "[[ions]]\nid = \"b\"\nstark_coefficient_khz_per_v_cm = 19.8\nzero_field_fwhm_mhz = 6.7\n"
            "zero_field_frequency_mhz = 80.0\n"
        )
        path = tmp_path / "nosol.toml"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "resonance", "--config", path, "--ion-a", "a", "--ion-b", "b")
        assert code == EXIT_NO_RESONANCE

    def test_out_of_range_exits_7_with_required_voltage(self, capsys, tmp_path):
        text = (
            "[[ions]]\nid = \"a\"\nstark_coefficient_khz_per_v_cm = 19.8\nzero_field_fwhm_mhz = 6.7\n"
            "zero_field_frequency_mhz = 0.0\n"
            "[[ions]]\nid = \"b\"\nstark_coefficient_khz_per_v_cm = -19.8\nzero_field_fwhm_mhz = 6.7\n"
            "zero_field_frequency_mhz = 100000.0\n"
        )
        path = tmp_path / "far.toml"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "resonance", "--config", path, "--ion-a", "a", "--ion-b", "b")
        assert code == EXIT_VOLTAGE_RANGE
        assert "required voltage" in err

    def test_probe_with_a_negative_field_per_volt_resonates(self, capsys, tmp_path):
        # beyond the right electrode the field along the axis points the other way
        path = tmp_path / "beyond.toml"
        path.write_text("[layout]\nprobe_point_um = [300.0, 5.0]\n", encoding="utf-8")
        code, out, _ = run(capsys, "field", "--config", path)
        assert code == EXIT_OK
        assert float(dict(line.split("=") for line in out.splitlines())["volts_to_field_v_per_cm_per_v"]) < 0.0
        code, out, _ = run(capsys, "resonance", "--config", path, "--ion-a", "ion1", "--ion-b", "ion2")
        assert code == EXIT_OK
        values = dict(line.split("=") for line in out.splitlines())
        assert float(values["voltage_v"]) == pytest.approx(61.0, abs=0.05)
        assert float(values["residual_detuning_mhz"]) <= 1e-6

    # "" is [stark] ion_id's default, the first ion, and no id the command line may give
    @pytest.mark.parametrize("ion_a, ion_b, unknown", [("ion1", "nope", "nope"), ("", "ion7", "")], ids=["nope", "empty"])
    def test_unknown_ion_exits_2(self, capsys, config_path, ion_a, ion_b, unknown):
        code, out, err = run(capsys, "resonance", "--config", config_path, "--ion-a", ion_a, "--ion-b", ion_b)
        assert code == EXIT_CONFIG
        assert out == "" and err == f"error: invalid configuration: unknown ion id {unknown!r}\n"

    def test_common_mode_potential_adds_no_field_per_volt(self, capsys, tmp_path):
        # an off-centre probe sees the common-mode field of an unbalanced
        # pair; the field per volt of bias, and with it the resonance
        # voltage, must not
        config = default_config()
        path = tmp_path / "layout.toml"
        unit_fields, voltages = [], []
        for potentials in ("[333.0, 0.0]", "[166.5, -166.5]"):
            path.write_text(
                f"[layout]\nprobe_point_um = [30.0, 10.0]\nelectrode_potentials_v = {potentials}\n",
                encoding="utf-8",
            )
            code, out, _ = run(capsys, "field", "--config", path)
            assert code == EXIT_OK
            report = dict(line.split("=") for line in out.splitlines())
            unit_fields.append(float(report["volts_to_field_v_per_cm_per_v"]))
            code, out, _ = run(capsys, "resonance", "--config", path, "--ion-a", "ion1", "--ion-b", "ion7")
            assert code == EXIT_OK
            voltages.append(float(dict(line.split("=") for line in out.splitlines())["voltage_v"]))
        assert unit_fields[0] == unit_fields[1]
        ion1, ion7 = config.ion("ion1"), config.ion("ion7")
        closed_form = resonance_voltage(ion1, ion7, unit_fields[0], config.run.max_voltage_v)
        assert voltages == pytest.approx([closed_form, closed_form], rel=1e-12)


class TestPipelines:
    def test_decay_then_fit(self, capsys, config_path, tmp_path):
        fast = tmp_path / "fast.toml"
        fast.write_text("[decay]\nn_pulses = 500000\n", encoding="utf-8")
        out_dir = tmp_path / "decay_out"
        code, out, _ = run(capsys, "decay", "--config", fast, "--out", out_dir)
        assert code == EXIT_OK
        decay_csv = out_dir / "decay.csv"
        assert decay_csv.exists()

        fit_dir = tmp_path / "fit_out"
        code, out, _ = run(
            capsys, "fit", "--config", fast, "--kind", "decay", "--input", decay_csv, "--out", fit_dir
        )
        assert code == EXIT_OK
        report = (fit_dir / "fit_report.csv").read_text().splitlines()
        assert report[0] == "quantity,value,stderr,units"
        tau_row = next(line for line in report if line.startswith("tau_us"))
        tau = float(tau_row.split(",")[1])
        assert 38.0 < tau < 44.0

    @pytest.mark.parametrize("bin_width_us", [2.0, 4.0, 10.0, 20.0])
    def test_lifetime_unbiased_when_bins_overrun_the_window(self, capsys, tmp_path, bin_width_us):
        # the 85 us window is no multiple of these bins: the histogram ends
        # at the last whole bin, and the fit takes every bin
        path = tmp_path / "bins.toml"
        path.write_text(f"[decay]\nbin_width_us = {bin_width_us}\n", encoding="utf-8")
        taus = []
        for seed in range(50):
            out_dir = tmp_path / f"seed{seed}"
            code, _, _ = run(capsys, "reproduce", "fig3b", "--config", path, "--seed", seed, "--out", out_dir)
            assert code == EXIT_OK
            report = (out_dir / "fit_report.csv").read_text().splitlines()
            taus.append(float(next(line for line in report if line.startswith("tau_us")).split(",")[1]))
        standard_error = statistics.stdev(taus) / math.sqrt(len(taus))
        assert abs(statistics.fmean(taus) - 11.4e3 / 278.0) < 3.0 * standard_error

    def test_fit_start_trims_bins(self, capsys, config, tmp_path):
        # fig3b fits the bins from [decay] fit_start_us on, on the floor of the whole histogram's bin width
        path = tmp_path / "start.toml"
        path.write_text("[decay]\nfit_start_us = 10.0\n", encoding="utf-8")
        assert run(capsys, "reproduce", "fig3b", "--config", path, "--out", tmp_path / "fig")[0] == EXIT_OK
        times, counts = read_table(tmp_path / "fig" / "decay.csv", FITS["decay"][1])
        keep = times >= 10.0
        fit = fit_exponential_decay(times[keep], counts[keep], config.detector.dark_mean(1.0, config.decay.n_pulses))
        _, values, stderrs, _ = read_table(tmp_path / "fig" / "fit_report.csv", REPORT_COLUMNS)
        assert values[:2].tolist() == [fit.value("tau_us"), fit.value("amplitude")]
        assert stderrs[:2].tolist() == [fit.stderr("tau_us"), fit.stderr("amplitude")]
        # a start past the window's last bin leaves nothing to fit
        path.write_text("[decay]\nfit_start_us = 85.0\n", encoding="utf-8")
        code, out, err = run(capsys, "reproduce", "fig3b", "--config", path, "--out", tmp_path / "late")
        assert code == EXIT_FITTING
        assert err == "error: fitting failed: need at least 4 bins from [decay] fit_start_us = 85 us, got 0\n"

    def test_g2_reproduction(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "g2_out"
        code, out, _ = run(capsys, "reproduce", "fig3c", "--config", config_path, "--out", out_dir)
        assert code == EXIT_OK
        report = (out_dir / "fit_report.csv").read_text()
        g2_value = float(report.splitlines()[1].split(",")[1])
        assert 0.06 <= g2_value <= 0.14

    @pytest.mark.parametrize("figure, quantity", [("fig3b", "tau_us"), ("fig3c", "g2_zero")])
    def test_reported_error_is_the_spread_over_seeds(self, capsys, config, tmp_path, figure, quantity):
        # the pull (value - truth) / stderr of 50 default runs has mean near 0 and sd near 1
        truth = {"tau_us": config.emitter.lifetime_us, "g2_zero": 1.0 - (1.0 - config.g2.background_fraction) ** 2}
        assert_calibrated(reproduce_pulls(capsys, tmp_path, figure, range(50), {quantity: truth[quantity]}))

    def test_darks_only_decay_fit_prints_one_error_line(self, capsys, tmp_path):
        # a darks-only histogram may leave the lifetime unconstrained, stall or
        # run out of iterations; each failing fit names the one cause, no
        # signal, in one error line with no warning ahead of it
        path = tmp_path / "darks.toml"
        path.write_text("[emitter]\nsaturation_excitation_prob = 0.0\n", encoding="utf-8")
        no_signal = r"error: fitting failed: no signal above the pinned floor: the counts exceed it by -?\d+\.\d "
        no_signal += r"standard errors\n"
        failures = 0
        for seed in range(40):
            code, _, err = run_strict(
                capsys, "reproduce", "fig3b", "--config", path, "--seed", seed, "--out", tmp_path / "out"
            )
            if (code, err) != (EXIT_OK, ""):
                assert code == EXIT_FITTING and re.fullmatch(no_signal, err), err
                failures += 1
        assert failures == 18  # of these 40 seeds; the other 22 fit the darks to some lifetime

    def test_fig2_lines_are_calibrated_over_seeds(self, capsys, config, tmp_path):
        # peaks matched to ions in frequency order; a window fit of each peak
        # alone read the widths of ion2 and ion1, 40 MHz apart, ~1.1 sd low
        lines = sorted(ion.line(0.0) for ion in config.ions)
        truth = {f"peak{k}_{name}": value for k, line in enumerate(lines, start=1)
                 for name, value in zip(("center_mhz", "fwhm_mhz"), line)}
        assert_calibrated(reproduce_pulls(capsys, tmp_path, "fig2", range(100), truth))

    @staticmethod
    def law_truth(ions):
        """{quantity: its configured value} of each line-law row of fig4's report for ``ions``."""
        return {f"{name}_{ion.ion_id}": value for ion in ions for name, value in (
            ("stark_coefficient", ion.stark_coefficient_khz_per_v_cm),
            ("zero_field_frequency", ion.zero_field_frequency_mhz),
            ("zero_field_fwhm", ion.zero_field_fwhm_mhz),
            ("broadening", ion.broadening_mhz_per_kv_cm),
        )}

    def test_fig4a_sweep_fit_is_calibrated_over_seeds(self, capsys, config, tmp_path):
        # [stark] ion_id's default, the first ion, alone in its windows
        assert_calibrated(reproduce_pulls(capsys, tmp_path, "fig4a", range(100), self.law_truth(config.ions[:1])))

    def test_fig4b_sweep_fit_is_calibrated_over_seeds(self, capsys, config, tmp_path):
        # 21 of the 49 windows hold another ion's line centre; each window draws every ion's line and one
        # likelihood fits all seven laws, so every run fits and all 28 quantities are calibrated
        truth = self.law_truth(config.ions)
        assert len(truth) == 28
        assert_calibrated(reproduce_pulls(capsys, tmp_path, "fig4b", range(100), truth))

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_ple_fit_reads_the_scan_in_frequency_order(self, capsys, tmp_path, order):
        assert run(capsys, "reproduce", "fig2", "--out", tmp_path / "fig")[0] == EXIT_OK
        header, *rows = (tmp_path / "fig" / "ple_scan.csv").read_text(encoding="utf-8").splitlines()
        rows = rows[::-1] if order == "reversed" else np.random.default_rng(5).permutation(rows).tolist()
        data = tmp_path / "ple_scan.csv"
        data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "fit", "--kind", "ple", "--input", data, "--out", tmp_path / "refit")
        assert code == EXIT_OK, err
        figure, refit = (read_table(tmp_path / name / "fit_report.csv", REPORT_COLUMNS) for name in ("fig", "refit"))
        assert np.array_equal(refit[0], figure[0]) and np.array_equal(refit[3], figure[3])
        assert refit[1] == pytest.approx(figure[1], rel=1e-9) and refit[2] == pytest.approx(figure[2], rel=1e-9)

    @staticmethod
    def fit_with_spike(capsys, tmp_path, frequency, counts, copies=1):
        """``fit --kind ple`` of the default scan with its row at ``frequency`` MHz set to ``counts``, each row
        written ``copies`` times."""
        assert run(capsys, "ple", "--out", tmp_path)[0] == EXIT_OK
        data = tmp_path / "ple_scan.csv"
        header, *rows = data.read_text(encoding="utf-8").splitlines()
        rows = [f"{frequency},{counts},{row.split(',')[2]}" if row.startswith(f"{frequency},") else row for row in rows]
        data.write_text("\n".join([header, *(row for row in rows for _ in range(copies))]) + "\n", encoding="utf-8")
        return run(capsys, "fit", "--kind", "ple", "--input", data, "--out", tmp_path / "x")

    def test_collapsed_line_names_its_peak(self, capsys, tmp_path):
        # a one-sample spike between the lines at 130 and 215 MHz is the
        # seventh peak in frequency order; its line narrows below pitch/2.
        # Every row twice keeps the pitch, the spacing of the distinct
        # frequencies: a pitch of 0 once let the spike through as a line
        for copies in (1, 2):
            code, out, err = self.fit_with_spike(capsys, tmp_path / str(copies), 170, 100, copies)
            assert code == EXIT_FITTING
            assert out == "" and err.startswith("error: fitting failed: peak7: fit collapsed to an unresolvable width ")

    @pytest.mark.parametrize("frequency, counts, peak", [(100, 200, "peak6"), (-100, 100, "peak3")])
    def test_line_collapsing_without_convergence_names_its_peak(self, capsys, tmp_path, frequency, counts, peak):
        # taller spikes narrow their line without end, so the fit runs out of
        # iterations; its last state still names the line, also with every row twice
        for copies in (1, 2):
            code, out, err = self.fit_with_spike(capsys, tmp_path / str(copies), frequency, counts, copies)
            assert code == EXIT_FITTING
            assert out == "" and err.startswith(f"error: fitting failed: {peak}: fit collapsed to an unresolvable width ")

    def test_ple_scan_csv_shape(self, capsys, tmp_path):
        fast = tmp_path / "fast.toml"
        fast.write_text("[protocol]\nscan_range_mhz = [-50.0, 50.0]\n", encoding="utf-8")
        out_dir = tmp_path / "ple_out"
        code, out, _ = run(capsys, "ple", "--config", fast, "--out", out_dir)
        assert code == EXIT_OK
        lines = (out_dir / "ple_scan.csv").read_text().splitlines()
        assert lines[0] == "frequency_offset_mhz,counts,integration_s"
        assert len(lines) == 1 + 21

    @pytest.mark.parametrize(
        "kind, figure, dataset, extra, rows",
        [
            ("ple", "fig2", "ple_scan.csv", "", None),
            ("decay", "fig3b", "decay.csv", "", None),
            # 0.7 us bins: the centres in the CSV do not give back the simulator's edges exactly
            ("decay", "fig3b", "decay.csv", "bin_width_us = 0.7\n", None),
            # 20 us bins: the 85 us window is no multiple of them, and the histogram ends at the last whole bin
            ("decay", "fig3b", "decay.csv", "bin_width_us = 20.0\n", None),
            # the fit reads only the bins from 10 us on
            ("decay", "fig3b", "decay.csv", "fit_start_us = 10.0\n", None),
            ("g2", "fig3c", "g2.csv", "", None),
            ("stark", "fig4a", "stark_scan.csv", "", None),
            ("stark", "fig4b", "stark_scan.csv", "", None),
            # the fit steps read their rows in axis order, whatever the file's
            ("ple", "fig2", "ple_scan.csv", "", "reversed"),
            ("decay", "fig3b", "decay.csv", "", "reversed"),
            ("g2", "fig3c", "g2.csv", "", "reversed"),
            # every row twice: the same likelihood doubled, so the same optimum with errors over sqrt(2)
            ("ple", "fig2", "ple_scan.csv", "", "twice"),
        ],
        ids=["ple-fig2", "decay-fig3b", "decay-fig3b-0.7us-bins", "decay-fig3b-20us-bins", "decay-fig3b-fit-start-10us",
             "g2-fig3c", "stark-fig4a", "stark-fig4b", "ple-fig2-reversed", "decay-fig3b-reversed",
             "g2-fig3c-reversed", "ple-fig2-twice"],
    )
    def test_fit_refits_its_figure(self, capsys, fast_config, tmp_path, kind, figure, dataset, extra, rows):
        # fit runs the figure's own fit step on the figure's CSV, so its
        # report is the figure's; the default registry's scan holds seven
        # lines, so the ple refit must run fig2's fit of every line, not one
        # Lorentzian over the spectrum
        config = tmp_path / "refit.toml"
        config.write_text(fast_config.read_text(encoding="utf-8").replace("[decay]\n", "[decay]\n" + extra),
                          encoding="utf-8")
        fig = tmp_path / "fig"
        assert run(capsys, "reproduce", figure, "--config", config, "--out", fig)[0] == EXIT_OK
        data = fig / dataset
        if rows is not None:
            header, *lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
            data = tmp_path / dataset
            data.write_text(header + "".join(lines[::-1] if rows == "reversed" else [line * 2 for line in lines]),
                            encoding="utf-8")
        code, out, _ = run(
            capsys, "fit", "--config", config, "--kind", kind,
            "--input", data, "--out", tmp_path / "refit",
        )
        assert code == EXIT_OK
        assert out.splitlines() == [str(tmp_path / "refit" / "fit_report.csv")]
        if rows == "twice":
            report, doubled = (read_table(path / "fit_report.csv", REPORT_COLUMNS) for path in (fig, tmp_path / "refit"))
            assert np.array_equal(doubled[0], report[0]) and np.array_equal(doubled[3], report[3])
            assert doubled[1] == pytest.approx(report[1], rel=1e-9)
            assert doubled[2] == pytest.approx(report[2] / math.sqrt(2.0), rel=1e-9)
        else:
            refit = (tmp_path / "refit" / "fit_report.csv").read_bytes()
            assert refit == (fig / "fit_report.csv").read_bytes()

    @pytest.mark.parametrize(
        "command, figure, datasets",
        [
            ("ple", "fig2", ["ple_scan.csv"]),
            ("decay", "fig3b", ["decay.csv"]),
            ("g2", "fig3c", ["g2.csv"]),
            ("stark", "fig4a", ["stark_scan.csv"]),
        ],
        ids=["ple-fig2", "decay-fig3b", "g2-fig3c", "stark-fig4a"],
    )
    def test_dataset_command_writes_its_figures_bytes(
        self, capsys, fast_config, tmp_path, command, figure, datasets
    ):
        # ple, decay, g2 and stark are the no-fit forms of their figures
        a, b = tmp_path / "command", tmp_path / "figure"
        common = ["--config", fast_config, "--seed", 7]
        code_a, out_a, _ = run(capsys, command, *common, "--out", a)
        code_b, out_b, _ = run(capsys, "reproduce", figure, *common, "--out", b)
        assert code_a == code_b == EXIT_OK
        for name in [*datasets, "config.toml"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert out_a.splitlines() == [str(a / name) for name in datasets]
        assert out_b.splitlines() == [str(b / name) for name in [*datasets, "fit_report.csv"]]

    def test_g2_without_side_lags_exits_5(self, capsys, config_path, tmp_path):
        histogram = tmp_path / "g2.csv"
        histogram.write_text(
            "lag_pulses,coincidences,normalized\n-1,0,0\n0,4,0\n1,0,0\n2,0,0\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys, "fit", "--config", config_path, "--kind", "g2",
            "--input", histogram, "--out", tmp_path / "x",
        )
        assert code == EXIT_FITTING
        assert out == "" and err.startswith("error: fitting failed: need at least 3 nonzero side lags")

    def test_g2_ignores_the_detector_efficiency(self, capsys, fast_config, tmp_path):
        # g2's signal per pulse is saturation x P_window, with no [detector] total_efficiency, which the
        # decay reads: 0.5 against the default 0.01 changes decay.csv and leaves g2.csv byte for byte
        efficient = tmp_path / "efficient.toml"
        efficient.write_text(fast_config.read_text(encoding="utf-8") + "\n[detector]\ntotal_efficiency = 0.5\n",
                             encoding="utf-8")
        written = {}
        for config in (fast_config, efficient):
            for command, dataset in (("g2", "g2.csv"), ("decay", "decay.csv")):
                out = tmp_path / config.stem / command
                assert run(capsys, command, "--config", config, "--out", out)[0] == EXIT_OK
                written[config.stem, dataset] = (out / dataset).read_bytes()
        assert written["fast", "g2.csv"] == written["efficient", "g2.csv"]
        assert written["fast", "decay.csv"] != written["efficient", "decay.csv"]

    def test_g2_negative_coincidence_exits_5(self, capsys, config_path, tmp_path):
        # once estimated as g2_zero = -0.1227 and exit 0
        histogram = tmp_path / "g2.csv"
        histogram.write_text("lag_pulses,coincidences,normalized\n-2,40,1\n-1,38,1\n0,-5,0.0\n1,41,1\n2,44,1\n",
                             encoding="utf-8")
        code, out, err = run(
            capsys, "fit", "--config", config_path, "--kind", "g2",
            "--input", histogram, "--out", tmp_path / "x",
        )
        assert code == EXIT_FITTING
        assert out == "" and err == "error: fitting failed: coincidences must be >= 0\n"

    @pytest.mark.parametrize(
        "rows, message",
        [("-2,5,0\n-1,6,0\n1,5,0\n2,7,0\n", "need exactly one lag-0 bin, got 0"),
         ("-1,6,0\n0,1,0\n0,2,0\n1,5,0\n2,7,0\n", "lags must be distinct: lag 0 is in 2 rows")],
        ids=["no-lag-0", "two-lag-0"],
    )
    def test_g2_needs_one_lag_0_row(self, capsys, config_path, tmp_path, rows, message):
        histogram = tmp_path / "g2.csv"
        histogram.write_text("lag_pulses,coincidences,normalized\n" + rows, encoding="utf-8")
        code, out, err = run(
            capsys, "fit", "--config", config_path, "--kind", "g2",
            "--input", histogram, "--out", tmp_path / "x",
        )
        assert code == EXIT_FITTING
        assert out == "" and err == f"error: fitting failed: {message}\n"

    @pytest.mark.parametrize("twice", ["lag-5", "every-side-lag"])
    def test_g2_refuses_a_repeated_lag(self, capsys, fast_config, tmp_path, twice):
        # a repeated side lag once weighed twice in the side-lag mean, so in g2(0), and exited 0; the rows are
        # read in lag order, so a repeat is found wherever it is in the file
        fig = tmp_path / "fig"
        assert run(capsys, "reproduce", "fig3c", "--config", fast_config, "--out", fig)[0] == EXIT_OK
        header, *rows = (fig / "g2.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        lags = [int(row.split(",")[0]) for row in rows]
        if twice == "lag-5":
            repeated = rows + [rows[lags.index(5)]]
        else:
            repeated = rows[::-1] + [row for row, lag in zip(rows, lags) if lag != 0]
        histogram = tmp_path / "g2.csv"
        histogram.write_text(header + "".join(repeated), encoding="utf-8")
        code, out, err = run(capsys, "fit", "--config", fast_config, "--kind", "g2", "--input", histogram,
                             "--out", tmp_path / "x")
        assert code == EXIT_FITTING
        lag = 5 if twice == "lag-5" else min(lags)
        assert out == "" and err == f"error: fitting failed: lags must be distinct: lag {lag} is in 2 rows\n"

    @pytest.mark.parametrize(
        "kind, text, cell",
        [
            ("ple", "frequency_offset_mhz,counts,integration_s\n-5.0,3,5.0\n0.0,1.5,5.0\n",
             "row 3, column 'counts': expected int, got '1.5'"),
            ("g2", "lag_pulses,coincidences,normalized\n-1,6,1.0\n0,x,0.0\n",
             "row 3, column 'coincidences': expected int, got 'x'"),
            ("decay", "time_us,counts\n0.5,3\n1.5\n", "row 3 has 1 cells, want 2"),
            ("stark", "ion_id,voltage_v,field_v_per_cm,frequency_mhz,counts\nion1,0,0,-5,3\nion1,0,0,zero,4\n",
             "row 3, column 'frequency_mhz': expected float, got 'zero'"),
            ("ple", "frequency_offset_mhz,counts,integration_s\n-5.0,3,5.0\ninf,1,5.0\n",
             "row 3, column 'frequency_offset_mhz' must be finite, got 'inf'"),
            ("stark", "ion_id,voltage_v,field_v_per_cm,frequency_mhz,counts\nion1,0,nan,-5,3\n",
             "row 2, column 'field_v_per_cm' must be finite, got 'nan'"),
            ("decay", "time_us,counts\nnan,3\n1.5,4\n", "row 2, column 'time_us' must be finite, got 'nan'"),
            # a count numpy cannot hold as int64: once a traceback, or a float64 column that fitted
            ("decay", f"time_us,counts\n0.5,3\n1.5,{'9' * 400}\n",
             f"row 3, column 'counts' must fit in int64, got '{'9' * 400}'"),
            ("g2", "lag_pulses,coincidences,normalized\n-1,6,1.0\n0,9223372036854775808,0.0\n",
             "row 3, column 'coincidences' must fit in int64, got '9223372036854775808'"),
            # the file as a whole: no header at all, or another kind's
            ("decay", "", "empty CSV"),
            ("decay", "lag_pulses,coincidences,normalized\n-1,6,1.0\n",
             "unexpected header ['lag_pulses', 'coincidences', 'normalized'], want ['time_us', 'counts']"),
        ],
        ids=["ple-float-count", "g2-text-count", "decay-short-row", "stark-text-frequency",
             "ple-inf-frequency", "stark-nan-field", "decay-nan-time", "decay-400-digit-count", "g2-count-2**63",
             "decay-zero-bytes", "decay-of-a-g2-csv"],
    )
    def test_malformed_cell_names_file_row_and_column(self, capsys, config_path, tmp_path, kind, text, cell):
        data = tmp_path / f"{kind}.csv"
        data.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "fit", "--config", config_path, "--kind", kind, "--input", data, "--out", tmp_path / "x",
        )
        assert code == EXIT_FITTING
        assert out == "" and err == f"error: fitting failed: {data}: {cell}\n"

    @pytest.mark.parametrize(
        "kind, header, message",
        [("ple", "frequency_offset_mhz,counts,integration_s", "need at least 8 distinct frequencies, got 0"),
         ("decay", "time_us,counts", "need at least 4 bins from [decay] fit_start_us = 0 us, got 0"),
         ("g2", "lag_pulses,coincidences,normalized", "need exactly one lag-0 bin, got 0"),
         ("stark", "ion_id,voltage_v,field_v_per_cm,frequency_mhz,counts", "no scan points to fit")],
    )
    def test_empty_dataset_exits_5(self, capsys, tmp_path, kind, header, message):
        data = tmp_path / f"{kind}.csv"
        data.write_text(header + "\n", encoding="utf-8")
        code, out, err = run(capsys, "fit", "--kind", kind, "--input", data, "--out", tmp_path / "x")
        assert code == EXIT_FITTING
        assert out == "" and err == f"error: fitting failed: {message}\n"

    @pytest.mark.parametrize(
        "kind, rows, message",
        [("ple", "-5.0,3,5.0\n0.0,40,5.0\n", "need at least 8 distinct frequencies, got 2"),
         ("ple", "".join(PLE_ROWS[:7]), "need at least 8 distinct frequencies, got 7"),
         # every row twice: 14 rows, but the fit stage counts frequencies, not rows
         ("ple", "".join(row + row for row in PLE_ROWS[:7]), "need at least 8 distinct frequencies, got 7"),
         ("decay", "0.5,30\n1.5,25\n2.5,20\n", "need at least 4 bins from [decay] fit_start_us = 0 us, got 3"),
         ("decay", "1.5,25\n0.5,30\n", "need at least 4 bins from [decay] fit_start_us = 0 us, got 2"),
         ("stark", "ion1,0,0,-5,3\nion1,1,65,-4,4\nion1,2,130,-3,5\n",
          "need more than 6 points to fit 6 parameters"),
         # bins not evenly spaced: every row twice was once fitted on a median spacing, so a floor, of 0
         ("decay", "".join(row + row for row in DECAY_ROWS),
          "bins must be evenly spaced: the bins at 0.5 and 0.5 us are 0 us apart, against a median spacing of 0 us"),
         ("decay", "".join(DECAY_ROWS[:4] + DECAY_ROWS[3:]),
          "bins must be evenly spaced: the bins at 3.5 and 3.5 us are 0 us apart, against a median spacing of 1 us"),
         ("decay", "".join(DECAY_ROWS[:4] + DECAY_ROWS[5:]),
          "bins must be evenly spaced: the bins at 3.5 and 5.5 us are 2 us apart, against a median spacing of 1 us")],
        ids=["ple-two-rows", "ple-seven-rows", "ple-seven-rows-twice",
             "decay-three-bins", "decay-two-bins", "stark-three-points", "decay-every-row-twice",
             "decay-one-row-twice", "decay-one-row-missing"],
    )
    def test_too_short_dataset_exits_5(self, capsys, tmp_path, kind, rows, message):
        name, columns, *_ = FITS[kind]
        data = tmp_path / name
        data.write_text(",".join(columns) + "\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "fit", "--kind", kind, "--input", data, "--out", tmp_path / "x")
        assert code == EXIT_FITTING
        assert out == "" and err == f"error: fitting failed: {message}\n"

    @pytest.mark.parametrize(
        "config_text, dataset, argv",
        [("[emitter]\nsaturation_excitation_prob = 0.0\n", None, ["reproduce", "fig2"]),  # darks alone
         ("", "frequency_offset_mhz,counts,integration_s\n" + "".join(PLE_ROWS), ["fit", "--kind", "ple"])],
        ids=["fig2-unexcited", "ple-eight-rows-of-noise"],
    )
    def test_scan_without_a_peak_writes_a_header_only_report(self, capsys, tmp_path, config_text, dataset, argv):
        config = tmp_path / "in.toml"
        config.write_text(config_text, encoding="utf-8")
        if dataset is not None:
            (tmp_path / "ple_scan.csv").write_text(dataset, encoding="utf-8")
            argv = [*argv, "--input", tmp_path / "ple_scan.csv"]
        code, _, err = run_strict(capsys, *argv, "--config", config, "--out", tmp_path / "x")
        assert (code, err) == (EXIT_OK, "")
        assert (tmp_path / "x" / "fit_report.csv").read_text(encoding="utf-8") == "quantity,value,stderr,units\n"

    def test_decay_fit_under_another_config_exits_5(self, capsys, tmp_path):
        # 500 000 pulses leave 1 dark count per bin; the default config's floor is 20
        fast = tmp_path / "fast.toml"
        fast.write_text("[decay]\nn_pulses = 500000\n", encoding="utf-8")
        assert run(capsys, "reproduce", "fig3b", "--config", fast, "--out", tmp_path / "fig")[0] == EXIT_OK
        code, out, err = run(capsys, "fit", "--kind", "decay", "--input", tmp_path / "fig" / "decay.csv",
                             "--out", tmp_path / "x")
        assert code == EXIT_FITTING
        assert out == "" and err == (
            "error: fitting failed: pinned floor 20 counts/bin is 11.0 standard errors above the mean "
            "8.625 counts/bin of the last 8 bins\n"
        )

    @pytest.mark.parametrize("argv", [["ple", "--voltage", "333"], ["stark"]], ids=["ple", "stark"])
    def test_overflowing_line_exits_4(self, capsys, tmp_path, argv):
        path = tmp_path / "huge.toml"
        path.write_text('[[ions]]\nid = "ionX"\nstark_coefficient_khz_per_v_cm = 1e306\nzero_field_fwhm_mhz = 6.7\n',
                        encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", path, "--out", tmp_path / "x")
        assert code == EXIT_SIMULATION
        assert out == "" and err.startswith("error: simulation failed: ionX: the line overflows at ")

    @pytest.mark.parametrize("argv", [["g2"], ["reproduce", "fig3c"]], ids=["g2", "fig3c"])
    def test_g2_without_side_lag_coincidences_exits_4(self, capsys, tmp_path, argv):
        # an emitter that is never excited, and so no background either: nothing normalizes the histogram
        path = tmp_path / "unexcited.toml"
        path.write_text("[emitter]\nsaturation_excitation_prob = 0.0\n", encoding="utf-8")
        code, out, err = run_strict(capsys, *argv, "--config", path, "--out", tmp_path / "x")
        assert code == EXIT_SIMULATION
        assert out == ""
        assert err == "error: simulation failed: no coincidences at the 20 side lags, so g2 cannot be normalized\n"
        assert not (tmp_path / "x" / "g2.csv").exists()

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("[protocol]\nscan_range_mhz = [-1e307, 1e307]\nscan_pitch_mhz = 1e306\n", ["ple"]),
            ("[protocol]\nscan_range_mhz = [-1e307, 1e307]\nscan_pitch_mhz = 1e306\n", ["reproduce", "fig2"]),
            ("[protocol]\nscan_pitch_mhz = 1e306\n\n[stark]\nwindow_half_width_mhz = 1e307\n", ["stark"]),
        ],
        ids=["ple", "fig2", "stark"],
    )
    def test_far_detuned_scan_is_silent(self, capsys, tmp_path, text, argv):
        # far off every line the squared detuning overflows, where the line's value, 0, is exact
        path = tmp_path / "far.toml"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_strict(capsys, *argv, "--config", path, "--out", tmp_path / "x")
        assert code == EXIT_OK and err == ""

    def test_far_detuned_sweep_fit_prints_one_error_line(self, capsys, tmp_path):
        # fitting the far scans above runs the line law's Stark coefficient away until the model
        # overflows; the fit reads those values as refused steps and stalls, with no numpy warning
        path = tmp_path / "far.toml"
        path.write_text("[protocol]\nscan_pitch_mhz = 1e306\n\n[stark]\nwindow_half_width_mhz = 1e307\n",
                        encoding="utf-8")
        code, out, err = run_strict(capsys, "reproduce", "fig4a", "--config", path, "--out", tmp_path / "x")
        assert (code, out) == (EXIT_FITTING, "")
        assert err == "error: fitting failed: stalled: no downhill step (deviance=1354)\n"

    @pytest.mark.parametrize(
        "text, coefficient",
        [
            ("", "1e300"),  # the line at 3.6e300 MHz: +/-60 MHz about it rounds to it
            # the line over the pitch overflows
            ("[protocol]\nscan_range_mhz = [-1e-8, 1e-8]\nscan_pitch_mhz = 1e-10\n\n"
             "[stark]\nwindow_half_width_mhz = 1e-9\n", "1e300"),
        ],
        ids=["ends-meet", "centre-over-pitch-overflows"],
    )
    @pytest.mark.parametrize("argv", [["stark"], ["reproduce", "fig4a"]], ids=["stark", "fig4a"])
    def test_stark_window_beyond_float_precision_exits_4_naming_the_ion(self, capsys, tmp_path, text, coefficient,
                                                                         argv):
        # a config that loads, whose line lies so far out that the rounding of its scan window's ends
        # spoils the window: a run-time failure of the ion, not of a [protocol] key the file never set
        path = tmp_path / "far.toml"
        path.write_text(f'{text}\n[[ions]]\nid = "ion1"\nstark_coefficient_khz_per_v_cm = {coefficient}\n'
                        'zero_field_fwhm_mhz = 6.7\n', encoding="utf-8")
        code, out, err = run_strict(capsys, *argv, "--config", path, "--out", tmp_path / "x")
        assert (code, out) == (EXIT_SIMULATION, "")
        assert err.startswith("error: simulation failed: ion1: at ") and err.count("\n") == 1
        assert "lies beyond float precision" in err and "[protocol]" not in err

    @pytest.mark.parametrize("argv", [["stark"], ["reproduce", "fig4a"]], ids=["stark", "fig4a"])
    def test_stark_sweep_past_numpy_is_refused_at_load(self, capsys, tmp_path, argv):
        # 2 * 3e17 + 1 points at each of 3 voltages of one ion: wherever the line lies, the one array
        # the sweep draws outgrows numpy's largest, so the config is refused before any run
        path = tmp_path / "wide.toml"
        path.write_text("[protocol]\nscan_pitch_mhz = 1.0\n\n[stark]\nwindow_half_width_mhz = 3e17\n"
                        'voltages_v = [333.0, 332.0, 331.0]\n\n[[ions]]\nid = "ion1"\n'
                        "stark_coefficient_khz_per_v_cm = 1.7985066237439913e+32\nzero_field_fwhm_mhz = 6.7\n",
                        encoding="utf-8")
        code, out, err = run_strict(capsys, *argv, "--config", path, "--out", tmp_path / "x")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == ("error: invalid configuration: [stark].window_half_width_mhz gives a count of 1.8e+18, "
                       "above numpy's largest, 1.153e+18\n")
        assert not (tmp_path / "x").exists()

    def test_fit_on_missing_file_exits_5(self, capsys, config_path, tmp_path):
        code, _, err = run(
            capsys, "fit", "--config", config_path, "--kind", "g2",
            "--input", tmp_path / "missing.csv", "--out", tmp_path / "x",
        )
        assert code == EXIT_FITTING
        assert err == f"error: fitting failed: {tmp_path / 'missing.csv'}: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv, blocked",
        [(["reproduce", "fig2"], "ple_scan.csv"), (["reproduce", "fig3b"], "fit_report.csv"),
         (["field", "--dump-grid"], "potential_grid.csv")],
        ids=["fig2-dataset", "fig3b-report", "field-grid"],
    )
    def test_write_failure_after_the_manifest_exits_2(self, capsys, tmp_path, argv, blocked):
        # as an unwritable --out does, though the manifest went in first
        out_dir = tmp_path / "d"
        (out_dir / blocked).mkdir(parents=True)
        code, out, err = run(capsys, *argv, "--out", out_dir)
        assert code == EXIT_CONFIG
        assert err.startswith(f"error: cannot write output directory {out_dir}: [Errno 21] Is a directory")
        assert str(out_dir) not in out and (out_dir / "manifest.json").exists()  # field prints its report first

    @pytest.mark.parametrize(
        "argv",
        [
            ["field"],
            ["ple"],
            ["decay"],
            ["g2"],
            ["stark"],
            ["fit", "--kind", "g2", "--input"],
            ["resonance", "--ion-a", "ion1", "--ion-b", "ion7"],
            *(["reproduce", figure] for figure in FIGURES),
        ],
        ids=lambda argv: "-".join(argv[:2]) if argv[0] == "reproduce" else argv[0],
    )
    def test_manifest_digest_recomputable(self, capsys, config_path, tmp_path, argv):
        if argv[0] == "fit":
            g2_dir = tmp_path / "g2"
            assert run(capsys, "g2", "--config", config_path, "--out", g2_dir)[0] == EXIT_OK
            argv = [*argv, g2_dir / "g2.csv"]
        out_dir = tmp_path / "manifested"
        code, _, _ = run(capsys, *argv, "--config", config_path, "--out", out_dir)
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        stored = (out_dir / "config.toml").read_text()
        assert manifest["config_digest"] == config_file_digest(stored)
        assert manifest["master_seed"] == 0xE53_1536
        assert manifest["artifact_version"]
        assert manifest["command"].startswith("starksim")

    def test_manifest_records_main_argv(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "argv"
        argv = ["field", "--config", str(config_path), "--out", str(out_dir), "--voltage", "100"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == shlex.join(["starksim", *argv])

    def test_stark_command_writes_scan_and_report(self, capsys, config_path, tmp_path):
        # stark writes the sweep's counts; fit --kind stark writes the report
        out_dir = tmp_path / "stark_out"
        code, out, _ = run(capsys, "stark", "--config", config_path, "--out", out_dir)
        assert code == EXIT_OK
        assert out.splitlines() == [str(out_dir / "stark_scan.csv")]
        scan = (out_dir / "stark_scan.csv").read_text().splitlines()
        assert scan[0] == "ion_id,voltage_v,field_v_per_cm,frequency_mhz,counts"
        assert len(scan) == 1 + 7 * 25
        assert {row.split(",")[0] for row in scan[1:]} == {"ion1"}
        assert len({row.split(",")[1] for row in scan[1:]}) == 7
        code, _, _ = run(
            capsys, "fit", "--config", config_path, "--kind", "stark",
            "--input", out_dir / "stark_scan.csv", "--out", tmp_path / "fit",
        )
        assert code == EXIT_OK
        quantities = [row.split(",")[0] for row in (tmp_path / "fit" / "fit_report.csv").read_text().splitlines()[1:]]
        assert quantities == [
            "stark_coefficient_ion1", "zero_field_frequency_ion1", "zero_field_fwhm_ion1",
            "broadening_ion1", "line_reduced_chi_square_ion1",
        ]

    def test_same_seed_reruns_byte_identical(self, capsys, config_path, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(capsys, "reproduce", "fig4a", "--config", config_path, "--out", a)[0] == EXIT_OK
        assert run(capsys, "reproduce", "fig4a", "--config", config_path, "--out", b)[0] == EXIT_OK
        assert (a / "stark_scan.csv").read_bytes() == (b / "stark_scan.csv").read_bytes()
        assert (a / "fit_report.csv").read_bytes() == (b / "fit_report.csv").read_bytes()

    def test_fig4b_recovers_both_shift_classes(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "fig4b"
        code, _, _ = run(capsys, "reproduce", "fig4b", "--config", config_path, "--out", out_dir)
        assert code == EXIT_OK
        slopes = {}
        for line in (out_dir / "fit_report.csv").read_text().splitlines()[1:]:
            quantity, value = line.split(",")[:2]
            if quantity.startswith("stark_coefficient_"):
                slopes[quantity.removeprefix("stark_coefficient_")] = float(value)
        assert len(slopes) == 7
        assert any(v > 0 for v in slopes.values()) and any(v < 0 for v in slopes.values())
        assert slopes["ion1"] == pytest.approx(19.8, abs=0.1)
        assert slopes["ion7"] == pytest.approx(-9.8, abs=0.1)
        ions = [row.split(",")[0] for row in (out_dir / "stark_scan.csv").read_text().splitlines()[1:]]
        assert list(dict.fromkeys(ions)) == [f"ion{k}" for k in range(1, 8)]
        assert ions.count("ion4") == 7 * 25

    @pytest.mark.parametrize("seed", [1232, 1413])
    def test_fig4b_fits_the_sweeps_one_scan_fit_could_not(self, capsys, tmp_path, seed):
        # a scan holding one or two samples of a line collapsed its own width
        # fit ("width 2.43 MHz" at seed 1232, no convergence at 1413); the
        # sweep's one fit shares the width across the seven scans
        code, _, err = run(capsys, "reproduce", "fig4b", "--seed", seed, "--out", tmp_path / "fig4b")
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("fields, found", [((0.0,), 1), ((0.0, 65.0, 65.0), 2)], ids=["one-field", "two-fields"])
    def test_stark_fit_needs_three_fields_per_ion(self, capsys, fast_config, tmp_path, fields, found):
        # ion1's sweep fits; the ion after it, with too few fields, is named
        assert run(capsys, "stark", "--config", fast_config, "--out", tmp_path)[0] == EXIT_OK
        data = tmp_path / "stark_scan.csv"
        with open(data, "a", encoding="utf-8") as handle:
            handle.writelines(f"ion9,0,{field},{f},{c}\n" for field in fields for f, c in ((-5.0, 3), (0.0, 9), (5.0, 4)))
        code, out, err = run(capsys, "fit", "--kind", "stark", "--input", data, "--out", tmp_path / "x")
        assert code == EXIT_FITTING
        assert out == "" and err == f"error: fitting failed: ion9: need at least 3 distinct fields, got {found}\n"

    def test_stark_fit_refuses_an_id_the_registry_may_not_hold(self, capsys, fast_config, tmp_path):
        # a quoted id with a comma and a line break was fitted, and its report read back as rows of 2 and 4 cells
        assert run(capsys, "stark", "--config", fast_config, "--out", tmp_path)[0] == EXIT_OK
        data = tmp_path / "stark_scan.csv"
        header, first, *rest = data.read_text(encoding="utf-8").splitlines(keepends=True)
        data.write_text("".join([header, '"ion,1\nx"' + first[first.index(","):], *rest]), encoding="utf-8")
        code, out, err = run(capsys, "fit", "--kind", "stark", "--input", data, "--out", tmp_path / "fit")
        assert code == EXIT_FITTING
        assert out == "" and err == (
            "error: fitting failed: ion_id 'ion,1\\nx' may use only A-Z, a-z, 0-9, '_', '.' and '-'\n"
        )
        assert not (tmp_path / "fit" / "fit_report.csv").exists()

    @pytest.mark.parametrize("argv", [["stark"], ["reproduce", "fig4a"]], ids=["stark", "fig4a"])
    def test_sweep_of_an_empty_registry_exits_2(self, capsys, tmp_path, argv):
        # an empty registry loads (ple scans darks alone), but the [stark] ion_id "" names its first ion
        config = tmp_path / "empty.toml"
        config.write_text("ions = []\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", config, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert out == "" and err == (
            "error: invalid configuration: [stark].ion_id '' names the first ion, but the ion registry is empty\n"
        )

    def test_fig4b_of_an_empty_registry_writes_a_header_and_fits_nothing(self, capsys, tmp_path):
        config = tmp_path / "empty.toml"
        config.write_text("ions = []\n", encoding="utf-8")
        code, out, err = run(capsys, "reproduce", "fig4b", "--config", config, "--out", tmp_path / "out")
        assert code == EXIT_FITTING
        assert out == "" and err == "error: fitting failed: no scan points to fit\n"
        assert (tmp_path / "out" / "stark_scan.csv").read_text(encoding="utf-8") == ",".join(FITS["stark"][1]) + "\n"

    def test_seed_override_changes_data(self, capsys, config_path, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(capsys, "g2", "--config", config_path, "--out", a)
        run(capsys, "g2", "--config", config_path, "--out", b, "--seed", 1)
        assert (a / "g2.csv").read_bytes() != (b / "g2.csv").read_bytes()


DATASETS = {  # FITS kind -> (the command writing it, its figure, its file name, its exact header)
    "ple": ("ple", "fig2", "ple_scan.csv", "frequency_offset_mhz,counts,integration_s"),
    "decay": ("decay", "fig3b", "decay.csv", "time_us,counts"),
    "g2": ("g2", "fig3c", "g2.csv", "lag_pulses,coincidences,normalized"),
    "stark": ("stark", "fig4a", "stark_scan.csv", "ion_id,voltage_v,field_v_per_cm,frequency_mhz,counts"),
}


@pytest.mark.parametrize("kind", list(FITS))
def test_dataset_csv_is_the_one_fits_declares(capsys, fast_config, tmp_path, kind):
    # its file name, its exact header, and every value read back as its dataset function gave it
    command, figure, name, header = DATASETS[kind]
    assert FITS[kind][0] == name
    code, out, _ = run(capsys, command, "--config", fast_config, "--out", tmp_path)
    assert code == EXIT_OK and out.splitlines() == [str(tmp_path / name)]
    assert (tmp_path / name).read_text(encoding="utf-8").splitlines()[0] == header
    config = load_config(fast_config)
    columns = FITS[kind][2](argparse.Namespace(figure=figure, voltage=0.0), config, config.run.seed)
    read = read_table(tmp_path / name, FITS[kind][1])
    assert len(read) == len(columns) and all(map(np.array_equal, read, columns))


_EDGE_CELLS = ("0", "1e-300", "-1e-300", "1e300", "-1e300", str(2**62))


@pytest.mark.parametrize("kind", list(FITS))
def test_no_edge_cell_of_a_dataset_ends_in_a_traceback_or_warning(capfd, tmp_path, kind):
    # the kind's default dataset with one number at its first, middle or last row set to an edge value, or a
    # float column scaled out of float range (a sweep's fields times 1e-300 once handed LAPACK NaNs): the fit
    # exits with an EXIT_* code, prints at most one error line (capfd sees what LAPACK prints too) and numpy
    # warns of nothing
    name, columns, *_ = FITS[kind]
    assert run(capfd, kind, "--out", tmp_path / "data")[0] == EXIT_OK
    header, *lines = (tmp_path / "data" / name).read_text(encoding="utf-8").splitlines()
    cells = [line.split(",") for line in lines]
    variants = {}
    for column, (label, type_) in enumerate(columns.items()):
        rows = (0, len(cells) // 2, len(cells) - 1) if type_ is not str else ()
        for row, edge in itertools.product(rows, _EDGE_CELLS):
            variants[f"{label}[{row}]={edge}"] = [[edge if (i, j) == (row, column) else cell
                                                  for j, cell in enumerate(line)] for i, line in enumerate(cells)]
        for scale in (1e-300, 1e160) if type_ is float else ():
            variants[f"{label}*{scale}"] = [[repr(float(cell) * scale) if j == column else cell
                                             for j, cell in enumerate(line)] for line in cells]
    codes = {value for key, value in vars(cli).items() if key.startswith("EXIT_")}
    data, report = tmp_path / name, tmp_path / "fit" / "fit_report.csv"
    for variant, table in variants.items():
        data.write_text("\n".join([header, *map(",".join, table)]) + "\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capfd, "fit", "--kind", kind, "--input", data, "--out", tmp_path / "fit")
        assert code in codes, (variant, err)
        assert out in ("", f"{report}\n") and re.fullmatch(r"(error: [^\n]*\n)?", err), (variant, out, err)
        assert not caught, (variant, [str(w.message) for w in caught])


def replay_argv(command, config, out_dir):
    """A manifest's command with ``--config`` and ``--out`` pointed elsewhere."""
    program, *argv = shlex.split(command)
    assert program == "starksim"
    for flag, value in (("--config", config), ("--out", out_dir)):
        if flag in argv:
            argv[argv.index(flag) + 1] = str(value)
        else:
            argv += [flag, str(value)]
    return argv


def assert_same_run(first, second):
    """Two ``(exit code, stdout, out dir)`` runs agree: the same exit code,
    the same stdout up to the out dir, and byte-identical CSVs and config."""
    (code_a, out_a, a), (code_b, out_b, b) = first, second
    assert code_a == code_b == EXIT_OK
    assert out_b.splitlines() == [line.replace(str(a), str(b)) for line in out_a.splitlines()]
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    assert "config.toml" in names and "manifest.json" in names
    for name in names:
        if name != "manifest.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (a, b)]
    assert manifests[0]["master_seed"] == manifests[1]["master_seed"]
    assert manifests[0]["config_digest"] == manifests[1]["config_digest"]


REPLAYED = [
    *(["reproduce", figure] for figure in FIGURES),
    ["reproduce", "fig3b", "--seed", "7"],
    ["ple"],
    ["decay"],
    ["g2"],
    ["stark"],
    ["field", "--dump-grid"],
    ["resonance", "--ion-a", "ion1", "--ion-b", "ion7"],
    *(["fit", "--kind", kind] for kind in ("ple", "decay", "g2", "stark")),
]
FIT_INPUTS = {
    "ple": ("fig2", "ple_scan.csv"),
    "decay": ("fig3b", "decay.csv"),
    "g2": ("fig3c", "g2.csv"),
    "stark": ("fig4b", "stark_scan.csv"),
}


def replay_id(argv):
    return "-".join(a.lstrip("-") for a in argv if a not in ("reproduce", "--kind", "--ion-a", "--ion-b"))


class TestManifestReplay:
    """A manifest replays the run it describes: its command, with --config
    at the stored config.toml and a fresh --out, gives the same run."""

    @pytest.mark.parametrize("argv", REPLAYED, ids=replay_id)
    def test_replay(self, capsys, fast_config, tmp_path, argv):
        if argv[0] == "fit":
            figure, dataset = FIT_INPUTS[argv[2]]
            data = tmp_path / "data"
            assert run(capsys, "reproduce", figure, "--config", fast_config, "--out", data)[0] == EXIT_OK
            argv = [*argv, "--input", data / dataset]
        first = tmp_path / "first"
        code, out, _ = run(capsys, *argv, "--config", fast_config, "--out", first)
        manifest = json.loads((first / "manifest.json").read_text())
        replayed = tmp_path / "replayed"
        code_b, out_b, _ = run(capsys, *replay_argv(manifest["command"], first / "config.toml", replayed))
        assert_same_run((code, out, first), (code_b, out_b, replayed))

    @pytest.mark.parametrize("argv", [["field", "--dump-grid"], *(["reproduce", f] for f in FIGURES)], ids=replay_id)
    def test_pre_retirement_config_replays(self, capsys, tmp_path, argv):
        # a config.toml stored before the cavity keys were retired; it holds the defaults
        stored = Path(__file__).resolve().parent / "fixtures" / "config_with_retired_keys.toml"
        built_in, replayed = tmp_path / "built_in", tmp_path / "replayed"
        code, out, _ = run(capsys, *argv, "--out", built_in)
        code_b, out_b, _ = run(capsys, *argv, "--config", stored, "--out", replayed)
        assert_same_run((code, out, built_in), (code_b, out_b, replayed))

    @pytest.mark.parametrize("figure", ["fig3b", "fig3c"])
    def test_retired_decay_and_g2_ion_give_the_built_in_run(self, capsys, tmp_path, figure):
        # the decay and g2 experiments read only the shared [emitter], so the ion these keys chose reached no output
        stored = tmp_path / "ions.toml"
        stored.write_text('[decay]\nion_id = "ion4"\n\n[g2]\nion_id = "ion6"\n', encoding="utf-8")
        built_in, chosen = tmp_path / "built_in", tmp_path / "chosen"
        code, out, _ = run(capsys, "reproduce", figure, "--out", built_in)
        code_b, out_b, _ = run(capsys, "reproduce", figure, "--config", stored, "--out", chosen)
        assert_same_run((code, out, built_in), (code_b, out_b, chosen))


def _failure(cls):
    """An instance of a FAILURES class, built with the arguments it takes."""
    if cls is VoltageOutOfRangeError:
        return cls(400.0, 333.0)
    return cls("boom")


@pytest.mark.parametrize("cls, exit_code, text", FAILURES, ids=[cls.__name__ for cls, _, _ in FAILURES])
def test_each_failure_exits_as_its_row_says(capsys, monkeypatch, tmp_path, cls, exit_code, text):
    # a subclass must find its own row before its base's
    exc = _failure(cls)

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_fit", fail)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "fit", "--kind", "decay", "--input", tmp_path / "decay.csv", "--out", out_dir)
    assert code == exit_code
    assert (out, err) == ("", "error: " + text.format(exc=exc, out_dir=out_dir) + "\n")


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports this checkout's starksim."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    result = subprocess.run(
        [sys.executable, "-c", "import sys, starksim.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    assert result.stdout.strip() == "False"


def test_fig2_and_field_leave_numpy_ma_out(tmp_path):
    # np.median and np.unique without indices import numpy.ma, 14 ms of a fresh process; fig2 and field use neither
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from starksim.cli import main; "
         "codes = [main([*command, '--out', sys.argv[1]]) for command in (['reproduce', 'fig2'], ['field'])]; "
         "print(codes, 'numpy.ma' in sys.modules)", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    assert result.stdout.splitlines()[-1] == "[0, 0] False"


def test_out_of_memory_exits_2(tmp_path):
    # ~4.3e12 background events per g2 arm pass the Poisson-mean rule, but their
    # pulse indices (31 TiB) do not fit in memory; the child's address space is
    # capped at 2 GiB so the allocation fails at once whatever the machine
    resource = pytest.importorskip("resource")
    config = tmp_path / "background.toml"
    config.write_text("[g2]\nbackground_fraction = 0.99999999\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from starksim.cli import main; sys.exit(main(sys.argv[1:]))",
         "g2", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
    )
    assert result.returncode == EXIT_CONFIG
    assert re.fullmatch(r"error: out of memory: Unable to allocate [^\n]*\n", result.stderr), result.stderr
    assert result.stdout == ""


# The command that reads each config section, run on a change to one of its keys.
_READERS = {
    "layout": ["field"],
    "solver": ["field"],
    "ions": ["reproduce", "fig4b"],
    "emitter": ["reproduce", "fig3b"],
    "protocol": ["reproduce", "fig2"],
    "detector": ["reproduce", "fig3b"],
    "run": ["resonance", "--ion-a", "ion1", "--ion-b", "ion7"],
    "decay": ["reproduce", "fig3b"],
    "g2": ["reproduce", "fig3c"],
    "stark": ["reproduce", "fig4a"],
}
# each leaf type's edge values: for a number zero, the smallest subnormal, negative, huge, infinite and not a
# number; for a string empty, a line break, a NUL, a character outside ASCII and a long one
_EDGES = {float: [0.0, 5e-324, -1.0, 1e300, math.inf, math.nan], int: [0, -1, 2**63],
          str: ["", "\n", "\0", "\u00e9", "x" * 10_000]}


def _leaves(value, path=()):
    """``(path, type)`` of every number and string in a config dict: a key, an ion's key or an array element."""
    if isinstance(value, (int, float, str)):
        yield path, type(value)
    elif isinstance(value, (dict, list, tuple)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*path, key))


def _with(data, path, value):
    """A copy of the config dict ``data`` with ``value`` at ``path``."""
    head, *rest = path
    copy = dict(data) if isinstance(data, dict) else list(data)
    copy[head] = _with(data[head], rest, value) if rest else value
    return copy


def _run_forked(argv, cwd: Path, stdout: Path, stderr: Path) -> int:
    """The exit code of ``main(argv)`` in a forked child working in ``cwd``, its address space capped at
    2 GiB and its time at 60 s (a signal ends it, a negative code); its stdout and stderr go to the two
    files, and an exception that escapes ``main`` exits 70 with its traceback."""
    resource = pytest.importorskip("resource")
    pid = os.fork()
    if pid == 0:  # the child: it must never return into the test run
        code = 70
        try:
            for fd, path in ((1, stdout), (2, stderr)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
            sys.stdout, sys.stderr = open(1, "w", closefd=False), open(2, "w", closefd=False)
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(60)
            os.chdir(cwd)
            warnings.simplefilter("default")  # as a fresh interpreter shows them, on stderr
            code = main(argv)
        except BaseException:
            traceback.print_exc()
        finally:
            with contextlib.suppress(BaseException):
                sys.stdout.flush()
                sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def test_no_one_or_two_key_config_ends_in_a_traceback(tmp_path):
    # one or two numbers or strings of the defaults ([[ions]].id and [stark].ion_id among them) set to edge
    # values of their types, then the command reading the first one's section: its exit code is one README's
    # table gives, its stderr empty or one error line, and it writes nowhere but under --out. Two keys reach
    # rules one cannot, such as a lifetime that underflows only where a tiny bulk lifetime meets a huge
    # enhancement
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    defaults = config_to_dict(default_config())
    assert set(defaults) == set(_READERS)
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    # a section, then one of its leaves, so the 35 leaves of [[ions]] do not crowd out [solver]'s one
    by_section = {section: list(_leaves(value, (section,))) for section, value in defaults.items()}
    assert {("ions", 0, "id"), ("stark", "ion_id")} <= {path for path, _ in itertools.chain(*by_section.values())}
    leaves = st.sampled_from(list(by_section)).flatmap(lambda section: st.sampled_from(by_section[section]))
    settings = leaves.flatmap(lambda leaf: st.tuples(st.just(leaf[0]), st.sampled_from(_EDGES[leaf[1]])))
    cases = st.lists(settings, min_size=1, max_size=2, unique_by=lambda setting: setting[0])
    examples, exits = itertools.count(), set()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(cases)
    def check(case):
        data = {path[0]: defaults[path[0]] for path, _ in case}
        for path, value in case:
            data = _with(data, path, value)
        case_dir = tmp_path / str(next(examples))
        work = case_dir / "work"
        work.mkdir(parents=True)
        config = case_dir / "config.toml"
        config.write_text(dump_toml(data), encoding="utf-8")
        (first_path, _), *_ = case
        argv = [*_READERS[first_path[0]], "--config", str(config), "--out", "out"]
        code = _run_forked(argv, work, case_dir / "stdout", case_dir / "stderr")
        stderr = (case_dir / "stderr").read_text(encoding="utf-8")
        exits.add(code)
        assert code in codes, (argv, stderr)
        assert re.fullmatch(r"(error: [^\n]*\n)?", stderr), stderr
        assert {p.name for p in work.iterdir()} <= {"out"}
        assert {p.name for p in case_dir.iterdir()} == {"work", "config.toml", "stdout", "stderr"}

    check()
    assert EXIT_OK in exits  # the children had the memory to run a config that loads
