"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import contextlib
import dataclasses
import io
import math
import time

import numpy as np
import pytest
from conftest import fit_one_lorentzian

from starksim.analysis import (
    estimate_g2_zero,
    exponential_decay,
    exponential_decay_jacobian,
    fit_exponential_decay,
)
from starksim.cli import FITS, main
from starksim.csvio import read_table
from starksim.config import default_config, dumps_config
from starksim.electrostatics import ElectrodeLayout, field_at, solve_potential
from starksim.optimize import poisson_deviance
from starksim.stark import lorentzian, lorentzian_jacobian

# exact discrete probe field at 0.625 um, the last spacing of the
# grid-refinement study (sparse LU of the same stencil)
GOLDEN_REFINED_E_PARALLEL = 20914.043663930865

PAPER_LAYOUT = ElectrodeLayout(
    electrode_width_um=200.0,
    gap_um=100.0,
    electrode_potentials_v=(166.5, -166.5),
    domain_extent_um=(1000.0, 600.0),
)


def report(number: int, name: str, ok: bool, details: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"criterion {number} ({name}): {details}"


@pytest.fixture(scope="module")
def config():
    return default_config()


def _quiet_main(argv):
    """``main(argv)`` with its stdout returned."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([str(a) for a in argv])
    assert code == 0
    return stdout.getvalue()


def _fit_report(out_dir):
    """A run's fit_report.csv as {quantity: (value, stderr)}."""
    rows = (line.split(",") for line in (out_dir / "fit_report.csv").read_text().splitlines()[1:])
    return {quantity: (float(value), float(stderr)) for quantity, value, stderr, _ in rows}


def test_criterion_1_lifetime_chain(config, tmp_path):
    assert config.emitter.bulk_lifetime_ms == 11.4
    assert config.emitter.enhancement_factor == 278.0

    taus = []
    worst_runtime = 0.0
    for seed in range(20):
        start = time.perf_counter()
        _quiet_main(["reproduce", "fig3b", "--seed", seed, "--out", tmp_path / str(seed)])
        worst_runtime = max(worst_runtime, time.perf_counter() - start)
        taus.append(_fit_report(tmp_path / str(seed))["tau_us"][0])
    taus = np.array(taus)
    hits = int(np.sum(np.abs(taus - 41.0) <= 1.4))

    ok = hits >= 19 and worst_runtime < 60.0
    report(
        1,
        "lifetime chain",
        ok,
        f"{hits}/20 seeds inside 41.0±1.4 us (mean {taus.mean():.2f}, sd {taus.std(ddof=1):.2f}); "
        f"slowest run {worst_runtime:.1f} s",
    )


def test_criterion_2_antibunching(config, poissonian_g2, tmp_path):
    # fig3c at signal fraction 0.949 (the default background) and 400 000 pulses, and a pure emitter
    assert config.g2.background_fraction == pytest.approx(1.0 - 0.949)
    (tmp_path / "tuned.toml").write_text("[g2]\nn_pulses = 400000\n", encoding="utf-8")
    (tmp_path / "pure.toml").write_text("[g2]\nbackground_fraction = 0.0\n", encoding="utf-8")
    _quiet_main(["reproduce", "fig3c", "--config", tmp_path / "tuned.toml", "--seed", 2025, "--out", tmp_path / "tuned"])
    _quiet_main(["g2", "--config", tmp_path / "pure.toml", "--seed", 2026, "--out", tmp_path / "pure"])
    tuned, tuned_err = _fit_report(tmp_path / "tuned")["g2_zero"]
    lags, coincidences, _ = read_table(tmp_path / "pure" / "g2.csv", FITS["g2"][1])
    [pure_zero_lag] = coincidences[lags == 0]
    # the classical control has no command: a test-side coherent source
    no_background = dataclasses.replace(config.g2, background_fraction=0.0)
    poisson = estimate_g2_zero(*poissonian_g2(config.emitter, no_background, config.protocol, 2027))

    ok = (
        0.06 <= tuned <= 0.14
        and pure_zero_lag == 0
        and abs(poisson.g2_zero - 1.0) <= 3.0 * poisson.standard_error
    )
    report(
        2,
        "antibunching",
        ok,
        f"g2(0)={tuned:.3f}±{tuned_err:.3f} at signal fraction 0.949; "
        f"pure emitter C(0)={pure_zero_lag}; Poissonian control {poisson.g2_zero:.4f}"
        f"±{poisson.standard_error:.4f}",
    )


@pytest.fixture(scope="module")
def fig4b_run(tmp_path_factory):
    """``reproduce fig4b`` of the default config stored as a file; criteria 4 and 8 read it."""
    base = tmp_path_factory.mktemp("fig4b")
    config_path = base / "config.toml"
    config_path.write_text(dumps_config(default_config()), encoding="utf-8")
    _quiet_main(["reproduce", "fig4b", "--config", config_path, "--out", base / "a"])
    return config_path, base / "a"


def test_criterion_3_stark_linearity(tmp_path):
    _quiet_main(["reproduce", "fig4a", "--out", tmp_path])
    fit = _fit_report(tmp_path)
    slope, stderr = fit["stark_coefficient_ion1"]
    chi2, _ = fit["line_reduced_chi_square_ion1"]
    voltages = {line.split(",")[1] for line in (tmp_path / "stark_scan.csv").read_text().splitlines()[1:]}

    ok = len(voltages) >= 6 and abs(slope - 19.8) <= 3.0 * stderr and 0.3 <= chi2 <= 3.0
    report(
        3,
        "Stark linearity",
        ok,
        f"slope {slope:.3f}±{stderr:.3f} kHz/(V/cm) vs 19.8 over {len(voltages)} voltages; "
        f"line reduced chi2 {chi2:.2f}",
    )


def test_criterion_4_maximum_shift_ratio(config, fig4b_run):
    ion = config.ion("ion2")
    fit = _fit_report(fig4b_run[1])
    slope, slope_err = fit["stark_coefficient_ion2"]
    rest, rest_err = fit["zero_field_frequency_ion2"]
    field = dict(line.split("=") for line in _quiet_main(["field"]).splitlines())
    field_at_333_v = 333.0 * float(field["volts_to_field_v_per_cm_per_v"])
    shift, shift_err = slope * field_at_333_v / 1000.0, slope_err * field_at_333_v / 1000.0
    ratio = abs(shift) / ion.zero_field_fwhm_mhz
    # the fitted zero-field line must agree with the configured rest frequency
    anchored = abs(rest - ion.zero_field_frequency_mhz) <= 3.0 * rest_err

    ok = anchored and abs(abs(shift) - 182.9) <= 0.8 and abs(ratio - 27.3) <= 1.2
    report(
        4,
        "maximum shift ratio",
        ok,
        f"|shift| = {abs(shift):.2f}±{shift_err:.2f} MHz at 333 V (target 182.9±0.8); "
        f"shift/zero-field fwhm = {ratio:.2f} (target 27.3±1.2); zero-field line anchored: {anchored}",
    )


@pytest.fixture(scope="module")
def refinement_chain():
    """Probe field at gap centre at the layout's 333 V bias for spacings halving from 5 um to 0.625 um."""
    fields = []
    for spacing in (5.0, 2.5, 1.25, 0.625):
        grid = solve_potential(PAPER_LAYOUT, spacing)
        fields.append(PAPER_LAYOUT.bias_v * field_at(grid, (0.0, 0.0))[0])
    return fields


def test_criterion_5_field_solver(config, refinement_chain):
    # linearity under voltage doubling: each bias scales the one per-volt grid,
    # which the layout's potentials do not change
    doubled_layout = ElectrodeLayout(200.0, 100.0, (333.0, -333.0), (1000.0, 600.0))
    g1 = solve_potential(PAPER_LAYOUT, 5.0)
    g2 = solve_potential(doubled_layout, 5.0)
    potential_slack = float(np.max(np.abs(2.0 * PAPER_LAYOUT.bias_v * g1.values - doubled_layout.bias_v * g2.values)))
    e1 = PAPER_LAYOUT.bias_v * field_at(g1, (0.0, 0.0))[0]
    e2 = doubled_layout.bias_v * field_at(g2, (0.0, 0.0))[0]
    linear_ok = potential_slack == 0.0 and e2 == 2.0 * e1

    # grid refinement: changes shrink monotonically below 0.5% per halving
    changes = [
        abs(b - a) / abs(b) for a, b in zip(refinement_chain, refinement_chain[1:])
    ]
    refine_ok = (
        all(later < earlier for earlier, later in zip(changes, changes[1:]))
        and changes[-1] < 0.005
        and refinement_chain[-1] == pytest.approx(GOLDEN_REFINED_E_PARALLEL, rel=1e-6)
    )

    # discrete maximum principle on randomized layouts
    rng = np.random.default_rng(505)
    violations = 0
    for _ in range(100):
        gap = rng.uniform(40.0, 120.0)
        width = rng.uniform(gap, 3.0 * gap)
        margin = 2.0 * gap * rng.uniform(1.02, 1.4)
        bias = rng.uniform(-400.0, 400.0)
        layout = ElectrodeLayout(
            electrode_width_um=width,
            gap_um=gap,
            electrode_potentials_v=(bias / 2.0, -bias / 2.0),
            domain_extent_um=(2.0 * (gap / 2.0 + width + margin), 2.0 * margin),
        )
        spacing = gap / 20.0
        values = bias * solve_potential(layout, spacing).values
        bound = abs(bias) / 2.0
        if values.min() < -bound - 1e-9 or values.max() > bound + 1e-9:
            violations += 1
    principle_ok = violations == 0

    ok = linear_ok and refine_ok and principle_ok
    report(
        5,
        "field solver",
        ok,
        f"doubling slack {potential_slack:.2e} V (bound 0); "
        f"refinement changes {['%.3f%%' % (100*c) for c in changes]}; max-principle violations {violations}/100",
    )


def test_criterion_7_fit_correctness():
    rng = np.random.default_rng(707)
    worst = 0.0

    def check(model, jacobian, x, params):
        nonlocal worst
        y = rng.poisson(np.maximum(model(x, params), 0.0) + 5.0).astype(float)
        probe = params * rng.uniform(0.85, 1.15, params.size)
        grad = -2.0 * jacobian(x, probe).T @ (y / model(x, probe) - 1.0)
        fd = np.empty(probe.size)
        for j in range(probe.size):
            step = 1e-6 * max(abs(probe[j]), 1.0)
            hi, lo = probe.copy(), probe.copy()
            hi[j] += step
            lo[j] -= step
            fd[j] = (poisson_deviance(model, x, y, hi) - poisson_deviance(model, x, y, lo)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6))))

    x_lor = np.arange(-80.0, 80.1, 5.0)
    t_exp = np.arange(0.5, 85.0, 1.0)
    for _ in range(50):
        check(
            lorentzian,
            lorentzian_jacobian,
            x_lor,
            np.array([rng.uniform(50, 500), rng.uniform(-30, 30), rng.uniform(3, 25), rng.uniform(0, 40)]),
        )
        check(
            exponential_decay,
            exponential_decay_jacobian,
            t_exp,
            np.array([rng.uniform(200, 2000), rng.uniform(15, 60), rng.uniform(0, 30)]),
        )

    lor_truth = np.array([100.0, 0.0, 6.7, 0.0])
    lor_fit = fit_one_lorentzian(x_lor, lorentzian(x_lor, lor_truth))

    exp_truth = np.array([1200.0, 41.0, 20.0])
    exp_fit = fit_exponential_decay(t_exp, exponential_decay(t_exp, exp_truth), exp_truth[2])
    noiseless_ok = (
        abs(lor_fit.value("amplitude") - 100.0) / 100.0 < 1e-6
        and abs(lor_fit.value("center_mhz")) < 1e-6 * 6.7
        and abs(lor_fit.value("fwhm_mhz") - 6.7) / 6.7 < 1e-6
        and abs(exp_fit.value("amplitude") - 1200.0) / 1200.0 < 1e-6
        and abs(exp_fit.value("tau_us") - 41.0) / 41.0 < 1e-6
    )

    ok = worst < 1e-4 and noiseless_ok
    report(
        7,
        "fit correctness",
        ok,
        f"worst gradient/finite-difference mismatch {worst:.2e} over 100 instances; "
        f"noiseless recovery to 1e-6: {noiseless_ok}",
    )


def test_criterion_8_determinism(fig4b_run, tmp_path):
    config_path, run_a = fig4b_run
    run_b = tmp_path / "b"
    _quiet_main(["reproduce", "fig4b", "--config", config_path, "--out", run_b])

    csvs = sorted(p.name for p in run_a.glob("*.csv"))
    assert len(csvs) == 2  # every ion's sweep in one file, plus the fit report
    identical_reruns = all(
        (run_a / name).read_bytes() == (run_b / name).read_bytes() for name in csvs
    )

    ok = identical_reruns
    report(
        8,
        "determinism",
        ok,
        f"{len(csvs)} CSVs byte-identical across reruns: {identical_reruns}",
    )


def test_criterion_9_background_statistics(config, tmp_path):
    # an empty registry: a 1000-point ple scan of dark counts alone
    (tmp_path / "dark.toml").write_text("ions = []\n[protocol]\nscan_range_mhz = [0.0, 4995.0]\n", encoding="utf-8")
    _quiet_main(["ple", "--seed", 909, "--config", tmp_path / "dark.toml", "--out", tmp_path])
    _, counts, _ = read_table(tmp_path / "ple_scan.csv", FITS["ple"][1])
    counts = counts.astype(float)
    n = counts.size
    assert n == 1000

    expected = (
        config.detector.dark_rate_hz
        * config.protocol.window_length_us
        * 1e-6
        * config.protocol.pulses_per_point
    )
    mean_tol = 3.0 * math.sqrt(expected / n)
    dispersion = counts.var(ddof=1) / counts.mean()
    dispersion_tol = 3.0 * math.sqrt(2.0 / (n - 1))

    ok = (
        expected == pytest.approx(8.5)
        and abs(counts.mean() - expected) < mean_tol
        and abs(dispersion - 1.0) < dispersion_tol
    )
    report(
        9,
        "background statistics",
        ok,
        f"mean {counts.mean():.3f} vs 8.5 (tol {mean_tol:.3f}) over {n} points; "
        f"index of dispersion {dispersion:.3f} (tol 1±{dispersion_tol:.3f})",
    )
