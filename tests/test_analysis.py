import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import fit_one_lorentzian

from starksim import analysis, cli, optimize
from starksim.analysis import (
    G2Estimate,
    _lorentzian_guess,
    _prominences,
    estimate_g2_zero,
    exponential_decay,
    exponential_decay_jacobian,
    find_peaks,
    fit_exponential_decay,
    fit_lorentzians,
    fit_stark_sweep,
)
from starksim.cli import REPORT_COLUMNS
from starksim.csvio import write_table
from starksim.experiment import simulate_decay_histogram, simulate_stark_scan
from starksim.optimize import (
    FitConvergenceError,
    FitError,
    least_squares,
    poisson_deviance,
)
from starksim.stark import line_law, lorentzian, lorentzian_jacobian

VOLTS_TO_FIELD = 65.022536219113164  # default-layout calibration, V/cm per V


class TestFindPeaks:
    def test_all_zero_scan_is_empty(self):
        assert find_peaks(np.zeros(50), 5.0) == []

    def test_flat_poisson_background_rarely_triggers(self):
        rng = np.random.default_rng(321)
        false_positives = sum(1 for _ in range(100) if find_peaks(rng.poisson(8.5, 1000), 5.0))
        assert false_positives <= 2

    def test_injected_peak_found_within_one_pitch(self):
        rng = np.random.default_rng(99)
        freqs = np.arange(200) * 5.0
        truth = 501.3
        signal = 170.0 / (1.0 + (2.0 * (freqs - truth) / 6.7) ** 2)
        counts = rng.poisson(8.5 + signal)
        peaks = find_peaks(counts, 5.0)
        assert len(peaks) == 1
        assert abs(freqs[peaks[0]] - truth) <= 5.0
        assert counts[peaks[0]] > 100.0

    def test_candidates_sorted_by_frequency(self):
        rng = np.random.default_rng(7)
        freqs = np.arange(400) * 5.0
        counts = rng.poisson(8.5, 400).astype(float)
        for centre in (1500.0, 250.0, 900.0):
            counts += 200.0 / (1.0 + (2.0 * (freqs - centre) / 6.7) ** 2)
        peaks = find_peaks(rng.poisson(counts), 5.0)
        assert len(peaks) == 3
        assert peaks == sorted(peaks)
        assert np.abs(freqs[peaks] - [250.0, 900.0, 1500.0]).max() <= 5.0

    def test_memory_stays_bounded_on_a_long_scan(self):
        # the (peaks x points) temporaries of the prominences are taken a block
        # of peaks at a time; all at once, 4000 points of noise took 40 MB
        counts = np.random.default_rng(8).poisson(50.0, 4000)
        tracemalloc.start()
        try:
            find_peaks(counts, 5.0)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_bytes < 8e6

    def test_maxima_and_prominences_match_scipy(self):
        # scipy puts a plateau's peak at its middle and find_peaks at its first
        # index, scipy's left edge; the prominences are compared at that index
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(3, 130))
            # small integer counts give plateaus in the smoothed trace
            counts = rng.integers(0, 4, n) if trial % 2 else rng.poisson(rng.uniform(1.0, 60.0), n)
            padded = np.concatenate([counts[:1], counts, counts[-1:]]).astype(float)
            smooth = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0
            _, properties = signal.find_peaks(smooth, plateau_size=1)
            first = properties["left_edges"]
            # threshold 0: every local maximum has a positive prominence
            peaks = find_peaks(counts, 0.0)
            assert peaks == first.tolist()
            assert _prominences(smooth, first).tolist() == signal.peak_prominences(smooth, first)[0].tolist()


def lorentzian_guess_of_one_line(x, y, peak):
    """The starting point of the line at sample ``peak``, sample by sample: the reference for the guess."""
    offset = float(np.median(y))
    amplitude = max(float(y[peak]) - offset, 1e-9)
    half = offset + amplitude / 2.0
    left = next((x[i] for i in range(peak, -1, -1) if y[i] < half), x[0])
    right = next((x[i] for i in range(peak, x.size) if y[i] < half), x[-1])
    fwhm = max(float(right - left), float(np.median(np.diff(x))))
    return [amplitude, float(x[peak]), fwhm]


class TestFitLorentzian:
    def test_each_line_starts_from_its_sample_and_nearest_crossings(self):
        rng = np.random.default_rng(17)
        for points in (8, 13, 121):
            x = np.sort(rng.uniform(-60.0, 60.0, points))
            centres = rng.uniform(-80.0, 80.0, (3, 1))  # some lines outside the scan: crossings missing
            y = rng.poisson(5.0 + (60.0 / (1.0 + ((x - centres) / 3.0) ** 2)).sum(axis=0)).astype(float)
            for peaks in ([int(np.argmax(y))], rng.integers(0, points, 4).tolist(), []):
                expected = [v for peak in peaks for v in lorentzian_guess_of_one_line(x, y, peak)] + [np.median(y)]
                assert np.array_equal(_lorentzian_guess(x, y, peaks, float(np.median(np.diff(x)))), expected)
        flat = np.full(10, 7.0)  # no sample above the median: the amplitude floor
        assert _lorentzian_guess(np.arange(10.0), flat, [3], 1.0)[0] == 1e-9

    def test_noiseless_recovery_to_1e6(self):
        freqs = np.arange(-100.0, 100.1, 5.0)
        truth = np.array([100.0, 0.0, 6.7, 0.0])
        counts = lorentzian(freqs, truth)
        fit = fit_one_lorentzian(freqs, counts)
        assert fit.value("amplitude") == pytest.approx(100.0, rel=1e-6)
        assert fit.value("center_mhz") == pytest.approx(0.0, abs=1e-6 * 6.7)
        assert fit.value("fwhm_mhz") == pytest.approx(6.7, rel=1e-6)
        assert fit.value("offset") == pytest.approx(0.0, abs=1e-6 * 100.0)

    def test_poisson_noise_recovery(self):
        rng = np.random.default_rng(11)
        freqs = np.arange(-60.0, 60.1, 5.0)
        truth = np.array([213.0, 0.0, 6.7, 8.5])
        fit = fit_one_lorentzian(freqs, rng.poisson(lorentzian(freqs, truth)))
        assert abs(fit.value("fwhm_mhz") - 6.7) < 3.0 * fit.stderr("fwhm_mhz")
        assert abs(fit.value("center_mhz")) < 3.0 * fit.stderr("center_mhz")
        assert 0.2 < fit.reduced_chi_square < 3.0

    def test_constant_data_rejected(self):
        freqs = np.arange(20.0)
        with pytest.raises(FitError):
            fit_one_lorentzian(freqs, np.full(20, 7.0))

    def test_needs_eight_points(self):
        with pytest.raises(FitError):
            fit_one_lorentzian(np.arange(7.0), np.arange(7.0))
        with pytest.raises(FitError, match="need at least 8 points, got 0"):
            fit_lorentzians([], [], [])

    def test_flat_noise_flagged_or_consistent_with_zero(self):
        rng = np.random.default_rng(13)
        freqs = np.arange(-60.0, 60.1, 5.0)
        flagged = 0
        for _ in range(5):
            counts = rng.poisson(8.5, freqs.size)
            try:
                fit = fit_one_lorentzian(freqs, counts)
            except FitConvergenceError:
                flagged += 1
                continue
            assert abs(fit.value("amplitude")) < max(3.0 * fit.stderr("amplitude"), 0.5 * 8.5)
        assert flagged > 0

    def test_rescaled_counts_shift_only_scale_parameters(self):
        rng = np.random.default_rng(17)
        freqs = np.arange(-60.0, 60.1, 5.0)
        counts = rng.poisson(lorentzian(freqs, np.array([400.0, 2.0, 6.7, 50.0])))
        base = fit_one_lorentzian(freqs, counts)
        scaled = fit_one_lorentzian(freqs, counts * 16)
        assert scaled.value("amplitude") == pytest.approx(16.0 * base.value("amplitude"), rel=1e-6)
        assert scaled.value("offset") == pytest.approx(16.0 * base.value("offset"), rel=1e-6)
        assert scaled.value("center_mhz") == pytest.approx(base.value("center_mhz"), abs=1e-6)
        assert scaled.value("fwhm_mhz") == pytest.approx(base.value("fwhm_mhz"), rel=1e-6)


class TestFitExponentialDecay:
    def test_noiseless_recovery_to_1e6(self):
        centers = np.arange(0.5, 85.0, 1.0)
        truth = np.array([1200.0, 41.0, 20.0])
        # exact model values (not rounded) so the optimum is the truth
        fit = fit_exponential_decay(centers, exponential_decay(centers, truth), 20.0)
        assert fit.value("amplitude") == pytest.approx(1200.0, rel=1e-6)
        assert fit.value("tau_us") == pytest.approx(41.0, rel=1e-6)
        assert fit.names == ("amplitude", "tau_us")

    def test_pinned_background_reports_zero_error(self, config):
        # the floor is no parameter of the fit: fig3b's stage, which pins it, reports it with zero error
        rng = np.random.default_rng(19)
        centers = np.arange(0.5, 85.0, 1.0)
        floor = config.detector.dark_mean(1.0, config.decay.n_pulses)
        counts = rng.poisson(exponential_decay(centers, np.array([1200.0, 41.0, floor])))
        fit = fit_exponential_decay(centers, counts, floor)
        assert fit.names == ("amplitude", "tau_us")
        assert abs(fit.value("tau_us") - 41.0) < 3.0 * fit.stderr("tau_us")
        assert cli._fit_lifetime(config, centers, counts)[-1] == ("background", floor, 0.0, "counts")

    def test_pure_background_amplitude_consistent_with_zero_or_flagged(self):
        # with no decaying component the lifetime is unconstrained: either the
        # fit is flagged as degenerate or the amplitude is consistent with zero
        rng = np.random.default_rng(23)
        centers = np.arange(0.5, 85.0, 1.0)
        try:
            fit = fit_exponential_decay(centers, rng.poisson(20.0, centers.size), 20.0)
        except FitConvergenceError as err:
            assert not np.all(np.isfinite(err.last_result.stderrs)) or (
                err.last_result.value("tau_us") > 100.0
            )
            return
        assert abs(fit.value("amplitude")) < 3.0 * fit.stderr("amplitude")

    def test_constant_counts_rejected(self):
        with pytest.raises(FitError, match="^counts are constant; nothing to fit$"):
            fit_exponential_decay(np.arange(0.5, 85.0, 1.0), np.full(85, 20.0), 20.0)

    def test_a_failure_with_signal_keeps_its_own_message(self):
        # far above the floor, a lifetime beyond 50 windows is a runaway, not "no signal"
        centers = np.arange(0.5, 85.0, 1.0)
        counts = np.round(exponential_decay(centers, np.array([500.0, 1e4, 20.0])))
        with pytest.raises(FitConvergenceError, match="^lifetime 9.8e[+]03 us is unconstrained by the data$"):
            fit_exponential_decay(centers, counts, 20.0)

    def test_floor_above_the_tail_is_refused(self):
        # the tail is the last tenth of the 85 bins; its mean's Poisson standard error is sqrt(sum) / 8
        centers = np.arange(0.5, 85.0, 1.0)
        counts = np.round(exponential_decay(centers, np.array([60.0, 41.0, 5.0])))
        tail = counts[-8:]
        standard_error = math.sqrt(tail.sum()) / 8
        with pytest.raises(FitError, match=r"pinned floor .* is 5.0 standard errors above the mean"):
            fit_exponential_decay(centers, counts, tail.mean() + 5.01 * standard_error)
        fit_exponential_decay(centers, counts, tail.mean() + 4.99 * standard_error)

    def test_darks_alone_are_not_refused(self, config, emitter):
        # the calibrated floor of a zero-excitation histogram is the tail's own mean
        dark = dataclasses.replace(emitter, saturation_excitation_prob=0.0)
        floor = config.detector.dark_mean(1.0, config.decay.n_pulses)
        for seed in range(200):
            times, counts = simulate_decay_histogram(dark, config.protocol, config.detector, config.decay, seed)
            try:
                fit_exponential_decay(times, counts, floor)
            except FitConvergenceError as err:  # however the fit failed, it names the one cause
                assert str(err).startswith("no signal above the pinned floor: the counts exceed it by ")


def sweep_mean(fields, frequencies, params):
    """Expected counts of a voltage sweep: at each count's field, the sum of a Lorentzian per ion, centred and
    widened by the ion's line law, and one offset; ``params`` holds 5 law parameters per ion, then the offset."""
    laws = np.reshape(params[:-1], (-1, 5))
    return sum(lorentzian(frequencies, (a, *line_law(fields, f0, s, w0, b), 0.0)) for a, f0, s, w0, b in laws) \
        + params[-1]


def sweep_grid(voltages, params, half_width=60.0, pitch=5.0):
    """Fields and frequencies of scans that track the line law's centre."""
    fields = np.repeat(np.asarray(voltages, dtype=float) * VOLTS_TO_FIELD, int(2 * half_width / pitch) + 1)
    centre, _ = line_law(fields, *params[1:5])
    offsets = np.tile(np.arange(-half_width, half_width + 0.1, pitch), len(voltages))
    return fields, np.round(centre / pitch) * pitch + offsets


def one_ion(fields, frequencies, counts, ion_id="a"):
    """``fit_stark_sweep``'s columns of a sweep of the one ion ``ion_id``."""
    return np.full(np.shape(fields), ion_id), fields, frequencies, counts


def simulated_sweep(config, ion, seed):
    ion_ids, _, fields, frequencies, counts = simulate_stark_scan(
        [ion], config.emitter, config.stark, VOLTS_TO_FIELD, config.protocol, config.detector, seed
    )
    return ion_ids, fields, frequencies, counts


class TestFitStarkSweep:
    VOLTAGES = (-333.0, -222.0, -111.0, 0.0, 111.0, 222.0, 333.0)  # both signs: the width law takes |E|
    TRUTH = np.array([200.0, -40.0, -8.4, 6.7, 0.5, 8.5])
    LAW = ("amplitude", "zero_field_frequency", "stark_coefficient", "zero_field_fwhm", "broadening")

    def test_noiseless_recovery_to_1e6(self):
        fields, frequencies = sweep_grid(self.VOLTAGES, self.TRUTH)
        fit = fit_stark_sweep(*one_ion(fields, frequencies, sweep_mean(fields, frequencies, self.TRUTH)))
        assert fit.names == tuple(f"{name}_a" for name in self.LAW) + ("offset",)
        assert fit.values == pytest.approx(self.TRUTH, rel=1e-6)

    def test_two_ions_in_each_others_windows_recovered_to_1e6(self):
        # 40 MHz apart at 0 V, each line sits in the other's +-60 MHz window there; every count is the sum of
        # both laws, and the ions come out in the order of their first rows
        second = np.array([150.0, 0.0, 19.8, 6.7, 0.3])
        truth = np.concatenate([second, self.TRUTH])
        columns = [sweep_grid(self.VOLTAGES, law) for law in (second, self.TRUTH)]
        fields, frequencies = (np.concatenate(column) for column in zip(*columns))
        ion_ids = np.repeat(["b", "a"], [column[0].size for column in columns])
        fit = fit_stark_sweep(ion_ids, fields, frequencies, sweep_mean(fields, frequencies, truth))
        assert fit.names == tuple(f"{name}_{ion}" for ion in "ba" for name in self.LAW) + ("offset",)
        assert fit.values == pytest.approx(truth, rel=1e-6, abs=1e-9)

    def test_reaches_a_likelihood_stationary_point(self):
        # the deviance's finite-difference gradient vanishes at the fit, in
        # units of one standard error's pull, and the errors are those of the
        # Fisher matrix of a finite-difference Jacobian: checks the analytic one
        rng = np.random.default_rng(29)
        fields, frequencies = sweep_grid(self.VOLTAGES, self.TRUTH)
        for _ in range(5):
            counts = rng.poisson(sweep_mean(fields, frequencies, self.TRUTH)).astype(float)
            fit = fit_stark_sweep(*one_ion(fields, frequencies, counts))

            def model(x, params):
                return sweep_mean(fields, x, params)

            gradient = _finite_difference_gradient(model, frequencies, counts, fit.values)
            assert np.max(np.abs(gradient) * fit.stderrs) < 1e-3
            steps = 1e-6 * np.maximum(np.abs(fit.values), 1.0)
            jacobian = np.column_stack([
                (model(frequencies, fit.values + step) - model(frequencies, fit.values - step)) / (2.0 * step[j])
                for j, step in enumerate(np.diag(steps))
            ])
            fisher = (jacobian.T / model(frequencies, fit.values)) @ jacobian
            assert fit.stderrs == pytest.approx(np.sqrt(np.diag(np.linalg.inv(fisher))), rel=1e-5)

    def test_synthetic_ion1_slope(self, config, ion1):
        fit = fit_stark_sweep(*simulated_sweep(config, ion1, 31))
        assert abs(fit.value("stark_coefficient_ion1") - 19.8) < 3.0 * fit.stderr("stark_coefficient_ion1")
        assert 0.1 < fit.reduced_chi_square < 3.0

    def test_ensemble_statistics_recovered(self, config, ion1):
        rng = np.random.default_rng(37)
        raw = rng.normal(20.0, 5.8, 6)
        slopes = 20.0 + (raw - raw.mean()) / raw.std(ddof=1) * 5.8  # exact mean/SD
        recovered = []
        for index, true_slope in enumerate(slopes):
            ion = dataclasses.replace(ion1, stark_coefficient_khz_per_v_cm=float(true_slope))
            fit = fit_stark_sweep(*simulated_sweep(config, ion, 100 + index))
            recovered.append(fit.value("stark_coefficient_ion1"))
        recovered = np.array(recovered)
        # per-slope fit errors ~0.013, so the sample statistics must match closely
        assert recovered.mean() == pytest.approx(20.0, abs=0.1)
        assert recovered.std(ddof=1) == pytest.approx(5.8, abs=0.2)

    def test_identical_fields_rejected(self):
        fields, frequencies = sweep_grid((111.0, 111.0, 111.0), self.TRUTH)
        with pytest.raises(FitError, match="^a: need at least 3 distinct fields, got 1$"):
            fit_stark_sweep(*one_ion(fields, frequencies, sweep_mean(fields, frequencies, self.TRUTH)))

    def test_needs_three_distinct_fields(self):
        # the refusal names the ion that was swept at too few fields, here the second of two
        fields, frequencies = sweep_grid((0.0, 333.0, 0.0, 333.0), self.TRUTH)
        counts = sweep_mean(fields, frequencies, self.TRUTH)
        with pytest.raises(FitError, match="^a: need at least 3 distinct fields, got 2$"):
            fit_stark_sweep(*one_ion(fields, frequencies, counts))
        swept, swept_frequencies = sweep_grid(self.VOLTAGES, self.TRUTH)
        ion_ids = np.repeat(["b", "a"], [swept.size, fields.size])
        with pytest.raises(FitError, match="^a: need at least 3 distinct fields, got 2$"):
            fit_stark_sweep(ion_ids, np.concatenate([swept, fields]), np.concatenate([swept_frequencies, frequencies]),
                            np.concatenate([sweep_mean(swept, swept_frequencies, self.TRUTH), counts]))

    def test_a_negative_width_at_a_swept_field_is_refused(self):
        # the line narrows with the field, 10 and 5 MHz wide, and is gone at the last: the law that fits
        # runs through a width of 0 to a negative one there
        fields = np.repeat([0.0, 1000.0, 2000.0], 25)
        frequencies = np.tile(np.arange(-60.0, 60.1, 5.0), 3)
        widths = np.select([fields == 0.0, fields == 1000.0], [10.0, 5.0], 1e-9)
        counts = np.round(lorentzian(frequencies, (200.0, 2.5, widths, 5.0)))
        with pytest.raises(FitConvergenceError, match=r"^a: fit reached a width of -0\.\d+ MHz$") as err:
            fit_stark_sweep(*one_ion(fields, frequencies, counts))
        assert err.value.last_result.value("broadening_a") < 0.0

    def test_constant_counts_rejected(self):
        # without the check, a flat sweep "converges" to errors of 1e16 MHz
        fields, frequencies = sweep_grid(self.VOLTAGES, self.TRUTH)
        for level in (0.0, 5.0):
            with pytest.raises(FitError, match="counts are constant"):
                fit_stark_sweep(*one_ion(fields, frequencies, np.full(fields.size, level)))


class TestFitLorentzians:
    """One fit of a scan as the sum of K Lorentzians and one shared offset."""

    def test_noiseless_overlapping_lines_recovered_to_1e6(self):
        # 40 MHz apart, each line is still ~10% of its peak in the other's +-30 MHz window
        freqs = np.arange(-60.0, 60.1, 1.0)
        truth = [(300.0, -40.0, 6.7), (200.0, 0.0, 5.5), (150.0, 35.0, 8.0)]
        counts = sum(lorentzian(freqs, (a, c, w, 0.0)) for a, c, w in truth) + 8.5
        peaks = [int(np.argmin(np.abs(freqs - c))) for _, c, _ in truth]
        fit = fit_lorentzians(freqs, counts, peaks[::-1])  # given in any order, reported in centre order
        assert fit.names == tuple(
            f"peak{i}_{name}" for i in (1, 2, 3) for name in ("amplitude", "center_mhz", "fwhm_mhz")
        ) + ("offset",)
        assert fit.values == pytest.approx([*np.ravel(truth), 8.5], rel=1e-6, abs=1e-6)

    def test_collapse_names_the_first_collapsed_line(self):
        freqs = np.arange(-60.0, 60.1, 5.0)
        narrow = lorentzian(freqs, np.array([200.0, 0.0, 1.0, 8.0]))  # a 1 MHz line collapses below pitch/2
        with pytest.raises(FitConvergenceError) as err:
            fit_one_lorentzian(freqs, narrow)
        assert str(err.value) == "peak1: fit collapsed to an unresolvable width 1 MHz"
        assert err.value.last_result.value("peak1_fwhm_mhz") == pytest.approx(1.0, rel=1e-6)
        # a resolved line at -40 MHz, then the narrow one and another like it at 40 MHz
        counts = narrow + sum(lorentzian(freqs, (200.0, c, w, 0.0)) for c, w in ((-40.0, 6.7), (40.0, 1.0)))
        with pytest.raises(FitConvergenceError, match="^peak2: fit collapsed to an unresolvable width 1 MHz$"):
            fit_lorentzians(freqs, counts, [20, 4, 12])

    def test_a_failure_of_resolved_lines_is_raised_as_it_is(self):
        # flat Poisson(8.5) noise, whose line wanders off the scan's low end to fit its first samples:
        # it never narrows below pitch/2, so the fit's own failure is raised, carrying its last state
        freqs = np.arange(-60.0, 60.1, 5.0)
        counts = np.array([15, 7, 15, 13, 8, 10, 7, 6, 12, 11, 7, 10, 5, 7, 11, 11, 12, 10, 5, 7, 7, 6, 8, 7, 10])
        with pytest.raises(FitConvergenceError, match=r"^no convergence after 200 iterations") as err:
            fit_lorentzians(freqs, counts, [int(np.argmax(counts))])
        assert err.value.last_result.value("peak1_fwhm_mhz") >= 2.5
        assert err.value.last_result.value("peak1_center_mhz") < freqs[0]


class TestEstimateG2Zero:
    def make(self, c0, sides):
        lags = np.arange(-len(sides) // 2, len(sides) // 2 + 1)
        coincidences = np.insert(np.asarray(sides, dtype=np.int64), len(sides) // 2, c0)
        return lags, coincidences

    def test_empty_zero_lag(self):
        estimate = estimate_g2_zero(*self.make(0, [40, 38, 41, 44, 39, 37]))
        assert estimate.g2_zero == 0.0
        assert estimate.standard_error > 0.0

    def test_all_lags_equal_gives_one(self):
        estimate = estimate_g2_zero(*self.make(40, [40] * 6))
        assert estimate.g2_zero == pytest.approx(1.0)

    def test_scale_invariance(self):
        a = estimate_g2_zero(*self.make(12, [40, 38, 41, 44, 39, 37]))
        b = estimate_g2_zero(*self.make(12 * 7, [v * 7 for v in [40, 38, 41, 44, 39, 37]]))
        assert a.g2_zero == pytest.approx(b.g2_zero, rel=1e-12)

    def test_zero_side_lags_rejected(self):
        with pytest.raises(FitError, match="side lags"):
            estimate_g2_zero(*self.make(5, [0, 0, 0, 0]))


class TestObjectiveGradient:
    def test_lorentzian_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        x = np.arange(-80.0, 80.1, 5.0)
        for _ in range(30):
            params = np.array(
                [rng.uniform(20, 500), rng.uniform(-30, 30), rng.uniform(3, 25), rng.uniform(0, 40)]
            )
            y = rng.poisson(np.maximum(lorentzian(x, params), 0.0) + 5.0).astype(float)
            probe = params * rng.uniform(0.8, 1.2, 4)
            grad = _deviance_gradient(lorentzian, lorentzian_jacobian, x, y, probe)
            fd = _finite_difference_gradient(lorentzian, x, y, probe)
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4

    def test_sum_of_lorentzians_gradient_matches_finite_differences(self, monkeypatch):
        rng = np.random.default_rng(42)
        x = np.arange(-80.0, 80.1, 2.0)
        model, jacobian = _line_sum_of(monkeypatch, fit_lorentzians, x, np.arange(x.size) % 7, [10, 40, 70])
        for _ in range(10):
            lines = [[rng.uniform(20, 500), rng.uniform(-60, 60), rng.uniform(3, 25)] for _ in range(3)]
            params = np.array([v for line in lines for v in line] + [rng.uniform(1, 40)])
            y = rng.poisson(model(x, params) + 5.0).astype(float)
            probe = params * rng.uniform(0.9, 1.1, params.size)
            grad = _deviance_gradient(model, jacobian, x, y, probe)
            fd = _finite_difference_gradient(model, x, y, probe)
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4

    def test_sweep_gradient_matches_finite_differences(self, monkeypatch):
        # two ions' line laws over fields of both signs, the width law taking |E|
        rng = np.random.default_rng(44)
        voltages = (-333.0, -111.0, 0.0, 111.0, 333.0)
        columns = [sweep_grid(voltages, law) for law in ([150.0, 0.0, 19.8, 6.7, 0.3], [200.0, -40.0, -8.4, 6.7, 0.5])]
        fields, x = (np.concatenate(column) for column in zip(*columns))
        ion_ids = np.repeat(["b", "a"], [column[0].size for column in columns])
        model, jacobian = _line_sum_of(monkeypatch, fit_stark_sweep, ion_ids, fields, x, np.arange(x.size) % 7)
        for _ in range(10):
            laws = [[rng.uniform(20, 500), rng.uniform(-60, 60), rng.uniform(-30, 30), rng.uniform(3, 25),
                     rng.uniform(0.1, 2.0)] for _ in range(2)]
            params = np.array([v for law in laws for v in law] + [rng.uniform(1, 40)])
            assert model(x, params) == pytest.approx(sweep_mean(fields, x, params), rel=1e-12)
            y = rng.poisson(model(x, params) + 5.0).astype(float)
            probe = params * rng.uniform(0.9, 1.1, params.size)
            grad = _deviance_gradient(model, jacobian, x, y, probe)
            fd = _finite_difference_gradient(model, x, y, probe)
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4

    def test_exponential_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        t = np.arange(0.5, 85.0, 1.0)
        for _ in range(30):
            params = np.array([rng.uniform(100, 2000), rng.uniform(10, 70), rng.uniform(0, 30)])
            y = rng.poisson(exponential_decay(t, params) + 1.0).astype(float)
            probe = params * rng.uniform(0.9, 1.1, 3)
            grad = _deviance_gradient(exponential_decay, exponential_decay_jacobian, t, y, probe)
            fd = _finite_difference_gradient(exponential_decay, t, y, probe)
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4


def _line_sum_of(monkeypatch, fit, *columns):
    """The model and Jacobian that ``fit`` of ``columns`` hands to least_squares."""
    handed = []

    def capture(model, jacobian, *_):
        handed.extend([model, jacobian])
        raise FitError("captured")

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "least_squares", capture)
        with pytest.raises(FitError, match="^captured$"):
            fit(*columns)
    return handed


def _deviance_gradient(model, jacobian, x, y, params):
    """Analytic gradient of the Poisson deviance, ``-2 J^T (y/mu - 1)``."""
    return -2.0 * jacobian(x, params).T @ (y / model(x, params) - 1.0)


def _finite_difference_gradient(model, x, y, params):
    grad = np.empty(params.size)
    for j in range(params.size):
        step = 1e-6 * max(abs(params[j]), 1.0)
        hi = params.copy()
        lo = params.copy()
        hi[j] += step
        lo[j] -= step
        grad[j] = (poisson_deviance(model, x, y, hi) - poisson_deviance(model, x, y, lo)) / (2.0 * step)
    return grad


class TestPoissonFit:
    def test_deviance_of_empty_bins_and_non_positive_model(self):
        x = np.arange(10.0)
        y = np.zeros(10)
        params = np.array([30.0, 4.0, 3.0, 1.0])
        assert poisson_deviance(lorentzian, x, y, params) == pytest.approx(
            2.0 * lorentzian(x, params).sum(), rel=1e-14
        )
        assert poisson_deviance(lorentzian, x, y, np.array([30.0, 4.0, 3.0, -5.0])) == math.inf

    @pytest.mark.parametrize("amplitude", [1e300, math.inf], ids=["huge", "infinite"])
    def test_deviance_of_an_overflowing_model_is_inf(self, amplitude):
        # a huge mu rounds (y - mu)/mu to -1, whose log1p is -inf, and a sum
        # that is not finite scores +inf; an infinite amplitude is a parameter
        # that is not finite, which scores +inf before the model is evaluated
        x = np.arange(10.0)
        with np.errstate(all="ignore"):
            assert poisson_deviance(lorentzian, x, np.ones(10), np.array([amplitude, 4.0, 3.0, 1.0])) == math.inf

    def test_negative_counts_and_non_positive_start_rejected(self):
        x = np.arange(10.0)
        names = ("a", "c", "w", "o")
        with pytest.raises(FitError, match="counts must be >= 0"):
            least_squares(lorentzian, lorentzian_jacobian, x, np.full(10, -1.0), [30.0, 4.0, 3.0, 1.0], names)
        with pytest.raises(FitError, match="initial model > 0"):
            least_squares(lorentzian, lorentzian_jacobian, x, np.ones(10), [30.0, 4.0, 3.0, -5.0], names)

    def test_ill_matched_points_rejected(self):
        with pytest.raises(FitError, match="^x and y must have matching lengths$"):
            least_squares(lorentzian, lorentzian_jacobian, np.arange(10.0), np.ones(9), [30.0, 4.0, 3.0, 1.0],
                          ("a", "c", "w", "o"))

    def test_a_singular_damped_step_is_retried_with_more_damping(self, monkeypatch):
        # np.linalg.solve raises LinAlgError where LU finds no pivot, as on [[nan, 1], [1, 1]] under numpy
        # 2.4.6; here the first solve is made to fail that way: the fit damps ten times harder, retries, and
        # still reaches the optimum
        freqs = np.arange(-60.0, 60.1, 5.0)
        counts = lorentzian(freqs, np.array([200.0, 0.0, 6.7, 8.5]))
        initial, names = np.array([150.0, 3.0, 9.0, 5.0]), ("a", "c", "w", "o")
        expected = least_squares(lorentzian, lorentzian_jacobian, freqs, counts, initial, names)
        solve, calls = np.linalg.solve, []

        def failing_once(a, b):
            calls.append(a.copy())
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_once)
        fit = least_squares(lorentzian, lorentzian_jacobian, freqs, counts, initial, names)
        assert fit.values == pytest.approx(expected.values, rel=1e-6)
        # the retry damps the same Fisher matrix at 1e-2 instead of 1e-3: only its diagonal grows
        first, retry = calls[:2]
        assert np.array_equal(retry - np.diag(np.diag(retry)), first - np.diag(np.diag(first)))
        assert np.diag(retry) == pytest.approx(np.diag(first) / (1.0 + 1e-3) * (1.0 + 1e-2), rel=1e-12)

    def test_each_model_evaluation_is_a_deviance_evaluation(self, monkeypatch):
        # an accepted trial's model is the next iteration's and the result's, so no point is evaluated twice
        freqs = np.arange(-60.0, 60.1, 5.0)
        counts = np.random.default_rng(48).poisson(lorentzian(freqs, np.array([200.0, 0.0, 6.7, 8.5])))
        calls = {"model": 0, "deviance": 0}

        def model(x, params):
            calls["model"] += 1
            return lorentzian(x, params)

        def deviance(*args):
            calls["deviance"] += 1
            return poisson_deviance(*args)

        monkeypatch.setattr(optimize, "poisson_deviance", deviance)
        fit = least_squares(model, lorentzian_jacobian, freqs, counts, [150.0, 3.0, 9.0, 5.0], ("a", "c", "w", "o"))
        assert fit.iterations > 1
        assert calls["model"] == calls["deviance"]

    def test_count_fits_reach_a_likelihood_stationary_point(self):
        # the score J^T (y - mu)/mu vanishes at the maximum-likelihood point;
        # scaled by sqrt(F_jj) it is in units of one standard error's pull
        rng = np.random.default_rng(47)
        freqs = np.arange(-60.0, 60.1, 2.5)
        centers = np.arange(0.5, 85.0, 1.0)
        worst = 0.0
        for _ in range(200):
            truth = np.array([rng.uniform(100, 400), rng.uniform(-20, 20), rng.uniform(5, 12), rng.uniform(2, 20)])
            counts = rng.poisson(lorentzian(freqs, truth)).astype(float)
            fit = fit_one_lorentzian(freqs, counts)
            worst = max(worst, _scaled_score(lorentzian, lorentzian_jacobian, freqs, counts, fit.values))

            truth = np.array([rng.uniform(300, 2000), rng.uniform(20, 60), rng.uniform(5, 30)])
            counts = rng.poisson(exponential_decay(centers, truth)).astype(float)
            fit = fit_exponential_decay(centers, counts, truth[2])
            params = np.append(fit.values, truth[2])  # the pinned floor
            score = _scaled_score(exponential_decay, exponential_decay_jacobian, centers, counts, params, 2)
            worst = max(worst, score)
        assert worst < 1e-4

    def test_flipped_jacobian_stalls_instead_of_converging(self):
        freqs = np.arange(-60.0, 60.1, 5.0)
        counts = lorentzian(freqs, np.array([200.0, 0.0, 6.7, 8.5]))
        initial = np.array([150.0, 3.0, 9.0, 5.0])

        def flipped(x, params):
            return -lorentzian_jacobian(x, params)

        with pytest.raises(FitConvergenceError, match="stalled: no downhill step") as err:
            least_squares(lorentzian, flipped, freqs, counts, initial, ("a", "c", "w", "o"))
        assert np.array_equal(err.value.last_result.values, initial)

    def test_run_out_of_iterations(self):
        freqs = np.arange(-60.0, 60.1, 5.0)
        spike = np.full(freqs.size, 8.0)
        spike[7] = 200.0  # a one-sample spike narrows without end
        guess = _lorentzian_guess(freqs, spike, [7], 5.0)
        with pytest.raises(FitConvergenceError, match="^no convergence after 200 iterations") as err:
            least_squares(lorentzian, lorentzian_jacobian, freqs, spike, guess, ("a", "c", "w", "o"))
        assert err.value.last_result.iterations == 200
        # the line fit reads that last state and names the line narrowing below pitch/2
        with pytest.raises(FitConvergenceError, match="^peak1: fit collapsed to an unresolvable width") as err:
            fit_one_lorentzian(freqs, spike)
        assert err.value.last_result.iterations == 200

    def test_singular_fisher_matrix_gives_nan_errors(self):
        # the model p0 + p1 has two equal Jacobian columns: the Fisher matrix
        # is singular, so the errors are NaN, while the damped steps still fit
        x = np.arange(10.0)
        y = np.array([7.0, 9.0, 8.0, 6.0, 10.0, 8.0, 7.0, 9.0, 8.0, 8.0])

        def total(xx, p):
            return np.full(xx.size, p[0] + p[1])

        def total_jacobian(xx, p):
            return np.ones((xx.size, 2))

        fit = least_squares(total, total_jacobian, x, y, [3.0, 3.0], ("p0", "p1"))
        assert fit.values.sum() == pytest.approx(y.mean(), rel=1e-9)
        assert np.isnan(fit.stderrs).all()

    def test_constant_counts_refused(self):
        # after the sign check: constant counts of -1 still read "counts must be >= 0"
        x = np.arange(10.0)
        names = ("a", "c", "w", "o")
        for level in (0.0, 8.0):
            with pytest.raises(FitError, match="^counts are constant; nothing to fit$"):
                least_squares(lorentzian, lorentzian_jacobian, x, np.full(10, level), [30.0, 4.0, 3.0, 1.0], names)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_parameters_not_finite_score_inf(self, bad):
        # the model ignores its first parameter, so it would evaluate; a trial
        # step there scores +inf all the same, and a fit's state stays finite
        x = np.arange(10.0)

        def line(xx, p):
            return p[1] + p[2] * xx

        assert poisson_deviance(line, x, np.arange(1.0, 11.0), np.array([bad, 1.0, 1.0])) == math.inf
        with pytest.raises(FitError, match="initial model > 0"):
            least_squares(line, None, x, np.arange(1.0, 11.0), [bad, 1.0, 1.0], ("unused", "a", "b"))


def _scaled_score(model, jacobian, x, y, params, free_columns=None):
    mu = model(x, params)
    jac = jacobian(x, params)[:, :free_columns]
    score = jac.T @ ((y - mu) / mu)
    fisher_diagonal = ((jac * jac) / mu[:, None]).sum(axis=0)
    return float(np.max(np.abs(score) / np.sqrt(fisher_diagonal)))


def test_fit_report_csv(tmp_path):
    path = tmp_path / "fit_report.csv"
    write_table(path, REPORT_COLUMNS, [["tau_us"], [41.0], [0.4], ["us"]])
    lines = path.read_text().splitlines()
    assert lines[0] == "quantity,value,stderr,units"
    assert lines[1] == "tau_us,41,0.40000000000000002,us"
