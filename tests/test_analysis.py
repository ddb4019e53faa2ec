import math

import numpy as np
import pytest

from starksim.analysis import (
    G2Estimate,
    UndefinedNormalizationError,
    estimate_g2_zero,
    exponential_decay,
    exponential_decay_jacobian,
    find_peaks,
    fit_exponential_decay,
    fit_linear_weighted,
    fit_lorentzian,
    lorentzian,
    lorentzian_jacobian,
    write_fit_report_csv,
)
from starksim.experiment import G2Histogram, Histogram, ScanResult
from starksim.optimize import (
    DegenerateDataError,
    FitConvergenceError,
    FitError,
    SingularDesignError,
    least_squares,
    poisson_deviance,
)

VOLTS_TO_FIELD = 65.022536219113164  # default-layout calibration, V/cm per V


def make_scan(frequencies, counts):
    return ScanResult(
        frequencies_mhz=np.asarray(frequencies, dtype=float),
        counts=np.asarray(counts, dtype=np.int64),
        integration_s=5.0,
    )


def make_histogram(centers, counts):
    centers = np.asarray(centers, dtype=float)
    width = centers[1] - centers[0]
    edges = np.concatenate([centers - width / 2.0, [centers[-1] + width / 2.0]])
    return Histogram(bin_edges_us=edges, counts=np.asarray(counts, dtype=np.int64))


class TestFindPeaks:
    def test_all_zero_scan_is_empty(self):
        scan = make_scan(np.arange(50) * 5.0, np.zeros(50))
        assert find_peaks(scan, 5.0) == []

    def test_flat_poisson_background_rarely_triggers(self):
        rng = np.random.default_rng(321)
        freqs = np.arange(1000) * 5.0
        false_positives = sum(
            1 for _ in range(100) if find_peaks(make_scan(freqs, rng.poisson(8.5, 1000)), 5.0)
        )
        assert false_positives <= 2

    def test_injected_peak_found_within_one_pitch(self):
        rng = np.random.default_rng(99)
        freqs = np.arange(200) * 5.0
        truth = 501.3
        signal = 170.0 / (1.0 + (2.0 * (freqs - truth) / 6.7) ** 2)
        counts = rng.poisson(8.5 + signal)
        peaks = find_peaks(make_scan(freqs, counts), 5.0)
        assert len(peaks) == 1
        assert abs(peaks[0].center_mhz - truth) <= 5.0
        assert peaks[0].height_counts > 100.0

    def test_candidates_sorted_by_frequency(self):
        rng = np.random.default_rng(7)
        freqs = np.arange(400) * 5.0
        counts = rng.poisson(8.5, 400).astype(float)
        for centre in (1500.0, 250.0, 900.0):
            counts += 200.0 / (1.0 + (2.0 * (freqs - centre) / 6.7) ** 2)
        peaks = find_peaks(make_scan(freqs, rng.poisson(counts)), 5.0)
        assert len(peaks) == 3
        assert [p.center_mhz for p in peaks] == sorted(p.center_mhz for p in peaks)


class TestFitLorentzian:
    def test_noiseless_recovery_to_1e6(self):
        freqs = np.arange(-100.0, 100.1, 5.0)
        truth = np.array([100.0, 0.0, 6.7, 0.0])
        counts = lorentzian(freqs, truth)
        fit = fit_lorentzian(freqs, counts)
        assert fit.value("amplitude") == pytest.approx(100.0, rel=1e-6)
        assert fit.value("center_mhz") == pytest.approx(0.0, abs=1e-6 * 6.7)
        assert fit.value("fwhm_mhz") == pytest.approx(6.7, rel=1e-6)
        assert fit.value("offset") == pytest.approx(0.0, abs=1e-6 * 100.0)

    def test_poisson_noise_recovery(self):
        rng = np.random.default_rng(11)
        freqs = np.arange(-60.0, 60.1, 5.0)
        truth = np.array([213.0, 0.0, 6.7, 8.5])
        fit = fit_lorentzian(freqs, rng.poisson(lorentzian(freqs, truth)))
        assert abs(fit.value("fwhm_mhz") - 6.7) < 3.0 * fit.stderr("fwhm_mhz")
        assert abs(fit.value("center_mhz")) < 3.0 * fit.stderr("center_mhz")
        assert 0.2 < fit.reduced_chi_square < 3.0

    def test_constant_data_rejected(self):
        freqs = np.arange(20.0)
        with pytest.raises(DegenerateDataError):
            fit_lorentzian(freqs, np.full(20, 7.0))

    def test_needs_eight_points(self):
        with pytest.raises(DegenerateDataError):
            fit_lorentzian(np.arange(7.0), np.arange(7.0))

    def test_flat_noise_flagged_or_consistent_with_zero(self):
        rng = np.random.default_rng(13)
        freqs = np.arange(-60.0, 60.1, 5.0)
        flagged = 0
        for _ in range(5):
            counts = rng.poisson(8.5, freqs.size)
            try:
                fit = fit_lorentzian(freqs, counts)
            except FitConvergenceError:
                flagged += 1
                continue
            assert abs(fit.value("amplitude")) < max(3.0 * fit.stderr("amplitude"), 0.5 * 8.5)
        assert flagged > 0

    def test_rescaled_counts_shift_only_scale_parameters(self):
        rng = np.random.default_rng(17)
        freqs = np.arange(-60.0, 60.1, 5.0)
        counts = rng.poisson(lorentzian(freqs, np.array([400.0, 2.0, 6.7, 50.0])))
        base = fit_lorentzian(freqs, counts)
        scaled = fit_lorentzian(freqs, counts * 16)
        assert scaled.value("amplitude") == pytest.approx(16.0 * base.value("amplitude"), rel=1e-6)
        assert scaled.value("offset") == pytest.approx(16.0 * base.value("offset"), rel=1e-6)
        assert scaled.value("center_mhz") == pytest.approx(base.value("center_mhz"), abs=1e-6)
        assert scaled.value("fwhm_mhz") == pytest.approx(base.value("fwhm_mhz"), rel=1e-6)


class TestFitExponentialDecay:
    def test_noiseless_recovery_to_1e6(self):
        centers = np.arange(0.5, 85.0, 1.0)
        truth = np.array([1200.0, 41.0, 20.0])
        hist = make_histogram(centers, np.round(exponential_decay(centers, truth) * 1e6) / 1e6)
        # exact model values (not rounded) so the optimum is the truth
        hist = Histogram(bin_edges_us=hist.bin_edges_us, counts=exponential_decay(centers, truth))
        fit = fit_exponential_decay(hist)
        assert fit.value("amplitude") == pytest.approx(1200.0, rel=1e-6)
        assert fit.value("tau_us") == pytest.approx(41.0, rel=1e-6)
        assert fit.value("background") == pytest.approx(20.0, rel=1e-4)

    def test_pinned_background_reports_zero_error(self):
        rng = np.random.default_rng(19)
        centers = np.arange(0.5, 85.0, 1.0)
        counts = rng.poisson(exponential_decay(centers, np.array([1200.0, 41.0, 20.0])))
        fit = fit_exponential_decay(make_histogram(centers, counts), known_background=20.0)
        assert fit.value("background") == 20.0
        assert fit.stderr("background") == 0.0
        assert abs(fit.value("tau_us") - 41.0) < 3.0 * fit.stderr("tau_us")

    def test_pure_background_amplitude_consistent_with_zero_or_flagged(self):
        # with no decaying component the lifetime is unconstrained: either the
        # fit is flagged as degenerate or the amplitude is consistent with zero
        rng = np.random.default_rng(23)
        centers = np.arange(0.5, 85.0, 1.0)
        try:
            fit = fit_exponential_decay(make_histogram(centers, rng.poisson(20.0, centers.size)))
        except FitConvergenceError as err:
            assert not np.all(np.isfinite(err.last_result.stderrs)) or (
                err.last_result.value("tau_us") > 100.0
            )
            return
        assert abs(fit.value("amplitude")) < 3.0 * fit.stderr("amplitude")

    def test_fit_start_trims_bins(self):
        centers = np.arange(0.5, 85.0, 1.0)
        truth = np.array([800.0, 41.0, 0.0])
        hist = Histogram(
            bin_edges_us=np.arange(0.0, 85.5, 1.0), counts=exponential_decay(centers, truth)
        )
        fit = fit_exponential_decay(hist, fit_start_us=10.0)
        assert fit.value("tau_us") == pytest.approx(41.0, rel=1e-6)


class TestFitLinearWeighted:
    def test_exact_line_with_uniform_weights(self):
        fields = np.array([0.0, 2000.0, 5000.0, 9000.0, 21000.0])
        shifts = 19.8 * fields / 1000.0
        fit = fit_linear_weighted(fields, shifts, np.zeros_like(fields))
        assert fit.value("slope_khz_per_v_cm") == pytest.approx(19.8, rel=1e-12)
        assert fit.value("intercept_mhz") == pytest.approx(0.0, abs=1e-9)

    def test_matches_ordinary_least_squares_with_equal_errors(self):
        rng = np.random.default_rng(29)
        fields = np.linspace(0.0, 2e4, 9)
        shifts = 12.0 * fields / 1000.0 + rng.normal(0.0, 0.4, fields.size)
        fit = fit_linear_weighted(fields, shifts, np.full(fields.size, 0.4))
        slope_ols, intercept_ols = np.polyfit(fields, shifts, 1)
        assert fit.value("slope_khz_per_v_cm") == pytest.approx(slope_ols * 1000.0, rel=1e-10)
        assert fit.value("intercept_mhz") == pytest.approx(intercept_ols, rel=1e-8)

    def test_synthetic_ion1_slope(self):
        rng = np.random.default_rng(31)
        voltages = np.array([0.0, 55.5, 111.0, 166.5, 222.0, 277.5, 333.0])
        fields = voltages * VOLTS_TO_FIELD
        sigma = 0.25
        shifts = 19.8 * fields / 1000.0 + rng.normal(0.0, sigma, fields.size)
        fit = fit_linear_weighted(fields, shifts, np.full(fields.size, sigma))
        assert abs(fit.value("slope_khz_per_v_cm") - 19.8) < 3.0 * fit.stderr("slope_khz_per_v_cm")
        assert 0.1 < fit.reduced_chi_square < 3.0

    def test_ensemble_statistics_recovered(self):
        rng = np.random.default_rng(37)
        raw = rng.normal(20.0, 5.8, 6)
        slopes = 20.0 + (raw - raw.mean()) / raw.std(ddof=1) * 5.8  # exact mean/SD
        fields = np.linspace(0.0, 2.1e4, 7)
        recovered = []
        for true_slope in slopes:
            shifts = true_slope * fields / 1000.0 + rng.normal(0.0, 0.25, fields.size)
            fit = fit_linear_weighted(fields, shifts, np.full(fields.size, 0.25))
            recovered.append(fit.value("slope_khz_per_v_cm"))
        recovered = np.array(recovered)
        # per-slope fit errors ~0.02, so the sample statistics must match closely
        assert recovered.mean() == pytest.approx(20.0, abs=0.1)
        assert recovered.std(ddof=1) == pytest.approx(5.8, abs=0.2)

    def test_identical_fields_singular(self):
        with pytest.raises(SingularDesignError):
            fit_linear_weighted([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], [0.1, 0.1, 0.1])

    def test_needs_three_points(self):
        with pytest.raises(DegenerateDataError):
            fit_linear_weighted([1.0, 2.0], [1.0, 2.0], [0.1, 0.1])


class TestEstimateG2Zero:
    def make(self, c0, sides):
        lags = np.arange(-len(sides) // 2, len(sides) // 2 + 1)
        coincidences = np.insert(np.asarray(sides, dtype=np.int64), len(sides) // 2, c0)
        return G2Histogram(lags=lags, coincidences=coincidences)

    def test_empty_zero_lag(self):
        estimate = estimate_g2_zero(self.make(0, [40, 38, 41, 44, 39, 37]))
        assert estimate.g2_zero == 0.0
        assert estimate.standard_error > 0.0

    def test_all_lags_equal_gives_one(self):
        estimate = estimate_g2_zero(self.make(40, [40] * 6))
        assert estimate.g2_zero == pytest.approx(1.0)

    def test_scale_invariance(self):
        a = estimate_g2_zero(self.make(12, [40, 38, 41, 44, 39, 37]))
        b = estimate_g2_zero(self.make(12 * 7, [v * 7 for v in [40, 38, 41, 44, 39, 37]]))
        assert a.g2_zero == pytest.approx(b.g2_zero, rel=1e-12)

    def test_zero_side_lags_rejected(self):
        with pytest.raises(UndefinedNormalizationError):
            estimate_g2_zero(self.make(5, [0, 0, 0, 0]))


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

    def test_negative_counts_and_non_positive_start_rejected(self):
        x = np.arange(10.0)
        names = ("a", "c", "w", "o")
        with pytest.raises(FitError, match="counts must be >= 0"):
            least_squares(lorentzian, lorentzian_jacobian, x, np.full(10, -1.0), [30.0, 4.0, 3.0, 1.0], names)
        with pytest.raises(FitError, match="initial model > 0"):
            least_squares(lorentzian, lorentzian_jacobian, x, np.ones(10), [30.0, 4.0, 3.0, -5.0], names)

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
            fit = fit_lorentzian(freqs, counts)
            worst = max(worst, _scaled_score(lorentzian, lorentzian_jacobian, freqs, counts, fit.values))

            truth = np.array([rng.uniform(300, 2000), rng.uniform(20, 60), rng.uniform(5, 30)])
            counts = rng.poisson(exponential_decay(centers, truth)).astype(float)
            histogram = make_histogram(centers, counts)
            free = fit_exponential_decay(histogram)
            pinned = fit_exponential_decay(histogram, known_background=truth[2])
            for fit, free_columns in ((free, 3), (pinned, 2)):
                score = _scaled_score(
                    exponential_decay, exponential_decay_jacobian, centers, counts, fit.values, free_columns
                )
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


def _scaled_score(model, jacobian, x, y, params, free_columns=None):
    mu = model(x, params)
    jac = jacobian(x, params)[:, :free_columns]
    score = jac.T @ ((y - mu) / mu)
    fisher_diagonal = ((jac * jac) / mu[:, None]).sum(axis=0)
    return float(np.max(np.abs(score) / np.sqrt(fisher_diagonal)))


def test_fit_report_csv(tmp_path):
    path = tmp_path / "fit_report.csv"
    write_fit_report_csv([("tau_us", 41.0, 0.4, "us")], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "quantity,value,stderr,units"
    assert lines[1] == "tau_us,41,0.40000000000000002,us"
