import dataclasses
import math
import warnings

import numpy as np
import pytest

from starksim.config import ConfigError
from starksim.electrostatics import field_at, solve_potential
from starksim.experiment import (
    DecaySettings,
    DetectorModel,
    G2Settings,
    PLEProtocol,
    StarkScanSettings,
    _POISSON_MAX,
    check_count,
    check_poisson_mean,
    emission_window_probability,
    mix_seed,
    point_generator,
    simulate_decay_histogram,
    simulate_g2_histogram,
    simulate_ple_scan,
    simulate_stark_scan,
)
from starksim.stark import EmitterParams, lorentzian

from conftest import _lag_coincidences, fit_one_lorentzian


class TestSeedMixing:
    def test_known_values(self):
        # splitmix64 stream values; part of the reproducibility contract
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(0, 1) == 7960286522194355700
        assert mix_seed(240325942, 0) == 9552938418645586555
        assert mix_seed(2**64 - 1, 5) == 15212506146343009075

    def test_outputs_distinct_across_points(self):
        seeds = {mix_seed(12345, k) for k in range(10_000)}
        assert len(seeds) == 10_000


class TestProtocolValidation:
    def test_window_must_fit_in_period(self):
        with pytest.raises(ConfigError):
            PLEProtocol(pulse_length_us=10.0, window_delay_us=10.0, window_length_us=85.0)

    def test_positive_fields(self):
        with pytest.raises(ConfigError):
            PLEProtocol(pulse_length_us=0.0)

    def test_scan_frequencies_step_by_pitch(self, config):
        freqs = config.protocol.scan_frequencies_mhz()
        assert freqs[0] == -300.0 and freqs[-1] == 300.0
        assert np.allclose(np.diff(freqs), 5.0)

    def test_pulses_per_point(self, config):
        assert config.protocol.pulses_per_point == 50_000

    def test_counts_stop_below_2_to_the_63(self):
        # a count that sizes no array stops at int64's largest; one that sizes an
        # array of 8-byte entries at numpy's largest array, 2**63 - 1 bytes
        check_count("[decay].n_pulses", 2**63 - 1)
        check_count("[g2].n_pulses", (2**63 - 1) // 8, 8)
        for count, itemsize in [(2**63, 1), (2.0**63, 1), (math.inf, 1), (math.nan, 1), ((2**63 - 1) // 8 + 1, 8)]:
            with pytest.raises(ConfigError, match=r"^\[g2\]\.n_pulses gives a count of .*, above numpy's largest, "):
                check_count("[g2].n_pulses", count, itemsize)
        with pytest.raises(ValueError, match="array is too big"):  # numpy's own limit, refused before allocating
            np.empty((2**63 - 1) // 8 + 1, dtype=np.int64)
        # g2 holds its padded pulses, n_pulses + 2 max_lag, in int64 arrays
        G2Settings(n_pulses=(2**63 - 1) // 8 - 20, max_lag=10)  # representable: built, never drawn here
        with pytest.raises(ConfigError, match=r"^\[g2\]\.n_pulses"):
            G2Settings(n_pulses=(2**63 - 1) // 8 - 19, max_lag=10)
        with pytest.raises(ConfigError, match=r"^\[decay\]\.n_pulses"):
            DecaySettings(n_pulses=2**63)

    def test_poisson_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(_POISSON_MAX)
        check_poisson_mean("[g2].background_fraction", _POISSON_MAX)
        for mean in (np.nextafter(_POISSON_MAX, math.inf), math.inf, math.nan):
            with pytest.raises(ConfigError, match=r"^\[g2\]\.background_fraction gives a Poisson mean of"):
                check_poisson_mean("[g2].background_fraction", mean)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(_POISSON_MAX, math.inf))

    def test_each_poisson_mean_is_checked(self, config):
        # at 1e18 Hz a scan point's darks (85 us x 50 000 pulses) stay below the limit while the
        # decay's bins (1 us x 10^7 pulses) do not; at 2.2e18 Hz the reverse, over 1000 pulses
        for rate, decay, mean in ((1e18, config.decay, "1e\\+19"), (2.2e18, DecaySettings(n_pulses=1000), "9.35e\\+18")):
            with pytest.raises(ConfigError, match=rf"^\[detector\]\.dark_rate_hz gives a Poisson mean of {mean},"):
                dataclasses.replace(config, detector=DetectorModel(dark_rate_hz=rate), decay=decay)
        g2 = G2Settings(background_fraction=1.0 - 2.0**-52)  # a background 2**52 - 1 times the signal
        with pytest.raises(ConfigError, match=r"^\[g2\]\.background_fraction gives a Poisson mean"):
            dataclasses.replace(config, g2=g2)


class TestPLEScan:
    def test_deterministic(self, config, ion1, emitter):
        proto = dataclasses.replace(config.protocol, scan_range_mhz=(-50.0, 50.0))
        runs = [simulate_ple_scan([ion1], emitter, proto, config.detector, 0.0, 99)[1] for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_zero_efficiency_and_darks_give_zero_counts(self, config, ion1, emitter):
        detector = DetectorModel(total_efficiency=0.0, dark_rate_hz=0.0)
        proto = dataclasses.replace(config.protocol, scan_range_mhz=(-20.0, 20.0))
        _, counts = simulate_ple_scan([ion1], emitter, proto, detector, 0.0, 1)
        assert np.all(counts == 0)

    def test_ion_free_scan_matches_dark_expectation(self, config):
        proto = dataclasses.replace(config.protocol, scan_range_mhz=(0.0, 5.0 * 999))
        _, counts = simulate_ple_scan([], config.emitter, proto, config.detector, 0.0, 7)
        expected = 2.0 * 85e-6 * 50_000  # rate x window x pulses
        assert expected == pytest.approx(8.5)
        sigma = math.sqrt(expected / counts.size)
        assert abs(counts.mean() - expected) < 3.0 * sigma

    def test_single_ion_linewidth_recovered(self, config, ion1, emitter):
        proto = dataclasses.replace(config.protocol, scan_range_mhz=(-60.0, 60.0))
        fit = fit_one_lorentzian(*simulate_ple_scan([ion1], emitter, proto, config.detector, 0.0, 17))
        assert fit.value("fwhm_mhz") == pytest.approx(6.7, abs=3.0 * fit.stderr("fwhm_mhz"))
        assert fit.value("center_mhz") == pytest.approx(0.0, abs=3.0 * fit.stderr("center_mhz"))

    def test_counts_nonnegative_and_frequencies_increasing(self, config, ion1, emitter):
        proto = dataclasses.replace(config.protocol, scan_range_mhz=(-30.0, 30.0))
        frequencies, counts = simulate_ple_scan([ion1], emitter, proto, config.detector, 2000.0, 3)
        assert np.array_equal(frequencies, proto.scan_frequencies_mhz())
        assert np.all(counts >= 0)
        assert np.all(np.diff(frequencies) > 0)


class TestDecay:
    def test_lifetime_recovered_within_two_percent(self, config, emitter):
        times, counts = simulate_decay_histogram(
            emitter, config.protocol, config.detector, DecaySettings(10_000_000, 1.0), 42
        )
        from starksim.analysis import fit_exponential_decay

        floor = config.detector.dark_rate_hz * 1e-6 * 10_000_000
        fit = fit_exponential_decay(times, counts, floor)
        assert fit.value("tau_us") == pytest.approx(41.007, rel=0.02)

    def test_zero_excitation_leaves_uniform_darks(self, config, emitter):
        emitter = dataclasses.replace(emitter, saturation_excitation_prob=0.0)
        n_pulses = 2_000_000
        times, counts = simulate_decay_histogram(
            emitter, config.protocol, config.detector, DecaySettings(n_pulses, 1.0), 5
        )
        per_bin = config.detector.dark_rate_hz * 1.0 * 1e-6 * n_pulses
        assert per_bin == pytest.approx(4.0)
        assert counts.sum() > 0, "dark counts expected"
        assert counts.mean() == pytest.approx(per_bin, abs=3.0 * math.sqrt(per_bin / counts.size))
        # flat over the window: the mean detection time sits mid-window
        mean_time = np.average(times, weights=counts)
        assert mean_time == pytest.approx(85.0 / 2.0, abs=3.0 * 85.0 / math.sqrt(12 * counts.sum()))

    def test_signal_total_matches_closed_form(self, config, emitter):
        n_pulses = 1_000_000
        detector = DetectorModel(total_efficiency=config.detector.total_efficiency, dark_rate_hz=0.0)
        _, counts = simulate_decay_histogram(emitter, config.protocol, detector, DecaySettings(n_pulses, 1.0), 9)
        p_window = emission_window_probability(emitter.lifetime_us, 1.0, 85.0)
        expected = n_pulses * 0.5 * p_window * detector.total_efficiency
        assert abs(counts.sum() - expected) < 3.0 * math.sqrt(expected)

    def test_at_most_one_signal_photon_per_pulse(self, config, emitter):
        # every pulse excited, every photon detected, no darks: the total is
        # Binomial(n, P_window), never above n and far below Poisson spread
        emitter = EmitterParams(bulk_lifetime_ms=20.0, enhancement_factor=1000.0, saturation_excitation_prob=1.0)
        assert emitter.lifetime_us == 20.0
        detector = DetectorModel(total_efficiency=1.0, dark_rate_hz=0.0)
        n_pulses = 20
        decay = DecaySettings(n_pulses, 5.0)
        totals = np.array([
            simulate_decay_histogram(emitter, config.protocol, detector, decay, seed)[1].sum() for seed in range(400)
        ])
        p_window = emission_window_probability(20.0, 1.0, 85.0)
        variance = n_pulses * p_window * (1.0 - p_window)
        assert totals.max() <= n_pulses
        assert totals.mean() == pytest.approx(n_pulses * p_window, abs=4.0 * math.sqrt(variance / totals.size))
        assert totals.var(ddof=1) == pytest.approx(variance, rel=0.3)

    def test_times_inside_window(self, config, emitter):
        # whole 2 us bins: the last edge is the last whole step, 84 us, inside the 85 us window
        times, counts = simulate_decay_histogram(
            emitter, config.protocol, config.detector, DecaySettings(200_000, 2.0), 13
        )
        assert counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert counts.size == 42
        edges = bin_edges(times, 2.0)
        assert edges[0] == 0.0
        assert edges[-1] == 84.0 <= 85.0

    def test_histogram_covers_window(self, config, emitter):
        times, counts = simulate_decay_histogram(
            emitter, config.protocol, config.detector, DecaySettings(100_000, 1.0), 3
        )
        assert np.array_equal(times, np.arange(85) + 0.5)
        assert counts.sum() > 0


def bin_edges(centers_us, bin_width_us):
    """The edges of abutting bins of ``bin_width_us`` at ``centers_us``."""
    return np.append(centers_us - bin_width_us / 2.0, centers_us[-1] + bin_width_us / 2.0)


def _decay_bin_means(emitter, protocol, detector, decay, edges):
    """Closed-form signal and dark means per bin."""
    n_pulses = decay.n_pulses
    survival = np.exp(-(protocol.window_delay_us + edges) / emitter.lifetime_us)
    p_photon = emitter.saturation_excitation_prob * detector.total_efficiency
    signal = n_pulses * p_photon * (survival[:-1] - survival[1:])
    darks = detector.dark_rate_hz * np.diff(edges) * 1e-6 * n_pulses
    return signal, darks


def _per_pulse_decay_counts(emitter, protocol, detector, decay, edges, seed):
    """Reference sampler: one excitation draw per pulse, one exponential
    delay per excited pulse, darks placed uniformly over the window."""
    n_pulses = decay.n_pulses
    rng = np.random.default_rng(seed)
    excited = int(np.count_nonzero(rng.random(n_pulses) < emitter.saturation_excitation_prob))
    delays = rng.exponential(emitter.lifetime_us, excited)
    lo = protocol.window_delay_us
    in_window = (delays >= lo) & (delays <= lo + protocol.window_length_us)
    detected = in_window & (rng.random(excited) < detector.total_efficiency)
    n_dark = rng.poisson(detector.dark_mean(protocol.window_length_us, n_pulses))
    darks = rng.uniform(0.0, protocol.window_length_us, n_dark)
    counts, _ = np.histogram(np.concatenate([delays[detected] - lo, darks]), bins=edges)
    return counts


class TestDecayDistribution:
    """The O(bins) sampler against the per-pulse experiment it replaces.

    Four whole 20 us bins over the 85 us window, so the window's last
    5 us are past the last edge; the dark-heavy detector makes darks as
    large as the signal.
    """

    N_PULSES = 100_000
    N_SEEDS = 250
    BIN_WIDTH_US = 20.0

    @pytest.fixture(scope="class", params=[2.0, 200.0], ids=["default-darks", "dark-heavy"])
    def samples(self, request, config, emitter):
        detector = DetectorModel(total_efficiency=config.detector.total_efficiency, dark_rate_hz=request.param)
        args = (emitter, config.protocol, detector, DecaySettings(self.N_PULSES, self.BIN_WIDTH_US))
        fast = np.array([simulate_decay_histogram(*args, seed)[1] for seed in range(self.N_SEEDS)])
        edges = bin_edges(simulate_decay_histogram(*args, 0)[0], self.BIN_WIDTH_US)
        reference = np.array([
            _per_pulse_decay_counts(*args, edges, 10_000 + seed) for seed in range(self.N_SEEDS)
        ])
        return fast, reference, _decay_bin_means(*args, edges)

    def test_bins_match_closed_form_means(self, samples):
        stats = pytest.importorskip("scipy.stats")
        fast, reference, (signal, darks) = samples
        p_bin = signal / self.N_PULSES
        variance = self.N_PULSES * p_bin * (1.0 - p_bin) + darks  # binomial signal + Poisson darks
        for counts in (fast, reference):
            z = (counts.sum(axis=0) - self.N_SEEDS * (signal + darks)) / np.sqrt(self.N_SEEDS * variance)
            assert stats.chi2.sf(np.sum(z**2), df=z.size) > 1e-3, z

    def test_bins_match_per_pulse_reference(self, samples):
        stats = pytest.importorskip("scipy.stats")
        fast, reference, _ = samples
        columns = [*fast.T, fast.sum(axis=1)], [*reference.T, reference.sum(axis=1)]
        p_values = [stats.ks_2samp(a, b).pvalue for a, b in zip(*columns)]
        assert min(p_values) * len(p_values) > 1e-3, p_values  # Bonferroni over bins and total

    def test_total_is_poissonian(self, samples):
        fast, reference, _ = samples
        tolerance = 3.0 * math.sqrt(2.0 / (self.N_SEEDS - 1))
        for counts in (fast, reference):
            totals = counts.sum(axis=1)
            assert totals.var(ddof=1) / totals.mean() == pytest.approx(1.0, abs=tolerance)


class TestDecayDegenerateInputs:
    """Inputs at the edge of the model give a darks-only or empty
    histogram, never an exception, a warning or a nan."""

    N_PULSES = 1_000_000_000  # the cost does not depend on it

    def _histogram(self, config, emitter, detector, bin_width_us=1.0, seed=71):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, counts = simulate_decay_histogram(
                emitter, config.protocol, detector, DecaySettings(self.N_PULSES, bin_width_us), seed
            )
        assert counts.dtype == np.int64 and np.all(counts >= 0)
        return times, counts

    @pytest.mark.parametrize("case", ["no excitation", "no efficiency", "window probability underflows"])
    @pytest.mark.parametrize("dark_rate_hz", [0.0, 2.0])
    def test_no_signal(self, config, emitter, case, dark_rate_hz):
        efficiency = config.detector.total_efficiency
        if case == "no excitation":
            emitter = dataclasses.replace(emitter, saturation_excitation_prob=0.0)
        elif case == "no efficiency":
            efficiency = 0.0
        else:  # exp(-1 us / 1 ns) is 0.0 in double precision
            emitter = EmitterParams(bulk_lifetime_ms=1e-3, enhancement_factor=1000.0)
            assert emitter.lifetime_us == 1e-3
            assert emission_window_probability(1e-3, 1.0, 85.0) == 0.0
        detector = DetectorModel(total_efficiency=efficiency, dark_rate_hz=dark_rate_hz)
        _, counts = self._histogram(config, emitter, detector)
        expected = detector.dark_mean(85.0, self.N_PULSES)
        if dark_rate_hz == 0.0:
            assert counts.sum() == 0
        else:
            assert abs(counts.sum() - expected) < 4.0 * math.sqrt(expected)

    def test_bin_wider_than_window(self, config, emitter):
        dataclasses.replace(config, decay=DecaySettings(bin_width_us=85.0))
        times, _ = self._histogram(config, emitter, config.detector, bin_width_us=85.0)
        assert times.tolist() == [42.5]  # one whole bin
        with pytest.raises(ConfigError, match=r"^\[decay\]\.bin_width_us = 100 us is wider than "
                                              r"\[protocol\]\.window_length_us = 85 us$"):
            dataclasses.replace(config, decay=DecaySettings(bin_width_us=100.0))

    def test_window_not_a_multiple_of_the_bin(self, config, emitter):
        emitter = dataclasses.replace(emitter, saturation_excitation_prob=0.0)
        times, counts = self._histogram(config, emitter, config.detector, bin_width_us=2.0)
        assert counts.size == 42 and times[-1] == 83.0
        # every bin is whole, so each holds a full bin's darks
        per_bin = config.detector.dark_rate_hz * 2.0 * 1e-6 * self.N_PULSES
        assert counts.mean() == pytest.approx(per_bin, abs=4.0 * math.sqrt(per_bin / counts.size))
        assert np.all(np.abs(counts - per_bin) < 5.0 * math.sqrt(per_bin))

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"n_pulses": 0}, "[decay].n_pulses must be at least 1, got 0"),
            ({"bin_width_us": 0.0}, "[decay].bin_width_us must be positive, got 0.0"),
            ({"bin_width_us": -1.0}, "[decay].bin_width_us must be positive, got -1.0"),
        ],
    )
    def test_settings_out_of_range_are_refused(self, settings, message):
        # the record refuses them, so no simulator call can see them
        with pytest.raises(ConfigError) as caught:
            DecaySettings(**settings)
        assert str(caught.value) == message


def _ple_point_moments(ions, emitter, protocol, detector, e_parallel_v_per_cm):
    """Closed-form mean and variance of each scan point's count: a binomial
    per ion, ``p = p_sat / (1 + (2 detuning / fwhm)^2) * efficiency * P_window``,
    plus Poisson darks."""
    p_window = emission_window_probability(emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us)
    n = protocol.pulses_per_point
    darks = detector.dark_rate_hz * protocol.window_length_us * 1e-6 * n
    mean = np.full(protocol.scan_frequencies_mhz().size, darks)
    variance = mean.copy()
    for ion in ions:
        centre, fwhm = ion.line(e_parallel_v_per_cm)
        u = 2.0 * (protocol.scan_frequencies_mhz() - centre) / fwhm
        p = emitter.saturation_excitation_prob / (1.0 + u**2) * detector.total_efficiency * p_window
        mean += n * p
        variance += n * p * (1.0 - p)
    return mean, variance


def _per_point_ple_counts(ions, emitter, protocol, detector, e_parallel_v_per_cm, seed):
    """Reference sampler: a generator per scan point; each ion's excited
    pulses are drawn, then thinned to the detected ones."""
    n_pulses = protocol.pulses_per_point
    window_prob = emission_window_probability(
        emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
    )
    dark_mean = detector.dark_mean(protocol.window_length_us, n_pulses)
    counts = []
    for index, freq in enumerate(protocol.scan_frequencies_mhz()):
        rng = np.random.Generator(np.random.PCG64(mix_seed(seed, index)))
        total = 0
        for ion in ions:
            centre, fwhm = ion.line(e_parallel_v_per_cm)
            p_exc = lorentzian(freq, (emitter.saturation_excitation_prob, centre, fwhm, 0.0))
            excited = rng.binomial(n_pulses, p_exc)
            total += rng.binomial(excited, detector.total_efficiency * window_prob)
        counts.append(total + rng.poisson(dark_mean))
    return np.array(counts)


class TestPLEDistribution:
    """The bulk scan sampler against the per-point draws it replaces.

    Two lines 40 MHz apart in a 25-point window, so some points hold both
    ions' tails and the outer points mostly darks.
    """

    N_SEEDS = 300

    @pytest.fixture(scope="class")
    def samples(self, config):
        args = (
            [config.ion("ion1"), config.ion("ion2")], config.emitter,
            dataclasses.replace(config.protocol, scan_range_mhz=(-60.0, 60.0)), config.detector, 0.0,
        )
        bulk = np.array([simulate_ple_scan(*args, seed)[1] for seed in range(self.N_SEEDS)])
        reference = np.array([_per_point_ple_counts(*args, 10_000 + seed) for seed in range(self.N_SEEDS)])
        assert bulk.shape == (self.N_SEEDS, 25)
        return bulk, reference, _ple_point_moments(*args)

    def test_points_match_closed_form_means(self, samples):
        stats = pytest.importorskip("scipy.stats")
        bulk, reference, (mean, variance) = samples
        for counts in (bulk, reference):
            z = (counts.sum(axis=0) - self.N_SEEDS * mean) / np.sqrt(self.N_SEEDS * variance)
            assert stats.chi2.sf(np.sum(z**2), df=z.size) > 1e-3, z

    def test_points_match_per_point_reference(self, samples):
        stats = pytest.importorskip("scipy.stats")
        bulk, reference, _ = samples
        p_values = [stats.ks_2samp(a, b).pvalue for a, b in zip(bulk.T, reference.T)]
        assert min(p_values) * len(p_values) > 1e-3, p_values  # Bonferroni over points


class TestG2:
    def test_single_emitter_zero_lag_is_empty(self, config, emitter):
        lags, coincidences = simulate_g2_histogram(emitter, G2Settings(0.0, 100_000, 10), config.protocol, 21)
        assert coincidences[lags == 0][0] == 0
        assert coincidences[lags != 0].min() > 0

    def test_poissonian_control_normalizes_to_one(self, config, emitter, poissonian_g2):
        from starksim.analysis import estimate_g2_zero

        estimate = estimate_g2_zero(*poissonian_g2(emitter, G2Settings(0.0, 100_000, 10), config.protocol, 23))
        assert estimate.g2_zero == pytest.approx(1.0, abs=3.0 * estimate.standard_error)

    def test_signal_fraction_sets_zero_lag_value(self, config, emitter):
        from starksim.analysis import estimate_g2_zero

        estimate = estimate_g2_zero(
            *simulate_g2_histogram(emitter, G2Settings(1.0 - 0.949, 400_000, 10), config.protocol, 25)
        )
        assert estimate.g2_zero == pytest.approx(1.0 - 0.949**2, abs=3.5 * estimate.standard_error)

    def test_lag_axis(self, config, emitter):
        lags, _ = simulate_g2_histogram(emitter, G2Settings(0.1, 5_000, 4), config.protocol, 2)
        assert list(lags) == list(range(-4, 5))

    def test_background_fraction_bounds(self):
        # the record refuses a fraction outside [0, 1), so no simulator call can see one
        for fraction in (1.0, -0.1):
            with pytest.raises(ConfigError) as caught:
                G2Settings(background_fraction=fraction)
            assert str(caught.value) == f"[g2].background_fraction must lie in [0, 1), got {fraction}"

    @pytest.mark.parametrize("background_fraction", [0.0, 0.051, 0.5, 0.95])
    @pytest.mark.parametrize("n_pulses, max_lag", [(11, 10), (12, 10), (30, 3), (1000, 50), (20_000, 10)])
    def test_lag_sums_are_those_of_the_two_arms(self, config, emitter, background_fraction, n_pulses, max_lag):
        # the arms the sampler's draws describe, rebuilt per pulse, give the same coincidences exactly
        protocol = config.protocol
        p = emitter.saturation_excitation_prob * emission_window_probability(
            emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
        )
        m = background_fraction / (1.0 - background_fraction) * p
        for seed in range(3):
            rng = point_generator(seed)
            u = rng.random(n_pulses)
            arm_a = (u < p / 2.0).astype(np.int64)
            arm_b = ((p / 2.0 <= u) & (u < p)).astype(np.int64)
            for arm in (arm_a, arm_b):
                arm += np.bincount(rng.integers(0, n_pulses, rng.poisson(m / 2.0 * n_pulses)), minlength=n_pulses)
            expected_lags, expected = _lag_coincidences(arm_a, arm_b, max_lag)
            lags, coincidences = simulate_g2_histogram(
                emitter, G2Settings(background_fraction, n_pulses, max_lag), protocol, seed
            )
            assert np.array_equal(lags, expected_lags)
            assert coincidences.dtype == np.int64
            assert np.array_equal(coincidences, expected)


def _g2_lag_means(emitter, g2, protocol):
    """Closed-form mean of C(k): each arm gets ``(p + m)/2`` per pulse, and
    at lag 0 the one signal photon of a pulse reaches only one arm."""
    background_fraction, n_pulses, max_lag = g2.background_fraction, g2.n_pulses, g2.max_lag
    p = emitter.saturation_excitation_prob * emission_window_probability(
        emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
    )
    m = background_fraction / (1.0 - background_fraction) * p
    lags = np.arange(-max_lag, max_lag + 1)
    return np.where(lags == 0, n_pulses * (p * m / 2.0 + m**2 / 4.0), (n_pulses - np.abs(lags)) * ((p + m) / 2.0) ** 2)


def _per_pulse_g2(emitter, g2, protocol, seed):
    """Reference sampler: per-pulse signal and background events, each
    event routed to arm A or B by a fair binomial split."""
    background_fraction, n_pulses, max_lag = g2.background_fraction, g2.n_pulses, g2.max_lag
    rng = np.random.default_rng(seed)
    p_signal = emitter.saturation_excitation_prob * emission_window_probability(
        emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
    )
    background_mean = background_fraction / (1.0 - background_fraction) * p_signal
    events = (rng.random(n_pulses) < p_signal).astype(np.int64)
    events += rng.poisson(background_mean, n_pulses)
    arm_a = rng.binomial(events, 0.5)
    arm_b = events - arm_a
    lags = np.arange(-max_lag, max_lag + 1)
    coincidences = np.empty(lags.size, dtype=np.int64)
    for i, lag in enumerate(lags):
        k = abs(int(lag))
        if lag >= 0:
            coincidences[i] = int(np.dot(arm_a[: n_pulses - k], arm_b[k:]))
        else:
            coincidences[i] = int(np.dot(arm_a[k:], arm_b[: n_pulses - k]))
    return lags, coincidences


class TestG2Distribution:
    """The direct two-arm g2 sampler against the per-pulse split it replaces."""

    N_PULSES = 10_000
    N_SEEDS = 200
    MAX_LAG = 4

    @pytest.fixture(scope="class", params=[0.051, 0.5], ids=["default-background", "background-heavy"])
    def samples(self, request, config):
        args = (config.emitter, G2Settings(request.param, self.N_PULSES, self.MAX_LAG), config.protocol)
        bulk = [simulate_g2_histogram(*args, seed) for seed in range(self.N_SEEDS)]
        reference = [_per_pulse_g2(*args, 10_000 + seed) for seed in range(self.N_SEEDS)]
        return bulk, reference, _g2_lag_means(*args)

    def test_lags_match_closed_form_means(self, samples):
        stats = pytest.importorskip("scipy.stats")
        bulk, reference, means = samples
        for histograms in (bulk, reference):
            counts = np.array([coincidences for _, coincidences in histograms])
            z = (counts.mean(axis=0) - means) / (counts.std(axis=0, ddof=1) / math.sqrt(self.N_SEEDS))
            p_values = 2.0 * stats.norm.sf(np.abs(z))
            assert p_values.min() * z.size > 1e-3, z  # Bonferroni over lags, valid though lags correlate

    def test_zero_lag_estimate_matches_per_pulse_reference(self, samples):
        stats = pytest.importorskip("scipy.stats")
        from starksim.analysis import estimate_g2_zero

        bulk, reference, _ = samples
        estimates = [[estimate_g2_zero(*histogram).g2_zero for histogram in histograms]
                     for histograms in (bulk, reference)]
        assert stats.ks_2samp(*estimates).pvalue > 1e-3


class TestStarkScan:
    @pytest.fixture(scope="class")
    def volts_to_field(self, config):
        return field_at(solve_potential(config.layout, config.layout.gap_um / 20.0), config.layout.probe_point_um)[0]

    def test_zero_voltage_peak_at_rest_frequency(self, config, volts_to_field):
        ion2 = config.ion("ion2")
        # the sweep needs 3 voltages; its first scan, at 0 V, is the one checked
        stark = StarkScanSettings(voltages_v=(0.0, 111.0, 222.0), window_half_width_mhz=60.0)
        _, voltages, fields, freqs, counts = simulate_stark_scan(
            [ion2], config.emitter, stark, volts_to_field, config.protocol, config.detector, 31
        )
        first = voltages == 0.0
        fit = fit_one_lorentzian(freqs[first], counts[first])
        assert fit.value("center_mhz") == pytest.approx(-40.0, abs=3.0 * fit.stderr("center_mhz"))
        assert np.all(fields[first] == 0.0)

    def test_equally_spaced_voltages_give_equally_spaced_peaks(self, config, ion1, emitter, volts_to_field):
        stark = StarkScanSettings(voltages_v=(0.0, 111.0, 222.0))
        _, voltages, fields, freqs, counts = simulate_stark_scan(
            [ion1], emitter, stark, volts_to_field, config.protocol, config.detector, 33
        )
        assert np.unique(voltages).tolist() == list(stark.voltages_v)
        assert np.array_equal(fields, volts_to_field * voltages)
        centres, errs = [], []
        for voltage in stark.voltages_v:
            fit = fit_one_lorentzian(freqs[voltages == voltage], counts[voltages == voltage])
            centres.append(fit.value("center_mhz"))
            errs.append(fit.stderr("center_mhz"))
        first = centres[1] - centres[0]
        second = centres[2] - centres[1]
        assert first == pytest.approx(second, abs=3.0 * math.hypot(*errs[:2], errs[2]))
        expected = ion1.line(volts_to_field * stark.voltages_v[1])[0] - ion1.zero_field_frequency_mhz
        assert first == pytest.approx(expected, abs=3.0 * math.hypot(errs[0], errs[1]))

    def test_voltage_limit_enforced(self, config):
        # the sweep's voltages are checked against the supply when the config is built
        def sweep(*voltages_v):
            return dataclasses.replace(config, stark=dataclasses.replace(config.stark, voltages_v=voltages_v))

        for voltages_v in [(0.0, 111.0, 400.0), (-333.5, 0.0, 333.0)]:
            with pytest.raises(ConfigError, match=r"\[stark\]\.voltages_v holds .* V, outside the \+/-333 V"):
                sweep(*voltages_v)
        assert sweep(-333.0, 0.0, 333.0).stark.voltages_v == (-333.0, 0.0, 333.0)

    def test_scan_windows_track_expected_peak(self, config, volts_to_field):
        ion3 = config.ion("ion3")
        stark = StarkScanSettings(voltages_v=(0.0, 333.0, 166.5), window_half_width_mhz=50.0)
        _, voltages, fields, all_freqs, all_counts = simulate_stark_scan(
            [ion3], config.emitter, stark, volts_to_field, config.protocol, config.detector, 35
        )
        assert voltages[0] == 0.0 and voltages[-1] == 166.5  # the scans in the order of the voltages
        for voltage in stark.voltages_v:
            mine = voltages == voltage
            freqs, counts = all_freqs[mine], all_counts[mine]
            expected, _ = ion3.line(fields[mine][0])
            assert freqs[0] <= expected <= freqs[-1]
            assert np.argmax(counts) not in (0, freqs.size - 1)

    def test_each_window_draws_every_swept_ions_line(self, config, volts_to_field):
        # ion1 and ion2 lie 40 MHz apart at 0 V, each in the other's +-60 MHz window there: swept together,
        # every window's counts follow the sum of both lines at its voltage, and a sweep of ion1 alone follows
        # ion1's line alone. Pearson's chi-square of 150 or 75 Poisson-like counts about their mean
        ions = [config.ion("ion1"), config.ion("ion2")]
        stark = StarkScanSettings(voltages_v=(0.0, 111.0, 222.0))
        protocol, detector, emitter = config.protocol, config.detector, config.emitter
        p_detect = detector.total_efficiency * emission_window_probability(
            emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
        )
        darks = detector.dark_mean(protocol.window_length_us, protocol.pulses_per_point)

        def chi_square(swept, lines, seed):
            _, _, fields, freqs, counts = simulate_stark_scan(
                swept, emitter, stark, volts_to_field, protocol, detector, seed
            )
            saturation = emitter.saturation_excitation_prob
            p_exc = sum(lorentzian(freqs, (saturation, *ion.line(fields), 0.0)) for ion in lines)
            mean = protocol.pulses_per_point * p_exc * p_detect + darks
            return float(np.sum((counts - mean) ** 2 / mean)), counts.size

        for swept, lines in ((ions, ions), (ions[:1], ions[:1])):
            chi2, points = chi_square(swept, lines, 41)
            assert abs(chi2 - points) < 5.0 * math.sqrt(2.0 * points), (len(swept), chi2)
        assert chi_square(ions, ions[:1], 41)[0] > 10.0 * 150  # the neighbour's line is in the counts


class TestPipelineClosure:
    """Simulate -> fit recovers the configured truth within its own errors."""

    def test_ple_center_and_width_calibrated(self, config, ion1, emitter):
        proto = dataclasses.replace(config.protocol, scan_range_mhz=(-60.0, 60.0))
        hits = 0
        for seed in range(12):
            fit = fit_one_lorentzian(*simulate_ple_scan([ion1], emitter, proto, config.detector, 0.0, mix_seed(888, seed)))
            centre_ok = abs(fit.value("center_mhz")) <= 3.0 * fit.stderr("center_mhz")
            width_ok = abs(fit.value("fwhm_mhz") - 6.7) <= 3.0 * fit.stderr("fwhm_mhz")
            hits += centre_ok and width_ok
        assert hits >= 11

    def test_g2_estimate_calibrated(self, config, emitter):
        from starksim.analysis import estimate_g2_zero

        truth = 1.0 - 0.949**2
        g2 = G2Settings(1.0 - 0.949, 200_000, 10)
        hits = 0
        for seed in range(12):
            estimate = estimate_g2_zero(*simulate_g2_histogram(emitter, g2, config.protocol, mix_seed(999, seed)))
            hits += abs(estimate.g2_zero - truth) <= 3.0 * estimate.standard_error
        assert hits >= 11

