import dataclasses

import numpy as np
import pytest

from starksim import ConfigError
from starksim.cli import _volts_to_field
from starksim.config import default_config
from starksim.electrostatics import field_at, solve_potential
from starksim.stark import (
    EmitterParams,
    IonModel,
    NoResonanceError,
    VoltageOutOfRangeError,
    lorentzian,
    resonance_voltage,
)


def make_ion(s, f0=0.0, fwhm=6.7, broadening=0.0, ion_id="ion"):
    return IonModel(
        ion_id=ion_id,
        zero_field_frequency_mhz=f0,
        stark_coefficient_khz_per_v_cm=s,
        zero_field_fwhm_mhz=fwhm,
        broadening_mhz_per_kv_cm=broadening,
    )


class TestEmpiricalShift:
    def test_reference_coefficient(self):
        centre, _ = make_ion(19.8).line(1000.0)
        assert centre == pytest.approx(19.8)

    def test_zero_field_zero_shift(self):
        centre, fwhm = make_ion(19.8).line(0.0)
        assert centre == 0.0
        assert fwhm == pytest.approx(6.7)

    def test_centre_is_rest_frequency_plus_shift(self):
        # the order of the arithmetic is part of the byte-identity contract
        ion = make_ion(-9.8, f0=-250.0)
        centre, _ = ion.line(21652.534)
        assert centre == -250.0 + -9.8 * 21652.534 / 1000.0

    def test_broadening_grows_with_field_magnitude(self):
        ion = make_ion(19.8, broadening=0.5)
        _, low = ion.line(1000.0)
        _, high = ion.line(-10_000.0)
        assert low == pytest.approx(6.7 + 0.5 * 1.0)
        assert high == pytest.approx(6.7 + 0.5 * 10.0)
        assert high > low >= ion.zero_field_fwhm_mhz

    def test_linearity_in_field(self):
        rng = np.random.default_rng(23)
        ion = make_ion(-12.5)
        base, _ = ion.line(1500.0)
        for _ in range(100):
            alpha = rng.uniform(-5.0, 5.0)
            scaled, _ = ion.line(1500.0 * alpha)
            assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-12)

    def test_perpendicular_component_ignored(self):
        # the lines read one number, and the chain picks it in one place: off
        # the axis, where the probe also sees a large perpendicular field, the
        # volts-to-field scale is the parallel field per volt alone
        config = default_config()
        config = dataclasses.replace(config, layout=dataclasses.replace(config.layout, probe_point_um=(30.0, 10.0)))
        e_parallel, e_perpendicular = field_at(
            solve_potential(config.layout, config.solver.spacing_um), config.layout.probe_point_um
        )
        assert abs(e_perpendicular) > 0.1 * abs(e_parallel)
        assert _volts_to_field(config) == e_parallel


class TestIonModelValidation:
    def test_linewidth_positive(self):
        with pytest.raises(ConfigError):
            IonModel("x", 0.0, 19.8, 0.0)


class TestResonanceVoltage:
    def test_opposite_sign_closed_form(self):
        v = resonance_voltage(make_ion(20.0, 0.0), make_ion(-20.0, 100.0), 30.0, 333.0)
        assert v == pytest.approx(100.0 / (40.0 * 30.0 / 1000.0))

    def test_identical_ions_zero_voltage(self):
        assert resonance_voltage(make_ion(19.8, 5.0), make_ion(19.8, 5.0), 30.0, 333.0) == 0.0

    def test_same_coefficient_no_solution(self):
        with pytest.raises(NoResonanceError):
            resonance_voltage(make_ion(19.8, 0.0), make_ion(19.8, 50.0), 30.0, 333.0)

    def test_negative_scale_mirrors_the_voltage(self):
        a, b = make_ion(20.0, 0.0), make_ion(-20.0, 100.0)
        assert resonance_voltage(a, b, -30.0, 333.0) == -resonance_voltage(a, b, 30.0, 333.0)

    def test_zero_scale_acts_as_equal_coefficients(self):
        assert resonance_voltage(make_ion(20.0, 5.0), make_ion(-20.0, 5.0), 0.0, 333.0) == 0.0
        with pytest.raises(NoResonanceError, match="does not change with the voltage"):
            resonance_voltage(make_ion(20.0, 0.0), make_ion(-20.0, 100.0), 0.0, 333.0)

    def test_out_of_range_carries_required_voltage(self):
        with pytest.raises(VoltageOutOfRangeError) as err:
            resonance_voltage(make_ion(20.0, 0.0), make_ion(-20.0, 3000.0), 30.0, 333.0)
        assert err.value.required_voltage_v == pytest.approx(2500.0)

    def test_paper_pair_within_supply(self):
        # ion 1 vs ion 7 with a 50 MHz offset at the calibrated field scale
        volts_to_field = 65.022536219113164
        v = resonance_voltage(make_ion(19.8, 0.0), make_ion(-9.8, 50.0, ion_id="ion7"), volts_to_field, 333.0)
        expected = 50.0 / ((19.8 + 9.8) * volts_to_field / 1000.0)
        assert v == pytest.approx(expected)
        assert abs(v) <= 333.0

    def test_substitution_residual_below_1khz(self):
        rng = np.random.default_rng(25)
        hits = 0
        while hits < 100:
            s_a, s_b = rng.uniform(-30.0, 30.0, 2)
            f_a, f_b = rng.uniform(-300.0, 300.0, 2)
            scale = rng.uniform(10.0, 100.0)
            a = make_ion(s_a, f_a, ion_id="a")
            b = make_ion(s_b, f_b, ion_id="b")
            try:
                v = resonance_voltage(a, b, scale, 1e5)
            except (NoResonanceError, VoltageOutOfRangeError):
                continue
            hits += 1
            field = scale * v
            (fa, _), (fb, _) = a.line(field), b.line(field)
            assert abs(fa - fb) < 1e-3


class TestEffectiveLifetime:
    def test_measured_enhancement(self):
        emitter = EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0)
        assert emitter.lifetime_us == pytest.approx(41.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ConfigError, match=r"\[emitter\]\.bulk_lifetime_ms must be positive, got 0\.0"):
            EmitterParams(bulk_lifetime_ms=0.0, enhancement_factor=278.0)
        with pytest.raises(ConfigError, match=r"\[emitter\]\.enhancement_factor must be >= 1, got 0\.5"):
            EmitterParams(bulk_lifetime_ms=1.0, enhancement_factor=0.5)


class TestExcitationProbability:
    def test_on_resonance_saturates(self):
        assert lorentzian(0.0, (0.37, 0.0, 6.7)) == pytest.approx(0.37)

    def test_half_width_gives_half_probability(self):
        assert lorentzian(6.7 / 2.0, (0.5, 0.0, 6.7)) == pytest.approx(0.25)

    def test_one_scan_pitch_detuning(self):
        p = lorentzian(5.0, (1.0, 0.0, 6.7))
        assert p == pytest.approx(1.0 / (1.0 + (10.0 / 6.7) ** 2), rel=1e-12)
        assert p == pytest.approx(0.310, abs=2e-3)

    def test_even_and_bounded(self):
        for d in np.linspace(0.0, 100.0, 37):
            lo = lorentzian(-d, (0.5, 0.0, 6.7))
            hi = lorentzian(d, (0.5, 0.0, 6.7))
            assert lo == hi
            assert 0.0 <= hi <= 0.5

    def test_array_detunings_match_scalar_calls(self):
        # a scan's (points x ions) detunings, each ion with its own width
        fwhm = np.array([6.7, 12.0])
        detuning = np.linspace(-30.0, 30.0, 13)[:, None] - np.array([0.0, 5.0])
        p = lorentzian(detuning, (0.5, 0.0, fwhm))
        assert p.shape == (13, 2)
        expected = [[lorentzian(d, (0.5, 0.0, w)) for d, w in zip(row, fwhm.tolist())] for row in detuning.tolist()]
        assert np.array_equal(p, expected)


class TestEmitterValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="saturation_excitation_prob"):
            EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0, saturation_excitation_prob=1.2)
        with pytest.raises(ValueError, match="saturation_excitation_prob"):
            EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0, saturation_excitation_prob=-0.1)
        for p in (0.0, 1.0):
            EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0, saturation_excitation_prob=p)
