import numpy as np
import pytest

from starksim.electrostatics import FieldVector
from starksim.stark import (
    IonModel,
    NoResonanceError,
    StarkModelError,
    VoltageOutOfRangeError,
    resonance_voltage,
    stark_shift_empirical,
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
        result = stark_shift_empirical(make_ion(19.8), FieldVector(1000.0, 0.0))
        assert result.shift_mhz == pytest.approx(19.8)

    def test_zero_field_zero_shift(self):
        result = stark_shift_empirical(make_ion(19.8), FieldVector(0.0, 0.0))
        assert result.shift_mhz == 0.0
        assert result.fwhm_mhz == pytest.approx(6.7)

    def test_broadening_grows_with_field_magnitude(self):
        ion = make_ion(19.8, broadening=0.5)
        low = stark_shift_empirical(ion, FieldVector(1000.0, 0.0))
        high = stark_shift_empirical(ion, FieldVector(-10_000.0, 0.0))
        assert low.fwhm_mhz == pytest.approx(6.7 + 0.5 * 1.0)
        assert high.fwhm_mhz == pytest.approx(6.7 + 0.5 * 10.0)
        assert high.fwhm_mhz > low.fwhm_mhz >= ion.zero_field_fwhm_mhz

    def test_linearity_in_field(self):
        rng = np.random.default_rng(23)
        ion = make_ion(-12.5)
        base = stark_shift_empirical(ion, FieldVector(1500.0, 0.0)).shift_mhz
        for _ in range(100):
            alpha = rng.uniform(-5.0, 5.0)
            scaled = stark_shift_empirical(ion, FieldVector(1500.0 * alpha, 0.0)).shift_mhz
            assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-12)

    def test_perpendicular_component_ignored(self):
        ion = make_ion(19.8)
        assert stark_shift_empirical(ion, FieldVector(0.0, 5000.0)).shift_mhz == 0.0


class TestIonModelValidation:
    def test_linewidth_positive(self):
        with pytest.raises(StarkModelError):
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
            field = FieldVector(scale * v, 0.0)
            fa = f_a + stark_shift_empirical(a, field).shift_mhz
            fb = f_b + stark_shift_empirical(b, field).shift_mhz
            assert abs(fa - fb) < 1e-3
