import numpy as np
import pytest

from starksim.cavity import (
    EffectiveEmitter,
    EmitterParams,
    effective_lifetime_us,
    excitation_probability,
    lifetime_limited_fwhm_mhz,
)


class TestEffectiveLifetime:
    def test_measured_enhancement(self):
        emitter = EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0)
        assert effective_lifetime_us(emitter) == pytest.approx(41.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmitterParams(bulk_lifetime_ms=0.0, enhancement_factor=278.0)
        with pytest.raises(ValueError):
            EmitterParams(bulk_lifetime_ms=1.0, enhancement_factor=0.5)


class TestExcitationProbability:
    def make_emitter(self, p0=0.5):
        return EffectiveEmitter(lifetime_us=41.0, fwhm_mhz=6.7, saturation_excitation_prob=p0)

    def test_on_resonance_saturates(self):
        assert excitation_probability(self.make_emitter(0.37), 0.0) == pytest.approx(0.37)

    def test_half_width_gives_half_probability(self):
        assert excitation_probability(self.make_emitter(), 6.7 / 2.0) == pytest.approx(0.25)

    def test_one_scan_pitch_detuning(self):
        p = excitation_probability(self.make_emitter(1.0), 5.0)
        assert p == pytest.approx(1.0 / (1.0 + (10.0 / 6.7) ** 2), rel=1e-12)
        assert p == pytest.approx(0.310, abs=2e-3)

    def test_even_and_bounded(self):
        emitter = self.make_emitter(0.5)
        for d in np.linspace(0.0, 100.0, 37):
            lo = excitation_probability(emitter, -d)
            hi = excitation_probability(emitter, d)
            assert lo == hi
            assert 0.0 <= hi <= 0.5


class TestEffectiveEmitterValidation:
    def test_rejects_linewidth_below_lifetime_limit(self):
        limit = lifetime_limited_fwhm_mhz(41.0)
        with pytest.raises(ValueError):
            EffectiveEmitter(lifetime_us=41.0, fwhm_mhz=limit * 0.9)
        EffectiveEmitter(lifetime_us=41.0, fwhm_mhz=limit * 1.1)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            EffectiveEmitter(lifetime_us=41.0, fwhm_mhz=6.7, saturation_excitation_prob=1.2)
