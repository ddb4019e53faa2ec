import numpy as np
import pytest

from starksim.cavity import EmitterParams, excitation_probability


class TestEffectiveLifetime:
    def test_measured_enhancement(self):
        emitter = EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0)
        assert emitter.lifetime_us == pytest.approx(41.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmitterParams(bulk_lifetime_ms=0.0, enhancement_factor=278.0)
        with pytest.raises(ValueError):
            EmitterParams(bulk_lifetime_ms=1.0, enhancement_factor=0.5)


class TestExcitationProbability:
    def test_on_resonance_saturates(self):
        assert excitation_probability(0.37, 6.7, 0.0) == pytest.approx(0.37)

    def test_half_width_gives_half_probability(self):
        assert excitation_probability(0.5, 6.7, 6.7 / 2.0) == pytest.approx(0.25)

    def test_one_scan_pitch_detuning(self):
        p = excitation_probability(1.0, 6.7, 5.0)
        assert p == pytest.approx(1.0 / (1.0 + (10.0 / 6.7) ** 2), rel=1e-12)
        assert p == pytest.approx(0.310, abs=2e-3)

    def test_even_and_bounded(self):
        for d in np.linspace(0.0, 100.0, 37):
            lo = excitation_probability(0.5, 6.7, -d)
            hi = excitation_probability(0.5, 6.7, d)
            assert lo == hi
            assert 0.0 <= hi <= 0.5


class TestEmitterValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="saturation_excitation_prob"):
            EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0, saturation_excitation_prob=1.2)
        with pytest.raises(ValueError, match="saturation_excitation_prob"):
            EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0, saturation_excitation_prob=-0.1)
        for p in (0.0, 1.0):
            EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0, saturation_excitation_prob=p)
