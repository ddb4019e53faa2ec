"""Cavity-modified emitter: shortened lifetime and excitation lineshape.

Every ion shares one emitter record: the bulk lifetime over the measured
enhancement factor, and the saturated excitation probability. An ion's own
line is its :class:`~starksim.stark.IonModel`; the per-pulse excitation
probability is a Lorentzian in laser detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EmitterParams",
    "excitation_probability",
    "lifetime_limited_fwhm_mhz",
]

US_PER_MS = 1000.0


@dataclass(frozen=True)
class EmitterParams:
    """Bulk lifetime, the measured lifetime enhancement of the cavity and the
    saturated excitation probability, shared by every ion."""

    bulk_lifetime_ms: float
    enhancement_factor: float
    saturation_excitation_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.bulk_lifetime_ms <= 0.0:
            raise ValueError("bulk lifetime must be positive")
        if self.enhancement_factor < 1.0:
            raise ValueError("enhancement factor must be >= 1")
        if not 0.0 <= self.saturation_excitation_prob <= 1.0:
            raise ValueError("[emitter].saturation_excitation_prob must lie in [0, 1]")

    @property
    def lifetime_us(self) -> float:
        """Cavity-shortened lifetime in us: the bulk lifetime over the enhancement."""
        return self.bulk_lifetime_ms * US_PER_MS / self.enhancement_factor


def lifetime_limited_fwhm_mhz(lifetime_us: float) -> float:
    """Fourier-limited linewidth ``1 / (2 pi tau)`` for a lifetime in us."""
    return 1.0 / (2.0 * math.pi * lifetime_us)


def excitation_probability(saturation_prob: float, fwhm_mhz: float, detuning_mhz: float) -> float:
    """Per-pulse excitation probability of a ``fwhm_mhz`` wide line at a laser detuning (MHz)."""
    if not math.isfinite(detuning_mhz):
        raise ValueError("detuning must be finite")
    u = 2.0 * detuning_mhz / fwhm_mhz
    return saturation_prob / (1.0 + u**2)
