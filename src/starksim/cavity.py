"""Cavity-modified emitter: shortened lifetime and excitation lineshape.

The lifetime is the bulk lifetime over the measured enhancement factor;
the per-pulse excitation probability is a Lorentzian in laser detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EffectiveEmitter",
    "EmitterParams",
    "effective_lifetime_us",
    "excitation_probability",
    "lifetime_limited_fwhm_mhz",
]

US_PER_MS = 1000.0


@dataclass(frozen=True)
class EmitterParams:
    """Bulk lifetime and the measured lifetime enhancement of the cavity."""

    bulk_lifetime_ms: float
    enhancement_factor: float

    def __post_init__(self) -> None:
        if self.bulk_lifetime_ms <= 0.0:
            raise ValueError("bulk lifetime must be positive")
        if self.enhancement_factor < 1.0:
            raise ValueError("enhancement factor must be >= 1")


def lifetime_limited_fwhm_mhz(lifetime_us: float) -> float:
    """Fourier-limited linewidth ``1 / (2 pi tau)`` for a lifetime in us."""
    return 1.0 / (2.0 * math.pi * lifetime_us)


@dataclass(frozen=True)
class EffectiveEmitter:
    """Cavity-modified emitter as the photon-counting simulator sees it.

    ``frequency_mhz`` is the line centre relative to the scan origin;
    ``fwhm_mhz`` is the measured (environment-broadened) linewidth and
    must not beat the lifetime limit.
    """

    lifetime_us: float
    fwhm_mhz: float
    frequency_mhz: float = 0.0
    saturation_excitation_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.lifetime_us <= 0.0:
            raise ValueError("lifetime must be positive")
        limit = lifetime_limited_fwhm_mhz(self.lifetime_us)
        if self.fwhm_mhz < limit:
            raise ValueError(
                f"linewidth {self.fwhm_mhz:g} MHz is below the lifetime limit {limit:g} MHz"
            )
        if not 0.0 <= self.saturation_excitation_prob <= 1.0:
            raise ValueError("saturation excitation probability must lie in [0, 1]")


def effective_lifetime_us(emitter: EmitterParams) -> float:
    """Cavity-shortened lifetime in us: the bulk lifetime over the enhancement."""
    return emitter.bulk_lifetime_ms * US_PER_MS / emitter.enhancement_factor


def excitation_probability(effective: EffectiveEmitter, detuning_mhz: float) -> float:
    """Per-pulse excitation probability at a given laser detuning (MHz)."""
    if not math.isfinite(detuning_mhz):
        raise ValueError("detuning must be finite")
    u = 2.0 * detuning_mhz / effective.fwhm_mhz
    return effective.saturation_excitation_prob / (1.0 + u**2)
