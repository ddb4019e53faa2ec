"""The emitter model: each ion's line in the applied field, and the
lifetime and saturation all ions share.

An ion's line is centred at ``f0 + s * E_parallel``, with a signed
coefficient ``s``, and broadens linearly with ``|E_parallel|``
(:func:`line_law`); its shape is :func:`lorentzian` in laser detuning,
the per-pulse excitation probability the PLE simulator draws from and
the model the fits of ``analysis`` fit. The two-ion resonance condition
lives here too.

Units: fields in V/cm, coefficients in kHz/(V/cm), frequencies and widths
in MHz, lifetimes in us (the bulk lifetime in ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ConfigError

__all__ = [
    "EmitterParams",
    "IonModel",
    "NoResonanceError",
    "VoltageOutOfRangeError",
    "lifetime_limited_fwhm_mhz",
    "line_law",
    "lorentzian",
    "lorentzian_jacobian",
    "resonance_voltage",
]

KHZ_PER_MHZ = 1000.0
V_PER_CM_PER_KV_PER_CM = 1000.0
US_PER_MS = 1000.0


class NoResonanceError(ValueError):
    """Equal Stark coefficients cannot bridge a frequency difference."""


class VoltageOutOfRangeError(ValueError):
    def __init__(self, required_voltage_v: float, v_max: float):
        self.required_voltage_v = required_voltage_v
        super().__init__(
            f"resonance needs {required_voltage_v:.1f} V, beyond the +/-{v_max:.1f} V limit"
        )


@dataclass(frozen=True)
class IonModel:
    """One emitter's spectral identity and field response."""

    ion_id: str
    zero_field_frequency_mhz: float
    stark_coefficient_khz_per_v_cm: float
    zero_field_fwhm_mhz: float
    broadening_mhz_per_kv_cm: float = 0.0

    def __post_init__(self) -> None:
        if self.zero_field_fwhm_mhz <= 0.0:
            raise ConfigError(
                f"[[ions]].zero_field_fwhm_mhz of {self.ion_id!r} must be positive, got {self.zero_field_fwhm_mhz}"
            )
        if self.broadening_mhz_per_kv_cm < 0.0:
            raise ConfigError(
                f"[[ions]].broadening_mhz_per_kv_cm of {self.ion_id!r} must be >= 0, got {self.broadening_mhz_per_kv_cm}"
            )

    def line(self, e_parallel_v_per_cm: float) -> tuple[float, float]:
        """Line centre and field-broadened width, in MHz, at the field
        ``e_parallel_v_per_cm`` along the inter-electrode axis, the only
        component that couples; the linewidth grows linearly with its magnitude.
        """
        return line_law(
            e_parallel_v_per_cm,
            self.zero_field_frequency_mhz,
            self.stark_coefficient_khz_per_v_cm,
            self.zero_field_fwhm_mhz,
            self.broadening_mhz_per_kv_cm,
        )


def line_law(e_parallel_v_per_cm, f0_mhz, s_khz_per_v_cm, fwhm0_mhz, b_mhz_per_kv_cm):
    """Line centre ``f0 + s E`` and width ``fwhm0 + b |E|``, in MHz, at a
    field ``E`` along the inter-electrode axis: a number or a numpy array."""
    centre = f0_mhz + s_khz_per_v_cm * e_parallel_v_per_cm / KHZ_PER_MHZ
    fwhm = fwhm0_mhz + b_mhz_per_kv_cm * abs(e_parallel_v_per_cm) / V_PER_CM_PER_KV_PER_CM
    return centre, fwhm


# model functions: the line shape the PLE simulator draws from and the fits fit
#
# Each takes its parameters as a sequence; parameters given as (K, 1)
# columns broadcast against the points into K rows, one per line.


def lorentzian(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """amplitude / (1 + (2 (x - center) / fwhm)^2) + offset

    Here and in its Jacobian, a point so far off the line that a power of
    its reduced detuning overflows takes the line's limit there, 0, exactly.
    """
    amplitude, center, fwhm, offset = params
    u = 2.0 * (x - center) / fwhm
    with np.errstate(over="ignore"):
        return amplitude / (1.0 + u * u) + offset


def lorentzian_jacobian(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    amplitude, center, fwhm, _ = params
    u = 2.0 * (x - center) / fwhm
    jac = np.empty(u.shape + (4,))
    with np.errstate(over="ignore"):
        denom = 1.0 + u * u
        jac[..., 0] = 1.0 / denom
        jac[..., 1] = amplitude * 4.0 * u / (fwhm * denom * denom)
        jac[..., 2] = amplitude * 2.0 * u * u / (fwhm * denom * denom)
    jac[..., 3] = 1.0
    return jac


@dataclass(frozen=True)
class EmitterParams:
    """Bulk lifetime, the measured lifetime enhancement of the cavity and the
    saturated excitation probability, shared by every ion."""

    bulk_lifetime_ms: float
    enhancement_factor: float
    saturation_excitation_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.bulk_lifetime_ms <= 0.0:
            raise ConfigError(f"[emitter].bulk_lifetime_ms must be positive, got {self.bulk_lifetime_ms}")
        if self.enhancement_factor < 1.0:
            raise ConfigError(f"[emitter].enhancement_factor must be >= 1, got {self.enhancement_factor}")
        if not 0.0 <= self.saturation_excitation_prob <= 1.0:
            raise ConfigError(f"[emitter].saturation_excitation_prob must lie in [0, 1], got {self.saturation_excitation_prob}")
        if not self.lifetime_us > 0.0:  # the quotient underflows
            raise ConfigError(
                f"[emitter] bulk_lifetime_ms = {self.bulk_lifetime_ms} over enhancement_factor = "
                f"{self.enhancement_factor} gives a lifetime of 0 us"
            )

    @property
    def lifetime_us(self) -> float:
        """Cavity-shortened lifetime in us: the bulk lifetime over the enhancement."""
        return self.bulk_lifetime_ms * US_PER_MS / self.enhancement_factor


def lifetime_limited_fwhm_mhz(lifetime_us: float) -> float:
    """Fourier-limited linewidth ``1 / (2 pi tau)`` for a lifetime in us."""
    return 1.0 / (2.0 * math.pi * lifetime_us)


def resonance_voltage(
    ion_a: IonModel,
    ion_b: IonModel,
    volts_to_field_v_per_cm_per_v: float,
    v_max: float,
) -> float:
    """Bias voltage that aligns two ions' shifted frequencies.

    Both ions share the same electrode field, so the condition is
    ``f_a + s_a E(V) = f_b + s_b E(V)`` with ``E(V)`` linear in ``V``.

    Raises
    ------
    NoResonanceError
        If the detuning does not change with the voltage (equal
        coefficients, or a zero volts-to-field scale) but the zero-field
        frequencies differ.
    VoltageOutOfRangeError
        If the closed-form voltage exceeds ``v_max`` in magnitude.
    """
    df_mhz = ion_b.zero_field_frequency_mhz - ion_a.zero_field_frequency_mhz
    ds = ion_a.stark_coefficient_khz_per_v_cm - ion_b.stark_coefficient_khz_per_v_cm
    slope_mhz_per_v = ds * volts_to_field_v_per_cm_per_v / KHZ_PER_MHZ  # either sign: the probe may sit anywhere
    if slope_mhz_per_v == 0.0:
        if df_mhz == 0.0:
            return 0.0
        cause = "share the Stark coefficient" if ds == 0.0 else "see a probe field that does not change with the voltage"
        raise NoResonanceError(
            f"{ion_a.ion_id} and {ion_b.ion_id} {cause}; the {df_mhz:+g} MHz offset cannot be closed"
        )
    voltage = df_mhz / slope_mhz_per_v
    if abs(voltage) > v_max:
        raise VoltageOutOfRangeError(voltage, v_max)
    return voltage
