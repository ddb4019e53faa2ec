"""Electric-field response of individual emitters.

Each ion follows the empirical scalar law ``shift = s * E_parallel``
with a signed coefficient, plus a linear line-broadening term.
The two-ion resonance condition lives here too.

Units: fields in V/cm, coefficients in kHz/(V/cm), shifts and widths in
MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

from .electrostatics import FieldVector

__all__ = [
    "IonModel",
    "NoResonanceError",
    "ShiftResult",
    "StarkModelError",
    "VoltageOutOfRangeError",
    "resonance_voltage",
    "stark_shift_empirical",
]

KHZ_PER_MHZ = 1000.0
V_PER_CM_PER_KV_PER_CM = 1000.0


class StarkModelError(ValueError):
    pass


class NoResonanceError(StarkModelError):
    """Equal Stark coefficients cannot bridge a frequency difference."""


class VoltageOutOfRangeError(StarkModelError):
    def __init__(self, required_voltage_v: float, v_max: float):
        self.required_voltage_v = required_voltage_v
        self.v_max = v_max
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
            raise StarkModelError(f"{self.ion_id}: zero-field linewidth must be positive")
        if self.broadening_mhz_per_kv_cm < 0.0:
            raise StarkModelError(f"{self.ion_id}: broadening coefficient must be >= 0")


@dataclass(frozen=True)
class ShiftResult:
    shift_mhz: float
    fwhm_mhz: float


def stark_shift_empirical(ion: IonModel, field: FieldVector) -> ShiftResult:
    """Scalar-coefficient shift and field-broadened linewidth.

    Only the component along the inter-electrode axis couples; the
    linewidth grows linearly with its magnitude.
    """
    e_par = field.e_parallel_v_per_cm
    shift = ion.stark_coefficient_khz_per_v_cm * e_par / KHZ_PER_MHZ
    fwhm = ion.zero_field_fwhm_mhz + ion.broadening_mhz_per_kv_cm * abs(e_par) / V_PER_CM_PER_KV_PER_CM
    return ShiftResult(shift_mhz=shift, fwhm_mhz=fwhm)


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
        If the coefficients are equal but the zero-field frequencies differ.
    VoltageOutOfRangeError
        If the closed-form voltage exceeds ``v_max`` in magnitude.
    """
    if volts_to_field_v_per_cm_per_v <= 0.0:
        raise StarkModelError("volts-to-field scale must be positive")
    if v_max <= 0.0:
        raise StarkModelError("voltage limit must be positive")
    df_mhz = ion_b.zero_field_frequency_mhz - ion_a.zero_field_frequency_mhz
    ds = ion_a.stark_coefficient_khz_per_v_cm - ion_b.stark_coefficient_khz_per_v_cm
    if ds == 0.0:
        if df_mhz == 0.0:
            return 0.0
        raise NoResonanceError(
            f"{ion_a.ion_id} and {ion_b.ion_id} share the Stark coefficient; "
            f"the {df_mhz:+g} MHz offset cannot be closed"
        )
    slope_mhz_per_v = ds * volts_to_field_v_per_cm_per_v / KHZ_PER_MHZ
    voltage = df_mhz / slope_mhz_per_v
    if abs(voltage) > v_max:
        raise VoltageOutOfRangeError(voltage, v_max)
    return voltage
