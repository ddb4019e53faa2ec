"""Stark tuning of a cavity-coupled telecom single-photon emitter.

Pipeline: electrode voltage -> local electric field -> optical frequency
shift -> simulated photon-counting experiments (PLE scans, lifetime
decay, intensity autocorrelation) -> fitted physical parameters.
"""

__version__ = "0.1.0"

from .analysis import (
    G2Estimate,
    PeakCandidate,
    estimate_g2_zero,
    find_peaks,
    fit_exponential_decay,
    fit_linear_weighted,
    fit_lorentzian,
)
from .cavity import (
    CavityParams,
    EffectiveEmitter,
    EmitterParams,
    cavity_reflection,
    effective_lifetime_us,
    excitation_probability,
    purcell_factor,
)
from .config import ExperimentConfig, default_config, load_config, loads_config
from .electrostatics import (
    DielectricMap,
    ElectrodeLayout,
    FieldVector,
    PotentialGrid,
    field_at,
    field_per_volt,
    solve_potential,
    uniform_field_oracle,
)
from .experiment import (
    DetectorModel,
    G2Histogram,
    Histogram,
    PLEProtocol,
    ScanResult,
    SimulatedIon,
    mix_seed,
    simulate_decay_histogram,
    simulate_g2_histogram,
    simulate_ple_scan,
    simulate_stark_scan,
)
from .optimize import FitResult
from .stark import (
    IonModel,
    OrientationClass,
    ShiftResult,
    StarkTensors,
    orientation_shifts,
    resonance_voltage,
    stark_shift_empirical,
    stark_shift_full,
)

__all__ = [
    "CavityParams",
    "DetectorModel",
    "DielectricMap",
    "EffectiveEmitter",
    "ElectrodeLayout",
    "EmitterParams",
    "ExperimentConfig",
    "FieldVector",
    "FitResult",
    "G2Estimate",
    "G2Histogram",
    "Histogram",
    "IonModel",
    "OrientationClass",
    "PLEProtocol",
    "PeakCandidate",
    "PotentialGrid",
    "ScanResult",
    "ShiftResult",
    "SimulatedIon",
    "StarkTensors",
    "__version__",
    "cavity_reflection",
    "default_config",
    "effective_lifetime_us",
    "estimate_g2_zero",
    "excitation_probability",
    "field_at",
    "field_per_volt",
    "find_peaks",
    "fit_exponential_decay",
    "fit_linear_weighted",
    "fit_lorentzian",
    "load_config",
    "loads_config",
    "mix_seed",
    "orientation_shifts",
    "purcell_factor",
    "resonance_voltage",
    "simulate_decay_histogram",
    "simulate_g2_histogram",
    "simulate_ple_scan",
    "simulate_stark_scan",
    "solve_potential",
    "stark_shift_empirical",
    "stark_shift_full",
    "uniform_field_oracle",
]
