"""Experiment configuration: a strict TOML-compatible key-value format.

Units are encoded in the key names (``gap_um``, ``dark_rate_hz``) so a
config file can never be unit-ambiguous. Unknown sections or keys are
rejected rather than ignored. The parser covers the subset this schema
needs: ``[section]`` tables, ``[[ions]]`` array-of-tables, strings,
booleans, integers, floats, and flat arrays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .cavity import CavityParams, EffectiveEmitter, EmitterParams, effective_lifetime_us, purcell_factor
from .electrostatics import MAX_ITERATIONS, DielectricMap, ElectrodeLayout, GeometryError
from .experiment import DEFAULT_MASTER_SEED, DetectorModel, PLEProtocol, SimulatedIon, SimulationError
from .stark import IonModel, OrientationClass, StarkModelError

__all__ = [
    "ConfigError",
    "DecaySettings",
    "ExperimentConfig",
    "G2Settings",
    "RunSettings",
    "SolverSettings",
    "StarkScanSettings",
    "config_file_digest",
    "default_config",
    "dumps_config",
    "load_config",
    "loads_config",
    "save_config",
]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# TOML-subset reader / writer


def _parse_scalar(text: str, line_no: int) -> Any:
    text = text.strip()
    if not text:
        raise ConfigError(f"line {line_no}: missing value")
    if text.startswith('"'):
        if not (text.endswith('"') and len(text) >= 2):
            raise ConfigError(f"line {line_no}: unterminated string")
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse value {text!r}") from None


def _split_array_items(body: str, line_no: int) -> list[str]:
    items, depth, current, in_string = [], 0, "", False
    for ch in body:
        if ch == '"':
            in_string = not in_string
        if ch == "," and depth == 0 and not in_string:
            items.append(current)
            current = ""
            continue
        if ch == "[" and not in_string:
            depth += 1
        if ch == "]" and not in_string:
            depth -= 1
        current += ch
    if in_string or depth != 0:
        raise ConfigError(f"line {line_no}: malformed array")
    if current.strip():
        items.append(current)
    return items


def _parse_value(text: str, line_no: int) -> Any:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError(f"line {line_no}: unterminated array")
        return [_parse_value(item, line_no) for item in _split_array_items(text[1:-1], line_no)]
    return _parse_scalar(text, line_no)


def _strip_comment(line: str) -> str:
    out, in_string = [], False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def parse_toml(text: str) -> dict[str, Any]:
    """Parse the supported subset into nested dicts / lists of dicts."""
    root: dict[str, Any] = {}
    current: dict[str, Any] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[["):
            if not line.endswith("]]"):
                raise ConfigError(f"line {line_no}: malformed table array header")
            name = line[2:-2].strip()
            if not name:
                raise ConfigError(f"line {line_no}: empty table array name")
            entry: dict[str, Any] = {}
            root.setdefault(name, [])
            if not isinstance(root[name], list):
                raise ConfigError(f"line {line_no}: {name!r} is already a plain section")
            root[name].append(entry)
            current = entry
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: malformed section header")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {line_no}: empty section name")
            if name in root:
                raise ConfigError(f"line {line_no}: duplicate section {name!r}")
            current = {}
            root[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if current is None:
            raise ConfigError(f"line {line_no}: key {key!r} appears before any section")
        if key in current:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        current[key] = _parse_value(value, line_no)
    return root


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise ConfigError(f"cannot serialize value of type {type(value).__name__}")


def dump_toml(data: dict[str, Any]) -> str:
    lines: list[str] = []
    for section, content in data.items():
        if isinstance(content, list):
            for entry in content:
                lines.append(f"[[{section}]]")
                for key, value in entry.items():
                    lines.append(f"{key} = {_format_value(value)}")
                lines.append("")
        else:
            lines.append(f"[{section}]")
            for key, value in content.items():
                lines.append(f"{key} = {_format_value(value)}")
            lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class SolverSettings:
    spacing_um: float = 5.0
    tolerance_v: float = 1e-4
    max_iterations: int = MAX_ITERATIONS

    def __post_init__(self) -> None:
        if not math.isfinite(self.spacing_um):
            raise ConfigError(f"[solver].spacing_um must be finite, got {self.spacing_um}")
        if not 0.0 < self.tolerance_v < math.inf:
            raise ConfigError(
                f"[solver].tolerance_v must be a positive finite number, got {self.tolerance_v}"
            )
        if self.max_iterations < 1:
            raise ConfigError(f"[solver].max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class RunSettings:
    seed: int = DEFAULT_MASTER_SEED
    output_dir: str = "out"
    max_voltage_v: float = 333.0


@dataclass(frozen=True)
class DecaySettings:
    ion_id: str = ""  # empty: first registry ion
    n_pulses: int = 10_000_000
    bin_width_us: float = 1.0
    fit_start_us: float = 0.0


@dataclass(frozen=True)
class G2Settings:
    ion_id: str = ""
    background_fraction: float = 0.051
    n_pulses: int = 200_000
    max_lag: int = 10


@dataclass(frozen=True)
class StarkScanSettings:
    ion_id: str = ""
    voltages_v: tuple[float, ...] = (0.0, 55.5, 111.0, 166.5, 222.0, 277.5, 333.0)
    window_half_width_mhz: float = 60.0


@dataclass(frozen=True)
class ExperimentConfig:
    layout: ElectrodeLayout
    dielectric: DielectricMap
    solver: SolverSettings
    ions: tuple[IonModel, ...]
    cavity: CavityParams
    emitter: EmitterParams
    saturation_excitation_prob: float
    protocol: PLEProtocol
    detector: DetectorModel
    run: RunSettings
    decay: DecaySettings
    g2: G2Settings
    stark: StarkScanSettings

    def ion(self, ion_id: str) -> IonModel:
        if ion_id == "":
            return self.ions[0]
        for ion in self.ions:
            if ion.ion_id == ion_id:
                return ion
        raise ConfigError(f"unknown ion id {ion_id!r}")

    def effective_lifetime_us(self) -> float:
        return effective_lifetime_us(self.emitter, purcell_factor(self.cavity))

    def effective_emitter(self, ion: IonModel) -> EffectiveEmitter:
        return EffectiveEmitter(
            lifetime_us=self.effective_lifetime_us(),
            fwhm_mhz=ion.zero_field_fwhm_mhz,
            frequency_mhz=ion.zero_field_frequency_mhz,
            saturation_excitation_prob=self.saturation_excitation_prob,
        )

    def simulated_ion(self, ion_id: str) -> SimulatedIon:
        ion = self.ion(ion_id)
        return SimulatedIon(model=ion, emitter=self.effective_emitter(ion))

    def simulated_ions(self) -> list[SimulatedIon]:
        return [SimulatedIon(model=i, emitter=self.effective_emitter(i)) for i in self.ions]


_DEFAULT_IONS: tuple[dict[str, Any], ...] = (
    {"id": "ion1", "f0": 0.0, "s": 19.8, "fwhm": 6.7, "broadening": 0.0},
    # calibrated so the empirical shift at the full 333 V bias is -182.9 MHz
    # for the default layout, dielectric and solver settings
    {"id": "ion2", "f0": -40.0, "s": -8.447059760917158, "fwhm": 6.7, "broadening": 0.0},
    {"id": "ion3", "f0": 60.0, "s": 23.2, "fwhm": 5.9, "broadening": 0.0},
    {"id": "ion4", "f0": 130.0, "s": -23.0, "fwhm": 7.4, "broadening": 0.0},
    {"id": "ion5", "f0": -155.0, "s": 22.903, "fwhm": 6.2, "broadening": 0.0},
    {"id": "ion6", "f0": 215.0, "s": -22.65, "fwhm": 7.0, "broadening": 0.0},
    {"id": "ion7", "f0": -250.0, "s": -9.8, "fwhm": 6.5, "broadening": 0.0},
)


def default_config() -> ExperimentConfig:
    """Built-in configuration mirroring the measured device."""
    ions = tuple(
        IonModel(
            ion_id=entry["id"],
            zero_field_frequency_mhz=entry["f0"],
            stark_coefficient_khz_per_v_cm=entry["s"],
            orientation_class=OrientationClass.PLUS if entry["s"] >= 0 else OrientationClass.MINUS,
            zero_field_fwhm_mhz=entry["fwhm"],
            broadening_mhz_per_kv_cm=entry["broadening"],
        )
        for entry in _DEFAULT_IONS
    )
    return ExperimentConfig(
        layout=ElectrodeLayout(
            electrode_width_um=200.0,
            gap_um=100.0,
            electrode_potentials_v=(166.5, -166.5),
            domain_extent_um=(1000.0, 600.0),
            probe_point_um=(0.0, 0.0),
        ),
        dielectric=DielectricMap(),
        solver=SolverSettings(),
        ions=ions,
        cavity=CavityParams(center_frequency_ghz=195115.0, quality_factor=5.1e4),
        emitter=EmitterParams(bulk_lifetime_ms=11.4, branching_ratio=0.2, enhancement_factor=278.0),
        saturation_excitation_prob=0.5,
        protocol=PLEProtocol(),
        detector=DetectorModel(),
        run=RunSettings(),
        decay=DecaySettings(),
        g2=G2Settings(),
        stark=StarkScanSettings(),
    )


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing

_SCHEMA: dict[str, dict[str, type | tuple[type, ...]]] = {
    "layout": {
        "electrode_width_um": float,
        "gap_um": float,
        "electrode_potentials_v": list,
        "domain_extent_um": list,
        "probe_point_um": list,
    },
    "dielectric": {
        "relative_permittivity_above": float,
        "relative_permittivity_below": float,
    },
    "solver": {
        "spacing_um": float,
        "tolerance_v": float,
        "max_iterations": int,
    },
    "ions": {
        "id": str,
        "zero_field_frequency_mhz": float,
        "stark_coefficient_khz_per_v_cm": float,
        "zero_field_fwhm_mhz": float,
        "broadening_mhz_per_kv_cm": float,
    },
    "cavity": {
        "center_frequency_ghz": float,
        "quality_factor": float,
        "mode_volume_cubic_wavelengths": float,
        "refractive_index": float,
        "dip_depth": float,
    },
    "emitter": {
        "bulk_lifetime_ms": float,
        "branching_ratio": float,
        "enhancement_factor": float,
        "saturation_excitation_prob": float,
    },
    "protocol": {
        "pulse_length_us": float,
        "repetition_rate_khz": float,
        "window_delay_us": float,
        "window_length_us": float,
        "integration_time_s": float,
        "scan_pitch_mhz": float,
        "scan_range_mhz": list,
    },
    "detector": {
        "total_efficiency": float,
        "dark_rate_hz": float,
    },
    "run": {
        "seed": int,
        "output_dir": str,
        "max_voltage_v": float,
    },
    "decay": {
        "ion_id": str,
        "n_pulses": int,
        "bin_width_us": float,
        "fit_start_us": float,
    },
    "g2": {
        "ion_id": str,
        "background_fraction": float,
        "n_pulses": int,
        "max_lag": int,
    },
    "stark": {
        "ion_id": str,
        "voltages_v": list,
        "window_half_width_mhz": float,
    },
}


def _check_keys(section: str, data: dict[str, Any]) -> None:
    allowed = _SCHEMA[section]
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"[{section}]: unknown key {key!r}")
        want = allowed[key]
        if want is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"[{section}].{key}: expected a number")
        elif want is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"[{section}].{key}: expected an integer")
        elif want is str:
            if not isinstance(value, str):
                raise ConfigError(f"[{section}].{key}: expected a string")
        elif want is list:
            if not isinstance(value, list):
                raise ConfigError(f"[{section}].{key}: expected an array")


def _floats(section: str, key: str, value: Any, length: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"[{section}].{key}: expected an array of {length} numbers")
    out = []
    for v in value:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"[{section}].{key}: expected numbers")
        out.append(float(v))
    return tuple(out)


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    base = default_config()
    for section in data:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")

    def section_of(name: str) -> dict[str, Any]:
        content = data.get(name, {})
        if isinstance(content, list):
            raise ConfigError(f"[{name}] must be a plain section, not a table array")
        _check_keys(name, content)
        return content

    try:
        lay = section_of("layout")
        layout = ElectrodeLayout(
            electrode_width_um=float(lay.get("electrode_width_um", base.layout.electrode_width_um)),
            gap_um=float(lay.get("gap_um", base.layout.gap_um)),
            electrode_potentials_v=(
                _floats("layout", "electrode_potentials_v", lay["electrode_potentials_v"], 2)
                if "electrode_potentials_v" in lay
                else base.layout.electrode_potentials_v
            ),
            domain_extent_um=(
                _floats("layout", "domain_extent_um", lay["domain_extent_um"], 2)
                if "domain_extent_um" in lay
                else base.layout.domain_extent_um
            ),
            probe_point_um=(
                _floats("layout", "probe_point_um", lay["probe_point_um"], 2)
                if "probe_point_um" in lay
                else base.layout.probe_point_um
            ),
        )

        die = section_of("dielectric")
        dielectric = DielectricMap(
            relative_permittivity_above=float(
                die.get("relative_permittivity_above", base.dielectric.relative_permittivity_above)
            ),
            relative_permittivity_below=float(
                die.get("relative_permittivity_below", base.dielectric.relative_permittivity_below)
            ),
        )

        sol = section_of("solver")
        solver = SolverSettings(
            spacing_um=float(sol.get("spacing_um", base.solver.spacing_um)),
            tolerance_v=float(sol.get("tolerance_v", base.solver.tolerance_v)),
            max_iterations=int(sol.get("max_iterations", base.solver.max_iterations)),
        )

        if "ions" in data:
            raw_ions = data["ions"]
            if not isinstance(raw_ions, list):
                raise ConfigError("[[ions]] must be a table array")
            ions = []
            for entry in raw_ions:
                _check_keys("ions", entry)
                for required in ("id", "stark_coefficient_khz_per_v_cm", "zero_field_fwhm_mhz"):
                    if required not in entry:
                        raise ConfigError(f"[[ions]]: missing key {required!r}")
                s = float(entry["stark_coefficient_khz_per_v_cm"])
                ions.append(
                    IonModel(
                        ion_id=entry["id"],
                        zero_field_frequency_mhz=float(entry.get("zero_field_frequency_mhz", 0.0)),
                        stark_coefficient_khz_per_v_cm=s,
                        orientation_class=OrientationClass.PLUS if s >= 0 else OrientationClass.MINUS,
                        zero_field_fwhm_mhz=float(entry["zero_field_fwhm_mhz"]),
                        broadening_mhz_per_kv_cm=float(entry.get("broadening_mhz_per_kv_cm", 0.0)),
                    )
                )
            ions = tuple(ions)
        else:
            ions = base.ions
        ids = [ion.ion_id for ion in ions]
        if len(set(ids)) != len(ids):
            raise ConfigError("ion ids must be unique")

        cav = section_of("cavity")
        cavity = CavityParams(
            center_frequency_ghz=float(cav.get("center_frequency_ghz", base.cavity.center_frequency_ghz)),
            quality_factor=float(cav.get("quality_factor", base.cavity.quality_factor)),
            mode_volume_cubic_wavelengths=float(
                cav.get("mode_volume_cubic_wavelengths", base.cavity.mode_volume_cubic_wavelengths)
            ),
            refractive_index=float(cav.get("refractive_index", base.cavity.refractive_index)),
            dip_depth=float(cav.get("dip_depth", base.cavity.dip_depth)),
        )

        emi = section_of("emitter")
        emitter = EmitterParams(
            bulk_lifetime_ms=float(emi.get("bulk_lifetime_ms", base.emitter.bulk_lifetime_ms)),
            branching_ratio=float(emi.get("branching_ratio", base.emitter.branching_ratio)),
            enhancement_factor=(
                float(emi["enhancement_factor"])
                if "enhancement_factor" in emi
                else base.emitter.enhancement_factor
            ),
        )
        saturation = float(emi.get("saturation_excitation_prob", base.saturation_excitation_prob))
        if not 0.0 <= saturation <= 1.0:
            raise ConfigError("[emitter].saturation_excitation_prob must lie in [0, 1]")

        pro = section_of("protocol")
        protocol = PLEProtocol(
            pulse_length_us=float(pro.get("pulse_length_us", base.protocol.pulse_length_us)),
            repetition_rate_khz=float(pro.get("repetition_rate_khz", base.protocol.repetition_rate_khz)),
            window_delay_us=float(pro.get("window_delay_us", base.protocol.window_delay_us)),
            window_length_us=float(pro.get("window_length_us", base.protocol.window_length_us)),
            integration_time_s=float(pro.get("integration_time_s", base.protocol.integration_time_s)),
            scan_pitch_mhz=float(pro.get("scan_pitch_mhz", base.protocol.scan_pitch_mhz)),
            scan_range_mhz=(
                _floats("protocol", "scan_range_mhz", pro["scan_range_mhz"], 2)
                if "scan_range_mhz" in pro
                else base.protocol.scan_range_mhz
            ),
        )

        det = section_of("detector")
        detector = DetectorModel(
            total_efficiency=float(det.get("total_efficiency", base.detector.total_efficiency)),
            dark_rate_hz=float(det.get("dark_rate_hz", base.detector.dark_rate_hz)),
        )

        run = section_of("run")
        run_settings = RunSettings(
            seed=int(run.get("seed", base.run.seed)),
            output_dir=str(run.get("output_dir", base.run.output_dir)),
            max_voltage_v=float(run.get("max_voltage_v", base.run.max_voltage_v)),
        )

        dec = section_of("decay")
        decay = DecaySettings(
            ion_id=str(dec.get("ion_id", base.decay.ion_id)),
            n_pulses=int(dec.get("n_pulses", base.decay.n_pulses)),
            bin_width_us=float(dec.get("bin_width_us", base.decay.bin_width_us)),
            fit_start_us=float(dec.get("fit_start_us", base.decay.fit_start_us)),
        )

        g2s = section_of("g2")
        g2 = G2Settings(
            ion_id=str(g2s.get("ion_id", base.g2.ion_id)),
            background_fraction=float(g2s.get("background_fraction", base.g2.background_fraction)),
            n_pulses=int(g2s.get("n_pulses", base.g2.n_pulses)),
            max_lag=int(g2s.get("max_lag", base.g2.max_lag)),
        )

        sta = section_of("stark")
        stark = StarkScanSettings(
            ion_id=str(sta.get("ion_id", base.stark.ion_id)),
            voltages_v=(
                tuple(_floats("stark", "voltages_v", sta["voltages_v"], len(sta["voltages_v"])))
                if "voltages_v" in sta
                else base.stark.voltages_v
            ),
            window_half_width_mhz=float(
                sta.get("window_half_width_mhz", base.stark.window_half_width_mhz)
            ),
        )
    except (GeometryError, StarkModelError, SimulationError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    config = ExperimentConfig(
        layout=layout,
        dielectric=dielectric,
        solver=solver,
        ions=ions,
        cavity=cavity,
        emitter=emitter,
        saturation_excitation_prob=saturation,
        protocol=protocol,
        detector=detector,
        run=run_settings,
        decay=decay,
        g2=g2,
        stark=stark,
    )
    for name, ion_id in (
        ("decay", config.decay.ion_id),
        ("g2", config.g2.ion_id),
        ("stark", config.stark.ion_id),
    ):
        if ion_id != "" and ion_id not in {i.ion_id for i in config.ions}:
            raise ConfigError(f"[{name}].ion_id {ion_id!r} is not in the ion registry")
    return config


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    return {
        "layout": {
            "electrode_width_um": config.layout.electrode_width_um,
            "gap_um": config.layout.gap_um,
            "electrode_potentials_v": list(config.layout.electrode_potentials_v),
            "domain_extent_um": list(config.layout.domain_extent_um),
            "probe_point_um": list(config.layout.probe_point_um),
        },
        "dielectric": {
            "relative_permittivity_above": config.dielectric.relative_permittivity_above,
            "relative_permittivity_below": config.dielectric.relative_permittivity_below,
        },
        "solver": {
            "spacing_um": config.solver.spacing_um,
            "tolerance_v": config.solver.tolerance_v,
            "max_iterations": config.solver.max_iterations,
        },
        "ions": [
            {
                "id": ion.ion_id,
                "zero_field_frequency_mhz": ion.zero_field_frequency_mhz,
                "stark_coefficient_khz_per_v_cm": ion.stark_coefficient_khz_per_v_cm,
                "zero_field_fwhm_mhz": ion.zero_field_fwhm_mhz,
                "broadening_mhz_per_kv_cm": ion.broadening_mhz_per_kv_cm,
            }
            for ion in config.ions
        ],
        "cavity": {
            "center_frequency_ghz": config.cavity.center_frequency_ghz,
            "quality_factor": config.cavity.quality_factor,
            "mode_volume_cubic_wavelengths": config.cavity.mode_volume_cubic_wavelengths,
            "refractive_index": config.cavity.refractive_index,
            "dip_depth": config.cavity.dip_depth,
        },
        "emitter": {
            "bulk_lifetime_ms": config.emitter.bulk_lifetime_ms,
            "branching_ratio": config.emitter.branching_ratio,
            **(
                {"enhancement_factor": config.emitter.enhancement_factor}
                if config.emitter.enhancement_factor is not None
                else {}
            ),
            "saturation_excitation_prob": config.saturation_excitation_prob,
        },
        "protocol": {
            "pulse_length_us": config.protocol.pulse_length_us,
            "repetition_rate_khz": config.protocol.repetition_rate_khz,
            "window_delay_us": config.protocol.window_delay_us,
            "window_length_us": config.protocol.window_length_us,
            "integration_time_s": config.protocol.integration_time_s,
            "scan_pitch_mhz": config.protocol.scan_pitch_mhz,
            "scan_range_mhz": list(config.protocol.scan_range_mhz),
        },
        "detector": {
            "total_efficiency": config.detector.total_efficiency,
            "dark_rate_hz": config.detector.dark_rate_hz,
        },
        "run": {
            "seed": config.run.seed,
            "output_dir": config.run.output_dir,
            "max_voltage_v": config.run.max_voltage_v,
        },
        "decay": {
            "ion_id": config.decay.ion_id,
            "n_pulses": config.decay.n_pulses,
            "bin_width_us": config.decay.bin_width_us,
            "fit_start_us": config.decay.fit_start_us,
        },
        "g2": {
            "ion_id": config.g2.ion_id,
            "background_fraction": config.g2.background_fraction,
            "n_pulses": config.g2.n_pulses,
            "max_lag": config.g2.max_lag,
        },
        "stark": {
            "ion_id": config.stark.ion_id,
            "voltages_v": list(config.stark.voltages_v),
            "window_half_width_mhz": config.stark.window_half_width_mhz,
        },
    }


def loads_config(text: str) -> ExperimentConfig:
    return config_from_dict(parse_toml(text))


def load_config(path: str | Path) -> ExperimentConfig:
    return loads_config(Path(path).read_text(encoding="utf-8"))


def dumps_config(config: ExperimentConfig) -> str:
    return dump_toml(config_to_dict(config))


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(dumps_config(config), encoding="utf-8")


def config_file_digest(text: str) -> str:
    """Digest of the canonical serialized config; stored in run manifests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
