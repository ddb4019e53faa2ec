"""Experiment configuration: a TOML file read by the standard library's ``tomllib``.

The dataclasses are the schema. Each field of ``ExperimentConfig`` is a
section of the file, a section's keys are the field names of its
dataclass, and each value is checked against the field's annotation.
Each record checks its own values when built, raising ``ConfigError``
(the package's, re-exported here): ``[solver]`` and ``[run]`` are defined
here, ``[layout]`` in ``electrostatics``, ``[[ions]]`` and ``[emitter]``
in ``stark``, and the others in ``experiment``; ``ExperimentConfig``
checks across sections. The departures sit in
tables next to the generic reader and writer: the ``[[ions]]`` key
``id``, the one optional ion key, and the retired keys, which a file may
still hold and which are checked as the type their table records, then
dropped and never written. Units are in the key names (``gap_um``,
``dark_rate_hz``), so a file is never unit-ambiguous.
Unknown sections or keys are rejected, and every number must be finite.
The writer emits ``[section]`` tables, the ``[[ions]]`` array of tables,
basic strings, integers, floats and flat arrays.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import tomllib
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from . import ConfigError
from .electrostatics import ElectrodeLayout, check_grid
from .experiment import DEFAULT_MASTER_SEED, DecaySettings, DetectorModel, G2Settings, PLEProtocol, StarkScanSettings
from .experiment import check_count, check_poisson_mean
from .stark import EmitterParams, IonModel, lifetime_limited_fwhm_mhz

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunSettings",
    "SolverSettings",
    "config_file_digest",
    "default_config",
    "dumps_config",
    "load_config",
    "loads_config",
]


# ---------------------------------------------------------------------------
# TOML writer


def _format_value(value: Any) -> str:
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")  # a TOML basic string
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise ConfigError(f"cannot serialize value of type {type(value).__name__}")


def dump_toml(data: dict[str, Any]) -> str:
    lines: list[str] = []
    for section, content in data.items():
        header = f"[[{section}]]" if isinstance(content, list) else f"[{section}]"
        for entry in content if isinstance(content, list) else [content]:
            lines.append(header)
            lines.extend(f"{key} = {_format_value(value)}" for key, value in entry.items())
            lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class SolverSettings:
    spacing_um: float = 5.0


@dataclass(frozen=True)
class RunSettings:
    seed: int = DEFAULT_MASTER_SEED
    output_dir: str = "out"
    max_voltage_v: float = 333.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:  # mix_seed works modulo 2**64: a seed outside aliases one inside
            raise ConfigError(f"[run].seed must lie in [0, 2**64), got {self.seed}")
        if not self.max_voltage_v > 0.0:
            raise ConfigError(f"[run].max_voltage_v must be positive, got {self.max_voltage_v}")
        # the paths under it print one per line, so nothing str.splitlines() breaks at
        if "".join(self.output_dir.splitlines()) != self.output_dir:
            raise ConfigError(f"[run].output_dir {self.output_dir!r} may not hold a line break")


_DEFAULT_IONS = (
    IonModel("ion1", 0.0, 19.8, 6.7),
    # -182.9e3 / 21652.504560964684: the empirical shift at the full 333 V
    # bias is -182.9 MHz for the default layout's probe field of the former
    # SOR solver. The exact discrete field, 21652.534 V/cm, is 1.4e-6
    # relative higher (shift -182.90025 MHz), and is what the direct solve
    # returns. The constant stays because bench/workloads.py ION_REGISTRY
    # mirrors it.
    IonModel("ion2", -40.0, -8.447059760917158, 6.7),
    IonModel("ion3", 60.0, 23.2, 5.9),
    IonModel("ion4", 130.0, -23.0, 7.4),
    IonModel("ion5", -155.0, 22.903, 6.2),
    IonModel("ion6", 215.0, -22.65, 7.0),
    IonModel("ion7", -250.0, -9.8, 6.5),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of a run; the defaults describe the measured device."""

    layout: ElectrodeLayout = ElectrodeLayout(
        electrode_width_um=200.0, gap_um=100.0, electrode_potentials_v=(166.5, -166.5), domain_extent_um=(1000.0, 600.0)
    )
    solver: SolverSettings = SolverSettings()
    ions: tuple[IonModel, ...] = _DEFAULT_IONS
    emitter: EmitterParams = EmitterParams(bulk_lifetime_ms=11.4, enhancement_factor=278.0)
    protocol: PLEProtocol = PLEProtocol()
    detector: DetectorModel = DetectorModel()
    run: RunSettings = RunSettings()
    decay: DecaySettings = DecaySettings()
    g2: G2Settings = G2Settings()
    stark: StarkScanSettings = StarkScanSettings()

    def __post_init__(self) -> None:
        ids = [ion.ion_id for ion in self.ions]
        for ion_id in ids:  # ids name output files and are written between quotes
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", ion_id):
                raise ConfigError(f"[[ions]].id {ion_id!r} may use only A-Z, a-z, 0-9, '_', '.' and '-'")
        for index, ion_id in enumerate(ids):
            if ion_id in ids[:index]:
                raise ConfigError(f"[[ions]].id {ion_id!r} is not unique")
        check_grid(self.layout, self.solver.spacing_um)  # as solve_potential checks it
        half_width, pitch = self.stark.window_half_width_mhz, self.protocol.scan_pitch_mhz
        # the largest arrays the simulators draw, each 8 bytes an entry: a scan's (points x ions)
        # binomial counts, a Stark scan's points, and the decay's bins
        lo, hi = self.protocol.scan_range_mhz
        check_count("[protocol].scan_range_mhz", ((hi - lo) / pitch + 1) * max(len(self.ions), 1), 8)
        check_count("[stark].window_half_width_mhz", 2.0 * half_width / pitch + 1, 8)
        width, window = self.decay.bin_width_us, self.protocol.window_length_us
        check_count("[decay].bin_width_us", window / width + 1, 8)
        if width > window:  # the decay's bins are whole
            raise ConfigError(f"[decay].bin_width_us = {width:g} us is wider than [protocol].window_length_us = {window:g} us")
        # the Poisson means the simulators draw from: a scan point's darks, a decay bin's, g2's per arm
        darks = max(self.detector.dark_mean(window, self.protocol.pulses_per_point),
                    self.detector.dark_mean(width, self.decay.n_pulses))
        check_poisson_mean("[detector].dark_rate_hz", darks)
        check_poisson_mean("[g2].background_fraction", self.g2.means(self.emitter, self.protocol)[1])
        if self.stark.ion_id not in ("", *ids):
            raise ConfigError(f"[stark].ion_id {self.stark.ion_id!r} is not in the ion registry")
        for voltage in self.stark.voltages_v:  # the sweep stays within the supply
            if not abs(voltage) <= self.run.max_voltage_v:
                raise ConfigError(
                    f"[stark].voltages_v holds {voltage:g} V, outside the "
                    f"+/-{self.run.max_voltage_v:g} V of [run].max_voltage_v"
                )
        limit = lifetime_limited_fwhm_mhz(self.emitter.lifetime_us)
        for ion in self.ions:  # the [emitter] lifetime bounds every ion's linewidth from below
            if ion.zero_field_fwhm_mhz < limit:
                raise ConfigError(
                    f"[emitter] with ion {ion.ion_id!r}: linewidth {ion.zero_field_fwhm_mhz:g} MHz "
                    f"is below the lifetime limit {limit:g} MHz"
                )

    def ion(self, ion_id: str) -> IonModel:
        """The registry ion whose id is ``ion_id``."""
        for ion in self.ions:
            if ion.ion_id == ion_id:
                return ion
        raise ConfigError(f"unknown ion id {ion_id!r}")


def default_config() -> ExperimentConfig:
    """Built-in configuration mirroring the measured device."""
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing, derived from the fields above
#
# Each field of ExperimentConfig is a section, in field order; a section's
# keys are its dataclass's field names, in field order, each typed by the
# field's annotation. The departures from that rule:
_FILE_KEYS = {("ions", "ion_id"): "id"}
_ION_DEFAULTS = {"zero_field_frequency_mhz": 0.0}  # [[ions]] may omit it; other no-default keys are required
# Keys that reach no output: the retired cavity model, the permittivities, which
# drop out of the field, the stopping rule of the iterative solver the exact one
# replaced (see electrostatics), and the decay and g2 ion, whose experiments read
# only the shared [emitter]. A stored config.toml may hold them: the reader checks
# each value as the type given here and drops it; never written.
_RETIRED = {
    "solver": dict.fromkeys(("tolerance_v", "max_iterations"), float),
    "dielectric": dict.fromkeys(("relative_permittivity_above", "relative_permittivity_below"), float),
    "cavity": dict.fromkeys(("center_frequency_ghz", "quality_factor", "mode_volume_cubic_wavelengths",
                             "refractive_index", "dip_depth"), float),
    "emitter": {"branching_ratio": float},
    "decay": {"ion_id": str},
    "g2": {"ion_id": str},
}

_HINTS = get_type_hints(ExperimentConfig)
_ARRAYS = {name for name, hint in _HINTS.items() if get_origin(hint) is tuple}  # [[ions]]


def _slots(section: str) -> dict[str, tuple[str, Any]]:
    """File key -> (field name, annotation) for one section, in file order."""
    hint = _HINTS[section]
    cls = get_args(hint)[0] if section in _ARRAYS else hint
    hints = get_type_hints(cls)
    return {
        _FILE_KEYS.get((section, f.name), f.name): (f.name, hints[f.name])
        for f in fields(cls)
    }


_SLOTS = {f.name: _slots(f.name) for f in fields(ExperimentConfig)}


_EXPECTED = {str: "a string", int: "an integer", float: "a number"}


def _coerce(where: str, hint: Any, value: Any) -> Any:
    """Check one file value against a field annotation; numbers must be finite."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected an array")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{where}: expected an array of {len(args)} numbers")
        return tuple(_coerce(where, args[0], item) for item in value)
    accepted = (int, float) if hint is float else hint  # an integer is a valid float
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {_EXPECTED[hint]}")
    if hint is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {number}")
    return number


def _read_table(where: str, section: str, table: dict[str, Any]) -> dict[str, Any]:
    slots, retired = _SLOTS.get(section, {}), _RETIRED.get(section, {})
    values = {}
    for key, value in table.items():
        if key in retired:  # checked, then dropped
            _coerce(f"{where}.{key}", retired[key], value)
        elif key not in slots:
            raise ConfigError(f"{where}: unknown key {key!r}")
        else:
            name, hint = slots[key]
            values[name] = _coerce(f"{where}.{key}", hint, value)
    return values


def _read_ion(entry: Any) -> IonModel:
    if not isinstance(entry, dict):
        raise ConfigError(f"[[ions]]: each entry must be a table, got {type(entry).__name__}")
    values = {**_ION_DEFAULTS, **_read_table("[[ions]]", "ions", entry)}
    for f in fields(IonModel):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"[[ions]]: missing key {_FILE_KEYS.get(('ions', f.name), f.name)!r}")
    return IonModel(**values)


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Config from parsed TOML; sections and keys the file leaves out keep
    the defaults, and every record raises :class:`ConfigError` for a value its rules refuse."""
    base = default_config()
    changes: dict[str, Any] = {}
    for section, content in data.items():
        if section not in _SLOTS and section not in _RETIRED:
            raise ConfigError(f"unknown section [{section}]")
        if section in _ARRAYS:
            if not isinstance(content, list):
                raise ConfigError(f"[[{section}]] must be a table array")
            changes[section] = tuple(_read_ion(entry) for entry in content)
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"[{section}] must be a plain section, got {type(content).__name__}")
        values = _read_table(f"[{section}]", section, content)
        if section in _SLOTS:
            changes[section] = replace(getattr(base, section), **values)
    return replace(base, **changes)


def _table(section: str, obj: Any) -> dict[str, Any]:
    return {
        key: getattr(obj, name)
        for key, (name, _) in _SLOTS[section].items()
    }


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    data: dict[str, Any] = {}
    for section in _SLOTS:
        value = getattr(config, section)
        if section in _ARRAYS:
            data[section] = [_table(section, entry) for entry in value]
        else:
            data[section] = _table(section, value)
    return data


def loads_config(text: str) -> ExperimentConfig:
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:  # names "(at line N, column M)"
        raise ConfigError(str(exc)) from None
    except ValueError:  # int() of a literal past Python's digit limit, which tomllib does not catch
        raise ConfigError(
            f"an integer has more than {sys.get_int_max_str_digits()} digits, Python's limit"
        ) from None
    return config_from_dict(data)


def load_config(path: str | Path) -> ExperimentConfig:
    return loads_config(Path(path).read_text(encoding="utf-8"))


def dumps_config(config: ExperimentConfig) -> str:
    return dump_toml(config_to_dict(config))


def config_file_digest(text: str) -> str:
    """Digest of the canonical serialized config; stored in run manifests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
