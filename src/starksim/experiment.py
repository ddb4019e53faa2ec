"""Seeded Monte Carlo of the pulsed photon-counting experiments.

One protocol drives everything: an excitation pulse, a short blanking
delay, then a gated detection window before the next pulse. Within a
pulse an emitter is excited at most once (pulse length is well under the
lifetime), decays with an exponential delay measured from the pulse end,
and is detected with the overall collection efficiency if the photon
falls inside the window. Dark counts are a homogeneous Poisson process
over the open window.

The simulators take each ion's own line as an :class:`~starksim.stark.IonModel`
and the lifetime and saturation all ions share as one
:class:`~starksim.stark.EmitterParams`, the only input of decay and g2.
Each also takes its config record whole, and a record checks its limits
when it is built, raising ``ConfigError``, so the simulators check none
of them again; among them :func:`check_count`'s, that no array a
simulator draws outgrows numpy's largest. A :class:`SimulationError` is
a failure at run time of a config that loaded. The field enters as one
number, its component along the inter-electrode axis in V/cm (a Stark
sweep takes the volts-to-field scale instead), and each simulator
returns the arrays it drew: an axis and the counts on it, or for a Stark
sweep flat columns of ion, voltage, field, frequency and counts, an entry
per scan point, each window holding every swept ion's line. ``cli``
writes them to CSV as they are.

Determinism contract: every record, a PLE scan, a decay histogram, a g2
histogram or a Stark sweep of any number of ions, is drawn in bulk from
one generator, ``point_generator(seed)``, in the draw order its
simulator's docstring states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ConfigError
from .stark import EmitterParams, IonModel, lorentzian

__all__ = [
    "DecaySettings",
    "G2Settings",
    "PLEProtocol",
    "DetectorModel",
    "SimulationError",
    "StarkScanSettings",
    "check_count",
    "check_poisson_mean",
    "emission_window_probability",
    "mix_seed",
    "point_generator",
    "simulate_decay_histogram",
    "simulate_g2_histogram",
    "simulate_ple_scan",
    "simulate_stark_scan",
]

DEFAULT_MASTER_SEED = 0xE53_1536

_MASK64 = (1 << 64) - 1
_GATHER_BLOCK = 1 << 18  # g2 background events x lags gathered at once, so memory stays bounded
_POISSON_MAX = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)  # the largest mean numpy's Poisson sampler takes
_MAX_BYTES = np.iinfo(np.intp).max  # the largest array numpy makes, in bytes


class SimulationError(ValueError):
    """A config that loaded fails at run time (exit 4)."""


def check_count(where: str, count: float, itemsize: int = 1) -> None:
    """Refuse a count numpy cannot hold: not a number, or one whose largest array, ``itemsize`` bytes an entry,
    exceeds numpy's largest, ``np.iinfo(np.intp).max`` bytes. A count that sizes no array (a binomial's draws) is
    an int64, 1 byte here. Give it as a float, before any ``int()``, so that an infinite one is refused."""
    if not count * itemsize <= _MAX_BYTES:
        largest = _MAX_BYTES // itemsize
        raise ConfigError(f"{where} gives a count of {count:.4g}, above numpy's largest, {largest:.4g}")


def check_poisson_mean(where: str, mean: float) -> None:
    """Refuse a Poisson mean numpy cannot draw from: one above 2**63 - 1 - 10 sqrt(2**63 - 1), or not a number."""
    if not mean <= _POISSON_MAX:
        raise ConfigError(f"{where} gives a Poisson mean of {mean:.4g}, above numpy's largest, {_POISSON_MAX:.4g}")


def mix_seed(master_seed: int, index: int) -> int:
    """splitmix64 finalizer over ``master_seed + (index+1)*golden_gamma``.

    This is the one mixing function used to derive a record's stream from
    a master seed, in :func:`point_generator`; it is part of the
    reproducibility contract, so do not change it.
    """
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def point_generator(master_seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix_seed(master_seed, 0)))


@dataclass(frozen=True)
class PLEProtocol:
    """Pulse train and scan settings of the gated excitation experiment."""

    pulse_length_us: float = 10.0
    repetition_rate_khz: float = 10.0
    window_delay_us: float = 1.0
    window_length_us: float = 85.0
    integration_time_s: float = 5.0
    scan_pitch_mhz: float = 5.0
    scan_range_mhz: tuple[float, float] = (-300.0, 300.0)

    def __post_init__(self) -> None:
        for name in (
            "pulse_length_us",
            "repetition_rate_khz",
            "window_delay_us",
            "window_length_us",
            "integration_time_s",
            "scan_pitch_mhz",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"[protocol].{name} must be positive, got {getattr(self, name)}")
        if self.pulse_length_us + self.window_delay_us + self.window_length_us > self.period_us:
            raise ConfigError(
                f"[protocol] pulse_length_us + window_delay_us + window_length_us = {self.pulse_length_us:g} + "
                f"{self.window_delay_us:g} + {self.window_length_us:g} us exceed the repetition period, "
                f"{self.period_us:g} us at repetition_rate_khz = {self.repetition_rate_khz:g}"
            )
        lo, hi = self.scan_range_mhz
        if not lo < hi:
            raise ConfigError(f"[protocol].scan_range_mhz must be increasing, got {self.scan_range_mhz}")
        check_count("[protocol].integration_time_s", self.integration_time_s * self.repetition_rate_khz * 1000.0)

    @property
    def period_us(self) -> float:
        return 1000.0 / self.repetition_rate_khz

    @property
    def pulses_per_point(self) -> int:
        return int(round(self.integration_time_s * self.repetition_rate_khz * 1000.0))

    def scan_frequencies_mhz(self) -> np.ndarray:
        return _scan_grid(*self.scan_range_mhz, self.scan_pitch_mhz)


def _scan_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Whole steps from ``lo`` up to ``hi``: the scan's frequencies, each Stark window's, the decay's bin edges."""
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


@dataclass(frozen=True)
class DetectorModel:
    """Overall collection efficiency (excitation x transmission x detector)
    and detector dark-count rate."""

    total_efficiency: float = 0.01
    dark_rate_hz: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.total_efficiency <= 1.0:
            raise ConfigError(f"[detector].total_efficiency must lie in [0, 1], got {self.total_efficiency}")
        if self.dark_rate_hz < 0.0:
            raise ConfigError(f"[detector].dark_rate_hz must be >= 0, got {self.dark_rate_hz}")

    def dark_mean(self, window_us: float, n_pulses: int) -> float:
        """Dark counts expected in a gate ``window_us`` long, open once in each of ``n_pulses`` pulses: a scan
        point's over its window, a decay bin's over its width."""
        return self.dark_rate_hz * window_us * 1e-6 * n_pulses


@dataclass(frozen=True)
class DecaySettings:
    """The ``[decay]`` section: the histogram's pulses and bin width, and where its fit starts."""

    n_pulses: int = 10_000_000
    bin_width_us: float = 1.0
    fit_start_us: float = 0.0

    def __post_init__(self) -> None:
        if self.n_pulses < 1:
            raise ConfigError(f"[decay].n_pulses must be at least 1, got {self.n_pulses}")
        check_count("[decay].n_pulses", self.n_pulses)
        if not self.bin_width_us > 0.0:
            raise ConfigError(f"[decay].bin_width_us must be positive, got {self.bin_width_us}")


@dataclass(frozen=True)
class G2Settings:
    """The ``[g2]`` section: background share of the detected events, pulses and largest lag."""

    background_fraction: float = 0.051
    n_pulses: int = 200_000
    max_lag: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.background_fraction < 1.0:
            raise ConfigError(f"[g2].background_fraction must lie in [0, 1), got {self.background_fraction}")
        if self.max_lag < 1:
            raise ConfigError(f"[g2].max_lag must be at least 1, got {self.max_lag}")
        if self.n_pulses <= self.max_lag:
            raise ConfigError(f"[g2].n_pulses must exceed max_lag = {self.max_lag}, got {self.n_pulses}")
        check_count("[g2].n_pulses", self.n_pulses + 2 * self.max_lag, 8)  # arm B's int64 counts, one a padded pulse

    def means(self, emitter: EmitterParams, protocol: PLEProtocol) -> tuple[float, float]:
        """The emitter's chance of a detected photon per pulse, saturation x P_window with no ``[detector]``
        efficiency, which g2 does not read, and each arm's mean background events over the record."""
        p_signal = emitter.saturation_excitation_prob * emission_window_probability(
            emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
        )
        return p_signal, self.background_fraction / (1.0 - self.background_fraction) * p_signal / 2.0 * self.n_pulses


@dataclass(frozen=True)
class StarkScanSettings:
    """The ``[stark]`` section: the swept ion, its voltages and each scan's half-width."""

    ion_id: str = ""  # empty: first registry ion
    voltages_v: tuple[float, ...] = (0.0, 55.5, 111.0, 166.5, 222.0, 277.5, 333.0)
    window_half_width_mhz: float = 60.0

    def __post_init__(self) -> None:
        if len(set(self.voltages_v)) < 3:  # fig4's line-law fit needs 3 distinct fields
            raise ConfigError(f"[stark].voltages_v needs at least 3 distinct voltages, got {len(set(self.voltages_v))}")
        if not self.window_half_width_mhz > 0.0:
            raise ConfigError(f"[stark].window_half_width_mhz must be positive, got {self.window_half_width_mhz}")


def emission_window_probability(lifetime_us: float, delay_us: float, window_us: float) -> float:
    """Chance an exponential emission (clock at pulse end) lands in the window."""
    return math.exp(-delay_us / lifetime_us) - math.exp(-(delay_us + window_us) / lifetime_us)


def _line(ion: IonModel, e_parallel_v_per_cm: float) -> tuple[float, float]:
    """``ion.line(e_parallel_v_per_cm)``; a line that overflows is a simulation failure naming the ion."""
    centre, fwhm = ion.line(e_parallel_v_per_cm)
    if not (math.isfinite(centre) and math.isfinite(fwhm)):
        raise SimulationError(
            f"{ion.ion_id}: the line overflows at {e_parallel_v_per_cm:g} V/cm "
            f"(centre {centre} MHz, width {fwhm} MHz)"
        )
    return centre, fwhm


def simulate_ple_scan(
    ions: Sequence[IonModel],
    emitter: EmitterParams,
    protocol: PLEProtocol,
    detector: DetectorModel,
    e_parallel_v_per_cm: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Photon counts versus excitation frequency under the pulse protocol,
    with every ion in the field ``e_parallel_v_per_cm``: ``(frequencies_mhz, counts)``.

    Per pulse and per ion: Bernoulli excitation with the Lorentzian
    detuning probability ``p_exc``, exponential emission delay, detection
    iff the photon falls in the window and survives the collection
    efficiency. Detection thins the excited pulses, so an ion's count at a
    point is ``Binomial(n_pulses, p_exc * efficiency * P_window)``; Poisson
    dark counts add to it. Drawn from ``point_generator(seed)``: one
    binomial array over (points x ions), then one Poisson count per point.
    """
    frequencies = protocol.scan_frequencies_mhz()
    centres, fwhms = np.array([_line(ion, e_parallel_v_per_cm) for ion in ions]).reshape(-1, 2).T
    return frequencies, _scan_counts(centres, fwhms, emitter, protocol, detector, frequencies, seed)


def _scan_counts(centres, fwhms, emitter, protocol, detector, frequencies, seed) -> np.ndarray:
    """The counts of :func:`simulate_ple_scan` at ``frequencies`` of the lines ``(centres, fwhms)``, which
    broadcast against ``frequencies[..., None]`` and sum over their last axis, drawn as it states."""
    p_exc = lorentzian(frequencies[..., None], (emitter.saturation_excitation_prob, centres, fwhms))
    p_detect = detector.total_efficiency * emission_window_probability(
        emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
    )

    rng = point_generator(seed)
    signal = rng.binomial(protocol.pulses_per_point, p_exc * p_detect).sum(axis=-1)
    darks = rng.poisson(detector.dark_mean(protocol.window_length_us, protocol.pulses_per_point), frequencies.shape)
    return signal + darks


def simulate_decay_histogram(
    emitter: EmitterParams,
    protocol: PLEProtocol,
    detector: DetectorModel,
    decay: DecaySettings,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Detection times within the window, binned (the decay curve):
    ``(bin_centers_us, counts)``, times from the window's start.

    The bins are whole: their edges are ``_scan_grid``'s steps of the bin
    width from 0 up to the window's length, so where the width does not
    divide the window, the times past the last edge are dropped. The config
    refuses a bin wider than the window.

    Drawn from its exact distribution in O(bins), never per pulse. A pulse
    yields at most one signal photon, with probability
    ``p_exc * efficiency * P_window``, so the signal total is binomial and,
    given the total, the signal bins are multinomial over the truncated
    exponential (Devroye 1986, ch. XI). Dark counts are Poisson in every
    bin with the one mean ``dark_rate * bin_width * n_pulses``. Bin
    probabilities are differences of ``exp(-(delay + edge) / lifetime)``,
    and ``P_window`` is their sum.

    Draw order from ``point_generator(seed)``: the binomial signal
    total, the multinomial split (skipped when the total is 0), then one
    Poisson dark count per bin.
    """
    edges = _scan_grid(0.0, protocol.window_length_us, decay.bin_width_us)
    survival = np.exp(-(protocol.window_delay_us + edges) / emitter.lifetime_us)
    bin_probs = survival[:-1] - survival[1:]
    p_window = float(bin_probs.sum())

    rng = point_generator(seed)
    p_photon = emitter.saturation_excitation_prob * detector.total_efficiency * p_window
    n_signal = rng.binomial(decay.n_pulses, p_photon)
    # a pulse can only yield a photon if p_window > 0, so the split never divides by 0
    signal = rng.multinomial(n_signal, bin_probs / p_window) if n_signal else 0
    darks = rng.poisson(detector.dark_mean(decay.bin_width_us, decay.n_pulses), bin_probs.size)
    return (edges[:-1] + edges[1:]) / 2.0, (signal + darks).astype(np.int64)


def simulate_g2_histogram(
    emitter: EmitterParams,
    g2: G2Settings,
    protocol: PLEProtocol,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Hanbury Brown-Twiss coincidences versus pulse lag: ``(lags, coincidences)``,
    lags ``-max_lag .. max_lag``.

    The emitter contributes at most one detected photon per pulse, with
    probability ``p`` (:meth:`G2Settings.means`: no detector efficiency
    enters); ``g2.background_fraction`` of all detected events come from a
    Poissonian background of mean ``m`` per pulse instead. Every event is
    routed 50/50 to the two arms and ``C(k)`` counts arm-A events against
    arm-B events ``k`` pulses later, in exact int64 arithmetic.

    The arms are drawn directly: a pulse's photon goes to arm A if its
    uniform ``u < p/2`` and to arm B if ``p/2 <= u < p``; by Poisson
    thinning each arm's background is an independent Poisson(``m/2``) per
    pulse, drawn as one Poisson total placed on uniform pulse indices.
    Draw order from ``point_generator(seed)``: one uniform per pulse,
    then arm A's background total and indices, then arm B's.

    The signal stays two boolean masks, so the signal x signal sum is a
    count of their overlap at each lag, and the sums with a background
    gather at its events, about one per hundred pulses in each arm at
    the default settings. With 200 000 pulses (median of 41 calls, 2 vCPU Xeon, numpy 2.4.6) a call takes
    about half as long as whole-record lag sums at the default background fraction of 0.051, but the cost
    grows with the background: 1.4-4 times as long at 0.5 and 8-9 times at 0.95.
    """
    n_pulses, max_lag = g2.n_pulses, g2.max_lag
    rng = point_generator(seed)
    p_signal, arm_background = g2.means(emitter, protocol)

    # arm X at pulse i is its signal mask plus its background events there; on
    # arrays padded with max_lag empty pulses each side C(k) = sum_i a_i b_(i+k)
    # never leaves the record
    u = rng.random(n_pulses)
    record = slice(max_lag, max_lag + n_pulses)
    signal_a, signal_b = np.zeros((2, n_pulses + 2 * max_lag), dtype=bool)
    np.less(u, p_signal / 2.0, out=signal_a[record])
    np.less(u, p_signal, out=signal_b[record])
    signal_b[record] &= ~signal_a[record]
    background_a, background_b = (
        max_lag + rng.integers(0, n_pulses, rng.poisson(arm_background)) for _ in "ab"
    )
    lags = np.arange(-max_lag, max_lag + 1)
    later = [slice(max_lag + k, max_lag + k + n_pulses) for k in lags.tolist()]  # the record k pulses later
    coincidences = np.array([np.count_nonzero(signal_a[record] & signal_b[s]) for s in later], dtype=np.int64)
    # arm A's background against the whole of arm B, and arm B's against
    # arm A's signal, gathered at the background events a block at a time
    arm_b = np.bincount(background_b, minlength=signal_b.size)
    arm_b += signal_b
    block = max(_GATHER_BLOCK // lags.size, 1)
    for start in range(0, max(background_a.size, background_b.size), block):
        coincidences += arm_b[background_a[start: start + block, None] + lags].sum(axis=0)
        coincidences += signal_a[background_b[start: start + block, None] - lags].sum(axis=0)
    return lags, coincidences


def simulate_stark_scan(
    ions: Sequence[IonModel],
    emitter: EmitterParams,
    stark: StarkScanSettings,
    volts_to_field_v_per_cm_per_v: float,
    protocol: PLEProtocol,
    detector: DetectorModel,
    seed: int,
) -> tuple[np.ndarray, ...]:
    """PLE scans of ``ions`` at each of ``stark.voltages_v`` (``stark.ion_id`` is not read), as flat columns
    ``(ion_ids, voltages_v, fields_v_per_cm, frequencies_mhz, counts)`` of an entry per scan point, ion by ion
    and then voltage by voltage.

    The field is ``volts_to_field_v_per_cm_per_v`` times the voltage, the probe field per volt of bias along the
    inter-electrode axis. Each window is ``stark.window_half_width_mhz`` either side of its ion's expected peak
    rounded to the pitch, so all have the same points; a peak so far out that a window's ends round together is a
    :class:`SimulationError` naming the ion. Like a PLE scan, a window holds every ion's line at its voltage, so a
    sweep of one ion (fig4a's) is the isolated-ion case. Drawn from ``point_generator(seed)``: one binomial array
    over (ions x voltages x points x lines), then one Poisson count per point.
    """
    voltages = np.asarray(stark.voltages_v, dtype=float)
    fields = volts_to_field_v_per_cm_per_v * voltages
    half_width, pitch = stark.window_half_width_mhz, protocol.scan_pitch_mhz
    lines = np.array([[_line(ion, field) for field in fields.tolist()] for ion in ions])
    centres, fwhms = lines.reshape(len(ions), fields.size, 2).transpose(2, 0, 1)  # each (ions, voltages)
    with np.errstate(over="ignore"):  # inf where the centre over the pitch overflows
        base = np.rint(centres / pitch) * pitch
    closed = np.argwhere(~(base - half_width < base + half_width))
    if closed.size:
        i, v = closed[0]
        raise SimulationError(
            f"{ions[i].ion_id}: at {fields[v]:g} V/cm the scan window {base[i, v]:g} +/- {half_width:g} MHz "
            f"lies beyond float precision: its ends round to {base[i, v] - half_width:.17g} and "
            f"{base[i, v] + half_width:.17g} MHz"
        )
    frequencies = base[..., None] + _scan_grid(-half_width, half_width, pitch)  # (ions, voltages, points)
    counts = _scan_counts(centres.T[None, :, None, :], fwhms.T[None, :, None, :], emitter, protocol, detector,
                          frequencies, seed)  # every ion's line at a window's voltage against its points
    ion_ids = np.array([ion.ion_id for ion in ions], dtype=str)
    columns = np.broadcast_arrays(ion_ids[:, None, None], voltages[:, None], fields[:, None], frequencies, counts)
    return tuple(column.ravel() for column in columns)
