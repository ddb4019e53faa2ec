"""Parameter extraction from photon-counting data.

Peak finding on PLE scans, Poisson maximum-likelihood fits of the counts
(one line-sum model, a sum of Lorentzians on one offset, for fig2's scan and
fig4's sweep of line laws, and an exponential above a pinned floor), and the
coincidence-ratio estimate of the zero-lag autocorrelation. Each fit takes its points as the ``cli`` fit stage
that reads their file gives them: in axis order, trimmed and checked. The line's shape and law are
:func:`~starksim.stark.lorentzian` and :func:`~starksim.stark.line_law`, the ones the simulators draw from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .optimize import FitConvergenceError, FitError, FitResult, least_squares
from .stark import line_law, lorentzian, lorentzian_jacobian

__all__ = [
    "G2Estimate",
    "estimate_g2_zero",
    "exponential_decay",
    "exponential_decay_jacobian",
    "find_peaks",
    "fit_exponential_decay",
    "fit_lorentzians",
    "fit_stark_sweep",
]


@dataclass(frozen=True)
class G2Estimate:
    g2_zero: float
    standard_error: float


# ---------------------------------------------------------------------------
# the decay's model function; the line's, lorentzian, is stark's


def exponential_decay(t: np.ndarray, params: np.ndarray) -> np.ndarray:
    """amplitude * exp(-t / tau) + background"""
    amplitude, tau, background = params
    return amplitude * np.exp(-t / tau) + background


def exponential_decay_jacobian(t: np.ndarray, params: np.ndarray) -> np.ndarray:
    amplitude, tau, _ = params
    decay = np.exp(-t / tau)
    jac = np.empty(decay.shape + (3,))
    jac[..., 0] = decay
    jac[..., 1] = amplitude * decay * (t / tau) / tau  # grouped to avoid tau^2 overflow
    jac[..., 2] = 1.0
    return jac


# ---------------------------------------------------------------------------
# peak finding


def find_peaks(counts: Sequence[float] | np.ndarray, threshold_sigma: float) -> list[int]:
    """Sample indices of the prominent local maxima of a scan, in scan order.

    Counts are smoothed with a [1, 2, 1]/4 kernel before peak finding so
    single-sample shot-noise spikes do not qualify; prominence is
    measured on the smoothed trace against the higher of the two
    enclosing valleys, and must exceed
    ``threshold_sigma * sqrt(median count)``. A plateau's peak is its
    first sample.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise FitError("scan is empty")
    if counts.size < 3:
        return []
    padded = np.concatenate([counts[:1], counts, counts[-1:]])
    smooth = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0

    background = float(np.median(counts))
    threshold = threshold_sigma * math.sqrt(background)

    peaks = _local_maxima(smooth)
    return peaks[_prominences(smooth, peaks) > threshold].tolist()


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima; a flat plateau yields its first index.

    Runs of equal values are compared as one sample; a run above both its
    neighbouring runs is a maximum, and neither end of the scan is one.
    """
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    level = values[starts]
    return starts[np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1]


def _prominences(values: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak: its height above the higher enclosing valley.

    A peak's valley on each side is the lowest sample between it and the
    nearest higher sample on that side, or the scan's end. The peaks are
    taken a block at a time, so the (peaks x points) temporaries stay
    near 2**18 elements however long the scan.
    """
    index = np.arange(values.size)
    prominences = np.empty(peaks.size)
    block = max(2**18 // values.size, 1)
    for start in range(0, peaks.size, block):
        at = peaks[start: start + block, None]
        height = values[at]
        before, after = index < at, index > at
        higher = values > height
        left = np.max(np.where(higher & before, index, -1), axis=1, keepdims=True)
        right = np.min(np.where(higher & after, index, values.size), axis=1, keepdims=True)
        left_min = np.min(np.where(before & (index > left), values, height), axis=1)
        right_min = np.min(np.where(after & (index < right), values, height), axis=1)
        prominences[start: start + block] = height[:, 0] - np.maximum(left_min, right_min)
    return prominences


# ---------------------------------------------------------------------------
# fits


_LINE = ("amplitude", "center_mhz", "fwhm_mhz")  # one line's parameters, each named peak<i>_<name>


def fit_lorentzians(
    frequencies_mhz: Sequence[float] | np.ndarray, counts: Sequence[float] | np.ndarray, peaks: Sequence[int]
) -> FitResult:
    """Poisson maximum-likelihood fit of a scan, its frequencies in increasing
    order, as the sum of a Lorentzian started at each sample index of
    ``peaks`` and one shared offset: 3K + 1 parameters for K lines.

    Returns the one joint fit, its lines in centre order, line ``i`` from 1
    as ``peak<i>_amplitude``, ``peak<i>_center_mhz`` and ``peak<i>_fwhm_mhz``,
    then ``offset``. The model is even in each width, so widths are
    reported positive. A line narrower than half the median spacing, which
    the sampling cannot resolve (a spike latched onto one sample), raises
    :class:`FitConvergenceError` for the first such line, named
    ``peak<i>``, carrying the joint fit; a fit that does not converge is
    checked so at its last state, since such a line can narrow without end.
    """
    x = np.asarray(frequencies_mhz, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.size < 8:
        raise FitError(f"need at least 8 points, got {x.size}")
    pitch = float(np.median(np.diff(x)))
    names = tuple(f"peak{k}_{name}" for k in range(1, len(peaks) + 1) for name in _LINE) + ("offset",)
    model, jacobian = _line_sum(lambda p: np.reshape(p[:-1], (-1, 3)).T[..., None], lambda *by: by)
    failure = None
    try:
        fit = least_squares(model, jacobian, x, y, _lorentzian_guess(x, y, peaks, pitch), names)
    except FitConvergenceError as exc:  # its last state may show the line that kept it narrowing
        fit, failure = exc.last_result, exc
    order = np.argsort(fit.values[1:-1:3], kind="stable")
    keep = np.append(3 * order[:, None] + np.arange(3), -1)  # the lines in centre order, then the offset
    values = fit.values[keep]
    values[2:-1:3] = np.abs(values[2:-1:3])
    fit = replace(fit, values=values, stderrs=fit.stderrs[keep])
    for index, width in enumerate(values[2:-1:3].tolist(), start=1):
        if width < 0.5 * pitch:
            raise FitConvergenceError(f"peak{index}: fit collapsed to an unresolvable width {width:.3g} MHz", fit)
    if failure is not None:
        raise failure
    return fit


def _line_sum(line_params, law) -> tuple:
    """The model and Jacobian of K Lorentzians on one offset, the last parameter: ``line_params(p)`` gives each
    line's amplitude, centre and width as (K, 1) or (K, points) arrays, and ``law(by_amplitude, by_centre,
    by_width)`` maps a line's partial derivatives, each (K, points), to the columns of its own parameters."""
    def model(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return lorentzian(x, (*line_params(p), 0.0)).sum(axis=0) + p[-1]

    def jacobian(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        by_amplitude, by_centre, by_width, _ = np.moveaxis(lorentzian_jacobian(x, (*line_params(p), 0.0)), -1, 0)
        by_line = np.stack(law(by_amplitude, by_centre, by_width), axis=-1)  # (K, points, parameters of a line)
        return np.column_stack([by_line.transpose(1, 0, 2).reshape(x.size, -1), np.ones(x.size)])

    return model, jacobian


def _lorentzian_guess(x: np.ndarray, y: np.ndarray, peaks: Sequence[int], pitch: float) -> np.ndarray:
    """``[a1, c1, w1, ..., aK, cK, wK, offset]``: each peak sample's height above the median, and the width
    between the half-height crossings nearest it, at least ``pitch``."""
    offset = np.median(y)
    peaks, index = np.asarray(peaks, dtype=int), np.arange(y.size)
    amplitude = np.maximum(y[peaks] - offset, 1e-9)
    below = y < (offset + amplitude / 2.0)[:, None]
    left = np.max(np.where(below & (index <= peaks[:, None]), index, 0), axis=1)
    right = np.min(np.where(below & (index >= peaks[:, None]), index, index[-1]), axis=1)
    fwhm = np.maximum(x[right] - x[left], pitch)
    return np.append(np.column_stack([amplitude, x[peaks], fwhm]), offset)


def fit_exponential_decay(
    times_us: Sequence[float] | np.ndarray, counts: Sequence[float] | np.ndarray, background: float
) -> FitResult:
    """Poisson maximum-likelihood fit of the decay counts at bin centres
    ``times_us``, in increasing order, as ``amplitude * exp(-t / tau_us)``
    above the dark floor per bin ``background``, which is pinned: the
    parameters are (amplitude, tau_us).

    On a window of only ~2 lifetimes a free floor would be almost fully
    anticorrelated with the lifetime, so the floor comes from the
    detector calibration instead. A floor more than 5 Poisson standard
    errors above the mean of the last tenth of the bins does not
    describe the histogram (say, one taken with other settings) and is
    refused. Darks alone are not, but a fit that fails on counts at most 5
    standard errors above the floor in all reports no signal, however it failed.
    """
    t = np.asarray(times_us, dtype=float)
    y = np.asarray(counts, dtype=float)
    floor = float(background)
    tail = y[-max(y.size // 10, 1):]
    if (excess := -_excess(tail, floor)) > 5.0:
        raise FitError(
            f"pinned floor {floor:.4g} counts/bin is {excess:.1f} standard errors "
            f"above the mean {tail.mean():.4g} counts/bin of the last {tail.size} bins"
        )
    try:  # the model and Jacobian with the floor pinned
        result = least_squares(lambda tt, p: exponential_decay(tt, (*p, floor)),
                               lambda tt, p: exponential_decay_jacobian(tt, (*p, floor))[..., :2],
                               t, y, _decay_guess(t, y, floor), ("amplitude", "tau_us"))
        tau = result.value("tau_us")
        if not 0.0 < tau <= 50.0 * float(t[-1] - t[0]):  # a runaway or negative lifetime
            raise FitConvergenceError(f"lifetime {tau:.3g} us is unconstrained by the data", result)
    except FitConvergenceError as exc:
        if (signal := _excess(y, floor)) > 5.0:
            raise
        message = f"no signal above the pinned floor: the counts exceed it by {signal:.1f} standard errors"
        raise FitConvergenceError(message, exc.last_result) from None
    return result


def _excess(counts: np.ndarray, floor: float) -> float:
    """The counts' excess over ``floor`` per bin, in Poisson standard errors; no counts count as 1 event."""
    return (float(counts.sum()) - floor * counts.size) / math.sqrt(max(float(counts.sum()), 1.0))


def _decay_guess(t: np.ndarray, y: np.ndarray, floor: float) -> np.ndarray:
    """``[amplitude, tau]`` above ``floor``, from the first bin, the tail's mean and the bin a third of the way in."""
    tail = max(t.size // 10, 1)
    background = float(y[-tail:].mean())
    amplitude = max(float(y[0]) - background, 1e-9)
    probe = min(max(t.size // 3, 1), t.size - 1)
    drop = (y[probe] - background) / amplitude
    if 0.0 < drop < 1.0:
        tau = float((t[probe] - t[0]) / -math.log(drop))
    else:
        tau = float((t[-1] - t[0]) / 3.0)
    return np.array([max(amplitude + background - floor, 1e-9), max(tau, 1e-6)])


def fit_stark_sweep(
    ion_ids: Sequence[str] | np.ndarray,
    fields_v_per_cm: Sequence[float] | np.ndarray,
    frequencies_mhz: Sequence[float] | np.ndarray,
    counts: Sequence[float] | np.ndarray,
) -> FitResult:
    """Poisson maximum-likelihood fit of a voltage sweep of K ions, every count of every window, to their line laws.

    Each count's mean is the sum over the ions of ``amplitude / (1 + (2 (f - c) / w)^2)``, with the centre ``c``
    and width ``w`` of the ion's :func:`~starksim.stark.line_law` at the count's field, plus one offset: 5K + 1
    parameters, ``amplitude_<id>``, ``zero_field_frequency_<id>``, ``stark_coefficient_<id>``,
    ``zero_field_fwhm_<id>`` and ``broadening_<id>`` for each ion in order of first row, then ``offset``. An ion
    starts from a line through its window centres (its mean frequency at each field), a 10 MHz width, no
    broadening and its highest count less the median. An ion at fewer than 3 distinct fields, at fields whose
    largest |E| is not within 1e-147 to 1e153 V/cm, or whose fitted law reaches a width <= 0 at a field of the
    sweep, is refused by name.
    """
    ids = np.asarray(ion_ids, dtype=str)
    e, f, y = (np.asarray(column, dtype=float) for column in (fields_v_per_cm, frequencies_mhz, counts))
    if ids.size == 0:
        raise FitError("no scan points to fit")
    d_centre, d_width = line_law(e, 0.0, 1.0, 0.0, 1.0)  # linear in s and b: its value at 1 is its derivative

    def line_params(p: np.ndarray) -> tuple:
        amplitude, f0, s, fwhm0, b = np.reshape(p[:-1], (-1, 5)).T[..., None]  # each (K, 1)
        return amplitude, *line_law(e, f0, s, fwhm0, b)

    model, jacobian = _line_sum(line_params, lambda a, c, w: (a, c, c * d_centre, w, w * d_width))
    order = list(dict.fromkeys(ids.tolist()))
    offset, initial = float(np.median(y)), []
    for ion_id in order:
        mine = ids == ion_id
        distinct, group = np.unique(e[mine], return_inverse=True)
        if distinct.size < 3:
            raise FitError(f"{ion_id}: need at least 3 distinct fields, got {distinct.size}")
        centres = np.bincount(group, f[mine]) / np.bincount(group)
        x = line_law(distinct, 0.0, 1.0, 0.0, 1.0)[0]
        if not 1e-150 < np.abs(x).max() < 1e150:  # polyfit scales x by the root of its sum of squares: never 0 or inf
            raise FitError(f"{ion_id}: fields from {distinct[0] + 0.0:.3g} to {distinct[-1] + 0.0:.3g} V/cm "
                           "give no line through the window centres")
        (slope, intercept), *_ = np.polyfit(x, centres, 1, full=True)  # full: a rank below 2 is not warned of
        initial += [max(float(y[mine].max()) - offset, 1e-9), intercept, slope, 10.0, 0.0]
    names = [f"{name}_{ion_id}" for ion_id in order
             for name in ("amplitude", "zero_field_frequency", "stark_coefficient", "zero_field_fwhm", "broadening")]
    result = least_squares(model, jacobian, f, y, [*initial, offset], [*names, "offset"])
    for ion_id, width in zip(order, line_params(result.values)[2].min(axis=1).tolist()):
        if width <= 0.0:
            raise FitConvergenceError(f"{ion_id}: fit reached a width of {width:.3g} MHz", result)
    return result


def estimate_g2_zero(
    lags: Sequence[int] | np.ndarray, coincidences: Sequence[int] | np.ndarray
) -> G2Estimate:
    """Zero-lag coincidences over the mean of the side lags.

    Standard error propagates Poisson uncertainties of the zero-lag
    count (floored at 1 event for an empty bin) and of the side-lag
    mean; the estimate itself is invariant under a uniform rescaling of
    the histogram.
    """
    lags = np.asarray(lags)
    coincidences = np.asarray(coincidences, dtype=float)
    if np.any(coincidences < 0.0):  # as every Poisson fit refuses a negative count
        raise FitError("coincidences must be >= 0")
    zero_lag = coincidences[lags == 0]
    if zero_lag.size != 1:
        raise FitError(f"need exactly one lag-0 bin, got {zero_lag.size}")
    side = coincidences[lags != 0]
    if np.count_nonzero(side) < 3:
        raise FitError("need at least 3 nonzero side lags to normalize")
    c0 = float(zero_lag[0])
    mean_side = float(side.mean())
    g2 = c0 / mean_side
    var_c0 = max(c0, 1.0)
    var_mean = side.sum() / side.size**2
    sigma = math.sqrt(var_c0 / mean_side**2 + (c0 * c0) * var_mean / mean_side**4)
    return G2Estimate(g2_zero=g2, standard_error=sigma)
