"""Parameter extraction from photon-counting data.

Peak finding on PLE scans, Poisson maximum-likelihood fits of the counts
(a sum of Lorentzians on one offset, an exponential, and one ion's whole
voltage sweep against its line law), and the coincidence-ratio estimate
of the zero-lag autocorrelation. The line's shape and law,
:func:`~starksim.stark.lorentzian` and :func:`~starksim.stark.line_law`,
are ``stark``'s, the ones the PLE simulator draws from.
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
    """Poisson maximum-likelihood fit of a scan as the sum of a Lorentzian
    started at each sample index of ``peaks`` and one shared offset: 3K + 1
    parameters for K lines.

    Returns the one joint fit, its lines in centre order, line ``i`` from 1
    as ``peak<i>_amplitude``, ``peak<i>_center_mhz`` and ``peak<i>_fwhm_mhz``,
    then ``offset``. The model is even in each width, so widths are
    reported positive. A line narrower than half the sampling pitch, which
    the sampling cannot resolve (a spike latched onto one sample), raises
    :class:`FitConvergenceError` for the first such line, named
    ``peak<i>``, carrying the joint fit; a fit that does not converge is
    checked so at its last state, since such a line can narrow without end.
    """
    x = np.asarray(frequencies_mhz, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.size < 8:
        raise FitError(f"need at least 8 points, got {x.size}")
    names = tuple(f"peak{k}_{name}" for k in range(1, len(peaks) + 1) for name in _LINE) + ("offset",)
    failure = None
    try:
        fit = least_squares(_lines, _lines_jacobian, x, y, _lorentzian_guess(x, y, peaks), names)
    except FitConvergenceError as exc:  # its last state may show the line that kept it narrowing
        fit, failure = exc.last_result, exc
    order = np.argsort(fit.values[1:-1:3], kind="stable")
    keep = np.append(3 * order[:, None] + np.arange(3), -1)  # the lines in centre order, then the offset
    values = fit.values[keep]
    values[2:-1:3] = np.abs(values[2:-1:3])
    fit = replace(fit, values=values, stderrs=fit.stderrs[keep])
    pitch = float(np.median(np.diff(np.sort(x))))
    for index, width in enumerate(values[2:-1:3].tolist(), start=1):
        if width < 0.5 * pitch:
            raise FitConvergenceError(f"peak{index}: fit collapsed to an unresolvable width {width:.3g} MHz", fit)
    if failure is not None:
        raise failure
    return fit


def _line_columns(params: np.ndarray) -> tuple:
    """:func:`lorentzian`'s (K, 1) parameter columns of ``[a1, c1, w1, ..., aK, cK, wK, offset]``, offset 0."""
    return (*np.reshape(params[:-1], (-1, 3)).T[..., None], 0.0)


def _lines(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The sum of the K Lorentzians of ``params`` plus its last entry, the shared offset."""
    return lorentzian(x, _line_columns(params)).sum(axis=0) + params[-1]


def _lines_jacobian(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    by_line = lorentzian_jacobian(x, _line_columns(params))  # (K, points, 4)
    return np.column_stack([by_line[..., :3].transpose(1, 0, 2).reshape(x.size, -1), np.ones(x.size)])


def _lorentzian_guess(x: np.ndarray, y: np.ndarray, peaks: Sequence[int]) -> np.ndarray:
    """``[a1, c1, w1, ..., aK, cK, wK, offset]``: each peak sample's height above
    the median, and the width between the half-height crossings nearest it."""
    offset = np.median(y)
    peaks, index = np.asarray(peaks, dtype=int), np.arange(y.size)
    amplitude = np.maximum(y[peaks] - offset, 1e-9)
    below = y < (offset + amplitude / 2.0)[:, None]
    left = np.max(np.where(below & (index <= peaks[:, None]), index, 0), axis=1)
    right = np.min(np.where(below & (index >= peaks[:, None]), index, index[-1]), axis=1)
    fwhm = np.maximum(x[right] - x[left], np.median(np.diff(x)))
    return np.append(np.column_stack([amplitude, x[peaks], fwhm]), offset)


def fit_exponential_decay(
    times_us: Sequence[float] | np.ndarray, counts: Sequence[float] | np.ndarray, fit_start_us: float, background: float
) -> FitResult:
    """Poisson maximum-likelihood exponential fit of the decay counts at
    bin centres ``times_us`` from ``fit_start_us`` on, with the dark floor
    per bin pinned at ``background``; parameters (amplitude, tau_us,
    background), the last reported with zero error.

    On a window of only ~2 lifetimes a free floor would be almost fully
    anticorrelated with the lifetime, so the floor comes from the
    detector calibration instead. A floor more than 5 Poisson standard
    errors above the mean of the last tenth of the fitted bins does not
    describe the histogram (say, one taken with other settings) and is
    refused. Darks alone are not, but a fit that fails on counts at most 5
    standard errors above the floor in all reports no signal, however it failed.
    """
    t = np.asarray(times_us, dtype=float)
    y = np.asarray(counts, dtype=float)
    keep = t >= fit_start_us
    t, y = t[keep], y[keep]
    if t.size < 4:
        raise FitError("too few bins past the fit start")
    floor = float(background)
    tail = y[-max(y.size // 10, 1):]
    # the floor's excess over the tail mean in Poisson standard errors; an empty tail counts as 1 event
    excess = (floor - tail.mean()) * tail.size / math.sqrt(max(float(tail.sum()), 1.0))
    if excess > 5.0:
        raise FitError(
            f"pinned floor {floor:.4g} counts/bin is {excess:.1f} standard errors "
            f"above the mean {tail.mean():.4g} counts/bin of the last {tail.size} bins"
        )
    guess = _decay_guess(t, y)

    def pinned(tt: np.ndarray, params: np.ndarray) -> np.ndarray:
        return exponential_decay(tt, (*params, floor))

    def pinned_jacobian(tt: np.ndarray, params: np.ndarray) -> np.ndarray:
        return exponential_decay_jacobian(tt, (*params, floor))[..., :2]

    start = np.array([max(guess[0] + guess[2] - floor, 1e-9), guess[1]])
    try:
        partial = least_squares(pinned, pinned_jacobian, t, y, start, ("amplitude", "tau_us"))
        result = replace(partial, names=("amplitude", "tau_us", "background"),
                         values=np.append(partial.values, floor), stderrs=np.append(partial.stderrs, 0.0))
        tau = result.value("tau_us")
        if not 0.0 < tau <= 50.0 * float(t[-1] - t[0]):  # a runaway or negative lifetime
            raise FitConvergenceError(f"lifetime {tau:.3g} us is unconstrained by the data", result)
    except FitConvergenceError as exc:
        # the counts' excess over the floor in Poisson standard errors, as the floor rule measures it
        signal = (float(y.sum()) - floor * y.size) / math.sqrt(max(float(y.sum()), 1.0))
        if signal > 5.0:
            raise
        message = f"no signal above the pinned floor: the counts exceed it by {signal:.1f} standard errors"
        raise FitConvergenceError(message, exc.last_result) from None
    return result


def _decay_guess(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    tail = max(t.size // 10, 1)
    background = float(y[-tail:].mean())
    amplitude = max(float(y[0]) - background, 1e-9)
    probe = min(max(t.size // 3, 1), t.size - 1)
    drop = (y[probe] - background) / amplitude
    if 0.0 < drop < 1.0:
        tau = float((t[probe] - t[0]) / -math.log(drop))
    else:
        tau = float((t[-1] - t[0]) / 3.0)
    return np.array([amplitude, max(tau, 1e-6), background])


def fit_stark_sweep(
    fields_v_per_cm: Sequence[float] | np.ndarray,
    frequencies_mhz: Sequence[float] | np.ndarray,
    counts: Sequence[float] | np.ndarray,
) -> FitResult:
    """Poisson maximum-likelihood fit of one ion's voltage sweep to its line law.

    Each count's mean is the Lorentzian ``amplitude / (1 + (2 (f - c) /
    w)^2) + offset``, with the centre ``c`` and width ``w`` of
    :func:`~starksim.stark.line_law` at the count's field; parameters
    (amplitude, zero_field_frequency, stark_coefficient, zero_field_fwhm,
    broadening, offset). Starts from a line through the highest count at
    each field, a 10 MHz width and no broadening.
    """
    e = np.asarray(fields_v_per_cm, dtype=float)
    f = np.asarray(frequencies_mhz, dtype=float)
    y = np.asarray(counts, dtype=float)
    distinct, first = np.unique(e, return_index=True)
    if distinct.size < 3:
        raise FitError(f"need at least 3 distinct fields, got {distinct.size}")
    # the law is linear in its coefficients: its value at unit s and b is its derivative in them
    d_centre, d_width = line_law(e, 0.0, 1.0, 0.0, 1.0)

    def line_params(p: np.ndarray) -> tuple:
        amplitude, f0, s, fwhm0, b, offset = p
        return (amplitude, *line_law(e, f0, s, fwhm0, b), offset)

    def model(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return lorentzian(x, line_params(p))

    def jacobian(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        by_amplitude, by_centre, by_width, by_offset = np.moveaxis(lorentzian_jacobian(x, line_params(p)), -1, 0)
        return np.stack([by_amplitude, by_centre, by_centre * d_centre, by_width, by_width * d_width, by_offset], axis=-1)

    peaks = [f[e == value][np.argmax(y[e == value])] for value in distinct]
    slope, intercept = np.polyfit(d_centre[first], peaks, 1)
    offset = float(np.median(y))
    names = ("amplitude", "zero_field_frequency", "stark_coefficient", "zero_field_fwhm", "broadening", "offset")
    initial = [max(float(y.max()) - offset, 1e-9), intercept, slope, 10.0, 0.0, offset]
    result = least_squares(model, jacobian, f, y, initial, names)
    _, fwhm = line_law(e, *result.values[1:5])
    if fwhm.min() <= 0.0:
        raise FitConvergenceError(f"fit reached a width of {fwhm.min():.3g} MHz", result)
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
