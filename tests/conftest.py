from dataclasses import replace

import numpy as np
import pytest

from starksim.analysis import fit_lorentzians
from starksim.config import default_config
from starksim.experiment import emission_window_probability
from starksim.optimize import poisson_deviance


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def ion1(config):
    return config.ion("ion1")


@pytest.fixture(scope="session")
def emitter(config):
    return config.emitter


def _lag_coincidences(arm_a, arm_b, max_lag):
    """``(lags, C)`` with ``C(k) = sum_i a_i b_(i+k)`` for ``|k| <= max_lag``, in exact int64 arithmetic."""
    n = arm_a.size
    lags = np.arange(-max_lag, max_lag + 1)
    sums = [int(np.sum(arm_a[max(-k, 0): n - max(k, 0)] * arm_b[max(k, 0): n - max(-k, 0)])) for k in lags.tolist()]
    return lags, np.array(sums, dtype=np.int64)


@pytest.fixture(scope="session")
def poissonian_g2():
    """Sampler of the classical control: a coherent source of the emitter's
    mean rate ``p`` plus the background ``m``, split 50/50, so the arms are
    independent Poisson((p + m)/2) per pulse and g2(0) is 1."""

    def sample(emitter, g2, protocol, seed):
        p_signal = emitter.saturation_excitation_prob * emission_window_probability(
            emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
        )
        mean = p_signal / (1.0 - g2.background_fraction)  # p + m
        rng = np.random.default_rng(seed)
        arm_a, arm_b = rng.poisson(mean / 2.0, (2, g2.n_pulses)).astype(np.int64)
        return _lag_coincidences(arm_a, arm_b, g2.max_lag)

    return sample


def full_grid_field(values, x0_um, y0_um, spacing_um, point_um):
    """``(E_parallel, E_perpendicular)`` in V/cm at a point of a full potential
    grid ``values[i, j]`` at ``(x0 + j*h, y0 + i*h)``, centred on the origin:
    the negated central-difference gradient at the four surrounding nodes,
    blended bilinearly, each node read straight from ``values``, with the
    probe rule and in the order of operations of ``electrostatics.field_at``."""
    h = spacing_um
    ny, nx = values.shape
    assert abs(point_um[0]) <= h * (nx // 2 - 1) and abs(point_um[1]) <= h * (ny // 2 - 1)
    xi = (point_um[0] - x0_um) / h
    yi = (point_um[1] - y0_um) / h
    j0, i0 = min(max(int(xi), 1), nx - 3), min(max(int(yi), 1), ny - 3)
    fx, fy = xi - j0, yi - i0
    ex = np.empty((2, 2))
    ey = np.empty((2, 2))
    for di in (0, 1):
        for dj in (0, 1):
            i, j = i0 + di, j0 + dj
            ex[di, dj] = -(values[i, j + 1] - values[i, j - 1]) / (2.0 * h)
            ey[di, dj] = -(values[i + 1, j] - values[i - 1, j]) / (2.0 * h)

    def blend(corner):
        top = corner[0, 0] * (1 - fx) + corner[0, 1] * fx
        bottom = corner[1, 0] * (1 - fx) + corner[1, 1] * fx
        return float(top * (1 - fy) + bottom * fy)

    return blend(ex) * 1.0e4, blend(ey) * 1.0e4


def dirichlet_nodes(layout, spacing_um):
    """``(fixed, values)``: the Dirichlet nodes of the electrode problem on the
    solver's full grid and their potentials, stated from the layout alone, as
    ``bench/oracle.py`` states them. The node-centred grid spans the domain
    symmetrically about the gap centre; the outer box is at zero; a surface
    node within h/4 of an electrode is that electrode's, held at its half of
    the balanced pair ``+-bias/2``, the left one positive. ``values`` is zero
    at the free nodes."""
    h = spacing_um

    def axis(extent_um):
        half_cells = max(int(round(extent_um / 2.0 / h)), 2)
        return h * np.arange(-half_cells, half_cells + 1)

    x, y = axis(layout.domain_extent_um[0]), axis(layout.domain_extent_um[1])
    fixed = np.zeros((y.size, x.size), dtype=bool)
    fixed[[0, -1]] = fixed[:, [0, -1]] = True
    values = np.zeros(fixed.shape)
    surface = y.size // 2
    half_gap, outer, snap = layout.gap_um / 2.0, layout.gap_um / 2.0 + layout.electrode_width_um, h / 4.0
    left = (x >= -outer - snap) & (x <= -half_gap + snap)
    right = (x >= half_gap - snap) & (x <= outer + snap)
    values[surface, left], values[surface, right] = layout.bias_v / 2.0, -layout.bias_v / 2.0
    fixed[surface, left | right] = True
    return fixed, values


def full_grid_residual(values, fixed):
    """max|A v| of the unit-weight five-point equations at the free nodes of a
    full grid whose Dirichlet data sit in ``values``."""
    applied = 4.0 * values[1:-1, 1:-1]
    for neighbour in (values[:-2, 1:-1], values[2:, 1:-1], values[1:-1, :-2], values[1:-1, 2:]):
        applied -= neighbour
    applied[fixed[1:-1, 1:-1]] = 0.0
    return float(np.abs(applied).max())


def fit_one_lorentzian(frequencies_mhz, counts):
    """The one-line ``fit_lorentzians``, started at the highest sample, at the
    pitch fig2's stage takes, the median spacing of the distinct frequencies,
    its parameters named without their ``peak1_`` prefix."""
    pitch = float(np.median(np.diff(np.unique(frequencies_mhz))))
    fit = fit_lorentzians(frequencies_mhz, counts, [int(np.argmax(counts))], pitch)
    return replace(fit, names=tuple(name.removeprefix("peak1_") for name in fit.names))


def finite_difference_gradient(model, x, y, params):
    """The central-difference gradient of the Poisson deviance of ``model(x, params)`` about the counts ``y``."""
    grad = np.empty(params.size)
    for j in range(params.size):
        step = 1e-6 * max(abs(params[j]), 1.0)
        hi, lo = params.copy(), params.copy()
        hi[j] += step
        lo[j] -= step
        grad[j] = (poisson_deviance(model(x, hi), y) - poisson_deviance(model(x, lo), y)) / (2.0 * step)
    return grad
