"""Electrostatics of a coplanar electrode pair on a crystal surface.

The two bias electrodes are thin metal strips on the crystal surface,
separated by a gap; the emitter sits near the gap. The potential in the
2-D cross-section through the gap (x = inter-electrode axis, y = surface
normal, vacuum above, crystal below) is discretised by the five-point
stencil on a node-centred grid; electrodes and the outer box are
Dirichlet data.

Only the bias p0 - p1 across the pair enters the model: the solver holds
the electrodes at the balanced pair +-(p0 - p1)/2, and the common mode
(p0 + p1)/2 of the two potentials is not part of the model.

The discrete problem has two exact symmetries, and the solver uses both.
The grid and the electrode nodes are mirror-symmetric in x and in y, and
the electrodes sit on the surface row y = 0. The mirror in y removes the
permittivities of vacuum above and crystal below from div(eps grad V) = 0:
within a half-space the constant eps divides out of every equation, and
on the surface row a potential even in y has equal north and south
differences, so eps_above and eps_below factor out there too. The
discrete solution is unique, so it is even in y and solves the
five-point system with unit weights, Laplace's equation, for any
permittivity pair (Wen, IEEE Trans. MTT 17, 1087, 1969, gives the
continuum case). That system is the one solved, and ``residual_v`` is
its full-domain residual. The balanced pair makes the solution odd in x
as well, zero on the column x = 0. So the potential is solved on the
quarter x >= 0, y >= 0, with the column x = 0 at zero and the surface
row's southern neighbour its mirror image, and mirrored back to the full
grid.

The quarter is a rectangle with zero walls and one electrode on its
bottom row, and it is solved directly, exact to rounding, by a fast
Poisson solver with a capacitance matrix (Buzbee, Golub & Nielson, SIAM
J. Numer. Anal. 7, 627, 1970; Buzbee, Dorr, George & Golub, ibid. 8,
722, 1971). A sine transform along x turns each column mode into a
closed-form decay in y, which gives the surface row's Green's function
as one cosine series. The electrode's node charges then solve a dense
system of one unknown per electrode node (41 at the default 5 um), and
one inverse transform of their modes gives the grid.

Units: lengths in micrometres, potentials in volts, fields in V/cm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvergenceError",
    "ElectrodeLayout",
    "FieldVector",
    "GeometryError",
    "PotentialGrid",
    "field_at",
    "field_per_volt",
    "solve_potential",
]

V_PER_UM_TO_V_PER_CM = 1.0e4


class GeometryError(ValueError):
    """Layout or solver inputs violate a geometric precondition."""


class ConvergenceError(RuntimeError):
    """The field solve broke down on non-finite numbers, say a bias that overflows."""

    def __init__(self, residual_v: float):
        self.residual_v = residual_v
        super().__init__(f"the field solve broke down on non-finite numbers (residual {residual_v} V)")


@dataclass(frozen=True)
class ElectrodeLayout:
    """Coplanar electrode pair, symmetric about the gap centre.

    The coordinate origin is the gap centre on the surface. The left
    electrode occupies ``[-gap/2 - width, -gap/2]`` at ``y = 0`` and has
    the potential ``electrode_potentials_v[0]``; the right one mirrors it.
    Only their difference, :attr:`bias_v`, is solved.
    ``probe_point_um`` is where the cavity centre sits relative to the
    gap centre.
    """

    electrode_width_um: float
    gap_um: float
    electrode_potentials_v: tuple[float, float]
    domain_extent_um: tuple[float, float]
    probe_point_um: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.gap_um <= 0.0:
            raise GeometryError(f"gap must be positive, got {self.gap_um}")
        if self.electrode_width_um <= 0.0:
            raise GeometryError(f"electrode width must be positive, got {self.electrode_width_um}")
        width, height = self.domain_extent_um
        half_span = self.gap_um / 2.0 + self.electrode_width_um
        margin = 2.0 * self.gap_um
        if width / 2.0 < half_span + margin:
            raise GeometryError(
                f"domain width {width} um leaves less than 2x gap margin around the electrodes"
            )
        if height / 2.0 < margin:
            raise GeometryError(
                f"domain height {height} um leaves less than 2x gap margin around the surface"
            )
        px, py = self.probe_point_um
        if abs(px) >= width / 2.0 or abs(py) >= height / 2.0:
            raise GeometryError(f"probe point {self.probe_point_um} lies outside the domain")

    @property
    def bias_v(self) -> float:
        """Potential difference across the pair (left minus right)."""
        return self.electrode_potentials_v[0] - self.electrode_potentials_v[1]

    def with_bias(self, voltage_v: float) -> "ElectrodeLayout":
        """Same geometry with potentials ``(+V/2, -V/2)``."""
        return ElectrodeLayout(
            electrode_width_um=self.electrode_width_um,
            gap_um=self.gap_um,
            electrode_potentials_v=(voltage_v / 2.0, -voltage_v / 2.0),
            domain_extent_um=self.domain_extent_um,
            probe_point_um=self.probe_point_um,
        )


@dataclass(frozen=True)
class FieldVector:
    """Electric field at a point, in V/cm.

    ``e_parallel`` points along the inter-electrode axis (the crystal
    axis the bias field is aligned with); ``e_perpendicular`` is the
    surface-normal component.
    """

    e_parallel_v_per_cm: float
    e_perpendicular_v_per_cm: float

    def scaled(self, factor: float) -> "FieldVector":
        return FieldVector(self.e_parallel_v_per_cm * factor, self.e_perpendicular_v_per_cm * factor)


@dataclass(frozen=True)
class PotentialGrid:
    """Solved potential on a uniform node-centred grid.

    ``values[i, j]`` is the potential at ``(x0 + j*h, y0 + i*h)``;
    ``fixed`` marks Dirichlet nodes (the electrodes and, for
    :func:`solve_potential`, the outer box). ``residual_v`` is the true
    residual max|b - A v| of the full-domain five-point equations with
    unit weights, the equations solved; the solve is direct, so it is
    rounding error.
    """

    spacing_um: float
    values: np.ndarray
    x0_um: float
    y0_um: float
    fixed: np.ndarray = field(repr=False)
    residual_v: float = 0.0

    @property
    def x_coords_um(self) -> np.ndarray:
        return self.x0_um + self.spacing_um * np.arange(self.values.shape[1])

    @property
    def y_coords_um(self) -> np.ndarray:
        return self.y0_um + self.spacing_um * np.arange(self.values.shape[0])


def _axis_nodes(extent_um: float, spacing_um: float) -> np.ndarray:
    """Symmetric node coordinates covering [-extent/2, extent/2]."""
    half_cells = max(int(round(extent_um / 2.0 / spacing_um)), 2)
    return spacing_um * np.arange(-half_cells, half_cells + 1)


def _quarter_potential(cols: int, rows: int, electrode: np.ndarray, potential_v: float) -> np.ndarray:
    """Exact potential on the quarter: columns 0..cols, rows 0..rows, row 0 the surface.

    The walls j = 0, j = cols and m = rows are at zero, the surface nodes
    ``electrode`` at ``potential_v``, and every other node obeys the
    five-point equation, the surface row with its mirror image v(-1) =
    v(1) below. The column sine mode sin(pi k j / cols) decouples the
    rows: above the surface it falls off as phi_k(m) = sinh((rows - m) t_k)
    / sinh(rows t_k), with cosh t_k = 1 + 2 sin^2(pi k / 2 cols). So on the
    surface row the mode's equation reads d_k s_k = q_k, with d_k =
    2 cosh t_k - 2 phi_k(1) = 2 sinh t_k / tanh(rows t_k), where q is the
    charge that holds each electrode node at its potential and vanishes on
    every free node. Its inverse, the surface Green's function, is a cosine
    series c; the electrode's charges solve one small dense system through
    it, and the charges' modes give every row.
    """
    n = 2 * cols  # a sine transform over the columns is a real FFT of length n
    t = 2.0 * np.arcsinh(np.sin(np.pi * np.arange(1, cols) / n))
    m = np.arange(rows + 1)[:, None]
    # phi_k(m) in a form that cannot overflow
    phi = np.exp(-m * t) * np.expm1(-2.0 * (rows - m) * t) / np.expm1(-2.0 * rows * t)
    gain = np.zeros(cols + 1)  # 1 / d_k; modes 0 and cols vanish on the walls
    gain[1:cols] = np.tanh(rows * t) / (2.0 * np.sinh(t))
    c = np.fft.irfft(gain, n)
    green = c[(electrode[:, None] - electrode) % n] - c[electrode[:, None] + electrode]
    charge = np.zeros(n)
    charge[electrode] = np.linalg.solve(green, np.full(electrode.size, potential_v))
    surface = -np.fft.rfft(charge).imag * gain  # s_k: the charges' sine modes over d_k
    modes = np.zeros((rows + 1, cols), complex)
    np.multiply(phi, -2j * surface[1:cols], out=modes[:, 1:])
    return np.fft.irfft(modes, n)[:, : cols + 1]


def _residual(values: np.ndarray, fixed: np.ndarray) -> float:
    """True residual max|b - A v| of the unit-weight five-point equations at the free nodes.

    The Dirichlet data sit in ``values``, so b is zero and the residual is A v.
    """
    applied = 4.0 * values[1:-1, 1:-1]
    for neighbour in (values[:-2, 1:-1], values[2:, 1:-1], values[1:-1, :-2], values[1:-1, 2:]):
        applied -= neighbour
    applied[fixed[1:-1, 1:-1]] = 0.0
    return float(np.abs(applied, out=applied).max())


def solve_potential(layout: ElectrodeLayout, spacing_um: float) -> PotentialGrid:
    """Solve the bias of the electrode pair to its potential grid.

    The electrodes are held at ``+-bias_v / 2``, the outer box at zero
    (the far boundary). The solve is direct: the grid is the exact
    solution of the discrete equations up to rounding.

    Raises
    ------
    GeometryError
        If ``spacing_um > gap/20`` or the layout is invalid.
    ConvergenceError
        If the solved grid or its residual is not finite.
    """
    if not spacing_um > 0.0:
        raise GeometryError(f"spacing must be positive, got {spacing_um}")
    if spacing_um > layout.gap_um / 20.0:
        raise GeometryError(
            f"spacing {spacing_um} um too coarse: need <= gap/20 = {layout.gap_um / 20.0} um"
        )

    x = _axis_nodes(layout.domain_extent_um[0], spacing_um)
    y = _axis_nodes(layout.domain_extent_um[1], spacing_um)
    values = np.zeros((len(y), len(x)))
    fixed = np.zeros_like(values, dtype=bool)

    fixed[0, :] = fixed[-1, :] = True
    fixed[:, 0] = fixed[:, -1] = True

    surface_row, centre = len(y) // 2, len(x) // 2  # the nodes at y = 0 and at x = 0
    half_gap = layout.gap_um / 2.0
    outer = half_gap + layout.electrode_width_um
    snap = spacing_um / 4.0
    left = (x >= -outer - snap) & (x <= -half_gap + snap)
    right = (x >= half_gap - snap) & (x <= outer + snap)
    values[surface_row, left] = layout.bias_v / 2.0
    values[surface_row, right] = -layout.bias_v / 2.0
    fixed[surface_row, left | right] = True

    # the quarter x >= 0, y >= 0, mirrored back: odd in x, even in y
    quarter = _quarter_potential(centre, surface_row, np.flatnonzero(right[centre:]), -layout.bias_v / 2.0)
    upper = np.hstack((-quarter[:, :0:-1], quarter))
    values = np.where(fixed, values, np.vstack((upper[:0:-1], upper)))
    residual = _residual(values, fixed)
    if not (math.isfinite(residual) and np.isfinite(values).all()):
        raise ConvergenceError(residual)

    return PotentialGrid(
        spacing_um=spacing_um,
        values=values,
        x0_um=float(x[0]),
        y0_um=float(y[0]),
        fixed=fixed,
        residual_v=residual,
    )


def field_per_volt(
    layout: ElectrodeLayout, spacing_um: float, *, voltage_v: float | None = None
) -> tuple[FieldVector, PotentialGrid]:
    """Probe field per volt of bias, and the grid it was read from.

    The layout's geometry is solved with the balanced pair ``(+V/2, -V/2)``,
    where V is ``voltage_v``, by default the layout's bias, and 1 V if
    that is 0; the probe field is divided by V. The field is linear in
    the bias, so the result scales to any voltage.
    """
    voltage = layout.bias_v if voltage_v is None else voltage_v
    if voltage == 0.0:
        voltage = 1.0
    grid = solve_potential(layout.with_bias(voltage), spacing_um)
    return field_at(grid, layout.probe_point_um).scaled(1.0 / voltage), grid


def field_at(grid: PotentialGrid, point_um: tuple[float, float]) -> FieldVector:
    """Negated central-difference gradient at a point, in V/cm.

    The two gradient components are evaluated at the four nodes
    surrounding the point and blended bilinearly, which is exact for
    linear potentials. The point must stay at least one cell away from
    the grid edge so the stencil fits.
    """
    x, y = point_um
    h = grid.spacing_um
    ny, nx = grid.values.shape
    xi = (x - grid.x0_um) / h
    yi = (y - grid.y0_um) / h
    if not (1.0 <= xi <= nx - 2.0 and 1.0 <= yi <= ny - 2.0):
        raise GeometryError(f"probe point {point_um} um is outside the interior of the grid")

    j0 = min(int(xi), nx - 2)
    i0 = min(int(yi), ny - 2)
    fx = xi - j0
    fy = yi - i0

    v = grid.values
    ex = np.empty((2, 2))
    ey = np.empty((2, 2))
    for di in (0, 1):
        for dj in (0, 1):
            i, j = i0 + di, j0 + dj
            ex[di, dj] = -(v[i, j + 1] - v[i, j - 1]) / (2.0 * h)
            ey[di, dj] = -(v[i + 1, j] - v[i - 1, j]) / (2.0 * h)

    def blend(corner: np.ndarray) -> float:
        top = corner[0, 0] * (1 - fx) + corner[0, 1] * fx
        bottom = corner[1, 0] * (1 - fx) + corner[1, 1] * fx
        return float(top * (1 - fy) + bottom * fy)

    return FieldVector(
        e_parallel_v_per_cm=blend(ex) * V_PER_UM_TO_V_PER_CM,
        e_perpendicular_v_per_cm=blend(ey) * V_PER_UM_TO_V_PER_CM,
    )
