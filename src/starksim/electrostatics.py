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
continuum case). That system is the one solved. The balanced pair makes
the solution odd in x as well, zero on the column x = 0. So the
potential is solved on the quarter x >= 0, y >= 0, with the column x = 0
at zero and the surface row's southern neighbour its mirror image.

The quarter is a rectangle with zero walls and one electrode on its
bottom row, and it is solved directly, exact to rounding, by a fast
Poisson solver with a capacitance matrix (Buzbee, Golub & Nielson, SIAM
J. Numer. Anal. 7, 627, 1970; Buzbee, Dorr, George & Golub, ibid. 8,
722, 1971). A sine transform along x turns each column mode into a
closed-form decay in y, which gives the surface row's Green's function
as one cosine series. The electrode's node charges then solve a dense
system of one unknown per electrode node (41 at the default 5 um), and
one inverse transform of their modes gives the quarter.

The solve stays on that quarter. Every node of the full grid is a
quarter node or its exact negation, so ``residual_v``, the full domain's
residual, is taken over the quarter's own equations, and
:func:`field_at` reads its stencil through the mirror. The full grid is
mirrored out only when a caller reads ``PotentialGrid.values``, as
``field --dump-grid`` does.

Units: lengths in micrometres, potentials in volts, fields in V/cm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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
        return replace(self, electrode_potentials_v=(voltage_v / 2.0, -voltage_v / 2.0))


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
    """Solved potential on a uniform node-centred grid centred on the gap.

    The grid is held as the quarter x >= 0, y >= 0 that was solved:
    ``quarter[m, k]`` is the potential at ``(k*h, m*h)``, row 0 the
    surface. Its Dirichlet nodes hold their exact values: the top row,
    the wall column and the surface row's ``electrode`` columns. The
    potential is odd in x and even in y, so node ``(i, j)`` of the full
    grid, at ``(x0 + j*h, y0 + i*h)``, is ``quarter[|i - s|, |j - c|]``,
    negated for j < c, where s is the surface row and c the centre
    column. :func:`field_at` reads its nodes so, and ``residual_v`` was
    taken on the quarter: the true residual max|b - A v| of the
    full-domain five-point equations with unit weights, the equations
    solved; the solve is direct, so it is rounding error. ``values``, the
    full grid, is mirrored out only when read.
    """

    spacing_um: float
    quarter: np.ndarray
    electrode: np.ndarray = field(repr=False)
    residual_v: float = 0.0

    @property
    def x0_um(self) -> float:
        return -(self.quarter.shape[1] - 1) * self.spacing_um

    @property
    def y0_um(self) -> float:
        return -(self.quarter.shape[0] - 1) * self.spacing_um

    @property
    def x_coords_um(self) -> np.ndarray:
        return self.x0_um + self.spacing_um * np.arange(2 * self.quarter.shape[1] - 1)

    @property
    def y_coords_um(self) -> np.ndarray:
        return self.y0_um + self.spacing_um * np.arange(2 * self.quarter.shape[0] - 1)

    @cached_property
    def values(self) -> np.ndarray:
        upper = np.hstack((0.0 - self.quarter[:, :0:-1], self.quarter))  # see _mirrored for 0 - v
        return np.vstack((upper[:0:-1], upper))


def _mirrored(quarter: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Full-grid nodes at offsets ``rows`` x ``cols`` from the surface row and the centre column.

    The potential is even in y and odd in x. A node left of the centre is
    0 - v, not -v, so that the walls' zeros stay +0, as they are in the quarter.
    """
    v = quarter[np.abs(rows)[:, None], np.abs(cols)]
    return np.where(cols < 0, 0.0 - v, v)


def _half_cells(extent_um: float, spacing_um: float) -> int:
    """Cells from the centre to each edge of a grid spanning [-extent/2, extent/2]."""
    return max(int(round(extent_um / 2.0 / spacing_um)), 2)


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
    it, and the charges' modes give every row. The transform holds the
    Dirichlet nodes, the walls j = cols and m = rows and the electrode, only
    to rounding, so they are then pinned to their exact values. The column
    j = 0 is free in the full domain and keeps the transform's value.
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
    quarter = np.fft.irfft(modes, n)[:, : cols + 1]
    quarter[-1] = quarter[:, -1] = 0.0
    quarter[0, electrode] = potential_v
    return quarter


def _residual(quarter: np.ndarray, electrode: np.ndarray) -> float:
    """True residual max|b - A v| of the full domain's unit-weight five-point equations at its free nodes.

    Every full-grid node is a quarter node or its negation, so those
    equations are the quarter's free nodes' (all but the top row, the wall
    column and the electrode), with two ghost lines: row -1 is row 1 (even
    in y) and column -1 is -column 1 (odd in x). Each is summed in the full
    grid's order, south, north, west, east. The Dirichlet data sit in
    ``quarter``, so b is zero and the residual is A v.
    """
    applied = 4.0 * quarter[:-1, :-1]
    applied[0] -= quarter[1, :-1]  # south of the surface row: its mirror image
    applied[1:] -= quarter[:-2, :-1]
    applied -= quarter[1:, :-1]
    applied[:, 0] += quarter[:-1, 1]  # west of the column x = 0: its odd image
    applied[:, 1:] -= quarter[:-1, :-2]
    applied -= quarter[:-1, 1:]
    applied[0, electrode] = 0.0
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

    cols = _half_cells(layout.domain_extent_um[0], spacing_um)
    rows = _half_cells(layout.domain_extent_um[1], spacing_um)
    x = spacing_um * np.arange(cols + 1)  # the quarter's columns, x >= 0
    snap = spacing_um / 4.0
    half_gap = layout.gap_um / 2.0
    electrode = np.flatnonzero((x >= half_gap - snap) & (x <= half_gap + layout.electrode_width_um + snap))
    with np.errstate(all="ignore"):  # a bias that overflows is caught below, not warned about
        quarter = _quarter_potential(cols, rows, electrode, -layout.bias_v / 2.0)
        residual = _residual(quarter, electrode)
    if not (math.isfinite(residual) and np.isfinite(quarter).all()):
        raise ConvergenceError(residual)
    return PotentialGrid(spacing_um=spacing_um, quarter=quarter, electrode=electrode, residual_v=residual)


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
    the grid edge so the stencil fits. The stencil's nodes are read from
    the quarter through the mirror.
    """
    x, y = point_um
    h = grid.spacing_um
    rows, cols = grid.quarter.shape
    ny, nx = 2 * rows - 1, 2 * cols - 1
    xi = (x - grid.x0_um) / h
    yi = (y - grid.y0_um) / h
    if not (1.0 <= xi <= nx - 2.0 and 1.0 <= yi <= ny - 2.0):
        raise GeometryError(f"probe point {point_um} um is outside the interior of the grid")

    # the cell's lower-left node; on the last interior node, the cell below it
    j0 = min(int(xi), nx - 3)
    i0 = min(int(yi), ny - 3)
    fx = xi - j0
    fy = yi - i0

    # the 4 x 4 nodes (i0 - 1 .. i0 + 2) x (j0 - 1 .. j0 + 2): v[1 + di, 1 + dj] is node (i0 + di, j0 + dj)
    v = _mirrored(grid.quarter, np.arange(i0 - rows, i0 - rows + 4), np.arange(j0 - cols, j0 - cols + 4))
    ex = -(v[1:3, 2:] - v[1:3, :2]) / (2.0 * h)
    ey = -(v[2:, 1:3] - v[:2, 1:3]) / (2.0 * h)

    def blend(corner: np.ndarray) -> float:
        top = corner[0, 0] * (1 - fx) + corner[0, 1] * fx
        bottom = corner[1, 0] * (1 - fx) + corner[1, 1] * fx
        return float(top * (1 - fy) + bottom * fy)

    return FieldVector(
        e_parallel_v_per_cm=blend(ex) * V_PER_UM_TO_V_PER_CM,
        e_perpendicular_v_per_cm=blend(ey) * V_PER_UM_TO_V_PER_CM,
    )
