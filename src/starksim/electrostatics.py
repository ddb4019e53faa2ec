"""Electrostatics of a coplanar electrode pair on a crystal surface.

The two bias electrodes are thin metal strips on the crystal surface,
separated by a gap; the emitter sits near the gap. The potential in the
2-D cross-section through the gap (x = inter-electrode axis, y = surface
normal, vacuum above, crystal below) is discretised by the five-point
stencil on a node-centred grid; electrodes and the outer box are
Dirichlet data.

The potential is linear in the bias p0 - p1, and the common mode (p0 + p1)/2
is not part of the model: each geometry is solved once, per volt, at +-1/2 V,
and every grid and field here is per volt.

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
system of one unknown per electrode node (41 at the default 5 um).

The solve ends there: :class:`PotentialGrid` keeps the charges' sine
modes, and any row of the quarter is one inverse transform of them,
built when it is read. :func:`field_at` reads its stencil through the
mirror and builds the at most 4 rows it touches. The whole quarter, its
residual ``residual_v`` (the full domain's, taken over the quarter's own
equations, since every node of the full grid is a quarter node or its
exact negation) and the mirrored full grid ``values`` are built only
when a caller reads them, as ``field --dump-grid`` does.

Units: lengths in micrometres, potentials in volts per volt of bias,
fields in V/cm per volt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ConfigError
from .experiment import check_count

__all__ = [
    "ElectrodeLayout",
    "PotentialGrid",
    "check_grid",
    "field_at",
    "solve_potential",
]

V_PER_UM_TO_V_PER_CM = 1.0e4


@dataclass(frozen=True)
class ElectrodeLayout:
    """Coplanar electrode pair, symmetric about the gap centre.

    The coordinate origin is the gap centre on the surface. The left
    electrode occupies ``[-gap/2 - width, -gap/2]`` at ``y = 0`` and has
    the potential ``electrode_potentials_v[0]``; the right one mirrors it.
    The solve is per volt and reads neither potential: their difference,
    :attr:`bias_v`, is only ``field``'s default voltage.
    ``probe_point_um`` is where the cavity centre sits relative to the
    gap centre; :func:`check_grid` holds it one cell inside the grid.
    """

    electrode_width_um: float
    gap_um: float
    electrode_potentials_v: tuple[float, float]
    domain_extent_um: tuple[float, float]
    probe_point_um: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.gap_um <= 0.0:
            raise ConfigError(f"[layout].gap_um must be positive, got {self.gap_um}")
        if self.electrode_width_um <= 0.0:
            raise ConfigError(f"[layout].electrode_width_um must be positive, got {self.electrode_width_um}")
        width, height = self.domain_extent_um
        half_span = self.gap_um / 2.0 + self.electrode_width_um
        margin = 2.0 * self.gap_um
        if width / 2.0 < half_span + margin:
            raise ConfigError(
                f"[layout].domain_extent_um width {width} um leaves less than 2x gap margin around the electrodes"
            )
        if height / 2.0 < margin:
            raise ConfigError(
                f"[layout].domain_extent_um height {height} um leaves less than 2x gap margin around the surface"
            )

    @property
    def bias_v(self) -> float:
        """Potential difference across the pair (left minus right)."""
        return self.electrode_potentials_v[0] - self.electrode_potentials_v[1]


@dataclass(frozen=True)
class PotentialGrid:
    """Potential per volt of bias on a uniform node-centred grid centred on the gap.

    The electrodes are at +-1/2 V. The grid is the quarter x >= 0, y >= 0
    that was solved, ``cols`` cells wide and ``rows`` high: ``quarter[m, k]``
    is the potential at ``(k*h, m*h)``, row 0 the surface. It is held as
    the electrode charges' sine modes, ``modes[k - 1]`` the surface row's
    mode k times -2j and ``decay[k - 1]`` its decay rate t_k in y, and
    :meth:`quarter_rows` builds any rows from them. Its Dirichlet nodes
    hold their exact values: the top row, the wall column and the surface
    row's ``electrode`` columns. The potential is odd in x and even in y,
    so node ``(i, j)`` of the full grid, at ``((j - c)*h, (i - s)*h)``, is
    ``quarter[|i - s|, |j - c|]``, negated for j < c, where s is the surface
    row and c the centre column. :func:`field_at` reads its nodes so.
    ``quarter``, ``values`` (the full grid) and ``residual_v`` are built
    only when read. ``residual_v`` is taken on the quarter: the true
    residual max|b - A v| of the full-domain five-point equations with unit
    weights, the equations solved; the solve is direct, so it is rounding
    error.
    """

    spacing_um: float
    cols: int
    rows: int
    electrode: np.ndarray = field(repr=False)
    decay: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)

    @property
    def x_coords_um(self) -> np.ndarray:  # h * k, each rounded once, so they mirror about 0 as the nodes do
        return self.spacing_um * np.arange(-self.cols, self.cols + 1)

    @property
    def y_coords_um(self) -> np.ndarray:
        return self.spacing_um * np.arange(-self.rows, self.rows + 1)

    def quarter_rows(self, m: np.ndarray) -> np.ndarray:
        """Rows ``m`` of the quarter, read from ``quarter`` once it is built: one inverse transform of the
        surface modes times phi_k(m) (:func:`_charge_modes`). A row comes out the same, bit for bit, alone or
        among others. The transform holds the Dirichlet nodes, the walls j = cols and m = rows and the
        electrode, only to rounding, so they are pinned to their exact values; the column j = 0 is free in
        the full domain and keeps the transform's value."""
        if "quarter" in vars(self):
            return self.quarter[m]
        rows, t = self.rows, self.decay
        m = np.asarray(m)[:, None]
        # phi_k(m) in a form that cannot overflow
        phi = np.exp(-m * t) * np.expm1(-2.0 * (rows - m) * t) / np.expm1(-2.0 * rows * t)
        modes = np.zeros((m.shape[0], self.cols), complex)
        np.multiply(phi, self.modes, out=modes[:, 1:])
        quarter = np.fft.irfft(modes, 2 * self.cols)[:, : self.cols + 1]
        quarter[m[:, 0] == rows] = quarter[:, -1] = 0.0
        quarter[np.ix_(m[:, 0] == 0, self.electrode)] = -0.5
        return quarter

    @cached_property
    def quarter(self) -> np.ndarray:
        return self.quarter_rows(np.arange(self.rows + 1))

    @cached_property
    def values(self) -> np.ndarray:
        even_in_y = self.quarter[np.abs(np.arange(-self.rows, self.rows + 1))]
        return _mirrored(even_in_y, np.arange(-self.cols, self.cols + 1))

    @cached_property
    def residual_v(self) -> float:
        return _residual(self.quarter, self.electrode)


def _mirrored(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Full-grid nodes at offsets ``cols`` from the centre column of the quarter's ``rows``.

    The potential is odd in x. A node left of the centre is 0 - v, not -v,
    so that the walls' zeros stay +0, as they are in the quarter.
    """
    v = rows[:, np.abs(cols)]
    return np.where(cols < 0, 0.0 - v, v)


def _charge_modes(cols: int, rows: int, electrode: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decay rates t_k and the surface modes -2j s_k, k = 1 .. cols - 1, of the exact potential on the
    quarter: columns 0..cols, rows 0..rows, row 0 the surface.

    The walls j = 0, j = cols and m = rows are at zero, the surface nodes
    ``electrode`` at -1/2 V, and every other node obeys the
    five-point equation, the surface row with its mirror image v(-1) =
    v(1) below. The column sine mode sin(pi k j / cols) decouples the
    rows: above the surface it falls off as phi_k(m) = sinh((rows - m) t_k)
    / sinh(rows t_k), with cosh t_k = 1 + 2 sin^2(pi k / 2 cols). So on the
    surface row the mode's equation reads d_k s_k = q_k, with d_k =
    2 cosh t_k - 2 phi_k(1) = 2 sinh t_k / tanh(rows t_k), where q is the
    charge that holds each electrode node at its potential and vanishes on
    every free node. Its inverse, the surface Green's function, is a cosine
    series c; the electrode's charges solve one small dense system through
    it, and the charges' modes over d_k are the surface row's modes s_k.
    """
    n = 2 * cols  # a sine transform over the columns is a real FFT of length n
    t = 2.0 * np.arcsinh(np.sin(np.pi * np.arange(1, cols) / n))
    gain = np.zeros(cols + 1)  # 1 / d_k; modes 0 and cols vanish on the walls
    gain[1:cols] = np.tanh(rows * t) / (2.0 * np.sinh(t))
    c = np.fft.irfft(gain, n)
    green = c[(electrode[:, None] - electrode) % n] - c[electrode[:, None] + electrode]
    charge = np.zeros(n)
    charge[electrode] = np.linalg.solve(green, np.full(electrode.size, -0.5))
    surface = -np.fft.rfft(charge).imag * gain  # s_k: the charges' sine modes over d_k
    return t, -2j * surface[1:cols]


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
    """Solve the geometry of the electrode pair to its potential grid per volt of bias.

    The electrodes are held at +-1/2 V, the left one positive, and the
    outer box at zero (the far boundary); ``electrode_potentials_v`` is
    not read. The solve is direct: the grid is the exact solution of the
    discrete equations up to rounding. ``ConfigError`` if
    :func:`check_grid` refuses the layout at ``spacing_um``.
    """
    cols, rows = check_grid(layout, spacing_um)
    x = spacing_um * np.arange(cols + 1)  # the quarter's columns, x >= 0
    snap = spacing_um / 4.0
    half_gap = layout.gap_um / 2.0
    electrode = np.flatnonzero((x >= half_gap - snap) & (x <= half_gap + layout.electrode_width_um + snap))
    # the quarter holds the right electrode, at -1/2 V
    return PotentialGrid(spacing_um, cols, rows, electrode, *_charge_modes(cols, rows, electrode))


def _stencil_position(
    point_um: tuple[float, float], spacing_um: float, cols: int, rows: int, what: str = "probe point"
) -> tuple[float, float]:
    """The point's fractional node indices ``(xi, yi)`` on the full grid of a ``cols`` x ``rows``-cell quarter.
    The field stencil reaches one node past the point's cell, so ``ConfigError`` unless it is one cell inside."""
    xi = (point_um[0] + cols * spacing_um) / spacing_um
    yi = (point_um[1] + rows * spacing_um) / spacing_um
    if not (1.0 <= xi <= 2 * cols - 1.0 and 1.0 <= yi <= 2 * rows - 1.0):
        raise ConfigError(f"{what} {point_um} um is not one cell ({spacing_um:g} um) inside the grid's edge")
    return xi, yi


def check_grid(layout: ElectrodeLayout, spacing_um: float) -> tuple[int, int]:
    """The cells ``(cols, rows)`` from the gap centre to the side and top walls of the grid that solves ``layout``
    at ``spacing_um``, checked as the config is when it loads: ``ConfigError`` for a spacing outside (0, gap/20],
    a grid too large for numpy to hold (:func:`~starksim.experiment.check_count`), or a probe whose field stencil
    leaves the grid."""
    if not 0.0 < spacing_um <= layout.gap_um / 20.0:
        raise ConfigError(f"[solver].spacing_um must lie in (0, gap/20 = {layout.gap_um / 20.0:g}] um, got {spacing_um}")
    half_cells = [extent / 2.0 / spacing_um for extent in layout.domain_extent_um]  # floats: an inf is refused
    where = f"[layout].domain_extent_um at [solver].spacing_um = {spacing_um:g} um"
    check_count(where, (half_cells[0] + 1) * (half_cells[1] + 1), 16)  # the quarter's complex128 modes
    cols, rows = (int(round(cells)) for cells in half_cells)  # ElectrodeLayout's margins: at least 50 and 40
    _stencil_position(layout.probe_point_um, spacing_um, cols, rows, "[layout].probe_point_um")
    return cols, rows


def field_at(grid: PotentialGrid, point_um: tuple[float, float]) -> tuple[float, float]:
    """Negated central-difference gradient of the per-volt grid at a point:
    ``(e_parallel, e_perpendicular)`` in V/cm per V.

    ``e_parallel`` points along the inter-electrode axis (the crystal
    axis the bias field is aligned with); ``e_perpendicular`` is the
    surface-normal component. The two gradient components are evaluated
    at the four nodes surrounding the point and blended bilinearly, which
    is exact for linear potentials. The point must stay at least one cell
    away from the grid edge so the stencil fits. The stencil's nodes are
    read through the mirror from the at most 4 quarter rows it touches.
    """
    h = grid.spacing_um
    rows, cols = grid.rows, grid.cols
    xi, yi = _stencil_position(point_um, h, cols, rows)

    # the cell's lower-left node; on the last interior node, the cell below it (the full grid is 2 * cols + 1 wide)
    j0 = min(int(xi), 2 * cols - 2)
    i0 = min(int(yi), 2 * rows - 2)
    fx = xi - j0
    fy = yi - i0

    # the 4 x 4 nodes (i0 - 1 .. i0 + 2) x (j0 - 1 .. j0 + 2): v[1 + di, 1 + dj] is node (i0 + di, j0 + dj)
    # their rows' distances from the surface, 4 consecutive offsets folded at 0, span the distinct quarter rows m
    folded = np.abs(np.arange(i0 - rows - 1, i0 - rows + 3))
    m = np.arange(folded.min(), folded.max() + 1)
    v = _mirrored(grid.quarter_rows(m)[folded - m[0]], np.arange(j0 - cols - 1, j0 - cols + 3))
    ex = -(v[1:3, 2:] - v[1:3, :2]) / (2.0 * h)
    ey = -(v[2:, 1:3] - v[:2, 1:3]) / (2.0 * h)

    def blend(corner: np.ndarray) -> float:
        top = corner[0, 0] * (1 - fx) + corner[0, 1] * fx
        bottom = corner[1, 0] * (1 - fx) + corner[1, 1] * fx
        return float(top * (1 - fy) + bottom * fy)

    return blend(ex) * V_PER_UM_TO_V_PER_CM, blend(ey) * V_PER_UM_TO_V_PER_CM
