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
its full-domain residual. Being even, the solution equals that of the
upper half with the surface row as a half-cell: horizontal faces of
weight 1/2, none to the south. The balanced pair makes it odd in x as
well, zero on the column x = 0. So the potential is solved on the
quarter x >= 0, y >= 0 with that column held at zero, and mirrored back
to the full grid. The quarter is solved by conjugate gradients
preconditioned by a geometric multigrid V-cycle whose coarse grids keep
the mirror row and the column x = 0.

Units: lengths in micrometres, potentials in volts, fields in V/cm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ConvergenceError",
    "ElectrodeLayout",
    "FieldVector",
    "GeometryError",
    "PotentialGrid",
    "field_at",
    "field_per_volt",
    "solve_parallel_plates",
    "solve_potential",
    "uniform_field_oracle",
    "write_grid_csv",
]

V_PER_UM_TO_V_PER_CM = 1.0e4


class GeometryError(ValueError):
    """Layout or solver inputs violate a geometric precondition."""


class ConvergenceError(RuntimeError):
    """The solve did not reach tolerance within the iteration budget.

    ``last_update_v`` is the error estimate of the last iteration; it is
    not finite when the iteration broke down.
    """

    def __init__(self, iterations: int, last_update_v: float, tolerance_v: float):
        self.iterations = iterations
        self.last_update_v = last_update_v
        self.tolerance_v = tolerance_v
        if math.isfinite(last_update_v):
            reason = f"error estimate {last_update_v:.3e} V > tolerance {tolerance_v:.3e} V"
        else:
            reason = f"non-finite error estimate {last_update_v} V"
        super().__init__(f"no convergence after {iterations} iterations: {reason}")


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
    """Converged potential on a uniform node-centred grid.

    ``values[i, j]`` is the potential at ``(x0 + j*h, y0 + i*h)``;
    ``fixed`` marks Dirichlet nodes (the electrodes and, for
    :func:`solve_potential`, the outer box). ``iterations`` counts solver
    iterations, ``last_update_v`` is the final error estimate (below the
    tolerance), and ``residual_v`` the true residual max|b - A v| of the
    full-domain five-point equations with unit weights, the equations
    solved.
    """

    spacing_um: float
    values: np.ndarray
    x0_um: float
    y0_um: float
    fixed: np.ndarray = field(repr=False)
    iterations: int = 0
    last_update_v: float = 0.0
    residual_v: float = 0.0

    @property
    def x_coords_um(self) -> np.ndarray:
        return self.x0_um + self.spacing_um * np.arange(self.values.shape[1])

    @property
    def y_coords_um(self) -> np.ndarray:
        return self.y0_um + self.spacing_um * np.arange(self.values.shape[0])


def uniform_field_oracle(voltage_v: float, gap_um: float) -> float:
    """Parallel-plate field ``V / gap`` in V/cm; analytic solver oracle."""
    if gap_um <= 0.0:
        raise GeometryError(f"gap must be positive, got {gap_um}")
    return voltage_v / gap_um * V_PER_UM_TO_V_PER_CM


# Multigrid hierarchy: grids are padded with fixed zero nodes until each
# axis coarsens ``depth`` times; the coarsest grid then has COARSEST_CELLS
# to 2*COARSEST_CELLS cells along its shorter axis and is solved by
# COARSE_SWEEPS red-black Gauss-Seidel sweeps plus one red half-sweep, a
# colour sequence that reads the same backwards, so the solve is symmetric.
COARSEST_CELLS = 4
COARSE_SWEEPS = 16
# Default iteration cap; a solve typically converges in 5 to 15 iterations.
MAX_ITERATIONS = 100


def _axis_nodes(extent_um: float, spacing_um: float) -> np.ndarray:
    """Symmetric node coordinates covering [-extent/2, extent/2]."""
    half_cells = max(int(round(extent_um / 2.0 / spacing_um)), 2)
    return spacing_um * np.arange(-half_cells, half_cells + 1)


class _Level:
    """One grid of the multigrid hierarchy with its smoother precomputed.

    Face weights depend only on the row: ``vertical[i]`` joins rows i and
    i+1, ``horizontal[i]`` joins neighbours within row i. The outer ring
    of nodes is fixed. ``solution``, ``rhs`` and ``work`` are reused by
    every cycle, and ``buffer`` is a flat scratch array the levels share.
    Each red-black colour decomposes into two strided sub-lattices whose
    views are built once, so a sweep runs on array views.
    """

    def __init__(
        self, fixed: np.ndarray, vertical: np.ndarray, horizontal: np.ndarray, buffer: np.ndarray
    ):
        ny, nx = fixed.shape
        self.fixed = fixed
        self.vertical = vertical
        self.horizontal = horizontal
        self.buffer = buffer
        self.free = (~fixed).astype(float)
        self.solution = np.zeros((ny, nx))
        self.rhs = np.zeros((ny, nx))
        self.work = np.zeros((ny, nx))
        self.scratch = buffer[: (ny - 2) * (nx - 2)].reshape(ny - 2, nx - 2)
        # weights of the interior rows, as columns: south, north, west = east
        self.south = vertical[:-1, None]
        self.north = vertical[1:, None]
        self.side = horizontal[1:-1, None]
        self.diagonal = self.south + self.north + 2.0 * self.side
        gain = np.divide(1.0, self.diagonal, out=np.zeros_like(self.diagonal), where=self.diagonal > 0.0)

        v = self.solution
        self.colours: tuple[list, list] = ([], [])
        for parity in (0, 1):
            for a0 in (0, 1):
                b0 = (parity + a0) % 2
                block = np.s_[1 + a0 : ny - 1 : 2, 1 + b0 : nx - 1 : 2]
                centre = v[block]
                if centre.size == 0:
                    continue
                rows = np.s_[a0::2]
                self.colours[parity].append(
                    (
                        centre,
                        self.rhs[block],
                        self.free[block],
                        v[a0 : ny - 2 : 2, 1 + b0 : nx - 1 : 2],
                        v[2 + a0 : ny : 2, 1 + b0 : nx - 1 : 2],
                        v[1 + a0 : ny - 1 : 2, b0 : nx - 2 : 2],
                        v[1 + a0 : ny - 1 : 2, 2 + b0 : nx : 2],
                        self.south[rows],
                        self.north[rows],
                        self.side[rows],
                        gain[rows],
                        buffer[: centre.size].reshape(centre.shape),
                    )
                )

    def sweep(self, parity: int) -> None:
        """Gauss-Seidel update of one colour of ``solution`` for ``rhs``."""
        for block in self.colours[parity]:
            centre, rhs, free, south, north, west, east, w_south, w_north, w_side, gain, tmp = block
            np.add(west, east, out=centre)
            centre *= w_side
            np.multiply(w_south, south, out=tmp)
            centre += tmp
            np.multiply(w_north, north, out=tmp)
            centre += tmp
            centre += rhs
            centre *= gain
            centre *= free

    def apply(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = A v on the free nodes, zero on the fixed ones."""
        inner = out[1:-1, 1:-1]
        _stencil(v, inner, self.scratch, self.south, self.north, self.side, self.diagonal)
        inner *= self.free[1:-1, 1:-1]
        return out

    def coarsened(self) -> "_Level":
        """Every second node; a coarse vertical face is the two fine faces it spans in series."""
        a, b = self.vertical[0::2], self.vertical[1::2]
        total = a + b
        vertical = np.divide(2.0 * a * b, total, out=np.zeros_like(total), where=total > 0.0)
        return _Level(self.fixed[::2, ::2], vertical, self.horizontal[::2], self.buffer)


def _stencil(v, out, tmp, south, north, side, diagonal) -> None:
    """``out`` = A v at the interior nodes of ``v``; weights are columns, one row per interior row."""
    np.add(v[1:-1, :-2], v[1:-1, 2:], out=out)
    out *= side
    np.multiply(south, v[:-2, 1:-1], out=tmp)
    out += tmp
    np.multiply(north, v[2:, 1:-1], out=tmp)
    out += tmp
    np.multiply(diagonal, v[1:-1, 1:-1], out=tmp)
    np.subtract(tmp, out, out=out)


def _restrict(fine: np.ndarray, out: np.ndarray) -> None:
    """Full weighting, the transpose of bilinear prolongation."""
    odd = 0.5 * fine[:, 1::2]
    rows = fine[:, ::2].copy()
    rows[:, 1:] += odd
    rows[:, :-1] += odd
    odd = 0.5 * rows[1::2]
    out[...] = rows[::2]
    out[1:] += odd
    out[:-1] += odd


def _prolong_add(coarse: np.ndarray, fine: np.ndarray) -> None:
    """Add the bilinear interpolation of ``coarse`` to ``fine``."""
    rows = np.empty((coarse.shape[0], fine.shape[1]))
    rows[:, ::2] = coarse
    rows[:, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    fine[::2] += rows
    fine[1::2] += 0.5 * (rows[:-1] + rows[1:])


def _v_cycle(levels: list[_Level], depth: int = 0) -> None:
    """Symmetric V-cycle: ``levels[depth].solution`` ~ A^-1 ``levels[depth].rhs``.

    Red-black Gauss-Seidel forward before the coarse correction and
    backward after it, so the cycle is a symmetric operator and can
    precondition conjugate gradients.
    """
    level = levels[depth]
    level.solution.fill(0.0)
    if depth == len(levels) - 1:
        for _ in range(COARSE_SWEEPS):
            level.sweep(0)
            level.sweep(1)
        level.sweep(0)
        return
    level.sweep(0)
    level.sweep(1)
    coarse = levels[depth + 1]
    level.apply(level.solution, level.work)
    np.subtract(level.rhs, level.work, out=level.work)
    _restrict(level.work, coarse.rhs)
    coarse.rhs *= coarse.free
    _v_cycle(levels, depth + 1)
    _prolong_add(coarse.solution, level.solution)
    level.solution *= level.free
    level.sweep(1)
    level.sweep(0)


def _padding(nodes: int, depth: int, anchor: int) -> tuple[int, int]:
    """Fixed nodes to add before and after an axis so that it coarsens ``depth`` times.

    Padded nodes touch only the axis's end nodes, which must be fixed, so
    the padding leaves the solution unchanged. The padding before
    ``anchor`` makes its padded index a multiple of ``2**depth``, so that
    node (a symmetry plane, or the fixed end node 0) is a node of every
    coarser level.
    """
    step = 2**depth
    before = -anchor % step
    return before, -(before + nodes - 1) % step


def _solve(
    values: np.ndarray,
    fixed: np.ndarray,
    vertical: np.ndarray,
    horizontal: np.ndarray,
    tolerance_v: float,
    max_iterations: int,
    anchors: tuple[int, int],
) -> tuple[int, float]:
    """Solve for the free nodes of ``values`` in place.

    Conjugate gradients on the five-point system A v = b, with the fixed
    nodes as Dirichlet data, preconditioned by one multigrid V-cycle.
    ``vertical[i]`` is the weight of the faces between rows i and i+1 and
    ``horizontal[i]`` that of the faces within row i; faces of zero
    weight make insulating boundaries. The V-cycle's correction M r of the
    current residual estimates the remaining error; once its largest entry
    is below ``tolerance_v`` the correction is added and the iteration
    stops. ``anchors`` names, per axis, a node index that stays a node of
    every coarser grid (see :func:`_padding`). Returns (iterations,
    largest entry of that last correction).
    """
    ny, nx = values.shape
    depth = max(((min(ny, nx) + 1) // COARSEST_CELLS).bit_length() - 1, 0)
    pads = (_padding(ny, depth, anchors[0]), _padding(nx, depth, anchors[1]))
    v = np.pad(values, pads)
    # padded faces copy the edge faces, so that coarse grids see a fixed
    # outer ring as Dirichlet data rather than as an insulating edge
    levels = [
        _Level(
            np.pad(fixed, pads, constant_values=True),
            np.pad(vertical, pads[0], mode="edge"),
            np.pad(horizontal, pads[0], mode="edge"),
            np.empty(v.size),
        )
    ]
    while len(levels) <= depth:
        levels.append(levels[-1].coarsened())
    fine = levels[0]

    # the finest rhs is the CG residual; its work array is free between cycles
    residual, q = fine.rhs, fine.work
    step = fine.buffer.reshape(v.shape)
    np.negative(fine.apply(v, q), out=residual)
    p = np.zeros_like(v)
    rz = 1.0
    for iteration in range(max_iterations + 1):
        _v_cycle(levels)
        z = fine.solution
        error = float(np.abs(z).max())
        if not math.isfinite(error):
            raise ConvergenceError(iteration, error, tolerance_v)
        if error < tolerance_v:
            v += z
            break
        if iteration == max_iterations:
            raise ConvergenceError(iteration, error, tolerance_v)
        # numpy scalars: a breakdown gives inf or nan, caught at the next check
        rz, rz_old = np.vdot(residual, z), rz
        p *= rz / rz_old
        p += z
        fine.apply(p, q)
        alpha = rz / np.vdot(p, q)
        np.multiply(alpha, p, out=step)
        v += step
        q *= alpha
        residual -= q
    values[...] = v[pads[0][0] : pads[0][0] + ny, pads[1][0] : pads[1][0] + nx]
    return iteration, error


def _residual(values: np.ndarray, fixed: np.ndarray, vertical: np.ndarray, horizontal: np.ndarray) -> float:
    """True residual max|b - A v| of the free nodes; the outer ring must be fixed.

    The Dirichlet data sit in ``values``, so b is zero and the residual is A v.
    """
    south, north, side = vertical[:-1, None], vertical[1:, None], horizontal[1:-1, None]
    applied, tmp = np.empty((2, values.shape[0] - 2, values.shape[1] - 2))
    _stencil(values, applied, tmp, south, north, side, south + north + 2.0 * side)
    applied[fixed[1:-1, 1:-1]] = 0.0
    return float(np.abs(applied, out=applied).max())


def solve_potential(
    layout: ElectrodeLayout,
    spacing_um: float,
    tolerance_v: float,
    *,
    max_iterations: int = MAX_ITERATIONS,
) -> PotentialGrid:
    """Solve the bias of the electrode pair to a converged potential grid.

    The electrodes are held at ``+-bias_v / 2``, the outer box at zero
    (the far boundary). Convergence means the estimated largest error of a
    free node against the exact solution of the discrete equations fell
    below ``tolerance_v``.

    Raises
    ------
    GeometryError
        If ``spacing_um > gap/20``, the tolerance is not a positive
        finite number or the layout is invalid.
    ConvergenceError
        If ``max_iterations`` iterations do not reach tolerance, or the
        iteration breaks down on non-finite numbers.
    """
    if not spacing_um > 0.0:
        raise GeometryError(f"spacing must be positive, got {spacing_um}")
    if spacing_um > layout.gap_um / 20.0:
        raise GeometryError(
            f"spacing {spacing_um} um too coarse: need <= gap/20 = {layout.gap_um / 20.0} um"
        )
    if not 0.0 < tolerance_v < math.inf:
        raise GeometryError(f"tolerance must be a positive finite number, got {tolerance_v}")

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

    # Solve the quarter x >= 0, y >= 0 (row 0 the surface, a mirror plane),
    # with the column x = 0 held at zero. Above the surface every face
    # weighs 1, except that the surface row is a half-cell (horizontal
    # faces 1/2, no face to the south). A fixed ghost row below it, joined
    # by a face of weight 0, keeps the outer ring fixed; the surface row and
    # the column x = 0 are nodes of every coarse grid.
    width = len(x) - centre
    quarter = np.vstack((np.zeros((1, width)), values[surface_row:, centre:]))
    quarter_fixed = np.vstack((np.ones((1, width), dtype=bool), fixed[surface_row:, centre:]))
    quarter_fixed[:, 0] = True
    vertical = np.ones(len(quarter) - 1)
    vertical[0] = 0.0
    horizontal = np.ones(len(quarter))
    horizontal[1] = 0.5
    iterations, error = _solve(
        quarter, quarter_fixed, vertical, horizontal, tolerance_v, max_iterations, (1, 0)
    )
    upper = np.hstack((-quarter[1:, :0:-1], quarter[1:]))  # odd in x
    values = np.where(fixed, values, np.vstack((upper[:0:-1], upper)))  # even in y

    return PotentialGrid(
        spacing_um=spacing_um,
        values=values,
        x0_um=float(x[0]),
        y0_um=float(y[0]),
        fixed=fixed,
        iterations=iterations,
        last_update_v=error,
        residual_v=_residual(values, fixed, np.ones(len(y) - 1), np.ones(len(y))),
    )


def field_per_volt(
    layout: ElectrodeLayout,
    spacing_um: float,
    tolerance_v: float,
    *,
    voltage_v: float | None = None,
    max_iterations: int = MAX_ITERATIONS,
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
    grid = solve_potential(layout.with_bias(voltage), spacing_um, tolerance_v, max_iterations=max_iterations)
    return field_at(grid, layout.probe_point_um).scaled(1.0 / voltage), grid


def solve_parallel_plates(
    voltage_v: float,
    gap_um: float,
    spacing_um: float,
    tolerance_v: float = 1e-9,
    *,
    height_um: float | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> PotentialGrid:
    """Plate electrodes on the full left/right walls, insulating top/bottom.

    The top and bottom rows are insulating: the grid is solved with a
    fixed ghost row beyond each, joined to it by faces of zero weight.
    The converged interior matches the analytic parallel-plate ramp; this
    is the geometric limit used to validate the solver against
    :func:`uniform_field_oracle`.
    """
    if gap_um <= 0.0 or spacing_um <= 0.0:
        raise GeometryError("gap and spacing must be positive")
    nx = max(int(round(gap_um / spacing_um)) + 1, 3)
    ny = max(int(round((height_um or gap_um / 2.0) / spacing_um)) + 1, 3)
    values = np.zeros((ny + 2, nx))
    fixed = np.zeros_like(values, dtype=bool)
    values[:, 0] = voltage_v / 2.0
    values[:, -1] = -voltage_v / 2.0
    fixed[:, 0] = fixed[:, -1] = True
    fixed[0, :] = fixed[-1, :] = True

    vertical = np.ones(ny + 1)
    vertical[[0, -1]] = 0.0
    horizontal = np.ones(ny + 2)
    iterations, error = _solve(values, fixed, vertical, horizontal, tolerance_v, max_iterations, (0, 0))
    return PotentialGrid(
        spacing_um=spacing_um,
        values=values[1:-1],
        x0_um=-gap_um / 2.0,
        y0_um=0.0,
        fixed=fixed[1:-1],
        iterations=iterations,
        last_update_v=error,
        residual_v=_residual(values, fixed, vertical, horizontal),
    )


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


def write_grid_csv(grid: PotentialGrid, path: str | Path) -> None:
    """Dump the potential as ``x_um,y_um,potential_v`` rows."""
    xs = grid.x_coords_um
    ys = grid.y_coords_um
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("x_um,y_um,potential_v\n")
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                handle.write(f"{x:.17g},{y:.17g},{grid.values[i, j]:.17g}\n")
