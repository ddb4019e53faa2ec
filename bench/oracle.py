"""Exact discrete solution of the electrode problem, by a sparse direct solve.

Builds the same five-point stencil the program relaxes (node-centred grid
symmetric about the gap centre, electrodes snapped to the surface row,
permittivity constant per cell, face weights the mean of the two cells
flanking the face, zero potential on the outer box) and solves it with
scipy's sparse LU. The refine checks compare the program's probe field
with this solution. scipy is a benchmark-only dependency, imported only
when the oracle runs, which is after every timed region.
"""

from __future__ import annotations

import numpy as np

V_PER_UM_TO_V_PER_CM = 1.0e4


def _axis_nodes(extent_um: float, spacing_um: float) -> np.ndarray:
    half_cells = max(int(round(extent_um / 2.0 / spacing_um)), 2)
    return spacing_um * np.arange(-half_cells, half_cells + 1)


def exact_probe_field(geometry) -> tuple[float, float]:
    """(E_parallel, E_perpendicular) in V/cm at the probe point of a ``workloads.Geometry``."""
    import scipy.sparse as sparse
    import scipy.sparse.linalg as sparse_linalg

    h = geometry.spacing_um
    x = _axis_nodes(geometry.domain_extent_um[0], h)
    y = _axis_nodes(geometry.domain_extent_um[1], h)
    values = np.zeros((y.size, x.size))
    fixed = np.zeros(values.shape, dtype=bool)
    fixed[0, :] = fixed[-1, :] = fixed[:, 0] = fixed[:, -1] = True

    row = int(np.argmin(np.abs(y)))
    half_gap = geometry.gap_um / 2.0
    outer = half_gap + geometry.electrode_width_um
    snap = h / 4.0
    left = (x >= -outer - snap) & (x <= -half_gap + snap)
    right = (x >= half_gap - snap) & (x <= outer + snap)
    values[row, left], values[row, right] = geometry.potentials_v
    fixed[row, left | right] = True

    cell_centres = (y[:-1] + y[1:]) / 2.0
    eps = np.where(cell_centres > 0.0, geometry.permittivity_above, geometry.permittivity_below)
    free = ~fixed
    unknown = np.full(values.shape, -1)
    unknown[free] = np.arange(np.count_nonzero(free))
    i, j = np.nonzero(free)
    k = unknown[i, j]
    w_south, w_north = eps[i - 1], eps[i]
    w_side = (w_south + w_north) / 2.0

    rows, cols, data = [k], [k], [w_south + w_north + 2.0 * w_side]
    rhs = np.zeros(k.size)
    for di, dj, weight in ((-1, 0, w_south), (1, 0, w_north), (0, -1, w_side), (0, 1, w_side)):
        ni, nj = i + di, j + dj
        inner = free[ni, nj]
        rows.append(k[inner])
        cols.append(unknown[ni[inner], nj[inner]])
        data.append(-weight[inner])
        rhs[~inner] += weight[~inner] * values[ni[~inner], nj[~inner]]
    matrix = sparse.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(k.size, k.size)
    )
    # minimum-degree ordering on A^T + A suits the symmetric five-point stencil
    values[free] = sparse_linalg.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    return _probe(values, x[0], y[0], h, geometry.probe_point_um)


def _probe(v: np.ndarray, x0: float, y0: float, h: float, point: tuple[float, float]) -> tuple[float, float]:
    """Central-difference gradient at the four surrounding nodes, blended bilinearly."""
    xi = (point[0] - x0) / h
    yi = (point[1] - y0) / h
    j0, i0 = min(int(xi), v.shape[1] - 2), min(int(yi), v.shape[0] - 2)
    fx, fy = xi - j0, yi - i0
    ex = np.empty((2, 2))
    ey = np.empty((2, 2))
    for di in (0, 1):
        for dj in (0, 1):
            a, b = i0 + di, j0 + dj
            ex[di, dj] = -(v[a, b + 1] - v[a, b - 1]) / (2.0 * h)
            ey[di, dj] = -(v[a + 1, b] - v[a - 1, b]) / (2.0 * h)

    def blend(c: np.ndarray) -> float:
        return float((c[0, 0] * (1 - fx) + c[0, 1] * fx) * (1 - fy) + (c[1, 0] * (1 - fx) + c[1, 1] * fx) * fy)

    return blend(ex) * V_PER_UM_TO_V_PER_CM, blend(ey) * V_PER_UM_TO_V_PER_CM
