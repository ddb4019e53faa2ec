"""The field solver against an exact sparse direct solve of the same stencil.

The oracle assembles the five-point equations of div(eps grad V) = 0 on
the solver's grid (permittivity constant per cell by the sign of the
cell centre's y, face weights the mean of the two flanking cells, the
Dirichlet data stated from the layout by ``conftest.dirichlet_nodes``,
not read from the solver) and solves them with scipy's sparse LU. The
solver takes no permittivity: it solves the unit-weight system, whose
solution the permittivity-weighted systems share, so the cases below
compare it with the LU of several permittivity pairs. scipy is a
test-only dependency.
"""

import dataclasses

import numpy as np
import pytest
from conftest import dirichlet_nodes, full_grid_field

from starksim.config import SolverSettings, default_config, dumps_config, loads_config
from starksim.electrostatics import ElectrodeLayout, field_at, solve_potential

pytest.importorskip("scipy")
from scipy import sparse  # noqa: E402
from scipy.sparse import linalg as sparse_linalg  # noqa: E402

PAPER_LAYOUT = ElectrodeLayout(
    electrode_width_um=200.0,
    gap_um=100.0,
    electrode_potentials_v=(166.5, -166.5),
    domain_extent_um=(1000.0, 600.0),
)
# 1005 x 605 um at 2.5 um: 403 x 243 nodes, whose 402 x 242 cells halve to odd counts
ODD_LAYOUT = dataclasses.replace(PAPER_LAYOUT, domain_extent_um=(1005.0, 605.0))

# relative permittivities (above, below) of the surface; (1, 9) is vacuum on Y2SiO5
VACUUM_ON_CRYSTAL = (1.0, 9.0)
UNIT = (1.0, 1.0)

CASES = {
    "paper_5um": (PAPER_LAYOUT, VACUUM_ON_CRYSTAL, 5.0),
    "odd_cells_2.5um": (ODD_LAYOUT, VACUUM_ON_CRYSTAL, 2.5),
    "eps_below_8.8": (PAPER_LAYOUT, (1.0, 8.8), 5.0),
}


def assemble(layout: ElectrodeLayout, spacing_um: float, permittivities: tuple[float, float]):
    """Sparse matrix and right-hand side of the equations of the free nodes of
    ``layout`` at ``spacing_um``, for the relative permittivities ``(above,
    below)`` of the surface, with the problem's Dirichlet mask and values."""
    fixed, values = dirichlet_nodes(layout, spacing_um)
    y = spacing_um * (np.arange(fixed.shape[0]) - fixed.shape[0] // 2)
    eps = np.where((y[:-1] + y[1:]) / 2.0 > 0.0, *permittivities)
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
    return matrix, rhs, fixed, values


def exact_potential(layout: ElectrodeLayout, spacing_um: float, permittivities: tuple[float, float]) -> np.ndarray:
    """Exact discrete potential of ``layout`` on the nodes at ``spacing_um``, its Dirichlet nodes held."""
    matrix, rhs, fixed, values = assemble(layout, spacing_um, permittivities)
    values[~fixed] = sparse_linalg.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    return values


# the solve is direct: it leaves rounding error only
TOLERANCE_V = 1e-9


def assert_matches_lu(grid, layout: ElectrodeLayout, permittivities: tuple[float, float]) -> None:
    """The solve of ``layout`` is within TOLERANCE_V of the full-domain LU of
    ``permittivities``, and its residual is that of the unit-weight system, the one solved."""
    exact = exact_potential(layout, grid.spacing_um, permittivities)
    assert np.max(np.abs(grid.values - exact)) <= TOLERANCE_V
    matrix, rhs, fixed, _ = assemble(layout, grid.spacing_um, UNIT)
    residual = np.max(np.abs(rhs - matrix @ grid.values[~fixed]))
    # both are rounding error, summed in different orders
    assert grid.residual_v == pytest.approx(residual, abs=1e-13)


# the [solver] tolerance_v that configs stored by the former iterative solver carry
STORED_TOLERANCES_V = [1e-4, 1e-6]


def solve_stored(layout: ElectrodeLayout, spacing_um: float, tolerance_v: float):
    """Solve ``layout`` as a stored config that still carries ``tolerance_v`` replays it:
    the retired key loads, is dropped, and the grid is the one solved without it."""
    stored = dataclasses.replace(default_config(), layout=layout, solver=SolverSettings(spacing_um))
    text = dumps_config(stored).replace("[solver]\n", f"[solver]\ntolerance_v = {tolerance_v!r}\n")
    assert f"tolerance_v = {tolerance_v!r}" in text
    config = loads_config(text)
    assert config == stored
    grid = solve_potential(config.layout, config.solver.spacing_um)
    assert np.array_equal(grid.values, solve_potential(layout, spacing_um).values)
    return grid


@pytest.mark.parametrize("tolerance_v", STORED_TOLERANCES_V)
@pytest.mark.parametrize("case", list(CASES))
def test_error_within_tolerance(case, tolerance_v):
    # the bound is TOLERANCE_V whatever tolerance the config still carries
    layout, permittivities, spacing = CASES[case]
    grid = solve_stored(layout, spacing, tolerance_v)
    assert_matches_lu(grid, layout, permittivities)
    assert 0.0 < grid.residual_v


def probe(grid, values: np.ndarray, point_um: tuple[float, float]) -> tuple[float, float]:
    """``(E_parallel, E_perpendicular)`` at a point of a full potential ``values`` on ``grid``'s
    nodes, read from the whole array, not through the solver's mirror."""
    return full_grid_field(values, grid.x0_um, grid.y0_um, grid.spacing_um, point_um)


def test_golden_probe_field_is_exact():
    # the pins in test_electrostatics and test_cli are this value
    grid = solve_potential(PAPER_LAYOUT, 5.0)
    exact = exact_potential(PAPER_LAYOUT, 5.0, VACUUM_ON_CRYSTAL)
    for field in (field_at(grid, (0.0, 0.0)).e_parallel_v_per_cm, probe(grid, exact, (0.0, 0.0))[0]):
        assert field == pytest.approx(21652.534344268526, rel=1e-12)


# a bias other than the default, on a crystal other than the default
BIASED_LAYOUT = dataclasses.replace(PAPER_LAYOUT, electrode_potentials_v=(145.0, -145.0))
CRYSTAL = (2.0, 11.0)


@pytest.mark.parametrize("tolerance_v", STORED_TOLERANCES_V)
def test_unbalanced_layout_within_tolerance(tolerance_v):
    # (250, -40) V is solved as its balanced pair +-145 V, the Dirichlet
    # data the LU states from the layout
    layout = dataclasses.replace(BIASED_LAYOUT, electrode_potentials_v=(250.0, -40.0))
    grid = solve_stored(layout, 5.0, tolerance_v)
    fixed, _ = dirichlet_nodes(layout, 5.0)
    assert set(np.unique(grid.values[fixed])) == {-145.0, 0.0, 145.0}
    assert_matches_lu(grid, layout, CRYSTAL)


def test_probe_below_the_surface():
    # the exact discrete potential is even in y for any permittivity pair,
    # so the surface-normal field flips sign across the surface
    grid = solve_potential(BIASED_LAYOUT, 5.0)
    exact = exact_potential(BIASED_LAYOUT, 5.0, CRYSTAL)
    (above_parallel, above_perpendicular), (below_parallel, below_perpendicular) = (
        probe(grid, exact, point) for point in ((30.0, 10.0), (30.0, -10.0))
    )
    assert abs(above_perpendicular) > 0.1 * abs(above_parallel)
    assert below_perpendicular == pytest.approx(-above_perpendicular, rel=1e-9)
    assert below_parallel == pytest.approx(above_parallel, rel=1e-9)
    for point, expected in (((30.0, 10.0), (above_parallel, above_perpendicular)),
                            ((30.0, -10.0), (below_parallel, below_perpendicular))):
        solved = field_at(grid, point)
        assert solved.e_parallel_v_per_cm == pytest.approx(expected[0], rel=1e-6)
        assert solved.e_perpendicular_v_per_cm == pytest.approx(expected[1], rel=1e-6)
