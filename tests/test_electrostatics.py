import dataclasses
import math

import numpy as np
import pytest
from conftest import dirichlet_nodes, full_grid_field, full_grid_residual

from starksim.cli import main
from starksim.config import default_config
from starksim.electrostatics import (
    ConvergenceError,
    ElectrodeLayout,
    GeometryError,
    PotentialGrid,
    field_at,
    field_per_volt,
    _residual,
    solve_potential,
)

# exact discrete probe field of the default layout at spacing 5 um (sparse
# LU of the same stencil, tests/test_oracle.py); reference for the pipeline
GOLDEN_E_PARALLEL_333V = 21652.534344268526

PAPER_LAYOUT = ElectrodeLayout(
    electrode_width_um=200.0,
    gap_um=100.0,
    electrode_potentials_v=(166.5, -166.5),
    domain_extent_um=(1000.0, 600.0),
)


def uniform_field_oracle(voltage_v: float, gap_um: float) -> float:
    """Parallel-plate field ``V / gap`` in V/cm, which bounds the field in a coplanar gap."""
    if gap_um <= 0.0:
        raise GeometryError(f"gap must be positive, got {gap_um}")
    return voltage_v / gap_um * 1.0e4


def small_layout(potentials=(10.0, -10.0)):
    return ElectrodeLayout(
        electrode_width_um=60.0,
        gap_um=40.0,
        electrode_potentials_v=potentials,
        domain_extent_um=(360.0, 200.0),
    )


@pytest.fixture(scope="module")
def paper_grid():
    return solve_potential(PAPER_LAYOUT, 5.0)


def ramp_grid(slope_v_per_um=1.0, n=21, spacing=1.0):
    """The ramp ``slope * x`` on [-(n-1)h, (n-1)h]^2: odd in x and even in y, so held as its quarter."""
    x = spacing * np.arange(n)
    return PotentialGrid(
        spacing_um=spacing,
        quarter=np.tile(slope_v_per_um * x, (n, 1)),
        electrode=np.array([], dtype=int),
    )


class TestUniformFieldOracle:
    def test_arithmetic(self):
        assert uniform_field_oracle(100.0, 100.0) == pytest.approx(1.0e4)

    def test_zero_voltage(self):
        assert uniform_field_oracle(0.0, 123.0) == 0.0

    def test_rejects_bad_gap(self):
        with pytest.raises(GeometryError):
            uniform_field_oracle(1.0, 0.0)


class TestParallelPlates:
    def test_solver_field_bounded_by_oracle(self, paper_grid):
        bound = uniform_field_oracle(333.0, 100.0)
        probe = field_at(paper_grid, (0.0, 0.0))
        assert abs(probe.e_parallel_v_per_cm) < bound


class TestSolvePotential:
    def test_zero_potentials_give_zero_solution(self):
        grid = solve_potential(small_layout((0.0, 0.0)), 2.0)
        assert np.all(grid.values == 0.0)
        field = field_at(grid, (0.0, 10.0))
        assert field.e_parallel_v_per_cm == 0.0
        assert field.e_perpendicular_v_per_cm == 0.0

    def test_electrodes_pinned_exactly(self):
        grid = solve_potential(small_layout(), 2.0)
        fixed, values = dirichlet_nodes(small_layout(), 2.0)
        assert set(np.unique(values[fixed])) == {-10.0, 0.0, 10.0}
        assert np.array_equal(grid.values[fixed], values[fixed])

    def test_golden_probe_field(self, paper_grid):
        probe = field_at(paper_grid, (0.0, 0.0))
        assert probe.e_parallel_v_per_cm == pytest.approx(GOLDEN_E_PARALLEL_333V, rel=1e-6)
        assert probe.e_perpendicular_v_per_cm == pytest.approx(0.0, abs=1e-6)

    def test_offset_probe_sees_smaller_field(self, paper_grid):
        centre = field_at(paper_grid, (0.0, 0.0))
        offset = field_at(paper_grid, (0.0, 30.0))
        assert abs(offset.e_parallel_v_per_cm) < abs(centre.e_parallel_v_per_cm)

    def test_linear_in_voltage(self):
        g1 = solve_potential(small_layout((10.0, -10.0)), 2.0)
        g2 = solve_potential(small_layout((20.0, -20.0)), 2.0)
        assert np.max(np.abs(2.0 * g1.values - g2.values)) < 5e-4
        f1 = field_at(g1, (0.0, 0.0))
        f2 = field_at(g2, (0.0, 0.0))
        assert f2.e_parallel_v_per_cm == pytest.approx(2.0 * f1.e_parallel_v_per_cm, rel=1e-4)

    def test_discrete_maximum_principle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            bias = rng.uniform(-100.0, 100.0)
            grid = solve_potential(small_layout((bias / 2.0, -bias / 2.0)), 2.0)
            assert grid.values.min() >= -abs(bias) / 2.0 - 1e-9
            assert grid.values.max() <= abs(bias) / 2.0 + 1e-9

    def test_unbalanced_layout_solves_its_balanced_pair(self):
        # only the bias enters the model: the common mode of (25, -4) is dropped
        layout = small_layout((25.0, -4.0))
        grid = solve_potential(layout, 2.0)
        balanced = solve_potential(small_layout((14.5, -14.5)), 2.0)
        assert np.array_equal(grid.values, balanced.values)
        assert np.array_equal(grid.electrode, balanced.electrode)
        assert grid.residual_v == balanced.residual_v

    def test_antisymmetric_for_balanced_bias(self):
        grid = solve_potential(small_layout((10.0, -10.0)), 2.0)
        assert np.max(np.abs(grid.values + grid.values[:, ::-1])) < 1e-5

    def test_domain_doubling_changes_probe_field_below_percent(self, paper_grid):
        doubled = ElectrodeLayout(
            electrode_width_um=200.0,
            gap_um=100.0,
            electrode_potentials_v=(166.5, -166.5),
            domain_extent_um=(2000.0, 1200.0),
        )
        grid = solve_potential(doubled, 5.0)
        e_base = field_at(paper_grid, (0.0, 0.0)).e_parallel_v_per_cm
        e_doubled = field_at(grid, (0.0, 0.0)).e_parallel_v_per_cm
        assert abs(e_doubled - e_base) / e_base < 0.01

    def test_too_coarse_spacing_rejected(self):
        with pytest.raises(GeometryError):
            solve_potential(small_layout(), 3.0)

    def test_non_finite_potential_stops_at_once(self):
        # a nan potential, and a bias that overflows to inf
        for potentials in ((float("nan"), -1.0), (1e308, -1e308)):
            with pytest.raises(ConvergenceError, match="broke down on non-finite numbers") as err:
                solve_potential(small_layout(potentials), 2.0)
            assert not np.isfinite(err.value.residual_v)


class TestLayoutValidation:
    def test_rejects_negative_gap(self):
        with pytest.raises(GeometryError):
            ElectrodeLayout(200.0, -1.0, (1.0, -1.0), (1000.0, 600.0))

    def test_rejects_thin_margin(self):
        with pytest.raises(GeometryError):
            ElectrodeLayout(200.0, 100.0, (1.0, -1.0), (880.0, 600.0))
        # margin of exactly 2x gap is allowed
        ElectrodeLayout(200.0, 100.0, (1.0, -1.0), (900.0, 600.0))

    def test_rejects_probe_outside_domain(self):
        with pytest.raises(GeometryError):
            ElectrodeLayout(200.0, 100.0, (1.0, -1.0), (1000.0, 600.0), probe_point_um=(600.0, 0.0))


class TestFieldAt:
    def test_linear_ramp_gradient_exact(self):
        grid = ramp_grid(1.0)
        for probe in [(5.0, 5.0), (7.3, 11.2), (14.9, 3.4), (-7.3, 11.2), (-14.9, -3.4), (0.4, -19.0)]:
            field = field_at(grid, probe)
            assert abs(field.e_parallel_v_per_cm) == pytest.approx(1.0e4, rel=1e-12)
            assert field.e_parallel_v_per_cm == pytest.approx(-1.0e4)  # negated gradient
            assert field.e_perpendicular_v_per_cm == pytest.approx(0.0, abs=1e-9)

    def test_constant_grid_zero_field(self):
        grid = ramp_grid(0.0)
        field = field_at(grid, (8.0, 8.0))
        assert field.e_parallel_v_per_cm == 0.0
        assert field.e_perpendicular_v_per_cm == 0.0

    def test_probe_outside_grid_rejected(self):
        grid = ramp_grid(1.0)
        with pytest.raises(GeometryError):
            field_at(grid, (30.0, 5.0))
        with pytest.raises(GeometryError):
            field_at(grid, (5.0, -19.8))


# the layouts of tests/test_oracle.py's cases, with the spacing each is solved at
ORACLE_LAYOUTS = {
    "paper_5um": (PAPER_LAYOUT, 5.0),
    "odd_cells_2.5um": (dataclasses.replace(PAPER_LAYOUT, domain_extent_um=(1005.0, 605.0)), 2.5),
    "biased_5um": (dataclasses.replace(PAPER_LAYOUT, electrode_potentials_v=(250.0, -40.0)), 5.0),
}


def probe_points(grid):
    """Probes in all four quadrants, on and off the nodes, next to the electrodes,
    and with stencils that reach each wall column, the top and bottom rows and
    the last interior node."""
    x, y = grid.x_coords_um, grid.y_coords_um
    h = grid.spacing_um
    return [
        (0.0, 0.0), (37.3, 12.9), (-37.3, 12.9), (-41.1, -8.6), (23.2, -30.7), (3 * h, -2 * h),
        (-51.0, 0.7 * h), (49.2, -0.3 * h),
        (x[1] + 0.25 * h, 7.1), (x[-2] - 0.25 * h, -7.1), (3.3, y[-2] - 0.5 * h), (-3.3, y[1] + 0.2 * h),
        (x[1], y[1]), (x[-2], y[-2]), (x[-2], 0.0),
    ]


def assert_bitwise_equal(a: float, b: float) -> None:
    assert a.hex() == b.hex()


class TestQuarterGrid:
    """The solve keeps the quarter it solves: the probe reads it through the mirror,
    the residual is taken on it, and the full grid is mirrored out only when read."""

    @pytest.mark.parametrize("case", list(ORACLE_LAYOUTS) + ["small_2um"])
    def test_probe_through_the_mirror_is_the_full_grid_probe(self, case):
        layout, spacing = ORACLE_LAYOUTS.get(case, (small_layout(), 2.0))
        grid = solve_potential(layout, spacing)
        for point in probe_points(grid):
            probe = field_at(grid, point)
            e_parallel, e_perpendicular = full_grid_field(grid.values, grid.x0_um, grid.y0_um, spacing, point)
            assert_bitwise_equal(probe.e_parallel_v_per_cm, e_parallel)
            assert_bitwise_equal(probe.e_perpendicular_v_per_cm, e_perpendicular)

    def test_last_interior_node_is_probed(self, paper_grid):
        # a probe one cell inside the far edges reads the node itself
        x, y = paper_grid.x_coords_um[-2], paper_grid.y_coords_um[-2]
        corner = field_at(paper_grid, (x, y))
        inside = field_at(paper_grid, (x - 1e-9, y - 1e-9))
        assert corner.e_parallel_v_per_cm == pytest.approx(inside.e_parallel_v_per_cm, rel=1e-9)
        assert corner.e_perpendicular_v_per_cm == pytest.approx(inside.e_perpendicular_v_per_cm, rel=1e-9)

    def test_zero_voltage_grid_is_positive_zero(self, capsys, tmp_path):
        # `field --voltage 0` probes and dumps the quarter's zeros: +0 everywhere, as the dump prints "0"
        assert main(["field", "--voltage", "0", "--out", str(tmp_path), "--dump-grid"]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines() if "=" in line)
        assert printed["e_parallel_v_per_cm"] == printed["e_perpendicular_v_per_cm"] == "0"
        config = default_config()
        grid = solve_potential(config.layout, config.solver.spacing_um)
        zero = dataclasses.replace(grid, quarter=np.zeros_like(grid.quarter))
        assert zero.values.shape == grid.values.shape
        assert not zero.values.any() and not np.signbit(zero.values).any()
        potentials = [row.rsplit(",", 1)[1] for row in (tmp_path / "potential_grid.csv").read_text().splitlines()[1:]]
        assert potentials == ["0"] * zero.values.size
        for point in probe_points(zero):
            probe = field_at(zero, point)
            e_parallel, e_perpendicular = full_grid_field(zero.values, zero.x0_um, zero.y0_um, zero.spacing_um, point)
            assert_bitwise_equal(probe.e_parallel_v_per_cm, e_parallel)
            assert_bitwise_equal(probe.e_perpendicular_v_per_cm, e_perpendicular)

    def test_full_grid_is_the_mirrored_quarter(self, paper_grid):
        s, c = np.array(paper_grid.quarter.shape) - 1
        values, (fixed, _) = paper_grid.values, dirichlet_nodes(PAPER_LAYOUT, 5.0)
        assert np.array_equal(values[s:, c:], paper_grid.quarter)
        assert np.array_equal(values[:s, :], values[:s:-1, :])  # even in y
        assert np.array_equal(values[:, :c], -values[:, :c:-1])  # odd in x
        assert np.array_equal(fixed, fixed[::-1, ::-1])
        assert np.count_nonzero(fixed[s]) == 2 + 2 * paper_grid.electrode.size
        assert not np.signbit(values[fixed & (values == 0.0)]).any()

    @pytest.mark.parametrize("case", list(ORACLE_LAYOUTS))
    def test_quarter_residual_is_the_full_domain_residual(self, case):
        grid = solve_potential(*ORACLE_LAYOUTS[case])
        fixed, _ = dirichlet_nodes(*ORACLE_LAYOUTS[case])
        assert 0.0 < grid.residual_v == pytest.approx(full_grid_residual(grid.values, fixed), abs=1e-13)

    # a free node on the column x = 0, and one on the surface row between the electrodes:
    # their equations read the ghost column and the ghost row
    @pytest.mark.parametrize("node", [(5, 0), (0, 3)])
    def test_quarter_residual_rises_with_a_perturbed_node(self, node):
        grid = solve_potential(small_layout(), 2.0)
        assert node[1] < grid.electrode.min()
        quarter = grid.quarter.copy()
        quarter[node] += 1e-3
        perturbed = dataclasses.replace(grid, quarter=quarter)
        residual = _residual(quarter, grid.electrode)
        assert residual == pytest.approx(4e-3, rel=1e-9)  # the node's own equation
        fixed, _ = dirichlet_nodes(small_layout(), 2.0)
        assert residual == pytest.approx(full_grid_residual(perturbed.values, fixed), abs=1e-13)


def ellipk(k: float) -> float:
    """Complete elliptic integral of the first kind of modulus k, by the
    arithmetic-geometric mean (Abramowitz & Stegun 17.6)."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(6):  # converges quadratically: rounding level at k = 0.2
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return math.pi / (2.0 * a)


def strip_pair_field_per_volt(gap_um: float, width_um: float) -> float:
    """Exact surface field at the gap centre of two zero-thickness coplanar
    strips at +-V/2 on a <= |x| <= b in open space, per volt, in V/cm:
    ``V / (2 a K(a/b))`` (Wen, IEEE Trans. MTT 17, 1087, 1969)."""
    a = gap_um / 2.0
    b = a + width_um
    return 1.0 / (2.0 * a * ellipk(a / b)) * 1.0e4


class TestStripPairClosedForm:
    """The discrete field approaches the continuum strip pair's, first order in the spacing."""

    EXACT = strip_pair_field_per_volt(100.0, 200.0)

    def test_closed_form(self):
        assert self.EXACT == pytest.approx(63.0172198, abs=1e-7)
        special = pytest.importorskip("scipy.special")
        assert ellipk(0.2) == pytest.approx(float(special.ellipk(0.2**2)), rel=1e-15)

    def test_refinement_converges_to_closed_form(self):
        box = ElectrodeLayout(
            electrode_width_um=200.0,
            gap_um=100.0,
            electrode_potentials_v=(0.5, -0.5),
            domain_extent_um=(3000.0, 1800.0),
        )
        fields = [field_per_volt(box, spacing)[0].e_parallel_v_per_cm for spacing in (5.0, 2.5, 1.25)]
        errors = [field / self.EXACT - 1.0 for field in fields]  # +3.9%, +1.8%, +0.85%
        assert 0.0 < errors[2] < errors[1] < errors[0] < 0.05
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 < coarse / fine < 2.5  # first order: the field is singular at the strip edges
        richardson = 2.0 * fields[2] - fields[1]
        assert abs(richardson / self.EXACT - 1.0) < 0.002

    def test_default_solve_reads_3_percent_high(self, paper_grid):
        field = field_at(paper_grid, (0.0, 0.0)).e_parallel_v_per_cm / 333.0
        assert field / self.EXACT - 1.0 == pytest.approx(0.032, abs=0.001)


def test_grid_csv_dump(tmp_path, capsys):
    # the grid dump is written by `field --dump-grid`: one x_um,y_um,potential_v row per node
    config = tmp_path / "small.toml"
    config.write_text(
        "[layout]\nelectrode_width_um = 60.0\ngap_um = 40.0\n"
        "electrode_potentials_v = [10.0, -10.0]\ndomain_extent_um = [360.0, 200.0]\n\n"
        "[solver]\nspacing_um = 2.0\n",
        encoding="utf-8",
    )
    assert main(["field", "--config", str(config), "--out", str(tmp_path), "--dump-grid"]) == 0
    capsys.readouterr()
    grid = solve_potential(small_layout(), 2.0)
    lines = (tmp_path / "potential_grid.csv").read_text().splitlines()
    assert lines[0] == "x_um,y_um,potential_v"
    assert len(lines) == 1 + grid.values.size
    x0, y0 = grid.x_coords_um[0], grid.y_coords_um[0]
    assert lines[1] == f"{x0:.17g},{y0:.17g},{grid.values[0, 0]:.17g}"
