import dataclasses
import math

import numpy as np
import pytest
from conftest import dirichlet_nodes, full_grid_field, full_grid_residual

from starksim import ConfigError
from starksim.cli import GRID_COLUMNS, main
from starksim.config import default_config
from starksim.csvio import read_table
from starksim.electrostatics import (
    ElectrodeLayout,
    PotentialGrid,
    check_grid,
    field_at,
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
        raise ConfigError(f"gap must be positive, got {gap_um}")
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


def hand_made_grid(spacing_um, quarter, electrode=()):
    """A grid whose built quarter is ``quarter``: the probe, the residual and the full grid read it,
    and its modes, which no read reaches once the quarter is built, are zero."""
    rows, cols = quarter.shape[0] - 1, quarter.shape[1] - 1
    grid = PotentialGrid(
        spacing_um, cols, rows, np.asarray(electrode, dtype=int), np.zeros(cols - 1), np.zeros(cols - 1, complex)
    )
    vars(grid)["quarter"] = quarter  # where the cached property keeps the quarter it builds
    return grid


def ramp_grid(slope_v_per_um=1.0, n=21, spacing=1.0):
    """The ramp ``slope * x`` on [-(n-1)h, (n-1)h]^2: odd in x and even in y, so held as its quarter."""
    x = spacing * np.arange(n)
    return hand_made_grid(spacing, np.tile(slope_v_per_um * x, (n, 1)))


class TestUniformFieldOracle:
    def test_arithmetic(self):
        assert uniform_field_oracle(100.0, 100.0) == pytest.approx(1.0e4)

    def test_zero_voltage(self):
        assert uniform_field_oracle(0.0, 123.0) == 0.0

    def test_rejects_bad_gap(self):
        with pytest.raises(ConfigError):
            uniform_field_oracle(1.0, 0.0)


class TestParallelPlates:
    def test_solver_field_bounded_by_oracle(self, paper_grid):
        bound = uniform_field_oracle(333.0, 100.0)
        e_parallel, _ = field_at(paper_grid, (0.0, 0.0))
        assert abs(PAPER_LAYOUT.bias_v * e_parallel) < bound


class TestSolvePotential:
    def test_electrodes_pinned_exactly(self):
        # the grid is per volt: +-1/2 V, which the bias scales to the layout's Dirichlet data
        grid = solve_potential(small_layout(), 2.0)
        fixed, values = dirichlet_nodes(small_layout(), 2.0)
        assert set(np.unique(grid.values[fixed])) == {-0.5, 0.0, 0.5}
        assert np.array_equal(small_layout().bias_v * grid.values[fixed], values[fixed])

    def test_golden_probe_field(self, paper_grid):
        e_parallel, e_perpendicular = field_at(paper_grid, (0.0, 0.0))
        assert PAPER_LAYOUT.bias_v * e_parallel == pytest.approx(GOLDEN_E_PARALLEL_333V, rel=1e-6)
        assert PAPER_LAYOUT.bias_v * e_perpendicular == pytest.approx(0.0, abs=1e-6)

    def test_offset_probe_sees_smaller_field(self, paper_grid):
        centre, _ = field_at(paper_grid, (0.0, 0.0))
        offset, _ = field_at(paper_grid, (0.0, 30.0))
        assert abs(offset) < abs(centre)

    def test_discrete_maximum_principle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            bias = rng.uniform(-100.0, 100.0)
            values = bias * solve_potential(small_layout((bias / 2.0, -bias / 2.0)), 2.0).values
            assert values.min() >= -abs(bias) / 2.0 - 1e-9
            assert values.max() <= abs(bias) / 2.0 + 1e-9

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
        e_base, _ = field_at(paper_grid, (0.0, 0.0))
        e_doubled, _ = field_at(grid, (0.0, 0.0))
        assert abs(e_doubled - e_base) / e_base < 0.01

    def test_too_coarse_spacing_rejected(self):
        with pytest.raises(ConfigError):
            solve_potential(small_layout(), 3.0)

    def test_potentials_are_not_read(self):
        # the solve is per volt, so no bias, not even one that overflows, reaches it
        grid = solve_potential(small_layout(), 2.0)
        for potentials in ((0.0, 0.0), (25.0, -4.0), (1e308, -1e308)):
            other = solve_potential(small_layout(potentials), 2.0)
            assert np.array_equal(other.quarter, grid.quarter) and other.residual_v == grid.residual_v


class TestLayoutValidation:
    def test_rejects_negative_gap(self):
        with pytest.raises(ConfigError):
            ElectrodeLayout(200.0, -1.0, (1.0, -1.0), (1000.0, 600.0))

    def test_rejects_thin_margin(self):
        with pytest.raises(ConfigError):
            ElectrodeLayout(200.0, 100.0, (1.0, -1.0), (880.0, 600.0))
        # margin of exactly 2x gap is allowed
        ElectrodeLayout(200.0, 100.0, (1.0, -1.0), (900.0, 600.0))

    def test_rejects_probe_outside_domain(self):
        # the layout alone knows no grid: the probe is held inside it where the grid is built
        layout = ElectrodeLayout(200.0, 100.0, (1.0, -1.0), (1000.0, 600.0), probe_point_um=(600.0, 0.0))
        for check in (check_grid, solve_potential):
            with pytest.raises(ConfigError, match="probe_point_um"):
                check(layout, 5.0)


class TestFieldAt:
    def test_linear_ramp_gradient_exact(self):
        grid = ramp_grid(1.0)
        for probe in [(5.0, 5.0), (7.3, 11.2), (14.9, 3.4), (-7.3, 11.2), (-14.9, -3.4), (0.4, -19.0)]:
            e_parallel, e_perpendicular = field_at(grid, probe)
            assert abs(e_parallel) == pytest.approx(1.0e4, rel=1e-12)
            assert e_parallel == pytest.approx(-1.0e4)  # negated gradient
            assert e_perpendicular == pytest.approx(0.0, abs=1e-9)

    def test_constant_grid_zero_field(self):
        grid = ramp_grid(0.0)
        assert field_at(grid, (8.0, 8.0)) == (0.0, 0.0)

    def test_probe_outside_grid_rejected(self):
        grid = ramp_grid(1.0)
        with pytest.raises(ConfigError):
            field_at(grid, (30.0, 5.0))
        with pytest.raises(ConfigError):
            field_at(grid, (5.0, -19.8))

    def test_load_check_is_the_probe_rule(self):
        # check_grid refuses exactly the points field_at refuses: those not one cell inside the grid's edge
        layout, spacing = PAPER_LAYOUT, 5.0
        grid = solve_potential(layout, spacing)
        x, y = grid.x_coords_um[-2], grid.y_coords_um[-2]  # 495 and 295 um
        for point in [(x, 0.0), (-x, y), (np.nextafter(x, 1e3), 0.0), (0.0, -np.nextafter(y, 1e3)), (498.0, 0.0)]:
            try:
                field_at(grid, point)
            except ConfigError:
                with pytest.raises(ConfigError, match=r"^\[layout\].probe_point_um .* is not one cell \(5 um\)"):
                    check_grid(dataclasses.replace(layout, probe_point_um=point), spacing)
            else:
                check_grid(dataclasses.replace(layout, probe_point_um=point), spacing)


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


def assert_bitwise_equal(a: tuple[float, float], b: tuple[float, float]) -> None:
    assert [x.hex() for x in a] == [x.hex() for x in b]


class TestQuarterGrid:
    """The solve keeps the charges' modes: the probe builds the quarter rows it reads through the mirror,
    and the quarter, its residual and the mirrored full grid are built only when read."""

    def test_probe_builds_only_the_rows_its_stencil_touches(self, monkeypatch):
        shapes = []
        irfft = np.fft.irfft

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        grid = solve_potential(PAPER_LAYOUT, 2.5)
        assert shapes == [(grid.cols + 1,)]  # the solve's one transform: the surface Green's function
        for point in probe_points(grid):
            shapes.clear()
            field_at(grid, point)
            assert len(shapes) == 1 and shapes[0][0] <= 4, (point, shapes)
        assert not {"quarter", "values", "residual_v"} & set(vars(grid))
        assert grid.quarter.shape == (grid.rows + 1, grid.cols + 1)
        assert shapes[-1] == (grid.rows + 1, grid.cols)  # the quarter, built once it is read

    def test_field_command_builds_no_quarter(self, monkeypatch, capsys, tmp_path):
        # `field` and `resonance` read the probe alone; only --dump-grid reads the full grid
        built = []
        monkeypatch.setattr(PotentialGrid, "quarter", property(lambda grid: built.append(grid) or 1 / 0))
        for argv in (["field"], ["resonance", "--ion-a", "ion1", "--ion-b", "ion7"]):
            assert main([*argv, "--out", str(tmp_path)]) == 0
        assert not built
        capsys.readouterr()

    def test_row_read_is_the_built_quarter_read(self):
        # the probe on the rows its stencil touches equals the probe through the whole built quarter, bit for bit,
        # on the surface row, a cell above and below it, a cell below the top wall and at random points
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        spacings = st.sampled_from([5.0, 2.5, 1.25]) | st.floats(1.2, 5.0)
        layouts = st.builds(
            lambda gap, width, extra_x, extra_y: ElectrodeLayout(
                width, gap, (0.5, -0.5), (gap + 2.0 * width + 8.0 * gap + extra_x, 4.0 * gap + extra_y)
            ),
            st.floats(100.0, 140.0), st.floats(10.0, 150.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0),
        )
        unit = st.floats(-1.0, 1.0)

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(layouts, spacings, unit, unit)
        def check(layout, spacing, fx, fy):
            grid = solve_potential(layout, spacing)
            h = grid.spacing_um
            # a hair inside the nodes one cell in from the walls, which rounding can put a hair outside
            x, y = (coords[-2] - 1e-9 * h for coords in (grid.x_coords_um, grid.y_coords_um))
            probes = [(fx * x, level) for level in (0.0, h, -h, y, -y, fy * y)] + [(-x, -y), (x, fy * y)]
            from_rows = [field_at(grid, point) for point in probes]
            assert "quarter" not in vars(grid)
            assert grid.quarter.shape == (grid.rows + 1, grid.cols + 1)
            for point, probe in zip(probes, from_rows):
                assert_bitwise_equal(probe, field_at(grid, point))
                assert_bitwise_equal(probe, full_grid_field(grid.values, -grid.cols * h, -grid.rows * h, h, point))

        check()

    @pytest.mark.parametrize("case", list(ORACLE_LAYOUTS) + ["small_2um"])
    def test_probe_through_the_mirror_is_the_full_grid_probe(self, case):
        layout, spacing = ORACLE_LAYOUTS.get(case, (small_layout(), 2.0))
        grid = solve_potential(layout, spacing)
        for point in probe_points(grid):
            expected = full_grid_field(grid.values, grid.x_coords_um[0], grid.y_coords_um[0], spacing, point)
            assert_bitwise_equal(field_at(grid, point), expected)

    def test_last_interior_node_is_probed(self, paper_grid):
        # a probe one cell inside the far edges reads the node itself
        x, y = paper_grid.x_coords_um[-2], paper_grid.y_coords_um[-2]
        corner = field_at(paper_grid, (x, y))
        inside = field_at(paper_grid, (x - 1e-9, y - 1e-9))
        assert corner == pytest.approx(inside, rel=1e-9)

    def test_zero_voltage_grid_is_positive_zero(self, capsys, tmp_path):
        # `field --voltage 0` scales the grid by 0 and dumps "0" in every cell; a zero quarter mirrors and probes to +0
        assert main(["field", "--voltage", "0", "--out", str(tmp_path), "--dump-grid"]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines() if "=" in line)
        assert printed["e_parallel_v_per_cm"] == printed["e_perpendicular_v_per_cm"] == "0"
        config = default_config()
        grid = solve_potential(config.layout, config.solver.spacing_um)
        zero = hand_made_grid(grid.spacing_um, np.zeros_like(grid.quarter), grid.electrode)
        assert zero.values.shape == grid.values.shape
        assert not zero.values.any() and not np.signbit(zero.values).any()
        potentials = [row.rsplit(",", 1)[1] for row in (tmp_path / "potential_grid.csv").read_text().splitlines()[1:]]
        assert potentials == ["0"] * zero.values.size
        for point in probe_points(zero):
            expected = full_grid_field(zero.values, zero.x_coords_um[0], zero.y_coords_um[0], zero.spacing_um, point)
            assert_bitwise_equal(field_at(zero, point), expected)

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
        perturbed = hand_made_grid(grid.spacing_um, quarter, grid.electrode)
        residual = _residual(quarter, grid.electrode)
        assert perturbed.residual_v == residual
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
        fields = [field_at(solve_potential(box, spacing), (0.0, 0.0))[0] for spacing in (5.0, 2.5, 1.25)]
        errors = [field / self.EXACT - 1.0 for field in fields]  # +3.9%, +1.8%, +0.85%
        assert 0.0 < errors[2] < errors[1] < errors[0] < 0.05
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 < coarse / fine < 2.5  # first order: the field is singular at the strip edges
        richardson = 2.0 * fields[2] - fields[1]
        assert abs(richardson / self.EXACT - 1.0) < 0.002

    def test_default_solve_reads_3_percent_high(self, paper_grid):
        field, _ = field_at(paper_grid, (0.0, 0.0))
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
    assert lines[0] == ",".join(GRID_COLUMNS)
    assert len(lines) == 1 + grid.values.size
    x0, y0 = grid.x_coords_um[0], grid.y_coords_um[0]
    assert lines[1] == f"{x0:.17g},{y0:.17g},0"
    # the bias, 20 V, times the per-volt grid
    potentials = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert potentials == (small_layout().bias_v * grid.values).ravel().tolist()


def test_grid_dump_coordinates_mirror_about_zero(tmp_path, capsys):
    # at a spacing that is no power of two, x0 + h * j left 158 of the 305 x pairs
    # that are not each other's negatives; the nodes are the rounded multiples h * k
    config = tmp_path / "spacing.toml"
    config.write_text("[solver]\nspacing_um = 3.3\n", encoding="utf-8")
    assert main(["field", "--config", str(config), "--out", str(tmp_path), "--dump-grid"]) == 0
    capsys.readouterr()
    x, y, _ = read_table(tmp_path / "potential_grid.csv", GRID_COLUMNS)
    for coords in (np.unique(x), np.unique(y)):
        half = coords.size // 2
        assert np.array_equal(coords, 3.3 * np.arange(-half, half + 1))
        assert np.array_equal(coords, -coords[::-1])
