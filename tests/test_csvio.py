import numpy as np
import pytest

from starksim.cli import FITS, GRID_COLUMNS, REPORT_COLUMNS
from starksim.csvio import read_table, write_table

# every table the program writes: the four datasets, the fit report and the grid dump
TABLES = {**{kind: columns for kind, (_, columns, *_) in FITS.items()}, "report": REPORT_COLUMNS, "grid": GRID_COLUMNS}


@pytest.mark.parametrize("name", list(TABLES))
def test_every_table_round_trips_exactly(tmp_path_factory, name):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    table = TABLES[name]
    edges = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    cells = {
        float: st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(edges),
        int: st.integers(-(2**63), 2**63 - 1),
        # ids and units: any text but the CSV's separators and quote, the lone surrogates UTF-8
        # cannot encode, and NUL, which numpy's str arrays drop from the end of a string
        str: st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x00')),
    }
    rows = st.lists(st.tuples(*(cells[kind] for kind in table.values())), max_size=20)
    path = tmp_path_factory.mktemp(name) / "table.csv"

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(rows)
    def check(drawn):
        columns = [list(column) for column in zip(*drawn)] or [[] for _ in table]
        read = read_table(write_table(path, table, columns), table)
        assert len(read) == len(columns)
        for kind, values, written in zip(table.values(), read, columns):
            assert isinstance(values, np.ndarray)
            # repr tells -0.0 from 0.0 and a float from an int, and round-trips every float
            assert list(map(repr, values.tolist())) == list(map(repr, written))
            assert not written or np.dtype(values.dtype).kind == {float: "f", int: "i", str: "U"}[kind]

    check()
