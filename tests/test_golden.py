"""The golden matrix of ``tests/golden.py`` against its committed table."""

import json

import numpy as np
import pytest

import golden


def test_outputs_match_the_golden_table():
    expected = json.loads(golden.TABLE.read_text(encoding="utf-8"))
    if expected["numpy"] != np.__version__:
        pytest.skip(f"the golden table was written under numpy {expected['numpy']}, this is numpy {np.__version__}")
    actual = golden.run_matrix()
    differences = []
    for name in sorted(expected["runs"].keys() | actual.keys()):
        old, new = expected["runs"].get(name), actual.get(name)
        if old is None or new is None:
            differences.append(f"{name}: {'not in the table' if old is None else 'no longer run'}")
            continue
        differences += [f"{name}: {field} differs" for field in ("exit", "stdout", "stderr", "warnings")
                        if old[field] != new[field]]
        differences += [f"{name}: {path} differs" for path in sorted(old["files"].keys() | new["files"].keys())
                        if old["files"].get(path) != new["files"].get(path)]
    assert not differences, "outputs differ from tests/fixtures/golden.json (regenerate: python tests/golden.py):\n" \
        + "\n".join(differences)
