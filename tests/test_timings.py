"""The perf-trajectory script writes a record with every key it promises."""

import json
import subprocess
import sys
from pathlib import Path

from starksim.cli import FIGURES

ROOT = Path(__file__).resolve().parents[1]


def test_timings_writes_every_key(tmp_path):
    # one round of everything but the tier-1 run, which would run this test again
    out = tmp_path / "BENCH_0.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "timings.py"), "0", "--repeats", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == f"{out}\n"
    record = json.loads(out.read_text(encoding="utf-8"))
    assert list(record) == ["pr", "seed", "repeats", "machine", "commands", "cold_references", "stages",
                            "refinement", "tier1"]
    assert (record["pr"], record["repeats"], record["tier1"]) == (0, 1, None)
    assert list(record["machine"]) == ["cpu_model", "cpu_count", "python", "numpy", "platform"]
    assert list(record["commands"]) == [*FIGURES, "field", "resonance"]
    for entry in record["commands"].values():
        assert list(entry) == ["argv", "first_s", "median_s", "iqr_s", "minor_faults", "traced_peak_mib", "cold_s"]
        assert entry["argv"][-2:] == ["--seed", str(record["seed"])]
        assert entry["median_s"] > 0.0 and entry["iqr_s"] == 0.0 and entry["cold_s"] > 0.0
    assert list(record["cold_references"]) == ["python", "numpy"]
    assert list(record["stages"]) == list(FIGURES)
    for stages in record["stages"].values():
        assert list(stages) == ["dataset_s", "write_table_s", "read_table_s", "fit_s"]
        assert min(stages.values()) > 0.0
    assert list(record["refinement"]) == ["5um", "2.5um", "1.25um", "0.625um"]
