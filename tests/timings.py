"""Perf trajectory: time starksim's commands and write ``BENCH_<pr>.json`` at the repository root.

    python tests/timings.py PR [--repeats N] [--tier1] [--out PATH]

Every number comes from the source of this checkout, at the fixed seed
``SEED``, on the default config:

- ``commands``: each command of ``COMMANDS`` through ``starksim.cli.main``
  in this process, in a temporary working directory. One first round is
  recorded as ``first_s``; then ``--repeats`` rounds alternate the
  commands, and each command's median, interquartile range and median
  minor page faults are recorded. ``traced_peak_mib`` is the most memory
  ``tracemalloc`` saw held at once in one more call. ``cold_s`` is the
  median over ``--repeats`` fresh processes of the command, alternated
  the same way; ``cold_references`` holds that of a bare Python process
  and of one that imports numpy alone.
- ``stages``: each figure's pipeline as ``cli.FITS`` declares it, its
  dataset function, ``write_table``, ``read_table`` and its fit stage,
  each timed on its own, median over ``--repeats`` rounds.
- ``refinement``: the probe field's solve at each spacing of the
  5 -> 0.625 um chain, median over ``--repeats``, and the field it gives.
- ``machine``: CPU model and count, Python and numpy versions.
- ``tier1``: with ``--tier1``, the wall time of one pytest process of
  the tier-1 suite and its summary line; ``null`` without it.

A claim quotes the parent's and the change's files, measured alternately
on one host; ``bench/run.py`` stays the gate for ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from starksim import cli  # noqa: E402
from starksim.config import default_config  # noqa: E402
from starksim.csvio import read_table, write_table  # noqa: E402
from starksim.electrostatics import field_at, solve_potential  # noqa: E402

SEED = 1
COMMANDS = {
    **{figure: ["reproduce", figure, "--out", f"out/{figure}"] for figure in cli.FIGURES},
    "field": ["field"],
    "resonance": ["resonance", "--ion-a", "ion1", "--ion-b", "ion7"],
}
REFERENCES = {"python": "pass", "numpy": "import numpy"}  # the cold floor under every command
SPACINGS_UM = (5.0, 2.5, 1.25, 0.625)
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}  # every child process runs this checkout's source


def _spread(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(samples, [25, 50, 75]).tolist()
    return {"median_s": median, "iqr_s": q3 - q1}


def _in_process(argv: list[str]) -> tuple[float, int]:
    """One ``main`` call's wall time and minor page faults; a call that fails stops the script."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"starksim {' '.join(argv)} exited {code}")
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _cold(args: list[str]) -> float:
    """One fresh Python process's wall time; a process that fails stops the script."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=ENV, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _traced_peak(argv: list[str]) -> float:
    """The largest memory, in MiB, that Python and numpy held at once during one ``main`` call, above its start."""
    tracemalloc.start()
    try:
        _in_process(argv)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def time_commands(repeats: int) -> tuple[dict, dict]:
    """``commands`` and ``cold_references``, from a temporary working directory."""
    runs = {name: [*argv, "--seed", str(SEED)] for name, argv in COMMANDS.items()}
    cold_args = {name: ["-c", "import sys; from starksim.cli import main; sys.exit(main(sys.argv[1:]))", *argv]
                 for name, argv in runs.items()}
    cold_args.update({name: ["-c", code] for name, code in REFERENCES.items()})
    warm: dict[str, list[tuple[float, int]]] = {name: [] for name in runs}
    cold: dict[str, list[float]] = {name: [] for name in cold_args}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            first = {name: _in_process(argv)[0] for name, argv in runs.items()}
            for _ in range(repeats):
                for name, argv in runs.items():
                    warm[name].append(_in_process(argv))
            peaks = {name: _traced_peak(argv) for name, argv in runs.items()}
            for _ in range(repeats):
                for name, args in cold_args.items():
                    cold[name].append(_cold(args))
        finally:
            os.chdir(cwd)
    commands = {}
    for name, argv in runs.items():
        seconds, faults = zip(*warm[name])
        commands[name] = {"argv": argv, "first_s": first[name], **_spread(list(seconds)),
                          "minor_faults": float(np.median(faults)), "traced_peak_mib": peaks[name],
                          "cold_s": float(np.median(cold[name]))}
    return commands, {name: {"cold_s": float(np.median(cold[name]))} for name in REFERENCES}


def time_stages(repeats: int) -> dict[str, dict[str, float]]:
    """Each figure's dataset function, ``write_table``, ``read_table`` and fit stage, alternating the figures."""
    config = default_config()
    samples: dict[str, list[list[float]]] = {figure: [] for figure in cli.FIGURES}
    with tempfile.TemporaryDirectory() as work:
        for _ in range(repeats):
            for figure, kind in cli.FIGURES.items():
                name, columns, dataset, fit = cli.FITS[kind]
                args = cli._build_parser().parse_args(["reproduce", figure])
                ticks = [time.perf_counter()]
                data = dataset(args, config, SEED)
                ticks.append(time.perf_counter())
                path = write_table(Path(work) / name, columns, data)
                ticks.append(time.perf_counter())
                read_back = read_table(path, columns)
                ticks.append(time.perf_counter())
                fit(config, *read_back)
                ticks.append(time.perf_counter())
                samples[figure].append(np.diff(ticks).tolist())
    stages = ("dataset_s", "write_table_s", "read_table_s", "fit_s")
    return {figure: dict(zip(stages, np.median(rows, axis=0).tolist())) for figure, rows in samples.items()}


def time_refinement(repeats: int) -> dict[str, dict[str, float]]:
    """The probe field's solve and read at each spacing of the refinement chain, on the default layout."""
    layout = default_config().layout
    chain = {}
    for spacing in SPACINGS_UM:
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            field = field_at(solve_potential(layout, spacing), layout.probe_point_um)
            seconds.append(time.perf_counter() - start)
        chain[f"{spacing:g}um"] = {"median_s": float(np.median(seconds)), "e_parallel_v_per_cm_per_v": field[0]}
    return chain


def machine() -> dict[str, object]:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
        model = next(line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name"))
    except (OSError, StopIteration):
        model = platform.processor()
    return {"cpu_model": model, "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def time_tier1() -> dict[str, object]:
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=ENV, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, "exit": result.returncode,
            "summary": (result.stdout.strip().splitlines() or [""])[-1]}


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="the PR whose checkout this is: the file is BENCH_<pr>.json")
    parser.add_argument("--repeats", type=int, default=21, help="rounds of each timing (default 21)")
    parser.add_argument("--tier1", action="store_true", help="also time one run of the tier-1 suite")
    parser.add_argument("--out", type=Path, default=None, help="write here instead of the root's BENCH_<pr>.json")
    args = parser.parse_args(argv)
    commands, references = time_commands(args.repeats)
    record = {
        "pr": args.pr,
        "seed": SEED,
        "repeats": args.repeats,
        "machine": machine(),
        "commands": commands,
        "cold_references": references,
        "stages": time_stages(args.repeats),
        "refinement": time_refinement(args.repeats),
        "tier1": time_tier1() if args.tier1 else None,
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return out


if __name__ == "__main__":
    print(main())
