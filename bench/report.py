"""Run the benchmark over several seeds and summarise it.

Usage, from the repository root:

    python3 bench/report.py                      # every workload, seeds 1-10
    python3 bench/report.py --trace --baseline bench/baseline.json

Each run is a fresh ``bench/run.py`` process with ``BENCHMARK.json``'s
``run_seconds``, as the benchmark is meant to be run, so every run does
the same ops as at the baseline. For every workload this prints each
end-to-end metric by name and unit with its median, quartiles and spread
(interquartile range over median) against the bound in ``BENCHMARK.json``,
the ops attempted and failed, and which op of which seed failed; on
refine it adds the median and maximum field error against the oracle.
``--trace`` adds one traced run per workload (seed 1) and prints the
per-layer table; ``--baseline`` writes all of it, with the machine
description, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import MOVES  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One fresh benchmark process: its result line, machine description, oracle errors, wall time and failures."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")

    def tagged(tag):
        return next((json.loads(line[len(tag) + 1:]) for line in lines if line.startswith(tag + " ")), None)

    failures = [line for line in lines if line.startswith("FAILED")]
    for failure in failures:
        print(f"    {workload} seed {seed}: {failure}")
    return {"result": json.loads(lines[-1]), "env": tagged("env"), "oracle": tagged("oracle"),
            "wall": wall, "failures": failures}


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--baseline", type=Path, help="write the summary to this JSON file")
    args = parser.parse_args()

    seconds, seeds = spec["run_seconds"], list(range(1, 11))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in seeds:
            run = _run(name, seed, seconds, 0)
            record.setdefault("env", run["env"])
            runs.append(run)
            result = run["result"]
            values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"  {name} seed {seed}: {run['wall']:.0f} s, ops {result['attempted']} "
                  f"failed {result['failed']}  {values}", flush=True)
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        entry = {"why": workload["why"], "ops_per_run": {s: r["result"]["attempted"] for s, r in zip(seeds, runs)},
                 "attempted": attempted, "failed": failed,
                 "failures": {s: r["failures"] for s, r in zip(seeds, runs) if r["failures"]}, "end_to_end": {}}
        print(f"{name}: {len(runs)} runs, {attempted} ops attempted, {failed} failed")
        oracles = [r["oracle"] for r in runs if r["oracle"]]
        if oracles:
            entry["oracle"] = {"ops": sum(o["ops"] for o in oracles),
                               "median_of_run_medians": statistics.median(o["median_rel_err"] for o in oracles),
                               "max_rel_err": max(o["max_rel_err"] for o in oracles)}
            print(f"  field_rel_err against the oracle: median {entry['oracle']['median_of_run_medians']:.3g}, "
                  f"max {entry['oracle']['max_rel_err']:.3g} over {entry['oracle']['ops']} ops")
        for metric_name, metric in bounds.items():
            summary = _summary([r["result"]["metrics"][metric_name]["value"] for r in runs])
            entry["end_to_end"][metric_name] = {"unit": metric["unit"], "bound": metric["bound"], **summary}
            flag = "ok" if summary["spread"] <= metric["bound"] else "WIDER THAN BOUND"
            print(f"  {metric_name:<14} {summary['median']:10.5g} {metric['unit']:<4} "
                  f"q1 {summary['q1']:.5g} q3 {summary['q3']:.5g} spread {summary['spread']:.3f} "
                  f"(bound {metric['bound']}) {flag}")
        if args.trace:
            result = _run(name, seeds[0], seconds, 1)["result"]
            entry["per_layer"] = {"seed": seeds[0], "attempted": result["attempted"],
                                  "failed": result["failed"], "metrics": {}}
            print(f"  traced run, seed {seeds[0]}: per op")
            for metric_name, metric in result["metrics"].items():
                entry["per_layer"]["metrics"][metric_name] = {**metric, "moves": MOVES.get(metric_name, "")}
                print(f"    {metric_name:<40} {metric['value']:12.5g} {metric['unit']:<10} "
                      f"{MOVES.get(metric_name, '')}")
        record["workloads"][name] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
        print(f"written {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
