"""starksim benchmark: time the CLI as users run it.

Usage, from the repository root:

    python3 bench/run.py --workload sweep|counting|refine --seed N --seconds S --trace 0|1

One process is one closed-loop client with no threads: it sends the next
op only after the previous one has finished. An op is a short sequence
of ``starksim`` commands (see ``workloads.py``) run in-process through
``starksim.cli.main(argv)``, each with its own temporary ``--out`` under
``.bench_out/``. ``--seconds`` sets the amount of work: a run does the
first ``--seconds / NOMINAL_OP_S`` ops of its seed (at least ``MIN_OPS``),
which take about ``--seconds`` at the baseline commit. The op set depends
only on the workload, the seed and ``--seconds``, never on how fast the
program is, so two versions are checked on the same ops and a failing op
fails in both; a faster program measures the same ops in less time.
Every op's outputs are checked; an op fails on a non-zero exit code, an
exception or a failed check. The refine oracle runs after the loop,
outside every timed region, and after the peak RSS is read, so scipy adds
neither time nor memory. ``setup_s`` is the median set-up time of this
process and of ``SETUP_PROBES`` fresh processes started between ops.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
second op traced (``tracing.py``) and reports the per-layer metrics, per
op, plus the tracing overhead against the untraced ops; the spans are
written to ``.bench_out/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

MIN_OPS = 11  # the smallest count for which a percentile has 10 ops beyond it
MAX_LOOP_S = 120.0  # stop adding ops after this, so a run ends well within 180 s on a slow machine
SETUP_PROBES = 10  # fresh processes timed for setup_s, besides this one, run between ops
# Median seconds per op at the baseline commit (bench/baseline.json, 2 vCPU Xeon).
# Fixed constants, not measured per run, so the op count never depends on speed.
NOMINAL_OP_S = {"sweep": 0.5, "counting": 0.29, "refine": 2.1}


def _op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))


@dataclass
class OpRecord:
    index: int
    seconds: float
    failures: list[str]
    field: dict | None = None  # refine: the printed probe field, checked against the oracle later
    rel_err: float | None = None
    traced: bool = False


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "starksim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_probe(args) -> float:
    """Set-up time of a fresh process that imports the CLI and generates the inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=ROOT, env=os.environ, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _argv(command, op_dir: Path, earlier: dict) -> list[str] | None:
    """The command's argv with "@file" and "$command.key" filled in; None if an input is missing."""
    from workloads import parse_key_values

    argv = []
    for arg in command.argv:
        if arg.startswith("@"):
            arg = str(op_dir / arg[1:])
        if "$" in arg:
            head, reference = arg.split("$", 1)
            name, key = reference.split(".", 1)
            result = earlier.get(name)
            value = parse_key_values(result.stdout).get(key) if result and result.exit_code == 0 else None
            if value is None:
                return None
            arg = head + value
        argv.append(arg)
    return argv


def _run_command(cli, command, op, op_dir: Path, earlier: dict):
    from workloads import CommandResult

    out_dir = op_dir / command.name
    argv = _argv(command, op_dir, earlier)
    if argv is None:
        return 0.0, CommandResult(command.name, None, "", "", error="not run: an earlier command gave no input")
    argv += ["--config", str(op_dir / "config.toml"), "--seed", str(op.seed), "--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            code = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.read_text(encoding="utf-8", errors="replace") for p in out_dir.iterdir() if p.is_file()}
    return elapsed, CommandResult(command.name, code, stdout.getvalue(), stderr.getvalue(), files, error)


def execute(cli, op, work: Path):
    """Run one op's commands; returns the timed seconds and the captured results."""
    op_dir = work / f"op{op.index}"
    op_dir.mkdir()
    (op_dir / "config.toml").write_text(op.geometry.config_text(), encoding="utf-8")
    seconds, results = 0.0, {}
    for command in op.commands:
        elapsed, results[command.name] = _run_command(cli, command, op, op_dir, results)
        seconds += elapsed
    shutil.rmtree(op_dir)
    return seconds, list(results.values())


def _run_op(cli, op, work: Path, tracer=None) -> OpRecord:
    from workloads import check

    if tracer is not None:
        tracer.op = op.index
        tracer.install()
    try:
        seconds, results = execute(cli, op, work)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, field_values = check(op, results)
    return OpRecord(op.index, seconds, failures, field_values, traced=tracer is not None)


def _loop(cli, args, ops, work: Path, tracer=None) -> tuple[list[OpRecord], list[float]]:
    """Closed loop over the ops; returns their records and the set-up probe times.

    With a tracer, every second op runs traced. The set-up probes run
    between ops, spread evenly over them. Both keep drifts in machine
    speed during a run out of the comparisons.
    """
    records: list[OpRecord] = []
    setup: list[float] = []
    wall_start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - wall_start > MAX_LOOP_S:
            print(f"stopped after {len(records)} of {len(ops)} ops: {MAX_LOOP_S:g} s loop limit", file=sys.stderr)
            break
        records.append(_run_op(cli, op, work, tracer if op.index % 2 else None))
        while len(setup) < SETUP_PROBES * len(records) // len(ops):
            setup.append(_setup_probe(args))
    setup += [_setup_probe(args) for _ in range(SETUP_PROBES - len(setup))]
    return records, setup


def _oracle_checks(ops, records: list[OpRecord]) -> None:
    from oracle import exact_probe_field
    from workloads import check_refine_oracle

    for record in records:
        if record.field is not None:
            failures, record.rel_err = check_refine_oracle(record.field, exact_probe_field(ops[record.index].geometry))
            record.failures += failures


def _tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile with at least 10 ops beyond it, and that percentile.

    With fewer than 21 ops this percentile is at or below the median.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_OPS:  # no percentile has 10 ops beyond it; report the slowest op
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "starksim" / "__init__.py").is_file():
        print(f"error: no starksim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("STARKSIM_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, make_ops

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    import starksim.cli as cli

    ops = make_ops(args.workload, args.seed, _op_count(args.workload, args.seconds))
    setup_self = time.perf_counter() - _PROCESS_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_self}))
        return 0

    signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop like Ctrl-C, so the cleanup below runs
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        records, setup_samples = _loop(cli, args, ops, work, tracer)
        setup_samples.append(setup_self)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.workload == "refine":
        _oracle_checks(ops, records)

    attempted = len(records)
    failed = sum(bool(r.failures) for r in records)
    env = _environment()
    print(f"env {json.dumps(env)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} ops={attempted} failed={failed}")
    for record in records:
        for failure in record.failures[:5]:
            print(f"FAILED op {record.index}: {failure}")

    untraced = [r for r in records if not r.traced]
    times = [r.seconds for r in untraced]
    tail, percentile = _tail(times)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "ops_per_s": sum(not r.failures for r in untraced) / sum(times),
        "peak_rss_mib": peak_rss_mib,
    }
    notes = {"setup_s": f"median of {len(setup_samples)} fresh processes",
             "op_tail_s": f"p{percentile} of {len(times)} ops",
             "peak_rss_mib": "traced ops included" if args.trace else ""}
    units = _units("end_to_end")
    for name, value in end_to_end.items():
        print(f"  {name:<16} {value:12.6g} {units[name]:<4} {notes.get(name, '')}")
    print(f"  {'failed_op_ratio':<16} {failed / attempted:12.6g}      {failed}/{attempted} ops")
    rel_errs = [r.rel_err for r in records if r.rel_err is not None]
    if rel_errs:
        oracle = {"ops": len(rel_errs), "median_rel_err": statistics.median(rel_errs), "max_rel_err": max(rel_errs)}
        print(f"oracle {json.dumps(oracle)}")

    if args.trace:
        from tracing import layer_metrics

        traced = [r for r in records if r.traced]
        layers = layer_metrics(tracer, [r.index for r in traced])
        layers["electrostatics.field_rel_err"] = statistics.median(rel_errs) if rel_errs else 0.0
        layers["trace_overhead_ratio"] = statistics.median(r.seconds for r in traced) / statistics.median(times)
        layers["failed_op_ratio"] = failed / attempted
        units = _units("per_layer")
        for name, value in layers.items():
            print(f"  {name:<40} {value:14.6g} {units.get(name, '')}")
        absent = tracer.absent()
        if absent:
            print(f"absent (metrics read 0): {', '.join(absent)}")
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer") from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    raise SystemExit(main())
