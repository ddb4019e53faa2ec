"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every layer module and
replaces them, by identity, in every ``starksim.*`` namespace, because
``cli`` binds its imports with ``from .x import f``. Wrappers take
``*args, **kwargs`` so they survive signature changes. A span records
its name, start, end, parent span and op id; spans stay in memory and
``dump`` writes them out at the end of the run.

Functions that cost about as much as a span, such as the Stark and
cavity formulas evaluated per scan point and the model functions
evaluated per fit iteration, are counted but get no span.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "config", "electrostatics", "stark", "cavity", "experiment",
          "analysis", "optimize", "csvio", "manifest")

COUNT_ONLY_LAYERS = ("stark", "cavity")
SELF_LAYERS = tuple(layer for layer in LAYERS if layer not in (*COUNT_ONLY_LAYERS, "cli"))  # cli has cli.self_s
COUNT_ONLY = {
    "experiment.mix_seed", "experiment.point_generator",
    "experiment.emission_window_probability", "experiment.config_digest",
    "analysis.lorentzian", "analysis.lorentzian_jacobian",
    "analysis.exponential_decay", "analysis.exponential_decay_jacobian",
    "optimize.chi_square", "optimize.chi_square_gradient",
    "csvio.format_value",
}

SOLVE = "electrostatics.solve_potential"
PLE = "experiment.simulate_ple_scan"
DECAY = "experiment.simulate_decay_histogram"
G2 = "experiment.simulate_g2_histogram"
FITS = ("analysis.fit_lorentzian", "analysis.fit_exponential_decay", "analysis.fit_linear_weighted")
LEAST_SQUARES = "optimize.least_squares"
WRITE_TABLE = "csvio.write_table"
READ_TABLE = "csvio.read_table"
MANIFEST = "manifest.write_run_manifest"
LOAD_CONFIG = "config.load_config"
DUMPS_CONFIG = "config.dumps_config"
MAIN = "cli.main"
EXCITATION = "cavity.excitation_probability"

# Functions the per-layer metrics are computed from; any that the program
# no longer has are reported as absent and their metrics read 0.
REFERENCED = (SOLVE, PLE, DECAY, G2, *FITS, LEAST_SQUARES, WRITE_TABLE,
              READ_TABLE, MANIFEST, LOAD_CONFIG, DUMPS_CONFIG, MAIN, EXCITATION)


# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    # sweep's field, resonance and ple commands each solve the op's one geometry;
    # a cache living as long as the process would serve all three, which
    # separate starksim processes, as users run them, would not share
    "electrostatics.solve_calls": "op_p50_s on sweep",
    "electrostatics.unique_geometry_ratio": "op_p50_s on sweep",
    "electrostatics.solve_self_s": "op_p50_s on sweep and refine; stays 0 on counting",
    "electrostatics.sweeps": "op_p50_s on refine",
    "electrostatics.node_updates_per_s": "op_p50_s on refine (computed: grid nodes x sweeps / solve self time)",
    "electrostatics.field_rel_err": "op_p50_s on refine, through the solver's stopping rule",
    "experiment.decay_self_s": "op_p50_s and peak_rss_mib on counting",
    "experiment.g2_self_s": "op_p50_s and peak_rss_mib on counting",
    "experiment.ple_calls": "op_p50_s on sweep and counting",
    "experiment.ple_self_s": "op_p50_s on sweep and counting",
    "experiment.pulses_per_s": "op_p50_s on counting and sweep (computed: pulses the inputs imply / self time)",
    "analysis.fit_calls": "op_p50_s on counting; 0 on sweep",
    "analysis.fit_s": "op_p50_s on counting; 0 on sweep",
    "analysis.fit_failures": "op_p50_s on counting; 0 on sweep",
    "optimize.least_squares_calls": "op_p50_s on counting; 0 on sweep",
    "optimize.least_squares_self_s": "op_p50_s on counting; 0 on sweep",
    "optimize.iterations": "op_p50_s on counting; 0 on sweep",
    "csvio.write_s": "op_p50_s on counting; setup_s everywhere",
    "csvio.read_s": "op_p50_s on counting; setup_s everywhere",
    "csvio.bytes_written": "op_p50_s on counting; setup_s everywhere",
    "manifest.write_s": "op_p50_s on counting; setup_s everywhere",
    "config.load_s": "op_p50_s on counting; setup_s everywhere",
    "config.dumps_s": "op_p50_s on counting; setup_s everywhere",
    "cli.self_s": "op_p50_s on counting; setup_s everywhere",
    "stark.calls": "op_p50_s on sweep (count only: a call costs less than a span)",
    "cavity.excitation_probability_calls": "op_p50_s on sweep (count only: a call costs less than a span)",
    "trace_overhead_ratio": "none: the cost of tracing itself",
    "failed_op_ratio": "ops_per_s on every workload, which counts only ops that pass",
}
MOVES.update({f"{layer}.self_s": "that layer's share of op_p50_s on every workload" for layer in SELF_LAYERS})


def _bound(function, args, kwargs) -> dict:
    try:
        return inspect.signature(function).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _solve_meta(function, args, kwargs, result) -> dict:
    arguments = _bound(function, args, kwargs)
    layout = arguments.get("layout")
    key = repr(args)
    if layout is not None:
        try:
            bias = layout.electrode_potentials_v[0] - layout.electrode_potentials_v[1]
            unit = tuple(p / bias for p in layout.electrode_potentials_v) if bias else layout.electrode_potentials_v
            key = repr((layout.electrode_width_um, layout.gap_um, layout.domain_extent_um,
                        layout.probe_point_um, unit, arguments.get("dielectric"), arguments.get("spacing_um")))
        except (AttributeError, TypeError):
            pass
    values = getattr(result, "values", None)
    sweeps = getattr(result, "iterations", 0) or 0
    nodes = getattr(values, "size", 0)
    return {"geometry": key, "sweeps": sweeps, "node_updates": sweeps * nodes}


def _pulses_meta(function, args, kwargs, result) -> dict:
    arguments = _bound(function, args, kwargs)
    n_pulses = arguments.get("n_pulses")
    if n_pulses is None:  # PLE scan: pulses per point x points x ions
        try:
            protocol = arguments["protocol"]
            n_pulses = protocol.pulses_per_point * len(protocol.scan_frequencies_mhz()) * len(arguments["ions"])
        except (KeyError, AttributeError, TypeError):
            n_pulses = 0
    return {"pulses": int(n_pulses)}


def _iterations_meta(function, args, kwargs, result) -> dict:
    return {"iterations": getattr(result, "iterations", 0) or 0}


def _bytes_meta(function, args, kwargs, result) -> dict:
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


META = {SOLVE: _solve_meta, PLE: _pulses_meta, DECAY: _pulses_meta, G2: _pulses_meta,
        LEAST_SQUARES: _iterations_meta, WRITE_TABLE: _bytes_meta}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, child_s, failed, meta]
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.op: int = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: module for name, module in sys.modules.items()
                   if name == "starksim" or name.startswith("starksim.")}
        wrappers = {}
        for layer in LAYERS:
            module = modules.get(f"starksim.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                counted = layer in COUNT_ONLY_LAYERS or name in COUNT_ONLY
                wrappers[id(value)] = self._counter(name, value) if counted else self._span(name, value)
                self.wrapped.add(name)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def absent(self) -> list[str]:
        return [name for name in REFERENCED if name not in self.wrapped]

    def _counter(self, name, function):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.op][name] += 1
            return function(*args, **kwargs)

        return counted

    def _span(self, name, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        meta = META.get(name)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, True, None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = function(*args, **kwargs)
                record[6] = False
                return result
            finally:
                record[2] = end = clock()
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][5] += end - record[1]
                if meta is not None and not record[6]:
                    record[7] = meta(function, args, kwargs, result)

        return traced

    # -- output -------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        fields = ["name", "start", "end", "parent", "op", "child_s", "failed", "meta"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "span_fields": fields, "spans": self.spans,
                       "counts": {str(op): dict(c) for op, c in self.counts.items()},
                       "absent": self.absent()}, handle)


def _per_op(tracer: Tracer, ops: list[int]) -> dict[int, dict[str, float]]:
    """Per-op aggregates: count, inclusive and self seconds, failures and metadata sums."""
    table: dict[int, dict] = {op: defaultdict(float) for op in ops}
    geometries: dict[int, set] = {op: set() for op in ops}
    for name, start, end, _, op, child_s, failed, meta in tracer.spans:
        row = table.get(op)
        if row is None:
            continue
        row[f"{name}#n"] += 1
        row[f"{name}#s"] += end - start
        row[f"{name}#self"] += end - start - child_s
        row[f"{name.split('.')[0]}#self"] += end - start - child_s
        row[f"{name}#failed"] += failed
        for key, value in (meta or {}).items():
            if key == "geometry":
                geometries[op].add(value)
            else:
                row[f"{name}#{key}"] += value
    for op in ops:
        table[op]["geometries"] = len(geometries[op])
        for name, n in tracer.counts.get(op, {}).items():
            table[op][f"{name}#n"] += n
            table[op][f"{name.split('.')[0]}#calls"] += n
    return table


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _metrics_of(row) -> dict[str, float]:
    simulated = [PLE, DECAY, G2]
    metrics = {
        "electrostatics.solve_calls": row[f"{SOLVE}#n"],
        "electrostatics.unique_geometry_ratio": _ratio(row["geometries"], row[f"{SOLVE}#n"]),
        "electrostatics.solve_self_s": row[f"{SOLVE}#self"],
        "electrostatics.sweeps": row[f"{SOLVE}#sweeps"],
        "electrostatics.node_updates_per_s": _ratio(row[f"{SOLVE}#node_updates"], row[f"{SOLVE}#self"]),
        "experiment.decay_self_s": row[f"{DECAY}#self"],
        "experiment.g2_self_s": row[f"{G2}#self"],
        "experiment.ple_calls": row[f"{PLE}#n"],
        "experiment.ple_self_s": row[f"{PLE}#self"],
        "experiment.pulses_per_s": _ratio(sum(row[f"{n}#pulses"] for n in simulated),
                                          sum(row[f"{n}#self"] for n in simulated)),
        "analysis.fit_calls": sum(row[f"{n}#n"] for n in FITS),
        "analysis.fit_s": sum(row[f"{n}#s"] for n in FITS),
        "analysis.fit_failures": sum(row[f"{n}#failed"] for n in FITS),
        "optimize.least_squares_calls": row[f"{LEAST_SQUARES}#n"],
        "optimize.least_squares_self_s": row[f"{LEAST_SQUARES}#self"],
        "optimize.iterations": row[f"{LEAST_SQUARES}#iterations"],
        "csvio.write_s": row[f"{WRITE_TABLE}#s"],
        "csvio.read_s": row[f"{READ_TABLE}#s"],
        "csvio.bytes_written": row[f"{WRITE_TABLE}#bytes"],
        "manifest.write_s": row[f"{MANIFEST}#s"],
        "config.load_s": row[f"{LOAD_CONFIG}#s"],
        "config.dumps_s": row[f"{DUMPS_CONFIG}#s"],
        "cli.self_s": row[f"{MAIN}#self"],
        "stark.calls": row["stark#calls"],
        "cavity.excitation_probability_calls": row[f"{EXCITATION}#n"],
    }
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = row[f"{layer}#self"]
    return metrics


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Median over ops of each per-op layer metric."""
    rows = [_metrics_of(row) for row in _per_op(tracer, ops).values()]
    if not rows:
        return {}
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}
