"""One workload in a fresh process: inputs, warm-up, timed passes, checks.

Run by ``run.py`` as ``python3 perfbench/worker.py <root> <workload> <seed>
<seconds> <trace>``; prints one JSON object as its last stdout line.

Passes run until ``seconds`` would be exceeded (at least one).  With
tracing on, untraced and traced passes alternate, so the difference of
their times gives the tracing overhead.
"""

import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer, aggregate, relative_drift
from speed import SpeedProbe
from workloads import WORKLOADS, fingerprint

# (module, attribute, span name, keep args and result).  Each function is
# wrapped at the name its callers look up.
WRAP_PLAN = (
    ("semiclassics.cli", "main", "cli.main", False),
    ("semiclassics.cli", "crossing_time", "trajectory.crossing_time", True),
    ("semiclassics.cli", "integrate", "trajectory.integrate", True),
    ("semiclassics.cli", "reversibility_error", "trajectory.reversibility_error", True),
    ("semiclassics.cli", "turning_points", "cubic.turning_points", False),
    ("semiclassics.cli", "find_pole", "gutzwiller.find_pole", False),
    ("semiclassics.cli", "pole_residual", "gutzwiller.pole_residual", False),
    ("semiclassics.trajectory", "turning_points", "cubic.turning_points", False),
    ("semiclassics.trajectory", "solve_ivp", "trajectory.solve_ivp", True),
    ("semiclassics.gutzwiller", "pole_residual", "gutzwiller.pole_residual", False),
    ("semiclassics.gutzwiller", "response_function", "gutzwiller.response_function", False),
)

# Spans whose (model, energy, ...) arguments give the energy reference for
# the drift of the solve_ivp calls nested in them.
ENERGY_SPANS = ("trajectory.crossing_time", "trajectory.integrate",
                "trajectory.reversibility_error")

# Per-layer metric name -> unit; every one is reported on every workload.
LAYER_UNITS = {
    "trajectory.solve_ivp.calls": "count",
    "trajectory.solve_ivp.busy_s": "s",
    "trajectory.solve_ivp.rhs_calls": "count",
    "trajectory.solve_ivp.steps": "count",
    "trajectory.solve_ivp.events": "count",
    "trajectory.solve_ivp.failed": "count",
    "trajectory.us_per_rhs": "us",
    "trajectory.crossing_time.calls": "count",
    "trajectory.crossing_time.self_s": "s",
    "trajectory.integrate.calls": "count",
    "trajectory.integrate.self_s": "s",
    "trajectory.samples": "count",
    "trajectory.reversibility_error.calls": "count",
    "trajectory.reversibility_error.self_s": "s",
    "trajectory.crossing_max_rel_drift": "rel",
    "trajectory.max_rel_drift": "rel",
    "cubic.turning_points.calls": "count",
    "cubic.turning_points.self_s": "s",
    "gutzwiller.find_pole.calls": "count",
    "gutzwiller.find_pole.self_s": "s",
    "gutzwiller.newton_iters": "count",
    "gutzwiller.newton_iters_per_pole": "count/pole",
    "gutzwiller.response_function.calls": "count",
    "gutzwiller.response_function.self_s": "s",
    "gutzwiller.response_function.us_per_call": "us",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_out": "B",
    "bench.tracing_overhead_s": "s",
    "bench.absent_wrap_targets": "count",
}


def layer_metrics(spans):
    """Per-layer metrics of one traced pass."""
    table = aggregate(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    by_id = {span.id: span for span in spans}

    def enclosing(span, names):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name in names:
                return span
        return None

    m = {}
    for layer in ("trajectory.solve_ivp", "trajectory.crossing_time", "trajectory.integrate",
                  "trajectory.reversibility_error", "cubic.turning_points",
                  "gutzwiller.find_pole", "gutzwiller.response_function", "cli.main"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
    del m["trajectory.solve_ivp.self_s"]
    m["trajectory.solve_ivp.busy_s"] = get("trajectory.solve_ivp", "busy_s")

    rhs = steps = events = failed = 0
    drift_all = drift_crossing = 0.0
    for span in spans:
        if span.name != "trajectory.solve_ivp" or span.result is None:
            continue
        sol = span.result
        args, kwargs = span.args
        rhs += int(sol.nfev)
        if kwargs.get("t_eval") is None:
            steps += sol.t.size - 1
        if sol.t_events is not None:
            events += sum(len(t) for t in sol.t_events)
        failed += int(sol.status == -1)
        owner = enclosing(span, ENERGY_SPANS)
        if owner is not None:
            model, energy = owner.args[0][:2]
            drift = relative_drift(getattr(model, "g", 0.0), complex(energy), sol.y)
            drift_all = max(drift_all, drift)
            if owner.name == "trajectory.crossing_time":
                drift_crossing = max(drift_crossing, drift)
    m["trajectory.solve_ivp.rhs_calls"] = rhs
    m["trajectory.solve_ivp.steps"] = steps
    m["trajectory.solve_ivp.events"] = events
    m["trajectory.solve_ivp.failed"] = failed
    m["trajectory.us_per_rhs"] = 1e6 * m["trajectory.solve_ivp.busy_s"] / rhs if rhs else 0.0
    m["trajectory.samples"] = sum(len(s.result) for s in spans
                                  if s.name == "trajectory.integrate" and s.result is not None)
    m["trajectory.crossing_max_rel_drift"] = drift_crossing
    m["trajectory.max_rel_drift"] = drift_all

    poles = m["gutzwiller.find_pole.calls"]
    m["gutzwiller.newton_iters"] = sum(
        1 for s in spans
        if s.name == "gutzwiller.pole_residual" and s.parent is not None
        and by_id[s.parent].name == "gutzwiller.find_pole"
    )
    m["gutzwiller.newton_iters_per_pole"] = m["gutzwiller.newton_iters"] / poles if poles else 0.0
    calls = m["gutzwiller.response_function.calls"]
    m["gutzwiller.response_function.us_per_call"] = (
        1e6 * get("gutzwiller.response_function", "busy_s") / calls if calls else 0.0
    )
    return m


def bytes_out(ops):
    """Bytes the CLI wrote to stdout and to --out files in one pass."""
    total = 0
    for op in ops:
        if op.error is None and isinstance(op.out, tuple):
            total += len(op.out[1].encode())
            total += sum(len(data) for data in op.out[3:])
    return total


class Outputs:
    """The first pass's operations, with every later pass's outputs
    compared against them by fingerprint (so memory does not grow with
    the number of passes)."""

    def __init__(self):
        self.first = None
        self._prints = None
        self.passes = 0
        self.attempted = 0
        self.changed = []  # (pass, key, reason)

    def add(self, ops):
        prints = [fingerprint(op) for op in ops]
        if self.first is None:
            self.first, self._prints = ops, prints
        else:
            self.changed += [(self.passes, key, "output differs from the first pass")
                             for (key, fp), (_, fp0) in zip(prints, self._prints) if fp != fp0]
        self.passes += 1
        self.attempted += len(ops)


def timed_passes(workload, inputs, pkg, seconds, outputs, tracer=None):
    """Run passes until the next one would overrun ``seconds``.

    Untraced passes run under the speed probe and record the raw wall
    time, the time net of the probe and the time at reference speed
    (``wall_s``).  With a tracer, every untraced pass is followed by a
    traced one, so both kinds see the same phases of the host's speed;
    traced passes run without the probe, so that no probe work lands
    inside a span, and record the raw time only.  Returns the untraced
    timings, the traced timings and every traced pass's layer metrics.
    """
    timings, traced_timings, layers = [], [], []
    probe = SpeedProbe()
    start = time.perf_counter()
    while True:
        with probe:
            t0 = time.perf_counter()
            ops = workload.run_pass(inputs, pkg)
            raw = time.perf_counter() - t0
        timings.append({"raw_s": raw, "net_s": raw - probe.spent(), "wall_s": probe.scaled(raw)})
        outputs.add(workload.collect(inputs, ops))
        round_s = raw
        if tracer is not None:
            instrument(tracer)
            try:
                t0 = time.perf_counter()
                ops = workload.run_pass(inputs, pkg)
                raw = time.perf_counter() - t0
            finally:
                tracer.restore()
            traced_timings.append({"raw_s": raw})
            outputs.add(workload.collect(inputs, ops))
            layers.append(layer_metrics(tracer.spans))
            tracer.reset()
            round_s += raw
        elapsed = time.perf_counter() - start
        if elapsed + round_s > seconds:
            return timings, traced_timings, layers


def instrument(tracer):
    """Wrap every target of WRAP_PLAN; absent ones are listed once."""
    tracer.absent = []
    for module_name, attr, name, keep in WRAP_PLAN:
        tracer.wrap(importlib.import_module(module_name), attr, name, keep=keep)


def main(argv):
    root, workload_name, seed, seconds, trace = (
        Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    )
    import semiclassics.cli
    import semiclassics.gutzwiller

    source = Path(semiclassics.__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        raise SystemExit(f"semiclassics was imported from {source}, not from {root}/src")
    pkg = SimpleNamespace(cli=semiclassics.cli, gutzwiller=semiclassics.gutzwiller)
    reference = json.loads(
        (root / "src/semiclassics/data/table1_reference.json").read_text(encoding="utf-8")
    )

    workload = WORKLOADS[workload_name]
    workdir = root / ".perfbench_work" / f"{workload_name}-{seed}-{trace:d}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workload.make_inputs(seed, workdir)
        warm = workload.warmup(inputs, pkg)
        outputs = Outputs()
        tracer = Tracer() if trace else None
        timings, traced_timings, layers = timed_passes(
            workload, inputs, pkg, seconds, outputs, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        absent = tracer.absent if trace else []
        failures = [(0, key, reason)
                    for key, reason in workload.check(inputs, warm, outputs.first, reference)]
        failures += outputs.changed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    # The warm-up's operations are untimed but count like any other.
    failures = [("warmup", op.key, op.error) for op in warm if op.error] + failures
    result = {
        "workload": workload_name,
        "seed": seed,
        "attempted": len(warm) + outputs.attempted,
        "failed": len({(i, key) for i, key, _ in failures}),
        "failures": [list(f) for f in failures[:20]],
        "timings": timings,
        "peak_rss_mb": peak_rss_mb,
        "bytes_out": bytes_out(outputs.first),
        "absent_wrap_targets": absent,
    }
    if trace:
        # median_low keeps counts whole: it is always one pass's value.
        layer = {name: statistics.median_low(m[name] for m in layers)
                 for name in layers[0]}
        layer["cli.bytes_out"] = result["bytes_out"]
        layer["bench.tracing_overhead_s"] = (
            statistics.median(t["raw_s"] for t in traced_timings)
            - statistics.median(t["net_s"] for t in timings))
        layer["bench.absent_wrap_targets"] = len(absent)
        result["traced_timings"] = traced_timings
        result["layers"] = {name: {"value": layer[name], "unit": unit}
                            for name, unit in LAYER_UNITS.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
