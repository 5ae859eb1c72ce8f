"""Benchmark of the semiclassics package, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1|trajectory_export|resonance_scan \
        --seed N --seconds S --trace 0|1

Each run measures set-up time with fresh interpreter processes, then runs
the workload in one more fresh process (``worker.py``), single-threaded,
against the package in ``src/``.  Standard output ends with two JSON
lines: a record with the inputs' seed, why the workload exists, every
measurement and the provenance (nproc, Python, numpy, scipy, git SHA),
then the result object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off:

    setup_s      median over 5 fresh interpreters of the time to import
                 semiclassics, semiclassics.cli and scipy
    wall_s       median over the timed passes of one pass (the warm-up
                 pass is excluded; the record gives the pass count)
    peak_rss_mb  peak resident memory of the workload's process

Both times are given at the reference speed of ``speed.py``, because the
host's own speed drifts by tens of percent from minute to minute; the raw
times are in the record.  Failed and attempted operations are the
result's ``failed`` and ``attempted`` (their ratio is ``failed_frac`` in
the record).  With ``--trace 1`` the metrics are the per-layer ones
(``worker.LAYER_UNITS``) from passes run under the span tracer.

``python3 perfbench/compare.py BASE NEW`` compares saved outputs of runs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import at_reference_speed  # noqa: E402
from workloads import WHY  # noqa: E402

SETUP_PROBES = 5  # measured fresh-process imports; one more is discarded first
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env(root):
    """One thread everywhere, and the package from this checkout's src/."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONHOME", None)
    return env


def setup_time(root, env):
    """Set-up times of fresh interpreters: from spawn until ``speed.py``
    has imported semiclassics, semiclassics.cli and scipy.  Each sample is
    (raw seconds, seconds at reference speed); the first is discarded."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "speed.py")], cwd=root, env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        spent, mean_chunk = json.loads(line)
        samples.append((elapsed, at_reference_speed(elapsed, spent, mean_chunk)))
    return samples[1:]


def git_sha(root):
    """HEAD of the checkout's own .git, read from files; 'unknown' without one."""
    git = root / ".git"
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
    return "unknown"


def provenance(root):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def run_worker(root, env, args):
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd().resolve()
    if not (root / "src" / "semiclassics" / "__init__.py").is_file():
        print(f"error: no semiclassics package under {root}/src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        setup = setup_time(root, env)
        result = run_worker(root, env, args)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    timings = result["timings"]
    wall = [t["wall_s"] for t in timings]
    if args.trace:
        metrics = result["layers"]
    else:
        values = {"setup_s": statistics.median(s for _, s in setup),
                  "wall_s": statistics.median(wall),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": WHY[args.workload],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "passes": len(timings),
        "wall_s_quartiles": quartiles(wall),
        "pass_timings": timings,
        "setup_s_samples": [{"raw_s": raw, "setup_s": scaled} for raw, scaled in setup],
        "absent_wrap_targets": result["absent_wrap_targets"],
        "provenance": provenance(root),
        "metrics": metrics,
    }
    if args.trace:
        record["traced_pass_timings"] = result["traced_timings"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
