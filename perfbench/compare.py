"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage:

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of one or more runs of
``perfbench/run.py`` (the ``{"record": ...}`` lines are read; others are
skipped).  For every workload and metric it prints each side's median
with its run count, the ratio NEW/BASE with its base, each side's spread
(interquartile range over median) and a verdict.  End-to-end metrics are
judged against their bound in BENCHMARK.json: a spread wider than the
bound makes the metric ``unresolved`` unless every NEW run beats every
BASE run.  Per-layer metrics have no bound and are reported as ``same``
or ``changed``.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{(workload, trace): {metric: [values]}} from saved run output."""
    runs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.startswith('{"record"'):
            continue
        record = json.loads(line)["record"]
        group = runs.setdefault((record["workload"], record["trace"]), {})
        for name, metric in record["metrics"].items():
            group.setdefault(name, []).append(metric["value"])
    return runs


def spread(values):
    """Interquartile range as a share of the median (0 for one run)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base, new, better, bound):
    """Judge NEW against BASE for one metric."""
    b, n = statistics.median(base), statistics.median(new)
    if bound is None:
        return "same" if b == n else "changed"
    sign = 1.0 if better == "lower" else -1.0
    wins = all(sign * (x - y) < 0 for x in new for y in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if wins else "unresolved"
    change = sign * (n - b) / abs(b)  # positive means worse
    if change > bound:
        return "worse"
    if -change > spread(base):
        return "better"
    return "unchanged"


def load_spec(path=SPEC):
    """{metric: (better, bound)}; per-layer metrics have no bound."""
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update((m["name"], (m["better"], None)) for m in spec["per_layer"])
    return metrics


def compare(base_runs, new_runs, spec):
    """Rows of (workload, trace, metric, base, new, ratio, verdict)."""
    rows = []
    for key in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[key], new_runs[key]
        for name in sorted(set(base) & set(new)):
            better, bound = spec.get(name, ("lower", None))
            b, n = statistics.median(base[name]), statistics.median(new[name])
            ratio = n / b if b else float("nan")
            rows.append((key[0], key[1], name, base[name], new[name], ratio,
                         verdict(base[name], new[name], better, bound)))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    rows = compare(base_runs, new_runs, load_spec())
    if not rows:
        print("no workload and metric appear in both files", file=sys.stderr)
        return 1
    print(f"{'workload':<18} {'trace':>5} {'metric':<42} {'base (n)':>20} {'new (n)':>20} "
          f"{'new/base':>9} {'spread b/n':>13}  verdict")
    for workload, trace, name, base, new, ratio, result in rows:
        b = f"{statistics.median(base):.6g} ({len(base)})"
        n = f"{statistics.median(new):.6g} ({len(new)})"
        s = f"{spread(base):.3f}/{spread(new):.3f}"
        print(f"{workload:<18} {trace:>5} {name:<42} {b:>20} {n:>20} {ratio:>9.4f} {s:>13}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
