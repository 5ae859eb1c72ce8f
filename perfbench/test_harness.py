"""Self-tests of the benchmark harness (run with ``pytest perfbench``).

They use synthetic spans, fake modules and fake operations, so they run
in well under a second and never time the package.
"""

import itertools
import types

import pytest

import compare
from spans import Span, Tracer, aggregate, self_times
from speed import REFERENCE_CHUNK_S, at_reference_speed
from worker import Outputs, layer_metrics
from workloads import TABLE1_HEADER, TABLE1_RECORDED_TC, Op, Table1, TrajectoryExport


def _span(span_id, parent, name, start, end):
    span = Span(span_id, parent, name, start)
    span.end = end
    return span


def test_self_time_subtracts_children():
    spans = [
        _span(0, None, "outer", 0.0, 10.0),
        _span(1, 0, "inner", 1.0, 4.0),
        _span(2, 0, "inner", 5.0, 6.0),
        _span(3, 1, "leaf", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    table = aggregate(spans)
    assert table["inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, "a", 0.0, 10.0), _span(1, 0, "b", 1.0, 5.0),
             _span(2, 0, "c", 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_parents_and_restores():
    module = types.ModuleType("fake")
    module.leaf = lambda x: x + 1
    module.outer = lambda x: module.leaf(x) * 2
    original_leaf = module.leaf
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    assert tracer.wrap(module, "outer", "outer")
    assert tracer.wrap(module, "leaf", "leaf", keep=True)
    assert module.outer(1) == 4
    outer, leaf = tracer.spans
    assert (outer.parent, leaf.parent) == (None, outer.id)
    assert leaf.args == ((1,), {}) and leaf.result == 2
    assert outer.args is None
    assert self_times(tracer.spans)[outer.id] == outer.duration - leaf.duration
    tracer.restore()
    assert module.leaf is original_leaf


def test_absent_wrap_target_is_reported_not_raised():
    module = types.ModuleType("fake")
    tracer = Tracer()
    assert tracer.wrap(module, "solve_ivp", "trajectory.solve_ivp") is False
    assert tracer.absent == ["fake.solve_ivp"]
    assert layer_metrics(tracer.spans)["trajectory.solve_ivp.calls"] == 0


def test_newton_iters_count_only_residuals_inside_find_pole():
    spans = [
        _span(0, None, "gutzwiller.find_pole", 0.0, 1.0),
        _span(1, 0, "gutzwiller.pole_residual", 0.1, 0.2),
        _span(2, 0, "gutzwiller.pole_residual", 0.3, 0.4),
        _span(3, None, "gutzwiller.pole_residual", 2.0, 2.1),
    ]
    m = layer_metrics(spans)
    assert m["gutzwiller.newton_iters"] == 2
    assert m["gutzwiller.newton_iters_per_pole"] == 2.0


def _table1_csv(shift=0.0):
    rows = [TABLE1_HEADER]
    for g, tc in sorted(TABLE1_RECORDED_TC.items()):
        rows.append(f"{g!r},{tc + shift!r},1,1,1,1")
    return "\n".join(rows) + "\n"


REFERENCE = {"g": sorted(TABLE1_RECORDED_TC),
             "t_c": [TABLE1_RECORDED_TC[g] for g in sorted(TABLE1_RECORDED_TC)]}


def test_failed_checks_are_returned_not_raised():
    warm = [Op("warmup", out=(0, _table1_csv(), ""))]
    table1 = Table1()
    assert table1.check(None, warm, [Op("table1", out=(0, _table1_csv(), ""))], REFERENCE) == []
    moved = table1.check(None, warm, [Op("table1", out=(0, _table1_csv(shift=2e-3), ""))], REFERENCE)
    assert len(moved) == 1 and "recorded" in moved[0][1]
    raised = table1.check(None, warm, [Op("table1", error="NoCrossing: never")], REFERENCE)
    assert raised == [("table1", "NoCrossing: never")]
    garbled_csv = "\n".join([TABLE1_HEADER] + ["x,y"] * 4)
    garbled = table1.check(None, warm, [Op("table1", out=(0, garbled_csv, ""))], REFERENCE)
    assert garbled[0][1].startswith("output check raised ValueError")


def test_each_operation_differing_from_the_first_pass_fails():
    outputs = Outputs()
    outputs.add([Op("a", out=(0, "x\n", "manifest 1")), Op("b", out=1.5 + 2j)])
    outputs.add([Op("a", out=(0, "x\n", "manifest 2")), Op("b", out=1.5 + 2j)])
    outputs.add([Op("a", out=(0, "y\n", "")), Op("b", error="PoleProximity: near")])
    assert outputs.attempted == 6
    assert outputs.changed == [
        (2, "a", "output differs from the first pass"),
        (2, "b", "output differs from the first pass"),
    ]


def test_retrace_check_rejects_large_error():
    assert TrajectoryExport._check_retrace("duration,retrace_error,rel_tol,abs_tol\n50,1e-12,1,1\n") is None
    assert TrajectoryExport._check_retrace("duration,retrace_error,rel_tol,abs_tol\n50,1e-6,1,1\n")


def test_reference_speed_removes_probe_time_and_rescales():
    # 1.01 s of which 0.01 s in the probe, on a CPU at half reference speed.
    assert at_reference_speed(1.01, 0.01, 2 * REFERENCE_CHUNK_S) == pytest.approx(0.5)


def test_compare_marks_wide_spread_unresolved():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    noisy = [0.6, 1.4, 1.0, 0.7, 1.3]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, [x * 1.3 for x in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [x * 0.7 for x in steady], "lower", 0.1) == "better"
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [0.1] * 5, "lower", 0.1) == "better"
    assert compare.verdict([3], [3], "lower", None) == "same"
