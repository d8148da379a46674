"""Tests of the benchmark itself: seeded inputs, span self times, failure counting.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import torsionlab  # noqa: E402
import inputs  # noqa: E402
import refspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def test_same_seed_gives_same_inputs():
    assert _same(inputs.geometry_inputs(7, 3), inputs.geometry_inputs(7, 3))
    assert _same(inputs.great_circle(7), inputs.great_circle(7))
    assert not _same(inputs.geometry_inputs(7, 3), inputs.geometry_inputs(8, 3))
    assert not _same(inputs.geometry_inputs(7, 3), inputs.geometry_inputs(7, 4))
    assert not _same(inputs.great_circle(7), inputs.great_circle(8))


def test_generated_charts_cover_kinds_dimensions_and_functions():
    charts = [c["definition"] for c in inputs.geometry_inputs(1, 0)["charts"] if "definition" in c]
    assert {(c["kind"], c["dim"]) for c in charts} == set(inputs.GENERATED_KINDS)
    for c in charts:
        text = " ".join(c["exprs"])
        assert all(fn + "(" in text for fn in ("sin", "cos", "exp", "log", "sqrt", "atan2"))
        torsionlab.Chart.from_dict(c)


def test_great_circle_stays_in_sphere_box():
    lo, hi = inputs.SAMPLE_BOXES["sphere"][0]
    for seed in range(20):
        circle = inputs.great_circle(seed)
        incl = circle["inclination"]
        assert lo < np.pi / 2 - incl and np.pi / 2 + incl < hi
        speed2 = circle["qdot0"][0] ** 2 + (np.sin(circle["q0"][0]) * circle["qdot0"][1]) ** 2
        assert speed2 == pytest.approx(1.0)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    inner = rec.wrap(lambda: None, "inner", "charts")

    def body():
        inner()  # 2 .. 5
        inner()  # 6 .. 7

    outer = rec.wrap(body, "outer", "connection")
    outer()  # 0 .. 10
    tab = rec.table()
    assert tab["parent"].tolist() == [-1, 0, 0]
    assert tab["duration"].tolist() == [10.0, 3.0, 1.0]
    assert tab["self"].tolist() == [6.0, 3.0, 1.0]


def test_instrument_names_aliases_counts_passes_and_undoes():
    modules = {layer: getattr(torsionlab, layer) for layer in spans.LAYERS}
    original = torsionlab.connection.connection_bundle
    rec = spans.Recorder()
    undo = spans.instrument(rec, modules)
    try:
        chart = torsionlab.connection.Chart.from_dict({"dim": 2, "kind": "map",
                                                      "exprs": ["q1*cos(q2)", "q1*sin(q2)"]})
        with rec.operation("point"):
            workloads.evaluate_point(chart, np.array([1.2, 0.4]))
    finally:
        spans.uninstrument(undo)
    assert torsionlab.connection.connection_bundle is original
    assert not hasattr(torsionlab.charts.Chart.triad_jets, "__wrapped__")
    names = {rec.names[i] for i in rec.name_id}
    assert {"connection.identity_residuals", "connection.connection_bundle",
            "curvature.connection_derivatives", "Chart.triad_jets",
            "Expression.__call__", "Expression.__init__"} <= names
    assert rec.layers[rec.names.index("curvature.connection_derivatives")] == "connection"
    jets = sum(1 for i in rec.name_id if rec.names[i] == "Chart.triad_jets")
    assert jets == 6  # identity_residuals 4 + curvature_relation_check 2


def test_injected_wrong_result_counts_as_failure(monkeypatch):
    chart = torsionlab.builtin_chart("polar")
    q = np.array([1.2, 0.4])
    log = workloads.PassLog()
    log.op("point", lambda: workloads.evaluate_point(chart, q), workloads.check_point)
    assert (log.attempted, log.failed) == (1, 0)

    monkeypatch.setattr(torsionlab.curvature, "curvature_relation_check", lambda c, p: 1e-3)
    log.op("point", lambda: workloads.evaluate_point(chart, q), workloads.check_point)
    assert (log.attempted, log.failed) == (2, 1)
    assert log.worst["curvature_relation_residual"][0] == 1e-3

    def broken(c, p):
        raise torsionlab.NumericError("injected")

    monkeypatch.setattr(torsionlab.curvature, "curvature_relation_check", broken)
    assert log.op("point", lambda: workloads.evaluate_point(chart, q), workloads.check_point) is None
    assert (log.attempted, log.failed) == (3, 2)
    assert "injected" in log.failures[-1]


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value = workloads.tail(values)
    assert value == 90 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(90.0)
    assert workloads.tail(values[:10]) == (None, None)


def test_rescale_to_reference_speed():
    r = refspeed.REFERENCE_S
    # the second segment ran while the loop took twice its reference time
    assert refspeed.rescale([1.0, 2.0], [r, r, 3.0 * r]) == pytest.approx(2.0)


def test_pass_at_reference_speed_equals_wall_on_a_reference_machine(monkeypatch):
    monkeypatch.setattr(refspeed, "sample", lambda: refspeed.REFERENCE_S)
    log = workloads.PassLog()
    for _ in range(3):
        log.op("noop", lambda: sum(range(1000)), lambda result: [])
    log.close()
    assert len(log.refs) == len(log.segments) >= 2
    assert sum(log.segments) == pytest.approx(log.seconds_total)
    assert log.seconds_at_reference == pytest.approx(log.seconds_total)
