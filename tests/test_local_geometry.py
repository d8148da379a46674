"""One triad-jet pass per point, and the tensor identities in D = 1 and D = 3."""

import collections
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import torsionlab as tl
from torsionlab import _local, dynamics
from torsionlab.charts import Chart
from torsionlab.cli import _build_arg_parser, config_from_args, run
from torsionlab.expressions import Expression

from test_batched_jets import DELTAQ, FAILING_PATHS
from test_rk4_stepper import watch_integrators

# -- triad-jet passes ------------------------------------------------------------


@pytest.fixture
def jet_passes(monkeypatch):
    """Triad orders of every jet pass made while the test runs: every triad,
    tensor and trajectory field outside an integrator evaluates its point
    through ``Chart._jets``, each stage of a generated integrator through the
    jets its chart's code evaluates inline (order 0 for the line image, 1
    otherwise).  It counts ``Chart._jets`` calls, a repeat of a chart's last
    point of its order included, which returns the kept jets and evaluates
    no expression (``expression_calls`` counts those evaluations)."""
    calls, original = [], Chart._jets
    runs = watch_integrators(monkeypatch)  # what a tracer sees of each integrator run
    generated = dynamics._chart_field

    def counting(self, q, order, **kw):
        calls.append(order)
        return original(self, q, order, **kw)

    def counted_integrator(field, *definition):
        fn, order = generated(field, *definition), int(field != "line_image")
        seen = runs[-1]  # this integrator's run

        def counted(*args):
            try:
                return fn(*args)
            finally:  # one pass per stage the integrator runs
                calls.extend([order] * seen["passes"])

        return counted

    monkeypatch.setattr(Chart, "_jets", counting)
    monkeypatch.setattr(dynamics, "_chart_field", counted_integrator)
    return calls


def test_geodesic_step_makes_four_passes(jet_passes):
    sphere = tl.builtin_chart("sphere", r=1.0)
    tl.integrate_geodesic(sphere, [1.0, 0.0], [0.3, 0.4], (0.0, 0.1), 1e-2)
    assert jet_passes == [1] * 40


def test_line_image_reads_the_profile_once(jet_passes, monkeypatch):
    reads, active_profile = [], dynamics.active_profile
    for module in (dynamics, _local):
        monkeypatch.setattr(module, "active_profile", lambda: reads.append(1) or active_profile())
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    traj = tl.straight_line_image(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.1), 1e-2)
    assert len(traj) == 11 and not traj.truncated
    assert len(reads) == 1
    # the triad at q0 for the flat velocity, then one field per RK4 stage and the final slope
    assert jet_passes == [0] * (1 + 4 * 10 + 1)


def test_variation_makes_one_pass_per_call(jet_passes):
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    base = tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-2)
    jet_passes.clear()
    tl.nonholonomic_variation(st, base, ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"])
    # one batched pass over every node and step midpoint
    assert jet_passes == [1]
    jet_passes.clear()
    tl.closure_defect_by_quadrature(st, base, ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"])
    assert jet_passes == [1]


def test_el_residual_makes_one_pass_per_call(jet_passes):
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    traj = tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.1), 1e-2)
    jet_passes.clear()
    tl.torsion_el_residual(st, traj)
    assert jet_passes == [1]


def test_failing_stack_is_taken_point_by_point_once(jet_passes):
    # the path's metric fails at its first node: the stack's pass, then that node, in
    # ``LocalGeometry.of``, the one place that retries a failing stack point by point
    # (the errors equal the point-by-point ones: test_batched_jets)
    chart, path = FAILING_PATHS["rank_one"]
    for consumer, order in ((tl.torsion_el_residual, 1), (tl.kinetic_energy, 0)):
        jet_passes.clear()
        with pytest.raises(tl.DegenerateTriadError, match=r"\[1.3, 0.0\]"):
            consumer(chart, path)
        assert jet_passes == [order] * 2


@pytest.mark.parametrize("case, failing, checked", [("guard", 10, 0), ("degenerate_then_guard", 5, 0)])
def test_failing_sample_stack_goes_sample_by_sample(case, failing, checked, jet_passes):
    # a failing stack of half-step samples is not re-run point by point in ``Chart._jets``:
    # after its one pass, the samples go one by one through ``dynamics._field`` up to the
    # failing one (sample 10 is node 5, on the polar guard; sample 5 is a midpoint in the
    # degenerate band, which the field's rule rejects itself: no ``checked`` pass beyond
    # it), which raises the point-by-point error (test_batched_jets)
    chart, path = FAILING_PATHS[case]
    for solver in (tl.nonholonomic_variation, tl.closure_defect_by_quadrature):
        jet_passes.clear()
        with pytest.raises((tl.SingularPointError, tl.DegenerateTriadError)):
            solver(chart, path, DELTAQ)
        assert jet_passes == [1] * (1 + failing + 1 + checked)


def test_geometry_point_and_cli_tensors_make_one_pass(jet_passes):
    tl.geometry_point(tl.builtin_chart("polar"), [1.0, 0.2])
    assert jet_passes == [2]
    jet_passes.clear()
    run(config_from_args(_build_arg_parser().parse_args(
        ["tensors", "--chart", "builtin:polar", "--at", "1.0,0.2"])))
    assert jet_passes == [2]


def test_veff_kernel_makes_one_pass_per_kernel(jet_passes):
    # one stacked pass over the postpoints of every latitude row
    sphere = tl.Sphere(radius=1.0, n_theta=24, n_phi=48)
    tl.build_propagator(sphere, tl.ShortTimeConfig(epsilon=0.1), "qep_via_veff")
    assert jet_passes == [2]


# -- identities in D = 1 and D = 3 ------------------------------------------------

PI = math.pi
OTHER_DIMENSIONS = {
    "map1": (["q1 + 0.3*sin(q1)"], "map", [(-2.0, 2.0)]),
    "map1_helix": (["2*cos(q1)", "2*sin(q1)", "0.5*q1"], "map", [(-3.0, 3.0)]),
    "triad1": (["exp(0.3*q1) + 0.2*q1^2"], "triad", [(-2.0, 2.0)]),
    "map3_spherical": (
        ["q1*sin(q2)*cos(q3)", "q1*sin(q2)*sin(q3)", "q1*cos(q2)"],
        "map",
        [(0.5, 2.0), (0.4, 2.7), (-PI, PI)],
    ),
    "map3_three_sphere": (
        ["cos(q1)", "sin(q1)*cos(q2)", "sin(q1)*sin(q2)*cos(q3)", "sin(q1)*sin(q2)*sin(q3)"],
        "map",
        [(0.4, 2.7), (0.4, 2.7), (-PI, PI)],
    ),
    "triad3_torsion": (
        ["1 + 0.2*sin(q2)", "0.1*q3", "0", "0", "1 + 0.3*q1", "0.2*cos(q1)",
         "0.1*q1*q2", "0", "exp(0.1*q3)"],
        "triad",
        [(-0.8, 0.8)] * 3,
    ),
}


def other_dimension_chart(name):
    exprs, kind, box = OTHER_DIMENSIONS[name]
    return Chart(dim=len(box), kind=kind, exprs=exprs, name=name)


@pytest.mark.parametrize("name", sorted(OTHER_DIMENSIONS))
def test_identities_in_other_dimensions(name, rng):
    chart = other_dimension_chart(name)
    lo, hi = np.array(OTHER_DIMENSIONS[name][2]).T
    for q in lo + (hi - lo) * rng.random((10, chart.dim)):
        res = tl.identity_residuals(chart, q)
        relation = tl.curvature_relation_check(chart, q)
        # criterion 1 bounds every residual; the D = 2 unit tests pin these tighter
        assert max(res.values()) < 1e-6, (name, q, res)
        assert res["metric_derivative"] < 1e-8
        assert res["metricity"] < 1e-8
        assert res["trace_identity"] < 1e-10
        assert relation < 1e-6, (name, q, relation)


def test_other_dimensions_are_not_trivial():
    # the D = 3 triad carries torsion, the unit three-sphere has R = 6, a curve none
    torsion = tl.torsion_tensor(other_dimension_chart("triad3_torsion"), [0.3, -0.2, 0.5])
    assert np.max(np.abs(torsion)) > 0.05
    three_sphere = other_dimension_chart("map3_three_sphere")
    scalar = tl.geometry_point(three_sphere, [1.0, 1.2, 0.4]).ricci_scalar_einstein("riemann")[1]
    assert scalar == pytest.approx(6.0, rel=1e-8)
    helix = tl.geometry_point(other_dimension_chart("map1_helix"), [0.7])
    assert helix.ricci_scalar_einstein("riemann")[1] == 0.0


# -- the last point's jets, kept per order ------------------------------------------------


@pytest.fixture
def expression_calls(monkeypatch):
    """Per expression object (by id), the jet orders of every evaluation at one
    point made while the test runs."""
    calls, original = collections.defaultdict(list), Expression.__call__

    def counting(self, env, wrt=(), order=0):
        calls[id(self)].append(order)
        return original(self, env, wrt, order)

    monkeypatch.setattr(Expression, "__call__", counting)
    return calls


MEMO_POINTS = {"polar": [1.0, 0.2], "sphere": [1.1, 0.3], "triad3_torsion": [0.3, -0.2, 0.5]}


def memo_chart(name):
    return other_dimension_chart(name) if name in OTHER_DIMENSIONS else tl.builtin_chart(name)


@pytest.mark.parametrize("name", sorted(MEMO_POINTS))
def test_criterion_one_point_evaluates_each_expression_once_per_order(name, expression_calls):
    # the criterion-1 point makes 6 ``triad_jets`` calls, 5 at order 1 and 1 at order 2:
    # each chart expression is evaluated once at each order
    chart, q = memo_chart(name), MEMO_POINTS[name]
    tl.identity_residuals(chart, q)
    tl.curvature_relation_check(chart, q)
    orders = [chart._jet_order(1)[1], chart._jet_order(2)[1]]
    assert [expression_calls[id(e)] for e in chart.exprs] == [orders] * len(chart.exprs)


def test_signed_zeros_are_two_points():
    # atan2(q2, -1) is pi at q2 = 0.0 and -pi at q2 = -0.0: float equality would
    # take the second point for the first
    def chart():
        return Chart(2, "triad", ["1", "0", "0", "1 + 0.1*atan2(q2, -1)"])

    kept, triads = chart(), []
    for q in ([1.0, 0.0], [1.0, -0.0]):
        triads.append(kept.triad(q))
        assert triads[-1].tobytes() == chart().triad(q).tobytes()
    assert triads[0][1, 1] != triads[1][1, 1]


def test_returned_tensors_are_fresh_arrays():
    polar, q = tl.builtin_chart("polar"), [1.0, 0.2]
    g, dE = polar.metric(q), polar.triad_jets(q, 1)[1]
    ref = g.copy(), dE.copy()
    g[:] = dE[:] = 7.0
    assert_array_equal(polar.metric(q), ref[0])
    assert_array_equal(polar.triad_jets(q, 1)[1], ref[1])


def test_failing_point_raises_again():
    chart = Chart(2, "map", ["log(q1)", "q2"])
    good = chart.metric([1.0, 0.2])
    for _ in range(2):
        with pytest.raises(tl.EvaluationError):
            chart.metric([-1.0, 0.2])
    assert_array_equal(chart.metric([1.0, 0.2]), good)


def test_checks_run_at_every_call(monkeypatch):
    polar = tl.builtin_chart("polar")
    polar.metric([1.0, 0.2])
    polar.metric([1.0, 0.2])
    with pytest.raises(tl.SingularPointError):
        polar.metric([-0.5, 0.2])
    # a repeated point meets the degenerate-triad rule again: sqrt(det g) = 1.4e-11
    # is above the default floor and below the strict one
    chart = Chart(2, "triad", ["exp(-1/q1^2)", "0", "0", "1"])
    chart.metric([0.2, 0.0])
    monkeypatch.setenv("TORSIONLAB_TOLERANCES", "strict")
    with pytest.raises(tl.DegenerateTriadError):
        chart.metric([0.2, 0.0])


def test_params_are_read_only():
    # kept jets would otherwise outlive a changed value
    chart = Chart(2, "triad", ["1", "0", "0", "a + q1"], params={"a": 0.5})
    g = chart.metric([1.0, 0.2])
    with pytest.raises(TypeError):
        chart.params["a"] = 2.0
    assert chart.params == {"a": 0.5}
    assert_array_equal(chart.metric([1.0, 0.2]), g)
