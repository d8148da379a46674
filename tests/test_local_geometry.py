"""One triad-jet pass per point, and the tensor identities in D = 1 and D = 3."""

import math

import numpy as np
import pytest

import torsionlab as tl
from torsionlab.charts import Chart
from torsionlab.cli import _build_arg_parser, config_from_args, run

# -- triad-jet passes ------------------------------------------------------------


@pytest.fixture
def jet_passes(monkeypatch):
    """Orders of every ``Chart.triad_jets`` call made while the test runs."""
    calls = []
    original = Chart.triad_jets

    def counting(self, q, order=0):
        calls.append(order)
        return original(self, q, order)

    monkeypatch.setattr(Chart, "triad_jets", counting)
    return calls


def test_geodesic_step_makes_four_passes(jet_passes):
    sphere = tl.builtin_chart("sphere", r=1.0)
    tl.integrate_geodesic(sphere, [1.0, 0.0], [0.3, 0.4], (0.0, 0.1), 1e-2)
    assert jet_passes == [1] * 40


def test_variation_makes_two_passes_per_step(jet_passes):
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    base = tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-2)
    steps = len(base) - 1
    jet_passes.clear()
    tl.nonholonomic_variation(st, base, ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"])
    # one pass per node and one per step midpoint
    assert len(jet_passes) <= 2 * steps + 1
    jet_passes.clear()
    tl.closure_defect_by_quadrature(st, base, ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"])
    assert len(jet_passes) <= 2 * steps + 1


def test_el_residual_makes_one_pass_per_sample(jet_passes):
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    traj = tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.1), 1e-2)
    jet_passes.clear()
    tl.torsion_el_residual(st, traj)
    assert len(jet_passes) == len(traj)


def test_geometry_point_and_cli_tensors_make_one_pass(jet_passes):
    tl.geometry_point(tl.builtin_chart("polar"), [1.0, 0.2])
    assert jet_passes == [2]
    jet_passes.clear()
    run(config_from_args(_build_arg_parser().parse_args(
        ["tensors", "--chart", "builtin:polar", "--at", "1.0,0.2"])))
    assert jet_passes == [2]


def test_veff_kernel_makes_one_pass_per_latitude(jet_passes):
    sphere = tl.Sphere(radius=1.0, n_theta=24, n_phi=48)
    tl.build_propagator(sphere, tl.ShortTimeConfig(epsilon=0.1), "qep_via_veff")
    assert jet_passes == [2] * sphere.n_theta


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
    assert tl.curvature_bundle(three_sphere, [1.0, 1.2, 0.4]).scalar == pytest.approx(6.0, rel=1e-8)
    assert tl.curvature_bundle(other_dimension_chart("map1_helix"), [0.7]).scalar == 0.0
