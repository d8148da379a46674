import math

import numpy as np
import pytest

from torsionlab import (
    affine_connection,
    christoffel,
    contortion,
    covariant_derivative,
    geometry_point,
    identity_residuals,
    metricity_residual,
    torsion_tensor,
    torsion_trace,
)
from torsionlab.charts import Chart, builtin_chart
from torsionlab.errors import ExpressionParseError

from conftest import sample_points

FLAT = Chart(dim=2, kind="map", exprs=["q1", "q2"])


def test_christoffel_flat_zero():
    c1, c2 = christoffel(FLAT, [0.2, -1.4])
    assert np.allclose(c1, 0.0)
    assert np.allclose(c2, 0.0)


def test_christoffel_polar_hand_values():
    polar = builtin_chart("polar")
    r = 1.7
    _, c2 = christoffel(polar, [r, 0.4])
    assert c2[1, 1, 0] == pytest.approx(-r, rel=1e-12)  # Gammabar_thth^r
    assert c2[0, 1, 1] == pytest.approx(1.0 / r, rel=1e-12)  # Gammabar_rth^th
    assert c2[1, 0, 1] == pytest.approx(1.0 / r, rel=1e-12)


def test_christoffel_sphere_hand_value():
    sphere = builtin_chart("sphere", r=2.0)
    th = 0.8
    _, c2 = christoffel(sphere, [th, 1.0])
    assert c2[1, 1, 0] == pytest.approx(-math.sin(th) * math.cos(th), rel=1e-12)


def test_affine_symmetric_for_holonomic(charts, rng):
    for name in ("polar", "sphere", "disclination"):
        chart = charts[name]
        for q in sample_points(name, 8, rng):
            gamma = affine_connection(chart, q)
            assert np.max(np.abs(gamma - gamma.transpose(1, 0, 2))) < 1e-12


def test_affine_synthetic_torsion_hand_values():
    alpha = 0.3
    st = builtin_chart("synthetic_torsion", alpha=alpha)
    q1 = 0.7
    gamma = affine_connection(st, [q1, 0.0])
    assert gamma[0, 1, 1] == pytest.approx(alpha / (1 + alpha * q1), rel=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(0.0, abs=1e-15)


def test_affine_equals_christoffel_on_polar(charts, rng):
    polar = charts["polar"]
    for q in sample_points("polar", 8, rng):
        gamma = affine_connection(polar, q)
        _, c2 = christoffel(polar, q)
        assert np.max(np.abs(gamma - c2)) < 1e-8


def test_torsion_zero_for_holonomic(charts, rng):
    for name in ("cartesian", "polar", "sphere", "disclination"):
        for q in sample_points(name, 5, rng):
            assert np.max(np.abs(torsion_tensor(charts[name], q))) < 1e-12


def test_dislocation_torsion_vanishes_off_origin(charts):
    # formal derivative commutation of the angle function holds off the origin
    S = torsion_tensor(charts["dislocation"], [1.0, 1.0])
    assert np.max(np.abs(S)) < 1e-10


def test_synthetic_torsion_component():
    alpha = 0.3
    st = builtin_chart("synthetic_torsion", alpha=alpha)
    S = torsion_tensor(st, [0.0, 1.3])
    assert S[0, 1, 1] == pytest.approx(alpha / 2, rel=1e-12)
    assert S[1, 0, 1] == pytest.approx(-alpha / 2, rel=1e-12)
    # S_mu = S_{mu lam}^lam picks up only the S_12^2 component
    assert np.allclose(torsion_trace(S), [alpha / 2, 0.0])


def test_contortion_zero_without_torsion(charts):
    assert np.max(np.abs(contortion(charts["polar"], [1.2, 0.3]))) < 1e-12


def test_contortion_antisymmetry_and_decomposition(charts, rng):
    st = charts["synthetic_torsion"]
    for q in sample_points("synthetic_torsion", 10, rng):
        K = contortion(st, q)
        assert np.max(np.abs(K + K.transpose(0, 2, 1))) < 1e-12
        geo = geometry_point(st, q)
        assert np.max(np.abs(geo.gamma - (geo.chris2 + geo.contortion_mixed))) < 1e-8


def test_covariant_derivative_constant_field_flat():
    out = covariant_derivative(FLAT, [0.5, 0.5], ["3", "-2"], "riemann", "upper")
    assert np.allclose(out, 0.0)
    out = covariant_derivative(FLAT, [0.5, 0.5], ["3", "-2"], "affine", "lower")
    assert np.allclose(out, 0.0)


def test_covariant_derivative_scalar_is_plain_gradient(charts):
    # on a scalar both connections act like ordinary derivatives
    st = charts["synthetic_torsion"]
    q = [0.4, 0.9]
    for conn in ("riemann", "affine"):
        grad = covariant_derivative(st, q, "q1*q2^2", conn, "scalar")
        assert np.allclose(grad, [0.9**2, 2 * 0.4 * 0.9], rtol=1e-12)


def test_covariant_derivative_rejects_unknown_names(charts):
    with pytest.raises(ExpressionParseError) as err:
        covariant_derivative(charts["polar"], [1.0, 0.2], ["zz*q1", "0"])
    assert (err.value.token, err.value.column) == ("zz", 1)
    with pytest.raises(ExpressionParseError):
        covariant_derivative(charts["polar"], [1.0, 0.2], "q1 + t", variance="scalar")


def test_covariant_derivative_polar_hand_value():
    polar = builtin_chart("polar")
    r = 1.9
    out = covariant_derivative(polar, [r, 0.6], ["1", "0"], "riemann", "upper")
    # radial unit field: D_theta v^theta = Gammabar_th r^th = 1/r
    assert out[1, 1] == pytest.approx(1.0 / r, rel=1e-12)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_metric_derivative_identity(charts, rng):
    # d_mu g_nulam = Gamma_munulam + Gamma_mulamnu for triad-built connections
    for name, chart in charts.items():
        for q in sample_points(name, 6, rng):
            res = identity_residuals(chart, q)
            assert res["metric_derivative"] < 1e-8, (name, q)


def test_trace_identity_on_torsionful_charts(charts, rng):
    for name in ("dislocation", "synthetic_torsion"):
        for q in sample_points(name, 8, rng):
            res = identity_residuals(charts[name], q)
            assert res["trace_identity"] < 1e-10


def test_metricity(charts, rng):
    for name, chart in charts.items():
        for q in sample_points(name, 6, rng):
            assert metricity_residual(chart, q) < 1e-8
