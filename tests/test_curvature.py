import numpy as np
import pytest

from torsionlab import (
    cartan_curvature,
    curvature_relation_check,
    geometry_point,
    ricci_scalar_einstein,
    riemann_curvature,
)
from torsionlab.charts import builtin_chart
from torsionlab.errors import ValidationError

from conftest import sample_points


def triad_commutator_curvature(chart, q):
    """Independent oracle for square charts: e_i^kap (dd - dd) e^i_lam.

    Smooth single-valued triads have commuting partials, so this vanishes
    identically; it pins down that the curl-of-connection form measures the
    same thing for integrable frames.
    """
    d2E = chart.triad_derivatives(q, order=2)
    anti = d2E - d2E.transpose(0, 1, 3, 2)
    R = chart.reciprocal_triad(q)
    return np.einsum("ik,ilnm->mnlk", R, anti)


def test_flat_charts_have_zero_curvature(charts, rng):
    for name in ("cartesian", "polar", "synthetic_torsion"):
        chart = charts[name]
        for q in sample_points(name, 6, rng):
            assert np.max(np.abs(cartan_curvature(chart, q))) < 1e-8, name
            assert np.max(np.abs(riemann_curvature(chart, q))) < 1e-8, name


def test_cartan_matches_triad_commutator_oracle(charts, rng):
    for name in ("dislocation", "synthetic_torsion", "polar"):
        chart = charts[name]
        for q in sample_points(name, 5, rng):
            oracle = triad_commutator_curvature(chart, q)
            assert np.max(np.abs(oracle)) < 1e-10
            assert np.max(np.abs(cartan_curvature(chart, q) - oracle)) < 1e-8


def test_sphere_cartan_equals_riemann(charts, rng):
    sphere = charts["sphere"]
    for q in sample_points("sphere", 5, rng):
        cb = geometry_point(sphere, q)
        assert np.max(np.abs(cb.cartan - cb.riemann)) < 1e-10
        assert np.max(np.abs(cb.cartan)) > 0.1  # genuinely curved


def test_sphere_scalar_and_component():
    r = 1.7
    sphere = builtin_chart("sphere", r=r)
    q = [0.9, 0.3]
    ricci, scalar, einstein = ricci_scalar_einstein(sphere, q, source="riemann")
    assert abs(scalar) * r * r == pytest.approx(2.0, rel=1e-10)
    # sign convention of the curl formula makes the sphere scalar positive
    assert scalar > 0
    R4 = riemann_curvature(sphere, q)
    # single independent component consistent with the scalar magnitude
    g = sphere.metric(q)
    component = R4[0, 1, 1, 0] * np.linalg.inv(g)[1, 1] * g[0, 0]
    assert abs(scalar) == pytest.approx(2 * abs(R4[0, 1, 1, 0]) / g[1, 1], rel=1e-8)


def test_sphere_scalar_homogeneous(rng):
    r = 1.3
    sphere = builtin_chart("sphere", r=r)
    scalars = [
        geometry_point(sphere, q).ricci_scalar_einstein("riemann")[1] * r * r
        for q in sample_points("sphere", 10, rng)
    ]
    assert np.max(np.abs(np.array(scalars) - 2.0)) < 1e-6


def test_einstein_vanishes_in_two_dimensions(charts, rng):
    for name in ("sphere", "polar", "disclination", "synthetic_torsion"):
        chart = charts[name]
        for q in sample_points(name, 4, rng):
            for source in ("riemann", "cartan"):
                _, _, einstein = ricci_scalar_einstein(chart, q, source=source)
                assert np.max(np.abs(einstein)) < 1e-8


def test_flat_triple():
    _, scalar, einstein = ricci_scalar_einstein(builtin_chart("cartesian"), [0.1, 0.2])
    assert scalar == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(einstein, 0.0)


def test_antisymmetry_exact(charts, rng):
    for name in ("sphere", "synthetic_torsion", "dislocation"):
        chart = charts[name]
        for q in sample_points(name, 4, rng):
            R4 = cartan_curvature(chart, q)
            assert np.max(np.abs(R4 + R4.transpose(1, 0, 2, 3))) < 1e-14
            R4b = riemann_curvature(chart, q)
            assert np.max(np.abs(R4b + R4b.transpose(1, 0, 2, 3))) < 1e-14


def test_curvature_relation(charts, rng):
    # torsion-free: degenerates to cartan == riemann
    for q in sample_points("polar", 4, rng):
        assert curvature_relation_check(charts["polar"], q) < 1e-8
    for q in sample_points("synthetic_torsion", 6, rng):
        assert curvature_relation_check(charts["synthetic_torsion"], q) < 1e-6
    for q in sample_points("dislocation", 6, rng):
        assert curvature_relation_check(charts["dislocation"], q) < 1e-6


def test_source_validation(charts):
    with pytest.raises(Exception):
        ricci_scalar_einstein(charts["sphere"], [1.0, 0.0], source="weyl")
    with pytest.raises(ValidationError, match="'riemann' or 'cartan'"):
        geometry_point(charts["sphere"], [1.0, 0.0]).ricci_scalar_einstein("weyl")
