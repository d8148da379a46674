import json
import math

import numpy as np
import pytest

from torsionlab import Chart, builtin_chart, load_chart, save_chart
from torsionlab.errors import (
    DegenerateTriadError,
    DimensionMismatchError,
    EvaluationError,
    ExpressionParseError,
    SingularPointError,
    ValidationError,
)

from conftest import sample_points

IDENTITY = Chart(dim=2, kind="map", exprs=["q1", "q2"])


def test_identity_triad():
    assert np.allclose(IDENTITY.triad([0.3, 0.7]), np.eye(2))


def test_polar_triad_hand_value():
    polar = builtin_chart("polar")
    E = polar.triad([2.0, math.pi / 2])
    assert np.allclose(E, [[0.0, -2.0], [1.0, 0.0]], atol=1e-14)


def test_dislocation_triad_hand_value():
    disl = builtin_chart("dislocation", eps=0.1)
    E = disl.triad([1.0, 0.0])
    assert np.allclose(E, [[1.0, 0.0], [0.0, 1.1]], atol=1e-14)


def test_reciprocal_identity_and_polar():
    assert np.allclose(IDENTITY.reciprocal_triad([0.1, 0.2]), np.eye(2))
    polar = builtin_chart("polar")
    R = polar.reciprocal_triad([2.0, math.pi / 2])
    # R[i, mu] = e_i^mu; as a matrix acting on flat indices this is the
    # transpose of the 2x2 inverse of the triad
    assert np.allclose(R.T, [[0.0, 1.0], [-0.5, 0.0]], atol=1e-14)


def test_orthogonality_random_points(charts, rng):
    for name in ("polar", "dislocation", "disclination", "synthetic_torsion"):
        chart = charts[name]
        for q in sample_points(name, 10, rng):
            E = chart.triad(q)
            R = chart.reciprocal_triad(q)
            assert np.max(np.abs(R.T @ E - np.eye(2))) < 1e-12
            assert np.max(np.abs(E @ R.T - np.eye(2))) < 1e-12


def test_embedded_sphere_orthogonality(charts, rng):
    sphere = charts["sphere"]
    for q in sample_points("sphere", 10, rng):
        E = sphere.triad(q)
        R = sphere.reciprocal_triad(q)
        assert E.shape == (3, 2)
        assert np.max(np.abs(np.einsum("im,in->mn", R, E) - np.eye(2))) < 1e-12
        # for an embedded chart the flat-index contraction is the tangent projector
        proj = np.einsum("im,jm->ij", R, E)
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12


def test_metric_examples():
    assert np.allclose(IDENTITY.metric([0.4, -0.1]), np.eye(2))
    polar = builtin_chart("polar")
    assert np.allclose(polar.metric([2.0, 1.1]), np.diag([1.0, 4.0]), atol=1e-14)
    disl = builtin_chart("dislocation", eps=0.1)
    assert np.allclose(disl.metric([1.0, 0.0]), [[1.0, 0.0], [0.0, 1.21]], atol=1e-14)


def test_metric_equals_triad_product(charts, rng):
    for name, chart in charts.items():
        for q in sample_points(name, 5, rng):
            E = chart.triad(q)
            assert np.max(np.abs(chart.metric(q) - E.T @ E)) < 1e-14


def test_triad_derivative_examples():
    assert np.allclose(IDENTITY.triad_derivatives([0.3, 0.7]), np.zeros((2, 2, 2)))
    polar = builtin_chart("polar")
    dE = polar.triad_derivatives([1.7, 0.6])
    # dE[i, kap, lam] = d_lam e^i_kap; d_r e^1_theta = -sin(theta)
    assert dE[0, 1, 0] == pytest.approx(-math.sin(0.6), rel=1e-12)
    st = builtin_chart("synthetic_torsion", alpha=0.25)
    dE_t = st.triad_derivatives([0.2, -0.4])
    assert dE_t[1, 1, 0] == pytest.approx(0.25)  # d_1 e^2_2 = alpha
    assert dE_t[1, 0, 1] == pytest.approx(0.0)  # d_2 e^2_1 = 0


def test_schwarz_condition_on_holonomic_charts(charts, rng):
    for name in ("cartesian", "polar", "sphere", "disclination"):
        chart = charts[name]
        for q in sample_points(name, 10, rng):
            dE = chart.triad_derivatives(q)
            assert np.max(np.abs(dE - dE.transpose(0, 2, 1))) < 1e-10


def test_forward_mode_matches_finite_differences(charts, rng):
    h = 1e-5
    for name in ("polar", "sphere", "dislocation", "synthetic_torsion"):
        chart = charts[name]
        for q in sample_points(name, 4, rng):
            dE = chart.triad_derivatives(q, order=1)
            for lam in range(chart.dim):
                dqv = np.zeros(chart.dim)
                dqv[lam] = h
                fd = (chart.triad(q + dqv) - chart.triad(q - dqv)) / (2 * h)
                scale = max(1.0, np.max(np.abs(fd)))
                assert np.max(np.abs(dE[:, :, lam] - fd)) / scale < 1e-6


def test_second_triad_derivatives_match_finite_differences(charts, rng):
    h = 1e-4
    chart = charts["sphere"]
    for q in sample_points("sphere", 3, rng):
        d2E = chart.triad_derivatives(q, order=2)
        for sig in range(2):
            dqv = np.zeros(2)
            dqv[sig] = h
            fd = (
                chart.triad_derivatives(q + dqv, 1) - chart.triad_derivatives(q - dqv, 1)
            ) / (2 * h)
            assert np.max(np.abs(d2E[:, :, :, sig] - fd)) < 1e-6


def test_guard_rejects_singular_points():
    disl = builtin_chart("dislocation", eps=0.1)
    with pytest.raises(SingularPointError):
        disl.triad([0.0, 0.0])
    polar = builtin_chart("polar")
    with pytest.raises(SingularPointError):
        polar.triad([-1.0, 0.2])
    assert disl.admitted([1.0, 1.0])
    assert not disl.admitted([0.0, 0.0])


def test_degenerate_triad_detected():
    squashed = Chart(dim=2, kind="triad", exprs=["q1", "0", "0", "1"])
    with pytest.raises(DegenerateTriadError):
        squashed.triad([0.0, 0.5])
    # fine away from the degeneracy
    assert np.allclose(squashed.triad([2.0, 0.5]), [[2.0, 0.0], [0.0, 1.0]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Chart(dim=2, kind="triad", exprs=["1", "0", "1"])
    with pytest.raises(DimensionMismatchError):
        Chart(dim=2, kind="map", exprs=["q1"])
    with pytest.raises(DimensionMismatchError):
        IDENTITY.triad([1.0, 2.0, 3.0])


def test_unknown_name_rejected():
    with pytest.raises(ExpressionParseError) as err:
        Chart(dim=2, kind="map", exprs=["q1", "q3"])
    assert err.value.token == "q3"


def test_chart_json_round_trip(tmp_path):
    chart = builtin_chart("dislocation", eps=0.05)
    path = tmp_path / "chart.json"
    save_chart(chart, path)
    loaded = load_chart(path)
    assert loaded.to_dict() == chart.to_dict()
    q = [0.8, -0.6]
    assert np.allclose(loaded.triad(q), chart.triad(q))


def test_chart_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_chart(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dim": 2, "kind": "map"}))
    with pytest.raises(ValidationError):
        load_chart(missing)


def test_builtin_param_overrides():
    chart = builtin_chart("sphere", r=2.5)
    g = chart.metric([math.pi / 2, 0.0])
    assert np.allclose(g, np.diag([6.25, 6.25]), atol=1e-12)
    with pytest.raises(ValidationError):
        builtin_chart("sphere", bogus=1.0)
    with pytest.raises(ValidationError):
        builtin_chart("nonexistent")


def test_order_zero_triad_needs_no_derivatives():
    # the value sqrt(0) exists although its derivative does not
    chart = Chart(dim=2, kind="triad", exprs=["1 + sqrt(q1)", "0", "0", "1"])
    (E,) = chart.triad_jets([0.0, 0.5], order=0)
    assert np.array_equal(E, np.eye(2))
    assert np.array_equal(chart.triad([0.0, 0.5]), np.eye(2))
    with pytest.raises(EvaluationError):
        chart.triad_jets([0.0, 0.5], order=1)
