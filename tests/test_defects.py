import math

import numpy as np
import pytest

from torsionlab import (
    LoopSpec,
    angle_gradient,
    burgers_vector,
    frank_angle,
    make_disclination,
    make_dislocation,
    square_loop,
    torsion_flux,
    torsion_tensor,
    winding_integral,
)
from torsionlab.errors import DimensionMismatchError, SingularPointError, ValidationError

TWO_PI = 2 * math.pi

ENCLOSING = square_loop(1.0, samples_per_edge=16)
OFFSET = square_loop(0.4, center=(2.0, 1.5), samples_per_edge=16)


def test_make_dislocation_limits():
    flat = make_dislocation(0.0)
    assert np.allclose(flat.chart.triad([0.7, -0.3]), np.eye(2))
    disl = make_dislocation(0.1)
    assert np.allclose(disl.chart.triad([1.0, 0.0]), [[1.0, 0.0], [0.0, 1.1]])


def test_make_disclination_limits():
    flat = make_disclination(0.0)
    assert np.allclose(flat.chart.metric([0.5, 0.8]), np.eye(2), atol=1e-14)
    with pytest.raises(ValidationError):
        make_disclination(0.5)  # outside the linearized regime


def test_disclination_metric_matches_linearized_form(rng):
    om = 0.01
    disc = make_disclination(om)
    for _ in range(5):
        q = rng.uniform(0.3, 2.0, size=2)
        g = disc.chart.metric(q)
        r2 = q @ q
        eq = np.array([q[1], -q[0]])  # epsilon^mu_nu q^nu
        expected = np.eye(2) - (2 * om / r2) * np.outer(eq, eq)
        assert np.max(np.abs(g - expected)) < 5 * om * om  # linear order in om


def test_winding_integral():
    assert winding_integral(angle_gradient, ENCLOSING) == pytest.approx(TWO_PI, abs=1e-6)
    assert winding_integral(angle_gradient, OFFSET) == pytest.approx(0.0, abs=1e-8)
    double = square_loop(1.0, samples_per_edge=16, turns=2)
    assert winding_integral(angle_gradient, double) == pytest.approx(2 * TWO_PI, abs=1e-6)


@pytest.mark.parametrize("q", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], 1.0])
def test_angle_gradient_needs_a_2d_point(q):
    with pytest.raises(DimensionMismatchError):
        angle_gradient(q)


def test_burgers_vector_values():
    assert np.allclose(burgers_vector(make_dislocation(0.0), ENCLOSING).b, 0.0, atol=1e-12)
    eps = 0.1
    res = burgers_vector(make_dislocation(eps), ENCLOSING)
    assert np.allclose(res.b, [0.0, TWO_PI * eps], atol=1e-6)
    assert np.allclose(res.b_over_2pi, [0.0, eps], atol=1e-7)
    assert res.winding == pytest.approx(1.0, abs=1e-7)
    away = burgers_vector(make_dislocation(eps), OFFSET)
    assert np.allclose(away.b, 0.0, atol=1e-8)


def test_burgers_homotopy_invariance():
    eps = 0.07
    defect = make_dislocation(eps)
    loops = [
        square_loop(1.0, samples_per_edge=16),
        square_loop(2.3, samples_per_edge=16),
        square_loop(1.4, center=(0.2, -0.3), samples_per_edge=16),
        LoopSpec(
            vertices=((2, 0), (0.5, 1.8), (-2, 0.4), (-0.6, -2.1), (2, 0)),
            samples_per_edge=24,
        ),
    ]
    values = [np.asarray(burgers_vector(defect, lp).b) for lp in loops]
    for v in values[1:]:
        assert np.max(np.abs(v - values[0])) < 1e-6


def test_burgers_linearity_in_parameter():
    loop = square_loop(1.0, samples_per_edge=16)
    values = {eps: burgers_vector(make_dislocation(eps), loop).b[1] for eps in (0.01, 0.05, 0.1)}
    base = values[0.01] / 0.01
    for eps, val in values.items():
        assert abs(val / eps - base) / abs(base) < 1e-6


def test_pointwise_torsion_vanishes_but_flux_does_not(rng):
    defect = make_dislocation(0.1)
    for _ in range(5):
        q = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        assert np.max(np.abs(torsion_tensor(defect.chart, q))) < 1e-10
    flux = torsion_flux(defect, ENCLOSING)
    assert abs(flux[1]) > 0.1


def test_torsion_flux_consistency():
    defect = make_dislocation(0.1)
    assert np.allclose(torsion_flux(make_dislocation(0.0), ENCLOSING), 0.0, atol=1e-12)
    flux = torsion_flux(defect, ENCLOSING)
    assert np.max(np.abs(flux - np.asarray(burgers_vector(defect, ENCLOSING).b))) < 1e-8
    inner = square_loop(0.8, samples_per_edge=16)
    outer = square_loop(2.5, samples_per_edge=16)
    assert np.max(np.abs(torsion_flux(defect, inner) - torsion_flux(defect, outer))) < 1e-6


def test_frank_angle():
    om = 0.01
    disc = make_disclination(om)
    assert frank_angle(make_disclination(0.0), ENCLOSING) == pytest.approx(0.0, abs=1e-12)
    value = frank_angle(disc, ENCLOSING)
    assert value == pytest.approx(-TWO_PI * om, rel=0.02)
    assert frank_angle(disc, OFFSET) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValidationError):
        frank_angle(make_dislocation(0.1), ENCLOSING)


def test_loop_validation():
    with pytest.raises(ValidationError):
        LoopSpec(vertices=((0, 0), (1, 0), (0, 1)))  # not closed
    with pytest.raises(ValidationError):
        LoopSpec(vertices=((0, 0), (1, 0), (0, 0)), samples_per_edge=4)
    defect = make_dislocation(0.1)
    through_origin = LoopSpec(vertices=((0, 0), (1, 0), (0, 1), (0, 0)))
    with pytest.raises(SingularPointError):
        burgers_vector(defect, through_origin)
