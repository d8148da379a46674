import math

import numpy as np
import pytest

from torsionlab import (
    Trajectory,
    closure_defect_by_quadrature,
    commutation_defect,
    integrate_autoparallel,
    integrate_geodesic,
    kinetic_energy,
    nonholonomic_variation,
    solve_variation_ode,
    straight_line_image,
    torsion_el_residual,
)
from torsionlab.charts import Chart, builtin_chart
from torsionlab.errors import SamplingError, ValidationError

FLAT = Chart(dim=2, kind="map", exprs=["q1", "q2"])


def sphere_embed(q):
    return np.array(
        [
            math.sin(q[0]) * math.cos(q[1]),
            math.sin(q[0]) * math.sin(q[1]),
            math.cos(q[0]),
        ]
    )


def test_flat_geodesic_is_straight_line():
    traj = integrate_geodesic(FLAT, [0.0, 1.0], [0.5, -0.2], (0.0, 2.0), 1e-2)
    expected = np.array([0.0, 1.0]) + np.outer(traj.t, [0.5, -0.2])
    assert np.max(np.abs(traj.q - expected)) < 1e-12
    assert not traj.truncated


def test_polar_geodesic_maps_to_straight_line():
    polar = builtin_chart("polar")
    traj = integrate_geodesic(polar, [1.5, 0.2], [0.3, 0.4], (0.0, 1.0), 1e-3)
    pts = np.array([[r * math.cos(th), r * math.sin(th)] for r, th in traj.q])
    # the image must be affine in t: compare against the chord parametrization
    line = pts[0] + np.outer(traj.t, (pts[-1] - pts[0]) / (traj.t[-1] - traj.t[0]))
    assert np.max(np.linalg.norm(pts - line, axis=1)) < 1e-6


def test_sphere_great_circle_closes():
    sphere = builtin_chart("sphere", r=1.0)
    q0 = [1.0, 0.0]
    a = 0.6
    b = math.sqrt(1 - a * a) / math.sin(q0[0])  # unit speed
    traj = integrate_geodesic(sphere, q0, [a, b], (0.0, 2 * math.pi), 1e-3)
    assert np.linalg.norm(sphere_embed(traj.q[-1]) - sphere_embed(traj.q[0])) < 1e-5


def test_energy_conservation():
    sphere = builtin_chart("sphere", r=1.0)
    traj = integrate_geodesic(sphere, [1.0, 0.0], [0.4, 0.9], (0.0, 1.0), 1e-3)
    E = kinetic_energy(sphere, traj)
    assert np.max(np.abs(E - E[0])) / E[0] < 1e-6
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    traj2 = integrate_autoparallel(st, [0.1, 0.0], [0.8, 0.5], (0.0, 1.0), 1e-3)
    E2 = kinetic_energy(st, traj2)
    assert np.max(np.abs(E2 - E2[0])) / E2[0] < 1e-6


def test_autoparallel_equals_geodesic_without_torsion():
    polar = builtin_chart("polar")
    ge = integrate_geodesic(polar, [1.2, 0.5], [0.4, -0.3], (0.0, 1.0), 1e-3)
    ap = integrate_autoparallel(polar, [1.2, 0.5], [0.4, -0.3], (0.0, 1.0), 1e-3)
    assert np.max(np.abs(ge.q - ap.q)) < 1e-8


def test_autoparallel_is_image_of_straight_line():
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    ap = integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-3)
    image = straight_line_image(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-3)
    assert np.max(np.abs(ap.q - image.q)) < 1e-5


def test_autoparallel_on_dislocation_matches_geodesic_off_origin():
    disl = builtin_chart("dislocation", eps=0.1)
    q0, v0 = [1.5, 1.5], [0.3, -0.2]
    ge = integrate_geodesic(disl, q0, v0, (0.0, 1.0), 1e-3)
    ap = integrate_autoparallel(disl, q0, v0, (0.0, 1.0), 1e-3)
    assert np.max(np.abs(ge.q - ap.q)) < 1e-6


def test_geodesics_extremize_length():
    # perturbing a great-circle arc with endpoints fixed never shortens it
    sphere = builtin_chart("sphere", r=1.0)
    base = integrate_geodesic(sphere, [1.0, 0.0], [0.5, 0.9], (0.0, 1.0), 2e-3)

    def discrete_length(qs):
        total = 0.0
        for k in range(len(qs) - 1):
            mid = 0.5 * (qs[k] + qs[k + 1])
            dq = qs[k + 1] - qs[k]
            g = sphere.metric(mid)
            total += math.sqrt(dq @ g @ dq)
        return total

    L0 = discrete_length(base.q)
    rng = np.random.default_rng(7)
    bump = np.sin(math.pi * (base.t - base.t[0]) / (base.t[-1] - base.t[0]))
    for _ in range(5):
        direction = rng.normal(size=2)
        perturbed = base.q + 1e-3 * np.outer(bump, direction)
        assert discrete_length(perturbed) >= L0 - 1e-9


def test_truncated_run_flagged():
    disl = builtin_chart("dislocation", eps=0.1)
    # aim straight at the excluded origin
    traj = integrate_geodesic(disl, [1.0, 0.0], [-1.0, 0.0], (0.0, 2.0), 1e-3)
    assert traj.truncated
    assert len(traj) < 2001


def test_truncated_line_image_ends_at_last_evaluated_sample():
    # dq/dt = q; the first unit step lands on q = 2.7083, inside the guard's hole
    chart = Chart(dim=1, kind="triad", exprs=["1/q1"], guard="(q1 - 2.708)^2 - 1e-6")
    for _ in range(2):
        traj = straight_line_image(chart, [1.0], [1.0], (0.0, 2.0), 1.0)
        assert traj.truncated
        assert traj.t.tolist() == [0.0]
        assert traj.q.tolist() == [[1.0]]
        assert traj.qdot.tolist() == [[1.0]]


DOMAIN_ERROR_STARTS = {
    # sqrt of a negative value: EvaluationError
    "evaluation_error": (
        Chart(dim=2, kind="map", exprs=["q1 + 0.1*sqrt(q1)", "q2"]), [0.5, 0.0], [-1.0, 0.0]
    ),
    # sqrt(det g) = exp(-40 q1) falls below the floor: DegenerateTriadError
    "degenerate_triad": (
        Chart(dim=2, kind="triad", exprs=["exp(-40*q1)", "0", "0", "1"]), [0.0, 0.0], [1.0, 0.0]
    ),
}


@pytest.mark.parametrize("start", sorted(DOMAIN_ERROR_STARTS))
@pytest.mark.parametrize(
    "integrate", (integrate_geodesic, integrate_autoparallel, straight_line_image)
)
def test_domain_error_truncates(integrate, start):
    chart, q0, qdot0 = DOMAIN_ERROR_STARTS[start]
    traj = integrate(chart, q0, qdot0, (0.0, 1.0), 1e-2)
    assert traj.truncated
    assert 1 < len(traj) < 101
    assert traj.q.shape == traj.qdot.shape == (len(traj.t), 2)
    assert np.all(np.isfinite(traj.qdot))
    for q in traj.q:
        chart.triad(q)  # every returned sample is a point where the chart evaluates


# -- nonholonomic variation ----------------------------------------------------

DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]


def test_variation_vanishes_without_torsion():
    polar = builtin_chart("polar")
    base = integrate_geodesic(polar, [1.0, 0.3], [0.2, 0.4], (0.0, 1.0), 1e-3)
    run = nonholonomic_variation(polar, base, DELTAQ)
    assert np.max(np.abs(run.delta_b)) < 1e-10
    assert np.max(np.abs(run.drive)) < 1e-12


def test_variation_closed_form_with_constant_drive():
    # G = 0 and constant Sigma: delta_b(t) = Sigma . integral of delta_q
    D = 2
    Sigma = np.array([[0.0, 2.0], [-1.0, 0.5]])
    grid = np.linspace(0.0, 1.0, 2001)
    half = np.linspace(0.0, 1.0, 2 * len(grid) - 1)  # nodes and step midpoints

    def dq(t):
        return np.array([t * (1 - t), math.sin(math.pi * t) * 0.5])

    db = solve_variation_ode(
        np.zeros((len(half), D, D)), np.tile(Sigma, (len(half), 1, 1)), [dq(t) for t in half], grid
    )
    integral = np.array([1.0 / 6.0, 1.0 / math.pi])
    assert np.allclose(db[-1], Sigma @ integral, atol=1e-8)


def test_variation_two_independent_solvers_agree():
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    base = integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-3)
    run = nonholonomic_variation(st, base, DELTAQ)
    db_quad = closure_defect_by_quadrature(st, base, DELTAQ)
    assert np.max(np.abs(run.delta_b - db_quad)) < 1e-6
    # closure failure at the endpoint is genuinely nonzero with torsion
    assert np.max(np.abs(run.delta_b[-1])) > 1e-3


def test_variation_validates_endpoints():
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    base = integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-2)
    with pytest.raises(ValidationError):
        nonholonomic_variation(st, base, ["t", "0"])
    with pytest.raises(ValidationError):
        nonholonomic_variation(st, base, ["t*(1-t)"])


@pytest.mark.parametrize("t_span, step", [((0.0, math.inf), 1e-2), ((0.0, math.nan), 1e-2),
                                           ((-math.inf, 1.0), 1e-2), ((0.0, 1.0), 1e-320)])
def test_non_finite_time_grids_are_rejected(t_span, step):
    polar = builtin_chart("polar")
    for integrate in (integrate_geodesic, integrate_autoparallel, straight_line_image):
        with pytest.raises(ValidationError, match="finite"):
            integrate(polar, [1.0, 0.0], [0.0, 1.0], t_span, step)


def test_variation_on_nonuniform_base():
    # h = 1e-2 over (0, 0.4), then the same autoparallel continued at h = 2.5e-3
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    q0, v0 = [0.1, 0.2], [1.0, 0.7]
    head = integrate_autoparallel(st, q0, v0, (0.0, 0.4), 1e-2)
    tail = integrate_autoparallel(st, head.q[-1], head.qdot[-1], (0.4, 1.0), 2.5e-3)
    base = Trajectory(
        t=np.concatenate((head.t, tail.t[1:])),
        q=np.concatenate((head.q, tail.q[1:])),
        qdot=np.concatenate((head.qdot, tail.qdot[1:])),
    )
    run = nonholonomic_variation(st, base, DELTAQ)
    assert np.max(np.abs(run.delta_b - closure_defect_by_quadrature(st, base, DELTAQ))) < 1e-5
    uniform = nonholonomic_variation(st, integrate_autoparallel(st, q0, v0, (0.0, 1.0), 1e-3), DELTAQ)
    assert np.max(np.abs(run.delta_b[-1] - uniform.delta_b[-1])) < 1e-8


# -- torsion-modified Euler-Lagrange ------------------------------------------


def test_el_residual_zero_for_geodesic_without_torsion():
    polar = builtin_chart("polar")
    traj = integrate_geodesic(polar, [1.2, 0.1], [0.3, 0.5], (0.0, 1.0), 1e-3)
    _, res = torsion_el_residual(polar, traj)
    assert np.max(np.abs(res)) < 1e-5


def test_el_residual_discriminates_autoparallel_from_geodesic():
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    q0, v0 = [0.1, 0.2], [1.0, 0.7]
    ap = integrate_autoparallel(st, q0, v0, (0.0, 1.0), 1e-3)
    ge = integrate_geodesic(st, q0, v0, (0.0, 1.0), 1e-3)
    _, res_ap = torsion_el_residual(st, ap)
    _, res_ge = torsion_el_residual(st, ge)
    assert np.max(np.abs(res_ap)) < 1e-4
    assert np.max(np.abs(res_ge)) > 10 * 1e-4


def test_el_residual_needs_enough_samples():
    polar = builtin_chart("polar")
    traj = integrate_geodesic(polar, [1.2, 0.1], [0.3, 0.5], (0.0, 0.05), 1e-2)
    with pytest.raises(SamplingError):
        torsion_el_residual(polar, traj)


# -- commutation defect ---------------------------------------------------------


def test_commutation_defect_zero_without_torsion():
    polar = builtin_chart("polar")
    out = commutation_defect(polar, [1.1, 0.2], [0.5, 0.1], [0.0, 0.3])
    assert np.max(np.abs(out)) < 1e-12


def test_commutation_defect_hand_value_and_antisymmetry():
    alpha = 0.3
    st = builtin_chart("synthetic_torsion", alpha=alpha)
    q = [0.0, 0.7]
    out = commutation_defect(st, q, [1.0, 0.0], [0.0, 1.0])
    assert out[1] == pytest.approx(alpha, rel=1e-12)
    assert out[0] == pytest.approx(0.0, abs=1e-15)
    flipped = commutation_defect(st, q, [0.0, 1.0], [1.0, 0.0])
    assert np.allclose(out, -flipped)
