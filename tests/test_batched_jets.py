"""Batched jet passes against the point-by-point path they replace.

A stack of points goes through ``Chart._jets`` in one pass; the variation
samples, the Euler-Lagrange residual and the kinetic energy read such a pass.  Each must give
the point-by-point values bit for bit (the residual: to 1e-13), and a batch
holding a failing point must raise what the point-by-point loop raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import torsionlab as tl
from torsionlab import dynamics
from torsionlab._local import LocalGeometry
from torsionlab.charts import BUILTIN_CHARTS, Chart
from torsionlab.dynamics import Trajectory

from conftest import SAMPLE_BOXES
from test_compiled_jets import PARAMS, cases, expressions_in
from test_trajectory_fields import FIELDS, FOUR_DIMENSIONAL

DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the two paths must fail alike
        return type(exc), str(exc)


def assert_bitwise(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True), np.max(np.abs(got - ref))
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def assert_same(got, ref):
    """Equal failures, or bitwise equal values."""
    if isinstance(ref, tuple) or isinstance(got, tuple):
        assert isinstance(got, tuple) and got == ref, (ref, got)
        return
    assert_bitwise(got, ref)


def pointwise_jets(chart, points, order):
    """The per-point jets, stacked in the batch layout (expressions, partials, N)."""
    return np.moveaxis(np.array([chart._jets(q, order) for q in points]), 0, -1)


# -- jets of generated charts -----------------------------------------------------------


@st.composite
def chart_batches(draw):
    """A map or triad chart whose first expression and first point come from
    ``cases()``, the other entries from the same expression strategy, and
    up to five more points."""
    source, names, point = draw(cases())
    dim = len(names)
    kind = draw(st.sampled_from(["map", "triad"]))
    count = dim * dim if kind == "triad" else dim
    others = draw(st.lists(expressions_in(dim), min_size=count - 1, max_size=count - 1))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    points = [point] + draw(st.lists(coords, max_size=5))
    return Chart(dim, kind, [source, *others], params=PARAMS), np.array(points, dtype=float)


@settings(max_examples=200, deadline=None)
@given(case=chart_batches(), order=st.integers(0, 2))
def test_batched_jets_equal_pointwise(case, order):
    chart, points = case
    assert_same(outcome(chart._jets, points, order), outcome(pointwise_jets, chart, points, order))


@pytest.fixture
def jet_calls(monkeypatch):
    """Points (one shape each) of every ``Chart._jets`` call made while the test runs."""
    calls = []
    original = Chart._jets

    def counting(self, q, order):
        calls.append(np.shape(q))
        return original(self, q, order)

    monkeypatch.setattr(Chart, "_jets", counting)
    return calls


@pytest.mark.parametrize("name", BUILTIN_CHARTS)
def test_builtin_batches_equal_pointwise(name, rng, jet_calls):
    chart = tl.builtin_chart(name)
    lo, hi = np.array(SAMPLE_BOXES.get(name, ((0.4, 1.9),) * chart.dim)).T
    points = lo + (hi - lo) * rng.random((40, chart.dim))
    for order in (0, 1, 2):
        jet_calls.clear()
        batch = chart._jets(points, order)
        assert jet_calls == [points.shape]  # the batch needed no point-by-point rerun
        assert_bitwise(batch, pointwise_jets(chart, points, order))
        batch = LocalGeometry.of(chart, points, order)
        for k, q in enumerate(points):
            single = LocalGeometry.of(chart, q, order)
            for name in ("E", "g", "invg", "recip") + (("dg", "gamma", "torsion") if order else ()):
                assert_bitwise(getattr(batch, name)[k], getattr(single, name))


# -- failing points -----------------------------------------------------------------------

RANK_ONE = Chart(dim=2, kind="triad", exprs=["0.1*q1", "0.3*q1", "0.2*q1", "0.6*q1"])
FAILING_BATCHES = {
    # (chart, points, triad order)
    "guard": (tl.builtin_chart("polar"), [[1.0, 0.2], [0.8, 0.1], [-0.5, 0.1], [0.0, 0.3]], 1),
    "log": (Chart(2, "map", ["log(q1)", "q2"]), [[1.0, 0.2], [0.0, 0.1], [-1.0, 0.3]], 2),
    "sqrt": (Chart(2, "triad", ["sqrt(q1)", "0", "0", "1"]), [[1.0, 0.2], [-1.0, 0.1]], 1),
    "sqrt_at_zero": (Chart(1, "map", ["sqrt(q1)"]), [[1.0], [0.5], [0.0]], 0),
    # overflows to inf silently, as Python floats do, then math.sin(inf) raises
    "sin_of_overflow": (Chart(1, "map", ["sin(q1*1e308)"]), [[0.5], [10.0]], 0),
}


@pytest.mark.parametrize("case", sorted(FAILING_BATCHES))
def test_failing_batch_raises_like_pointwise(case):
    chart, points, order = FAILING_BATCHES[case]
    points = np.array(points)
    ref = outcome(pointwise_jets, chart, points, order)
    assert isinstance(ref, tuple)
    assert outcome(chart._jets, points, order) == ref


def pointwise_geometry(chart, points):
    return [LocalGeometry.of(chart, q, 1).g for q in points]


def test_rank_one_triad_is_decided_per_point():
    # the LU det of this exactly singular triad admits q1 = 1.0 and 1.3 and
    # rejects q1 = 0.7 by rounding; a batch decides every point alike
    admitted = np.array([[1.0, 0.0], [1.3, 0.2]])
    batch = LocalGeometry.of(RANK_ONE, admitted, 1)
    assert_bitwise(batch.g, pointwise_geometry(RANK_ONE, admitted))
    for points in ([[1.0, 0.0], [0.7, 0.1], [1.3, 0.2]], [[0.7, 0.1]]):
        points = np.array(points)
        ref = outcome(pointwise_geometry, RANK_ONE, points)
        assert ref[0] is tl.DegenerateTriadError and "[0.7, 0.1]" in ref[1]
        assert outcome(lambda: LocalGeometry.of(RANK_ONE, points, 1).g) == ref


def straight_path(q0, q1, n=9):
    """A uniformly sampled straight path from q0 to q1 over t in [0, 1]."""
    t = np.linspace(0.0, 1.0, n)
    q0, q1 = np.asarray(q0, float), np.asarray(q1, float)
    return Trajectory(t=t, q=q0 + np.outer(t, q1 - q0), qdot=np.tile(q1 - q0, (n, 1)))


FAILING_PATHS = {
    "rank_one": (RANK_ONE, straight_path([1.3, 0.0], [0.6, 0.4])),
    "guard": (tl.builtin_chart("polar"), straight_path([1.0, 0.0], [-0.6, 0.5])),
    "degenerate_band": (
        Chart(dim=2, kind="triad", exprs=["exp(-1/q1^2)", "0", "0", "1"]),
        straight_path([0.5, 0.0], [0.05, 0.3]),
    ),
    # the band comes before the guard: the jets alone would fail at the guard
    "degenerate_then_guard": (
        Chart(dim=2, kind="triad", exprs=["exp(-1/q1^2)", "0", "0", "1"], guard="q1 - 0.02"),
        straight_path([0.5, 0.0], [-0.5, 0.3]),
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING_PATHS))
def test_failing_paths_raise_like_pointwise(case):
    chart, path = FAILING_PATHS[case]
    ref = outcome(reference_samples, chart, path, DELTAQ)
    assert isinstance(ref, tuple)
    assert outcome(dynamics.nonholonomic_variation, chart, path, DELTAQ) == ref
    assert outcome(dynamics.closure_defect_by_quadrature, chart, path, DELTAQ) == ref
    ref = outcome(reference_el_residual, chart, path)
    assert isinstance(ref, tuple)
    assert outcome(dynamics.torsion_el_residual, chart, path) == ref
    ref = outcome(reference_kinetic_energy, chart, path)
    assert isinstance(ref, tuple)
    assert outcome(dynamics.kinetic_energy, chart, path) == ref


# -- consumers against point-by-point references -------------------------------------------


def reference_samples(chart, base, deltaq, params=None):
    """Half-step samples taken one at a time through ``variation_matrices``."""
    env = dict(chart.params)
    env.update(params or {})
    dq_fn = dynamics._parse_variation(deltaq, chart.dim, env)
    m, D = 2 * len(base) - 1, chart.dim
    dq, G, Sigma = np.empty((m, D)), np.empty((m, D, D)), np.empty((m, D, D))
    for j in range(m):
        k, mid = divmod(j, 2)
        t, q, v = base.t[k], base.q[k], base.qdot[k]
        if mid:
            h, q1, v1 = base.t[k + 1] - t, base.q[k + 1], base.qdot[k + 1]
            t += 0.5 * h
            q, v = 0.5 * (q + q1) + 0.125 * h * (v - v1), 1.5 * (q1 - q) / h - 0.25 * (v + v1)
        dq[j] = dq_fn(t)
        G[j], Sigma[j] = tl.variation_matrices(chart, q, v)
    return dq, G, Sigma


def reference_quadrature(chart, base, deltaq):
    dq, G, Sigma = reference_samples(chart, base, deltaq)
    integrand = np.einsum("kmn,kn->km", Sigma[::2], dq[::2])
    db = np.zeros_like(integrand)
    for k, h in enumerate(np.diff(base.t)):
        prop = expm(-G[2 * k + 1] * h)
        db[k + 1] = prop @ (db[k] + 0.5 * h * integrand[k]) + 0.5 * h * integrand[k + 1]
    return db


def reference_el_residual(chart, traj, mass=1.0):
    n, h = len(traj), traj.t[1] - traj.t[0]
    p, dLdq, force = (np.empty((n, chart.dim)) for _ in range(3))
    for k in range(n):
        geo = LocalGeometry.of(chart, traj.q[k], 1)
        v = traj.qdot[k]
        p[k] = mass * geo.g @ v
        dLdq[k] = 0.5 * mass * np.einsum("mnl,m,n->l", geo.dg, v, v)
        force[k] = 2.0 * np.einsum("lmn,m,n->l", geo.torsion, v, p[k])
    dp = (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * h)
    return traj.t[2:-2], dLdq[2:-2] - dp - force[2:-2]


def reference_kinetic_energy(chart, traj, mass=1.0):
    return np.array([0.5 * mass * float(v @ chart.metric(q) @ v) for q, v in zip(traj.q, traj.qdot)])


BASES = {  # the paths of the trajectories benchmark and of criteria 3 and 5
    "synthetic_torsion": lambda chart: tl.integrate_autoparallel(
        chart, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-3),
    "polar": lambda chart: tl.integrate_geodesic(chart, [1.0, 0.3], [0.2, 0.4], (0.0, 1.0), 1e-3),
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_variation_equals_pointwise_reference(name):
    chart = tl.builtin_chart(name)
    base = BASES[name](chart)
    dq, G, Sigma = reference_samples(chart, base, DELTAQ)
    run = tl.nonholonomic_variation(chart, base, DELTAQ)
    assert_bitwise(run.delta_q, dq[::2])
    assert_bitwise(run.transport, G[::2])
    assert_bitwise(run.drive, Sigma[::2])
    assert_bitwise(run.delta_b, dynamics.solve_variation_ode(G, Sigma, dq, base.t))
    got = tl.closure_defect_by_quadrature(chart, base, DELTAQ)
    assert_bitwise(got, reference_quadrature(chart, base, DELTAQ))


TRIAD3 = Chart(3, "triad", ["1 + 0.2*sin(q2)", "0.1*q3", "0", "0", "1 + 0.3*q1", "0.2*cos(q1)",
                            "0.1*q1*q2", "0", "exp(0.1*q3)"])


@pytest.mark.parametrize("name", sorted(BASES) + ["sphere", "dislocation", "triad3"])
def test_el_residual_matches_per_node_reference(name):
    if name == "triad3":
        chart = TRIAD3
        traj = tl.integrate_autoparallel(chart, [0.1, -0.2, 0.3], [0.5, 0.4, -0.3], (0.0, 0.5), 1e-2)
    elif name in BASES:
        chart = tl.builtin_chart(name)
        traj = BASES[name](chart)
    else:
        chart = tl.builtin_chart(name)
        traj = tl.integrate_geodesic(chart, [1.0, 0.5], [0.3, -0.2], (0.0, 0.5), 1e-2)
    t, got = tl.torsion_el_residual(chart, traj)
    t_ref, ref = reference_el_residual(chart, traj)
    assert_bitwise(t, t_ref)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name", sorted(BASES) + ["sphere"])
def test_kinetic_energy_equals_per_node_reference(name, jet_calls):
    chart = tl.builtin_chart(name)
    traj = BASES[name](chart) if name in BASES else tl.integrate_geodesic(
        chart, [1.0, 0.0], [0.4, 0.9], (0.0, 1.0), 1e-3)
    jet_calls.clear()
    got = tl.kinetic_energy(chart, traj)
    assert jet_calls == [traj.q.shape]  # one batched pass
    assert_bitwise(got, reference_kinetic_energy(chart, traj))


# -- generated fields over a batch ----------------------------------------------------------


OTHER_CHARTS = {"triad3": TRIAD3, "map1": Chart(1, "map", ["2*cos(q1)", "2*sin(q1)", "0.5*q1"])}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["sphere", "synthetic_torsion", "dislocation", "triad3", "map1"])
def test_batched_fields_equal_pointwise(name, field, rng):
    if name in OTHER_CHARTS:
        chart = OTHER_CHARTS[name]
        points = 0.1 + 0.5 * rng.random((12, chart.dim))
    else:
        chart = tl.builtin_chart(name)
        lo, hi = np.array(SAMPLE_BOXES[name]).T
        points = lo + (hi - lo) * rng.random((12, 2))
    velocities = rng.normal(size=points.shape)
    at = dynamics._field(chart, field)
    out = at(points, tuple(velocities.T))
    parts = out if field == "variation" else (out,)
    for k, (q, v) in enumerate(zip(points, velocities)):
        single = at(q, v.tolist())
        for batch_part, single_part in zip(parts, single if field == "variation" else (single,)):
            assert_bitwise([np.broadcast_to(x, len(points))[k] for x in batch_part], single_part)


@pytest.mark.parametrize("kind", sorted(FOUR_DIMENSIONAL))
def test_four_dimensional_samples_are_taken_pointwise(kind):
    # above D = 3 the generated fields solve per point: the batch defers
    chart = Chart(4, kind, FOUR_DIMENSIONAL[kind])
    path = straight_path([0.6, 0.7, 0.8, 0.9], [1.2, 0.9, 0.6, 1.1])
    deltaq = DELTAQ + ["0.1*t*(1 - t)", "0"]
    for got, want in zip(dynamics._half_step_samples(chart, path, deltaq, None),
                         reference_samples(chart, path, deltaq)):
        assert_bitwise(got, want)


def test_near_singular_batch_defers_to_pointwise():
    # det g within rounding of the floor at one point: the batched field
    # declines, and the variation is taken point by point with the LU det
    chart = Chart(dim=2, kind="triad", exprs=["1", "1", "1", "1 + 1e-7*q1"])
    points = np.array([[1.0, 0.3], [2.0, 0.1]])
    at = dynamics._field(chart, "variation")
    assert at(points, (np.array([0.5, 0.2]), np.array([-0.7, 0.1]))) is None
    path = straight_path([1.0, 0.3], [2.0, 0.1])
    ref = reference_samples(chart, path, DELTAQ)
    for got, want in zip(dynamics._half_step_samples(chart, path, DELTAQ, None), ref):
        assert_bitwise(got, want)
