"""Batched jet passes against the point-by-point path they replace.

A stack of points goes through ``Chart._jets`` in one pass; every
``LocalGeometry`` tensor, the variation samples, the Euler-Lagrange residual
and the kinetic energy read such a pass.  Each must give the point-by-point
values bit for bit (the residual: to 1e-13), and a batch holding a failing
point must raise what the point-by-point loop raises.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import torsionlab as tl
from torsionlab import dynamics
from torsionlab._local import LocalGeometry
from torsionlab.charts import BUILTIN_CHARTS, Chart
from torsionlab.dynamics import Trajectory

from conftest import SAMPLE_BOXES
from test_trajectory_fields import (
    FIELDS,
    FOUR_DIMENSIONAL,
    assert_bitwise,
    assert_same,
    chart_batches,
)

DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the two paths must fail alike
        return type(exc), str(exc)


def pointwise_jets(chart, points, order):
    """The per-point jets, stacked in the batch layout (expressions, partials, N)."""
    return np.moveaxis(np.array([chart._jets(q, order) for q in points]), 0, -1)


TENSORS = (  # the ``LocalGeometry`` tensors that each triad order adds
    ("E", "g", "invg", "recip"),
    ("dE", "dg", "dinvg", "chris1", "chris2", "gamma", "torsion", "contortion",
     "contortion_mixed"),
    ("d2E", "d2g", "dchris2", "dgamma", "cartan", "riemann"),
)


def geometry_tensors(chart, q, order):
    """Every ``LocalGeometry`` tensor at triad order ``order`` at q (one point or
    a stack), from order 1 the torsion vector, and at order 2 the Ricci
    reductions of both curvatures."""
    geo = LocalGeometry.of(chart, q, order)
    out = {name: getattr(geo, name) for names in TENSORS[: order + 1] for name in names}
    if order >= 1:
        out["torsion_vector"] = tl.torsion_trace(geo.torsion)
    for source in ("riemann", "cartan") if order == 2 else ():
        parts = ("ricci", "scalar", "einstein")
        out.update(zip((f"{source}_{p}" for p in parts), geo.ricci_scalar_einstein(source)))
    return out


def assert_geometry_pointwise(chart, points, order):
    batch = geometry_tensors(chart, points, order)
    for k, q in enumerate(points):
        single = geometry_tensors(chart, q, order)
        assert batch.keys() == single.keys()
        for name, value in single.items():
            assert_bitwise(batch[name][k], value)
    for source in ("riemann", "cartan") if order == 2 else ():
        assert type(single[f"{source}_scalar"]) is float


# -- jets of generated charts -----------------------------------------------------------


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

    def counting(self, q, order, **kw):
        calls.append(np.shape(q))
        return original(self, q, order, **kw)

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
        assert_geometry_pointwise(chart, points, order)


@pytest.mark.parametrize("name", BUILTIN_CHARTS)
def test_empty_stacks_give_empty_tensors(name):
    chart = tl.builtin_chart(name)
    points = np.empty((0, chart.dim))
    assert chart.metric(points).shape == (0, chart.dim, chart.dim)
    for key, value in geometry_tensors(chart, points, 2).items():
        assert np.shape(value)[0] == 0, key


@settings(max_examples=100, deadline=None)
@given(case=chart_batches(), order=st.integers(0, 2))
def test_generated_geometry_batches_equal_pointwise(case, order):
    # the stack of the points whose geometry the chart admits one by one
    chart, points = case
    with np.errstate(all="ignore"):  # the overflows of wild charts, alike on both paths
        admitted = [k for k, q in enumerate(points)
                    if not isinstance(outcome(geometry_tensors, chart, q, order), tuple)]
        assume(admitted)
        assert_geometry_pointwise(chart, points[admitted], order)


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


@pytest.mark.parametrize("case", sorted(FAILING_BATCHES))
def test_failing_geometry_stack_raises_like_pointwise(case):
    chart, points, _ = FAILING_BATCHES[case]
    points = np.array(points)
    with np.errstate(over="ignore"):
        ref = outcome(lambda: [geometry_tensors(chart, q, 2) for q in points])
        assert isinstance(ref, tuple)
        assert outcome(geometry_tensors, chart, points, 2) == ref


def pointwise_geometry(chart, points):
    return [LocalGeometry.of(chart, q, 1).g for q in points]


def test_rank_one_triad_is_decided_per_point():
    # this triad is exactly singular; the LU det used to admit q1 = 1.0 and 1.3 and
    # reject q1 = 0.7 by rounding.  Every point is rejected now, and a batch decides
    # like its points: it raises what its first point raises
    for q in ([1.0, 0.0], [0.7, 0.1], [1.3, 0.2]):
        ref = outcome(pointwise_geometry, RANK_ONE, [q])
        assert ref[0] is tl.DegenerateTriadError and str(q) in ref[1]
    for points in ([[1.0, 0.0], [0.7, 0.1], [1.3, 0.2]], [[0.7, 0.1], [1.3, 0.2]], [[1.3, 0.2]]):
        points = np.array(points)
        ref = outcome(pointwise_geometry, RANK_ONE, points)
        assert ref == outcome(pointwise_geometry, RANK_ONE, points[:1])
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
    """The quadrature step by step: each step's running trapezoid as an affine map on (db, 1)."""
    dq, G, Sigma = reference_samples(chart, base, deltaq)
    integrand = np.einsum("kmn,kn->km", Sigma[::2], dq[::2])
    D = integrand.shape[1]
    db = np.zeros((len(base.t), D + 1))
    db[0, D] = 1.0
    for k, h in enumerate(np.diff(base.t)):
        prop, step = expm(-G[2 * k + 1] * h), np.eye(D + 1)
        step[:D, :D] = prop
        step[:D, D] = prop @ (0.5 * h * integrand[k]) + 0.5 * h * integrand[k + 1]
        db[k + 1] = step @ db[k]
    return db[:, :D]


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


OTHER_CHARTS = {"triad3": TRIAD3, "map1": Chart(1, "map", ["2*cos(q1)", "2*sin(q1)", "0.5*q1"]),
                **{f"{kind}4": Chart(4, kind, exprs) for kind, exprs in FOUR_DIMENSIONAL.items()}}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["sphere", "synthetic_torsion", "dislocation", "triad3", "map1",
                                  "map4", "triad4"])
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


@pytest.mark.parametrize("field", FIELDS + ("line_image",))
def test_batched_field_rejected_alike_everywhere_names_its_first_point(field):
    # no expression reads q2, so g_22 and det g are structural zeros: the folded rule
    # decides once for the whole stack, and names its first point, as the points do
    chart = Chart(2, "map", ["q1", "sin(q1)"])
    points, velocities = np.array([[0.3, 0.1], [0.5, 0.2]]), np.array([[0.4, -0.2], [0.1, 0.3]])
    at = dynamics._field(chart, field)
    ref = outcome(at, points[0], velocities[0].tolist())
    assert ref[0] is tl.DegenerateTriadError and "[0.3, 0.1]" in ref[1]
    assert outcome(at, points, tuple(velocities.T)) == ref


@pytest.mark.parametrize("kind", sorted(FOUR_DIMENSIONAL))
def test_four_dimensional_samples_are_taken_pointwise(kind):
    # above D = 3 the generated fields solve with ``np.linalg.solve``, which takes a stack
    # of samples as it takes each one: the batch equals the samples taken pointwise
    chart = Chart(4, kind, FOUR_DIMENSIONAL[kind])
    path = straight_path([0.6, 0.7, 0.8, 0.9], [1.2, 0.9, 0.6, 1.1])
    deltaq = DELTAQ + ["0.1*t*(1 - t)", "0"]
    for got, want in zip(dynamics._half_step_samples(chart, path, deltaq, None),
                         reference_samples(chart, path, deltaq)):
        assert_bitwise(got, want)


FIVE_DIMENSIONAL = {
    "map": ["q1", "q2 + 0.1*q1*q3", "q3", "q4 + 0.2*q5^2", "q5", "0.3*q1*q4"],
    "triad": ["1 + 0.1*q1" if i == k else f"0.05*q{k + 1}" if k == (i + 1) % 5 else "0"
              for i in range(5) for k in range(5)],
}


@pytest.mark.parametrize("kind", sorted(FIVE_DIMENSIONAL))
def test_as_many_samples_as_dimensions_equal_pointwise(kind):
    # a three-node base gives 5 half-step samples, as many as D = 5: the stacked solve must
    # not take the sample axis for a matrix axis (the variation raised a TypeError there)
    chart = Chart(5, kind, FIVE_DIMENSIONAL[kind])
    path = straight_path([0.5, 0.4, 0.3, 0.2, 0.1], [0.7, 0.5, 0.4, 0.3, 0.3], n=3)
    deltaq = DELTAQ + ["0.1*t*(1 - t)", "0", "0"]
    for got, want in zip(dynamics._half_step_samples(chart, path, deltaq, None),
                         reference_samples(chart, path, deltaq)):
        assert_bitwise(got, want)


def test_near_singular_batch_defers_to_pointwise():
    # det g is 2.4e-15 of the product of g's diagonal at every point, inside the rule's
    # 1e-13 margin (the LU det used to admit it): the batched field raises what its first
    # point raises, and the variation, taken sample by sample, fails like the reference
    chart = Chart(dim=2, kind="triad", exprs=["1", "1", "1", "1 + 1e-7*q1"])
    points = np.array([[1.0, 0.3], [2.0, 0.1]])
    at = dynamics._field(chart, "variation")
    ref = outcome(at, points[0], [0.5, -0.7])
    assert ref[0] is tl.DegenerateTriadError and "[1.0, 0.3]" in ref[1]
    assert outcome(at, points, (np.array([0.5, 0.2]), np.array([-0.7, 0.1]))) == ref
    path = straight_path([1.0, 0.3], [2.0, 0.1])
    assert outcome(dynamics._half_step_samples, chart, path, DELTAQ, None) == ref
    assert outcome(reference_samples, chart, path, DELTAQ) == ref
