"""Generated trajectory fields against the einsum formulas they replaced.

The oracle is the tensor route: ``LocalGeometry``'s Christoffel symbols,
affine connection and torsion, contracted with ``np.einsum`` exactly as the
trajectory right-hand sides and ``variation_matrices`` once did.  The only
code generated per chart definition, its integrators, which inline the jets,
must in turn equal the jet route (``_trajectory_field`` on one ``Chart._jets``
pass, which ``dynamics._field`` takes) bit for bit, fail alike and truncate
trajectories at the same node.  Every route decides a degenerate triad by the
one rule of ``_local.rule_lines``.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import _fields, dynamics
from torsionlab.charts import BUILTIN_CHARTS, Chart
from torsionlab.connection import affine_connection, christoffel, torsion_tensor
from torsionlab.errors import (
    DegenerateTriadError,
    EvaluationError,
    NonFiniteError,
    SingularPointError,
)

from conftest import SAMPLE_BOXES
from test_compiled_jets import PARAMS, cases, expressions_in

FIELDS = ("geodesic", "autoparallel", "variation")
# a trajectory step that meets one of these ends the path instead of failing it
DOMAIN_ERRORS = (NonFiniteError, SingularPointError, EvaluationError, DegenerateTriadError)


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


def oracle(chart, field, q, v):
    """The field by the tensor route."""
    if field == "variation":
        G = np.einsum("lnm,n->ml", affine_connection(chart, q), v)
        Sigma = 2.0 * np.einsum("lnm,l->mn", torsion_tensor(chart, q), v)
        return np.concatenate((G.ravel(), Sigma.ravel()))
    conn = christoffel(chart, q)[1] if field == "geodesic" else affine_connection(chart, q)
    return -np.einsum("lnm,l,n->m", conn, v, v)


def magnitude(chart, field, q, v):
    """Scale of the terms either route sums: |g^-1| |e| |de| |v|^2 (|v| for variation)."""
    E, dE = chart.triad_jets(q, order=1)
    size = np.abs(np.linalg.inv(E.T @ E)).max() * np.abs(E).max() * np.abs(dE).max()
    return size * np.abs(v).max() ** (1 if field == "variation" else 2)


def generated(chart, field, q, v):
    out = dynamics._field(chart, field)(q, [float(x) for x in v])
    return np.concatenate([np.ravel(part) for part in out]) if field == "variation" else np.array(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the two routes must fail alike
        return met(exc)


def met(exc):
    """An error as (type, message).  The jet route raises an ``ArithmeticError`` of the
    kernels as the ``EvaluationError`` it causes, naming the expression; an integrator
    meets it unwrapped (and ends the path), or at its first node wraps it unnamed: such
    an error is compared by that ``ArithmeticError``."""
    if isinstance(exc, EvaluationError) and isinstance(exc.__cause__, ArithmeticError):
        exc = exc.__cause__
    return type(exc), str(exc)


def assert_field_matches(chart, field, q, v, rtol=1e-13, atol=1e-300):
    """Equal failures, or values within ``rtol`` of the term scale; ``atol``
    covers products that underflow, where rounding is absolute."""
    ref = outcome(oracle, chart, field, q, v)
    got = outcome(generated, chart, field, q, v)
    if isinstance(ref, tuple) or isinstance(got, tuple):
        assert isinstance(ref, tuple) and isinstance(got, tuple) and got == ref, (ref, got)
        return
    assert got.shape == ref.shape
    scale = max(magnitude(chart, field, q, v), np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= rtol * scale + atol, (chart.to_dict(), field, q, v, ref, got)


# -- generated charts -----------------------------------------------------------------


@st.composite
def chart_points(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["map", "triad"]))
    count = dim * dim if kind == "triad" else draw(st.integers(dim, dim + 1))
    exprs = draw(st.lists(expressions_in(dim), min_size=count, max_size=count))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    return Chart(dim, kind, exprs, params=PARAMS), draw(coords), draw(coords)


def well_posed(chart, q):
    """A point where the triad evaluates to finite values and g is well conditioned:
    with cond(g) <= 100 the two routes' rounding stays below 1e-13 of the scale."""
    try:
        E, dE = chart.triad_jets(q, order=1)
    except Exception:
        return False
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(dE))):
        return False
    with np.errstate(over="ignore"):  # a finite E whose g overflows is rejected below
        g = E.T @ E
    if not np.all(np.isfinite(g)):
        return False
    return np.linalg.cond(g) <= 100.0 and np.max(np.abs(dE), initial=0.0) < 1e6


@settings(max_examples=120, deadline=None)
@given(case=chart_points())
def test_generated_fields_match_oracle(case):
    chart, q, v = case
    assume(well_posed(chart, q))
    for field in FIELDS:
        assert_field_matches(chart, field, q, v)


@settings(max_examples=60, deadline=None)
@given(case=chart_points())
def test_generated_fields_fail_like_oracle(case):
    # anywhere the tensor route raises, the generated one raises the same
    chart, q, v = case
    assume(isinstance(outcome(oracle, chart, "geodesic", q, v), tuple))
    for field in FIELDS:
        ref, got = outcome(oracle, chart, field, q, v), outcome(generated, chart, field, q, v)
        assert isinstance(got, tuple) and got == ref, (chart.to_dict(), q, v, ref, got)


# -- builtin and fixed charts ---------------------------------------------------------

DEFAULT_BOX = (-2.0, 2.0)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILTIN_CHARTS)
def test_builtin_charts_match_oracle(name, field, rng):
    chart = tl.builtin_chart(name)
    lo, hi = np.array(SAMPLE_BOXES.get(name, (DEFAULT_BOX,) * chart.dim)).T
    for q, v in zip(lo + (hi - lo) * rng.random((10, chart.dim)), rng.normal(size=(10, chart.dim))):
        assert_field_matches(chart, field, q, v)


FOUR_DIMENSIONAL = {  # above D = 3 the generated fields end in np.linalg.solve
    "triad": ["1 + 0.2*sin(q2)", "0.1*q3", "0", "0.1*q4",
              "0", "1 + 0.3*q1", "0.2*cos(q4)", "0",
              "0.1*q1*q2", "0", "exp(0.1*q3)", "0.2*q2",
              "0", "0.1*q3*q4", "0", "1 + 0.1*q1^2"],
    "map": ["q1*cos(q2)", "q1*sin(q2)", "q3 + 0.1*q4^2", "q4*exp(0.1*q1)", "0.2*q2*q3"],
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", sorted(FOUR_DIMENSIONAL))
def test_four_dimensional_charts_match_oracle(kind, field, rng):
    chart = Chart(4, kind, FOUR_DIMENSIONAL[kind])
    for q, v in zip(0.5 + rng.random((10, 4)), rng.normal(size=(10, 4))):
        assert_field_matches(chart, field, q, v)


def test_map_charts_carry_no_torsion_drive():
    G, Sigma = tl.variation_matrices(tl.builtin_chart("sphere"), [1.0, 0.3], [0.2, -0.4])
    assert np.all(Sigma == 0.0)
    assert np.max(np.abs(G)) > 0.1


# -- errors and truncation ---------------------------------------------------------------

DEGENERATE = Chart(dim=2, kind="triad", exprs=["exp(-1/q1^2)", "0", "0", "1"])
SPHERE = tl.builtin_chart("sphere", r=1.0)


@pytest.mark.parametrize("field", FIELDS)
def test_errors_match_checked_metric_and_guard(field):
    v = [0.3, -0.2]
    with pytest.raises(DegenerateTriadError) as want:
        DEGENERATE.triad([0.05, 0.0])
    with pytest.raises(DegenerateTriadError) as got:
        dynamics._field(DEGENERATE, field)([0.05, 0.0], v)
    assert str(got.value) == str(want.value)
    with pytest.raises(SingularPointError) as want:
        SPHERE.check_point([0.0, 0.3])
    with pytest.raises(SingularPointError) as got:
        dynamics._field(SPHERE, field)([0.0, 0.3], v)
    assert str(got.value) == str(want.value)


def test_degenerate_floor_follows_the_profile(monkeypatch):
    # sqrt(det g) = exp(-1/0.2^2) = 1.4e-11: above the default floor, below strict
    dynamics._field(DEGENERATE, "geodesic")([0.2, 0.0], [1.0, 0.0])
    monkeypatch.setenv("TORSIONLAB_TOLERANCES", "strict")
    with pytest.raises(DegenerateTriadError, match=r"floor 1e-10$"):
        dynamics._field(DEGENERATE, "geodesic")([0.2, 0.0], [1.0, 0.0])


def test_near_singular_metric_is_rejected_by_the_relative_margin():
    # det g = 1e-14 is far above the floor^2 = 1e-24, but only 2.4e-15 of the product of
    # g's diagonal (cond g = 2e15), inside the rule's 1e-13 margin: every route rejects
    # the point with one message, where the LU determinant used to admit it
    chart = Chart(dim=2, kind="triad", exprs=["1", "1", "1", "1 + 1e-7*q1"])
    q, v = [1.0, 0.3], [0.5, -0.7]
    E = chart.triad_jets(q)[0]
    g = E.T @ E
    assert 1e-15 < np.linalg.det(g) and np.linalg.det(g) < 1e-13 * g[0, 0] * g[1, 1]
    want = outcome(chart.metric, q)
    assert want[0] is DegenerateTriadError and "[1.0, 0.3]" in want[1]
    for field in FIELDS:
        assert outcome(oracle, chart, field, q, v) == want
        assert outcome(generated, chart, field, q, v) == want
        assert outcome(by_jets, chart, field, q, v) == want


def test_structural_zero_meeting_an_infinite_entry_raises_alike():
    # x^1 = q1*1e200*1e200 overflows and never reads q2: e^1_1 = inf meets the
    # structural zeros e^1_2 and e^2_1.  The folded fields drop inf*0.0 from g_12,
    # where checked_metric's unfolded sums make it NaN; g_11 = inf rejects the point
    # on every route all the same, with one message
    chart = Chart(2, "map", ["q1*1e200*1e200", "q2"])
    q, v, flat_v = [0.5, 0.3], [0.4, -0.2], [0.1, 0.2]
    assert chart.triad_jets(q)[0].tolist() == [[np.inf, 0.0], [0.0, 1.0]]
    assert chart._zeros(1)[0] == (2, 3, 4, 5)  # d^2/dq1^2 of the seed q1 too
    want = outcome(chart.metric, q)
    assert want[0] is DegenerateTriadError and "[0.5, 0.3]" in want[1]
    for field in FIELDS + ("line_image",):
        w = flat_v if field == "line_image" else v
        assert outcome(by_jets, chart, field, q, w) == want
        assert outcome(dynamics._field(chart, field), q, w) == want
        assert outcome(first_slope, chart, field, q, w) == want


def rk4(rhs, y0, t_grid, final_slope=False, errors=None):
    """Classical RK4 for y' = rhs(j, y) on ``t_grid``: the generic loop that once
    stepped every trajectory, the oracle of the generated RK4 integrators.

    ``j`` counts half steps: 2k at node k, 2k + 1 at the midpoint of step k.
    The state passed to ``rhs`` is a list of floats, and ``rhs`` returns a
    sequence of as many; each component takes the array arithmetic in its order.
    Returns ``(y, slope, truncated)`` with ``slope[k] = rhs(2k, y[k])``; the
    slope at the last node is computed only with ``final_slope`` and is NaN
    otherwise.  A domain error ends the path at the last node whose slope was
    computed, and goes into ``errors``; at the first node it propagates.  No
    node that is not finite is recorded, as in ``_fields._rk4_source``: the
    last node raises ``NonFiniteError``, and a failed stage ends the path
    before a node whose velocity is not finite.
    """
    n = len(t_grid)
    y = np.empty((n,) + np.shape(y0))
    slope = np.full_like(y, np.nan)
    y[0] = y0
    yk = y[0].tolist()
    done = 0  # nodes whose slope is computed
    try:
        for k in range(n - 1):
            h = t_grid.item(k + 1) - t_grid.item(k)
            k1 = slope[k] = rhs(2 * k, yk)
            done = k + 1
            k2 = rhs(2 * k + 1, [x + 0.5 * h * a for x, a in zip(yk, k1)])
            k3 = rhs(2 * k + 1, [x + 0.5 * h * a for x, a in zip(yk, k2)])
            k4 = rhs(2 * k + 2, [x + h * a for x, a in zip(yk, k3)])
            y[k + 1] = yk = [x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                             for x, a, b, c, d in zip(yk, k1, k2, k3, k4)]
        if final_slope:
            slope[n - 1] = rhs(2 * n - 2, yk)
        if not np.isfinite(yk).all():
            raise NonFiniteError(f"node {yk} is not finite")
    except DOMAIN_ERRORS as exc:
        if done == 0:
            raise
        if errors is not None:
            errors.append(met(exc))
        done -= not np.isfinite(y[done - 1]).all()
        return y[:done], slope[:done], True
    return y, slope, False


def oracle_trajectory(chart, field, q0, qdot0, t_span, step):
    """The integrators' RK4 on the oracle's right-hand side."""
    D = chart.dim

    def rhs(_, y):
        return np.concatenate((y[D:], oracle(chart, field, y[:D], y[D:])))

    t_grid = dynamics._grid(t_span, step)
    y, _, truncated = rk4(rhs, np.concatenate((q0, qdot0)), t_grid)
    return y, truncated


# start next to a degenerate band or a guard-rejected pole; the sample counts
# are those of the tensor route, which truncated at the same steps
NEAR_DOMAIN_EDGES = {
    "degenerate_triad": (DEGENERATE, [0.22, 0.1], [-0.05, 1.0], 11),
    "sphere_pole": (SPHERE, [0.5, 0.3], [-1.0, 0.0], 50),
}


@pytest.mark.parametrize("field", ("geodesic", "autoparallel"))
@pytest.mark.parametrize("edge", sorted(NEAR_DOMAIN_EDGES))
def test_truncation_matches_tensor_route(edge, field):
    chart, q0, qdot0, samples = NEAR_DOMAIN_EDGES[edge]
    integrate = tl.integrate_geodesic if field == "geodesic" else tl.integrate_autoparallel
    traj = integrate(chart, q0, qdot0, (0.0, 1.0), 1e-2)
    y, truncated = oracle_trajectory(chart, field, np.array(q0), np.array(qdot0), (0.0, 1.0), 1e-2)
    assert traj.truncated and truncated
    assert len(traj) == len(y) == samples
    np.testing.assert_allclose(np.hstack((traj.q, traj.qdot)), y, rtol=1e-12, atol=1e-14)


def test_fields_compile_once_per_shape():
    # the field per shape and zero pattern (one for every radius) serves
    # ``dynamics._field``, compiled at its first use there: an integrator compiles none
    _fields._trajectory_field.cache_clear()
    points, velocities = np.array([[1.0, 0.0], [1.2, 0.3]]), (np.array([0.3, 0.1]), np.array([0.4, 0.2]))
    for r in (1.0, 2.0):
        sphere = tl.builtin_chart("sphere", r=r)
        tl.integrate_geodesic(sphere, [1.0, 0.0], [0.3, 0.4], (0.0, 0.02), 1e-2)
        tl.straight_line_image(sphere, [1.0, 0.0], [0.3, 0.4], (0.0, 0.02), 1e-2)
        assert _fields._trajectory_field.cache_info().currsize == (r > 1.0)
        dynamics._field(sphere, "geodesic")(points, velocities)
    info = _fields._trajectory_field.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_trajectory_fields_keep_only_the_recently_used():
    # a field is compiled per zero pattern of the chart's jets: a sweep of fresh
    # chart shapes keeps the most recently used, and a pattern in use keeps hitting
    _fields._trajectory_field.cache_clear()
    reads = ["q1^3", "q2^3", "q1^3 + q2^3", "sin(q1*q2)", "2"]  # 5 patterns, () among them
    charts = [Chart(2, "map", [a, b, c]) for a in reads for b in reads for c in reads]
    sphere = tl.builtin_chart("sphere")
    for chart in charts:
        dynamics._field(chart, "geodesic")
        dynamics._field(sphere, "geodesic")
    info = _fields._trajectory_field.cache_info()
    patterns = {chart._zeros(1) for chart in charts}  # the sphere's among them
    assert len(patterns) == len(charts) > info.maxsize and sphere._zeros(1) in patterns
    assert info.maxsize == _fields._TRAJECTORY_FIELDS_KEPT == info.currsize
    assert (info.misses, info.hits) == (len(charts), len(charts))


# -- the code generated per chart definition against the jet route ----------------------------

FLOOR = 1e-12  # the default profile's degenerate-triad floor


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


@st.composite
def field_cases(draw):
    """A chart of ``chart_batches()``, half of them guarded by an expression
    of the same strategy, its first point and a velocity (a flat one, of the
    ambient dimension, for the line image)."""
    chart, points = draw(chart_batches())
    guard = draw(st.one_of(st.none(), expressions_in(chart.dim)))
    chart = Chart(chart.dim, chart.kind, chart.exprs, params=PARAMS, guard=guard)
    v = st.lists(st.floats(-2.0, 2.0), min_size=chart.ambient_dim, max_size=chart.ambient_dim)
    return chart, points[0].tolist(), draw(v)


def by_jets(chart, field, q, v):
    order = int(field != "line_image")
    fn = _fields._trajectory_field(field, chart.kind, chart.dim, chart.ambient_dim, chart._zeros(order))
    return fn(q, chart._jets(q, order), v, FLOOR)


def flat(out):
    """A field's floats in one array (a failure as is)."""
    if isinstance(out, tuple) and isinstance(out[0], type):
        return out
    if isinstance(out[0], tuple):
        return np.concatenate([np.ravel(part) for part in out])
    return np.array(out)


def zero_derivative_expressions():
    """Expressions in q1 whose derivatives are often zeros of either sign."""
    leaves = st.sampled_from(["q1", "(q1 - q1)", "-(q1 - q1)", "(0.5 - q1*0)", "a", "2"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: "(%s %s %s)" % t),
            st.tuples(st.sampled_from(("sin", "cos", "exp")), inner).map("%s(%s)".__mod__),
            inner.map(lambda s: f"-{s}"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def first_slope(chart, field, q, v):
    """The field at (q, v) as the chart's integrator computes it: the slope at
    node 0 of one step of length 0, whose every stage is at the start."""
    rk4, args = dynamics._integrator(chart, field)
    if field == "line_image":  # it computes the final slope: one node will do
        return rk4(q, np.zeros(1), *v, *args)[1][0]
    return rk4([*q, *v], np.zeros(2), *args)[1][0, chart.dim:]


@settings(max_examples=300, deadline=None)
@given(source=zero_derivative_expressions(), kind=st.sampled_from(["map", "triad"]),
       q=st.sampled_from([-1.5, -0.5, 0.5, 1.5]), v=st.sampled_from([-1.0, -0.0, 0.0, 1.0]))
def test_chart_code_keeps_signed_zeros(source, kind, q, v):
    # in D = 1 the variation field G = e (d v) / (e e) carries the sign of a
    # zero derivative d: a fold that loses it shows here
    chart = Chart(1, kind, [source, "1 + 0.5*q1^2"] if kind == "map" else [source], params=PARAMS)
    for field in FIELDS + ("line_image",):
        w = [v, 0.5][: chart.ambient_dim] if field == "line_image" else [v]
        ref = flat(outcome(by_jets, chart, field, [q], w))
        if field == "variation":
            assert_same(flat(outcome(dynamics._field(chart, field), [q], w)), ref)
        else:
            assert_same(flat(outcome(first_slope, chart, field, [q], w)), ref)


def stepped(at, chart, field, q0, v, h=0.05, steps=20):
    """``rk4`` on ``at`` as the integrators run it: states, slopes, whether it
    truncated, and every error a right-hand side met."""
    D, errors = chart.dim, []

    def rhs(_, y):
        return at(y, v) if field == "line_image" else (*y[D:], *at(y[:D], y[D:]))

    y0 = q0 if field == "line_image" else q0 + v
    y, slope, truncated = rk4(rhs, np.array(y0), np.linspace(0.0, h * steps, steps + 1),
                              final_slope=field == "line_image", errors=errors)
    return y, slope, truncated, errors


def test_rebuilt_chart_reuses_the_compiled_field(monkeypatch):
    # every CLI run builds a fresh chart from its definition, maybe with other values:
    # its integrator is compiled once and takes them as arguments
    chart_field = lru_cache(maxsize=_fields._CHART_FIELDS_KEPT)(_fields._chart_field.__wrapped__)
    monkeypatch.setattr(dynamics, "_chart_field", chart_field)  # empty, as in a new process
    written, source = [], _fields._chart_source
    monkeypatch.setattr(_fields, "_chart_source", lambda *a: written.append(a[0]) or source(*a))
    definition = tl.builtin_chart("synthetic_torsion").to_dict()
    q0, v = [0.3, 0.1], [0.4, 0.2]
    paths = []
    for alpha in (0.3, 0.5):
        chart = Chart.from_dict({**definition, "params": {"alpha": alpha}})
        traj = tl.integrate_autoparallel(chart, q0, v, (0.0, 0.1), 1e-2)
        paths.append(np.hstack((traj.q, traj.qdot)))
        ref = stepped(dynamics._field(chart, "autoparallel"), chart, "autoparallel", q0, v, 1e-2, 10)
        assert_bitwise(paths[-1], ref[0])
    assert written == ["autoparallel"] and chart_field.cache_info().hits == 1
    assert not np.array_equal(paths[0], paths[1])


TRUNCATING = {  # (chart, q0, velocity): each path meets its domain edge within 100 steps
    **{name: (chart, q0, qdot0) for name, (chart, q0, qdot0, _) in NEAR_DOMAIN_EDGES.items()},
    "polar_origin": (tl.builtin_chart("polar"), [0.5, 0.2], [-1.0, 0.0]),
    "sqrt_of_negative": (Chart(2, "map", ["q1 + 0.1*sqrt(q1)", "q2"]), [0.5, 0.0], [-1.0, 0.0]),
    "guard_hole": (Chart(1, "triad", ["1/q1"], guard="(q1 - 1.5)^2 - 1e-4"), [1.0], [1.0]),
    "guard_overflow": (Chart(1, "triad", ["1"], guard="q1^-200"), [0.5], [-1.0]),  # below 0.0296
}


INTEGRATORS = {"geodesic": tl.integrate_geodesic, "autoparallel": tl.integrate_autoparallel,
               "line_image": tl.straight_line_image}


@pytest.mark.parametrize("field", sorted(INTEGRATORS))
@pytest.mark.parametrize("edge", sorted(TRUNCATING))
def test_chart_code_truncates_like_closure_route(edge, field):
    # the chart's integrator ends the path where the classical RK4 loop over the jet
    # route does, at the same node and bit for bit
    chart, q0, v = TRUNCATING[edge]
    traj = INTEGRATORS[field](chart, q0, v, (0.0, 1.0), 1e-2)
    if field == "line_image":  # the flat velocity
        v = (chart.triad(q0) @ v).tolist()
    y, slope, truncated, _ = stepped(dynamics._field(chart, field), chart, field, q0, v,
                                     h=1e-2, steps=100)
    assert traj.truncated == truncated
    assert truncated or (edge, field) == ("sphere_pole", "line_image")  # that one turns away in time
    assert_bitwise(traj.q, y[:, : chart.dim])
    assert_bitwise(traj.qdot, slope if field == "line_image" else y[:, chart.dim:])


def edge_of_admission(admits, lo, hi):
    """The least float in (lo, hi] that ``admits`` (a predicate rejecting lo and
    admitting hi, monotone between them), by bisection down to adjacent floats."""
    assert not admits(lo) and admits(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if admits(mid) else (mid, hi)


def admitted_by_metric(chart, q):
    return not isinstance(outcome(chart.metric, q), tuple)


def test_field_within_rounding_of_the_floor_returns_plain_floats():
    # the least q1 the rule admits at the degenerate band's edge, where det g is within
    # rounding of the floor^2: the field returns plain floats like anywhere else (a route
    # that returned numpy scalars there once turned the RK4 state into them), and one
    # float below, it raises as ``checked_metric`` does
    q1 = edge_of_admission(lambda x: admitted_by_metric(DEGENERATE, [x, 0.0]), 0.1, 0.3)
    E = DEGENERATE.triad([q1, 0.0])
    assert 1e-24 < np.linalg.det(E.T @ E) < 1e-24 * (1.0 + 1e-12)
    below = float(np.nextafter(q1, 0.0))
    want = outcome(DEGENERATE.metric, [below, 0.0])
    assert want[0] is DegenerateTriadError
    for field in FIELDS:
        at = dynamics._field(DEGENERATE, field)
        out = at([q1, 0.0], [1.0, 0.5])
        parts = out if field == "variation" else (out,)
        assert {type(x) for part in parts for x in part} == {float}
        assert outcome(at, [below, 0.0], [1.0, 0.5]) == want
