"""The generated RK4 stepper against the generic loop it replaced.

Every trajectory integrator runs ``dynamics._stepper``: straight-line code per
(state size, slope components copied from the state) that calls the chart's
generated field once per stage.  The oracle is ``rk4`` of
``test_trajectory_fields``, the generic loop that once stepped every
trajectory, over ``dynamics._field``.  The two must agree bit for bit: the
states, the slopes (the NaN of an uncomputed last slope included), whether
the path truncated, and the error that ended it.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import torsionlab as tl
from torsionlab import dynamics
from torsionlab.charts import BUILTIN_CHARTS, Chart
from torsionlab.errors import DegenerateTriadError, EvaluationError

from conftest import SAMPLE_BOXES
from test_compiled_jets import fresh_interpreter
from test_trajectory_fields import (
    DEFAULT_BOX,
    DEGENERATE,
    TRUNCATING,
    assert_bitwise,
    field_cases,
    outcome,
    stepped,
)

TRAJECTORY_FIELDS = ("geodesic", "autoparallel", "line_image")
INTEGRATORS = {
    "geodesic": tl.integrate_geodesic,
    "autoparallel": tl.integrate_autoparallel,
    "line_image": tl.straight_line_image,
}


def by_oracle(chart, field, q0, qdot0, h, steps):
    """``rk4`` over ``dynamics._field`` as the integrators once ran it: states,
    slopes, whether it truncated, and every error a right-hand side met."""
    q0 = chart.check_point(q0)
    v = [float(x) for x in qdot0]
    if field == "line_image":  # the flat velocity
        v = (chart.triad_jets(q0)[0] @ np.array(v)).tolist()
    return stepped(dynamics._field(chart, field), chart, field, q0.tolist(), v, h, steps)


def by_stepper(chart, field, q0, qdot0, h, steps):
    """The integrator's trajectory, what its stepper returned and every error its
    field met, with the calls of the field and its fallback and the stage (0-3)
    of the call that met the error."""
    runs, errors, calls = [], [], {"field": 0, "fallback": 0, "stage": None}
    original = dynamics._stepper

    def watched(name, fn):
        def call(*args):
            calls[name] += 1
            try:
                return fn(*args)
            except Exception as exc:
                errors.append((type(exc), str(exc)))
                calls["stage"] = (calls["field"] - 1) % 4
                raise

        return call

    def recording(n, copied):
        rk4 = original(n, copied)

        def run(field, args, fallback, *rest):
            runs.append(rk4(watched("field", field), args, watched("fallback", fallback), *rest))
            return runs[-1]

        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_stepper", recording)
        traj = INTEGRATORS[field](chart, q0, qdot0, (0.0, h * steps), h)
    ((y, slope, truncated),) = runs
    return traj, y, slope, truncated, errors, calls


def failed(result):
    return isinstance(result[0], type)


def assert_stepper_equals_oracle(chart, field, q0, qdot0, h=0.05, steps=20):
    """The integrator against the oracle, bitwise; returns the stepper's call
    counts, or None where both reject the start or fail at the first node."""
    ref = outcome(by_oracle, chart, field, q0, qdot0, h, steps)
    got = outcome(by_stepper, chart, field, q0, qdot0, h, steps)
    if failed(ref) or failed(got):
        assert got == ref, (chart.to_dict(), field, q0, qdot0)
        return None
    traj, y, slope, truncated, errors, calls = got
    ref_y, ref_slope, ref_truncated, ref_errors = ref
    assert (truncated, errors) == (ref_truncated, ref_errors)
    assert_bitwise(y, ref_y)
    assert_bitwise(slope, ref_slope)
    assert traj.truncated == truncated
    assert_bitwise(traj.t, np.linspace(0.0, h * steps, steps + 1)[: len(y)])
    if field == "line_image":  # the path and the slope along it
        assert_bitwise(traj.q, y)
        assert_bitwise(traj.qdot, slope)
    else:  # the path and its velocity
        assert_bitwise(np.hstack((traj.q, traj.qdot)), y)
    return calls


@pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
@pytest.mark.parametrize("name", BUILTIN_CHARTS)
def test_builtin_paths_equal_the_generic_loop(name, field, rng):
    chart = tl.builtin_chart(name)
    lo, hi = np.array(SAMPLE_BOXES.get(name, (DEFAULT_BOX,) * chart.dim)).T
    for q0, qdot0 in zip(lo + (hi - lo) * rng.random((3, chart.dim)),
                         rng.normal(size=(3, chart.dim))):
        assert assert_stepper_equals_oracle(chart, field, q0.tolist(), qdot0.tolist()) is not None


@settings(max_examples=60, deadline=None)
@given(case=field_cases())
def test_generated_chart_paths_equal_the_generic_loop(case):
    # D = 1-3, map and triad charts, half of them guarded
    chart, q0, v = case
    for field in TRAJECTORY_FIELDS:
        assert_stepper_equals_oracle(chart, field, q0, v[: chart.dim])


def test_truncating_paths_equal_the_generic_loop():
    stages = set()
    for edge, (chart, q0, qdot0) in sorted(TRUNCATING.items()):
        for field in TRAJECTORY_FIELDS:
            calls = assert_stepper_equals_oracle(chart, field, q0, qdot0, h=1e-2, steps=100)
            if (edge, field) != ("sphere_pole", "line_image"):  # that one turns away in time
                assert calls["stage"] is not None, (edge, field)
                stages.add(calls["stage"])
    assert len(stages) > 1  # the paths end in different RK4 stages


@pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
def test_path_ending_at_a_node_equals_the_generic_loop(field):
    # a guard hole of radius 1e-9 around one node (the last one for the line image,
    # whose final slope then fails) ends the path at that node's own slope
    chart = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    q0, qdot0, steps = [0.1, 0.2], [1.0, 0.7], 20
    path = INTEGRATORS[field](chart, q0, qdot0, (0.0, 1.0), 0.05)
    node = steps if field == "line_image" else 10
    c1, c2 = path.q[node].tolist()
    guarded = Chart(2, chart.kind, chart.exprs, params=chart.params,
                    guard=f"(q1 - {c1!r})^2 + (q2 - {c2!r})^2 - 1e-18")
    calls = assert_stepper_equals_oracle(guarded, field, q0, qdot0, h=0.05, steps=steps)
    assert calls["stage"] == 0
    assert len(by_stepper(guarded, field, q0, qdot0, 0.05, steps)[0]) == node


def test_near_floor_path_takes_the_checked_determinant():
    # det g within rounding of the floor: the generated field returns None and the
    # stepper asks the fallback, which decides with the checked determinant
    chart = Chart(2, "map", ["atan2(q1, q1)", "atan2(q1, sqrt(q2))"])
    for field in TRAJECTORY_FIELDS:
        calls = assert_stepper_equals_oracle(chart, field, [1.0, 0.0078125], [0.0, 1.0])
        assert calls["fallback"] > 0, field


@pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
def test_error_at_the_first_node_propagates(field):
    sqrt_of_negative = Chart(2, "map", ["q1 + 0.1*sqrt(q1)", "q2"])
    for chart, q0, error in ((DEGENERATE, [0.05, 0.0], DegenerateTriadError),
                             (sqrt_of_negative, [-0.5, 0.0], EvaluationError)):
        assert assert_stepper_equals_oracle(chart, field, q0, [0.3, -0.2]) is None
        with pytest.raises(error):
            INTEGRATORS[field](chart, q0, [0.3, -0.2], (0.0, 1.0), 0.05)


def test_import_compiles_no_stepper():
    # one stepper per (state size, copied components), compiled when a path first needs it
    assert fresh_interpreter(
        "import torsionlab as tl, torsionlab.dynamics as d; print(len(d._STEPPERS)); "
        "st = tl.builtin_chart('synthetic_torsion'); "
        "tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.1), 0.01); "
        "tl.integrate_geodesic(tl.builtin_chart('sphere'), [1.0, 0.0], [0.3, 0.4], (0.0, 0.1), 0.01); "
        "tl.straight_line_image(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.1), 0.01); "
        "print(sorted(d._STEPPERS))"
    ) == ["0", "[(2,", "0),", "(4,", "2)]"]
