"""The generated RK4 integrators against the generic loop they replaced.

Every trajectory integrator runs one function generated per (chart
definition, field), ``_fields._chart_field``: the RK4 step loop with the
chart's field lines written out once per stage, each copy followed by that
stage's tail.  The oracle is
``rk4`` of ``test_trajectory_fields``, the generic loop that once stepped
every trajectory, over ``dynamics._field``, the jet route.  The two must
agree bit for bit: the states, the slopes (the NaN of an uncomputed last
slope included), whether the path truncated, and the error that ended it.  No
call is left per stage to wrap, so a tracer on the integrator's frame
observes it: the error raised into it, the stage whose copy of the field
lines met it, and each pass of its field lines.
"""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings

import torsionlab as tl
from torsionlab import _fields, dynamics
from torsionlab.charts import BUILTIN_CHARTS, Chart
from torsionlab.errors import DegenerateTriadError, EvaluationError, NonFiniteError
from torsionlab.expressions import Expression

from conftest import SAMPLE_BOXES
from test_compiled_jets import PARAMS, fresh_interpreter
from test_trajectory_fields import (
    DEFAULT_BOX,
    DEGENERATE,
    INTEGRATORS,
    TRUNCATING,
    assert_bitwise,
    field_cases,
    outcome,
    stepped,
)

TRAJECTORY_FIELDS = ("geodesic", "autoparallel", "line_image")


def stage_copies(source):
    """The line numbers of the first line of each stage's copy of the field
    lines in an integrator's ``source`` lines, in stage order."""
    loop = next(i for i, line in enumerate(source) if line.startswith(" " * 8 + "for k in range("))
    firsts = [i + 1 for i, line in enumerate(source) if line == source[loop + 1]]
    assert len(firsts) == 4, source
    return firsts


def watched(rk4, field, definition, seen):
    """The integrator ``rk4`` of ``_chart_field(field, definition)``, recording
    in ``seen`` each pass of its field lines ("passes"), every error raised into
    its frame ("errors") and the stage (0-3) that met it ("stage"): the one
    whose copy of the field lines, with its tail, holds the line."""
    kind, dim, sources, guard, params = definition
    exprs, guard = [Expression(s) for s in sources], guard and Expression(guard)
    source = _fields._chart_source(field, kind, dim, exprs, guard, params).splitlines()
    firsts = stage_copies(source)  # and where each copy, with its tail, ends
    ends = firsts[1:] + [source.index("    except _DOMAIN_ERRORS as exc:") + 1]
    code = rk4.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in firsts:
            seen["passes"] += 1
        elif event == "exception":  # again as the handler re-raises it, outside every copy
            seen["errors"].append((arg[0], str(arg[1])))
            seen["stage"] = next((stage for stage, (a, b) in enumerate(zip(firsts, ends))
                                  if a <= frame.f_lineno < b), seen["stage"])
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    def run(y, t, *args):
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            seen["returned"] = rk4(y, t, *args)
        finally:
            sys.settrace(previous)
        return seen["returned"]

    return run


def watch_integrators(patch):
    """What the tracer sees of every generated integrator run while ``patch``
    is active, one ``seen`` record per run (see ``watched``)."""
    runs, generated = [], dynamics._chart_field

    def chart_field(field, definition):
        runs.append({"passes": 0, "errors": [], "stage": None})
        return watched(generated(field, definition), field, definition, runs[-1])

    patch.setattr(dynamics, "_chart_field", chart_field)
    return runs


def by_oracle(chart, field, q0, qdot0, h, steps):
    """``rk4`` over ``dynamics._field`` as the integrators once ran it: states,
    slopes, whether it truncated, and every error a right-hand side met."""
    q0 = chart.check_point(q0)
    v = [float(x) for x in qdot0]
    if field == "line_image":  # the flat velocity
        v = (chart.triad_jets(q0)[0] @ np.array(v)).tolist()
    return stepped(dynamics._field(chart, field), chart, field, q0.tolist(), v, h, steps)


def by_integrator(chart, field, q0, qdot0, h, steps):
    """The integrator's trajectory, what its generated integrator returned and
    every error raised into it, with its passes and stage."""
    with pytest.MonkeyPatch.context() as patch:
        runs = watch_integrators(patch)
        traj = INTEGRATORS[field](chart, q0, qdot0, (0.0, h * steps), h)
    (seen,) = runs
    y, slope, truncated = seen["returned"]
    return traj, y, slope, truncated, seen["errors"], seen


def failed(result):
    return isinstance(result[0], type)


def assert_stepper_equals_oracle(chart, field, q0, qdot0, h=0.05, steps=20):
    """The integrator against the oracle, bitwise; returns what the tracer saw
    of the integrator, or None where both reject the start or fail at the first node."""
    ref = outcome(by_oracle, chart, field, q0, qdot0, h, steps)
    got = outcome(by_integrator, chart, field, q0, qdot0, h, steps)
    if failed(ref) or failed(got):
        assert got == ref, (chart.to_dict(), field, q0, qdot0)
        return None
    traj, y, slope, truncated, errors, seen = got
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
    return seen


@pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
@pytest.mark.parametrize("name", BUILTIN_CHARTS)
def test_builtin_paths_equal_the_generic_loop(name, field, rng):
    chart = tl.builtin_chart(name)
    lo, hi = np.array(SAMPLE_BOXES.get(name, (DEFAULT_BOX,) * chart.dim)).T
    for q0, qdot0 in zip(lo + (hi - lo) * rng.random((3, chart.dim)),
                         rng.normal(size=(3, chart.dim))):
        assert assert_stepper_equals_oracle(chart, field, q0.tolist(), qdot0.tolist()) is not None


# a path that blows up: its node at step 20 is not finite, and its NaNs took opposite
# sign bits on the two routes while such a node was recorded
BLOWING_UP = (Chart(2, "triad", ["-q1", "--a", "-atan2(atan2(b, q1), -a)", "-(exp(0.5) / exp(0.5))"],
                    params=PARAMS),
              [1.6956825254897128, -0.5415064890754635], [-1.8507290345036278, 2.2250738585072014e-308])


@settings(max_examples=60, deadline=None)
@given(case=field_cases())
@example(case=BLOWING_UP)
def test_generated_chart_paths_equal_the_generic_loop(case):
    # D = 1-3, map and triad charts, half of them guarded; a path ends at its last finite node
    chart, q0, v = case
    for field in TRAJECTORY_FIELDS:
        assert_stepper_equals_oracle(chart, field, q0, v[: chart.dim])


def test_truncating_paths_equal_the_generic_loop():
    stages = set()
    for edge, (chart, q0, qdot0) in sorted(TRUNCATING.items()):
        for field in TRAJECTORY_FIELDS:
            seen = assert_stepper_equals_oracle(chart, field, q0, qdot0, h=1e-2, steps=100)
            if (edge, field) != ("sphere_pole", "line_image"):  # that one turns away in time
                assert seen["stage"] is not None, (edge, field)
                stages.add(seen["stage"])
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
    seen = assert_stepper_equals_oracle(guarded, field, q0, qdot0, h=0.05, steps=steps)
    assert seen["stage"] == 0
    assert seen["passes"] == 4 * node + 1  # every stage up to the node's own
    assert len(by_integrator(guarded, field, q0, qdot0, 0.05, steps)[0]) == node


def test_near_floor_path_is_rejected_like_the_generic_loop():
    # the triad's first row is zero here, det g = 0 (the LU determinant used to admit it):
    # every integrator raises at the first node, as the generic loop does, with the
    # message of ``checked_metric``
    chart = Chart(2, "map", ["atan2(q1, q1)", "atan2(q1, sqrt(q2))"])
    q0 = [1.0, 0.0078125]
    want = outcome(chart.metric, q0)
    assert want[0] is DegenerateTriadError
    for field in TRAJECTORY_FIELDS:
        assert assert_stepper_equals_oracle(chart, field, q0, [0.0, 1.0]) is None
        assert outcome(INTEGRATORS[field], chart, q0, [0.0, 1.0], (0.0, 1.0), 0.05) == want


def test_path_reaching_a_non_finite_point_ends_like_the_generic_loop():
    # the autoparallel runs off to infinity: its node after 14 steps has an infinite
    # velocity, and the next stage at [inf, -inf] fails, checked before the rule, as
    # ``Chart._point_env`` checks.  The path ends at the last finite node, before that one
    chart = Chart(2, "triad", ["q1", "q2", "q2", "q2"])
    seen = assert_stepper_equals_oracle(chart, "autoparallel", [0.0, 1.0], [1.0, 0.0])
    assert seen["errors"] == [(NonFiniteError, "point [inf, -inf] is not finite")]
    assert seen["stage"] == 1
    assert len(seen["returned"][0]) == 14 and seen["returned"][2]


@pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
def test_error_at_the_first_node_propagates(field):
    sqrt_of_negative = Chart(2, "map", ["q1 + 0.1*sqrt(q1)", "q2"])
    for chart, q0, error in ((DEGENERATE, [0.05, 0.0], DegenerateTriadError),
                             (sqrt_of_negative, [-0.5, 0.0], EvaluationError)):
        assert assert_stepper_equals_oracle(chart, field, q0, [0.3, -0.2]) is None
        with pytest.raises(error):
            INTEGRATORS[field](chart, q0, [0.3, -0.2], (0.0, 1.0), 0.05)


# one argument feeding sin, cos and exp in the guard and in several entries: each is
# evaluated once per argument and stage, and read by every jet component that needs it
SHARED_ARGUMENTS = {
    "map": Chart(2, "map", ["exp(q1)*cos(q2) + sin(q1*q2)", "exp(q1)*sin(q2) - cos(q1*q2)",
                            "cos(q1)*exp(q1*q2) + sin(q1)"],
                 guard="2 + sin(q1*q2) - cos(q2)*exp(q1 - 3)"),
    "triad": Chart(2, "triad", ["2 + cos(q1)", "sin(q1)*exp(q2)", "-sin(q1)*exp(q2)",
                                "2 + cos(q1)*exp(-q2)"], guard="exp(q1) - cos(q1) + sin(q1)"),
}


@pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
@pytest.mark.parametrize("kind", sorted(SHARED_ARGUMENTS))
def test_shared_elementary_functions_equal_the_generic_loop(kind, field, rng):
    chart = SHARED_ARGUMENTS[kind]
    source = _fields._chart_source(field, kind, 2, chart.exprs, chart.guard, ())
    calls = Counter(line.split(" = ")[1] for line in source.splitlines()
                    if line.split(" = ")[-1].startswith(("_sin(", "_cos(", "_exp(")))
    assert set(calls.values()) == {4} and len(calls) >= 5, calls  # once in each stage's copy
    for q0, qdot0 in zip(0.2 + rng.random((3, 2)), rng.normal(size=(3, 2))):
        assert assert_stepper_equals_oracle(chart, field, q0.tolist(), qdot0.tolist()) is not None
    # an exp that overflows in stage 1 ends the path alike, at the first node
    seen = assert_stepper_equals_oracle(chart, field, [0.3, 0.2], [2e4, 2e4], h=0.1, steps=3)
    assert (seen["stage"], len(seen["returned"][0]), seen["returned"][2]) == (1, 1, True)


def test_import_compiles_no_stepper():
    # one integrator per (field, chart definition), compiled when a path first needs it
    assert fresh_interpreter(
        "import torsionlab as tl, torsionlab._fields as f; source, seen = f._chart_source, []; "
        "f._chart_source = lambda *a: seen.append(a[:2]) or source(*a); "
        "print(f._chart_field.cache_info().currsize); st = tl.builtin_chart('synthetic_torsion'); "
        "tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.1), 0.01); "
        "tl.integrate_geodesic(tl.builtin_chart('sphere'), [1.0, 0.0], [0.3, 0.4], (0.0, 0.1), 0.01); "
        "tl.straight_line_image(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.1), 0.01); "
        "print(*sorted(seen), sep=';'); print(f._chart_field.cache_info().currsize)"
    ) == ["0", "('autoparallel',", "'triad');('geodesic',", "'map');('line_image',", "'triad')",
          "3"]
