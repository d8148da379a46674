"""One degenerate-triad rule at every entry point.

A point is admitted where det g > floor^2 + 1e-13 prod g_ii and det g is
finite (``_local.rule_lines``), with g's entries summed left to right and det g
by their cofactors.  ``checked_metric`` and every generated field run the same
lines on the same floats, so every entry point rejects the same points with
the same error, at one point and over a stack, and a trajectory that meets
such a point truncates there.  By Hadamard's inequality det g <= prod g_ii, so
the margin decides alike at every scale of g, as long as the floor does not bind.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import torsionlab as tl
from torsionlab import dynamics
from torsionlab._local import LocalGeometry
from torsionlab.charts import Chart
from torsionlab.cli import EXIT_NUMERIC
from torsionlab.errors import DegenerateTriadError

from test_batched_jets import RANK_ONE
from test_rk4_stepper import INTEGRATORS, assert_stepper_equals_oracle, by_integrator, failed
from test_trajectory_fields import (
    FIELDS,
    admitted_by_metric,
    assert_bitwise,
    edge_of_admission,
    outcome,
)

ALL_FIELDS = FIELDS + ("line_image",)
ATAN2 = Chart(2, "map", ["atan2(q1, q1)", "atan2(q1, sqrt(q2))"])  # its first triad row is zero
ONE_STEP = Chart(2, "triad", ["0.1*q1", "0.3*q1", "0.2*q1", "0.6*q1 + q2"])  # RANK_ONE at q2 = 0
REJECTED = {  # (chart, point, a stack whose first point the rule rejects is ``point``)
    **{f"rank_one_{q1}": (RANK_ONE, [q1, 0.0], [[q1, 0.0], [0.4, 0.3]]) for q1 in (0.7, 1.0, 1.3)},
    "atan2": (ATAN2, [1.0, 0.0078125], [[1.0, 0.0078125], [1.0, 0.5]]),
    "one_step": (ONE_STEP, [1.3, 0.0], [[1.3, 0.05], [1.3, 0.0], [1.0, 0.0]]),
}


def velocities(chart, field, n=None):
    """A chart velocity (the flat one, of the ambient dimension, for the line image),
    or over ``n`` points D arrays of n."""
    v = [0.3, -0.2, 0.5, 0.1][: chart.ambient_dim if field == "line_image" else chart.dim]
    return v if n is None else tuple(np.linspace(x, 2.0 * x, n) for x in v)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_at_every_entry_point(case):
    chart, q, stack = REJECTED[case]
    stack = np.array(stack)
    want = outcome(chart.metric, q)
    assert want[0] is DegenerateTriadError and want[1].startswith(f"triad degenerate at {q}:")
    assert outcome(chart.triad, q) == want
    for order in (0, 1, 2):
        assert outcome(lambda: LocalGeometry.of(chart, q, order).g) == want
        assert outcome(lambda: LocalGeometry.of(chart, stack, order).g) == want
    for field in ALL_FIELDS:
        at = dynamics._field(chart, field)
        assert outcome(at, q, velocities(chart, field)) == want
        assert outcome(at, np.array(q), velocities(chart, field)) == want
        assert outcome(at, stack, velocities(chart, field, len(stack))) == want
    assert outcome(tl.variation_matrices, chart, q, [0.3, -0.2]) == want
    for integrate in INTEGRATORS.values():  # at the first node the error propagates
        assert outcome(integrate, chart, q, [0.3, -0.2], (0.0, 1.0), 0.05) == want


@pytest.mark.parametrize("field", sorted(INTEGRATORS))
def test_path_onto_a_rank_one_point_truncates(field):
    # from q2 = 0.05 at the velocity (0, -1) with h = 0.1, the second RK4 stage of the
    # first step lands on q2 = 0 (exactly, for the second-order fields), where the
    # triad is RANK_ONE's: the path ends at its first node, as the generic loop's does
    q0, qdot0 = [1.3, 0.05], [0.0, -1.0]
    seen = assert_stepper_equals_oracle(ONE_STEP, field, q0, qdot0, h=0.1, steps=5)
    traj = by_integrator(ONE_STEP, field, q0, qdot0, 0.1, 5)[0]
    assert traj.truncated and len(traj) == 1 and seen["stage"] == 1
    ((error, message),) = seen["errors"]
    assert error is DegenerateTriadError
    if field != "line_image":
        assert (error, message) == outcome(ONE_STEP.metric, [1.3, 0.0])


# -- the boundary of the rule ------------------------------------------------------------


def scaled(c):
    """c [1, 1, 1, 1 + 1e-6 q1]: det g / prod g_ii is about 2.5e-13 q1^2 at every c."""
    return Chart(2, "triad", ["c", "c", "c", "c*(1 + d*q1)"], params={"c": c, "d": 1e-6})


BOUNDARY = {  # (chart, the point at x, an interval of x whose ends the rule rejects and admits)
    # det g = prod g_ii = exp(-2/q1^2): the absolute floor decides
    "band": (Chart(2, "triad", ["exp(-1/q1^2)", "0", "0", "1"]), lambda x: [x, 0.0], (0.05, 0.5)),
    **{f"scaled_{c:g}": (scaled(c), lambda x: [x, 0.0], (0.0, 1e3)) for c in (1e-3, 1.0, 1e3)},
    # D = 1: det g = g_11, the floor decides
    "map1": (Chart(1, "map", ["0.5*q1^2"]), lambda x: [x], (0.0, 1.0)),
    # D = 3: det e = 1e-6 q1, prod g_ii = 8, the margin decides
    "map3": (Chart(3, "map", ["q1 + q2", "q1 + q2 + q3", "q3 + 5e-7*q1^2"]),
             lambda x: [x, 0.3, -0.2], (0.0, 2.0)),
}


@pytest.mark.parametrize("profile", ["default", "strict"])
@pytest.mark.parametrize("case", sorted(BOUNDARY))
def test_boundary_is_decided_alike(case, profile, monkeypatch):
    # the two floats that straddle the rule's boundary: ``LocalGeometry`` and every
    # field admit or reject each alike, with one message, at the point and over a stack
    # whose other point is admitted
    monkeypatch.setenv("TORSIONLAB_TOLERANCES", profile)
    chart, point, (lo, hi) = BOUNDARY[case]
    x = edge_of_admission(lambda x: admitted_by_metric(chart, point(x)), lo, hi)
    for q, admitted in ((point(x), True), (point(float(np.nextafter(x, lo))), False)):
        stack = np.array([point(hi), q])
        want = outcome(lambda: LocalGeometry.of(chart, q, 1).g)
        assert failed(want) != admitted
        got = outcome(lambda: LocalGeometry.of(chart, stack, 1).g)
        if admitted:
            assert_bitwise(got[1], want)
        else:
            assert want[0] is DegenerateTriadError and got == want
        for field in ALL_FIELDS:
            at = dynamics._field(chart, field)
            single = outcome(at, q, velocities(chart, field))
            batch = outcome(at, stack, velocities(chart, field, 2))
            if admitted:
                assert not failed(single) and not failed(batch)
            else:
                assert single == batch == want


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_scaled_triads_decide_independently_of_the_scale(profile, monkeypatch):
    # det g / prod g_ii does not depend on c: at c = 1 and 1e3 the rule's margin decides
    # (the floor^2 is below 1e-11 of it) and the boundary moves only by rounding; at
    # c = 1e-3 the floor binds and rejects points that the margin admits
    monkeypatch.setenv("TORSIONLAB_TOLERANCES", profile)
    edges = {c: edge_of_admission(lambda x: admitted_by_metric(scaled(c), [x, 0.0]), 0.0, 1e3)
             for c in (1e-3, 1.0, 1e3)}
    assert abs(edges[1e3] / edges[1.0] - 1.0) < 1e-3
    assert 0.63 < edges[1.0] < 0.64 and edges[1e-3] > 1.1
    for c in (1e-3, 1.0, 1e3):
        decided = [admitted_by_metric(scaled(c), [s * edges[1.0], 0.0]) for s in (0.98, 0.99, 1.01, 1.02)]
        assert decided == ([False] * 4 if c == 1e-3 else [False, False, True, True]), c


# -- the command line ----------------------------------------------------------------------

RANK_ONE_FILE = {"dim": 2, "kind": "triad", "exprs": ["0.1*q1", "0.3*q1", "0.2*q1", "0.6*q1"]}


@pytest.mark.parametrize("argv", [["tensors", "--at", "1.3,0"],
                                  ["geodesic", "--q0", "1.3,0", "--qdot0", "0.3,0.4"]],
                         ids=["tensors", "geodesic"])
def test_cli_rejects_a_rank_one_chart(tmp_path, argv):
    chart = tmp_path / "rank_one.json"
    chart.write_text(json.dumps(RANK_ONE_FILE))
    run = subprocess.run([sys.executable, "-m", "torsionlab.cli", argv[0], "--chart", str(chart),
                          *argv[1:]], capture_output=True, text=True)
    assert run.returncode == EXIT_NUMERIC and run.stdout == ""
    (line,) = run.stderr.splitlines()  # one JSON line, no traceback
    error = json.loads(line)["error"]
    assert (error["type"], error["exit_code"]) == ("DegenerateTriadError", EXIT_NUMERIC)
    assert error["message"] == outcome(RANK_ONE.metric, [1.3, 0.0])[1]
