"""The three benchmark workloads, driven through torsionlab's public API.

A workload builds its fixed inputs once (``setup``), then runs passes.  A
pass is a fixed sequence of operations; each operation is timed on its own
and its output is checked against the acceptance bound of the criterion it
comes from.  An operation fails if it raises or breaks its bound.

Calls go through module attributes (``dynamics.integrate_geodesic(...)``),
looked up at call time, so the span recorder's wrappers see them.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import nullcontext

import numpy as np

from torsionlab import charts, cli, connection, curvature, defects, dynamics, pathintegral

import inputs
import refspeed

# -- checks -------------------------------------------------------------------------


def below(label, value, bound):
    """Check that a residual stays under its bound; the worst value is the largest."""
    value = float(value)
    return (label, value, "max", value < bound)


def above(label, value, bound):
    """Check that a discriminating residual stays over its bound; worst is smallest."""
    value = float(value)
    return (label, value, "min", value > bound)


def holds(label, condition):
    """A yes/no check, recorded as 1 when it holds."""
    return (label, 1.0 if condition else 0.0, "min", bool(condition))


class PassLog:
    """Timings, failures and residuals of the operations of one pass.

    With a span recorder each operation also becomes a span, so the spans
    under it can be attributed to it.  The reference loop is sampled between
    operations (see ``refspeed``); ``close()`` ends the pass.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.ops: list[tuple[str, float]] = []  # (kind, seconds)
        self.failed = 0
        self.failures: list[str] = []
        self.worst: dict[str, tuple[float, str]] = {}
        self.refs: list[float] = []  # reference-loop samples
        self.segments: list[float] = []  # operation seconds after each sample
        self._sampled_at = -math.inf

    def _sample_speed(self, force=False):
        if force or time.perf_counter() - self._sampled_at >= refspeed.INTERVAL_S:
            self.refs.append(refspeed.sample())
            self.segments.append(0.0)
            self._sampled_at = time.perf_counter()

    def close(self):
        self._sample_speed(force=True)

    @property
    def seconds_total(self) -> float:
        """Wall seconds of all operations, without the benchmark's own checks."""
        return sum(s for _, s in self.ops)

    @property
    def seconds_at_reference(self) -> float:
        return refspeed.rescale(self.segments, self.refs)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def op(self, kind, fn, check):
        """Run and time ``fn()``, then apply ``check(result)`` outside the timing."""
        self._sample_speed()
        scope = self.recorder.operation(kind) if self.recorder else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = fn()
        except Exception as exc:  # an operation that raises is a counted failure
            self._timed(kind, time.perf_counter() - t0)
            self._fail([f"{kind}: raised {type(exc).__name__}: {exc}"])
            return None
        self._timed(kind, time.perf_counter() - t0)
        try:
            outcomes = check(result)
        except Exception as exc:  # a check that cannot be evaluated is a failure too
            self._fail([f"{kind}: check raised {type(exc).__name__}: {exc}"])
            return result
        broken = []
        for label, value, sense, ok in outcomes:
            old = self.worst.get(label)
            if old is None or (value > old[0] if sense == "max" else value < old[0]):
                self.worst[label] = (value, sense)
            if not ok:
                broken.append(f"{kind}: {label} = {value:.3e} breaks its bound")
        self._fail(broken)
        return result

    def _timed(self, kind, seconds):
        self.ops.append((kind, seconds))
        self.segments[-1] += seconds

    def _fail(self, messages):
        if messages:
            self.failed += 1
            self.failures.extend(messages)

    def seconds(self, *prefixes) -> float:
        return sum(s for kind, s in self.ops if kind.startswith(prefixes))

    def samples(self, kind) -> list[float]:
        return [s for k, s in self.ops if k == kind]


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or (None, None) with fewer than eleven samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None, None
    k = n - 11  # ten samples lie above xs[k]
    return 100.0 * (k + 1) / n, xs[k]


# -- trajectories -------------------------------------------------------------------

STEP = 1e-3
AUTOPARALLEL_START = ([0.1, 0.2], [1.0, 0.7])  # criterion 3
DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]  # criterion 5
FLAT_START = ([1.0, 0.3], [0.2, 0.4])  # criterion 5


def _embed(q):
    return np.array([math.sin(q[0]) * math.cos(q[1]), math.sin(q[0]) * math.sin(q[1]),
                     math.cos(q[0])])


def _check_circle(traj):
    lo, hi = inputs.SAMPLE_BOXES["sphere"][0]
    return [
        below("great_circle_closure", np.linalg.norm(_embed(traj.q[-1]) - _embed(traj.q[0])), 1e-5),
        holds("great_circle_in_sphere_box", not traj.truncated
              and lo <= traj.q[:, 0].min() and traj.q[:, 0].max() <= hi),
    ]


def _complete(traj):
    return [holds("trajectory_complete", not traj.truncated)]


class Trajectories:
    """Serial RK4 loops over a few charts at order-1 jets (criteria 3 and 5)."""

    name = "trajectories"

    def setup(self, seed, workdir):
        return {
            "sphere": charts.builtin_chart("sphere", r=1.0),
            "torsion": charts.builtin_chart("synthetic_torsion", alpha=0.3),
            "polar": charts.builtin_chart("polar"),
            "circle": inputs.great_circle(seed),
        }

    def prepare(self, ctx, pass_index):
        return None

    def run(self, ctx, _, log: PassLog):
        sphere, torsion, polar = ctx["sphere"], ctx["torsion"], ctx["polar"]
        circle = ctx["circle"]
        log.op("geodesic.sphere", lambda: dynamics.integrate_geodesic(
            sphere, circle["q0"], circle["qdot0"], (0.0, 2.0 * math.pi), STEP), _check_circle)

        q0, v0 = AUTOPARALLEL_START
        ap = log.op("autoparallel", lambda: dynamics.integrate_autoparallel(
            torsion, q0, v0, (0.0, 1.0), STEP), _complete)
        log.op("line_image", lambda: dynamics.straight_line_image(torsion, q0, v0, (0.0, 1.0), STEP),
               lambda image: [below("line_image_deviation", np.max(np.abs(ap.q - image.q)), 1e-5)])
        ge = log.op("geodesic.torsion", lambda: dynamics.integrate_geodesic(
            torsion, q0, v0, (0.0, 1.0), STEP), _complete)
        log.op("el_residual.autoparallel", lambda: dynamics.torsion_el_residual(torsion, ap),
               lambda res: [below("el_residual_autoparallel", np.max(np.abs(res[1])), 1e-4)])
        log.op("el_residual.geodesic", lambda: dynamics.torsion_el_residual(torsion, ge),
               lambda res: [above("el_residual_geodesic", np.max(np.abs(res[1])), 1e-3)])

        run = log.op("variation.rk4", lambda: dynamics.nonholonomic_variation(torsion, ap, DELTAQ),
                     lambda r: [holds("variation_finite", np.all(np.isfinite(r.delta_b)))])
        log.op("variation.quadrature",
               lambda: dynamics.closure_defect_by_quadrature(torsion, ap, DELTAQ),
               lambda db: [below("solver_agreement", np.max(np.abs(run.delta_b - db)), 1e-6)])

        def flat():
            base = dynamics.integrate_geodesic(polar, *FLAT_START, (0.0, 1.0), STEP)
            return dynamics.nonholonomic_variation(polar, base, DELTAQ)

        log.op("variation.flat", flat,
               lambda r: [below("flat_closure_defect", np.max(np.abs(r.delta_b)), 1e-10)])

    def stage_metrics(self, logs):
        return {
            "geodesic_s": _median_stage(logs, "geodesic.sphere"),
            "autoparallel_s": _median_stage(logs, "autoparallel"),
            "variation_s": _median_stage(logs, "variation."),
        }


def _median_stage(logs, *prefixes):
    return (statistics.median(log.seconds(*prefixes) for log in logs), "s",
            f"median of {len(logs)} passes")


# -- geometry_sweep -------------------------------------------------------------------

# criterion 9: the CLI examples, run in-process
CLI_EXAMPLES = (
    ["tensors", "--chart", "builtin:polar", "--at", "1.0,0.2"],
    ["geodesic", "--chart", "builtin:sphere", "--q0", "1,0", "--qdot0", "0.3,0.4", "--step", "0.01"],
    ["autoparallel", "--chart", "builtin:synthetic_torsion", "--q0", "0,0", "--qdot0", "1,1",
     "--step", "0.01"],
    ["variation", "--chart", "builtin:synthetic_torsion", "--q0", "0,0", "--qdot0", "1,1",
     "--step", "0.01", "--deltaq", "t*(1-t);0"],
    ["burgers", "--chart", "builtin:dislocation", "--loop", "{loop}"],
    ["amplitude", "--manifold", "ring", "--points", "64", "--epsilon", "0.08"],
    ["spectrum", "--manifold", "ring", "--points", "128", "--epsilon", "0.05", "--levels", "2"],
)
CLI_LOOP = [[1, 1], [-1, 1], [-1, -1], [1, -1], [1, 1]]
POINT_TOL = 1e-6


def evaluate_point(chart, q):
    """Criterion-1 evaluation of one point: identity and curvature-relation residuals."""
    residuals = connection.identity_residuals(chart, q)
    return max(residuals.values()), curvature.curvature_relation_check(chart, q)


def check_point(result):
    identity, relation = result
    return [below("identity_residual", identity, POINT_TOL),
            below("curvature_relation_residual", relation, POINT_TOL)]


def _check_cold(result):
    return check_point(result[1])


def _loop_checks(label, value, target, bound):
    return [below(label, np.max(np.abs(np.asarray(value) - np.asarray(target))), bound)]


def _check_defect_charts(pair, eps, omega):
    """Each defect chart, and the chart under it, carries the strength it was made with."""
    dislocation, disclination = pair
    return [holds("defect_charts_parameters",
                  (dislocation.defect_kind, dislocation.parameter) == ("dislocation", eps)
                  and dislocation.chart.params == {"eps": eps}
                  and (disclination.defect_kind, disclination.parameter)
                  == ("disclination", omega)
                  and disclination.chart.params == {"om": omega})]


def _check_cli(cfg):
    def check(result):
        artifact, first, second = result
        again = cli.RunConfig.from_dict(json.loads(json.dumps(artifact["config"])))
        return [holds("cli_render_identical", first == second),
                holds("cli_config_round_trip", again == cfg)]
    return check


class GeometrySweep:
    """Fresh charts every pass, a few points each at order-3 jets, loops and the CLI."""

    name = "geometry_sweep"

    def setup(self, seed, workdir):
        loop_path = workdir / "cli-loop.json"
        loop_path.write_text(json.dumps(CLI_LOOP), encoding="utf-8")
        parser = cli._build_arg_parser()
        configs = [cli.config_from_args(parser.parse_args(
            [arg.format(loop=loop_path) for arg in argv])) for argv in CLI_EXAMPLES]
        builtins = {name: charts.builtin_chart(name, **params).to_dict()
                    for name, params in inputs.BUILTINS}
        return {"seed": seed, "builtins": builtins, "cli": configs}

    def prepare(self, ctx, pass_index):
        return inputs.geometry_inputs(ctx["seed"], pass_index)

    def run(self, ctx, pass_inputs, log: PassLog):
        for spec in pass_inputs["charts"]:
            definition = spec.get("definition") or ctx["builtins"][spec["builtin"]]
            points = spec["points"]

            def cold():
                chart = charts.Chart.from_dict(definition)
                return chart, evaluate_point(chart, points[0])

            built = log.op("chart_cold", cold, _check_cold)
            if built is None:
                continue
            chart = built[0]
            for q in points[1:]:
                log.op("point", lambda: evaluate_point(chart, q), check_point)

        eps = pass_inputs["dislocation_eps"]
        omega = pass_inputs["disclination_omega"]
        made = log.op("loop.charts", lambda: (defects.make_dislocation(eps),
                                              defects.make_disclination(omega)),
                      lambda pair: _check_defect_charts(pair, eps, omega))
        dislocation, disclination = made if made else (None, None)
        frank = 2.0 * math.pi * omega
        for around, verts in pass_inputs["loops"]:
            loop = defects.LoopSpec(vertices=tuple(map(tuple, verts)),
                                    samples_per_edge=inputs.SAMPLES_PER_EDGE)
            b = (0.0, 2.0 * math.pi * eps) if around else (0.0, 0.0)
            log.op("loop.winding", lambda: defects.winding_integral(defects.angle_gradient, loop),
                   lambda w: _loop_checks("winding", w, 2.0 * math.pi * around, 1e-6))
            log.op("loop.burgers", lambda: defects.burgers_vector(dislocation, loop),
                   lambda res: _loop_checks("burgers", res.b, b, 1e-6))
            log.op("loop.flux", lambda: defects.torsion_flux(dislocation, loop),
                   lambda flux: _loop_checks("torsion_flux", flux, b, 1e-6))
            log.op("loop.frank", lambda: defects.frank_angle(disclination, loop),
                   lambda f: [below("frank_angle_rel", abs(f + frank * around) / frank, 0.02)])

        for cfg in ctx["cli"]:
            def twice():
                artifact = cli.run(cfg)
                first = cli.render(cfg, artifact)
                return artifact, first, cli.render(cfg, cli.run(cfg))

            log.op(f"cli.{cfg.command}", twice, _check_cli(cfg))

    def stage_metrics(self, logs):
        points = [s for log in logs for s in log.samples("point")]
        colds = [s for log in logs for s in log.samples("chart_cold")]
        pct, value = tail(points)
        return {
            "point_p50_ms": (1e3 * statistics.median(points), "ms", f"{len(points)} points"),
            "point_tail_ms": (1e3 * value if value is not None else float("nan"), "ms",
                              f"p{pct:.2f} of {len(points)} points, 10 beyond it"
                              if pct else "too few points"),
            "chart_cold_ms": (1e3 * statistics.median(colds), "ms", f"median of {len(colds)} charts"),
            "loops_s": _median_stage(logs, "loop."),
        }


# -- spectra ----------------------------------------------------------------------------

RING_LADDER = (0.08, 0.04, 0.02, 0.01)  # criterion 7
SPHERE_LADDER = (0.08, 0.04, 0.02)  # criterion 8
RING_UNIT = 0.5  # hbar^2 / (2 M r^2)


def _check_ring(res):
    expected = RING_UNIT * np.array([0.0, 1.0, 4.0, 9.0])
    rel = max(abs(res.extrapolated[m] - expected[m]) / expected[m] for m in (1, 2, 3))
    return [below("ring_ground_level", abs(res.extrapolated[0]) / RING_UNIT, 1e-3),
            below("ring_level_rel", rel, 0.01),
            holds("ring_degeneracies", res.degeneracies == (1, 2, 2, 2))]


class Spectra:
    """Criteria 7 and 8: the ring ladder and the 48x96 sphere under three measures."""

    name = "spectra"

    def setup(self, seed, workdir):
        return {
            "ring": pathintegral.Ring(radius=1.0, points=256),
            "sphere": pathintegral.Sphere(radius=1.0, n_theta=48, n_phi=96),
            "cfg": pathintegral.ShortTimeConfig(),
        }

    def prepare(self, ctx, pass_index):
        return None

    def run(self, ctx, _, log: PassLog):
        cfg = ctx["cfg"]
        log.op("ring_ladder", lambda: pathintegral.spectrum_ladder(
            ctx["ring"], cfg, "qep", RING_LADDER, n_levels=4), _check_ring)

        levels = {}

        def ladder(mode):
            res = pathintegral.spectrum_ladder(ctx["sphere"], cfg, mode, SPHERE_LADDER,
                                               n_levels=4, group_tol=0.05)
            levels[mode] = res.extrapolated
            return res

        def check_qep(res):
            gaps = res.extrapolated[1:] - res.extrapolated[0]
            pattern = 0.5 * np.array([2.0, 6.0, 12.0])  # hbar^2 l(l+1) / (2 M r^2)
            return [below("sphere_gap_rel", np.max(np.abs(gaps / pattern - 1.0)), 0.03),
                    holds("sphere_degeneracies", res.degeneracies == (1, 3, 5, 7))]

        def check_naive(res):
            shift = res.extrapolated - levels["qep"]
            return [below("sphere_shift_rel", np.max(np.abs(shift * 3.0 - 1.0)), 0.05)]

        def check_veff(res):
            qep = levels["qep"]
            scale = np.maximum(np.abs(qep), 0.5)
            return [below("sphere_form_agreement", np.max(np.abs(qep - res.extrapolated) / scale),
                          0.01)]

        for mode, check in (("qep", check_qep), ("naive_dewitt", check_naive),
                            ("qep_via_veff", check_veff)):
            log.op(f"sphere_ladder.{mode}", lambda: ladder(mode), check)

    def stage_metrics(self, logs):
        return {
            "sphere_ladders_s": _median_stage(logs, "sphere_ladder."),
            "ring_ladder_s": _median_stage(logs, "ring_ladder"),
        }


WORKLOADS = {w.name: w for w in (Trajectories(), GeometrySweep(), Spectra())}
