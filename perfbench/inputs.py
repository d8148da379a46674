"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed (and, for the fresh
charts of ``geometry_sweep``, of the pass index), so the same seed gives the
same inputs on every machine.  The program only ever sees the generated
values, never the seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# The test suite's sampling boxes (tests/conftest.py), which keep random points
# clear of guards and coordinate singularities; generated charts use the
# cartesian box in every dimension.
SAMPLE_BOXES = {
    "cartesian": ((-2.0, 2.0), (-2.0, 2.0)),
    "polar": ((0.4, 3.0), (-2.5, 2.5)),
    "sphere": ((0.35, np.pi - 0.35), (-np.pi, np.pi)),
    "dislocation": ((0.4, 2.5), (0.4, 2.5)),
    "disclination": ((0.4, 2.5), (0.4, 2.5)),
    "synthetic_torsion": ((-0.8, 2.0), (-2.0, 2.0)),
}
GENERATED_HALF_WIDTH = 2.0

# criterion-1 builtins with the parameters the suite uses
BUILTINS = (
    ("polar", {}),
    ("sphere", {"r": 1.0}),
    ("dislocation", {"eps": 0.1}),
    ("disclination", {"om": 0.01}),
    ("synthetic_torsion", {"alpha": 0.3}),
)
GENERATED_KINDS = (("map", 2), ("triad", 2), ("map", 3), ("triad", 3))

# Sizes of one geometry_sweep pass, each taken from a test it mirrors.
# Criterion 1 (the ROADMAP's identity sweep): 5 builtins x 100 points, few
# charts with many points each.
BUILTIN_POINTS = 100
# Its mirror image with the same 500 points: 100 fresh generated charts (as
# many as criterion 1 has points per chart) x 5 points, many charts with a few
# points each, so a per-chart cost (parse, compile) weighs against the
# per-point cost that the builtin half measures.
GENERATED_PER_KIND = 25
GENERATED_POINTS = 5
# Criterion 4 takes three loops around the origin through Burgers, and
# tests/test_defects.py one offset loop that misses it; each loop here runs
# through all four loop functions.  The polygons have 4 or 5 vertices like
# criterion 4's squares and pentagon, and 24 samples per edge like its
# pentagon, the irregular one.
LOOPS_AROUND = 3
LOOPS_MISSING = 1
LOOP_VERTICES = (4, 5)
SAMPLES_PER_EDGE = 24

# the largest inclination that keeps a unit-sphere great circle inside the
# sphere box (colatitude >= 0.35), less a margin
MAX_INCLINATION = math.pi / 2 - 0.35 - 0.1


def rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one input stream of one seed."""
    return np.random.default_rng([int(seed), *stream])


def sample_points(box, n: int, gen: np.random.Generator) -> np.ndarray:
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * gen.random((n, len(box)))


# -- trajectories ---------------------------------------------------------------


def great_circle(seed: int) -> dict:
    """Start point and velocity of a unit-speed great circle on the unit sphere.

    The circle has a seeded inclination to the equator, a seeded ascending
    node and a seeded start phase; its colatitude stays within
    [pi/2 - inclination, pi/2 + inclination], inside the sphere box.
    """
    gen = rng(seed, 1)
    incl = gen.uniform(0.0, MAX_INCLINATION)
    node = gen.uniform(-math.pi, math.pi)
    phase = gen.uniform(0.0, 2.0 * math.pi)
    a = np.array([math.cos(node), math.sin(node), 0.0])
    b = np.array([-math.cos(incl) * math.sin(node), math.cos(incl) * math.cos(node),
                  math.sin(incl)])
    x = math.cos(phase) * a + math.sin(phase) * b
    xdot = -math.sin(phase) * a + math.cos(phase) * b
    theta = math.acos(x[2])
    phi = math.atan2(x[1], x[0])
    theta_dot = -xdot[2] / math.sin(theta)
    phi_dot = (x[0] * xdot[1] - x[1] * xdot[0]) / (x[0] ** 2 + x[1] ** 2)
    return {"q0": [theta, phi], "qdot0": [theta_dot, phi_dot], "inclination": incl}


# -- generated charts -----------------------------------------------------------


def _atom(kind: int, gen: np.random.Generator, dim: int) -> str:
    """One bounded factor built from a DSL function of the coordinates.

    On the generated box (|q| <= 2) every factor is at most 2.45 in size with
    first derivatives at most 1.5, so the perturbations below keep every triad
    within distance 0.7 of the identity: no generated chart is degenerate.
    """
    j = int(gen.integers(1, dim + 1))
    k = int(gen.integers(1, dim + 1))
    a = round(float(gen.uniform(0.5, 1.5)), 3)
    b = round(float(gen.uniform(-1.0, 1.0)), 3)
    c = round(float(gen.uniform(1.0, 2.0)), 3)
    e = round(float(gen.uniform(-0.4, 0.4)), 3)
    return (
        f"sin({a}*q{j} + {b})",
        f"cos({a}*q{j} - {b})",
        f"exp({e}*q{j})",
        f"log({c} + q{j}^2)",
        f"sqrt({c} + q{j}^2)",
        f"atan2(q{j}, {c} + q{k}^2)",
    )[kind]


def _perturbation(gen: np.random.Generator, dim: int, kinds) -> str:
    """Sum of two small products of bounded factors."""
    terms = []
    for _ in range(2):
        amp = round(float(gen.uniform(0.005, 0.015)), 4)
        f1 = _atom(next(kinds), gen, dim)
        f2 = _atom(next(kinds), gen, dim)
        terms.append(f"{amp}*{f1}*{f2}")
    return " + ".join(terms)


def generated_chart(gen: np.random.Generator, kind: str, dim: int, name: str) -> dict:
    """The identity chart (or identity triad) plus a seeded smooth perturbation.

    The perturbation factors cycle through all six DSL functions, starting at
    a seeded offset, so every chart uses each function.
    """
    kinds = (k % 6 for k in itertools.count(int(gen.integers(0, 6))))
    if kind == "map":
        exprs = [f"q{i + 1} + {_perturbation(gen, dim, kinds)}" for i in range(dim)]
    else:
        exprs = [
            ("1 + " if i == mu else "") + _perturbation(gen, dim, kinds)
            for i in range(dim)
            for mu in range(dim)
        ]
    return {"name": name, "dim": dim, "kind": kind, "exprs": exprs}


# -- loops ------------------------------------------------------------------------


def polygon_loop(gen: np.random.Generator, around_origin: bool) -> list:
    """Closed star-shaped polygon, either enclosing the origin or clear of it.

    Loops have 4 or 5 vertices with jittered but ordered angles; those around
    the origin lie at radii 0.6..2.4, those that miss it are centred 2.8..3.6
    from the origin with radii 0.5..1.2.
    """
    n = int(gen.choice(LOOP_VERTICES))
    base = 2.0 * math.pi * np.arange(n) / n
    angles = base + gen.uniform(-0.25, 0.25, n) * (2.0 * math.pi / n) + gen.uniform(0, 2 * math.pi)
    if around_origin:
        centre = np.zeros(2)
        radii = gen.uniform(0.6, 2.4, n)
    else:
        dist = gen.uniform(2.8, 3.6)
        direction = gen.uniform(-math.pi, math.pi)
        centre = dist * np.array([math.cos(direction), math.sin(direction)])
        radii = gen.uniform(0.5, 1.2, n)
    verts = [(centre + r * np.array([math.cos(t), math.sin(t)])).tolist()
             for r, t in zip(radii, angles)]
    verts.append(verts[0])
    return verts


# -- one geometry_sweep pass --------------------------------------------------------


def geometry_inputs(seed: int, pass_index: int) -> dict:
    """Charts, points and loops of one geometry_sweep pass.

    Each pass gets its own generated charts, points and loops, so every pass
    meets charts the program has not seen before.
    """
    gen = rng(seed, 2, pass_index)
    charts = []
    for name, _ in BUILTINS:
        charts.append({
            "builtin": name,
            "points": sample_points(SAMPLE_BOXES[name], BUILTIN_POINTS, gen),
        })
    box = ((-GENERATED_HALF_WIDTH, GENERATED_HALF_WIDTH),)
    for kind, dim in GENERATED_KINDS:
        for k in range(GENERATED_PER_KIND):
            charts.append({
                "definition": generated_chart(gen, kind, dim, f"gen-{kind}{dim}-{k}"),
                "points": sample_points(box * dim, GENERATED_POINTS, gen),
            })
    loops = [(True, polygon_loop(gen, True)) for _ in range(LOOPS_AROUND)]
    loops += [(False, polygon_loop(gen, False)) for _ in range(LOOPS_MISSING)]
    return {
        "charts": charts,
        "loops": loops,
        "dislocation_eps": float(gen.uniform(0.05, 0.2)),
        "disclination_omega": float(gen.uniform(0.005, 0.02)),
    }
