"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance is pinned here, not configured at runtime.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

import torsionlab as tl
from torsionlab.cli import RunConfig, _build_arg_parser, config_from_args, render, run

from conftest import sample_points


def _report(num, label, elapsed, limit, detail=""):
    print(f"\n[criterion {num}] PASS in {elapsed:.2f}s (limit {limit}s): {label}. {detail}")


CHART_NAMES = ("polar", "sphere", "dislocation", "disclination", "synthetic_torsion")


def test_criterion_1_tensor_identity_suite(charts, rng):
    t0 = time.perf_counter()
    tol = 1e-6
    worst = {}
    for name in CHART_NAMES:
        chart = charts[name]
        for q in sample_points(name, 100, rng):
            res = tl.identity_residuals(chart, q)
            res["curvature_relation"] = tl.curvature_relation_check(chart, q)
            for key, value in res.items():
                worst[key] = max(worst.get(key, 0.0), value)
                assert value < tol, (name, key, q, value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        1,
        "tensor identities on 5 charts x 100 random points < 1e-6",
        elapsed,
        10,
        f"worst residuals: { {k: float(f'{v:.2e}') for k, v in worst.items()} }",
    )


def test_criterion_2_flatness_and_sphere_scalar(charts, rng):
    t0 = time.perf_counter()
    for name in ("polar", "synthetic_torsion"):
        chart = charts[name]
        for q in sample_points(name, 20, rng):
            assert np.max(np.abs(tl.cartan_curvature(chart, q))) < 1e-8
            assert np.max(np.abs(tl.riemann_curvature(chart, q))) < 1e-8
    worst_scalar = 0.0
    for r in (1.0, 1.7):
        sphere = tl.builtin_chart("sphere", r=r)
        for q in sample_points("sphere", 10, rng):
            scalar = tl.geometry_point(sphere, q).ricci_scalar_einstein("riemann")[1]
            worst_scalar = max(worst_scalar, abs(abs(scalar) * r * r - 2.0))
            assert abs(abs(scalar) * r * r - 2.0) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        2,
        "flat charts curvature-free < 1e-8; sphere |R| r^2 = 2 < 1e-6",
        elapsed,
        5,
        f"worst |R| r^2 deviation {worst_scalar:.2e} (signed scalar is +2/r^2 here)",
    )


def test_criterion_3_classical_dynamics():
    t0 = time.perf_counter()
    # great-circle closure at t = 2 pi (unit radius, unit speed)
    sphere = tl.builtin_chart("sphere", r=1.0)

    def embed(q):
        return np.array(
            [
                math.sin(q[0]) * math.cos(q[1]),
                math.sin(q[0]) * math.sin(q[1]),
                math.cos(q[0]),
            ]
        )

    closures = []
    for q0, v0 in (
        ([math.pi / 2, 0.0], [0.0, 1.0]),  # equatorial
        ([1.0, 0.0], [0.6, math.sqrt(1 - 0.36) / math.sin(1.0)]),  # tilted
    ):
        traj = tl.integrate_geodesic(sphere, q0, v0, (0.0, 2 * math.pi), 1e-3)
        closures.append(float(np.linalg.norm(embed(traj.q[-1]) - embed(traj.q[0]))))
        assert closures[-1] < 1e-5

    # autoparallel against the straight-line-image oracle
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    q0, v0 = [0.1, 0.2], [1.0, 0.7]
    ap = tl.integrate_autoparallel(st, q0, v0, (0.0, 1.0), 1e-3)
    image = tl.straight_line_image(st, q0, v0, (0.0, 1.0), 1e-3)
    image_dev = float(np.max(np.abs(ap.q - image.q)))
    assert image_dev < 1e-5

    # torsion Euler-Lagrange residual discriminates the two trajectory types
    ge = tl.integrate_geodesic(st, q0, v0, (0.0, 1.0), 1e-3)
    _, res_ap = tl.torsion_el_residual(st, ap)
    _, res_ge = tl.torsion_el_residual(st, ge)
    tol = 1e-4
    assert np.max(np.abs(res_ap)) < tol
    assert np.max(np.abs(res_ge)) > 10 * tol

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        3,
        "great-circle closure < 1e-5; autoparallel = line image < 1e-5; EL discrimination >= 10x",
        elapsed,
        30,
        f"closures {closures[0]:.1e}/{closures[1]:.1e}, image dev {image_dev:.1e}, "
        f"EL residuals {np.max(np.abs(res_ap)):.1e} vs {np.max(np.abs(res_ge)):.1e}",
    )


def test_criterion_4_defect_invariants():
    t0 = time.perf_counter()
    loop = tl.square_loop(1.0, samples_per_edge=16)
    winding = tl.winding_integral(tl.angle_gradient, loop)
    assert abs(winding - 2 * math.pi) < 1e-6

    eps = 0.1
    defect = tl.make_dislocation(eps)
    res = tl.burgers_vector(defect, loop)
    assert abs(res.b[0]) < 1e-6 and abs(res.b[1] - 2 * math.pi * eps) < 1e-6

    alt_loops = (
        tl.square_loop(2.0, samples_per_edge=16),
        tl.LoopSpec(vertices=((2, 0), (0.4, 1.9), (-2, 0.3), (-0.5, -2.2), (2, 0)), samples_per_edge=24),
    )
    homotopy_dev = max(
        float(np.max(np.abs(np.asarray(tl.burgers_vector(defect, lp).b) - np.asarray(res.b))))
        for lp in alt_loops
    )
    assert homotopy_dev < 1e-6

    omega = 0.01
    frank = tl.frank_angle(tl.make_disclination(omega), loop)
    frank_rel = abs(frank + 2 * math.pi * omega) / (2 * math.pi * omega)
    assert frank_rel < 0.02

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        4,
        "winding 2pi < 1e-6; Burgers (0, 2 pi eps) < 1e-6, loop-invariant < 1e-6; Frank -2 pi Omega < 2%",
        elapsed,
        5,
        f"winding err {abs(winding - 2*math.pi):.1e}, homotopy dev {homotopy_dev:.1e}, frank rel {frank_rel:.1e}",
    )


def test_criterion_5_nonholonomic_variation():
    t0 = time.perf_counter()
    deltaq = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]

    polar = tl.builtin_chart("polar")
    base_flat = tl.integrate_geodesic(polar, [1.0, 0.3], [0.2, 0.4], (0.0, 1.0), 1e-3)
    run_flat = tl.nonholonomic_variation(polar, base_flat, deltaq)
    flat_max = float(np.max(np.abs(run_flat.delta_b)))
    assert flat_max < 1e-10

    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    base = tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-3)
    run_t = tl.nonholonomic_variation(st, base, deltaq)
    db_quad = tl.closure_defect_by_quadrature(st, base, deltaq)
    solver_dev = float(np.max(np.abs(run_t.delta_b - db_quad)))
    assert solver_dev < 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        5,
        "closure defect == 0 without torsion < 1e-10; two solvers agree < 1e-6",
        elapsed,
        10,
        f"torsion-free max {flat_max:.1e}; solver deviation {solver_dev:.1e}; "
        f"endpoint defect {np.abs(run_t.delta_b[-1]).max():.2e}",
    )


def test_criterion_6_jacobian_actions(rng):
    t0 = time.perf_counter()
    # (a) the two Jacobian exponents coincide on flat-image holonomic charts
    worst = 0.0
    for name, params in (("polar", {}), ("disclination", {"om": 0.01}), ("cartesian", {})):
        chart = tl.builtin_chart(name, **params)
        for _ in range(20):
            q = rng.uniform(0.5, 2.0, size=2)
            dq = rng.uniform(-0.15, 0.15, size=2)
            diff = abs(tl.jacobian_action_qep(chart, q, dq) - tl.jacobian_action_naive(chart, q, dq))
            worst = max(worst, diff)
            assert diff < 1e-10

    # (b) measure difference matches Ricci/6 on the sphere with at least
    # third-order convergence under step halving (the implemented series make
    # the relation an identity, so residuals sit at the rounding floor, which
    # is stronger than any finite order)
    sphere = tl.builtin_chart("sphere", r=1.0)
    q = np.array([1.1, 0.5])
    ricci = tl.geometry_point(sphere, q).ricci_scalar_einstein("riemann")[0]
    direction = np.array([0.6, -0.8])
    scales = np.array([0.2, 0.1, 0.05, 0.025])
    residuals, targets = [], []
    for s in scales:
        dq = s * direction
        target = float(np.einsum("mn,m,n->", ricci, dq, dq)) / 6.0
        residuals.append(abs(tl.delta_jacobian(sphere, q, dq) - target))
        targets.append(abs(target))
    residuals, targets = np.array(residuals), np.array(targets)
    floor = 1e-12 * targets
    if np.all(residuals <= floor):
        order_note = "residuals at rounding floor (exact identity, stronger than order 3)"
    else:
        fit = np.polyfit(np.log(scales), np.log(np.maximum(residuals, 1e-300)), 1)
        assert fit[0] >= 2.7, f"observed order {fit[0]:.2f}"
        order_note = f"observed order {fit[0]:.2f} >= 2.7"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        6,
        "QEP == naive Jacobian exponent on holonomic charts < 1e-10; sphere measure difference = Ricci/6",
        elapsed,
        10,
        f"worst holonomic diff {worst:.1e}; {order_note}",
    )


def test_criterion_7_ring_spectrum():
    t0 = time.perf_counter()
    unit = 0.5  # hbar^2 / (2 M r^2)
    res = tl.spectrum_ladder(
        tl.Ring(radius=1.0, points=256),
        tl.ShortTimeConfig(),
        "qep",
        (0.08, 0.04, 0.02, 0.01),
        n_levels=4,
    )
    expected = unit * np.array([0.0, 1.0, 4.0, 9.0])
    assert abs(res.extrapolated[0]) < 1e-3 * unit
    rel = [abs(res.extrapolated[m] - expected[m]) / expected[m] for m in (1, 2, 3)]
    assert max(rel) < 0.01
    assert res.degeneracies == (1, 2, 2, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        7,
        "ring levels m^2 hbar^2/(2 M r^2) for m <= 3 within 1%; degeneracies (1,2,2,2)",
        elapsed,
        60,
        f"relative errors {[f'{x:.2e}' for x in rel]}",
    )


def test_criterion_8_sphere_quantum_equivalence():
    t0 = time.perf_counter()
    manifold = tl.Sphere(radius=1.0, n_theta=48, n_phi=96)  # within the 64 x 128 budget
    ladder = (0.08, 0.04, 0.02)
    results = {
        mode: tl.spectrum_ladder(
            manifold, tl.ShortTimeConfig(), mode, ladder, n_levels=4, group_tol=0.05
        )
        for mode in ("qep", "naive_dewitt", "qep_via_veff")
    }
    qep = results["qep"].extrapolated
    naive = results["naive_dewitt"].extrapolated
    via = results["qep_via_veff"].extrapolated

    # (a) level gaps follow l(l+1) within 3 percent
    gaps = qep[1:] - qep[0]
    pattern = 0.5 * np.array([2.0, 6.0, 12.0])  # hbar^2 l(l+1) / (2 M r^2)
    gap_rel = np.abs(gaps / pattern - 1.0)
    assert np.max(gap_rel) < 0.03
    assert results["qep"].degeneracies == (1, 3, 5, 7)

    # (b) naive levels sit a uniform hbar^2 R / (6 M) = hbar^2/(3 M r^2) above
    shift = naive - qep
    shift_rel = np.abs(shift * 3.0 - 1.0)
    assert np.max(shift_rel) < 0.05

    # (c) the two writings of the corrected measure agree within 1 percent
    level_scale = np.maximum(np.abs(qep), 0.5)
    agree_rel = np.abs(qep - via) / level_scale
    assert np.max(agree_rel) < 0.01

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        8,
        "sphere: l(l+1) gaps < 3%; naive-vs-QEP shift hbar^2/(3 M r^2) < 5%; two QEP forms < 1%",
        elapsed,
        600,
        f"gap rel {np.max(gap_rel):.2e}, shift rel {np.max(shift_rel):.2e}, form agreement {np.max(agree_rel):.2e}",
    )


def test_criterion_9_cli_determinism_and_round_trip(tmp_path):
    t0 = time.perf_counter()
    argv = [
        sys.executable,
        "-m",
        "torsionlab.cli",
        "tensors",
        "--chart",
        "builtin:sphere",
        "--at",
        "1.0,0.5",
    ]
    out1 = subprocess.run(argv, capture_output=True, check=True).stdout
    out2 = subprocess.run(argv, capture_output=True, check=True).stdout
    assert out1 == out2 and len(out1) > 0

    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps([[1, 1], [-1, 1], [-1, -1], [1, -1], [1, 1]]))
    examples = [
        ["tensors", "--chart", "builtin:polar", "--at", "1.0,0.2"],
        ["geodesic", "--chart", "builtin:sphere", "--q0", "1,0", "--qdot0", "0.3,0.4", "--step", "0.01"],
        ["autoparallel", "--chart", "builtin:synthetic_torsion", "--q0", "0,0", "--qdot0", "1,1", "--step", "0.01"],
        ["variation", "--chart", "builtin:synthetic_torsion", "--q0", "0,0", "--qdot0", "1,1",
         "--step", "0.01", "--deltaq", "t*(1-t);0"],
        ["burgers", "--chart", "builtin:dislocation", "--loop", str(loop)],
        ["amplitude", "--manifold", "ring", "--points", "64", "--epsilon", "0.08"],
        ["spectrum", "--manifold", "ring", "--points", "128", "--epsilon", "0.05", "--levels", "2"],
    ]
    parser = _build_arg_parser()
    for example in examples:
        cfg = config_from_args(parser.parse_args(example))
        artifact = run(cfg)
        assert RunConfig.from_dict(json.loads(json.dumps(artifact["config"]))) == cfg
        assert render(cfg, artifact) == render(cfg, run(cfg))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(9, "CLI byte-identical reruns; config blocks re-parse to equal configs", elapsed, 5)
