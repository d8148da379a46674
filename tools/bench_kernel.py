"""Layer timings of the ring and sphere kernels, their ladders and the trajectories.

Usage::

    python tools/bench_kernel.py --out BENCH.json [--src SRC] [--label LABEL]

Imports ``torsionlab`` from ``SRC`` (default: this checkout's ``src``), times
the layers below and merges the result into ``--out`` under ``runs[LABEL]``,
so two checkouts (say, before and after a change) can be recorded side by
side in one file.  Layers, each a warm
median over ``repeats`` timed calls with ``time.perf_counter``:

the kernel, under criterion 8 on the 48 x 96 sphere:

* ``postpoint_data_per_row``  ``PostpointData`` at one latitude row's postpoint
  (the mean over all 48 rows of one timed sweep);
* ``postpoint_rows_stacked``  one ``PostpointData`` over all 48 rows' postpoints
  (shape (48, 2)), as the kernel build takes them;
* ``local_geometry_stack``    ``LocalGeometry`` at order 2 over the same 48 points
  in one pass, every tensor and both Ricci reductions read;
* ``local_geometry_per_point`` the same, one point at a time (the 48 points in total);
* ``bracket_per_row``         ``PostpointData.bracket`` on one row's 48 x 96 steps
  (likewise the mean over the rows);
* ``build_propagator``        one 48 x 96 ``qep`` kernel at eps = 0.04;
* ``block_eigensolve``        ``SlicedPropagator.eigenvalues(count=50)`` of that kernel,
  with ``eigvals_calls``, the ``numpy.linalg.eigvals`` calls of one such solve,
  and ``eigvals_matrices``, the blocks they solved (counted by wrapping numpy's
  function);
* ``sphere_ladder``           one criterion-8 ``qep`` ladder (eps 0.08, 0.04, 0.02).

the ring kernel, under criterion 7 on 256 points:

* ``ring_eigensolve``         ``SlicedPropagator.eigenvalues(count=50)`` of the
  ``qep`` kernel at eps = 0.02, with its ``eigvals_calls`` and
  ``eigvals_matrices`` as above;
* ``ring_ladder``             one criterion-7 ``qep`` ladder (eps 0.08, 0.04, 0.02,
  0.01, four levels).

the trajectories, under criteria 3 and 5:

* ``geodesic_per_step``       ``integrate_geodesic`` on the unit sphere, 1,000
  RK4 steps of h = 1e-3, per step;
* ``autoparallel_per_step``   ``integrate_autoparallel`` on ``synthetic_torsion``
  (alpha = 0.3), 1,000 steps of h = 1e-3, per step;
* ``line_image_per_step``     ``straight_line_image`` from the same start on the
  same chart, 1,000 steps of h = 1e-3, per step;
* ``field_point``             one sphere geodesic field evaluation at a phase
  point, as the integrators take it (``dynamics._field``; the mean of 10,000);
* ``field_point_closure``     the same through ``Chart._jets`` and
  ``expressions._trajectory_field``, the route stacks of points take;
* ``variation_matrices``      one ``variation_matrices`` call on that chart
  (the mean of 1,000 calls);
* ``half_step_samples``       ``dynamics._half_step_samples`` along that
  autoparallel: delta_q, G and Sigma at its 1,001 nodes and 1,000 step
  midpoints (2,001 samples), as both closure-defect solvers take them;
* ``el_residual``             ``torsion_el_residual`` along that autoparallel
  (1,001 nodes);
* ``variation_ode_solve``     ``solve_variation_ode`` on those samples (the
  closure-defect RK4, 1,000 steps);
* ``expm_stack``              the matrix exponential of the quadrature's 1,000 2 x 2
  step generators -G(t_mid) h in one stacked call: ``dynamics._expm`` where the
  checkout has it, else ``scipy.linalg.expm`` as the quadrature then called it
  (the layer records which as ``impl``);
* ``quadrature_solve``        ``closure_defect_by_quadrature`` along that
  autoparallel, its half-step samples included.

the cold start:

* ``import_torsionlab``       ``import torsionlab`` in a fresh interpreter, timed
  inside it (the median of 9 interpreters);
* ``stepper_first_use``       the first use of both RK4 steppers a D = 2 chart's
  trajectories take, ``dynamics._stepper(4, 2)`` (geodesic and autoparallel) and
  ``dynamics._stepper(2, 0)`` (line image): their code generated and compiled,
  timed inside a fresh interpreter after the import (the median of 9).

A layer that a checkout cannot run (a stacked ``PostpointData`` or every
``LocalGeometry`` tensor over a stack, before they took one; the steppers,
before they came in) is recorded with ``median_s`` null and the error
under ``unsupported``.

Only public names are used, besides ``_local.LocalGeometry``,
``dynamics._expm`` and ``dynamics._stepper`` (optional, as above) and
``dynamics._half_step_samples``, whose
signature is unchanged since the variation solvers first shared it, and
``dynamics._field`` and ``expressions._trajectory_field``, unchanged since
the generated fields came in, so any checkout since then can be timed.
BLAS is pinned to one thread before numpy loads, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
N_THETA, N_PHI = 48, 96
LADDER = (0.08, 0.04, 0.02)
RING_POINTS, RING_LADDER = 256, (0.08, 0.04, 0.02, 0.01)
TRAJECTORY_STEPS, TRAJECTORY_H = 1000, 1e-3
VARIATION_CALLS = 1000
FIELD_CALLS = 10000
IMPORTS = 9
DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]  # criterion 5
GEOMETRY_TENSORS = ("g", "invg", "recip", "dg", "d2g", "dinvg", "chris1", "chris2", "dchris2",
                    "gamma", "dgamma", "torsion", "contortion", "contortion_mixed", "cartan",
                    "riemann")


def _median_timing(fn, repeats, per=1):
    fn()  # warm: compiled kernels, caches, lazy imports
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) / per)
    samples.sort()
    return {"median_s": samples[len(samples) // 2], "repeats": repeats,
            "min_s": samples[0], "max_s": samples[-1]}


def _runnable_timing(fn, repeats):
    """``_median_timing``, or the error of a checkout that cannot run ``fn``."""
    try:
        return _median_timing(fn, repeats)
    except Exception as exc:  # noqa: BLE001 (any failure marks the layer unsupported)
        return {"median_s": None, "repeats": 0, "unsupported": f"{type(exc).__name__}: {exc}"}


def _eigvals_counts(fn):
    """``numpy.linalg.eigvals`` calls made by one ``fn()``, and the matrices they solved."""
    import numpy as np

    solve, calls = np.linalg.eigvals, []

    def counted(a):
        calls.append(1 if a.ndim == 2 else len(a))
        return solve(a)

    np.linalg.eigvals = counted
    try:
        fn()
    finally:
        np.linalg.eigvals = solve
    return {"eigvals_calls": len(calls), "eigvals_matrices": sum(calls)}


def _rows():
    """Postpoints and steps of the sphere kernel rows (the grid of ``build_propagator``)."""
    import numpy as np

    theta = np.arccos(np.polynomial.legendre.leggauss(N_THETA)[0])
    dphi = 2.0 * math.pi / N_PHI
    delta_phi = (dphi * np.arange(N_PHI) + np.pi) % (2.0 * np.pi) - np.pi
    for th in theta:
        steps = np.broadcast_arrays((th - theta)[:, None], delta_phi[None, :])
        yield np.array([th, 0.0]), np.stack(steps, axis=-1)


def _kernel_layers():
    import numpy as np

    from torsionlab import ShortTimeConfig, Sphere, build_propagator, builtin_chart, spectrum_ladder
    from torsionlab._local import LocalGeometry
    from torsionlab.pathintegral import PostpointData

    chart = builtin_chart("sphere", r=1.0)
    rows = list(_rows())
    posts = np.array([q for q, _ in rows])
    data = [PostpointData(chart, q) for q, _ in rows]
    sphere = Sphere(1.0, N_THETA, N_PHI)
    cfg = ShortTimeConfig(epsilon=0.04)
    prop = build_propagator(sphere, cfg, "qep")

    def all_brackets():
        for d, (_, dq) in zip(data, rows):
            d.bracket(dq)

    def every_tensor(q):
        geo = LocalGeometry.of(chart, q, 2)
        for name in GEOMETRY_TENSORS:
            getattr(geo, name)
        geo.ricci_scalar_einstein("riemann")
        geo.ricci_scalar_einstein("cartan")

    layers = {
        "postpoint_data_per_row": _median_timing(
            lambda: [PostpointData(chart, q) for q, _ in rows], 20, per=len(rows)),
        "postpoint_rows_stacked": _runnable_timing(lambda: PostpointData(chart, posts), 20),
        "local_geometry_stack": _runnable_timing(lambda: every_tensor(posts), 20),
        "local_geometry_per_point": _median_timing(lambda: [every_tensor(q) for q in posts], 20),
        "bracket_per_row": _median_timing(all_brackets, 20, per=len(rows)),
        "build_propagator": _median_timing(lambda: build_propagator(sphere, cfg, "qep"), 15),
        "block_eigensolve": _median_timing(lambda: prop.eigenvalues(count=50), 15),
        "sphere_ladder": _median_timing(
            lambda: spectrum_ladder(sphere, ShortTimeConfig(), "qep", LADDER, n_levels=4,
                                    group_tol=0.05), 7),
    }
    layers["block_eigensolve"].update(_eigvals_counts(lambda: prop.eigenvalues(count=50)))
    facts = {
        "grid": [N_THETA, N_PHI],
        "blocks_stored": None if prop.blocks is None else int(prop.blocks.shape[2]),
    }
    return layers, facts


def _ring_layers():
    from torsionlab import Ring, ShortTimeConfig, build_propagator, spectrum_ladder

    ring = Ring(1.0, RING_POINTS)
    prop = build_propagator(ring, ShortTimeConfig(epsilon=0.02), "qep")
    layers = {
        "ring_eigensolve": _median_timing(lambda: prop.eigenvalues(count=50), 25),
        "ring_ladder": _median_timing(
            lambda: spectrum_ladder(ring, ShortTimeConfig(), "qep", RING_LADDER, n_levels=4), 15),
    }
    layers["ring_eigensolve"].update(_eigvals_counts(lambda: prop.eigenvalues(count=50)))
    return layers, {"ring_points": RING_POINTS}


def _trajectory_layers():
    import numpy as np

    from torsionlab import (
        builtin_chart,
        closure_defect_by_quadrature,
        dynamics,
        expressions,
        integrate_autoparallel,
        integrate_geodesic,
        solve_variation_ode,
        straight_line_image,
        torsion_el_residual,
        variation_matrices,
    )

    sphere = builtin_chart("sphere", r=1.0)
    torsion = builtin_chart("synthetic_torsion", alpha=0.3)
    span = (0.0, TRAJECTORY_STEPS * TRAJECTORY_H)
    base = integrate_autoparallel(torsion, [0.1, 0.2], [1.0, 0.7], span, TRAJECTORY_H)

    def variation_calls():
        for _ in range(VARIATION_CALLS):
            variation_matrices(torsion, [0.3, 0.1], [0.4, 0.2])

    dq, G, Sigma = dynamics._half_step_samples(torsion, base, DELTAQ, None)
    generators = -G[1::2] * np.diff(base.t)[:, None, None]
    if hasattr(dynamics, "_expm"):
        expm, impl = dynamics._expm, "dynamics._expm"
    else:
        from scipy.linalg import expm

        impl = "scipy.linalg.expm"

    q, v, floor2 = [1.2, 0.1], [0.3, 0.8], 1e-12 * 1e-12
    at = dynamics._field(sphere, "geodesic")
    fn = expressions._trajectory_field("geodesic", sphere.kind, sphere.dim, sphere.ambient_dim)

    def field_calls():
        for _ in range(FIELD_CALLS):
            at(q, v)

    def closure_calls():
        for _ in range(FIELD_CALLS):
            fn(sphere._jets(q, 1), v, floor2)

    layers = {
        "geodesic_per_step": _median_timing(
            lambda: integrate_geodesic(sphere, [1.2, 0.1], [0.3, 0.8], span, TRAJECTORY_H), 7,
            per=TRAJECTORY_STEPS),
        "autoparallel_per_step": _median_timing(
            lambda: integrate_autoparallel(torsion, [0.1, 0.2], [1.0, 0.7], span, TRAJECTORY_H), 7,
            per=TRAJECTORY_STEPS),
        "line_image_per_step": _median_timing(
            lambda: straight_line_image(torsion, [0.1, 0.2], [1.0, 0.7], span, TRAJECTORY_H), 7,
            per=TRAJECTORY_STEPS),
        "field_point": _median_timing(field_calls, 7, per=FIELD_CALLS),
        "field_point_closure": _median_timing(closure_calls, 7, per=FIELD_CALLS),
        "variation_matrices": _median_timing(variation_calls, 7, per=VARIATION_CALLS),
        "half_step_samples": _median_timing(
            lambda: dynamics._half_step_samples(torsion, base, DELTAQ, None), 15),
        "el_residual": _median_timing(lambda: torsion_el_residual(torsion, base), 15),
        "variation_ode_solve": _median_timing(lambda: solve_variation_ode(G, Sigma, dq, base.t), 15),
        "expm_stack": _median_timing(lambda: expm(generators), 15),
        "quadrature_solve": _median_timing(
            lambda: closure_defect_by_quadrature(torsion, base, DELTAQ), 15),
    }
    layers["expm_stack"]["impl"] = impl
    return layers, {"trajectory_steps": TRAJECTORY_STEPS}


def _fresh_timing(code):
    """The median of the times that ``code`` prints in ``IMPORTS`` fresh interpreters
    importing this checkout, or the error of a checkout that cannot run it."""
    import torsionlab

    env = dict(os.environ, PYTHONPATH=str(Path(torsionlab.__file__).parent.parent))
    runs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            for _ in range(IMPORTS)]
    if any(run.returncode for run in runs):
        error = next(run for run in runs if run.returncode).stderr.strip().splitlines()[-1]
        return {"median_s": None, "repeats": 0, "unsupported": error}
    samples = sorted(float(run.stdout) for run in runs)
    return {"median_s": samples[len(samples) // 2], "repeats": IMPORTS,
            "min_s": samples[0], "max_s": samples[-1]}


def _import_layers():
    """``import torsionlab`` and the first use of the RK4 steppers, each in fresh interpreters."""
    return {
        "import_torsionlab": _fresh_timing(
            "import time; t = time.perf_counter(); import torsionlab; "
            "print(time.perf_counter() - t)"),
        "stepper_first_use": _fresh_timing(
            "import time, torsionlab.dynamics as d; t = time.perf_counter(); "
            "d._stepper(4, 2), d._stepper(2, 0); print(time.perf_counter() - t)"),
    }, {}


def measure():
    import numpy as np
    import scipy

    result = {"layers": {}}
    for group in (_kernel_layers, _ring_layers, _trajectory_layers, _import_layers):
        layers, facts = group()
        result["layers"].update(layers)
        result.update(facts)
    result["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding torsionlab")
    parser.add_argument("--label", default="current", help="key of this run in the output")
    parser.add_argument("--out", required=True, help="JSON file to merge the run into")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    result = measure()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("harness", "tools/bench_kernel.py")
    doc.setdefault("runs", {})[args.label] = result
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, timing in result["layers"].items():
        if timing["median_s"] is None:
            print(f"{args.label:>10}  {name:<24} unsupported: {timing['unsupported']}")
            continue
        calls = (f", {timing['eigvals_calls']} eigvals calls on {timing['eigvals_matrices']}"
                 " matrices" if "eigvals_calls" in timing else "")
        print(f"{args.label:>10}  {name:<24} {timing['median_s'] * 1e6:12.2f} us"
              f"  (median of {timing['repeats']}{calls})")


if __name__ == "__main__":
    main()
