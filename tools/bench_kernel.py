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
* ``bracket_per_row``         ``PostpointData.bracket`` on one row's 48 x 96 steps
  (likewise the mean over the rows);
* ``build_propagator``        one 48 x 96 ``qep`` kernel at eps = 0.04;
* ``block_eigensolve``        ``SlicedPropagator.eigenvalues(count=50)`` of that kernel,
  with ``eigvals_calls``, the ``numpy.linalg.eigvals`` calls of one such solve
  (counted by wrapping numpy's function, so blocks solved per kernel);
* ``sphere_ladder``           one criterion-8 ``qep`` ladder (eps 0.08, 0.04, 0.02).

the ring kernel, under criterion 7 on 256 points:

* ``ring_eigensolve``         ``SlicedPropagator.eigenvalues(count=50)`` of the
  ``qep`` kernel at eps = 0.02, with its ``eigvals_calls`` as above;
* ``ring_ladder``             one criterion-7 ``qep`` ladder (eps 0.08, 0.04, 0.02,
  0.01, four levels).

the trajectories, under criteria 3 and 5:

* ``geodesic_per_step``       ``integrate_geodesic`` on the unit sphere, 1,000
  RK4 steps of h = 1e-3, per step;
* ``autoparallel_per_step``   ``integrate_autoparallel`` on ``synthetic_torsion``
  (alpha = 0.3), 1,000 steps of h = 1e-3, per step;
* ``variation_matrices``      one ``variation_matrices`` call on that chart
  (the mean of 1,000 calls);
* ``half_step_samples``       ``dynamics._half_step_samples`` along that
  autoparallel: delta_q, G and Sigma at its 1,001 nodes and 1,000 step
  midpoints (2,001 samples), as both closure-defect solvers take them;
* ``el_residual``             ``torsion_el_residual`` along that autoparallel
  (1,001 nodes).

Only public names are used, besides ``dynamics._half_step_samples``, whose
signature is unchanged since the variation solvers first shared it, so any
checkout of the package can be timed.
BLAS is pinned to one thread before numpy loads, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
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
DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]  # criterion 5


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


def _eigvals_calls(fn):
    """Number of ``numpy.linalg.eigvals`` calls made by one ``fn()``."""
    import numpy as np

    solve, calls = np.linalg.eigvals, []

    def counted(a):
        calls.append(a.shape)
        return solve(a)

    np.linalg.eigvals = counted
    try:
        fn()
    finally:
        np.linalg.eigvals = solve
    return len(calls)


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
    from torsionlab import ShortTimeConfig, Sphere, build_propagator, builtin_chart, spectrum_ladder
    from torsionlab.pathintegral import PostpointData

    chart = builtin_chart("sphere", r=1.0)
    rows = list(_rows())
    data = [PostpointData(chart, q) for q, _ in rows]
    sphere = Sphere(1.0, N_THETA, N_PHI)
    cfg = ShortTimeConfig(epsilon=0.04)
    prop = build_propagator(sphere, cfg, "qep")

    def all_brackets():
        for d, (_, dq) in zip(data, rows):
            d.bracket(dq)

    layers = {
        "postpoint_data_per_row": _median_timing(
            lambda: [PostpointData(chart, q) for q, _ in rows], 20, per=len(rows)),
        "bracket_per_row": _median_timing(all_brackets, 20, per=len(rows)),
        "build_propagator": _median_timing(lambda: build_propagator(sphere, cfg, "qep"), 15),
        "block_eigensolve": _median_timing(lambda: prop.eigenvalues(count=50), 15),
        "sphere_ladder": _median_timing(
            lambda: spectrum_ladder(sphere, ShortTimeConfig(), "qep", LADDER, n_levels=4,
                                    group_tol=0.05), 7),
    }
    layers["block_eigensolve"]["eigvals_calls"] = _eigvals_calls(
        lambda: prop.eigenvalues(count=50))
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
    layers["ring_eigensolve"]["eigvals_calls"] = _eigvals_calls(
        lambda: prop.eigenvalues(count=50))
    return layers, {"ring_points": RING_POINTS}


def _trajectory_layers():
    from torsionlab import (
        builtin_chart,
        dynamics,
        integrate_autoparallel,
        integrate_geodesic,
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

    layers = {
        "geodesic_per_step": _median_timing(
            lambda: integrate_geodesic(sphere, [1.2, 0.1], [0.3, 0.8], span, TRAJECTORY_H), 7,
            per=TRAJECTORY_STEPS),
        "autoparallel_per_step": _median_timing(
            lambda: integrate_autoparallel(torsion, [0.1, 0.2], [1.0, 0.7], span, TRAJECTORY_H), 7,
            per=TRAJECTORY_STEPS),
        "variation_matrices": _median_timing(variation_calls, 7, per=VARIATION_CALLS),
        "half_step_samples": _median_timing(
            lambda: dynamics._half_step_samples(torsion, base, DELTAQ, None), 15),
        "el_residual": _median_timing(lambda: torsion_el_residual(torsion, base), 15),
    }
    return layers, {"trajectory_steps": TRAJECTORY_STEPS}


def measure():
    import numpy as np
    import scipy

    result = {"layers": {}}
    for group in (_kernel_layers, _ring_layers, _trajectory_layers):
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
        calls = f", {timing['eigvals_calls']} eigvals calls" if "eigvals_calls" in timing else ""
        print(f"{args.label:>10}  {name:<24} {timing['median_s'] * 1e6:12.2f} us"
              f"  (median of {timing['repeats']}{calls})")


if __name__ == "__main__":
    main()
