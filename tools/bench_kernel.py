"""Layer timings of the sphere short-time kernel and its spectrum ladder.

Usage::

    python tools/bench_kernel.py [--src SRC] [--label LABEL] [--out BENCH.json]

Imports ``torsionlab`` from ``SRC`` (default: this checkout's ``src``), times
the layers under criterion 8 on the 48 x 96 sphere and merges the result into
``--out`` under ``runs[LABEL]``, so two checkouts (say, before and after a
change) can be recorded side by side in one file.  Layers, each a warm
median over ``repeats`` timed calls with ``time.perf_counter``:

* ``postpoint_data_per_row``  ``PostpointData`` at one latitude row's postpoint
  (the mean over all 48 rows of one timed sweep);
* ``bracket_per_row``         ``PostpointData.bracket`` on one row's 48 x 96 steps
  (likewise the mean over the rows);
* ``build_propagator``        one 48 x 96 ``qep`` kernel at eps = 0.04;
* ``block_eigensolve``        ``SlicedPropagator.eigenvalues`` of that kernel;
* ``sphere_ladder``           one criterion-8 ``qep`` ladder (eps 0.08, 0.04, 0.02).

Only public names are used, so any checkout of the package can be timed.
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


def _rows():
    """Postpoints and steps of the sphere kernel rows (the grid of ``build_propagator``)."""
    import numpy as np

    theta = np.arccos(np.polynomial.legendre.leggauss(N_THETA)[0])
    dphi = 2.0 * math.pi / N_PHI
    delta_phi = (dphi * np.arange(N_PHI) + np.pi) % (2.0 * np.pi) - np.pi
    for th in theta:
        steps = np.broadcast_arrays((th - theta)[:, None], delta_phi[None, :])
        yield np.array([th, 0.0]), np.stack(steps, axis=-1)


def measure():
    import numpy as np
    import scipy

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
    return {
        "layers": layers,
        "grid": [N_THETA, N_PHI],
        "blocks_stored": None if prop.blocks is None else int(prop.blocks.shape[2]),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding torsionlab")
    parser.add_argument("--label", default="current", help="key of this run in the output")
    parser.add_argument("--out", default=str(ROOT / "BENCH_5.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    result = measure()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("harness", "tools/bench_kernel.py")
    doc.setdefault("runs", {})[args.label] = result
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, timing in result["layers"].items():
        print(f"{args.label:>10}  {name:<24} {timing['median_s'] * 1e3:10.3f} ms"
              f"  (median of {timing['repeats']})")


if __name__ == "__main__":
    main()
