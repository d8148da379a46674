"""Layer timings of the ring and sphere kernels, their ladders, the trajectories and the geometry.

Usage::

    python tools/bench_kernel.py --out BENCH.json [--src SRC] [--label LABEL]
    python tools/bench_kernel.py --out BENCH.json --pair SRC_A SRC_B [--rounds N]
        [--perfbench PAIRS]

Imports ``torsionlab`` from ``SRC`` (default: this checkout's ``src``), times
the layers below and merges the result into ``--out`` under ``runs[LABEL]``,
so two checkouts (say, before and after a change) can be recorded side by
side in one file.

With ``--pair``, ``SRC_A`` is the parent and ``SRC_B`` the change.  Each of
``--rounds`` rounds times each side's sphere and ring kernel, trajectory,
geometry and cold-start layers (every group below) in a fresh interpreter, the
two sides in turn, alternating which goes first, so that machine drift
between rounds cancels in the per-round ratios; ``--out`` then holds, per
layer, both sides' medians of each round, the change/parent ratios and their
median and quartiles, under ``eigensolve_counts`` each side's ``eigvals_*``
counts of the two eigensolve layers, under ``spectra_minor_faults`` each
side's faults per spectra pass in each round, and under
``spectra_tracemalloc_peak_mb`` each side's traced memory peak of one spectra
pass in each round.  ``--perfbench PAIRS`` adds that
many alternating pairs of ``perfbench/run.py`` runs per workload, each side
run from the checkout that holds its ``src`` (at its default run length, seeds
1501, 1502, ...), with
the end-to-end metrics of every run, their change/parent ratios and how many
pairs the change is lower in.  Layers, each a warm median over ``repeats``
timed calls with ``time.perf_counter``:

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
  ``eigvals_matrices``, the matrices they solved (whole blocks, or parity
  sectors where the checkout splits the blocks), ``eigvals_sizes``, the size k
  of each (k, k) matrix in call order, and ``eigvals_work``, the sum of k^3
  over them (counted by wrapping numpy's function);
* ``sphere_ladder``           one criterion-8 ``qep`` ladder (eps 0.08, 0.04, 0.02);
* ``kernel_assembly``         the three kernels of that ladder, built by
  ``pathintegral._propagators`` with no eigensolve, its grid and postpoint rows
  kept from the call before (warm caches);
* ``kernel_assembly_cold``    the same with the kept grids and rows emptied before
  each call (``KERNEL_CACHES``, where the checkout keeps them; a checkout that
  keeps none builds them in every call, cold and warm alike);
* ``grid_rows_cold``          one ``pathintegral._grid_rows`` build of the 48 x 96
  sphere after emptying ``KERNEL_CACHES``: its grid and its built rows, as much
  of them as the checkout keeps (the stacked ``PostpointData`` only, or also
  each row's bracket, trust measure and arcs);
* ``eigvals_sectors_stacked`` the matrices that ``block_eigensolve`` solves (15
  parity sectors of 24 x 24 where the checkout splits the blocks), all in one
  ``numpy.linalg.eigvals`` call, and ``eigvals_sectors_each``, one call per
  matrix: what solving them in fewer calls could save;
* ``leading_prelude``         ``SlicedPropagator._leading(50)`` of the eps = 0.04
  kernel up to its first ``numpy.linalg.eigvals`` call, which a stand-in stops:
  the complex-block check, the solve units, their norm bounds and the choice of
  the first round's units.

The fact ``entries_built`` counts what one such build evaluates from emptied
``KERNEL_CACHES``: its ``rows`` and ``entries`` (the steps of every row that
``pathintegral._monomials`` took the degree-4 planes of), against the kernel's
``full_rows`` (n_theta) and ``full_entries`` (n_theta x n_theta n_phi);
``ring_entries_built`` likewise for the ring kernel at eps = 0.02 below.  The
fact ``spectra_minor_faults`` is the minor page faults (``ru_minflt``) per
steady-state pass of the ``spectra``
workload's ladders (the criterion-7 ring ladder and the three criterion-8 sphere
ladders), the mean over ``FAULT_PASSES`` passes after 3 warm ones, in a fresh
interpreter: a large temporary that the allocator maps anew in every kernel
shows here as thousands of faults per pass.  The fact
``spectra_tracemalloc_peak_mb`` is the ``tracemalloc`` peak of one such pass
after 3 warm ones, in a fresh interpreter tracing from before the import: the
most memory that numpy and Python held at once during the pass, kept grids and
rows included.  Unlike the resident set it repeats exactly from run to run.

the ring kernel, under criterion 7 on 256 points:

* ``ring_eigensolve``         ``SlicedPropagator.eigenvalues(count=50)`` of the
  ``qep`` kernel at eps = 0.02, with its ``eigvals_calls``, ``eigvals_matrices``,
  ``eigvals_sizes`` and ``eigvals_work`` as above;
* ``ring_ladder``             one criterion-7 ``qep`` ladder (eps 0.08, 0.04, 0.02,
  0.01, four levels).

the trajectories, under criteria 3 and 5:

* ``geodesic_per_step``       ``integrate_geodesic`` on the unit sphere, 1,000
  RK4 steps of h = 1e-3, per step;
* ``autoparallel_per_step``   ``integrate_autoparallel`` on ``synthetic_torsion``
  (alpha = 0.3), 1,000 steps of h = 1e-3, per step;
* ``line_image_per_step``     ``straight_line_image`` from the same start on the
  same chart, 1,000 steps of h = 1e-3, per step;
* ``torsion_geodesic_per_step`` ``integrate_geodesic`` from the same start on the
  same chart, 1,000 steps of h = 1e-3, per step;
* ``polar_geodesic_per_step`` ``integrate_geodesic`` on ``polar`` from (1.0, 0.3)
  at (0.2, 0.4), the base of the flat variation, 1,000 steps of h = 1e-3, per step;
* ``field_point``             one sphere geodesic field evaluation at a phase
  point through ``dynamics._field`` (the mean of 10,000, cycling through the
  10 points of ``CYCLE``): the jet route, one
  ``Chart._jets`` pass and ``_trajectory_field``, since per-chart code was
  kept for the integrators only; before that, the field's own per-chart code;
* ``field_point_closure``     the same through ``Chart._jets`` and
  ``dynamics._trajectory_field`` called directly, the route stacks of points
  take (its signature ``(q, jets, v, floor)`` since the one degenerate-triad
  rule, ``(jets, v, floor2)`` before; keyed by the chart's zero pattern,
  ``Chart._zeros``, where it takes a ``zeros`` parameter);
* ``variation_matrices``      one ``variation_matrices`` call on that chart
  (the mean of 1,000 calls, cycling through ``CYCLE`` likewise);
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

the geometry, under criteria 1 and 4, on the inputs of the first
``geometry_sweep`` pass of ``perfbench/inputs.py`` (seed 1501):

* ``loop_invariants``         ``winding_integral``, ``burgers_vector``,
  ``torsion_flux`` and ``frank_angle`` on each of the pass's four polygons
  (4 or 5 vertices, 24 samples per edge), the pass's defect charts built once;
* ``criterion1_point_polar``  ``identity_residuals`` and
  ``curvature_relation_check`` at one point of ``polar``, warm (the mean over
  the pass's 100 polar points);
* ``criterion1_point_generated`` the same on the pass's first generated map
  chart, warm (the mean over its 5 points);
* ``criterion1_point_cold``   ``Chart.from_dict`` of a generated chart and the
  criterion-1 point at its first point (the mean over the pass's 100
  generated charts);
* ``dsl_jets_o1``, ``dsl_jets_o2``  one warm ``Chart._jets`` pass at triad order 1
  and 2 at a point of the pass's first generated D = 3 map chart (the
  mean of 200 calls, cycling through its 5 points).

A chart keeps its last point's jets per triad order, so every layer that
calls ``Chart._jets`` (itself or through ``dynamics._field``) over and over
cycles through a fixed list of distinct points: no call repeats the point of
the call before it, and both sides of a ``--pair`` run evaluate every call.
The fact ``expression_calls_per_point`` counts the evaluations of each chart
expression (wrapping ``Expression.__call__``) in one criterion-1 point on the
pass's first generated map chart, per expression.

The fact ``kernel_variants`` counts the Taylor kernels that the process has
compiled once every group has run: per rule, one per tuple of its operands'
structural-zero positions, or one per rule in checkouts from before those.

the cold start:

* ``import_torsionlab``       ``import torsionlab`` in a fresh interpreter, timed
  inside it (the median of 9 interpreters);
* ``integrator_first_use``    the first use of the sphere's geodesic and
  line-image integrators: one step of ``integrate_geodesic`` and one of
  ``straight_line_image`` on the unit sphere, all the code they take generated
  and compiled, timed inside a fresh interpreter after the import (the median
  of 9); the field per shape, ``_trajectory_field``, is compiled there only by
  checkouts from before the one degenerate-triad rule.

A layer that a checkout cannot run (a stacked ``PostpointData`` or every
``LocalGeometry`` tensor over a stack, before they took one, or ``grid_rows_cold``
before the rows were kept) is recorded with
``median_s`` null and the error under ``unsupported``.

Only public names are used, besides ``pathintegral._propagators`` and
``SlicedPropagator._leading`` (their signatures unchanged since the ladder took
one build of rows for every epsilon), ``pathintegral._grid_rows`` (for
``grid_rows_cold`` only), ``_local.LocalGeometry``, ``Chart._jets``,
``expressions.Expression`` (wrapped to count ``expression_calls_per_point``),
``pathintegral._monomials`` (wrapped to count ``entries_built``),
``Chart._zeros`` (where ``_trajectory_field`` is keyed by it), ``expressions._variant``
(``expressions._KERNELS`` in a checkout before it),
``dynamics._expm`` (optional, as above) and
``dynamics._half_step_samples``, whose
signature is unchanged since the variation solvers first shared it, and
``dynamics._field`` and ``dynamics._trajectory_field``, in every checkout
since the generated fields came in, so any checkout since then can be timed.
BLAS is pinned to one thread before numpy loads, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import math
import os
import platform
import statistics
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
JET_CALLS = 200
IMPORTS = 9
DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]  # criterion 5
GEOMETRY_SEED = 1501  # the first seed of a --perfbench pair
FAULT_PASSES = 10
KERNEL_CACHES = ("_cached_grid", "_grid_rows")  # pathintegral's kept grids and rows
SPECTRA_PASS = "\n".join([  # the spectra workload's ladders, as ``spectra_pass()``
    "import torsionlab as tl",
    f"ring, sphere = tl.Ring(1.0, {RING_POINTS}), tl.Sphere(1.0, {N_THETA}, {N_PHI})",
    "def spectra_pass():",
    f"    tl.spectrum_ladder(ring, tl.ShortTimeConfig(), 'qep', {RING_LADDER}, n_levels=4)",
    "    for mode in ('qep', 'naive_dewitt', 'qep_via_veff'):",
    f"        tl.spectrum_ladder(sphere, tl.ShortTimeConfig(), mode, {LADDER}, n_levels=4,",
    "                           group_tol=0.05)",
    "for _ in range(3):",
    "    spectra_pass()"])
CYCLE = 10  # distinct points a repeated single-point layer cycles through
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
    """``numpy.linalg.eigvals`` calls made by one ``fn()``, the matrices they solved,
    each matrix's size k and the sum of k^3 over them."""
    import numpy as np

    solve, calls, sizes = np.linalg.eigvals, [], []

    def counted(a):
        calls.append(1 if a.ndim == 2 else len(a))
        sizes.extend([a.shape[-1]] * calls[-1])
        return solve(a)

    np.linalg.eigvals = counted
    try:
        fn()
    finally:
        np.linalg.eigvals = solve
    return {"eigvals_calls": len(calls), "eigvals_matrices": sum(calls), "eigvals_sizes": sizes,
            "eigvals_work": sum(k**3 for k in sizes)}


def _clear_kernel_caches():
    from torsionlab import pathintegral

    for name in KERNEL_CACHES:
        if hasattr(pathintegral, name):
            getattr(pathintegral, name).cache_clear()


class _FirstSolve(Exception):
    """Raised by the stand-in ``numpy.linalg.eigvals`` of ``leading_prelude``."""


def _prelude_timing(prop, repeats):
    """``prop._leading(50)`` up to its first ``numpy.linalg.eigvals`` call, timed."""
    import numpy as np

    def first_solve(a):
        raise _FirstSolve

    def prelude():
        try:
            prop._leading(50)
        except _FirstSolve:
            return
        raise RuntimeError("the eigensolve made no eigvals call")

    solve, np.linalg.eigvals = np.linalg.eigvals, first_solve
    try:
        return _median_timing(prelude, repeats)
    finally:
        np.linalg.eigvals = solve


def _fresh_spectra(head, tail):
    """What ``tail`` prints after ``head`` and 3 warm spectra passes, in a fresh interpreter
    importing this checkout."""
    import torsionlab

    env = dict(os.environ, PYTHONPATH=str(Path(torsionlab.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", "\n".join([head, SPECTRA_PASS, tail])], env=env,
                         check=True, capture_output=True, text=True)
    return float(run.stdout)


def _spectra_minor_faults():
    """Minor page faults per steady-state spectra pass, in a fresh interpreter."""
    return _fresh_spectra("import resource", "\n".join([
        "start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        f"for _ in range({FAULT_PASSES}):",
        "    spectra_pass()",
        f"print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / {FAULT_PASSES})"]))


def _spectra_tracemalloc_peak_mb():
    """The traced memory peak (MB) of one steady-state spectra pass, in a fresh interpreter
    tracing from before the import: live memory at the pass's start included."""
    return _fresh_spectra("import tracemalloc; tracemalloc.start()", "\n".join([
        "tracemalloc.reset_peak()",
        "spectra_pass()",
        "print(tracemalloc.get_traced_memory()[1] / 1e6)"]))


def _sector_matrices(prop):
    """The matrices that ``prop.eigenvalues(count=50)`` solves, stacked (k, n, n)."""
    import numpy as np

    solve, matrices = np.linalg.eigvals, []

    def kept(a):
        matrices.extend(a.reshape(-1, *a.shape[-2:]))
        return solve(a)

    np.linalg.eigvals = kept
    try:
        prop.eigenvalues(count=50)
    finally:
        np.linalg.eigvals = solve
    return np.array(matrices)


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
    from torsionlab import pathintegral
    from torsionlab._local import LocalGeometry
    from torsionlab.config import active_profile
    from torsionlab.pathintegral import PostpointData, _propagators

    chart = builtin_chart("sphere", r=1.0)
    rows = list(_rows())
    posts = np.array([q for q, _ in rows])
    data = [PostpointData(chart, q) for q, _ in rows]
    sphere = Sphere(1.0, N_THETA, N_PHI)
    cfg = ShortTimeConfig(epsilon=0.04)
    prop = build_propagator(sphere, cfg, "qep")
    sectors = _sector_matrices(prop)
    ladder_cfgs = [ShortTimeConfig(epsilon=eps) for eps in LADDER]

    def assembly():
        return list(_propagators(sphere, ladder_cfgs, "qep"))

    def cold_assembly():
        _clear_kernel_caches()
        return assembly()

    def cold_grid_rows():
        _clear_kernel_caches()
        return pathintegral._grid_rows(sphere, active_profile().degenerate_triad_floor)

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
        "kernel_assembly": _median_timing(assembly, 15),
        "kernel_assembly_cold": _median_timing(cold_assembly, 15),
        "grid_rows_cold": _runnable_timing(cold_grid_rows, 15),
        "leading_prelude": _prelude_timing(prop, 30),
        "eigvals_sectors_stacked": _median_timing(lambda: np.linalg.eigvals(sectors), 30),
        "eigvals_sectors_each": _median_timing(lambda: [np.linalg.eigvals(a) for a in sectors],
                                               30),
    }
    layers["block_eigensolve"].update(_eigvals_counts(lambda: prop.eigenvalues(count=50)))
    facts = {
        "grid": [N_THETA, N_PHI],
        "blocks_stored": None if prop.blocks is None else int(prop.blocks.shape[2]),
        "eigvals_sectors": list(sectors.shape),
        "entries_built": _entries_built(sphere, cfg),
        "spectra_minor_faults": _spectra_minor_faults(),
        "spectra_tracemalloc_peak_mb": _spectra_tracemalloc_peak_mb(),
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
    return layers, {"ring_points": RING_POINTS,
                    "ring_entries_built": _entries_built(ring, ShortTimeConfig(epsilon=0.02))}


def _entries_built(manifold, cfg):
    """Rows and steps per row of one ``build_propagator(manifold, cfg, "qep")`` from emptied
    kernel caches: one degree-4 ``pathintegral._monomials`` call per row built, counted by
    wrapping it."""
    from torsionlab import build_propagator, pathintegral

    _clear_kernel_caches()
    monomials, columns = pathintegral._monomials, []

    def counted(steps, degree):
        planes = monomials(steps, degree)
        if degree == 4:
            columns.append(planes.shape[1])
        return planes

    pathintegral._monomials = counted
    try:
        prop = build_propagator(manifold, cfg, "qep")
    finally:
        pathintegral._monomials = monomials
    n_rows, n_phi = prop.profile.shape[1:]
    return {"rows": len(columns), "entries": sum(columns),
            "full_rows": n_rows, "full_entries": n_rows * n_rows * n_phi}


def _trajectory_layers():
    import numpy as np

    from torsionlab import (
        builtin_chart,
        closure_defect_by_quadrature,
        dynamics,
        integrate_autoparallel,
        integrate_geodesic,
        solve_variation_ode,
        straight_line_image,
        torsion_el_residual,
        variation_matrices,
    )

    sphere = builtin_chart("sphere", r=1.0)
    torsion = builtin_chart("synthetic_torsion", alpha=0.3)
    polar = builtin_chart("polar")
    span = (0.0, TRAJECTORY_STEPS * TRAJECTORY_H)
    base = integrate_autoparallel(torsion, [0.1, 0.2], [1.0, 0.7], span, TRAJECTORY_H)

    def variation_calls():
        for k in range(VARIATION_CALLS):
            variation_matrices(torsion, cycle[k % CYCLE], [0.4, 0.2])

    dq, G, Sigma = dynamics._half_step_samples(torsion, base, DELTAQ, None)
    generators = -G[1::2] * np.diff(base.t)[:, None, None]
    if hasattr(dynamics, "_expm"):
        expm, impl = dynamics._expm, "dynamics._expm"
    else:
        from scipy.linalg import expm

        impl = "scipy.linalg.expm"

    q, v, floor = [1.2, 0.1], [0.3, 0.8], 1e-12
    cycle = [[q[0] + 0.01 * k, q[1] + 0.02 * k] for k in range(CYCLE)]
    at = dynamics._field(sphere, "geodesic")
    key = ["geodesic", sphere.kind, sphere.dim, sphere.ambient_dim]
    if "zeros" in inspect.signature(dynamics._trajectory_field).parameters:  # one field per pattern
        key.append(sphere._zeros(1))
    fn = dynamics._trajectory_field(*key)
    with_point = "q" in inspect.signature(fn).parameters  # (q, jets, v, floor), or (jets, v, floor2)

    def field_calls():
        for k in range(FIELD_CALLS):
            at(cycle[k % CYCLE], v)

    def closure_calls():
        for k in range(FIELD_CALLS):
            p = cycle[k % CYCLE]
            if with_point:
                fn(p, sphere._jets(p, 1), v, floor)
            else:
                fn(sphere._jets(p, 1), v, floor * floor)

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
        "torsion_geodesic_per_step": _median_timing(
            lambda: integrate_geodesic(torsion, [0.1, 0.2], [1.0, 0.7], span, TRAJECTORY_H), 7,
            per=TRAJECTORY_STEPS),
        "polar_geodesic_per_step": _median_timing(
            lambda: integrate_geodesic(polar, [1.0, 0.3], [0.2, 0.4], span, TRAJECTORY_H), 7,
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


def _perfbench_inputs():
    """This checkout's ``perfbench/inputs.py``: the benchmark's seeded inputs."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _geometry_layers():
    from torsionlab import (
        Chart,
        LoopSpec,
        angle_gradient,
        builtin_chart,
        burgers_vector,
        curvature_relation_check,
        frank_angle,
        identity_residuals,
        make_disclination,
        make_dislocation,
        torsion_flux,
        winding_integral,
    )
    from torsionlab.expressions import Expression

    inputs = _perfbench_inputs()
    sweep = inputs.geometry_inputs(GEOMETRY_SEED, 0)
    loops = [LoopSpec(vertices=tuple(map(tuple, verts)), samples_per_edge=inputs.SAMPLES_PER_EDGE)
             for _, verts in sweep["loops"]]
    dislocation = make_dislocation(sweep["dislocation_eps"])
    disclination = make_disclination(sweep["disclination_omega"])

    def invariants():
        for loop in loops:
            winding_integral(angle_gradient, loop)
            burgers_vector(dislocation, loop)
            torsion_flux(dislocation, loop)
            frank_angle(disclination, loop)

    def criterion_1(chart, points):
        for q in points:
            identity_residuals(chart, q)
            curvature_relation_check(chart, q)

    polar = next(spec["points"] for spec in sweep["charts"] if spec.get("builtin") == "polar")
    generated = next(spec for spec in sweep["charts"]
                     if spec.get("definition", {}).get("kind") == "map")
    chart = Chart.from_dict(generated["definition"])
    d3 = next(spec for spec in sweep["charts"]
              if spec.get("definition", {}).get("kind") == "map" and spec["definition"]["dim"] == 3)
    d3_chart, d3_points = Chart.from_dict(d3["definition"]), [list(map(float, q)) for q in d3["points"]]
    definitions = [spec for spec in sweep["charts"] if "definition" in spec]

    def jet_calls(order):
        for k in range(JET_CALLS):
            d3_chart._jets(d3_points[k % len(d3_points)], order)

    def cold_points():
        for spec in definitions:
            criterion_1(Chart.from_dict(spec["definition"]), spec["points"][:1])

    def expression_calls_per_point():
        fresh, calls, evaluate = Chart.from_dict(generated["definition"]), [], Expression.__call__
        exprs = {id(e) for e in fresh.exprs}

        def counted(self, *args, **kwargs):
            calls.append(id(self) in exprs)
            return evaluate(self, *args, **kwargs)

        Expression.__call__ = counted
        try:
            criterion_1(fresh, generated["points"][:1])
        finally:
            Expression.__call__ = evaluate
        return sum(calls) / len(exprs)

    layers = {
        "loop_invariants": _median_timing(invariants, 15),
        "criterion1_point_polar": _median_timing(
            lambda: criterion_1(builtin_chart("polar"), polar), 9, per=len(polar)),
        "criterion1_point_generated": _median_timing(
            lambda: criterion_1(chart, generated["points"]), 50, per=len(generated["points"])),
        "criterion1_point_cold": _median_timing(cold_points, 9, per=len(definitions)),
        "dsl_jets_o1": _median_timing(lambda: jet_calls(1), 15, per=JET_CALLS),
        "dsl_jets_o2": _median_timing(lambda: jet_calls(2), 15, per=JET_CALLS),
    }
    return layers, {"loops": [len(loop.vertices) - 1 for loop in loops],
                    "expression_calls_per_point": expression_calls_per_point()}


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
    """``import torsionlab`` and the first use of two integrators, each in fresh interpreters."""
    return {
        "import_torsionlab": _fresh_timing(
            "import time; t = time.perf_counter(); import torsionlab; "
            "print(time.perf_counter() - t)"),
        "integrator_first_use": _fresh_timing(
            "import time, torsionlab as tl; s = tl.builtin_chart('sphere', r=1.0); "
            "t = time.perf_counter(); "
            "tl.integrate_geodesic(s, [1.2, 0.1], [0.3, 0.8], (0.0, 1e-3), 1e-3); "
            "tl.straight_line_image(s, [1.2, 0.1], [0.3, 0.8], (0.0, 1e-3), 1e-3); "
            "print(time.perf_counter() - t)"),
    }, {}


GROUPS = {"kernel": _kernel_layers, "ring": _ring_layers, "trajectories": _trajectory_layers,
          "geometry": _geometry_layers, "imports": _import_layers}
PAIR_GROUPS = ("kernel", "ring", "trajectories", "geometry", "imports")  # what a --pair round times


def measure(groups=tuple(GROUPS)):
    import numpy as np
    import scipy

    result = {"layers": {}}
    for group in groups:
        layers, facts = GROUPS[group]()
        result["layers"].update(layers)
        result.update(facts)
    result["kernel_variants"] = _kernel_variants()
    result["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    return result


def _kernel_variants():
    """Taylor-kernel variants kept: ``_variant``'s cache, or in a checkout before
    it the hand-kept ``_KERNELS``."""
    from torsionlab import expressions

    if hasattr(expressions, "_variant"):
        return expressions._variant.cache_info().currsize
    return sum(len(kernel) if isinstance(kernel, dict) else 1
               for kernels in expressions._KERNELS.values()
               for rule, kernel in kernels.items() if rule != "_REAL")


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _side(src):
    """One side's ``PAIR_GROUPS`` layers, timed by this script in a fresh interpreter."""
    code = (f"import json, sys; sys.path[:0] = [{str(Path(__file__).parent)!r}, {src!r}]; "
            "import bench_kernel as b; print(json.dumps(b.measure(b.PAIR_GROUPS)))")
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return json.loads(run.stdout.strip().splitlines()[-1])


def _perfbench(src, workload, seed):
    """The end-to-end metrics of one ``perfbench/run.py`` run of the checkout holding ``src``."""
    root = Path(src).resolve().parent
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    run = subprocess.run(command, cwd=root, check=True, capture_output=True, text=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    return result["failed"] / result["attempted"], {
        name: metric["value"] for name, metric in result["metrics"].items()}


def _in_turn(rounds, measure_side):
    """``measure_side(side, r)`` for both sides in each round r, alternating which goes first."""
    runs = {"parent": [], "change": []}
    for r in range(rounds):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            runs[side].append(measure_side(side, r))
    return runs


def _compare(parent, change):
    ratios = [c / p for p, c in zip(parent, change)]
    lower = sum(c < p for p, c in zip(parent, change))
    return {"parent": parent, "change": change, "ratio": ratios,
            "ratio_quartiles": _quartiles(ratios), "parent_quartiles": _quartiles(parent),
            "change_quartiles": _quartiles(change), "change_lower": lower}


def pair(sources, rounds, perfbench_pairs):
    """Interleaved parent/change timings of the layers and, optionally, of ``perfbench``."""
    srcs = dict(zip(("parent", "change"), sources))
    runs = _in_turn(rounds, lambda side, _: _side(srcs[side]))
    layers = {}
    for name in runs["parent"][0]["layers"]:
        medians = {side: [run["layers"][name]["median_s"] for run in runs[side]] for side in runs}
        if None not in medians["parent"] + medians["change"]:
            layers[name] = _compare(medians["parent"], medians["change"])
    doc = {"harness": "tools/bench_kernel.py --pair", "rounds": rounds, "groups": PAIR_GROUPS,
           "layers": layers, "machine": runs["parent"][0]["machine"],
           "kernel_variants": {side: [run["kernel_variants"] for run in runs[side]]
                               for side in runs},
           "entries_built": {side: {fact: runs[side][0][fact]
                                    for fact in ("entries_built", "ring_entries_built")}
                             for side in runs},
           "expression_calls_per_point": {side: runs[side][0]["expression_calls_per_point"]
                                          for side in runs},
           **{fact: {side: [run[fact] for run in runs[side]] for side in runs}
              for fact in ("spectra_minor_faults", "spectra_tracemalloc_peak_mb")},
           "eigensolve_counts": {side: {layer: {key: value for key, value in
                                                 runs[side][0]["layers"][layer].items()
                                                 if key.startswith("eigvals_")}
                                         for layer in ("block_eigensolve", "ring_eigensolve")}
                                 for side in runs}}
    if perfbench_pairs:
        doc["perfbench"] = {"workloads": {}}
        for workload in ("trajectories", "geometry_sweep", "spectra"):
            bench = _in_turn(perfbench_pairs, lambda side, r: _perfbench(
                srcs[side], workload, 1501 + r))
            doc["perfbench"]["workloads"][workload] = {
                "fail_frac": {side: [fail for fail, _ in bench[side]] for side in bench},
                **{name: _compare(*([metrics[name] for _, metrics in bench[side]]
                                    for side in ("parent", "change")))
                   for name in bench["parent"][0][1]}}
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding torsionlab")
    parser.add_argument("--label", default="current", help="key of this run in the output")
    parser.add_argument("--out", required=True, help="JSON file to merge the run into")
    parser.add_argument("--pair", nargs=2, metavar=("SRC_A", "SRC_B"),
                        help="time the parent SRC_A and the change SRC_B in turn")
    parser.add_argument("--rounds", type=int, default=10, help="rounds of a --pair run")
    parser.add_argument("--perfbench", type=int, default=0, metavar="PAIRS",
                        help="perfbench pairs per workload in a --pair run")
    args = parser.parse_args(argv)
    if args.pair:
        doc = pair([str(Path(src).resolve()) for src in args.pair], args.rounds, args.perfbench)
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        rows = [(name, layer, args.rounds) for name, layer in doc["layers"].items()]
        rows += [(f"{workload} {name}", metric, args.perfbench)
                 for workload, metrics in doc.get("perfbench", {}).get("workloads", {}).items()
                 for name, metric in metrics.items() if name != "fail_frac"]
        for name, layer, count in rows:
            q = layer["ratio_quartiles"]
            print(f"{name:<32} change/parent {q['median']:.3f} ({q['q1']:.3f}-{q['q3']:.3f}),"
                  f" change lower in {layer['change_lower']}/{count}")
        return
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
                 f" matrices, sum k^3 {timing['eigvals_work']}" if "eigvals_calls" in timing
                 else "")
        print(f"{args.label:>10}  {name:<24} {timing['median_s'] * 1e6:12.2f} us"
              f"  (median of {timing['repeats']}{calls})")


if __name__ == "__main__":
    main()
