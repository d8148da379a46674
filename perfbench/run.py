"""torsionlab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {trajectories,geometry_sweep,spectra} \\
        --seed N --seconds S --trace {0,1}

One closed-loop client runs the workload's passes back to back for about
``--seconds`` seconds, in this one process.  Every operation's output is
checked against its acceptance bound.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` one pass runs under the span recorder and the last line holds
the per-layer metrics instead.  Lines before it are a readable report.
The program is imported from ``src/`` of the checkout, never from elsewhere.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the same BLAS thread count on every run and every
# machine (1 <= nproc); 1 vs 2 OpenBLAS threads moves the sphere ladders ~20%.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import refspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"  # run artifacts: the CLI loop file and span files
WORKLOAD_NAMES = ("trajectories", "geometry_sweep", "spectra")

# Fresh interpreters timed per run, half before and half after the passes so the
# median spans the run; one unmeasured probe first warms the file caches.
SETUP_PROBES = 6
MIN_PASSES = 3  # a warm-up pass and at least two measured passes


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import torsionlab from this checkout's src/, or exit non-zero."""
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no torsionlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torsionlab

    if Path(torsionlab.__file__).resolve().parent != SRC / "torsionlab":
        sys.exit(f"perfbench: imported torsionlab from {torsionlab.__file__}, not {SRC}")
    return torsionlab


def setup_probe(args) -> None:
    """Child process: time importing torsionlab and building the workload's fixed inputs."""
    t0 = time.perf_counter()
    _import_program()
    t1 = time.perf_counter()
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    t2 = time.perf_counter()
    workloads.WORKLOADS[args.workload].setup(args.seed, WORKDIR)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def measure_setup(args, count: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``count`` fresh interpreters, raw and at reference speed.

    The reference loop is sampled before the first probe and after each one.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    raw, refs = [], [refspeed.sample()]
    for _ in range(count):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()}")
        raw.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        refs.append(refspeed.sample())
    return raw, [refspeed.rescale([t], refs[i:i + 2]) for i, t in enumerate(raw)]


def machine_facts() -> dict:
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no procfs: thread counts stay unreported
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_pass(workload, ctx, pass_index, recorder=None):
    """One pass, with the reference loop sampled between its operations."""
    from workloads import PassLog

    log = PassLog(recorder)
    workload.run(ctx, workload.prepare(ctx, pass_index), log)
    log.close()
    return log


def run_untraced(workload, ctx, seconds):
    """Warm-up pass, then measured passes while the next one still fits in ``seconds``."""
    logs = []
    start = last = time.perf_counter()
    longest = 0.0
    while True:
        logs.append(timed_pass(workload, ctx, len(logs)))
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
        if len(logs) >= MIN_PASSES and now - start + longest > seconds:
            return logs


def run_traced(workload, ctx, seconds, modules):
    """Untraced warm-up (pass 0), pass 1 traced, then untraced replays of pass 1.

    Returns the logs, the recorder, the traced pass's wall seconds and its
    overhead over the median replay, compared at reference speed.
    """
    import spans

    start = time.perf_counter()
    logs = [timed_pass(workload, ctx, 0)]
    recorder = spans.Recorder()
    undo = spans.instrument(recorder, modules)
    try:
        traced = timed_pass(workload, ctx, 1, recorder)
    finally:
        spans.uninstrument(undo)
    replays = []
    while not replays or time.perf_counter() - start + replays[-1].seconds_total < seconds:
        replays.append(timed_pass(workload, ctx, 1))
    untraced = statistics.median(log.seconds_at_reference for log in replays)
    overhead = traced.seconds_at_reference / untraced - 1.0
    return logs + [traced] + replays, recorder, traced.seconds_total, overhead


def layer_metrics(recorder, traced_wall, overhead) -> dict:
    """Per-layer metrics of the traced pass, from its spans and counters.

    A layer's time is reported as its share of the traced pass: the self time
    of its spans over the pass's wall time (``trace.pass_s``).
    """
    import numpy as np
    import spans

    tab = recorder.table()
    names = np.array(recorder.names, dtype=object)[tab["name_id"]]
    layers = np.array(recorder.layers, dtype=object)[tab["name_id"]]
    kinds = np.array(recorder.op_kinds + [""], dtype=object)[tab["op"]]  # op -1 -> ""
    self_time = tab["self"]
    counters = recorder.counters

    def share(mask):
        return float(self_time[mask].sum() / traced_wall)

    def per(numerator, denominator):
        return float(numerator / denominator) if denominator else 0.0

    def counter(key):
        return int(counters.get(key, 0))

    def op_steps(kind):
        return recorder.op_counters.get((kind, "dynamics.rk4_steps"), 0)

    def alias(function):
        return np.array([n.endswith("." + function) for n in names], dtype=bool)

    evals = names == "Expression.__call__"
    parses = names == "Expression.__init__"
    jets = names == "Chart.triad_jets"
    postpoint = names == "PostpointData.__init__"
    eigen = names == "SlicedPropagator.eigenvalues"
    builds = alias("build_propagator")
    variations = alias("variation_matrices")
    # kernel assembly: pathintegral code running under build_propagator, less
    # the postpoint tensors, which have their own metric
    in_build = np.zeros(len(names), dtype=bool)
    for idx, parent in enumerate(tab["parent"].tolist()):
        in_build[idx] = builds[idx] or (parent >= 0 and in_build[parent])
    assembly = in_build & (layers == "pathintegral") & ~postpoint
    ladder_ops = sum(1 for k in recorder.op_kinds if k.startswith("sphere_ladder."))
    in_ladders = np.array([k.startswith("sphere_ladder.") for k in kinds], dtype=bool)

    out = {}
    for layer in spans.LAYERS:
        mask = layers == layer
        out[f"{layer}.calls"] = (int(mask.sum()), "count")
        out[f"{layer}.self_share"] = (share(mask), "frac")
    out.update({
        "expressions.eval.calls": (int(evals.sum()), "count"),
        "expressions.eval.self_share": (share(evals), "frac"),
        "expressions.parse.calls": (int(parses.sum()), "count"),
        "expressions.parse.self_share": (share(parses), "frac"),
        "charts.triad_jets.calls.o0": (counter("charts.triad_jets.calls.o0"), "count"),
        "charts.triad_jets.calls.o1": (counter("charts.triad_jets.calls.o1"), "count"),
        "charts.triad_jets.calls.o2": (counter("charts.triad_jets.calls.o2"), "count"),
        "charts.triad_jets.self_share": (share(jets), "frac"),
        "charts.jet_passes_per_point": (
            per((jets & (kinds == "point")).sum(), recorder.op_kinds.count("point")), "1/point"),
        "charts.jet_passes_per_step": (
            per((jets & (kinds == "geodesic.sphere")).sum(), op_steps("geodesic.sphere")),
            "1/step"),
        "dynamics.rk4_steps": (counter("dynamics.rk4_steps"), "count"),
        # both per step of the same base autoparallel
        "dynamics.variation_matrices.calls_per_step.rk4": (
            per((variations & (kinds == "variation.rk4")).sum(), op_steps("variation.rk4")),
            "1/step"),
        "dynamics.variation_matrices.calls_per_step.quadrature": (
            per((variations & (kinds == "variation.quadrature")).sum(),
                op_steps("variation.rk4")), "1/step"),
        "defects.nodes": (counter("defects.nodes"), "count"),
        "pathintegral.postpoint.calls": (int(postpoint.sum()), "count"),
        "pathintegral.postpoint.calls_per_sphere_ladder": (
            per((postpoint & in_ladders).sum(), ladder_ops), "count"),
        "pathintegral.postpoint.self_share": (share(postpoint), "frac"),
        "pathintegral.build.calls": (int(builds.sum()), "count"),
        "pathintegral.build.self_share": (share(assembly), "frac"),
        "pathintegral.eigensolve.calls": (int(eigen.sum()), "count"),
        "pathintegral.eigensolve.self_share": (share(eigen), "frac"),
        "pathintegral.blocks_solved": (counter("pathintegral.blocks_solved"), "count"),
        "pathintegral.kernel_live_frac": (
            per(counter("pathintegral.kernel_live"), counter("pathintegral.kernel_computed")),
            "frac"),
    })
    for mode in ("qep", "naive_dewitt", "qep_via_veff"):
        out[f"pathintegral.jet_passes_per_sphere_ladder.{mode}"] = (
            int((jets & (kinds == f"sphere_ladder.{mode}")).sum()), "count")
    out.update({
        "cli.run.self_share": (share(names == "cli.run"), "frac"),
        "cli.render.self_share": (share(names == "cli.render"), "frac"),
        "cli.artifact_bytes": (counter("cli.artifact_bytes"), "bytes"),
        "trace.pass_s": (traced_wall, "s"),
        "trace.spans": (len(names), "count"),
        "trace.overhead_frac": (overhead, "frac"),
    })
    return out


def stage_split(logs) -> str:
    """Each stage's share of the passes' time and its operations per pass.

    A stage is an operation kind up to its first dot (``loop.burgers`` ->
    ``loop``).
    """
    seconds, ops = {}, {}
    for log in logs:
        for kind, s in log.ops:
            stage = kind.split(".")[0]
            seconds[stage] = seconds.get(stage, 0.0) + s
            ops[stage] = ops.get(stage, 0) + 1
    total = sum(seconds.values())
    return ", ".join(f"{stage} {seconds[stage] / total:.3f} ({ops[stage] / len(logs):g} ops/pass)"
                     for stage in seconds)


def end_to_end(args, workload):
    """Untraced run: set-up probes around the passes; the end-to-end metrics."""
    measure_setup(args, 1)
    setup_raw, setup_at_ref = measure_setup(args, SETUP_PROBES // 2)
    ctx = workload.setup(args.seed, WORKDIR)
    logs = run_untraced(workload, ctx, args.seconds)
    raw_after, at_ref_after = measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
    setup_raw += raw_after
    setup_at_ref += at_ref_after
    walls = [log.seconds_total for log in logs]
    at_ref = [log.seconds_at_reference for log in logs]
    metrics = {
        "setup_s": (statistics.median(setup_at_ref), "s"),
        "wall_ref_s": (statistics.median(at_ref[1:]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    refs = [r for log in logs for r in log.refs]
    notes = [f"passes {len(logs)} (pass 0 is a warm-up)",
             "set-up wall s " + " ".join(f"{t:.4f}" for t in setup_raw),
             "set-up s at reference speed " + " ".join(f"{t:.4f}" for t in setup_at_ref),
             "pass wall s " + " ".join(f"{t:.4f}" for t in walls),
             "pass s at reference speed " + " ".join(f"{t:.4f}" for t in at_ref),
             f"setup_s wall = {statistics.median(setup_raw):.6g} s (median, not rescaled)",
             f"wall_s = {statistics.median(walls[1:]):.6g} s (median pass, not rescaled)",
             f"reference loop {1e3 * min(refs):.3f} .. {1e3 * statistics.median(refs):.3f} .. "
             f"{1e3 * max(refs):.3f} ms (min .. median .. max of {len(refs)}; "
             f"reference {1e3 * refspeed.REFERENCE_S:.3f} ms)"]
    return logs, logs[1:], metrics, notes


def traced(args, workload, torsionlab):
    """Traced run: the per-layer metrics; spans are saved under WORKDIR."""
    import spans

    ctx = workload.setup(args.seed, WORKDIR)
    modules = {layer: getattr(torsionlab, layer) for layer in spans.LAYERS}
    logs, recorder, traced_wall, overhead = run_traced(workload, ctx, args.seconds, modules)
    path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz"
    recorder.save(path)
    notes = [f"passes {len(logs)} (pass 0 is a warm-up, pass 1 traced, "
             "the rest untraced replays of pass 1)",
             f"spans written to {path.relative_to(ROOT)}"]
    return logs, logs[2:], layer_metrics(recorder, traced_wall, overhead), notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    torsionlab = _import_program()
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        logs, measured, metrics, notes = traced(args, workload, torsionlab)
    else:
        logs, measured, metrics, notes = end_to_end(args, workload)

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    worst = {}
    for log in logs:
        for label, (value, sense) in log.worst.items():
            old = worst.get(label)
            if old is None or (value > old if sense == "max" else value < old):
                worst[label] = value

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit, note) in workload.stage_metrics(measured).items():
        print(f"stage {name} = {value:.6g} {unit} ({note})")
    print("stage split " + stage_split(measured))
    print(f"fail_frac = {failed}/{attempted} operations")
    print("worst residuals " + json.dumps({k: float(f"{v:.3e}") for k, v in sorted(worst.items())}))
    for message in [m for log in logs for m in log.failures][:20]:
        print("FAILED " + message)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
