"""Command-line front end.

Subcommands: tensors, geodesic, autoparallel, variation, burgers, amplitude,
spectrum.  Outputs are deterministic JSON (or CSV for trajectories) and every
artifact embeds the fully resolved run configuration, so a result can be
reproduced from its own header.  Exit codes: 0 ok, 2 validation error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .charts import BUILTIN_CHARTS, Chart, builtin_chart, load_chart
from .config import ENV_VAR, active_profile
from .curvature import geometry_point
from .defects import DefectChart, LoopSpec, burgers_vector, frank_angle
from .dynamics import (
    Trajectory,
    integrate_autoparallel,
    integrate_geodesic,
    kinetic_energy,
    nonholonomic_variation,
)
from .errors import (
    EvaluationError,
    ExpressionParseError,
    TorsionLabError,
    ValidationError,
)
from .pathintegral import (
    Ring,
    ShortTimeConfig,
    Sphere,
    build_propagator,
    extract_spectrum,
    spectrum_ladder,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; embedded into every artifact."""

    command: str
    chart: str = ""
    params: tuple = ()  # ((name, value), ...)
    at: tuple = ()
    source: str = "riemann"
    q0: tuple = ()
    qdot0: tuple = ()
    t0: float = 0.0
    t1: float = 1.0
    step: float = 1e-3
    deltaq: tuple = ()
    loop: str = ""
    manifold: str = "ring"
    radius: float = 1.0
    points: int = 256
    n_theta: int = 32
    n_phi: int = 64
    epsilon: float = 0.04
    ladder: tuple = ()
    measure: str = "qep"
    mass: float = 1.0
    hbar: float = 1.0
    levels: int = 4
    group_tol: float = 1e-6
    output: str = ""
    format: str = "json"

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["params"] = [[k, v] for k, v in self.params]
        for key in ("at", "q0", "qdot0", "deltaq", "ladder"):
            out[key] = list(out[key])
        out["tool_version"] = __version__
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        data.pop("tool_version", None)
        data["params"] = tuple((str(k), float(v)) for k, v in data.get("params", ()))
        for key in ("at", "q0", "qdot0"):
            data[key] = tuple(float(x) for x in data.get(key, ()))
        data["deltaq"] = tuple(str(x) for x in data.get("deltaq", ()))
        data["ladder"] = tuple(float(x) for x in data.get("ladder", ()))
        return cls(**data)


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in str(text).split(",") if x.strip() != "")


def _resolve_chart(cfg: RunConfig) -> Chart:
    if not cfg.chart:
        raise ValidationError("this command needs --chart (a file path or builtin:<name>)")
    overrides = dict(cfg.params)
    if cfg.chart.startswith("builtin:"):
        name = cfg.chart.split(":", 1)[1]
        return builtin_chart(name, **overrides)
    chart = load_chart(cfg.chart)
    if overrides:
        data = chart.to_dict()
        params = dict(data.get("params", {}))
        unknown = set(overrides) - set(params)
        if unknown:
            raise ValidationError(f"chart has no parameter(s) {sorted(unknown)}")
        params.update(overrides)
        data["params"] = params
        chart = Chart.from_dict(data)
    return chart


def _load_loop(path) -> LoopSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"loop file {path}: invalid JSON ({exc})") from exc
    if isinstance(data, list):
        return LoopSpec(vertices=tuple(map(tuple, data)))
    return LoopSpec(
        vertices=tuple(map(tuple, data["vertices"])),
        samples_per_edge=int(data.get("samples_per_edge", 8)),
    )


def _tensor(arr) -> list:
    return np.asarray(arr).tolist()


# -- command implementations --------------------------------------------------


def _cmd_tensors(cfg: RunConfig) -> dict:
    chart = _resolve_chart(cfg)
    point = geometry_point(chart, np.asarray(cfg.at, dtype=float), source=cfg.source)
    bundle, curv = point.connection, point.curvature
    return {
        "metric": _tensor(bundle.metric),
        "inverse_metric": _tensor(bundle.inverse_metric),
        "christoffel_first": _tensor(bundle.gamma_bar_first),
        "christoffel_second": _tensor(bundle.gamma_bar),
        "affine_connection": _tensor(bundle.gamma),
        "torsion": _tensor(bundle.torsion),
        "torsion_vector": _tensor(bundle.torsion_vector),
        "contortion": _tensor(bundle.contortion),
        "cartan_curvature": _tensor(curv.cartan),
        "riemann_curvature": _tensor(curv.riemann),
        "ricci": _tensor(curv.ricci),
        "curvature_scalar": curv.scalar,
        "einstein": _tensor(curv.einstein),
        "curvature_source": curv.source,
    }


def _trajectory_payload(chart: Chart, traj: Trajectory) -> dict:
    energy = kinetic_energy(chart, traj)
    return {
        "t": _tensor(traj.t),
        "q": _tensor(traj.q),
        "qdot": _tensor(traj.qdot),
        "energy": _tensor(energy),
        "truncated": traj.truncated,
    }


def _cmd_geodesic(cfg: RunConfig) -> dict:
    chart = _resolve_chart(cfg)
    traj = integrate_geodesic(chart, cfg.q0, cfg.qdot0, (cfg.t0, cfg.t1), cfg.step)
    return _trajectory_payload(chart, traj)


def _cmd_autoparallel(cfg: RunConfig) -> dict:
    chart = _resolve_chart(cfg)
    traj = integrate_autoparallel(chart, cfg.q0, cfg.qdot0, (cfg.t0, cfg.t1), cfg.step)
    return _trajectory_payload(chart, traj)


def _cmd_variation(cfg: RunConfig) -> dict:
    chart = _resolve_chart(cfg)
    base = integrate_autoparallel(chart, cfg.q0, cfg.qdot0, (cfg.t0, cfg.t1), cfg.step)
    if base.truncated:
        raise ValidationError("base trajectory hit a guard-excluded point")
    run = nonholonomic_variation(chart, base, list(cfg.deltaq))
    return {
        "t": _tensor(run.t),
        "delta_q": _tensor(run.delta_q),
        "delta_b": _tensor(run.delta_b),
        "final_closure_defect": _tensor(run.delta_b[-1]),
    }


def _cmd_burgers(cfg: RunConfig) -> dict:
    chart = _resolve_chart(cfg)
    loop = _load_loop(cfg.loop)
    kind = "disclination" if "om" in chart.params else "dislocation"
    parameter = chart.params.get("om", chart.params.get("eps", 0.0))
    defect = DefectChart(chart=chart, defect_kind=kind, parameter=parameter)
    result = burgers_vector(defect, loop)
    payload = {
        "b": list(result.b),
        "b_over_2pi": list(result.b_over_2pi),
        "winding": result.winding,
    }
    if kind == "disclination":
        payload["frank_angle"] = frank_angle(defect, loop)
    return payload


def _manifold(cfg: RunConfig):
    if cfg.manifold == "ring":
        return Ring(radius=cfg.radius, points=cfg.points)
    if cfg.manifold == "sphere":
        return Sphere(radius=cfg.radius, n_theta=cfg.n_theta, n_phi=cfg.n_phi)
    raise ValidationError(f"unknown manifold {cfg.manifold!r}")


def _cmd_amplitude(cfg: RunConfig) -> dict:
    stc = ShortTimeConfig(mass=cfg.mass, hbar=cfg.hbar, epsilon=cfg.epsilon)
    prop = build_propagator(_manifold(cfg), stc, cfg.measure)
    vals = prop.eigenvalues(count=8)
    sample = [[prop.entry(0, b) for b in range(4)]]
    return {
        "manifold": cfg.manifold,
        "measure_mode": prop.measure_mode,
        "epsilon": cfg.epsilon,
        "slice_count": prop.slice_count,
        "leading_eigenvalues": _tensor(vals),
        "kernel_row_sample": _tensor(sample),
    }


def _cmd_spectrum(cfg: RunConfig) -> dict:
    stc = ShortTimeConfig(mass=cfg.mass, hbar=cfg.hbar, epsilon=cfg.epsilon)
    manifold = _manifold(cfg)
    if cfg.ladder:
        result = spectrum_ladder(
            manifold, stc, cfg.measure, cfg.ladder, n_levels=cfg.levels, group_tol=cfg.group_tol
        )
        return {
            "manifold": cfg.manifold,
            "measure_mode": result.measure_mode,
            "epsilons": list(result.epsilons),
            "ladder": {repr(eps): _tensor(levels) for eps, levels in result.ladder.items()},
            "degeneracies": list(result.degeneracies),
            "extrapolated_levels": _tensor(result.extrapolated),
        }
    prop = build_propagator(manifold, stc, cfg.measure)
    levels = extract_spectrum(prop, cfg.levels, group_tol=cfg.group_tol)
    return {
        "manifold": cfg.manifold,
        "measure_mode": prop.measure_mode,
        "epsilons": [cfg.epsilon],
        "levels": _tensor(levels.energies),
        "degeneracies": list(levels.degeneracies),
    }


_COMMANDS = {
    "tensors": _cmd_tensors,
    "geodesic": _cmd_geodesic,
    "autoparallel": _cmd_autoparallel,
    "variation": _cmd_variation,
    "burgers": _cmd_burgers,
    "amplitude": _cmd_amplitude,
    "spectrum": _cmd_spectrum,
}

_TRAJECTORY_COMMANDS = ("geodesic", "autoparallel")


def run(cfg: RunConfig) -> dict:
    """Execute a resolved run configuration; returns the artifact payload."""
    if cfg.command not in _COMMANDS:
        raise ValidationError(f"unknown command {cfg.command!r}")
    payload = _COMMANDS[cfg.command](cfg)
    return {"config": cfg.to_dict(), "result": payload}


def _render_csv(cfg: RunConfig, artifact: dict) -> str:
    result = artifact["result"]
    lines = ["# config=" + json.dumps(artifact["config"], sort_keys=True)]
    if cfg.command in _TRAJECTORY_COMMANDS:
        dim = len(result["q"][0])
        header = ["t"] + [f"q{i+1}" for i in range(dim)] + [f"qdot{i+1}" for i in range(dim)]
        lines.append(",".join(header + ["energy"]))
        for t, q, v, e in zip(result["t"], result["q"], result["qdot"], result["energy"]):
            row = [repr(t)] + [repr(x) for x in q] + [repr(x) for x in v] + [repr(e)]
            lines.append(",".join(row))
    elif cfg.command == "spectrum" and "extrapolated_levels" in result:
        lines.append("level,extrapolated," + ",".join(f"eps={e}" for e in result["epsilons"]))
        ladder = [result["ladder"][repr(e)] for e in result["epsilons"]]
        for k, ex in enumerate(result["extrapolated_levels"]):
            row = [str(k), repr(ex)] + [repr(col[k]) if k < len(col) else "" for col in ladder]
            lines.append(",".join(row))
    else:
        raise ValidationError(f"csv output is not defined for command {cfg.command!r}")
    return "\n".join(lines) + "\n"


def render(cfg: RunConfig, artifact: dict) -> str:
    if cfg.format == "csv":
        return _render_csv(cfg, artifact)
    return json.dumps(artifact, sort_keys=True, indent=2) + "\n"


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description=__doc__.splitlines()[0] if __doc__ else "",
        epilog=f"Builtin charts: {', '.join(BUILTIN_CHARTS)} (use --chart builtin:<name>). "
        f"Tolerance profile env var: {ENV_VAR}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", "-o", default="", help="write artifact to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_chart(p):
        p.add_argument("--chart", required=True, help="chart file path or builtin:<name>")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a chart parameter (repeatable)",
        )

    p = sub.add_parser("tensors", help="all local tensors at a point")
    add_chart(p)
    p.add_argument("--at", required=True, help="comma-separated coordinates")
    p.add_argument("--source", choices=("riemann", "cartan"), default="riemann")
    add_common(p)

    for name, help_text in (
        ("geodesic", "integrate a geodesic"),
        ("autoparallel", "integrate an autoparallel"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_chart(p)
        p.add_argument("--q0", required=True)
        p.add_argument("--qdot0", required=True)
        p.add_argument("--t0", type=float, default=0.0)
        p.add_argument("--t1", type=float, default=1.0)
        p.add_argument("--step", type=float, default=1e-3)
        add_common(p)

    p = sub.add_parser("variation", help="closure defect of a varied autoparallel")
    add_chart(p)
    p.add_argument("--q0", required=True)
    p.add_argument("--qdot0", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--deltaq", required=True, help="semicolon-separated expressions in t")
    add_common(p)

    p = sub.add_parser("burgers", help="loop invariants of a defect chart")
    add_chart(p)
    p.add_argument("--loop", required=True, help="loop file (JSON vertices)")
    add_common(p)

    for name, help_text in (
        ("amplitude", "kernel summary for a sliced propagator"),
        ("spectrum", "transfer-matrix spectrum"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifold", choices=("ring", "sphere"), default="ring")
        p.add_argument("--radius", "--r", type=float, default=1.0)
        p.add_argument("--points", type=int, default=256, help="ring grid size")
        p.add_argument("--n-theta", type=int, default=32)
        p.add_argument("--n-phi", type=int, default=64)
        p.add_argument("--epsilon", type=float, default=0.04)
        p.add_argument("--measure", default="qep")
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--hbar", type=float, default=1.0)
        if name == "spectrum":
            p.add_argument("--levels", type=int, default=4)
            p.add_argument("--ladder", default="", help="comma-separated epsilon ladder")
            p.add_argument(
                "--group-tol",
                type=float,
                default=1e-6,
                help="energy window for merging degenerate levels",
            )
        add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    params = []
    for item in getattr(args, "param", []) or []:
        if "=" not in item:
            raise ValidationError(f"--param expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        try:
            params.append((name.strip(), float(value)))
        except ValueError:
            raise ValidationError(f"--param value for {name!r} is not a number: {value!r}")
    kwargs = {"command": args.command, "params": tuple(params)}
    for key in ("chart", "source", "loop", "manifold", "measure", "output", "format"):
        if hasattr(args, key):
            kwargs[key] = getattr(args, key)
    for key in ("t0", "t1", "step", "radius", "epsilon", "mass", "hbar", "group_tol"):
        if hasattr(args, key):
            kwargs[key] = float(getattr(args, key))
    for key in ("points", "levels"):
        if hasattr(args, key):
            kwargs[key] = int(getattr(args, key))
    if hasattr(args, "n_theta"):
        kwargs["n_theta"] = int(args.n_theta)
        kwargs["n_phi"] = int(args.n_phi)
    if hasattr(args, "at"):
        kwargs["at"] = _floats(args.at)
    if hasattr(args, "q0"):
        kwargs["q0"] = _floats(args.q0)
        kwargs["qdot0"] = _floats(args.qdot0)
    if hasattr(args, "deltaq"):
        kwargs["deltaq"] = tuple(s.strip() for s in args.deltaq.split(";") if s.strip())
    if getattr(args, "ladder", ""):
        kwargs["ladder"] = _floats(args.ladder)
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
        active_profile()  # fail fast on a bad profile name
        cfg = config_from_args(args)
        artifact = run(cfg)
        text = render(cfg, artifact)
    except (ValidationError, ExpressionParseError) as exc:
        _emit_error(exc, EXIT_VALIDATION)
        return EXIT_VALIDATION
    except (TorsionLabError, EvaluationError, ValueError) as exc:
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC
    except OSError as exc:
        _emit_error(exc, EXIT_VALIDATION)
        return EXIT_VALIDATION
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _emit_error(exc: Exception, code: int) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    extra = {}
    if isinstance(exc, ExpressionParseError):
        extra = {"line": exc.line, "column": exc.column, "token": exc.token}
    payload["error"].update(extra)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
