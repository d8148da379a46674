"""Command-line front end.

Subcommands: tensors, geodesic, autoparallel, variation, burgers, amplitude,
spectrum.  Outputs are deterministic JSON (or CSV for trajectories) and every
artifact embeds the fully resolved run configuration, so a result can be
reproduced from its own header.  Exit codes: 0 ok, 2 validation error
(argument errors included), 3 numeric failure; every error is one JSON line
on stderr.

Defaults live in ``RunConfig`` alone and type conversions in the argument
parser alone: the subcommand parsers leave an option out of the namespace
unless it is given, so ``config_from_args`` is ``RunConfig(**vars(args))``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from . import __version__
from .charts import BUILTIN_CHARTS, builtin_chart, load_chart
from .config import ENV_VAR, active_profile
from .connection import torsion_trace
from .curvature import geometry_point
from .defects import DefectChart, LoopSpec, burgers_vector, frank_angle
from .dynamics import (
    integrate_autoparallel,
    integrate_geodesic,
    kinetic_energy,
    nonholonomic_variation,
)
from .errors import ExpressionParseError, TorsionLabError, ValidationError
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
        out = {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}
        out["params"] = [list(p) for p in self.params]
        out["tool_version"] = __version__
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of ``to_dict``: JSON lists back to tuples."""
        data = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
        data.pop("tool_version", None)
        data["params"] = tuple(map(tuple, data.get("params", ())))
        return cls(**data)


def _resolve_chart(cfg: RunConfig):
    if not cfg.chart:
        raise ValidationError("this command needs --chart (a file path or builtin:<name>)")
    if cfg.chart.startswith("builtin:"):
        return builtin_chart(cfg.chart[len("builtin:"):], **dict(cfg.params))
    return load_chart(cfg.chart, **dict(cfg.params))


def _load_loop(path) -> LoopSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"loop file {path}: invalid JSON ({exc})") from exc
    if isinstance(data, list):
        data = {"vertices": data}
    try:
        return LoopSpec(
            vertices=tuple(map(tuple, data["vertices"])),
            samples_per_edge=int(data.get("samples_per_edge", 8)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"loop file {path}: expected a vertex list or an object with \"vertices\" "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _tensor(arr) -> list:
    return np.asarray(arr).tolist()


# -- command implementations --------------------------------------------------


def _cmd_tensors(cfg: RunConfig) -> dict:
    chart = _resolve_chart(cfg)
    geo = geometry_point(chart, np.asarray(cfg.at, dtype=float))
    ricci, scalar, einstein = geo.ricci_scalar_einstein(cfg.source)
    return {
        "metric": _tensor(geo.g),
        "inverse_metric": _tensor(geo.invg),
        "christoffel_first": _tensor(geo.chris1),
        "christoffel_second": _tensor(geo.chris2),
        "affine_connection": _tensor(geo.gamma),
        "torsion": _tensor(geo.torsion),
        "torsion_vector": _tensor(torsion_trace(geo.torsion)),
        "contortion": _tensor(geo.contortion),
        "cartan_curvature": _tensor(geo.cartan),
        "riemann_curvature": _tensor(geo.riemann),
        "ricci": _tensor(ricci),
        "curvature_scalar": scalar,
        "einstein": _tensor(einstein),
        "curvature_source": cfg.source,
    }


_INTEGRATORS = {"geodesic": integrate_geodesic, "autoparallel": integrate_autoparallel}


def _cmd_trajectory(cfg: RunConfig) -> dict:
    chart = _resolve_chart(cfg)
    integrate = _INTEGRATORS[cfg.command]
    traj = integrate(chart, cfg.q0, cfg.qdot0, (cfg.t0, cfg.t1), cfg.step)
    return {
        "t": _tensor(traj.t),
        "q": _tensor(traj.q),
        "qdot": _tensor(traj.qdot),
        "energy": _tensor(kinetic_energy(chart, traj)),
        "truncated": traj.truncated,
    }


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
    "geodesic": _cmd_trajectory,
    "autoparallel": _cmd_trajectory,
    "variation": _cmd_variation,
    "burgers": _cmd_burgers,
    "amplitude": _cmd_amplitude,
    "spectrum": _cmd_spectrum,
}


def run(cfg: RunConfig) -> dict:
    """Execute a resolved run configuration; returns the artifact payload."""
    if cfg.command not in _COMMANDS:
        raise ValidationError(f"unknown command {cfg.command!r}")
    payload = _COMMANDS[cfg.command](cfg)
    return {"config": cfg.to_dict(), "result": payload}


def _render_csv(cfg: RunConfig, artifact: dict) -> str:
    result = artifact["result"]
    lines = ["# config=" + json.dumps(artifact["config"], sort_keys=True)]
    if cfg.command in _INTEGRATORS:
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


class _Parser(argparse.ArgumentParser):
    """Raises ``ValidationError`` on a bad argument instead of printing usage.

    A word that starts with a negative number, such as the coordinate list
    in ``--q0 -1,0``, is a value: argparse by default takes only a single
    negative number for one, and ``-1,0`` for an unknown option.
    """

    _NEGATIVE_LEADING = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,|$)")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_LEADING

    def error(self, message):
        raise ValidationError(message)


def _floats(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _param(text: str) -> tuple:
    name, _, value = text.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE with a number, got {text!r}")


def _expressions(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(";") if s.strip())


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torsionlab",
        description=__doc__.splitlines()[0] if __doc__ else "",
        epilog=f"Builtin charts: {', '.join(BUILTIN_CHARTS)} (use --chart builtin:<name>). "
        f"Tolerance profile env var: {ENV_VAR}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--output", "-o", help="write artifact to this path")
        p.add_argument("--format", choices=("json", "csv"))
        return p

    def chart_command(name, help_text):
        p = command(name, help_text)
        p.add_argument("--chart", required=True, help="chart file path or builtin:<name>")
        p.add_argument("--param", dest="params", action="append", type=_param,
                       metavar="NAME=VALUE", help="override a chart parameter (repeatable)")
        return p

    def trajectory_command(name, help_text):
        p = chart_command(name, help_text)
        p.add_argument("--q0", type=_floats, required=True)
        p.add_argument("--qdot0", type=_floats, required=True)
        for flag in ("--t0", "--t1", "--step"):
            p.add_argument(flag, type=float)
        return p

    def kernel_command(name, help_text):
        p = command(name, help_text)
        p.add_argument("--manifold", choices=("ring", "sphere"))
        p.add_argument("--radius", "--r", type=float)
        p.add_argument("--points", type=int, help="ring grid size")
        p.add_argument("--n-theta", type=int)
        p.add_argument("--n-phi", type=int)
        for flag in ("--epsilon", "--mass", "--hbar"):
            p.add_argument(flag, type=float)
        p.add_argument("--measure")
        return p

    p = chart_command("tensors", "all local tensors at a point")
    p.add_argument("--at", type=_floats, required=True, help="comma-separated coordinates")
    p.add_argument("--source", choices=("riemann", "cartan"))

    trajectory_command("geodesic", "integrate a geodesic")
    trajectory_command("autoparallel", "integrate an autoparallel")
    p = trajectory_command("variation", "closure defect of a varied autoparallel")
    p.add_argument("--deltaq", type=_expressions, required=True,
                   help="semicolon-separated expressions in t")

    p = chart_command("burgers", "loop invariants of a defect chart")
    p.add_argument("--loop", required=True, help="loop file (JSON vertices)")

    kernel_command("amplitude", "kernel summary for a sliced propagator")
    p = kernel_command("spectrum", "transfer-matrix spectrum")
    p.add_argument("--levels", type=int)
    p.add_argument("--ladder", type=_floats, help="comma-separated epsilon ladder")
    p.add_argument("--group-tol", type=float,
                   help="energy window for merging degenerate levels")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs = vars(args)
    return RunConfig(**{**kwargs, "params": tuple(kwargs.get("params", ()))})


def main(argv=None) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
        active_profile()  # fail fast on a bad profile name
        cfg = config_from_args(args)
        text = render(cfg, run(cfg))
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ValidationError as exc:
        _emit_error(exc, EXIT_VALIDATION)
        return EXIT_VALIDATION
    except (TorsionLabError, ValueError) as exc:
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC
    except OSError as exc:
        _emit_error(exc, EXIT_VALIDATION)
        return EXIT_VALIDATION
    return EXIT_OK


def _emit_error(exc: Exception, code: int) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    if isinstance(exc, ExpressionParseError):
        payload["error"].update(line=exc.line, column=exc.column, token=exc.token)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
