import json
import math
import subprocess
import sys

import numpy as np
import pytest

from torsionlab.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    config_from_args,
    main,
    render,
    run,
    _build_arg_parser,
)
from torsionlab import geometry_point, torsion_trace
from torsionlab.charts import builtin_chart, load_chart
from torsionlab.errors import DimensionMismatchError, ExpressionParseError


DEEP = {"parentheses": "(" * 3000 + "q1" + ")" * 3000, "minus": "-" * 3000 + "q1",
        "sum": "q1" + "+q1*0.001" * 2999}  # nested 3,000 deep


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_chart_file_polar(tmp_path):
    path = write_json(
        tmp_path / "polar.json",
        {"dim": 2, "kind": "map", "exprs": ["q1*cos(q2)", "q1*sin(q2)"]},
    )
    chart = load_chart(path)
    assert chart.kind == "map"
    assert np.allclose(chart.metric([2.0, 0.3]), np.diag([1.0, 4.0]))


def test_parse_chart_file_dimension_mismatch(tmp_path):
    path = write_json(
        tmp_path / "bad.json",
        {"dim": 2, "kind": "triad", "exprs": ["1", "0", "1"]},
    )
    with pytest.raises(DimensionMismatchError):
        load_chart(path)


def test_parse_chart_file_unknown_function(tmp_path):
    path = write_json(
        tmp_path / "frob.json",
        {"dim": 2, "kind": "map", "exprs": ["q1*frob(q2)", "q2"]},
    )
    with pytest.raises(ExpressionParseError) as err:
        load_chart(path)
    assert err.value.token == "frob"
    assert err.value.column == 4


def build_config(argv):
    return config_from_args(_build_arg_parser().parse_args(argv))


def test_tensors_command_payload():
    cfg = build_config(["tensors", "--chart", "builtin:sphere", "--at", "1.0,0.5"])
    artifact = run(cfg)
    result = artifact["result"]
    assert result["curvature_scalar"] == pytest.approx(2.0, rel=1e-9)
    assert np.allclose(result["torsion"], 0.0)
    assert np.max(np.abs(np.asarray(result["einstein"]))) < 1e-8
    assert artifact["config"]["command"] == "tensors"
    # every key is the matching attribute of the point's geometry, bit for bit
    for name, at in (("polar", [1.0, 0.2]), ("sphere", [1.0, 0.5]),
                     ("synthetic_torsion", [0.2, 0.5])):
        geo = geometry_point(builtin_chart(name), at)
        for source in ("riemann", "cartan"):
            result = run(build_config(["tensors", "--chart", f"builtin:{name}", "--at",
                                       ",".join(map(str, at)), "--source", source]))["result"]
            ricci, scalar, einstein = geo.ricci_scalar_einstein(source)
            want = {
                "metric": geo.g, "inverse_metric": geo.invg, "christoffel_first": geo.chris1,
                "christoffel_second": geo.chris2, "affine_connection": geo.gamma,
                "torsion": geo.torsion, "torsion_vector": torsion_trace(geo.torsion),
                "contortion": geo.contortion, "cartan_curvature": geo.cartan,
                "riemann_curvature": geo.riemann, "ricci": ricci, "curvature_scalar": scalar,
                "einstein": einstein,
            }
            assert list(result) == [*want, "curvature_source"]
            assert result["curvature_source"] == source
            for key, value in want.items():
                got = np.asarray(result[key], dtype=float)
                assert got.tobytes() == np.asarray(value).tobytes(), (name, source, key)


def test_param_override():
    cfg = build_config(
        ["tensors", "--chart", "builtin:sphere", "--param", "r=2.0", "--at", "1.0,0.5"]
    )
    assert run(cfg)["result"]["curvature_scalar"] == pytest.approx(0.5, rel=1e-9)


def test_burgers_command(tmp_path):
    loop = write_json(
        tmp_path / "loop.json",
        {"vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1], [1, 1]], "samples_per_edge": 16},
    )
    cfg = build_config(
        ["burgers", "--chart", "builtin:dislocation", "--param", "eps=0.1", "--loop", loop]
    )
    result = run(cfg)["result"]
    assert result["b"][1] == pytest.approx(2 * np.pi * 0.1, abs=1e-6)
    assert result["b_over_2pi"][1] == pytest.approx(0.1, abs=1e-7)
    assert result["winding"] == pytest.approx(1.0, abs=1e-7)


def test_spectrum_command_round_trips_config():
    cfg = build_config(
        ["spectrum", "--manifold", "ring", "--points", "128", "--epsilon", "0.05", "--levels", "2"]
    )
    artifact = run(cfg)
    restored = RunConfig.from_dict(artifact["config"])
    assert restored == cfg
    assert artifact["result"]["levels"][1] == pytest.approx(0.5, rel=0.02)


def test_sphere_levels_ignore_complex_pairs_below_them(capsys):
    # a complex pair lies at index 148 of the 200 requested eigenvalues; the
    # nine levels use only the first 37
    argv = ["spectrum", "--manifold", "sphere", "--n-theta", "48", "--n-phi", "96",
            "--epsilon", "0.08", "--levels", "9", "--group-tol", "0.05"]
    assert main(argv) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["degeneracies"][:4] == [1, 3, 5, 7]


def test_geodesic_csv_render():
    cfg = build_config(
        [
            "geodesic",
            "--chart",
            "builtin:polar",
            "--q0",
            "1.2,0.3",
            "--qdot0",
            "0.4,0.2",
            "--t1",
            "0.2",
            "--step",
            "0.05",
            "--format",
            "csv",
        ]
    )
    text = render(cfg, run(cfg))
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "t,q1,q2,qdot1,qdot2,energy"
    assert len(lines) == 2 + 5
    embedded = json.loads(lines[0].split("=", 1)[1])
    assert RunConfig.from_dict(embedded) == cfg


def test_variation_command():
    cfg = build_config(
        [
            "variation",
            "--chart",
            "builtin:synthetic_torsion",
            "--q0",
            "0.1,0.2",
            "--qdot0",
            "1.0,0.7",
            "--t1",
            "1.0",
            "--step",
            "0.01",
            "--deltaq",
            "0.3*t*(1-t); -0.2*t*(1-t)",
        ]
    )
    result = run(cfg)["result"]
    final = np.asarray(result["final_closure_defect"])
    assert np.max(np.abs(final)) > 1e-3


def test_repeated_runs_byte_identical():
    cfg = build_config(["tensors", "--chart", "builtin:sphere", "--at", "0.9,0.4"])
    a = render(cfg, run(cfg))
    b = render(cfg, run(cfg))
    assert a == b


def test_cli_subprocess_deterministic(tmp_path):
    argv = [
        sys.executable,
        "-m",
        "torsionlab.cli",
        "spectrum",
        "--manifold",
        "ring",
        "--points",
        "128",
        "--epsilon",
        "0.05",
        "--levels",
        "2",
    ]
    out1 = subprocess.run(argv, capture_output=True, check=True).stdout
    out2 = subprocess.run(argv, capture_output=True, check=True).stdout
    assert out1 == out2 and len(out1) > 0


def test_exit_codes(tmp_path, capsys):
    # missing chart file -> validation
    code = main(["tensors", "--chart", str(tmp_path / "nope.json"), "--at", "1,1"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["exit_code"] == EXIT_VALIDATION
    # guard-excluded point -> numeric failure
    code = main(["tensors", "--chart", "builtin:dislocation", "--at", "0,0"])
    assert code == EXIT_NUMERIC
    # happy path -> 0 and artifact written
    out = tmp_path / "out.json"
    code = main(["tensors", "--chart", "builtin:polar", "--at", "1.0,0.2", "-o", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["chart"] == "builtin:polar"


def test_omitted_options_take_run_config_defaults():
    assert build_config(["amplitude"]) == RunConfig(command="amplitude")
    cfg = build_config(["tensors", "--chart", "builtin:polar", "--at", "1,0.2"])
    assert cfg == RunConfig(command="tensors", chart="builtin:polar", at=(1.0, 0.2))


NEGATIVE_LISTS = [
    (["geodesic", "--chart", "builtin:cartesian", "--q0", "-1,0", "--qdot0", "1,0", "--t1", "0.01"],
     "q0", (-1.0, 0.0)),
    (["tensors", "--chart", "builtin:cartesian", "--at", "-0.5,1"], "at", (-0.5, 1.0)),
    (["autoparallel", "--chart", "builtin:cartesian", "--q0", "1,0", "--qdot0", "-1e-1,-2",
      "--t1", "0.01"], "qdot0", (-0.1, -2.0)),
]


@pytest.mark.parametrize("argv, field, value", NEGATIVE_LISTS)
def test_negative_coordinate_lists_are_values(capsys, argv, field, value):
    assert getattr(build_config(argv), field) == value
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


POLAR_FILE = {"dim": 2, "kind": "map", "exprs": ["q1*cos(q2)", "q1*sin(q2)"], "guard": "q1"}
GEODESIC = ["geodesic", "--chart", "builtin:polar", "--q0", "1,0", "--qdot0", "1,1"]
SUPERSCRIPTS = {"superscript-digit": "2\u00b2", "point-superscript": ".\u00b2"}  # str.isdigit
MALFORMED = {  # polar chart files with one field the chart rejects, and what its error names
    "null-param": ({"params": {"a": None}}, "chart params"),
    "listed-params": ({"params": ["a"]}, "chart params"),
    "string-param": ({"params": {"a": "abc"}}, "chart params"),
    "coordinate-param": ({"params": {"q1": 5}}, "names other than ('q1', 'q2')"),
    "numeric-exprs": ({"exprs": 5}, "chart exprs"),
    "boolean-dim": ({"dim": True}, "chart dim"),
    "numeric-expr-entry": ({"exprs": [1, "q1*sin(q2)"]}, "chart expression"),
    "numeric-guard": ({"guard": 1}, "chart guard"),
    "boolean-guard": ({"guard": True}, "chart guard"),
    "numeric-name": ({"name": 7}, "chart name"),
}


@pytest.mark.parametrize(
    "argv, error_type, code, mentions",
    [
        (["tensors", "--chart", "builtin:polar"], "ValidationError", EXIT_VALIDATION, "--at"),
        (["geodesic", "--chart", "builtin:polar", "--q0", "1,x", "--qdot0", "1,1"],
         "ValidationError", EXIT_VALIDATION, "--q0"),
        (GEODESIC + ["--step", "abc"], "ValidationError", EXIT_VALIDATION, "--step"),
        (["tensors", "--chart", "builtin:sphere", "--at", "1,1", "--param", "r"],
         "ValidationError", EXIT_VALIDATION, "--param"),
        (["tensors", "--chart", "builtin:polar", "--at", "1,1", "--source", "weyl"],
         "ValidationError", EXIT_VALIDATION, "weyl"),
        (["tensors", "--chart", "builtin:nope", "--at", "1,1"],
         "ValidationError", EXIT_VALIDATION, "nope"),
        (["tensors", "--chart", "{chart}", "--at", "1,1", "--param", "r=2"],
         "ValidationError", EXIT_VALIDATION, "['r']"),
        (["burgers", "--chart", "builtin:dislocation", "--loop", "{no_vertices}"],
         "ValidationError", EXIT_VALIDATION, "no_vertices.json"),
        (["burgers", "--chart", "builtin:dislocation", "--loop", "{flat_list}"],
         "ValidationError", EXIT_VALIDATION, "flat_list.json"),
        (["tensors", "--chart", "builtin:dislocation", "--at", "0,0"],
         "SingularPointError", EXIT_NUMERIC, "guard"),
        (GEODESIC + ["--t1", "inf"], "ValidationError", EXIT_VALIDATION, "(0.0, inf)"),
        (GEODESIC + ["--t1", "nan"], "ValidationError", EXIT_VALIDATION, "(0.0, nan)"),
        (["amplitude", "--manifold", "ring", "--epsilon", "nan"],
         "ValidationError", EXIT_VALIDATION, "epsilon=nan"),
        (["spectrum", "--manifold", "ring", "--mass", "inf"],
         "ValidationError", EXIT_VALIDATION, "mass=inf"),
        (["amplitude", "--manifold", "ring", "--radius", "0"],
         "ValidationError", EXIT_VALIDATION, "radius=0.0"),
        (["amplitude", "--manifold", "ring", "--radius", "nan"],
         "ValidationError", EXIT_VALIDATION, "radius=nan"),
        (["amplitude", "--manifold", "ring", "--radius", "-1"],
         "ValidationError", EXIT_VALIDATION, "radius=-1.0"),
        (["amplitude", "--manifold", "ring", "--radius", "inf"],
         "ValidationError", EXIT_VALIDATION, "radius=inf"),
        (["spectrum", "--manifold", "sphere", "--n-theta", "7"],
         "ValidationError", EXIT_VALIDATION, "n_theta=7"),
        (["geodesic", "--chart", "builtin:polar", "--q0", "1,0", "--qdot0", "inf,1", "--t1", "1"],
         "ValidationError", EXIT_VALIDATION, "velocity must be finite"),
        (["geodesic", "--chart", "builtin:cartesian", "--q0", "nan,0", "--qdot0", "1,1",
          "--t1", "0.01", "--step", "0.005"], "NonFiniteError", EXIT_VALIDATION, "not finite"),
        (["tensors", "--chart", "builtin:cartesian", "--at", "inf,0"],
         "NonFiniteError", EXIT_VALIDATION, "[inf, 0.0] is not finite"),
        (["geodesic", "--chart", "builtin:polar", "--q0", "nan,0", "--qdot0", "1,1", "--t1", "0.01"],
         "NonFiniteError", EXIT_VALIDATION, "not finite"),
        (["burgers", "--chart", "builtin:dislocation", "--loop", "{nan_vertex}"],
         "NonFiniteError", EXIT_VALIDATION, "loop vertices must be finite"),
        (["burgers", "--chart", "builtin:dislocation", "--loop", "{through_origin}"],
         "SingularPointError", EXIT_NUMERIC, "guard"),
        (["spectrum", "--manifold", "ring", "--group-tol", "nan"],
         "ValidationError", EXIT_VALIDATION, "group_tol"),
        (["spectrum", "--manifold", "ring", "--group-tol", "-1"],
         "ValidationError", EXIT_VALIDATION, "group_tol"),
        (["spectrum", "--manifold", "sphere", "--n-theta", "48", "--n-phi", "96",
          "--ladder", "0.08,0.04,0.02"],
         "MultipletMismatchError", EXIT_NUMERIC, "eps 0.02: (1, 2, 1, 2)"),
        (["tensors", "--chart", "{overflow}", "--at=-1.7509112730905815e-126,0.8198969239343383"],
         "EvaluationError", EXIT_NUMERIC, "'exp(((a * q1) ^ -3))': OverflowError"),
        (["geodesic", "--chart", "{overflow_1d}", "--q0", "0.01", "--qdot0", "1", "--t1", "0.1"],
         "EvaluationError", EXIT_NUMERIC, "OverflowError"),  # in the integrator's first stage
        *((["tensors", "--chart", "{%s}" % name, "--at", "1,0.2"], "ExpressionParseError",
           EXIT_VALIDATION, "nested too deeply") for name in DEEP),
        *((["tensors", "--chart", "{%s}" % name, "--at", "1,0.2"], "ExpressionParseError",
           EXIT_VALIDATION, "bad number literal") for name in SUPERSCRIPTS),
        *((["tensors", "--chart", "{%s}" % name, "--at", "1,0.2"], "ValidationError",
           EXIT_VALIDATION, mentions) for name, (_, mentions) in MALFORMED.items()),
        (["tensors", "--chart", "{listed-params}", "--at", "1,0.2", "--param", "a=1"],
         "ValidationError", EXIT_VALIDATION, "chart params"),
        (["tensors", "--chart", "builtin:sphere", "--at", "1,0.2", "--param", "r=nan"],
         "ValidationError", EXIT_VALIDATION, "to finite numbers, got {'r': nan}"),
    ],
    ids=["missing-option", "malformed-floats", "malformed-float", "bad-param", "bad-choice",
         "unknown-builtin", "unknown-file-param", "loop-without-vertices", "loop-flat-list",
         "guard-rejected", "infinite-t1", "nan-t1", "nan-epsilon", "infinite-mass", "zero-radius",
         "nan-radius", "negative-radius", "infinite-radius", "sparse-sphere", "infinite-qdot0",
         "nan-q0-unguarded", "infinite-at", "nan-q0-guarded", "nan-loop-vertex",
         "loop-through-origin", "nan-group-tol", "negative-group-tol", "unlike-multiplets",
         "taylor-overflow", "integrator-overflow", *(f"{name}-3000-deep" for name in DEEP),
         *SUPERSCRIPTS, *MALFORMED, "listed-params-overridden", "nan-param"],
)
def test_every_error_is_one_json_line(tmp_path, capsys, argv, error_type, code, mentions):
    files = {
        "chart": write_json(tmp_path / "polar.json", POLAR_FILE),
        "no_vertices": write_json(tmp_path / "no_vertices.json", {"verts": [[1, 1], [1, 1]]}),
        "flat_list": write_json(tmp_path / "flat_list.json", [1, 2, 3]),
        "nan_vertex": write_json(tmp_path / "nan_vertex.json",
                                 [[1, 1], [-1, 1], [math.nan, -1], [1, -1], [1, 1]]),
        "through_origin": write_json(tmp_path / "through_origin.json",  # a node at the origin
                                     {"vertices": [[-1, 0], [1, 0], [1, 1], [-1, 1], [-1, 0]],
                                      "samples_per_edge": 9}),
        "overflow": write_json(tmp_path / "overflow.json",  # (a q1)^-3 overflows a float there
                               {"dim": 2, "kind": "triad", "params": {"a": 0.7, "b": -1.3},
                                "exprs": ["-2", "-(0.5 + q1)", "exp(((a * q1) ^ -3))", "-(3 ^ b)"]}),
        "overflow_1d": write_json(tmp_path / "overflow_1d.json",
                                  {"dim": 1, "kind": "triad", "exprs": ["1 + q1^-200"]}),
        **{name: write_json(tmp_path / f"{name}.json", {"dim": 2, "kind": "map", "exprs": [
            f"q1*cos(q2) + {source}", "q1*sin(q2)"]}) for name, source in DEEP.items()},
        **{name: write_json(tmp_path / f"{name}.json", {"dim": 2, "kind": "map", "exprs": [
            f"{source}*cos(q2)", "q1*sin(q2)"]}) for name, source in SUPERSCRIPTS.items()},
        **{name: write_json(tmp_path / f"{name}.json", {**POLAR_FILE, **field})
           for name, (field, _) in MALFORMED.items()},
    }
    assert main([arg.format(**files) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["type"], error["exit_code"]) == (error_type, code)
    assert mentions in error["message"]


def test_run_config_round_trip_all_commands(tmp_path):
    loop = write_json(tmp_path / "loop.json", [[1, 1], [-1, 1], [-1, -1], [1, -1], [1, 1]])
    examples = [
        ["tensors", "--chart", "builtin:polar", "--at", "1.0,0.2", "--source", "cartan"],
        ["geodesic", "--chart", "builtin:sphere", "--q0", "1,0", "--qdot0", "0.3,0.4"],
        ["autoparallel", "--chart", "builtin:synthetic_torsion", "--q0", "0,0", "--qdot0", "1,1"],
        ["burgers", "--chart", "builtin:dislocation", "--loop", loop],
        ["amplitude", "--manifold", "ring", "--points", "64", "--epsilon", "0.08"],
        ["spectrum", "--manifold", "sphere", "--n-theta", "16", "--n-phi", "32", "--ladder", "0.1,0.05"],
    ]
    for argv in examples:
        cfg = build_config(argv)
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
