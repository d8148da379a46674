import json
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
from torsionlab.charts import load_chart
from torsionlab.errors import DimensionMismatchError, ExpressionParseError


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
    ],
    ids=["missing-option", "malformed-floats", "malformed-float", "bad-param", "bad-choice",
         "unknown-builtin", "unknown-file-param", "loop-without-vertices", "loop-flat-list",
         "guard-rejected", "infinite-t1", "nan-t1", "nan-epsilon", "infinite-mass", "zero-radius",
         "nan-radius", "negative-radius", "infinite-radius", "sparse-sphere", "infinite-qdot0"],
)
def test_every_error_is_one_json_line(tmp_path, capsys, argv, error_type, code, mentions):
    files = {
        "chart": write_json(tmp_path / "polar.json", POLAR_FILE),
        "no_vertices": write_json(tmp_path / "no_vertices.json", {"verts": [[1, 1], [1, 1]]}),
        "flat_list": write_json(tmp_path / "flat_list.json", [1, 2, 3]),
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
