"""CLI pipeline: spec JSON in/out, determinism, composability."""

import json
import math

import numpy as np
import pytest

from minsurf.cli import main, parse_complex


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    raise RuntimeError("use the fixture")


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(argv, stdin=""):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err
    return run


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("i") == 1j
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("1e-3-2.5i") == 1e-3 - 2.5j
    with pytest.raises(ValueError):
        parse_complex("nope")


def test_catalog_list_and_show(cli):
    code, out, _ = cli(["catalog", "list"])
    assert code == 0 and "helicoid" in out
    code, out, _ = cli(["catalog", "show", "helicoid"])
    assert code == 0
    spec = json.loads(out)
    assert spec["weierstrass"]["G"] == "exp(z)"
    assert spec["weierstrass"]["Psi"] == "-i*exp(-z)"


def test_unknown_catalog_entry_errors(cli):
    code, _, err = cli(["catalog", "show", "mystery"])
    assert code == 1
    assert json.loads(err)["error"] == "KeyError"


def test_deform_pipeline_verify(cli):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1+2i"],
                         stdin=spec)
    d = json.loads(deformed)
    assert len(d["curve"]) == 4
    code, report, _ = cli(["verify", "--res", "17x17"], stdin=deformed)
    assert code == 0
    rep = json.loads(report)
    assert rep["is_null"]
    assert rep["relative_residual"] <= 1e-9
    assert rep["degeneracy_rank"] == 3


def test_identity_pipeline_round_trips(cli):
    _, spec, _ = cli(["catalog", "show", "catenoid-exp"])
    _, sampled1, _ = cli(["sample", "--res", "9x9"], stdin=spec)
    _, sampled2, _ = cli(["sample", "--res", "9x9"], stdin=spec)
    assert sampled1 == sampled2  # byte-identical reruns


def test_deform_requires_weierstrass_for_scaling(cli):
    _, spec, _ = cli(["catalog", "show", "lagrangian-catenoid"])
    code, _, err = cli(["deform", "--kind", "lopez-ros", "--lambda", "2"],
                       stdin=spec)
    assert code == 1
    assert "Weierstrass" in json.loads(err)["message"]


def test_deform_dimension_guard(cli):
    _, spec, _ = cli(["catalog", "show", "lagrangian-catenoid"])
    code, _, err = cli(["deform", "--kind", "goursat", "--t", "0.5"],
                       stdin=spec)
    assert code == 1


def test_parabolic_composability(cli):
    # applying --kind parabolic twice with c equals once with 2c
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, once, _ = cli(["deform", "--kind", "parabolic", "--c", "0.6+0.4i"],
                     stdin=spec)
    _, twice, _ = cli(["deform", "--kind", "parabolic", "--c", "0.6+0.4i"],
                      stdin=once)
    _, direct, _ = cli(["deform", "--kind", "parabolic", "--c", "1.2+0.8i"],
                       stdin=spec)
    _, s1, _ = cli(["sample", "--res", "9x9", "--base-point", "0+0i"],
                   stdin=twice)
    _, s2, _ = cli(["sample", "--res", "9x9", "--base-point", "0+0i"],
                   stdin=direct)
    p1 = np.array(json.loads(s1)["points"], dtype=float)
    p2 = np.array(json.loads(s2)["points"], dtype=float)
    assert np.max(np.abs(p1 - p2)) <= 1e-10


def test_slice_fit_hyperbola(cli):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1+0i"],
                         stdin=spec)
    _, csv, _ = cli(["slice", "--axis", "3", "--value", "0.3",
                     "--npoints", "60", "--sweep=-1.2:1.2"], stdin=deformed)
    header = csv.splitlines()[0]
    assert header.startswith("x,y,X0")
    code, fitted, _ = cli(["fit"], stdin=csv)
    assert code == 0
    rep = json.loads(fitted)
    assert rep["classification"] == "hyperbola"
    assert rep["residual"] <= 1e-9


def test_slice_fit_line_case(cli):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1+0i"],
                         stdin=spec)
    _, csv, _ = cli(["slice", "--axis", "3", "--value", "0",
                     "--npoints", "40", "--sweep=-1:1"], stdin=deformed)
    _, fitted, _ = cli(["fit"], stdin=csv)
    assert json.loads(fitted)["classification"] == "line"


def test_corollary_kind(cli):
    _, spec, _ = cli(["catalog", "show", "catenoid-exp"])
    code, out, _ = cli(["deform", "--kind", "corollary53", "--theta",
                        str(math.pi / 4)], stdin=spec)
    assert code == 0
    assert len(json.loads(out)["curve"]) == 4


def test_export_writes_mesh(cli, tmp_path):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    target = tmp_path / "h.obj"
    code, _, _ = cli(["export", "--res", "5x5", "--output", str(target)],
                     stdin=spec)
    assert code == 0
    assert target.read_text().count("v ") == 25


def test_segre_kind_preserves_nullity(cli):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, out, _ = cli(["deform", "--kind", "segre", "--L", "1", "--R", "i"],
                    stdin=spec)
    _, report, _ = cli(["verify", "--res", "9x9"], stdin=out)
    assert json.loads(report)["is_null"]


def test_error_is_machine_readable(cli):
    code, _, err = cli(["verify", "--res", "9x9"], stdin="{not json")
    assert code == 1
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}


def test_constant_singularity_is_machine_readable(cli):
    # 0^(-1) is left to evaluation, not folded (and raised) by the parser
    code, _, err = cli(["verify", "--res", "9x9"],
                       stdin='{"curve": ["0^(-1)", "1", "i"]}')
    assert code == 1
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "EvaluationSingularity"


@pytest.mark.parametrize("spec", [
    '[1]',
    '{"curve": 5}',
    '{"curve": ["1", 2, "0"]}',
    '{"weierstrass": {"G": 1, "Psi": "z"}}',
    '{"weierstrass": "z"}',
    '{"curve": ["1", "i", "0"], "domain": {"punctures": [5]}}',
    '{"curve": ["1", "i", "0"], "domain": {"rect": [0, 1]}}',
    '{"curve": ["1", "i", "0"], "domain": {"branch_cut": "pi"}}',
    '{"curve": ["1", "i", "0"], "domain": [0, 1, 0, 1]}',
    '{"curve": ["1", "i", "0"], "base_point": 3}',
])
def test_malformed_spec_is_machine_readable(cli, spec):
    code, out, err = cli(["verify", "--res", "9x9"], stdin=spec)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("axis", ["9", "-1"])
def test_slice_axis_out_of_range_is_machine_readable(cli, axis):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    code, _, err = cli(["slice", f"--axis={axis}", "--value", "0.3"],
                       stdin=spec)
    assert code == 1
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValueError"


def test_unexpected_exception_is_internal_error(cli, monkeypatch):
    import minsurf.cli as cli_mod

    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli_mod, "_cmd_fit", broken)
    code, out, err = cli(["fit"], stdin="x,y\n")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "InternalError",
                               "message": "ZeroDivisionError: division by zero"}


@pytest.mark.parametrize("argv", [
    ["slice", "--axis", "x", "--value", "0"],   # a bad flag value
    [],                                         # no subcommand
    ["deform", "--kind", "bogus"],              # a kind not in the choices
])
def test_malformed_flags_are_machine_readable(cli, argv):
    code, out, err = cli(argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValueError"


def test_help_still_exits_zero(cli):
    with pytest.raises(SystemExit) as exit_info:
        cli(["--help"])
    assert exit_info.value.code == 0


@pytest.mark.filterwarnings("error")   # a numpy warning would not be one line
@pytest.mark.parametrize("csv", ["x,y,X0\n1,2\n", "x,y,X0,X1\n",
                                 "x,y,X0,X1\n1,2,3,4\n1,2,3\n"])
def test_malformed_fit_csv_is_machine_readable(cli, csv):
    code, out, err = cli(["fit"], stdin=csv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_fit_names_a_non_finite_coordinate(cli, token):
    csv = f"x,y,X0,X1\n1,2,3,4\n1,3,{token},1\n1,4,5,4\n2,3,3,3\n"
    code, out, err = cli(["fit"], stdin=csv)
    assert code == 1 and out == "" and err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert "row 2" in report["message"] and report["message"].endswith(token)
