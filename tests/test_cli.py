"""CLI pipeline: spec JSON in/out, determinism, composability."""

import io
import json
import math
import sys

import numpy as np
import pytest

from minsurf import catalog, specio
from minsurf.cli import main, parse_complex
from minsurf.surface import conformal_factor, immerse, load_obj_vertices
from minsurf.transforms import associate, goursat, lawson, lopez_ros


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
    assert parse_complex("-i") == -1j
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


_PERIODIC = ('{"curve": ["i/z", "1/z", "0"], "domain": {"rect": [-1.5, 1.5, '
             '-1.5, 1.5], "punctures": [[0, 0]]}, "base_point": [1, 0]}')


@pytest.mark.parametrize("spec, period", [
    (_PERIODIC, [-2 * math.pi, 0.0, 0.0]),
    ('{"weierstrass": {"G": "z", "Psi": "1/z^2"}, "domain": {"rect": '
     '[-1.5, 1.5, -1.5, 1.5], "punctures": [[0, 0]]}, "base_point": [1, 0]}',
     [0.0, 0.0, 0.0]),
    ('{"weierstrass": {"G": "exp(z)", "Psi": "-i*exp(-z)"}}', [0.0, 0.0, 0.0]),
    ('{"curve": ["log(z)", "i*log(z)", "0"], "domain": {"rect": '
     '[0.5, 1, 0.5, 1]}}', None),
])
def test_verify_reports_the_real_period(cli, spec, period):
    code, report, _ = cli(["verify", "--res", "17x17"], stdin=spec)
    assert code == 0
    assert json.loads(report)["real_period"] == period


_OVERFLOWING = ('{"curve": ["-1", "1e-300", "1e200"], '
                '"domain": {"rect": [0, 3, 0, 3]}}')


def test_verify_of_an_overflowing_curve_is_not_null(cli):
    # the squares of 1e200 overflow; the report says so rather than null
    code, report, _ = cli(["verify", "--res", "9x9"], stdin=_OVERFLOWING)
    assert code == 0
    rep = json.loads(report)
    assert rep["is_null"] is False
    assert rep["null_residual"] == rep["normalizer"] == math.inf
    assert math.isnan(rep["minimality"]["conformality_defect"])


@pytest.mark.filterwarnings("error")
def test_a_successful_verify_writes_nothing_to_stderr(capfd, monkeypatch):
    # stderr is the one-line JSON error channel: numpy's overflow warnings
    # on the overflowing curve would be noise on a successful run
    monkeypatch.setattr(sys, "stdin", io.StringIO(_OVERFLOWING))
    assert main(["verify", "--res", "9x9"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert json.loads(out)["is_null"] is False


def test_verify_gives_a_hyperplane_only_for_rank_n_minus_1(cli):
    _, spec, _ = cli(["catalog", "show", "lagrangian-catenoid"])
    _, report, _ = cli(["verify", "--res", "9x9"], stdin=spec)
    rep = json.loads(report)
    assert rep["degeneracy_rank"] == 2 and "hyperplane" not in rep
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1+2i"],
                         stdin=spec)
    _, report, _ = cli(["verify", "--res", "9x9"], stdin=deformed)
    rep = json.loads(report)
    assert rep["degeneracy_rank"] == 3 and len(rep["hyperplane"]) == 4


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
    ["deform", "--kind", "associate", "--res", "9x9"],  # a flag deform lacks
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


@pytest.mark.parametrize("domain", [
    '{"rect": [-1, Infinity, -1, 1]}',
    '{"rect": [-1, 1, -1, 1], "punctures": [[NaN, 0]]}',
    '{"rect": [-1, 1, -1, 1], "branch_cut": -Infinity}',
])
def test_non_finite_domain_is_machine_readable(cli, domain):
    # json accepts Infinity and NaN; the domain must refuse them (an
    # infinite rectangle made the Halton sampling loop forever)
    spec = f'{{"curve": ["1", "i", "0"], "domain": {domain}}}'
    code, out, err = cli(["verify", "--res", "9x9"], stdin=spec)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "ValueError" and "finite" in report["message"]


@pytest.mark.parametrize("argv, make", [
    (["--kind", "lopez-ros", "--lambda", "2"],
     lambda s: specio.SurfaceSpec(weierstrass=lopez_ros(s.weierstrass, 2.0),
                                  base_point=s.base_point)),
    (["--kind", "goursat", "--t", "0.5"],
     lambda s: specio.SurfaceSpec(curve=goursat(s.as_curve(), 0.5),
                                  base_point=s.base_point)),
    (["--kind", "lawson", "--alpha", "0.3", "--beta", "0.7"],
     lambda s: specio.SurfaceSpec(curve=lawson(s.as_curve(), 0.3, 0.7),
                                  base_point=s.base_point)),
    # a flag the kind reads keeps its default when it is not given
    (["--kind", "lopez-ros"],
     lambda s: specio.SurfaceSpec(weierstrass=lopez_ros(s.weierstrass, 1.0),
                                  base_point=s.base_point)),
    (["--kind", "lawson", "--beta=0.7"],
     lambda s: specio.SurfaceSpec(curve=lawson(s.as_curve(), 0.0, 0.7),
                                  base_point=s.base_point)),
    (["--kind", "associate", "--theta", "0.4"],
     lambda s: specio.SurfaceSpec(curve=associate(s.as_curve(), 0.4),
                                  base_point=s.base_point)),
])
def test_deform_kinds_match_the_library(cli, argv, make):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    code, out, _ = cli(["deform"] + argv, stdin=spec)
    assert code == 0
    assert out == specio.dumps(make(specio.loads(spec))) + "\n"


@pytest.mark.parametrize("argv, unread", [
    (["--kind", "goursat", "--c", "5+5i", "--L", "3"], "--c, --L"),
    (["--kind", "theorem51", "--c=1+2i", "--theta", "1"], "--theta"),
    (["--kind", "corollary53", "--theta=0.5", "--c=1"], "--c"),
    (["--kind", "associate", "--lambda", "2"], "--lambda"),
    (["--kind", "segre", "--L", "1", "--alpha", "0"], "--alpha"),
])
def test_deform_rejects_a_flag_its_kind_does_not_read(cli, argv, unread):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    code, out, err = cli(["deform"] + argv, stdin=spec)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert report["message"].endswith(f"does not read {unread}")


def test_export_without_output_is_machine_readable(cli):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    code, out, err = cli(["export", "--res", "5x5"], stdin=spec)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert "--output" in json.loads(err)["message"]


def test_export_projection_picks_the_axes(cli, tmp_path):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1+2i"],
                         stdin=spec)
    target = tmp_path / "p.obj"
    code, _, _ = cli(["export", "--res", "5x5", "--projection", "0,2,3",
                      "--base-point", "0", "--output", str(target)],
                     stdin=deformed)
    assert code == 0
    patch = immerse(specio.loads(deformed).as_curve(), zeta0=0, res=(5, 5))
    want = patch.points[:, :, [0, 2, 3]].reshape(-1, 3)
    np.testing.assert_allclose(load_obj_vertices(target), want,
                               rtol=1e-8, atol=1e-12)


_HELICOID = '{"weierstrass": {"G": "exp(z)", "Psi": "-i*exp(-z)"}}'
_PUNCTURED = ('{"weierstrass": {"G": "z", "Psi": "1/z^2"}, "domain": '
              '{"rect": [-1.5, 1.5, -1.5, 1.5], "punctures": [[0, 0]]}}')
_CORNERS = "x,y,X0,X1,X2\n" + "0,0,1,1,0\n0,0,1,-1,0\n0,0,-1,-1,0\n0,0,-1,1,0\n" * 3


@pytest.mark.parametrize("argv, stdin, error, fragment", [
    (["fit"], _CORNERS, "IllConditioned", "ambiguous"),
    (["sample", "--res", "9x9", "--base-point", "2"], _PUNCTURED,
     "ValueError", "outside the domain"),
    (["sample", "--res", "9x9", "--base-point", "0.1"], _PUNCTURED,
     "ValueError", "masked by a puncture"),
    (["verify", "--res", "5x5", "--base-point", "1.5+1.5i"], _PUNCTURED,
     "ValueError", "no interior points"),
    (["export", "--res", "5x5", "--projection", "0,1", "--output", "{out}"],
     _HELICOID, "ValueError", "projection"),
    (["export", "--format", "stl", "--output", "{out}"], _HELICOID,
     "ValueError", "invalid choice"),
    (["deform", "--kind", "lopez-ros", "--lambda", "0"], _HELICOID,
     "ValueError", "positive"),
    (["deform", "--kind", "lawson"], '{"curve": ["0", "1", "i", "0"]}',
     "DimensionMismatch", "3-component"),
    (["sample", "--res", "1x5"], _HELICOID, "ValueError", "2x2"),
    (["verify"], '{"curve": ["1", "i", "0"], "domain": {"rect": [1, 1, 0, 1]}}',
     "ValueError", "degenerate"),
    (["verify"], '{"domain": {}}', "ValueError", "exactly one"),
    (["verify"], '{"curve": ["1", "i", "0"], "weierstrass": {"G": "z", '
     '"Psi": "1"}}', "ValueError", "exactly one"),
    (["verify"], '{"curve": ["1.2.3*z", "i", "0"]}', "ParseError",
     "offset 3"),
    (["verify"], '{"curve": ["z)", "i", "0"]}', "ParseError", "trailing"),
    (["verify"], '{"curve": ["(z", "i", "0"]}', "ParseError", "')'"),
    (["verify"], '{"curve": ["exp z", "i", "0"]}', "ParseError", "'('"),
    (["verify"], '{"curve": ["", "i", "0"]}', "ParseError", "end of input"),
    (["sample", "--res", "64"], _HELICOID, "ValueError", "64x64"),
    # the stem from the base point to the grid point 0 passes the puncture
    (["export", "--res", "21x21", "--base-point", "0.049+0.049i",
      "--output", "{out}"], '{"weierstrass": {"G": "exp(z)", "Psi": '
     '"exp(-z)"}, "domain": {"rect": [-1, 1, -1, 1], "punctures": '
     '[[0.15, 0.1]]}}', "ValueError", "masked by a puncture"),
])
def test_library_errors_are_machine_readable(cli, tmp_path, argv, stdin,
                                             error, fragment):
    out_file = tmp_path / "out"
    argv = [a.replace("{out}", str(out_file)) for a in argv]
    code, out, err = cli(argv, stdin=stdin)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == error
    assert fragment in report["message"]
    assert not out_file.exists()


@pytest.mark.parametrize("argv, stdin", [
    (["catalog", "show", "helicoid"], ""),
    (["deform", "--kind", "theorem51", "--c", "1+2i"], _HELICOID),
    (["fit"], "x,y,X0,X1,X2\n" + "".join(
        f"0,0,{t},{t * t},{1 - t}\n" for t in range(-4, 5))),
])
def test_input_and_output_files_match_the_streams(cli, tmp_path, argv,
                                                 stdin):
    code, streamed, _ = cli(argv, stdin=stdin)
    assert code == 0 and streamed
    source, target = tmp_path / "in", tmp_path / "out"
    source.write_text(stdin)
    files = ["--output", str(target)]
    if argv[0] != "catalog":   # catalog reads no input
        files += ["--input", str(source)]
    code, out, _ = cli(argv + files, stdin="not read")
    assert code == 0 and out == ""
    assert target.read_bytes() == streamed.encode()


@pytest.mark.parametrize("u0", [0.0, 0.5, 1.0])
def test_complex_parabola_slices_fit_the_closed_form(cli, u0):
    # fixed-u slices of the graph of z^2 (base point 0, so X0 = u) are
    # parabolas with a known leading coefficient
    _, spec, _ = cli(["catalog", "show", "complex-parabola"])
    code, csv, _ = cli(["slice", "--axis", "0", "--value", str(u0)],
                       stdin=spec)
    assert code == 0
    code, fitted, _ = cli(["fit"], stdin=csv)
    rep = json.loads(fitted)
    assert code == 0 and rep["classification"] == "parabola"
    want = catalog.parabola_leading_coefficient(1.0, u0)
    assert abs(rep["leading_coefficient"] - want) <= 1e-9


def test_sample_reports_the_conformal_factor_at_valid_cells(cli):
    code, out, _ = cli(["sample", "--res", "9x9", "--base-point", "1"],
                       stdin=_PUNCTURED)
    assert code == 0
    got = json.loads(out)
    null = np.array([[p is None for p in row] for row in got["conformal"]])
    points = np.array(got["points"], dtype=float)
    assert np.array_equal(np.isnan(points).any(axis=2), null)
    assert np.array_equal(np.isnan(points).all(axis=2), null)
    assert null.any() and not null.all()
    u, v = np.array(got["u"]), np.array(got["v"])
    zz = (u[:, None] + 1j * v[None, :])[~null]
    curve = specio.loads(_PUNCTURED).as_curve()
    conformal = np.array([p for row in got["conformal"] for p in row
                          if p is not None])
    assert np.array_equal(conformal, conformal_factor(curve, zz))


_ZERO_CURVE = '{"curve": ["0", "0", "0"]}'
_LINE = '{"curve": ["1", "i", "0"]}'


@pytest.mark.filterwarnings("error")   # a numpy warning would not be one line
@pytest.mark.parametrize("argv, stdin, error, fragment", [
    (["verify"], _ZERO_CURVE, "ValueError", "no interior points"),
    (["verify", "--res", "9x9"], '{"curve": ["1e400*z", "i", "0"]}',
     "InvalidConstant", "not finite"),
    (["deform", "--kind", "associate", "--theta", "0.4"],
     '{"curve": ["1e400*z", "i", "0"]}', "InvalidConstant", "not finite"),
    (["verify", "--res", "9x9"], '{"curve": ["1e200*1e200*z", "i", "0"]}',
     "EvaluationSingularity", "1e+200*1e+200*z"),
    (["deform", "--kind", "parabolic", "--c", "1e200"], _HELICOID,
     "InvalidConstant", "not finite"),
    (["deform", "--kind", "theorem51", "--c", "1e200"], _HELICOID,
     "InvalidConstant", "not finite"),
] + [([cmd, f"--tol={tol}", *flags], _LINE, "ValueError", "positive and finite")
     for tol in ("nan", "-1", "0", "inf")
     for cmd, flags in (("verify", ["--res", "9x9"]),
                        ("slice", ["--axis", "0", "--value", "0"]))] + [
    (["deform", "--kind", "goursat", "--t", "1000"], _HELICOID,
     "InvalidConstant", "beyond float range"),
    (["deform", "--kind", "goursat", "--t=-800"], _HELICOID,
     "InvalidConstant", "beyond float range"),
    (["verify", "--res", "9x9", "--seed", "-3"], _LINE, "ValueError",
     "non-negative"),
] + [(["deform", "--kind", kind, f"--{flag}={value}"], _HELICOID,
      "InvalidConstant", f"{flag} must be finite, got {value}")
     for kind, flag, value in (("associate", "theta", "inf"),
                               ("associate", "theta", "nan"),
                               ("lawson", "alpha", "inf"),
                               ("lawson", "beta", "nan"),
                               ("goursat", "t", "nan"),
                               ("goursat", "t", "-inf"))] + [
    # the sweep is checked before the spec (here none) is read
    (["slice", "--axis", "0", "--value", "0", f"--sweep={sweep}"], "",
     "ValueError", f"--sweep must be lo:hi, two finite numbers, got "
     f"'{sweep}'")
    for sweep in ("inf:1", "nan:1", "1", "1:2:3", "a:1", "")])
def test_degenerate_and_non_finite_inputs_are_machine_readable(
        cli, argv, stdin, error, fragment):
    code, out, err = cli(argv, stdin=stdin)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == error
    assert fragment in report["message"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_lopez_ros_lambda_is_named(cli, value):
    code, out, err = cli(["deform", "--kind", "lopez-ros",
                          f"--lambda={value}"], stdin=_HELICOID)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "InvalidConstant",
                               "message": f"lambda must be finite, got {value}"}


def test_a_sweep_that_cannot_be_evaluated_names_itself_and_the_rectangle(
        cli):
    # e^{+-z} overflows 1000 units off the rectangle, and the exact route
    # and the quadrature both refuse the line; 3 units off, it evaluates
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1+0i"],
                         stdin=spec)
    slice_ = ["slice", "--axis", "3", "--value", "0.3"]
    code, out, err = cli(slice_ + ["--sweep=-1e3:1e3"], stdin=deformed)
    assert code == 1 and out == "" and err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "SingularPath"
    assert report["message"].startswith("sweep -1000:1000 of u at v = ")
    assert "rectangle is [-1.5, 1.5] x [-1.5, 1.5]" in report["message"]
    code, out, _ = cli(slice_ + ["--sweep=-3:3"], stdin=deformed)
    assert code == 0 and len(out.splitlines()) == 101


@pytest.mark.filterwarnings("error")
def test_sample_of_an_overflowing_metric_writes_nothing_on_stderr(cli):
    # |1e200|^2 overflows in the conformal factor, which reads inf
    stdin = ('{"curve": ["2", "2", "1e200", "sinh(1)"], '
             '"domain": {"rect": [0, 1, 0, 1]}}')
    code, out, err = cli(["sample", "--res", "3x3"], stdin=stdin)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["conformal"] == [[math.inf] * 3] * 3


def test_an_overflowing_product_is_passed_on_as_written(cli):
    # 1e200*1e200 is not folded to inf: deform writes it as it reads, and
    # evaluation reports it
    stdin = '{"curve": ["1e200*1e200*z", "i", "0"]}'
    code, spec, _ = cli(["deform", "--kind", "associate", "--theta", "0.4"],
                        stdin=stdin)
    assert code == 0
    assert json.loads(spec)["curve"][0].endswith("*(1e+200*1e+200*z)")
    code, out, err = cli(["verify", "--res", "9x9"], stdin=spec)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "EvaluationSingularity"
