"""CLI pipeline: spec JSON in/out, determinism, composability.  The
``cli`` fixture (conftest) checks the stream contract on every run."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from minsurf import catalog, specio
from minsurf import expr as ex
from minsurf import surface as surface_mod
from minsurf.cli import parse_complex
from minsurf.nullcurve import embed_3_to_4
from minsurf.surface import conformal_factor, immerse
from minsurf.transforms import (apply_transform, associate, goursat, lawson,
                                lopez_ros, parabolic_deform,
                                parabolic_deform_rotated,
                                parabolic_rotation_matrix, segre_LR_matrix)

from conftest import check_streams, child_env, load_obj_vertices


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("1e-3-2.5i") == 1e-3 - 2.5j
    with pytest.raises(ValueError):
        parse_complex("nope")


@pytest.mark.parametrize("text, want", [
    ("i", 1j), ("+i", 1j), ("-i", -1j), ("1-i", 1 - 1j), (".5i", 0.5j),
    ("1.i", 1j), ("1e5+i", 1e5 + 1j), ("0i", 0j)])
def test_parse_complex_reads_a_bare_unit_and_a_bare_point(text, want):
    assert parse_complex(text) == want


@pytest.mark.parametrize("text", ["1+2", "zz", "1e", "2+i3", "", "1+2ii",
                                  "9ei", "3e-i", "1e400"])
def test_parse_complex_names_what_it_cannot_read(text):
    # '1+2' passes the character check and then fails in complex()
    with pytest.raises(ValueError) as info:
        parse_complex(text)
    assert str(info.value) == f"not a complex number: {text!r}"


@pytest.mark.parametrize("argv", [
    ["deform", "--kind", "theorem51", "--c", "1+2"],
    ["deform", "--kind", "parabolic", "--c", "1+2"],
    ["deform", "--kind", "segre", "--L", "1+2", "--R", "i"],
    ["deform", "--kind", "segre", "--L", "1", "--R", "1+2"],
    ["sample", "--res", "5x5", "--base-point", "1+2"]])
def test_a_malformed_complex_flag_is_named(cli, argv):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    assert cli.error(argv, stdin=spec) == {
        "error": "ValueError", "message": "not a complex number: '1+2'"}


def test_catalog_list_and_show(cli):
    code, out, _ = cli(["catalog", "list"])
    assert code == 0 and "helicoid" in out
    code, out, _ = cli(["catalog", "show", "helicoid"])
    assert code == 0
    spec = json.loads(out)
    assert spec["weierstrass"]["G"] == "exp(z)"
    assert spec["weierstrass"]["Psi"] == "-i*exp(-z)"


def test_unknown_catalog_entry_errors(cli):
    assert cli.error(["catalog", "show", "mystery"])["error"] == "KeyError"


def test_an_unknown_catalog_entry_is_named_without_quotes_around_it(cli):
    # a KeyError's str() would quote the message once more
    assert cli.error(["catalog", "show", "nope"]) == {
        "error": "KeyError", "message": "no catalog entry named 'nope'"}


def test_catalog_show_needs_a_name(cli):
    assert cli.error(["catalog", "show"]) == {
        "error": "ValueError",
        "message": "catalog show needs the name of an entry"}


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
    code, report, _ = cli(["verify", "--res", "33x33"], stdin=spec)
    assert code == 0
    assert json.loads(report)["real_period"] == period


_OVERFLOWING = ('{"curve": ["-1", "1e-300", "1e200"], '
                '"domain": {"rect": [0, 3, 0, 3]}}')


def test_verify_of_an_overflowing_curve_is_not_null(cli):
    # the squares of 1e200 overflow; the report says so rather than null,
    # in strict JSON: its inf and NaN fields are written null, and
    # numpy's overflow warnings would be noise on stderr
    code, report, _ = cli(["verify", "--res", "9x9"], stdin=_OVERFLOWING)
    assert code == 0
    rep = json.loads(report, parse_constant=_refuse_constant)
    assert rep["is_null"] is False
    assert rep["null_residual"] is rep["normalizer"] is None
    assert rep["relative_residual"] is None
    assert rep["minimality"]["conformality_defect"] is None


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
    report = cli.error(["deform", "--kind", "lopez-ros", "--lambda", "2"],
                       stdin=spec)
    assert "Weierstrass" in report["message"]


def test_deform_dimension_guard(cli):
    _, spec, _ = cli(["catalog", "show", "lagrangian-catenoid"])
    cli.error(["deform", "--kind", "goursat", "--t", "0.5"], stdin=spec)


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


def test_fit_of_a_line_writes_its_infinite_eccentricity_null(cli):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1"],
                         stdin=spec)
    _, csv, _ = cli(["slice", "--axis", "3", "--value", "0"], stdin=deformed)
    code, fitted, _ = cli(["fit"], stdin=csv)
    assert code == 0
    rep = json.loads(fitted, parse_constant=_refuse_constant)
    assert rep["classification"] == "line" and rep["eccentricity"] is None


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


def test_a_slice_from_an_undeclared_pole_is_a_one_line_no_convergence():
    # the default base point 0 is the pole of Psi = 1/z^2, declared as no
    # puncture: the quadrature legs from it once refined until memory ran
    # out (exit 2, InternalError: MemoryError).  A child process under a
    # 1.5 GB address-space limit (ulimit -v 1500000) runs it
    run = ("import resource, runpy, sys; limit = 1500000 * 1024; "
           "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
           "sys.argv = ['minsurf'] + sys.argv[1:]; "
           "runpy.run_module('minsurf.cli', run_name='__main__')")
    proc = subprocess.run(
        [sys.executable, "-c", run, "slice", "--axis", "4", "--value", "1e3",
         "--npoints", "20"], input='{"weierstrass": {"G": "exp(z)", '
        '"Psi": "1/z^2"}}', capture_output=True, text=True, env=child_env(),
        timeout=120)
    check_streams(proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "NoConvergence"


def test_segre_of_a_curve_with_a_zero_component_adds_no_zero_term(cli):
    # the embedded curve (z, iz, 0, 0) meets nonzero matrix entries in its
    # zero components too; each would add a "+ 0" term
    spec = '{"curve": ["z", "i*z", "0"]}'
    code, out, _ = cli(["deform", "--kind", "segre", "--L", "1", "--R", "i"],
                       stdin=spec)
    assert code == 0
    got = specio.loads(out).curve
    for comp in got.components:
        assert isinstance(comp, ex.Add)
        assert not any(isinstance(t, ex.Const) for t in (comp.a, comp.b))
    phi = embed_3_to_4(specio.loads(spec).curve)
    z = np.array([0.3 - 0.2j, -0.7 + 0.4j, 1j])
    assert np.allclose(got(z), phi(z) @ segre_LR_matrix(1, 1j).matrix.T,
                       rtol=1e-15, atol=0)


def test_error_is_machine_readable(cli):
    # the fixture checks that the line holds exactly "error" and "message"
    cli.error(["verify", "--res", "9x9"], stdin="{not json")


def test_constant_singularity_is_machine_readable(cli):
    # 0^(-1) is left to evaluation, not folded (and raised) by the parser
    report = cli.error(["verify", "--res", "9x9"],
                       stdin='{"curve": ["0^(-1)", "1", "i"]}')
    assert report["error"] == "EvaluationSingularity"


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
    assert cli.error(["verify", "--res", "9x9"], stdin=spec)["error"] == \
        "ValueError"


@pytest.mark.parametrize("axis", ["9", "-1"])
def test_slice_axis_out_of_range_is_machine_readable(cli, axis):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    report = cli.error(["slice", f"--axis={axis}", "--value", "0.3"],
                       stdin=spec)
    assert report["error"] == "ValueError"


def test_unexpected_exception_is_internal_error(cli, monkeypatch):
    import minsurf.cli as cli_mod

    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli_mod, "_cmd_fit", broken)
    code, _, err = cli(["fit"], stdin="x,y\n")
    assert code == 2
    assert json.loads(err) == {"error": "InternalError",
                               "message": "ZeroDivisionError: division by zero"}


@pytest.mark.parametrize("argv", [
    ["slice", "--axis", "x", "--value", "0"],   # a bad flag value
    [],                                         # no subcommand
    ["deform", "--kind", "bogus"],              # a kind not in the choices
    ["deform", "--kind", "associate", "--res", "9x9"],  # a flag deform lacks
])
def test_malformed_flags_are_machine_readable(cli, argv):
    assert cli.error(argv)["error"] == "ValueError"


def test_help_still_exits_zero(cli):
    with pytest.raises(SystemExit) as exit_info:
        cli(["--help"])
    assert exit_info.value.code == 0


@pytest.mark.parametrize("csv", ["x,y,X0\n1,2\n", "x,y,X0,X1\n",
                                 "x,y,X0,X1\n1,2,3,4\n1,2,3\n"])
def test_malformed_fit_csv_is_machine_readable(cli, csv):
    assert cli.error(["fit"], stdin=csv)["error"] == "ValueError"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_fit_names_a_non_finite_coordinate(cli, token):
    csv = f"x,y,X0,X1\n1,2,3,4\n1,3,{token},1\n1,4,5,4\n2,3,3,3\n"
    report = cli.error(["fit"], stdin=csv)
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
    report = cli.error(["verify", "--res", "9x9"], stdin=spec)
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
    # the helicoid's curve has 3 components: parabolic and segre embed it
    # in C^4 first
    (["--kind", "parabolic", "--c", "0.6+0.4i"],
     lambda s: specio.SurfaceSpec(
         curve=apply_transform(parabolic_rotation_matrix(0.6 + 0.4j),
                               embed_3_to_4(s.as_curve())),
         base_point=s.base_point)),
    (["--kind", "segre", "--L", "1", "--R", "i"],
     lambda s: specio.SurfaceSpec(
         curve=apply_transform(segre_LR_matrix(1, 1j),
                               embed_3_to_4(s.as_curve())),
         base_point=s.base_point)),
    (["--kind", "theorem51", "--c", "1+2i"],
     lambda s: specio.SurfaceSpec(curve=parabolic_deform(s.weierstrass, 1 + 2j),
                                  base_point=s.base_point)),
    (["--kind", "corollary53", "--theta", "0.7"],
     lambda s: specio.SurfaceSpec(
         curve=parabolic_deform_rotated(s.weierstrass, 0.7),
         base_point=s.base_point)),
])
def test_deform_kinds_match_the_library(cli, argv, make):
    # and each is null as verify reads it
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    code, out, _ = cli(["deform"] + argv, stdin=spec)
    assert code == 0
    assert out == specio.dumps(make(specio.loads(spec))) + "\n"
    report = json.loads(cli.pipe(["verify", "--res", "17x17"], stdin=out))
    assert report["is_null"] is True


@pytest.mark.parametrize("argv, unread", [
    (["--kind", "goursat", "--c", "5+5i", "--L", "3"], "--c, --L"),
    (["--kind", "theorem51", "--c=1+2i", "--theta", "1"], "--theta"),
    (["--kind", "corollary53", "--theta=0.5", "--c=1"], "--c"),
    (["--kind", "associate", "--lambda", "2"], "--lambda"),
    (["--kind", "segre", "--L", "1", "--alpha", "0"], "--alpha"),
])
def test_deform_rejects_a_flag_its_kind_does_not_read(cli, argv, unread):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    report = cli.error(["deform"] + argv, stdin=spec)
    assert report["error"] == "ValueError"
    assert report["message"].endswith(f"does not read {unread}")


def test_export_without_output_is_machine_readable(cli):
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    assert "--output" in cli.error(["export", "--res", "5x5"],
                                   stdin=spec)["message"]


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
_CATALOG_HELICOID = ('{"base_point": [0.0, 0.0], "domain": {"rect": [-1.5, '
                     '1.5, -1.5, 1.5]}, "weierstrass": {"G": "exp(z)", '
                     '"Psi": "-i*exp(-z)"}}')     # catalog show helicoid
_PUNCTURED = ('{"weierstrass": {"G": "z", "Psi": "1/z^2"}, "domain": '
              '{"rect": [-1.5, 1.5, -1.5, 1.5], "punctures": [[0, 0]]}}')
_CORNERS = "x,y,X0,X1,X2\n" + "0,0,1,1,0\n0,0,1,-1,0\n0,0,-1,-1,0\n0,0,-1,1,0\n" * 3
# a sum of 400 terms and z in 200 parentheses: both pass parse's depth bound
_DEEP_SUM, _DEEP_NEST = "+".join(["z"] * 400), "(" * 200 + "z" + ")" * 200


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
    (["verify"], json.dumps({"curve": [_DEEP_SUM, f"i*({_DEEP_SUM})", "0"]}),
     "ParseError", "deeper than 100 (at offset 199)"),
    (["verify"], json.dumps({"curve": [_DEEP_NEST, f"i*({_DEEP_NEST})", "0"]}),
     "ParseError", "deeper than 100 (at offset 100)"),
    # the probe grid misses the puncture at the rectangle's centre
    (["slice", "--axis", "1", "--value", "0.2"], _PERIODIC.replace(
        "[1, 0]", "[-1, 0.5]"), "AxisNotMonotone", "single parameter"),
    (["export", "--res", "9x9", "--format", "ply", "--projection", "0,1,2",
      "--output", "{out}"], _HELICOID, "ValueError", "projection"),
    (["export", "--projection", "a,b,c", "--output", "{out}"], _HELICOID,
     "ValueError", "--projection must be three comma-separated axis indices, "
     "got 'a,b,c'"),
    (["slice", "--axis", "0", "--value", "0.2", "--npoints", "12",
      "--base-point", "5+5i"], '{"curve": ["1", "i", "0"]}', "ValueError",
     "base point lies outside the domain"),
    (["export", "--projection=", "--output", "{out}"], _HELICOID,
     "ValueError", "got ''"),
    (["deform", "--kind", "theorem51", "--c", "1e200"], _HELICOID,
     "InvalidConstant", "c^2 is not finite for c = (1e+200+0j)"),
    (["deform", "--kind", "parabolic", "--c", "1e200"], _HELICOID,
     "InvalidConstant", "c^2 is not finite for c = (1e+200+0j)"),
    (["deform", "--kind", "segre", "--L", "1e200", "--R", "1e200"],
     _HELICOID, "InvalidConstant",
     "LR is not finite for L = (1e+200+0j), R = (1e+200+0j)"),
    (["deform", "--kind", "theorem51", "--c", "9ei"], _HELICOID,
     "ValueError", "not a complex number: '9ei'"),
    (["verify"], '{"curve": ["z^²", "i", "0"]}', "ParseError",
     "exponent must be an integer (at offset 2)"),
    (["verify", "--seed", "99999999999999999999999"], _HELICOID,
     "ValueError", "Halton skip 99999999999999999999999"),
    # whole messages from here on
    (["verify", "--res", "9x9"], '{"curve": ["0", "0", "0"]}', "ValueError",
     "no interior points to verify"),
    (["verify", "--seed", "-3"], _CATALOG_HELICOID, "ValueError",
     "Halton skip must be non-negative, got -3"),
    (["deform", "--kind", "theorem51", "--c", "1e400"], _CATALOG_HELICOID,
     "ValueError", "not a complex number: '1e400'"),
    # the stem from the spec's base point to the grid point 0 passes the
    # puncture
    (["export", "--res", "21x21", "--output", "{out}"], '{"weierstrass": '
     '{"G": "exp(z)", "Psi": "exp(-z)"}, "domain": {"rect": [-1, 1, -1, 1], '
     '"punctures": [[0.15, 0.1]]}, "base_point": [0.049, 0.049]}',
     "ValueError", "base point is masked by a puncture"),
] + [
    # (1/z, i/z, 0) with its pole 0 declared as no puncture, on a grid
    # corner or as the base point
    (argv, spec, "SingularPath",
     "log z is not finite at 0j, a pole that no puncture declares")
    for spec in ('{"curve": ["1/z", "i/z", "0"], "domain": {"rect": '
                 '[0, 1, 0, 1]}}',
                 '{"curve": ["1/z", "i/z", "0"], "domain": {"rect": '
                 '[-1, 1.2, -1, 1.2]}, "base_point": [0, 0]}')
    for argv in (["verify", "--res", "5x5"], ["sample", "--res", "3x3"],
                 ["export", "--res", "5x5", "--output", "{out}"],
                 ["slice", "--axis", "1", "--value", "0.3"])])
def test_library_errors_are_machine_readable(cli, tmp_path, argv, stdin,
                                             error, fragment):
    out_file = tmp_path / "out"
    argv = [a.replace("{out}", str(out_file)) for a in argv]
    report = cli.error(argv, stdin=stdin)
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
    report = cli.error(argv, stdin=stdin)
    assert report["error"] == error
    assert fragment in report["message"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_lopez_ros_lambda_is_named(cli, value):
    assert cli.error(["deform", "--kind", "lopez-ros", f"--lambda={value}"],
                     stdin=_HELICOID) == {
        "error": "InvalidConstant",
        "message": f"lambda must be finite, got {value}"}


def test_a_sweep_that_cannot_be_evaluated_names_itself_and_the_rectangle(
        cli):
    # e^{+-z} overflows 1000 units off the rectangle, and the exact route
    # and the quadrature both refuse the line; 3 units off, it evaluates
    _, spec, _ = cli(["catalog", "show", "helicoid"])
    _, deformed, _ = cli(["deform", "--kind", "theorem51", "--c", "1+0i"],
                         stdin=spec)
    slice_ = ["slice", "--axis", "3", "--value", "0.3"]
    report = cli.error(slice_ + ["--sweep=-1e3:1e3"], stdin=deformed)
    assert report["error"] == "SingularPath"
    assert report["message"].startswith("sweep -1000:1000 of u at v = ")
    assert "rectangle is [-1.5, 1.5] x [-1.5, 1.5]" in report["message"]
    code, out, _ = cli(slice_ + ["--sweep=-3:3"], stdin=deformed)
    assert code == 0 and len(out.splitlines()) == 101


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_sample_of_an_overflowing_metric_writes_nothing_on_stderr(cli):
    # |1e200|^2 overflows in the conformal factor, which is written null
    stdin = ('{"curve": ["2", "2", "1e200", "sinh(1)"], '
             '"domain": {"rect": [0, 1, 0, 1]}}')
    code, out, _ = cli(["sample", "--res", "3x3"], stdin=stdin)
    assert code == 0
    report = json.loads(out, parse_constant=_refuse_constant)
    assert report["conformal"] == [[None] * 3] * 3


def test_an_overflowing_product_is_passed_on_as_written(cli):
    # 1e200*1e200 is not folded to inf: deform writes it as it reads, and
    # evaluation reports it
    stdin = '{"curve": ["1e200*1e200*z", "i", "0"]}'
    code, spec, _ = cli(["deform", "--kind", "associate", "--theta", "0.4"],
                        stdin=stdin)
    assert code == 0
    assert json.loads(spec)["curve"][0].endswith("*(1e+200*1e+200*z)")
    assert cli.error(["verify", "--res", "9x9"], stdin=spec)["error"] == \
        "EvaluationSingularity"


_CATENOID_FROM_1 = _PUNCTURED[:-1] + ', "base_point": [1, 0]}'


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_the_corollary53_neck_has_eccentricity_sin_theta(cli, theta):
    # README's pipeline from base point 0: the neck ellipse, of semi-axes
    # 1 / cos theta and 1, lies at X4 = log cos theta
    fit = json.loads(cli.pipe(
        ["catalog", "show", "catenoid-exp"],
        ["deform", "--kind", "corollary53", "--theta", repr(theta)],
        ["slice", "--axis", "3", f"--value={math.log(math.cos(theta))!r}"],
        ["fit"]))
    assert fit["classification"] == "ellipse"
    assert abs(fit["eccentricity"] - math.sin(theta)) <= 1e-12


def test_data_with_no_exact_primitive_verify_on_the_tree(cli):
    rep = json.loads(cli.pipe(["verify", "--res", "33x33"], stdin=(
        '{"weierstrass": {"G": "exp(z^2)", "Psi": "1"}, '
        '"domain": {"rect": [-0.5, 0.5, -0.5, 0.5]}}')))
    m = rep["minimality"]
    assert rep["is_null"] is True
    assert m["conformality_defect"] <= 0.05 and m["harmonicity_defect"] <= 0.05


def test_a_slice_of_a_curve_with_no_exact_primitive(cli):
    csv = cli.pipe(["slice", "--axis", "0", "--value", "0.1", "--npoints",
                    "20"], stdin='{"curve": ["1", "i*cosh(z^2)", '
                   '"sinh(z^2)"], "domain": {"rect": [-0.5, 0.5, -0.5, 0.5]}}')
    assert len(csv.splitlines()) == 1 + 20


def test_a_collinear_sample_fits_as_a_line(cli):
    csv = "x,y,X0,X1,X2\n" + "".join(f"0,0,{t},{2 * t},{1 - 3 * t}\n"
                                     for t in range(12))
    assert json.loads(cli.pipe(["fit"], stdin=csv))["classification"] == "line"


def test_the_punctured_catenoid_exports_at_513(cli, tmp_path):
    target = tmp_path / "punctured.ply"
    cli.pipe(["export", "--res", "513x513", "--format", "ply", "--tol",
              "1e-10", "--output", str(target)], stdin=_CATENOID_FROM_1)
    assert b"\nelement vertex 263169\n" in target.read_bytes()[:200]


def test_the_objs_face_lines_are_the_plys_faces(cli, tmp_path):
    # 16,641 vertices: the indices cross 9,999 -> 10,000
    for fmt in ("ply", "obj"):
        cli.pipe(["export", "--res", "129x129", "--format", fmt, "--tol",
                  "1e-10", "--output", str(tmp_path / f"m.{fmt}")],
                 stdin=_CATENOID_FROM_1)
    head, body = (tmp_path / "m.ply").read_bytes().split(b"end_header\n", 1)
    head = head.decode().splitlines()
    assert "element vertex 16641" in head
    nprop = sum(h.startswith("property double") for h in head)
    faces = np.frombuffer(body[8 * 16641 * nprop:],
                          dtype=[("n", "u1"), ("v", "<i4", 3)])
    assert len(faces) > 0 and (faces["n"] == 3).all()
    want = (b"f %d %d %d\n" * len(faces)
            % tuple((faces["v"] + 1).ravel().tolist()))
    got = b"".join(line for line in (tmp_path / "m.obj").read_bytes()
                   .splitlines(True) if line.startswith(b"f "))
    assert got == want


def _points(sample):
    """A sample's points, null as NaN."""
    return np.array(json.loads(sample)["points"], dtype=float)


def test_a_real_period_jumps_only_across_the_cut(cli):
    # X0 = arg z0 - arg z, the arg on the cut pi: 2 pi - 2 atan(0.5) at
    # -1 - 0.5i, from -1 + 0.5i
    out = cli.pipe(["sample", "--res", "13x13"],
                   stdin=_PERIODIC.replace("[1, 0]", "[-1, 0.5]"))
    r = json.loads(out)
    x0 = _points(out)[r["u"].index(-1.0), r["v"].index(-0.5), 0]
    assert abs(x0 - (2 * math.pi - 2 * math.atan(0.5))) <= 1e-12


def test_an_over_budget_curve_with_a_real_period_takes_the_tree(cli,
                                                                monkeypatch):
    # X3 = Re integral of i/z = -(arg z - arg z0): cosh(13) puts the grid
    # over its roundoff budget, and the rows v = +-1 left of the puncture
    # are reached by column j0 and one leg along the row
    trees = []
    tree = surface_mod._tree_integrals
    monkeypatch.setattr(surface_mod, "_tree_integrals",
                        lambda *a: trees.append(1) or tree(*a))
    out = cli.pipe(["sample", "--res", "41x9"], stdin=(
        '{"curve": ["cosh(z)", "i*sinh(z)", "i", "i/z", "1/z"], "domain": '
        '{"rect": [-13, 13, -1, 1], "punctures": [[0, 0]]}, '
        '"base_point": [1, 0.5]}'))
    assert trees == [1]
    r = json.loads(out)
    u, v = np.meshgrid(r["u"], r["v"], indexing="ij")
    x3 = _points(out)[..., 3]
    ok = ~np.isnan(x3)
    assert [np.sum(ok & (u < 0) & (v * s > 0)) for s in (1, -1)] == [20, 20]
    err = np.abs(x3 + np.arctan2(v, u) - math.atan2(0.5, 1))[ok]
    assert err.max() <= 1e-9


def test_a_grid_over_the_roundoff_budget_takes_the_tree(cli):
    # at tol 1e-10 the cosh strip takes the tree, at 1e-6 the exact route
    spec = ('{"curve": ["cosh(z)", "i*sinh(z)", "i"], '
            '"domain": {"rect": [0, 13, -1, 1]}}')
    a, b = (_points(cli.pipe(["sample", "--res", "41x9", "--tol", tol],
                             stdin=spec)) for tol in ("1e-10", "1e-6"))
    assert a.shape == (41, 9, 3) and np.all(np.isfinite(a))
    assert np.max(np.abs(a - b)) <= 1e-6


def test_a_punctured_spec_with_no_base_point_samples(cli):
    # the default base point 0 lies within the clearance of the puncture
    out = cli.pipe(["sample", "--res", "5x5"], stdin=(
        '{"curve": ["1/(z-0.3-0.2i)", "i/(z-0.3-0.2i)", "0"], '
        '"domain": {"punctures": [[0.3, 0.2]]}}'))
    json.loads(out, parse_constant=_refuse_constant)


def test_with_no_base_point_sample_anchors_at_the_default(cli):
    # X = (u, -v, 0) from the default 0, off the 4x4 grid
    out = cli.pipe(["sample", "--res", "4x4"], stdin=_LINE)
    assert json.loads(out)["base_point"] == [0.0, 0.0]
    assert np.max(np.abs(_points(out)[2, 2] - [1 / 3, -1 / 3, 0])) <= 1e-12
