"""The CLI's output contract on seeded draws of specs and commands.

Each run of ``cli.main`` either exits 0 with nothing on stderr (and no
warning) and well-formed output (strict JSON, a slice CSV or a mesh), or
exits 1 with exactly one JSON line on stderr; it never exits 2.
"""

import io
import json
import math
import sys
import warnings

import numpy as np
import pytest

from minsurf.cli import main

_COMPONENTS = ["1", "i", "0", "z", "i*z", "exp(z)", "i*exp(z)", "cosh(z)",
               "i*sinh(z)", "z^2", "1/z", "i/z", "z^-2", "log(z)",
               "exp(z^2)", "1e200", "1e-300", "sinh(z)/(1e-300)", "z+2.5",
               "1e200*1e200*z", "exp(40*z)", "(0.3-0.2i)*z^3"]
_G = ["z", "exp(z)", "1/z", "z^2", "i*z"]
_PSI = ["1", "1/z^2", "exp(-z)", "z", "1e200"]
# singular at 0: a spec that holds one draws its own rectangle, which may
# hold 0 or not, and declares the puncture 0 only as often as any other
_POLES = ("/z", "z^-", "log(z)")
# the theorem-5.1 helicoid at c = 1, whose level sets of X3 are conics
_HELICOID_51 = ["exp(z)^2*(-i*exp(-z))", "0.5*(-i*exp(-z))",
                "0.5*i*(1+2*exp(z)^2)*(-i*exp(-z))", "exp(z)*(-i*exp(-z))"]
_DEFORMS = [["associate", "--theta", "0.4"], ["goursat", "--t", "0.5"],
            ["lopez-ros", "--lambda", "2"], ["lawson", "--alpha", "0.3",
                                             "--beta", "0.7"],
            ["parabolic", "--c", "0.6+0.4i"], ["segre", "--L", "1", "--R", "i"],
            ["theorem51", "--c", "1+2i"], ["corollary53", "--theta", "0.7"]]
_CATALOG = ["helicoid", "catenoid", "catenoid-exp", "complex-parabola",
            "lagrangian-catenoid", "nope"]

# the curve whose slice overflowed np.linalg.norm in the plane fit
OVERFLOWING = ('{"curve": ["1e200", "0", "sinh(z)/(1e-300)", "z+2.5"], '
               '"domain": {"rect": [0.9, 1.3, 0.1, 1.1]}}')


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _run(argv, stdin, capsys, monkeypatch):
    """(exit code, stdout, stderr) of one cli.main run, each warning it
    raises counted as a line on stderr."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err + "".join(f"{w.category.__name__}: {w.message}\n"
                                    for w in caught)


def _check_output(argv, out, target):
    """The output of a successful run is what its command writes."""
    command = argv[0]
    if command == "export":
        with open(target, "rb") as fh:
            data = fh.read()
        if "ply" in argv:
            head, _, body = data.partition(b"end_header\n")
            lines = head.decode("ascii").splitlines()
            assert lines[:2] == ["ply", "format binary_little_endian 1.0"]
            nv = int(lines[2].split()[-1])
            props = sum(line.startswith("property double") for line in lines)
            nf = int(next(line for line in lines
                          if line.startswith("element face")).split()[-1])
            assert len(body) == 8 * nv * props + 13 * nf
        else:
            for line in data.decode("ascii").splitlines():
                kind, *vals = line.split()
                assert kind in ("v", "f") and len(vals) == 3
                assert all(map(math.isfinite, map(float, vals)))
        return
    if command == "slice":
        rows = out.splitlines()
        header = rows[0].split(",")
        assert header[:3] == ["x", "y", "X0"] and len(rows) > 12
        for row in rows[1:]:
            vals = [float(x) for x in row.split(",")]
            assert len(vals) == len(header) and all(map(math.isfinite, vals))
        return
    if command == "catalog" and argv[1] == "list":
        assert out.strip()
        return
    json.loads(out, parse_constant=_refuse_constant)


def _spec(rng, helicoid=False):
    """The spec's JSON text and its number of components; the helicoid's
    on a drawn domain when ``helicoid``."""
    draw = rng.random()
    if helicoid or 0.25 <= draw < 0.45:
        body = {"curve": _HELICOID_51}
    elif draw < 0.25:
        body = {"weierstrass": {"G": str(rng.choice(_G)),
                                "Psi": str(rng.choice(_PSI))}}
    else:
        n = int(rng.choice([2, 3, 3, 4, 4, 5]))
        body = {"curve": [str(rng.choice(_COMPONENTS)) for _ in range(n)]}
    poles = any(p in json.dumps(body) for p in _POLES)
    if poles or rng.random() < 0.8:
        u0, v0 = (float(x) for x in np.round(rng.uniform(-1.5, 1, 2), 2))
        w, h = (float(x) for x in np.round(rng.uniform(0.2, 2, 2), 2))
        domain = {"rect": [u0, u0 + w, v0, v0 + h]}
        if rng.random() < 0.3:
            domain["punctures"] = [[0, 0]]
        if rng.random() < 0.3:
            domain["branch_cut"] = float(np.round(rng.uniform(-3, 3), 2))
        body["domain"] = domain
        if rng.random() < 0.3:
            body["base_point"] = [u0 + w / 3, v0 + h / 2]
    # Weierstrass data give a curve in C^3
    return json.dumps(body), len(body["curve"]) if "curve" in body else 3


def _command(rng, target):
    """argv and stdin of one drawn run."""
    spec, n = _spec(rng)
    res = str(rng.choice(["5x5", "9x7", "12x12", "2x2", "1x5", "9by9"]))
    kind = rng.integers(0, 7)
    if kind == 0:
        tol = str(rng.choice(["1e-10", "1e-8", "1e-6", "0", "nan"]))
        return ["sample", "--res", res, "--tol", tol], spec
    if kind == 1:
        return ["verify", "--res", res, "--samples", "24"], spec
    if kind == 2:
        # half the slices cut the helicoid along X3 = v - Im z0, whose level
        # sets are conics, the others an axis of the drawn spec; each level
        # is one X3 reaches on a drawn rectangle with z0 on its middle row
        if rng.random() < 0.5:
            spec, axis = _spec(rng, helicoid=True)[0], 3
        else:
            axis = rng.integers(0, n)
        value = str(rng.choice(["0", "0.05", "-0.08"]))
        argv = ["slice", "--axis", str(axis), "--value", value,
                "--npoints", str(rng.choice([12, 20, 5]))]
        if rng.random() < 0.2:
            argv.append("--sweep=-0.5:0.5")
        return argv, spec
    if kind == 3:
        argv = ["export", "--res", res, "--output", target,
                "--format", str(rng.choice(["obj", "ply"]))]
        return argv, spec
    if kind == 4:
        return ["deform", "--kind", *_DEFORMS[rng.integers(len(_DEFORMS))]], spec
    if kind == 5:
        return ["catalog", "show", str(rng.choice(_CATALOG))], ""
    # a fit of an ellipse in a random plane of R^3, of too few points, or
    # with a ragged last row
    t = np.linspace(0, 6, int(rng.integers(0, 14)))
    frame = rng.normal(size=(2, 3))
    pts = np.column_stack([2 * np.cos(t), np.sin(t)]) @ frame
    rows = ["x,y,X0,X1,X2"] + [",".join(map(repr, [0.0, 0.0, *p.tolist()]))
                               for p in pts]
    if rng.random() < 0.3:
        rows[-1] = rows[-1] + ",1"
    return ["fit"], "\n".join(rows) + "\n"


def _check(argv, stdin, target, capsys, monkeypatch):
    code, out, err = _run(argv, stdin, capsys, monkeypatch)
    assert code in (0, 1), (argv, stdin, err)
    if code == 0:
        assert err == "", (argv, stdin, err)
        _check_output(argv, out, target)
    else:
        assert out == "" and err.count("\n") == 1, (argv, stdin, err)
        assert set(json.loads(err)) == {"error", "message"}
    return code, out


def test_the_overflowing_slice_and_its_fit_keep_the_contract(capsys,
                                                             monkeypatch):
    # the plane fit's norms overflowed past about 1e154 and warned on
    # stderr, and the fit then read an infinite diameter
    argv = ["slice", "--axis", "0", "--value", "0.1", "--npoints", "12"]
    code, csv = _check(argv, OVERFLOWING, None, capsys, monkeypatch)
    assert code == 0
    code, fit = _check(["fit"], csv, None, capsys, monkeypatch)
    assert code == 0 and json.loads(fit)["planarity_residual"] > 0


def test_drawn_commands_keep_the_output_contract(capsys, monkeypatch,
                                                 tmp_path):
    # a slice that succeeds is fitted too
    rng = np.random.default_rng(10)
    target = str(tmp_path / "mesh")
    codes = []
    for _ in range(150):
        argv, stdin = _command(rng, target)
        code, out = _check(argv, stdin, target, capsys, monkeypatch)
        codes.append((argv[0], code))
        if argv[0] == "slice" and code == 0:
            code, _ = _check(["fit"], out, target, capsys, monkeypatch)
            codes.append(("fit", code))
    # both outcomes are drawn often, and every command succeeds
    assert min(sum(c == k for _, c in codes) for k in (0, 1)) >= 30, codes
    assert {name for name, c in codes if c == 0} == {
        "sample", "verify", "slice", "fit", "export", "deform", "catalog"}
