"""Command-line pipeline: catalog -> deform -> sample/verify/slice/fit/export.

Stages communicate through the JSON surface-spec on stdin/stdout so a
whole verification run is scriptable, e.g.::

    minsurf catalog show helicoid \
      | minsurf deform --kind theorem51 --c 1+2i \
      | minsurf verify

Complex flags use the form ``a+bi`` with no spaces.  Outputs are
deterministic: the same spec yields byte-identical JSON/CSV, and meshes
are fixed at 9 significant digits.  Errors exit with a one-line JSON
object on stderr: code 1 for library and input errors, 2 for any other.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import catalog as _catalog
from . import specio
from .errors import MinsurfError
from .conic import asymptotes, fit_conic, planar_sample, slice_surface
from .nullcurve import embed_3_to_4, null_residual
from .surface import (degeneracy_rank, export_mesh, immerse,
                      parametric_immersion, verify_minimal)
from .transforms import (associate, goursat, lawson, lopez_ros,
                         parabolic_deform, parabolic_deform_rotated,
                         parabolic_rotation_matrix, segre_LR_matrix,
                         apply_transform)

_COMPLEX_RE = re.compile(r"^[0-9eE+\-.ij]+$")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (no spaces); accepts 'i', '-i', '2', '1e-3-2i'."""
    s = text.strip().replace("i", "j")
    if not _COMPLEX_RE.match(text.strip()):
        raise ValueError(f"not a complex number: {text!r}")
    if s in ("j", "+j"):
        s = "1j"
    elif s == "-j":
        s = "-1j"
    else:
        s = re.sub(r"(?<![0-9.])j", "1j", s)
    return complex(s)


def _parse_res(text: str):
    m = re.match(r"^(\d+)x(\d+)$", text)
    if not m:
        raise ValueError(f"resolution must look like 64x64, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _read_spec(args) -> specio.SurfaceSpec:
    if getattr(args, "input", None):
        with open(args.input) as fh:
            return specio.load(fh)
    return specio.loads(sys.stdin.read())


def _write_text(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _base_point(args, spec):
    if getattr(args, "base_point", None):
        return parse_complex(args.base_point)
    if spec.base_point is not None:
        return spec.base_point
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_catalog(args) -> int:
    if args.action == "list":
        lines = [f"{e.name:22s} {e.summary}" for e in _catalog.entries()]
        _write_text(args, "\n".join(lines) + "\n")
        return 0
    entry = _catalog.get(args.name)
    made = entry.construction()
    if entry.kind == "weierstrass":
        spec = specio.SurfaceSpec(weierstrass=made, base_point=entry.base_point)
    else:
        spec = specio.SurfaceSpec(curve=made, base_point=entry.base_point)
    _write_text(args, specio.dumps(spec) + "\n")
    return 0


def _need_weierstrass(spec, kind):
    if spec.weierstrass is None:
        raise MinsurfError(
            f"deformation kind {kind!r} needs Weierstrass-form input")
    return spec.weierstrass


def _cmd_deform(args) -> int:
    spec = _read_spec(args)
    kind = args.kind
    base = spec.base_point
    if kind == "lopez-ros":
        w = _need_weierstrass(spec, kind)
        out = specio.SurfaceSpec(weierstrass=lopez_ros(w, args.lam),
                                 base_point=base)
    elif kind == "theorem51":
        w = _need_weierstrass(spec, kind)
        out = specio.SurfaceSpec(curve=parabolic_deform(w, parse_complex(args.c)),
                                 base_point=base)
    elif kind == "corollary53":
        w = _need_weierstrass(spec, kind)
        out = specio.SurfaceSpec(curve=parabolic_deform_rotated(w, args.theta),
                                 base_point=base)
    else:
        curve = spec.as_curve()
        if kind == "associate":
            curve = associate(curve, args.theta)
        elif kind == "goursat":
            curve = goursat(curve, args.t)
        elif kind == "lawson":
            curve = lawson(curve, args.alpha, args.beta)
        else:   # parabolic or segre; argparse rejects any other kind
            if curve.n == 3:
                curve = embed_3_to_4(curve)
            if kind == "parabolic":
                T = parabolic_rotation_matrix(parse_complex(args.c))
            else:
                T = segre_LR_matrix(parse_complex(args.L), parse_complex(args.R))
            curve = apply_transform(T, curve)
        out = specio.SurfaceSpec(curve=curve, base_point=base)
    _write_text(args, specio.dumps(out) + "\n")
    return 0


def _cmd_sample(args) -> int:
    spec = _read_spec(args)
    curve = spec.as_curve()
    nu, nv = _parse_res(args.res)
    patch = immerse(curve, zeta0=_base_point(args, spec), res=(nu, nv),
                    tol=args.tol)
    payload = {
        "base_point": [patch.base_point.real, patch.base_point.imag],
        "u": patch.u.tolist(),
        "v": patch.v.tolist(),
        "points": np.where(np.isfinite(patch.points), patch.points, None).tolist(),
        "conformal": np.where(np.isfinite(patch.conformal),
                              patch.conformal, None).tolist(),
    }
    _write_text(args, _json_dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    spec = _read_spec(args)
    curve = spec.as_curve()
    rep = null_residual(curve, samples=args.samples, skip=args.seed)
    deg = degeneracy_rank(curve, samples=max(args.samples, 2 * curve.n),
                          skip=args.seed)
    report = {
        "components": curve.n,
        "null_residual": rep.max_abs_residual,
        "normalizer": rep.normalizer,
        "relative_residual": (rep.max_abs_residual / rep.normalizer
                              if rep.normalizer else 0.0),
        "is_null": rep.is_null,
        "degeneracy_rank": deg.rank,
        "singular_values": deg.singular_values.tolist(),
    }
    if deg.hyperplane is not None:
        report["hyperplane"] = [[c.real, c.imag] for c in deg.hyperplane]
    nu, nv = _parse_res(args.res)
    patch = immerse(curve, zeta0=_base_point(args, spec), res=(nu, nv),
                    tol=args.tol)
    report["minimality"] = verify_minimal(patch)
    _write_text(args, _json_dumps(report))
    return 0


def _cmd_slice(args) -> int:
    spec = _read_spec(args)
    curve = spec.as_curve()
    surf = parametric_immersion(curve, zeta0=_base_point(args, spec),
                                tol=args.tol)
    sweep = None
    if args.sweep:
        lo, hi = args.sweep.split(":")
        sweep = (float(lo), float(hi))
    pc = slice_surface(surf, args.axis, args.value, npoints=args.npoints,
                       sweep=sweep)
    cols = ["x", "y"] + [f"X{i}" for i in range(pc.points.shape[1])]
    rows = np.column_stack([pc.xy, pc.points]).tolist()
    lines = [",".join(cols)] + [",".join(map(repr, row)) for row in rows]
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def _cmd_fit(args) -> int:
    if getattr(args, "input", None):
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    if not rows:
        raise ValueError("fit input has no data rows")
    if len({len(row) for row in rows}) != 1:
        raise ValueError("fit input rows differ in length")
    if len(rows[0]) < 4:
        raise ValueError("fit input rows need x, y and at least two coordinates")
    pts = np.array([[float(t) for t in row[2:]] for row in rows])
    bad = np.argwhere(~np.isfinite(pts))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"fit input data row {row + 1} holds a non-finite "
                         f"coordinate: {rows[row][col + 2].strip()}")
    pc = planar_sample(pts)
    fit = fit_conic(pc)
    report = {
        "classification": fit.classification,
        "coefficients": fit.coefficients.tolist(),
        "eccentricity": (None if math.isnan(fit.eccentricity)
                         else fit.eccentricity),
        "residual": fit.residual,
        "planarity_residual": pc.planarity_residual,
    }
    if fit.semi_axes is not None:
        report["semi_axes"] = list(fit.semi_axes)
    if fit.leading_coefficient is not None:
        report["leading_coefficient"] = fit.leading_coefficient
    if fit.classification == "hyperbola":
        report["asymptotes"] = asymptotes(fit).tolist()
    _write_text(args, _json_dumps(report))
    return 0


def _cmd_export(args) -> int:
    if not args.output:
        raise MinsurfError("export requires --output FILE")
    spec = _read_spec(args)
    curve = spec.as_curve()
    nu, nv = _parse_res(args.res)
    patch = immerse(curve, zeta0=_base_point(args, spec), res=(nu, nv),
                    tol=args.tol)
    projection = None
    if args.projection:
        projection = tuple(int(t) for t in args.projection.split(","))
    export_mesh(patch, args.output, fmt=args.format, projection=projection)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, res_default="33x33"):
    p.add_argument("--input", help="spec file (default: stdin)")
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="integration tolerance")
    p.add_argument("--res", default=res_default, help="grid resolution NUxNV")
    p.add_argument("--base-point", help="immersion anchor, a+bi")
    p.add_argument("--seed", type=int, default=0, help="Halton sample offset")


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a malformed command line instead of printing
    usage and exiting, so that ``main`` reports it as one JSON line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="minsurf",
        description="minimal surfaces from holomorphic null curves")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in constructions")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("deform", help="apply a null-curve deformation")
    p.add_argument("--kind", required=True,
                   choices=["associate", "goursat", "lopez-ros", "lawson",
                            "parabolic", "segre", "theorem51", "corollary53"])
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--c", default="0")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--L", default="0")
    p.add_argument("--R", default="0")
    _add_common(p)
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("sample", help="sample the immersion on a grid")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="nullity, degeneracy, minimality report")
    p.add_argument("--samples", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("slice", help="extract a coordinate level set as CSV")
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--npoints", type=int, default=100)
    p.add_argument("--sweep", help="override swept range, lo:hi")
    _add_common(p)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("fit", help="fit a conic to slice CSV")
    p.add_argument("--input")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("export", help="write an OBJ/PLY mesh")
    p.add_argument("--format", choices=["obj", "ply"], default="obj")
    p.add_argument("--projection", help="3 axis indices for OBJ, e.g. 0,2,3")
    _add_common(p, res_default="65x65")
    p.set_defaults(func=_cmd_export)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as err:   # one JSON line on stderr, never a traceback
        known = isinstance(err, (MinsurfError, ValueError, KeyError, OSError))
        error = type(err).__name__ if known else "InternalError"
        message = str(err) if known else f"{type(err).__name__}: {err}"
        sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
        return 1 if known else 2


if __name__ == "__main__":
    sys.exit(main())
