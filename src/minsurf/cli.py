"""Command-line pipeline: catalog -> deform -> sample/verify/slice/fit/export.

Stages communicate through the JSON surface-spec on stdin/stdout so a
whole verification run is scriptable, e.g.::

    minsurf catalog show helicoid \
      | minsurf deform --kind theorem51 --c 1+2i \
      | minsurf verify

``_DEFORMS`` is the one place where a deformation kind's flags, their
defaults and its input form (Weierstrass data or a curve) are defined.
Complex flags use the form ``a+bi`` with no spaces.  Outputs are
deterministic: the same spec yields byte-identical JSON/CSV, and meshes
are fixed at 9 significant digits.  Errors exit with a one-line JSON
object on stderr: code 1 for library and input errors, 2 for any other.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys

import numpy as np

from . import catalog as _catalog
from . import specio
from .errors import MinsurfError
from .conic import asymptotes, fit_conic, planar_sample, slice_surface
from .nullcurve import WeierstrassData, embed_3_to_4, null_residual
from .surface import (conformal_factor, degeneracy_rank, export_mesh,
                      immerse, parametric_immersion, real_period,
                      verify_minimal)
from .transforms import (associate, goursat, lawson, lopez_ros,
                         parabolic_deform, parabolic_deform_rotated,
                         parabolic_rotation_matrix, segre_LR_matrix,
                         apply_transform)

_COMPLEX_RE = re.compile(r"^[0-9eE+\-.ij]+$")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (no spaces) as ``complex`` reads it with i for j:
    'i', '-i', '2', '1.i', '1e-3-2i'.  Any other text, '1+2', '9ei' and a
    value beyond float range among it, is a ValueError that names it."""
    s = text.strip()
    try:
        if _COMPLEX_RE.match(s):
            value = complex(s.replace("i", "j"))
            if cmath.isfinite(value):
                return value
    except ValueError:
        pass
    raise ValueError(f"not a complex number: {text!r}")


def _parse_sweep(text: str):
    """(lo, hi) from 'lo:hi', two finite numbers; ValueError otherwise."""
    try:
        sweep = tuple(float(t) for t in text.split(":"))
    except ValueError:
        sweep = ()
    if len(sweep) != 2 or not all(map(math.isfinite, sweep)):
        raise ValueError(f"--sweep must be lo:hi, two finite numbers, "
                         f"got {text!r}")
    return sweep


def _read_input(args) -> str:
    if args.input:
        with open(args.input) as fh:
            return fh.read()
    return sys.stdin.read()


def _read_spec(args) -> specio.SurfaceSpec:
    return specio.loads(_read_input(args))


def _spec_of(made, base_point) -> specio.SurfaceSpec:
    """The spec of what a construction made, in the form of its type."""
    form = "weierstrass" if isinstance(made, WeierstrassData) else "curve"
    return specio.SurfaceSpec(**{form: made}, base_point=base_point)


def _write_text(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    """Strict JSON of obj, each float that is not finite written null."""
    return json.dumps(_finite_or_none(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _finite_or_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def _base_point(args, spec):
    if args.base_point:
        return parse_complex(args.base_point)
    return spec.base_point


def _immerse(args, spec, curve):
    """The patch of sample, verify and export: --res, --base-point, --tol."""
    res = re.match(r"^(\d+)x(\d+)$", args.res)
    if not res:
        raise ValueError(f"resolution must look like 64x64, got {args.res!r}")
    return immerse(curve, res=(int(res[1]), int(res[2])),
                   zeta0=_base_point(args, spec), tol=args.tol)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_catalog(args) -> int:
    if args.action == "list":
        lines = [f"{e.name:22s} {e.summary}" for e in _catalog.entries()]
        _write_text(args, "\n".join(lines) + "\n")
        return 0
    if args.name is None:
        raise ValueError("catalog show needs the name of an entry")
    entry = _catalog.get(args.name)
    spec = _spec_of(entry.make(), entry.base_point)
    _write_text(args, specio.dumps(spec) + "\n")
    return 0


def _apply_in_c4(T, curve):
    """T applied to the curve, a 3-component curve first embedded in C^4."""
    return apply_transform(T, embed_3_to_4(curve) if curve.n == 3 else curve)


# kind -> (reads Weierstrass data rather than a curve, the parameter flags
# (argparse dests) it reads with their defaults, the call on the input and
# the parsed flags); a kind given a flag it does not read is an error.  A
# call looks its function up in this module's globals each time it runs.
_DEFORMS = {
    "associate": (False, {"theta": 0.0},
                  lambda curve, a: associate(curve, a.theta)),
    "goursat": (False, {"t": 0.0}, lambda curve, a: goursat(curve, a.t)),
    "lopez-ros": (True, {"lam": 1.0}, lambda w, a: lopez_ros(w, a.lam)),
    "lawson": (False, {"alpha": 0.0, "beta": 0.0},
               lambda curve, a: lawson(curve, a.alpha, a.beta)),
    "parabolic": (False, {"c": "0"}, lambda curve, a: _apply_in_c4(
        parabolic_rotation_matrix(parse_complex(a.c)), curve)),
    "segre": (False, {"L": "0", "R": "0"}, lambda curve, a: _apply_in_c4(
        segre_LR_matrix(parse_complex(a.L), parse_complex(a.R)), curve)),
    "theorem51": (True, {"c": "0"},
                  lambda w, a: parabolic_deform(w, parse_complex(a.c))),
    "corollary53": (True, {"theta": 0.0},
                    lambda w, a: parabolic_deform_rotated(w, a.theta)),
}
_DEFORM_FLAGS = {"theta": ("--theta", float), "t": ("--t", float),
                 "lam": ("--lambda", float), "c": ("--c", str),
                 "alpha": ("--alpha", float), "beta": ("--beta", float),
                 "L": ("--L", str), "R": ("--R", str)}


def _cmd_deform(args) -> int:
    reads_weierstrass, reads, call = _DEFORMS[args.kind]
    unread = [flag for dest, (flag, _) in _DEFORM_FLAGS.items()
              if hasattr(args, dest) and dest not in reads]
    if unread:
        raise ValueError(f"deform --kind {args.kind} does not read "
                         f"{', '.join(unread)}")
    for dest, default in reads.items():
        vars(args).setdefault(dest, default)
    spec = _read_spec(args)
    if reads_weierstrass and spec.weierstrass is None:
        raise MinsurfError(f"deformation kind {args.kind!r} needs "
                           f"Weierstrass-form input")
    made = call(spec.weierstrass if reads_weierstrass else spec.as_curve(),
                args)
    _write_text(args, specio.dumps(_spec_of(made, spec.base_point)) + "\n")
    return 0


def _cmd_sample(args) -> int:
    spec = _read_spec(args)
    curve = spec.as_curve()
    patch = _immerse(args, spec, curve)
    zz = patch.u[:, None] + 1j * patch.v[None, :]
    conformal = np.full(patch.valid.shape, np.nan)
    conformal[patch.valid] = conformal_factor(curve, zz[patch.valid])
    # null for an invalid cell and for a value beyond float range
    payload = {
        "base_point": [patch.base_point.real, patch.base_point.imag],
        "u": patch.u.tolist(),
        "v": patch.v.tolist(),
        "points": patch.points.tolist(),
        "conformal": conformal.tolist(),
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
    period = real_period(curve)
    report["real_period"] = None if period is None else period.tolist()
    patch = _immerse(args, spec, curve)
    report["minimality"] = verify_minimal(patch)
    _write_text(args, _json_dumps(report))
    return 0


def _cmd_slice(args) -> int:
    sweep = None if args.sweep is None else _parse_sweep(args.sweep)
    spec = _read_spec(args)
    curve = spec.as_curve()
    surf = parametric_immersion(curve, zeta0=_base_point(args, spec),
                                tol=args.tol)
    pc = slice_surface(surf, args.axis, args.value, npoints=args.npoints,
                       sweep=sweep)
    cols = ["x", "y"] + [f"X{i}" for i in range(pc.points.shape[1])]
    rows = np.column_stack([pc.xy, pc.points]).tolist()
    lines = [",".join(cols)] + [",".join(map(repr, row)) for row in rows]
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def _cmd_fit(args) -> int:
    text = _read_input(args)
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
        "eccentricity": fit.eccentricity,
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
    projection = None
    if args.projection is not None:
        try:
            projection = tuple(int(t) for t in args.projection.split(","))
        except ValueError:
            raise ValueError(
                "--projection must be three comma-separated axis indices, "
                f"got {args.projection!r}") from None
    spec = _read_spec(args)
    curve = spec.as_curve()
    patch = _immerse(args, spec, curve)
    export_mesh(patch, args.output, fmt=args.format, projection=projection)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    # flags shared by subcommands; each subcommand takes only those it reads
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--input", help="input file (default: stdin)")
    io.add_argument("--output", help="output file (default: stdout)")
    immersion = argparse.ArgumentParser(add_help=False, parents=[io])
    immersion.add_argument("--tol", type=float, default=1e-10,
                           help="integration tolerance")
    immersion.add_argument("--base-point", help="immersion anchor, a+bi")

    p = sub.add_parser("catalog", help="list built-in constructions")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--output")

    p = sub.add_parser("deform", parents=[io],
                       help="apply a null-curve deformation")
    p.add_argument("--kind", required=True, choices=list(_DEFORMS))
    # absent unless given, so that _cmd_deform can tell which were given
    for dest, (flag, convert) in _DEFORM_FLAGS.items():
        p.add_argument(flag, dest=dest, type=convert, default=argparse.SUPPRESS)

    p = sub.add_parser("sample", parents=[immersion],
                       help="sample the immersion on a grid")
    p.add_argument("--res", default="33x33", help="grid resolution NUxNV")

    p = sub.add_parser("verify", parents=[immersion],
                       help="nullity, degeneracy, minimality report")
    p.add_argument("--res", default="33x33", help="grid resolution NUxNV")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="Halton sample offset")

    p = sub.add_parser("slice", parents=[immersion],
                       help="extract a coordinate level set as CSV")
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--npoints", type=int, default=100)
    p.add_argument("--sweep", help="override swept range, lo:hi")

    sub.add_parser("fit", parents=[io], help="fit a conic to slice CSV")

    p = sub.add_parser("export", parents=[immersion],
                       help="write an OBJ/PLY mesh")
    p.add_argument("--res", default="65x65", help="grid resolution NUxNV")
    p.add_argument("--format", choices=["obj", "ply"], default="obj")
    p.add_argument("--projection", help="3 axis indices for OBJ, e.g. 0,2,3")
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # looked up at each call, so a wrapper on a subcommand sees it
        return globals()[f"_cmd_{args.command}"](args)
    except Exception as err:   # one JSON line on stderr, never a traceback
        known = isinstance(err, (MinsurfError, ValueError, KeyError, OSError))
        error = type(err).__name__ if known else "InternalError"
        # a KeyError's str() is the repr of its message
        text = err.args[0] if isinstance(err, KeyError) and err.args else err
        message = str(text) if known else f"{type(err).__name__}: {err}"
        sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
        return 1 if known else 2


if __name__ == "__main__":
    sys.exit(main())
