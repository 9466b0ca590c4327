"""Workloads of the minsurf benchmark: seeded op lists, the ops, and their
oracle checks.

Each workload builds a fixed cycle of ops from its seed.  The cost of an op
depends on its kind and size, never on the seeded constants, so every seed
gives the same cost structure and only the geometry changes.  The benchmark
always runs whole cycles, which keeps the mix of kinds and sizes identical
from run to run.

Ops call into minsurf through module attributes (``surface.immerse``, not a
name imported from it), so the span wrappers of ``tracing`` see the
benchmark's own calls as well as the library's internal ones.

Run as a script, this module is the set-up probe: a fresh interpreter that
imports minsurf, builds the inputs of one workload and runs its first op,
then prints the digest of that op's output::

    PYTHONPATH=src python3 perfbench/workloads.py patch 1 0 WORKDIR
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

import minsurf.catalog as catalog
import minsurf.cli as cli
import minsurf.domain as domain
import minsurf.nullcurve as nullcurve
import minsurf.specio as specio
import minsurf.surface as surface
import minsurf.transforms as transforms
from minsurf.errors import MinsurfError

# integration tolerance of the patch and export ops (the CLI default)
TOL = 1e-10

# largest accepted deviation from a closed form: immersion coordinates
# (absolute), slice semi-axes, asymptote cosines and parabola coefficients
ORACLE_TOL = 1e-8


def defect_tol(res):
    """Largest accepted finite-difference defect of verify_minimal on a
    res x res grid.  The defects are O(h^2): about 3e-3 at 33^2, 3e-4 at
    129^2 and 7e-5 at 257^2 over the seeded constants.  The tolerance
    follows h^2 at about ten times those values: 0.05 at 33^2, 3.1e-3 at
    129^2, 7.8e-4 at 257^2."""
    return 0.05 * (32.0 / (res - 1)) ** 2


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


class OpFailed(Exception):
    """A CLI stage exited nonzero."""


# errors an op may raise; anything else is a defect of the benchmark
OP_ERRORS = (MinsurfError, ValueError, ArithmeticError, OSError, OpFailed)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One unit of work: ``kind`` selects the surface family, ``param`` its
    seeded constant, ``level`` a slice level, ``res`` the grid size."""

    kind: str
    param: object = None
    level: float = 0.0
    res: int = 0
    fmt: str = ""
    points: int = 0

    def label(self) -> str:
        parts = [self.kind]
        if self.res:
            parts.append(f"{self.res}x{self.res}")
        if self.fmt:
            parts.append(self.fmt)
        return " ".join(parts)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _rand_c(rng, lo, hi):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi))


# ---------------------------------------------------------------------------
# closed forms on a grid
# ---------------------------------------------------------------------------

def _on_grid(f, u, v, mask=None):
    """f at every grid point (u_j, v_k), or 0 where ``mask`` is False."""
    if mask is None:
        mask = np.ones((len(u), len(v)), bool)
    zero = (0.0,) * len(f(u[0], v[0]))
    return np.array([[f(a, b) if mask[j, k] else zero
                      for k, b in enumerate(v)] for j, a in enumerate(u)],
                    dtype=float)


def helicoid_oracle(c, u, v, base):
    """Theorem 5.1: the deformed helicoid, anchored at ``base``."""
    hd = catalog.helicoid_deformation(c.real, c.imag)
    return _on_grid(hd.components, u, v) - hd.components(base.real, base.imag)


def catenoid_deformation_oracle(theta, u, v, base):
    """Corollary 5.3 through the congruence U = u - ln cos t with components
    1 and 2 flipped (tests/test_catalog.py), anchored at ``base``."""
    surf = catalog.catenoid_deformation(theta)
    lc = math.log(math.cos(theta))
    flip = np.array([1.0, -1.0, -1.0, 1.0])
    ref = np.asarray(surf(base.real - lc, base.imag))
    return flip * (_on_grid(lambda a, b: surf(a - lc, b), u, v) - ref)


def _distance_to_origin(fixed, *ends):
    """Distance from 0 to the axis-parallel segments at ``fixed`` on one
    axis that span the hull of ``ends`` on the other."""
    ends = np.broadcast_arrays(*ends)
    lo, hi = np.minimum.reduce(ends), np.maximum.reduce(ends)
    return np.hypot(fixed, np.clip(0.0, lo, hi))


def reachable_mask(u, v, base):
    """The grid points that immerse writes around a puncture at 0, built
    from the geometry alone.  A point is written when it lies more than
    1.25 cell diagonals from the puncture and one of its two L-shaped
    paths keeps that far from it on every segment: z0 -> (u_j, Im z0) ->
    (u_j, v_k0) -> (u_j, v_k), or the transposed z0 -> (Re z0, v_k) ->
    (u_j0, v_k) -> (u_j, v_k), where u_j0 and v_k0 are the grid lines
    nearest z0."""
    clearance = 1.25 * math.hypot(u[1] - u[0], v[1] - v[0])
    x0, y0 = base.real, base.imag
    uj0 = u[np.argmin(np.abs(u - x0))]
    vk0 = v[np.argmin(np.abs(v - y0))]
    U, V = np.meshgrid(u, v, indexing="ij")
    primary = ((_distance_to_origin(y0, x0, U) > clearance)
               & (_distance_to_origin(U, y0, vk0, V) > clearance))
    transposed = ((_distance_to_origin(x0, y0, V) > clearance)
                  & (_distance_to_origin(V, x0, uj0, U) > clearance))
    return (np.hypot(U, V) > clearance) & (primary | transposed)


def catenoid_oracle(u, v, base, valid):
    """The (z, 1/z^2) catenoid, anchored at ``base``, at the ``valid`` grid
    points (0 elsewhere)."""
    surf = catalog.catenoid_closed_form()
    ref = np.asarray(surf.func(base.real, base.imag))
    return _on_grid(surf.func, u, v, valid) - valid[:, :, None] * ref


class Workload:
    """A seeded op list with its runner and oracle checks."""

    ops = ()

    def known_defects(self):
        return []


# ---------------------------------------------------------------------------
# patch: bulk integration and verification
# ---------------------------------------------------------------------------

class Patch(Workload):
    """deform, then immerse + verify_minimal at 129^2 and at 257^2, then
    null_residual + degeneracy_rank, on a theorem-5.1 helicoid or a
    corollary-5.3 catenoid.  Every op does both sizes, so all ops cost
    about the same and their median is that of one kind of work."""

    def __init__(self, rng, smoke, workdir):
        self.sizes = (17, 33) if smoke else (129, 257)
        points = sum(r * r for r in self.sizes)
        self.helicoid = catalog.helicoid()
        self.catenoid = catalog.catenoid_exp()
        self.ops = [Op("theorem51", _rand_c(rng, 0.3, 2.0), points=points),
                    Op("corollary53", rng.uniform(0.2, 1.3), points=points)]

    def run(self, op, slot):
        if op.kind == "theorem51":
            curve = transforms.parabolic_deform(self.helicoid, op.param)
        else:
            curve = transforms.parabolic_deform_rotated(self.catenoid, op.param)
        checked = []
        for res in self.sizes:
            patch = surface.immerse(curve, res=(res, res), tol=TOL)
            checked.append((patch, surface.verify_minimal(patch)))
        return (checked, nullcurve.null_residual(curve),
                surface.degeneracy_rank(curve))

    def digest(self, out):
        checked, res, deg = out
        scalars = json.dumps([[ver for _, ver in checked], res.max_abs_residual,
                              res.normalizer, deg.rank], sort_keys=True)
        return _sha(*[patch.points.tobytes() for patch, _ in checked],
                    deg.singular_values.tobytes(), scalars.encode())

    def check(self, op, out):
        checked, res, deg = out
        _require(res.is_null, "curve fails the null test")
        _require(deg.rank == 3, f"degeneracy rank {deg.rank}, expected 3")
        err = 0.0
        for patch, ver in checked:
            limit = defect_tol(len(patch.u))
            _require(ver["conformality_defect"] <= limit
                     and ver["harmonicity_defect"] <= limit,
                     f"minimality defects {ver} above {limit:.2e}")
            _require(bool(np.all(patch.valid)), "cells masked on entire data")
            if op.kind == "theorem51":
                want = helicoid_oracle(op.param, patch.u, patch.v,
                                       patch.base_point)
            else:
                want = catenoid_deformation_oracle(op.param, patch.u, patch.v,
                                                   patch.base_point)
            err = max(err, float(np.max(np.abs(patch.points - want))))
        _require(err <= ORACLE_TOL, f"immersion deviates by {err:.3e}")
        return {"err": err}


# ---------------------------------------------------------------------------
# cli: the README's deform | slice | fit and deform | export pipelines,
# in process through minsurf.cli.main
# ---------------------------------------------------------------------------

PUNCTURED_CATENOID = {
    "weierstrass": {"G": "z", "Psi": "1/z^2"},
    "domain": {"rect": [-1.5, 1.5, -1.5, 1.5], "punctures": [[0.0, 0.0]]},
    "base_point": [1.0, 0.0],
}
PUNCTURED_BASE = complex(*PUNCTURED_CATENOID["base_point"])
MESH_DOMAIN = domain.DomainSpec(-1.5, 1.5, -1.5, 1.5)


def _complex_flag(c):
    """A complex number in the CLI's a+bi form."""
    return f"{c.real:.17g}{c.imag:+.17g}i"


class Cli(Workload):
    """Mesh ops: ``export`` on the punctured full catenoid as PLY at 257^2,
    and ``deform | export`` on the corollary-5.3 catenoid as OBJ at 257^2
    and 513^2.  One slice op runs four pipelines: ``deform | slice | fit``
    on a theorem-5.1 helicoid (a hyperbola level and the line level
    ``atan2(-b, a)``) and on a corollary-5.3 catenoid (an ellipse level),
    and ``slice | fit`` on ``complex_parabola(mu)`` (a parabola level on
    axis 0).  The cycle is short enough for every op to run at least three
    times in a run, and the median of its four ops lies between the two
    257^2 mesh ops."""

    def __init__(self, rng, smoke, workdir):
        small, large = (17, 33) if smoke else (257, 513)
        npoints = 20 if smoke else 100
        self.workdir = workdir
        self.npoints = npoints
        self.specs = {}
        for name in ("catenoid-exp", "helicoid"):
            self.specs[name] = os.path.join(workdir, f"{name}.json")
            if cli.main(["catalog", "show", name,
                         "--output", self.specs[name]]) != 0:
                raise OpFailed(f"catalog show {name} failed")
        self.specs["punctured"] = os.path.join(workdir, "punctured-catenoid.json")
        with open(self.specs["punctured"], "w") as fh:
            json.dump(PUNCTURED_CATENOID, fh)
        mu = _rand_c(rng, 0.5, 2.0)
        self.specs["parabola"] = os.path.join(workdir, "complex-parabola.json")
        with open(self.specs["parabola"], "w") as fh:
            specio.dump(specio.SurfaceSpec(curve=catalog.complex_parabola(mu),
                                           base_point=0j), fh)

        c = _rand_c(rng, 0.5, 2.0)
        while True:   # keep the hyperbola clear of the line level
            v0 = rng.uniform(-1.3, 1.3)
            if abs(c.real * math.sin(v0) + c.imag * math.cos(v0)) >= 0.3 * abs(c):
                break
        # c = r e^{-i t} puts the line level atan2(-b, a) at t, inside the domain
        t = rng.uniform(-1.2, 1.2)
        c_line = cmath.rect(rng.uniform(0.5, 2.0), -t)
        slices = (Op("slice-hyperbola", c, v0),
                  Op("slice-line", c_line, t),
                  Op("slice-ellipse", rng.uniform(0.2, 1.3),
                     rng.uniform(-1.2, 1.2)),
                  Op("slice-parabola", mu, rng.uniform(-1.5, 1.5)))
        # a punctured export writes only the vertices it can reach
        written = reachable_mask(*MESH_DOMAIN.grid(small, small),
                                 PUNCTURED_BASE)
        self.ops = [
            Op("punctured", res=small, fmt="ply", points=int(written.sum())),
            Op("slices", slices, points=len(slices) * npoints),
            Op("corollary53", rng.uniform(0.2, 1.3), res=small, fmt="obj",
               points=small * small),
            Op("corollary53", rng.uniform(0.2, 1.3), res=large, fmt="obj",
               points=large * large),
        ]

    def known_defects(self):
        """Failing inputs kept out of the timed ops, as CLI argument lists
        with the error each one raises at this commit and its likely cause."""
        mesh = os.path.join(self.workdir, "defect-513.ply")
        return [{
            "name": "punctured catenoid export at 513x513",
            "argv": ["export", "--input", self.specs["punctured"],
                     "--res", "513x513", "--format", "ply",
                     "--tol", repr(TOL), "--output", mesh],
            "expected_error": "NoConvergence",
            "cause": ("likely the per-segment budget tol/(nu+nv) falling "
                      "below the roundoff of near-pole segment integrals; "
                      "385x385 works, 449x449 and 513x513 fail"),
        }]

    def _cli(self, *argv):
        if cli.main(list(argv)) != 0:
            raise OpFailed(f"minsurf {argv[0]} exited nonzero")

    def run(self, op, slot):
        """The paths of the files the op's CLI stages wrote, one tuple per
        pipeline."""
        out = os.path.join(self.workdir, f"op-{slot}")
        if op.kind == "slices":
            return [self._pipeline(sub, f"{out}-{j}")
                    for j, sub in enumerate(op.param)]
        return [self._pipeline(op, out)]

    def _pipeline(self, op, out):
        if op.kind in ("corollary53", "slice-ellipse"):
            spec = out + ".json"
            self._cli("deform", "--kind", "corollary53",
                      f"--theta={op.param!r}", "--input",
                      self.specs["catenoid-exp"], "--output", spec)
        elif op.kind in ("slice-hyperbola", "slice-line"):
            spec = out + ".json"
            # the = form keeps a leading minus sign from reading as a flag
            self._cli("deform", "--kind", "theorem51",
                      f"--c={_complex_flag(op.param)}", "--input",
                      self.specs["helicoid"], "--output", spec)
        else:
            spec = self.specs[op.kind.replace("slice-", "")]
        if op.fmt:
            mesh = f"{out}.{op.fmt}"
            self._cli("export", "--input", spec, "--res", f"{op.res}x{op.res}",
                      "--format", op.fmt, "--tol", repr(TOL), "--output", mesh)
            return spec, mesh
        axis = "0" if op.kind == "slice-parabola" else "3"
        self._cli("slice", "--input", spec, "--axis", axis,
                  f"--value={op.level!r}", "--npoints", str(self.npoints),
                  "--output", out + ".csv")
        self._cli("fit", "--input", out + ".csv", "--output", out + ".fit.json")
        return spec, out + ".csv", out + ".fit.json"

    def digest(self, out):
        chunks = []
        for paths in out:
            for path in paths:
                with open(path, "rb") as fh:
                    chunks.append(fh.read())
        return _sha(*chunks)

    def check(self, op, out):
        if op.fmt:
            return self._check_mesh(op, *out[0])
        errs = [self._check_slice(sub, *paths)["err"]
                for sub, paths in zip(op.param, out)]
        return {"err": max(errs)}

    def _check_slice(self, op, spec, csv, fit_json):
        with open(fit_json) as fh:
            fit = json.load(fh)
        kind = op.kind.replace("slice-", "")
        _require(fit["classification"] == kind,
                 f"classified {fit['classification']}, expected {kind}")
        if kind in ("hyperbola", "line"):
            geom = catalog.helicoid_deformation(
                op.param.real, op.param.imag).slice_geometry(op.level)
        if kind == "hyperbola":
            asy = np.array(fit["asymptotes"])
            errs = [abs(fit["semi_axes"][0] - geom["semi_transverse"]),
                    abs(fit["semi_axes"][1] - geom["semi_conjugate"]),
                    abs(abs(float(asy[0] @ asy[1]))
                        - abs(geom["cos_asymptote_angle"]))]
        elif kind == "line":
            pts = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 2:]
            direction = np.linalg.svd(pts - pts.mean(axis=0))[2][0]
            errs = [1.0 - abs(float(direction @ geom["direction"])),
                    fit["residual"]]
        elif kind == "ellipse":
            U = op.level - math.log(math.cos(op.param))
            want = sorted(catalog.ellipse_semi_axes(op.param, U), reverse=True)
            errs = [abs(g - w) for g, w in zip(fit["semi_axes"], want)]
        else:
            want = catalog.parabola_leading_coefficient(op.param, op.level)
            errs = [abs(fit["leading_coefficient"] - want)]
        err = float(max(errs))
        _require(err <= ORACLE_TOL, f"conic deviates by {err:.3e}")
        return {"err": err}

    def _check_mesh(self, op, spec, mesh):
        u, v = MESH_DOMAIN.grid(op.res, op.res)
        if op.fmt == "ply":
            verts, faces = read_ply(mesh)
            got = verts.reshape(op.res, op.res, -1)
            rel = 0.0
        else:
            verts, faces = read_obj(mesh)
            got = verts.reshape(op.res, op.res, 3)
            rel = 5e-9   # half a unit in the ninth significant digit
        note = {}
        if op.kind == "corollary53":
            valid = np.ones((op.res, op.res), bool)
            want = catenoid_deformation_oracle(op.param, u, v, 0j)
        else:
            # the writer stores masked vertices as 0, and no vertex of this
            # patch is 0, as the base point 1 is not a grid point
            valid = reachable_mask(u, v, PUNCTURED_BASE)
            written = np.any(got != 0.0, axis=2)
            _require(np.array_equal(written, valid),
                     f"{int(np.sum(written & ~valid))} vertices written that "
                     f"should be masked, {int(np.sum(valid & ~written))} "
                     "reachable ones left unwritten")
            clear = np.hypot(*np.meshgrid(u, v, indexing="ij")) > (
                1.25 * math.hypot(u[1] - u[0], v[1] - v[0]))
            note["unreachable_points"] = int(np.sum(clear & ~valid))
            want = catenoid_oracle(u, v, PUNCTURED_BASE, valid)
        want = want[:, :, :got.shape[2]]
        cells = (valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:]
                 & valid[:-1, 1:])
        _require(faces == 2 * int(np.sum(cells)),
                 f"{faces} faces for {int(np.sum(cells))} valid cells")
        dev = np.abs(got - want)[valid] - rel * np.abs(want[valid])
        err = max(float(np.max(dev)), 0.0)
        _require(err <= ORACLE_TOL, f"mesh deviates by {err:.3e}")
        return dict(note, err=err)


def read_ply(path):
    """Vertices (float64, all coordinates) and face count of a binary PLY."""
    with open(path, "rb") as fh:
        header = []
        while True:
            line = fh.readline().decode("ascii").strip()
            header.append(line)
            if line == "end_header":
                break
        nvert = nface = nprop = 0
        for line in header:
            parts = line.split()
            if parts[:2] == ["element", "vertex"]:
                nvert = int(parts[2])
            elif parts[:2] == ["element", "face"]:
                nface = int(parts[2])
            elif parts[:2] == ["property", "double"]:
                nprop += 1
        verts = np.frombuffer(fh.read(8 * nvert * nprop), dtype="<f8")
        body = fh.read()
    rec = struct.calcsize("<B3i")
    _require(len(body) == rec * nface, "PLY face block has the wrong size")
    return verts.reshape(nvert, nprop), nface


def read_obj(path):
    """Vertices (three coordinates) and face count of an OBJ file."""
    rows, faces = [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                rows.append(line.split()[1:4])
            elif line.startswith("f "):
                faces += 1
    return np.array(rows, dtype=float), faces


WORKLOADS = {"patch": Patch, "cli": Cli}


def build(name, seed, smoke, workdir):
    """The workload ``name`` with inputs drawn from ``seed``; its files go
    to ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), smoke, workdir)


def _setup_probe(argv):
    name, seed, smoke, workdir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    wl = build(name, seed, smoke, workdir)
    out = wl.run(wl.ops[0], 0)
    print(json.dumps({"digest": wl.digest(out)}))


if __name__ == "__main__":
    _setup_probe(sys.argv[1:])
