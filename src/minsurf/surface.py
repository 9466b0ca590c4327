"""From null curves to sampled immersions in R^n, and checks on them.

The immersion is X = Re of the path integral of the curve, anchored so
that X(z0) = 0.  Grid points are reached along L-shaped polylines
z0 -> (u_j, v0) -> (u_j, v_k); the vertical legs are assembled from
per-cell edge integrals shared down each column, so a nu x nv patch
costs O(nu nv) short segments, each integrated to the per-segment
tolerance budget.  Path independence on the puncture-free rectangle
makes the routing choice immaterial.  Every stage reads the curve's own
``domain``: the grid rectangle, the punctures that mask cells and
segments, and the log branch cut.

Verification instruments:

* conformal factor  L = (1/2) sum |phi_k|^2  (the metric is L |dz|^2)
* Gauss map         z -> [phi(z)] on the projective null quadric
* degeneracy rank   numerical rank of sampled curve values via SVD,
                    with hyperplane coefficients from the null space
* verify_minimal    second-order finite-difference conformality
                    (E = G, F = 0) and harmonicity (5-point Laplacian,
                    normalized by the conformal factor) defects
* export_mesh       OBJ (text, 9 significant digits) / PLY (binary,
                    float64, all n coordinates as vertex properties)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conic import ParametricSurface
from .errors import ZeroVector
from .nullcurve import NullCurve
from .quadrature import integrate_segments

__all__ = [
    "SurfacePatch", "GaussMapSample", "DegeneracyReport",
    "immerse", "conformal_factor", "gauss_map", "degeneracy_rank",
    "verify_minimal", "export_mesh", "parametric_immersion", "RANK_CUTOFF",
]

# singular values below RANK_CUTOFF * sigma_1 count as numerical zero;
# the data are analytic, so a wide gap separates structure from roundoff
RANK_CUTOFF = 1e-8


@dataclass(frozen=True)
class SurfacePatch:
    """Grid of immersion samples.  points[j, k] = X(u_j + i v_k)."""

    u: np.ndarray                 # (nu,)
    v: np.ndarray                 # (nv,)
    points: np.ndarray            # (nu, nv, n) real
    conformal: np.ndarray         # (nu, nv) conformal factor
    valid: np.ndarray             # (nu, nv) bool, False near punctures
    base_point: complex

    @property
    def n(self) -> int:
        return self.points.shape[2]

    @property
    def resolution(self):
        return self.points.shape[0], self.points.shape[1]

    def spacing(self):
        return self.u[1] - self.u[0], self.v[1] - self.v[0]


def _nearest_index(arr, x):
    return int(np.argmin(np.abs(arr - x)))


def immerse(c: NullCurve, zeta0: complex | None = None, res=(33, 33),
            tol: float = 1e-10) -> SurfacePatch:
    """Sample X = Re integral of the curve on a grid of the curve's
    domain, with X(zeta0) = 0.

    zeta0 defaults to the grid point nearest the domain center.  Cells
    within 1.25 cell-diagonals of a puncture, or reachable by neither
    L-path, are flagged invalid; their integrals are not attempted and
    their points and conformal factor are NaN.
    """
    domain = c.domain
    nu, nv = res
    u, v = domain.grid(nu, nv)
    hu, hv = u[1] - u[0], v[1] - v[0]

    if zeta0 is None:
        z0 = domain.default_base_point()
        zeta0 = complex(u[_nearest_index(u, z0.real)],
                        v[_nearest_index(v, z0.imag)])
    zeta0 = complex(zeta0)
    if not domain.contains(zeta0):
        raise ValueError("base point lies outside the domain")
    v0 = zeta0.imag

    zz = u[:, None] + 1j * v[None, :]
    clearance = 1.25 * float(np.hypot(hu, hv))
    valid = domain.puncture_distance(zz) > clearance
    j0 = _nearest_index(u, zeta0.real)
    k0 = _nearest_index(v, v0)
    if not valid[j0, k0]:
        raise ValueError("base point is masked by a puncture")

    seg_tol = tol / (nu + nv)
    total = _integrate_l_paths(c, zeta0, u, v, seg_tol, clearance)
    if domain.punctures and np.any(~np.isfinite(total[valid])):
        # retry unreachable cells with the transposed routing
        # z0 -> (u0, v_k) -> (u_j, v_k)
        alt = _integrate_l_paths(c, 1j * zeta0.conjugate(),
                                 v, u, seg_tol, clearance, swap=True)
        total = np.where(np.isfinite(total), total, alt)

    points = total.real
    valid &= np.all(np.isfinite(points), axis=2)
    points = np.where(valid[:, :, None], points, np.nan)
    lam = np.full(valid.shape, np.nan)
    lam[valid] = conformal_factor(c, zz[valid])
    return SurfacePatch(u, v, points, lam, valid, zeta0)


def _integrate_l_paths(c, zeta0, u, v, seg_tol, clearance, swap=False):
    """Integrals along z0 -> (u_j, Im z0) -> (u_j, v_k) for all grid
    points, sharing edge integrals down each column.

    With ``swap`` the roles of the axes are exchanged: the caller passes
    (v, u) and a conjugate-rotated base point, and the result is
    transposed back.  Cells whose path crosses a puncture come back NaN.
    The column accumulation is anchored at the grid row nearest Im z0,
    so a zero-length path yields exactly zero.
    """
    nu, nv = len(u), len(v)

    def lift(a, b):
        # grid coordinates -> complex plane points (undo the swap)
        return (b + 1j * a) if swap else (a + 1j * b)

    v0 = zeta0.imag
    k0 = _nearest_index(v, v0)
    z0 = lift(zeta0.real, zeta0.imag)

    horiz_a = np.full(nu, z0, dtype=np.complex128)
    horiz_b = lift(u, np.full(nu, v0))
    stem_a = horiz_b
    stem_b = lift(u, np.full(nu, v[k0]))
    uu = np.broadcast_to(u[:, None], (nu, nv - 1))
    edge_a = lift(uu, np.broadcast_to(v[None, :-1], (nu, nv - 1))).ravel()
    edge_b = lift(uu, np.broadcast_to(v[None, 1:], (nu, nv - 1))).ravel()
    seg_a = np.concatenate([horiz_a, stem_a, edge_a])
    seg_b = np.concatenate([horiz_b, stem_b, edge_b])

    ok = c.domain.puncture_distance(seg_a, seg_b) > clearance

    vals = np.full((c.n,) + seg_a.shape, np.nan, dtype=np.complex128)
    vals[:, ok] = integrate_segments(c.components, seg_a[ok], seg_b[ok], seg_tol,
                                     domain=c.domain)
    horiz = vals[:, :nu]
    stem = vals[:, nu:2 * nu]
    edges = vals[:, 2 * nu:].reshape(c.n, nu, nv - 1)
    col = np.zeros((c.n, nu, nv), np.complex128)
    if k0 + 1 < nv:
        col[:, :, k0 + 1:] = np.cumsum(edges[:, :, k0:], axis=2)
    if k0 > 0:
        col[:, :, :k0] = -np.cumsum(edges[:, :, :k0][:, :, ::-1], axis=2)[:, :, ::-1]
    out = ((horiz + stem)[:, :, None] + col).transpose(1, 2, 0)
    return out.transpose(1, 0, 2) if swap else out


def conformal_factor(c: NullCurve, zeta):
    """(1/2) sum_k |phi_k(zeta)|^2 at scalar or array zeta."""
    lam = 0.5 * np.sum(np.abs(c(zeta)) ** 2, axis=-1)
    return float(lam) if np.ndim(zeta) == 0 else lam


@dataclass(frozen=True)
class GaussMapSample:
    """Unit-normalized projective representative of phi(zeta)."""

    vector: np.ndarray
    zeta: complex

    def projective_distance(self, other: "GaussMapSample") -> float:
        """0 for the same projective point, up to 1 for orthogonal ones."""
        return float(1.0 - abs(np.vdot(self.vector, other.vector)))


def gauss_map(c: NullCurve, zeta: complex) -> GaussMapSample:
    """Projective curve direction at zeta; raises ZeroVector at a
    branch point (all components vanishing)."""
    vals = c(complex(zeta))
    norm = float(np.linalg.norm(vals))
    if norm < 1e-300:
        raise ZeroVector(f"curve vanishes at {zeta}")
    return GaussMapSample(vals / norm, complex(zeta))


@dataclass(frozen=True)
class DegeneracyReport:
    rank: int
    singular_values: np.ndarray
    hyperplane: np.ndarray | None   # coefficients a with a . phi = 0
    sample_count: int


def degeneracy_rank(c: NullCurve, samples: int = 64, skip: int = 0) -> DegeneracyReport:
    """Numerical rank of the span of sampled curve values.

    SVD of the samples x n matrix; rank counts singular values above
    RANK_CUTOFF relative to the largest.  When the span misses a
    hyperplane (rank = n - 1) the null right-singular vector is returned
    as hyperplane coefficients; for deeper degeneracy the first normal
    direction is returned.
    """
    if samples < 2 * c.n:
        raise ValueError("need at least 2n samples for a stable rank")
    z = c.domain.sample_points(samples, skip=skip)
    a = c(z)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > RANK_CUTOFF * s[0])) if s[0] > 0 else 0
    hyper = None
    if 1 <= rank <= c.n - 1:
        # rows of vh beyond the rank are an orthonormal basis of the
        # normal space; conjugate so that a . phi = 0 (not a . conj(phi))
        hyper = np.conj(vh[rank])
    return DegeneracyReport(rank, s, hyper, samples)


def verify_minimal(p: SurfacePatch) -> dict:
    """Finite-difference minimality check on interior grid points.

    Conformality defect: max of |E - G| and 2|F| over E + G, with
    E, G, F from central differences.  Harmonicity defect: the 5-point
    Laplacian (per-direction spacing) divided by the conformal factor.
    Both are O(h^2) on a true minimal immersion.
    """
    nu, nv = p.resolution
    if nu < 5 or nv < 5:
        raise ValueError("verification needs at least a 5x5 grid")
    hu, hv = p.spacing()
    X = p.points
    ok = (p.valid[1:-1, 1:-1] & p.valid[:-2, 1:-1] & p.valid[2:, 1:-1]
          & p.valid[1:-1, :-2] & p.valid[1:-1, 2:])
    if not np.any(ok):
        raise ValueError("no interior points to verify")

    xu = (X[2:, 1:-1] - X[:-2, 1:-1]) / (2 * hu)
    xv = (X[1:-1, 2:] - X[1:-1, :-2]) / (2 * hv)
    E = np.sum(xu * xu, axis=2)
    G = np.sum(xv * xv, axis=2)
    F = np.sum(xu * xv, axis=2)
    scale = E + G
    conf = np.maximum(np.abs(E - G), 2 * np.abs(F)) / scale

    lap = ((X[2:, 1:-1] - 2 * X[1:-1, 1:-1] + X[:-2, 1:-1]) / hu ** 2
           + (X[1:-1, 2:] - 2 * X[1:-1, 1:-1] + X[1:-1, :-2]) / hv ** 2)
    harm = np.max(np.abs(lap), axis=2) / p.conformal[1:-1, 1:-1]

    return {
        "conformality_defect": float(np.max(conf[ok])),
        "harmonicity_defect": float(np.max(harm[ok])),
        "interior_points": int(np.sum(ok)),
    }


def wirtinger_defect(p: SurfacePatch, c: NullCurve) -> float:
    """Max |2 dX/dz - phi| over interior points, via central differences.
    Checks that the sampled immersion really derives from the curve."""
    nu, nv = p.resolution
    hu, hv = p.spacing()
    X = p.points
    xu = (X[2:, 1:-1] - X[:-2, 1:-1]) / (2 * hu)
    xv = (X[1:-1, 2:] - X[1:-1, :-2]) / (2 * hv)
    zz = p.u[1:-1, None] + 1j * p.v[None, 1:-1]
    phi = c(zz)
    ok = (p.valid[1:-1, 1:-1] & p.valid[:-2, 1:-1] & p.valid[2:, 1:-1]
          & p.valid[1:-1, :-2] & p.valid[1:-1, 2:])
    diff = np.abs((xu - 1j * xv) - phi).max(axis=-1)
    return float(np.max(diff[ok]))


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

OBJ_BLOCK_ROWS = 1 << 16   # rows per OBJ write: bounds the text buffer


def _triangles(p: SurfacePatch) -> np.ndarray:
    """Triangles (a, b, c), (a, c, d), shape (m, 3), of each cell with all
    corners a..d = (j, k), (j+1, k), (j+1, k+1), (j, k+1) valid, row-major."""
    vid = np.arange(p.valid.size).reshape(p.valid.shape)
    ok = p.valid[:-1, :-1] & p.valid[1:, :-1] & p.valid[1:, 1:] & p.valid[:-1, 1:]
    a, b, c, d = (vid[:-1, :-1][ok], vid[1:, :-1][ok],
                  vid[1:, 1:][ok], vid[:-1, 1:][ok])
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def export_mesh(p: SurfacePatch, path, fmt: str = "obj", projection=None) -> None:
    """Write the patch as a triangulated mesh.

    OBJ carries exactly three coordinates: the first three axes unless a
    ``projection`` (tuple of 3 axis indices) selects others.  PLY is
    binary little-endian and stores all n coordinates as float64 vertex
    properties named x, y, z, w, ...
    """
    fmt = fmt.lower()
    verts = p.points.reshape(-1, p.n)
    verts = np.where(np.isfinite(verts), verts, 0.0)
    tris = _triangles(p)
    if fmt == "obj":
        axes = tuple(projection) if projection is not None else (0, 1, 2)
        if len(axes) != 3 or any(not 0 <= a < p.n for a in axes):
            raise ValueError(f"projection must pick 3 of {p.n} axes")
        with open(path, "w") as fh:
            for line, rows in (("v %.9g %.9g %.9g\n", verts[:, list(axes)]),
                               ("f %d %d %d\n", tris + 1)):
                for lo in range(0, len(rows), OBJ_BLOCK_ROWS):
                    block = rows[lo:lo + OBJ_BLOCK_ROWS]
                    fh.write(line * len(block) % tuple(block.ravel().tolist()))
    elif fmt == "ply":
        names = ["x", "y", "z", "w", "p4", "p5"][:p.n]
        header = ["ply", "format binary_little_endian 1.0",
                  f"element vertex {len(verts)}"]
        header += [f"property double {nm}" for nm in names]
        header += [f"element face {len(tris)}",
                   "property list uchar int vertex_indices", "end_header"]
        faces = np.empty(len(tris), dtype=[("n", "u1"), ("v", "<i4", 3)])
        faces["n"], faces["v"] = 3, tris
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            fh.write(np.ascontiguousarray(verts, dtype="<f8").tobytes())
            fh.write(faces.tobytes())
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")


def parametric_immersion(c: NullCurve, zeta0: complex | None = None,
                         tol: float = 1e-11) -> ParametricSurface:
    """Immersion X(u, v) = Re integral of the curve, anchored at zeta0,
    for slicing and spot checks.  Each point is reached along the L-path
    z0 -> (u, Im z0) -> (u, v); one integrate_segments call takes all the
    legs of the points of one surface call."""
    dom = c.domain
    z0 = complex(zeta0) if zeta0 is not None else dom.default_base_point()

    def f(u, v):
        corner = (u + 1j * z0.imag).ravel()
        vals = integrate_segments(c.components,
                                  np.append(np.full(corner.size, z0), corner),
                                  np.append(corner, u + 1j * v), tol,
                                  domain=dom)
        # sum the two legs; copied C-contiguous, as a strided result rounds
        # the slice's plane fit differently
        x = vals.real.reshape(c.n, 2, -1).sum(axis=1).T.copy()
        return x.reshape(u.shape + (c.n,))

    return ParametricSurface(f, (dom.u_min, dom.u_max),
                             (dom.v_min, dom.v_max), "immersion")


def load_obj_vertices(path) -> np.ndarray:
    """Vertex coordinates of an OBJ file (for round-trip checks)."""
    with open(path) as fh:
        rows = [line.split()[1:4] for line in fh if line.startswith("v ")]
    return np.array(rows, dtype=float)
