"""From null curves to sampled immersions in R^n, and checks on them.

The immersion is X = Re of the path integral of the curve, anchored so
that X(z0) = 0.  The integral does not depend on the path on the
puncture-free rectangle, so a nu x nv grid needs one edge integral per
grid point: ``immerse`` integrates a spanning tree of the grid, a stem
from z0 to the nearest grid point g(j0, k0), the edges of row k0 and the
edges of every column, nu nv segments in all, and takes X as running sums
outward from j0 along the row and then from k0 down each column, summed
in blocks of about sqrt(m) of a line's m edges.  A path
has at most nu + nv - 1 segments, each integrated to tol / (nu + nv), so
every point is within tol.  Where a puncture cuts the tree, the
transposed tree (column j0, then every row) reaches what it can.  Every
stage reads the curve's own ``domain``: the grid rectangle, the
punctures that mask cells and segments, and the log branch cut.

The edge integrals come from ``quadrature.segment_integrals``.  For a
curve whose components are sums of c z^n e^{kz} (n >= 0), such as the
helicoid, the exponential catenoid, the Osserman graph, the Lagrangian
catenoid, the complex parabola and every constant linear deformation of
them, an edge costs two evaluations of the exact primitive, F(b) - F(a),
while that difference's roundoff level stays within the edge's share of
tol; any other curve, or a call over budget, is integrated by adaptive
Gauss-Kronrod quadrature.

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

import math
from dataclasses import dataclass

import numpy as np

from .conic import ParametricSurface
from .errors import ZeroVector
from .nullcurve import NullCurve
from .quadrature import segment_integrals

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
    within 1.25 cell-diagonals of a puncture, or reached by neither
    spanning tree, are flagged invalid; the edges they would need are not
    integrated, and their points and conformal factor are NaN.  Each tree
    is one ``segment_integrals`` call: exact primitives for a curve of
    exponential polynomials, quadrature otherwise (see the module
    docstring); either way each edge is within tol / (nu + nv).
    """
    domain = c.domain
    nu, nv = res
    u, v = domain.grid(nu, nv)

    if zeta0 is None:
        z0 = domain.default_base_point()
        zeta0 = complex(u[_nearest_index(u, z0.real)],
                        v[_nearest_index(v, z0.imag)])
    zeta0 = complex(zeta0)
    if not domain.contains(zeta0):
        raise ValueError("base point lies outside the domain")

    zz = u[:, None] + 1j * v[None, :]
    clearance = 1.25 * float(np.hypot(u[1] - u[0], v[1] - v[0]))
    valid = domain.puncture_distance(zz) > clearance
    j0 = _nearest_index(u, zeta0.real)
    k0 = _nearest_index(v, zeta0.imag)
    if not valid[j0, k0]:
        raise ValueError("base point is masked by a puncture")

    # the trees' edge arrays are freed on return, before the conformal
    # factor evaluates the curve on the whole grid
    points = _tree_integrals(c, zz, zeta0, j0, k0, valid, tol / (nu + nv),
                             clearance).real.transpose(1, 2, 0)
    valid &= np.all(np.isfinite(points), axis=2)
    points = np.where(valid[:, :, None], points, np.nan)
    lam = np.full(valid.shape, np.nan)
    lam[valid] = conformal_factor(c, zz[valid])
    return SurfacePatch(u, v, points, lam, valid, zeta0)


def _tree_integrals(c, zz, zeta0, j0, k0, valid, seg_tol, clearance):
    """Integrals of the curve from zeta0 to every grid point zz, shape
    (n, nu, nv): along the spanning tree, with the transposed tree
    filling in the valid cells a puncture cuts off; NaN where neither
    reaches."""
    nu, nv = zz.shape
    # the spanning tree: a stem z0 -> g(j0, k0), the edges of row k0 and
    # the edges of every column, in one call of nu * nv segments
    a = np.concatenate([[zeta0], zz[:-1, k0], zz[:, :-1].ravel()])
    b = np.concatenate([[zz[j0, k0]], zz[1:, k0], zz[:, 1:].ravel()])
    vals = _edge_integrals(c, a, b, True, seg_tol, clearance)
    stem = vals[:, 0, None, None]
    col = _running_sums(vals[:, nu:].reshape(c.n, nu, nv - 1), k0)
    total = stem + _running_sums(vals[:, 1:nu], j0)[:, :, None] + col
    missed = valid & ~np.all(np.isfinite(total), axis=0)
    if np.any(missed):
        # the transposed tree reaches the rest: column j0, then the row
        # edges between j0 and a missed cell (row k0 is the first tree's)
        beyond = np.zeros((nu - 1, nv), bool)
        beyond[j0:] = np.logical_or.accumulate(missed[:j0:-1], axis=0)[::-1]
        beyond[:j0] = np.logical_or.accumulate(missed[:j0], axis=0)
        beyond[:, k0] = False
        rows = _edge_integrals(c, zz[:-1].T, zz[1:].T, beyond.T, seg_tol,
                               clearance)
        alt = stem + col[:, j0, :, None] + _running_sums(rows, j0)
        total = np.where(np.isfinite(total), total, alt.transpose(0, 2, 1))
    return total


def _edge_integrals(c, a, b, need, seg_tol, clearance):
    """Integrals of the curve along the segments a -> b where ``need``
    (broadcast to a.shape) holds, shape (n,) + a.shape, in one
    segment_integrals call; NaN on the other segments and on those that
    pass within ``clearance`` of a puncture, which are not tried."""
    ok = need & (c.domain.puncture_distance(a, b) > clearance)
    vals = np.full((c.n,) + a.shape, np.nan, dtype=np.complex128)
    vals[:, ok] = segment_integrals(c.components, a[ok], b[ok], seg_tol,
                                    domain=c.domain)
    return vals


def _running_sums(edges, i0):
    """Node values along the last axis from its m - 1 edge integrals:
    zero at node i0 and summed outward from it in both directions, so a
    NaN edge makes every node beyond it NaN."""
    out = np.zeros(edges.shape[:-1] + (edges.shape[-1] + 1,), edges.dtype)
    out[..., i0 + 1:] = _cumsum(edges[..., i0:])
    out[..., :i0] = -_cumsum(edges[..., :i0][..., ::-1])[..., ::-1]
    return out


def _cumsum(x):
    """Cumulative sums along the last axis of m values, taken in blocks of
    about sqrt(m): sums within each block, then over the blocks' totals.
    A sum then carries at most about 2 sqrt(m) roundings, not m, which
    matters once the edges are exact differences of a primitive."""
    m = x.shape[-1]
    b = math.isqrt(max(m - 1, 0)) + 1
    nb = -(-m // b)
    s = np.zeros(x.shape[:-1] + (nb * b,), x.dtype)
    s[..., :m] = x
    blocks = s.reshape(x.shape[:-1] + (nb, b))
    np.cumsum(blocks, axis=-1, out=blocks)
    blocks[..., 1:, :] += np.cumsum(blocks[..., :-1, -1], axis=-1)[..., None]
    return s[..., :m]


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


def _central_differences(p: SurfacePatch):
    """X_u and X_v by central differences at the interior grid points,
    with the mask of those whose four neighbours are all valid."""
    hu, hv = p.spacing()
    X = p.points
    xu = (X[2:, 1:-1] - X[:-2, 1:-1]) / (2 * hu)
    xv = (X[1:-1, 2:] - X[1:-1, :-2]) / (2 * hv)
    ok = (p.valid[1:-1, 1:-1] & p.valid[:-2, 1:-1] & p.valid[2:, 1:-1]
          & p.valid[1:-1, :-2] & p.valid[1:-1, 2:])
    return xu, xv, ok


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
    xu, xv, ok = _central_differences(p)
    if not np.any(ok):
        raise ValueError("no interior points to verify")

    hu, hv = p.spacing()
    X = p.points
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
    xu, xv, ok = _central_differences(p)
    phi = c(p.u[1:-1, None] + 1j * p.v[None, 1:-1])
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
    z0 -> (u, Im z0) -> (u, v); one segment_integrals call takes all the
    legs of the points of one surface call."""
    dom = c.domain
    z0 = complex(zeta0) if zeta0 is not None else dom.default_base_point()

    def f(u, v):
        corner = (u + 1j * z0.imag).ravel()
        vals = segment_integrals(c.components,
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
