"""From null curves to sampled immersions in R^n, and checks on them.

The immersion is X = Re of the path integral of the curve, anchored so
that X(z0) = 0; on the puncture-free rectangle it does not depend on the
path.  When ``expr.antiderivative`` gives every component an exact
primitive F = sum_t F_t (sums of c z^n e^{kz}, n >= 0: the helicoid, the
exponential catenoid and their constant linear deformations), ``immerse``
takes X = Re(F(z) - F(z0)) at each grid point, with tol as each point's
budget for the roundoff level PRIMITIVE_ULPS eps (sum_t |F_t(z)| +
sum_t |F_t(z0)|).  Otherwise it integrates a spanning tree of the grid
by quadrature in one ``integrate_segments`` call of nu nv segments (a
stem from z0 to the nearest grid point g(j0, k0), the edges of row k0 and
of every column), each within tol / (nu + nv), and sums them outward in
blocks of about sqrt(m) of a line's m edges.  Where a puncture cuts the
tree, the transposed tree reaches what it can; on both routes the valid
cells are those the trees reach.  Every stage reads the curve's own
``domain``: the grid rectangle, the punctures that mask cells and
segments, and the log branch cut.

Verification instruments:

* conformal factor  L = (1/2) sum |phi_k|^2  (the metric is L |dz|^2)
* Gauss map         z -> [phi(z)] on the projective null quadric
* degeneracy rank   numerical rank of sampled curve values via SVD,
                    with hyperplane coefficients from the null space
* verify_minimal    second-order finite-difference conformality
                    (E = G, F = 0) and harmonicity (5-point Laplacian)
                    defects, both scaled by the sampled metric E + G,
                    so they read the patch alone
* export_mesh       OBJ (text, 9 significant digits) / PLY (binary,
                    float64, all n coordinates as vertex properties)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine   # looked up at each call, so wrappers on it see them
from .conic import ParametricSurface
from .errors import ZeroVector
from .expr import antiderivative
from .nullcurve import NullCurve
from .quadrature import CHUNK_NODES, check_tol, integrate_segments

__all__ = [
    "SurfacePatch", "GaussMapSample", "DegeneracyReport",
    "immerse", "conformal_factor", "gauss_map", "degeneracy_rank",
    "verify_minimal", "export_mesh", "parametric_immersion", "RANK_CUTOFF",
]

# singular values below RANK_CUTOFF * sigma_1 count as numerical zero;
# the data are analytic, so a wide gap separates structure from roundoff
RANK_CUTOFF = 1e-8
# ulps of roundoff per primitive term and point: a term c z^m e^{kz}
# rounds in k z (an absolute error that exp turns relative, about |k z|
# ulps, of order one on the catalog domains), in exp, in z^m and in the
# product with c, and F(z) - F(z0) rounds once more
PRIMITIVE_ULPS = 4
_PRIMITIVE_ROUNDOFF = PRIMITIVE_ULPS * np.finfo(np.float64).eps


@dataclass(frozen=True)
class SurfacePatch:
    """Grid of immersion samples.  points[j, k] = X(u_j + i v_k)."""

    u: np.ndarray                 # (nu,)
    v: np.ndarray                 # (nv,)
    points: np.ndarray            # (nu, nv, n) real
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
    spanning tree, are flagged invalid; their points are NaN.  With an
    exact primitive each valid point is Re(F(z) - F(zeta0)) within tol,
    in one pass over chunks of them; a declared puncture masks cells,
    but no path exists to pass through it.
    Otherwise each tree is one ``integrate_segments`` call, each edge
    within tol / (nu + nv) (see the module docstring).
    """
    tol = check_tol(tol)
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
    tree = (domain, clearance, zz, zeta0, j0, k0, valid)

    sample = _primitive_sampler(c, zeta0, tol)
    if sample is not None:
        # edges that cost nothing reach the cells that quadrature reaches
        reach = valid & np.isfinite(
            _tree_integrals(lambda a, b: np.zeros((1, a.size)), *tree)[0])
        sampled = sample(zz[reach])
        if sampled is not None:
            points = np.full((nu, nv, c.n), np.nan)
            points[reach] = sampled
            return SurfacePatch(u, v, points, reach, zeta0)

    points = _tree_integrals(lambda a, b: integrate_segments(
        c.components, a, b, tol / (nu + nv), domain=domain), *tree)
    points = points.real.transpose(1, 2, 0)
    valid &= np.all(np.isfinite(points), axis=2)
    points = np.where(valid[:, :, None], points, np.nan)
    return SurfacePatch(u, v, points, valid, zeta0)


def _primitive_sampler(c, zeta0, tol):
    """None when a component has no exact primitive F = sum_t F_t (see
    ``expr.antiderivative``), else a function of points z, shape (m,),
    giving X = Re(F(z) - F(zeta0)), shape (m, n), or None when a value
    is not finite or PRIMITIVE_ULPS eps (sum_t |F_t(z)| + sum_t
    |F_t(zeta0)|) exceeds tol.  One program of the terms is compiled
    here, and evaluated at zeta0 and in chunks of at most CHUNK_NODES
    values per component."""
    prims = [antiderivative(e) for e in c.components]
    if any(p is None for p in prims):
        return None
    prog = engine.compile_expr(tuple(t for p in prims for t in p))
    # the terms of component i are outputs cuts[i]:cuts[i + 1]; the zero
    # curve has none
    cuts = np.cumsum([0] + [len(p) for p in prims])
    step = max(1, CHUNK_NODES * c.n // max(1, len(prog.outputs)))

    def primitive(vals):
        # F and sum_t |F_t| per component, shape (n, m) each
        terms = [vals[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
        return (np.array([t.sum(axis=0) for t in terms]),
                np.array([np.abs(t).sum(axis=0) for t in terms]))

    base, base_mag = primitive(engine.eval_program(prog, np.array([zeta0])))

    def sample(z):
        x = np.empty((z.size, c.n))
        for lo in range(0, z.size, step):
            vals = engine.eval_program(prog, z[lo:lo + step])
            F, mag = primitive(vals)
            if not (np.all(np.isfinite(vals)) and np.all(
                    _PRIMITIVE_ROUNDOFF * (mag + base_mag) <= tol)):
                return None
            x[lo:lo + step] = (F - base).real.T
        return x

    return sample


def _tree_integrals(integrate, domain, clearance, zz, zeta0, j0, k0, valid):
    """Integrals from zeta0 to every grid point zz, shape (k, nu, nv): the
    k-row ``integrate(a, b)`` of the tree edges a -> b clear of the
    punctures (the others are NaN, untried), summed along the spanning
    tree and then the transposed one; NaN where neither reaches."""
    def edges(a, b, need):
        ok = need & (domain.puncture_distance(a, b) > clearance)
        got = integrate(a[ok], b[ok])
        vals = np.full((len(got),) + a.shape, np.nan, dtype=np.complex128)
        vals[:, ok] = got
        return vals

    nu, nv = zz.shape
    # the spanning tree: a stem z0 -> g(j0, k0), the edges of row k0 and
    # the edges of every column, in one call of nu * nv segments
    a = np.concatenate([[zeta0], zz[:-1, k0], zz[:, :-1].ravel()])
    b = np.concatenate([[zz[j0, k0]], zz[1:, k0], zz[:, 1:].ravel()])
    vals = edges(a, b, True)
    stem = vals[:, 0, None, None]
    col = _running_sums(vals[:, nu:].reshape(-1, nu, nv - 1), k0)
    total = stem + _running_sums(vals[:, 1:nu], j0)[:, :, None] + col
    missed = valid & ~np.all(np.isfinite(total), axis=0)
    if np.any(missed):
        # the transposed tree reaches the rest: column j0, then the row
        # edges between j0 and a missed cell (row k0 is the first tree's)
        beyond = np.zeros((nu - 1, nv), bool)
        beyond[j0:] = np.logical_or.accumulate(missed[:j0:-1], axis=0)[::-1]
        beyond[:j0] = np.logical_or.accumulate(missed[:j0], axis=0)
        beyond[:, k0] = False
        rows = edges(zz[:-1].T, zz[1:].T, beyond.T)
        alt = stem + col[:, j0, :, None] + _running_sums(rows, j0)
        total = np.where(np.isfinite(total), total, alt.transpose(0, 2, 1))
    return total


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
    A sum then carries about 2 sqrt(m) roundings, not m: the punctured
    catenoid (z, 1/z^2) at 257^2 is 4.3e-15 off its oracle, not 1.2e-14."""
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
    Laplacian (per-direction spacing) over (E + G) / 2, the conformal
    factor to O(h^2).  Both are O(h^2) on a true minimal immersion.
    Points where E + G = 0 are left out; ValueError when no interior
    point is left.
    """
    nu, nv = p.resolution
    if nu < 5 or nv < 5:
        raise ValueError("verification needs at least a 5x5 grid")
    xu, xv, ok = _central_differences(p)
    E = np.sum(xu * xu, axis=2)
    G = np.sum(xv * xv, axis=2)
    F = np.sum(xu * xv, axis=2)
    scale = E + G
    ok &= scale != 0        # a zero metric gives no scale to read a defect on
    if not np.any(ok):
        raise ValueError("no interior points to verify")

    hu, hv = p.spacing()
    X = p.points
    conf = np.maximum(np.abs(E - G), 2 * np.abs(F))[ok] / scale[ok]
    lap = ((X[2:, 1:-1] - 2 * X[1:-1, 1:-1] + X[:-2, 1:-1]) / hu ** 2
           + (X[1:-1, 2:] - 2 * X[1:-1, 1:-1] + X[1:-1, :-2]) / hv ** 2)
    harm = np.max(np.abs(lap), axis=2)[ok] / (0.5 * scale[ok])

    return {
        "conformality_defect": float(np.max(conf)),
        "harmonicity_defect": float(np.max(harm)),
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
    for slicing and spot checks: Re(F(u + iv) - F(zeta0)) within tol for a
    curve with an exact primitive (compiled once, here); otherwise, or over
    that budget, the L-paths z0 -> (u, Im z0) -> (u, v) of a surface call's
    points in one integrate_segments call, each leg within tol."""
    tol = check_tol(tol)
    dom = c.domain
    z0 = complex(zeta0) if zeta0 is not None else dom.default_base_point()
    sample = _primitive_sampler(c, z0, tol)

    def f(u, v):
        sampled = sample((u + 1j * v).ravel()) if sample is not None else None
        if sampled is not None:
            return sampled.reshape(u.shape + (c.n,))
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
