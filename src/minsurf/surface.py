"""From null curves to sampled immersions in R^n, and checks on them.

The immersion is X = Re of the path integral of the curve, anchored so
that X(z0) = 0; on the puncture-free rectangle it does not depend on the
path.  ``immerse`` first finds the valid grid points: those one of whose
L-paths from z0 (``_l_paths``), the stem to the nearest grid point
g(j0, k0) then row k0 and column j, or the stem, column j0 and row k,
keeps more than 1.25 cell diagonals from every puncture, by one segment
test that serves the default anchor and the sheets below too.  The
L-paths keep inside the rectangle, so when every puncture lies farther
than that from it, the test passes at once and measures no distance.  When
``expr.primitive_form`` of each of the curve's ``forms`` (read once per
curve) is an exact primitive (sums of c z^n e^{kz}, n negative only where
k = 0: every catalog curve and its constant linear deformations), each
component is F_i = sum_b C[i, b] z^m e^{kz} + r_i log z over the curve's
distinct basis functions z^m e^{kz}, and X is Re(F(z) - F(z0)) on the
domain's branch cut plus w Re(2 pi i r_i), w the signed number of times
the point's L-path crosses the cut, which ``_l_paths`` finds from the
caller's segment test.  One entry, ``_Primitive.fill``, serves grids
(``immerse``) and flat point sets (``parametric_immersion``):
each e^{kz} is e^{ku} e^{ikv}, from one program of the distinct e^{kz} run
once on the u and once on the iv that broadcast to the points, so a grid
takes nu + nv exponentials per k, not one per point and term.  Each valid
point has tol as its budget for the roundoff level PRIMITIVE_ULPS eps
(level(z) + level(z0)), level = sum_b |C[i, b]| |z|^m |e^{ku}| |e^{ikv}| +
|r_i| |log z|.  The budget is checked first on the two tables, on the
level at the nearest and farthest |z| that the ranges of |u| and |v|
allow, with the tables' largest factors, doubled (a sum of |z|^m is convex
in log |z|); else, or with a log z term, each point checks its own.
Otherwise (outside the class, or over that budget) one
``integrate_segments`` call takes the stem and the edges of row k0 and
of every column toward the points the first L-path reaches, each within
tol / (nu + nv), summed outward in blocks of about sqrt(m) of a line's m
edges, and a second the transposed tree's row edges toward the other
valid points.  Every stage reads the curve's ``domain``: the grid
rectangle, the punctures and the log branch cut.

Verification instruments:

* conformal factor  L = (1/2) sum |phi_k|^2  (the metric is L |dz|^2)
* Gauss map         z -> [phi(z)] on the projective null quadric
* degeneracy rank   numerical rank of sampled curve values via SVD,
                    with hyperplane coefficients from the null space
                    when it is one-dimensional
* real period       Re(2 pi i res_0 phi) from the z^{-1} coefficients
* verify_minimal    second-order finite-difference conformality
                    (E = G, F = 0) and harmonicity (5-point Laplacian)
                    defects, both scaled by the sampled metric E + G,
                    so they read the patch alone; the stencil works on
                    one component plane at a time, and E, G, F are
                    numpy's sums over the planes
* export_mesh       OBJ (text, 9 significant digits) / PLY (binary,
                    float64, all n coordinates as vertex properties)

``immerse`` stores the samples component-major, as n planes of nu nv
values, and a patch's points are the (nu, nv, n) view of those planes.
The exact route, verify_minimal and export_mesh take the grid in blocks
of whole rows of about BLOCK_POINTS points, building no full-grid
temporary, and their outputs do not depend on the block size.  The
quadrature keeps its own chunk size, quadrature.CHUNK_NODES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine   # looked up at each call, so wrappers on it see them
from .conic import ParametricSurface
from .errors import SingularPath, ZeroVector
from .expr import Z, exp, log, primitive_form, residue
from .nullcurve import NullCurve
from .quadrature import check_tol, hits_puncture, integrate_segments

__all__ = [
    "SurfacePatch", "GaussMapSample", "DegeneracyReport",
    "immerse", "conformal_factor", "gauss_map", "degeneracy_rank",
    "verify_minimal", "export_mesh", "parametric_immersion", "real_period",
    "RANK_CUTOFF", "BLOCK_POINTS",
]

# singular values below RANK_CUTOFF * sigma_1 count as numerical zero;
# the data are analytic, so a wide gap separates structure from roundoff
RANK_CUTOFF = 1e-8
# ulps of roundoff per primitive term and point: a term c z^m e^{ku} e^{ikv}
# rounds in k u and k iv (absolute errors that exp turns relative, about
# |k u| and |k v| ulps, of order one on the catalog domains), in the two
# exps, in their product when k is not real (for real k, e^{ku} is real
# and the product rounds as exp(kz) does), in z^m and in the product with
# c (c log z in log and the product), and the sum of the terms and F(z) -
# F(z0) round once more; a grid or a point set checks the level at its
# nearest and farthest |z| with the tables' largest factors, doubled
PRIMITIVE_ULPS = 4
_PRIMITIVE_ROUNDOFF = PRIMITIVE_ULPS * np.finfo(np.float64).eps
_LOG = engine.compile_expr(log(Z))     # Im log z: the engine's own arg z
# grid points per block (values per component on the exact route): the
# temporaries of a block stay in cache, and 2048 to 16384 time alike
BLOCK_POINTS = 1 << 12


@dataclass(frozen=True)
class SurfacePatch:
    """Grid of immersion samples.  points[j, k] = X(u_j + i v_k).  From
    ``immerse``, points is a view of component-major planes, shape (n, nu
    nv), as planes.reshape(n, nu, nv).transpose(1, 2, 0); any (nu, nv, n)
    array serves."""

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

    zeta0 defaults to the grid point nearest the domain's default base
    point or, when a puncture masks that one, the grid point nearest it
    that clears every puncture.  A grid point is valid when one of its
    L-paths from zeta0 keeps more than 1.25 cell diagonals from every
    puncture (see the module docstring); the others are NaN.  With an
    exact primitive each valid point is Re(F(z) - F(zeta0)) within tol,
    continued along that L-path across the log's cut, in one pass over
    blocks of whole grid rows; otherwise each tree is one
    ``integrate_segments`` call.
    """
    tol = check_tol(tol)
    domain = c.domain
    nu, nv = res
    u, v = domain.grid(nu, nv)
    clearance = 1.25 * float(np.hypot(u[1] - u[0], v[1] - v[0]))
    far = _far_from_punctures(domain, clearance)

    def clear(a, b):    # every segment inside the rectangle clears when far
        return far or domain.puncture_distance(a, b) > clearance

    if zeta0 is None:
        z0 = domain.default_base_point()
        zeta0 = complex(u[_nearest_index(u, z0.real)],
                        v[_nearest_index(v, z0.imag)])
        if not clear(zeta0, zeta0):
            # masked: the grid point nearest it that clears every puncture
            zz = _grid_points(u, v)
            near = np.where(clear(zz, zz), np.abs(zz - zeta0), np.inf)
            zeta0 = complex(zz.flat[np.argmin(near)])
    zeta0 = complex(zeta0)
    if not domain.contains(zeta0):
        raise ValueError("base point lies outside the domain")

    j0, k0 = _nearest_index(u, zeta0.real), _nearest_index(v, zeta0.imag)
    g = u[j0] + 1j * v[k0]
    first = valid = np.full((nu, nv), clear(zeta0, g))     # the stem
    if not far:     # else every L-path clears, and no grid z is built
        first, valid = (m & valid for m in
                        _l_paths(clear, g, u[:, None], v[None, :]))
    if not valid[j0, k0]:
        raise ValueError("base point is masked by a puncture")

    planes = np.full((c.n, nu * nv), np.nan)
    sample = _primitive_sampler(c, zeta0, tol)
    if sample is None or not sample.fill(u[:, None], v[None, :], valid,
                                         planes, clear, g):
        planes[:, valid.ravel()] = _tree_integrals(
            c, tol, _grid_points(u, v), zeta0, j0, k0, first, valid)
    points = planes.reshape(c.n, nu, nv).transpose(1, 2, 0)
    return SurfacePatch(u, v, points, valid, zeta0)


def _grid_points(u, v):
    """The complex grid zz[j, k] = u_j + i v_k."""
    return u[:, None] + 1j * v[None, :]


def _far_from_punctures(domain, clearance):
    """Whether every puncture lies farther than clearance from the closed
    rectangle, by more than the roundoff of ``puncture_distance`` (a few
    eps of the largest coordinate; 2^-40 of it is ample): then every grid
    point and L-path clears them, as ``_l_paths`` would find."""
    bounds = (domain.u_min, domain.u_max, domain.v_min, domain.v_max)
    for p in domain.punctures:
        du = max(domain.u_min - p.real, 0.0, p.real - domain.u_max)
        dv = max(domain.v_min - p.imag, 0.0, p.imag - domain.v_max)
        scale = max(abs(p), *map(abs, bounds))
        if math.hypot(du, dv) <= clearance + 2.0 ** -40 * scale:
            return False
    return True


def _l_paths(clear, a, x, y):
    """The L-paths from a to the points x + iy (x, y broadcast) under the
    segment test clear(p, q): ``first`` where both legs of a -> (x, Im a)
    -> x + iy pass, ``valid`` where that path or a -> (Re a, y) -> x + iy
    does.  No segment lies farther from a puncture than its end does."""
    z = x + 1j * y
    row, col = x + 1j * a.imag, a.real + 1j * y
    first = clear(a, row) & clear(row, z)
    return first, first | clear(a, col) & clear(col, z)


def _corners(clear, a, z):
    """Each point z's L-path corner from a, on the row-first path where
    that one clears, and whether one of its L-paths clears (``_l_paths``)."""
    first, valid = _l_paths(clear, a, z.real, z.imag)
    return np.where(first, z.real + 1j * a.imag, a.real + 1j * z.imag), valid


def _primitive_sampler(c, zeta0, tol):
    """None when a component has no exact primitive (see
    ``expr.primitive_form``); else a ``_Primitive`` of the curve, anchored
    at zeta0, with its one program of the distinct e^{kz} compiled here."""
    forms = [primitive_form(nf) for nf in c.forms]
    if any(f is None for f in forms):
        return None
    return _Primitive(c, forms, complex(zeta0), tol)


class _Primitive:
    """The exact route of the module docstring for one curve and zeta0:
    each component's coefficients C[i, b] over the curve's distinct basis
    functions z^m e^{kz}, its log z coefficient r_i (``_LOG`` on the cut),
    and the one program of the distinct e^{kz}.  ``fill`` takes the same
    elementwise steps at each point of a grid or of a flat set, so a
    point's bits depend neither on the caller nor on the block."""

    def __init__(self, c, forms, zeta0, tol):
        self.n, self.zeta0, self.tol = c.n, zeta0, tol
        self.cut = c.domain.branch_cut
        self.basis = basis = list(dict.fromkeys(
            key for terms, _ in forms for key in terms))
        self.ks = list(dict.fromkeys(k for _, k in basis if k != 0))
        self.exps = engine.compile_expr(tuple(exp(k * Z) for k in self.ks))
        # each component's (basis index, coefficient), in its primitive's order
        self.coefs = [[(basis.index(key), coef) for key, coef in terms.items()]
                      for terms, _ in forms]
        self.logs = [r for _, r in forms]
        self.period = np.array([(2j * math.pi * r).real for r in self.logs])
        # zeta0 by its two factors too, so that X(zeta0) = 0 exactly
        e = self._tables(np.array([zeta0.real, 1j * zeta0.imag]))
        F, level = self._primitive(e[:, :1], e[:, 1:], np.array([zeta0]))
        self.base, self.base_level = F, level

    def _tables(self, x):
        """e^{kx} for each k != 0, shape (len(ks),) + x.shape."""
        return engine.eval_program(self.exps, x)

    def _basis(self, z, eu, ev):
        """Each basis function z^m e^{ku} e^{ikv} at z from the tables eu =
        e^{ku} and ev = e^{ikv}, which broadcast against z after their
        leading axis; given |z|, |eu| and |ev| instead, each one's modulus
        as the roundoff level reads it."""
        powers, out = {1: z}, []        # z^m for each m != 0
        for m, k in self.basis:
            if m and m not in powers:
                powers[m] = z ** m
            if k == 0:
                out.append(powers[m])
                continue
            i = self.ks.index(k)
            val = eu[i] * ev[i]
            out.append(val if m == 0 else powers[m] * val)
        return out

    def _primitive(self, eu, ev, z, level=True):
        """Re F and, if ``level``, its roundoff level (else None) per
        component, shape (n,) + z.shape each, at z = u + iv from eu = e^{ku}
        and ev = e^{ikv} (see ``_basis``)."""
        with np.errstate(all="ignore"):     # z^m at a pole or an overflow
            vals = self._basis(z, eu, ev)
            if level:
                mags = self._basis(np.abs(z), np.abs(eu), np.abs(ev))
            F = np.zeros((self.n,) + z.shape)
            levels = np.zeros((self.n,) + z.shape) if level else None
            # term by term, elementwise: a matrix product would round by the
            # block's width, and a zero coefficient would meet a basis
            # function that overflows as 0 inf = NaN
            for i, terms in enumerate(self.coefs):
                for b, coef in terms:
                    F[i] += (coef * vals[b]).real
                    if level:
                        levels[i] += abs(coef) * mags[b]
            if any(self.logs):
                log_z = engine.eval_program(_LOG, z, cut=self.cut)
                mag = np.abs(log_z)
                for i, r in enumerate(self.logs):
                    if r:
                        F[i] += (r * log_z).real
                        if level:
                            levels[i] += abs(r) * mag
        return F, levels

    def _within_budget(self, u, v, eu, ev):
        """Whether every point u + iv (u, v broadcast) is within the
        roundoff budget, from the tables eu = e^{ku}, ev = e^{ikv}: the
        level at the nearest and farthest |z| that the ranges of |u| and |v|
        allow, with the tables' largest factors A_b, doubled, bounds every
        point's level with room for both roundings, as each component's
        sum_b |C[i, b]| r^m_b A_b is convex in log r and so largest on
        [r_min, r_max] at an end.  A finite bound within budget makes every
        point finite and within its own.  False with a log z term, no point,
        or a bound over budget or not finite (a pole at a point)."""
        if any(self.logs) or not (u.size and v.size):
            return False
        au, av = np.abs(u), np.abs(v)
        ends = np.hypot([au.min(), au.max()], [av.min(), av.max()])
        factors = (np.abs(t).max(axis=tuple(range(1, t.ndim))).reshape(-1, 1)
                   for t in (eu, ev))
        level = self._primitive(*factors, ends)[1].max(axis=1)
        budget = _PRIMITIVE_ROUNDOFF * (2 * level + self.base_level[:, 0])
        return bool(np.all(budget <= self.tol))

    def _block(self, eu, ev, z, ok, out, clear, g, checked=False):
        """Write X at the points z, where ``ok`` (of z's shape) holds, into
        their columns of out, shape (n, z.size), continued for a nonzero
        period along zeta0 -> g -> corner -> z, the corner by ``_l_paths``
        from g under the segment test ``clear``; False when a value is not
        finite, a leg passes through 0, or PRIMITIVE_ULPS eps (level(z) +
        level(zeta0)) exceeds tol at one of them.  ``checked`` when
        ``_within_budget`` has passed them all, and no level is computed.
        Nothing is gathered: the points off ``ok`` are computed, not read."""
        F, level = self._primitive(eu, ev, z, level=not checked)
        F = F.reshape(self.n, -1)
        ok = ok.ravel()
        if not checked:
            level = level.reshape(self.n, -1)
            level += self.base_level
            level *= _PRIMITIVE_ROUNDOFF
            # a value that is not finite makes its level inf or NaN
            if not np.all(np.all(level <= self.tol, axis=0) | ~ok):
                return False
        F -= self.base
        if self.period.any():
            at = np.flatnonzero(ok)
            z = z.ravel()[at]
            w = _sheet((self.zeta0, g, _corners(clear, g, z)[0], z), self.cut)
            if w is None:
                return False
            off = np.flatnonzero(w)     # the points off F's sheet
            F[:, at[off]] += np.outer(self.period, w[off])
        np.copyto(out, F, where=ok)
        return True

    def fill(self, x, y, ok, out, clear, g):
        """X at the points x + iy where ``ok`` holds into out, shape (n,
        ok.size); x, y and ok broadcast to ok's shape, as u[:, None],
        v[None, :] for a grid or z.real, z.imag for flat points.  One table
        of e^{iky} and one of e^{kx}, with the budget checked once on them
        (``_within_budget``) and per point only where that fails; blocks of
        whole rows (ok's leading axis) of about BLOCK_POINTS points; clear
        and g are read only for a nonzero period (see ``_block``).  False
        as soon as a block fails."""
        ev = self._tables(1j * y)
        eu = self._tables(x)
        checked = self._within_budget(x, y, eu, ev)
        row = math.prod(ok.shape[1:])
        step = max(1, BLOCK_POINTS // row)
        for lo in range(0, len(ok), step):
            at = slice(lo, lo + step)
            # a table whose rows broadcast serves every block whole
            xb, eb = (x[at], eu[:, at]) if len(x) > 1 else (x, eu)
            yb, fb = (y[at], ev[:, at]) if len(y) > 1 else (y, ev)
            if not self._block(eb, fb, xb + 1j * yb, ok[at],
                               out[:, lo * row:(lo + step) * row], clear, g,
                               checked):
                return False
        return True


def _sheet(path, cut):
    """The signed number of times each path path[0] -> ... -> path[-1]
    crosses the log's cut: the turn of arg z along its straight legs, less
    the change of the engine's arg z, over 2 pi.  None when a leg passes
    through 0, its ends' ratio being real and not positive, or not finite."""
    turn = 0.0
    with np.errstate(all="ignore"):
        for a, b in zip(path[:-1], path[1:]):
            r = np.divide(b, a)
            if np.any(~np.isfinite(r) | (r.imag == 0) & (r.real <= 0)):
                return None
            turn = turn + np.angle(r)
        ends = np.append(path[0], path[-1])
        arg = engine.eval_program(_LOG, ends, cut=cut).imag
    return np.rint((turn - arg[1:] + arg[0]) / (2 * math.pi))


def _tree_integrals(c, tol, zz, zeta0, j0, k0, first, valid):
    """X at the ``valid`` grid points zz, shape (n, m): the spanning tree's
    edges toward the points it reaches (``first``, so each edge is clear),
    summed outward, then the transposed tree's row edges toward the valid
    points it misses; one ``integrate_segments`` call per tree."""
    nu, nv = zz.shape

    def edges(a, b, need):
        got = integrate_segments(c.components, a[need], b[need],
                                 tol / (nu + nv), domain=c.domain)
        vals = np.full((len(got),) + a.shape, np.nan, dtype=np.complex128)
        vals[:, need] = got
        return vals

    # the spanning tree: a stem z0 -> g(j0, k0), the edges of row k0 and
    # of every column, each taken when its node away from g is reached
    a = np.concatenate([[zeta0], zz[:-1, k0], zz[:, :-1].ravel()])
    b = np.concatenate([[zz[j0, k0]], zz[1:, k0], zz[:, 1:].ravel()])
    need = np.concatenate([[True], np.delete(first[:, k0], j0),
                           np.delete(first, k0, axis=1).ravel()])
    vals = edges(a, b, need)
    stem = vals[:, 0, None, None]
    col = _running_sums(vals[:, nu:].reshape(-1, nu, nv - 1), k0)
    total = stem + _running_sums(vals[:, 1:nu], j0)[:, :, None] + col
    missed = valid & ~first
    if np.any(missed):
        # the transposed tree reaches the rest: column j0, then the row
        # edges between j0 and a missed cell
        beyond = np.zeros((nu - 1, nv), bool)
        beyond[j0:] = np.logical_or.accumulate(missed[:j0:-1], axis=0)[::-1]
        beyond[:j0] = np.logical_or.accumulate(missed[:j0], axis=0)
        rows = edges(zz[:-1].T, zz[1:].T, beyond.T)
        alt = stem + col[:, j0, :, None] + _running_sums(rows, j0)
        total = np.where(first, total, alt.transpose(0, 2, 1))
    return total.real[:, valid]


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
    """(1/2) sum_k |phi_k(zeta)|^2 at scalar or array zeta; inf, with no
    warning, where the squares overflow."""
    with np.errstate(over="ignore"):
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
    RANK_CUTOFF relative to the largest.  When the span misses exactly
    one hyperplane (rank = n - 1) its unit coefficient vector is
    returned, with a fixed phase (see ``_rank_and_hyperplane``); for
    deeper degeneracy the normal space has no one direction to return.
    """
    if samples < 2 * c.n:
        raise ValueError("need at least 2n samples for a stable rank")
    z = c.domain.sample_points(samples, skip=skip)
    rank, s, hyper = _rank_and_hyperplane(c(z))
    return DegeneracyReport(rank, s, hyper, samples)


def _rank_and_hyperplane(a):
    """Rank, singular values and hyperplane of the samples x n matrix a.
    The hyperplane, only for rank n - 1, is the conjugated null
    right-singular vector (so that a . phi = 0, not a . conj(phi)),
    turned so that its first entry above half the largest magnitude is
    real and positive: the SVD's arbitrary phase, or a last-digit change
    in the samples, then neither turns nor flips it."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > RANK_CUTOFF * s[0])) if s[0] > 0 else 0
    if rank != a.shape[1] - 1:
        return rank, s, None
    hyper = np.conj(vh[rank])
    mag = np.abs(hyper)
    lead = np.argmax(mag > 0.5 * mag.max())
    hyper = hyper * (np.conj(hyper[lead]) / mag[lead])
    hyper[lead] = mag[lead]     # exactly real, not to roundoff
    return rank, s, hyper


def real_period(c: NullCurve):
    """The real period of X = Re integral of the curve once around z = 0,
    Re(2 pi i c_k) for the z^{-1} coefficient c_k of each component
    (``expr.residue`` of its form), shape (n,); None when a component is
    outside the class of ``expr.normal_forms``."""
    res = [residue(nf) for nf in c.forms]
    if any(r is None for r in res):
        return None
    return np.array([(2j * math.pi * r).real for r in res])


def verify_minimal(p: SurfacePatch) -> dict:
    """Finite-difference minimality check on interior grid points.

    Conformality defect: max of |E - G| and 2|F| over E + G, with
    E, G, F from central differences.  Harmonicity defect: the 5-point
    Laplacian (per-direction spacing) over (E + G) / 2, the conformal
    factor to O(h^2).  Both are O(h^2) on a true minimal immersion.
    Points where E + G = 0 are left out; ValueError when no interior
    point is left.  The interior rows are taken in blocks of about
    BLOCK_POINTS points, each with a halo row on either side, and the
    stencil works on one component plane at a time: for a patch from
    ``immerse``, which is component-major, a slice of its planes with no
    copy.  A NaN defect in any block gives a NaN maximum.  An overflow to
    inf or NaN is read as such, with no warning.
    """
    nu, nv = p.resolution
    if nu < 5 or nv < 5:
        raise ValueError("verification needs at least a 5x5 grid")
    hu, hv = p.spacing()
    rows = max(1, BLOCK_POINTS // nv)
    conf, harm, count = -np.inf, -np.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, nu - 1, rows):
            X = np.moveaxis(p.points[lo - 1:lo + rows + 1], 2, 0)
            valid = p.valid[lo - 1:lo + rows + 1]
            # X_u and X_v by central differences, at the interior points
            # whose four neighbours are all valid
            xu = (X[:, 2:, 1:-1] - X[:, :-2, 1:-1]) / (2 * hu)
            xv = (X[:, 1:-1, 2:] - X[:, 1:-1, :-2]) / (2 * hv)
            ok = (valid[1:-1, 1:-1] & valid[:-2, 1:-1] & valid[2:, 1:-1]
                  & valid[1:-1, :-2] & valid[1:-1, 2:])
            E, G, F = (xu * xu).sum(0), (xv * xv).sum(0), (xu * xv).sum(0)
            scale = E + G
            ok &= scale != 0    # a zero metric gives no scale to read a defect on
            count += int(np.sum(ok))
            # the 5-point Laplacian in place, as numpy reuses no temporary
            # of a block this small
            twice = 2 * X[:, 1:-1, 1:-1]
            lap, lav = X[:, 2:, 1:-1] - twice, X[:, 1:-1, 2:] - twice
            lap += X[:, :-2, 1:-1]
            lav += X[:, 1:-1, :-2]
            lap /= hu ** 2
            lav /= hv ** 2
            lap += lav
            # np.max, unlike max, keeps a NaN of an earlier block
            conf = np.max(np.maximum(np.abs(E - G), 2 * np.abs(F))[ok]
                          / scale[ok], initial=conf)
            harm = np.max(np.max(np.abs(lap), axis=0)[ok] / (0.5 * scale[ok]),
                          initial=harm)
    if not count:
        raise ValueError("no interior points to verify")

    return {
        "conformality_defect": float(conf),
        "harmonicity_defect": float(harm),
        "interior_points": count,
    }


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

def _triangle_blocks(cells):
    """Triangles (a, b, c), (a, c, d), shape (m, 3), of each of the
    ``cells`` (j, k) with corners a..d = (j, k), (j+1, k), (j+1, k+1),
    (j, k+1), row-major, in blocks of rows of about BLOCK_POINTS cells."""
    nv = cells.shape[1] + 1
    rows = max(1, BLOCK_POINTS // nv)
    for lo in range(0, len(cells), rows):
        j, k = np.nonzero(cells[lo:lo + rows])
        a = (j + lo) * nv + k
        yield np.stack([a, a + nv, a + nv + 1, a, a + nv + 1, a + 1],
                       axis=-1).reshape(-1, 3)


def export_mesh(p: SurfacePatch, path, fmt: str = "obj", projection=None) -> None:
    """Write the patch as a triangulated mesh.

    OBJ carries exactly three coordinates: the first three axes unless a
    ``projection`` (tuple of 3 axis indices) selects others.  PLY is
    binary little-endian and stores all n coordinates as float64 vertex
    properties named x, y, z, w, ...; it refuses a projection.  Vertices
    and faces are written in blocks of rows of about BLOCK_POINTS points.
    """
    fmt = fmt.lower()
    ok = p.valid
    cells = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    # the points in blocks of rows of about BLOCK_POINTS, each copied
    # point-major, masked (NaN) coordinates as 0
    rows = max(1, BLOCK_POINTS // ok.shape[1])
    verts = (np.where(np.isfinite(b), b, 0.0) for b in (
        p.points[lo:lo + rows].reshape(-1, p.n)
        for lo in range(0, len(ok), rows)))
    if fmt == "obj":
        axes = list(projection) if projection is not None else [0, 1, 2]
        if len(axes) != 3 or any(not 0 <= a < p.n for a in axes):
            raise ValueError(f"projection must pick 3 of {p.n} axes")
        with open(path, "w") as fh:
            for line, blocks in (
                    ("v %.9g %.9g %.9g\n", (b[:, axes] for b in verts)),
                    ("f %d %d %d\n", (t + 1 for t in _triangle_blocks(cells)))):
                for block in blocks:
                    fh.write(line * len(block) % tuple(block.ravel().tolist()))
    elif fmt == "ply":
        if projection is not None:
            raise ValueError("a PLY mesh stores all n coordinates and takes "
                             "no projection")
        names = ["x", "y", "z", "w", "p4", "p5"][:p.n]
        header = ["ply", "format binary_little_endian 1.0",
                  f"element vertex {ok.size}"]
        header += [f"property double {nm}" for nm in names]
        header += [f"element face {2 * np.count_nonzero(cells)}",
                   "property list uchar int vertex_indices", "end_header"]
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            for block in verts:
                fh.write(block.astype("<f8", copy=False).tobytes())
            for tris in _triangle_blocks(cells):
                faces = np.empty(len(tris), dtype=[("n", "u1"), ("v", "<i4", 3)])
                faces["n"], faces["v"] = 3, tris
                fh.write(faces.tobytes())
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")


def parametric_immersion(c: NullCurve, zeta0: complex | None = None,
                         tol: float = 1e-11) -> ParametricSurface:
    """Immersion X(u, v) = Re integral of the curve, anchored at zeta0,
    for slicing and spot checks, along the L-path z0 -> (u, Im z0) -> (u, v)
    or, where a leg of it passes a puncture (``_l_paths`` under
    ``hits_puncture``), z0 -> (Re z0, v) -> (u, v): as in ``immerse`` for a
    curve with an exact primitive (compiled once, here); otherwise, or over
    that budget, one integrate_segments call of the legs, each within tol,
    or SingularPath when both paths fail.  The L-paths are found only where
    they are read: for a nonzero real period, and for the legs.  As in
    ``immerse``, zeta0 must lie in the rectangle; the points need not."""
    tol = check_tol(tol)
    dom = c.domain
    z0 = complex(zeta0) if zeta0 is not None else dom.default_base_point()
    if not dom.contains(z0):
        raise ValueError("base point lies outside the domain")
    sample = _primitive_sampler(c, z0, tol)

    def clear(a, b):
        return ~hits_puncture(dom, a, b)

    def f(u, v):
        z = (u + 1j * v).ravel()
        x = np.empty((z.size, c.n))     # C-contiguous, written through x.T
        if sample is not None and sample.fill(
                z.real, z.imag, np.ones(z.size, bool), x.T, clear, z0):
            return x.reshape(u.shape + (c.n,))
        corner, valid = _corners(clear, z0, z)
        if not valid.all():
            raise SingularPath(f"no L-path from {z0} to {z[~valid][0]} keeps "
                               "off the punctures")
        vals = integrate_segments(c.components,
                                  np.append(np.full(z.size, z0), corner),
                                  np.append(corner, z), tol, domain=dom)
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
