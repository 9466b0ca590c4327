"""From null curves to sampled immersions in R^n, and checks on them.

The immersion is X = Re of the path integral of the curve, anchored so
that X(z0) = 0; on the puncture-free rectangle it does not depend on the
path.  ``immerse`` first finds the valid grid points: those one of whose
L-paths from z0 (``_l_paths``), the stem to the nearest grid point
g(j0, k0) then row k0 and column j, or the stem, column j0 and row k,
keeps more than 1.25 cell diagonals from every puncture, by one segment
test that serves the default anchor too (where it fails the stem from
the domain's default base point, the anchor is the grid point nearest g
that passes, the first in row-major order among equals).  The L-paths
keep inside the rectangle, so when every puncture lies farther than that
from it, the test passes at once and measures no distance.  When
``expr.primitive_form`` of each of the curve's ``forms`` (read once per
curve) is an exact primitive (sums of c z^n e^{kz}, n negative only where
k = 0: every catalog curve and its constant linear deformations), each
component is F_i = sum_b C[i, b] z^m e^{kz} + r_i log z over the curve's
distinct basis functions z^m e^{kz}, and X is Re(F(z) - F(z0)), each log
on the domain's branch cut: one value per point, read along no path, so
that X jumps by the real period Re(2 pi i r_i) only across the cut.  One
entry, ``_Primitive.fill``, serves grids (``immerse``) and flat point sets
(``parametric_immersion``): each e^{kz} is e^{ku} e^{ikv}, from
one program of the distinct e^{kz} run once on the u and once on the iv
that broadcast to the points, so a grid takes nu + nv exponentials per
k, not one per point and term.  Each valid point has tol as its budget
for the roundoff level PRIMITIVE_ULPS eps (level(z) + level(z0)),
level = sum_b |C[i, b]| |z|^m |e^{ku}| |e^{ikv}| + |r_i| |log z|.  A grid
checks the budget first on its two tables, by one rule for every term:
the level at the nearest and farthest |z| that the ranges of |u| and |v|
allow, with the tables' largest factors and |ln r| + max |arg z| on the
cut for |log z| (a sum convex in log |z|), times 1 + 2^-40, as a point's
level repeats its float steps on operands no larger; else each point
checks its own.  Otherwise (outside the class, over that budget, a value
that is not finite, or an e^{ku} or e^{ikv} that overflows on its own
even where e^{kz} is finite) one
``integrate_segments`` call takes the stem and the edges of row k0 and
of every column toward the points the first L-path reaches, summed
outward in blocks of about sqrt(m) of a line's m edges, and a second
one leg along its row from column j0 to each valid point the first
misses, each within tol / (nu + nv).  For a curve in the class the tree
integrates phi - r/z, r the z^{-1} coefficients (``_log_split``), whose
primitive takes one value per point, and adds Re r (log z - log z0) on
the cut: the exact route's values, a point on the cut on the side the
primitive's log puts it.  For a curve outside the class the tree's
values stay continued along each point's L-path.  Every stage reads
the curve's ``domain``: the grid rectangle, the punctures and the log
branch cut.

Verification instruments:

* conformal factor  L = (1/2) sum |phi_k|^2  (the metric is L |dz|^2)
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
* export_mesh       OBJ (ASCII, 9 significant digits, lines end in \n) /
                    PLY (binary float64, all n coordinates as properties,
                    named x, y, z, w, p4, p5, ...); OBJ's vertex lines are
                    %-formatted, and each block's face lines are built in
                    numpy (``_face_lines``): the decimal text of each index
                    the block spans, made once, is gathered into a line
                    buffer, byte for byte the text of b"f %d %d %d\\n"

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
from .errors import SingularPath
from .expr import Z, exp, log, primitive_form, residue
from .nullcurve import NullCurve
from .quadrature import check_tol, hits_puncture, integrate_segments

__all__ = [
    "SurfacePatch", "DegeneracyReport",
    "immerse", "conformal_factor", "degeneracy_rank",
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
# F(z0) round once more; a grid bounds every term's level, log z's too,
# by one rule with 2^-40 of slack for a sum's rounding (``_within_budget``)
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

    zeta0 defaults to the domain's default base point, as for
    ``parametric_immersion``, or, where a puncture masks its stem to the
    nearest grid point g, to the one nearest g that clears them all.  A
    grid point is valid when one of its L-paths from zeta0 keeps more
    than 1.25 cell diagonals from every puncture (see the module
    docstring); the others are NaN.  With an exact primitive each valid
    point is Re(F(z) - F(zeta0)) within tol, each log on the domain's cut,
    in one pass over blocks of whole grid rows; otherwise by quadrature,
    its log terms on the same cut (``_tree_integrals``).
    """
    tol = check_tol(tol)
    domain = c.domain
    nu, nv = res
    u, v = domain.grid(nu, nv)
    clearance = 1.25 * float(np.hypot(u[1] - u[0], v[1] - v[0]))
    far = _far_from_punctures(domain, clearance)

    def clear(a, b):    # every segment inside the rectangle clears when far
        return far or domain.puncture_distance(a, b) > clearance

    default = zeta0 is None
    zeta0 = complex(domain.default_base_point() if default else zeta0)
    if not domain.contains(zeta0):
        raise ValueError("base point lies outside the domain")

    j0, k0 = _nearest_index(u, zeta0.real), _nearest_index(v, zeta0.imag)
    g = u[j0] + 1j * v[k0]
    if default and not clear(zeta0, g):
        # masked: the grid point nearest g that clears every puncture
        zz = _grid_points(u, v)
        near = np.where(clear(zz, zz), np.abs(zz - g), np.inf)
        j0, k0 = np.unravel_index(np.argmin(near), near.shape)
        zeta0 = g = complex(zz[j0, k0])
    first = valid = np.full((nu, nv), clear(zeta0, g))     # the stem
    if not far:     # else every L-path clears, and no grid z is built
        first, valid = (m & valid for m in
                        _l_paths(clear, g, u[:, None], v[None, :]))
    if not valid[j0, k0]:
        raise ValueError("base point is masked by a puncture")

    planes = np.full((c.n, nu * nv), np.nan)
    sample = _primitive_sampler(c, zeta0, tol)
    if sample is None or not sample.fill(u[:, None], v[None, :], valid,
                                         planes):
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
    functions z^m e^{kz} and log z (``_LOG`` on the cut), one more term
    with coefficient r_i, under one roundoff rule with 2^-40 of slack
    (``_within_budget``); the one program of the distinct e^{kz}.  ``fill``
    takes the same elementwise steps at each point of a grid or flat set,
    so a point's bits depend neither on the caller nor on the block."""

    def __init__(self, c, forms, zeta0, tol):
        self.n, self.tol = c.n, tol
        self.cut = c.domain.branch_cut
        self.basis = basis = list(dict.fromkeys(
            key for terms, _ in forms for key in terms))
        self.ks = list(dict.fromkeys(k for _, k in basis if k != 0))
        self.exps = engine.compile_expr(tuple(exp(k * Z) for k in self.ks))
        # each component's (basis index, coefficient) in order, log z last
        self.coefs = [[(basis.index(key), coef) for key, coef in terms.items()]
                      + ([(len(basis), r)] if r else []) for terms, r in forms]
        self.logs = [r for _, r in forms]
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
            if any(self.logs):      # log z on the cut: one more term
                vals.append(engine.eval_program(_LOG, z, cut=self.cut))
            if level:
                mags = self._basis(np.abs(z), np.abs(eu), np.abs(ev))
                mags += map(np.abs, vals[len(mags):])       # |log z|
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
        return F, levels

    def _within_budget(self, u, v, eu, ev):
        """Whether every point u + iv (u, v broadcast) is within the
        roundoff budget, from the tables eu = e^{ku}, ev = e^{ikv}, by one
        rule for every term: sum_b |C[i, b]| r^m_b A_b + |r_i| |ln r|, A_b
        the tables' largest factors, is convex in log r, so largest at the
        nearest or farthest |z| the ranges of |u| and |v| allow; add |r_i|
        max |Im log z| on the cut.  A point's level repeats this bound's
        float steps on operands no larger, so it exceeds the bound by at
        most a sum's rounding, far below 2^-40: a finite bound times 1 +
        2^-40 within budget makes every point finite and within its own.
        False for a bound over budget or not finite (|z| reaching 0)."""
        au, av = np.abs(u), np.abs(v)
        ends = np.hypot([au.min(), au.max()], [av.min(), av.max()])
        factors = (np.abs(t).max(axis=tuple(range(1, t.ndim))).reshape(-1, 1)
                   for t in (eu, ev))
        level = self._primitive(*factors, ends)[1].max(axis=1)
        arg = max(abs(self.cut), abs(self.cut - 2 * math.pi))   # on the cut
        level = (level + arg * np.abs(self.logs)) * (1 + 2.0 ** -40)
        budget = _PRIMITIVE_ROUNDOFF * (level + self.base_level[:, 0])
        return bool(np.all(budget <= self.tol))

    def _block(self, eu, ev, z, ok, out, checked=False):
        """Write X at the points z, where ``ok`` (of z's shape) holds, into
        their columns of out, shape (n, z.size); False when a value is not
        finite or PRIMITIVE_ULPS eps (level(z) + level(zeta0)) exceeds tol
        at one of them.  ``checked`` when ``_within_budget`` has passed
        them all: no level is computed.  Nothing is gathered: the points
        off ``ok`` are computed, not read."""
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
        np.copyto(out, F, where=ok)
        return True

    def fill(self, x, y, ok, out):
        """X at the points x + iy where ``ok`` holds into out, shape (n,
        ok.size); x, y and ok broadcast to ok's shape, as u[:, None],
        v[None, :] for a grid or z.real, z.imag for flat points.  One table
        of e^{iky} and one of e^{kx}, the budget checked once on them
        (``_within_budget``) where the points outnumber their entries (a
        grid), else or where that fails per point; blocks of whole rows
        (ok's leading axis) of about BLOCK_POINTS points.  Each point's
        value reads no path, and no other point.  False at a failed
        block."""
        ev = self._tables(1j * y)
        eu = self._tables(x)
        checked = (ok.size > x.size + y.size
                   and self._within_budget(x, y, eu, ev))
        row = math.prod(ok.shape[1:])
        step = max(1, BLOCK_POINTS // row)
        for lo in range(0, len(ok), step):
            at = slice(lo, lo + step)
            # a table whose rows broadcast serves every block whole
            xb, eb = (x[at], eu[:, at]) if len(x) > 1 else (x, eu)
            yb, fb = (y[at], ev[:, at]) if len(y) > 1 else (y, ev)
            if not self._block(eb, fb, xb + 1j * yb, ok[at],
                               out[:, lo * row:(lo + step) * row], checked):
                return False
        return True


def _log_split(c):
    """The quadrature route's integrand and the z^{-1} coefficients r it
    leaves out: for a curve in the class of ``expr.normal_forms`` with a
    nonzero r_i, phi_i - r_i / z for each such component, whose primitive
    takes one value per point, and r; else the components and None."""
    r = [residue(nf) for nf in c.forms]
    if any(ri is None for ri in r) or not any(r):
        return c.components, None
    return tuple(phi - ri / Z if ri else phi
                 for phi, ri in zip(c.components, r)), r


def _add_logs(x, r, z, zeta0, cut):
    """x, shape (n, m), plus Re r_i (log z - log zeta0) in each row whose
    r_i is nonzero, each log ``_LOG`` on the cut; x as it is for None."""
    if r is not None:
        log_z = engine.eval_program(_LOG, np.append(zeta0, z), cut=cut)
        log_z = log_z[1:] - log_z[0]
        for i, ri in enumerate(r):
            if ri:
                x[i] += (ri * log_z).real
    return x


def _tree_integrals(c, tol, zz, zeta0, j0, k0, first, valid):
    """X at the ``valid`` grid points zz, shape (n, m): one
    ``integrate_segments`` call of the spanning tree's edges toward the
    points it reaches (``first``, so each edge is clear), summed outward,
    and a second of one leg along its row from column j0 to each valid
    point it misses (which ``_l_paths`` cleared), each within tol / (nu +
    nv); the integrand and the log terms of ``_log_split``."""
    nu, nv = zz.shape
    phi, r = _log_split(c)
    # the spanning tree: a stem z0 -> g(j0, k0), the edges of row k0 and
    # of every column, each taken when its node away from g is reached
    need = np.concatenate([[True], np.delete(first[:, k0], j0),
                           np.delete(first, k0, axis=1).ravel()])
    vals = np.full((c.n,) + need.shape, np.nan, dtype=np.complex128)
    vals[:, need] = integrate_segments(
        phi, np.concatenate([[zeta0], zz[:-1, k0], zz[:, :-1].ravel()])[need],
        np.concatenate([[zz[j0, k0]], zz[1:, k0], zz[:, 1:].ravel()])[need],
        tol / (nu + nv), domain=c.domain)
    # the columns' sums, then those of the stem and row k0, in place
    total = _running_sums(vals[:, nu:].reshape(-1, nu, nv - 1), k0)
    total += vals[:, :1, None] + _running_sums(vals[:, 1:nu], j0)[..., None]
    j, k = np.nonzero(valid & ~first)
    if j.size:
        # the rest: column j0, then one leg along the row
        total[:, j, k] = total[:, j0, k] + integrate_segments(
            phi, zz[j0, k], zz[j, k], tol / (nu + nv), domain=c.domain)
    return _add_logs(total.real[:, valid], r, zz[valid], zeta0,
                     c.domain.branch_cut)


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
class DegeneracyReport:
    rank: int
    singular_values: np.ndarray
    hyperplane: np.ndarray | None   # coefficients a with a . phi = 0


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
    return DegeneracyReport(rank, s, hyper)


def _rank_and_hyperplane(a):
    """Rank, singular values and hyperplane of the samples x n matrix a.
    The hyperplane, only for rank n - 1, is the conjugated null
    right-singular vector (so that a . phi = 0, not a . conj(phi)),
    turned so that its first entry above half the largest magnitude is
    real and positive: the SVD's arbitrary phase, or a last-digit change
    in the samples, then neither turns nor flips it."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
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
    factor to O(h^2).  Both are O(h^2) on a true minimal immersion when
    the stencil stays clear of every puncture: next to a puncture's mask,
    which keeps only 1.25 cell diagonals from it, they need not fall with
    h.  Points where E + G = 0 are left out; ValueError when no interior
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


def _index_text(x):
    """b" %d" % i of each positive integer i in x, as the rows of a
    (len(x), 1 + d) uint8 array, d the digit count of the largest: a space,
    then the digits right-aligned, with NUL (0) for each leading zero."""
    d = len(str(int(x.max())))
    text = np.empty((len(x), 1 + d), np.uint8)
    text[:, 0] = ord(" ")
    for i in range(d, 0, -1):
        text[:, i] = (x % 10 + ord("0")) * (x > 0)
        x = x // 10
    return text


def _face_lines(tris):
    """The OBJ lines b"f %d %d %d\\n" of the triangles tris + 1 (tris of
    shape (m, 3), m > 0), as a uint8 array: the text of each vertex index
    in the range the block spans is made once, then gathered into an
    (m, 3 (1 + d) + 2) line buffer.  An index of fewer digits than the
    block's largest leaves NULs in its line, and then the buffer is
    compacted."""
    first = tris.min()
    text = _index_text(np.arange(first + 1, tris.max() + 2))
    item = np.dtype((np.void, text.shape[1]))      # one index's text
    lines = np.empty((len(tris), 3 * text.shape[1] + 2), np.uint8)
    lines[:, 0], lines[:, -1] = ord("f"), ord("\n")
    # every index lies in the table, so mode="clip" clips none; unlike
    # mode="raise", it writes to out with no buffered copy
    np.take(text.view(item)[:, 0], tris - first,
            out=lines[:, 1:-1].view(item), mode="clip")
    return lines if text[0, 1] else lines[lines != 0]


def export_mesh(p: SurfacePatch, path, fmt: str = "obj", projection=None) -> None:
    """Write the patch as a triangulated mesh.

    OBJ carries exactly three coordinates: the first three axes unless a
    ``projection`` (tuple of 3 axis indices) selects others.  PLY is
    binary little-endian and stores all n coordinates as float64 vertex
    properties named x, y, z, w, p4, p5, ...; it refuses a projection.
    Vertices and faces are written in blocks of rows of about BLOCK_POINTS
    points.
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
        with open(path, "wb") as fh:
            for block in verts:
                fh.write(b"v %.9g %.9g %.9g\n" * len(block)
                         % tuple(block[:, axes].ravel().tolist()))
            for tris in _triangle_blocks(cells):
                if len(tris):
                    fh.write(_face_lines(tris))
    elif fmt == "ply":
        if projection is not None:
            raise ValueError("a PLY mesh stores all n coordinates and takes "
                             "no projection")
        names = ["x", "y", "z", "w", *(f"p{i}" for i in range(4, p.n))][:p.n]
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
    for slicing and spot checks.  For a curve with an exact primitive
    (compiled once, here) it is Re(F(z) - F(zeta0)) as in ``immerse``,
    wherever F is finite and within budget, and reads no path.  Otherwise
    one integrate_segments call of the legs of the L-path z0 -> (u, Im z0)
    -> (u, v) or, where a leg of it passes a puncture (``_l_paths`` under
    ``hits_puncture``), z0 -> (Re z0, v) -> (u, v), each within tol, with
    the integrand and the log terms of ``_log_split`` as in ``immerse``,
    or SingularPath when both paths fail.  As in ``immerse``, zeta0 must lie
    in the rectangle; the points need not."""
    tol = check_tol(tol)
    dom = c.domain
    z0 = complex(zeta0) if zeta0 is not None else dom.default_base_point()
    if not dom.contains(z0):
        raise ValueError("base point lies outside the domain")
    sample = _primitive_sampler(c, z0, tol)
    phi, r = _log_split(c)

    def clear(a, b):
        return ~hits_puncture(dom, a, b)

    def f(u, v):
        z = (u + 1j * v).ravel()
        x = np.empty((z.size, c.n))     # C-contiguous, written through x.T
        if sample is not None and sample.fill(z.real, z.imag,
                                              np.ones(z.size, bool), x.T):
            return x.reshape(u.shape + (c.n,))
        first, valid = _l_paths(clear, z0, z.real, z.imag)
        if not valid.all():
            raise SingularPath(f"no L-path from {z0} to {z[~valid][0]} keeps "
                               "off the punctures")
        corner = np.where(first, z.real + 1j * z0.imag, z0.real + 1j * z.imag)
        vals = integrate_segments(phi, np.append(np.full(z.size, z0), corner),
                                  np.append(corner, z), tol, domain=dom)
        x = _add_logs(vals.real.reshape(c.n, 2, -1).sum(axis=1), r, z, z0,
                      dom.branch_cut)
        # copied C-contiguous, as a strided result rounds the slice's plane
        # fit differently
        return x.T.copy().reshape(u.shape + (c.n,))

    return ParametricSurface(f, (dom.u_min, dom.u_max),
                             (dom.v_min, dom.v_max), "immersion")
