"""Level-set extraction, plane fitting, and conic classification.

These are the instruments that verify foliation claims: slice a surface
along a coordinate level set (always a parameter line on the surfaces
treated here), fit a plane through the ambient points, drop to in-plane
coordinates, and fit/classify a conic.

The conic fit is algebraic least squares: the right singular vector of
the smallest singular value of the [x^2, xy, y^2, x, y, 1] design
matrix, computed after isotropic normalization of the sample (centroid
at the origin, RMS radius sqrt(2)).  Without that normalization the
design matrix is hopelessly ill-conditioned for slices with e^u-sized
coordinates.  Classification and eccentricity are computed from the
matrix invariants of the *normalized* conic (both are invariant under
similarity transforms), while the reported coefficients are mapped back
to the original in-plane frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AxisNotMonotone, DegenerateConic, DegenerateInput,
                     EvaluationSingularity, IllConditioned, NoConvergence,
                     NotHyperbola, NotPlanar, SingularPath)

__all__ = [
    "PlanarCurveSample", "ConicFit", "ParametricSurface",
    "slice_surface", "slice_parameter_line", "planar_sample",
    "fit_conic", "eccentricity", "asymptotes",
]

# classification tolerances on the normalized-frame conic
PARABOLA_TOL = 1e-9      # |B^2 - 4AC|
CIRCLE_ECC_TOL = 1e-7    # ellipse with e below this is a circle
DEGENERATE_TOL = 1e-9    # smallest |eigenvalue| of the 3x3 conic matrix
LINE_SV_TOL = 1e-9       # sigma_2 / sigma_1 of the centered sample
AMBIGUOUS_GAP = 1e-6     # relative gap between two smallest design SVs
PLANARITY_TOL = 1e-6     # max out-of-plane distance / diameter of a fit
AXIS_PROBES = 8          # probe grid side; even, to miss a punctured centre


class ParametricSurface:
    """Immersion (u, v) -> R^n on a parameter rectangle.  u and v broadcast
    to one shape S, as ``func`` receives them; the result has shape S + (n,)."""

    def __init__(self, func, u_range, v_range, name=""):
        self.func = func
        self.u_range = tuple(map(float, u_range))
        self.v_range = tuple(map(float, v_range))
        self.name = name

    def __call__(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(v, dtype=float))
        return np.asarray(self.func(u, v), dtype=float)


@dataclass(frozen=True)
class PlanarCurveSample:
    """Ambient curve points with their fitted plane and 2D coordinates."""

    points: np.ndarray         # (m, n) ambient
    origin: np.ndarray         # (n,) plane point (centroid)
    basis: np.ndarray          # (2, n) orthonormal in-plane directions
    xy: np.ndarray             # (m, 2) in-plane coordinates
    planarity_residual: float  # max out-of-plane distance / diameter


def planar_sample(points: np.ndarray) -> PlanarCurveSample:
    """Fit the least-squares plane through n-dimensional points and express
    the points in its coordinates.

    One SVD of the centered points gives the plane: its first two right
    singular vectors, each signed by ``_unit``, are the in-plane basis.
    Collinear input (an exact line slice) is planar too; its second
    direction is then arbitrary, and fit_conic classifies the sample as a
    line.  The residual is the maximum out-of-plane distance divided by
    the diameter.  Raises DegenerateInput for fewer than 3 points, fewer
    than 2 coordinates, or coincident points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise DegenerateInput("need at least 3 points")
    if pts.shape[1] < 2:
        raise DegenerateInput("need at least 2 coordinates")
    diam = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    if diam == 0:
        raise DegenerateInput("the points coincide")
    origin = pts.mean(axis=0)
    centered = pts - origin
    _, _, vh = np.linalg.svd(centered, full_matrices=False)
    basis = np.array([_unit(row) for row in vh[:2]])
    xy = centered @ basis.T
    out_of_plane = centered - xy @ basis
    residual = float(np.max(np.linalg.norm(out_of_plane, axis=1))) / diam
    return PlanarCurveSample(pts, origin, basis, xy, residual)


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

def _axis_dependence(surface: ParametricSurface, axis: int):
    """Which parameter the given coordinate depends on ('u', 'v' or None),
    its probe values, the coordinate along probe line AXIS_PROBES // 2 of
    that parameter, the first past the middle, and the value the other
    parameter holds on that line."""
    us = np.linspace(*surface.u_range, AXIS_PROBES)
    vs = np.linspace(*surface.v_range, AXIS_PROBES)
    probe = surface(us[:, None], vs[None, :])
    if not 0 <= axis < probe.shape[-1]:
        raise ValueError(f"axis {axis} is out of range in R^{probe.shape[-1]}")
    coord = probe[:, :, axis]
    scale = max(np.ptp(coord), 1.0)
    du = np.max(np.ptp(coord, axis=0))   # variation across u at fixed v
    dv = np.max(np.ptp(coord, axis=1))   # variation across v at fixed u
    mid = AXIS_PROBES // 2
    if dv <= 1e-9 * scale and du > 1e-9 * scale:
        return "u", us, coord[:, mid], vs[mid]
    if du <= 1e-9 * scale and dv > 1e-9 * scale:
        return "v", vs, coord[mid, :], us[mid]
    return None, None, None, None


def _check_npoints(npoints):
    if npoints < 12:
        raise ValueError("need at least 12 points on a slice")


def slice_parameter_line(surface: ParametricSurface, param: str, value: float,
                         npoints: int = 100, sweep=None) -> PlanarCurveSample:
    """Sample the curve obtained by freezing one parameter.

    ``sweep`` overrides the swept range of the other parameter.  Where the
    line cannot be evaluated (SingularPath, NoConvergence or
    EvaluationSingularity), the error is raised again with the sweep and
    the surface's rectangle named in its message.
    """
    _check_npoints(npoints)
    if param not in ("u", "v"):
        raise ValueError("param must be 'u' or 'v'")
    if sweep is None:
        sweep = surface.v_range if param == "u" else surface.u_range
    ts = np.linspace(*sweep, npoints)
    try:
        pts = surface(value, ts) if param == "u" else surface(ts, value)
    except (SingularPath, NoConvergence, EvaluationSingularity) as err:
        (u0, u1), (v0, v1) = surface.u_range, surface.v_range
        swept = "v" if param == "u" else "u"
        raise type(err)(
            f"sweep {sweep[0]:g}:{sweep[1]:g} of {swept} at {param} = "
            f"{value:.17g} cannot be evaluated (the domain's rectangle is "
            f"[{u0:g}, {u1:g}] x [{v0:g}, {v1:g}]): {err}") from None
    return planar_sample(pts)


def slice_surface(surface: ParametricSurface, axis: int, value: float,
                  npoints: int = 100, sweep=None) -> PlanarCurveSample:
    """Level set {X_axis = value} extracted as a parameter line.

    The chosen coordinate must depend monotonically on exactly one
    parameter (true for all surfaces treated here); otherwise
    AxisNotMonotone is raised, and an axis outside 0..n-1 raises
    ValueError.  The parameter value is found on probe line
    AXIS_PROBES // 2, the first past the rectangle's middle: each round
    samples the bracket at AXIS_PROBES points in one surface call and
    keeps the sub-interval where the coordinate crosses the level, down to
    a width of 1e-15 max(1, |lo| + |hi|), unless a sample meets the level
    exactly.  The other parameter is swept.
    """
    _check_npoints(npoints)
    param, ts, coord, held = _axis_dependence(surface, axis)
    if param is None:
        raise AxisNotMonotone(
            f"coordinate {axis} is not a function of a single parameter")
    diffs = np.diff(coord)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise AxisNotMonotone(f"coordinate {axis} is not monotone")
    while True:
        f = coord - value
        if np.any(f == 0):
            frozen = ts[np.argmax(f == 0)]
            break
        crossing = np.flatnonzero((f[:-1] > 0) != (f[1:] > 0))
        if crossing.size == 0:
            raise ValueError(f"level {value} is outside the sampled range")
        lo, hi = ts[crossing[0]], ts[crossing[0] + 1]
        if hi - lo < 1e-15 * max(1.0, abs(lo) + abs(hi)):
            frozen = 0.5 * (lo + hi)
            break
        ts = np.linspace(lo, hi, AXIS_PROBES)
        line = surface(ts, held) if param == "u" else surface(held, ts)
        coord = line[:, axis]
    return slice_parameter_line(surface, param, frozen, npoints, sweep=sweep)


# ---------------------------------------------------------------------------
# conic fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicFit:
    """Fitted conic A x^2 + B xy + C y^2 + D x + E y + F = 0."""

    coefficients: np.ndarray   # unit-norm (A, B, C, D, E, F), original frame,
                               # largest-magnitude entry positive
    classification: str        # ellipse | circle | parabola | hyperbola |
                               # line | line-pair | degenerate
    eccentricity: float        # inf for lines, nan for degenerate
    residual: float            # max |algebraic distance|, normalized frame
    center: np.ndarray | None          # central conics only
    semi_axes: tuple | None            # (major, minor) ellipse;
                                       # (transverse, conjugate) hyperbola
    axis_directions: np.ndarray | None  # (2, 2) principal directions
    leading_coefficient: float | None   # parabola: |lambda| in y = lambda x^2


def _conic_matrix(k):
    a, b, c, d, e, f = k
    return np.array([[a, b / 2, d / 2],
                     [b / 2, c, e / 2],
                     [d / 2, e / 2, f]])


def _classify(k):
    """Classify unit-norm coefficients (in the normalized sample frame)."""
    a, b, c = k[:3]
    disc = b * b - 4 * a * c
    if np.min(np.abs(np.linalg.eigvalsh(_conic_matrix(k)))) <= DEGENERATE_TOL:
        # rank-deficient conic: one or two lines
        return "line-pair" if disc > PARABOLA_TOL else "degenerate"
    if abs(disc) <= PARABOLA_TOL:
        return "parabola"
    return "ellipse" if disc < 0 else "hyperbola"


def _central_geometry(k):
    """Center, semi-axes, axis directions, eccentricity of a central conic
    (coefficients in any frame)."""
    a, b, c, d, e, f = k
    m22 = np.array([[a, b / 2], [b / 2, c]])
    center = np.linalg.solve(m22, [-d / 2, -e / 2])
    f_c = f + 0.5 * (d * center[0] + e * center[1])
    lam, vecs = np.linalg.eigh(m22)   # lam ascending, columns orthonormal
    # canonical form: lam1 x'^2 + lam2 y'^2 = -f_c
    rhs = -f_c
    kind = "ellipse" if lam[0] * lam[1] > 0 else "hyperbola"
    if kind == "ellipse":
        if lam[0] * rhs <= 0:
            raise DegenerateConic("imaginary ellipse")
        ax = np.sqrt(rhs / lam)       # semi-axes along the two eigenvectors
        order = np.argsort(ax)[::-1]  # major first
        major, minor = ax[order]
        ecc = math.sqrt(max(0.0, 1.0 - (minor / major) ** 2))
        return center, (float(major), float(minor)), vecs[:, order].T, ecc
    # hyperbola: transverse axis has lam of the same sign as rhs
    it = 0 if lam[0] * rhs > 0 else 1
    ic = 1 - it
    a_t = math.sqrt(rhs / lam[it])
    b_c = math.sqrt(-rhs / lam[ic])
    ecc = math.sqrt(1.0 + (b_c / a_t) ** 2)
    dirs = np.stack([vecs[:, it], vecs[:, ic]])
    return center, (float(a_t), float(b_c)), dirs, ecc


def _parabola_leading(k):
    """|lambda| of the vertex form y = lambda x^2 for a parabola."""
    a, b, c, d, e, f = k
    m22 = np.array([[a, b / 2], [b / 2, c]])
    lam, vecs = np.linalg.eigh(m22)
    i_axis = int(np.argmax(np.abs(lam)))   # the nonzero eigenvalue
    lam1 = lam[i_axis]
    ey_dir = vecs[:, 1 - i_axis]           # parabola axis direction
    ep = d * ey_dir[0] + e * ey_dir[1]
    if abs(ep) < 1e-300:
        raise DegenerateConic("parabola without a linear term")
    return abs(lam1 / ep)


def _denormalize(k, scale, tx, ty):
    """Map coefficients from x' = scale (x - t) frame back to x."""
    t = np.array([[scale, 0.0, -scale * tx],
                  [0.0, scale, -scale * ty],
                  [0.0, 0.0, 1.0]])
    m = t.T @ _conic_matrix(k) @ t
    return _unit(np.array([m[0, 0], 2 * m[0, 1], m[1, 1],
                           2 * m[0, 2], 2 * m[1, 2], m[2, 2]]))


def _unit(coeff):
    """``coeff`` scaled to unit norm with its largest-magnitude entry
    positive, so that the sign the SVD happens to return never shows."""
    coeff = coeff / np.linalg.norm(coeff)
    return -coeff if coeff[np.argmax(np.abs(coeff))] < 0 else coeff


def _line_fit(centered, centroid, vh) -> ConicFit:
    """The line through ``centroid`` along vh[0], the principal direction
    of the ``centered`` sample; vh[1] is its in-plane unit normal."""
    n = vh[1]
    coeff = _unit(np.array([0.0, 0.0, 0.0, n[0], n[1], -float(n @ centroid)]))
    resid = float(np.max(np.abs(centered @ n)))
    return ConicFit(coeff, "line", math.inf, resid, None, None, vh, None)


def fit_conic(pc: PlanarCurveSample) -> ConicFit:
    """Algebraic least-squares conic through an in-plane sample."""
    if pc.xy.shape[0] < 6:
        raise ValueError("need at least 6 points to fit a conic")
    if pc.planarity_residual > PLANARITY_TOL:
        raise NotPlanar(
            f"planarity residual {pc.planarity_residual:.3e} exceeds "
            f"{PLANARITY_TOL:.1e}")
    xy = pc.xy
    centroid = xy.mean(axis=0)
    centered = xy - centroid

    # exact-line data make the conic fit ambiguous; detect first
    _, sv, vh = np.linalg.svd(centered, full_matrices=False)
    if sv[0] == 0 or sv[1] / sv[0] <= LINE_SV_TOL:
        return _line_fit(centered, centroid, vh)

    rms = math.sqrt(float(np.mean(np.sum(centered ** 2, axis=1))))
    scale = math.sqrt(2.0) / rms
    x, y = (scale * centered).T

    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, s, vh = np.linalg.svd(design, full_matrices=False)
    if (s[-2] - s[-1]) <= AMBIGUOUS_GAP * s[0]:
        raise IllConditioned("two smallest singular values nearly equal; "
                             "conic fit is ambiguous")
    k_norm = vh[-1]
    k_norm = k_norm / np.linalg.norm(k_norm)
    residual = float(np.max(np.abs(design @ k_norm)))

    cls = _classify(k_norm)
    coeff = _denormalize(k_norm, scale, centroid[0], centroid[1])

    center = semi = dirs = None
    lead = None
    ecc = math.nan
    if cls in ("ellipse", "hyperbola"):
        center, semi, dirs, ecc = _central_geometry(coeff)
        if cls == "ellipse" and ecc <= CIRCLE_ECC_TOL:
            cls = "circle"
    elif cls == "parabola":
        ecc = 1.0
        lead = _parabola_leading(coeff)
    return ConicFit(coeff, cls, float(ecc), residual, center, semi, dirs, lead)


def eccentricity(fit: ConicFit) -> float:
    """Defining eccentricity; 0 for circles, 1 for parabolas, inf for a
    single line.  Raises DegenerateConic for line pairs/degenerate fits."""
    if fit.classification in ("degenerate", "line-pair"):
        raise DegenerateConic(f"no eccentricity for {fit.classification}")
    if fit.classification == "circle":
        return 0.0
    return fit.eccentricity


def asymptotes(fit: ConicFit) -> np.ndarray:
    """Unit direction vectors of the two asymptotes of a hyperbola,
    shape (2, 2), in the same in-plane frame as the fit."""
    if fit.classification != "hyperbola":
        raise NotHyperbola(f"asymptotes of a {fit.classification}")
    (a_t, b_c) = fit.semi_axes
    et, ec = fit.axis_directions
    d1 = a_t * et + b_c * ec
    d2 = a_t * et - b_c * ec
    return np.stack([d1 / np.linalg.norm(d1), d2 / np.linalg.norm(d2)])
