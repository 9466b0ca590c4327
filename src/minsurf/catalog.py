"""Named constructions and their closed-form oracles.

Every entry provides the generating data (Weierstrass pair or null
curve) on a recommended domain, and, where a closed form of the
immersion exists, an independently evaluable ``ParametricSurface`` so
tests can compare the numeric pipeline against formulas rather than
against itself.

Domains are chosen for puncture clearance and meaningful meshes:
exponential-type data live on squares around 0; data with a pole at 0
live on a rectangle around the base point 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .domain import DomainSpec
from .errors import InvalidConstant
from .expr import Z, const, cosh, div, exp, log, mul, neg, powi, sinh
from .nullcurve import NullCurve, WeierstrassData
from .conic import ParametricSurface

__all__ = [
    "CatalogEntry", "entries", "get",
    "helicoid", "catenoid", "catenoid_exp",
    "osserman_graph", "hoffman_osserman",
    "lagrangian_catenoid", "lagrangian_catenoid_patch",
    "complex_parabola", "complex_parabola_patch",
    "helicoid_closed_form", "catenoid_closed_form",
    "catenoid_exp_closed_form", "helicoid_deformation",
    "catenoid_deformation", "ellipse_semi_axes",
    "parabola_leading_coefficient",
]


# ---------------------------------------------------------------------------
# generating data
# ---------------------------------------------------------------------------

def helicoid() -> WeierstrassData:
    """Weierstrass data (e^z, -i e^{-z}); the standard helicoid."""
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5)
    return WeierstrassData(exp(Z), mul(const(-1j), exp(neg(Z))), dom)


def catenoid() -> WeierstrassData:
    """Weierstrass data (z, 1/z^2) on a rectangle clear of the pole."""
    dom = DomainSpec(0.2, 2.0, -1.0, 1.0, punctures=(0j,))
    return WeierstrassData(Z, div(const(1), powi(Z, 2)), dom)


def catenoid_exp() -> WeierstrassData:
    """Exponential chart of the catenoid: data (e^z, e^{-z}), entire."""
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5)
    return WeierstrassData(exp(Z), exp(neg(Z)), dom)


def osserman_graph(mu: complex = 1 - 1j, F: ex.Expr | None = None) -> NullCurve:
    """Entire minimal graph over the (x1, x2)-plane in R^4.

    Curve (1, mu, (e^F - (1+mu^2) e^{-F})/2, i (e^F + (1+mu^2) e^{-F})/2)
    for an entire F; requires Im(mu) < 0.  mu in {i, -i} degenerates to a
    complex-analytic curve (rank 2).
    """
    mu = complex(mu)
    if mu not in (1j, -1j) and mu.imag >= 0:
        raise InvalidConstant("mu must have negative imaginary part")
    f = F if F is not None else Z
    q = const(1 + mu * mu)
    ef, emf = exp(f), exp(neg(f))
    dom = DomainSpec(-1.0, 1.0, -1.0, 1.0)
    return NullCurve((
        const(1),
        const(mu),
        mul(const(0.5), ex.sub(ef, mul(q, emf))),
        mul(const(0.5j), ex.add(ef, mul(q, emf))),
    ), dom)


def hoffman_osserman(d4: complex, d5: complex, C: complex,
                     alpha: float) -> NullCurve:
    """Five-component null curve (d1 + C/z^2, d2 + i C/z^2, alpha/z, d4, d5).

    d1 and d2 are forced by the nullity constraint

        (d1, d2) = ( (C/a^2)(d4^2+d5^2) - a^2/(4C),
                     i ((C/a^2)(d4^2+d5^2) + a^2/(4C)) ),   a = alpha,

    which makes the quadratic form vanish identically.
    """
    C = complex(C)
    if C == 0:
        raise InvalidConstant("C must be nonzero")
    if alpha <= 0:
        raise InvalidConstant("alpha must be positive")
    d4, d5 = complex(d4), complex(d5)
    s = d4 * d4 + d5 * d5
    a2 = alpha * alpha
    p = C / a2 * s
    q = a2 / (4 * C)
    d1, d2 = p - q, 1j * (p + q)
    dom = DomainSpec(0.2, 2.0, -1.0, 1.0, punctures=(0j,))
    inv2 = powi(Z, -2)
    return NullCurve((
        ex.add(const(d1), mul(const(C), inv2)),
        ex.add(const(d2), mul(const(1j * C), inv2)),
        div(const(alpha), Z),
        const(d4),
        const(d5),
    ), dom)


def lagrangian_catenoid() -> NullCurve:
    """Derivative curve (cosh w, -i cosh w, sinh w, -i sinh w) of the
    Lagrangian catenoid patch; a 2-degenerate curve in C^4."""
    dom = DomainSpec(-1.2, 1.2, -1.2, 1.2)
    return NullCurve((cosh(Z), mul(const(-1j), cosh(Z)),
                      sinh(Z), mul(const(-1j), sinh(Z))), dom)


def complex_parabola(mu: complex = 1.0) -> NullCurve:
    """Derivative curve (1, -i, 2 mu z, -2 i mu z) of the graph
    z -> mu z^2 viewed as a surface in R^4."""
    mu = complex(mu)
    if mu == 0:
        raise InvalidConstant("mu must be nonzero")
    dom = DomainSpec(-2.0, 2.0, -2.0, 2.0)
    return NullCurve((const(1), const(-1j),
                      mul(const(2 * mu), Z), mul(const(-2j * mu), Z)), dom)


# ---------------------------------------------------------------------------
# closed-form immersions (oracles)
# ---------------------------------------------------------------------------

def _stack(*coords):
    """Coordinates at scalar or array (u, v), shape broadcast(u, v) + (n,)."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


def helicoid_closed_form() -> ParametricSurface:
    """(-sinh u sin v, sinh u cos v, v)."""
    def f(u, v):
        return _stack(-np.sinh(u) * np.sin(v), np.sinh(u) * np.cos(v), v)
    return ParametricSurface(f, (-1.5, 1.5), (-1.5, 1.5), "helicoid")


def catenoid_closed_form() -> ParametricSurface:
    """Antiderivatives of the (z, 1/z^2) curve:
    (-Re(z + 1/z)/2, -Im(z - 1/z)/2, ln|z|)."""
    def f(u, v):
        z = u + 1j * v
        w = 1.0 / z
        return _stack(-0.5 * (z + w).real, -0.5 * (z - w).imag, np.log(abs(z)))
    return ParametricSurface(f, (0.2, 2.0), (-1.0, 1.0), "catenoid")


def catenoid_exp_closed_form() -> ParametricSurface:
    """(-cosh u cos v, -cosh u sin v, u): the catenoid of neck radius 1."""
    def f(u, v):
        return _stack(-np.cosh(u) * np.cos(v), -np.cosh(u) * np.sin(v), u)
    return ParametricSurface(f, (-1.5, 1.5), (-1.5, 1.5), "catenoid-exp")


@dataclass(frozen=True)
class HelicoidDeformation:
    """Closed forms for the parabolic deformation of the helicoid with
    constant c = alpha + i beta.

    ``surface`` evaluates the four components in the standard frame:

        X0 = e^u (a sin v + b cos v)
        X1 = e^u ((a^2-b^2-1)/2 sin v + a b cos v) + e^{-u} sin v / 2
        X2 = e^u (-a b sin v + (a^2-b^2+1)/2 cos v) - e^{-u} cos v / 2
        X3 = v

    Level sets {X3 = v0}: writing the slice as e^u w+ + e^{-u} w-,
    the curve is a hyperbola with asymptote directions w+ and w- when
    p = a sin v0 + b cos v0 is nonzero, and a straight line when p = 0.
    ``slice_geometry`` returns the exact asymptote directions and
    semi-axes derived from that decomposition.
    """

    alpha: float
    beta: float

    @property
    def m(self) -> float:
        return self.alpha ** 2 + self.beta ** 2 + 1.0

    def components(self, u, v):
        a, b = self.alpha, self.beta
        eu, emu = np.exp(u), np.exp(-u)
        s, c = np.sin(v), np.cos(v)
        x0 = eu * (a * s + b * c)
        x1 = eu * (0.5 * (a * a - b * b - 1) * s + a * b * c) + 0.5 * emu * s
        x2 = eu * (-a * b * s + 0.5 * (a * a - b * b + 1) * c) - 0.5 * emu * c
        return _stack(x0, x1, x2, v)

    @property
    def surface(self) -> ParametricSurface:
        return ParametricSurface(self.components, (-1.5, 1.5), (-3.3, 3.3),
                                 f"helicoid-deformation({self.alpha},{self.beta})")

    def adapted_frame(self) -> np.ndarray:
        """Rows E0..E3 of the adapted frame.  Pairwise orthogonal except
        E1 . E2 = -a b / sqrt((a^2+1)(b^2+1)); orthonormal when a b = 0."""
        a, b = self.alpha, self.beta
        e0 = np.array([1.0, a, -b, 0.0]) / math.sqrt(self.m)
        e1 = np.array([-a, 1.0, 0.0, 0.0]) / math.sqrt(a * a + 1)
        e2 = np.array([b, 0.0, 1.0, 0.0]) / math.sqrt(b * b + 1)
        e3 = np.array([0.0, 0.0, 0.0, 1.0])
        return np.stack([e0, e1, e2, e3])

    def adapted_components(self, u, v):
        """Projections X . E_i onto the adapted frame:

            Xi0 = (a sin v + b cos v) Ch(u)
            Xi1 = -sqrt(m)/sqrt(a^2+1) sin v Sh(u)
            Xi2 = +sqrt(m)/sqrt(b^2+1) cos v Sh(u)
            Xi3 = v

        with Ch/Sh = cosh/sinh(u + ln sqrt(m)), m = a^2 + b^2 + 1.
        """
        a, b = self.alpha, self.beta
        m = self.m
        shift = u + 0.5 * math.log(m)
        ch, sh = np.cosh(shift), np.sinh(shift)
        s, c = np.sin(v), np.cos(v)
        return _stack((a * s + b * c) * ch,
                      -math.sqrt(m / (a * a + 1)) * s * sh,
                      math.sqrt(m / (b * b + 1)) * c * sh,
                      v)

    def slice_vectors(self, v0: float):
        """Asymptotic direction vectors (w+, w-) of the slice at v0:
        the curve is u -> e^u w+ + e^{-u} w- + const in R^4."""
        a, b = self.alpha, self.beta
        s, c = math.sin(v0), math.cos(v0)
        p = a * s + b * c
        q1 = 0.5 * (a * a - b * b - 1) * s + a * b * c
        q2 = -a * b * s + 0.5 * (a * a - b * b + 1) * c
        w_plus = np.array([p, q1, q2, 0.0])
        w_minus = np.array([0.0, 0.5 * s, -0.5 * c, 0.0])
        return w_plus, w_minus

    def slice_geometry(self, v0: float) -> dict:
        """Exact conic data of the slice {X3 = v0}.

        For p = a sin v0 + b cos v0 != 0 the slice is a hyperbola whose
        asymptote lines run along w+ and w-; its semi-axes follow from
        the vertex at e^u w+ + e^{-u} w- with e^{2u} = |w-|/|w+|:

            a_t^2 = |w+||w-| + w+.w-  (times 2)
            b_c^2 = |w+||w-| - w+.w-  (times 2)

        The asymptotes are orthogonal exactly when w+ . w- = 0, i.e.
        Re((a + i b)^2 e^{2 i v0}) = -1.  For p = 0 the slice is a line.
        """
        w_plus, w_minus = self.slice_vectors(v0)
        p = w_plus[0]
        np_, nm = np.linalg.norm(w_plus), np.linalg.norm(w_minus)
        dot = float(w_plus @ w_minus)
        if abs(p) < 1e-14:
            return {"kind": "line", "direction": w_minus / nm}
        a_t = math.sqrt(2.0 * (np_ * nm + dot))
        b_c = math.sqrt(2.0 * (np_ * nm - dot))
        cos_angle = dot / (np_ * nm)
        return {
            "kind": "hyperbola",
            "asymptote_directions": np.stack([w_plus / np_, w_minus / nm]),
            "cos_asymptote_angle": cos_angle,
            "semi_transverse": a_t,
            "semi_conjugate": b_c,
            "eccentricity": math.sqrt(1.0 + (b_c / a_t) ** 2),
            "orthogonal_asymptotes": abs(cos_angle) < 1e-12,
        }


def helicoid_deformation(alpha: float, beta: float) -> HelicoidDeformation:
    return HelicoidDeformation(float(alpha), float(beta))


def catenoid_deformation(theta: float) -> ParametricSurface:
    """Closed form of the rotated parabolic deformation of the catenoid:

        X(U, V) = (tan t sinh U cos V, cosh U cos V, cosh U sin V / cos t, U)

    foliated by the ellipses {X3 = U}; see ``ellipse_semi_axes``.  Up to
    a half turn of the (X1, X2)-plane and a translation, it is
    ``transforms.parabolic_deform_rotated`` of the data (cos t e^z,
    e^{-z} / cos t): ``catenoid_exp``'s (e^z, e^{-z}) reparametrized by
    z -> z + log cos t.  So the leaf X3 = U + log cos t of the deformed
    ``catenoid_exp`` (from base point 0) is this leaf X3 = U, and its
    neck lies at X3 = log cos t.
    """
    if not 0 < theta < math.pi / 2:
        raise InvalidConstant("theta must lie in (0, pi/2)")
    tt, ct = math.tan(theta), math.cos(theta)

    def f(u, v):
        return _stack(tt * np.sinh(u) * np.cos(v), np.cosh(u) * np.cos(v),
                      np.cosh(u) * np.sin(v) / ct, u)
    return ParametricSurface(f, (-12.0, 12.0), (0.0, 2 * math.pi),
                             f"catenoid-deformation({theta})")


def ellipse_semi_axes(theta: float, U: float):
    """Semi-axes (r1, r2) of the level ellipse of ``catenoid_deformation``
    at height U, derived from the closed-form components:

        r1 = sqrt(tan^2 t sinh^2 U + cosh^2 U),   r2 = cosh U / cos t.

    r2/r1 -> 1 as |U| -> inf (the ellipses round out to circles).  The
    deformed data are (cos t e^z, e^{-z} / cos t); for ``catenoid_exp``'s
    (e^z, e^{-z}) these are the axes of the leaf X3 = U + log cos t.
    """
    tt, ct = math.tan(theta), math.cos(theta)
    r1 = math.hypot(tt * math.sinh(U), math.cosh(U))
    r2 = math.cosh(U) / ct
    return r1, r2


def lagrangian_catenoid_patch() -> ParametricSurface:
    """(sinh u cos v, cosh u sin v, cosh u cos v, sinh u sin v): the
    graph of 1/z over C - {0} after a unitary change of coordinates.
    Fixed-v slices are rectangular hyperbolas; fixed-u slices are circles
    of squared radius cosh^2 u + sinh^2 u."""
    def f(u, v):
        return _stack(np.sinh(u) * np.cos(v), np.cosh(u) * np.sin(v),
                      np.cosh(u) * np.cos(v), np.sinh(u) * np.sin(v))
    return ParametricSurface(f, (-1.2, 1.2), (0.0, 2 * math.pi),
                             "lagrangian-catenoid")


def complex_parabola_patch(mu: complex = 1.0) -> ParametricSurface:
    """(Re z, Im z, Re(mu z^2), Im(mu z^2)): the graph of mu z^2.
    Fixed-u slices are parabolas."""
    mu = complex(mu)
    if mu == 0:
        raise InvalidConstant("mu must be nonzero")

    def f(u, v):
        w = mu * (u + 1j * v) ** 2
        return _stack(u, v, w.real, w.imag)
    return ParametricSurface(f, (-2.0, 2.0), (-2.0, 2.0),
                             f"complex-parabola({mu})")


def parabola_leading_coefficient(mu: complex, u0: float) -> float:
    """Leading coefficient of the fixed-u0 slice parabola of the mu z^2
    graph, in its vertex frame:

        lambda = sqrt(a^2 + b^2) / (1 + 4 (a^2 + b^2) u0^2),

    with (a, b) = (Re mu, Im mu).  Follows from the slice
    v -> v d1 + v^2 d2 + const with orthogonal d1, d2:
    lambda = |d2| / |d1|^2."""
    mu = complex(mu)
    r2 = abs(mu) ** 2
    return math.sqrt(r2) / (1.0 + 4.0 * r2 * u0 * u0)


# ---------------------------------------------------------------------------
# registry for the CLI
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    make: object = field(repr=False)   # () -> WeierstrassData or NullCurve
    base_point: complex = 0j
    summary: str = ""


_ENTRIES = (
    CatalogEntry("helicoid", helicoid, 0j,
                 "helicoid; level sets are horizontal lines"),
    CatalogEntry("catenoid", catenoid, 1 + 0j,
                 "catenoid chart with a pole at z = 0"),
    CatalogEntry("catenoid-exp", catenoid_exp, 0j,
                 "catenoid in the exponential chart (entire data)"),
    CatalogEntry("osserman-graph", osserman_graph, 0j,
                 "entire non-planar minimal graph in R^4"),
    CatalogEntry("hoffman-osserman",
                 lambda: hoffman_osserman(1 + 1j, 2, 1, 1), 1 + 0j,
                 "five-component curve with constrained constants"),
    CatalogEntry("lagrangian-catenoid", lagrangian_catenoid, 0j,
                 "holomorphic curve (sinh, cosh) as a surface in R^4"),
    CatalogEntry("complex-parabola", complex_parabola, 0j,
                 "graph of z -> z^2 in C^2; parabola-foliated"),
)


def entries():
    return _ENTRIES


def get(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")
