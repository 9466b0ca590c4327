"""Deformations of null curves: classical families and parabolic rotations.

Matrix deformations act symbolically: ``apply_transform`` produces new
component ASTs (linear combinations with constant coefficients), so the
result can still be differentiated and integrated exactly.  Zero matrix
entries, and terms or partial sums that are the constant 0, are skipped
and unit coefficients dropped, which keeps untouched components
bit-identical to the input.

Families provided:

* associate rotation     phi -> e^{-i theta} phi             (isometric)
* Goursat shear          2x2 block (cosh t, -i sinh t; i sinh t, cosh t)
* Lopez-Ros scaling      (G, Psi) -> (lambda G, Psi / lambda), lambda > 0
* Lawson lift            C^3 -> C^6 interleave with cos/sin beta weights
* parabolic rotation     the one-parameter family of O(4, C) matrices
                         fixing the last component (a Wick-rotated
                         light-cone shear); ``parabolic_deform`` is the
                         same deformation written directly on (G, Psi)
* triangular cone map    the two-parameter (L, R) family acting through
                         the 2x2-determinant model of the null cone

The Lopez-Ros scaling is the Goursat shear at t = -ln(lambda); that
conversion is exposed as ``goursat_parameter_for_scaling`` and tested
rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DimensionMismatch, InvalidConstant
from .nullcurve import NullCurve, WeierstrassData, embed_3_to_4, from_weierstrass

__all__ = [
    "NullTransform", "apply_transform", "is_complex_orthogonal",
    "associate", "goursat", "goursat_parameter_for_scaling", "lopez_ros",
    "lawson", "parabolic_rotation_matrix", "segre_LR_matrix",
    "lorentz_parabolic_matrix", "parabolic_deform",
    "parabolic_deform_matrix_route", "parabolic_deform_rotated",
    "ORTHOGONALITY_TOLERANCE",
]

ORTHOGONALITY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class NullTransform:
    """Constant n x n complex matrix acting on curve components."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("transform matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, other: "NullTransform") -> "NullTransform":
        return NullTransform(self.matrix @ other.matrix)


def is_complex_orthogonal(T: NullTransform | np.ndarray):
    """Check M^T M = I (plain transpose).  Returns (verdict, deviation)."""
    m = T.matrix if isinstance(T, NullTransform) else np.asarray(T, np.complex128)
    dev = float(np.max(np.abs(m.T @ m - np.eye(m.shape[0]))))
    return dev <= ORTHOGONALITY_TOLERANCE, dev


def _finite(name, x) -> float:
    """x as a float; InvalidConstant naming the parameter unless finite."""
    x = float(x)
    if not math.isfinite(x):
        raise InvalidConstant(f"{name} must be finite, got {x!r}")
    return x


def _is_zero(e) -> bool:
    return isinstance(e, ex.Const) and e.value == 0


def apply_transform(T: NullTransform, c: NullCurve) -> NullCurve:
    """New curve with components sum_j M_ij phi_j, built symbolically."""
    if T.n != c.n:
        raise DimensionMismatch(
            f"{T.n}x{T.n} matrix applied to {c.n}-component curve")
    rows = []
    for i in range(T.n):
        acc = None
        for j in range(c.n):
            mij = complex(T.matrix[i, j])
            if mij == 0:
                continue
            term = c.components[j] if mij == 1 else ex.mul(ex.const(mij),
                                                           c.components[j])
            if acc is None or _is_zero(acc):
                acc = term
            elif not _is_zero(term):
                acc = ex.add(acc, term)
        rows.append(acc if acc is not None else ex.const(0))
    return NullCurve(tuple(rows), c.domain)


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------

def associate(c: NullCurve, theta: float) -> NullCurve:
    """Rotate every component by e^{-i theta}; theta = pi/2 gives the
    conjugate surface.  Works in any dimension.  InvalidConstant unless
    theta is finite."""
    theta = _finite("theta", theta)
    if theta == 0.0:
        return c
    w = complex(math.cos(-theta), math.sin(-theta))
    return NullCurve(tuple(ex.mul(ex.const(w), comp) for comp in c.components),
                     c.domain)


def goursat(c3: NullCurve, t: float) -> NullCurve:
    """Hyperbolic shear of the first two components; third untouched.
    InvalidConstant unless t is finite, or when cosh t is beyond float
    range."""
    if c3.n != 3:
        raise DimensionMismatch("Goursat shear expects a 3-component curve")
    t = _finite("t", t)
    try:
        ch, sh = math.cosh(t), math.sinh(t)
    except OverflowError:
        raise InvalidConstant(f"cosh({t}) is beyond float range") from None
    m = np.array([[ch, -1j * sh, 0.0],
                  [1j * sh, ch, 0.0],
                  [0.0, 0.0, 1.0]], dtype=np.complex128)
    return apply_transform(NullTransform(m), c3)


def goursat_parameter_for_scaling(lam: float) -> float:
    """Shear parameter matching the (G, Psi) -> (lam G, Psi/lam) scaling."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return -math.log(lam)


def lopez_ros(w: WeierstrassData, lam: float) -> WeierstrassData:
    """(G, Psi) -> (lambda G, Psi / lambda); preserves the height
    differential G Psi and hence the third immersion coordinate.
    InvalidConstant unless lambda is finite; ValueError unless positive."""
    lam = _finite("lambda", lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if lam == 1.0:
        return w
    return WeierstrassData(ex.mul(ex.const(lam), w.G),
                           ex.div(w.Psi, ex.const(lam)), w.domain)


def lawson(c3: NullCurve, alpha: float, beta: float) -> NullCurve:
    """Isometric lift into C^6:
    e^{-i alpha} (cos b (p1,0,p2,0,p3,0) + sin b (0,-i p1,0,-i p2,0,-i p3)).
    InvalidConstant unless alpha and beta are finite."""
    if c3.n != 3:
        raise DimensionMismatch("Lawson lift expects a 3-component curve")
    alpha, beta = _finite("alpha", alpha), _finite("beta", beta)
    rot = complex(math.cos(-alpha), math.sin(-alpha))
    even = ex.const(rot * math.cos(beta))
    odd = ex.const(rot * math.sin(beta) * -1j)
    comps = []
    for p in c3.components:
        comps.append(ex.mul(even, p))
        comps.append(ex.mul(odd, p))
    return NullCurve(tuple(comps), c3.domain)


# ---------------------------------------------------------------------------
# parabolic rotations of the C^4 null cone
# ---------------------------------------------------------------------------

def parabolic_rotation_matrix(c: complex) -> NullTransform:
    """One-parameter family M(c) in O(4, C) with M(a) M(b) = M(a+b).

    The 3x3 block is the Wick rotation of a real light-cone shear
    (see ``lorentz_parabolic_matrix``); the last axis is fixed.
    """
    c = complex(c)
    h = 0.5 * c * c
    m = np.array([
        [1.0, -c, -c * 1j, 0.0],
        [c, 1.0 - h, -h * 1j, 0.0],
        [c * 1j, -h * 1j, 1.0 + h, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ], dtype=np.complex128)
    return NullTransform(m)


def segre_LR_matrix(L: complex, R: complex) -> NullTransform:
    """Two-parameter cone self-map from lower/upper triangular factors
    acting on the 2x2-determinant model of the cone.

    (L, R) = (-c i, -c i) recovers ``parabolic_rotation_matrix(c)``.
    """
    L, R = complex(L), complex(R)
    s, d, p = L + R, L - R, L * R
    m = np.array([
        [1.0, -0.5j * s, 0.5 * s, 0.0],
        [0.5j * s, 1.0 + 0.5 * p, 0.5j * p, -0.5 * d],
        [-0.5 * s, 0.5j * p, 1.0 - 0.5 * p, -0.5j * d],
        [0.0, 0.5 * d, 0.5j * d, 1.0],
    ], dtype=np.complex128)
    return NullTransform(m)


def lorentz_parabolic_matrix(t: float) -> np.ndarray:
    """Real shear fixing the light cone x^2 + y^2 - z^2 = 0 along the
    null direction (1, 0, 1)."""
    t = float(t)
    h = 0.5 * t * t
    return np.array([[1.0 - h, t, h],
                     [-t, 1.0, t],
                     [-h, t, 1.0 + h]])


def parabolic_deform(w: WeierstrassData, c: complex) -> NullCurve:
    """Parabolic rotation written directly on Weierstrass data:

        ( c G^2 Psi,
          (1 + (c^2 - 1) G^2) Psi / 2,
          i (1 + (c^2 + 1) G^2) Psi / 2,
          G Psi )

    Equals the matrix route: parabolic_rotation_matrix(c) applied to the
    embedded 3-curve.  The output satisfies the linear relation
    phi0 + c phi1 + i c phi2 = 0, so its Gauss map image lies in a
    hyperplane (the surface is degenerate).
    """
    c = complex(c)
    g2 = ex.powi(w.G, 2)
    half = ex.const(0.5)
    ihalf = ex.const(0.5j)
    return NullCurve((
        ex.mul(ex.mul(ex.const(c), g2), w.Psi),
        ex.mul(ex.mul(half, ex.add(1, ex.mul(ex.const(c * c - 1), g2))), w.Psi),
        ex.mul(ex.mul(ihalf, ex.add(1, ex.mul(ex.const(c * c + 1), g2))), w.Psi),
        ex.mul(w.G, w.Psi),
    ), w.domain)


def parabolic_deform_rotated(w: WeierstrassData, theta: float) -> NullCurve:
    """Frame-rotated form of ``parabolic_deform`` at c = tan(theta):

        ( sin(t)/2 (1 + G^2/cos^2 t) Psi,
          cos(t)/2 (1 - G^2/cos^2 t) Psi,
          i/2      (1 + G^2/cos^2 t) Psi,
          G Psi )

    The two are related by the constant ambient rotation
    E0 = cos t e0 + sin t e1, E1 = -sin t e0 + cos t e1.
    """
    if not -math.pi / 2 < theta < math.pi / 2:
        raise ValueError("theta must lie in (-pi/2, pi/2)")
    s, co = math.sin(theta), math.cos(theta)
    g2c = ex.mul(ex.const(1.0 / (co * co)), ex.powi(w.G, 2))
    return NullCurve((
        ex.mul(ex.mul(ex.const(0.5 * s), ex.add(1, g2c)), w.Psi),
        ex.mul(ex.mul(ex.const(0.5 * co), ex.sub(1, g2c)), w.Psi),
        ex.mul(ex.mul(ex.const(0.5j), ex.add(1, g2c)), w.Psi),
        ex.mul(w.G, w.Psi),
    ), w.domain)


def parabolic_deform_matrix_route(w: WeierstrassData, c: complex) -> NullCurve:
    """Matrix route for the same deformation: embed then rotate."""
    return apply_transform(parabolic_rotation_matrix(c),
                           embed_3_to_4(from_weierstrass(w)))
