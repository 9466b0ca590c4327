"""Holomorphic null curves and Weierstrass data.

A null curve is a tuple of n holomorphic components (n in {3,4,5,6})
whose squared components sum to zero on the complex null cone
Q = { sum_k z_k^2 = 0 }.  Integrating Re of such a curve produces a
conformal harmonic (minimal) immersion; that step lives in ``surface``.

Weierstrass data (G, Psi) generates the classical 3-component curve

    ( (1 - G^2) Psi / 2,  i (1 + G^2) Psi / 2,  G Psi ),

whose quadratic form vanishes identically.  ``null_residual`` measures
how far a candidate curve is from the cone on a reproducible Halton
sample; the pass threshold is relative because components on
exponential-type data grow like e^{2u}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .domain import DomainSpec
from .engine import evaluate

__all__ = [
    "WeierstrassData", "NullCurve", "NullResidualReport",
    "quadratic_form", "from_weierstrass", "embed_3_to_4", "null_residual",
    "NULL_TOLERANCE",
]

# residual <= NULL_TOLERANCE * normalizer classifies a curve as null
NULL_TOLERANCE = 1e-9

_ALLOWED_DIMS = (3, 4, 5, 6)


@dataclass(frozen=True)
class WeierstrassData:
    """Pair (G, Psi) on a domain; G is the complexified Gauss map."""

    G: ex.Expr
    Psi: ex.Expr
    domain: DomainSpec

    def __post_init__(self):
        vals = evaluate((self.G, self.Psi), self.domain.sample_points(8))
        for name, row in zip(("G", "Psi"), vals):
            if np.all(np.abs(row) < 1e-15):
                raise ValueError(f"Weierstrass component {name} is identically zero")


@dataclass(frozen=True)
class NullCurve:
    """Tuple of n holomorphic components intended to lie on the cone."""

    components: tuple
    domain: DomainSpec

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) not in _ALLOWED_DIMS:
            raise ValueError(f"curve dimension must be one of {_ALLOWED_DIMS}")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    def __call__(self, z):
        """Component values at point(s) z, stacked on the last axis."""
        vals = evaluate(self.components, z, cut=self.domain.branch_cut)
        # contiguous, so that sums over the components add in one order
        return np.ascontiguousarray(np.moveaxis(vals, 0, -1))


@dataclass(frozen=True)
class NullResidualReport:
    max_abs_residual: float
    normalizer: float
    sample_count: int

    @property
    def is_null(self) -> bool:
        # False when a sample overflows: inf <= inf would pass, and under a
        # finite normalizer a residual that is inf or NaN fails
        return (math.isfinite(self.normalizer)
                and self.max_abs_residual <= NULL_TOLERANCE * self.normalizer)


def quadratic_form(v):
    """Sum of squared components (no conjugation), over the last axis;
    inf or NaN, with no warning, where it overflows."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape[-1] < 2:
        raise ValueError("need at least two components")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(v * v, axis=-1)


def from_weierstrass(w: WeierstrassData) -> NullCurve:
    """The 3-component null curve generated by (G, Psi)."""
    g2 = ex.powi(w.G, 2)
    return NullCurve((
        ex.mul(ex.mul(ex.const(0.5), ex.sub(1, g2)), w.Psi),
        ex.mul(ex.mul(ex.const(0.5j), ex.add(1, g2)), w.Psi),
        ex.mul(w.G, w.Psi),
    ), w.domain)


def embed_3_to_4(c3: NullCurve) -> NullCurve:
    """Prepend a zero component: (phi1,phi2,phi3) -> (0,phi1,phi2,phi3)."""
    if c3.n != 3:
        raise ValueError("embed_3_to_4 expects a 3-component curve")
    return NullCurve((ex.const(0),) + c3.components, c3.domain)


def null_residual(c: NullCurve, samples: int = 100, skip: int = 0) -> NullResidualReport:
    """Max |Q(phi)| over a Halton sample, with the normalizing scale
    max over samples of sum |phi_k|^2."""
    if samples < 8:
        raise ValueError("need at least 8 samples")
    z = c.domain.sample_points(samples, skip=skip)
    vals = c(z)
    residual = np.abs(quadratic_form(vals))
    with np.errstate(over="ignore"):   # an inf normalizer fails is_null
        scale = np.sum(np.abs(vals) ** 2, axis=-1)
    return NullResidualReport(float(residual.max()), float(scale.max()), samples)
