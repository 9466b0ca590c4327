"""Parameter domains in the z = u + iv plane.

A DomainSpec is a closed rectangle with an optional finite list of
punctures (points the data is singular at, e.g. z = 0 for the 1/z^2
height differential) and a branch-cut direction for log.  Sample points
for residual reports and rank estimates come from a fixed Halton
sequence so that every report is reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DomainSpec", "halton", "real_numbers"]


def real_numbers(value, count: int, what: str) -> tuple:
    """``value``, a JSON list of ``count`` numbers, as floats; else ValueError."""
    if not (isinstance(value, (list, tuple)) and len(value) == count and all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in value)):
        raise ValueError(f"{what} must be a list of {count} numbers")
    return tuple(map(float, value))


def halton(count: int, skip: int = 0) -> np.ndarray:
    """First ``count`` points of the (2,3)-Halton sequence after ``skip``,
    as an array of shape (count, 2) in the unit square.  A negative skip
    is a ValueError: the digits of a negative index never run out; so is
    an index skip + count beyond int64, which numpy cannot hold."""
    if skip < 0:
        raise ValueError(f"Halton skip must be non-negative, got {skip}")
    if skip + count > np.iinfo(np.int64).max:
        raise ValueError(f"Halton skip {skip} takes the index past int64")
    pts = np.zeros((count, 2))
    for j, base in enumerate((2, 3)):   # radical inverses, digit by digit
        n, denom = np.arange(1, count + 1) + skip, 1.0
        while np.any(n):
            denom *= base
            n, rem = np.divmod(n, base)
            pts[:, j] += rem / denom
    return pts


@dataclass(frozen=True)
class DomainSpec:
    """Rectangle [u_min,u_max] x [v_min,v_max] minus punctures."""

    u_min: float = -1.0
    u_max: float = 1.0
    v_min: float = -1.0
    v_max: float = 1.0
    punctures: tuple = ()
    branch_cut: float = math.pi  # direction angle of the log cut ray

    def __post_init__(self):
        punctures = tuple(complex(p) for p in self.punctures)
        # the diagonal is finite only when every bound is; the sample and
        # base-point clearances scale with it
        diag = math.hypot(self.u_max - self.u_min, self.v_max - self.v_min)
        if not all(map(cmath.isfinite, (diag, self.branch_cut) + punctures)):
            raise ValueError("domain rect (and its diagonal), punctures and "
                             "branch_cut must be finite")
        if not (self.u_max > self.u_min and self.v_max > self.v_min):
            raise ValueError("degenerate domain rectangle")
        object.__setattr__(self, "punctures", punctures)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.u_min + self.u_max),
                       0.5 * (self.v_min + self.v_max))

    def contains(self, z: complex) -> bool:
        return (self.u_min <= z.real <= self.u_max
                and self.v_min <= z.imag <= self.v_max)

    def puncture_distance(self, a, b=None) -> np.ndarray:
        """Distance from the points ``a``, or from the segments a -> b, to
        the nearest puncture; with none, a read-only inf of the broadcast
        shape, which takes no memory.  A point is the segment a -> a."""
        if not self.punctures:
            return np.broadcast_to(
                np.inf, np.broadcast_shapes(np.shape(a), np.shape(b)))
        a = np.asarray(a, dtype=np.complex128)
        d = np.asarray(a if b is None else b, dtype=np.complex128) - a
        len2 = np.abs(d) ** 2
        len2 = np.where(len2 > 0, len2, 1.0)   # t = 0 on zero-length segments
        dist = np.full(d.shape, np.inf)
        for p in self.punctures:       # nearest point a + t d, 0 <= t <= 1
            t = np.clip(((p - a) * np.conj(d)).real / len2, 0.0, 1.0)
            dist = np.minimum(dist, np.abs(a + t * d - p))
        return dist

    def grid(self, nu: int, nv: int):
        """Grid axes (u, v) covering the rectangle, endpoints included."""
        if nu < 2 or nv < 2:
            raise ValueError("grid resolution must be at least 2x2")
        return (np.linspace(self.u_min, self.u_max, nu),
                np.linspace(self.v_min, self.v_max, nv))

    def sample_points(self, count: int, skip: int = 0) -> np.ndarray:
        """Halton samples over the rectangle after the first ``skip``
        (ValueError when negative), leaving out points within 2% of the
        rectangle diagonal of a puncture."""
        clearance = 0.02 * math.hypot(self.u_max - self.u_min,
                                      self.v_max - self.v_min)
        out = np.empty(count, dtype=np.complex128)
        have = 0
        offset = skip
        while have < count:
            batch = halton(2 * (count - have) + 8, skip=offset)
            offset += len(batch)
            z = (self.u_min + batch[:, 0] * (self.u_max - self.u_min)
                 + 1j * (self.v_min + batch[:, 1] * (self.v_max - self.v_min)))
            ok = z[self.puncture_distance(z) > clearance]
            take = min(len(ok), count - have)
            out[have:have + take] = ok[:take]
            have += take
        return out

    def default_base_point(self) -> complex:
        """Center of the rectangle, nudged off punctures if necessary."""
        z0 = self.center
        if not self.punctures:
            return z0
        diag = math.hypot(self.u_max - self.u_min, self.v_max - self.v_min)
        if float(self.puncture_distance(z0)) > 0.05 * diag:
            return z0
        return complex(self.sample_points(1, skip=17)[0])

    def to_json(self) -> dict:
        d = {"rect": [self.u_min, self.u_max, self.v_min, self.v_max]}
        if self.punctures:
            d["punctures"] = [[p.real, p.imag] for p in self.punctures]
        if self.branch_cut != math.pi:
            d["branch_cut"] = self.branch_cut
        return d

    @classmethod
    def from_json(cls, d: dict) -> "DomainSpec":
        punct = d.get("punctures", []) if isinstance(d, dict) else None
        if not isinstance(punct, list):
            raise ValueError("'domain' must be an object, its 'punctures' a list")
        rect = real_numbers(d.get("rect", [-1.0, 1.0, -1.0, 1.0]), 4, "'rect'")
        (cut,) = real_numbers([d.get("branch_cut", math.pi)], 1, "'branch_cut'")
        return cls(*rect, branch_cut=cut, punctures=[
            complex(*real_numbers(p, 2, "each puncture")) for p in punct])
