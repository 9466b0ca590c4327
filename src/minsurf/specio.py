"""JSON surface-spec: the wire format the CLI pipes between stages.

Two shapes are accepted:

    {"weierstrass": {"G": "...", "Psi": "..."}, "domain": {...}}
    {"curve": ["...", "...", ...], "domain": {...}}

Expression strings use the infix syntax of ``expr.parse``; ``domain`` is
optional (default [-1,1]^2) with keys "rect", "punctures", "branch_cut";
an optional "base_point": [re, im] rides along for downstream stages.
"""

from __future__ import annotations

import json

from . import expr as ex
from .domain import DomainSpec, real_numbers
from .nullcurve import NullCurve, WeierstrassData, from_weierstrass

__all__ = ["SurfaceSpec", "loads", "dumps", "load", "dump"]


class SurfaceSpec:
    """Parsed surface-spec: either Weierstrass data or an explicit curve."""

    def __init__(self, weierstrass=None, curve=None, base_point=None):
        if (weierstrass is None) == (curve is None):
            raise ValueError("spec needs exactly one of 'weierstrass' or 'curve'")
        self.weierstrass = weierstrass
        self.curve = curve
        self.base_point = base_point

    @property
    def domain(self) -> DomainSpec:
        return (self.weierstrass or self.curve).domain

    def as_curve(self) -> NullCurve:
        if self.curve is not None:
            return self.curve
        return from_weierstrass(self.weierstrass)

    def to_json(self) -> dict:
        d = {}
        if self.weierstrass is not None:
            d["weierstrass"] = {"G": ex.to_source(self.weierstrass.G),
                                "Psi": ex.to_source(self.weierstrass.Psi)}
        else:
            d["curve"] = [ex.to_source(c) for c in self.curve.components]
        d["domain"] = self.domain.to_json()
        if self.base_point is not None:
            d["base_point"] = [self.base_point.real, self.base_point.imag]
        return d

    @classmethod
    def from_json(cls, d: dict) -> "SurfaceSpec":
        """Parse a spec; ValueError if it is malformed."""
        if not isinstance(d, dict):
            raise ValueError("spec must be a JSON object")
        if ("weierstrass" in d) == ("curve" in d):
            raise ValueError("spec needs exactly one of 'weierstrass' or 'curve'")
        domain = DomainSpec.from_json(d.get("domain", {}))
        base = d.get("base_point")
        base = None if base is None else complex(*real_numbers(base, 2, "'base_point'"))
        if "weierstrass" in d:
            wd = d["weierstrass"]
            if not (isinstance(wd, dict) and isinstance(wd.get("G"), str)
                    and isinstance(wd.get("Psi"), str)):
                raise ValueError("'weierstrass' needs expression strings G, Psi")
            w = WeierstrassData(ex.parse(wd["G"]), ex.parse(wd["Psi"]), domain)
            return cls(weierstrass=w, base_point=base)
        comps = d["curve"]
        if not (isinstance(comps, list)
                and all(isinstance(s, str) for s in comps)):
            raise ValueError("'curve' must be a list of expression strings")
        comps = tuple(ex.parse(s) for s in comps)
        return cls(curve=NullCurve(comps, domain), base_point=base)


def loads(text: str) -> SurfaceSpec:
    return SurfaceSpec.from_json(json.loads(text))


def dumps(spec: SurfaceSpec) -> str:
    return json.dumps(spec.to_json(), indent=2, sort_keys=True)


def load(fh) -> SurfaceSpec:
    return SurfaceSpec.from_json(json.load(fh))


def dump(spec: SurfaceSpec, fh) -> None:
    fh.write(dumps(spec))
    fh.write("\n")
