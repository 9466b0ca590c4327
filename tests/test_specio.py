"""The JSON surface-spec round trip."""

import io
import math

import pytest

from minsurf import expr as ex
from minsurf import specio
from minsurf.domain import DomainSpec
from minsurf.nullcurve import WeierstrassData, from_weierstrass


def _spec():
    dom = DomainSpec(-1.5, 1.5, -1.0, 2.0, punctures=(0j, 0.5 - 0.25j),
                     branch_cut=-math.pi / 2)
    w = WeierstrassData(ex.parse("z"), ex.parse("1/z^2"), dom)
    return specio.SurfaceSpec(weierstrass=w, base_point=1 + 0.5j)


def _fields(spec):
    w = spec.weierstrass
    return (ex.to_source(w.G), ex.to_source(w.Psi), w.domain, spec.base_point)


def test_dumps_loads_round_trip():
    spec = _spec()
    text = specio.dumps(spec)
    back = specio.loads(text)
    assert _fields(back) == _fields(spec)
    assert specio.dumps(back) == text
    domain = spec.to_json()["domain"]
    assert domain["punctures"] == [[0.0, 0.0], [0.5, -0.25]]
    assert domain["branch_cut"] == -math.pi / 2


def test_dump_load_round_trip():
    spec = _spec()
    fh = io.StringIO()
    specio.dump(spec, fh)
    assert fh.getvalue() == specio.dumps(spec) + "\n"
    fh.seek(0)
    assert _fields(specio.load(fh)) == _fields(spec)


@pytest.mark.parametrize("text", [
    '{"domain": {}}',
    '{"curve": ["1", "i", "0"], "weierstrass": {"G": "z", "Psi": "1"}}',
])
def test_spec_needs_exactly_one_of_weierstrass_and_curve(text):
    with pytest.raises(ValueError, match="exactly one"):
        specio.loads(text)


def test_spec_object_needs_exactly_one_of_weierstrass_and_curve():
    w = _spec().weierstrass
    with pytest.raises(ValueError, match="exactly one"):
        specio.SurfaceSpec()
    with pytest.raises(ValueError, match="exactly one"):
        specio.SurfaceSpec(weierstrass=w, curve=from_weierstrass(w))
