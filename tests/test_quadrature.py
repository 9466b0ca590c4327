"""Adaptive Gauss-Kronrod path integration."""

import math

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf import quadrature
from minsurf import surface as surface_mod
from minsurf.domain import DomainSpec
from minsurf.errors import NoConvergence, SingularPath
from minsurf.nullcurve import WeierstrassData, from_weierstrass
from minsurf.quadrature import integrate_path, integrate_segments
from minsurf.surface import immerse

from conftest import random_complex


def _legendre_moment(d):
    return 2.0 / (d + 1) if d % 2 == 0 else 0.0


@pytest.mark.parametrize("column, degree", [(0, 23), (1, 13)])
def test_rule_is_exact_to_its_degree_and_no_further(column, degree):
    # K15 (column 0) and G7 (column 1) on x^d over [-1, 1]
    x, w = quadrature._NODES, quadrature._WEIGHTS[:, column]
    err = [abs(w @ x ** d - _legendre_moment(d)) for d in range(degree + 2)]
    assert max(err[:-1]) <= 1e-15
    assert err[-1] > 1e-10


def test_rule_is_symmetric_and_embeds_the_seven_point_gauss_rule():
    x, w = quadrature._NODES, quadrature._WEIGHTS
    assert x.shape == (15,) and w.shape == (15, 2)
    assert np.all(np.diff(x) > 0) and -1 < x[0]
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # G7 uses every other Kronrod node, and only those
    assert np.all(w[:, 0] > 0) and np.all(w[1::2, 1] > 0)
    assert np.all(w[0::2, 1] == 0)
    gx, gw = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(x[1::2], gx, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w[1::2, 1], gw, rtol=0, atol=1e-15)
    assert np.all(np.abs(w.sum(axis=0) - 2.0) <= 1e-15)


def test_punctured_catenoid_at_513_matches_closed_form(monkeypatch):
    # the per-segment budget tol/(nu+nv) lies below the roundoff of the
    # near-pole segments here: they are accepted at the roundoff floor.
    # With no primitive the catenoid takes the quadrature tree
    monkeypatch.setattr(surface_mod, "primitive_form", lambda e: None)
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    c = from_weierstrass(WeierstrassData(ex.Z, ex.parse("1/z^2"), dom))
    p = immerse(c, res=(513, 513), zeta0=1 + 0j, tol=1e-10)
    uu, vv = np.meshgrid(p.u, p.v, indexing="ij")
    f = cat.catenoid_closed_form().func
    oracle = f(uu[p.valid], vv[p.valid]) - f(1.0, 0.0)
    assert p.valid.sum() > 0.99 * p.valid.size
    assert np.max(np.abs(p.points[p.valid] - oracle)) <= 1e-12


def test_constant_integrand():
    assert abs(integrate_path(ex.const(1), 0, 1 + 1j, 1e-12) - (1 + 1j)) < 1e-12


def test_exponential_antiderivative():
    val = integrate_path(ex.exp(ex.Z), 0, 1, 1e-12)
    assert abs(val - (math.e - 1)) < 1e-12


def test_inverse_square_against_antiderivative_and_trapezoid():
    # antiderivative -1/z gives exactly 1/2 on [1, 2]
    val = integrate_path(ex.parse("1/z^2"), 1, 2, 1e-12)
    assert abs(val - 0.5) < 1e-12
    # brute-force trapezoid oracle, 10^6 steps
    t = np.linspace(1.0, 2.0, 1_000_001)
    oracle = np.trapezoid(1.0 / t ** 2, t)
    assert abs(val - oracle) < 1e-10


def test_additivity_collinear(rng):
    f = ex.parse("exp(z)*z^3-sinh(z)")
    tol = 1e-12
    for _ in range(5):
        z0, z2 = random_complex(rng, 2)
        z1 = 0.5 * (z0 + z2)
        two = (integrate_path(f, z0, z1, tol) + integrate_path(f, z1, z2, tol))
        one = integrate_path(f, z0, z2, tol)
        assert abs(two - one) <= 2 * tol


def test_path_independence_polyline(rng):
    # two different L-shaped routes between the same endpoints agree
    f = ex.parse("(1-z^2)*exp(-z)")
    tol = 1e-12
    for _ in range(5):
        a, b = random_complex(rng, 2)
        corner1 = complex(b.real, a.imag)
        corner2 = complex(a.real, b.imag)
        r1 = integrate_path(f, a, corner1, tol) + integrate_path(f, corner1, b, tol)
        r2 = integrate_path(f, a, corner2, tol) + integrate_path(f, corner2, b, tol)
        assert abs(r1 - r2) <= 4 * tol


def test_batched_segments_match_single(rng):
    f = ex.parse("exp(z)/(z+3)")
    a = random_complex(rng, 16)
    b = random_complex(rng, 16)
    batch = integrate_segments(f, a, b, 1e-12)
    for ai, bi, got in zip(a, b, batch):
        assert abs(integrate_path(f, ai, bi, 1e-12) - got) < 2e-12


def test_puncture_on_segment_rejected():
    dom = DomainSpec(-1, 1, -1, 1, punctures=(0j,))
    with pytest.raises(SingularPath):
        integrate_path(ex.parse("1/z"), -1, 1, 1e-12, domain=dom)


def test_singular_evaluation_detected():
    # integrand blows up mid-segment without a declared puncture
    with pytest.raises((SingularPath, NoConvergence)):
        integrate_path(ex.parse("1/z"), -1 + 1e-13j, 1, 1e-12)


def test_pole_on_a_kronrod_node_is_a_singular_path():
    # 0.5 is the centre node of the first panel of 0 -> 1; no domain is
    # given, so the non-finite value itself must be caught
    with pytest.raises(SingularPath, match="singular on an integration segment"):
        integrate_path(ex.parse("1/(z-0.5)"), 0, 1)


def test_segment_endpoint_shapes_must_match():
    with pytest.raises(ValueError, match="same shape"):
        integrate_segments(ex.Z, [0, 1], [1j, 1 + 1j, 2])


def test_depth_cap_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
    with pytest.raises(NoConvergence, match="within depth 3"):
        integrate_segments(ex.parse("1/z"), [-1 + 1e-8j], [1 + 1e-8j], 1e-14)


@pytest.mark.parametrize("expr, shape", [((ex.Z, ex.Z), (2, 0)), (ex.Z, (0,))])
def test_empty_batch_integrates_to_an_empty_array(expr, shape):
    got = integrate_segments(expr, [], [])
    assert got.shape == shape and got.dtype == np.complex128


def test_tolerance_rejects_nonpositive():
    with pytest.raises(ValueError):
        integrate_path(ex.Z, 0, 1, 0.0)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    # NaN and inf once fell back to the roundoff floor or accepted every
    # panel; an empty batch is checked too
    with pytest.raises(ValueError, match="positive and finite"):
        integrate_path(ex.Z, 0, 1, tol)
    with pytest.raises(ValueError, match="positive and finite"):
        integrate_segments((ex.Z, ex.Z), [], [], tol)


def _batches(monkeypatch):
    """Record the segment count of every panel batch."""
    sizes = []
    panels = quadrature._panels

    def counting(prog, a, b, cut, tol):
        sizes.append(a.size)
        return panels(prog, a, b, cut, tol)

    monkeypatch.setattr(quadrature, "_panels", counting)
    return sizes


def test_each_component_matches_its_scalar_run_bitwise(monkeypatch):
    # exp(z) is accepted at depth 0; the pole near the segments forces
    # the second component several levels deeper
    easy, hard = ex.parse("exp(z)"), ex.parse("1/(z-0.05*i)")
    a = np.array([-1.0, -0.5 + 0.01j, 0.2])
    b = np.array([1.0, 0.7 - 0.01j, 2.0 + 0.1j])
    sizes = _batches(monkeypatch)
    both = integrate_segments((easy, hard), a, b, 1e-12)
    assert both.shape == (2, 3)
    scalar = []
    for k, f in enumerate((easy, hard)):
        sizes.clear()
        got = integrate_segments(f, a, b, 1e-12)
        scalar.append(len(sizes))
        assert np.array_equal(both[k].view(np.float64), got.view(np.float64))
    assert scalar[0] == 1 < scalar[1]


def test_stalled_component_batch_never_exceeds_its_scalar_run(monkeypatch):
    # the pole 1e-6 off the first segment keeps 1/(z - 1e-6 i) pending to
    # the depth cap: its error there is truncation, which the roundoff
    # floor does not cover.  (z + 1e6) - 1e6 is z plus a rounding noise
    # of ulp(1e6), far above its own floor.  It is accepted at depth 0,
    # but its noise lies above the halved tolerances of deeper levels:
    # were it checked again there, it would keep segments pending that
    # the stalled one left.
    stalled, other = ex.parse("1/(z-1e-6*i)"), ex.parse("(z+1e6)-1e6")
    a, b = np.array([-1.0, 0.2]), np.array([1.0, 2.0 + 0.1j])
    sizes = _batches(monkeypatch)
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 8)
    with pytest.raises(NoConvergence):
        integrate_segments(stalled, a, b, 1e-11)
    alone = list(sizes)
    sizes.clear()
    with pytest.raises(NoConvergence):
        integrate_segments((other, stalled), a, b, 1e-11)
    assert len(sizes) == len(alone)
    assert all(v <= s for v, s in zip(sizes, alone))
