"""Catalog constructions against their closed forms and constraints."""

import math

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf.errors import InvalidConstant
from minsurf.nullcurve import (from_weierstrass, null_residual,
                               quadratic_form)
from minsurf.surface import immerse

from conftest import random_complex


def test_every_entry_is_null():
    for entry in cat.entries():
        made = entry.construction()
        curve = from_weierstrass(made) if entry.kind == "weierstrass" else made
        rep = null_residual(curve, 100)
        assert rep.is_null, entry.name


def test_every_closed_form_matches_numeric_immersion():
    pairs = [
        (from_weierstrass(cat.helicoid()), cat.helicoid_closed_form(), 0j),
        (from_weierstrass(cat.catenoid_exp()), cat.catenoid_exp_closed_form(), 0j),
        (from_weierstrass(cat.catenoid()), cat.catenoid_closed_form(), 1 + 0j),
        (cat.lagrangian_catenoid(), cat.lagrangian_catenoid_patch(), 0j),
        (cat.complex_parabola(2 - 1j), cat.complex_parabola_patch(2 - 1j), 0j),
    ]
    for curve, closed, z0 in pairs:
        p = immerse(curve, res=(32, 32), zeta0=z0, tol=1e-11)
        ref = np.empty_like(p.points)
        for j, u in enumerate(p.u):
            for k, v in enumerate(p.v):
                ref[j, k] = closed(u, v)
        ref -= closed(z0.real, z0.imag)
        assert np.max(np.abs(p.points - ref)) <= 1e-8, closed.name


def test_helicoid_slices_are_lines():
    from minsurf.conic import fit_conic, slice_surface

    fit = fit_conic(slice_surface(cat.helicoid_closed_form(), 2, 0.4,
                                  npoints=40, sweep=(-1.2, 1.2)))
    assert fit.classification == "line"


# ---------------------------------------------------------------------------
# entire minimal graph
# ---------------------------------------------------------------------------

def test_osserman_graph_nullity_algebraic(rng):
    mu = 0.7 - 0.3j
    c = cat.osserman_graph(mu, F=ex.Z)
    z = random_complex(rng, 50, scale=0.7)
    vals = c(z)
    assert np.max(np.abs(quadratic_form(vals))) <= 1e-13 * \
        np.max(np.sum(np.abs(vals) ** 2, axis=-1))


def test_osserman_graph_first_coordinate_linear():
    c = cat.osserman_graph(1 - 1j)
    p = immerse(c, res=(17, 17), zeta0=0)
    # x0 = Re integral of 1 = u - u0, independent of v
    uu = p.u[:, None] * np.ones((1, 17))
    assert np.allclose(p.points[:, :, 0], uu, atol=1e-10)


def test_osserman_graph_requires_lower_half_mu():
    with pytest.raises(InvalidConstant):
        cat.osserman_graph(1 + 1j)


# ---------------------------------------------------------------------------
# five-component family
# ---------------------------------------------------------------------------

def test_hoffman_osserman_constraint_makes_null(rng):
    for _ in range(5):
        d4, d5, C = random_complex(rng, 3)
        alpha = float(rng.uniform(0.5, 2.0))
        c = cat.hoffman_osserman(d4, d5, C, alpha)
        rep = null_residual(c, 64)
        assert rep.max_abs_residual <= 1e-12 * rep.normalizer


def test_hoffman_osserman_violated_constraint_detected():
    c = cat.hoffman_osserman(1 + 1j, 2, 1, 1)
    # tamper with the first constant
    from minsurf.nullcurve import NullCurve

    bad = NullCurve((ex.add(c.components[0], ex.const(0.5)),) + c.components[1:],
                    c.domain)
    assert not null_residual(bad, 64).is_null


def test_hoffman_osserman_rejects_zero_C():
    with pytest.raises(InvalidConstant):
        cat.hoffman_osserman(1, 0, 0, 1)


def test_normalized_hoffman_osserman_recovers_deformed_catenoid(rng):
    # constants ((c^2-1)/2, i(c^2+1)/2, C=1/2, d4=c, d5=0, alpha=1):
    # reordering components (3, 0, 1, 2) gives the deformed catenoid curve
    from minsurf.transforms import parabolic_deform

    for c in (2 + 0j, 1 - 1j):
        ho = cat.hoffman_osserman(d4=c, d5=0, C=0.5, alpha=1)
        deformed = parabolic_deform(cat.catenoid(), c)
        z = 1.0 + 0.4 * random_complex(rng, 40)
        hv = ho(z)
        dv = deformed(z)
        reordered = np.stack([hv[..., 3], hv[..., 0], hv[..., 1], hv[..., 2]],
                             axis=-1)
        assert np.max(np.abs(hv[..., 4])) == 0
        assert np.max(np.abs(reordered - dv)) <= 1e-12


# ---------------------------------------------------------------------------
# helicoid deformation closed forms
# ---------------------------------------------------------------------------

def test_deformation_at_zero_recovers_helicoid():
    hd = cat.helicoid_deformation(0, 0)
    hel = cat.helicoid_closed_form()
    for u in (-1.0, 0.3):
        for v in (-0.7, 1.2):
            got = hd.components(u, v)
            want = hel(u, v)
            assert np.allclose(got[1:3], want[:2], atol=1e-12)
            assert got[3] == want[2]
            assert got[0] == 0.0


def test_deformation_x3_is_v():
    for (a, b) in ((1, 0), (2, -1), (0.5, 0.5)):
        hd = cat.helicoid_deformation(a, b)
        for v in (-1.0, 0.0, 0.8):
            assert hd.components(0.3, v)[3] == v


def test_adapted_frame_gram_structure():
    # diagonal 1, E0 and E3 orthogonal to everything; the E1.E2 product
    # is -ab/sqrt((a^2+1)(b^2+1)), zero only when a b = 0
    for (a, b) in ((1.0, 0.0), (0.0, 1.0), (1.0, 2.0)):
        fr = cat.helicoid_deformation(a, b).adapted_frame()
        gram = fr @ fr.T
        expected = np.eye(4)
        expected[1, 2] = expected[2, 1] = -a * b / math.sqrt(
            (a * a + 1) * (b * b + 1))
        assert np.max(np.abs(gram - expected)) <= 1e-14


def test_adapted_components_are_projections():
    for (a, b) in ((1.0, 0.0), (0.0, 1.0), (1.0, 2.0)):
        hd = cat.helicoid_deformation(a, b)
        fr = hd.adapted_frame()
        for (u, v) in ((0.2, 0.5), (-0.6, 1.0)):
            x = hd.components(u, v)
            xi = hd.adapted_components(u, v)
            assert np.max(np.abs(fr @ x - xi)) <= 1e-12


def test_adapted_expansion_reconstructs_when_orthonormal():
    # with a b = 0 the frame is orthonormal, so sum Xi_i E_i = X
    for (a, b) in ((1.0, 0.0), (0.0, 1.0)):
        hd = cat.helicoid_deformation(a, b)
        fr = hd.adapted_frame()
        for (u, v) in ((0.4, -0.3), (-0.8, 0.9)):
            x = hd.components(u, v)
            xi = hd.adapted_components(u, v)
            assert np.max(np.abs(xi @ fr - x)) <= 1e-12


# ---------------------------------------------------------------------------
# catenoid deformation (ellipse foliation)
# ---------------------------------------------------------------------------

def test_catenoid_deformation_neck_is_unit_x_ellipse():
    theta = math.pi / 3
    surf = cat.catenoid_deformation(theta)
    r1, r2 = cat.ellipse_semi_axes(theta, 0.0)
    assert abs(r1 - 1.0) <= 1e-15
    assert abs(r2 - 1.0 / math.cos(theta)) <= 1e-15
    pts = np.array([surf(0.0, v) for v in np.linspace(0, 2 * math.pi, 64)])
    radii = np.linalg.norm(pts[:, :3], axis=1)
    assert radii.min() >= 1 - 1e-12
    assert radii.max() <= r2 + 1e-12


def test_catenoid_deformation_matches_pipeline():
    # the rotated parabolic deformation of the exp-chart catenoid equals
    # the closed form after the documented congruence: U = u - ln cos t,
    # flip of components 1 and 2, and an x3 shift
    from minsurf.surface import parametric_immersion
    from minsurf.transforms import parabolic_deform_rotated

    theta = math.pi / 4
    curve = parabolic_deform_rotated(cat.catenoid_exp(), theta)
    f = parametric_immersion(curve, zeta0=0, tol=1e-12)
    surf = cat.catenoid_deformation(theta)
    lc = math.log(math.cos(theta))
    anchor_closed = np.asarray(surf(-lc, 0.0))
    ref = np.asarray(f(0.0, 0.0))
    for (u, v) in ((0.3, 0.5), (-0.4, 1.0), (0.0, -0.8)):
        got = np.asarray(f(u, v)) - ref
        want = np.asarray(surf(u - lc, v)) - anchor_closed
        want[1] *= -1
        want[2] *= -1
        assert np.max(np.abs(got - want)) <= 1e-9


def test_ellipse_axes_round_out_at_infinity():
    theta = math.pi / 4
    for U, tol in ((5.0, 2e-4), (10.0, 1e-8)):
        r1, r2 = cat.ellipse_semi_axes(theta, U)
        assert abs(r2 ** 2 / r1 ** 2 - 1.0) <= tol


def test_catenoid_deformation_theta_range():
    with pytest.raises(InvalidConstant):
        cat.catenoid_deformation(2.0)


# ---------------------------------------------------------------------------
# parabola foliation constants
# ---------------------------------------------------------------------------

def test_parabola_leading_coefficient_values():
    assert cat.parabola_leading_coefficient(1.0, 0.0) == 1.0
    lam = cat.parabola_leading_coefficient(2 - 1j, 0.5)
    assert abs(lam - math.sqrt(5) / 6) <= 1e-15


def test_complex_parabola_rejects_zero():
    with pytest.raises(InvalidConstant):
        cat.complex_parabola(0)


def test_catalog_lookup():
    assert cat.get("helicoid").kind == "weierstrass"
    with pytest.raises(KeyError):
        cat.get("plane")


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_hoffman_osserman_rejects_a_nonpositive_alpha(alpha):
    with pytest.raises(InvalidConstant, match="alpha"):
        cat.hoffman_osserman(1, 0, 1, alpha)


def test_complex_parabola_patch_rejects_zero():
    with pytest.raises(InvalidConstant, match="mu"):
        cat.complex_parabola_patch(0)
