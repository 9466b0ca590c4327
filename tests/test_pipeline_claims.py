"""The paper's foliation claims on the immersion that minsurf computes.

Acceptance criteria 5-8 check the claims on the catalog's closed forms.
Each test here is a twin of one of them: the curve comes from the library
call that ``cli._DEFORMS`` names for its kind (or is the catalog curve),
``parametric_immersion`` integrates it from base point 0 on a stated
domain, and the slices are fitted and compared with the criterion's own
oracle, at the criterion's tolerance.
"""

import math
from dataclasses import replace

import pytest

from minsurf import catalog as cat
from minsurf.conic import (asymptotes, fit_conic, slice_parameter_line,
                           slice_surface)
from minsurf.domain import DomainSpec
from minsurf.surface import parametric_immersion
from minsurf.transforms import parabolic_deform, parabolic_deform_rotated


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 1.0), (1.0, 2.0)])
def test_theorem51_slices_are_the_closed_forms_hyperbolas(a, b):
    # criterion 5: X4 = v, so the level X4 = v0 is the line v = v0
    c = replace(parabolic_deform(cat.helicoid(), complex(a, b)),
                domain=DomainSpec(-1.5, 1.5, -0.5, 2.5))
    surf = parametric_immersion(c, 0j, tol=1e-10)
    hd = cat.helicoid_deformation(a, b)
    for v0 in (0.4, 1.1):
        geom = hd.slice_geometry(v0)
        fit = fit_conic(slice_surface(surf, 3, v0, npoints=90,
                                      sweep=(-1.4, 1.4)))
        asy = asymptotes(fit)
        assert fit.classification == "hyperbola" == geom["kind"]
        assert abs(abs(float(asy[0] @ asy[1]))
                   - abs(geom["cos_asymptote_angle"])) <= 1e-8
        assert abs(fit.semi_axes[0] - geom["semi_transverse"]) <= 1e-8
        assert abs(fit.semi_axes[1] - geom["semi_conjugate"]) <= 1e-8


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_corollary53_leaves_are_the_closed_forms_ellipses(theta):
    # criterion 6: corollary 5.3 of catenoid-exp, (e^z, e^-z), is the
    # closed form's surface reparametrized by z -> z + log cos theta, so
    # its leaf X4 = U + log cos theta is the closed form's leaf X4 = U
    c = replace(parabolic_deform_rotated(cat.catenoid_exp(), theta),
                domain=DomainSpec(-11, 11, -3, 3))
    surf = parametric_immersion(c, 0j, tol=1e-10)
    shift = math.log(math.cos(theta))
    for U in (0.0, 0.5, 5.0, 10.0):
        fit = fit_conic(slice_surface(surf, 3, U + shift, npoints=120))
        r1, r2 = cat.ellipse_semi_axes(theta, U)
        big, small = fit.semi_axes
        assert fit.classification == "ellipse"
        assert abs(big - r2) / r2 <= 1e-8 and abs(small - r1) / r1 <= 1e-8
        ratio = (big / small) ** 2
        assert abs(ratio - (r2 / r1) ** 2) <= 1e-10
        # the axis ratio tends to 1 at the criterion's rates
        assert abs(ratio - 1) <= {5.0: 2e-4, 10.0: 1e-8}.get(U, math.inf)
        if U == 0:      # the neck: semi-axes (1 / cos theta, 1)
            assert abs(big - 1 / math.cos(theta)) <= 1e-8
            assert abs(small - 1) <= 1e-8
            assert abs(fit.eccentricity - math.sin(theta)) <= 1e-8


def test_lagrangian_catenoid_slices_are_hyperbolas_and_circles():
    # criterion 7, from the catalog curve on its domain [-1.2, 1.2]^2; the
    # exact route reads no path, so it samples the level v = 2 beyond it
    surf = parametric_immersion(cat.lagrangian_catenoid(), 0j, tol=1e-10)
    for v0 in (0.0, 0.7, 2.0):
        fit = fit_conic(slice_parameter_line(surf, "v", v0, npoints=90,
                                             sweep=(-1.2, 1.2)))
        assert fit.classification == "hyperbola"
        assert abs(fit.eccentricity - math.sqrt(2)) <= 1e-9
        assert abs(fit.semi_axes[0] - 1) <= 1e-9
        assert abs(fit.semi_axes[1] - 1) <= 1e-9
    for u0 in (0.0, 0.5, 1.0):
        fit = fit_conic(slice_parameter_line(surf, "u", u0, npoints=90))
        assert fit.classification == "circle"
        assert abs(fit.semi_axes[0] ** 2
                   - (math.cosh(u0) ** 2 + math.sinh(u0) ** 2)) <= 1e-9


@pytest.mark.parametrize("mu", [1 + 0j, 2 - 1j, -3j])
def test_complex_parabola_slices_have_the_closed_forms_coefficient(mu):
    # criterion 8, on the catalog curve's own domain [-2, 2]^2
    surf = parametric_immersion(cat.complex_parabola(mu), 0j, tol=1e-10)
    for u0 in (0.0, 0.5, 1.0):
        fit = fit_conic(slice_parameter_line(surf, "u", u0, npoints=100,
                                             sweep=(-2, 2)))
        assert fit.classification == "parabola"
        assert abs(fit.eccentricity - 1.0) <= 1e-6
        assert abs(fit.leading_coefficient
                   - cat.parabola_leading_coefficient(mu, u0)) <= 1e-9
