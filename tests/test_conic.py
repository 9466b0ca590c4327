"""Plane fitting, conic fitting, classification, eccentricity."""

import math

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import conic
from minsurf.conic import (ParametricSurface, PlanarCurveSample, asymptotes,
                           eccentricity,
                           fit_conic, planar_sample,
                           slice_parameter_line, slice_surface)
from minsurf.errors import (AxisNotMonotone, DegenerateConic, DegenerateInput,
                            IllConditioned, NotHyperbola, NotPlanar)
from minsurf.surface import parametric_immersion
from minsurf.transforms import parabolic_deform


def _circle3(r=1.0, n=100):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.stack([r * np.cos(t), r * np.sin(t), np.zeros(n)], axis=-1)


# ---------------------------------------------------------------------------
# plane fitting
# ---------------------------------------------------------------------------

def test_plane_fit_exact_xy_plane():
    pc = planar_sample(_circle3())
    assert pc.planarity_residual <= 1e-14
    normal = np.cross(pc.basis[0], pc.basis[1])
    assert abs(abs(normal[2]) - 1) <= 1e-12


def test_plane_fit_r4_slice():
    hd = cat.helicoid_deformation(1, 2)
    pc = slice_surface(hd.surface, 3, 0.3, npoints=60, sweep=(-1.2, 1.2))
    assert pc.planarity_residual <= 1e-9


def test_plane_fit_collinear_is_a_line():
    x = np.linspace(0, 1, 30)
    pts = np.stack([x, 2 * x, 3 * x], axis=-1)
    pc = planar_sample(pts)
    assert pc.planarity_residual <= 1e-15
    fit = fit_conic(pc)
    assert fit.classification == "line"
    assert fit.residual <= 1e-15


def test_plane_basis_survives_a_one_ulp_move():
    # an ellipse in R^4 on the level X3 = -0.9 with its major axis along
    # X2, as a corollary-5.3 slice is: moving each coordinate by one ulp
    # flips the sign of an SVD basis row, but not of the sample's basis
    t = np.linspace(0, 2 * np.pi, 100)
    pts = np.stack([-0.21 + 0.42 * np.cos(t), 0.09 + 1.96 * np.cos(t),
                    2.9 * np.sin(t), np.full(t.shape, -0.9)], axis=-1)
    basis = planar_sample(pts).basis
    rng = np.random.default_rng(0)
    for _ in range(20):
        up = rng.random(pts.shape) < 0.5
        moved = np.where(up, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf))
        np.testing.assert_allclose(planar_sample(moved).basis, basis,
                                   rtol=0, atol=1e-12)


def test_helix_is_detected_as_nonplanar():
    s = np.linspace(0, 4 * np.pi, 120)
    helix = np.stack([np.cos(s), np.sin(s), 0.3 * s], axis=-1)
    assert planar_sample(helix).planarity_residual > 0.05
    with pytest.raises(NotPlanar):
        fit_conic(planar_sample(helix))


# ---------------------------------------------------------------------------
# conic fitting
# ---------------------------------------------------------------------------

def test_fit_ellipse():
    t = np.linspace(0, 2 * np.pi, 80, endpoint=False)
    pts = np.stack([2 * np.cos(t), np.sin(t), np.zeros(80)], axis=-1)
    fit = fit_conic(planar_sample(pts))
    assert fit.classification == "ellipse"
    assert abs(fit.eccentricity - math.sqrt(3) / 2) <= 1e-9
    assert fit.residual <= 1e-9
    assert abs(max(fit.semi_axes) - 2) <= 1e-9


def test_fit_parabola():
    x = np.linspace(-2, 2, 80)
    pts = np.stack([x, x ** 2, np.zeros(80)], axis=-1)
    fit = fit_conic(planar_sample(pts))
    assert fit.classification == "parabola"
    assert abs(fit.eccentricity - 1) <= 1e-9
    assert abs(fit.leading_coefficient - 1) <= 1e-9


def test_fit_hyperbola_and_asymptotes():
    u = np.linspace(-1.5, 1.5, 80)
    pts = np.stack([np.cosh(u), np.sinh(u), np.zeros(80)], axis=-1)
    fit = fit_conic(planar_sample(pts))
    assert fit.classification == "hyperbola"
    assert abs(fit.eccentricity - math.sqrt(2)) <= 1e-9
    asy = asymptotes(fit)
    assert abs(asy[0] @ asy[1]) <= 1e-9              # orthogonal pair
    for d in asy:
        assert abs(abs(d[0]) - abs(d[1])) <= 1e-9    # directions (1, +-1)


def test_fit_circle():
    fit = fit_conic(planar_sample(_circle3(1.5)))
    assert fit.classification == "circle"
    assert eccentricity(fit) == 0.0
    assert abs(fit.semi_axes[0] - 1.5) <= 1e-9


def test_fit_line():
    x = np.linspace(-2, 2, 40)
    pts = np.stack([x, 2 * x + 1, np.zeros(40)], axis=-1)
    fit = fit_conic(planar_sample(pts))
    assert fit.classification == "line"
    assert fit.eccentricity == math.inf


_T = np.linspace(-1.2, 1.2, 50)


@pytest.mark.parametrize("kind, x, y", [
    ("hyperbola", 0.7 + np.cosh(_T), 0.3 * np.sinh(_T) - 2.0),
    ("ellipse", 2.0 * np.cos(2 * _T), 1.0 + np.sin(2 * _T)),
    ("parabola", _T, 0.5 * _T ** 2 - _T + 3.0),
    ("line", _T, 1.0 - 2.0 * _T),
])
def test_fit_coefficients_have_one_sign(kind, x, y):
    # unit norm, largest-magnitude entry positive, whatever the order of
    # the points (and so the signs of the singular vectors) is
    fits = []
    for xy in (np.column_stack([x, y]), np.column_stack([x, y])[::-1]):
        pts = np.column_stack([xy, np.zeros(len(xy))])
        pc = PlanarCurveSample(pts, np.zeros(3), np.eye(3)[:2], xy, 0.0)
        fit = fit_conic(pc)
        k = fit.coefficients
        assert fit.classification == kind
        assert abs(np.linalg.norm(k) - 1) <= 1e-15
        assert k[np.argmax(np.abs(k))] > 0
        fits.append(k)
    np.testing.assert_allclose(fits[0], fits[1], rtol=0, atol=1e-9)


def test_eccentricity_rejects_degenerate():
    fit = fit_conic(planar_sample(_circle3()))
    object.__setattr__(fit, "classification", "line-pair")
    with pytest.raises(DegenerateConic):
        eccentricity(fit)


def test_asymptotes_require_hyperbola():
    with pytest.raises(NotHyperbola):
        asymptotes(fit_conic(planar_sample(_circle3())))


def test_fit_needs_enough_points():
    with pytest.raises(ValueError):
        fit_conic(planar_sample(_circle3(n=5)))


@pytest.mark.filterwarnings("error")   # no mean of an empty array
@pytest.mark.parametrize("count", [0, 1, 2])
def test_planar_sample_needs_three_points(count):
    with pytest.raises(DegenerateInput):
        planar_sample(np.ones((count, 4)) * np.arange(count)[:, None])


@pytest.mark.parametrize("pts, why", [
    (np.arange(5.0)[:, None], "2 coordinates"),
    (np.full((10, 3), 0.1), "coincide"),
])
def test_planar_sample_rejects_degenerate_input(pts, why):
    with pytest.raises(DegenerateInput, match=why):
        planar_sample(pts)


def test_line_verdict_takes_one_svd_per_stage(monkeypatch):
    x = np.linspace(0, 1, 30)
    pts = np.stack([x, 2 * x, 3 * x, 1 - x], axis=-1)
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    pc = planar_sample(pts)
    assert len(calls) == 1
    assert fit_conic(pc).classification == "line"
    assert len(calls) == 2


def test_fit_through_four_points_is_ill_conditioned():
    # a pencil of conics passes through the corners of a square
    corners = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], dtype=float)
    pts = np.column_stack([np.tile(corners, (3, 1)), np.zeros(12)])
    with pytest.raises(IllConditioned):
        fit_conic(planar_sample(pts))


def test_imaginary_ellipse_has_no_geometry():
    with pytest.raises(DegenerateConic, match="imaginary"):
        conic._central_geometry(np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0]))


def test_rigid_motion_invariance(rng):
    u = np.linspace(-1.2, 1.2, 70)
    pts = np.stack([1.3 * np.cosh(u), 0.7 * np.sinh(u),
                    np.zeros(70), np.zeros(70)], axis=-1)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    moved = pts @ q.T + rng.standard_normal(4)
    f1 = fit_conic(planar_sample(pts))
    f2 = fit_conic(planar_sample(moved))
    assert f1.classification == f2.classification == "hyperbola"
    assert abs(f1.eccentricity - f2.eccentricity) <= 1e-10


def test_fit_scaled_coordinates_still_classify():
    # e^u-sized coordinates: isotropic normalization keeps the fit sane
    t = np.linspace(0, 2 * np.pi, 90, endpoint=False)
    r1, r2 = 11013.2, 11014.9
    pts = np.stack([r1 * np.cos(t), r2 * np.sin(t), np.zeros(90)], axis=-1)
    fit = fit_conic(planar_sample(pts))
    assert fit.classification == "ellipse"
    assert abs(max(fit.semi_axes) - r2) / r2 <= 1e-9


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

def test_slice_complex_parabola_trivial_level():
    surf = cat.complex_parabola_patch(1.0)
    pc = slice_surface(surf, 0, 0.0, npoints=50, sweep=(-1, 1))
    # substituting u0 = 0, mu = 1: zeta = iv, so the level curve is
    # (0, v, Re(-v^2), Im(-v^2)) = (0, v, -v^2, 0)
    assert np.allclose(pc.points[:, 0], 0, atol=1e-12)
    v = pc.points[:, 1]
    assert np.allclose(pc.points[:, 2], -v ** 2, atol=1e-12)
    assert np.allclose(pc.points[:, 3], 0, atol=1e-12)


CLOSED_FORMS = [cat.helicoid_closed_form(), cat.catenoid_closed_form(),
                cat.catenoid_exp_closed_form(),
                cat.helicoid_deformation(0.7, -0.4).surface,
                cat.catenoid_deformation(0.6), cat.lagrangian_catenoid_patch(),
                cat.complex_parabola_patch(1 - 0.5j)]


@pytest.mark.parametrize("surf", CLOSED_FORMS, ids=lambda s: s.name)
def test_parametric_surface_shapes(surf):
    n = surf(0.5, 0.3).shape[-1]
    assert surf(0.5, 0.3).shape == (n,)
    us = np.linspace(0.4, 0.9, 5)
    vs = np.linspace(-0.6, 0.6, 3)
    assert surf(us, us).shape == (5, n)
    grid = surf(us[:, None], vs[None, :])
    assert grid.shape == (5, 3, n)
    line = surf(0.5, vs)            # (scalar, array) broadcasts
    assert line.shape == (3, n)
    pointwise = np.array([surf(0.5, t) for t in vs])
    assert np.allclose(line, pointwise, rtol=1e-14, atol=1e-14)
    assert np.allclose(grid[:, 1], surf(us, vs[1]), rtol=1e-14, atol=1e-14)


def test_slice_axis_out_of_range():
    hd = cat.helicoid_deformation(1.0, 0.0)
    for axis in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            slice_surface(hd.surface, axis, 0.3, npoints=30)


def test_slice_axis_must_be_parameter():
    surf = cat.lagrangian_catenoid_patch()  # no coordinate is a parameter
    with pytest.raises(AxisNotMonotone):
        slice_surface(surf, 0, 0.2, npoints=30)


def test_slice_axis_must_be_monotone():
    # u^2 depends on u alone but turns back at u = 0
    surf = ParametricSurface(lambda u, v: np.stack([u * u, v, u + v], -1),
                             (-1, 1), (-1, 1))
    with pytest.raises(AxisNotMonotone, match="not monotone"):
        slice_surface(surf, 0, 0.25, npoints=30)


@pytest.mark.parametrize("level, frozen", [(0.25 ** 3, 0.25), (1.0, 1.0),
                                           (-1.0, -1.0)])
def test_slice_level_on_a_sample_returns_its_parameter(level, frozen):
    # u^3 meets these levels exactly at a probe point or a range end
    surf = ParametricSurface(lambda u, v: np.stack([u ** 3, v, u * v], -1),
                             (-1, 1), (-1, 1))
    pc = slice_surface(surf, 0, level, npoints=30)
    assert np.all(pc.points[:, 0] == level)
    assert np.all(pc.points[:, 2] == frozen * pc.points[:, 1])


def test_slice_calls_the_surface_in_few_rounds():
    surf = parametric_immersion(parabolic_deform(cat.helicoid(), 1 + 0.5j))
    calls = 0
    func = surf.func

    def counted(u, v):
        nonlocal calls
        calls += 1
        return func(u, v)

    surf.func = counted
    pc = slice_surface(surf, 3, 0.3, npoints=40, sweep=(-1.2, 1.2))
    assert calls <= 20
    assert np.max(np.abs(pc.points[:, 3] - 0.3)) <= 1e-14
    assert fit_conic(pc).classification == "hyperbola"


def test_slice_needs_enough_points():
    hd = cat.helicoid_deformation(1, 0)
    surf = ParametricSurface(lambda u, v: pytest.fail("surface called"),
                             hd.surface.u_range, hd.surface.v_range)
    for npoints in (5, 6, 11):
        with pytest.raises(ValueError, match="12 points"):
            slice_surface(surf, 3, 0.1, npoints=npoints)
        with pytest.raises(ValueError, match="12 points"):
            slice_parameter_line(surf, "u", 0.1, npoints=npoints)


def test_slice_parameter_must_be_u_or_v():
    surf = cat.lagrangian_catenoid_patch()
    with pytest.raises(ValueError, match="param"):
        slice_parameter_line(surf, "w", 0.5)


def test_slice_level_out_of_range():
    hd = cat.helicoid_deformation(1, 0)
    with pytest.raises(ValueError):
        slice_surface(hd.surface, 3, 9.0, npoints=30)


def test_parameter_line_slices_of_lagrangian_catenoid():
    surf = cat.lagrangian_catenoid_patch()
    hyp = fit_conic(slice_parameter_line(surf, "v", 0.7, npoints=80,
                                         sweep=(-1.2, 1.2)))
    assert hyp.classification == "hyperbola"
    assert abs(hyp.eccentricity - math.sqrt(2)) <= 1e-9
    circ = fit_conic(slice_parameter_line(surf, "u", 0.5, npoints=80))
    assert circ.classification == "circle"
    r2 = math.cosh(0.5) ** 2 + math.sinh(0.5) ** 2
    assert abs(circ.semi_axes[0] ** 2 - r2) <= 1e-9


def test_deformed_helicoid_slice_matches_exact_geometry():
    # numeric slice -> conic fit agrees with the closed-form analysis
    for (a, b, v0) in ((1.0, 0.0, 0.8), (0.0, 1.0, 0.4), (1.0, 2.0, 1.1)):
        hd = cat.helicoid_deformation(a, b)
        geom = hd.slice_geometry(v0)
        fit = fit_conic(slice_surface(hd.surface, 3, v0, npoints=90,
                                      sweep=(-1.4, 1.4)))
        assert fit.classification == "hyperbola" == geom["kind"]
        assert abs(fit.eccentricity - geom["eccentricity"]) <= 1e-8
        assert abs(fit.semi_axes[0] - geom["semi_transverse"]) <= 1e-8
        assert abs(fit.semi_axes[1] - geom["semi_conjugate"]) <= 1e-8
        asy = asymptotes(fit)
        got = abs(asy[0] @ asy[1])
        assert abs(got - abs(geom["cos_asymptote_angle"])) <= 1e-8


def test_deformed_helicoid_line_levels():
    for (a, b) in ((1.0, 0.0), (1.0, 2.0)):
        hd = cat.helicoid_deformation(a, b)
        v0 = math.atan2(-b, a)  # a sin v0 + b cos v0 = 0
        assert hd.slice_geometry(v0)["kind"] == "line"
        fit = fit_conic(slice_surface(hd.surface, 3, v0, npoints=60,
                                      sweep=(-1.2, 1.2)))
        assert fit.classification == "line"


def test_undeformed_helicoid_slices_are_lines():
    surf = cat.helicoid_closed_form()
    fit = fit_conic(slice_surface(surf, 2, 0.5, npoints=40, sweep=(-1.2, 1.2)))
    assert fit.classification == "line"


def test_deformed_helicoid_dichotomy_random_parameters(rng):
    # levels are hyperbolas when a sin v0 + b cos v0 != 0, lines when = 0
    for _ in range(8):
        a, b = rng.uniform(-2, 2, 2)
        if a == 0 and b == 0:
            continue
        hd = cat.helicoid_deformation(a, b)
        v0 = float(rng.uniform(-1.4, 1.4))
        if abs(a * math.sin(v0) + b * math.cos(v0)) < 1e-3:
            continue  # too close to the transition for a stable fit
        fit = fit_conic(slice_surface(hd.surface, 3, v0, npoints=80,
                                      sweep=(-1.3, 1.3)))
        assert fit.classification == "hyperbola"
        v_line = math.atan2(-b, a)
        fit = fit_conic(slice_surface(hd.surface, 3, v_line, npoints=80,
                                      sweep=(-1.3, 1.3)))
        assert fit.classification == "line"
