"""Immersion sampling, metrics, Gauss maps, degeneracy, mesh export."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf import engine as engine_mod
from minsurf import surface as surface_mod
from minsurf.domain import DomainSpec
from minsurf.engine import evaluate
from minsurf.errors import SingularPath, ZeroVector
from minsurf.nullcurve import (NullCurve, WeierstrassData, embed_3_to_4,
                               from_weierstrass)
from minsurf.surface import (_triangle_blocks, conformal_factor,
                             degeneracy_rank, export_mesh, gauss_map, immerse,
                             load_obj_vertices, parametric_immersion,
                             real_period, verify_minimal, wirtinger_defect)
from minsurf.transforms import (associate, lawson, parabolic_deform,
                                parabolic_deform_rotated)

from conftest import random_complex


def _quadrature_calls(monkeypatch):
    """Sizes of the integrate_segments calls that surface makes."""
    calls = []
    integrate = surface_mod.integrate_segments

    def counting(expr, a, b, tol, **kw):
        calls.append(np.size(a))
        return integrate(expr, a, b, tol, **kw)

    monkeypatch.setattr(surface_mod, "integrate_segments", counting)
    return calls


def _no_tree(monkeypatch):
    """Make surface's quadrature tree raise; returns the real one."""
    def no_tree(*args):
        raise AssertionError("the exact route ran the quadrature tree")

    tree_integrals = surface_mod._tree_integrals
    monkeypatch.setattr(surface_mod, "_tree_integrals", no_tree)
    return tree_integrals


def _closed_form_grid(surface, patch):
    vals = np.empty_like(patch.points)
    for j, u in enumerate(patch.u):
        for k, v in enumerate(patch.v):
            vals[j, k] = surface(u, v)
    z0 = patch.base_point
    vals -= surface(z0.real, z0.imag)
    return vals


def test_constant_curve_gives_planar_strip():
    dom = DomainSpec(-1, 1, -1, 1)
    c = NullCurve((ex.const(1), ex.const(1j), ex.const(0)), dom)
    p = immerse(c, res=(9, 9), zeta0=0)
    uu = p.u[:, None] * np.ones((1, 9))
    assert np.allclose(p.points[:, :, 0], uu, atol=1e-12)
    # Re(i dz) along the vertical legs contributes -v
    vv = np.ones((9, 1)) * p.v[None, :]
    assert np.allclose(p.points[:, :, 1], -vv, atol=1e-12)
    assert np.allclose(p.points[:, :, 2], 0, atol=1e-12)


def test_helicoid_matches_closed_form():
    c3 = from_weierstrass(cat.helicoid())
    p = immerse(c3, res=(33, 33), zeta0=0, tol=1e-11)
    oracle = _closed_form_grid(cat.helicoid_closed_form(), p)
    assert np.max(np.abs(p.points - oracle)) <= 1e-8


def test_catenoid_exp_matches_closed_form():
    c3 = from_weierstrass(cat.catenoid_exp())
    p = immerse(c3, res=(33, 33), zeta0=0, tol=1e-11)
    oracle = _closed_form_grid(cat.catenoid_exp_closed_form(), p)
    assert np.max(np.abs(p.points - oracle)) <= 1e-8


def test_catenoid_pole_chart_matches_closed_form():
    c3 = from_weierstrass(cat.catenoid())
    p = immerse(c3, res=(33, 33), zeta0=1 + 0j, tol=1e-11)
    oracle = _closed_form_grid(cat.catenoid_closed_form(), p)
    assert np.max(np.abs(p.points - oracle)) <= 1e-8


def test_two_catenoid_charts_congruent():
    # reparametrize z = e^w: the exp-chart patch equals the pole-chart
    # immersion evaluated at e^w, up to translation
    c_exp = from_weierstrass(cat.catenoid_exp())
    f_pole = parametric_immersion(from_weierstrass(cat.catenoid()),
                                  zeta0=1 + 0j, tol=1e-12)
    p = immerse(replace(c_exp, domain=DomainSpec(-0.5, 0.5, -0.5, 0.5)),
                res=(9, 9), zeta0=0, tol=1e-12)
    for j, u in enumerate(p.u):
        for k, v in enumerate(p.v):
            z = np.exp(complex(u, v))
            got = p.points[j, k]
            want = f_pole(z.real, z.imag)  # anchored at e^0 = 1 as well
            assert np.max(np.abs(got - want)) <= 1e-8


def test_base_point_normalization_exact():
    c3 = from_weierstrass(cat.helicoid())
    p = immerse(c3, res=(17, 17))
    j = int(np.argmin(np.abs(p.u - p.base_point.real)))
    k = int(np.argmin(np.abs(p.v - p.base_point.imag)))
    assert np.array_equal(p.points[j, k], np.zeros(3))


def test_deformed_helicoid_matches_printed_components():
    w = cat.helicoid()
    for (a, b) in ((1.0, 0.0), (0.0, 1.0), (1.0, 2.0)):
        c4 = parabolic_deform(w, complex(a, b))
        p = immerse(replace(c4, domain=DomainSpec(-1, 1, -1, 1)),
                    res=(33, 33), zeta0=0, tol=1e-11)
        hd = cat.helicoid_deformation(a, b)
        oracle = _closed_form_grid(hd.surface, p)
        assert np.max(np.abs(p.points - oracle)) <= 1e-8


# ---------------------------------------------------------------------------
# conformal factor
# ---------------------------------------------------------------------------

def test_conformal_factor_constant_curve():
    dom = DomainSpec(-1, 1, -1, 1)
    c = NullCurve((ex.const(1), ex.const(1j), ex.const(0), ex.const(0)), dom)
    assert conformal_factor(c, 0.3 + 0.1j) == pytest.approx(1.0)


def test_conformal_factor_matches_closed_form_metric(rng):
    # deformed-curve metric: |Psi|^2 |1 + c^2 G^2|^2
    #   (1 + |G|^2/|1+icG|^2)(1 + |G|^2/|1-icG|^2) / 4
    w = cat.catenoid()
    for c in (1 + 0j, 1j, 1 + 1j, 2 - 3j):
        curve = parabolic_deform(w, c)
        zs = 1.0 + 0.3 * random_complex(rng, 50)
        for z in zs:
            g = evaluate(w.G, z)
            psi = evaluate(w.Psi, z)
            closed = (abs(psi) ** 2 * abs(1 + c * c * g * g) ** 2
                      * (1 + abs(g) ** 2 / abs(1 + 1j * c * g) ** 2)
                      * (1 + abs(g) ** 2 / abs(1 - 1j * c * g) ** 2)) / 4
            lam = conformal_factor(curve, complex(z))
            assert abs(lam - closed) <= 1e-12 * closed


def test_associate_leaves_conformal_factor(rng):
    c3 = from_weierstrass(cat.helicoid())
    rot = associate(c3, 0.7)
    z = random_complex(rng, 20, scale=0.6)
    a = conformal_factor(c3, z)
    b = conformal_factor(rot, z)
    assert np.max(np.abs(a - b) / a) <= 1e-14


# ---------------------------------------------------------------------------
# Gauss map
# ---------------------------------------------------------------------------

def test_gauss_map_projective_invariance():
    w = cat.helicoid()
    c4 = parabolic_deform(w, 1 + 1j)
    scaled = NullCurve(tuple(ex.mul(ex.const(2.5 - 1j), comp)
                             for comp in c4.components), c4.domain)
    g1 = gauss_map(c4, 0.3 + 0.2j)
    g2 = gauss_map(scaled, 0.3 + 0.2j)
    assert g1.projective_distance(g2) <= 1e-12


def test_gauss_map_lies_on_null_quadric():
    c4 = parabolic_deform(cat.helicoid(), 2 - 1j)
    g = gauss_map(c4, 0.1 - 0.4j)
    assert abs(np.sum(g.vector ** 2)) <= 1e-12


def test_gauss_map_nonconstant_on_helicoid():
    c3 = from_weierstrass(cat.helicoid())
    g1 = gauss_map(c3, 0j)
    g2 = gauss_map(c3, 0.5 + 0.3j)
    assert g1.projective_distance(g2) > 1e-3


def test_gauss_map_zero_vector():
    dom = DomainSpec(-1, 1, -1, 1)
    c = NullCurve((ex.Z, ex.mul(ex.const(1j), ex.Z), ex.const(0)), dom)
    with pytest.raises(ZeroVector):
        gauss_map(c, 0j)


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------

def test_degeneracy_deformed_helicoid_rank3_hyperplane():
    c = 2 - 1j
    d = parabolic_deform(cat.helicoid(), c)
    rep = degeneracy_rank(d, 64)
    assert rep.rank == 3
    expected = np.array([1, c, 1j * c, 0], dtype=complex)
    expected /= np.linalg.norm(expected)
    align = abs(np.vdot(expected, rep.hyperplane))
    assert 1 - align <= 1e-10


def test_degeneracy_embedded_curve_first_axis():
    c4 = embed_3_to_4(from_weierstrass(cat.helicoid()))
    rep = degeneracy_rank(c4, 64)
    assert rep.rank == 3
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1
    assert 1 - abs(np.vdot(e0, rep.hyperplane)) <= 1e-10


def test_degeneracy_lagrangian_catenoid_rank2():
    rep = degeneracy_rank(cat.lagrangian_catenoid(), 64)
    assert rep.rank == 2


def test_degeneracy_osserman_rank3_generic_and_rank2_special():
    assert degeneracy_rank(cat.osserman_graph(1 - 1j), 64).rank == 3
    assert degeneracy_rank(cat.osserman_graph(-1j), 64).rank == 2


def test_degeneracy_osserman_constant_data_rank1():
    # F identically zero with mu = -i collapses the curve to a constant
    assert degeneracy_rank(cat.osserman_graph(-1j, F=ex.const(0)), 64).rank == 1


def test_degeneracy_scalar_invariance():
    d = parabolic_deform(cat.helicoid(), 1 + 2j)
    scaled = NullCurve(tuple(ex.mul(ex.const(0.01j - 3), comp)
                             for comp in d.components), d.domain)
    assert degeneracy_rank(d, 64).rank == degeneracy_rank(scaled, 64).rank


def test_hyperplane_only_when_one_hyperplane_is_missed():
    # rank n - 2: the normal space is a plane, with no one direction
    rep = degeneracy_rank(cat.lagrangian_catenoid(), 64)
    assert rep.rank == 2 and rep.hyperplane is None
    rep = degeneracy_rank(cat.osserman_graph(-1j), 64)
    assert rep.rank == 2 and rep.hyperplane is None
    assert degeneracy_rank(from_weierstrass(cat.helicoid()), 64).hyperplane is None


def test_hyperplane_survives_one_ulp_changes_and_a_phase(rng):
    d = parabolic_deform(cat.helicoid(), 2 - 1j)
    a = d(d.domain.sample_points(64))
    rank, _, hyper = surface_mod._rank_and_hyperplane(a)
    assert rank == 3
    mag = np.abs(hyper)
    lead = hyper[np.argmax(mag > 0.5 * mag.max())]
    assert lead.imag == 0 and lead.real > 0
    changed = [a * np.exp(0.7j), a[::-1]]
    for _ in range(5):
        # each part of each sample moved by one ulp, up or down
        changed.append(np.nextafter(a.real, rng.choice([-np.inf, np.inf], a.shape))
                       + 1j * np.nextafter(a.imag,
                                           rng.choice([-np.inf, np.inf], a.shape)))
    for b in changed:
        assert not np.array_equal(a, b)
        _, _, other = surface_mod._rank_and_hyperplane(b)
        assert np.max(np.abs(other - hyper)) <= 1e-14


def test_degeneracy_sample_floor():
    with pytest.raises(ValueError):
        degeneracy_rank(cat.lagrangian_catenoid(), 4)


# ---------------------------------------------------------------------------
# minimality verification
# ---------------------------------------------------------------------------

def test_flat_strip_defects_vanish():
    dom = DomainSpec(-1, 1, -1, 1)
    c = NullCurve((ex.const(1), ex.const(1j), ex.const(0)), dom)
    rep = verify_minimal(immerse(c, res=(17, 17), zeta0=0))
    assert rep["conformality_defect"] <= 1e-10
    assert rep["harmonicity_defect"] <= 1e-10


def test_helicoid_defects_second_order():
    dom = DomainSpec(-1, 1, -1, 1)
    c3 = from_weierstrass(cat.helicoid())
    r64 = verify_minimal(immerse(replace(c3, domain=dom),
                                 res=(64, 64), zeta0=0))
    r128 = verify_minimal(immerse(replace(c3, domain=dom),
                                  res=(128, 128), zeta0=0))
    # measured constants: the FD conformality error is ~h^2/3 here
    assert r64["conformality_defect"] <= 5e-4
    assert r64["harmonicity_defect"] <= 1e-4
    assert r64["conformality_defect"] / r128["conformality_defect"] >= 3.5
    assert r64["harmonicity_defect"] / r128["harmonicity_defect"] >= 3.5


def test_deformed_catenoid_defects():
    dom = DomainSpec(-0.5, 0.5, -0.5, 0.5)
    c4 = parabolic_deform(cat.catenoid_exp(), 1 + 0j)
    rep = verify_minimal(immerse(replace(c4, domain=dom),
                                 res=(64, 64), zeta0=0))
    assert rep["conformality_defect"] <= 1e-4
    assert rep["harmonicity_defect"] <= 1e-4


def test_wirtinger_consistency():
    # a puncture on the entire helicoid masks cells but leaves phi finite,
    # so a NaN from a masked point would show past the ok mask
    for punctures in [(), (0.3 - 0.2j,)]:
        dom = DomainSpec(-1, 1, -1, 1, punctures=punctures)
        c3 = replace(from_weierstrass(cat.helicoid()), domain=dom)
        p = immerse(c3, res=(64, 64), zeta0=0)
        assert p.valid.all() == (not punctures)
        h = p.spacing()[0]
        assert wirtinger_defect(p, c3) <= 10 * h * h


def test_wirtinger_defect_skips_a_pole_on_a_masked_point():
    # the catenoid's pole 0 is a grid point of the punctured 65 x 65 grid
    c = _punctured_catenoid()
    p = immerse(c, zeta0=1 + 0j, res=(65, 65))
    assert p.u[32] == p.v[32] == 0 and not p.valid[32, 32]
    assert np.isfinite(wirtinger_defect(p, c))


def test_verify_needs_grid():
    c3 = from_weierstrass(cat.helicoid())
    with pytest.raises(ValueError):
        verify_minimal(immerse(c3, res=(3, 3), zeta0=0))


# ---------------------------------------------------------------------------
# punctured domains
# ---------------------------------------------------------------------------

def test_puncture_masks_cells():
    dom = DomainSpec(-1, 1, -1, 1, punctures=(0j,))
    c = NullCurve((ex.parse("1/z^2"), ex.mul(ex.const(1j), ex.parse("1/z^2")),
                   ex.const(0)), dom)
    p = immerse(c, res=(17, 17), zeta0=-1 + 0j)
    assert not p.valid.all()
    assert p.valid.sum() > 150  # most of the grid survives
    assert np.all(np.isfinite(p.points[p.valid]))


def test_punctured_points_are_nan_exactly_off_valid_cells():
    # the full catenoid G = z, Psi = 1/z^2; cells reachable by neither
    # tree from the base point 1 are invalid, not only the masked ones
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    c = from_weierstrass(WeierstrassData(ex.Z, ex.parse("1/z^2"), dom))
    p = immerse(c, res=(33, 33), zeta0=1 + 0j)
    assert np.array_equal(np.isnan(p.points).any(axis=2), ~p.valid)
    assert np.array_equal(np.isnan(p.points).all(axis=2), ~p.valid)
    assert np.sum(~p.valid) > np.sum(dom.puncture_distance(
        p.u[:, None] + 1j * p.v[None, :]) <= 1.25 * np.hypot(*p.spacing()))


def test_no_second_call_for_cells_that_no_tree_reaches(monkeypatch):
    # the puncture cuts every L-path to the cells the first tree misses,
    # so they are invalid and the grid takes one quadrature call;
    # G = exp(z^2) has no primitive
    dom = DomainSpec(-1, 1, -1, 1, punctures=(0.3 - 0.2j,))
    c = from_weierstrass(WeierstrassData(ex.parse("exp(z^2)"), ex.const(1),
                                         dom))
    calls = _quadrature_calls(monkeypatch)
    p = immerse(c, zeta0=-0.5 + 1j, res=(5, 5))
    assert calls == [11]
    assert p.valid.sum() == 11
    assert np.array_equal(np.isnan(p.points).any(axis=2), ~p.valid)
    assert np.all(p.points[1, -1] == 0)    # the base point


def test_unpunctured_grid_is_one_call_of_nu_nv_segments(monkeypatch):
    # the spanning tree: a stem, the nu - 1 edges of the base row and the
    # nv - 1 edges of every column; G = exp(z^2) has no exact primitive
    calls = _quadrature_calls(monkeypatch)
    w = WeierstrassData(ex.parse("exp(z^2)"), ex.const(1),
                        DomainSpec(-0.5, 0.5, -0.5, 0.5))
    c = from_weierstrass(w)
    assert any(ex.antiderivative(nf) is None for nf in c.forms)
    for res, z0 in (((17, 11), None), ((9, 13), 0.31 - 0.42j)):
        calls.clear()
        immerse(c, zeta0=z0, res=res)
        assert calls == [res[0] * res[1]]


def _punctured_catenoid():
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    return from_weierstrass(WeierstrassData(ex.Z, ex.parse("1/z^2"), dom))


def _punctured_with_period():
    """(i/z, 1/z, 0) about a puncture at 0: X0 = -arg z, continued along
    each L-path, has the real period -2 pi."""
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    return NullCurve((ex.parse("i/z"), ex.parse("1/z"), ex.const(0)), dom)


def _punctured_tree_curve():
    """(1, i cosh z^2, sinh z^2), entire and outside the class of exact
    primitives, with the same puncture at 0: it takes the quadrature
    tree."""
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    return NullCurve((ex.const(1), ex.parse("i*cosh(z^2)"),
                      ex.parse("sinh(z^2)")), dom)


def _agrees_with_the_tree(monkeypatch, c, zeta0, res, tol=1e-10):
    """immerse of c with no quadrature call, and with the primitive
    withheld (the tree): valid bitwise equal, points within tol.  Returns
    the exact patch."""
    calls = _quadrature_calls(monkeypatch)
    p = immerse(c, zeta0=zeta0, res=res, tol=tol)
    assert calls == []
    with monkeypatch.context() as m:
        m.setattr(surface_mod, "primitive_form", lambda nf: None)
        tree = immerse(c, zeta0=zeta0, res=res, tol=tol)
    assert calls
    assert np.array_equal(p.valid, tree.valid)
    assert np.max(np.abs(p.points - tree.points)[p.valid]) <= tol
    return p


def _from_origin(x0, x1, y):
    """Distance from 0 to the segment (x0, y) -> (x1, y)."""
    return np.hypot(np.clip(0.0, np.minimum(x0, x1), np.maximum(x0, x1)), y)


def _l_paths(u, v, z0):
    """Grid points more than 1.25 cell diagonals from a puncture at 0, and
    those whose L-path from z0 keeps that far from it: along row k0 then
    up or down column j (the spanning tree's), and along column j0 then
    along row k (the transposed tree's), where (j0, k0) is the grid point
    nearest z0."""
    clearance = 1.25 * np.hypot(u[1] - u[0], v[1] - v[0])
    j0, k0 = np.argmin(np.abs(u - z0.real)), np.argmin(np.abs(v - z0.imag))
    U, V = np.meshgrid(u, v, indexing="ij")
    row_first = ((_from_origin(u[j0], U, v[k0]) > clearance)
                 & (_from_origin(v[k0], V, U) > clearance))
    col_first = ((_from_origin(v[k0], V, u[j0]) > clearance)
                 & (_from_origin(u[j0], U, V) > clearance))
    return np.hypot(U, V) > clearance, row_first, col_first


def _tree_geometry(u, v, z0):
    """Grid points that a spanning tree from z0 reaches (see _l_paths)."""
    clear, row_first, col_first = _l_paths(u, v, z0)
    return clear & (row_first | col_first)


def test_off_grid_base_point_on_the_punctured_catenoid():
    z0 = 0.37 - 0.81j
    p = immerse(_punctured_catenoid(), zeta0=z0, res=(129, 129))
    assert np.array_equal(p.valid, _tree_geometry(p.u, p.v, z0))
    assert not p.valid.all()
    f = cat.catenoid_closed_form().func
    uu, vv = np.meshgrid(p.u, p.v, indexing="ij")
    oracle = f(uu[p.valid], vv[p.valid]) - f(z0.real, z0.imag)
    assert np.max(np.abs(p.points[p.valid] - oracle)) <= 1e-12


def test_transposed_tree_reaches_cells_behind_the_puncture(monkeypatch):
    # from base point 1 the base row v = 0 runs into the puncture, so the
    # cell at (-1, 1) lies beyond a cut edge of the first tree; the
    # transposed tree reaches it along the row v = 1, on the exact route
    # and, with no primitive, by quadrature
    calls = _quadrature_calls(monkeypatch)
    for route in ("exact", "quadrature"):
        if route == "quadrature":
            monkeypatch.setattr(surface_mod, "primitive_form", lambda e: None)
        p = immerse(_punctured_catenoid(), zeta0=1 + 0j, res=(33, 33))
        assert len(calls) == (0 if route == "exact" else 2)
        j, k = np.argmin(np.abs(p.u + 1)), np.argmin(np.abs(p.v - 1))
        assert _from_origin(1.0, p.u[j], 0.0) == 0.0
        assert p.valid[j, k]
        f = cat.catenoid_closed_form().func
        want = np.asarray(f(p.u[j], p.v[k])) - np.asarray(f(1.0, 0.0))
        assert np.max(np.abs(p.points[j, k] - want)) <= 1e-12


def test_transposed_tree_integrates_only_edges_toward_missed_cells(
        monkeypatch):
    # the second call takes the row edges, off the base row, that lie
    # between column j0 and a cell the transposed tree reaches and the
    # first one misses, and that clear the puncture
    calls = _quadrature_calls(monkeypatch)
    for z0, n in ((1 + 0j, 33), (0.37 - 0.81j, 41)):
        calls.clear()
        p = immerse(_punctured_tree_curve(), zeta0=z0, res=(n, n))
        u, v = p.u, p.v
        clearance = 1.25 * np.hypot(*p.spacing())
        j0, k0 = np.argmin(np.abs(u - z0.real)), np.argmin(np.abs(v - z0.imag))
        clear, first, second = _l_paths(u, v, z0)
        missed = clear & second & ~first
        want = 0
        for k in range(n):
            js = np.flatnonzero(missed[:, k])
            if k != k0 and js.size:
                j = np.arange(min(js.min(), j0), max(js.max(), j0))
                want += np.sum(_from_origin(u[j], u[j + 1], v[k]) > clearance)
        assert 0 < want < (n - 1) * (n - 1)
        assert len(calls) == 2 and calls[1] == want
        assert calls[0] == np.sum(clear & first)


def _walk(dom, u, v, z0):
    """The points of the grid u x v that the spanning tree from z0
    reaches, and the valid ones: edge by edge, each edge a -> b tested by
    ``puncture_distance`` against 1.25 cell diagonals, along the stem to
    the nearest grid point g, row k0 and column j, or the stem, column j0
    and row k; a valid point also clears the punctures itself."""
    zz = u[:, None] + 1j * v[None, :]
    clearance = 1.25 * np.hypot(u[1] - u[0], v[1] - v[0])
    j0, k0 = np.argmin(np.abs(u - z0.real)), np.argmin(np.abs(v - z0.imag))

    def ok(a, b):
        return dom.puncture_distance(a, b) > clearance

    def outward(edge_ok, i0):
        # nodes along the last axis whose edges back to node i0 are all ok
        out = np.ones(edge_ok.shape[:-1] + (edge_ok.shape[-1] + 1,), bool)
        out[..., i0 + 1:] = np.logical_and.accumulate(edge_ok[..., i0:], -1)
        out[..., :i0] = np.logical_and.accumulate(
            edge_ok[..., :i0][..., ::-1], -1)[..., ::-1]
        return out

    stem = ok(z0, zz[j0, k0])
    cols = outward(ok(zz[:, :-1], zz[:, 1:]), k0)
    first = stem & outward(ok(zz[:-1, k0], zz[1:, k0]), j0)[:, None] & cols
    second = stem & cols[j0] & outward(ok(zz[:-1].T, zz[1:].T), j0).T
    return first, (dom.puncture_distance(zz) > clearance) & (first | second)


def test_reach_rule_matches_an_edge_by_edge_walk(monkeypatch):
    # random rectangles, 0-3 punctures, 5-80 points a side, base points on
    # and off the grid; the quadrature route (a constant curve with its
    # primitive withheld) takes the stem and one edge into each point the
    # spanning tree reaches other than g, and writes exactly the valid ones
    rng = np.random.default_rng(20261018)
    calls = _quadrature_calls(monkeypatch)
    curve = NullCurve((ex.const(1), ex.const(1j), ex.const(0)), DomainSpec())
    raised = masked = 0
    for trial in range(200):
        lo = rng.uniform(-2, 1, 2)
        hi = lo + rng.uniform(0.2, 3, 2)
        punctures = lo + rng.uniform(-0.1, 1.1, (rng.integers(0, 4), 2)) * (hi - lo)
        dom = DomainSpec(lo[0], hi[0], lo[1], hi[1],
                         punctures=[complex(*p) for p in punctures])
        nu, nv = rng.integers(5, 81, 2)
        u, v = dom.grid(nu, nv)
        if trial % 2:
            z0 = complex(u[rng.integers(nu)], v[rng.integers(nv)])
        else:
            z0 = complex(*(lo + rng.uniform(0, 1, 2) * (hi - lo)))
        first, valid = _walk(dom, u, v, z0)
        c = replace(curve, domain=dom)
        j0, k0 = np.argmin(np.abs(u - z0.real)), np.argmin(np.abs(v - z0.imag))
        if not valid[j0, k0]:
            raised += 1
            with pytest.raises(ValueError, match="masked by a puncture"):
                immerse(c, zeta0=z0, res=(nu, nv))
            continue
        masked += not valid.all()
        assert np.array_equal(immerse(c, zeta0=z0, res=(nu, nv)).valid, valid)
        with monkeypatch.context() as m:
            m.setattr(surface_mod, "primitive_form", lambda e: None)
            calls.clear()
            p = immerse(c, zeta0=z0, res=(nu, nv))
        assert np.array_equal(p.valid, valid)
        assert np.array_equal(np.isnan(p.points).any(axis=2), ~valid)
        assert np.all(np.isfinite(p.points[valid]))
        assert calls[0] == first.sum()
    assert raised >= 10 and masked >= 100


def test_a_stem_past_a_puncture_masks_the_base_point(monkeypatch):
    # g = 0 clears the puncture at 0.15 + 0.1i by more than 1.25 cell
    # diagonals, but the stem from 0.049 + 0.049i to it does not; on both
    # routes the base point is refused rather than every cell masked
    dom = DomainSpec(-1, 1, -1, 1, punctures=(0.15 + 0.1j,))
    calls = _quadrature_calls(monkeypatch)
    for G, Psi in (("exp(z)", "exp(-z)"), ("exp(z^2)", "1")):
        c = from_weierstrass(WeierstrassData(ex.parse(G), ex.parse(Psi), dom))
        with pytest.raises(ValueError, match="masked by a puncture"):
            immerse(c, zeta0=0.049 + 0.049j, res=(21, 21))
    assert calls == []


@pytest.mark.parametrize("res", [257, 513])
def test_punctured_catenoid_takes_the_exact_route(monkeypatch, res):
    # the Laurent primitive (-1/(2z) - z/2, -i/(2z) + iz/2, log z): no
    # quadrature, the valid cells are the tree's reach, bitwise, and the
    # points are within 5e-15 of the closed form
    calls = _quadrature_calls(monkeypatch)
    c = _punctured_catenoid()
    tree_integrals = _no_tree(monkeypatch)
    p = immerse(c, zeta0=1 + 0j, res=(res, res), tol=1e-10)
    assert calls == []
    monkeypatch.setattr(surface_mod, "_tree_integrals", tree_integrals)
    f = cat.catenoid_closed_form().func
    uu, vv = np.meshgrid(p.u, p.v, indexing="ij")
    oracle = f(uu[p.valid], vv[p.valid]) - f(1.0, 0.0)
    assert np.max(np.abs(p.points[p.valid] - oracle)) <= 5e-15
    monkeypatch.setattr(surface_mod, "primitive_form", lambda e: None)
    tree = immerse(c, zeta0=1 + 0j, res=(res, res), tol=1e-10)
    assert len(calls) == 2
    assert np.array_equal(p.valid, tree.valid)
    assert np.array_equal(np.isnan(p.points), np.isnan(tree.points))


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
def test_hoffman_osserman_takes_the_exact_route(monkeypatch, alpha):
    # primitive (d1 z - C/z, d2 z - i C/z, alpha log z, d4 z, d5 z)
    d4, d5, C = 1 + 1j, 2, 0.5 - 0.25j
    c = cat.hoffman_osserman(d4, d5, C, alpha)
    calls = _quadrature_calls(monkeypatch)
    p = immerse(c, res=(65, 65), tol=1e-10)
    assert calls == [] and p.valid.all()
    s = (d4 * d4 + d5 * d5) * C / alpha ** 2
    q = alpha ** 2 / (4 * C)
    d1, d2 = s - q, 1j * (s + q)

    def F(z):
        return np.stack([(d1 * z - C / z).real, (d2 * z - 1j * C / z).real,
                         alpha * np.log(np.abs(z)), (d4 * z).real,
                         (d5 * z).real], axis=-1)

    zz = p.u[:, None] + 1j * p.v[None, :]
    want = F(zz) - F(np.array(p.base_point))
    assert np.max(np.abs(p.points - want)) <= 1e-13


def test_a_real_period_is_continued_along_the_l_paths(monkeypatch):
    # (i/z, 1/z, 0): Re(2 pi i i) = -2 pi, so X0 = -arg z continued along
    # each point's L-path; the exact route counts the path's crossings of
    # the cut and agrees with the tree for every cut and base point.  From
    # 1 no L-path crosses the negative axis; from the others 285 or 300
    # of the 1080 valid points lie off the principal sheet of -arg z
    c = _punctured_with_period()
    assert np.array_equal(real_period(c), [-2 * np.pi, 0.0, 0.0])
    for cut in (np.pi, 0.0, 0.1, -2.0):
        c = replace(c, domain=replace(c.domain, branch_cut=cut))
        for z0, off in ((1 + 0j, 0), (-1 + 0.5j, 285), (-0.17 + 0.36j, 285),
                        (-1.5 - 1.5j, 300)):
            p = _agrees_with_the_tree(monkeypatch, c, z0, (33, 33))
            zz = p.u[:, None] + 1j * p.v[None, :]
            principal = np.angle(z0) - np.angle(zz)
            sheets = (p.points[..., 0] - principal)[p.valid] / (2 * np.pi)
            assert np.max(np.abs(sheets - np.rint(sheets))) <= 1e-12
            assert np.count_nonzero(np.rint(sheets)) == off
    # a second puncture, off the pole, and a base point off the grid
    c = replace(c, domain=replace(c.domain, punctures=(0j, 0.6 + 0.4j)))
    p = _agrees_with_the_tree(monkeypatch, c, 0.23 - 0.71j, (41, 37))
    assert not p.valid.all()


@pytest.mark.parametrize("im, exact", [(1e-16, True), (1e-13, False)])
def test_a_residue_is_real_to_primitive_ulps_of_its_size(monkeypatch, im,
                                                        exact):
    # the catenoid with r/z as its third component: the period -2 pi Im r
    # of X2 is added where the L-path from 0.5 + 0.5i crosses the cut.
    # With Im r = 1e-16 (under 4 eps |r|) X2 moves by less than the
    # route's roundoff from the real residue's; with 1e-13 by more, and
    # the tree, to 1e-13, tells a missing period of 6e-13
    cat3 = _punctured_catenoid()
    p = {}
    for r in (1, 1 + 1j * im):
        c = replace(cat3, components=cat3.components[:2] + (ex.div(r, ex.Z),))
        p[r] = _agrees_with_the_tree(monkeypatch, c, 0.5 + 0.5j, (17, 17),
                                     tol=1e-13)
    shift = np.abs(p[1].points - p[1 + 1j * im].points)[p[1].valid]
    assert (shift.max() <= 4 * np.finfo(float).eps * 2 * np.pi) == exact


def _associated_catenoid(**domain):
    """The catenoid (z, 1/z^2) turned by e^{-0.7i}: its third component
    e^{-0.7i}/z has a non-real z^{-1} coefficient, so X2 has the real
    period 2 pi sin 0.7 about 0."""
    c = associate(from_weierstrass(cat.catenoid()), 0.7)
    return replace(c, domain=replace(c.domain, **domain))


@pytest.mark.parametrize("domain", [
    {}, {"u_min": -2.0, "u_max": -0.2, "branch_cut": 0.0}])
def test_a_non_real_residue_is_exact_where_the_cut_misses(monkeypatch,
                                                          domain):
    # the catalog rectangle [0.2, 2] x [-1, 1] with the cut along the
    # negative axis, and its mirror with the cut along the positive one
    c = _associated_catenoid(**domain)
    assert real_period(c)[2] != 0
    calls = _quadrature_calls(monkeypatch)
    p = immerse(c, res=(65, 65), tol=1e-10)
    assert calls == []
    monkeypatch.setattr(surface_mod, "primitive_form", lambda e: None)
    tree = immerse(c, res=(65, 65), tol=1e-10)
    assert calls
    assert np.array_equal(p.valid, tree.valid) and p.valid.all()
    assert np.max(np.abs(p.points - tree.points)) <= 1e-10


@pytest.mark.parametrize("rect, cut", [
    ((-2, -0.2, -1, 1), np.pi),        # the cut crosses the rectangle
    ((-2, -0.2, -1, 0), np.pi),        # the cut runs along its edge
    ((-1, 1, -1, 1), np.pi),           # the rectangle holds 0
    ((0.2, 2, -1, 1), 0.0),            # a rotated cut crosses it
    ((0.2, 2, -1, 1), 0.1),
])
def test_a_non_real_residue_keeps_the_tree_where_the_cut_meets(monkeypatch,
                                                               rect, cut):
    # the exact route keeps the tree's values: X2 continued across the cut
    u_min, u_max, v_min, v_max = rect
    c = _associated_catenoid(u_min=u_min, u_max=u_max, v_min=v_min,
                             v_max=v_max, branch_cut=cut)
    p = _agrees_with_the_tree(monkeypatch, c, complex(u_min, v_max), (17, 17))
    assert np.all(np.isfinite(p.points[p.valid]))


@pytest.mark.parametrize("v_range, punctures, misses", [
    ((0.5, 1.5), (), True),            # the cut along the u axis misses it
    ((-0.5, 0.5), (0j,), False),       # the cut runs through the rectangle
])
def test_a_cut_parallel_to_an_axis_is_tested_on_that_axis(
        monkeypatch, v_range, punctures, misses):
    # (i/z, 1/z, 0) with the cut along the positive u axis: the ray's v is
    # 0 throughout, and the grid row v = 0 lies on it, where the engine's
    # arg z is 0, its limit from below.  The L-paths from (-1, 0.5) reach
    # that row from above, where arg z tends to -2 pi, so each point of it
    # right of the puncture lies off the engine's sheet; where the cut
    # misses the rectangle, none does
    c = replace(_punctured_with_period(), domain=DomainSpec(
        -1, 1, *v_range, punctures=punctures, branch_cut=0.0))
    z0 = complex(-1, v_range[1])
    p = _agrees_with_the_tree(monkeypatch, c, z0, (17, 17))
    zz = p.u[:, None] + 1j * p.v[None, :]
    arg = engine_mod.eval_program(engine_mod.compile_expr(ex.log(ex.Z)),
                                  np.append(z0, zz), cut=0.0).imag
    engine_x0 = arg[0] - arg[1:].reshape(zz.shape)
    off = p.valid & (np.abs(p.points[..., 0] - engine_x0) > np.pi)
    assert (off.sum() == 0) == misses
    if not misses:
        on_cut = p.valid & (zz.real > 0) & (zz.imag == 0)
        assert on_cut.any() and off[on_cut].all()


def test_parametric_immersion_takes_the_transposed_l_path_past_a_puncture():
    # from 1, the first L-path to 0.7i runs along v = 0 through the
    # puncture at 0; the transposed one, up u = 1 and along v = 0.7, is
    # the path immerse takes.  No L-path to -1 keeps off the puncture.
    c, tol = _punctured_with_period(), 1e-10
    p = immerse(c, zeta0=1 + 0j, res=(31, 31), tol=tol)
    j, k = 15, 22
    assert p.u[j] == 0 and abs(p.v[k] - 0.7) < 1e-15 and p.valid[j, k]
    surf = parametric_immersion(c, zeta0=1 + 0j, tol=tol)
    assert np.max(np.abs(surf(p.u[j], p.v[k]) - p.points[j, k])) <= tol
    with pytest.raises(SingularPath, match=r"to \(-1\+0j\)"):
        surf(np.array([0.5, -1.0]), np.array([0.5, 0.0]))


def test_parametric_immersion_leaves_the_rectangle_to_the_l_paths(
        monkeypatch):
    # -1 - 0.5i lies off [0.2, 2] x [-1, 1], and the L-path to it from
    # 1.1 + 0.5i crosses the cut: X2 is Re(e^{-0.7i} log z) with arg z
    # continued across it, not Re F on the principal branch, with no
    # quadrature
    calls = _quadrature_calls(monkeypatch)
    c = _associated_catenoid()
    z0, z = 1.1 + 0.5j, -1 - 0.5j
    surf = parametric_immersion(c, zeta0=z0, tol=1e-11)
    log_z = np.log(abs(z)) + 1j * (np.angle(z) + 2 * np.pi)
    want = (np.exp(-0.7j) * (log_z - np.log(z0))).real
    assert abs(surf(z.real, z.imag)[2] - want) <= 1e-9
    inside = surf(1.5, -0.5)[2]
    assert abs(inside - (np.exp(-0.7j) * np.log((1.5 - 0.5j) / z0)).real
               ) <= 1e-12
    assert calls == []


def _distinct_nodes(exprs):
    """The number of distinct nodes (by identity) under ``exprs``."""
    seen, todo = set(), list(exprs)
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen.add(id(e))
            todo += [getattr(e, f) for f in ("a", "b") if hasattr(e, f)]
    return len(seen)


def test_a_curve_is_read_into_normal_forms_once(monkeypatch):
    # two immersions, the real period and a parametric immersion read each
    # distinct node of the components once, a subtree they share (Psi,
    # G^2) too: 25 reads, not one walk per component per reader
    c = parabolic_deform(cat.helicoid(), 1 + 2j)
    reads, read = [], ex._read_normal_form

    def counting_read(e, memo):
        reads.append(e)
        return read(e, memo)

    monkeypatch.setattr(ex, "_read_normal_form", counting_read)
    immerse(c, res=(9, 9))
    immerse(c, res=(17, 17))
    assert real_period(c) is not None
    parametric_immersion(c)(0.1, 0.2)
    assert len(reads) == _distinct_nodes(c.components) == 25


def test_real_period_of_the_catalog():
    # every catalog curve is in the class, with real residues
    for entry in cat.entries():
        curve = entry.construction()
        if isinstance(curve, WeierstrassData):
            curve = from_weierstrass(curve)
        assert np.array_equal(real_period(curve), np.zeros(curve.n)), entry.name
    log = NullCurve((ex.log(ex.Z), ex.mul(1j, ex.log(ex.Z)), ex.const(0)),
                    DomainSpec(0.5, 1, 0.5, 1))
    assert real_period(log) is None


def test_base_point_must_lie_in_the_domain_clear_of_punctures():
    with pytest.raises(ValueError, match="outside the domain"):
        immerse(_punctured_catenoid(), zeta0=2 + 0j, res=(9, 9))
    with pytest.raises(ValueError, match="masked by a puncture"):
        immerse(_punctured_catenoid(), zeta0=0.1 + 0j, res=(9, 9))


def test_immerse_uses_the_curves_branch_cut():
    # (log z, i log z, 0) with the cut along the positive real axis, where
    # arg z lies in (-2 pi, 0]: log z = Log z - 2 pi i on the second quadrant
    dom = DomainSpec(-1, -0.1, 0.1, 1, branch_cut=0.0)
    log = ex.log(ex.Z)
    c = NullCurve((log, ex.mul(ex.const(1j), log), ex.const(0)), dom)
    p = immerse(c, res=(9, 9), tol=1e-12)
    zz = p.u[:, None] + 1j * p.v[None, :]
    assert p.valid.all()
    np.testing.assert_allclose(conformal_factor(c, zz),
                               np.abs(np.log(zz) - 2j * np.pi) ** 2, rtol=1e-13)

    def antiderivative(z):   # of log z on this branch
        return z * (np.log(z) - 2j * np.pi) - z

    F = antiderivative(zz) - antiderivative(p.base_point)
    want = np.stack([F.real, (1j * F).real, np.zeros(F.shape)], axis=-1)
    assert np.max(np.abs(p.points - want)) <= 1e-10


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

def test_export_2x2_counts(tmp_path):
    dom = DomainSpec(0, 1, 0, 1)
    c = NullCurve((ex.const(1), ex.const(1j), ex.const(0)), dom)
    p = immerse(c, res=(2, 2), zeta0=0)
    path = tmp_path / "m.obj"
    export_mesh(p, path, fmt="obj")
    text = path.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 4
    assert sum(1 for l in text if l.startswith("f ")) == 2


def test_export_obj_round_trip(tmp_path):
    c3 = from_weierstrass(cat.helicoid())
    p = immerse(c3, res=(9, 9), zeta0=0)
    path = tmp_path / "h.obj"
    export_mesh(p, path, fmt="obj")
    verts = load_obj_vertices(path)
    flat = p.points.reshape(-1, 3)
    # 9 significant digits survive the text round trip
    assert np.max(np.abs(verts - flat) / np.maximum(1e-9, np.abs(flat))) <= 1e-8


def test_export_ply_four_properties(tmp_path):
    c4 = parabolic_deform(cat.helicoid(), 1 + 1j)
    p = immerse(replace(c4, domain=DomainSpec(-1, 1, -1, 1)),
                res=(5, 5), zeta0=0)
    path = tmp_path / "d.ply"
    export_mesh(p, path, fmt="ply")
    header = path.read_bytes().split(b"end_header")[0].decode()
    for prop in ("property double x", "property double y",
                 "property double z", "property double w"):
        assert prop in header
    assert "element vertex 25" in header


def test_export_obj_projection(tmp_path):
    c4 = parabolic_deform(cat.helicoid(), 1 + 1j)
    p = immerse(replace(c4, domain=DomainSpec(-1, 1, -1, 1)),
                res=(5, 5), zeta0=0)
    path = tmp_path / "p.obj"
    export_mesh(p, path, fmt="obj", projection=(0, 2, 3))
    verts = load_obj_vertices(path)
    flat = p.points.reshape(-1, 4)[:, [0, 2, 3]]
    assert np.max(np.abs(verts - flat)) <= 1e-7 * np.max(1 + np.abs(flat))


@pytest.mark.parametrize("fmt, projection, why", [
    ("obj", (0, 1), "projection"),
    ("obj", (0, 1, 4), "projection"),
    ("obj", (0, -1, 2), "projection"),
    ("stl", None, "unknown mesh format"),
])
def test_export_rejects_a_bad_projection_or_format(tmp_path, fmt, projection,
                                                   why):
    c4 = parabolic_deform(cat.helicoid(), 1 + 1j)
    p = immerse(replace(c4, domain=DomainSpec(-1, 1, -1, 1)),
                res=(3, 3), zeta0=0)
    path = tmp_path / "bad.mesh"
    with pytest.raises(ValueError, match=why):
        export_mesh(p, path, fmt=fmt, projection=projection)
    assert not path.exists()


def test_verify_needs_an_interior_point():
    # a 5x5 grid about a central puncture masks all nine interior points
    p = immerse(_punctured_catenoid(), zeta0=1.5 + 1.5j, res=(5, 5))
    assert not p.valid[1:-1, 1:-1].any()
    with pytest.raises(ValueError, match="no interior points"):
        verify_minimal(p)


def _punctured_patch():
    dom = DomainSpec(-1, 1, -1, 1, punctures=(0j,))
    c = NullCurve((ex.parse("1/z^2"), ex.mul(ex.const(1j), ex.parse("1/z^2")),
                   ex.const(0)), dom)
    return immerse(c, res=(9, 9), zeta0=-1 + 0j)


def _loop_triangles(p):
    """Two triangles per cell with four valid corners, by a double loop."""
    nu, nv = p.resolution
    vid = np.arange(nu * nv).reshape(nu, nv)
    tris = []
    for j in range(nu - 1):
        for k in range(nv - 1):
            if p.valid[j:j + 2, k:k + 2].all():
                a, b = vid[j, k], vid[j + 1, k]
                c, d = vid[j + 1, k + 1], vid[j, k + 1]
                tris += [(a, b, c), (a, c, d)]
    return tris


def test_triangles_match_double_loop():
    p = _punctured_patch()
    assert not p.valid.all()
    ok = p.valid
    cells = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    tris = np.concatenate(list(_triangle_blocks(cells)))
    assert tris.shape == (len(_loop_triangles(p)), 3)
    assert tris.tolist() == [list(t) for t in _loop_triangles(p)]


def test_ply_face_block_decodes_to_triangles(tmp_path):
    p = _punctured_patch()
    path = tmp_path / "m.ply"
    export_mesh(p, path, fmt="ply")
    body = path.read_bytes().split(b"end_header\n", 1)[1]
    faces = body[p.points.size * 8:]
    decoded = [tuple(rec) for rec in struct.iter_unpack("<B3i", faces)]
    assert decoded == [(3, *t) for t in _loop_triangles(p)]


def test_obj_text_matches_row_formatting(tmp_path, monkeypatch):
    p = _punctured_patch()
    verts = np.where(np.isfinite(p.points), p.points, 0.0).reshape(-1, 3)
    want = "".join(f"v {x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in verts)
    want += "".join(f"f {a + 1} {b + 1} {c + 1}\n"
                    for a, b, c in _loop_triangles(p))
    path = tmp_path / "m.obj"
    export_mesh(p, path, fmt="obj")
    assert path.read_text() == want
    # rows split across several blocks give the same text
    monkeypatch.setattr(surface_mod, "BLOCK_POINTS", 7)
    export_mesh(p, path, fmt="obj")
    assert path.read_text() == want


def test_parametric_immersion_array_matches_pointwise():
    surf = parametric_immersion(parabolic_deform(cat.helicoid(), 1 + 1j),
                                zeta0=0)
    u = np.array([[-0.5, 0.0, 0.7], [1.1, -1.2, 0.3]])
    v = np.array([0.2, -0.9, 0.0])
    got = surf(u, v)
    assert got.shape == (2, 3, 4) and got.flags.c_contiguous
    want = np.array([[surf(a, b) for a, b in zip(row, v)] for row in u])
    assert np.array_equal(got, want)


def test_parametric_immersion_without_a_primitive(monkeypatch):
    # (1, i cosh(z^2), sinh(z^2)) has no exact primitive: the L-paths of
    # a call's points are one quadrature call; an array call is its
    # points' calls bitwise, and agrees with the tree within tol
    dom = DomainSpec(-0.5, 0.5, -0.5, 0.5)
    c = NullCurve((ex.const(1), ex.parse("i*cosh(z^2)"),
                   ex.parse("sinh(z^2)")), dom)
    assert ex.antiderivative(c.forms[1]) is None
    z0, tol = 0.1 - 0.2j, 1e-11
    tree = immerse(c, zeta0=z0, res=(9, 7), tol=tol)
    surf = parametric_immersion(c, zeta0=z0, tol=tol)
    calls = _quadrature_calls(monkeypatch)
    uu, vv = np.meshgrid(tree.u, tree.v, indexing="ij")
    got = surf(uu, vv)
    assert calls == [2 * uu.size]
    want = np.array([[surf(a, b) for b in tree.v] for a in tree.u])
    assert np.array_equal(got, want)
    assert np.max(np.abs(got - tree.points)) <= tol
    assert np.max(np.abs(got[..., 0] - (uu - z0.real))) <= tol


def test_lawson_lift_conformal_factor_preserved(rng):
    c3 = from_weierstrass(cat.helicoid())
    c6 = lawson(c3, 0.5, 0.8)
    z = random_complex(rng, 30, scale=0.7)
    a = conformal_factor(c3, z)
    b = conformal_factor(c6, z)
    assert np.max(np.abs(a - b) / a) <= 1e-12


def _corollary53_closed_form(theta, patch):
    """The corollary-5.3 catenoid through the congruence U = u - ln cos t
    with components 1 and 2 flipped, anchored at the patch's base point."""
    surf = cat.catenoid_deformation(theta)
    lc = np.log(np.cos(theta))
    uu, vv = np.meshgrid(patch.u, patch.v, indexing="ij")
    z0 = patch.base_point
    want = surf(uu - lc, vv) - surf(z0.real - lc, z0.imag)
    return want * np.array([1.0, -1.0, -1.0, 1.0])


@pytest.mark.parametrize("kind, param, res", [
    ("theorem51", 1.7 * np.exp(2.1j), 129), ("theorem51", 0.3 - 0.2j, 257),
    ("corollary53", 0.2, 129), ("corollary53", 0.7, 257),
    ("corollary53", 1.3, 257), ("corollary53", 1.3, 513),
])
def test_entire_curves_take_the_exact_route(monkeypatch, kind, param, res):
    calls = _quadrature_calls(monkeypatch)
    _no_tree(monkeypatch)
    if kind == "theorem51":
        curve = parabolic_deform(cat.helicoid(), param)
    else:
        curve = parabolic_deform_rotated(cat.catenoid_exp(), param)
    p = immerse(curve, res=(res, res), tol=1e-10)
    assert calls == []
    if kind == "theorem51":
        hd = cat.helicoid_deformation(param.real, param.imag)
        uu, vv = np.meshgrid(p.u, p.v, indexing="ij")
        want = hd.components(uu, vv) - hd.components(0.0, 0.0)
    else:
        want = _corollary53_closed_form(param, p)
    assert p.valid.all()
    assert np.max(np.abs(p.points - want)) <= 1e-12


def test_exact_and_quadrature_routes_agree_on_a_punctured_domain(monkeypatch):
    # entire data with a declared puncture: the same cells are masked on
    # both routes, and the points agree within tol
    w = cat.catenoid_exp()
    dom = replace(w.domain, punctures=(0.3 + 0.2j,))
    curve = from_weierstrass(WeierstrassData(w.G, w.Psi, dom))
    tol = 1e-10
    calls = _quadrature_calls(monkeypatch)
    tree_integrals = _no_tree(monkeypatch)
    exact = immerse(curve, zeta0=-1 + 0.5j, res=(65, 65), tol=tol)
    assert calls == [] and not exact.valid.all()
    monkeypatch.setattr(surface_mod, "_tree_integrals", tree_integrals)
    monkeypatch.setattr(surface_mod, "primitive_form", lambda e: None)
    quad = immerse(curve, zeta0=-1 + 0.5j, res=(65, 65), tol=tol)
    assert len(calls) == 2
    assert np.array_equal(exact.valid, quad.valid)
    assert np.array_equal(np.isnan(exact.points), np.isnan(quad.points))
    v = exact.valid
    assert np.max(np.abs(exact.points[v] - quad.points[v])) <= tol


def test_primitive_above_its_roundoff_budget_falls_back(monkeypatch):
    # exp(k z) with k = eps/4 has the primitive exp(k z)/k of size 1.8e16,
    # whose difference rounds away every digit; quadrature takes the call
    k = 5.551115123125783e-17
    e = ex.parse(f"exp({k!r}*z)")
    c = NullCurve((e, ex.mul(ex.const(1j), e), ex.const(0)), DomainSpec())
    assert ex.antiderivative(c.forms[0]) is not None
    calls = _quadrature_calls(monkeypatch)
    tol = 1e-12
    p = immerse(c, zeta0=0.3 - 0.2j, res=(9, 7), tol=tol)
    assert calls == [9 * 7]
    zz = p.u[:, None] + 1j * p.v[None, :]
    z0 = p.base_point
    F = (zz - z0) + 0.5 * k * (zz * zz - z0 * z0)
    want = np.stack([F.real, (1j * F).real, np.zeros(F.shape)], axis=-1)
    assert np.max(np.abs(p.points - want)) <= tol


def test_exact_route_evaluates_the_exponentials_on_the_axes(monkeypatch):
    # one compile, of the distinct e^{kz} of the primitive's B = 3 basis
    # functions e^{-z}, e^z and z, run at the nu rows, the nv columns and
    # the base point's two factors e^{ku0} and e^{ikv0}: not at each point
    # and term.  X vanishes exactly at the base point
    w = cat.catenoid_exp()
    dom = replace(w.domain, punctures=(0.3 + 0.2j,))
    curve = parabolic_deform_rotated(WeierstrassData(w.G, w.Psi, dom), 0.7)
    compiles, points = [], []
    compile_expr, eval_program = engine_mod.compile_expr, engine_mod.eval_program

    def counting_compile(e):
        compiles.append(e)
        return compile_expr(e)

    def counting_eval(prog, z, **kw):
        points.append(np.size(z))
        return eval_program(prog, z, **kw)

    monkeypatch.setattr(engine_mod, "compile_expr", counting_compile)
    monkeypatch.setattr(engine_mod, "eval_program", counting_eval)
    calls = _quadrature_calls(monkeypatch)
    nu, nv = 65, 33
    p = immerse(curve, res=(nu, nv), tol=1e-10)
    assert calls == [] and not p.valid.all()
    assert len(compiles) == 1 and sum(points) == nu + nv + 2
    monkeypatch.undo()
    basis = {key for nf in curve.forms for key in ex.primitive_form(nf)[0]}
    assert basis == {(0, 1), (0, -1), (1, 0)}
    compiled, = compiles
    assert sorted(map(ex.to_source, compiled)) == ["exp(-1*z)", "exp(1*z)"]
    zz = p.u[:, None] + 1j * p.v[None, :]
    at = zz == p.base_point
    assert at.sum() == 1 and np.all(p.points[at] == 0)


def _complex_rate():
    """(e^{kz}, i e^{kz}, 0) with the complex rate k = 0.3 + 0.7i: each
    e^{kz} is the product e^{ku} e^{ikv} of two complex factors, which
    rounds otherwise than exp(kz)."""
    e = ex.parse("exp((0.3+0.7i)*z)")
    return NullCurve((e, ex.mul(ex.const(1j), e), ex.const(0)),
                     DomainSpec(-1, 1, -1, 1))


def test_a_complex_rate_agrees_with_the_tree(monkeypatch):
    c = _complex_rate()
    k = 0.3 + 0.7j
    tol = 1e-10
    p = _agrees_with_the_tree(monkeypatch, c, 0.3 - 0.2j, (33, 29), tol=tol)
    zz = p.u[:, None] + 1j * p.v[None, :]
    F = (np.exp(k * zz) - np.exp(k * (0.3 - 0.2j))) / k
    want = np.stack([F.real, (1j * F).real, np.zeros(F.shape)], axis=-1)
    assert p.valid.all() and np.max(np.abs(p.points - want)) <= tol


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("curve", [_punctured_catenoid, _punctured_with_period])
def test_a_grid_point_on_the_pole_keeps_the_exact_route(monkeypatch, curve):
    # whole rows are evaluated, the pole z = 0 among them: its values are
    # inf or NaN, and neither read nor warned about
    c = curve()
    _no_tree(monkeypatch)
    calls = _quadrature_calls(monkeypatch)
    p = immerse(c, zeta0=1 + 0j, res=(33, 33))
    assert p.u[16] == 0 and p.v[16] == 0 and not p.valid[16, 16]
    assert calls == [] and np.all(np.isfinite(p.points[p.valid]))
    assert np.all(np.isnan(p.points[~p.valid]))


def test_zero_curve_immerses_to_zeros(monkeypatch):
    # the primitive has no terms at all
    calls = _quadrature_calls(monkeypatch)
    p = immerse(NullCurve((ex.const(0),) * 3, DomainSpec()), res=(9, 9))
    assert calls == [] and p.valid.all() and np.all(p.points == 0)


def test_parametric_surface_compiles_once(monkeypatch):
    compiles = []
    compile_expr = engine_mod.compile_expr

    def counting(e):
        compiles.append(e)
        return compile_expr(e)

    curve = parabolic_deform(cat.helicoid(), 1 + 1j)
    monkeypatch.setattr(engine_mod, "compile_expr", counting)
    calls = _quadrature_calls(monkeypatch)
    surf = parametric_immersion(curve)
    for u, v in ((0.3, -0.2), (np.linspace(-1, 1, 9), 0.4), (1.1, 0.9)):
        surf(u, v)
    assert len(compiles) == 1 and calls == []


def test_parametric_legs_take_the_exact_route(monkeypatch):
    calls = _quadrature_calls(monkeypatch)
    c = parabolic_deform(cat.helicoid(), 0.8 + 0.4j)
    f = parametric_immersion(c, zeta0=0.1 - 0.2j)
    u = np.linspace(-1.4, 1.4, 7)[:, None]
    v = np.linspace(-1.3, 1.2, 5)[None, :]
    hd = cat.helicoid_deformation(0.8, 0.4)
    want = hd.components(u, v) - hd.components(0.1, -0.2)
    assert np.max(np.abs(f(u, v) - want)) <= 1e-11
    assert calls == []


def test_running_sums_of_primitive_differences_stay_within_roundings():
    # edges that are differences of a primitive along a 513-point grid
    # line, as accurate as edges get; blocked sums keep each node within
    # about an ulp of the exact sum of its edges, where a plain cumulative
    # sum drifts by 8
    import math
    t = np.linspace(-1.5, 1.5, 1025)
    worst = 0.0
    for v in (-1.3, -0.4, 0.2, 0.9, 1.5):
        z = t + 1j * v
        edges = np.diff(6.98j * np.exp(z) - 0.48 * np.exp(-z))
        got = surface_mod._running_sums(np.stack([edges, edges]), 512)
        for k in range(0, 1025, 8):
            part = edges[512:k] if k > 512 else -edges[k:512]
            want = complex(math.fsum(part.real), math.fsum(part.imag))
            assert got[0, k] == got[1, k]
            ulp = np.spacing(abs(want) + 1e-300)
            worst = max(worst, abs(got[0, k] - want) / ulp)
    assert worst <= 3


def test_running_sums_carry_nan_beyond_a_nan_edge():
    edges = np.arange(1.0, 41.0).reshape(2, 20) + 0j
    edges[1, 13] = edges[1, 3] = np.nan
    got = surface_mod._running_sums(edges, 8)
    want = np.concatenate([[0], np.cumsum(edges[0])])
    np.testing.assert_array_equal(got[0], want - want[8])
    assert np.isnan(got[1, 14:]).all() and np.isnan(got[1, :4]).all()
    assert np.isfinite(got[1, 4:14]).all() and got[1, 8] == 0


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
@pytest.mark.parametrize("curve", [from_weierstrass(cat.helicoid()),
                                   _punctured_with_period()],
                         ids=["exact", "quadrature"])
def test_immersions_need_a_positive_finite_tol(monkeypatch, curve, tol):
    # refused before either route compiles anything
    def no_compile(e):
        raise AssertionError("compiled before tol was checked")

    monkeypatch.setattr(engine_mod, "compile_expr", no_compile)
    monkeypatch.setattr(surface_mod, "primitive_form", no_compile)
    with pytest.raises(ValueError, match="positive and finite"):
        immerse(curve, zeta0=1 + 0j, res=(9, 9), tol=tol)
    with pytest.raises(ValueError, match="positive and finite"):
        parametric_immersion(curve, zeta0=1 + 0j, tol=tol)


@pytest.mark.filterwarnings("error")
def test_verify_leaves_out_points_of_zero_metric():
    # X = Re(z^2/2, i z^2/2, 0) has a branch point at the grid's centre,
    # where both central differences vanish exactly
    c = NullCurve((ex.Z, ex.mul(1j, ex.Z), ex.const(0)),
                  DomainSpec(-1, 1, -1, 1))
    rep = verify_minimal(immerse(c, res=(9, 9)))
    assert rep["interior_points"] == 7 * 7 - 1
    assert rep["conformality_defect"] <= 1e-12
    assert rep["harmonicity_defect"] <= 1e-12
    zero = NullCurve((ex.const(0),) * 3, DomainSpec(-1, 1, -1, 1))
    with pytest.raises(ValueError, match="no interior points"):
        verify_minimal(immerse(zero, res=(9, 9)))


# ---------------------------------------------------------------------------
# blocks of BLOCK_POINTS: outputs do not depend on the block size
# ---------------------------------------------------------------------------

def _bits(p):
    return p.points.tobytes(), p.valid.tobytes()


def _blocked(monkeypatch, run, sizes=(1, 7)):
    """run() at the default BLOCK_POINTS, then at each of ``sizes``."""
    want = run()
    got = []
    for size in sizes:
        monkeypatch.setattr(surface_mod, "BLOCK_POINTS", size)
        got.append(run())
    monkeypatch.undo()
    return want, got


@pytest.mark.parametrize("curve, route", [
    (_punctured_catenoid, "exact"), (_punctured_with_period, "exact"),
    (_punctured_tree_curve, "quadrature")])
def test_punctured_immerse_and_verify_do_not_depend_on_the_block(
        monkeypatch, curve, route):
    c = curve()
    assert (surface_mod._primitive_sampler(c, 1 + 0j, 1e-10) is None) == (
        route == "quadrature")

    def run():
        p = immerse(c, zeta0=1 + 0j, res=(41, 33))
        return p, verify_minimal(p)

    (want, rep), got = _blocked(monkeypatch, run)
    # the mask has holes in the middle rows, across many blocks of 1 or 7
    assert not want.valid[20].all() and want.valid[20].any()
    for p, r in got:
        assert _bits(p) == _bits(want)
        assert repr(r) == repr(rep)


def test_non_square_immerse_and_verify_do_not_depend_on_the_block(monkeypatch):
    c = parabolic_deform_rotated(cat.catenoid_exp(), 0.5)

    def run():
        p = immerse(c, res=(257, 129))
        return p, verify_minimal(p)

    (want, rep), got = _blocked(monkeypatch, run)
    assert want.resolution == (257, 129) and want.valid.all()
    for p, r in got:
        assert _bits(p) == _bits(want)
        assert repr(r) == repr(rep)


def test_many_terms_sum_alike_in_a_block_of_one_point(monkeypatch):
    # nine terms z^(k+1)/(k+1) per component: numpy sums a single column of
    # eight or more pairwise, so a one-point block must not sum that way
    poly = ex.parse("+".join(f"{k + 1}.5*z^{k}" for k in range(9)))
    c = NullCurve((poly, ex.mul(ex.const(1j), poly), ex.const(0)),
                  DomainSpec(-1, 1, -1, 1))
    assert len(ex.antiderivative(c.forms[0])) == 9

    def run():
        return immerse(c, zeta0=0.3 - 0.1j, res=(9, 7))

    want, got = _blocked(monkeypatch, run)
    for p in got:
        assert _bits(p) == _bits(want)
    surf = parametric_immersion(c, zeta0=0.3 - 0.1j)
    uu, vv = np.meshgrid(want.u, want.v, indexing="ij")
    one = np.array([[surf(a, b) for b in want.v] for a in want.u])
    assert one.tobytes() == surf(uu, vv).tobytes() == want.points.tobytes()


def test_a_complex_rate_does_not_depend_on_the_block_or_the_caller(
        monkeypatch):
    c = _complex_rate()

    def run():
        return immerse(c, res=(17, 13))

    want, got = _blocked(monkeypatch, run)
    for p in got:
        assert _bits(p) == _bits(want)
    zz = want.u[:, None] + 1j * want.v[None, :]
    assert np.all(want.points[zz == want.base_point] == 0)
    surf = parametric_immersion(c, zeta0=want.base_point)
    uu, vv = np.meshgrid(want.u, want.v, indexing="ij")
    one = np.array([[surf(a, b) for b in want.v] for a in want.u])
    assert one.tobytes() == surf(uu, vv).tobytes() == want.points.tobytes()


def test_roundoff_over_tol_in_a_late_block_takes_the_tree(monkeypatch):
    # (cosh z, i sinh z, i) on [0, 13] x [-1, 1]: the primitive's terms
    # e^{+-z}/2 reach 2.2e5, and 4 eps of them exceeds tol = 1e-10 only
    # for u > 12.3, in the last rows of the grid
    c = NullCurve((ex.parse("cosh(z)"), ex.parse("i*sinh(z)"),
                   ex.const(1j)), DomainSpec(0, 13, -1, 1))
    res, z0 = (41, 9), 6.5 + 0j
    monkeypatch.setattr(surface_mod, "BLOCK_POINTS", 2 * 9)   # two rows
    exact = immerse(c, zeta0=z0, res=res, tol=1e-6)   # within budget
    calls = []
    eval_program = engine_mod.eval_program

    def counting(prog, z, **kw):
        calls.append(np.size(z))
        return eval_program(prog, z, **kw)

    monkeypatch.setattr(engine_mod, "eval_program", counting)
    got = immerse(c, zeta0=z0, res=res, tol=1e-10)
    # the base point's two factors, the 9 columns, then the rows of blocks
    # of two, up to the first failing one and short of the last, of one row
    assert calls[:2] == [2, 9] and set(calls[2:]) == {2} and len(calls) > 15
    monkeypatch.setattr(surface_mod, "primitive_form", lambda e: None)
    tree = immerse(c, zeta0=z0, res=res, tol=1e-10)
    assert _bits(got) == _bits(tree)
    # and the exact route's rows would show, had any been left
    assert exact.points[:30].tobytes() != tree.points[:30].tobytes()


def _overflowing():
    return NullCurve((ex.const(-1), ex.const(1e-300), ex.const(1e200)),
                     DomainSpec(0, 3, 0, 3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("res", [(9, 9), (200, 150)])
def test_verify_keeps_a_nan_defect(res):
    # E and G overflow to inf, so |E - G| / (E + G) is NaN; at 200 x 150
    # the grid takes several blocks
    rep = verify_minimal(immerse(_overflowing(), res=res))
    assert np.isnan(rep["conformality_defect"])
    assert rep["interior_points"] == (res[0] - 2) * (res[1] - 2)


@pytest.mark.filterwarnings("error")
def test_verify_keeps_a_nan_from_a_middle_block(monkeypatch):
    # a NaN sample in one middle row, with finite blocks before and after
    p = immerse(parabolic_deform(cat.helicoid(), 1 + 2j), res=(65, 33))
    points = p.points.copy()
    points[40, 10, 1] = np.nan
    p = replace(p, points=points)
    monkeypatch.setattr(surface_mod, "BLOCK_POINTS", 3 * 33)
    rep = verify_minimal(p)
    assert np.isnan(rep["conformality_defect"])
    assert np.isnan(rep["harmonicity_defect"])


def _verify_minimal_row_major(p):
    """verify_minimal with the stencil on (rows, nv, n) blocks and numpy's
    sums and maxima over the last axis, as it was before it went
    component-major: the reference that the new one matches bitwise."""
    nu, nv = p.resolution
    hu, hv = p.spacing()
    rows = max(1, surface_mod.BLOCK_POINTS // nv)
    conf, harm, count = -np.inf, -np.inf, 0
    for lo in range(1, nu - 1, rows):
        X, valid = (a[lo - 1:lo + rows + 1] for a in (p.points, p.valid))
        xu = (X[2:, 1:-1] - X[:-2, 1:-1]) / (2 * hu)
        xv = (X[1:-1, 2:] - X[1:-1, :-2]) / (2 * hv)
        ok = (valid[1:-1, 1:-1] & valid[:-2, 1:-1] & valid[2:, 1:-1]
              & valid[1:-1, :-2] & valid[1:-1, 2:])
        E = np.sum(xu * xu, axis=2)
        G = np.sum(xv * xv, axis=2)
        F = np.sum(xu * xv, axis=2)
        scale = E + G
        ok &= scale != 0
        count += int(np.sum(ok))
        lap = ((X[2:, 1:-1] - 2 * X[1:-1, 1:-1] + X[:-2, 1:-1]) / hu ** 2
               + (X[1:-1, 2:] - 2 * X[1:-1, 1:-1] + X[1:-1, :-2]) / hv ** 2)
        conf = np.max(np.maximum(np.abs(E - G), 2 * np.abs(F))[ok]
                      / scale[ok], initial=conf)
        harm = np.max(np.max(np.abs(lap), axis=2)[ok] / (0.5 * scale[ok]),
                      initial=harm)
    return {"conformality_defect": float(conf),
            "harmonicity_defect": float(harm), "interior_points": count}


@pytest.mark.filterwarnings("error")    # of the new stencil: none
@pytest.mark.parametrize("res", [(5, 5), (9, 200), (200, 150)])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_component_major_stencil_matches_the_row_major_one(monkeypatch, n,
                                                           res):
    # random samples with a random mask, a zero metric at the centre (its
    # four neighbours alike), and then a point of 1e200 whose squares
    # overflow: the defects, NaN included, are bitwise the reference's
    rng = np.random.default_rng([n, *res])
    nu, nv = res
    j, k = nu // 2, nv // 2
    valid = rng.random(res) > 0.05
    valid[j - 1:j + 2, k - 1:k + 2] = valid[-3:, :3] = True
    points = np.where(valid[..., None], rng.standard_normal(res + (n,)),
                      np.nan)
    points[[j - 1, j + 1, j, j], [k, k, k - 1, k + 1]] = points[j, k]
    overflowing = points.copy()
    overflowing[-2, 1] = 1e200
    for X in (points, overflowing):
        p = surface_mod.SurfacePatch(np.linspace(0, 1, nu),
                                     np.linspace(-1, 2, nv), X, valid, 0j)
        for size in (surface_mod.BLOCK_POINTS, 1, 7):
            monkeypatch.setattr(surface_mod, "BLOCK_POINTS", size)
            with np.errstate(all="ignore"):
                want = _verify_minimal_row_major(p)
            got = verify_minimal(p)
            assert want["interior_points"] > 0
            assert repr(got) == repr(want), size
        assert np.isnan(got["conformality_defect"]) == (X is overflowing)
