"""Immersion sampling, metrics, degeneracy, mesh export."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf import engine as engine_mod
from minsurf import surface as surface_mod
from minsurf.domain import DomainSpec
from minsurf.engine import evaluate
from minsurf.errors import SingularPath
from minsurf.nullcurve import (NullCurve, WeierstrassData, embed_3_to_4,
                               from_weierstrass)
from minsurf.surface import (_triangle_blocks, conformal_factor,
                             degeneracy_rank, export_mesh, immerse,
                             parametric_immersion, real_period, verify_minimal)
from minsurf.transforms import (associate, lawson, parabolic_deform,
                                parabolic_deform_rotated)

from conftest import load_obj_vertices, random_complex


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


def test_degeneracy_rank_memory_does_not_grow_with_the_square_of_samples():
    # the SVD builds no samples x samples matrix of left singular vectors,
    # which alone would take 64 MB at 2000 samples
    d = parabolic_deform(cat.helicoid(), 1 + 2j)
    degeneracy_rank(d, 2000)
    tracemalloc.start()
    try:
        degeneracy_rank(d, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


def test_helicoid_matches_closed_form_at_the_valid_points():
    # a puncture on the entire helicoid masks cells but leaves phi finite;
    # the valid points keep the closed form
    for punctures in [(), (0.3 - 0.2j,)]:
        dom = DomainSpec(-1, 1, -1, 1, punctures=punctures)
        c3 = replace(from_weierstrass(cat.helicoid()), domain=dom)
        p = immerse(c3, res=(64, 64), zeta0=0)
        assert p.valid.all() == (not punctures)
        oracle = _closed_form_grid(cat.helicoid_closed_form(), p)
        assert np.max(np.abs(p.points - oracle)[p.valid]) <= 1e-10


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
    assert any(ex.primitive_form(nf) is None for nf in c.forms)
    for res, z0 in (((17, 11), None), ((9, 13), 0.31 - 0.42j)):
        calls.clear()
        immerse(c, zeta0=z0, res=res)
        assert calls == [res[0] * res[1]]


def _punctured_catenoid():
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    return from_weierstrass(WeierstrassData(ex.Z, ex.parse("1/z^2"), dom))


def _punctured_with_period():
    """(i/z, 1/z, 0) about a puncture at 0: X0 = -arg z, on the domain's
    cut, has the real period -2 pi."""
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    return NullCurve((ex.parse("i/z"), ex.parse("1/z"), ex.const(0)), dom)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 16: next to a puncture's mask the stencil's relative "
    "error is about (h/r)^2, and r shrinks with h"))
def test_punctured_conformality_defect_falls_with_the_grid():
    c = _punctured_catenoid()
    coarse, fine = (verify_minimal(immerse(c, zeta0=1, res=(n, n)))
                    ["conformality_defect"] for n in (129, 257))
    assert fine <= coarse / 3


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
    along row k (a missed cell's leg), where (j0, k0) is the grid point
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
    # cell at (-1, 1) lies beyond a cut edge of the first tree; column
    # j0 and the row v = 1 reach it, on the exact route and, with no
    # primitive, by quadrature (one leg along the row)
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


def test_each_missed_cell_takes_one_leg_along_its_row(monkeypatch):
    # the second call takes one leg per valid cell that the first L-path
    # misses, from column j0 along the cell's row to the cell
    legs = []
    integrate = surface_mod.integrate_segments

    def spy(expr, a, b, tol, **kw):
        legs.append((a, b))
        return integrate(expr, a, b, tol, **kw)

    monkeypatch.setattr(surface_mod, "integrate_segments", spy)
    for z0, n in ((1 + 0j, 33), (0.37 - 0.81j, 41)):
        legs.clear()
        p = immerse(_punctured_tree_curve(), zeta0=z0, res=(n, n))
        u, v = p.u, p.v
        j0 = np.argmin(np.abs(u - z0.real))
        clear, first, second = _l_paths(u, v, z0)
        missed = clear & second & ~first
        assert 0 < missed.sum() < n * n
        assert len(legs) == 2 and legs[1][0].size == missed.sum()
        assert legs[0][0].size == np.sum(clear & first)
        a, b = legs[1]
        j, k = np.nonzero(missed)
        assert np.array_equal(b, u[j] + 1j * v[k])
        assert np.array_equal(a, u[j0] + 1j * v[k])


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


def _engine_x0(z0, zz, cut):
    """arg z0 - arg zz, each arg the engine's on the cut: X0 of
    (i/z, 1/z, 0) from z0."""
    arg = engine_mod.eval_program(engine_mod.compile_expr(ex.log(ex.Z)),
                                  np.append(z0, zz), cut=cut).imag
    return arg[0] - arg[1:].reshape(np.shape(zz))


def test_a_real_period_takes_the_engines_arg_on_each_cut(monkeypatch):
    # (i/z, 1/z, 0): Re(2 pi i i) = -2 pi, and X0 is arg zeta0 - arg z,
    # each arg the engine's on the domain's cut, for every cut and base
    # point: the exact route reads no path.  The tree integrates the
    # curve less its z^{-1} terms, here 0, and adds Re r (log z - log z0)
    # on the cut, and agrees
    c = _punctured_with_period()
    assert np.array_equal(real_period(c), [-2 * np.pi, 0.0, 0.0])
    for cut in (np.pi, 0.0, 0.1, -2.0):
        c = replace(c, domain=replace(c.domain, branch_cut=cut))
        for z0 in (1 + 0j, -1 + 0.5j, -0.17 + 0.36j, -1.5 - 1.5j):
            p = _agrees_with_the_tree(monkeypatch, c, z0, (33, 33))
            zz = p.u[:, None] + 1j * p.v[None, :]
            want = _engine_x0(z0, zz, cut)
            assert np.max(np.abs(p.points[..., 0] - want)[p.valid]) <= 1e-12
    # a second puncture, off the pole, and a base point off the grid
    c = replace(c, domain=replace(c.domain, punctures=(0j, 0.6 + 0.4j)))
    p = _agrees_with_the_tree(monkeypatch, c, 0.23 - 0.71j, (41, 37))
    assert not p.valid.all()


@pytest.mark.parametrize("im, exact", [(1e-16, True), (1e-13, False)])
def test_a_residue_is_real_to_primitive_ulps_of_its_size(monkeypatch, im,
                                                        exact):
    # the catenoid with r/z as its third component: the tree integrates
    # it less r/z and adds Re r (log z - log z0) on the cut, from 0.5 + 0.5i.
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
    # the tree integrates the curve less its z^{-1} terms and adds their
    # logs on the cut, and so gives the exact route's values
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
    # arg z is 0, its limit from below.  X0 is the engine's arg z0 - arg z
    # at every valid point, so the row on the cut right of the puncture
    # joins the row below it and jumps by the period from the row above;
    # where the cut misses the rectangle, X0 jumps nowhere.  The tree,
    # which takes the engine's log at each point as the exact route does,
    # agrees
    c = replace(_punctured_with_period(), domain=DomainSpec(
        -1, 1, *v_range, punctures=punctures, branch_cut=0.0))
    z0 = complex(-1, v_range[1])
    p = _agrees_with_the_tree(monkeypatch, c, z0, (17, 17))
    zz = p.u[:, None] + 1j * p.v[None, :]
    x0 = p.points[..., 0]
    assert np.max(np.abs(x0 - _engine_x0(z0, zz, 0.0))[p.valid]) <= 1e-12
    # between rows k and k + 1
    jump = p.valid[:, 1:] & p.valid[:, :-1] & (np.abs(np.diff(x0)) > np.pi)
    assert jump.any() != misses
    below = zz[:, :-1]
    assert np.array_equal(jump, jump & (below.imag == 0) & (below.real > 0))


def _cells_meeting_the_ray(u, v, cut):
    """Whether each grid cell [u_j, u_j+1] x [v_k, v_k+1], grown by 1e-12,
    meets the closed ray {t e^{i cut} : t >= 0}: the ray's t inside the
    cell's u slab and inside its v slab overlap at some t >= 0 (for a cut
    on no axis, so that neither of e^{i cut}'s parts is 0)."""
    d = np.exp(1j * cut)
    t0, t1 = 0.0, np.inf
    for lo, hi, step in ((u[:-1, None], u[1:, None], d.real),
                         (v[None, :-1], v[None, 1:], d.imag)):
        a, b = (lo - 1e-12) / step, (hi + 1e-12) / step
        t0 = np.maximum(t0, np.minimum(a, b))
        t1 = np.minimum(t1, np.maximum(a, b))
    return t0 <= t1


@pytest.mark.parametrize("n", [13, 33])
def test_the_surface_tears_only_where_the_cut_crosses_a_cell(n):
    # (i/z, 1/z, 0) and the associate catenoid theta = 0.6, punctured at 0
    # on [-1.5, 1.5]^2, from the default anchor and two others: a valid
    # cell whose corners span more than half a nonzero period is torn, and
    # every torn cell meets the cut's ray, whatever the anchor; at the
    # valid points parametric_immersion from the same anchor gives the
    # patch's bits
    sq = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    curves = (_punctured_with_period(), associate(from_weierstrass(
        WeierstrassData(ex.Z, ex.parse("1/z^2"), sq)), 0.6))
    for curve in curves:
        period = real_period(curve)
        jumps = period != 0
        for cut in (np.pi, 0.1, -2.0):
            c = replace(curve, domain=replace(sq, branch_cut=cut))
            for z0 in (None, -1 + 0.5j, 0.23 - 0.71j):
                p = immerse(c, zeta0=z0, res=(n, n))
                x, ok = p.points[..., jumps], p.valid
                corners = np.stack([x[:-1, :-1], x[1:, :-1], x[1:, 1:],
                                    x[:-1, 1:]])
                span = corners.max(axis=0) - corners.min(axis=0)
                torn = (ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
                        & np.any(span > np.abs(period[jumps]) / 2, axis=-1))
                assert torn.any()
                assert _cells_meeting_the_ray(p.u, p.v, cut)[torn].all()
                zz = (p.u[:, None] + 1j * p.v[None, :])[ok]
                got = parametric_immersion(c, zeta0=z0)(zz.real, zz.imag)
                assert got.tobytes() == p.points[ok].tobytes()


def test_parametric_immersion_takes_the_transposed_l_path_past_a_puncture(
        monkeypatch):
    # from 1, the first L-path to 0.7i runs along v = 0 through the
    # puncture at 0; the transposed one, up u = 1 and along v = 0.7, is
    # the path the quadrature route takes, as immerse's tree does.  No
    # L-path to -1 keeps off the puncture: the quadrature route raises
    # there, and the exact route, which reads no path, gives X0 = arg 1 -
    # arg(-1) = -pi on the cut pi
    c, tol = _punctured_with_period(), 1e-10
    p = immerse(c, zeta0=1 + 0j, res=(31, 31), tol=tol)
    j, k = 15, 22
    assert p.u[j] == 0 and abs(p.v[k] - 0.7) < 1e-15 and p.valid[j, k]
    surf = parametric_immersion(c, zeta0=1 + 0j, tol=tol)
    assert surf(p.u[j], p.v[k]).tobytes() == p.points[j, k].tobytes()
    got = surf(np.array([0.5, -1.0]), np.array([0.5, 0.0]))
    assert got[1].tolist() == pytest.approx([-np.pi, 0.0, 0.0], abs=1e-15)
    monkeypatch.setattr(surface_mod, "primitive_form", lambda nf: None)
    tree = parametric_immersion(c, zeta0=1 + 0j, tol=tol)
    assert np.max(np.abs(tree(p.u[j], p.v[k]) - p.points[j, k])) <= tol
    with pytest.raises(SingularPath, match=r"to \(-1\+0j\)"):
        tree(np.array([0.5, -1.0]), np.array([0.5, 0.0]))


def test_the_exact_route_gives_a_value_where_no_l_path_clears(monkeypatch):
    # from 1 + 1e-10i both L-paths to (-1, 1e-10) pass within
    # hits_puncture's 1e-9 (1 + |b - a|) of the puncture 0, but not
    # through it: the exact route gives a value wherever F is finite, here
    # arg z0 - arg z, and the quadrature route raises SingularPath where
    # no L-path clears
    c, z0, z = _punctured_with_period(), 1 + 1e-10j, -1 + 1e-10j
    x0 = parametric_immersion(c, zeta0=z0)(z.real, z.imag)[0]
    assert x0 == -3.141592653389793
    assert x0 == pytest.approx(np.angle(z0) - np.angle(z), abs=1e-15)
    monkeypatch.setattr(surface_mod, "primitive_form", lambda nf: None)
    with pytest.raises(SingularPath, match="no L-path"):
        parametric_immersion(c, zeta0=z0)(z.real, z.imag)


@pytest.mark.parametrize("rect, zeta0", [((0, 1, 0, 1), None),
                                         ((-1, 1.2, -1, 1.2), 0j)])
def test_a_log_term_at_an_undeclared_pole_is_a_singular_path(rect, zeta0):
    # (1/z, i/z, 0) with its pole 0 declared as no puncture, on a grid
    # corner or as the base point: the exact route refuses its infinite
    # level, and the quadrature integrates phi - r/z = 0, so only r log z
    # meets the pole.  It once gave (-inf, NaN, 0) at valid points
    c = NullCurve((ex.parse("1/z"), ex.parse("i/z"), ex.const(0)),
                  DomainSpec(*rect))
    pole = r"log z is not finite at 0j, a pole that no puncture declares"
    with pytest.raises(SingularPath, match=pole):
        immerse(c, zeta0=zeta0, res=(3, 3))
    surf = parametric_immersion(c, zeta0=zeta0)
    with pytest.raises(SingularPath, match=pole):
        surf(np.array([0.7, 0.0]), np.array([0.2, 0.0]))
    if zeta0 is None:   # from 0.5 + 0.5i, off the pole, a finite value
        assert surf(0.7, 0.2) == pytest.approx(
            [np.log(abs(0.7 + 0.2j) / abs(0.5 + 0.5j)),
             np.angle(0.5 + 0.5j) - np.angle(0.7 + 0.2j), 0], abs=1e-12)


def _clear_of(punctures, clearance):
    """The segment test of immerse for the given punctures and clearance."""
    dom = DomainSpec(-3, 3, -3, 3, punctures=punctures)
    return lambda a, b: dom.puncture_distance(a, b) > clearance


@pytest.mark.parametrize("puncture, clearance, first, valid", [
    (2 + 1j, 0.25, False, True),       # between the corners 2 and 2i, on
                                       # the row-first path's second leg
    (0.1 + 0.1j, 0.25, False, False),  # beside 0, on both paths' first legs
    (2 + 2j, 0.25, False, False),      # on the endpoint
    (1 - 0.25j, 0.25, False, True),    # exactly the clearance from 0 -> 2
    (1 - 0.25j, np.nextafter(0.25, 0), True, True),   # just beyond it
])
def test_l_paths_from_0_to_2_plus_2i(puncture, clearance, first, valid):
    got = surface_mod._l_paths(_clear_of((puncture,), clearance), 0j,
                               np.array(2.0), np.array(2.0))
    assert (bool(got[0]), bool(got[1])) == (first, valid)


def test_l_paths_on_broadcast_axes_match_flat_points():
    clear = _clear_of((0.3 - 0.2j, -0.5 + 0.6j), 0.2)
    u, v, a = np.linspace(-1, 1, 9), np.linspace(-1, 1, 7), 0.25 + 0.5j
    grid = surface_mod._l_paths(clear, a, u[:, None], v[None, :])
    x, y = np.meshgrid(u, v, indexing="ij")
    flat = surface_mod._l_paths(clear, a, x.ravel(), y.ravel())
    for g, f in zip(grid, flat):
        assert g.shape == (9, 7) and np.array_equal(g.ravel(), f)
    first, valid = grid
    assert np.any(valid & ~first) and not valid.all() and first.any()


def test_default_base_point_is_never_masked():
    # (1/(z - p), i/(z - p), 0) punctured at p near the centre of [-1, 1]^2,
    # with no base point: immerse anchors at the domain's default base
    # point itself where its stem to the nearest grid point g clears p,
    # and else, as before, at the grid point nearest g that clears p
    rng = np.random.default_rng(20261019)
    moved = 0
    for _ in range(200):
        p = complex(*rng.uniform(-0.3, 0.3, 2))
        m = int(rng.integers(5, 40))
        dz = ex.sub(ex.Z, ex.const(p))
        c = NullCurve((ex.div(1, dz), ex.div(1j, dz), ex.const(0)),
                      DomainSpec(punctures=(p,)))
        patch = immerse(c, res=(m, m))
        u, v = patch.u, patch.v
        clearance = 1.25 * np.hypot(u[1] - u[0], v[1] - v[0])
        z0 = c.domain.default_base_point()
        g = complex(u[np.argmin(np.abs(u - z0.real))],
                    v[np.argmin(np.abs(v - z0.imag))])
        b = patch.base_point
        j0, k0 = np.argmin(np.abs(u - b.real)), np.argmin(np.abs(v - b.imag))
        assert patch.valid[j0, k0]
        if c.domain.puncture_distance(z0, g) > clearance:
            assert b == z0
            continue
        moved += 1
        assert b == complex(u[j0], v[k0]) and np.all(patch.points[j0, k0] == 0)
        zz = u[:, None] + 1j * v[None, :]
        clear = np.abs(zz - p) > clearance
        far = np.abs(zz - g)
        assert clear[j0, k0] and far[j0, k0] == np.min(far[clear])
    assert moved >= 20


def _default_anchored(c, res, tol=1e-10):
    """immerse and parametric_immersion of c with no base point: the
    patch, and the latter's values less the former's at its valid points."""
    p = immerse(c, res=res, tol=tol)
    zz = p.u[:, None] + 1j * p.v[None, :]
    got = parametric_immersion(c, tol=tol)(zz.real[p.valid], zz.imag[p.valid])
    return p, got - p.points[p.valid]


@pytest.mark.parametrize("curve", ["constant", "theorem51", "catenoid"])
def test_with_no_base_point_sample_and_slice_are_one_immersion(curve):
    # immerse anchors at DomainSpec.default_base_point() itself, not at the
    # grid point nearest it, and so gives parametric_immersion's bits at
    # every valid grid point: (1, i, 0) at 4^2, whose default 0 is off the
    # grid, the theorem-5.1 helicoid (c = 1 + 0.5i) at 40 x 31 and the
    # catenoid (z, 1/z^2) punctured at 0 at 64^2
    sq = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    c, res = {
        "constant": (NullCurve((ex.const(1), ex.const(1j), ex.const(0)),
                               DomainSpec()), (4, 4)),
        "theorem51": (replace(parabolic_deform(cat.helicoid(), 1 + 0.5j),
                              domain=DomainSpec(-1.2, 0.9, -0.7, 1.3)),
                      (40, 31)),
        "catenoid": (from_weierstrass(WeierstrassData(
            ex.Z, ex.parse("1/z^2"), sq)), (64, 64)),
    }[curve]
    p, diff = _default_anchored(c, res)
    z0 = c.domain.default_base_point()
    assert p.base_point == z0 and not (z0.real in p.u and z0.imag in p.v)
    assert not real_period(c).any() and p.valid.any()
    assert not diff.any()
    if curve == "constant":     # X = (u, -v, 0), as slice reads it
        assert p.points[2, 2].tolist() == [p.u[2], -p.v[2], 0]


def test_parametric_immersion_leaves_the_rectangle_to_the_l_paths(
        monkeypatch):
    # -1 - 0.5i lies off [0.2, 2] x [-1, 1], across the cut pi from
    # 1.1 + 0.5i: X2 is Re(e^{-0.7i} (Log z - Log z0)) on the principal
    # branch, with no quadrature.  The quadrature route (primitive_form
    # forced to None) integrates the curve less its z^{-1} terms along the
    # L-path to it, adds their logs on the cut, and agrees
    calls = _quadrature_calls(monkeypatch)
    c = _associated_catenoid()
    z0, z, tol = 1.1 + 0.5j, -1 - 0.5j, 1e-11
    surf = parametric_immersion(c, zeta0=z0, tol=tol)
    want = (np.exp(-0.7j) * (np.log(z) - np.log(z0))).real
    assert abs(surf(z.real, z.imag)[2] - want) <= 1e-9
    inside = surf(1.5, -0.5)[2]
    assert abs(inside - (np.exp(-0.7j) * np.log((1.5 - 0.5j) / z0)).real
               ) <= 1e-12
    assert calls == []
    monkeypatch.setattr(surface_mod, "primitive_form", lambda nf: None)
    tree = parametric_immersion(c, zeta0=z0, tol=tol)
    for x, y in ((z.real, z.imag), (1.5, -0.5)):
        assert np.max(np.abs(tree(x, y) - surf(x, y))) <= 2 * tol
    assert calls


def test_parametric_immersion_refuses_a_base_point_off_the_rectangle():
    # as immerse does; the points it is evaluated at may still leave it
    c = NullCurve((ex.const(1), ex.const(1j), ex.const(0)),
                  DomainSpec(-1, 1, -1, 1))
    for z0 in (5 + 5j, 1.01, -1.01j):
        for make in (parametric_immersion, immerse):
            with pytest.raises(ValueError,
                               match="base point lies outside the domain"):
                make(c, zeta0=z0)
    # X = Re(z - z0, i (z - z0), 0)
    assert parametric_immersion(c, zeta0=1 + 1j)(3.0, -2.0).tolist() == [
        2.0, 3.0, 0.0]


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
        curve = entry.make()
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
    ("ply", (0, 1, 2), "projection"),
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


@pytest.mark.parametrize("res", [(3, 4), (11, 10), (32, 33), (101, 101),
                                 (317, 317)])
@pytest.mark.parametrize("mask", ["full", "hole", "masked"])
def test_obj_face_lines_across_a_digit_count(tmp_path, monkeypatch, res,
                                             mask):
    # 12, 110, 1,056, 10,201 and 100,489 vertices: the 1-based indices
    # cross 9 -> 10, 99 -> 100, ..., 99,999 -> 100,000
    nu, nv = res
    valid = np.full(res, mask != "masked")
    if mask == "hole":
        # the last point of fewer digits (1-based), and a corner
        valid.flat[10 ** (len(str(nu * nv)) - 1) - 2] = False
        valid[-1, -1] = False
    p = surface_mod.SurfacePatch(np.linspace(0, 1, nu), np.linspace(0, 1, nv),
                                 np.zeros(res + (3,)), valid, 0j)
    want = b"".join(b"f %d %d %d\n" % (a + 1, b + 1, c + 1)
                    for a, b, c in _loop_triangles(p))
    assert (want == b"") == (mask == "masked")
    path = tmp_path / "m.obj"
    for size in (1, 7, 4096):
        monkeypatch.setattr(surface_mod, "BLOCK_POINTS", size)
        export_mesh(p, path, fmt="obj")
        lines = path.read_bytes().splitlines(True)
        assert b"".join(l for l in lines if l.startswith(b"f ")) == want, size


@pytest.mark.parametrize("x", [
    [1, 9, 10, 99, 100, 101],
    [10 ** 8 - 2, 10 ** 8 - 1, 10 ** 8, 10 ** 8 + 1],
    [10 ** 9 - 1, 10 ** 9, 10 ** 9 + 1, 2 ** 31 - 1, 2 ** 31, 10 ** 10 + 7]])
def test_index_text_past_eight_digits(x):
    text = surface_mod._index_text(np.array(x))
    assert text.shape == (len(x), 1 + len(str(max(x))))
    assert text[text != 0].tobytes() == b"".join(b" %d" % i for i in x)


@pytest.mark.parametrize("first", [10 ** 8 - 4, 10 ** 9 - 4, 10 ** 9])
def test_face_lines_past_eight_digits(first):
    # triangles of vertices 1e8 and 1e9 on, with no grid of that size
    tris = first + np.array([[0, 1, 2], [0, 2, 3], [4, 1, 6], [6, 7, 5]])
    want = b"".join(b"f %d %d %d\n" % (a + 1, b + 1, c + 1)
                    for a, b, c in tris.tolist())
    assert surface_mod._face_lines(tris).tobytes() == want


def test_ply_names_every_coordinate_past_the_sixth(tmp_path):
    # n = 7: one float64 property per coordinate, so the vertex block is
    # vertices x properties x 8 bytes and the faces follow it
    rng = np.random.default_rng(7)
    valid = np.ones((3, 3), bool)
    valid[2, 2] = False
    p = surface_mod.SurfacePatch(np.linspace(0, 1, 3), np.linspace(0, 1, 3),
                                 rng.standard_normal((3, 3, 7)), valid, 0j)
    path = tmp_path / "m.ply"
    export_mesh(p, path, fmt="ply")
    head, body = path.read_bytes().split(b"end_header\n", 1)
    props = [line.split()[2] for line in head.decode().splitlines()
             if line.startswith("property double")]
    assert props == ["x", "y", "z", "w", "p4", "p5", "p6"]
    verts = 9 * len(props) * 8
    assert np.array_equal(np.frombuffer(body[:verts], "<f8").reshape(9, 7),
                          p.points.reshape(9, 7))
    decoded = [tuple(rec) for rec in struct.iter_unpack("<B3i", body[verts:])]
    assert decoded == [(3, *t) for t in _loop_triangles(p)]


def test_parametric_immersion_array_matches_pointwise():
    surf = parametric_immersion(parabolic_deform(cat.helicoid(), 1 + 1j),
                                zeta0=0)
    u = np.array([[-0.5, 0.0, 0.7], [1.1, -1.2, 0.3]])
    v = np.array([0.2, -0.9, 0.0])
    got = surf(u, v)
    assert got.shape == (2, 3, 4) and got.flags.c_contiguous
    want = np.array([[surf(a, b) for a, b in zip(row, v)] for row in u])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("curve", ["helicoid", "periodic", "cosh"])
def test_parametric_immersion_of_no_points(curve):
    # the exact route with its budget check on the tables, with a real
    # period, and the quadrature legs: no point gives shape (0, n)
    punctured = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    c = {"helicoid": lambda: parabolic_deform(cat.helicoid(), 1 + 1j),
         "periodic": lambda: NullCurve((ex.parse("i/z"), ex.parse("1/z"),
                                        ex.const(0)), punctured),
         "cosh": lambda: NullCurve((ex.const(1), ex.parse("i*cosh(z^2)"),
                                    ex.parse("sinh(z^2)")), punctured)}[curve]()
    got = parametric_immersion(c, zeta0=1)(np.array([]), np.array([]))
    assert got.shape == (0, c.n)


def test_parametric_immersion_without_a_primitive(monkeypatch):
    # (1, i cosh(z^2), sinh(z^2)) has no exact primitive: the L-paths of
    # a call's points are one quadrature call; an array call is its
    # points' calls bitwise, and agrees with the tree within tol
    dom = DomainSpec(-0.5, 0.5, -0.5, 0.5)
    c = NullCurve((ex.const(1), ex.parse("i*cosh(z^2)"),
                   ex.parse("sinh(z^2)")), dom)
    assert ex.primitive_form(c.forms[1]) is None
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
    assert ex.primitive_form(c.forms[0]) is not None
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
    assert len(ex.primitive_form(c.forms[0])[0]) == 9

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
    calls, blocks = [], []
    eval_program, block = engine_mod.eval_program, surface_mod._Primitive._block

    def counting(prog, z, **kw):
        calls.append(np.size(z))
        return eval_program(prog, z, **kw)

    def counting_blocks(self, eu, ev, z, *args):
        blocks.append(z.shape)
        return block(self, eu, ev, z, *args)

    monkeypatch.setattr(engine_mod, "eval_program", counting)
    monkeypatch.setattr(surface_mod._Primitive, "_block", counting_blocks)
    got = immerse(c, zeta0=z0, res=res, tol=1e-10)
    # the base point's two factors, the 9 columns and the 41 rows; then
    # blocks of two rows, up to the first failing one and short of the
    # last, of one row
    assert calls == [2, 9, 41]
    assert set(blocks) == {(2, 9)} and 15 < len(blocks) < 21
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
