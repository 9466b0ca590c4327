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
from minsurf.errors import ZeroVector
from minsurf.nullcurve import (NullCurve, WeierstrassData, embed_3_to_4,
                               from_weierstrass)
from minsurf.surface import (_triangles, conformal_factor, degeneracy_rank,
                             export_mesh, gauss_map, immerse,
                             load_obj_vertices, parametric_immersion,
                             verify_minimal, wirtinger_defect)
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
    dom = DomainSpec(-1, 1, -1, 1)
    c3 = from_weierstrass(cat.helicoid())
    p = immerse(replace(c3, domain=dom), res=(64, 64), zeta0=0)
    h = p.spacing()[0]
    assert wirtinger_defect(p, c3) <= 10 * h * h


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


def test_transposed_tree_with_no_edge_to_integrate(monkeypatch):
    # every row edge the transposed tree wants is cut by the puncture, so
    # its quadrature call has no segment; G = exp(z^2) has no primitive
    dom = DomainSpec(-1, 1, -1, 1, punctures=(0.3 - 0.2j,))
    c = from_weierstrass(WeierstrassData(ex.parse("exp(z^2)"), ex.const(1),
                                         dom))
    calls = _quadrature_calls(monkeypatch)
    p = immerse(c, zeta0=-0.5 + 1j, res=(5, 5))
    assert len(calls) == 2 and calls[1] == 0
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
    assert any(ex.antiderivative(e) is None for e in c.components)
    for res, z0 in (((17, 11), None), ((9, 13), 0.31 - 0.42j)):
        calls.clear()
        immerse(c, zeta0=z0, res=res)
        assert calls == [res[0] * res[1]]


def _punctured_catenoid():
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    return from_weierstrass(WeierstrassData(ex.Z, ex.parse("1/z^2"), dom))


def _from_origin(x0, x1, y):
    """Distance from 0 to the segment (x0, y) -> (x1, y)."""
    return np.hypot(np.clip(0.0, np.minimum(x0, x1), np.maximum(x0, x1)), y)


def _tree_geometry(u, v, z0):
    """Grid points that a spanning tree from z0 reaches more than 1.25 cell
    diagonals away from a puncture at 0: along row k0 then up or down
    column j, or along column j0 then along row k, where (j0, k0) is the
    grid point nearest z0."""
    clearance = 1.25 * np.hypot(u[1] - u[0], v[1] - v[0])
    j0, k0 = np.argmin(np.abs(u - z0.real)), np.argmin(np.abs(v - z0.imag))
    U, V = np.meshgrid(u, v, indexing="ij")
    row_first = ((_from_origin(u[j0], U, v[k0]) > clearance)
                 & (_from_origin(v[k0], V, U) > clearance))
    col_first = ((_from_origin(v[k0], V, u[j0]) > clearance)
                 & (_from_origin(u[j0], U, V) > clearance))
    return (np.hypot(U, V) > clearance) & (row_first | col_first)


def test_off_grid_base_point_on_the_punctured_catenoid():
    z0 = 0.37 - 0.81j
    p = immerse(_punctured_catenoid(), zeta0=z0, res=(129, 129))
    assert np.array_equal(p.valid, _tree_geometry(p.u, p.v, z0))
    assert not p.valid.all()
    f = cat.catenoid_closed_form().func
    uu, vv = np.meshgrid(p.u, p.v, indexing="ij")
    oracle = f(uu[p.valid], vv[p.valid]) - f(z0.real, z0.imag)
    assert np.max(np.abs(p.points[p.valid] - oracle)) <= 1e-12


def test_transposed_tree_reaches_cells_behind_the_puncture():
    # from base point 1 the base row v = 0 runs into the puncture, so the
    # cell at (-1, 1) lies beyond a cut edge of the first tree; the
    # transposed tree reaches it along the row v = 1
    p = immerse(_punctured_catenoid(), zeta0=1 + 0j, res=(33, 33))
    j, k = np.argmin(np.abs(p.u + 1)), np.argmin(np.abs(p.v - 1))
    assert _from_origin(1.0, p.u[j], 0.0) == 0.0
    assert p.valid[j, k]
    f = cat.catenoid_closed_form().func
    want = np.asarray(f(p.u[j], p.v[k])) - np.asarray(f(1.0, 0.0))
    assert np.max(np.abs(p.points[j, k] - want)) <= 1e-12


def test_transposed_tree_integrates_only_edges_toward_missed_cells(
        monkeypatch):
    # the second call takes the row edges, off the base row, that lie
    # between column j0 and a cell the first tree missed and that clear
    # the puncture
    calls = _quadrature_calls(monkeypatch)
    for z0, n in ((1 + 0j, 33), (0.37 - 0.81j, 41)):
        calls.clear()
        p = immerse(_punctured_catenoid(), zeta0=z0, res=(n, n))
        u, v = p.u, p.v
        clearance = 1.25 * np.hypot(*p.spacing())
        j0, k0 = np.argmin(np.abs(u - z0.real)), np.argmin(np.abs(v - z0.imag))
        U, V = np.meshgrid(u, v, indexing="ij")
        first = ((_from_origin(u[j0], U, v[k0]) > clearance)
                 & (_from_origin(v[k0], V, U) > clearance))
        missed = (np.hypot(U, V) > clearance) & ~first
        want = 0
        for k in range(n):
            js = np.flatnonzero(missed[:, k])
            if k != k0 and js.size:
                j = np.arange(min(js.min(), j0), max(js.max(), j0))
                want += np.sum(_from_origin(u[j], u[j + 1], v[k]) > clearance)
        assert 0 < want < (n - 1) * (n - 1)
        assert len(calls) == 2 and calls[1] == want


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
    tris = _triangles(p)
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
    monkeypatch.setattr(surface_mod, "OBJ_BLOCK_ROWS", 7)
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
    exact = immerse(curve, zeta0=-1 + 0.5j, res=(65, 65), tol=tol)
    assert calls == [] and not exact.valid.all()
    monkeypatch.setattr(surface_mod, "antiderivative", lambda e: None)
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
    assert ex.antiderivative(e) is not None
    c = NullCurve((e, ex.mul(ex.const(1j), e), ex.const(0)), DomainSpec())
    calls = _quadrature_calls(monkeypatch)
    tol = 1e-12
    p = immerse(c, zeta0=0.3 - 0.2j, res=(9, 7), tol=tol)
    assert calls == [9 * 7]
    zz = p.u[:, None] + 1j * p.v[None, :]
    z0 = p.base_point
    F = (zz - z0) + 0.5 * k * (zz * zz - z0 * z0)
    want = np.stack([F.real, (1j * F).real, np.zeros(F.shape)], axis=-1)
    assert np.max(np.abs(p.points - want)) <= tol


def test_exact_route_evaluates_only_the_primitive_terms(monkeypatch):
    # one compile, of the primitive's terms and nothing else, evaluated
    # at each valid grid point and at zeta0; X vanishes exactly at the
    # base point
    w = cat.catenoid_exp()
    dom = replace(w.domain, punctures=(0.3 + 0.2j,))
    curve = parabolic_deform_rotated(WeierstrassData(w.G, w.Psi, dom), 0.7)
    compiles, points = [], []
    compile_expr, eval_program = engine_mod.compile_expr, engine_mod.eval_program

    def counting_compile(e):
        prog = compile_expr(e)
        compiles.append((e, len(prog.outputs)))
        return prog

    def counting_eval(prog, z, **kw):
        points.append(np.size(z))
        return eval_program(prog, z, **kw)

    monkeypatch.setattr(engine_mod, "compile_expr", counting_compile)
    monkeypatch.setattr(engine_mod, "eval_program", counting_eval)
    calls = _quadrature_calls(monkeypatch)
    p = immerse(curve, res=(65, 65), tol=1e-10)
    assert calls == [] and not p.valid.all()
    assert len(compiles) == 1 and sum(points) <= p.valid.sum() + 1
    monkeypatch.undo()
    terms = [t for e in curve.components for t in ex.antiderivative(e)]
    (compiled, outputs), = compiles
    assert outputs == len(terms) == len(compiled)
    assert list(map(ex.to_source, compiled)) == list(map(ex.to_source, terms))
    zz = p.u[:, None] + 1j * p.v[None, :]
    at = zz == p.base_point
    assert at.sum() == 1 and np.all(p.points[at] == 0)


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
                                   _punctured_catenoid()],
                         ids=["exact", "quadrature"])
def test_immersions_need_a_positive_finite_tol(monkeypatch, curve, tol):
    # refused before either route compiles anything
    def no_compile(e):
        raise AssertionError("compiled before tol was checked")

    monkeypatch.setattr(engine_mod, "compile_expr", no_compile)
    monkeypatch.setattr(surface_mod, "antiderivative", no_compile)
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
