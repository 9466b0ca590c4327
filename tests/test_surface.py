"""Immersion sampling, metrics, Gauss maps, degeneracy, mesh export."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
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
from minsurf.transforms import associate, lawson, parabolic_deform

from conftest import random_complex


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


def test_punctured_conformal_is_nan_exactly_off_valid_cells():
    # the full catenoid G = z, Psi = 1/z^2; cells reachable by neither
    # L-path from the base point 1 are invalid, not only the masked ones
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    c = from_weierstrass(WeierstrassData(ex.Z, ex.parse("1/z^2"), dom))
    p = immerse(c, res=(33, 33), zeta0=1 + 0j)
    assert np.array_equal(np.isnan(p.conformal), ~p.valid)
    assert np.array_equal(np.isnan(p.points).any(axis=2), ~p.valid)
    assert np.sum(~p.valid) > np.sum(dom.puncture_distance(
        p.u[:, None] + 1j * p.v[None, :]) <= 1.25 * np.hypot(*p.spacing()))


def test_immerse_uses_the_curves_branch_cut():
    # (log z, i log z, 0) with the cut along the positive real axis, where
    # arg z lies in (-2 pi, 0]: log z = Log z - 2 pi i on the second quadrant
    dom = DomainSpec(-1, -0.1, 0.1, 1, branch_cut=0.0)
    log = ex.log(ex.Z)
    c = NullCurve((log, ex.mul(ex.const(1j), log), ex.const(0)), dom)
    p = immerse(c, res=(9, 9), tol=1e-12)
    zz = p.u[:, None] + 1j * p.v[None, :]
    assert p.valid.all()
    assert np.array_equal(p.conformal, conformal_factor(c, zz))
    np.testing.assert_allclose(p.conformal,
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
