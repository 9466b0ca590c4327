"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Oracles are closed forms and first-principles recomputations; numeric
results are never compared against the code path that produced them.
Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf.conic import (asymptotes, fit_conic, slice_parameter_line,
                           slice_surface)
from minsurf.domain import DomainSpec
from minsurf.engine import evaluate
from minsurf.nullcurve import (embed_3_to_4, from_weierstrass,
                               null_residual, quadratic_form)
from minsurf.surface import (conformal_factor, degeneracy_rank, immerse,
                             verify_minimal)
from minsurf.transforms import (apply_transform, associate, goursat,
                                goursat_parameter_for_scaling, lawson,
                                lopez_ros,
                                parabolic_deform,
                                parabolic_deform_matrix_route,
                                parabolic_rotation_matrix, segre_LR_matrix)

RNG = np.random.default_rng(73)


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num}: {text}"


def _rand_complex(n, scale=1.0):
    return scale * (RNG.standard_normal(n) + 1j * RNG.standard_normal(n))


def _null_vectors_c4(count):
    """Random points of the C^4 null cone via the Weierstrass param."""
    g = _rand_complex(count)
    psi = _rand_complex(count)
    v = np.stack([np.zeros(count, complex),
                  0.5 * (1 - g * g) * psi,
                  0.5j * (1 + g * g) * psi,
                  g * psi], axis=-1)
    return v


def test_criterion_01_parabolic_matrix_cone_invariance():
    worst_null = 0.0
    worst_free = 0.0
    for c in _rand_complex(20):
        m = parabolic_rotation_matrix(c).matrix
        v = _null_vectors_c4(100)
        out = v @ m.T
        scale = np.sum(np.abs(out) ** 2, axis=-1)
        worst_null = max(worst_null,
                         float(np.max(np.abs(quadratic_form(out)) / scale)))
        # quadratic-form identity on arbitrary (non-null) 3-vectors
        w = _rand_complex((100, 3))
        m3 = m[:3, :3]
        q_in = np.sum(w * w, axis=-1)
        q_out = np.sum((w @ m3.T) ** 2, axis=-1)
        tol = (1 + np.sum(np.abs(w) ** 2, axis=-1)) ** 2
        worst_free = max(worst_free,
                         float(np.max(np.abs(q_out - q_in) / tol)))
    ok = worst_null <= 1e-12 and worst_free <= 1e-12
    _report(1, ok, f"cone invariance: null rel {worst_null:.2e}, "
                   f"free-vector identity {worst_free:.2e} (tol 1e-12)")


def test_criterion_02_orthogonality_and_group_law():
    worst_orth = 0.0
    worst_group = 0.0
    for _ in range(20):
        c1, c2 = _rand_complex(2)
        m1 = parabolic_rotation_matrix(c1).matrix
        m2 = parabolic_rotation_matrix(c2).matrix
        worst_orth = max(worst_orth,
                         float(np.max(np.abs(m1.T @ m1 - np.eye(4)))))
        m12 = parabolic_rotation_matrix(c1 + c2).matrix
        worst_group = max(worst_group, float(np.max(np.abs(m1 @ m2 - m12))))
    ok = worst_orth <= 1e-12 and worst_group <= 1e-12
    _report(2, ok, f"M^T M = I dev {worst_orth:.2e}, "
                   f"group law dev {worst_group:.2e} (tol 1e-12)")


def test_criterion_03_deformation_triangle():
    worst_route = 0.0
    worst_plane = 0.0
    ranks_ok = True
    for w, zbatch in ((cat.helicoid(), _rand_complex(50, 0.6)),
                      (cat.catenoid(), 1.0 + 0.3 * _rand_complex(50))):
        for c in (1 + 2j, 2 - 1j, 0.5 + 0.5j):
            direct = parabolic_deform(w, c)
            via_m = parabolic_deform_matrix_route(w, c)
            via_s = apply_transform(segre_LR_matrix(-1j * c, -1j * c),
                                    embed_3_to_4(from_weierstrass(w)))
            vd, vm, vs = direct(zbatch), via_m(zbatch), via_s(zbatch)
            worst_route = max(worst_route,
                              float(np.max(np.abs(vd - vm))),
                              float(np.max(np.abs(vd - vs))),
                              float(np.max(np.abs(vm - vs))))
            combo = vd[..., 0] + c * vd[..., 1] + 1j * c * vd[..., 2]
            scale = np.max(np.sum(np.abs(vd) ** 2, axis=-1))
            worst_plane = max(worst_plane, float(np.max(np.abs(combo)) / scale))
            rep = degeneracy_rank(direct, 64)
            expect = np.array([1, c, 1j * c, 0], complex)
            expect /= np.linalg.norm(expect)
            aligned = 1 - abs(np.vdot(expect, rep.hyperplane)) <= 1e-10
            ranks_ok = ranks_ok and rep.rank == 3 and aligned
    ok = worst_route <= 1e-12 and worst_plane <= 1e-12 and ranks_ok
    _report(3, ok, f"route agreement {worst_route:.2e}, hyperplane identity "
                   f"{worst_plane:.2e}, rank 3 with (1,c,ic,0): {ranks_ok}")


def test_criterion_04_deformed_metric_closed_form():
    worst = 0.0
    for w, zbatch in ((cat.helicoid(), _rand_complex(50, 0.6)),
                      (cat.catenoid(), 1.0 + 0.3 * _rand_complex(50))):
        for c in (1 + 0j, 1j, 1 + 1j, 2 - 3j):
            curve = parabolic_deform(w, c)
            g = evaluate(w.G, zbatch)
            psi = evaluate(w.Psi, zbatch)
            closed = (np.abs(psi) ** 2 * np.abs(1 + c * c * g * g) ** 2
                      * (1 + np.abs(g) ** 2 / np.abs(1 + 1j * c * g) ** 2)
                      * (1 + np.abs(g) ** 2 / np.abs(1 - 1j * c * g) ** 2)) / 4
            lam = conformal_factor(curve, zbatch)
            worst = max(worst, float(np.max(np.abs(lam - closed) / closed)))
    ok = worst <= 1e-12
    _report(4, ok, f"metric closed form rel dev {worst:.2e} (tol 1e-12)")


def test_criterion_05_helicoid_deformation_foliation():
    dom = DomainSpec(-1, 1, -1, 1)
    worst_patch = 0.0
    slice_ok = True
    details = []
    # v0 values solving Re((a+ib)^2 e^{2 i v0}) = -1: there the asymptote
    # pair is orthogonal and the hyperbola is rectangular
    orth_v0 = {(1.0, 0.0): math.pi / 2, (0.0, 1.0): 0.0,
               (1.0, 2.0): 0.5 * (math.atan2(4, 3) + math.acos(1 / 5))}
    for (a, b) in ((1.0, 0.0), (0.0, 1.0), (1.0, 2.0)):
        hd = cat.helicoid_deformation(a, b)
        # printed components on a 32x32 grid
        c4 = parabolic_deform(cat.helicoid(), complex(a, b))
        p = immerse(replace(c4, domain=dom), res=(32, 32), zeta0=0, tol=1e-11)
        ref = np.empty_like(p.points)
        for j, u in enumerate(p.u):
            for k, v in enumerate(p.v):
                ref[j, k] = hd.components(u, v)
        ref -= hd.components(0, 0)
        worst_patch = max(worst_patch, float(np.max(np.abs(p.points - ref))))

        # hyperbola levels: fitted conic matches the exact slice analysis;
        # the in-plane slope formula |p| / (sqrt(m) N) holds whenever the
        # adapted frame is orthonormal (a b = 0)
        for v0 in (0.4, 1.1, orth_v0[(a, b)]):
            geom = hd.slice_geometry(v0)
            fit = fit_conic(slice_surface(hd.surface, 3, v0, npoints=90,
                                          sweep=(-1.4, 1.4)))
            asy = asymptotes(fit)
            cosang = abs(float(asy[0] @ asy[1]))
            good = (fit.classification == "hyperbola" == geom["kind"]
                    and abs(cosang - abs(geom["cos_asymptote_angle"])) <= 1e-8
                    and abs(fit.semi_axes[0] - geom["semi_transverse"]) <= 1e-8
                    and abs(fit.semi_axes[1] - geom["semi_conjugate"]) <= 1e-8)
            if a * b == 0:
                pval = a * math.sin(v0) + b * math.cos(v0)
                nval = math.sqrt(math.sin(v0) ** 2 / (a * a + 1)
                                 + math.cos(v0) ** 2 / (b * b + 1))
                slope = abs(pval) / (math.sqrt(hd.m) * nval)
                good = good and abs(fit.semi_axes[0] / fit.semi_axes[1]
                                    - slope) <= 1e-8
            slice_ok = slice_ok and good
        # at the special level the asymptote pair is orthogonal
        v0 = orth_v0[(a, b)]
        fit = fit_conic(slice_surface(hd.surface, 3, v0, npoints=90,
                                      sweep=(-1.4, 1.4)))
        asy = asymptotes(fit)
        orth_dev = abs(float(asy[0] @ asy[1]))
        slice_ok = slice_ok and orth_dev <= 1e-8
        details.append(f"({a:g},{b:g}): orth dev {orth_dev:.1e}")

        # line level: a sin v0 + b cos v0 = 0
        v0_line = math.atan2(-b, a)
        fit = fit_conic(slice_surface(hd.surface, 3, v0_line, npoints=60,
                                      sweep=(-1.2, 1.2)))
        slice_ok = slice_ok and fit.classification == "line"
    ok = worst_patch <= 1e-8 and slice_ok
    _report(5, ok, f"printed components max dev {worst_patch:.2e} (tol 1e-8); "
                   f"hyperbola/line classification and exact slice geometry; "
                   + "; ".join(details))


def test_criterion_06_ellipse_foliation_limits():
    neck_ok = True
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        surf = cat.catenoid_deformation(theta)
        fit = fit_conic(slice_surface(surf, 3, 0.0, npoints=120))
        want = sorted((1.0, 1.0 / math.cos(theta)), reverse=True)
        got = fit.semi_axes
        neck_ok = neck_ok and fit.classification == "ellipse" \
            and abs(got[0] - want[0]) <= 1e-8 and abs(got[1] - want[1]) <= 1e-8 \
            and abs(fit.eccentricity - math.sin(theta)) <= 1e-8

    # U -> infinity: fitted axis ratio approaches 1 at the stated rates,
    # cross-checked against the closed-form r1, r2.  The r2 candidates
    # 1/cos(theta) and 1/cosh(theta) disagree; the fit decides.
    theta = math.pi / 4
    surf = cat.catenoid_deformation(theta)
    rate_ok = True
    cos_matches, cosh_matches = True, True
    for U, tol in ((5.0, 2e-4), (10.0, 1e-8)):
        fit = fit_conic(slice_surface(surf, 3, U, npoints=120))
        big, small = fit.semi_axes
        ratio = (big / small) ** 2
        rate_ok = rate_ok and abs(ratio - 1.0) <= tol
        r1, r2 = cat.ellipse_semi_axes(theta, U)
        fit_r2 = max(fit.semi_axes)  # r2 >= r1 for these slices
        cos_matches = cos_matches and abs(fit_r2 - r2) / r2 <= 1e-8
        r2_alt = math.cosh(U) / math.cosh(theta)
        cosh_matches = cosh_matches and abs(fit_r2 - r2_alt) / r2_alt <= 1e-8
        closed_ratio = (r2 / r1) ** 2
        rate_ok = rate_ok and abs(ratio - closed_ratio) <= 1e-10
    ok = neck_ok and rate_ok and cos_matches and not cosh_matches
    _report(6, ok, "neck ellipse axes (1, 1/cos t) to 1e-8; axis ratio "
                   "-> 1 at 2e-4 (U=5) and 1e-8 (U=10); closed-form r2 "
                   f"uses cos: {cos_matches}, cosh variant rejected: "
                   f"{not cosh_matches}")


def test_criterion_07_lagrangian_catenoid_slices():
    surf = cat.lagrangian_catenoid_patch()
    hyper_ok = True
    for v0 in (0.0, 0.7, 2.0):
        fit = fit_conic(slice_parameter_line(surf, "v", v0, npoints=90,
                                             sweep=(-1.2, 1.2)))
        hyper_ok = hyper_ok and fit.classification == "hyperbola" \
            and abs(fit.eccentricity - math.sqrt(2)) <= 1e-9 \
            and abs(fit.semi_axes[0] - 1) <= 1e-9 \
            and abs(fit.semi_axes[1] - 1) <= 1e-9
    circle_ok = True
    for u0 in (0.0, 0.5, 1.0):
        fit = fit_conic(slice_parameter_line(surf, "u", u0, npoints=90))
        r2 = math.cosh(u0) ** 2 + math.sinh(u0) ** 2
        circle_ok = circle_ok and fit.classification == "circle" \
            and abs(fit.semi_axes[0] ** 2 - r2) <= 1e-9
    ok = hyper_ok and circle_ok
    _report(7, ok, "fixed-v slices: rectangular hyperbolas (e = sqrt 2); "
                   "fixed-u slices: circles of radius^2 = cosh^2+sinh^2 "
                   "(tol 1e-9)")


def test_criterion_08_parabola_foliation():
    worst_coeff = 0.0
    ecc_ok = True
    for mu in (1 + 0j, 2 - 1j, -3j):
        surf = cat.complex_parabola_patch(mu)
        for u0 in (0.0, 0.5, 1.0):
            fit = fit_conic(slice_parameter_line(surf, "u", u0, npoints=100,
                                                 sweep=(-2, 2)))
            lam = cat.parabola_leading_coefficient(mu, u0)
            ecc_ok = ecc_ok and fit.classification == "parabola" \
                and abs(fit.eccentricity - 1.0) <= 1e-6
            worst_coeff = max(worst_coeff,
                              abs(fit.leading_coefficient - lam))
    ok = worst_coeff <= 1e-9 and ecc_ok
    _report(8, ok, f"parabola leading coefficient dev {worst_coeff:.2e} "
                   f"(tol 1e-9), eccentricity 1 within 1e-6: {ecc_ok}")


def test_criterion_09_classical_deformations():
    w = cat.helicoid()
    c3 = from_weierstrass(w)
    zbatch = _rand_complex(50, 0.6)

    height_exact = True
    x3_dev = 0.0
    curve_dev = 0.0
    for lam in (0.5, 2.0):
        w2 = lopez_ros(w, lam)
        h1 = evaluate(ex.mul(w.G, w.Psi), zbatch)
        h2 = evaluate(ex.mul(w2.G, w2.Psi), zbatch)
        height_exact = height_exact and np.array_equal(h1, h2)
        dom = DomainSpec(-1, 1, -1, 1)
        p1 = immerse(replace(c3, domain=dom), res=(16, 16), zeta0=0)
        p2 = immerse(replace(from_weierstrass(w2), domain=dom), res=(16, 16),
                     zeta0=0)
        x3_dev = max(x3_dev,
                     float(np.max(np.abs(p1.points[:, :, 2]
                                         - p2.points[:, :, 2]))))
        gcurve = goursat(c3, goursat_parameter_for_scaling(lam))
        lcurve = from_weierstrass(w2)
        curve_dev = max(curve_dev,
                        float(np.max(np.abs(gcurve(zbatch) - lcurve(zbatch)))))

    lam0 = conformal_factor(c3, zbatch)
    assoc_dev = float(np.max(np.abs(
        conformal_factor(associate(c3, 0.7), zbatch) - lam0) / lam0))
    lawson_dev = float(np.max(np.abs(
        conformal_factor(lawson(c3, 1.1, 0.6), zbatch) - lam0) / lam0))

    ok = (height_exact and x3_dev <= 1e-10 and curve_dev <= 1e-12
          and assoc_dev <= 1e-14 and lawson_dev <= 1e-12)
    _report(9, ok, f"height differential exact: {height_exact}; x3 dev "
                   f"{x3_dev:.2e} (1e-10); shear-vs-scaling {curve_dev:.2e} "
                   f"(1e-12); associate factor {assoc_dev:.2e} (1e-14); "
                   f"lift factor {lawson_dev:.2e} (1e-12)")


def test_criterion_10_minimality_and_convergence():
    # verification domains: squares where the second-order regime holds
    # at 64x64 (entire data), and a window near the base point for data
    # with a pole at 0
    entire = DomainSpec(-0.5, 0.5, -0.5, 0.5)
    polar = DomainSpec(0.875, 1.125, -0.125, 0.125, punctures=(0j,))
    cases = [
        ("helicoid", from_weierstrass(cat.helicoid()), entire),
        ("catenoid-exp", from_weierstrass(cat.catenoid_exp()), entire),
        ("catenoid", from_weierstrass(cat.catenoid()), polar),
        ("osserman-graph", cat.osserman_graph(1 - 1j), entire),
        ("hoffman-osserman", cat.hoffman_osserman(1 + 1j, 2, 1, 1), polar),
        ("lagrangian-catenoid", cat.lagrangian_catenoid(), entire),
        ("complex-parabola", cat.complex_parabola(2 - 1j), entire),
        ("deformed-helicoid", parabolic_deform(cat.helicoid(), 1 + 1j), entire),
        ("deformed-catenoid", parabolic_deform(cat.catenoid_exp(), 1 + 1j),
         entire),
    ]
    ok = True
    lines = []
    for name, curve, dom in cases:
        z0 = dom.center
        coarse = verify_minimal(immerse(replace(curve, domain=dom),
                                        res=(64, 64), zeta0=z0, tol=1e-11))
        fine = verify_minimal(immerse(replace(curve, domain=dom),
                                      res=(128, 128), zeta0=z0, tol=1e-11))
        dc, dh = coarse["conformality_defect"], coarse["harmonicity_defect"]
        good = dc <= 1e-4 and dh <= 1e-4
        # convergence ratio is meaningful only above the roundoff floor
        for key in ("conformality_defect", "harmonicity_defect"):
            if coarse[key] > 1e-9:
                good = good and coarse[key] / fine[key] >= 3.5
        ok = ok and good
        lines.append(f"{name}: conf {dc:.1e} harm {dh:.1e}"
                     + ("" if good else " <-- FAIL"))
    _report(10, ok, "64x64 defects <= 1e-4 with >= 3.5x decay on doubling: "
                    + "; ".join(lines))


def test_criterion_11_constrained_constants():
    worst_null = 0.0
    for _ in range(10):
        d4, d5, C = _rand_complex(3)
        alpha = float(RNG.uniform(0.5, 2.0))
        curve = cat.hoffman_osserman(d4, d5, C, alpha)
        rep = null_residual(curve, 64)
        worst_null = max(worst_null, rep.max_abs_residual / rep.normalizer)

    worst_match = 0.0
    zbatch = 1.0 + 0.35 * _rand_complex(50)
    for c in (2 + 0j, 1 - 1j, 0.5 + 2j):
        ho = cat.hoffman_osserman(d4=c, d5=0, C=0.5, alpha=1)
        deformed = parabolic_deform(cat.catenoid(), c)
        hv, dv = ho(zbatch), deformed(zbatch)
        reordered = np.stack([hv[..., 3], hv[..., 0], hv[..., 1], hv[..., 2]],
                             axis=-1)
        worst_match = max(worst_match,
                          float(np.max(np.abs(reordered - dv))))
    ok = worst_null <= 1e-12 and worst_match <= 1e-12
    _report(11, ok, f"constraint nullity rel {worst_null:.2e} (1e-12); "
                    f"normalized five-component curve matches the deformed "
                    f"catenoid to {worst_match:.2e} (1e-12)")
