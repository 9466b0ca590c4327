"""Null-curve deformations: classical families and parabolic rotations."""

import math

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf.domain import DomainSpec
from minsurf.errors import DimensionMismatch
from minsurf.nullcurve import (embed_3_to_4, from_weierstrass,
                               null_residual, quadratic_form)
from minsurf.surface import conformal_factor
from minsurf.transforms import (NullTransform, apply_transform, associate,
                                goursat, goursat_parameter_for_scaling,
                                is_complex_orthogonal, lawson, lopez_ros,
                                lorentz_parabolic_matrix, parabolic_deform,
                                parabolic_deform_matrix_route,
                                parabolic_deform_rotated,
                                parabolic_rotation_matrix, segre_LR_matrix)

from conftest import random_complex


def _helicoid3():
    return from_weierstrass(cat.helicoid())


# ---------------------------------------------------------------------------
# associate family
# ---------------------------------------------------------------------------

def test_associate_zero_angle_is_identity():
    c3 = _helicoid3()
    assert associate(c3, 0.0) is c3


def test_associate_conjugate_surface(rng):
    c3 = _helicoid3()
    conj = associate(c3, math.pi / 2)
    z = random_complex(rng, 20, scale=0.5)
    assert np.allclose(conj(z), -1j * c3(z), atol=1e-15)


def test_associate_preserves_conformal_factor(rng):
    c3 = _helicoid3()
    rot = associate(c3, 0.7)
    for z in random_complex(rng, 10, scale=0.5):
        a = conformal_factor(c3, complex(z))
        b = conformal_factor(rot, complex(z))
        assert abs(a - b) <= 1e-14 * a


# ---------------------------------------------------------------------------
# Goursat shear and Lopez-Ros scaling
# ---------------------------------------------------------------------------

def test_goursat_zero_is_identity(rng):
    c3 = _helicoid3()
    out = goursat(c3, 0.0)
    z = random_complex(rng, 10, scale=0.5)
    assert np.allclose(out(z), c3(z), atol=0)


def test_goursat_preserves_nullity():
    out = goursat(_helicoid3(), 0.3)
    rep = null_residual(out, 100)
    assert rep.is_null


def test_goursat_third_component_untouched():
    c3 = _helicoid3()
    out = goursat(c3, 0.8)
    assert out.components[2] is c3.components[2]


def test_goursat_dimension_check():
    with pytest.raises(DimensionMismatch):
        goursat(embed_3_to_4(_helicoid3()), 0.1)


def test_lopez_ros_identity_at_one():
    w = cat.helicoid()
    assert lopez_ros(w, 1.0) is w


def test_lopez_ros_preserves_height_differential_exactly(rng):
    from minsurf.engine import evaluate

    w = cat.helicoid()
    w2 = lopez_ros(w, 2.0)   # powers of two scale exactly in binary
    z = random_complex(rng, 50, scale=0.8)
    h1 = evaluate(ex.mul(w.G, w.Psi), z)
    h2 = evaluate(ex.mul(w2.G, w2.Psi), z)
    assert np.array_equal(h1, h2)


def test_lopez_ros_equals_goursat_at_matching_parameter(rng):
    w = cat.helicoid()
    for lam in (0.5, 2.0):
        curve_lr = from_weierstrass(lopez_ros(w, lam))
        curve_g = goursat(from_weierstrass(w), goursat_parameter_for_scaling(lam))
        z = random_complex(rng, 30, scale=0.7)
        assert np.max(np.abs(curve_lr(z) - curve_g(z))) <= 1e-12


def test_lopez_ros_lambda_validation():
    for lam in (-1.0, 0.0):
        with pytest.raises(ValueError, match="positive"):
            lopez_ros(cat.helicoid(), lam)
        with pytest.raises(ValueError, match="positive"):
            goursat_parameter_for_scaling(lam)


def test_lawson_needs_three_components():
    with pytest.raises(DimensionMismatch):
        lawson(embed_3_to_4(_helicoid3()), 0.3, 0.7)


@pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
def test_null_transform_must_be_square(shape):
    with pytest.raises(ValueError, match="square"):
        NullTransform(np.ones(shape))


# ---------------------------------------------------------------------------
# Lawson lift
# ---------------------------------------------------------------------------

def test_lawson_zero_angles_interleaves(rng):
    c3 = _helicoid3()
    c6 = lawson(c3, 0.0, 0.0)
    z = random_complex(rng, 10, scale=0.5)
    v3, v6 = c3(z), c6(z)
    assert np.allclose(v6[..., 0::2], v3, atol=1e-15)
    assert np.allclose(v6[..., 1::2], 0, atol=1e-15)


def test_lawson_quarter_turn_weights(rng):
    c3 = _helicoid3()
    c6 = lawson(c3, 0.0, math.pi / 4)
    z = random_complex(rng, 10, scale=0.5)
    v3, v6 = c3(z), c6(z)
    w = 1 / math.sqrt(2)
    assert np.allclose(v6[..., 0::2], w * v3, atol=1e-14)
    assert np.allclose(v6[..., 1::2], -1j * w * v3, atol=1e-14)


def test_lawson_isometry(rng):
    c3 = _helicoid3()
    c6 = lawson(c3, 1.1, 0.6)
    z = random_complex(rng, 50, scale=0.7)
    lam3 = 0.5 * np.sum(np.abs(c3(z)) ** 2, axis=-1)
    lam6 = 0.5 * np.sum(np.abs(c6(z)) ** 2, axis=-1)
    assert np.max(np.abs(lam6 - lam3) / lam3) <= 1e-12


def test_lawson_preserves_nullity():
    assert null_residual(lawson(_helicoid3(), 0.3, 0.9), 100).is_null


# ---------------------------------------------------------------------------
# parabolic rotation matrices
# ---------------------------------------------------------------------------

def test_parabolic_matrix_at_zero_is_identity():
    m = parabolic_rotation_matrix(0).matrix
    assert np.array_equal(m, np.eye(4))


def test_parabolic_matrix_complex_orthogonal():
    ok, dev = is_complex_orthogonal(parabolic_rotation_matrix(2 - 3j))
    assert ok and dev <= 1e-14
    ok, dev = is_complex_orthogonal(parabolic_rotation_matrix(3 + 4j))
    assert ok


def test_parabolic_matrix_group_law(rng):
    for _ in range(20):
        c1, c2 = random_complex(rng, 2)
        m1 = parabolic_rotation_matrix(c1).matrix
        m2 = parabolic_rotation_matrix(c2).matrix
        m12 = parabolic_rotation_matrix(c1 + c2).matrix
        assert np.max(np.abs(m1 @ m2 - m12)) <= 1e-12


def test_parabolic_block_preserves_quadratic_form_off_cone(rng):
    # the 3x3 block conserves sum z_k^2 for arbitrary vectors
    for _ in range(100):
        c = complex(*rng.standard_normal(2))
        v = random_complex(rng, 3)
        m3 = parabolic_rotation_matrix(c).matrix[:3, :3]
        q_in = np.sum(v * v)
        q_out = np.sum((m3 @ v) ** 2)
        tol = 1e-12 * (1 + np.sum(np.abs(v) ** 2)) ** 2
        assert abs(q_out - q_in) <= tol


def test_wick_rotation_consistency():
    # conjugating the real light-cone shear by diag(1,1,-i) and swapping
    # the first two axes reproduces the parabolic block, entrywise exact
    for t in (-1.5, 0.25, 2.0):
        L = lorentz_parabolic_matrix(t).astype(np.complex128)
        D = np.diag([1.0, 1.0, -1j])
        Dinv = np.diag([1.0, 1.0, 1j])
        P = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.complex128)
        wick = P @ (Dinv @ L @ D) @ P
        block = parabolic_rotation_matrix(t).matrix[:3, :3]
        assert np.array_equal(wick, block)


def test_lorentz_shear_preserves_light_cone(rng):
    for t in (-0.7, 1.3):
        L = lorentz_parabolic_matrix(t)
        v = rng.standard_normal(3)
        q = lambda x: x[0] ** 2 + x[1] ** 2 - x[2] ** 2
        assert abs(q(L @ v) - q(v)) <= 1e-12 * (1 + np.sum(v ** 2))


# ---------------------------------------------------------------------------
# triangular (L, R) cone maps
# ---------------------------------------------------------------------------

def test_segre_identity_at_zero():
    assert np.array_equal(segre_LR_matrix(0, 0).matrix, np.eye(4))


def test_segre_recovers_parabolic():
    for c in (1 + 2j, 0.5 - 0.25j):
        m_lr = segre_LR_matrix(-c * 1j, -c * 1j).matrix
        m_p = parabolic_rotation_matrix(c).matrix
        assert np.max(np.abs(m_lr - m_p)) <= 1e-14


def test_segre_cone_preservation_general_LR():
    c4 = embed_3_to_4(_helicoid3())
    out = apply_transform(segre_LR_matrix(1, 1j), c4)
    assert null_residual(out, 100).is_null


def test_segre_orthogonality_verdict_reported():
    # determinant preservation holds for all vectors, so the numeric
    # check should find M^T M = I even for L != R
    T = segre_LR_matrix(1, 2j)
    ok, dev = is_complex_orthogonal(T)
    assert ok, f"unexpected deviation {dev}"


def test_segre_quadratic_form_all_vectors(rng):
    m = segre_LR_matrix(0.3 - 1j, -0.8 + 0.2j).matrix
    for _ in range(50):
        v = random_complex(rng, 4)
        assert abs(quadratic_form(m @ v) - quadratic_form(v)) \
            <= 1e-12 * (1 + np.sum(np.abs(v) ** 2)) ** 2


# ---------------------------------------------------------------------------
# apply_transform
# ---------------------------------------------------------------------------

def test_apply_identity_keeps_components():
    c4 = embed_3_to_4(_helicoid3())
    out = apply_transform(NullTransform(np.eye(4)), c4)
    for a, b in zip(out.components, c4.components):
        assert a is b


def test_apply_parabolic_keeps_curve_null():
    c4 = embed_3_to_4(_helicoid3())
    out = apply_transform(parabolic_rotation_matrix(2 - 1j), c4)
    assert null_residual(out, 100).is_null


def test_apply_non_orthogonal_breaks_nullity():
    c4 = embed_3_to_4(_helicoid3())
    out = apply_transform(NullTransform(np.ones((4, 4))), c4)
    assert not null_residual(out, 100).is_null


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_transform(parabolic_rotation_matrix(1), _helicoid3())


# ---------------------------------------------------------------------------
# Weierstrass-level parabolic deformation
# ---------------------------------------------------------------------------

def test_parabolic_deform_at_zero_embeds(rng):
    w = cat.helicoid()
    d0 = parabolic_deform(w, 0)
    e = embed_3_to_4(from_weierstrass(w))
    z = random_complex(rng, 20, scale=0.6)
    assert np.max(np.abs(d0(z) - e(z))) <= 1e-15


def test_parabolic_deform_equals_matrix_route(rng):
    for w in (cat.helicoid(), cat.catenoid_exp()):
        for c in (1 + 0j, 2 - 1j):
            direct = parabolic_deform(w, c)
            via_matrix = parabolic_deform_matrix_route(w, c)
            z = random_complex(rng, 50, scale=0.6)
            assert np.max(np.abs(direct(z) - via_matrix(z))) <= 1e-12


def test_parabolic_deform_hyperplane_identity(rng):
    w = cat.helicoid()
    c = 2 - 1j
    d = parabolic_deform(w, c)
    z = random_complex(rng, 50, scale=0.6)
    vals = d(z)
    combo = vals[..., 0] + c * vals[..., 1] + 1j * c * vals[..., 2]
    scale = np.max(np.sum(np.abs(vals) ** 2, axis=-1))
    assert np.max(np.abs(combo)) <= 1e-12 * scale


def test_parabolic_deform_rotated_relation(rng):
    # the c = tan(theta) curve in the rotated frame: mixing components
    # 0 and 1 by the frame rotation recovers the unrotated curve
    w = cat.helicoid()
    theta = 0.4
    tilde = parabolic_deform_rotated(w, theta)
    hat = parabolic_deform(w, math.tan(theta))
    z = random_complex(rng, 50, scale=0.6)
    tv, hv = tilde(z), hat(z)
    ct, st = math.cos(theta), math.sin(theta)
    assert np.max(np.abs(ct * tv[..., 0] - st * tv[..., 1] - hv[..., 0])) <= 1e-12
    assert np.max(np.abs(st * tv[..., 0] + ct * tv[..., 1] - hv[..., 1])) <= 1e-12
    assert np.max(np.abs(tv[..., 2] - hv[..., 2])) <= 1e-13
    assert np.max(np.abs(tv[..., 3] - hv[..., 3])) <= 1e-13


def test_parabolic_deform_rotated_at_zero_embeds(rng):
    w = cat.helicoid()
    tilde = parabolic_deform_rotated(w, 0.0)
    embedded = embed_3_to_4(from_weierstrass(w))
    z = random_complex(rng, 20, scale=0.6)
    assert np.max(np.abs(tilde(z) - embedded(z))) <= 1e-15


def test_parabolic_deform_rotated_null_on_catenoid():
    out = parabolic_deform_rotated(cat.catenoid(), 1.0)
    assert null_residual(out, 100).is_null


def test_parabolic_deform_rotated_theta_range():
    with pytest.raises(ValueError):
        parabolic_deform_rotated(cat.helicoid(), math.pi)


def test_is_complex_orthogonal_identity():
    ok, dev = is_complex_orthogonal(NullTransform(np.eye(4)))
    assert ok and dev == 0.0


def test_composed_transforms_stay_orthogonal(rng):
    # products of the provided families are still complex orthogonal and
    # preserve the quadratic form on arbitrary vectors
    ch, sh = np.cosh(0.4), np.sinh(0.4)
    g4 = np.eye(4, dtype=complex)
    g4[1:3, 1:3] = np.array([[ch, -1j * sh], [1j * sh, ch]])
    T = (parabolic_rotation_matrix(0.7 - 0.2j)
         @ segre_LR_matrix(0.3j, -0.5)
         @ NullTransform(g4))
    ok, dev = is_complex_orthogonal(T)
    assert ok, dev
    for _ in range(30):
        v = random_complex(rng, 4)
        assert abs(quadratic_form(T.matrix @ v) - quadratic_form(v)) \
            <= 1e-12 * (1 + np.sum(np.abs(v) ** 2)) ** 2


def test_cone_preservation_random_weierstrass(rng):
    # every transform op keeps Weierstrass-generated curves on the cone
    dom = DomainSpec(-1, 1, -1, 1)
    from minsurf.nullcurve import WeierstrassData

    w = WeierstrassData(ex.parse("z-0.2*i"), ex.parse("exp(-z)+1"), dom)
    c3 = from_weierstrass(w)
    outputs = [
        associate(c3, 0.9),
        goursat(c3, -0.4),
        from_weierstrass(lopez_ros(w, 1.7)),
        lawson(c3, 0.2, 1.0),
        parabolic_deform(w, 1.5 - 0.5j),
        parabolic_deform_rotated(w, -0.6),
        apply_transform(segre_LR_matrix(0.4, -0.9j), embed_3_to_4(c3)),
    ]
    for out in outputs:
        assert null_residual(out, 100).is_null
