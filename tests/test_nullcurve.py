"""Null curves, Weierstrass data, residual reports."""

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf.domain import DomainSpec
from minsurf.nullcurve import (NullCurve, NullResidualReport,
                               WeierstrassData, embed_3_to_4,
                               from_weierstrass, null_residual,
                               quadratic_form)

def test_quadratic_form_basics():
    assert quadratic_form(np.array([1, 1j])) == 0
    assert quadratic_form(np.zeros(4)) == 0
    assert quadratic_form(np.array([1.0, 2.0, 3.0])) == 14


def test_quadratic_form_needs_two_components():
    with pytest.raises(ValueError):
        quadratic_form(np.array([1.0]))


def test_from_weierstrass_helicoid_at_zero():
    c3 = from_weierstrass(cat.helicoid())
    v = c3(0j)
    assert np.allclose(v, [0, 1, -1j], atol=1e-15)


def test_from_weierstrass_catenoid_at_one():
    c3 = from_weierstrass(cat.catenoid())
    v = c3(1 + 0j)
    assert np.allclose(v, [0, 1j, 1], atol=1e-15)


def test_from_weierstrass_identically_null(rng):
    # algebraic nullity at random points for both generated curves
    for w in (cat.helicoid(), cat.catenoid_exp()):
        c3 = from_weierstrass(w)
        z = w.domain.sample_points(100)
        vals = c3(z)
        scale = np.max(np.sum(np.abs(vals) ** 2, axis=-1))
        assert np.max(np.abs(quadratic_form(vals))) <= 1e-12 * scale


def test_random_weierstrass_data_null(rng):
    # arbitrary closed-form data still produce null curves
    dom = DomainSpec(-1, 1, -1, 1)
    w = WeierstrassData(ex.parse("z^2-0.3*i"), ex.parse("exp(-z)+2"), dom)
    rep = null_residual(from_weierstrass(w), 100)
    assert rep.is_null


def test_embed_preserves_nullity_and_rank():
    c3 = from_weierstrass(cat.helicoid())
    c4 = embed_3_to_4(c3)
    assert c4.n == 4
    z = c4.domain.sample_points(50)
    assert np.allclose(c4(z)[..., 0], 0)
    assert np.allclose(quadratic_form(c4(z)), quadratic_form(c3(z)), atol=1e-14)

    from minsurf.surface import degeneracy_rank
    assert degeneracy_rank(c4, 64).rank == 3


def test_null_residual_detects_non_null():
    dom = DomainSpec(-1, 1, -1, 1)
    c = NullCurve((ex.const(1), ex.const(1), ex.const(1)), dom)
    rep = null_residual(c, 64)
    assert not rep.is_null
    assert abs(rep.max_abs_residual - 3.0) < 1e-14


@pytest.mark.filterwarnings("error")
def test_null_residual_overflow_is_not_null():
    # the squares of 1e200 overflow: residual and normalizer are both inf,
    # and inf <= 1e-9 * inf must not pass for null
    c = NullCurve((ex.const(-1), ex.const(1e-300), ex.const(1e200)),
                  DomainSpec(0, 3, 0, 3))
    rep = null_residual(c)
    assert rep.max_abs_residual == rep.normalizer == np.inf
    assert rep.is_null is False


@pytest.mark.parametrize("residual, normalizer", [
    (np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf),
    (1.0, np.inf), (np.inf, 1.0)])
def test_non_finite_report_is_not_null(residual, normalizer):
    assert NullResidualReport(residual, normalizer).is_null is False


def test_null_residual_helicoid_tight():
    rep = null_residual(from_weierstrass(cat.helicoid()), 64)
    assert rep.max_abs_residual <= 1e-12 * rep.normalizer


def test_null_residual_sample_minimum():
    with pytest.raises(ValueError):
        null_residual(from_weierstrass(cat.helicoid()), 4)


def test_halton_sampling_reproducible():
    dom = DomainSpec(0.2, 2, -1, 1, punctures=(0j,))
    a = dom.sample_points(32)
    b = dom.sample_points(32)
    assert np.array_equal(a, b)
    assert np.all(dom.puncture_distance(a) > 0)


def test_curve_dimension_restriction():
    dom = DomainSpec(-1, 1, -1, 1)
    with pytest.raises(ValueError):
        NullCurve((ex.Z, ex.Z), dom)


def test_weierstrass_rejects_zero_component():
    dom = DomainSpec(-1, 1, -1, 1)
    with pytest.raises(ValueError):
        WeierstrassData(ex.const(0), ex.exp(ex.Z), dom)


def test_embed_3_to_4_needs_three_components():
    c4 = embed_3_to_4(from_weierstrass(cat.helicoid()))
    with pytest.raises(ValueError, match="3-component"):
        embed_3_to_4(c4)
