"""DomainSpec geometry: validation, base points, and distance from points
and segments to punctures."""

import math

import numpy as np
import pytest

from minsurf.domain import DomainSpec, halton


def test_segment_through_a_puncture_is_at_distance_zero():
    dom = DomainSpec(-2, 2, -2, 2, punctures=(0j, 1 + 1j))
    got = dom.puncture_distance([-1 + 0j, 1 + 1j, -1j, 0.5 + 1j],
                                [1 + 0j, 2 + 2j, 1j, 1.5 + 1j])
    assert np.array_equal(got, [0.0, 0.0, 0.0, 0.0])
    # off the axes, |b - a|^2 rounds: zero up to roundoff
    assert dom.puncture_distance(-1 - 1j, 3 + 3j) <= 1e-15


def test_segment_distance_matches_hand_computed_values():
    dom = DomainSpec(-2, 2, -2, 2, punctures=(0j, 3 + 0j))
    a = np.array([1 + 1j, -1 + 1j, 0.5 + 2j, 2 - 1j])
    b = np.array([2 + 1j, 1 + 1j, 0.5 + 3j, 4 - 1j])
    want = [
        math.sqrt(2.0),   # nearest point of the segment is its start 1+i
        1.0,              # interior point i is nearest to 0
        math.hypot(0.5, 2.0),   # start 0.5+2i
        1.0,              # interior point 3-i is nearest to 3
    ]
    np.testing.assert_allclose(dom.puncture_distance(a, b), want,
                               rtol=1e-15, atol=0)


def test_point_form_is_the_zero_length_segment_bitwise(rng):
    dom = DomainSpec(-1, 1, -1, 1, punctures=(0j, 0.3 - 0.7j, -0.9 + 0.1j))
    z = rng.uniform(-1, 1, (7, 5)) + 1j * rng.uniform(-1, 1, (7, 5))
    point = dom.puncture_distance(z)
    assert point.shape == z.shape
    assert np.array_equal(point, dom.puncture_distance(z, z))
    # the nearest-puncture distance, one |z - p| per puncture
    assert np.array_equal(
        point, np.min([np.abs(z - p) for p in dom.punctures], axis=0))


def test_no_punctures_is_infinitely_far():
    dom = DomainSpec(-1, 1, -1, 1)
    assert np.all(dom.puncture_distance([0j, 1j], [1 + 0j, 2j]) == np.inf)
    assert float(dom.puncture_distance(0j)) == math.inf


@pytest.mark.parametrize("a, b, shape", [
    (0.5j, None, ()),
    (np.zeros(5, complex), None, (5,)),
    (0.5j, np.ones(5, complex), (5,)),
    (np.zeros((5, 1), complex), np.ones((5, 3), complex), (5, 3)),
    (np.zeros((5, 1), complex), np.ones(3, complex), (5, 3)),
])
def test_no_punctures_has_the_broadcast_shape(a, b, shape):
    got = DomainSpec(-1, 1, -1, 1).puncture_distance(a, b)
    assert isinstance(got, np.ndarray) and got.shape == shape
    assert np.all(got == np.inf)


@pytest.mark.parametrize("kwargs", [
    dict(u_max=math.inf), dict(v_min=-math.inf), dict(u_min=math.nan),
    dict(u_min=-1e308, u_max=1e308),   # finite bounds, infinite width
    dict(punctures=(complex(math.nan, 0.0),)),
    dict(punctures=(0.5j, complex(0.0, math.inf))),
    dict(branch_cut=math.nan), dict(branch_cut=-math.inf),
])
def test_non_finite_values_are_rejected(kwargs):
    with pytest.raises(ValueError, match="finite"):
        DomainSpec(**kwargs)


def test_default_base_point_leaves_a_central_puncture():
    dom = DomainSpec(-1, 3, -2, 2, punctures=(1 + 0j,))
    z0 = dom.default_base_point()
    assert z0 != dom.center
    assert z0 == dom.sample_points(1, skip=17)[0]
    assert dom.contains(z0)
    assert float(dom.puncture_distance(z0)) > 0.02 * math.hypot(4, 4)
    # a puncture farther than 5% of the diagonal leaves the center alone
    far = DomainSpec(-1, 3, -2, 2, punctures=(1 + 0.3j,))
    assert far.default_base_point() == far.center


@pytest.mark.parametrize("rect", [(0, 0, -1, 1), (1, 0, -1, 1), (-1, 1, 2, 2)])
def test_degenerate_rectangle_is_rejected(rect):
    with pytest.raises(ValueError, match="degenerate"):
        DomainSpec(*rect)


@pytest.mark.parametrize("res", [(1, 5), (5, 1), (0, 0)])
def test_grid_needs_two_points_a_side(res):
    with pytest.raises(ValueError, match="2x2"):
        DomainSpec(-1, 1, -1, 1).grid(*res)


@pytest.mark.parametrize("skip", [-1, -2, -3])
def test_a_negative_halton_skip_is_refused(skip):
    # the digits of a negative index never reach 0: -1 would give the
    # point (0, 0) and -2 or less would never return
    with pytest.raises(ValueError, match="non-negative"):
        halton(4, skip)
    with pytest.raises(ValueError, match="non-negative"):
        DomainSpec().sample_points(4, skip=skip)
    assert halton(4, 0).shape == (4, 2)


def test_a_halton_index_past_int64_is_refused():
    # numpy holds the indices 1..count after skip as int64: the last index
    # int64 max is taken, one more is refused, naming the skip
    top = int(np.iinfo(np.int64).max)
    assert halton(3, top - 3).shape == (3, 2)
    with pytest.raises(ValueError, match=f"skip {top - 2} takes"):
        halton(3, top - 2)
    with pytest.raises(ValueError, match="skip 99999999999999999999999"):
        DomainSpec().sample_points(4, skip=99999999999999999999999)
