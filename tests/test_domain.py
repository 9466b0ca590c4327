"""DomainSpec geometry: distance from points and segments to punctures."""

import math

import numpy as np

from minsurf.domain import DomainSpec


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
