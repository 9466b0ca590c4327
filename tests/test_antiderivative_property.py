"""Property test: the exact primitive of a random exponential-Laurent
polynomial differentiates back to it."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from minsurf import expr as ex  # noqa: E402
from minsurf.engine import evaluate  # noqa: E402

from conftest import primitive_derivative  # noqa: E402

RATES = (0, 1, -1, 2, 1j, -0.5 + 0.5j)
POINTS = np.array([0, 0.3 - 0.7j, -0.9 + 0.2j, 1.1 + 1j, -0.4 - 1.2j])

coefficients = st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                                  allow_nan=False, allow_infinity=False)
# negative powers of z only without an exponential factor: z^{-m} e^{kz}
# (k != 0) integrates to an exponential integral, outside the class
terms = st.one_of(
    st.tuples(coefficients, st.integers(0, 4), st.sampled_from(RATES)),
    st.tuples(coefficients, st.integers(-4, -1), st.just(0)))


def _term(c, n, k):
    return ex.mul(ex.const(c), ex.mul(ex.powi(ex.Z, n),
                                      ex.exp(ex.mul(ex.const(k), ex.Z))))


@settings(max_examples=80, deadline=None)
@given(st.lists(terms, min_size=1, max_size=5))
def test_primitive_differentiates_back(drawn):
    f = ex.const(0)
    for c, n, k in drawn:
        f = ex.add(f, _term(c, n, k))
    form = ex.primitive_form(ex.normal_forms((f,))[0])
    assert form is not None
    # a Laurent term is singular at 0, the first point
    z = POINTS if all(n >= 0 for _, n, _ in drawn) else POINTS[1:]
    got, scale = primitive_derivative(form, z)
    # roundoff scale: the derivative terms cancel down to the integrand
    scale = scale + sum(np.abs(evaluate(_term(*t), z)) for t in drawn)
    assert np.all(np.abs(got - evaluate(f, z))
                  <= 16 * np.finfo(float).eps * (1 + scale))
