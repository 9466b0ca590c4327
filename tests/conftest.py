import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def load_obj_vertices(path):
    """Vertex coordinates of an OBJ file (for round-trip checks)."""
    with open(path) as fh:
        rows = [line.split()[1:4] for line in fh if line.startswith("v ")]
    return np.array(rows, dtype=float)


def primitive_derivative(form, z):
    """F' at the points z, for the primitive ``form`` = ({(m, k): c}, r)
    that ``expr.primitive_form`` reads: the sum of c (m z^(m-1) + k z^m)
    e^(kz) over the terms, plus r / z, taken with numpy and independent of
    ``expr.normal_forms``; with the sum of the terms' moduli, the scale
    of its roundoff."""
    terms, r = form
    z = np.asarray(z, dtype=complex)
    parts = [c * ((m * z ** (m - 1) if m else 0) + (k * z ** m if k else 0))
             * np.exp(k * z) for (m, k), c in terms.items()]
    if r:
        parts.append(r / z)
    return (sum(parts, np.zeros_like(z)),
            sum((np.abs(t) for t in parts), np.zeros(z.shape)))
