"""Complex path integration along straight segments.

Integrals of holomorphic integrands are taken with adaptive Gauss-Kronrod
quadrature: the 15-point Kronrod rule K15 and the 7-point Gauss rule G7
whose nodes it extends share one evaluation of the integrand, and
|K15 - G7| estimates the error of K15.  A component is accepted on a
segment once that estimate meets the segment's budget, or falls below
the segment's roundoff level ``ROUNDOFF_FACTOR * eps * integral of |f|``,
the floor QUADPACK's QAG applies (Piessens et al., *QUADPACK*, 1983).
Otherwise the segment is split and each half inherits half the budget,
up to a depth cap of 40.  Integrands here are entire or meromorphic away
from punctures, so panels converge spectrally and nearly every segment
is accepted at depth 0.

The nodes and weights are computed at import: Laurie's algorithm
("Calculation of Gauss-Kronrod quadrature rules", *Math. Comp.* 66,
1997) extends the Legendre recurrence to the Jacobi-Kronrod matrix, and
Golub-Welsch takes the rule from its eigen-decomposition.

``integrate_segments`` drives many segments at once through one compiled
program (one batched pass per refinement level), which is what makes
surface-patch integration cheap.  The integrand may be a tuple of
expressions, such as the components of a curve: their shared
subexpressions are evaluated once per node, and each component is
accepted on a segment as soon as its own error estimate meets the
segment's tolerance.  The nodes of a pass are evaluated in chunks of at
most ``CHUNK_NODES`` points, so memory does not grow with the batch.
A ``domain`` (DomainSpec) passed to either entry point gives the log
branch cut and the punctures, measured by ``DomainSpec.puncture_distance``;
a segment through a puncture raises SingularPath before any evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import DomainSpec
from .engine import compile_expr, eval_program
from .errors import NoConvergence, SingularPath

__all__ = ["integrate_path", "integrate_segments",
           "MAX_DEPTH", "CHUNK_NODES", "ROUNDOFF_FACTOR"]

MAX_DEPTH = 40
# quadrature nodes per evaluator call: bounds the evaluator's temporaries
# to a few arrays of this many complex values per component
CHUNK_NODES = 1 << 16
# an error estimate below this many ulps of the integral of |f| is roundoff
ROUNDOFF_FACTOR = 50
_ROUNDOFF = ROUNDOFF_FACTOR * np.finfo(np.float64).eps


def _gauss(alpha, beta):
    """Golub-Welsch: nodes and weights of the Gauss rule of the Jacobi
    matrix with diagonal ``alpha`` and off-diagonal sqrt(beta[1:]), for a
    symmetric measure of mass beta[0].  The rule is made symmetric and
    its weights are scaled to the mass, which rounding in the
    eigenvectors misses by a few ulps."""
    off = np.sqrt(beta[1:len(alpha)])
    x, v = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    w = v[0] ** 2
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x, beta[0] * w / w.sum()


def _kronrod_matrix(n, a, b):
    """Laurie's algorithm: the diagonal and squared off-diagonal of the
    order-(2n+1) Jacobi-Kronrod matrix, from the first 3n/2 + 1
    recurrence coefficients ``a`` (alpha) and ``b`` (beta) of the measure.
    Its Gauss rule is the Kronrod extension of the n-point Gauss rule."""
    a = np.concatenate([a[:3 * n // 2 + 1], np.zeros(2 * n + 1)])[:2 * n + 1]
    b = np.concatenate([b[:-(-3 * n // 2) + 1], np.zeros(2 * n + 1)])[:2 * n + 1]
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def _g7k15():
    """The 15 Kronrod nodes on [-1, 1] and a (15, 2) weight matrix whose
    columns are the K15 weights and the G7 weights (zero at the eight
    Kronrod-only nodes; the G7 nodes are every other Kronrod node)."""
    # the first 3*7/2 + 1 Legendre recurrence coefficients:
    # alpha_j = 0, beta_0 = 2 (the mass), beta_j = j^2/(4j^2 - 1)
    j = np.arange(12.0)
    alpha, beta = np.zeros(12), np.where(j > 0, j * j / (4 * j * j - 1), 2.0)
    nodes, wk = _gauss(*_kronrod_matrix(7, alpha, beta))
    weights = np.zeros((15, 2))
    weights[:, 0] = wk
    weights[1::2, 1] = _gauss(alpha[:7], beta[:7])[1]
    return nodes, weights


_NODES, _WEIGHTS = _g7k15()


def _panels(prog, a, b, cut, tol):
    """K15 integral of each output of ``prog`` over each segment [a_i, b_i],
    and whether it is accepted: whether |K15 - G7| <= max(tol_i, roundoff
    level), the level being ROUNDOFF_FACTOR * eps * (K15 integral of |f|).
    Both of shape (k, n), from one evaluation at the 15 Kronrod nodes; the
    level is computed only where the estimate misses ``tol``.

    Segments go to the evaluator in near-equal chunks of at most
    CHUNK_NODES nodes.  A chunk holds one segment only when the batch
    does: numpy sums a one-row matrix product in another order.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    res = np.empty((len(prog.outputs), a.size), dtype=np.complex128)
    ok = np.empty(res.shape, dtype=bool)
    chunks = max(1, -(-a.size * _NODES.size // CHUNK_NODES))
    for c in range(chunks):
        lo, hi = c * a.size // chunks, (c + 1) * a.size // chunks
        z = mid[lo:hi, None] + half[lo:hi, None] * _NODES[None, :]
        vals = eval_program(prog, z.ravel(), cut=cut).reshape(
            len(prog.outputs), hi - lo, _NODES.size)
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise SingularPath("integrand is singular on an integration segment")
        sums = (vals @ _WEIGHTS) * half[lo:hi, None]
        res[:, lo:hi] = sums[..., 0]
        err = np.abs(sums[..., 0] - sums[..., 1])
        done = err <= tol[lo:hi]
        comp, seg = np.nonzero(~done)
        done[comp, seg] = err[comp, seg] <= _ROUNDOFF * np.abs(half[lo + seg]) * (
            np.abs(vals[comp, seg]) @ _WEIGHTS[:, 0])
        ok[:, lo:hi] = done
    return res, ok


def check_tol(tol) -> float:
    """``tol`` as a float; ValueError unless it is positive and finite."""
    tol = float(tol)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def integrate_segments(expr, a, b, tol: float = 1e-12, *,
                       domain=None) -> np.ndarray:
    """Integrate ``expr``, or each of a tuple of k expressions, along
    straight segments a_i -> b_i.

    Returns one complex integral per segment, shape (k, n) for a tuple
    (n may be 0), each with absolute error at most ``tol``, unless that
    lies below the roundoff level of the segment's pieces, which then
    bounds the error.  Each component is accepted on a segment the first
    time its own error estimate meets the segment's tolerance or roundoff
    level; a segment is split only while some component is still pending
    there.  All pending segments of a refinement level are evaluated by
    one program.  ``domain`` (a DomainSpec) supplies the log
    branch cut and the punctures no segment may pass through.  ``tol``
    must be positive and finite (ValueError).
    """
    tol = check_tol(tol)
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    if a.shape != b.shape:
        raise ValueError("segment endpoint arrays must have the same shape")
    domain = domain if domain is not None else DomainSpec()
    cut = domain.branch_cut
    if domain.punctures and np.any(
            domain.puncture_distance(a, b) < 1e-9 * (1.0 + np.abs(b - a))):
        raise SingularPath("integration segment passes through a puncture")

    prog = compile_expr(expr)

    def refine(a, b, tol, pending, depth):
        # accepted panels, 0 where nothing is pending, else the sum of the
        # refined halves: halves meet before their parent, written once
        res, done = _panels(prog, a, b, cut, tol)
        done &= pending
        total = np.where(done, res, 0)
        pending = pending & ~done
        keep = np.any(pending, axis=0)
        if np.any(keep):
            if depth == MAX_DEPTH:
                raise NoConvergence(
                    f"quadrature did not converge within depth {MAX_DEPTH}")
            a, b, tol = a[keep], b[keep], 0.5 * tol[keep]
            mid = 0.5 * (a + b)
            halves = refine(np.concatenate([a, mid]), np.concatenate([mid, b]),
                            np.concatenate([tol, tol]),
                            np.tile(pending[:, keep], 2), depth + 1)
            total[:, keep] += halves[:, :mid.size] + halves[:, mid.size:]
        return total

    total = refine(a, b, np.full(a.size, tol),
                   np.ones((len(prog.outputs), a.size), dtype=bool), 0)
    return total[0] if prog.single else total


def integrate_path(expr, z0, z1, tol: float = 1e-12, *, domain=None) -> complex:
    """Integral of ``expr`` along the straight segment z0 -> z1.

    Absolute error is at most ``tol``, or the roundoff level where that
    is larger (see ``integrate_segments``).  When ``domain`` is given, its
    punctures are checked against the segment and its branch cut angle
    is used for log.
    """
    return complex(integrate_segments(expr, [z0], [z1], tol, domain=domain)[0])

