"""Complex path integration along straight segments.

Integrals of holomorphic integrands are taken with composite adaptive
Gauss-Legendre quadrature of order 16.  A panel over [a, b] is compared
against the two half-panels; if the discrepancy exceeds the budgeted
tolerance the segment is split and each half inherits half the budget,
up to a depth cap of 40.  Integrands here are entire or meromorphic away
from punctures, so panels converge spectrally and nearly every segment
is accepted at depth 0 or 1.

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

import numpy as np

from .domain import DomainSpec
from .engine import compile_expr, eval_program
from .errors import EvaluationSingularity, NoConvergence, SingularPath

__all__ = ["integrate_path", "integrate_segments", "GL_ORDER", "MAX_DEPTH",
           "CHUNK_NODES"]

GL_ORDER = 16
MAX_DEPTH = 40
# quadrature nodes per evaluator call: bounds the evaluator's temporaries
# to a few arrays of this many complex values per component
CHUNK_NODES = 1 << 16

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)


def _panels(prog, a, b, cut):
    """Order-16 GL integral of each output of ``prog`` over each segment
    [a_i, b_i], component-major: shape (k, n).

    Segments go to the evaluator in near-equal chunks of at most
    CHUNK_NODES nodes.  A chunk holds one segment only when the batch
    does: numpy sums a one-row matrix-vector product in another order.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    out = np.empty((len(prog.outputs), a.size), dtype=np.complex128)
    chunks = max(1, -(-a.size * GL_ORDER // CHUNK_NODES))
    for c in range(chunks):
        lo, hi = c * a.size // chunks, (c + 1) * a.size // chunks
        z = mid[lo:hi, None] + half[lo:hi, None] * _NODES[None, :]
        vals = eval_program(prog, z.ravel(), cut=cut).reshape(-1, hi - lo, GL_ORDER)
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise SingularPath("integrand is singular on an integration segment")
        out[:, lo:hi] = (vals @ _WEIGHTS) * half[lo:hi]
    return out


def integrate_segments(expr, a, b, tol: float = 1e-12, *, domain=None,
                       max_depth: int = MAX_DEPTH) -> np.ndarray:
    """Integrate ``expr``, or each of a tuple of k expressions, along
    straight segments a_i -> b_i.

    Returns one complex integral per segment, shape (k, n) for a tuple,
    each with absolute error at most ``tol``.  Each component is accepted
    on a segment the first time its own error estimate meets the
    segment's tolerance; a segment is split only while some component is
    still pending there.  All pending segments of a refinement level are
    evaluated by one program.  ``domain`` (a DomainSpec) supplies the log
    branch cut and the punctures no segment may pass through.
    """
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
    total = np.zeros((len(prog.outputs), a.size), dtype=np.complex128)
    pending = np.ones(total.shape, dtype=bool)
    idx = np.arange(a.size)
    seg_a, seg_b = a.copy(), b.copy()
    seg_tol = np.full(a.size, float(tol))

    for depth in range(max_depth + 1):
        whole = _panels(prog, seg_a, seg_b, cut)
        mid = 0.5 * (seg_a + seg_b)
        left = _panels(prog, seg_a, mid, cut)
        right = _panels(prog, mid, seg_b, cut)
        refined = left + right
        done = pending & (np.abs(whole - refined) <= seg_tol)
        comp, seg = np.nonzero(done)
        np.add.at(total, (comp, idx[seg]), refined[comp, seg])
        pending &= ~done
        keep = np.any(pending, axis=0)
        if not np.any(keep):
            return total[0] if prog.single else total
        idx = np.concatenate([idx[keep], idx[keep]])
        pending = np.concatenate([pending[:, keep], pending[:, keep]], axis=1)
        seg_a = np.concatenate([seg_a[keep], mid[keep]])
        seg_b = np.concatenate([mid[keep], seg_b[keep]])
        seg_tol = np.concatenate([0.5 * seg_tol[keep], 0.5 * seg_tol[keep]])
    raise NoConvergence(
        f"quadrature did not converge within depth {max_depth}")


def integrate_path(expr, z0, z1, tol: float = 1e-12, *, domain=None) -> complex:
    """Integral of ``expr`` along the straight segment z0 -> z1.

    Absolute error is at most ``tol``.  When ``domain`` is given, its
    punctures are checked against the segment and its branch cut angle
    is used for log.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        result = integrate_segments(expr, [z0], [z1], tol, domain=domain)
    except EvaluationSingularity as err:
        raise SingularPath(str(err)) from err
    return complex(result[0])
