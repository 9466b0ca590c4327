"""Complex path integration along straight segments.

Integrals of holomorphic integrands are taken with adaptive Gauss-Kronrod
quadrature: the 15-point Kronrod rule K15 and the 7-point Gauss rule G7
whose nodes it extends share one evaluation of the integrand, and
|K15 - G7| estimates the error of K15.  A component is accepted on a
segment once that estimate meets the segment's budget, or falls below
the segment's roundoff level ``ROUNDOFF_FACTOR * eps * integral of |f|``,
the floor QUADPACK's QAG applies (Piessens et al., *QUADPACK*, 1983).
Otherwise the segment is split and each half inherits half the budget,
up to a depth cap of 40; as QUADPACK's QAG caps its subintervals
(``limit``), a segment also fails once more of its pieces are pending at
one level than fill one evaluator chunk (``CHUNK_NODES`` nodes), so an
integrand whose rounding noise outruns the roundoff floor, as next to an
undeclared pole, ends in NoConvergence with bounded memory.  Integrands
here are entire or meromorphic away from punctures, so panels converge
spectrally and nearly every segment is accepted at depth 0.

The nodes and weights are QUADPACK's ``qk15`` table at its published
digits, so each is the correctly rounded double and the rule is the same
on every machine.

``integrate_segments`` drives many segments at once through one compiled
program (one batched pass per refinement level), which is what makes
surface-patch integration cheap.  The integrand may be a tuple of
expressions, such as the components of a curve: their shared
subexpressions are evaluated once per node, and each component is
accepted on a segment as soon as its own error estimate meets the
segment's tolerance.  The nodes of a pass are evaluated in chunks of at
most ``CHUNK_NODES`` points, so memory does not grow with the batch.
A ``domain`` (DomainSpec) passed to ``integrate_segments`` gives the log
branch cut and the punctures, measured by ``DomainSpec.puncture_distance``;
a segment through a puncture raises SingularPath before any evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import DomainSpec
from .engine import compile_expr, eval_program
from .errors import NoConvergence, SingularPath

__all__ = ["integrate_segments", "MAX_DEPTH", "CHUNK_NODES", "ROUNDOFF_FACTOR"]

MAX_DEPTH = 40
# quadrature nodes per evaluator call: bounds the evaluator's temporaries
# to a few arrays of this many complex values per component
CHUNK_NODES = 1 << 16
# an error estimate below this many ulps of the integral of |f| is roundoff
ROUNDOFF_FACTOR = 50
_ROUNDOFF = ROUNDOFF_FACTOR * np.finfo(np.float64).eps


# QUADPACK's qk15 table: the nonnegative Kronrod nodes, descending, their
# K15 weights, and the G7 weights of xgk[1::2]
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

# the 15 nodes on [-1, 1], ascending, and the (15, 2) K15 and G7 weights;
# G7 takes every other node, and is zero at the eight Kronrod-only nodes
_NODES = np.concatenate([np.negative(_XGK[:-1]), _XGK[::-1]])
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = _WGK + _WGK[-2::-1]
_WEIGHTS[1::2, 1] = _WG + _WG[-2::-1]


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


def hits_puncture(domain, a, b) -> np.ndarray:
    """Whether each segment a -> b passes within 1e-9 (1 + |b - a|) of a
    puncture of ``domain``, which ``integrate_segments`` refuses."""
    return domain.puncture_distance(a, b) < 1e-9 * (1.0 + np.abs(b - a))


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
    there, and NoConvergence is raised at depth MAX_DEPTH, or once more
    pieces of one segment are pending at a level than fill CHUNK_NODES
    nodes.  All pending segments of a refinement level are evaluated by
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
    if domain.punctures and np.any(hits_puncture(domain, a, b)):
        raise SingularPath("integration segment passes through a puncture")

    prog = compile_expr(expr)

    def refine(a, b, tol, pending, origin, depth):
        # accepted panels, 0 where nothing is pending, else the sum of the
        # refined halves: halves meet before their parent, written once;
        # origin[i] is the input segment that piece i is part of
        res, done = _panels(prog, a, b, cut, tol)
        done &= pending
        total = np.where(done, res, 0)
        pending = pending & ~done
        keep = np.any(pending, axis=0)
        if np.any(keep):
            if depth == MAX_DEPTH:
                raise NoConvergence(
                    f"quadrature did not converge within depth {MAX_DEPTH}")
            if np.bincount(origin[keep]).max() * _NODES.size > CHUNK_NODES:
                raise NoConvergence(
                    "quadrature did not converge: the pending pieces of a "
                    f"segment outgrew {CHUNK_NODES} nodes at depth {depth}")
            a, b, tol = a[keep], b[keep], 0.5 * tol[keep]
            mid = 0.5 * (a + b)
            halves = refine(np.concatenate([a, mid]), np.concatenate([mid, b]),
                            np.concatenate([tol, tol]),
                            np.tile(pending[:, keep], 2),
                            np.tile(origin[keep], 2), depth + 1)
            total[:, keep] += halves[:, :mid.size] + halves[:, mid.size:]
        return total

    total = refine(a, b, np.full(a.size, tol),
                   np.ones((len(prog.outputs), a.size), dtype=bool),
                   np.arange(a.size), 0)
    return total[0] if prog.single else total
