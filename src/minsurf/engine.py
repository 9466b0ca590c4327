"""Bulk evaluation of expression trees on arrays of complex points.

Everything downstream (quadrature panels, residual sampling, surface
patches, metric grids) reduces to evaluating a curve's few small ASTs at
10^4..10^6 points, so this is the package's hot kernel.

``compile_expr`` turns an expression, or a tuple of them (the components
of a curve), into one ``Program``: a flat list of numpy instructions over
numbered slots.  Slot 0 holds z and each constant is a scalar slot, so a
constant operand is never broadcast into an array.  Nodes are hash-consed on a structural
key -- node type, operand slots, and the exponent or the constant's bits
(so ``0.0`` and ``-0.0`` stay distinct) -- after Filliatre & Conchon,
"Type-safe modular hash-consing" (ML Workshop 2006).  A subexpression
shared by several components, such as ``G^2`` or ``Psi`` in Weierstrass
data, is therefore computed once per call, and every intermediate array
is freed after its last use.

``log`` uses the principal branch by default; a rotated branch cut is
supported by passing the cut direction angle (the principal branch
corresponds to ``cut = pi``).
"""

from __future__ import annotations

import cmath
import math
import struct
from typing import NamedTuple

import numpy as np

from .errors import EvaluationSingularity
from . import expr as ex

__all__ = ["compile_expr", "evaluate", "eval_program", "Program"]

_UNARY = {ex.Neg: np.negative, ex.Exp: np.exp, ex.Sinh: np.sinh, ex.Cosh: np.cosh}
_BINARY = {ex.Add: np.add, ex.Sub: np.subtract, ex.Mul: np.multiply,
           ex.Div: np.true_divide}
_ONE_ARG = (*_UNARY, ex.Pow, ex.Log)


class Program(NamedTuple):
    """Instructions over numbered slots; slot 0 holds z.

    ``consts`` pairs each constant slot with its scalar value.  Each entry
    of ``ops`` is ``(slot, node type, operand slots, exponent, slots freed
    after it)``.  ``outputs`` lists the slot of each root; ``single`` is
    true when one expression, not a tuple, was compiled.
    """

    size: int
    consts: tuple
    ops: tuple
    outputs: tuple
    single: bool


def compile_expr(e) -> Program:
    """Compile an expression, or a tuple of expressions, into one Program
    in which each distinct subexpression is computed once."""
    single = isinstance(e, ex.Expr)
    roots = (e,) if single else tuple(e)
    table = {("z",): 0}       # structural key -> slot
    seen = {}                 # id(node) -> slot: a shared node is walked once
    consts, instrs = [], []

    def walk(node):
        slot = seen.get(id(node))
        if slot is not None:
            return slot
        if isinstance(node, ex.Var):
            slot = 0
        elif isinstance(node, ex.Const):
            v = complex(node.value)
            key = ("c", struct.pack("<2d", v.real, v.imag))
            slot = table.get(key)
            if slot is None:
                slot = table[key] = len(table)
                consts.append((slot, np.complex128(v)))
        elif type(node) in _BINARY:
            slot = intern(type(node), (walk(node.a), walk(node.b)), 0)
        elif type(node) in _ONE_ARG:
            slot = intern(type(node), (walk(node.a),), getattr(node, "n", 0))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        seen[id(node)] = slot
        return slot

    def intern(kind, args, n):
        key = (kind, args, n)
        slot = table.get(key)
        if slot is None:
            slot = table[key] = len(table)
            instrs.append((slot, kind, args, n))
        return slot

    outputs = tuple(walk(r) for r in roots)
    last_use = {s: i for i, (_, _, args, _) in enumerate(instrs) for s in args}
    dead = [[] for _ in instrs]
    for s, i in last_use.items():
        if s not in outputs:
            dead[i].append(s)
    ops = tuple((slot, kind, args, n, tuple(d))
                for (slot, kind, args, n), d in zip(instrs, dead))
    return Program(len(table), tuple(consts), ops, outputs, single)


def eval_program(prog: Program, z: np.ndarray, cut: float = math.pi) -> np.ndarray:
    """Run a compiled program over an array of points.

    Returns an array of ``z``'s shape for a single expression, and the
    outputs component-major, shape ``(k, *z.shape)``, for a tuple of k.
    No finiteness check is performed here; ``evaluate`` is the checked
    entry point.
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    shift = cut - math.pi
    rot = cmath.exp(-1j * shift)
    vals = [None] * prog.size
    vals[0] = z
    for slot, c in prog.consts:
        vals[slot] = c
    with np.errstate(all="ignore"):
        for slot, kind, args, n, dead in prog.ops:
            x = vals[args[0]]
            if kind is ex.Pow:
                vals[slot] = x ** n
            elif kind is ex.Log:
                vals[slot] = np.log(x * rot) + 1j * shift
            elif len(args) == 2:
                vals[slot] = _BINARY[kind](x, vals[args[1]])
            else:
                vals[slot] = _UNARY[kind](x)
            for s in dead:
                vals[s] = None
    out = np.empty((len(prog.outputs),) + z.shape, dtype=np.complex128)
    for row, slot in zip(out, prog.outputs):
        row[...] = vals[slot]
    return out[0] if prog.single else out


def evaluate(e, z, cut: float = math.pi):
    """Evaluate an expression, or a tuple of k of them, at scalar or
    ndarray ``z``.

    A single expression at a scalar gives a complex; otherwise the result
    has ``z``'s shape, with a leading axis of length k for a tuple.
    Raises EvaluationSingularity when any output is non-finite (division
    by zero, log of zero, overflow).  Only the outputs are checked, not
    each instruction's result, which would cost an ``isfinite`` pass per
    instruction: a removable limit reached through an infinite
    intermediate is returned, so ``1/log(z)`` and ``exp(log(z))`` give 0
    at z = 0.
    """
    prog = compile_expr(e)
    out = eval_program(prog, np.atleast_1d(np.asarray(z, dtype=np.complex128)),
                       cut=cut)
    finite = np.isfinite(out).reshape(len(prog.outputs), -1).all(axis=1)
    if not np.all(finite):
        roots = (e,) if prog.single else tuple(e)
        bad = roots[int(np.argmin(finite))]
        raise EvaluationSingularity(
            f"non-finite value evaluating {ex.to_source(bad)!r}")
    out = out.reshape(np.shape(z) if prog.single
                      else (len(prog.outputs),) + np.shape(z))
    return complex(out) if out.ndim == 0 else out
