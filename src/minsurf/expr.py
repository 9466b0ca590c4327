"""Closed-form holomorphic functions of one complex variable.

Expressions are immutable ASTs over {constants, the variable z, +, -, *, /,
integer powers, exp, log, sinh, cosh}.  Keeping them symbolic (rather than
opaque callables) buys exact primitives (``primitive_form``), text
round-tripping for the CLI/JSON interfaces, and a compact instruction tape
for fast bulk evaluation (see ``engine``).

A tree evaluates as its text reads.  The smart constructors ``add``,
``sub``, ``mul``, ``div``, ``neg`` and ``powi`` fold only when every
operand is a ``Const``, and only to a finite value: ``0^(-1)``, ``1/0``
and ``1e200^2`` keep their node for evaluation to report.  Nothing else
is rewritten, so ``x+0``, ``1*x``, ``0*x``, ``--x`` and ``(x^2)^3`` stay
as written.  Every ``Const`` is finite (``InvalidConstant`` otherwise).

``normal_forms`` reads expressions into the exponential-Laurent class,
the finite sums of terms ``c z^n e^{kz}`` with integer ``n``, negative
only where ``k = 0`` (every catalog curve and its linear deformations).
From a form, ``primitive_form`` reads an exact primitive as its terms'
coefficients, and ``residue`` reads the ``z^{-1}`` coefficient, whose
primitive is the one ``log`` term.

``parse`` reads one token at a time with the regular expression ``_TOKEN``:
a number (decimal digits of any script with at most one '.', an optional
exponent and an optional unit ``i``), a name (word characters, the first
not a decimal digit), an operator (``**`` reads as ``^``), or any other
character, a ParseError at its offset, as is a second '.' in a number.
"""

from __future__ import annotations

import cmath
import operator
import re
from dataclasses import dataclass

from .errors import InvalidConstant, ParseError

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Exp", "Log", "Sinh", "Cosh",
    "Z", "const", "add", "sub", "mul", "div", "neg", "powi",
    "exp", "log", "sinh", "cosh", "normal_forms",
    "primitive_form", "residue", "parse", "to_source", "MAX_DEPTH",
]


@dataclass(frozen=True, eq=False)
class Expr:
    """Base node.  Arithmetic operators build new trees."""

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return powi(self, n)

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: complex

    def __post_init__(self):
        if not cmath.isfinite(self.value):
            raise InvalidConstant(f"constant {self.value!r} is not finite")


@dataclass(frozen=True, eq=False)
class Var(Expr):
    pass


@dataclass(frozen=True, eq=False)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    a: Expr
    n: int


@dataclass(frozen=True, eq=False)
class Exp(Expr):
    a: Expr


@dataclass(frozen=True, eq=False)
class Log(Expr):
    a: Expr


@dataclass(frozen=True, eq=False)
class Sinh(Expr):
    a: Expr


@dataclass(frozen=True, eq=False)
class Cosh(Expr):
    a: Expr


Z = Var()


def const(value) -> Const:
    return Const(complex(value))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return const(x)


def _fold(node, op, *args):
    """``node``, or the Const of ``op`` over the values of ``args`` when
    every operand is a Const and the value is finite; 0/0, 0^(-1) and an
    overflow keep the node for evaluation to report."""
    if all(isinstance(x, Const) for x in args):
        try:
            value = op(*(x.value for x in args))
        except (ZeroDivisionError, OverflowError):
            return node
        if cmath.isfinite(value):
            return Const(value)
    return node


def add(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    return _fold(Add(a, b), operator.add, a, b)


def sub(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    return _fold(Sub(a, b), operator.sub, a, b)


def mul(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    return _fold(Mul(a, b), operator.mul, a, b)


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    return _fold(Div(a, b), operator.truediv, a, b)


def neg(a) -> Expr:
    a = _coerce(a)
    return _fold(Neg(a), operator.neg, a)


def powi(a, n) -> Expr:
    a, n = _coerce(a), int(n)
    return _fold(Pow(a, n), lambda x: x ** n, a)


def exp(a) -> Expr:
    return Exp(_coerce(a))


def log(a) -> Expr:
    return Log(_coerce(a))


def sinh(a) -> Expr:
    return Sinh(_coerce(a))


def cosh(a) -> Expr:
    return Cosh(_coerce(a))


# ---------------------------------------------------------------------------
# exact primitives of exponential-Laurent polynomials
# ---------------------------------------------------------------------------

def _merge(out, key, c):
    c = out.get(key, 0j) + c
    if c == 0:
        out.pop(key, None)
    else:
        out[key] = c


def _nf_add(p, q, sign=1):
    out = dict(p)
    for key, c in q.items():
        _merge(out, key, sign * c)
    return out


def _nf_mul(p, q):
    out = {}
    for (n1, k1), c1 in p.items():
        for (n2, k2), c2 in q.items():
            _merge(out, (n1 + n2, k1 + k2), c1 * c2)
    return out


def _nf_exp(p, s):
    """Normal form of exp(s * arg) for an affine argument ``p``."""
    if not set(p) <= {(0, 0j), (1, 0j)}:
        return None
    return {(0, s * p.get((1, 0j), 0j)): cmath.exp(s * p.get((0, 0j), 0j))}


def _monomial(p):
    """(n, k, c) when the form p is the one term c z^n e^{kz}, else None."""
    if len(p) == 1:
        ((n, k), c), = p.items()
        return n, k, c
    return None


def _normal_form(e, memo):
    """``_read_normal_form`` of e, memoised by id(node) in ``memo``."""
    key = id(e)
    if key not in memo:
        memo[key] = _read_normal_form(e, memo)
    return memo[key]


def _read_normal_form(e, memo):
    if isinstance(e, Const):
        return {(0, 0j): e.value} if e.value != 0 else {}
    if isinstance(e, Var):
        return {(1, 0j): 1 + 0j}
    args = [_normal_form(getattr(e, f), memo)
            for f in ("a", "b") if hasattr(e, f)]
    if any(p is None for p in args):
        return None
    p = args[0]
    if isinstance(e, (Add, Sub)):
        return _nf_add(p, args[1], 1 if isinstance(e, Add) else -1)
    if isinstance(e, Neg):
        return {key: -c for key, c in p.items()}
    if isinstance(e, Mul):
        return _nf_mul(p, args[1])
    if isinstance(e, Div):
        # only a single c z^n e^{kz} divides within the class
        t = _monomial(args[1])
        return None if t is None else _nf_mul(p, {(-t[0], -t[1]): 1 / t[2]})
    if isinstance(e, Pow) and e.n >= 0:
        out = {(0, 0j): 1 + 0j}
        for _ in range(e.n):
            out = _nf_mul(out, p)
        return out
    if isinstance(e, Pow):
        t = _monomial(p)
        return None if t is None else {(e.n * t[0], e.n * t[1]): t[2] ** e.n}
    if isinstance(e, Exp):
        return _nf_exp(p, 1)
    if isinstance(e, (Sinh, Cosh)):
        up, down = _nf_exp(p, 1), _nf_exp(p, -1)
        if up is None:
            return None
        half = 0.5 if isinstance(e, Cosh) else -0.5
        return _nf_add({key: 0.5 * c for key, c in up.items()},
                       {key: half * c for key, c in down.items()})
    return None


def normal_forms(exprs) -> tuple:
    """Each of ``exprs`` as a dict {(n, k): c} of terms c z^n e^{kz} with
    nonzero c, or None outside the class of finite sums of such terms with
    integer n, negative only where k = 0, and finite c and k: constants,
    z, sums, differences and products of the class, powers n >= 0, any
    power of and quotient by a single c z^n e^{kz}, and exp, sinh and cosh
    of an affine argument (not log, nor z^{-m} e^{kz} with k != 0, an
    exponential integral).  One memo serves them all, so a subtree they
    share is read once; the forms are shared, and read-only."""
    memo, out = {}, []
    for e in exprs:
        try:
            nf = _normal_form(e, memo)
        except (OverflowError, ZeroDivisionError):
            nf = None
        finite = nf is not None and all(
            (n >= 0 or k == 0) and cmath.isfinite(k) and cmath.isfinite(c)
            for (n, k), c in nf.items())
        out.append(nf if finite else None)
    return tuple(out)


def residue(nf):
    """The c/z coefficient c of the form ``nf`` (0 with none; None for
    None): c log z has the real period Re(2 pi i c) around 0."""
    return None if nf is None else nf.get((-1, 0j), 0j)


def primitive_form(nf):
    """Exact primitive F of the expression whose form is ``nf`` (see
    ``normal_forms``) as ({(m, k): c}, r): F is the sum of the terms
    c z^m e^{kz}, each c nonzero, plus r log z, r the z^{-1} coefficient
    of ``nf`` (0 with none); None for None or a coefficient or exponent
    beyond float range.  The primitive of z^n (k = 0) is z^{n+1}/(n+1)
    for n != -1 and log z for n = -1, and that of z^n e^{kz} (n >= 0) the
    integration by parts sum e^{kz} sum_j (-1)^j n!/(n-j)! z^{n-j} / k^{j+1}.
    """
    if nf is None:
        return None
    out = {}
    try:
        for (n, k), c in nf.items():
            if k == 0:
                if n != -1:
                    _merge(out, (n + 1, 0j), c / (n + 1))
                continue
            coef = c / k
            for j in range(n + 1):
                _merge(out, (n - j, k), coef)
                coef *= -(n - j) / k
    except OverflowError:
        return None     # an exponent n + 1 beyond float range
    if not all(cmath.isfinite(c) for c in out.values()):
        return None
    return out, residue(nf)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_const(v: complex):
    """Render a complex constant; returns (text, precedence)."""
    re, im = v.real, v.imag
    if im == 0:
        s = _fmt_real(re)
        return s, (_PREC_UNARY if re < 0 else _PREC_ATOM)
    if re == 0:
        if im == 1:
            return "i", _PREC_ATOM
        if im == -1:
            return "-i", _PREC_UNARY
        return f"{_fmt_real(im)}*i", _PREC_MUL
    sign = "+" if im >= 0 else "-"
    mag = abs(im)
    istr = "i" if mag == 1 else f"{_fmt_real(mag)}*i"
    return f"({_fmt_real(re)}{sign}{istr})", _PREC_ATOM


def _render(e: Expr):
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "z", _PREC_ATOM
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        a = _wrap(e.a, _PREC_ADD)
        b = _wrap(e.b, _PREC_ADD + 1)
        return f"{a}{op}{b}", _PREC_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        a = _wrap(e.a, _PREC_MUL)
        b = _wrap(e.b, _PREC_MUL + 1)
        return f"{a}{op}{b}", _PREC_MUL
    if isinstance(e, Neg):
        return f"-{_wrap(e.a, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(e, Pow):
        base = _wrap(e.a, _PREC_POW + 1)
        expo = str(e.n) if e.n >= 0 else f"({e.n})"
        return f"{base}^{expo}", _PREC_POW
    for cls, name in ((Exp, "exp"), (Log, "log"), (Sinh, "sinh"), (Cosh, "cosh")):
        if isinstance(e, cls):
            return f"{name}({to_source(e.a)})", _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, min_prec: int) -> str:
    text, prec = _render(e)
    return f"({text})" if prec < min_prec else text


def to_source(e: Expr) -> str:
    """Infix text form that ``parse`` reads back as the same tree, up to
    the folding of constant operands: a tree evaluates as its text reads.
    A ``+`` or ``-`` right operand of ``+`` or ``-`` is parenthesised."""
    return _render(e)[0]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_FUNCS = {"exp": exp, "log": log, "sinh": sinh, "cosh": cosh}
_BINARY = ({"+": add, "-": sub}, {"*": mul, "/": div})   # loosest first

MAX_DEPTH = 100   # the parser and every tree walker recurse: see ``parse``


# ``dot`` is a second '.'; every token ends where the match ends
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>(?:\d+\.?\d*|\.\d+)(?:(?P<dot>\.)|(?:[eE][+-]?\d+)?i?))
  | (?P<name>[^\W\d]\w*)
  | (?P<op>\*\*|[-+*/^(),])
  | (?P<stray>.)
  | (?P<end>\Z))""", re.VERBOSE)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        """The next token as (kind, value, start, end)."""
        m = _TOKEN.match(self.text, self.pos)
        kind, end = m.lastgroup, m.end()
        text = m[kind]
        start = end - len(text)
        if kind == "number":
            if m["dot"]:
                raise ParseError("second '.' in a number", end - 1)
            value = (complex(0.0, float(text[:-1])) if text[-1] == "i"
                     else complex(float(text), 0.0))
            return (kind, value, start, end)
        if kind == "stray":
            raise ParseError(f"unexpected character {text!r}", start)
        return (kind, "^" if text == "**" else text, start, end)

    def next(self):
        tok = self.peek()
        self.pos = tok[3]
        return tok


class _Parser:
    """Recursive descent over +- / */ / unary - / ^ with integer exponents.
    Each method takes the count of parentheses and prefix signs open
    (``nest``) and returns a tree and its height, a constant's being 1."""

    def __init__(self, text: str):
        self.lex = _Lexer(text)

    def parse(self) -> Expr:
        e, _ = self._chain(0)
        tok = self.lex.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def _within(self, depth, tok):
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH}", tok[2])
        return depth

    def _node(self, e, heights, tok):
        return e, self._within(1 if isinstance(e, Const) else 1 + max(heights), tok)

    def _chain(self, nest, level=0):
        """A left-associative chain of ``_BINARY[level]``'s operators over
        chains of the next level, or over factors after the last level."""
        ops, last = _BINARY[level], level + 1 == len(_BINARY)
        e, h = self._factor(nest) if last else self._chain(nest, level + 1)
        while (tok := self.lex.peek())[0] == "op" and tok[1] in ops:
            self.lex.next()
            rhs, hr = self._factor(nest) if last else self._chain(nest, level + 1)
            e, h = self._node(ops[tok[1]](e, rhs), (h, hr), tok)
        return e, h

    def _factor(self, nest):
        tok = self.lex.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.lex.next()
            e, h = self._factor(self._within(nest + 1, tok))
            return self._node(neg(e), (h,), tok) if tok[1] == "-" else (e, h)
        return self._power(nest)

    def _power(self, nest):
        base, h = self._atom(nest)
        tok = self.lex.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.lex.next()
            return self._node(powi(base, self._exponent(nest)), (h,), tok)
        return base, h

    def _exponent(self, nest) -> int:
        tok = self.lex.next()
        sign = 1
        if tok[0] == "op" and tok[1] == "(":
            n = self._exponent(self._within(nest + 1, tok))
            close = self.lex.next()
            if close[:2] != ("op", ")"):
                raise ParseError("expected ')' after exponent", close[2])
            return n
        if tok[0] == "op" and tok[1] in "+-":
            sign = -1 if tok[1] == "-" else 1
            tok = self.lex.next()
        if tok[0] != "number" or tok[1].imag != 0 or tok[1].real != int(tok[1].real):
            raise ParseError("exponent must be an integer", tok[2])
        return sign * int(tok[1].real)

    def _atom(self, nest):
        tok = self.lex.next()
        if tok[0] == "number":
            return Const(tok[1]), 1
        if tok[0] == "name":
            name = tok[1]
            if name in ("z", "zeta"):
                return Z, 1
            if name == "i":
                return Const(1j), 1
            if name in _FUNCS:
                open_ = self.lex.next()
                if open_[:2] != ("op", "("):
                    raise ParseError(f"expected '(' after {name}", open_[2])
                arg, h = self._chain(self._within(nest + 1, open_))
                close = self.lex.next()
                if close[:2] != ("op", ")"):
                    raise ParseError(f"expected ')' closing {name}(...)", close[2])
                return self._node(_FUNCS[name](arg), (h,), tok)
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        if tok[0] == "op" and tok[1] == "(":
            group = self._chain(self._within(nest + 1, tok))
            close = self.lex.next()
            if close[:2] != ("op", ")"):
                raise ParseError("expected ')'", close[2])
            return group
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse(text: str) -> Expr:
    """Parse infix expression text, e.g. ``"-i*exp(-z)"`` or ``"1/z^2"``.

    ParseError where the tree's height, or the count of parentheses and
    prefix signs open, passes MAX_DEPTH; a depth-100 tree leaves Python's
    default recursion limit hundreds of frames for its walkers' callers."""
    return _Parser(text).parse()
