"""Closed-form holomorphic functions of one complex variable.

Expressions are immutable ASTs over {constants, the variable z, +, -, *, /,
integer powers, exp, log, sinh, cosh}.  Keeping them symbolic (rather than
opaque callables) buys exact differentiation, text round-tripping for the
CLI/JSON interfaces, and a compact instruction tape for fast bulk
evaluation (see ``engine``).

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
coefficients, ``antiderivative`` writes those terms as expressions, and
``residue`` reads the ``z^{-1}`` coefficient, whose primitive is the one
``log`` term.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass

from .errors import InvalidConstant, ParseError

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Exp", "Log", "Sinh", "Cosh",
    "Z", "const", "add", "sub", "mul", "div", "neg", "powi",
    "exp", "log", "sinh", "cosh", "normal_forms",
    "differentiate", "primitive_form", "antiderivative", "residue", "parse",
    "to_source",
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

_ZERO = Const(0.0 + 0.0j)
_ONE = Const(1.0 + 0.0j)


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
# exact differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr) -> Expr:
    """Exact d/dz of an expression, as a new AST."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Add):
        return add(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Sub):
        return sub(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Mul) and isinstance(e.a, Const):
        return mul(e.a, differentiate(e.b))   # no 0*b term to keep
    if isinstance(e, Mul):
        return add(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b)))
    if isinstance(e, Div) and isinstance(e.a, Const):
        db = differentiate(e.b)   # with no 1*db
        return div(neg(db if e.a.value == 1 else mul(e.a, db)), powi(e.b, 2))
    if isinstance(e, Div):
        num = sub(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b)))
        return div(num, powi(e.b, 2))
    if isinstance(e, Neg):
        return neg(differentiate(e.a))
    if isinstance(e, Pow):
        return mul(mul(const(e.n), powi(e.a, e.n - 1)), differentiate(e.a))
    if isinstance(e, Exp):
        return mul(e, differentiate(e.a))
    if isinstance(e, Log):
        return div(differentiate(e.a), e.a)
    if isinstance(e, Sinh):
        return mul(cosh(e.a), differentiate(e.a))
    if isinstance(e, Cosh):
        return mul(sinh(e.a), differentiate(e.a))
    raise TypeError(f"not an expression node: {e!r}")


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


def _scaled(c, x) -> Expr:
    """The node c x, written x or -x for c = 1 or -1."""
    if c == 1:
        return x
    return Neg(x) if c == -1 else Mul(Const(c), x)


def _term(c, m, k) -> Expr:
    """The node c z^m e^{kz} (m, k not both 0), with no factor z^0, e^{0z}
    or 1: each is entire, so leaving it out hides nothing."""
    power = Z if m == 1 else Pow(Z, m)
    growth = Exp(_scaled(k, Z))
    if k == 0:
        return _scaled(c, power)
    return _scaled(c, growth if m == 0 else Mul(power, growth))


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


def antiderivative(nf):
    """The terms of ``primitive_form`` as a tuple of expressions whose sum
    is F, or None: each c z^m e^{kz} with no factor z^0, e^{0z} or 1, and
    r log z last (on the branch cut the caller evaluates it with) when
    r != 0.  The zero function has the empty tuple as its primitive."""
    form = primitive_form(nf)
    if form is None:
        return None
    out, log_coef = form
    terms = tuple(_term(c, m, k) for (m, k), c in out.items())
    return terms if log_coef == 0 else terms + (_scaled(log_coef, Log(Z)),)


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


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        t, ch = self.text, self.text[self.pos]
        start = self.pos
        if ch.isdigit() or (ch == "." and start + 1 < len(t) and t[start + 1].isdigit()):
            j = start
            while j < len(t) and (t[j].isdigit() or t[j] == "."):
                if t[j] == "." and "." in t[start:j]:
                    raise ParseError("second '.' in a number", j)
                j += 1
            if j < len(t) and t[j] in "eE":
                k = j + 1
                if k < len(t) and t[k] in "+-":
                    k += 1
                if k < len(t) and t[k].isdigit():
                    j = k
                    while j < len(t) and t[j].isdigit():
                        j += 1
            if j < len(t) and t[j] == "i":
                return ("number", complex(0.0, float(t[start:j])), start, j + 1)
            return ("number", complex(float(t[start:j]), 0.0), start, j)
        if ch.isalpha() or ch == "_":
            j = start
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return ("name", t[start:j], start, j)
        if t.startswith("**", start):
            return ("op", "^", start, start + 2)
        if ch in "+-*/^(),":
            return ("op", ch, start, start + 1)
        raise ParseError(f"unexpected character {ch!r}", start)

    def next(self):
        tok = self.peek()
        if tok[0] != "end":
            self.pos = tok[3]
        return tok


class _Parser:
    """Recursive descent over +- / */ / unary - / ^ with integer exponents."""

    def __init__(self, text: str):
        self.lex = _Lexer(text)

    def parse(self) -> Expr:
        e = self._sum()
        tok = self.lex.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def _sum(self) -> Expr:
        e = self._term()
        while True:
            tok = self.lex.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.lex.next()
                rhs = self._term()
                e = add(e, rhs) if tok[1] == "+" else sub(e, rhs)
            else:
                return e

    def _term(self) -> Expr:
        e = self._factor()
        while True:
            tok = self.lex.peek()
            if tok[0] == "op" and tok[1] in "*/":
                self.lex.next()
                rhs = self._factor()
                e = mul(e, rhs) if tok[1] == "*" else div(e, rhs)
            else:
                return e

    def _factor(self) -> Expr:
        tok = self.lex.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.lex.next()
            return neg(self._factor())
        if tok[0] == "op" and tok[1] == "+":
            self.lex.next()
            return self._factor()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        tok = self.lex.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.lex.next()
            return powi(base, self._exponent())
        return base

    def _exponent(self) -> int:
        tok = self.lex.next()
        sign = 1
        if tok[0] == "op" and tok[1] == "(":
            n = self._exponent()
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

    def _atom(self) -> Expr:
        tok = self.lex.next()
        if tok[0] == "number":
            return Const(tok[1])
        if tok[0] == "name":
            name = tok[1]
            if name in ("z", "zeta"):
                return Z
            if name == "i":
                return Const(1j)
            if name in _FUNCS:
                open_ = self.lex.next()
                if open_[:2] != ("op", "("):
                    raise ParseError(f"expected '(' after {name}", open_[2])
                arg = self._sum()
                close = self.lex.next()
                if close[:2] != ("op", ")"):
                    raise ParseError(f"expected ')' closing {name}(...)", close[2])
                return _FUNCS[name](arg)
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        if tok[0] == "op" and tok[1] == "(":
            e = self._sum()
            close = self.lex.next()
            if close[:2] != ("op", ")"):
                raise ParseError("expected ')'", close[2])
            return e
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse(text: str) -> Expr:
    """Parse infix expression text, e.g. ``"-i*exp(-z)"`` or ``"1/z^2"``."""
    return _Parser(text).parse()
