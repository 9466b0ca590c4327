"""Expression AST: evaluation, normal forms and primitives, parsing."""

import math

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf.domain import DomainSpec
from minsurf.engine import compile_expr, eval_program, evaluate
from minsurf.errors import EvaluationSingularity, InvalidConstant, ParseError
from minsurf.nullcurve import from_weierstrass
from minsurf.transforms import (apply_transform, associate, parabolic_deform,
                                parabolic_deform_rotated,
                                parabolic_rotation_matrix)

from conftest import primitive_derivative, random_complex


def test_eval_exp_at_zero():
    assert evaluate(ex.exp(ex.Z), 0j) == 1 + 0j


def test_eval_helicoid_height_factor_at_zero():
    e = ex.parse("-i*exp(-z)")
    assert evaluate(e, 0j) == -1j


def test_eval_inverse_square():
    assert evaluate(ex.parse("1/z^2"), 1 + 0j) == 1 + 0j


def test_eval_array_matches_scalar(rng):
    e = ex.parse("(2-3i)*z^2 + sinh(z)/cosh(z)")
    zs = random_complex(rng, 20)
    arr = evaluate(e, zs)
    for z, v in zip(zs, arr):
        assert abs(evaluate(e, complex(z)) - v) < 1e-14


def test_eval_singularity():
    with pytest.raises(EvaluationSingularity):
        evaluate(ex.parse("1/z"), 0j)
    with pytest.raises(EvaluationSingularity):
        evaluate(ex.log(ex.Z), 0j)
    # constant powers that Python cannot fold are left to evaluation
    for text in ("0^(-1)", "1e200^2"):
        e = ex.parse(text)
        assert isinstance(e, ex.Pow)
        assert isinstance(ex.parse(ex.to_source(e)), ex.Pow)
        with pytest.raises(EvaluationSingularity):
            evaluate(e, 1.0)


def test_log_branch_cut_rotation():
    # principal branch jumps across the negative axis; a cut along the
    # positive imaginary axis makes -1 evaluate continuously from below
    z = -1 + 0j
    principal = evaluate(ex.log(ex.Z), z)
    assert abs(principal - 1j * math.pi) < 1e-15
    rotated = evaluate(ex.log(ex.Z), z, cut=math.pi / 2)
    assert abs(rotated + 1j * math.pi) < 1e-15


def test_parse_round_trip(rng):
    texts = ["-i*exp(-z)", "1/z^2", "(2-3i)*z^(-2)+sinh(z)",
             "0.5*(1-z^2)*exp(-z)", "z^3-2*z+i"]
    zs = random_complex(rng, 12)
    for text in texts:
        e = ex.parse(text)
        e2 = ex.parse(ex.to_source(e))
        assert np.allclose(evaluate(e, zs), evaluate(e2, zs), rtol=0, atol=1e-15)


def test_parse_imaginary_literal():
    assert evaluate(ex.parse("2-3i"), 0j) == 2 - 3j
    assert evaluate(ex.parse("1.5i*z"), 2 + 0j) == 3j


def test_parse_double_star_power():
    assert evaluate(ex.parse("z**3"), 2 + 0j) == 8 + 0j


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as info:
        ex.parse("exp(z) + $")
    assert info.value.offset == 9
    with pytest.raises(ParseError):
        ex.parse("z^z")  # non-integer exponent
    with pytest.raises(ParseError):
        ex.parse("foo(z)")


@pytest.mark.parametrize("text, offset", [
    ("z)", 1),          # trailing input
    ("(z", 2),          # a missing ')'
    ("exp(z", 5),       # a function call left open
    ("z^(2", 4),        # an exponent left open
    ("exp z", 4),       # a function name without '('
    ("", 0),            # empty input
    ("   ", 3),
    ("1.2.3*z", 3),     # a second '.' in one number
    ("2*.5.", 4),
])
def test_parse_errors_carry_their_offset(text, offset):
    with pytest.raises(ParseError) as info:
        ex.parse(text)
    assert info.value.offset == offset


@pytest.mark.parametrize("text, want", [
    ("1.2.3*z", ("second '.' in a number", 3)),
    ("1..2", ("second '.' in a number", 2)),
    (".5.", ("second '.' in a number", 2)),
    ("1.e5", "100000"),
    ("1e5.3", ("trailing input (0.3+0j)", 3)),
    ("1e", ("trailing input 'e'", 1)),       # an exponent needs a digit
    ("1e+", ("trailing input 'e'", 1)),
    ("2.5e-3i", "0.0025*i"),
    ("z**2", "z^2"),
    (" z ", "z"),
    ("٣*z", "3*z"),                          # a decimal digit of any script
    (".", ("unexpected character '.'", 0)),
    ("z^²", ("exponent must be an integer", 2)),   # not a decimal digit
    ("²", ("unknown identifier '²'", 0)),
])
def test_the_scanner_reads_numbers_and_stray_characters(text, want):
    if isinstance(want, str):
        assert ex.to_source(ex.parse(text)) == want
        return
    message, offset = want
    with pytest.raises(ParseError) as info:
        ex.parse(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("+".join(["z"] * 400), 199),              # the '+' making 101 terms
    ("z*" * 400 + "z", 199),
    ("exp(" * 400 + "z" + ")" * 400, 403),     # the 101st exp's '('
    ("(" * 200 + "z" + ")" * 200, 100),        # the 101st '('
    ("-" * 2000 + "z", 100),                   # the 101st prefix sign
    ("z^" + "(" * 2000 + "2" + ")" * 2000, 102),
], ids=["sum", "product", "exp", "parentheses", "signs", "exponent"])
def test_parse_refuses_an_expression_past_its_depth_bound(text, offset):
    # refused while parsing, before the parser's own recursion overflows
    with pytest.raises(ParseError, match="deeper than 100") as info:
        ex.parse(text)
    assert info.value.offset == offset


@pytest.mark.parametrize("text", [
    "+".join(["z"] * 100),
    "(" * 100 + "z" + ")" * 100,
    "exp(" * 99 + "z" + ")" * 99,
    "-(" * 50 + "z" + ")" * 50,
    "+".join(["1"] * 400),                     # folds to one constant
], ids=["sum", "parentheses", "exp", "signs", "constants"])
def test_an_expression_at_the_depth_bound_passes_every_walker(text):
    e = ex.parse(text)
    ex.normal_forms((e,))
    compile_expr(e)
    ex.parse(ex.to_source(e))


@pytest.mark.parametrize("tree", [
    ex.mul(ex.div(1, ex.Z), 0),
    ex.div(0, ex.Z),
    ex.mul(0, ex.log(ex.Z)),
    ex.mul(ex.powi(ex.Z, -2), 0),
])
def test_zero_does_not_absorb_a_singularity(tree):
    assert not isinstance(tree, ex.Const)
    with pytest.raises(EvaluationSingularity):
        evaluate(tree, 0j)
    assert evaluate(tree, 2 + 1j) == 0
    assert evaluate(ex.parse(ex.to_source(tree)), 2 + 1j) == 0


def test_zero_factor_is_kept_as_written(rng):
    poly = ex.mul(ex.add(ex.powi(ex.Z, 3), ex.Z), ex.sinh(ex.mul(2, ex.Z)))
    zs = random_complex(rng, 8)
    for tree in (ex.mul(poly, 0), ex.mul(0, poly), ex.mul(0, ex.exp(ex.Z))):
        assert isinstance(tree, ex.Mul)
        assert np.all(evaluate(tree, zs) == 0)
    assert ex.to_source(ex.div(0, 2j)) == "0"     # constants still fold


@pytest.mark.parametrize("text", ["1/log(z)", "exp(log(z))"])
def test_only_outputs_are_checked_for_finiteness(text):
    # log(0) = -inf is an intermediate here: the removable limit 0 is
    # returned, not reported
    assert evaluate(ex.parse(text), 0j) == 0


_FUZZ_KINDS = (ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Neg, ex.Pow, ex.Exp, ex.Log,
               ex.Sinh, ex.Cosh)


def _raw_tree(rng, depth, leaf, consts):
    """A random tree of depth at most ``depth``, built from the node
    classes, so that no smart constructor folds it.  A node is a leaf
    (z or one of ``consts``) with probability ``leaf``, and at depth 0."""
    if depth == 0 or rng.random() < leaf:
        k = rng.integers(len(consts) + 1)
        return ex.Z if k == len(consts) else ex.Const(complex(consts[k]))
    kind = _FUZZ_KINDS[rng.integers(len(_FUZZ_KINDS))]
    sub = lambda: _raw_tree(rng, depth - 1, leaf, consts)
    if kind in (ex.Add, ex.Sub, ex.Mul, ex.Div):
        return kind(sub(), sub())
    if kind is ex.Pow:
        return ex.Pow(sub(), int(rng.integers(-2, 4)))
    return kind(sub())


def _round_trips(leaf, consts):
    """(source, values as built, values of parse(source)) of 5000 seeded
    random trees: the parse goes through the smart constructors."""
    rng = np.random.default_rng(0)
    z = np.array([0, 0.5 + 0.3j, -0.7 + 0.9j, 1.1 - 0.4j, -0.2 - 1.3j])
    for _ in range(5000):
        tree = _raw_tree(rng, 4, leaf, consts)
        source = ex.to_source(tree)
        yield (source, eval_program(compile_expr(tree), z),
               eval_program(compile_expr(ex.parse(source)), z))


def _fold_mismatches(leaf, consts):
    """Sources of the seeded random trees whose folded form turns a NaN
    into a value or changes a finite one."""
    bad = []
    for source, raw, folded in _round_trips(leaf, consts):
        finite = np.isfinite(raw)
        with np.errstate(invalid="ignore"):
            close = np.abs(raw - folded) <= 1e-12 * np.maximum(np.abs(raw), 1)
        if (not np.array_equal(finite, np.isfinite(folded))
                or not np.all(close[finite])):
            bad.append(source)
    return bad


def test_folding_keeps_finiteness_and_values_of_random_trees():
    # unit factors were once dropped beside 1/0: (1+0j)*inf is NaN
    assert _fold_mismatches(0.2, (0, 1, -1, 2, 0.5j, 1 - 1j)) == []


def test_folding_keeps_finiteness_and_values_of_deeper_random_trees():
    # deeper trees reach (x^(-1))^3 beside an infinite x, which once
    # folded to x^(-3): NaN where the tree as written is 0
    assert _fold_mismatches(0.1, (0, 1, -1, 2, 0.5j)) == []


def test_folding_keeps_the_sign_of_a_zero():
    # at z = 0, -1*z is -0+0j and -z is -0-0j: writing one for the other
    # puts exp(sinh(log(-1*z))) on the other side of log's cut
    assert _fold_mismatches(0.1, (0, 1, -1, 0.5j)) == []
    assert ex.to_source(ex.parse("-1*z")) == "-1*z"


def test_trees_over_exact_constants_round_trip_bitwise():
    # every constant fold of {0, 1, -1, 0.5i} is exact, so a tree and its
    # printed text evaluate to the same values
    bad = [source for source, raw, folded in _round_trips(0.2, (0, 1, -1, 0.5j))
           if not np.array_equal(raw, folded, equal_nan=True)]
    assert bad == []


def test_printer_keeps_a_right_operand_sum_grouped():
    # z+sinh(1)-1 would parse as (z+sinh(1))-1
    e = ex.Add(ex.Z, ex.Sub(ex.sinh(1), ex.const(1)))
    assert ex.to_source(e) == "z+(sinh(1)-1)"
    back = ex.parse(ex.to_source(e))
    assert isinstance(back, ex.Add) and isinstance(back.b, ex.Sub)
    assert ex.to_source(ex.Sub(ex.Z, ex.Add(ex.Z, ex.Z))) == "z-(z+z)"


def test_operator_overloading_matches_constructors(rng):
    z = ex.Z
    e1 = (1 - z ** 2) / (1 + z ** 2) - ex.exp(-z) * 0.5
    e2 = ex.sub(ex.div(ex.sub(1, ex.powi(z, 2)), ex.add(1, ex.powi(z, 2))),
                ex.mul(ex.const(0.5), ex.exp(ex.neg(z))))
    zs = random_complex(rng, 8)
    assert np.allclose(evaluate(e1, zs), evaluate(e2, zs), atol=1e-15)


def test_noops_are_kept_as_written():
    z = ex.Z
    for tree, text in ((ex.add(z, 0), "z+0"), (ex.sub(0, z), "0-z"),
                       (ex.mul(1, z), "1*z"), (ex.mul(z, -1), "z*-1"),
                       (ex.mul(2, ex.mul(3, z)), "2*(3*z)"),
                       (ex.div(z, 1), "z/1"), (ex.neg(ex.neg(z)), "--z"),
                       (ex.powi(z, 0), "z^0"), (ex.powi(z, 1), "z^1")):
        assert ex.to_source(tree) == text
        assert ex.to_source(ex.parse(text)) == text


@pytest.mark.parametrize("make, binary", [
    (ex.add, True), (ex.sub, True), (ex.mul, True), (ex.div, True),
    (lambda a, b: ex.neg(a), False), (lambda a, b: ex.powi(a, 2), False),
])
def test_only_constant_operands_fold(make, binary):
    a, b = ex.const(1.5 - 2j), ex.const(0.5)
    folded = make(a, b)
    assert isinstance(folded, ex.Const)
    assert folded.value == evaluate(make(ex.Z, b), a.value)
    for x in (ex.Z, ex.exp(a)):
        assert not isinstance(make(x, b), ex.Const)
        assert not binary or not isinstance(make(b, x), ex.Const)


def test_negative_power_of_a_negative_power_is_not_folded():
    # (z^(-1))^(-1) is singular at 0, where z would evaluate to 0
    e = ex.parse("(z^(-1))^(-1)")
    assert isinstance(e, ex.Pow) and isinstance(e.a, ex.Pow)
    assert (e.n, e.a.n) == (-1, -1)
    with pytest.raises(EvaluationSingularity):
        evaluate(e, 0j)
    assert evaluate(e, 2 + 1j) == pytest.approx(2 + 1j, abs=1e-15)


def test_power_of_a_power_is_kept_as_written():
    for text in ("(z^2)^3", "(z^(-2))^3", "(z^2)^(-3)", "(exp(z)^(-1))^(-1)"):
        e = ex.parse(text)
        assert isinstance(e, ex.Pow) and isinstance(e.a, ex.Pow)
        assert ex.to_source(e) == text
    # a power of a constant folds
    assert ex.powi(ex.powi(2, 3), 2).value == 64


def _in_class_curves():
    """The catalog curves, all of the exponential-Laurent class, and their
    deformations: parabolic rotations and associates."""
    curves = []
    for name, w in (("helicoid", cat.helicoid()),
                    ("catenoid-exp", cat.catenoid_exp()),
                    ("catenoid", cat.catenoid())):
        base = from_weierstrass(w)
        curves += [(name, base),
                   (f"{name} parabolic", parabolic_deform(w, 1.3 - 0.8j)),
                   (f"{name} rotated", parabolic_deform_rotated(w, 1.1)),
                   (f"{name} associate", associate(base, 0.7))]
    for name, c in (("osserman-graph", cat.osserman_graph()),
                    ("lagrangian-catenoid", cat.lagrangian_catenoid()),
                    ("complex-parabola", cat.complex_parabola(0.6 + 1.1j))):
        curves += [(name, c), (f"{name} associate", associate(c, -1.2)),
                   (f"{name} parabolic", apply_transform(
                       parabolic_rotation_matrix(-0.4 + 0.9j), c))]
    ho = cat.hoffman_osserman(1 + 1j, 2, 1, 1)   # five components
    return curves + [("hoffman-osserman", ho),
                     ("hoffman-osserman associate", associate(ho, 0.4))]


IN_CLASS = _in_class_curves()


def _form(e):
    """The normal form of one expression, or of its text."""
    (nf,) = ex.normal_forms((ex.parse(e) if isinstance(e, str) else e,))
    return nf


@pytest.mark.parametrize("name, curve", IN_CLASS, ids=[n for n, _ in IN_CLASS])
def test_antiderivative_differentiates_back_to_each_component(name, curve):
    z = curve.domain.sample_points(64)
    for comp, nf in zip(curve.components, curve.forms):
        form = ex.primitive_form(nf)
        assert form is not None
        want = evaluate(comp, z)
        got, scale = primitive_derivative(form, z)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want) <= 8 * eps * (1 + scale))


@pytest.mark.parametrize("text, terms", [
    # ({(m, k): c}, r): F = sum of c z^m e^{kz}, plus r log z
    ("3", ({(1, 0): 3}, 0)),
    ("z^3", ({(4, 0): 0.25}, 0)),
    ("-i*exp(-z)", ({(0, -1): 1j}, 0)),
    ("z*exp(2*z)", ({(1, 2): 0.5, (0, 2): -0.25}, 0)),
    ("1/exp(z)", ({(0, -1): -1}, 0)),
    ("cosh(z)", ({(0, 1): 0.5, (0, -1): -0.5}, 0)),
    ("0", ({}, 0)),
    ("1/z", ({}, 1)),
    ("z^(-2)", ({(-1, 0): -1}, 0)),
    ("(2-3i)/z^3+1/z", ({(-2, 0): -1 + 1.5j}, 1)),
    ("(1-i)/(2*z)", ({}, 0.5 - 0.5j)),
    ("(z^(-1))^(-1)", ({(2, 0): 0.5}, 0)),
    ("exp(z)/(z*exp(z))", ({}, 1)),
    ("exp(z)/z*exp(-z)", ({}, 1)),
])
def test_antiderivative_terms(text, terms):
    assert ex.primitive_form(_form(text)) == terms


def test_antiderivative_of_the_laurent_catalog_curves():
    # the catenoid (z, 1/z^2) and Hoffman-Osserman: every component has a
    # primitive, and only the z^{-1} components a log term
    catenoid = from_weierstrass(cat.catenoid())
    ho = cat.hoffman_osserman(1 + 1j, 2, 1, 1)
    for curve, logs in ((catenoid, [0, 0, 1]), (ho, [0, 0, 1, 0, 0])):
        prims = [ex.primitive_form(nf) for nf in curve.forms]
        assert all(p is not None for p in prims)
        assert [r for _, r in prims] == logs
    assert [ex.residue(nf) for nf in catenoid.forms] == [0, 0, 1]
    assert [ex.residue(nf) for nf in ho.forms] == [0, 0, 1, 0, 0]


def test_antiderivative_outside_the_class_is_none():
    for text in ("log(z)", "z*log(z)", "exp(z^2)", "exp(z)*exp(z^2)",
                 "z^(-2)*exp(z)", "exp(z)/z", "z*exp(z)/z^2", "1/(z*exp(z))",
                 "1/(1+z)",
                 "1/(1+exp(z))", "sinh(1/z)", "exp(1/z)"):
        assert ex.primitive_form(_form(text)) is None, text
        assert ex.residue(_form(text)) is None, text
    assert ex.primitive_form(None) is None


@pytest.mark.parametrize("text, res", [
    ("1/z", 1), ("(2-3i)/z^3+(0.5+i)/z-z", 0.5 + 1j), ("exp(z)", 0),
    ("z^(-2)", 0), ("sinh(z)/z^0", 0), ("i*z/z^2", 1j),
])
def test_residue_is_the_z_inverse_coefficient(text, res):
    assert ex.residue(_form(text)) == res


@pytest.mark.parametrize("text", [
    "1/z", "z^(-2)", "(2-3i)/z^3+(0.5+i)/z-z", "(1+z)^3/z^4",
    "(z^(-1))^(-1)", "(0.5*z*exp(z))^(-2)*exp(2*z)", "(z-1/z)^2",
])
def test_laurent_primitives_differentiate_back(text):
    # on Halton samples of a punctured square, clear of the pole at 0
    e = ex.parse(text)
    z = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,)).sample_points(64)
    got, scale = primitive_derivative(ex.primitive_form(_form(e)), z)
    want = evaluate(e, z)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * (1 + scale))


def test_a_constant_is_finite():
    for value in (math.inf, complex(0, -math.inf), math.nan):
        with pytest.raises(InvalidConstant):
            ex.const(value)
    with pytest.raises(InvalidConstant):
        ex.parse("1e400*z")


@pytest.mark.parametrize("text", ["1e200*1e200", "-1e200*1e200", "1e308+1e308",
                                  "1e200/1e-200", "1/0", "0/0", "1e200^2"])
def test_a_fold_beyond_float_range_keeps_its_node(text):
    e = ex.parse(text)
    assert not isinstance(e, ex.Const)
    assert ex.to_source(ex.parse(ex.to_source(e))) == ex.to_source(e)
    with pytest.raises(EvaluationSingularity):
        evaluate(e, 1.0)


@pytest.mark.parametrize("text", [
    "1e300*z*exp(1e-300*z)",     # coefficients inf and -inf+nan i
    "exp(1e200*1e200*z)",        # an infinite exponent
    "exp(800+z)",                # e^800 overflows in the normal form
    "(1e-200*exp(z))^(-2)",      # 1/(1e-200)^2 divides by zero
    "(z^(-1e200))^(-1e200)",     # z^(1e400): n + 1 is no float
    "sinh(z^2)", "cosh(z^2)",    # not an affine argument
])
def test_antiderivative_beyond_float_range_or_the_class_is_none(text):
    assert ex.primitive_form(_form(text)) is None


def test_operators_build_the_constructors_nodes():
    z = ex.Z
    assert ex.to_source(z + 1) == "z+1"
    assert ex.to_source(1 + z) == "1+z"
    assert ex.to_source(2 * z) == "2*z"
    assert ex.to_source(1 / z) == "1/z"
    assert ex.to_source(1 - z) == "1-z"
    assert str(z ** 2 - 1) == "z^2-1"


def test_parse_unary_plus_and_an_unexpected_token():
    assert ex.to_source(ex.parse("+z*+2")) == "z*2"
    with pytest.raises(ParseError) as info:
        ex.parse("2*)")
    assert info.value.offset == 2 and "unexpected token ')'" in str(info.value)


@pytest.mark.parametrize("call", [ex.to_source,
                                  lambda x: compile_expr((ex.Z, x))])
def test_a_non_node_is_a_type_error(call):
    with pytest.raises(TypeError, match="not an expression node"):
        call(2.5)
