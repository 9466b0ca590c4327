"""One program per curve: shared subexpressions, bitwise agreement."""

import numpy as np
import pytest

from minsurf import catalog as cat
from minsurf import expr as ex
from minsurf.engine import compile_expr, eval_program, evaluate
from minsurf.nullcurve import WeierstrassData, from_weierstrass
from minsurf.transforms import parabolic_deform, parabolic_deform_rotated


def _curves():
    for entry in cat.entries():
        made = entry.make()
        yield entry.name, (from_weierstrass(made)
                           if isinstance(made, WeierstrassData) else made)
    yield "theorem51", parabolic_deform(cat.helicoid(), 1 + 1j)
    yield "corollary53", parabolic_deform_rotated(cat.catenoid_exp(), 0.7)


CURVES = dict(_curves())


@pytest.mark.parametrize("name", list(CURVES))
def test_fused_program_matches_each_component_bitwise(name):
    c = CURVES[name]
    z = c.domain.sample_points(257)
    cut = c.domain.branch_cut
    fused = evaluate(c.components, z, cut=cut)
    assert fused.shape == (c.n,) + z.shape
    for row, comp in zip(fused, c.components):
        assert np.array_equal(row.view(np.float64),
                              evaluate(comp, z, cut=cut).view(np.float64))
    assert np.array_equal(c(z), fused.T)


@pytest.mark.parametrize("name", list(CURVES))
def test_fused_program_shares_subexpressions(name):
    comps = CURVES[name].components
    fused = len(compile_expr(comps).ops)
    separate = sum(len(compile_expr(e).ops) for e in comps)
    if name == "complex-parabola":
        # (1, -i, 2z, -2iz): no instruction is common to two components
        assert fused == separate
    else:
        assert fused < separate


def test_theorem51_program_computes_shared_terms_once():
    comps = parabolic_deform(cat.helicoid(), 1 + 1j).components
    prog = compile_expr(comps)
    kinds = [op[1] for op in prog.ops]
    # exp(z), exp(-z) and exp(z)^2 appear in all four components
    assert kinds.count(ex.Exp) == 2
    assert kinds.count(ex.Pow) == 1
    assert len(prog.ops) < sum(len(compile_expr(e).ops) for e in comps)


def test_signed_zero_constants_stay_distinct():
    z = np.array([1 + 1j, -2.0, 0.5j])
    out = evaluate((ex.Const(0.0), ex.Const(-0.0)), z)
    assert out.shape == (2, 3)
    assert not np.any(np.signbit(out[0].real))
    assert np.all(np.signbit(out[1].real))
    assert len(compile_expr((ex.Const(0.0), ex.Const(-0.0))).consts) == 2


def test_intermediates_freed_once_after_last_use():
    comps = parabolic_deform_rotated(cat.catenoid_exp(), 0.7).components
    prog = compile_expr(comps)
    last = {}
    for i, (_, _, args, _, _) in enumerate(prog.ops):
        for s in args:
            last[s] = i
    freed = {}
    for i, (_, _, _, _, dead) in enumerate(prog.ops):
        for s in dead:
            assert s not in freed
            freed[s] = i
    assert freed == {s: i for s, i in last.items() if s not in prog.outputs}


def test_single_expression_keeps_input_shape():
    e = ex.parse("exp(z)/(z+3)")
    z = np.linspace(0, 1, 12).reshape(3, 4) + 0.5j
    assert eval_program(compile_expr(e), z).shape == (3, 4)
    assert eval_program(compile_expr((e, e)), z).shape == (2, 3, 4)
    assert isinstance(evaluate(e, 0.5), complex)
    assert evaluate((e, ex.Z), 0.5).shape == (2,)
