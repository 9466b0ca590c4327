"""The public names of minsurf and of each submodule's ``__all__``, pinned.

A change that adds or removes a public name edits these sets, so that the
public surface moves only on purpose.
"""

import importlib
import types

import pytest

import minsurf

# dir(minsurf) without underscores and without submodules, which appear
# there as they are imported and are pinned by their own __all__ below
PACKAGE = {
    "AxisNotMonotone", "ConicFit", "DegeneracyReport", "DegenerateConic",
    "DegenerateInput", "DimensionMismatch", "DomainSpec",
    "EvaluationSingularity", "IllConditioned", "InvalidConstant",
    "MinsurfError", "NoConvergence", "NotHyperbola", "NotPlanar", "NullCurve",
    "NullResidualReport", "NullTransform", "ParametricSurface", "ParseError",
    "PlanarCurveSample", "SingularPath", "SurfacePatch", "WeierstrassData",
    "Z", "apply_transform", "associate", "asymptotes", "conformal_factor",
    "degeneracy_rank", "eccentricity", "embed_3_to_4", "evaluate",
    "export_mesh", "fit_conic", "from_weierstrass", "goursat",
    "goursat_parameter_for_scaling", "halton", "immerse",
    "integrate_segments", "is_complex_orthogonal", "lawson", "lopez_ros",
    "lorentz_parabolic_matrix", "normal_forms", "null_residual",
    "parabolic_deform", "parabolic_deform_matrix_route",
    "parabolic_deform_rotated", "parabolic_rotation_matrix",
    "parametric_immersion", "parse", "planar_sample", "quadratic_form",
    "real_period", "residue", "segre_LR_matrix", "slice_parameter_line",
    "slice_surface", "to_source", "verify_minimal",
}

ALL = {
    "catalog": {
        "CatalogEntry", "entries", "get", "helicoid", "catenoid",
        "catenoid_exp", "osserman_graph", "hoffman_osserman",
        "lagrangian_catenoid", "lagrangian_catenoid_patch",
        "complex_parabola", "complex_parabola_patch", "helicoid_closed_form",
        "catenoid_closed_form", "catenoid_exp_closed_form",
        "helicoid_deformation", "catenoid_deformation", "ellipse_semi_axes",
        "parabola_leading_coefficient",
    },
    "conic": {
        "PlanarCurveSample", "ConicFit", "ParametricSurface", "slice_surface",
        "slice_parameter_line", "planar_sample", "fit_conic", "eccentricity",
        "asymptotes",
    },
    "domain": {"DomainSpec", "halton", "real_numbers"},
    "engine": {"compile_expr", "evaluate", "eval_program", "Program"},
    "expr": {
        "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
        "Exp", "Log", "Sinh", "Cosh", "Z", "const", "add", "sub", "mul",
        "div", "neg", "powi", "exp", "log", "sinh", "cosh", "normal_forms",
        "primitive_form", "residue", "parse", "to_source", "MAX_DEPTH",
    },
    "nullcurve": {
        "WeierstrassData", "NullCurve", "NullResidualReport", "quadratic_form",
        "from_weierstrass", "embed_3_to_4", "null_residual", "NULL_TOLERANCE",
    },
    "quadrature": {
        "integrate_segments", "MAX_DEPTH", "CHUNK_NODES", "ROUNDOFF_FACTOR",
    },
    "specio": {"SurfaceSpec", "loads", "dumps", "load", "dump"},
    "surface": {
        "SurfacePatch", "DegeneracyReport", "immerse", "conformal_factor",
        "degeneracy_rank", "verify_minimal", "export_mesh",
        "parametric_immersion", "real_period", "RANK_CUTOFF", "BLOCK_POINTS",
    },
    "transforms": {
        "NullTransform", "apply_transform", "is_complex_orthogonal",
        "associate", "goursat", "goursat_parameter_for_scaling", "lopez_ros",
        "lawson", "parabolic_rotation_matrix", "segre_LR_matrix",
        "lorentz_parabolic_matrix", "parabolic_deform",
        "parabolic_deform_matrix_route", "parabolic_deform_rotated",
        "ORTHOGONALITY_TOLERANCE",
    },
}


def test_the_package_exports_the_pinned_names():
    names = {n for n in dir(minsurf) if not n.startswith("_")
             and not isinstance(getattr(minsurf, n), types.ModuleType)}
    assert names == PACKAGE


@pytest.mark.parametrize("module", sorted(ALL))
def test_each_submodule_exports_the_pinned_names(module):
    mod = importlib.import_module(f"minsurf.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == ALL[module]
    for name in mod.__all__:
        getattr(mod, name)
