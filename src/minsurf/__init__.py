"""Minimal surfaces from holomorphic null curves.

Build null curves from Weierstrass data or closed forms, deform them
(associate family, Goursat, Lopez-Ros, Lawson lift, parabolic rotations
of the C^4 null cone), integrate them into immersions in R^3..R^6, and
verify the geometry: nullity, conformality, harmonicity, Gauss-map
degeneracy, and the conic-section structure of coordinate level sets.
"""

from .domain import DomainSpec, halton
from .engine import evaluate
from .errors import (AxisNotMonotone, DegenerateConic, DegenerateInput,
                     DimensionMismatch, EvaluationSingularity, IllConditioned,
                     InvalidConstant, MinsurfError, NoConvergence,
                     NotHyperbola, NotPlanar, ParseError, SingularPath)
from .expr import Z, normal_forms, parse, residue, to_source
from .nullcurve import (NullCurve, NullResidualReport, WeierstrassData,
                        embed_3_to_4, from_weierstrass, null_residual,
                        quadratic_form)
from .quadrature import integrate_segments
from .transforms import (NullTransform, apply_transform, associate, goursat,
                         goursat_parameter_for_scaling, is_complex_orthogonal,
                         lawson, lopez_ros, lorentz_parabolic_matrix,
                         parabolic_deform, parabolic_deform_matrix_route,
                         parabolic_deform_rotated, parabolic_rotation_matrix,
                         segre_LR_matrix)
from .surface import (DegeneracyReport, SurfacePatch, conformal_factor,
                      degeneracy_rank, export_mesh, immerse,
                      parametric_immersion, real_period, verify_minimal)
from .conic import (ConicFit, ParametricSurface, PlanarCurveSample,
                    asymptotes, eccentricity, fit_conic, planar_sample,
                    slice_parameter_line, slice_surface)
from . import catalog

__version__ = "0.1.0"
