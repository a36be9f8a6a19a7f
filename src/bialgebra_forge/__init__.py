"""Exact symbolic verification of Lie bialgebra deformation families and
parameter-dependent Hopf algebra presentations, over Gaussian rationals."""

from .scalars import Scalar, I, ONE, ZERO
from .params import ParamPoly
from .tensors import (
    FAMILY_PARAMS, Basis, BracketTensor, CobracketTensor, DeformationFamily,
    antisymmetry_defect, build_family, check_four_pairs, cocycle_defect,
    cojacobi_defect, jacobi_defect, lie_checks,
)
from .ncpoly import Context, NCPoly, TensorNCPoly, series_apply, tensor
from .rewrite import (
    RelationTable, commutator, normal_form_word, normalize, normalize_tensor,
    presentation_jacobi_defect,
)
from .exprparse import parse_coefficient, parse_expr, parse_scalar_text
from .hopf import (
    DefectReport, HopfPresentation, class_f_check, coassociativity_defect,
    coproduct_hom_defect, counit_defect, solve_antipode, specialize,
)
from .expansion import (
    CoefficientTable, TangentField, compare_field, extract_coefficients,
    tangent_field, verify_order2, verify_order3_thz,
)
from .document import (
    Document, composition_document, load_boundary_fixtures, load_bundled,
    load_tangent_fixtures, presentation_diff, presentation_document, read_expectation,
)

__version__ = "0.1.0"
