"""confalg: exact symbolic conformal superalgebras.

Finite free conformal (super)algebras over the rationals, represented by
structure constants: axiom checking for Leibniz and Lie conformal algebras,
the quadratic dictionary between conformal brackets and product/bracket data,
exact classification and central-extension cocycle solving (two independent
routes), and the coefficient (mode) superalgebra of a bracket.
"""

from .scalars import Scalar, ScalarError, as_rational, falling, binom
from .linalg import rref, rank, nullspace, span_basis, same_span, in_span
from .superspace import (SuperSpace, GradedBilinearMap, LinearMap,
                         AxiomReport, sign,
                         check_skew_symmetry, check_leibniz_superalgebra,
                         check_left_leibniz_superalgebra,
                         check_lie_superalgebra, to_left_superalgebra,
                         check_supercommutative, check_associative)
from .conformal import (VPoly, LambdaBracket, ConformalError,
                        VariableCaptureError, apply_bracket,
                        check_conformal_sesquilinearity, check_conformal_skew,
                        check_conformal_leibniz, check_conformal_jacobi,
                        to_left_conformal, build_current)
from .quadratic import (QuadraticData, StarMode, star_from_mode, zero_map,
                        build_quadratic_bracket,
                        check_structure_equations_t, check_anl,
                        check_associative_novikov, check_novikov,
                        check_gd_bialgebra, check_symmetrized_case,
                        check_star_trivial_case, check_circ_trivial_case,
                        check_averaging, build_assoc_novikov_from_averaging,
                        classify_brackets, ClassificationResult)
from .extensions import (CocycleAnsatz, SolutionSpace, PreconditionError,
                         unknown_order, assemble_cocycle_rows,
                         solve_cocycles_direct, check_cocycle_direct,
                         check_alpha_system,
                         solve_central_ext_anl,
                         solve_central_ext_assoc_novikov,
                         solve_leibniz_central_ext_gd,
                         extend_bracket, degree_bound_experiment,
                         DegreeBoundResult)
from .coeff import (ModeExpr, CoeffAlgebra, check_coeff_leibniz,
                    PhiCocycle, build_phi_cocycles, check_phi_cocycle)
from .dsl import AlgebraFile, DslError, parse, parse_file

__version__ = "0.1.0"

__all__ = [
    "Scalar", "ScalarError", "as_rational", "falling", "binom",
    "rref", "rank", "nullspace", "span_basis", "same_span", "in_span",
    "SuperSpace", "GradedBilinearMap", "LinearMap", "AxiomReport", "sign",
    "check_skew_symmetry", "check_leibniz_superalgebra",
    "check_left_leibniz_superalgebra", "check_lie_superalgebra",
    "to_left_superalgebra", "check_supercommutative", "check_associative",
    "VPoly", "LambdaBracket", "ConformalError", "VariableCaptureError",
    "apply_bracket",
    "check_conformal_sesquilinearity", "check_conformal_skew",
    "check_conformal_leibniz", "check_conformal_jacobi",
    "to_left_conformal", "build_current",
    "QuadraticData", "StarMode", "star_from_mode", "zero_map",
    "build_quadratic_bracket",
    "check_structure_equations_t", "check_anl", "check_associative_novikov",
    "check_novikov", "check_gd_bialgebra", "check_symmetrized_case",
    "check_star_trivial_case", "check_circ_trivial_case", "check_averaging",
    "build_assoc_novikov_from_averaging", "classify_brackets",
    "ClassificationResult",
    "CocycleAnsatz", "SolutionSpace", "PreconditionError", "unknown_order",
    "assemble_cocycle_rows", "solve_cocycles_direct", "check_cocycle_direct",
    "check_alpha_system", "solve_central_ext_anl",
    "solve_central_ext_assoc_novikov", "solve_leibniz_central_ext_gd",
    "extend_bracket", "degree_bound_experiment", "DegreeBoundResult",
    "ModeExpr", "CoeffAlgebra", "check_coeff_leibniz",
    "PhiCocycle", "build_phi_cocycles", "check_phi_cocycle",
    "AlgebraFile", "DslError", "parse", "parse_file",
]
