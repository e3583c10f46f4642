"""Quadratic finite elements for the clamped von Karman plate system.

Three discretisations of the coupled fourth-order system -- the
nonconforming Morley element, the C0 interior penalty method and a symmetric
interior penalty discontinuous Galerkin method -- with Newton's method,
discrete error norms, residual a posteriori estimators and uniform/adaptive
mesh refinement.
"""

from .mesh import (MeshError, Triangulation, lshape_mesh, nvb_refine,
                   read_mesh, shape_regularity, two_triangle_square,
                   uniform_refine, unit_square_mesh, write_mesh)
from .quadrature import EdgeRule, TriangleRule, edge_rule, triangle_rule
from .femspace import (METHODS, DofMap, EdgeBasis, ElementBasis, build_dofmap,
                       load_values, morley_interpolate)
from .assembly import (DiscreteSolution, PenaltyConfig, assemble_biharmonic,
                       assemble_load, assemble_trilinear_jacobian,
                       assemble_trilinear_vector)
from .solver import NewtonReport, SolverError, linear_solve, newton_solve
from .analysis import (ConvergenceRecord, ExactSolutionPair, NORM_KINDS,
                       best_approx_term, discrete_norm, error_norm, fit_rate,
                       oscillation, oscillation_local)
from .adaptivity import (AdaptiveConfig, LocalEstimates, METHOD_NORM,
                         dorfler_mark, estimate, method_levels,
                         uniform_levels)
from .problems import (Problem, exact_lshape, exact_square, lshape_problem,
                       square_problem)

__version__ = "0.1.0"
