"""P0 discontinuous-Galerkin solver for variable-exponent p(x)-Laplacian
minimization, with augmented-Lagrangian decomposition-coordination iterations
and a manufactured-solution convergence-study harness."""

from .dg import (DgScalar, DgVector, average, jump, jump_l2_norm, l2_norm,
                 lifting, lifting_matrices, weighted_jump_norm)
from .energy import (EnergyReport, ProblemData, eval_F, eval_F_barycenter,
                     eval_G, eval_Jh, eval_lagrangian, grad_F)
from .exponent import (ExponentField, conjugate, luxemburg_norm,
                       manufactured_exponent, modular)
from .mesh import Domain, Mesh, build_uniform_mesh, edge_weights
from .quadrature import boundary_points, element_points, gauss_1d
from .solver import (Algorithm, IterationRecord, SolverConfig, SolverState,
                     StepSizeWarning, SystemMatrix, assemble_matrix,
                     assemble_rhs, eta_update, lambda_update, run,
                     scalar_root, solve_linear, stopping_check)
from .study import (FLUX_CONSTANT, ManufacturedProblem, StudyRow, fit_rate,
                    l2_error, manufactured_problem, run_study)

__version__ = "0.1.0"
