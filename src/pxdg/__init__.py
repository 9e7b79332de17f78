"""P0 discontinuous-Galerkin solver for variable-exponent p(x)-Laplacian
minimization, with augmented-Lagrangian decomposition-coordination iterations
and a manufactured-solution convergence-study harness."""

from .dg import DgScalar, DgVector, l2_norm, lifting, lifting_adjoint
from .energy import (ProblemData, eval_F, eval_G, eval_Jh, eval_lagrangian,
                     grad_F)
from .exponent import ExponentField, luxemburg_norm, modular
from .mesh import Domain, Mesh, build_uniform_mesh, edge_weights, gauss_points
from .solver import (Algorithm, IterationRecord, SolverConfig, SolverState,
                     StepSizeWarning, SystemMatrix, assemble_matrix,
                     assemble_rhs, lambda_update, run, solve_linear,
                     stopping_check)
from .study import (FLUX_CONSTANT, ManufacturedProblem, StudyRow,
                    exact_l2_norm, fit_rate, l2_error, manufactured_exponent,
                    manufactured_problem, run_study)

__version__ = "0.1.0"
