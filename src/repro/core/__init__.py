"""Core structure-learning algorithms: LEAST, the NOTEARS baseline, and shared pieces."""

from repro.core.acyclicity import SpectralAcyclicityBound, spectral_bound, spectral_bound_gradient
from repro.core.backend import (
    BackendSpec,
    LEASTBackend,
    NOTEARSBackend,
    SolveResult,
    SolverBackend,
    SparseLEASTBackend,
    make_solver,
    register_backend,
    solver_names,
    unregister_backend,
)
from repro.core.least import LEAST, LEASTConfig, LEASTResult
from repro.core.least_sparse import SparseLEAST, SparseLEASTConfig, correlation_support
from repro.core.losses import LeastSquaresLoss
from repro.core.model_selection import (
    GridSearchResult,
    grid_search_epsilon_tau,
    grid_search_threshold,
)
from repro.core.notears import NOTEARS, NOTEARSConfig
from repro.core.notears_constraint import (
    notears_constraint,
    notears_constraint_gradient,
    polynomial_constraint,
    polynomial_constraint_gradient,
)
from repro.core.optimizers import AdamOptimizer, SGDOptimizer, SparseAdamOptimizer
from repro.core.thresholding import threshold_to_dag, threshold_weights

__all__ = [
    "SolverBackend",
    "SolveResult",
    "BackendSpec",
    "LEASTBackend",
    "SparseLEASTBackend",
    "NOTEARSBackend",
    "make_solver",
    "solver_names",
    "register_backend",
    "unregister_backend",
    "SpectralAcyclicityBound",
    "spectral_bound",
    "spectral_bound_gradient",
    "LEAST",
    "LEASTConfig",
    "LEASTResult",
    "SparseLEAST",
    "SparseLEASTConfig",
    "correlation_support",
    "NOTEARS",
    "NOTEARSConfig",
    "notears_constraint",
    "notears_constraint_gradient",
    "polynomial_constraint",
    "polynomial_constraint_gradient",
    "LeastSquaresLoss",
    "AdamOptimizer",
    "SGDOptimizer",
    "SparseAdamOptimizer",
    "GridSearchResult",
    "grid_search_threshold",
    "grid_search_epsilon_tau",
    "threshold_weights",
    "threshold_to_dag",
]
