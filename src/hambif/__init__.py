"""Normal-form block counts, bifurcation indices, and periodic-orbit
continuation for equilibria of Hamiltonian systems."""

__version__ = "0.1.0"

from .bifurcation import (
    AssumptionReport,
    AssumptionResult,
    BifurcationIndex,
    ConditionReport,
    LambdaSet,
    NonresonanceReport,
    bifurcation_index,
    brouwer_nondegenerate,
    brouwer_planar,
    check_classical_assumptions,
    check_main_condition,
    gamma_block,
    gamma_jump,
    isolation_radius,
    lambda_set,
    nonresonance_and_branch_count,
)
from .continuation import (
    Branch,
    ContinuationConfig,
    HamiltonianField,
    PeriodicOrbit,
    PolynomialHamiltonian,
    continue_branch,
    correct_orbit,
    flow,
    seed_from_linearization,
    verify_period_limit,
)
from .errors import (
    ConditioningWarning,
    ConsistencyError,
    CorrectorError,
    DecompositionError,
    DegeneracyError,
    EigenvalueNotFoundError,
    IntegrationError,
    PlanarDegreeError,
    SpecError,
    StructureError,
)
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    is_hamiltonian,
    is_symplectic,
    morse_index,
    random_symplectic,
    standard_symplectic,
)
from .normal_forms import (
    BlockCounts,
    BlockSpec,
    NormalForm,
    assemble_hessian,
    assemble_normal_form,
    block_counts,
    block_hessian,
    even_block_hessian,
    interleave_permutation,
    odd_block_hessian,
    structural_decomposition,
)
from .spectral import (
    EigenvalueClass,
    ImaginaryEigenvalue,
    SpectralSummary,
    classify_eigenvalue,
    jordan_partition,
    spectral_summary,
)

from .analysis import branch_csv, emit_report, run_analysis  # noqa: E402
from .problem import (  # noqa: E402
    AnalysisOptions,
    Equilibrium,
    ProblemSpec,
    emit_problem,
    parse_problem,
    problem_to_dict,
)

__all__ = [
    # bifurcation
    "AssumptionReport", "AssumptionResult", "BifurcationIndex", "ConditionReport", "LambdaSet",
    "NonresonanceReport", "bifurcation_index", "brouwer_nondegenerate", "brouwer_planar",
    "check_classical_assumptions", "check_main_condition", "gamma_block", "gamma_jump",
    "isolation_radius", "lambda_set", "nonresonance_and_branch_count",
    # continuation
    "Branch", "ContinuationConfig", "HamiltonianField", "PeriodicOrbit", "PolynomialHamiltonian",
    "continue_branch", "correct_orbit", "flow", "seed_from_linearization", "verify_period_limit",
    # errors
    "ConditioningWarning", "ConsistencyError", "CorrectorError", "DecompositionError",
    "DegeneracyError", "EigenvalueNotFoundError", "IntegrationError", "PlanarDegreeError",
    "SpecError", "StructureError",
    # linalg
    "DEFAULT_TOL", "TolerancePolicy", "is_hamiltonian", "is_symplectic", "morse_index",
    "random_symplectic", "standard_symplectic",
    # normal_forms
    "BlockCounts", "BlockSpec", "NormalForm", "assemble_hessian", "assemble_normal_form",
    "block_counts", "block_hessian", "even_block_hessian", "interleave_permutation",
    "odd_block_hessian", "structural_decomposition",
    # spectral
    "EigenvalueClass", "ImaginaryEigenvalue", "SpectralSummary", "classify_eigenvalue",
    "jordan_partition", "spectral_summary",
    # analysis
    "branch_csv", "emit_report", "run_analysis",
    # problem
    "AnalysisOptions", "Equilibrium", "ProblemSpec", "emit_problem", "parse_problem",
    "problem_to_dict",
]
