"""The documented library surface: README's quick start runs and prints what
its comments promise, and the public names change only on purpose."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import hambif

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_source() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's quick start has no python block"
    return match.group(1)


def test_readme_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_source(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "BlockCounts(o_plus=0, o_minus=1, e_plus=1, e_minus=0) -2"  # kappa -2
    assert lines[1] == "4"  # gamma == -2*kappa
    assert lines[2] == "True"  # condition_holds
    assert lines[3] == "[(5, -1), (3, 1), (2, 1)]"
    orbits = [tuple(map(float, line.split())) for line in lines[4:]]
    assert len(orbits) == 3
    for amplitude, lam in orbits:
        assert lam == pytest.approx(1.0 / (1.0 + amplitude ** 2), abs=1e-5)  # lam tracks 1/(1+a^2)


# the package's own names only: the submodules stay importable as
# ``hambif.<module>`` but are not exported by ``from hambif import *``
PUBLIC_NAMES = [
    "AnalysisOptions", "AssumptionReport", "AssumptionResult", "BifurcationIndex", "BlockCounts",
    "BlockSpec", "Branch", "ConditionReport", "ConditioningWarning", "ConsistencyError",
    "ContinuationConfig", "CorrectorError", "DEFAULT_TOL", "DecompositionError", "DegeneracyError",
    "EigenvalueClass", "EigenvalueNotFoundError", "Equilibrium", "HamiltonianField",
    "ImaginaryEigenvalue", "IntegrationError", "LambdaSet", "NonresonanceReport", "NormalForm",
    "PeriodicOrbit", "PlanarDegreeError", "PolynomialHamiltonian", "ProblemSpec", "SpecError",
    "SpectralSummary", "StructureError", "TolerancePolicy", "assemble_hessian",
    "assemble_normal_form", "bifurcation_index", "block_counts", "block_hessian", "branch_csv",
    "brouwer_nondegenerate", "brouwer_planar", "check_classical_assumptions",
    "check_main_condition", "classify_eigenvalue", "continue_branch", "correct_orbit",
    "emit_problem", "emit_report", "even_block_hessian", "flow", "gamma_block", "gamma_jump",
    "interleave_permutation", "is_hamiltonian", "is_symplectic",
    "isolation_radius", "jordan_partition", "lambda_set", "morse_index",
    "nonresonance_and_branch_count", "odd_block_hessian", "parse_problem",
    "problem_to_dict", "random_symplectic", "run_analysis", "seed_from_linearization",
    "spectral_summary", "standard_symplectic", "structural_decomposition",
    "verify_period_limit",
]


def test_public_names_are_pinned():
    # a name added to or removed from the package is a decision: update this
    # list with it, and say so in CHANGES.md when it breaks library callers
    assert sorted(hambif.__all__) == PUBLIC_NAMES
