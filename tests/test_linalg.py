import math

import numpy as np
import pytest
import scipy.linalg

from hambif import (
    DegeneracyError,
    TolerancePolicy,
    gamma_jump,
    is_hamiltonian,
    is_symplectic,
    morse_index,
    random_symplectic,
    spectral_summary,
    standard_symplectic,
    structural_decomposition,
)
from hambif.linalg import as_symmetric, numeric_rank_with_gap
from hambif.errors import StructureError

from conftest import signature, t_matrix


class TestStandardSymplectic:
    def test_n1(self):
        assert np.array_equal(standard_symplectic(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_n2_blocks(self):
        J = standard_symplectic(2)
        assert np.array_equal(J[:2, 2:], np.eye(2))
        assert np.array_equal(J[2:, :2], -np.eye(2))
        assert np.array_equal(J[:2, :2], np.zeros((2, 2)))

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_square_is_minus_identity_exactly(self, N):
        J = standard_symplectic(N)
        assert np.array_equal(J @ J, -np.eye(2 * N))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            standard_symplectic(0)


class TestIsHamiltonian:
    def test_j_times_symmetric(self):
        M = standard_symplectic(1) @ np.diag([1.0, 2.0])
        assert is_hamiltonian(M)

    def test_identity_is_not(self):
        assert not is_hamiltonian(np.eye(2))

    def test_odd_block_is(self):
        from conftest import catalogue_block

        assert is_hamiltonian(catalogue_block(3, 1.0, +1))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            is_hamiltonian(np.eye(3))

    def test_conjugation_invariance_random(self, rng):
        # J*A Hamiltonian for every symmetric A, and stays so under symplectic similarity
        for trial in range(100):
            N = int(rng.integers(1, 4))
            A = rng.uniform(-1, 1, (2 * N, 2 * N))
            A = 0.5 * (A + A.T)
            M = standard_symplectic(N) @ A
            assert is_hamiltonian(M)
            S = random_symplectic(N, seed=trial, scale=0.5)
            assert is_hamiltonian(np.linalg.solve(S, M @ S), TolerancePolicy(residual_tol=1e-6))


class TestIsSymplectic:
    def test_j_itself(self):
        assert is_symplectic(standard_symplectic(2))

    def test_scaled_identity_is_not(self):
        assert not is_symplectic(2.0 * np.eye(2))

    def test_exponential_of_hamiltonian(self):
        A = np.array([[1.0, 0.3], [0.3, -0.7]])
        S = scipy.linalg.expm(0.3 * standard_symplectic(1) @ A)
        assert is_symplectic(S)

    def test_singular_matrix_is_false_not_error(self):
        assert not is_symplectic(np.zeros((4, 4)))


class TestMorseIndex:
    def test_diagonal(self):
        assert morse_index(np.diag([-1.0, -1.0, 2.0, 1.0])) == 2

    def test_doubled_oscillator_family(self):
        # [[-l*A, J], [-J, -l*A]] with A = Id2 has eigenvalues -l +- 1, twice each
        T = t_matrix(0.5, np.eye(2))
        assert sorted(np.round(np.linalg.eigvalsh(T), 12)) == [-1.5, -1.5, 0.5, 0.5]
        assert morse_index(T) == 2

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegeneracyError):
            morse_index(np.zeros((2, 2)))
        with pytest.raises(DegeneracyError):
            signature(np.zeros((2, 2)))

    def test_complement_identity(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            A = rng.uniform(-1, 1, (dim, dim))
            A = 0.5 * (A + A.T) + 0.05 * np.eye(dim)  # push eigenvalues off zero
            try:
                m = morse_index(A)
                mneg = morse_index(-A)
            except DegeneracyError:
                continue
            assert m + mneg == dim


class TestSignature:
    def test_identity(self):
        assert signature(np.eye(4)) == 4

    def test_balanced(self):
        assert signature(np.diag([1.0, -1.0])) == 0

    def test_worked_example_hessian_consistent_with_determinant(self):
        from hambif import BlockSpec, NormalForm, assemble_hessian

        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1)))
        A = assemble_hessian(nf)
        w = np.linalg.eigvalsh(A)
        oracle = int(np.sum(w > 0) - np.sum(w < 0))
        assert signature(A) == oracle
        # det A = 1 > 0, so the negative count is even
        assert morse_index(A) % 2 == 0
        assert np.prod(np.sign(w)) == 1.0

    def test_sylvester_congruence_invariance(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            A = rng.uniform(-1, 1, (dim, dim))
            A = 0.5 * (A + A.T) + 0.1 * np.eye(dim)
            P = rng.uniform(-1, 1, (dim, dim))
            while abs(np.linalg.det(P)) < 1e-3:
                P = rng.uniform(-1, 1, (dim, dim))
            try:
                assert signature(P.T @ A @ P) == signature(A)
            except DegeneracyError:
                continue


class TestRandomSymplectic:
    def test_contract(self):
        S = random_symplectic(2, seed=7)
        assert is_symplectic(S)

    def test_deterministic(self):
        assert np.array_equal(random_symplectic(2, seed=7), random_symplectic(2, seed=7))

    def test_unit_determinant(self):
        for seed in range(5):
            for N in (1, 2, 4):
                S = random_symplectic(N, seed=seed)
                assert abs(np.linalg.det(S) - 1.0) < 1e-8

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            random_symplectic(1, seed=0, scale=0.0)


class TestHelpers:
    def test_as_symmetric_rejects(self):
        with pytest.raises(StructureError):
            as_symmetric([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("call", [
        spectral_summary,
        lambda M: gamma_jump(M, 1.0),
        lambda M: structural_decomposition(M, 1.0),
        morse_index,
    ], ids=["spectral_summary", "gamma_jump", "structural_decomposition", "morse_index"])
    @pytest.mark.parametrize("M, message", [
        (np.ones((2, 3)), " must be square, got shape (2, 3)"),
        (np.ones(4), " must be square, got shape (4,)"),
        (np.array([[1.0, math.nan], [math.nan, 1.0]]), " has non-finite entries"),
        (np.array([[math.inf, 0.0], [0.0, 1.0]]), " has non-finite entries"),
    ], ids=["non-square", "vector", "nan", "inf"])
    def test_malformed_matrix_refused(self, call, M, message):
        """Every reader of a matrix refuses a non-square or non-finite one,
        named as its caller names it, before any spectrum is computed."""
        with pytest.raises(ValueError) as info:
            call(M)
        assert str(info.value).endswith(message)

    def test_numeric_rank(self):
        M = np.diag([1.0, 1e-3, 0.0])
        assert numeric_rank_with_gap(M)[0] == 2

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_tol=0.0)

    @pytest.mark.parametrize("field, value", [
        ("rank_tol", 1.0), ("eig_zero_tol", math.nan), ("eig_zero_tol", 2.0), ("residual_tol", math.inf),
    ])
    def test_tolerance_finite_and_below_one(self, field, value):
        """At 1 or above every eigenvalue is zero and every rank 0; NaN and
        infinities are refused by type, as the problem file refuses them."""
        message = "between 0 and 1" if math.isfinite(value) else f"{field}: expected a finite number"
        with pytest.raises(ValueError, match=message):
            TolerancePolicy(**{field: value})

    def test_rank_cutoff_never_below_rounding(self):
        """A rank_tol below rounding cuts at max(shape) * eps, as matrix_rank does."""
        Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))
        M = Q @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) @ Q.T  # rounding leaves s[3] ~ 3e-16
        assert numeric_rank_with_gap(M, TolerancePolicy(rank_tol=1e-20))[0] == 3

    def test_tolerance_scaling(self):
        tol = TolerancePolicy().scaled(10.0)
        assert tol.rank_tol == pytest.approx(1e-9)
