import numpy as np
import pytest

from hambif import (
    BlockCounts,
    BlockSpec,
    ConditioningWarning,
    DecompositionError,
    NormalForm,
    assemble_hessian,
    assemble_normal_form,
    block_counts,
    block_hessian,
    even_block_hessian,
    interleave_permutation,
    is_hamiltonian,
    odd_block_hessian,
    random_symplectic,
    spectral_summary,
    standard_symplectic,
    structural_decomposition,
)

from hambif.spectral import Linearization

from conftest import catalogue_block, conjugated_pair, random_normal_form, squeezed, staircase_oracle


def transcribed_even_block(n, beta, eps):
    """Direct transcription of the displayed even-block pattern."""
    A2 = np.array([[0.0, -beta], [beta, 0.0]])
    I2 = np.eye(2)
    blocks = n // 2
    upper = np.zeros((n, n))
    lower = np.zeros((n, n))
    for b in range(blocks):
        upper[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = A2
        lower[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = A2
    for b in range(blocks - 1):
        upper[2 * b + 2 : 2 * b + 4, 2 * b : 2 * b + 2] = I2
        lower[2 * b : 2 * b + 2, 2 * b + 2 : 2 * b + 4] = -I2
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = upper
    M[n:, n:] = lower
    M[n + n - 2 :, n - 2 : n] = eps * I2
    return M


class TestOddBlock:
    def test_oscillator_case(self):
        M = catalogue_block(1, 0.7, -1)
        assert np.allclose(M, 0.7 * standard_symplectic(1))
        assert np.allclose(odd_block_hessian(1, 0.7, -1), 0.7 * np.eye(2))

    def test_displayed_corner_pattern(self):
        # half_dim 1: the matrix is -eps*beta*J
        for eps in (1, -1):
            assert np.allclose(catalogue_block(1, 2.0, eps), -eps * 2.0 * standard_symplectic(1))

    def test_spectrum_and_partition(self):
        M = catalogue_block(3, 1.0, +1)
        w = np.linalg.eigvals(M)
        assert np.allclose(np.sort(np.abs(w.imag)), 1.0, atol=1e-4)
        assert staircase_oracle(M, 1.0) == (3,)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_always_hamiltonian(self, n, eps):
        assert is_hamiltonian(catalogue_block(n, 1.3, eps))

    def test_entries_exact_multiples(self):
        M = catalogue_block(5, 2.0, +1)
        values = set(np.round(np.unique(np.abs(M)), 12))
        assert values <= {0.0, 1.0, 2.0}

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            odd_block_hessian(2, 1.0, 1)


class TestEvenBlock:
    def test_partition(self):
        M = catalogue_block(2, 1.0, +1)
        assert staircase_oracle(M, 1.0) == (2,)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_displayed_layout(self, n, eps):
        assert np.array_equal(catalogue_block(n, 1.0, eps), transcribed_even_block(n, 1.0, eps))

    def test_always_hamiltonian(self):
        assert is_hamiltonian(catalogue_block(4, 0.5, -1))

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            even_block_hessian(3, 1.0, 1)


class TestHomotopyFamilies:
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_odd_determinant_constant(self, tau):
        for n in (1, 3, 5, 7):
            for eps in (1, -1):
                A = odd_block_hessian(n, 1.5, eps, coupling=tau)
                assert np.linalg.det(A) == pytest.approx(1.5 ** (2 * n), rel=1e-8)

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_even_determinant_constant(self, tau):
        for n in (2, 4, 6):
            for eps in (1, -1):
                A = even_block_hessian(n, 1.5, eps, coupling=tau)
                assert np.linalg.det(A) == pytest.approx(1.5 ** (2 * n), rel=1e-8)


class TestAssembly:
    def test_single_oscillator(self):
        nf = NormalForm((BlockSpec(1.0, 1, -1),))
        assert np.allclose(assemble_normal_form(nf), [[0.0, 1.0], [-1.0, 0.0]])

    def test_direct_sum_spectrum(self):
        nf = NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(2.0, 1, -1)))
        w = np.linalg.eigvals(assemble_normal_form(nf))
        assert np.allclose(np.sort(w.imag), [-2.0, -1.0, 1.0, 2.0], atol=1e-10)

    def test_worked_20dim_example(self):
        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1)))
        M = assemble_normal_form(nf)
        assert M.shape == (20, 20)
        assert is_hamiltonian(M)
        w = np.linalg.eigvals(M)
        assert np.allclose(np.abs(w.real), 0.0, atol=1e-2)
        assert np.allclose(np.abs(w.imag), 1.0, atol=1e-2)

    def test_interleaved_layout_structure(self):
        # upper-left quadrant holds the D blocks, upper-right the symmetric B blocks
        nf = NormalForm((BlockSpec(1.0, 3, +1), BlockSpec(2.0, 1, -1)))
        M = assemble_normal_form(nf)
        N = 4
        B = M[:N, N:]
        C = M[N:, :N]
        D = M[:N, :N]
        assert np.allclose(B, B.T)
        assert np.allclose(C, C.T)
        assert np.allclose(M[N:, N:], -D.T)

    def test_permutation_carries_structure(self):
        half_dims = (3, 1)
        P = interleave_permutation(half_dims)
        assert np.array_equal(P @ P.T, np.eye(8))
        import scipy.linalg

        J_stacked = scipy.linalg.block_diag(standard_symplectic(3), standard_symplectic(1))
        assert np.array_equal(P @ J_stacked @ P.T, standard_symplectic(4))

    @pytest.mark.parametrize("blocks", [
        ((1.0, 5, -1), (1.0, 3, +1), (1.0, 2, +1)),
        ((0.7, 3, +1), (1.9, 2, -1), (0.7, 1, -1)),
    ])
    def test_assembly_matches_block_diag_bit_for_bit(self, blocks):
        import scipy.linalg

        nf = NormalForm(tuple(BlockSpec(*b) for b in blocks))
        P = interleave_permutation(nf.half_dims)
        expected = P @ scipy.linalg.block_diag(*(block_hessian(b) for b in nf.blocks)) @ P.T
        assembled = assemble_hessian(nf)
        assert assembled.dtype == expected.dtype and assembled.shape == expected.shape
        assert assembled.tobytes() == expected.tobytes()

    def test_dimension_bookkeeping(self):
        nf = NormalForm((BlockSpec(1.0, 2, 1), BlockSpec(1.5, 3, -1)))
        assert nf.dim == 10
        assert assemble_normal_form(nf).shape == (10, 10)


class TestBlockCounts:
    def test_worked_example_counts(self):
        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1)))
        counts = block_counts(nf.blocks, 1.0)
        assert (counts.o_plus, counts.o_minus, counts.e_plus, counts.e_minus) == (0, 1, 1, 0)
        assert counts.kappa == -2

    def test_single_oscillator(self):
        counts = block_counts([BlockSpec(1.0, 1, -1)], 1.0)
        assert (counts.o_plus, counts.o_minus, counts.e_plus, counts.e_minus) == (0, 1, 0, 0)
        assert counts.kappa == -1

    def test_even_blocks_never_counted(self):
        counts = block_counts([BlockSpec(1.0, 2, +1)], 1.0)
        assert counts == BlockCounts(0, 0, 0, 0)
        assert counts.kappa == 0

    def test_absent_frequency_is_zero(self):
        counts = block_counts([BlockSpec(1.0, 1, -1)], 2.0)
        assert counts.total == 0

    def test_level_parity_split(self):
        # half_dim 1, 5, 9 land in o; 3, 7 land in e
        for n, bucket in ((1, "o"), (3, "e"), (5, "o"), (7, "e"), (9, "o")):
            counts = block_counts([BlockSpec(1.0, n, +1)], 1.0)
            if bucket == "o":
                assert counts.o_plus == 1 and counts.e_plus == 0
            else:
                assert counts.e_plus == 1 and counts.o_plus == 0


class TestStructuralDecomposition:
    def test_mixed_round_trip(self):
        nf = NormalForm((BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, -1)))
        out = structural_decomposition(assemble_normal_form(nf), 1.0)
        assert [(b.half_dim, b.epsilon) for b in out] == [(3, 1), (2, -1)]

    def test_conjugated_round_trip(self):
        nf = NormalForm((BlockSpec(1.0, 5, -1),))
        M = assemble_normal_form(nf)
        S = random_symplectic(5, seed=11, scale=0.5)
        out = structural_decomposition(np.linalg.solve(S, M @ S), 1.0)
        assert [(b.half_dim, b.epsilon) for b in out] == [(5, -1)]

    def test_oscillator(self):
        M = 0.8 * standard_symplectic(1)
        out = structural_decomposition(M, 0.8)
        assert [(b.half_dim, b.epsilon) for b in out] == [(1, -1)]

    def test_round_trip_property(self, rng):
        for trial in range(30):
            nf = random_normal_form(rng, max_total_half_dim=6)
            Mc, _ = conjugated_pair(nf, seed=500 + trial, scale=0.5)
            for beta in sorted({b.beta for b in nf.blocks}):
                got = structural_decomposition(Mc, beta)
                want = [b for b in nf.blocks if abs(b.beta - beta) < 1e-9]
                assert sorted((b.half_dim, b.epsilon) for b in got) == sorted(
                    (b.half_dim, b.epsilon) for b in want
                )
                assert block_counts(got, beta) == block_counts(want, beta)

    def test_positive_definite_gives_oscillators(self, rng):
        for trial in range(12):
            dim = 2 * int(rng.integers(1, 5))
            Q = rng.normal(size=(dim, dim))
            A = Q @ Q.T + 0.2 * np.eye(dim)
            M = standard_symplectic(dim // 2) @ A
            for ev in spectral_summary(M).imaginary:
                blocks = structural_decomposition(M, ev.beta)
                assert all((b.half_dim, b.epsilon) == (1, -1) for b in blocks)
                assert len(blocks) == ev.algebraic_mult

    def test_block_dimensions_cover_multiplicity(self, rng):
        for trial in range(10):
            nf = random_normal_form(rng, max_total_half_dim=6)
            M = assemble_normal_form(nf)
            for ev in spectral_summary(M).imaginary:
                blocks = structural_decomposition(M, ev.beta)
                assert sum(2 * b.half_dim for b in blocks) == 2 * ev.algebraic_mult

    def test_dimension_cap(self):
        with pytest.raises(DecompositionError, match="up to dimension 64"):
            structural_decomposition(np.zeros((66, 66)), 1.0)

    def test_repeat_is_a_fresh_copy_from_the_linearization(self, monkeypatch):
        """A second decomposition of one Linearization at the same frequency
        runs no second Schur, equals the first, and is a list of its own."""
        import scipy.linalg

        schurs = []
        schur = scipy.linalg.schur

        def counting_schur(*args, **kwargs):
            schurs.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
        M = Linearization(assemble_normal_form(NormalForm((BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, -1)))))
        first = structural_decomposition(M, 1.0)
        first.append(BlockSpec(1.0, 1, +1))
        second = structural_decomposition(M, 1.0)
        assert [(b.half_dim, b.epsilon) for b in second] == [(3, 1), (2, -1)]
        assert second is not structural_decomposition(M, 1.0)
        assert len(schurs) == 1

    def test_invariant_subspace_reads_the_linearization_eigenvalues(self, monkeypatch):
        """The summary and the decomposition of one Linearization share one
        eigvals, and its frequencies reorder one Schur form."""
        import scipy.linalg

        calls, schurs = [], []
        eigvals, schur = np.linalg.eigvals, scipy.linalg.schur

        def counting_eigvals(M):
            calls.append(1)
            return eigvals(M)

        def counting_schur(*args, **kwargs):
            schurs.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
        M = Linearization(assemble_normal_form(NormalForm((BlockSpec(1.0, 3, +1), BlockSpec(1.5, 1, -1)))))
        betas = sorted(spectral_summary(M).betas)
        blocks = [[(b.half_dim, b.epsilon) for b in structural_decomposition(M, beta)] for beta in betas]
        assert len(calls) == 1
        assert len(schurs) == 1
        assert blocks == [[(3, 1)], [(1, -1)]]

    def test_split_pair_is_refused_not_guessed(self):
        """Squeezed at cond(S) 1.15e4, the (2,+1) block of this normal form
        splits into two simple frequencies 1.4e-5 apart.  The Schur form
        selects no eigenvalue within half their distance of either, and the
        decomposition refuses both; the kernel of (M - i beta I) would answer
        (1,+1) at one and (1,-1) at the other."""
        nf = random_normal_form(np.random.default_rng(46))
        assert [(b.half_dim, b.epsilon) for b in nf.blocks] == [(2, 1), (5, -1)]
        A = squeezed(nf, 46, 4.0)
        lin = Linearization(standard_symplectic(A.shape[0] // 2) @ A)
        with pytest.warns(ConditioningWarning, match="within factor 6.79 of the cutoff"):
            split = [ev for ev in spectral_summary(lin).imaginary if abs(ev.beta - nf.blocks[0].beta) < 1e-4]
        assert [(round(ev.beta, 7), ev.jordan_partition) for ev in split] == [
            (1.0906326, (1,)), (1.0906186, (1,))]
        for ev in split:
            with pytest.raises(DecompositionError, match="has dimension 0, expected 1"), \
                    pytest.warns(ConditioningWarning):
                structural_decomposition(lin, ev.beta)
