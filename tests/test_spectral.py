import numpy as np
import pytest

from hambif import (
    BlockSpec,
    ConditioningWarning,
    EigenvalueClass,
    ImaginaryEigenvalue,
    NormalForm,
    assemble_normal_form,
    classify_eigenvalue,
    even_block,
    imaginary_spectrum,
    jordan_partition,
    odd_block,
    random_symplectic,
    spectral_summary,
    standard_symplectic,
    TolerancePolicy,
)
from hambif.errors import EigenvalueNotFoundError, StructureError

from conftest import staircase_oracle


def conjugate(M, seed, scale=0.5):
    S = random_symplectic(M.shape[0] // 2, seed=seed, scale=scale)
    return np.linalg.solve(S, M @ S)


class TestImaginarySpectrum:
    def test_rotation_generator(self):
        evs = imaginary_spectrum(standard_symplectic(1))
        assert len(evs) == 1
        ev = evs[0]
        assert ev.beta == pytest.approx(1.0)
        assert (ev.algebraic_mult, ev.geometric_mult) == (1, 1)
        assert ev.jordan_partition == (1,)

    def test_defective_block(self):
        M = odd_block(3, 2.0, +1)
        assert staircase_oracle(M, 2.0) == (3,)
        evs = imaginary_spectrum(M)
        assert len(evs) == 1
        assert evs[0].beta == pytest.approx(2.0, abs=1e-6)
        assert evs[0].jordan_partition == (3,)
        assert evs[0].algebraic_mult == 3
        assert evs[0].geometric_mult == 1

    def test_two_oscillators_same_frequency(self):
        nf = NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(1.0, 1, -1)))
        evs = imaginary_spectrum(assemble_normal_form(nf))
        assert len(evs) == 1
        assert evs[0].algebraic_mult == 2
        assert evs[0].jordan_partition == (1, 1)

    def test_sorted_descending(self):
        nf = NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(2.0, 1, -1)))
        evs = imaginary_spectrum(assemble_normal_form(nf))
        assert [round(e.beta, 6) for e in evs] == [2.0, 1.0]

    def test_requires_hamiltonian(self):
        with pytest.raises(StructureError):
            imaginary_spectrum(np.eye(2))

    def test_nonimaginary_flagged(self):
        # saddle: J*diag(1,-1) has spectrum {+-1}, no imaginary part
        M = standard_symplectic(1) @ np.diag([1.0, -1.0])
        summary = spectral_summary(M)
        assert summary.imaginary == ()
        assert summary.has_nonimaginary
        assert sorted(z.real for z in summary.other_eigenvalues) == pytest.approx([-1.0, 1.0])

    def test_multiplicities_cover_dimension(self, rng):
        for trial in range(10):
            from conftest import random_normal_form

            nf = random_normal_form(rng, max_total_half_dim=6)
            M = assemble_normal_form(nf)
            summary = spectral_summary(M)
            total = 2 * sum(ev.algebraic_mult for ev in summary.imaginary)
            total += len(summary.other_eigenvalues)
            assert total == M.shape[0]


class TestJordanPartition:
    def test_big_odd_block(self):
        M = odd_block(5, 1.0, -1)
        assert staircase_oracle(M, 1.0) == (5,)
        assert jordan_partition(M, 1.0) == (5,)

    def test_even_block(self):
        M = even_block(2, 1.0, +1)
        assert staircase_oracle(M, 1.0) == (2,)
        assert jordan_partition(M, 1.0) == (2,)

    def test_block_diagonal_additivity(self):
        nf = NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(1.0, 3, +1)))
        M = assemble_normal_form(nf)
        assert staircase_oracle(M, 1.0) == (3, 1)
        assert jordan_partition(M, 1.0) == (3, 1)

    def test_missing_eigenvalue(self):
        with pytest.raises(EigenvalueNotFoundError):
            jordan_partition(standard_symplectic(1), 3.0)


class TestClassification:
    def make(self, partition):
        return ImaginaryEigenvalue(
            beta=1.0,
            algebraic_mult=sum(partition),
            geometric_mult=len(partition),
            jordan_partition=tuple(sorted(partition, reverse=True)),
        )

    def test_simple(self):
        assert classify_eigenvalue(self.make((1,))) == EigenvalueClass.SIMPLE

    def test_semisimple(self):
        assert classify_eigenvalue(self.make((1, 1, 1))) == EigenvalueClass.SEMISIMPLE

    def test_partially_semisimple(self):
        assert classify_eigenvalue(self.make((3, 1))) == EigenvalueClass.PARTIALLY_SEMISIMPLE

    def test_strictly_nonsemisimple(self):
        assert classify_eigenvalue(self.make((5, 3, 2))) == EigenvalueClass.STRICTLY_NONSEMISIMPLE

    def test_invariant_under_conjugation(self, rng):
        from conftest import random_normal_form

        for trial in range(50):
            nf = random_normal_form(rng, max_total_half_dim=6)
            M = assemble_normal_form(nf)
            Mc = conjugate(M, seed=1000 + trial)
            ref = {round(e.beta, 4): classify_eigenvalue(e) for e in imaginary_spectrum(M)}
            got = {round(e.beta, 4): classify_eigenvalue(e) for e in imaginary_spectrum(Mc)}
            # match frequencies up to rounding noise
            assert len(ref) == len(got)
            for beta, cls in got.items():
                key = min(ref, key=lambda b: abs(b - beta))
                assert ref[key] == cls


class TestInvariants:
    def test_eigenvalues_in_conjugate_pairs(self, rng):
        from conftest import random_normal_form

        for trial in range(10):
            nf = random_normal_form(rng, max_total_half_dim=5)
            M = assemble_normal_form(nf)
            for ev in imaginary_spectrum(M):
                # -i*beta is present with the identical partition
                assert staircase_oracle(M, ev.beta, shift=-1j * ev.beta) == ev.jordan_partition

    def test_validation_of_dataclass(self):
        with pytest.raises(ValueError):
            ImaginaryEigenvalue(beta=1.0, algebraic_mult=2, geometric_mult=1, jordan_partition=(1,))


@pytest.fixture
def counted(monkeypatch):
    """An empty spectral memo, and the calls that reach the uncached steps:
    one matrix digest per cluster search, (digest, beta, mult) per staircase."""
    import hashlib

    from hambif import spectral

    monkeypatch.setattr(spectral, "_MEMO", spectral._OneMatrixMemo())
    calls = {"clusters": [], "staircase": []}
    find_clusters, rank_staircase = spectral._find_clusters, spectral._rank_staircase

    def digest(M):
        return hashlib.sha256(M.tobytes()).hexdigest()

    def clusters(M, tol):
        calls["clusters"].append(digest(M))
        return find_clusters(M, tol)

    def staircase(M, beta, tol, algebraic_mult):
        calls["staircase"].append((digest(M), beta, algebraic_mult))
        return rank_staircase(M, beta, tol, algebraic_mult)

    monkeypatch.setattr(spectral, "_find_clusters", clusters)
    monkeypatch.setattr(spectral, "_rank_staircase", staircase)
    return calls


class TestSpectralMemo:
    """The spectrum of the last matrix is kept; a hit must read like a miss."""

    def worked_example(self):
        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.3, 2, +1)))
        return conjugate(assemble_normal_form(nf), seed=7)

    def test_hit_equals_miss(self, counted):
        from hambif import spectral
        from hambif.linalg import DEFAULT_TOL

        M = self.worked_example()
        miss_summary = spectral_summary(M)
        miss_partition = jordan_partition(M, 1.0)
        miss_clusters = spectral._imaginary_clusters(M, DEFAULT_TOL)
        assert len(counted["clusters"]) == 1
        # the summary's two frequencies, then 1.0 itself, which differs from
        # the summary's estimate of it in the last bits
        assert len(counted["staircase"]) == 3

        assert spectral_summary(M.copy()) == miss_summary
        assert jordan_partition(M.copy(), 1.0) == miss_partition == (5, 3)
        hit_clusters = spectral._imaginary_clusters(M.copy(), DEFAULT_TOL)
        assert hit_clusters[0] == miss_clusters[0]
        assert np.array_equal(hit_clusters[1], miss_clusters[1])
        assert hit_clusters[2] == miss_clusters[2]
        assert len(counted["clusters"]) == 1
        assert len(counted["staircase"]) == 3

    def test_hit_warns_again(self, counted):
        M = assemble_normal_form(NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(2.0, 1, -1))))
        tol = TolerancePolicy(rank_tol=0.1)  # puts the kept singular values near the cutoff
        with pytest.warns(ConditioningWarning, match="beta=1.0$"):
            miss = jordan_partition(M, 1.0, tol)
        with pytest.warns(ConditioningWarning, match="beta=1.0$"):
            hit = jordan_partition(M, 1.0, tol)
        assert miss == hit == (1,)
        with pytest.warns(ConditioningWarning):
            summary = spectral_summary(M, tol)
        assert len(counted["staircase"]) == 2  # beta = 2 once, beta = 1 once
        notes = {round(ev.beta, 6): ev.conditioning for ev in summary.imaginary}
        assert notes == {
            2.0: "rank decision within factor 2.50 of the cutoff while separating "
                 "Jordan blocks at beta=2.0000000000000004",
            1.0: "rank decision within factor 3.33 of the cutoff while separating "
                 "Jordan blocks at beta=1.0",
        }

    def test_matrix_changed_in_place_is_recomputed(self, counted):
        M = assemble_normal_form(NormalForm((BlockSpec(1.0, 2, +1),)))
        before = spectral_summary(M)
        M[:] = assemble_normal_form(NormalForm((BlockSpec(1.5, 1, -1), BlockSpec(0.5, 1, -1))))
        after = spectral_summary(M)
        assert before.betas == pytest.approx((1.0,))
        assert after.betas == pytest.approx((1.5, 0.5))
        assert len(counted["clusters"]) == 2

    def test_second_matrix_evicts_the_first(self, counted):
        M1 = assemble_normal_form(NormalForm((BlockSpec(1.0, 1, -1),)))
        M2 = assemble_normal_form(NormalForm((BlockSpec(2.0, 1, -1),)))
        first = spectral_summary(M1)
        spectral_summary(M2)
        assert spectral_summary(M1) == first
        assert len(counted["clusters"]) == 3
        assert len(set(counted["clusters"])) == 2

    def test_returned_values_cannot_corrupt_the_memo(self, counted):
        from hambif import spectral
        from hambif.linalg import DEFAULT_TOL

        A = np.diag([1.0, -1.0, 1.0, 1.0])  # an oscillator and a saddle
        M = conjugate(standard_symplectic(2) @ A, seed=3)
        clusters, others, band = spectral._imaginary_clusters(M, DEFAULT_TOL)
        assert others.size == 2
        kept = others.copy()
        others[:] = 0.0
        with pytest.raises(TypeError):
            clusters[0] = (9.0, 1)
        again = spectral._imaginary_clusters(M, DEFAULT_TOL)
        assert again[0] == clusters
        assert np.array_equal(again[1], kept)
        assert len(counted["clusters"]) == 1


def test_one_spectrum_per_equilibrium(counted):
    """A full analysis of the conjugated 24-dim example searches the clusters
    of its matrix once and climbs each rank staircase once."""
    from hambif import AnalysisOptions, Equilibrium, ProblemSpec, assemble_hessian, run_analysis

    blocks = (BlockSpec(0.7, 2, -1), BlockSpec(0.7, 1, 1), BlockSpec(1.1, 3, 1),
              BlockSpec(1.1, 1, -1), BlockSpec(1.9, 5, -1))
    S = random_symplectic(12, seed=6465, scale=0.5)
    A = S.T @ assemble_hessian(NormalForm(blocks)) @ S
    A = 0.5 * (A + A.T)
    spec = ProblemSpec(dim=24, equilibria=(Equilibrium(point=np.zeros(24), hessian=A),),
                       options=AnalysisOptions())
    report = run_analysis(spec)
    entry = report["equilibria"][0]
    assert entry["errors"] == []
    assert [(ev["beta"], ev["jordan_partition"]) for ev in entry["imaginary_spectrum"]] == [
        (pytest.approx(1.9), [5]), (pytest.approx(1.1), [3, 1]), (pytest.approx(0.7), [2, 1]),
    ]
    assert len(counted["clusters"]) == 1
    assert len(counted["staircase"]) == 3
    assert len(set(counted["staircase"])) == 3
