import dataclasses
import json

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
    jordan_partition,
    random_symplectic,
    spectral_summary,
    standard_symplectic,
    TolerancePolicy,
)
from hambif.errors import EigenvalueNotFoundError, StructureError
from hambif.spectral import Linearization

from conftest import catalogue_block, squeezed_readme_example, staircase_oracle


def conjugate(M, seed, scale=0.5):
    S = random_symplectic(M.shape[0] // 2, seed=seed, scale=scale)
    return np.linalg.solve(S, M @ S)


class TestImaginarySpectrum:
    def test_rotation_generator(self):
        evs = spectral_summary(standard_symplectic(1)).imaginary
        assert len(evs) == 1
        ev = evs[0]
        assert ev.beta == pytest.approx(1.0)
        assert (ev.algebraic_mult, ev.geometric_mult) == (1, 1)
        assert ev.jordan_partition == (1,)

    def test_defective_block(self):
        M = catalogue_block(3, 2.0, +1)
        assert staircase_oracle(M, 2.0) == (3,)
        evs = spectral_summary(M).imaginary
        assert len(evs) == 1
        assert evs[0].beta == pytest.approx(2.0, abs=1e-6)
        assert evs[0].jordan_partition == (3,)
        assert evs[0].algebraic_mult == 3
        assert evs[0].geometric_mult == 1

    def test_two_oscillators_same_frequency(self):
        nf = NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(1.0, 1, -1)))
        evs = spectral_summary(assemble_normal_form(nf)).imaginary
        assert len(evs) == 1
        assert evs[0].algebraic_mult == 2
        assert evs[0].jordan_partition == (1, 1)

    def test_sorted_descending(self):
        nf = NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(2.0, 1, -1)))
        evs = spectral_summary(assemble_normal_form(nf)).imaginary
        assert [round(e.beta, 6) for e in evs] == [2.0, 1.0]

    def test_requires_hamiltonian(self):
        with pytest.raises(StructureError):
            spectral_summary(np.eye(2))

    def test_refusals_hold_when_the_memo_is_warm(self):
        """A Linearization keeps whether M is Hamiltonian, so the summary and
        the decomposition refuse a non-Hamiltonian M on every call, also
        after a reader that does not check has filled it."""
        from hambif import structural_decomposition

        S = np.eye(4)
        S[0, 1] = 1.0  # q1 += q2 with the momenta left alone: not symplectic
        M = Linearization(S @ standard_symplectic(2) @ np.linalg.inv(S))
        assert jordan_partition(M, 1.0) == (1, 1)  # M now holds its clusters
        for _ in range(2):
            with pytest.raises(StructureError, match="spectral_summary expects"):
                spectral_summary(M)
            with pytest.raises(StructureError, match="structural_decomposition expects"):
                structural_decomposition(M, 1.0)

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
        M = catalogue_block(5, 1.0, -1)
        assert staircase_oracle(M, 1.0) == (5,)
        assert jordan_partition(M, 1.0) == (5,)

    def test_even_block(self):
        M = catalogue_block(2, 1.0, +1)
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
            ref = {round(e.beta, 4): classify_eigenvalue(e) for e in spectral_summary(M).imaginary}
            got = {round(e.beta, 4): classify_eigenvalue(e) for e in spectral_summary(Mc).imaginary}
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
            for ev in spectral_summary(M).imaginary:
                # -i*beta is present with the identical partition
                assert staircase_oracle(M, ev.beta, shift=-1j * ev.beta) == ev.jordan_partition

    def test_validation_of_dataclass(self):
        with pytest.raises(ValueError):
            ImaginaryEigenvalue(beta=1.0, algebraic_mult=2, geometric_mult=1, jordan_partition=(1,))


@pytest.fixture
def counted(monkeypatch):
    """The calls that reach the steps a Linearization keeps: the
    Linearization of each cluster search, (beta, mult) per staircase that
    yields a partition, and the same per staircase that rejects a candidate
    cluster."""
    from hambif import spectral

    calls = {"clusters": [], "staircase": [], "rejected": []}
    find_clusters, rank_staircase = spectral._find_clusters, spectral._rank_staircase

    def clusters(lin):
        calls["clusters"].append(lin)
        return find_clusters(lin)

    def staircase(M, beta, tol, mult):
        result = rank_staircase(M, beta, tol, mult)
        calls["staircase" if result[0] == mult else "rejected"].append((beta, mult))
        return result

    monkeypatch.setattr(spectral, "_find_clusters", clusters)
    monkeypatch.setattr(spectral, "_rank_staircase", staircase)
    return calls


class TestLinearization:
    """One Linearization keeps the spectrum of its matrix; a repeat must read
    like the first call."""

    def worked_example(self):
        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.3, 2, +1)))
        return conjugate(assemble_normal_form(nf), seed=7)

    def test_repeat_equals_first(self, counted):
        M = self.worked_example()
        lin = Linearization(M)
        first_summary = spectral_summary(lin)
        first_partition = jordan_partition(lin, 1.0)
        first_clusters = lin.clusters
        assert len(counted["clusters"]) == 1
        # the cluster search's two frequencies; 1.0 differs from the estimate
        # of its cluster in the last bits, and reads that cluster's partition
        assert len(counted["staircase"]) == 2

        assert spectral_summary(lin) == first_summary == spectral_summary(M)
        assert jordan_partition(lin, 1.0) == first_partition == (5, 3)
        assert lin.clusters is first_clusters
        # a call on the raw M builds a Linearization, and a search, of its own
        assert len(counted["clusters"]) == 2 and counted["clusters"][0] is lin
        assert len(counted["staircase"]) == 4

    def test_repeat_warns_again(self, counted):
        M = assemble_normal_form(NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(2.0, 1, -1))))
        tol = TolerancePolicy(rank_tol=0.1)  # puts the kept singular values near the cutoff
        lin = Linearization(M, tol)
        with pytest.warns(ConditioningWarning, match="beta=1.0$"):
            first = jordan_partition(lin, 1.0, tol)
        with pytest.warns(ConditioningWarning, match="beta=1.0$"):
            repeat = jordan_partition(lin, 1.0, tol)
        assert first == repeat == (1,)
        with pytest.warns(ConditioningWarning):
            summary = spectral_summary(lin, tol)
        assert len(counted["staircase"]) == 2  # beta = 2 once, beta = 1 once
        notes = {round(ev.beta, 6): ev.conditioning for ev in summary.imaginary}
        assert notes == {
            2.0: "rank decision within factor 2.50 of the cutoff while separating "
                 "Jordan blocks at beta=2.0000000000000004",
            1.0: "rank decision within factor 3.33 of the cutoff while separating "
                 "Jordan blocks at beta=1.0",
        }

    def test_one_kept_record_per_frequency(self, counted):
        """A repeat spectral_summary returns the summary the Linearization
        keeps, and every beta of a frequency names one of its entries."""
        lin = Linearization(self.worked_example())
        summary = spectral_summary(lin)
        assert spectral_summary(lin) is summary
        assert [ev.jordan_partition for ev in summary.imaginary] == [(2,), (5, 3)]
        for ev in summary.imaginary:
            assert lin.cluster_at(ev.beta) is lin.cluster_at(ev.beta * (1 + 1e-9)) is ev
        assert lin.cluster_at(1.0) is summary.imaginary[1]
        assert len(counted["clusters"]) == 1

    def test_holds_a_copy_of_its_matrix(self, counted):
        """A matrix changed in place after its Linearization was built leaves
        the Linearization as it was; a call on the raw matrix reads it anew."""
        M = assemble_normal_form(NormalForm((BlockSpec(1.0, 2, +1),)))
        lin = Linearization(M)
        M[:] = assemble_normal_form(NormalForm((BlockSpec(1.5, 1, -1), BlockSpec(0.5, 1, -1))))
        assert spectral_summary(lin).betas == pytest.approx((1.0,))
        assert spectral_summary(M).betas == pytest.approx((1.5, 0.5))
        assert len(counted["clusters"]) == 2

    def test_two_linearizations_keep_their_own(self, counted):
        """Nothing is evicted: each Linearization keeps its spectrum while
        another is read."""
        lin1 = Linearization(assemble_normal_form(NormalForm((BlockSpec(1.0, 1, -1),))))
        lin2 = Linearization(assemble_normal_form(NormalForm((BlockSpec(2.0, 1, -1),))))
        first = spectral_summary(lin1)
        spectral_summary(lin2)
        assert spectral_summary(lin1) == first
        assert counted["clusters"] == [lin1, lin2]

    def test_returned_values_cannot_corrupt_the_linearization(self, counted):
        A = np.diag([1.0, -1.0, 1.0, 1.0])  # an oscillator and a saddle
        lin = Linearization(conjugate(standard_symplectic(2) @ A, seed=3))
        summary, band = lin.clusters
        assert len(summary.other_eigenvalues) == 2
        with pytest.raises(TypeError):
            summary.imaginary[0] = summary.imaginary[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            summary.imaginary[0].jordan_partition = (2,)
        for array in (lin.M, lin.eigenvalues, *lin.schur):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert lin.clusters == (summary, band)
        assert len(counted["clusters"]) == 1


def conjugated_24():
    """Hessian of the conjugated 24-dim example: partitions (5), (3, 1) and
    (2, 1) at beta 1.9, 1.1 and 0.7."""
    from hambif import assemble_hessian

    blocks = (BlockSpec(0.7, 2, -1), BlockSpec(0.7, 1, 1), BlockSpec(1.1, 3, 1),
              BlockSpec(1.1, 1, -1), BlockSpec(1.9, 5, -1))
    S = random_symplectic(12, seed=6465, scale=0.5)
    A = S.T @ assemble_hessian(NormalForm(blocks)) @ S
    return 0.5 * (A + A.T)


def analysis_spec(A, **options):
    from hambif import AnalysisOptions, Equilibrium, ProblemSpec

    dim = A.shape[0]
    return ProblemSpec(dim=dim, equilibria=(Equilibrium(point=np.zeros(dim), hessian=A),),
                       options=AnalysisOptions(**options))


def test_one_spectrum_per_equilibrium(counted):
    """A full analysis of the conjugated 24-dim example searches the clusters
    of its matrix once and climbs each rank staircase once."""
    from hambif import run_analysis

    spec = analysis_spec(conjugated_24())
    report = run_analysis(spec)
    entry = report["equilibria"][0]
    assert entry["errors"] == []
    assert [(ev["beta"], ev["jordan_partition"]) for ev in entry["imaginary_spectrum"]] == [
        (pytest.approx(1.9), [5]), (pytest.approx(1.1), [3, 1]), (pytest.approx(0.7), [2, 1]),
    ]
    assert len(counted["clusters"]) == 1
    assert len(counted["staircase"]) == 3
    assert len(set(counted["staircase"])) == 3
    # the first candidate merges all twelve eigenvalues; its staircase rejects it
    assert [mult for _, mult in counted["rejected"]] == [12]


def test_summary_climbs_each_staircase_once(monkeypatch):
    """The rank staircase that accepts a cluster is the one that yields its
    partition: one spectral_summary makes only the rank SVDs of its cluster
    search, and jordan_partition at each frequency of the same Linearization
    then makes none."""
    from hambif import spectral

    svds = []
    rank_with_gap = spectral.numeric_rank_with_gap

    def counting(M, tol):
        svds.append(M.shape)
        return rank_with_gap(M, tol)

    monkeypatch.setattr(spectral, "numeric_rank_with_gap", counting)
    M = standard_symplectic(12) @ conjugated_24()

    spectral._find_clusters(Linearization(M))
    search = len(svds)
    # one step per size of the largest block of each frequency (5 + 3 + 2),
    # and one for the twelve-member candidate, whose first step finds no kernel
    assert search == 11

    svds.clear()
    lin = Linearization(M)
    summary = spectral_summary(lin)
    assert len(svds) == search
    for ev in summary.imaginary:
        assert jordan_partition(lin, ev.beta) == ev.jordan_partition
    assert len(svds) == search


# cond(S) 8.7e5, 3.8e6 and 9.9e6: the ten eigenvalues near i form one
# plausible cluster whose staircase stalls at kernel 8, and every piece of a
# split overshoots
UNCONFIRMED = [(424270, 7.1875), (424276, 7.9375), (424280, 7.65625)]


@pytest.mark.parametrize("seed, t", UNCONFIRMED)
def test_unconfirmed_cluster_abstains(seed, t, tmp_path):
    """A cluster on the imaginary axis that no rank staircase confirms, whole
    or split, is an error, not a spectrum with no imaginary part."""
    from hambif import emit_problem, run_analysis
    from hambif.cli import main as cli_main
    from hambif.errors import DecompositionError

    A = squeezed_readme_example(seed, t)
    with pytest.raises(DecompositionError, match="no rank staircase confirms the 10 eigenvalue"):
        spectral_summary(standard_symplectic(10) @ A)

    spec = analysis_spec(A)
    entry = run_analysis(spec)["equilibria"][0]
    assert "note" not in entry
    assert len(entry["errors"]) == 1
    assert entry["errors"][0].startswith("spectral analysis failed: no rank staircase confirms")

    path = tmp_path / "problem.json"
    path.write_text(emit_problem(spec))
    assert cli_main(["analyze", "--input", str(path), "--output", str(tmp_path / "report.json")]) == 3


def test_partly_confirmed_cluster_abstains(tmp_path):
    """The benchmark's tail18 (cond(S) 6.2e6): one piece of the ten
    eigenvalues near i is confirmed, while the rest sit within the band of
    the axis.  Filing that rest as other spectrum would report beta 1 with
    multiplicity 5 in place of 10; the spectrum is undecided instead."""
    from hambif import emit_problem, run_analysis
    from hambif.cli import main as cli_main
    from hambif.errors import DecompositionError

    A = squeezed_readme_example(424278, 8.5)
    with pytest.raises(DecompositionError, match="confirm only part of the 10 eigenvalue"):
        spectral_summary(standard_symplectic(10) @ A)

    spec = analysis_spec(A)
    entry = run_analysis(spec)["equilibria"][0]
    assert len(entry["errors"]) == 1
    assert entry["errors"][0].startswith("spectral analysis failed: rank staircases confirm only part")

    path = tmp_path / "problem.json"
    path.write_text(emit_problem(spec))
    assert cli_main(["analyze", "--input", str(path), "--output", str(tmp_path / "report.json")]) == 3


def quartet_hessian(N, a):
    """Hessian of q1 p2 - q2 p1 + a (q1 p1 + q2 p2), whose J A has the
    hyperbolic quartet +-a +- i, plus oscillators at 2, ..., N - 1."""
    A = np.zeros((2 * N, 2 * N))
    for i, j, v in [(0, N + 1, 1.0), (1, N, -1.0), (0, N, a), (1, N + 1, a)]:
        A[i, j] = A[j, i] = v
    for k in range(2, N):
        A[k, k] = A[N + k, N + k] = k
    return A


# the two upper eigenvalues a + i and -a + i merge into one candidate whose
# centroid i lies on the axis; no staircase finds a kernel there
@pytest.mark.parametrize("N, a", [(10, 0.01), (2, 5e-7)])
def test_hyperbolic_quartet_is_other_spectrum(N, a, tmp_path):
    """A Krein quartet off the axis is other spectrum, not an undecided one."""
    from hambif import emit_problem, run_analysis
    from hambif.cli import main as cli_main

    A = quartet_hessian(N, a)
    summary = spectral_summary(standard_symplectic(N) @ A)
    assert summary.betas == pytest.approx(range(N - 1, 1, -1))
    assert sorted(summary.other_eigenvalues, key=lambda z: (z.real, z.imag)) == pytest.approx(
        [-a - 1j, -a + 1j, a - 1j, a + 1j], abs=1e-12)

    spec = analysis_spec(A)
    entry = run_analysis(spec)["equilibria"][0]
    assert entry["errors"] == []
    assert entry["has_nonimaginary"] is True
    assert len(entry["other_eigenvalues"]) == 4

    path = tmp_path / "problem.json"
    path.write_text(emit_problem(spec))
    assert cli_main(["analyze", "--input", str(path), "--output", str(tmp_path / "report.json")]) == 0


# a = 1e-6: (J A - i)^2 has a kernel of 3 at the rank cutoff, so the first
# candidate's staircase lands on its multiplicity with its drops out of order
@pytest.mark.parametrize("a", [1e-6, 1e-4])
def test_simple_pair_beside_a_hyperbolic_quartet(a, tmp_path):
    """A simple pair at beta 1 next to the quartet +-a +- i, with a above the
    band of the axis: the pair is confirmed, and the quartet stays other
    spectrum without making the cluster undecided."""
    from hambif import emit_problem, run_analysis
    from hambif.cli import main as cli_main

    # the quartet's coupling of (q1, q2) with (p1, p2), and (q3^2 + p3^2) / 2
    A = np.zeros((6, 6))
    A[:2, 3:5] = quartet_hessian(2, a)[:2, 2:]
    A[3:5, :2] = A[:2, 3:5].T
    A[2, 2] = A[5, 5] = 1.0
    summary = spectral_summary(standard_symplectic(3) @ A)
    assert summary.betas == pytest.approx([1.0])
    assert summary.imaginary[0].jordan_partition == (1,)
    assert sorted(summary.other_eigenvalues, key=lambda z: (z.real, z.imag)) == pytest.approx(
        [-a - 1j, -a + 1j, a - 1j, a + 1j], abs=1e-12)

    spec = analysis_spec(A)
    assert run_analysis(spec)["equilibria"][0]["errors"] == []
    path = tmp_path / "problem.json"
    path.write_text(emit_problem(spec))
    assert cli_main(["analyze", "--input", str(path), "--output", str(tmp_path / "report.json")]) == 0


# library calls that read the spectrum, then reach a Schur form, then read
# the spectrum again through a whole analysis
LIBRARY_READS = (
    "import sys; from pathlib import Path; import hambif as hb; "
    "spec = hb.parse_problem(Path(sys.argv[1]).read_text()); tol = spec.options.tolerances; "
    "M = hb.standard_symplectic(2) @ spec.equilibria[0].hessian; hb.spectral_summary(M, tol); "
    "hb.structural_decomposition(M, 1.0, tol); print(hb.emit_report(hb.run_analysis(spec)), end='')"
)


@pytest.mark.parametrize("argv", [
    ["-m", "hambif.cli", "analyze", "--input"],
    ["-m", "hambif.cli", "normal-form", "--input"],
    ["-m", "hambif.cli", "index", "--input"],
    ["-c", LIBRARY_READS],
], ids=["analyze", "normal-form", "index", "library"])
def test_marginal_rank_decision_warns_once_per_analysis(tmp_path, argv):
    """Each command prints each ConditioningWarning once, though every stage
    of the analysis reads the spectrum that raised it and scipy loads partway
    through the process, at the first Schur form; so do library calls."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hambif
    from hambif import emit_problem

    spec = analysis_spec(np.diag([1.0, 2.0, 1.0, 2.0]), tolerances=TolerancePolicy(rank_tol=0.1))
    path = tmp_path / "problem.json"
    path.write_text(emit_problem(spec))
    src = str(Path(hambif.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, *argv, str(path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0
    warned = [line for line in run.stderr.splitlines() if "ConditioningWarning:" in line]
    assert [line.split("ConditioningWarning: ")[1] for line in warned] == [
        "rank decision within factor 2.50 of the cutoff while separating "
        "Jordan blocks at beta=2.0000000000000004",
        "rank decision within factor 3.33 of the cutoff while separating "
        "Jordan blocks at beta=1.0",
    ]
    notes = [ev["conditioning"] for ev in json.loads(run.stdout)["equilibria"][0]["imaginary_spectrum"]]
    assert notes == [line.split("ConditioningWarning: ")[1] for line in warned]
