"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines as they complete; the conftest hook prints one
outcome line per criterion either way).
"""

import math
import time

import numpy as np
import pytest

from hambif import (
    BlockSpec,
    ContinuationConfig,
    NormalForm,
    PolynomialHamiltonian,
    assemble_hessian,
    assemble_normal_form,
    block_counts,
    brouwer_nondegenerate,
    check_main_condition,
    continue_branch,
    even_block_hessian,
    gamma_jump,
    isolation_radius,
    morse_index,
    nonresonance_and_branch_count,
    odd_block_hessian,
    random_symplectic,
    seed_from_linearization,
    spectral_summary,
    standard_symplectic,
    structural_decomposition,
    t_matrix,
    verify_period_limit,
)

from conftest import random_normal_form

BETAS = (0.5, 1.0, 2.0)
ODD_SIZES = (1, 3, 5, 7, 9)
EVEN_SIZES = (2, 4, 6, 8)


def test_criterion_01_odd_block_jump_table():
    start = time.monotonic()
    for beta0 in BETAS:
        for n in ODD_SIZES:
            for eps in (1, -1):
                A = odd_block_hessian(n, beta0, eps)
                expected = 2 * (-1) ** (((n + 1) // 2) % 2) * eps
                assert gamma_jump(A, beta0) == expected
    assert time.monotonic() - start < 5.0


def test_criterion_02_even_block_jump_vanishes():
    for beta0 in BETAS:
        for n in EVEN_SIZES:
            for eps in (1, -1):
                assert gamma_jump(even_block_hessian(n, beta0, eps), beta0) == 0


def test_criterion_03_side_of_jump_values():
    for beta0 in BETAS:
        for builder, sizes in ((odd_block_hessian, ODD_SIZES), (even_block_hessian, EVEN_SIZES)):
            for n in sizes:
                for eps in (1, -1):
                    A = builder(n, beta0, eps)
                    low = morse_index(t_matrix((1.0 / beta0) * 0.7, A))
                    high = morse_index(t_matrix((1.0 / beta0) * 1.3, A))
                    assert low == 2 * n
                    assert high == 2 * morse_index(-A)


def test_criterion_04_worked_strictly_nonsemisimple_example():
    start = time.monotonic()
    nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1)))
    M = assemble_normal_form(nf)
    assert M.shape == (20, 20)
    A = assemble_hessian(nf)

    blocks = structural_decomposition(M, 1.0)
    counts = block_counts(blocks, 1.0)
    assert (counts.o_plus, counts.o_minus, counts.e_plus, counts.e_minus) == (0, 1, 1, 0)
    assert counts.kappa == -2

    report = check_main_condition(A, brouwer_nondegenerate(A), 1.0)
    assert report.gamma == 4  # spectral route, 40x40 doubled matrices
    assert report.brouwer == 1
    assert report.condition_holds is True
    assert report.routes_agree is True
    assert time.monotonic() - start < 2.0


def test_criterion_05_cross_route_identity_100_cases():
    cases = 0
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        nf = random_normal_form(rng, max_total_half_dim=8)
        M = assemble_normal_form(nf)
        A = assemble_hessian(nf)
        assert M.shape[0] <= 16
        S = random_symplectic(M.shape[0] // 2, seed=seed, scale=0.5)
        Mc = np.linalg.solve(S, M @ S)
        Ac = S.T @ A @ S
        for beta in sorted({b.beta for b in nf.blocks}):
            kappa = block_counts(nf.blocks, beta).kappa
            assert gamma_jump(Ac, beta) == -2 * kappa
            got = structural_decomposition(Mc, beta)
            want = [b for b in nf.blocks if abs(b.beta - beta) < 1e-12]
            assert sorted((b.half_dim, b.epsilon) for b in got) == sorted(
                (b.half_dim, b.epsilon) for b in want
            )
        cases += 1
    assert cases >= 100


def test_criterion_06_determinant_degeneracy_locus():
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        nf = random_normal_form(
            rng, max_total_half_dim=6, max_frequencies=3, min_separation=0.35,
            max_block=3, min_isolation=0.05,
        )
        A = assemble_hessian(nf)
        S = random_symplectic(A.shape[0] // 2, seed=seed, scale=0.5)
        A = S.T @ A @ S
        betas = sorted({b.beta for b in nf.blocks})

        off_levels = []
        for beta in betas:
            level = 1.0 / beta
            mu = isolation_radius(level, betas)
            off_levels.extend([level - mu, level + mu])
        off = [abs(np.linalg.det(t_matrix(lam, A))) for lam in off_levels]
        on = [abs(np.linalg.det(t_matrix(1.0 / beta, A))) for beta in betas]
        scale = float(np.exp(np.mean(np.log(off))))
        assert all(value > 1e-6 * scale for value in off)
        assert all(value < 1e-9 * scale for value in on)


def test_criterion_07_symplectic_invariance_of_morse_indices():
    done = 0
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        N = int(rng.integers(1, 6))
        A = rng.uniform(-1.0, 1.0, (2 * N, 2 * N))
        A = 0.5 * (A + A.T)
        S = random_symplectic(N, seed=seed, scale=0.5)
        betas = list(spectral_summary(standard_symplectic(N) @ A).betas)
        if betas:
            beta = betas[int(rng.integers(0, len(betas)))]
            m = int(rng.integers(1, 4))
            lam = m / beta + isolation_radius(m / beta, betas)
        else:
            lam = float(rng.uniform(0.2, 2.0))
        assert morse_index(t_matrix(lam, S.T @ A @ S)) == morse_index(t_matrix(lam, A))
        done += 1
    assert done == 100


def test_criterion_08_determinant_homotopy_constancy():
    taus = (0.0, 0.25, 0.5, 0.75, 1.0)
    for beta0 in BETAS:
        for n in (1, 3, 5, 7):
            for eps in (1, -1):
                for tau in taus:
                    det = np.linalg.det(odd_block_hessian(n, beta0, eps, coupling=tau))
                    assert det == pytest.approx(beta0 ** (2 * n), rel=1e-8)
        for n in (2, 4, 6):
            for eps in (1, -1):
                for tau in taus:
                    det = np.linalg.det(even_block_hessian(n, beta0, eps, coupling=tau))
                    assert det == pytest.approx(beta0 ** (2 * n), rel=1e-8)


def test_criterion_09_continuation_benchmark():
    start = time.monotonic()
    H = PolynomialHamiltonian(
        2,
        (
            (0.5, (2, 0)),
            (0.5, (0, 2)),
            (0.25, (4, 0)),
            (0.5, (2, 2)),
            (0.25, (0, 4)),
        ),
    )
    seed = seed_from_linearization(np.eye(2), 1.0, 0.01)
    config = ContinuationConfig(amplitude_target=0.55)
    branch = continue_branch(H, seed, config)
    assert branch.termination == "amplitude_target"
    checked = 0
    for orbit in branch.orbits:
        a = orbit.amplitude
        if a <= 0.5:
            assert abs(orbit.lam - 1.0 / (1.0 + a * a)) < 1e-5
            checked += 1
        assert orbit.energy_drift <= 1e-8
    assert checked >= 5
    assert branch.orbits[-1].amplitude > 0.5  # the window (0, 0.5] is fully covered
    assert verify_period_limit(branch, 1.0, 0.02 * 2.0 * math.pi, 0.1)
    assert time.monotonic() - start < 30.0


def test_criterion_10_positive_definite_sweep():
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        N = int(rng.integers(1, 7))  # 2N <= 12
        Q = rng.normal(size=(2 * N, 2 * N))
        A = Q @ Q.T + 0.25 * np.eye(2 * N)
        M = standard_symplectic(N) @ A
        evs = spectral_summary(M).imaginary
        assert sum(ev.algebraic_mult for ev in evs) == N  # everything purely imaginary
        brouwer = brouwer_nondegenerate(A)
        assert brouwer == 1
        for ev in evs:
            assert all(part == 1 for part in ev.jordan_partition)  # semisimple
            blocks = structural_decomposition(M, ev.beta)
            assert all((b.half_dim, b.epsilon) == (1, -1) for b in blocks)
            counts = block_counts(blocks, ev.beta)
            assert 2 * counts.o_minus == 2 * ev.algebraic_mult
            report = check_main_condition(A, brouwer, ev.beta)
            assert report.condition_holds is True


def test_criterion_11_nonresonance_branch_count():
    resonant = assemble_hessian(NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(2.0, 1, -1))))
    report = nonresonance_and_branch_count(resonant, brouwer_nondegenerate(resonant))
    flags = {round(beta, 9): flag for beta, flag in report.flags}
    assert flags == {2.0: True, 1.0: False}
    assert report.lower_bound == 1

    irrational = assemble_hessian(
        NormalForm((BlockSpec(1.0, 1, -1), BlockSpec(math.sqrt(2.0), 1, -1)))
    )
    report = nonresonance_and_branch_count(irrational, brouwer_nondegenerate(irrational))
    assert all(flag for _, flag in report.flags)
    assert report.lower_bound == 2
