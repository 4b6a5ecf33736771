"""Shared helpers: random normal forms, conjugations, and brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from hambif import (
    DEFAULT_TOL,
    BlockSpec,
    NormalForm,
    assemble_hessian,
    assemble_normal_form,
    random_symplectic,
    standard_symplectic,
)
from hambif.linalg import _inertia, as_symmetric, half_dimension


def _draw_betas(rng, max_frequencies, min_separation, min_isolation):
    """Frequencies whose level grids m/beta keep a healthy gap around each 1/beta."""
    from hambif import isolation_radius

    while True:
        n_freq = rng.integers(1, max_frequencies + 1)
        betas = []
        while len(betas) < n_freq:
            candidate = float(rng.uniform(0.6, 2.4))
            if all(abs(candidate - b) >= min_separation for b in betas):
                betas.append(candidate)
        if all(isolation_radius(1.0 / b, betas) >= min_isolation for b in betas):
            return betas


def random_normal_form(rng, max_total_half_dim=8, max_frequencies=3, min_separation=0.3,
                       max_block=5, min_isolation=0.03):
    """Normal form with random catalogue blocks at well-separated frequencies."""
    betas = _draw_betas(rng, max_frequencies, min_separation, min_isolation)
    blocks = []
    budget = int(max_total_half_dim)
    for i, beta in enumerate(betas):
        remaining_freqs = len(betas) - i - 1
        available = budget - remaining_freqs  # leave room for one oscillator each
        size = int(rng.integers(1, max(2, min(max_block, available) + 1)))
        blocks.append(BlockSpec(beta, size, int(rng.choice([-1, 1]))))
        budget -= size
        # sometimes add a second block at the same frequency
        if budget - remaining_freqs >= 1 and rng.random() < 0.5:
            extra = int(rng.integers(1, min(3, budget - remaining_freqs) + 1))
            blocks.append(BlockSpec(beta, extra, int(rng.choice([-1, 1]))))
            budget -= extra
    return NormalForm(tuple(blocks))


def catalogue_block(half_dim, beta, epsilon):
    """The assembled Hamiltonian matrix of one catalogue block."""
    return assemble_normal_form(NormalForm((BlockSpec(beta, half_dim, epsilon),)))


def conjugated_pair(nf, seed, scale=0.5):
    """Assembled matrix and Hessian conjugated by a random symplectic map."""
    M = assemble_normal_form(nf)
    A = assemble_hessian(nf)
    S = random_symplectic(M.shape[0] // 2, seed=seed, scale=scale)
    return np.linalg.solve(S, M @ S), S.T @ A @ S


def squeezed(nf, seed, t):
    """Hessian of the normal form ``nf`` conjugated by S1 D S2: S1 and S2
    random symplectic, D the symplectic squeeze diag(exp(t d), exp(-t d))."""
    H = assemble_hessian(nf)
    n = H.shape[0] // 2
    S1 = random_symplectic(n, seed=seed, scale=0.5)
    S2 = random_symplectic(n, seed=seed + 1, scale=0.5)
    d = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    S = S1 @ np.diag(np.exp(t * np.concatenate([d, -d]))) @ S2
    A = S.T @ H @ S
    return 0.5 * (A + A.T)


def squeezed_readme_example(seed, t):
    """The 20-dim README example, blocks (5,-1), (3,+1), (2,+1) at beta 1, squeezed."""
    return squeezed(NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1))), seed, t)


def t_matrix(lam, A):
    """The doubled family T(lam) = [[-lam A, J], [-J, -lam A]], 4N x 4N; the
    level-j family is ``t_matrix(lam / j, A)``.  It is the real form of the
    Hermitian H(lam) = -lam A - iJ, whose inertia the Morse jump counts, and
    ``morse_index`` of it is the oracle that count must equal."""
    A = as_symmetric(A, name="t_matrix argument")
    J = standard_symplectic(half_dimension(A, "t_matrix argument"))
    return np.block([[-lam * A, J], [-J, -lam * A]])


def signature(A, tol=DEFAULT_TOL):
    """Signature m^-(-A) - m^-(A) of a symmetric matrix, at the package's one
    zero band; an eigenvalue inside it raises DegeneracyError."""
    w = np.linalg.eigvalsh(as_symmetric(A, tol, name="signature argument"))
    below, _, above = _inertia(w, tol, "signature")
    return above - below


def staircase_oracle(M, beta, rel_cutoff=1e-8, shift=None):
    """Jordan partition of the eigenvalue ``shift`` (default i*beta) via plain
    SVD ranks of shifted powers."""
    dim = M.shape[0]
    if shift is None:
        shift = 1j * beta
    B = M.astype(complex) - shift * np.eye(dim)
    B = B / np.linalg.norm(B, 2)
    ranks = [dim]
    power = np.eye(dim, dtype=complex)
    while True:
        power = power @ B
        s = np.linalg.svd(power, compute_uv=False)
        rank = int(np.count_nonzero(s > rel_cutoff * s[0]))
        ranks.append(rank)
        if rank == ranks[-2]:
            break
    ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for size in range(len(ge), 0, -1):
        exactly = ge[size - 1] - (ge[size] if size < len(ge) else 0)
        sizes.extend([size] * exactly)
    return tuple(sizes)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
