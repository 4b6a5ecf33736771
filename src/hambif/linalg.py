"""Dense real matrix utilities: symplectic structure, Morse indices, tolerances.

Matrices are plain ``numpy`` arrays, validated at the API boundary.  All
eigenvalue work goes through LAPACK's orthogonal reductions (tridiagonal
implicit QR for symmetric input, Hessenberg QR otherwise), so Morse indices
and signatures are exact integers once the zero band is respected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, StructureError


@dataclass(frozen=True)
class TolerancePolicy:
    """Single knob set threaded through every numeric decision.

    rank_tol      relative singular-value cutoff for numeric ranks
    eig_zero_tol  eigenvalue zero band, scaled by the matrix norm
    residual_tol  threshold for structural residual checks
    """

    rank_tol: float = 1e-10
    eig_zero_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        if min(self.rank_tol, self.eig_zero_tol, self.residual_tol) <= 0.0:
            raise ValueError("all tolerances must be strictly positive")

    def scaled(self, factor: float) -> "TolerancePolicy":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return TolerancePolicy(
            rank_tol=self.rank_tol * factor,
            eig_zero_tol=self.eig_zero_tol * factor,
            residual_tol=self.residual_tol * factor,
        )

    def zero_band(self, scale: float = 1.0) -> float:
        """Absolute half-width of the eigenvalue zero band at a given norm scale."""
        return self.eig_zero_tol * max(1.0, float(scale))


DEFAULT_TOL = TolerancePolicy()


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def half_dimension(M: np.ndarray, name: str = "matrix") -> int:
    if M.shape[0] % 2 != 0:
        raise ValueError(f"{name} must have even dimension, got {M.shape[0]}")
    return M.shape[0] // 2


def matrix_norm(M: np.ndarray) -> float:
    """Spectral norm; the reference scale for tolerance decisions."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def as_symmetric(A, tol: TolerancePolicy = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within ``residual_tol`` and return the exact symmetrization."""
    A = as_matrix(A, name)
    asym = np.max(np.abs(A - A.T)) if A.size else 0.0
    if asym > tol.residual_tol * (1.0 + matrix_norm(A)):
        raise StructureError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return 0.5 * (A + A.T)


def standard_symplectic(N: int) -> np.ndarray:
    """The 2N x 2N block matrix [[0, Id], [-Id, 0]]."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    J = np.zeros((2 * N, 2 * N))
    J[:N, N:] = np.eye(N)
    J[N:, :N] = -np.eye(N)
    return J


def is_hamiltonian(M, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff M^T = J M J within ``residual_tol`` (equivalently M = J A, A symmetric)."""
    M = as_matrix(M)
    N = half_dimension(M)
    J = standard_symplectic(N)
    residual = np.linalg.norm(M.T - J @ M @ J)
    return residual <= tol.residual_tol * (1.0 + matrix_norm(M))


def is_symplectic(S, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff S^T J S = J within ``residual_tol``; singular S simply fails the test."""
    S = as_matrix(S)
    N = half_dimension(S)
    J = standard_symplectic(N)
    residual = np.linalg.norm(S.T @ J @ S - J)
    return residual <= tol.residual_tol * (1.0 + matrix_norm(S) ** 2)


def _checked_spectrum(A, tol, allow_degenerate, caller):
    A = as_symmetric(A, tol, name=f"{caller} argument")
    w = np.linalg.eigvalsh(A)
    band = tol.zero_band(matrix_norm(A))
    if not allow_degenerate and w.size and np.min(np.abs(w)) <= band:
        worst = w[np.argmin(np.abs(w))]
        raise DegeneracyError(
            f"{caller}: eigenvalue {worst:.3e} inside the zero band (+-{band:.3e})"
        )
    return w, band


def morse_index(A, tol: TolerancePolicy = DEFAULT_TOL, allow_degenerate: bool = False) -> int:
    """Number of eigenvalues below the zero band of a symmetric matrix."""
    w, band = _checked_spectrum(A, tol, allow_degenerate, "morse_index")
    return int(np.count_nonzero(w < -band))


def signature(A, tol: TolerancePolicy = DEFAULT_TOL, allow_degenerate: bool = False) -> int:
    """Signature m^-(-A) - m^-(A) of a symmetric matrix."""
    w, band = _checked_spectrum(A, tol, allow_degenerate, "signature")
    return int(np.count_nonzero(w > band) - np.count_nonzero(w < -band))


def numeric_rank_with_gap(M, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, float]:
    """Rank by relative singular-value cutoff plus the decision margin.

    The margin is min(smallest kept / cutoff, cutoff / largest dropped); values
    below 10 mean the rank decision sits close to the cutoff.
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0, np.inf
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0, np.inf
    cutoff = tol.rank_tol * s[0]
    rank = int(np.count_nonzero(s > cutoff))
    margin = np.inf
    if rank < s.size and s[rank] > 0.0:
        margin = min(margin, cutoff / s[rank])
    if rank > 0:
        margin = min(margin, s[rank - 1] / cutoff)
    return rank, float(margin)


def random_symmetric(dim: int, seed: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Seeded symmetric matrix with entries drawn uniformly from [lo, hi]."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(lo, hi, size=(dim, dim))
    return 0.5 * (A + A.T)


def random_symplectic(N: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """exp(scale * J A) for a seeded random symmetric A; deterministic per seed."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    A = random_symmetric(2 * N, seed)
    J = standard_symplectic(N)
    return scipy.linalg.expm(scale * J @ A)


def symplectic_gram_schmidt(Q, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Turn a basis of a symplectic subspace into a standard symplectic one.

    Given columns spanning a 2k-dimensional subspace on which the form
    u^T J v is nondegenerate, returns columns [u_1..u_k, v_1..v_k] with
    u_i^T J v_j = delta_ij and all other pairings zero.
    """
    Q = np.array(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] % 2 != 0:
        raise ValueError("basis must have an even number of columns")
    J = standard_symplectic(Q.shape[0] // 2)
    us, vs = [], []
    cols = [Q[:, i] for i in range(Q.shape[1])]
    scale = max(1.0, matrix_norm(Q))
    while cols:
        u = cols.pop(0)
        nu = np.linalg.norm(u)
        if nu <= tol.residual_tol * scale:
            continue
        u = u / nu
        pairings = [abs(u @ J @ c) for c in cols]
        if not pairings or max(pairings) <= tol.residual_tol * scale:
            raise StructureError("subspace is not symplectic: unpaired direction")
        k = int(np.argmax(pairings))
        v = cols.pop(k)
        v = v / (u @ J @ v)
        cols = [c - (u @ J @ c) * v + (v @ J @ c) * u for c in cols]
        us.append(u)
        vs.append(v)
    if not us:
        raise ValueError("empty basis")
    return np.column_stack(us + vs)
