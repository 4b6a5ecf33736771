"""Dense real matrix utilities: symplectic structure, Morse indices, tolerances.

Matrices are plain ``numpy`` arrays, validated at the API boundary.  All
eigenvalue work goes through LAPACK's orthogonal reductions (tridiagonal
implicit QR for symmetric input, Hessenberg QR otherwise), so Morse indices
and signatures are exact integers once the zero band is respected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegeneracyError, SpecError, StructureError


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool: the one integer rule of arguments and problem fields."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite number: not a boolean, NaN, an infinity or an integer beyond
    the float range; the one number rule of settings and problem fields."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return abs(value) <= sys.float_info.max


_EXPECTED = {"int": "expected an integer", "float": "expected a finite number", "bool": "expected true or false"}
_CASTS = {"int": int, "float": float, "bool": bool}


def _typed(kind: str, value, path: str):
    """``value`` as the int, float or bool a field of type ``kind`` holds:
    an integer, a finite number, or True or False; the one field-type rule
    of the problem's objects.  Anything else is a :class:`SpecError` at ``path``."""
    if not (_is_integer(value) if kind == "int" else
            _is_number(value) if kind == "float" else isinstance(value, bool)):
        raise SpecError(_EXPECTED[kind], path)
    return _CASTS[kind](value)


def _check_fields(obj) -> None:
    """Each ``int``, ``float`` and ``bool`` field of ``obj`` (``... | None``
    also None) kept as :func:`_typed` returns it at ``$.<field>``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if kind in _CASTS and not (value is None and kind != f.type):
            object.__setattr__(obj, f.name, _typed(kind, value, f"$.{f.name}"))


def _even_dim(dim) -> int:
    """``dim`` as an int if an even integer >= 2, the one dimension rule of problems and Hamiltonians."""
    if not (_is_integer(dim) and dim >= 2 and dim % 2 == 0):
        raise SpecError("'dim' must be an even integer >= 2", "$.dim")
    return int(dim)


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
        _check_fields(self)
        # a tolerance of 1 or more calls every eigenvalue zero and every rank 0
        for value in (self.rank_tol, self.eig_zero_tol, self.residual_tol):
            if not 0.0 < value < 1.0:
                raise ValueError("all tolerances must lie strictly between 0 and 1")

    def scaled(self, factor: float) -> "TolerancePolicy":
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


def _asymmetry(A: np.ndarray, tol: TolerancePolicy) -> tuple[float, float]:
    """The largest entry of ``|A - A^T|`` of a square matrix and the bound
    ``residual_tol * (1 + ||A||)`` it may reach: the one symmetry rule."""
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    return asym, tol.residual_tol * (1.0 + matrix_norm(A))


def as_symmetric(A, tol: TolerancePolicy = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within ``residual_tol`` and return the exact symmetrization."""
    A = as_matrix(A, name)
    asym, bound = _asymmetry(A, tol)
    if asym > bound:
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


def _inertia(w: np.ndarray, tol: TolerancePolicy, caller: str | None = None) -> tuple[int, int, int]:
    """The counts (below, inside, above) of the eigenvalues w of a symmetric or
    Hermitian matrix against its zero band, scaled by its 2-norm max|w|: the
    one inertia rule.  Given a caller, an eigenvalue inside the band raises
    :class:`DegeneracyError` naming it."""
    band = tol.zero_band(np.max(np.abs(w), initial=0.0))
    below, above = int(np.count_nonzero(w < -band)), int(np.count_nonzero(w > band))
    if caller is not None and below + above < w.size:
        worst = w[np.argmin(np.abs(w))]
        raise DegeneracyError(f"{caller}: eigenvalue {worst:.3e} inside the zero band (+-{band:.3e})")
    return below, w.size - below - above, above


def morse_index(A, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Number of eigenvalues below the zero band of a symmetric matrix; an
    eigenvalue inside the band raises :class:`DegeneracyError`."""
    w = np.linalg.eigvalsh(as_symmetric(A, tol, name="morse_index argument"))
    return _inertia(w, tol, "morse_index")[0]


def numeric_rank_with_gap(M, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, float]:
    """Rank by relative singular-value cutoff plus the decision margin.

    The cutoff is ``rank_tol`` times the largest singular value, but never
    below ``max(M.shape) * eps`` times it (numpy's ``matrix_rank`` default),
    since singular values below that are rounding.  The margin is
    min(smallest kept / cutoff, cutoff / largest dropped); values below 10
    mean the rank decision sits close to the cutoff.
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0, np.inf
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0, np.inf
    cutoff = max(tol.rank_tol, max(M.shape) * np.finfo(float).eps) * s[0]
    rank = int(np.count_nonzero(s > cutoff))
    margin = np.inf
    if rank < s.size and s[rank] > 0.0:
        margin = min(margin, cutoff / s[rank])
    if rank > 0:
        margin = min(margin, s[rank - 1] / cutoff)
    return rank, float(margin)


def random_symmetric(dim: int, seed: int) -> np.ndarray:
    """Seeded symmetric matrix with entries drawn uniformly from [-1, 1]."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return 0.5 * (A + A.T)


def random_symplectic(N: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """exp(scale * J A) for a seeded random symmetric A; deterministic per seed."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    A = random_symmetric(2 * N, seed)
    J = standard_symplectic(N)
    import scipy.linalg  # the only scipy use here; keeps ``import hambif`` numpy-only

    return scipy.linalg.expm(scale * J @ A)
