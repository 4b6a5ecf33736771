"""Catalogue blocks for spectrum {+-i*beta}, assembly, block counts, decomposition.

A frequency beta contributes indecomposable blocks of two kinds: odd
half-dimension blocks built from an anti-diagonal quadratic form plus a
nearest-neighbour coupling, and even half-dimension blocks built from a
rotation pairing plus a two-step coupling.  Each carries a sign epsilon.
``structural_decomposition`` recovers the multiset {(half_dim, epsilon)} of
any Hamiltonian matrix at a given frequency; its sign extraction is pinned by
round-trip tests against the constructors and by the Morse-jump cross check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    half_dimension,
    standard_symplectic,
)
from . import spectral


@dataclass(frozen=True)
class BlockSpec:
    """Catalogue coordinates of one indecomposable block."""

    beta: float
    half_dim: int
    epsilon: int

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.half_dim < 1:
            raise ValueError("half_dim must be a positive integer")
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")

    @property
    def dim(self) -> int:
        return 2 * self.half_dim


@dataclass(frozen=True)
class NormalForm:
    """An ordered, nonempty list of catalogue blocks."""

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", canonical_block_order(self.blocks))
        if not self.blocks:
            raise ValueError("normal form needs at least one block")

    @property
    def half_dims(self) -> tuple[int, ...]:
        return tuple(b.half_dim for b in self.blocks)

    @property
    def dim(self) -> int:
        return 2 * sum(self.half_dims)


@dataclass(frozen=True)
class BlockCounts:
    """Counts of odd blocks at one frequency, split by (half_dim+1)/2 parity and sign."""

    o_plus: int
    o_minus: int
    e_plus: int
    e_minus: int

    @property
    def kappa(self) -> int:
        return self.o_plus - self.o_minus - self.e_plus + self.e_minus

    @property
    def total(self) -> int:
        return self.o_plus + self.o_minus + self.e_plus + self.e_minus


def canonical_block_order(blocks) -> tuple[BlockSpec, ...]:
    return tuple(sorted(blocks, key=lambda b: (-b.beta, -b.half_dim, -b.epsilon)))


def odd_block_hessian(half_dim: int, beta: float, epsilon: int, coupling: float = 1.0) -> np.ndarray:
    """Quadratic-form Hessian behind the odd catalogue block.

    ``coupling`` scales the nearest-neighbour x_i y_{i+1} terms; 1.0 gives the
    block itself, and the determinant stays beta^(2*half_dim) along the whole
    [0, 1] path.
    """
    n = half_dim
    if n < 1 or n % 2 == 0:
        raise ValueError("odd blocks need an odd positive half_dim")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    P = np.zeros((n, n))
    for i in range(1, (n - 1) // 2 + 1):
        value = -epsilon * beta * (-1.0) ** (i + 1)
        P[i - 1, n - i] = value
        P[n - i, i - 1] = value
    mid = (n + 1) // 2
    P[mid - 1, mid - 1] = epsilon * beta * (-1.0) ** (n // 2 + 1)
    U = np.zeros((n, n))
    for i in range(1, n):
        U[i - 1, i] = coupling
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = P
    A[n:, n:] = P
    A[:n, n:] = U
    A[n:, :n] = U.T
    return A


def even_block_hessian(half_dim: int, beta: float, epsilon: int, coupling: float = 1.0) -> np.ndarray:
    """Quadratic-form Hessian behind the even catalogue block.

    ``coupling`` scales the two-step couplings and the epsilon terms together;
    the determinant stays beta^(2*half_dim) along the whole [0, 1] path.
    """
    n = half_dim
    if n < 2 or n % 2 == 1:
        raise ValueError("even blocks need an even positive half_dim")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    K = np.zeros((n, n))
    for i in range(1, n // 2 + 1):
        K[2 * i - 2, 2 * i - 1] = beta
        K[2 * i - 1, 2 * i - 2] = -beta
    for i in range(1, n - 1):
        K[i - 1, i + 1] += coupling
    Dx = np.zeros((n, n))
    Dx[n - 2, n - 2] = -epsilon * coupling
    Dx[n - 1, n - 1] = -epsilon * coupling
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = Dx
    A[:n, n:] = K
    A[n:, :n] = K.T
    return A


def block_hessian(spec: BlockSpec) -> np.ndarray:
    if spec.half_dim % 2 == 1:
        return odd_block_hessian(spec.half_dim, spec.beta, spec.epsilon)
    return even_block_hessian(spec.half_dim, spec.beta, spec.epsilon)


def interleave_permutation(half_dims) -> np.ndarray:
    """Permutation P mapping stacked per-block (x, y) coordinates to the
    interleaved layout (all x's first, then all y's): A_out = P A_in P^T.

    P carries the stacked symplectic structure diag(J_1, ..., J_s) onto the
    standard J of the full dimension, so conjugating by it preserves the
    Hamiltonian property.
    """
    half_dims = list(half_dims)
    if not half_dims or any(n < 1 for n in half_dims):
        raise ValueError("half_dims must be positive integers")
    N = sum(half_dims)
    P = np.zeros((2 * N, 2 * N))
    ds = 0
    offset = 0
    for n in half_dims:
        for i in range(n):
            P[offset + i, ds + i] = 1.0          # x part
            P[N + offset + i, ds + n + i] = 1.0  # y part
        ds += 2 * n
        offset += n
    return P


def assemble_hessian(nf: NormalForm) -> np.ndarray:
    """Hessian of the assembled normal form: the blocks' Hessians stacked, then
    interleaved (all x coordinates first, all y coordinates second)."""
    P = interleave_permutation(nf.half_dims)
    stacked = np.zeros_like(P)
    start = 0
    for b in nf.blocks:
        stop = start + 2 * b.half_dim
        stacked[start:stop, start:stop] = block_hessian(b)
        start = stop
    return P @ stacked @ P.T


def assemble_normal_form(nf: NormalForm) -> np.ndarray:
    """Assembled Hamiltonian matrix J A for the standard J of the full dimension."""
    return standard_symplectic(nf.dim // 2) @ assemble_hessian(nf)


def block_counts(blocks, beta: float, tol: TolerancePolicy = DEFAULT_TOL) -> BlockCounts:
    """Count the odd blocks of an iterable of :class:`BlockSpec` at the given
    frequency.  Blocks of even half-dimension never enter the counts; an
    absent frequency yields all zeros.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    band = tol.zero_band(beta)
    o_plus = o_minus = e_plus = e_minus = 0
    for b in blocks:
        if abs(b.beta - beta) > band or b.half_dim % 2 == 0:
            continue
        odd_level = ((b.half_dim + 1) // 2) % 2 == 1
        if odd_level:
            if b.epsilon > 0:
                o_plus += 1
            else:
                o_minus += 1
        else:
            if b.epsilon > 0:
                e_plus += 1
            else:
                e_minus += 1
    return BlockCounts(o_plus, o_minus, e_plus, e_minus)


# --- sign characteristic extraction ---------------------------------------
#
# On the generalized eigenspace E of +i*beta the Hermitian form
# K(u, v) = conj(u)^T (-iJ) v is nondegenerate and T = (M - i*beta) is
# K-skew-adjoint.  The Hermitian moment forms
#
#     G_k = i^(k-1) * K restricted against T^(k-1)
#
# have congruence-invariant signatures that mix the per-size sign sums
# triangularly; `_chain_sign_sums` inverts that mixing.  The parity factor
# below converts a canonical-chain contribution of a size-n block to its
# footprint in sig(G_k); `_sign_to_epsilon` converts the resulting chain sign
# into the catalogue epsilon (calibrated once against the constructors).


def _chain_factor(n: int, k: int) -> int:
    # contribution sign of a size-n chain with invariant +1 to sig(G_k); n = k mod 2
    if n % 2 == 1:
        exponent = (k - 1) // 2 + (n + k) // 2 - 1
    else:
        exponent = k // 2 + (n + k) // 2 - 1
    return -1 if exponent % 2 else 1


def _sign_to_epsilon(n: int, sign: int) -> int:
    # catalogue epsilon of a size-n block from its chain sign (calibrated
    # against the constructors; round-trip tests pin this table)
    if n % 2 == 1:
        return -sign
    return sign if (n // 2) % 2 == 1 else -sign


def _invariant_subspace(lin: spectral.Linearization, beta: float, expected_dim: int):
    """Orthonormal basis of the generalized eigenspace of +i*beta: M's one
    Schur form, reordered by LAPACK ``trsen`` to lead with the selected
    eigenvalues, as a Schur form sorted by ``gees`` is.

    The selection radius is data-driven: halfway between the expected_dim
    eigenvalues nearest to i*beta and the first one beyond them.  A
    subspace of another dimension is refused, not replaced by the kernel of
    the rank staircase's last power: where an ill-conditioned pair splits
    into two nearby frequencies, that kernel gives each half a block of its
    own, of opposite signs, which the normal form does not have.
    """
    target = 1j * beta
    dist = np.sort(np.abs(lin.eigenvalues - target))
    if expected_dim >= dist.size:
        radius = np.inf
    else:
        radius = 0.5 * (dist[expected_dim - 1] + dist[expected_dim])
        if dist[expected_dim - 1] >= radius:
            raise DecompositionError(
                f"no eigenvalue gap separates the cluster at beta={beta}"
            )
    import scipy.linalg  # loaded with the Schur form, not at ``import hambif``

    # the Linearization keeps one Schur form; trsen reorders copies
    T, Z = lin.schur
    select = np.abs(np.diag(T) - target) < radius
    _, Z, _, sdim, _, _, info = scipy.linalg.lapack.ztrsen(select, T, Z, job="N")
    if info != 0:
        raise DecompositionError(f"Schur reordering at beta={beta} failed (LAPACK info {info})")
    if sdim != expected_dim:
        raise DecompositionError(
            f"invariant subspace at beta={beta} has dimension {sdim}, expected {expected_dim}"
        )
    return Z[:, :sdim]


def _signature_with_gap(G: np.ndarray, expected_rank: int):
    """Signature of the top ``expected_rank`` eigenvalues, plus the rank gap."""
    w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    w = w[np.argsort(-np.abs(w))]
    if expected_rank > w.size:
        raise DecompositionError("expected rank exceeds form dimension")
    kept = w[:expected_rank]
    dropped = w[expected_rank:]
    gap = np.inf
    if expected_rank and dropped.size:
        bottom = abs(dropped[0])
        gap = np.inf if bottom == 0.0 else abs(kept[-1]) / bottom
    sig = int(np.count_nonzero(kept > 0) - np.count_nonzero(kept < 0))
    return sig, float(gap)


def _chain_sign_sums(partition, signatures):
    """Solve the triangular mixing for the per-size sums of chain signs."""
    sizes = sorted(set(partition), reverse=True)
    sums: dict[int, int] = {}
    for n in sizes:
        acc = signatures[n]
        for m in sizes:
            if m > n and (m - n) % 2 == 0:
                acc -= _chain_factor(m, n) * sums[m]
        sums[n] = acc * _chain_factor(n, n)
    return sums


def structural_decomposition(
    M, beta: float, tol: TolerancePolicy = DEFAULT_TOL
) -> list[BlockSpec]:
    """Catalogue blocks {(half_dim, epsilon)} of M at frequency beta.

    Sizes come from the Jordan partition; signs from the signatures of the
    Hermitian moment forms on the generalized eigenspace.  The output is
    invariant under symplectic conjugation of M.  M may be a
    :class:`~hambif.spectral.Linearization`, which keeps the blocks at each
    beta; a repeat reads them from it, as a list of its own.
    """
    lin = spectral.Linearization.of(M, tol)
    if 2 * half_dimension(lin.M) > 64:
        raise DecompositionError("decomposition supported up to dimension 64")
    lin.check_hamiltonian("structural_decomposition")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return list(lin.keep(("blocks", beta), lambda: _decompose(lin, beta)))


def _decompose(lin: spectral.Linearization, beta: float) -> tuple[BlockSpec, ...]:
    partition = list(spectral.jordan_partition(lin, beta, lin.tol))
    d = sum(partition)
    E = _invariant_subspace(lin, beta, d)

    T_sub = E.conj().T @ lin.M @ E - 1j * beta * np.eye(d)
    K_E = E.conj().T @ (-1j * standard_symplectic(lin.M.shape[0] // 2)) @ E
    K_E = 0.5 * (K_E + K_E.conj().T)

    sizes = sorted(set(partition), reverse=True)
    counts = {n: partition.count(n) for n in sizes}
    signatures: dict[int, int] = {}
    gaps: dict[int, float] = {}
    power = np.eye(d, dtype=complex)
    for k in range(1, max(sizes) + 1):
        if k > 1:
            power = power @ T_sub
        expected_rank = sum(counts[n] * (n - k + 1) for n in sizes if n >= k)
        G = (1j) ** (k - 1) * K_E @ power
        sig, gap = _signature_with_gap(G, expected_rank)
        signatures[k] = sig
        gaps[k] = gap
    if min(gaps.values(), default=np.inf) < 1.0e2:
        raise DecompositionError(
            f"moment-form rank gap too small at beta={beta}", rank_gaps=gaps
        )

    sums = _chain_sign_sums(partition, signatures)

    blocks: list[BlockSpec] = []
    for n in sizes:
        total, signed = counts[n], sums[n]
        if abs(signed) > total or (total + signed) % 2 != 0:
            raise DecompositionError(
                f"sign sum {signed} incompatible with {total} blocks of size {n}",
                rank_gaps=gaps,
            )
        plus = (total + signed) // 2
        minus = (total - signed) // 2
        blocks.extend([BlockSpec(beta, n, _sign_to_epsilon(n, +1))] * plus)
        blocks.extend([BlockSpec(beta, n, _sign_to_epsilon(n, -1))] * minus)
    return canonical_block_order(blocks)
