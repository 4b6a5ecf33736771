"""Imaginary spectrum of Hamiltonian matrices with Jordan structure.

The only genuinely ill-posed step in the pipeline lives here: deciding
numeric ranks of shifted powers.  Ranks come from singular values with an
auditable relative cutoff, and marginal decisions raise
:class:`~hambif.errors.ConditioningWarning` so a fragile classification is
never silent.  Complex arithmetic stays internal; the public data is real.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning, EigenvalueNotFoundError, StructureError
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_matrix,
    is_hamiltonian,
    matrix_norm,
    numeric_rank_with_gap,
)

MARGIN_FLOOR = 10.0  # rank decisions closer than this to the cutoff get flagged


class EigenvalueClass(enum.Enum):
    SIMPLE = "simple"
    SEMISIMPLE = "semisimple"
    PARTIALLY_SEMISIMPLE = "partially_semisimple"
    STRICTLY_NONSEMISIMPLE = "strictly_nonsemisimple"


@dataclass(frozen=True)
class ImaginaryEigenvalue:
    """A conjugate pair +-i*beta with the Jordan data of +i*beta."""

    beta: float
    algebraic_mult: int
    geometric_mult: int
    jordan_partition: tuple[int, ...]
    conditioning: str | None = None

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if sum(self.jordan_partition) != self.algebraic_mult:
            raise ValueError("partition must sum to the algebraic multiplicity")
        if len(self.jordan_partition) != self.geometric_mult:
            raise ValueError("partition length must equal the geometric multiplicity")
        if self.geometric_mult > self.algebraic_mult:
            raise ValueError("geometric multiplicity exceeds algebraic multiplicity")


@dataclass(frozen=True)
class SpectralSummary:
    imaginary: tuple[ImaginaryEigenvalue, ...]
    other_eigenvalues: tuple[complex, ...] = field(default=())

    @property
    def has_nonimaginary(self) -> bool:
        return len(self.other_eigenvalues) > 0

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(ev.beta for ev in self.imaginary)


# A size-k Jordan block perturbed at machine precision scatters its eigenvalue
# into a ring of radius ~ eps^(1/k).  Clustering therefore merges generously,
# at the radius of the largest ring the dimension allows, and every candidate
# cluster is then validated against the SVD rank staircase; clusters that the
# staircase rejects are split and retried.
_RING_EPS = 1.0e4 * np.finfo(float).eps


def _single_linkage(points: list[complex], threshold: float) -> list[list[complex]]:
    clusters = [[z] for z in points]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters)):
            hit = None
            for j in range(i + 1, len(clusters)):
                d = min(abs(a - b) for a in clusters[i] for b in clusters[j])
                if d <= threshold:
                    hit = j
                    break
            if hit is not None:
                clusters[i] = clusters[i] + clusters[hit]
                del clusters[hit]
                merged = True
                break
    return clusters


def _kernel_profile(M: np.ndarray, beta: float, tol: TolerancePolicy, cap: int):
    """Kernel dimensions of (M - i beta I)^k until they stabilize.

    Returns (kernel dims, ranks, worst rank-decision margin).
    """
    dim = M.shape[0]
    shifted = M.astype(complex) - 1j * beta * np.eye(dim)
    nrm = matrix_norm(shifted)
    if nrm == 0.0:
        return [dim], [0], np.inf
    B = shifted / nrm
    kernels: list[int] = []
    ranks = [dim]
    power = np.eye(dim, dtype=complex)
    worst = np.inf
    for _ in range(dim):
        power = power @ B
        rank, margin = numeric_rank_with_gap(power, tol)
        worst = min(worst, margin)
        ranks.append(rank)
        kernels.append(dim - rank)
        if len(kernels) > 1 and kernels[-1] == kernels[-2]:
            break
        if kernels[-1] >= cap:
            break
    return kernels, ranks, worst


class _OneMatrixMemo:
    """Results of the pure spectral steps for the most recent matrix only.

    Every stage of an analysis asks again for the spectrum of the same
    ``J A``; keeping the last matrix's results makes those repeats free,
    while memory stays bounded by one matrix however many problems a process
    analyzes.  A matrix is keyed by its bytes, so one changed in place is a
    new matrix.  Values are pure functions of the key and are immutable, so
    sharing them between callers is safe; failures are not stored.
    """

    def __init__(self):
        self._entry: tuple = (None, {})

    def lookup(self, M: np.ndarray, tol: TolerancePolicy, step, compute):
        key = (M.shape, M.dtype.str, M.tobytes(), tol)
        entry_key, results = self._entry
        if entry_key != key:
            results = {}
            # a single reference swap: a concurrent caller never files its
            # result under another matrix's key
            self._entry = (key, results)
        if step not in results:
            results[step] = compute()
        return results[step]


_MEMO = _OneMatrixMemo()


def _imaginary_clusters(M: np.ndarray, tol: TolerancePolicy):
    """Conjugate-pair frequencies (beta, multiplicity) plus leftover eigenvalues."""
    clusters, others, band = _MEMO.lookup(M, tol, "clusters", lambda: _find_clusters(M, tol))
    return clusters, np.array(others, dtype=complex), band


def _find_clusters(M: np.ndarray, tol: TolerancePolicy):
    w = np.linalg.eigvals(M)
    N = M.shape[0] // 2
    scale = max(1.0, matrix_norm(M))
    band = max(tol.zero_band(scale), np.sqrt(np.finfo(float).eps) * scale)
    threshold = scale * max(tol.eig_zero_tol, _RING_EPS ** (1.0 / max(N, 1)))

    upper = [complex(z) for z in w[w.imag > 0.0]]
    lower = [complex(z) for z in w[w.imag <= 0.0]]
    clusters: list[tuple[float, int]] = []
    others: list[complex] = []

    work = [(members, threshold) for members in _single_linkage(upper, threshold)] if upper else []
    while work:
        members, level = work.pop()
        centroid = complex(np.mean(members))
        radius = max(abs(z - centroid) for z in members)
        plausible = abs(centroid.real) <= band and centroid.imag > max(band, 1.5 * radius)
        if plausible:
            kernels, _, _ = _kernel_profile(M, centroid.imag, tol, cap=len(members))
            if kernels[-1] == len(members):
                clusters.append((float(centroid.imag), len(members)))
                for _ in members:
                    if lower:
                        k = int(np.argmin([abs(z - centroid.conjugate()) for z in lower]))
                        del lower[k]
                continue
        # reject or split: shrink the linkage threshold until the cluster breaks
        if len(members) > 1:
            finer = level / 4.0
            while finer > np.finfo(float).eps * scale:
                pieces = _single_linkage(members, finer)
                if len(pieces) > 1:
                    work.extend((piece, finer) for piece in pieces)
                    break
                finer /= 4.0
            else:
                others.extend(members)
        else:
            others.extend(members)
    others.extend(lower)
    return tuple(sorted(clusters)), tuple(others), band


def jordan_partition(
    M,
    beta: float,
    tol: TolerancePolicy = DEFAULT_TOL,
    algebraic_mult: int | None = None,
) -> tuple[int, ...]:
    """Jordan block sizes of the eigenvalue i*beta, largest first.

    Computed from the rank staircase r_k = rank((M - i beta I)^k): the number
    of blocks of size >= k is r_{k-1} - r_k.  A marginal rank decision emits a
    :class:`ConditioningWarning`.
    """
    M = as_matrix(M)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if algebraic_mult is None:
        clusters, _, band = _imaginary_clusters(M, tol)
        match = [c for c in clusters if abs(c[0] - beta) <= max(band, tol.zero_band(beta))]
        if not match:
            raise EigenvalueNotFoundError(f"i*{beta} is not an eigenvalue within tolerance")
        algebraic_mult = match[0][1]

    sizes, note = _MEMO.lookup(
        M, tol, ("staircase", beta, algebraic_mult),
        lambda: _rank_staircase(M, beta, tol, algebraic_mult),
    )
    if note is not None:
        warnings.warn(note, ConditioningWarning, stacklevel=2)
    return sizes


def _rank_staircase(M: np.ndarray, beta: float, tol: TolerancePolicy, algebraic_mult: int):
    """Jordan block sizes of i*beta, plus the message of a marginal rank decision or None."""
    dim = M.shape[0]
    shifted = M.astype(complex) - 1j * beta * np.eye(dim)
    nrm = matrix_norm(shifted)
    if nrm == 0.0:
        raise EigenvalueNotFoundError("matrix is identically i*beta*I, no Jordan data")
    B = shifted / nrm

    ranks = [dim]
    power = np.eye(dim, dtype=complex)
    worst_margin = np.inf
    k = 0
    while ranks[-1] > dim - algebraic_mult and k < dim:
        k += 1
        power = power @ B
        rank, margin = numeric_rank_with_gap(power, tol)
        worst_margin = min(worst_margin, margin)
        ranks.append(rank)
    if ranks[-1] != dim - algebraic_mult:
        raise EigenvalueNotFoundError(
            f"rank staircase of i*{beta} never exhausted multiplicity {algebraic_mult}"
        )
    note = None
    if worst_margin < MARGIN_FLOOR:
        note = (
            f"rank decision within factor {worst_margin:.2f} of the cutoff "
            f"while separating Jordan blocks at beta={beta}"
        )

    blocks_ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes: list[int] = []
    for size in range(len(blocks_ge), 0, -1):
        exactly = blocks_ge[size - 1] - (blocks_ge[size] if size < len(blocks_ge) else 0)
        sizes.extend([size] * exactly)
    return tuple(sizes), note


def spectral_summary(M, tol: TolerancePolicy = DEFAULT_TOL) -> SpectralSummary:
    """All conjugate pairs +-i*beta with Jordan data, plus the leftover spectrum."""
    M = as_matrix(M)
    if not is_hamiltonian(M, tol):
        raise StructureError("spectral_summary expects a Hamiltonian matrix")
    clusters, others, _ = _imaginary_clusters(M, tol)

    entries = []
    for beta, mult in sorted(clusters, reverse=True):
        note: str | None = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConditioningWarning)
            partition = jordan_partition(M, beta, tol, algebraic_mult=mult)
        for item in caught:
            if issubclass(item.category, ConditioningWarning):
                note = str(item.message)
                warnings.warn(item.message, ConditioningWarning, stacklevel=2)
        entries.append(
            ImaginaryEigenvalue(
                beta=beta,
                algebraic_mult=mult,
                geometric_mult=len(partition),
                jordan_partition=partition,
                conditioning=note,
            )
        )
    other = tuple(sorted(map(complex, others), key=lambda z: (z.real, z.imag)))
    return SpectralSummary(imaginary=tuple(entries), other_eigenvalues=other)


def imaginary_spectrum(M, tol: TolerancePolicy = DEFAULT_TOL) -> list[ImaginaryEigenvalue]:
    """Distinct frequencies beta > 0 with +-i*beta in the spectrum, beta descending."""
    return list(spectral_summary(M, tol).imaginary)


def classify_eigenvalue(ev: ImaginaryEigenvalue) -> EigenvalueClass:
    """Narrowest of simple / semisimple / partially / strictly nonsemisimple."""
    parts = ev.jordan_partition
    if parts == (1,):
        return EigenvalueClass.SIMPLE
    if all(p == 1 for p in parts):
        return EigenvalueClass.SEMISIMPLE
    if any(p == 1 for p in parts):
        return EigenvalueClass.PARTIALLY_SEMISIMPLE
    return EigenvalueClass.STRICTLY_NONSEMISIMPLE
