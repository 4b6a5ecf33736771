"""Imaginary spectrum of Hamiltonian matrices with Jordan structure.

The only genuinely ill-posed step in the pipeline lives here: deciding
numeric ranks of shifted powers.  Ranks come from singular values with an
auditable relative cutoff, and marginal decisions raise
:class:`~hambif.errors.ConditioningWarning` so a fragile classification is
never silent.  Complex arithmetic stays internal; the public data is real.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning, DecompositionError, EigenvalueNotFoundError, StructureError
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
# cluster is then validated against the SVD rank staircase that also yields
# its Jordan partition; clusters that the staircase rejects are split and
# retried.
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


class _OneMatrixMemo:
    """Results of the pure spectral steps for the most recent matrix only.

    Every stage of an analysis asks again whether the same ``J A`` is
    Hamiltonian, for its eigenvalues, clusters and Schur form, and for its
    frequencies' Morse jumps and blocks; keeping the last matrix's results
    makes those repeats free, while memory stays bounded by one matrix
    however many problems a process analyzes.  A matrix is keyed by its
    bytes, so one changed in place is a new matrix.
    Values are pure functions of the key and are immutable, so sharing them
    between callers is safe; failures are not stored.
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


def _eigenvalues(M: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """The eigenvalues of M, computed once per matrix and read-only."""
    w = _MEMO.lookup(M, tol, "eigvals", lambda: np.linalg.eigvals(M))
    w.flags.writeable = False
    return w


def _is_hamiltonian(M: np.ndarray, tol: TolerancePolicy) -> bool:
    """``is_hamiltonian(M, tol)``, checked once per matrix."""
    return _MEMO.lookup(M, tol, "hamiltonian", lambda: is_hamiltonian(M, tol))


def _imaginary_clusters(M: np.ndarray, tol: TolerancePolicy):
    """Confirmed conjugate-pair frequencies (beta, multiplicity, Jordan
    partition, conditioning note), the leftover eigenvalues and the band."""
    clusters, others, band = _MEMO.lookup(M, tol, "clusters", lambda: _find_clusters(M, tol))
    return clusters, np.array(others, dtype=complex), band


def _cluster_at(M: np.ndarray, beta: float, tol: TolerancePolicy):
    """The confirmed cluster nearest i*beta, the one rule for which frequency a
    beta names; beyond max(band, 1e-6 * beta), or for a beta that is not
    finite, it raises EigenvalueNotFoundError."""
    clusters, _, band = _imaginary_clusters(M, tol)
    cluster = min(clusters, key=lambda c: abs(c[0] - beta), default=None)
    radius = max(band, 1e-6 * beta)
    if cluster is None or not (math.isfinite(beta) and abs(cluster[0] - beta) <= radius):
        raise EigenvalueNotFoundError(f"i*{beta} is not an eigenvalue within tolerance")
    return cluster


def _find_clusters(M: np.ndarray, tol: TolerancePolicy):
    w = _eigenvalues(M, tol)
    N = M.shape[0] // 2
    scale = max(1.0, matrix_norm(M))
    band = max(tol.zero_band(scale), np.sqrt(np.finfo(float).eps) * scale)
    threshold = scale * max(tol.eig_zero_tol, _RING_EPS ** (1.0 / max(N, 1)))

    upper = [complex(z) for z in w[w.imag > 0.0]]
    clusters: list[tuple[float, int, tuple[int, ...], str | None]] = []
    others: list[complex] = []

    # a plausible candidate with no plausible ancestor is a root.  A root
    # that neither it nor any of its pieces confirms, while some staircase in
    # its search finds a kernel, is an undecided stretch of the imaginary
    # axis: calling it imaginary or not would both be guesses.  One whose
    # staircases all find none is off the axis, as its eigenvalues are.  A
    # root confirmed in part, whose split leaves an eigenvalue within the
    # band of the axis as other spectrum, is undecided too: its remainder
    # may belong to the confirmed piece.
    roots: list[tuple[float, int]] = []
    confirmed: set[int] = set()
    on_axis: set[int] = set()
    dropped: set[int] = set()  # roots with an eigenvalue near the axis left over
    work = [(members, threshold, None) for members in _single_linkage(upper, threshold)] if upper else []
    while work:
        members, level, root = work.pop()
        centroid = complex(np.mean(members))
        radius = max(abs(z - centroid) for z in members)
        beta = centroid.imag
        if abs(centroid.real) <= band and beta > max(band, 1.5 * radius):
            if root is None:
                root = len(roots)
                roots.append((beta, len(members)))
            kernel, sizes, note = _rank_staircase(M, beta, tol, len(members))
            if sizes:
                clusters.append((beta, len(members), sizes, note))
                confirmed.add(root)
                continue
            if kernel:
                on_axis.add(root)
        # reject or split: shrink the linkage threshold until the cluster breaks
        finer = level / 4.0
        while len(members) > 1 and finer > np.finfo(float).eps * scale:
            pieces = _single_linkage(members, finer)
            if len(pieces) > 1:
                work.extend((piece, finer, root) for piece in pieces)
                break
            finer /= 4.0
        else:
            others.extend(members)
            if root is not None and any(abs(z.real) <= band for z in members):
                dropped.add(root)
    if on_axis - confirmed:
        beta, size = roots[min(on_axis - confirmed)]
        raise DecompositionError(
            f"no rank staircase confirms the {size} eigenvalue(s) clustered at i*{beta:.9g}, "
            f"nor any piece of them, though one finds a kernel there"
        )
    if dropped & confirmed:
        beta, size = roots[min(dropped & confirmed)]
        raise DecompositionError(
            f"rank staircases confirm only part of the {size} eigenvalue(s) clustered at "
            f"i*{beta:.9g}, and the rest lie within the band of the imaginary axis"
        )
    # eigvals of a real matrix pairs its complex eigenvalues as exact conjugates
    others += [z.conjugate() for z in others] + [complex(z) for z in w[w.imag == 0.0]]
    return tuple(sorted(clusters, key=lambda c: c[0])), tuple(others), band


def _rank_staircase(M: np.ndarray, beta: float, tol: TolerancePolicy, mult: int):
    """Kernel dimension, Jordan block sizes of i*beta and the message of a
    marginal rank decision (or None), from the ranks r_k = rank((M - i beta I)^k).

    The number of blocks of size >= k is r_{k-1} - r_k, so these drops are
    positive and never grow.  The climb stops at the first drop that breaks
    this, or when the kernel reaches ``mult``, so a rejected cluster costs no
    extra SVDs.  Unless the kernel reaches exactly ``mult`` with every drop
    in order, the cluster is rejected: the result is the kernel reached, no
    sizes and no note.  A drop out of order can land the kernel on ``mult``,
    so only the sizes tell a confirmation.
    """
    dim = M.shape[0]
    shifted = M.astype(complex) - 1j * beta * np.eye(dim)
    B = shifted / matrix_norm(shifted)  # nonzero: M is real and beta > 0

    power = np.eye(dim, dtype=complex)
    worst_margin = np.inf
    kernel, drops = 0, [mult]
    while kernel < mult:
        power = power @ B
        rank, margin = numeric_rank_with_gap(power, tol)
        worst_margin = min(worst_margin, margin)
        drops.append(dim - rank - kernel)
        kernel = dim - rank
        if not 0 < drops[-1] <= drops[-2]:
            return kernel, (), None
    if kernel != mult:
        return kernel, (), None
    note = None
    if worst_margin < MARGIN_FLOOR:
        note = (
            f"rank decision within factor {worst_margin:.2f} of the cutoff "
            f"while separating Jordan blocks at beta={beta}"
        )

    blocks_ge = drops[1:] + [0]
    sizes: list[int] = []
    for size in range(len(blocks_ge) - 1, 0, -1):
        sizes.extend([size] * (blocks_ge[size - 1] - blocks_ge[size]))
    return kernel, tuple(sizes), note


def _jordan_data(cluster):
    """Partition and conditioning note of a confirmed cluster.  The one place
    that issues the note as a warning, so the default filter shows each note
    once."""
    _, _, sizes, note = cluster
    if note is not None:
        # scipy's first import runs warnings.catch_warnings, which re-arms the
        # default filter: load it before the first note, or the note prints
        # again once a later stage reaches a Schur form
        import scipy.linalg  # noqa: F401

        warnings.warn(note, ConditioningWarning)
    return sizes, note


def jordan_partition(M, beta: float, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, ...]:
    """Jordan block sizes of the eigenvalue i*beta, largest first.

    Read from the rank staircase that confirmed the cluster beta names (see
    ``_cluster_at``), whether or not beta is its centre.  A marginal rank
    decision emits a :class:`ConditioningWarning`.  Raises
    :class:`DecompositionError` when the spectrum is undecided: a cluster on
    the imaginary axis that no rank staircase confirms.
    """
    M = as_matrix(M)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return _jordan_data(_cluster_at(M, beta, tol))[0]


def spectral_summary(M, tol: TolerancePolicy = DEFAULT_TOL) -> SpectralSummary:
    """All conjugate pairs +-i*beta with Jordan data, plus the leftover spectrum.

    Raises :class:`DecompositionError` when a cluster on the imaginary axis,
    where a rank staircase finds a kernel, is confirmed by no staircase, whole
    or split; every function that reads the spectrum passes it on.  Whether M
    is Hamiltonian is one more step the memo keeps, so the readers of one
    matrix check it once; a non-Hamiltonian M is refused on every call.
    """
    M = as_matrix(M)
    if not _is_hamiltonian(M, tol):
        raise StructureError("spectral_summary expects a Hamiltonian matrix")
    clusters, others, _ = _imaginary_clusters(M, tol)

    entries = []
    for cluster in reversed(clusters):
        beta, mult = cluster[:2]
        partition, note = _jordan_data(cluster)
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
