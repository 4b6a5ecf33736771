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


class Linearization:
    """``M = J A`` of one equilibrium at one tolerance, with the steps all its
    readers share: whether M is Hamiltonian, its eigenvalues, spectral
    summary and Schur form, A's eigenvalues, and per frequency the Morse
    jump and the blocks.  Each is computed on first use and kept, immutable
    or read-only; a failure is not kept.  ``A`` is the checked Hessian (see
    ``bifurcation``), or None for a matrix alone.  Every function that reads
    J A or A takes a Linearization in place of its matrix argument."""

    def __init__(self, M, tol: TolerancePolicy = DEFAULT_TOL, A: np.ndarray | None = None):
        self.M = _read_only(as_matrix(M).copy())
        self.tol = tol
        self.A = None if A is None else _read_only(np.array(A, dtype=float))
        self._kept: dict = {}

    @classmethod
    def of(cls, M, tol: TolerancePolicy) -> "Linearization":
        """M if it is a Linearization, refused unless built at ``tol``; else one of M."""
        if not isinstance(M, cls):
            return cls(M, tol)
        if M.tol != tol:
            raise ValueError(f"a Linearization built at {M.tol} was asked at {tol}")
        return M

    def keep(self, step, compute):
        """``compute()``, run on the first request for ``step`` and kept."""
        if step not in self._kept:
            self._kept[step] = compute()
        return self._kept[step]

    def check_hamiltonian(self, caller: str) -> None:
        """Raise StructureError, naming the caller, unless M is Hamiltonian."""
        if not self.keep("hamiltonian", lambda: is_hamiltonian(self.M, self.tol)):
            raise StructureError(f"{caller} expects a Hamiltonian matrix")

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.keep("eigvals", lambda: _read_only(np.linalg.eigvals(self.M)))

    @property
    def hessian_eigenvalues(self) -> np.ndarray:
        """``eigvalsh(A)``, ascending: the one spectrum every inertia of A reads."""
        return self.keep("eigvalsh", lambda: _read_only(np.linalg.eigvalsh(self.A)))

    @property
    def clusters(self) -> tuple[SpectralSummary, float]:
        """The SpectralSummary that every reader of a frequency reads: one
        ImaginaryEigenvalue per confirmed cluster, largest beta first, and
        the leftover eigenvalues; with the band of the imaginary axis."""
        return self.keep("clusters", lambda: _find_clusters(self))

    @property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        import scipy.linalg  # loaded at the first Schur form, not at ``import hambif``

        return self.keep("schur", lambda: tuple(
            map(_read_only, scipy.linalg.schur(self.M.astype(complex), output="complex"))))

    def cluster_at(self, beta: float) -> ImaginaryEigenvalue:
        """The summary's entry nearest i*beta, the one rule for which
        frequency a beta names; beyond max(band, 1e-6 * beta), or for a beta
        that is not finite, it raises EigenvalueNotFoundError."""
        summary, band = self.clusters
        ev = min(summary.imaginary, key=lambda e: abs(e.beta - beta), default=None)
        if ev is None or not (math.isfinite(beta) and abs(ev.beta - beta) <= max(band, 1e-6 * beta)):
            raise EigenvalueNotFoundError(f"i*{beta} is not an eigenvalue within tolerance")
        return ev


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _find_clusters(lin: Linearization) -> tuple[SpectralSummary, float]:
    M, tol, w = lin.M, lin.tol, lin.eigenvalues
    N = M.shape[0] // 2
    scale = max(1.0, matrix_norm(M))
    band = max(tol.zero_band(scale), np.sqrt(np.finfo(float).eps) * scale)
    threshold = scale * max(tol.eig_zero_tol, _RING_EPS ** (1.0 / max(N, 1)))

    upper = [complex(z) for z in w[w.imag > 0.0]]
    found: list[ImaginaryEigenvalue] = []
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
                found.append(ImaginaryEigenvalue(beta, len(members), len(sizes), sizes, note))
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
    summary = SpectralSummary(
        imaginary=tuple(sorted(found, key=lambda e: e.beta, reverse=True)),
        other_eigenvalues=tuple(sorted(others, key=lambda z: (z.real, z.imag))),
    )
    return summary, band


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


def _warn(ev: ImaginaryEigenvalue) -> None:
    """Issue the conditioning note of ``ev``, if any, as a warning: the one
    place that does, so the default filter shows each note once."""
    if ev.conditioning is not None:
        # scipy's first import runs warnings.catch_warnings, which re-arms the
        # default filter: load it before the first note, or the note prints
        # again once a later stage reaches a Schur form
        import scipy.linalg  # noqa: F401

        warnings.warn(ev.conditioning, ConditioningWarning)


def jordan_partition(M, beta: float, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, ...]:
    """Jordan block sizes of the eigenvalue i*beta, largest first.

    Read from the rank staircase that confirmed the cluster beta names (see
    ``Linearization.cluster_at``), whether or not beta is its centre.  A
    marginal rank decision emits a :class:`ConditioningWarning`.  Raises
    :class:`DecompositionError` when the spectrum is undecided: a cluster on
    the imaginary axis that no rank staircase confirms.
    """
    lin = Linearization.of(M, tol)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    ev = lin.cluster_at(beta)
    _warn(ev)
    return ev.jordan_partition


def spectral_summary(M, tol: TolerancePolicy = DEFAULT_TOL) -> SpectralSummary:
    """All conjugate pairs +-i*beta with Jordan data, largest beta first,
    plus the leftover spectrum: the summary the Linearization keeps, so
    every call on one Linearization returns one object.

    Raises :class:`DecompositionError` when a cluster on the imaginary axis,
    where a rank staircase finds a kernel, is confirmed by no staircase, whole
    or split; every function that reads the spectrum passes it on.  A
    non-Hamiltonian M is refused, and each conditioning note issued, on
    every call.
    """
    lin = Linearization.of(M, tol)
    lin.check_hamiltonian("spectral_summary")
    summary, _ = lin.clusters
    for ev in summary.imaginary:
        _warn(ev)
    return summary


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
