"""Morse-index jumps, bifurcation indices, and the main condition check.

For a symmetric A with +-i*beta in the spectrum of J A, the doubled symmetric
family T(lam) = [[-lam A, J], [-J, -lam A]] loses definiteness exactly at the
levels lam = 1/beta, and the level-j family T(lam/j) at lam = j/beta.  The
jump gamma of the Morse index across such a level is computed spectrally here
and cross-checked against the structural route -2*kappa from the block counts.

T(lam) is the real form [[X, -Y], [Y, X]] of the Hermitian 2N x 2N matrix
H(lam) = X + iY = -lam A - iJ, so its spectrum is H(lam)'s with every
eigenvalue doubled and ||T(lam)||_2 = max|eig H(lam)|.  The jump therefore
reads each Morse index as twice that of H(lam), from one half-size
``eigvalsh``.  The structural route reads its invariant subspaces from one
Schur form per matrix (see ``normal_forms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    DecompositionError,
    DegeneracyError,
    EigenvalueNotFoundError,
    LevelCountError,
    PlanarDegreeError,
)
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    _inertia,
    as_symmetric,
    half_dimension,
    standard_symplectic,
)
from .normal_forms import BlockCounts, BlockSpec, block_counts, structural_decomposition
from .spectral import Linearization, spectral_summary


@dataclass(frozen=True)
class LambdaSet:
    """Candidate levels m/beta up to a truncation, with their provenance."""

    points: tuple[float, ...]
    lambda_max: float
    source_betas: tuple[tuple[float, tuple[int, ...]], ...]

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(beta for beta, _ in self.source_betas)


@dataclass(frozen=True)
class BifurcationIndex:
    """Sparse integer sequence j -> eta_j; absent coordinates are zero."""

    entries: tuple[tuple[int, int], ...]
    j_max: int
    truncated: bool

    def __post_init__(self):
        if any(j < 1 or eta == 0 for j, eta in self.entries):
            raise ValueError("entries must map j >= 1 to nonzero integers")

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def coordinate(self, j: int) -> int:
        return dict(self.entries).get(j, 0)


@dataclass(frozen=True)
class ConditionReport:
    """Both routes to the branch-existence condition at one frequency; the
    counts come from ``blocks``, both None when the decomposition failed."""

    beta0: float
    gamma: int
    counts: BlockCounts | None
    brouwer: int | None
    condition_holds: bool | None
    routes_agree: bool | None
    blocks: tuple[BlockSpec, ...] | None

    @property
    def kappa(self) -> int | None:
        return None if self.counts is None else self.counts.kappa


def t_matrix(lam: float, A) -> np.ndarray:
    """The symmetric 4N x 4N matrix [[-lam A, J], [-J, -lam A]]; the level-j
    family is ``t_matrix(lam / j, A)``.

    It is the real form of the Hermitian H(lam) = -lam A - iJ and has its
    eigenvalues, each doubled.  The Morse jump counts on the half-size
    H(lam); ``morse_index`` of this matrix is the reference that count
    equals."""
    A = as_symmetric(A, name="t_matrix argument")
    J = standard_symplectic(half_dimension(A, "t_matrix argument"))
    return np.block([[-lam * A, J], [-J, -lam * A]])


def _linearize(A, tol: TolerancePolicy) -> Linearization:
    """The Linearization of a Hessian checked symmetric at ``tol`` and of even
    dimension, the one entry of every public function that reads J A or A; a
    Linearization passes if built from a Hessian at ``tol``."""
    if isinstance(A, Linearization):
        if A.A is None:
            raise ValueError("this function needs a Linearization built from a Hessian")
        return Linearization.of(A, tol)
    A = as_symmetric(A, tol)
    return Linearization(standard_symplectic(half_dimension(A)) @ A, tol, A)


# lambda_set refuses a truncation that asks for more levels than this: their
# list, and the report that carries it, grow linearly with lambda_max
MAX_LEVELS = 10**5


def lambda_set(A, lambda_max: float, tol: TolerancePolicy = DEFAULT_TOL) -> LambdaSet:
    """All levels m/beta <= lambda_max over frequencies of J A, deduplicated.

    The levels are counted before any is built: more than ``MAX_LEVELS`` of
    them raise :class:`LevelCountError`."""
    if not lambda_max > 0.0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")
    lin = _linearize(A, tol)
    betas = spectral_summary(lin, tol).betas
    # clipped at MAX_LEVELS + 1, where lambda_max * beta may overflow to inf
    counts = [math.floor(min(lambda_max * beta + 1e-12, MAX_LEVELS + 1)) for beta in betas]
    if sum(counts) > MAX_LEVELS:
        raise LevelCountError(
            f"lambda_max {lambda_max:g} asks for more than {MAX_LEVELS} candidate levels")
    sources = []
    points: list[float] = []
    for beta, count in zip(betas, counts):
        ms = tuple(range(1, count + 1))
        sources.append((beta, ms))
        points.extend(m / beta for m in ms)
    points.sort()
    band = tol.zero_band(max([1.0, *points]))
    unique: list[float] = []
    for p in points:
        if not unique or p - unique[-1] > band:
            unique.append(p)
    return LambdaSet(points=tuple(unique), lambda_max=lambda_max, source_betas=tuple(sources))


def isolation_radius(level: float, betas, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Half the distance from ``level`` to the nearest distinct grid point
    m/beta, for ``betas`` any sequence of frequencies (a numpy array too)."""
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    if len(betas) == 0:
        raise ValueError("no frequencies: the level grid is empty")
    band = tol.zero_band(max(1.0, abs(level)))
    best = math.inf
    for beta in betas:
        if not 0.0 < beta < math.inf:
            raise ValueError(f"frequency {beta} in betas must be positive and finite")
        t = level * beta
        for m in range(max(1, math.floor(t) - 1), math.ceil(t) + 2):
            d = abs(level - m / beta)
            if d > band:
                best = min(best, d)
    return 0.5 * best


# Off the characteristic levels the doubled family is provably nondegenerate,
# but eigencurves of a half-dim-n block vanish like mu^n near a level, which
# can undercut the generic zero band while still sitting far above the
# eigensolver noise floor (~1e-15 * norm).  Jumps therefore count signs with a
# band just above that floor.
_JUMP_ZERO_TOL = 1e-12


def _doubled_morse_index(A: np.ndarray, lam: float, tol: TolerancePolicy) -> int:
    """``morse_index(t_matrix(lam, A), tol)`` of a symmetric A, refusal included,
    read as twice that of the Hermitian H(lam) = -lam A - iJ, whose max|w| is ||T(lam)||_2."""
    w = np.linalg.eigvalsh(-lam * A - 1j * standard_symplectic(A.shape[0] // 2))
    return 2 * _inertia(w, tol, "morse_index")[0]


def _morse_jump(A, lam0: float, mu: float, tol: TolerancePolicy) -> int:
    jump_tol = replace(tol, eig_zero_tol=min(tol.eig_zero_tol, _JUMP_ZERO_TOL))

    def jump(radius):
        return (_doubled_morse_index(A, lam0 + radius, jump_tol)
                - _doubled_morse_index(A, lam0 - radius, jump_tol))

    try:
        return jump(mu)
    except DegeneracyError:
        return jump(0.5 * mu)


def gamma_jump(A, beta0: float, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Jump of the Morse index of T(lam) across lam = 1/beta0, always even.
    A Linearization keeps it per beta0, so every reader at beta0 shares one
    computation; a failure is not kept."""
    lin = _linearize(A, tol)

    def jump():
        betas = spectral_summary(lin, tol).betas
        # the level of the spectrum's frequency: an interval of radius mu
        # around 1/beta0 itself can miss it
        lam0 = 1.0 / lin.cluster_at(beta0).beta
        return _morse_jump(lin.A, lam0, isolation_radius(lam0, betas, tol), tol)

    return lin.keep(("jump", beta0), jump)


def gamma_block(spec: BlockSpec) -> int:
    """Closed-form jump contribution of one catalogue block."""
    n = spec.half_dim
    if n % 2 == 0:
        return 0
    return 2 * (-1) ** (((n + 1) // 2) % 2) * spec.epsilon


def brouwer_nondegenerate(A, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """sign(det A) for a nondegenerate symmetric A (the local index of its
    gradient); a degenerate A raises :class:`DegeneracyError`."""
    below, _, _ = _inertia(_linearize(A, tol).hessian_eigenvalues, tol, "brouwer_nondegenerate")
    return -1 if below % 2 else 1


def brouwer_planar(grad, center, radius: float, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Winding number of a planar gradient field along a circle.

    Angle increments are accumulated over 64 samples, and the sampling is
    doubled until every increment is below pi/2.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    center = np.asarray(center, dtype=float)
    if center.shape != (2,) or not np.all(np.isfinite(center)):
        raise ValueError("center must be a finite point in the plane")
    n = 64
    while True:
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        points = center[None, :] + radius * np.column_stack([np.cos(theta), np.sin(theta)])
        values = np.array([grad(p) for p in points], dtype=float)
        if values.shape != (n, 2):
            raise PlanarDegreeError(f"field values must be planar vectors of shape (2,), "
                                    f"got shape {values.shape[1:]}")
        if not np.all(np.isfinite(values)):
            raise PlanarDegreeError("field is not finite on the circle")
        norms = np.hypot(values[:, 0], values[:, 1])
        if np.min(norms) <= tol.residual_tol:
            raise PlanarDegreeError(
                f"field norm {np.min(norms):.3e} on the circle; shrink the radius"
            )
        angles = np.arctan2(values[:, 1], values[:, 0])
        increments = np.diff(np.concatenate([angles, angles[:1]]))
        increments = (increments + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(increments)) < 0.5 * np.pi:
            return int(round(float(np.sum(increments)) / (2.0 * np.pi)))
        n *= 2
        if n > 2 ** 20:
            raise PlanarDegreeError("winding number did not stabilize under refinement")


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool: the one integer rule of arguments and problem fields."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def bifurcation_index(A, brouwer: int, lambda0: float, j_max: int | None = None,
                      tol: TolerancePolicy = DEFAULT_TOL) -> BifurcationIndex:
    """All nonzero coordinates eta_j = brouwer * gamma_jump(A, b) for
    j <= j_max, where lambda0/j = 1/b for a frequency b.

    Each frequency b can only sit at j = round(lambda0*b), so the work grows
    with the number of frequencies, not with ``j_max``.  The default
    ``j_max`` covers every coordinate at lambda0 = 1/beta; at lambda0 = m/beta
    with m >= 2 it can fall short, and ``truncated`` then says so.
    """
    if not math.isfinite(lambda0):
        raise ValueError(f"lambda0 must be finite, got {lambda0}")
    if not _is_integer(brouwer):
        raise ValueError(f"brouwer must be an integer, got {brouwer!r}")
    if j_max is not None and not (_is_integer(j_max) and j_max >= 1):
        raise ValueError("j_max must be a positive integer")
    lin = _linearize(A, tol)
    betas = sorted(spectral_summary(lin, tol).betas)
    if not betas:
        raise EigenvalueNotFoundError("J A has no purely imaginary frequencies")
    if j_max is None:
        j_max = int(math.ceil(max(betas) / min(betas))) + 1
    band = tol.zero_band(max(1.0, lambda0))
    levels = [(b, max(1, round(lambda0 * b))) for b in betas]
    if not any(abs(lambda0 - j / b) <= band for b, j in levels):
        raise ValueError(f"lambda0={lambda0} is not a candidate level within tolerance")

    entries: list[tuple[int, int]] = []
    if brouwer != 0:
        # ascending b, so ascending j
        for b, j in levels:
            if j > j_max or abs(lambda0 / j - 1.0 / b) > band:
                continue
            eta = brouwer * gamma_jump(lin, b, tol)
            if eta != 0:
                entries.append((j, eta))
    truncated = any(b * lambda0 > j_max + band for b in betas)
    return BifurcationIndex(entries=tuple(entries), j_max=j_max, truncated=truncated)


@dataclass(frozen=True)
class AssumptionResult:
    """Outcome of one classical hypothesis."""

    holds: bool
    certified_betas: tuple[float, ...] = ()
    details: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    nonresonant_pair: AssumptionResult       # classical nonresonance hypothesis
    positive_definite: AssumptionResult      # definite Hessian hypothesis
    signature_resonant: AssumptionResult     # nondegenerate + signature + common period


@dataclass(frozen=True)
class NonresonanceReport:
    flags: tuple[tuple[float, bool], ...]
    lower_bound: int


_INT_RATIO_FACTOR = 100.0  # integer-ratio test width, in units of eig_zero_tol
_MAX_PERIOD_DENOMINATOR = 64  # largest denominator of a frequency ratio with a common period


def _has_multiple(beta: float, betas, tol: TolerancePolicy) -> bool:
    """Whether a larger frequency is an integer multiple of beta: the one
    resonance test, for the nonresonance flags and hypothesis a0."""
    width = _INT_RATIO_FACTOR * tol.eig_zero_tol
    return any(abs(big / beta - round(big / beta)) <= width for big in betas if big > beta)


def _common_period(betas, tol: TolerancePolicy):
    """Smallest common period of the rotations at the given frequencies, or None."""
    if not betas:
        return None
    base = min(betas)
    denominators = []
    for beta in betas:
        ratio = beta / base
        frac = Fraction(ratio).limit_denominator(_MAX_PERIOD_DENOMINATOR)
        if abs(ratio - float(frac)) > _INT_RATIO_FACTOR * tol.eig_zero_tol:
            return None
        denominators.append(frac.denominator)
    lcm = 1
    for q in denominators:
        lcm = lcm * q // math.gcd(lcm, q)
    return 2.0 * math.pi * lcm / base


def check_classical_assumptions(A, tol: TolerancePolicy = DEFAULT_TOL) -> AssumptionReport:
    """Evaluate three classical hypotheses that imply the branch condition:
    a nonresonant simple pair, a positive definite Hessian, and a
    nondegenerate Hessian of nonzero signature whose linearized flow is
    periodic.

    Each is decided (``holds`` is a bool), and each that holds reports the
    frequencies it certifies, those with a nonzero Morse jump.
    """
    lin = _linearize(A, tol)
    summary = spectral_summary(lin, tol)
    betas = summary.betas
    below, inside, above = _inertia(lin.hessian_eigenvalues, tol)
    nondegenerate = not inside

    def result(holds, candidates, details) -> AssumptionResult:
        """A hypothesis's outcome; only one that holds certifies frequencies."""
        certified = []
        for beta in candidates if holds else ():
            try:
                if gamma_jump(lin, beta, tol) != 0:
                    certified.append(beta)
            except DegeneracyError:
                continue
        return AssumptionResult(holds=holds, certified_betas=tuple(certified), details=details)

    # classical nonresonance: a trivial kernel, a simple pair no larger frequency is a multiple of
    a0_betas = [
        ev.beta for ev in summary.imaginary
        if nondegenerate and ev.algebraic_mult == 1 and not _has_multiple(ev.beta, betas, tol)
    ]
    a0 = result(
        bool(a0_betas),
        a0_betas,
        "simple pair with no integer frequency ratios"
        if a0_betas
        else "every frequency is resonant, multiple, or the Hessian kernel is nontrivial",
    )

    # definite Hessian
    posdef = not (below or inside)
    a1 = result(posdef, betas, "Hessian positive definite" if posdef else "Hessian not positive definite")

    # nondegenerate + nonzero signature + fully periodic linearized flow
    # a nonempty imaginary spectrum, every pair semisimple, no other eigenvalue
    semisimple = bool(betas) and not summary.has_nonimaginary and all(
        ev.geometric_mult == ev.algebraic_mult for ev in summary.imaginary
    )
    sig = above - below
    period = _common_period(betas, tol) if semisimple else None
    a2_holds = nondegenerate and sig != 0 and semisimple and period is not None
    a2 = result(
        a2_holds,
        betas,
        f"signature {sig}, common period {period:.6g}"
        if a2_holds
        else f"nondegenerate={nondegenerate}, signature={sig}, "
        f"semisimple imaginary spectrum={semisimple}, common period={period}",
    )

    return AssumptionReport(a0, a1, a2)


def nonresonance_and_branch_count(A, brouwer: int | None,
                                  tol: TolerancePolicy = DEFAULT_TOL) -> NonresonanceReport:
    """Flag the frequencies no larger frequency divides, and count how many of
    the flagged ones also pass the branch condition at the Brouwer index
    ``brouwer``, as ``check_main_condition`` takes it (a lower bound on
    connected families with distinct minimal periods).  A frequency whose
    check raises DegeneracyError is left out of the count."""
    lin = _linearize(A, tol)
    betas = sorted(spectral_summary(lin, tol).betas, reverse=True)
    if not betas:
        raise EigenvalueNotFoundError("J A has no purely imaginary frequencies")
    flags = []
    bound = 0
    for beta in betas:
        flag = not _has_multiple(beta, betas, tol)
        flags.append((beta, flag))
        if flag:
            try:
                bound += bool(check_main_condition(lin, brouwer, beta, tol).condition_holds)
            except DegeneracyError:
                continue  # undecided: a lower bound may leave the frequency out
    return NonresonanceReport(flags=tuple(flags), lower_bound=bound)


def check_main_condition(A, brouwer: int | None, beta0: float,
                         tol: TolerancePolicy = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the branch-existence condition at beta0 by both routes.

    The spectral route (gamma) always runs; the structural route (block
    counts) is best effort and its failure only downgrades ``routes_agree``.
    ``condition_holds`` is None when the Brouwer index is unknown.
    """
    if not (brouwer is None or _is_integer(brouwer)):
        raise ValueError(f"brouwer must be an integer or None, got {brouwer!r}")
    lin = _linearize(A, tol)
    gamma = gamma_jump(lin, beta0, tol)
    try:
        blocks = tuple(structural_decomposition(lin, beta0, tol))
        counts = block_counts(blocks, beta0, tol)
    except DecompositionError:
        blocks = counts = None
    return ConditionReport(
        beta0=beta0,
        gamma=gamma,
        counts=counts,
        brouwer=brouwer,
        condition_holds=None if brouwer is None else bool(gamma and brouwer),
        routes_agree=None if counts is None else (gamma == -2 * counts.kappa),
        blocks=blocks,
    )
