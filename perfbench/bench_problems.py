"""Seeded problem sets for the benchmark, with their ground truth.

Problems are built only through the public hambif API (``NormalForm``,
``BlockSpec``, ``assemble_hessian``, ``random_symplectic``, ``emit_problem``)
and written in the ``docs/FORMAT.md`` schema.  The ground truth (block
multisets, ``kappa``, the Brouwer index and, for branches, the exact period
of the orbit family) stays on the benchmark side; the problem files carry
none of it, not even ``brouwer_index``.

Every catalogue block has ``det = beta**(2*half_dim) > 0`` and a symplectic
conjugation keeps the determinant, so the Brouwer index of every decision
problem is +1 and the branch condition holds exactly when ``kappa != 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

import hambif as hb

DEFAULT_SEED = 1  # seed 2027 is kept back for claims on a seed not used while tuning

# Fixed draw of the sweep's block structures (see decide_sweep).
SHAPE_SEED = 5050

# Fixed conjugations of the decide_large problems (see decide_large).
LARGE_SEED = 6464

# The conditioning tail is a fixed probe: its matrices do not depend on the
# workload seed, so its failure shares compare across seeds and commits.
TAIL_SEED = 424242
TAIL_CONDS = tuple(float(c) for c in np.logspace(3.0, 7.0, 20))

QUARTIC_TARGET = 0.55
COUPLED_TARGET = 0.5


@dataclass(frozen=True)
class BranchTruth:
    """A branch the program must trace: ``lam(a)`` is the exact time scale of
    the orbit of amplitude ``a``, valid for ``a <= lam_checked_up_to``."""

    amplitude_target: float
    lam_exact: object  # callable a -> lambda
    lam_checked_up_to: float


@dataclass(frozen=True)
class Expected:
    """The constructed verdict at one frequency."""

    beta: float
    blocks: tuple[tuple[int, int], ...]  # sorted (half_dim, epsilon)
    kappa: int
    brouwer: int
    branch: BranchTruth | None = None

    @property
    def gamma(self) -> int:
        return -2 * self.kappa

    @property
    def condition_holds(self) -> bool:
        return self.gamma != 0 and self.brouwer != 0


@dataclass(frozen=True)
class Problem:
    name: str
    text: str  # the problem file, docs/FORMAT.md schema
    expected: tuple[Expected, ...]
    gated: bool = True  # False: outcome only feeds the failure shares
    cond: float = 1.0  # cond(S) of the conjugation, 1 when unconjugated


def kappa_of(blocks) -> int:
    """kappa = o+ - o- - e+ + e- over odd half-dimension blocks, where o/e is
    the parity of (half_dim + 1) / 2."""
    kappa = 0
    for half_dim, eps in blocks:
        if half_dim % 2 == 0:
            continue
        kappa += eps if ((half_dim + 1) // 2) % 2 == 1 else -eps
    return kappa


def _expected(blocks: list[hb.BlockSpec], branches=None) -> tuple[Expected, ...]:
    branches = branches or {}
    out = []
    for beta in sorted({b.beta for b in blocks}):
        mine = tuple(sorted((b.half_dim, b.epsilon) for b in blocks if b.beta == beta))
        out.append(Expected(beta, mine, kappa_of(mine), brouwer=1, branch=branches.get(beta)))
    return tuple(out)


def _emit(hessian: np.ndarray, hamiltonian=None, amplitude_target=None) -> str:
    dim = hessian.shape[0]
    options = hb.AnalysisOptions()
    if amplitude_target is not None:
        options = hb.AnalysisOptions(continuation=hb.ContinuationConfig(amplitude_target=amplitude_target))
    spec = hb.ProblemSpec(
        dim=dim,
        equilibria=(hb.Equilibrium(point=np.zeros(dim), hessian=0.5 * (hessian + hessian.T)),),
        hamiltonian=hamiltonian,
        options=options,
    )
    return hb.emit_problem(spec)


def _conjugated(blocks, S) -> np.ndarray:
    A = hb.assemble_hessian(hb.NormalForm(tuple(blocks)))
    return S.T @ A @ S


def _isolation(level: float, betas) -> float:
    """Half the distance from ``level`` to the nearest other point m/beta."""
    best = math.inf
    for beta in betas:
        t = level * beta
        for m in range(max(1, math.floor(t) - 1), math.ceil(t) + 2):
            d = abs(level - m / beta)
            if d > 1e-9:
                best = min(best, d)
    return 0.5 * best


def _draw_betas(rng, count: int, min_separation=0.3, min_isolation=0.03):
    while True:
        betas: list[float] = []
        while len(betas) < count:
            candidate = float(rng.uniform(0.6, 2.4))
            if all(abs(candidate - b) >= min_separation for b in betas):
                betas.append(candidate)
        if all(_isolation(1.0 / b, betas) >= min_isolation for b in betas):
            return betas


def _random_blocks(shape, rng, max_total_half_dim=8, max_block=5) -> list[hb.BlockSpec]:
    """Random catalogue blocks at well-separated frequencies (dimension <= 16).

    ``shape`` draws the structure (how many frequencies, block sizes), ``rng``
    the frequencies and signs."""
    count = int(shape.integers(1, 4))
    betas = _draw_betas(rng, count)
    blocks = []
    budget = max_total_half_dim
    for i, beta in enumerate(betas):
        remaining = count - i - 1
        available = budget - remaining
        size = int(shape.integers(1, max(2, min(max_block, available) + 1)))
        blocks.append(hb.BlockSpec(beta, size, int(rng.choice([-1, 1]))))
        budget -= size
        if budget - remaining >= 1 and shape.random() < 0.5:
            extra = int(shape.integers(1, min(3, budget - remaining) + 1))
            blocks.append(hb.BlockSpec(beta, extra, int(rng.choice([-1, 1]))))
            budget -= extra
    return blocks


README_BLOCKS = (hb.BlockSpec(1.0, 5, -1), hb.BlockSpec(1.0, 3, +1), hb.BlockSpec(1.0, 2, +1))


def _squeezed_symplectic(N: int, target_cond: float, seed: int) -> np.ndarray:
    """S1 @ D @ S2 with S1, S2 random symplectic and D a diagonal symplectic
    squeeze, its strength bisected so that cond(S) is within 2 % of the target."""
    S1 = hb.random_symplectic(N, seed=seed, scale=0.5)
    S2 = hb.random_symplectic(N, seed=seed + 1, scale=0.5)
    d = np.random.default_rng(seed).uniform(-1.0, 1.0, N)

    def build(t):
        D = np.diag(np.exp(t * np.concatenate([d, -d])))
        return S1 @ D @ S2

    lo, hi = 0.0, 1.0
    while np.linalg.cond(build(hi)) < target_cond:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cond = np.linalg.cond(build(mid))
        if abs(math.log(cond / target_cond)) < 0.02:
            return build(mid)
        lo, hi = (mid, hi) if cond < target_cond else (lo, mid)
    return build(0.5 * (lo + hi))


def decide_sweep(seed: int, count: int = 100, tail: int = len(TAIL_CONDS)) -> list[Problem]:
    """``count`` random one-equilibrium problems (dimension <= 16, 1-3
    frequencies, blocks up to half-dim 5, conjugated by
    ``random_symplectic(scale=0.5)``), then the fixed conditioning tail: the
    20-dim README example conjugated at cond(S) from 1e3 to 1e7.

    The block structures are one fixed draw, so every seed asks for the same
    amount of structural work and the same number of verdicts; the seed draws
    the frequencies, the signs and the conjugations."""
    problems = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        blocks = _random_blocks(np.random.default_rng([SHAPE_SEED, k]), rng)
        N = sum(b.half_dim for b in blocks)
        S = hb.random_symplectic(N, seed=int(rng.integers(2**31)), scale=0.5)
        problems.append(Problem(f"sweep{k:03d}", _emit(_conjugated(blocks, S)), _expected(blocks),
                                cond=float(np.linalg.cond(S))))
    for k, target in enumerate(TAIL_CONDS[:tail]):
        S = _squeezed_symplectic(10, target, TAIL_SEED + 2 * k)
        problems.append(Problem(f"tail{k:02d}", _emit(_conjugated(README_BLOCKS, S)),
                                _expected(list(README_BLOCKS)), gated=False,
                                cond=float(np.linalg.cond(S))))
    return problems


def _spread_betas(count: int, seed: int, min_isolation: float) -> list[float]:
    """``count`` frequencies in [0.6, 2.4], separated and isolated, drawn from a
    fixed generator so the structure of the large cases never varies."""
    rng = np.random.default_rng(seed)
    while True:
        betas = sorted(float(b) for b in rng.uniform(0.6, 2.4, count))
        if min(np.diff(betas)) >= 0.1 and all(_isolation(1.0 / b, betas) >= min_isolation for b in betas):
            return betas


def _large_structures():
    b64 = _spread_betas(8, seed=64, min_isolation=0.01)
    blocks64 = []
    for k, beta in enumerate(b64):
        if k % 2 == 0:
            blocks64 += [hb.BlockSpec(beta, 3, 1 if k % 4 == 0 else -1), hb.BlockSpec(beta, 1, -1)]
        else:
            blocks64 += [hb.BlockSpec(beta, 2, 1), hb.BlockSpec(beta, 1, 1), hb.BlockSpec(beta, 1, -1)]
    return (
        ("readme20", list(README_BLOCKS), 0.5),
        ("conj24", [hb.BlockSpec(0.7, 2, -1), hb.BlockSpec(0.7, 1, 1), hb.BlockSpec(1.1, 3, 1),
                    hb.BlockSpec(1.1, 1, -1), hb.BlockSpec(1.9, 5, -1)], 0.5),
        ("conj40", [hb.BlockSpec(0.65, 5, 1), hb.BlockSpec(0.65, 1, -1), hb.BlockSpec(1.05, 4, -1),
                    hb.BlockSpec(1.05, 1, 1), hb.BlockSpec(1.45, 3, -1), hb.BlockSpec(1.45, 2, 1),
                    hb.BlockSpec(2.2, 3, 1), hb.BlockSpec(2.2, 1, 1)], 0.3),
        ("cap64", blocks64, 0.1),
    )


def decide_large(seed: int) -> list[Problem]:
    """Fixed block structures at dimension 20, 24, 40 and 64 (the
    decomposition cap), each conjugated by a fixed random symplectic map.

    The problems do not depend on ``seed``: the cost of the 40- and 64-dim
    cases moved by up to 1.8x between conjugations, which would swamp the
    changes this workload exists to show."""
    del seed
    problems = []
    for k, (name, blocks, scale) in enumerate(_large_structures()):
        N = sum(b.half_dim for b in blocks)
        S = hb.random_symplectic(N, seed=LARGE_SEED + k, scale=scale)
        problems.append(Problem(name, _emit(_conjugated(blocks, S)), _expected(blocks),
                                cond=float(np.linalg.cond(S))))
    return problems


def duffing_lambda(omega: float):
    """Exact time scale of the orbit of amplitude ``a`` (the largest distance
    from the origin, reached at q = 0) of H = p^2/2 + omega^2 q^2/2 + q^4/4:
    lambda = T / (2 pi) with T the period, by quadrature of a smooth integrand."""

    def lam(a: float) -> float:
        energy = 0.5 * a * a
        um = -omega**2 + math.sqrt(omega**4 + 4.0 * energy)  # q_max^2
        period, _ = quad(lambda th: 1.0 / math.sqrt(omega**2 + 0.5 * um * (1.0 + math.sin(th) ** 2)),
                         0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-13)
        return 4.0 * period / (2.0 * math.pi)

    return lam


def branch(seed: int) -> list[Problem]:
    """The criterion-09 quartic oscillator and a coupled 4-dim quartic with
    frequencies 1 and sqrt(2).  The problems are fixed; ``seed`` is accepted
    for a uniform interface and changes nothing here."""
    del seed
    quartic = hb.PolynomialHamiltonian(
        2, ((0.5, (2, 0)), (0.5, (0, 2)), (0.25, (4, 0)), (0.5, (2, 2)), (0.25, (0, 4)))
    )
    radial = BranchTruth(QUARTIC_TARGET, lambda a: 1.0 / (1.0 + a * a), 0.5)
    # state order (q1, q2, p1, p2); the planes q2 = p2 = 0 and q1 = p1 = 0 are
    # invariant, and on each the flow is a Duffing oscillator
    coupled = hb.PolynomialHamiltonian(
        4,
        ((0.5, (2, 0, 0, 0)), (0.5, (0, 0, 2, 0)), (1.0, (0, 2, 0, 0)), (0.5, (0, 0, 0, 2)),
         (0.25, (4, 0, 0, 0)), (0.1, (2, 2, 0, 0)), (0.25, (0, 4, 0, 0))),
    )
    root2 = math.sqrt(2.0)
    one_dof = [hb.BlockSpec(1.0, 1, -1)]
    two_dof = [hb.BlockSpec(1.0, 1, -1), hb.BlockSpec(root2, 1, -1)]
    return [
        Problem("quartic2", _emit(quartic.hessian(np.zeros(2)), quartic, QUARTIC_TARGET),
                _expected(one_dof, {1.0: radial})),
        Problem("coupled4", _emit(coupled.hessian(np.zeros(4)), coupled, COUPLED_TARGET),
                _expected(two_dof, {
                    1.0: BranchTruth(COUPLED_TARGET, duffing_lambda(1.0), COUPLED_TARGET),
                    root2: BranchTruth(COUPLED_TARGET, duffing_lambda(root2), COUPLED_TARGET),
                })),
    ]


WORKLOADS = {"decide_sweep": decide_sweep, "decide_large": decide_large, "branch": branch}
