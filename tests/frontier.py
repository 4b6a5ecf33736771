"""The conditioning frontier: how the verdicts fare as the Hessian's
conjugation grows ill-conditioned.

Each problem is ``squeezed(random_normal_form(default_rng(s)), s, t)`` for
``s = 0..199``: a random normal form conjugated by a symplectic squeeze of
strength ``t``, whose frequencies and Morse jumps are known from the
construction.  A constructed frequency counts as decided when a condition
entry of ``run_analysis`` within ``MATCH`` of it has both ``gamma`` and
``condition_holds``; it is right when that ``gamma`` is the construction's,
and wrong otherwise.  An off-frequency entry is a decided one farther than
``MATCH`` from every constructed frequency; it counts as wrong when its
``gamma`` is not that of the nearest constructed frequency.

Run ``PYTHONPATH=src python tests/frontier.py`` (optionally with values of
``t``, default 2 to 6).  It prints one table row per ``t`` and exits 1 when
a decided ``gamma`` at a constructed frequency is wrong, when fewer
frequencies are right at some ``t`` than ``RECORDED`` holds for it (a lost
verdict), or when more off-frequency entries are wrong than it holds (a new
wrong verdict off the constructed frequencies).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from hambif import ConditioningWarning, Equilibrium, ProblemSpec, gamma_block, run_analysis

from conftest import random_normal_form, squeezed

SEEDS = range(200)
MATCH = 1e-3  # how far a reported frequency may lie from a constructed one
# the recorded table (ROADMAP) at each t: the right count, the least a run may
# give, and the off-frequency wrong count, the most it may give (the one at
# t = 3 is s = 179)
RECORDED = {2.0: (387, 0), 3.0: (375, 1), 4.0: (350, 0), 5.0: (257, 1), 6.0: (106, 1)}


@dataclass
class Frontier:
    right: int = 0
    wrong: int = 0
    undecided: int = 0
    off: int = 0
    off_wrong: int = 0
    wrong_seeds: tuple[int, ...] = ()


def frontier(t: float, seeds=SEEDS) -> Frontier:
    """The frontier's counts over the squeezed family at strength ``t``."""
    counts = Frontier()
    for s in seeds:
        nf = random_normal_form(np.random.default_rng(s))
        A = squeezed(nf, s, t)
        constructed: dict[float, int] = {}
        for block in nf.blocks:
            constructed[block.beta] = constructed.get(block.beta, 0) + gamma_block(block)
        spec = ProblemSpec(dim=A.shape[0], equilibria=(Equilibrium(np.zeros(A.shape[0]), A),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            entry = run_analysis(spec)["equilibria"][0]
        decided = [c for c in entry.get("conditions", []) if c["condition_holds"] is not None]
        for beta, gamma in constructed.items():
            near = [c for c in decided if abs(c["beta0"] - beta) <= MATCH]
            if not near:
                counts.undecided += 1
            elif near[0]["gamma"] == gamma:
                counts.right += 1
            else:
                counts.wrong += 1
                counts.wrong_seeds += (s,)
        for c in decided:
            nearest = min(constructed, key=lambda b: abs(b - c["beta0"]))
            if abs(nearest - c["beta0"]) > MATCH:
                counts.off += 1
                counts.off_wrong += c["gamma"] != constructed[nearest]
    return counts


def main(argv: list[str]) -> int:
    ts = [float(t) for t in argv] or [2.0, 3.0, 4.0, 5.0, 6.0]
    print("| `t` | right | wrong `gamma` | undecided | off-frequency (wrong `gamma`) |")
    print("|-----|-------|---------------|-----------|-------------------------------|")
    failed = False
    for t in ts:
        f = frontier(t)
        least_right, most_off_wrong = RECORDED.get(t, (0, f.off))
        lost, off_wrong = f.right < least_right, f.off_wrong > most_off_wrong
        failed |= bool(f.wrong) or lost or off_wrong
        off = f"{f.off} ({f.off_wrong})"
        print(f"| {t:<3g} | {f.right:<5} | {f.wrong:<13} | {f.undecided:<9} | {off:<29} |"
              + (f" wrong at s = {', '.join(map(str, f.wrong_seeds))}" if f.wrong else "")
              + (f" right below the recorded {least_right}" if lost else "")
              + (f" off-frequency wrong above the recorded {most_off_wrong}" if off_wrong else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
