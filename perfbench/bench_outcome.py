"""Classify each operation of a run as correct, abstained, crashed or wrong.

An operation is one constructed frequency's verdict (the decide workloads) or
one branch (the branch workload).  Classification reads the structured report
and the exit code that ``hambif analyze`` produced for the problem:

- crashed: an exception escaped the pipeline, or valid input was refused
  (exit 2);
- wrong: ``gamma``, the block multiset, ``kappa``, the Brouwer index or
  ``condition_holds`` disagrees with the construction; a constructed
  frequency is reported absent with no error; a frequency is reported that
  was never constructed (one extra operation each); or a branch breaks the
  orbit oracle, the energy-drift bound or the small-orbit period check;
- abstained: none of the above, but the report carries an error, leaves a
  verdict undetermined or unavailable, or the exit code is 3 or 4;
- correct: everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

CORRECT, ABSTAINED, CRASHED, WRONG = "correct", "abstained", "crashed", "wrong"

# constructed frequencies lie at least 0.1 apart, so this matching radius is
# unambiguous; how accurately a frequency is located is not judged here
BETA_MATCH_REL = 1e-3
LAM_TOL = 1e-5  # |lambda - lambda_exact(a)| bound of acceptance criterion 09
DRIFT_TOL = 1e-8  # energy-drift bound of acceptance criterion 09
MIN_CHECKED_ORBITS = 5


@dataclass(frozen=True)
class Outcome:
    problem: str
    beta: float
    kind: str
    reason: str
    gated: bool


def _match(value: float, beta: float) -> bool:
    return abs(value - beta) <= BETA_MATCH_REL * beta


def _branch_findings(truth, entry) -> tuple[list[str], list[str]]:
    """(wrong, abstain) reasons for one traced branch against its oracle."""
    wrong, abstain = [], []
    orbits = entry["orbits"]
    checked = 0
    for orbit in orbits:
        a = orbit["amplitude"]
        if orbit["energy_drift"] > DRIFT_TOL:
            wrong.append(f"energy drift {orbit['energy_drift']:.3g} at amplitude {a:.4g}")
        if a <= truth.lam_checked_up_to:
            error = abs(orbit["lambda"] - truth.lam_exact(a))
            if error >= LAM_TOL:
                wrong.append(f"lambda off by {error:.3g} at amplitude {a:.4g}")
            checked += 1
    if not entry["period_limit"]["verified"]:
        wrong.append("small-orbit period check failed")
    if entry["termination"] != "amplitude_target":
        abstain.append(f"branch terminated by {entry['termination']}")
    if checked < MIN_CHECKED_ORBITS:
        abstain.append(f"only {checked} orbits inside the oracle window")
    if not orbits or orbits[-1]["amplitude"] < truth.amplitude_target:
        abstain.append("amplitude target not reached")
    return wrong, abstain


def classify(problem, exit_code: int | None, report: dict | None, error: str | None) -> list[Outcome]:
    """Outcomes of every operation of one problem; never raises on bad reports."""
    ops = problem.expected
    if error is not None or exit_code == 2 or report is None:
        why = error or f"exit code {exit_code}"
        return [Outcome(problem.name, e.beta, CRASHED, why, problem.gated) for e in ops]
    eq = report["equilibria"][0]
    errors = eq.get("errors", [])
    conditions = [c for c in eq.get("conditions", []) if "gamma" in c]
    branches = eq.get("branches", [])
    outcomes = []
    for exp in ops:
        wrong, abstain = [], []
        cond = next((c for c in conditions if _match(c["beta0"], exp.beta)), None)
        if cond is None:
            (abstain if errors else wrong).append("no verdict for a constructed frequency")
        else:
            if cond["gamma"] != exp.gamma:
                wrong.append(f"gamma {cond['gamma']} != {exp.gamma}")
            if cond["blocks"] is None:
                abstain.append("structural route unavailable")
            elif tuple(sorted(tuple(b) for b in cond["blocks"])) != exp.blocks:
                wrong.append(f"blocks {cond['blocks']} != {list(exp.blocks)}")
            if cond["counts"] is not None and cond["counts"]["kappa"] != exp.kappa:
                wrong.append(f"kappa {cond['counts']['kappa']} != {exp.kappa}")
            if cond["brouwer"] is not None and cond["brouwer"] != exp.brouwer:
                wrong.append(f"brouwer {cond['brouwer']} != {exp.brouwer}")
            if cond["condition_holds"] is None:
                abstain.append("verdict undetermined")
            elif cond["condition_holds"] != exp.condition_holds:
                wrong.append(f"condition_holds {cond['condition_holds']} != {exp.condition_holds}")
        if exp.branch is not None:
            entry = next((b for b in branches if _match(b["beta0"], exp.beta)), None)
            if entry is None:
                (abstain if errors else wrong).append("no branch for a constructed frequency")
            else:
                w, a = _branch_findings(exp.branch, entry)
                wrong += w
                abstain += a
        if exit_code != 0:
            abstain.append(f"exit code {exit_code}")
        if errors:
            abstain.append(f"errors: {'; '.join(errors)}")
        kind = WRONG if wrong else ABSTAINED if abstain else CORRECT
        outcomes.append(Outcome(problem.name, exp.beta, kind, "; ".join(wrong or abstain), problem.gated))
    for ev in eq.get("imaginary_spectrum", []):
        if not any(_match(ev["beta"], exp.beta) for exp in ops):
            outcomes.append(Outcome(problem.name, ev["beta"], WRONG, "frequency never constructed", problem.gated))
    return outcomes
