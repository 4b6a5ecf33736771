"""Full analysis pipeline and report serialization.

``run_analysis`` walks every equilibrium through spectrum extraction, block
decomposition, both condition routes, bifurcation indices, the classical
hypothesis checkers, and (when a Hamiltonian is supplied) branch continuation.
Reports are plain JSON-ready dictionaries; the structured emitter is
byte-deterministic for a fixed problem.
"""

from __future__ import annotations

import dataclasses
import json

from . import __version__
from .bifurcation import (
    bifurcation_index,
    brouwer_nondegenerate,
    brouwer_planar,
    check_classical_assumptions,
    check_main_condition,
    lambda_set,
    nonresonance_and_branch_count,
)
from .continuation import TWO_PI, continue_branch, seed_from_linearization, verify_period_limit
from .errors import (
    DecompositionError,
    DegeneracyError,
    EigenvalueNotFoundError,
    LevelCountError,
    PlanarDegreeError,
)
from .linalg import standard_symplectic
from .normal_forms import structural_decomposition
from .problem import ProblemSpec
from .spectral import Linearization, classify_eigenvalue, spectral_summary

PERIOD_LIMIT_EPSILON_FACTOR = 0.02  # fraction of 2*pi allowed in the small-orbit period test
PERIOD_LIMIT_DELTA = 0.1            # amplitude window for the small-orbit period test

ALL_STAGES = frozenset({"normal_form", "index", "assumptions", "continuation"})


def _brouwer_for(eq, lin, spec, tol):
    """Brouwer index with provenance: user value, determinant sign read from
    the equilibrium's Linearization, planar winding number, or unresolved."""
    if eq.brouwer_index is not None:
        return eq.brouwer_index, "user"
    try:
        return brouwer_nondegenerate(lin, tol), "determinant"
    except DegeneracyError:
        pass
    if spec.dim == 2 and spec.hamiltonian is not None:
        try:
            degree = brouwer_planar(
                spec.hamiltonian.gradient, eq.point, radius=1e-3, tol=tol
            )
            return degree, "winding"
        except PlanarDegreeError:
            pass
    return None, "user-required"


def _condition_entry(report, with_blocks):
    counts, blocks = report.counts, report.blocks if with_blocks else None
    return {
        "beta0": report.beta0,
        "gamma": report.gamma,
        "counts": None if counts is None else {**dataclasses.asdict(counts), "kappa": counts.kappa},
        "blocks": None if blocks is None else [[b.half_dim, b.epsilon] for b in blocks],
        "brouwer": report.brouwer,
        "condition_holds": report.condition_holds,
        "routes_agree": "structural unavailable" if report.routes_agree is None else report.routes_agree,
    }


def _assumption_entry(result):
    return {
        "holds": result.holds,
        "certified_betas": list(result.certified_betas),
        "details": result.details,
    }


def _orbit_entry(orbit):
    return {
        "lambda": orbit.lam,
        "amplitude": orbit.amplitude,
        "residual": orbit.residual,
        "energy_drift": orbit.energy_drift,
        "x0": [float(v) for v in orbit.x0],
    }


def run_analysis(spec: ProblemSpec, stages: frozenset[str] = ALL_STAGES) -> dict:
    """Analyze every equilibrium of the problem; failures are collected
    per equilibrium and never abort the others."""
    tol = spec.options.tolerances
    report: dict = {
        "tool": {"name": "hambif", "version": __version__},
        "tolerances": dataclasses.asdict(tol),
        "analysis": {
            "lambda_max": spec.options.lambda_max,
            "j_max": spec.options.j_max,
            "stages": sorted(stages),
        },
        "equilibria": [],
    }

    for index, eq in enumerate(spec.equilibria):
        entry: dict = {"index": index, "point": [float(v) for v in eq.point], "errors": []}
        report["equilibria"].append(entry)
        # every stage below reads this equilibrium's J A through one object; ProblemSpec checked A
        lin = Linearization(standard_symplectic(spec.dim // 2) @ eq.hessian, tol, eq.hessian)
        try:
            summary = spectral_summary(lin, tol)
        except DecompositionError as exc:
            entry["errors"].append(f"spectral analysis failed: {exc}")
            continue
        entry["imaginary_spectrum"] = [
            {
                "beta": ev.beta,
                "algebraic_mult": ev.algebraic_mult,
                "geometric_mult": ev.geometric_mult,
                "jordan_partition": list(ev.jordan_partition),
                "class": classify_eigenvalue(ev).value,
                "conditioning": ev.conditioning,
            }
            for ev in summary.imaginary
        ]
        entry["has_nonimaginary"] = summary.has_nonimaginary
        entry["other_eigenvalues"] = [[z.real, z.imag] for z in summary.other_eigenvalues]

        brouwer, provenance = _brouwer_for(eq, lin, spec, tol)
        entry["brouwer_index"] = brouwer
        entry["brouwer_provenance"] = provenance

        found = list(summary.betas)
        if spec.options.betas == "all":
            requested = found
        else:
            requested = []  # one entry per named frequency, in first-request order
            for want in spec.options.betas:
                try:
                    beta = lin.cluster_at(want).beta
                except EigenvalueNotFoundError:
                    entry["errors"].append(f"requested beta {want} is not in the spectrum")
                    continue
                if beta not in requested:
                    requested.append(beta)
        try:
            ls = lambda_set(lin, spec.options.lambda_max, tol)
            entry["lambda_set"] = {
                "points": list(ls.points),
                "lambda_max": ls.lambda_max,
                "source_betas": [[beta, list(ms)] for beta, ms in ls.source_betas],
            }
        except LevelCountError as exc:
            entry["errors"].append(f"candidate levels unavailable: {exc}")
        if not found:
            entry["conditions"] = []
            entry["bifurcation_indices"] = []
            entry["branches"] = []
            entry["note"] = "no candidate frequencies: no purely imaginary spectrum"
            continue

        conditions = []
        indices = []
        reports: dict = {}  # beta -> ConditionReport, or None when the check failed
        if "index" in stages or "normal_form" in stages:
            for beta in requested:
                if "normal_form" in stages:
                    try:
                        blocks = structural_decomposition(lin, beta, tol)
                    except DecompositionError as exc:
                        blocks = None
                        entry["errors"].append(f"decomposition at beta={beta:.6g} unavailable: {exc}")
                    if "index" not in stages:
                        if blocks is not None:
                            conditions.append({"beta0": beta, "blocks": [[b.half_dim, b.epsilon] for b in blocks]})
                        continue
                try:
                    reports[beta] = check_main_condition(lin, brouwer, beta, tol)
                except DegeneracyError as exc:
                    reports[beta] = None
                    entry["errors"].append(f"condition check at beta={beta:.6g} failed: {exc}")
                    continue
                conditions.append(_condition_entry(reports[beta], "normal_form" in stages))
                try:
                    bif = bifurcation_index(
                        lin, 0 if brouwer is None else brouwer, 1.0 / beta, spec.options.j_max, tol
                    )
                    indices.append(
                        {
                            "beta0": beta,
                            "lambda0": 1.0 / beta,
                            "entries": {str(j): eta for j, eta in bif.entries},
                            "j_max": bif.j_max,
                            "truncated": bif.truncated,
                            "brouwer_known": brouwer is not None,
                        }
                    )
                except DegeneracyError as exc:
                    entry["errors"].append(f"bifurcation index at beta={beta:.6g} failed: {exc}")
        entry["conditions"] = conditions
        entry["bifurcation_indices"] = indices

        if "index" in stages:
            # every frequency is flagged and counted, one --beta left out too
            non = nonresonance_and_branch_count(lin, brouwer, tol)
            entry["nonresonance"] = {
                "flags": [[beta, flag] for beta, flag in non.flags],
                "lower_bound": non.lower_bound,
            }

        if "assumptions" in stages:
            assumptions = check_classical_assumptions(lin, tol=tol)
            entry["classical_assumptions"] = {
                f.name: _assumption_entry(getattr(assumptions, f.name))
                for f in dataclasses.fields(assumptions)
            }

        branches = []
        if "continuation" in stages and spec.hamiltonian is not None and spec.options.continuation_enabled:
            for beta in requested:
                if "index" in stages and not (reports[beta] and reports[beta].condition_holds):
                    continue
                seed = seed_from_linearization(
                    lin, beta, spec.options.continuation.seed_amplitude, eq.point, tol
                )
                branch = continue_branch(spec.hamiltonian, seed, spec.options.continuation, eq.point)
                eps = PERIOD_LIMIT_EPSILON_FACTOR * TWO_PI
                branches.append(
                    {
                        "beta0": beta,
                        "termination": branch.termination,
                        "orbit_count": len(branch.orbits),
                        "period_limit": {
                            "epsilon": eps,
                            "delta": PERIOD_LIMIT_DELTA,
                            "verified": verify_period_limit(branch, beta, eps, PERIOD_LIMIT_DELTA),
                        },
                        "orbits": [_orbit_entry(o) for o in branch.orbits],
                    }
                )
        entry["branches"] = branches
    return report


def emit_report(report: dict, format: str = "structured") -> str:
    """Serialize a report; structured output round-trips losslessly."""
    if format == "structured":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if format == "human":
        return _human_report(report)
    raise ValueError(f"unknown format {format!r}")


def branch_csv(branch_entry: dict) -> str:
    """CSV export of one branch, floats at 17 significant digits."""
    orbits = branch_entry["orbits"]
    dim = len(orbits[0]["x0"]) if orbits else 0
    header = ["index", "lambda", "amplitude", "residual", "energy_drift"]
    header += [f"x0_{k}" for k in range(dim)]
    lines = [",".join(header)]
    for i, orbit in enumerate(orbits):
        row = [str(i)] + [
            format(orbit[key], ".17g") for key in ("lambda", "amplitude", "residual", "energy_drift")
        ]
        row += [format(v, ".17g") for v in orbit["x0"]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _verdict_line(cond: dict) -> str:
    counts = cond.get("counts")
    if counts is not None:
        structural = (
            f"o+={counts['o_plus']} o-={counts['o_minus']} "
            f"e+={counts['e_plus']} e-={counts['e_minus']} kappa={counts['kappa']}"
        )
    else:
        structural = "structural route unavailable"
    holds = cond.get("condition_holds")
    verdict = "HOLDS" if holds else ("FAILS" if holds is False else "UNDETERMINED (supply brouwer_index)")
    return (
        f"  beta0={cond['beta0']:.9g}: {structural}; gamma={cond['gamma']}; "
        f"brouwer={cond['brouwer'] if cond['brouwer'] is not None else 'user-required'}; "
        f"routes_agree={cond['routes_agree']}; condition {verdict}"
    )


def _human_report(report: dict) -> str:
    lines = [
        f"hambif {report['tool']['version']} analysis (lambda_max {report['analysis']['lambda_max']})"
    ]
    for eq in report["equilibria"]:
        lines.append(f"equilibrium {eq['index']} at {eq['point']}")
        for err in eq.get("errors", []):
            lines.append(f"  ! {err}")
        if "note" in eq:
            lines.append(f"  {eq['note']}")
        for ev in eq.get("imaginary_spectrum", []):
            lines.append(
                f"  frequency beta={ev['beta']:.9g}: mult {ev['algebraic_mult']}"
                f"/{ev['geometric_mult']}, partition {ev['jordan_partition']}, {ev['class']}"
            )
        for cond in eq.get("conditions", []):
            if "gamma" in cond:
                lines.append(_verdict_line(cond))
            else:  # the normal-form stage alone: blocks, no verdict
                blocks = ", ".join(f"({n}, {eps:+d})" for n, eps in cond["blocks"])
                lines.append(f"  beta0={cond['beta0']:.9g}: blocks (half_dim, epsilon) {blocks}")
        for bif in eq.get("bifurcation_indices", []):
            entries = bif["entries"] or {}
            shown = ", ".join(f"eta_{j}={eta}" for j, eta in sorted(entries.items(), key=lambda t: int(t[0])))
            lines.append(
                f"  index at lambda0={bif['lambda0']:.9g}: {shown or 'trivial'}"
                + (" (truncated)" if bif["truncated"] else "")
            )
        non = eq.get("nonresonance")
        if non:
            flagged = [f"{beta:.9g}" for beta, flag in non["flags"] if flag]
            lines.append(
                f"  nonresonant frequencies: {', '.join(flagged) or 'none'}; "
                f"branch lower bound {non['lower_bound']}"
            )
        for br in eq.get("branches", []):
            lam = [o["lambda"] for o in br["orbits"]]
            amp = [o["amplitude"] for o in br["orbits"]]
            span = (
                f"lambda [{min(lam):.6g}, {max(lam):.6g}], amplitude up to {max(amp):.6g}"
                if br["orbits"]
                else "empty"
            )
            limit = br["period_limit"]
            small = sum(a < limit["delta"] for a in amp)
            lines.append(
                f"  branch at beta0={br['beta0']:.9g}: {br['orbit_count']} orbits, {span}, "
                f"terminated by {br['termination']}, small-orbit period check "
                f"{'passed' if limit['verified'] else 'not verified'} "
                f"({small} orbits below delta {limit['delta']:g})"
            )
    return "\n".join(lines) + "\n"
