"""Command-line interface.

Subcommands map to pipeline stages: ``analyze`` runs everything,
``normal-form`` only the block decomposition, ``index`` the candidate levels
and bifurcation indices, ``continue`` only branch continuation.

Exit codes: 0 success, 2 parse/consistency error, 3 numerical failure,
4 condition undetermined (a Brouwer index must be supplied).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .analysis import ALL_STAGES, branch_csv, emit_report, run_analysis
from .errors import SpecError
from .problem import parse_problem

STAGES_BY_COMMAND = {
    "analyze": ALL_STAGES,
    "normal-form": frozenset({"normal_form"}),
    "index": frozenset({"index"}),
    "continue": frozenset({"continuation"}),
}


def _positive(text: str) -> float:
    """A positive finite number, as the problem file requires of the same fields."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="problem description (JSON)")
    parser.add_argument("--output", help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=["structured", "human", "csv"], default="structured",
        help="report format; csv exports branches only",
    )
    parser.add_argument(
        "--lambda-max", type=_positive, help="override the candidate-level truncation"
    )
    parser.add_argument("--j-max", type=_positive_int, help="override the index truncation")
    parser.add_argument(
        "--beta", type=_positive, action="append", dest="betas",
        help="restrict to this frequency (repeatable)",
    )
    parser.add_argument("--tol-scale", type=_positive, help="scale all tolerances by this factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hambif",
        description="Normal-form block counts, bifurcation indices and branch continuation "
        "for Hamiltonian equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "full pipeline: spectrum, decomposition, indices, assumptions, branches"),
        ("normal-form", "block decomposition only"),
        ("index", "candidate levels, Morse jumps and bifurcation indices only"),
        ("continue", "branch continuation only (requires a Hamiltonian)"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def _apply_overrides(spec, args):
    options = spec.options
    if args.lambda_max is not None:
        options = dataclasses.replace(options, lambda_max=args.lambda_max)
    if args.j_max is not None:
        options = dataclasses.replace(options, j_max=args.j_max)
    if args.betas:
        options = dataclasses.replace(options, betas=tuple(args.betas))
    if args.tol_scale is not None:
        options = dataclasses.replace(options, tolerances=options.tolerances.scaled(args.tol_scale))
    return dataclasses.replace(spec, options=options)


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(report: dict, output: str | None) -> None:
    pieces = []
    for eq in report["equilibria"]:
        for br in eq.get("branches", []):
            pieces.append((eq["index"], br))
    if output and len(pieces) > 1:
        directory = Path(output)
        directory.mkdir(parents=True, exist_ok=True)
        for index, br in pieces:
            name = f"branch_eq{index}_beta{br['beta0']:.6g}.csv"
            (directory / name).write_text(branch_csv(br))
        return
    text = "".join(branch_csv(br) for _, br in pieces)
    _write(text, output)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = parse_problem(Path(args.input).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: no such file: {args.input}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = _apply_overrides(spec, args)

    stages = STAGES_BY_COMMAND[args.command]
    if args.command == "continue" and spec.hamiltonian is None:
        print("error: continuation requires a polynomial Hamiltonian in the problem", file=sys.stderr)
        return 2

    report = run_analysis(spec, stages)

    if args.format == "csv":
        _emit_csv(report, args.output)
    else:
        _write(emit_report(report, args.format), args.output)

    numerical_failures = any(eq.get("errors") for eq in report["equilibria"])
    undetermined = any(
        cond.get("condition_holds") is None and "gamma" in cond
        for eq in report["equilibria"]
        for cond in eq.get("conditions", [])
    )
    if numerical_failures:
        return 3
    if undetermined:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
