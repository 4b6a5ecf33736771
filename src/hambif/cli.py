"""Command-line interface.

Commands map to pipeline stages: ``analyze`` runs everything,
``normal-form`` only the block decomposition, ``index`` the candidate levels
and bifurcation indices, ``continue`` only branch continuation.  One parser
reads the command and the flags, which may come before or after it.

Exit codes: 0 success, 2 bad input (a parse or consistency error, a bad flag
value, an unreadable input or an unwritable output), 3 numerical failure,
4 condition undetermined (a Brouwer index must be supplied).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .analysis import ALL_STAGES, branch_csv, emit_report, run_analysis
from .errors import SpecError
from .problem import parse_problem

# each command: the pipeline stages it runs, and its line in --help
_COMMANDS = {
    "analyze": (ALL_STAGES, "full pipeline: spectrum, decomposition, indices, assumptions, branches"),
    "normal-form": (frozenset({"normal_form"}), "block decomposition only"),
    "index": (frozenset({"index"}), "candidate levels, Morse jumps and bifurcation indices only"),
    "continue": (frozenset({"continuation"}), "branch continuation only (requires a Hamiltonian)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hambif",
        description="Normal-form block counts, bifurcation indices and branch continuation\n"
        "for Hamiltonian equilibria.",
        epilog="commands:\n" + "\n".join(f"  {name:13}{text}" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--input", required=True, help="problem description (JSON)")
    parser.add_argument("--output", help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=["structured", "human", "csv"], default="structured",
        help="report format; csv exports branches only",
    )
    parser.add_argument("--lambda-max", type=float, help="override the candidate-level truncation")
    parser.add_argument("--j-max", type=int, help="override the index truncation")
    parser.add_argument(
        "--beta", type=float, action="append", dest="betas", metavar="BETA",
        help="restrict to this frequency (repeatable)",
    )
    parser.add_argument("--tol-scale", type=float, help="scale all tolerances by this factor")
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
    """Branches as CSV: one file per branch in a directory when ``output``
    ends in a path separator, names an existing directory, or there are two
    or more branches; otherwise all of them in one file or on stdout.  A
    file's name prints ``beta0`` with the fewest significant digits, 6 to
    17, that give every branch of the export a name of its own."""
    pieces = []
    for eq in report["equilibria"]:
        for br in eq.get("branches", []):
            pieces.append((eq["index"], br))
    if output and (len(pieces) > 1 or output.endswith((os.sep, "/")) or Path(output).is_dir()):
        directory = Path(output)
        directory.mkdir(parents=True, exist_ok=True)
        # distinct doubles differ at 17 digits
        digits = next((d for d in range(6, 17)
                       if len({(i, f"{br['beta0']:.{d}g}") for i, br in pieces}) == len(pieces)), 17)
        for index, br in pieces:
            (directory / f"branch_eq{index}_beta{br['beta0']:.{digits}g}.csv").write_text(branch_csv(br))
        return
    text = "".join(branch_csv(br) for _, br in pieces)
    _write(text, output)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    try:
        spec = _apply_overrides(spec, args)
    except ValueError as exc:  # a flag value the problem file would refuse
        parser.error(str(exc))

    stages, _ = _COMMANDS[args.command]
    if args.command == "continue" and spec.hamiltonian is None:
        print("error: continuation requires a polynomial Hamiltonian in the problem", file=sys.stderr)
        return 2

    report = run_analysis(spec, stages)

    try:
        if args.format == "csv":
            _emit_csv(report, args.output)
        else:
            _write(emit_report(report, args.format), args.output)
    except OSError as exc:
        if args.output is None:
            raise
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2

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
