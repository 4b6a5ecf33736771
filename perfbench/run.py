"""The hambif benchmark: seeded problem sets through ``hambif analyze``.

    python3 perfbench/run.py --workload decide_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass sends every problem file of the workload through
``hambif.cli.main(["analyze", "--input", file])``, the path of
``hambif analyze`` (parse_problem -> run_analysis -> emit_report), in one
process with BLAS pinned to one thread.  Passes repeat until ``--seconds``
is spent (at least one).  Times are put on the host-speed scale of
bench_speed: each untraced pass is timed while a fixed reference kernel is
sampled, and its latencies are scaled by the kernel's speed in that pass.
Every operation is checked against the answer known from the construction
(see bench_outcome); a problem outside the decide_sweep conditioning tail
that is not correct fails the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Side files (problem files, digests, spans) go to ``perfbench/out/``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is loaded

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("decide_sweep", "decide_large", "branch")
# the reference kernel (bench_speed) whose code is most like the workload's
SPEED_KERNEL = {"decide_sweep": "mixed", "decide_large": "linalg", "branch": "scalar"}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hambif; d = time.perf_counter() - t; "
    "print(d); print(hambif.__file__)"
)
# The host-speed reference for setup_s: a fresh interpreter importing numpy
# alone, and its time in a fast phase of the guest the benchmark was written on.
_REFERENCE_PROBE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
REFERENCE_IMPORT_S = 0.06


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time for a fresh interpreter to ``import hambif`` from ``src``,
    after one unmeasured round that compiles the bytecode: each import scaled
    by a fresh interpreter's ``import numpy`` run just before it, and raw."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def child(code: str) -> list[str]:
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout.splitlines()

    times, raw = [], []
    for k in range(repeats + 1):
        reference = float(child(_REFERENCE_PROBE)[0])
        out = child(_IMPORT_PROBE)
        if not Path(out[1]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"hambif imported from {out[1]}, not from {SRC}")
        if k:
            raw.append(float(out[0]))
            times.append(raw[-1] * REFERENCE_IMPORT_S / reference)
    return statistics.median(times), statistics.median(raw)


def run_pass(cli, paths, probe=None) -> tuple[list[float], list[tuple]]:
    """Analyze every problem file once; latency and (exit code, report text,
    escaped exception) per problem.  An exception never aborts the pass.
    The time of the probe's samples is taken out of each latency."""
    latencies, results = [], []
    for path in paths:
        buf = io.StringIO()
        code = error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["analyze", "--input", str(path)])
        except Exception as exc:  # a crash is an outcome to count, not a reason to stop
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0 - (probe.spent(t0, t1) if probe is not None else 0.0))
        results.append((code, buf.getvalue(), error))
    return latencies, results


def digests(results) -> list[str]:
    """sha256 of each structured report, or of the error of a crash."""
    return [hashlib.sha256((text if error is None else f"crash {error}").encode()).hexdigest()
            for _, text, error in results]


def typical(per_pass: list[list[float]]) -> list[float]:
    """Each problem's median latency over the passes of the run."""
    return [statistics.median(column) for column in zip(*per_pass)]


def tail_latency(per_problem: list[float]) -> tuple[float, str]:
    """p90 over problems when there are at least 100 (so at least 10 lie
    beyond it), else the slowest problem."""
    if len(per_problem) >= 100:
        return statistics.quantiles(per_problem, n=10, method="inclusive")[-1], f"p90 of {len(per_problem)} problems"
    return max(per_problem), f"slowest of {len(per_problem)} problems"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hambif" / "__init__.py").is_file():
        print(f"error: no hambif sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import hambif
    import hambif.cli as cli

    if not Path(hambif.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: hambif imported from {hambif.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import bench_outcome
    import bench_problems
    from bench_trace import Tracer, unit_of

    seed = bench_problems.DEFAULT_SEED if args.seed is None else args.seed
    probe = SpeedProbe(SPEED_KERNEL[args.workload])
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup()

    problems = bench_problems.WORKLOADS[args.workload](seed)
    problem_dir = OUT / args.workload / "problems"
    problem_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for problem in problems:
        path = problem_dir / f"{problem.name}.json"
        path.write_text(problem.text)
        paths.append(path)
    equilibria = len(problems)  # one equilibrium per problem

    tracer = Tracer() if args.trace else None
    latencies, raw_latencies, traced_latencies, passes, scales = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        since = time.perf_counter()
        with probe:
            lat, res = run_pass(cli, paths, probe)
        scales.append(probe.scale(since))
        latencies.append([t * scales[-1] for t in lat])
        raw_latencies.append(lat)
        passes.append(res)
        cycle = time.perf_counter() - since
        if tracer is not None:
            gc.collect()
            lat, res = tracer.traced_pass(lambda: run_pass(cli, paths))
            traced_latencies.append(lat)
            passes.append(res)
            cycle += sum(lat)
        if time.perf_counter() + cycle > deadline:
            break
    per_problem = typical(latencies)
    typical_raw = typical(raw_latencies)

    outcomes = []
    for problem, (code, text, error) in zip(problems, passes[0]):
        report = json.loads(text) if error is None and code is not None and text else None
        outcomes.extend(bench_outcome.classify(problem, code, report, error))
    reference = digests(passes[0])
    unstable = sorted({problems[i].name for res in passes[1:] for i, d in enumerate(digests(res))
                       if d != reference[i]})

    kinds = {kind: [o for o in outcomes if o.kind == kind] for kind in
             (bench_outcome.CORRECT, bench_outcome.ABSTAINED, bench_outcome.CRASHED, bench_outcome.WRONG)}
    gated = [o for o in outcomes if o.gated]
    gate_failures = [o for o in gated if o.kind != bench_outcome.CORRECT]
    base = len(outcomes)
    failed_frac = (base - len(kinds[bench_outcome.CORRECT])) / base
    wrong_frac = len(kinds[bench_outcome.WRONG]) / base
    correct = not gate_failures and not unstable

    print(f"workload {args.workload}, seed {seed}, {len(problems)} problems, "
          f"{len(latencies)} untraced + {len(traced_latencies)} traced passes")
    print(f"environment: nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}, python {platform.python_version()}, "
          f"numpy {sys.modules['numpy'].__version__}, scipy {sys.modules['scipy'].__version__}, "
          f"hambif {hambif.__version__}")
    print("operations: " + ", ".join(f"{kind} {len(ops)}" for kind, ops in kinds.items()) + f" of {base}; "
          f"failed_frac {failed_frac:.6g} and wrong_frac {wrong_frac:.6g} of {base} operations")
    cond = {p.name: p.cond for p in problems}
    for o in outcomes:
        if o.kind != bench_outcome.CORRECT:
            print(f"  {'GATE ' if o.gated else 'tail '}{o.kind:9s} {o.problem} (cond(S) {cond[o.problem]:.3g}) "
                  f"beta={o.beta:.9g}: {o.reason}")
    if unstable:
        print(f"  report bytes differ between passes for {', '.join(unstable)}")
    all_digest = hashlib.sha256("".join(reference).encode()).hexdigest()
    print(f"report digest {all_digest} ({'traced and untraced' if tracer else 'all passes'} "
          f"{'agree' if not unstable else 'DISAGREE'})")

    run_dir = OUT / args.workload
    record = {"seed": seed, "trace": args.trace, "digests": dict(zip((p.name for p in problems), reference)),
              "median_latency_s": dict(zip((p.name for p in problems), per_problem)),
              "median_raw_latency_s": dict(zip((p.name for p in problems), typical_raw)),
              "speed_scales": scales, "setup_raw_s": setup_raw_s,
              "outcomes": [o.__dict__ for o in outcomes if o.kind != bench_outcome.CORRECT]}

    if tracer is None:
        tail, tail_label = tail_latency(per_problem)
        print(f"latencies: each problem's median over {len(latencies)} passes; problem_tail_s is the {tail_label}")
        print(f"host speed: scale {min(scales):.4g} to {max(scales):.4g} over the passes; unscaled pass_s "
              f"{statistics.median(sum(lat) for lat in raw_latencies):.6g}, setup_s {setup_raw_s:.6g}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(sum(lat) for lat in latencies), "s"),
            "problem_p50_s": (statistics.median(per_problem), "s"),
            "problem_tail_s": (tail, "s"),
            "correct_frac": (1.0 - failed_frac, "frac"),
            "not_wrong_frac": (1.0 - wrong_frac, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tables = tracer.per_pass_tables(equilibria)
        metrics = {key: (statistics.median(t[key] for t in tables), unit_of(key)) for key in tables[0]}
        metrics["trace_overhead_frac"] = (sum(typical(traced_latencies)) / sum(typical_raw) - 1.0, "frac")
        if tracer.absent:
            print(f"absent from the program (reported as 0): {', '.join(tracer.absent)}")
        tracer.write(run_dir / "spans.npz")
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (run_dir / f"run_seed{seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": correct,
        "attempted": len(gated),
        "failed": len(gate_failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
