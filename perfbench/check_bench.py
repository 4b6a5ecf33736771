"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/check_bench.py -q

The file name keeps these out of the repository's default test run; pytest
collects a file named on its command line whatever its name.
"""

import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hambif.cli as cli  # noqa: E402

import bench_outcome  # noqa: E402
import bench_problems  # noqa: E402
import run  # noqa: E402
from bench_speed import MIN_SAMPLES, SpeedProbe  # noqa: E402
from bench_trace import Tracer  # noqa: E402


def _write(problems, tmp_path):
    paths = []
    for p in problems:
        path = tmp_path / f"{p.name}.json"
        path.write_text(p.text)
        paths.append(path)
    return paths


def _outcomes(problems, tmp_path):
    _, results = run.run_pass(cli, _write(problems, tmp_path))
    out = []
    for problem, (code, text, error) in zip(problems, results):
        report = json.loads(text) if error is None and text else None
        out.extend(bench_outcome.classify(problem, code, report, error))
    return out


def _tiny_branch():
    quartic = bench_problems.branch(0)[0]
    hamiltonian = bench_problems.hb.parse_problem(quartic.text).hamiltonian
    truth = bench_problems.BranchTruth(0.15, lambda a: 1.0 / (1.0 + a * a), 0.15)
    text = bench_problems._emit(hamiltonian.hessian([0.0, 0.0]), hamiltonian, 0.15)
    expected = tuple(replace(e, branch=truth) for e in quartic.expected)
    return bench_problems.Problem("tiny_quartic", text, expected)


@pytest.mark.parametrize("make", [
    lambda: bench_problems.decide_sweep(3, count=3, tail=1),
    lambda: bench_problems.decide_large(3)[:1],
    lambda: [_tiny_branch()],
], ids=["decide_sweep", "decide_large", "branch"])
def test_smoke_every_operation_correct(make, tmp_path):
    outcomes = _outcomes(make(), tmp_path)
    assert outcomes
    assert all(o.kind == bench_outcome.CORRECT for o in outcomes), outcomes


def test_generator_is_seeded():
    a = bench_problems.decide_sweep(5, count=4, tail=0)
    b = bench_problems.decide_sweep(5, count=4, tail=0)
    c = bench_problems.decide_sweep(6, count=4, tail=0)
    assert [p.text for p in a] == [p.text for p in b]
    assert [p.text for p in a] != [p.text for p in c]
    assert all("brouwer_index" not in p.text for p in a)


def test_gate_fires_on_wrong_expected_answer(tmp_path, monkeypatch, capsys):
    good = bench_problems.decide_large(3)[0]
    flipped = tuple(replace(e, blocks=tuple((n, -eps) for n, eps in e.blocks), kappa=-e.kappa)
                    for e in good.expected)
    bad = replace(good, expected=flipped)
    assert [o.kind for o in _outcomes([bad], tmp_path)] == [bench_outcome.WRONG]

    monkeypatch.setitem(bench_problems.WORKLOADS, "decide_large", lambda seed: [bad])
    monkeypatch.setattr(run, "measure_setup", lambda: (1.0, 1.0))
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    assert run.main(["--workload", "decide_large", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, section, tmp_path, monkeypatch, capsys):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.setitem(bench_problems.WORKLOADS, "decide_large", lambda seed: bench_problems.decide_large(seed)[:1])
    monkeypatch.setattr(run, "measure_setup", lambda: (1.0, 1.0))
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    assert run.main(["--workload", "decide_large", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[section]}


def test_raised_exception_is_counted_not_propagated(tmp_path, monkeypatch):
    problems = bench_problems.decide_sweep(3, count=2, tail=0)
    real = cli.run_analysis
    calls = []

    def flaky(spec, stages):
        calls.append(spec)
        if len(calls) == 1:
            raise FloatingPointError("injected")
        return real(spec, stages)

    monkeypatch.setattr(cli, "run_analysis", flaky)
    outcomes = _outcomes(problems, tmp_path)
    first = [o for o in outcomes if o.problem == problems[0].name]
    second = [o for o in outcomes if o.problem == problems[1].name]
    assert first and all(o.kind == bench_outcome.CRASHED and "injected" in o.reason for o in first)
    assert second and all(o.kind == bench_outcome.CORRECT for o in second)


def test_trace_reports_every_layer_and_keeps_reports_identical(tmp_path):
    paths = _write(bench_problems.decide_sweep(3, count=2, tail=0), tmp_path)
    _, plain = run.run_pass(cli, paths)
    tracer = Tracer()
    _, traced = tracer.traced_pass(lambda: run.run_pass(cli, paths))
    assert run.digests(plain) == run.digests(traced)
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")  # wrappers removed
    (table,) = tracer.per_pass_tables(equilibria=len(paths))
    assert table["cli.main.calls"] == len(paths)
    assert table["spectral.spectral_summary.calls"] >= len(paths)
    assert table["spectral.spectral_summary.calls_per_equilibrium"] > 1
    assert 0.0 <= table["analysis.run_analysis.self_s"] <= table["analysis.run_analysis.total_s"]
    assert not tracer.absent


def test_trace_records_a_removed_name_as_absent(monkeypatch):
    import hambif.spectral

    monkeypatch.delattr(hambif.spectral, "jordan_partition")
    tracer = Tracer()
    tracer.traced_pass(lambda: None)
    assert tracer.absent == ["spectral.jordan_partition"]
    (table,) = tracer.per_pass_tables(equilibria=1)
    assert table["spectral.jordan_partition.calls"] == 0


def test_speed_probe_samples_on_the_timer_and_its_time_is_taken_out(tmp_path):
    paths = _write(bench_problems.decide_large(3)[:1], tmp_path)
    probe = SpeedProbe(period_s=0.005)
    with probe:
        t0 = time.perf_counter()
        (latency,), _ = run.run_pass(cli, paths, probe)
        t1 = time.perf_counter()
    assert probe.starts == sorted(probe.starts) and probe.starts
    net = t1 - t0 - probe.spent(t0, t1)
    assert probe.spent(t0, t1) > 0
    assert 0.9 * net < latency <= net + 1e-9
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL  # handler restored


@pytest.mark.parametrize("kernel", ["linalg", "scalar", "mixed"])
def test_speed_scale_tops_up_and_uses_the_mean(kernel):
    probe = SpeedProbe(kernel)
    since = time.perf_counter()
    assert probe.scale(since) > 0 and len(probe.durations) == MIN_SAMPLES
    probe.durations[:] = [probe.reference_s] * (MIN_SAMPLES - 1) + [(MIN_SAMPLES + 1) * probe.reference_s]
    assert probe.scale(since) == pytest.approx(0.5)
