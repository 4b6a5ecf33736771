import json

import numpy as np
import pytest

from hambif import (
    ConsistencyError,
    SpecError,
    branch_csv,
    emit_problem,
    emit_report,
    parse_problem,
    parse_report,
    problem_to_dict,
    run_analysis,
)
from hambif.cli import main as cli_main


def oscillator_spec(**analysis):
    data = {
        "dim": 2,
        "equilibria": [{"point": [0.0, 0.0], "hessian": [[1.0, 0.0], [0.0, 1.0]]}],
        "analysis": {"lambda_max": 3.0, **analysis},
    }
    return json.dumps(data)


def quartic_spec(**analysis):
    data = {
        "dim": 2,
        "equilibria": [{"point": [0.0, 0.0], "hessian": [[1.0, 0.0], [0.0, 1.0]]}],
        "hamiltonian": {
            "terms": [
                {"coefficient": 0.5, "exponents": [2, 0]},
                {"coefficient": 0.5, "exponents": [0, 2]},
                {"coefficient": 0.25, "exponents": [4, 0]},
                {"coefficient": 0.5, "exponents": [2, 2]},
                {"coefficient": 0.25, "exponents": [0, 4]},
            ]
        },
        "analysis": {
            "lambda_max": 3.0,
            "continuation": {"amplitude_target": 0.15},
            **analysis,
        },
    }
    return json.dumps(data)


class TestParsing:
    def test_oscillator_is_valid(self):
        spec = parse_problem(oscillator_spec())
        assert spec.dim == 2
        assert len(spec.equilibria) == 1
        assert spec.hamiltonian is None

    def test_asymmetric_hessian_rejected(self):
        data = json.loads(oscillator_spec())
        data["equilibria"][0]["hessian"] = [[1.0, 0.1], [0.0, 1.0]]
        with pytest.raises(ConsistencyError):
            parse_problem(json.dumps(data))

    def test_schema_violation_names_path(self):
        data = json.loads(oscillator_spec())
        data["equilibria"][0]["point"] = [0.0]
        with pytest.raises(SpecError) as info:
            parse_problem(json.dumps(data))
        assert "equilibria[0].point" in str(info.value)

    def test_gradient_check_passes_for_quartic(self):
        spec = parse_problem(quartic_spec())
        assert spec.hamiltonian is not None

    def test_hessian_mismatch_names_equilibrium(self):
        data = json.loads(quartic_spec())
        data["equilibria"][0]["hessian"] = [[2.0, 0.0], [0.0, 2.0]]
        with pytest.raises(ConsistencyError) as info:
            parse_problem(json.dumps(data))
        assert "equilibrium 0" in str(info.value)

    def test_nonvanishing_gradient_rejected(self):
        data = json.loads(quartic_spec())
        data["equilibria"][0]["point"] = [0.3, 0.0]
        with pytest.raises(ConsistencyError):
            parse_problem(json.dumps(data))

    def test_unknown_fields_rejected(self):
        data = json.loads(oscillator_spec())
        data["extra"] = 1
        with pytest.raises(SpecError):
            parse_problem(json.dumps(data))

    def test_unusable_continuation_settings_rejected(self):
        data = json.loads(quartic_spec())
        data["analysis"]["continuation"]["sample_points"] = 0
        with pytest.raises(SpecError) as info:
            parse_problem(json.dumps(data))
        assert "sample_points" in str(info.value)
        assert "analysis.continuation" in str(info.value)

    def test_problem_round_trip(self):
        spec = parse_problem(quartic_spec())
        text = emit_problem(spec)
        again = parse_problem(text)
        assert emit_problem(again) == text
        assert problem_to_dict(again) == problem_to_dict(spec)


class TestReports:
    def test_structured_round_trip(self):
        report = run_analysis(parse_problem(oscillator_spec()))
        text = emit_report(report, "structured")
        assert parse_report(text) == report

    def test_determinism_byte_identical(self):
        spec_text = quartic_spec()
        a = emit_report(run_analysis(parse_problem(spec_text)), "structured")
        b = emit_report(run_analysis(parse_problem(spec_text)), "structured")
        assert a == b

    def test_verdict_line_contents(self):
        report = run_analysis(parse_problem(oscillator_spec()))
        human = emit_report(report, "human")
        line = next(l for l in human.splitlines() if "beta0=" in l and "gamma=" in l)
        for token in ("o+=", "o-=", "e+=", "e-=", "kappa=", "gamma="):
            assert token in line
        assert "HOLDS" in line

    def test_no_imaginary_spectrum_reported(self):
        data = json.loads(oscillator_spec())
        data["equilibria"][0]["hessian"] = [[1.0, 0.0], [0.0, -1.0]]
        report = run_analysis(parse_problem(json.dumps(data)))
        entry = report["equilibria"][0]
        assert entry["imaginary_spectrum"] == []
        assert "no candidate frequencies" in entry["note"]
        assert entry["branches"] == []

    def test_worked_example_via_pipeline(self):
        from hambif import BlockSpec, NormalForm, assemble_hessian

        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1)))
        A = assemble_hessian(nf)
        data = {
            "dim": 20,
            "equilibria": [{"point": [0.0] * 20, "hessian": A.tolist()}],
            "analysis": {"lambda_max": 3.0},
        }
        report = run_analysis(parse_problem(json.dumps(data)))
        cond = report["equilibria"][0]["conditions"][0]
        assert cond["counts"]["kappa"] == -2
        assert cond["gamma"] == 4
        assert cond["condition_holds"] is True
        assert cond["routes_agree"] is True

    def test_failing_equilibrium_does_not_abort_others(self):
        data = {
            "dim": 2,
            "equilibria": [
                {"point": [0.0, 0.0], "hessian": [[1.0, 0.0], [0.0, 0.0]]},  # degenerate
                {"point": [1.0, 0.0], "hessian": [[1.0, 0.0], [0.0, 1.0]]},
            ],
            "analysis": {"lambda_max": 3.0},
        }
        report = run_analysis(parse_problem(json.dumps(data)))
        assert len(report["equilibria"]) == 2
        healthy = report["equilibria"][1]
        assert healthy["conditions"][0]["condition_holds"] is True

    def test_branch_entries_present_with_hamiltonian(self):
        report = run_analysis(parse_problem(quartic_spec()))
        branches = report["equilibria"][0]["branches"]
        assert len(branches) == 1
        assert branches[0]["termination"] == "amplitude_target"
        assert branches[0]["period_limit"]["verified"] is True


class TestBranchCsv:
    def test_header_and_width(self):
        report = run_analysis(parse_problem(quartic_spec()))
        text = branch_csv(report["equilibria"][0]["branches"][0])
        lines = text.strip().splitlines()
        assert lines[0] == "index,lambda,amplitude,residual,energy_drift,x0_0,x0_1"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 7
        # 17 significant digits survive a parse round trip
        assert float(first[1]) == json.loads(json.dumps(float(first[1])))


class TestCli:
    def write(self, tmp_path, text, name="problem.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_analyze_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, oscillator_spec())
        assert cli_main(["analyze", "--input", path]) == 0
        out = capsys.readouterr().out
        assert parse_report(out)["equilibria"][0]["conditions"][0]["condition_holds"] is True

    def test_parse_error_exit_two(self, tmp_path):
        path = self.write(tmp_path, "{not json")
        assert cli_main(["analyze", "--input", path]) == 2

    def test_undetermined_exit_four(self, tmp_path):
        data = {
            "dim": 4,
            "equilibria": [
                {
                    "point": [0.0] * 4,
                    # degenerate Hessian but i*beta still present: J A has {0, +-i}
                    "hessian": np.diag([1.0, 0.0, 1.0, 0.0]).tolist(),
                }
            ],
            "analysis": {"lambda_max": 2.0},
        }
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["analyze", "--input", path]) == 4

    def test_numerical_failure_exit_three(self, tmp_path):
        data = json.loads(oscillator_spec())
        data["analysis"]["betas"] = [7.0]  # not in the spectrum
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["analyze", "--input", path]) == 3

    def test_unusable_continuation_settings_exit_two(self, tmp_path):
        data = json.loads(quartic_spec())
        data["analysis"]["continuation"]["sample_points"] = 0
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["analyze", "--input", path]) == 2

    def test_continue_requires_hamiltonian(self, tmp_path):
        path = self.write(tmp_path, oscillator_spec())
        assert cli_main(["continue", "--input", path]) == 2

    def test_continue_csv_output(self, tmp_path):
        path = self.write(tmp_path, quartic_spec())
        out = tmp_path / "branch.csv"
        assert cli_main(["continue", "--input", path, "--format", "csv", "--output", str(out)]) == 0
        assert out.read_text().startswith("index,lambda,amplitude")

    def test_normal_form_subcommand(self, tmp_path, capsys):
        path = self.write(tmp_path, oscillator_spec())
        assert cli_main(["normal-form", "--input", path]) == 0
        report = parse_report(capsys.readouterr().out)
        cond = report["equilibria"][0]["conditions"][0]
        assert cond["blocks"] == [[1, -1]]

    def test_beta_and_overrides(self, tmp_path, capsys):
        path = self.write(tmp_path, oscillator_spec())
        assert cli_main(["index", "--input", path, "--beta", "1.0", "--lambda-max", "2.0",
                         "--j-max", "3", "--seed", "5", "--tol-scale", "2.0"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["seed"] == 5
        assert report["analysis"]["lambda_max"] == 2.0
        assert report["tolerances"]["rank_tol"] == 2e-10
