import json
import math
from pathlib import Path

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

    @pytest.mark.parametrize("field,value", [
        ("continuation.max_steps", 2.5),
        ("continuation.sample_points", 100.0),
        ("continuation.max_corrector_iters", 3.0),
        ("continuation.amplitude_target", "0.1"),
        ("continuation.enabled", "false"),
        ("betas", 5),
        ("betas", "none"),
        ("lambda_max", "abc"),
        ("j_max", True),
    ])
    def test_field_of_the_wrong_type_is_a_spec_error(self, field, value, tmp_path, capsys):
        data = json.loads(quartic_spec())
        *parents, name = field.split(".")
        target = data["analysis"]
        for key in parents:
            target = target[key]
        target[name] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        assert cli_main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: $.analysis.{field}: ")

    @pytest.mark.parametrize("edit,path", [
        pytest.param(lambda d: d["hamiltonian"].update(terms=5), "$.hamiltonian.terms", id="terms-not-a-list"),
        pytest.param(lambda d: d["hamiltonian"]["terms"][0].update(exponents=[2.5, 0]),
                     "$.hamiltonian.terms[0]", id="fractional-exponent"),
        pytest.param(lambda d: d["hamiltonian"]["terms"][0].update(coefficient="0.5"),
                     "$.hamiltonian.terms[0]", id="string-coefficient"),
        pytest.param(lambda d: d["hamiltonian"].update(dim=2.0), "$.hamiltonian.dim", id="float-dim"),
        pytest.param(lambda d: d["equilibria"][0]["hessian"][0].__setitem__(0, "1"),
                     "$.equilibria[0].hessian[0][0]", id="string-hessian-entry"),
        pytest.param(lambda d: d["equilibria"][0]["point"].__setitem__(0, False),
                     "$.equilibria[0].point[0]", id="boolean-point-entry"),
        pytest.param(lambda d: d["equilibria"][0]["point"].__setitem__(0, math.nan),
                     "$.equilibria[0].point[0]", id="nan-point-entry"),
        pytest.param(lambda d: d["equilibria"][0].update(brouwer_index=True),
                     "$.equilibria[0].brouwer_index", id="boolean-brouwer-index"),
        pytest.param(lambda d: d["analysis"].update(lambda_max=math.inf),
                     "$.analysis.lambda_max", id="infinite-lambda-max"),
    ])
    def test_every_number_field_takes_finite_json_numbers(self, edit, path, tmp_path, capsys):
        """Number fields take finite non-boolean numbers, integer fields
        integers, and terms a list, wherever they sit in the file."""
        data = json.loads(quartic_spec())
        edit(data)
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(data))
        assert cli_main(["analyze", "--input", str(problem)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

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

    def test_unreadable_input_exit_two(self, tmp_path, capsys):
        """A directory and a file that is not UTF-8 are refused, not tracebacks."""
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(oscillator_spec().replace("dim", "d\xefm").encode("latin-1"))
        for path in (tmp_path, latin1):
            assert cli_main(["analyze", "--input", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_removed_seed_rejected(self, tmp_path):
        """The seed drove nothing; the problem key and the flag are gone."""
        path = self.write(tmp_path, oscillator_spec(seed=5))
        assert cli_main(["analyze", "--input", path]) == 2
        with pytest.raises(SystemExit) as info:
            cli_main(["analyze", "--input", self.write(tmp_path, oscillator_spec()), "--seed", "5"])
        assert info.value.code == 2

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
                         "--j-max", "3", "--tol-scale", "2.0"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert "seed" not in report
        assert report["analysis"]["lambda_max"] == 2.0
        assert report["tolerances"]["rank_tol"] == 2e-10

    @pytest.mark.parametrize("flag, value", [
        ("--tol-scale", "0"), ("--tol-scale", "nan"), ("--tol-scale", "inf"),
        ("--lambda-max", "-1"), ("--lambda-max", "nan"), ("--lambda-max", "inf"),
        ("--j-max", "0"), ("--beta", "-1"), ("--beta", "0"),
    ])
    def test_overrides_obey_the_problem_file_rules(self, tmp_path, flag, value):
        """A value the problem file refuses is a usage error on the command line too."""
        path = self.write(tmp_path, quartic_spec())
        with pytest.raises(SystemExit) as info:
            cli_main(["index", "--input", path, flag, value])
        assert info.value.code == 2

    def test_unknown_command_and_help(self, tmp_path, capsys):
        path = self.write(tmp_path, oscillator_spec())
        with pytest.raises(SystemExit) as info:
            cli_main(["solve", "--input", path])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            cli_main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in ("analyze", "normal-form", "index", "continue"))


def oscillators_problem(tmp_path, *betas):
    """Problem file for one equilibrium with simple frequencies at the given betas."""
    from hambif import BlockSpec, NormalForm, assemble_hessian

    A = assemble_hessian(NormalForm(tuple(BlockSpec(b, 1, -1) for b in betas)))
    path = tmp_path / "oscillators.json"
    path.write_text(json.dumps({"dim": A.shape[0], "equilibria": [{"point": [0.0] * A.shape[0],
                                                                   "hessian": A.tolist()}]}))
    return str(path)


class TestOneVerdictPerFrequency:
    """Each frequency is decomposed and Morse-jumped once, and a report reads
    the same whichever stages produced it."""

    def test_one_decomposition_and_one_jump_per_frequency(self, tmp_path, monkeypatch):
        """The pipeline and ``check_main_condition`` both ask for each
        frequency's blocks; the second request is a memo hit, so only the
        uncached body is counted."""
        import hambif.bifurcation as bifurcation
        import hambif.normal_forms as normal_forms

        decompositions, jumps = [], []
        decompose, morse_jump = normal_forms._decompose, bifurcation._morse_jump

        def counting_decomposition(M, beta, tol):
            decompositions.append(round(beta, 9))
            return decompose(M, beta, tol)

        def counting_jump(A, lam0, mu, tol):
            jumps.append(round(1.0 / lam0, 9))
            return morse_jump(A, lam0, mu, tol)

        monkeypatch.setattr(normal_forms, "_decompose", counting_decomposition)
        monkeypatch.setattr(bifurcation, "_morse_jump", counting_jump)

        # the index at beta 1 reads the jump at beta 2 for its j = 2 coordinate
        path = oscillators_problem(tmp_path, 1.0, 2.0, math.sqrt(2.0))
        run_analysis(parse_problem(Path(path).read_text()), frozenset({"normal_form", "index"}))
        betas = [1.0, round(math.sqrt(2.0), 9), 2.0]
        assert sorted(decompositions) == betas
        assert sorted(jumps) == betas

    def test_report_by_stage(self, tmp_path, monkeypatch, capsys):
        """The decomposition fails at beta 2 and the Morse jump across the
        level 1/2, which the condition check at beta 2 and the j = 2 index
        coordinate at beta 1 both need."""
        import hambif.analysis as analysis
        import hambif.bifurcation as bifurcation
        from hambif.errors import DecompositionError, DegeneracyError

        decompose, morse_jump = bifurcation.structural_decomposition, bifurcation._morse_jump

        def failing_decomposition(M, beta, tol):
            if abs(beta - 2.0) < 1e-9:
                raise DecompositionError("moment-form rank gap too small")
            return decompose(M, beta, tol)

        def failing_jump(A, lam0, mu, tol):
            if abs(lam0 - 0.5) < 1e-9:
                raise DegeneracyError("morse_index: eigenvalue inside the zero band")
            return morse_jump(A, lam0, mu, tol)

        path = oscillators_problem(tmp_path, 1.0, 2.0)
        for module in (analysis, bifurcation):
            monkeypatch.setattr(module, "structural_decomposition", failing_decomposition)
        monkeypatch.setattr(bifurcation, "_morse_jump", failing_jump)

        decomposition = "decomposition at beta=2 unavailable: moment-form rank gap too small"
        condition = "condition check at beta=2 failed: morse_index: eigenvalue inside the zero band"
        index = "bifurcation index at beta=1 failed: morse_index: eigenvalue inside the zero band"
        counts = {"o_plus": 0, "o_minus": 1, "e_plus": 0, "e_minus": 0, "kappa": -1}
        verdict = {"beta0": 1.0, "gamma": 2, "counts": counts, "brouwer": 1,
                   "condition_holds": True, "routes_agree": True}
        nonresonance = [[2.0, True], [1.0, False]], 0

        def entry(command):
            assert cli_main([command, "--input", path]) == 3
            eq = parse_report(capsys.readouterr().out)["equilibria"][0]
            non = eq.get("nonresonance")
            return eq["errors"], eq["conditions"], eq["bifurcation_indices"], non and (
                [[round(b, 9), flag] for b, flag in non["flags"]], non["lower_bound"])

        assert entry("analyze") == ([decomposition, condition, index],
                                    [{**verdict, "blocks": [[1, -1]]}], [], nonresonance)
        assert entry("normal-form") == ([decomposition], [{"beta0": 1.0, "blocks": [[1, -1]]}], [], None)
        assert entry("index") == ([condition, index], [{**verdict, "blocks": None}], [], nonresonance)

        assert cli_main(["analyze", "--input", path, "--format", "human"]) == 3
        assert capsys.readouterr().out.splitlines()[1:] == [
            "equilibrium 0 at [0.0, 0.0, 0.0, 0.0]",
            f"  ! {decomposition}",
            f"  ! {condition}",
            f"  ! {index}",
            "  frequency beta=2: mult 1/1, partition [1], simple",
            "  frequency beta=1: mult 1/1, partition [1], simple",
            "  beta0=1: o+=0 o-=1 e+=0 e-=0 kappa=-1; gamma=2; brouwer=1; routes_agree=True; condition HOLDS",
            "  nonresonant frequencies: 2; branch lower bound 0",
        ]

    def test_beta_selection_keeps_every_frequency_in_the_bound(self, tmp_path, capsys):
        """Only beta 2 is flagged; it counts although --beta leaves it out."""
        path = oscillators_problem(tmp_path, 1.0, 2.0)
        assert cli_main(["analyze", "--input", path, "--beta", "1"]) == 0
        eq = parse_report(capsys.readouterr().out)["equilibria"][0]
        assert [c["beta0"] for c in eq["conditions"]] == [1.0]
        assert [[round(b, 9), flag] for b, flag in eq["nonresonance"]["flags"]] == [[2.0, True], [1.0, False]]
        assert eq["nonresonance"]["lower_bound"] == 1


class TestTypedAbstentions:
    """The pipeline turns only the typed abstentions into report errors."""

    def test_decomposition_above_the_cap_is_an_abstention(self, tmp_path, capsys):
        path = oscillators_problem(tmp_path, *(1.0 + k / 32 for k in range(33)))
        assert cli_main(["analyze", "--input", path, "--beta", "1"]) == 3
        eq = parse_report(capsys.readouterr().out)["equilibria"][0]
        assert eq["errors"] == ["decomposition at beta=1 unavailable: decomposition supported up to dimension 64"]

    def test_value_error_from_the_decomposition_escapes(self, tmp_path, monkeypatch):
        import hambif.analysis as analysis

        def broken(M, beta, tol):
            raise ValueError("a bug, not an abstention")

        monkeypatch.setattr(analysis, "structural_decomposition", broken)
        path = oscillators_problem(tmp_path, 1.0)
        with pytest.raises(ValueError, match="a bug"):
            run_analysis(parse_problem(Path(path).read_text()))
