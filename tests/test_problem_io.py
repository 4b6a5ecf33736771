import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hambif import (
    AnalysisOptions,
    BlockSpec,
    ConditioningWarning,
    ConsistencyError,
    ContinuationConfig,
    CorrectorError,
    Equilibrium,
    NormalForm,
    PolynomialHamiltonian,
    ProblemSpec,
    SpecError,
    TolerancePolicy,
    assemble_hessian,
    branch_csv,
    emit_problem,
    emit_report,
    parse_problem,
    problem_to_dict,
    run_analysis,
)
from hambif.cli import main as cli_main

from conftest import random_normal_form, squeezed


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


def quartic_problem(dim=2, point=(0.0, 0.0), hessian=((1.0, 0.0), (0.0, 1.0))):
    """The problem of ``quartic_spec()`` built in Python, with the given
    dimension, point and Hessian, passed on as they are."""
    spec = parse_problem(quartic_spec())
    eq = Equilibrium(point=point, hessian=hessian)
    return ProblemSpec(dim=dim, equilibria=(eq,), hamiltonian=spec.hamiltonian, options=spec.options)


# one refusal of each kind of a settings object in the file: the analysis
# field, its value, and the file's error
SETTINGS_REFUSALS = [
    ("tolerances", [], "$.analysis.tolerances: expected an object"),
    ("tolerances", {"rank_tol": 1e-10, "zero_tol": 1e-9},
     "$.analysis.tolerances: unknown tolerance fields ['zero_tol']"),
    ("tolerances", {"rank_tol": "1e-10"}, "$.analysis.tolerances.rank_tol: expected a finite number"),
    ("tolerances", {"residual_tol": 0}, "$.analysis.tolerances: all tolerances must lie strictly between 0 and 1"),
    ("continuation", 5, "$.analysis.continuation: expected an object"),
    ("continuation", {"enabled": 1, "seed": 3}, "$.analysis.continuation.enabled: expected true or false"),
    ("continuation", {"enabled": False, "seed": 3, "steps": 4},
     "$.analysis.continuation: unknown continuation fields ['seed', 'steps']"),
    ("continuation", {"max_steps": 2.5}, "$.analysis.continuation.max_steps: expected an integer"),
    ("continuation", {"growth": 0.5}, "$.analysis.continuation: growth must be at least 1"),
]


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

    # 10**12 samples would ask the dense output of the first converged orbit
    # for terabytes; the file is refused before anything is traced
    @pytest.mark.parametrize("sample_points", [100_001, 10**12])
    def test_sample_points_above_the_cap_rejected(self, sample_points):
        data = json.loads(quartic_spec())
        data["analysis"]["continuation"]["sample_points"] = sample_points
        with pytest.raises(SpecError, match="sample_points must be at most 100000") as info:
            parse_problem(json.dumps(data))
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

    @pytest.mark.parametrize("key,value,message", SETTINGS_REFUSALS)
    def test_settings_objects_are_read_by_one_rule(self, key, value, message):
        """Tolerances and continuation settings: an object of known, typed
        fields that the settings class accepts."""
        data = json.loads(quartic_spec())
        data["analysis"][key] = value
        with pytest.raises(SpecError) as info:
            parse_problem(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize("key,value,message", [
        case for case in SETTINGS_REFUSALS if isinstance(case[1], dict) and "unknown" not in case[2]])
    def test_settings_object_refuses_with_the_file_text(self, key, value, message):
        """Each refusal by a settings rule reads the same from the object
        built in Python as from the file, after the path: the file's names
        the field's JSON path, the object's its path in the object.  (Not
        an object, and unknown fields, are the file's shape alone.)"""
        settings = dict(value)
        if "enabled" in settings:
            build, settings = AnalysisOptions, {"continuation_enabled": settings["enabled"]}
        else:
            build = TolerancePolicy if key == "tolerances" else ContinuationConfig
        with pytest.raises(ValueError) as info:
            build(**settings)
        assert getattr(info.value, "message", str(info.value)) == message.split(": ", 1)[1]

    @pytest.mark.parametrize("edit, build", [
        pytest.param(lambda d: d["equilibria"][0].update(point=[0.3, 0.0]),
                     lambda: quartic_problem(point=[0.3, 0.0]), id="point-off-the-critical-point"),
        pytest.param(lambda d: d["equilibria"][0].update(hessian=[[1.0, 0.1], [0.0, 1.0]]),
                     lambda: quartic_problem(hessian=[[1.0, 0.1], [0.0, 1.0]]), id="asymmetric-hessian"),
        pytest.param(lambda d: d["equilibria"][0].update(hessian=[[1.0, math.nan], [math.nan, 1.0]]),
                     lambda: quartic_problem(hessian=[[1.0, math.nan], [math.nan, 1.0]]), id="nan-hessian"),
        pytest.param(lambda d: d["equilibria"][0].update(hessian=np.eye(4).tolist()),
                     lambda: quartic_problem(hessian=np.eye(4)), id="4x4-hessian-in-dim-2"),
        pytest.param(lambda d: d["equilibria"][0].update(hessian=[[1.0, "0"], [0.0, 1.0]]),
                     lambda: quartic_problem(hessian=[[1.0, "0"], [0.0, 1.0]]), id="string-hessian-entry"),
        pytest.param(lambda d: d["equilibria"][0].update(point=[False, 0.0]),
                     lambda: quartic_problem(point=[False, 0.0]), id="boolean-point-entry"),
        pytest.param(lambda d: d.update(dim=3), lambda: quartic_problem(dim=3), id="odd-dim"),
        pytest.param(lambda d: d["equilibria"][0].update(point=[0.0, 0.0, 0.0]),
                     lambda: quartic_problem(point=np.zeros(3)), id="point-of-length-3"),
    ])
    def test_problem_spec_refuses_what_the_file_refuses(self, edit, build):
        """A ProblemSpec built in Python is refused on construction, with the
        error the problem file gives for the same value; none reaches
        run_analysis."""
        data = json.loads(quartic_spec())
        edit(data)
        with pytest.raises(SpecError) as from_file:
            parse_problem(json.dumps(data))
        with pytest.raises(SpecError) as from_object:
            build()
        assert type(from_object.value) is type(from_file.value)
        assert str(from_object.value) == str(from_file.value)

    def test_problem_spec_keeps_its_checked_arrays_read_only(self):
        """run_analysis reads each Hessian without checking it again, so the
        checked point and Hessian cannot be changed afterwards."""
        eq = quartic_problem().equilibria[0]
        for array in (eq.point, eq.hessian):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0

    @pytest.mark.parametrize("build, file_value, key", [
        pytest.param(lambda: TolerancePolicy(rank_tol=np.float32(1e-10)), {"tolerances": {"rank_tol": "1e-10"}},
                     "tolerances", id="float32-tolerance"),
        pytest.param(lambda: AnalysisOptions(continuation_enabled="false"), {"continuation": {"enabled": "false"}},
                     "continuation", id="string-enabled"),
    ])
    def test_settings_refuse_what_the_file_refuses(self, build, file_value, key):
        """A float32 tolerance, which no report can emit as JSON, and a
        string ``continuation_enabled``, which used to trace branches, are
        refused as the file refuses a value of the wrong type."""
        data = json.loads(quartic_spec())
        data["analysis"].update(file_value)
        with pytest.raises(SpecError) as from_file:
            parse_problem(json.dumps(data))
        with pytest.raises(SpecError) as from_object:
            build()
        assert from_object.value.message == from_file.value.message
        assert from_file.value.path.startswith(f"$.analysis.{key}.")

    def test_null_settings_are_the_defaults(self):
        data = json.loads(quartic_spec())
        data["analysis"].update(tolerances=None, continuation=None)
        options = parse_problem(json.dumps(data)).options
        assert options == AnalysisOptions(lambda_max=3.0)
        data["analysis"].update(tolerances={"rank_tol": 0.5}, continuation={"enabled": False, "max_steps": 7})
        options = parse_problem(json.dumps(data)).options
        assert options.tolerances == TolerancePolicy(rank_tol=0.5)
        assert options.continuation == ContinuationConfig(max_steps=7)
        assert options.continuation_enabled is False

    @pytest.mark.parametrize("field, value", [
        ("lambda_max", -1.0), ("lambda_max", 0.0), ("lambda_max", math.nan), ("lambda_max", math.inf),
        ("lambda_max", True), ("j_max", 0), ("j_max", -3), ("j_max", 2.5), ("j_max", True),
        ("betas", (-1.0,)), ("betas", (1.0, 0.0)), ("betas", (math.nan,)), ("betas", (math.inf,)),
        ("betas", [1.0]), ("betas", "some"), ("lambda_max", np.float32(2.0)),
    ])
    def test_analysis_options_refuse_what_the_problem_file_refuses(self, field, value):
        """A value the problem file refuses is refused when the options are
        built, before run_analysis can stop on it: a float32, which no report
        can emit as JSON, too."""
        with pytest.raises(SpecError, match=rf"^\$\.{field}: expected "):
            AnalysisOptions(**{field: value})

    def test_analysis_options_round_trip_through_the_problem_file(self):
        """Accepted options are emitted as a file that parses back to them."""
        options = AnalysisOptions(lambda_max=np.float64(2.0), j_max=3, betas=(np.float64(1.0), 2))
        spec = ProblemSpec(dim=2, equilibria=(Equilibrium(np.zeros(2), np.eye(2)),), options=options)
        assert parse_problem(emit_problem(spec)).options == options

    @pytest.mark.parametrize("j_max, brouwer", [(np.int64(3), None), (None, np.int64(1)),
                                                (np.int32(2), np.int8(-1))])
    def test_numpy_integers_are_kept_as_int(self, j_max, brouwer):
        """A numpy integer j_max or Brouwer index is kept as an int, so the
        analysis, its report and the problem file read as for a Python int."""
        def spec(j_max, brouwer):
            eq = Equilibrium(np.zeros(2), np.eye(2), brouwer_index=brouwer)
            return ProblemSpec(dim=2, equilibria=(eq,), options=AnalysisOptions(j_max=j_max))

        given = spec(j_max, brouwer)
        plain = spec(None if j_max is None else int(j_max), None if brouwer is None else int(brouwer))
        assert type(given.options.j_max) is type(plain.options.j_max)
        assert type(given.equilibria[0].brouwer_index) is type(plain.equilibria[0].brouwer_index)
        assert emit_report(run_analysis(given)) == emit_report(run_analysis(plain))
        assert emit_problem(given) == emit_problem(plain)

    @pytest.mark.parametrize("value", [2.5, True, np.float64(1.0), math.nan, "1"])
    def test_equilibrium_refuses_a_brouwer_index_that_is_not_an_integer(self, value):
        """Refused when the equilibrium is built, so that neither
        run_analysis nor an emitter meets it."""
        with pytest.raises(SpecError, match=r"^\$\.brouwer_index: expected an integer$"):
            Equilibrium(np.zeros(2), np.eye(2), brouwer_index=value)

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
        pytest.param(lambda d: d.update(analysis=[]), "$.analysis", id="falsy-analysis-list"),
        pytest.param(lambda d: d.update(analysis=0), "$.analysis", id="falsy-analysis-zero"),
        pytest.param(lambda d: d.update(analysis=False), "$.analysis", id="falsy-analysis-false"),
        pytest.param(lambda d: d.update(analysis=""), "$.analysis", id="falsy-analysis-string"),
    ])
    def test_every_number_field_takes_finite_json_numbers(self, edit, path, tmp_path, capsys):
        """Number fields take finite non-boolean numbers, integer fields
        integers, terms a list and analysis an object (a falsy non-object is
        not the defaults), wherever they sit in the file."""
        data = json.loads(quartic_spec())
        edit(data)
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(data))
        assert cli_main(["analyze", "--input", str(problem)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_term_may_be_a_coefficient_exponents_pair(self):
        """The pair form of a term parses to the problem of the object form;
        a list of any other length is refused."""
        data = json.loads(quartic_spec())
        data["hamiltonian"]["terms"] = [[t["coefficient"], t["exponents"]] for t in data["hamiltonian"]["terms"]]
        objects, pairs = parse_problem(quartic_spec()), parse_problem(json.dumps(data))
        assert pairs.hamiltonian.terms == objects.hamiltonian.terms
        assert problem_to_dict(pairs) == problem_to_dict(objects)
        data["hamiltonian"]["terms"][0] = [0.5, [2, 0], 1]
        with pytest.raises(SpecError) as info:
            parse_problem(json.dumps(data))
        assert str(info.value) == "$.hamiltonian.terms[0]: term must be [coefficient, exponents]"

    def test_problem_round_trip(self):
        spec = parse_problem(quartic_spec())
        text = emit_problem(spec)
        again = parse_problem(text)
        assert emit_problem(again) == text
        assert problem_to_dict(again) == problem_to_dict(spec)


def two_frequency_quartic_spec():
    """H = (q1^2 + p1^2)/2 + q2^2 + p2^2 + q1^4/4 + q2^4/4: frequencies 1 and 2."""
    terms = [([2, 0, 0, 0], 0.5), ([0, 0, 2, 0], 0.5), ([0, 2, 0, 0], 1.0), ([0, 0, 0, 2], 1.0),
             ([4, 0, 0, 0], 0.25), ([0, 4, 0, 0], 0.25)]
    data = {
        "dim": 4,
        "equilibria": [{"point": [0.0] * 4, "hessian": np.diag([1.0, 2.0, 1.0, 2.0]).tolist()}],
        "hamiltonian": {"terms": [{"coefficient": c, "exponents": e} for e, c in terms]},
        "analysis": {"lambda_max": 2.0, "continuation": {"amplitude_target": 0.05}},
    }
    return json.dumps(data)


class TestReports:
    def test_structured_round_trip(self):
        report = run_analysis(parse_problem(oscillator_spec()))
        text = emit_report(report, "structured")
        assert json.loads(text) == report

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
        human = emit_report(report, "human")
        assert human.splitlines()[2] == "  no candidate frequencies: no purely imaginary spectrum"

    def test_human_verdict_without_the_structural_route(self, monkeypatch):
        """The blocks are refused inside the condition check: the verdict
        line reads the Morse jump alone."""
        import hambif.bifurcation as bifurcation
        from hambif.errors import DecompositionError

        def refused(M, beta, tol):
            raise DecompositionError("moment-form rank gap too small")

        monkeypatch.setattr(bifurcation, "structural_decomposition", refused)
        human = emit_report(run_analysis(parse_problem(oscillator_spec())), "human")
        assert "  beta0=1: structural route unavailable; gamma=2; brouwer=1; " \
               "routes_agree=structural unavailable; condition HOLDS" in human.splitlines()

    def test_human_report_of_an_empty_branch(self, monkeypatch):
        import hambif.continuation as continuation

        def refused(*args, **kwargs):
            raise CorrectorError("no convergence", residual=1.0)

        monkeypatch.setattr(continuation, "correct_orbit", refused)
        human = emit_report(run_analysis(parse_problem(quartic_spec())), "human")
        assert human.splitlines()[-1] == (
            "  branch at beta0=1: 0 orbits, empty, terminated by corrector_failure, "
            "small-orbit period check not verified (0 orbits below delta 0.1)")

    def test_worked_example_via_pipeline(self):
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

    @pytest.mark.parametrize("quartic, degree, provenance", [
        (False, 0, "winding"),  # H = q^3/3 + p^2/2
        # H = q^4/4 + p^2/2: |grad H| is 1e-9 = residual_tol on the winding
        # circle of radius 1e-3, so the winding route abstains
        (True, None, "user-required"),
    ])
    def test_brouwer_provenance_at_a_degenerate_planar_hessian(self, quartic, degree, provenance):
        q_term = (0.25, [4, 0]) if quartic else (1.0 / 3.0, [3, 0])
        data = {
            "dim": 2,
            "equilibria": [{"point": [0.0, 0.0], "hessian": [[0.0, 0.0], [0.0, 1.0]]}],
            "hamiltonian": {"terms": [{"coefficient": c, "exponents": e} for c, e in (q_term, (0.5, [0, 2]))]},
        }
        entry = run_analysis(parse_problem(json.dumps(data)))["equilibria"][0]
        assert entry["brouwer_index"] == degree
        assert entry["brouwer_provenance"] == provenance

    def test_user_brouwer_index_drives_the_index_and_the_verdicts(self, tmp_path):
        """A supplied brouwer_index overrides the determinant sign +1 of two
        oscillators: -1 flips every index coordinate, and 0 fails the
        condition at every frequency."""
        path = oscillators_problem(tmp_path, 1.0, 2.0)
        determinant = run_analysis(parse_problem(Path(path).read_text()))["equilibria"][0]
        assert determinant["brouwer_provenance"] == "determinant" and determinant["brouwer_index"] == 1

        def with_user_index(value):
            data = json.loads(Path(path).read_text())
            data["equilibria"][0]["brouwer_index"] = value
            return run_analysis(parse_problem(json.dumps(data)))["equilibria"][0]

        flipped = with_user_index(-1)
        assert flipped["brouwer_provenance"] == "user" and flipped["brouwer_index"] == -1
        assert [i["entries"] for i in determinant["bifurcation_indices"]] == [{"1": 2}, {"1": 2, "2": 2}]
        assert [i["entries"] for i in flipped["bifurcation_indices"]] == [{"1": -2}, {"1": -2, "2": -2}]
        assert [c["condition_holds"] for c in flipped["conditions"]] == [True, True]
        zero = with_user_index(0)
        assert zero["brouwer_provenance"] == "user"
        assert [c["condition_holds"] for c in zero["conditions"]] == [False, False]

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
        assert json.loads(out)["equilibria"][0]["conditions"][0]["condition_holds"] is True

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

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d["hamiltonian"]["terms"].append({"coefficient": 1e-9, "exponents": [10**400, 0]}),
                     "$.hamiltonian: term", id="exponent-beyond-the-float-range"),
        pytest.param(lambda d: d["hamiltonian"]["terms"][2].update(coefficient=1e308),
                     "$.hamiltonian: term (1e+308, (4, 0))", id="derivative-coefficient-overflows"),
        # at (2, 0) the gradient of x0^2000 * x1 is [nan, inf]
        pytest.param(lambda d: d.update(
            equilibria=[{"point": [2.0, 0.0], "hessian": [[1.0, 0.0], [0.0, 1.0]]}],
            hamiltonian={"terms": [{"coefficient": 1.0, "exponents": [2000, 1]}]}),
                     "$.equilibria[0].point: equilibrium 0: Hamiltonian gradient norm nan", id="nan-gradient"),
    ])
    def test_terms_outside_the_float_range_are_refused(self, edit, message, tmp_path, capsys):
        """A term whose exponent or derivative coefficients overflow the
        floats, and a point where the Hamiltonian's gradient is NaN, are spec
        errors, not tracebacks or analyses of infinities."""
        data = json.loads(quartic_spec())
        edit(data)
        problem = self.write(tmp_path, json.dumps(data))
        with np.errstate(all="ignore"):
            assert cli_main(["analyze", "--input", problem]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_refused_point_prints_no_numpy_warning(self, tmp_path, capsys):
        """The error line is all a refused overflowing point prints: the
        consistency checks evaluate the Hamiltonian under np.errstate."""
        import warnings

        data = json.loads(quartic_spec())
        data["equilibria"][0]["point"] = [2.0, 0.0]
        data["hamiltonian"]["terms"] = [{"coefficient": 1.0, "exponents": [2000, 1]}]
        problem = self.write(tmp_path, json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["analyze", "--input", problem]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.startswith("error: $.equilibria[0].point: ")

    def test_repeated_betas_name_one_frequency_once(self, tmp_path, capsys):
        """Requested betas that name one frequency give one verdict, one index
        and one branch, in first-request order, from the flag or the file."""
        path = self.write(tmp_path, two_frequency_quartic_spec())
        assert cli_main(["analyze", "--input", path, "--beta", "2.0", "--beta", "1.0",
                         "--beta", "1.0000001", "--beta", "2.0", "--beta", "1.0000005"]) == 0
        eq = json.loads(capsys.readouterr().out)["equilibria"][0]
        for key in ("conditions", "bifurcation_indices", "branches"):
            assert [round(x["beta0"], 6) for x in eq[key]] == [2.0, 1.0], key
        data = json.loads(two_frequency_quartic_spec())
        data["analysis"]["betas"] = [1.0, 1.0000001]
        path = self.write(tmp_path, json.dumps(data), "file_betas.json")
        assert cli_main(["continue", "--input", path]) == 0
        branches = json.loads(capsys.readouterr().out)["equilibria"][0]["branches"]
        assert [round(b["beta0"], 6) for b in branches] == [1.0]

    def test_period_limit_needs_an_orbit_below_delta(self, tmp_path, capsys):
        """A branch seeded at amplitude 0.2 has no orbit below delta 0.1, so
        the small-orbit period check verifies nothing."""
        path = self.write(tmp_path, quartic_spec(continuation={"seed_amplitude": 0.2, "amplitude_target": 0.3}))
        assert cli_main(["analyze", "--input", path]) == 0
        branch = json.loads(capsys.readouterr().out)["equilibria"][0]["branches"][0]
        assert branch["orbit_count"] > 0
        assert min(o["amplitude"] for o in branch["orbits"]) >= 0.1
        assert branch["period_limit"]["verified"] is False

    def test_human_period_check_counts_the_orbits_below_delta(self, tmp_path, capsys):
        """With no orbit below delta the check compared nothing: the human
        line says so, not "failed"."""
        large = self.write(tmp_path, quartic_spec(continuation={"seed_amplitude": 0.2, "amplitude_target": 0.3}))
        assert cli_main(["analyze", "--input", large, "--format", "human"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "branch at beta0=" in l)
        assert line.endswith("small-orbit period check not verified (0 orbits below delta 0.1)"), line
        small = self.write(tmp_path, quartic_spec(), "small.json")
        assert cli_main(["analyze", "--input", small]) == 0
        branch = json.loads(capsys.readouterr().out)["equilibria"][0]["branches"][0]
        below = sum(o["amplitude"] < 0.1 for o in branch["orbits"])
        assert branch["period_limit"]["verified"] is True and below > 0
        assert cli_main(["analyze", "--input", small, "--format", "human"]) == 0
        assert f"small-orbit period check passed ({below} orbits below delta 0.1)" in capsys.readouterr().out

    def test_integer_of_too_many_digits_is_a_spec_error(self, tmp_path, capsys):
        # json.loads refuses it with a ValueError that is no JSONDecodeError
        problem = self.write(tmp_path, quartic_spec().replace("[4, 0]", f"[{'9' * 5000}, 0]"))
        assert cli_main(["analyze", "--input", problem]) == 2
        assert capsys.readouterr().err.startswith("error: $: not valid JSON: ")

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

    def test_undetermined_exit_four_at_a_nilpotent_zero_block(self, tmp_path):
        # J A has +-i and a 2x2 Jordan block at 0; in dimension 4 without a
        # Hamiltonian no route gives the Brouwer index
        data = {
            "dim": 4,
            "equilibria": [{"point": [0.0] * 4, "hessian": np.diag([1.0, 0.0, 1.0, 1.0]).tolist()}],
        }
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["analyze", "--input", path]) == 4

    def test_hessian_eigenvalue_in_the_zero_band_exit_four(self, tmp_path, capsys):
        """diag(1, 1e-10): the second eigenvalue lies in the zero band of A,
        so the Brouwer index is user-required and hypothesis a0 (a trivial
        kernel) does not hold."""
        data = {"dim": 2, "equilibria": [{"point": [0.0, 0.0], "hessian": [[1.0, 0.0], [0.0, 1e-10]]}]}
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["analyze", "--input", path]) == 4
        a0 = json.loads(capsys.readouterr().out)["equilibria"][0]["classical_assumptions"]["nonresonant_pair"]
        assert a0["holds"] is False and a0["certified_betas"] == []

    def test_report_names_the_three_classical_hypotheses(self, tmp_path, capsys):
        path = self.write(tmp_path, quartic_spec())
        assert cli_main(["analyze", "--input", path]) == 0
        hypotheses = json.loads(capsys.readouterr().out)["equilibria"][0]["classical_assumptions"]
        assert sorted(hypotheses) == ["nonresonant_pair", "positive_definite", "signature_resonant"]
        assert all(isinstance(h["holds"], bool) for h in hypotheses.values())

    def test_index_at_a_huge_j_max_within_20_seconds(self, tmp_path):
        """The index work grows with the number of frequencies, not with j_max."""
        path = self.write(tmp_path, quartic_spec())
        start = time.perf_counter()
        assert cli_main(["index", "--input", path, "--j-max", "100000000"]) == 0
        assert time.perf_counter() - start < 20.0

    def test_nonsemisimple_blocks_and_index(self, tmp_path, capsys):
        """Blocks (3,-1) at beta 1 and (1,+1) at beta 1.5 each jump gamma by -2."""
        A = assemble_hessian(NormalForm((BlockSpec(1.0, 3, -1), BlockSpec(1.5, 1, +1))))
        path = self.write(tmp_path, json.dumps({"dim": A.shape[0], "equilibria": [
            {"point": [0.0] * A.shape[0], "hessian": A.tolist()}]}))
        assert cli_main(["normal-form", "--input", path]) == 0
        conditions = json.loads(capsys.readouterr().out)["equilibria"][0]["conditions"]
        assert [c["blocks"] for c in conditions] == [[[1, 1]], [[3, -1]]]
        assert cli_main(["index", "--input", path]) == 0
        conditions = json.loads(capsys.readouterr().out)["equilibria"][0]["conditions"]
        assert [(c["gamma"], c["condition_holds"]) for c in conditions] == [(-2, True), (-2, True)]

    def test_problem_above_the_generated_kernel_cap_reaches_its_amplitude_target(self, tmp_path, capsys):
        """A seeded full quadratic in dimension 8 plus x_i^4/4 terms has 144
        jet triplets, so its field runs on the numpy table path."""
        B = np.random.default_rng(8).uniform(-0.5, 0.5, (8, 8))
        quartic = tuple((0.25, tuple(4 * (k == i) for k in range(8))) for i in range(8))
        H = PolynomialHamiltonian(8, PolynomialHamiltonian.from_quadratic(B @ B.T + 0.5 * np.eye(8)).terms + quartic)
        assert H._jet_rows.size == 144 and H._kernel is None
        eq = Equilibrium(point=np.zeros(8), hessian=H.hessian(np.zeros(8)))
        options = AnalysisOptions(continuation=ContinuationConfig(amplitude_target=0.05))
        path = self.write(tmp_path, emit_problem(ProblemSpec(dim=8, equilibria=(eq,), hamiltonian=H, options=options)))
        assert cli_main(["analyze", "--input", path]) == 0
        branches = json.loads(capsys.readouterr().out)["equilibria"][0]["branches"]
        assert branches and all(b["orbit_count"] > 0 and b["termination"] == "amplitude_target" for b in branches)

    def test_high_power_term_analyzes_within_60_seconds(self, tmp_path, capsys):
        """1e-9*x0^100000 has 99999 power steps, which keep it off the
        generated kernel; it vanishes near the origin and the branch is traced."""
        data = json.loads(quartic_spec())
        data["hamiltonian"]["terms"].append({"coefficient": 1e-9, "exponents": [100000, 0]})
        path = self.write(tmp_path, json.dumps(data))
        assert parse_problem(json.dumps(data)).hamiltonian._kernel is None
        start = time.perf_counter()
        assert cli_main(["analyze", "--input", path]) == 0
        assert time.perf_counter() - start < 60.0
        branches = json.loads(capsys.readouterr().out)["equilibria"][0]["branches"]
        assert branches and branches[0]["orbit_count"] > 0

    def test_numerical_failure_exit_three(self, tmp_path):
        data = json.loads(oscillator_spec())
        data["analysis"]["betas"] = [7.0]  # not in the spectrum
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["analyze", "--input", path]) == 3

    def test_routes_that_disagree_abstain_exit_three(self, tmp_path, capsys):
        """At s = 0 of the squeezed family at t = 4 the Morse jump reads -2 at
        the (2,+1) frequency 1.6919, where the blocks give kappa = 0 (the
        construction gives gamma = 0): the verdict abstains as one error
        naming both routes, with no condition or index entry there."""
        A = squeezed(random_normal_form(np.random.default_rng(0)), 0, 4.0)
        spec = ProblemSpec(dim=A.shape[0], equilibria=(Equilibrium(np.zeros(A.shape[0]), A),))
        path = self.write(tmp_path, emit_problem(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            assert cli_main(["analyze", "--input", path]) == 3
        eq = json.loads(capsys.readouterr().out)["equilibria"][0]
        assert [ev["beta"] for ev in eq["imaginary_spectrum"]] == [pytest.approx(1.6919, abs=1e-4)]
        [error] = eq["errors"]
        assert error.startswith("condition check at beta=1.69194 failed: the routes disagree")
        assert "Morse jump gamma=-2" in error and "block counts kappa=0" in error
        assert eq["conditions"] == eq["bifurcation_indices"] == []
        assert eq["nonresonance"]["lower_bound"] == 0

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

    def test_continue_csv_directory_has_one_file_per_branch(self, tmp_path):
        path = self.write(tmp_path, two_frequency_quartic_spec())
        out = tmp_path / "branches"
        assert cli_main(["continue", "--input", path, "--format", "csv", "--output", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["branch_eq0_beta1.csv", "branch_eq0_beta2.csv"]
        for f in out.iterdir():
            assert f.read_text().startswith("index,lambda,amplitude")

    def test_continue_csv_names_frequencies_equal_to_six_digits_apart(self, tmp_path, capsys):
        """Frequencies 1 and 1.000004 print alike at 6 significant digits:
        the names take the digits they need, and no branch overwrites another."""
        data = json.loads(two_frequency_quartic_spec())
        beta = 1.000004
        for term in data["hamiltonian"]["terms"]:
            if term["exponents"] in ([0, 2, 0, 0], [0, 0, 0, 2]):
                term["coefficient"] = beta / 2
        data["equilibria"][0]["hessian"] = np.diag([1.0, beta, 1.0, beta]).tolist()
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["continue", "--input", path]) == 0
        branches = json.loads(capsys.readouterr().out)["equilibria"][0]["branches"]
        assert [round(b["beta0"], 9) for b in branches] == [beta, 1.0]
        out = tmp_path / "branches"
        assert cli_main(["continue", "--input", path, "--format", "csv", "--output", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["branch_eq0_beta1.000004.csv", "branch_eq0_beta1.csv"]
        assert (out / "branch_eq0_beta1.000004.csv").read_text() == branch_csv(branches[0])
        assert (out / "branch_eq0_beta1.csv").read_text() == branch_csv(branches[1])

    @pytest.mark.parametrize("form", ["trailing separator", "existing directory"])
    def test_continue_csv_directory_holds_a_single_branch(self, tmp_path, form):
        """An --output that ends in a separator or names a directory is a
        directory, also when there is only one branch."""
        path = self.write(tmp_path, quartic_spec())
        out = tmp_path / "branches"
        if form == "existing directory":
            out.mkdir()
        output = str(out) + "/" if form == "trailing separator" else str(out)
        assert cli_main(["continue", "--input", path, "--format", "csv", "--output", output]) == 0
        assert out.is_dir()
        assert [f.name for f in out.iterdir()] == ["branch_eq0_beta1.csv"]
        assert (out / "branch_eq0_beta1.csv").read_text().startswith("index,lambda,amplitude")

    def test_lambda_max_above_the_level_ceiling_is_a_numerical_failure(self, tmp_path, capsys):
        """lambda_max 1e9 asks for 1e9 levels: refused within a second, as an
        error of the equilibrium (exit 3), not a traceback or a 10 GB report."""
        path = self.write(tmp_path, quartic_spec(lambda_max=1e9))
        start = time.perf_counter()
        assert cli_main(["index", "--input", path]) == 3
        assert time.perf_counter() - start < 1.0
        eq = json.loads(capsys.readouterr().out)["equilibria"][0]
        assert "lambda_set" not in eq
        assert eq["errors"] == ["candidate levels unavailable: lambda_max 1e+09 asks for "
                                "more than 100000 candidate levels"]
        assert eq["conditions"][0]["condition_holds"] is True

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        """A report file or csv directory that cannot be written is refused, not a traceback."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = self.write(tmp_path, two_frequency_quartic_spec())
        for output, extra in ((tmp_path / "missing" / "r.json", []),
                              (blocker / "branches", ["--format", "csv"])):
            assert cli_main(["continue", "--input", path, "--output", str(output), *extra]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {output}: ")

    def test_normal_form_subcommand(self, tmp_path, capsys):
        path = self.write(tmp_path, oscillator_spec())
        assert cli_main(["normal-form", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        cond = report["equilibria"][0]["conditions"][0]
        assert cond["blocks"] == [[1, -1]]

    def test_normal_form_human_lists_the_blocks(self, tmp_path, capsys):
        """The normal-form stage alone gives blocks and no verdict; the human
        report prints one line of blocks per frequency."""
        A = assemble_hessian(NormalForm((BlockSpec(1.0, 3, 1), BlockSpec(1.0, 1, -1), BlockSpec(2.0, 2, 1))))
        path = self.write(tmp_path, json.dumps({"dim": A.shape[0], "equilibria": [
            {"point": [0.0] * A.shape[0], "hessian": A.tolist()}]}))
        assert cli_main(["normal-form", "--input", path, "--format", "human"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "  frequency beta=2: mult 2/1, partition [2], strictly_nonsemisimple",
            "  frequency beta=1: mult 4/2, partition [3, 1], partially_semisimple",
            "  beta0=2: blocks (half_dim, epsilon) (2, +1)",
            "  beta0=1: blocks (half_dim, epsilon) (3, +1), (1, -1)",
        ]

    def test_beta_and_overrides(self, tmp_path, capsys):
        path = self.write(tmp_path, oscillator_spec())
        assert cli_main(["index", "--input", path, "--beta", "1.0", "--lambda-max", "2.0",
                         "--j-max", "3", "--tol-scale", "2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "seed" not in report
        assert report["analysis"]["lambda_max"] == 2.0
        assert report["tolerances"]["rank_tol"] == 2e-10

    @pytest.mark.parametrize("flags, checks", [([], 1), (["--lambda-max", "2.0"], 2)])
    def test_each_problem_is_checked_once_without_flags(self, tmp_path, monkeypatch, flags, checks):
        """Without a flag the parsed spec is analysed as it is: one symmetry
        check (one matrix norm) per equilibrium; a flag rebuilds the spec,
        which checks it again."""
        import hambif.problem as problem

        calls = []
        asymmetry = problem._asymmetry

        def counting(A, tol):
            calls.append(A.shape)
            return asymmetry(A, tol)

        monkeypatch.setattr(problem, "_asymmetry", counting)
        path = oscillators_problem(tmp_path, 1.0, 2.0)
        data = json.loads(Path(path).read_text())
        data["equilibria"] *= 2
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["index", "--input", path, *flags]) == 0
        assert len(calls) == 2 * checks

    def test_tol_scale_rechecks_the_equilibria(self, tmp_path, capsys):
        """The quartic's gradient 5e-10 at (5e-10, 0) is within residual_tol
        (1e-9 times 1 + |A| = 2); a --tol-scale of 0.1 refuses it, a usage
        error naming the point."""
        data = json.loads(quartic_spec())
        data["equilibria"][0]["point"] = [5e-10, 0.0]
        path = self.write(tmp_path, json.dumps(data))
        assert cli_main(["index", "--input", path]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            cli_main(["index", "--input", path, "--tol-scale", "0.1"])
        assert info.value.code == 2
        assert "error: $.equilibria[0].point: equilibrium 0: Hamiltonian gradient norm 5.000e-10 does not vanish" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol-scale", "0", "$.analysis.tolerances: all tolerances must lie strictly between 0 and 1"),
        ("--tol-scale", "nan", "$.analysis.tolerances.rank_tol: expected a finite number"),
        ("--tol-scale", "inf", "$.analysis.tolerances.rank_tol: expected a finite number"),
        ("--lambda-max", "-1", "$.analysis.lambda_max: expected a positive number"),
        ("--lambda-max", "nan", "$.analysis.lambda_max: expected a finite number"),
        ("--lambda-max", "inf", "$.analysis.lambda_max: expected a finite number"),
        ("--j-max", "0", "$.analysis.j_max: expected a positive integer"),
        ("--beta", "-1", '$.analysis.betas: expected "all" or a list of positive finite numbers'),
        ("--beta", "0", '$.analysis.betas: expected "all" or a list of positive finite numbers'),
    ])
    def test_overrides_obey_the_problem_file_rules(self, tmp_path, capsys, flag, value, message):
        """A value the problem file refuses is a usage error on the command
        line too, named by the file's path of the field the flag sets."""
        path = self.write(tmp_path, quartic_spec())
        with pytest.raises(SystemExit) as info:
            cli_main(["index", "--input", path, flag, value])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("tolerances, scale, refused", [
        (None, "1e-7", False), (None, "1e-300", False), ({"rank_tol": 1e-17}, None, False),
        (None, "1e9", True), (None, "1e-320", True),
    ])
    def test_tolerance_extremes_decide_or_refuse(self, tmp_path, capsys, tolerances, scale, refused):
        """A rank cutoff below rounding still finds the quartic's +-i, with a
        margin warning; a --tol-scale that lifts a tolerance to 1 or underflows
        one to 0 is a usage error."""
        text = quartic_spec(**({"tolerances": tolerances} if tolerances else {}))
        args = ["index", "--input", self.write(tmp_path, text)] + (["--tol-scale", scale] if scale else [])
        if refused:
            with pytest.raises(SystemExit) as info:
                cli_main(args)
            assert info.value.code == 2
            return
        with pytest.warns(ConditioningWarning, match="within factor 5.06 of the cutoff"):
            assert cli_main(args) == 0
        eq = json.loads(capsys.readouterr().out)["equilibria"][0]
        assert [c["condition_holds"] for c in eq["conditions"]] == [True]

    def test_tolerance_of_one_is_a_spec_error(self, tmp_path, capsys):
        path = self.write(tmp_path, quartic_spec(tolerances={"eig_zero_tol": 1.0}))
        assert cli_main(["index", "--input", path]) == 2
        assert capsys.readouterr().err.startswith("error: $.analysis.tolerances: ")

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


    def test_flags_may_come_before_the_command(self, tmp_path, capsys):
        path = self.write(tmp_path, quartic_spec())
        assert cli_main(["analyze", "--input", path]) == 0
        after = capsys.readouterr().out
        assert cli_main(["--input", path, "analyze"]) == 0
        assert capsys.readouterr().out == after

    def test_command_help_lists_every_command_and_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["analyze", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in ("analyze", "normal-form", "index", "continue"))
        flags = ("--input", "--output", "--format", "--lambda-max", "--j-max", "--beta", "--tol-scale")
        assert all(flag in out for flag in flags)

    def test_no_command_exits_two(self, tmp_path, capsys):
        """The input path is not taken for a command."""
        path = self.write(tmp_path, quartic_spec())
        with pytest.raises(SystemExit) as info:
            cli_main(["--input", path])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith("hambif: error: the following arguments are required: command\n")


def oscillators_problem(tmp_path, *betas):
    """Problem file for one equilibrium with simple frequencies at the given betas."""
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
        frequency's blocks; the equilibrium's Linearization answers the
        second request, so the decomposition itself runs once."""
        import hambif.bifurcation as bifurcation
        import hambif.normal_forms as normal_forms

        decompositions, jumps = [], []
        decompose, morse_jump = normal_forms._decompose, bifurcation._morse_jump

        def counting_decomposition(lin, beta):
            decompositions.append(round(beta, 9))
            return decompose(lin, beta)

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
            eq = json.loads(capsys.readouterr().out)["equilibria"][0]
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
        eq = json.loads(capsys.readouterr().out)["equilibria"][0]
        assert [c["beta0"] for c in eq["conditions"]] == [1.0]
        assert [[round(b, 9), flag] for b, flag in eq["nonresonance"]["flags"]] == [[2.0, True], [1.0, False]]
        assert eq["nonresonance"]["lower_bound"] == 1


class TestTypedAbstentions:
    """The pipeline turns only the typed abstentions into report errors."""

    def test_decomposition_above_the_cap_is_an_abstention(self, tmp_path, capsys):
        path = oscillators_problem(tmp_path, *(1.0 + k / 32 for k in range(33)))
        assert cli_main(["analyze", "--input", path, "--beta", "1"]) == 3
        eq = json.loads(capsys.readouterr().out)["equilibria"][0]
        assert eq["errors"] == ["decomposition at beta=1 unavailable: decomposition supported up to dimension 64"]

    def test_value_error_from_the_decomposition_escapes(self, tmp_path, monkeypatch):
        import hambif.analysis as analysis

        def broken(M, beta, tol):
            raise ValueError("a bug, not an abstention")

        monkeypatch.setattr(analysis, "structural_decomposition", broken)
        path = oscillators_problem(tmp_path, 1.0)
        with pytest.raises(ValueError, match="a bug"):
            run_analysis(parse_problem(Path(path).read_text()))
