import json
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import teamlogic
from teamlogic import nogo
from teamlogic.cli import CONSTRUCT_TARGETS, main
from teamlogic.constructions import construct_single_valued
from teamlogic.datasets import load_bundled
from teamlogic.jsonio import dump_json, load_model, model_to_dict
from teamlogic.models import from_team
from teamlogic.sampling import random_empirical_model, random_local_witness
from teamlogic.teams import Team


def _alternating(c: int) -> str:
    """A classical formula whose ``&`` and ``|`` chains alternate 199 deep."""
    s = "x = y"
    for k in range(199):
        s = f"x = {c} {'&' if k % 2 else '|'} ({s})"
    return s


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "teamlogic.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestEval:
    def test_sig_nosig_false(self):
        code, out, _ = run_cli("check", "--model", "builtin:sig", "--property", "no-sig")
        assert code == 0 and "false" in out

    def test_empty_team_dep_true(self, tmp_path):
        team = tmp_path / "empty.json"
        team.write_text('{"domain": ["x", "y"], "rows": []}')
        code, out, _ = run_cli("eval", "--team", str(team), "--formula", "dep(x, y)")
        assert code == 0 and "true" in out

    def test_prob_eval(self):
        code, out, _ = run_cli(
            "eval", "--team", "builtin:pt1", "--formula", "z _||_{x y} w", "--prob")
        assert code == 0 and "false" in out

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli("eval", "--team", str(bad), "--formula", "dep(x, y)")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("depth", [600, 1_000])
    def test_deeply_nested_value_is_input_error(self, tmp_path, depth):
        # at 1,000 levels the JSON decoder recurses too deeply, at 600 the
        # value decoder; neither may end in a traceback
        team = tmp_path / "deep.json"
        value = "[" * depth + "0" + "]" * depth
        team.write_text(f'{{"domain": ["x"], "rows": [[{value}]]}}')
        code, _, err = run_cli("eval", "--team", str(team), "--formula", "dep(,x)")
        assert code == 2 and err.startswith("error[invalid-input]") and "Traceback" not in err

    def test_parse_error_is_input_error(self):
        code, _, err = run_cli("eval", "--team", "builtin:rt2", "--formula", "dep(")
        assert code == 2

    def test_deep_parentheses_are_a_parse_error(self, tmp_path):
        team = tmp_path / "t.json"
        team.write_text('{"domain": ["x", "y"], "rows": [[0, 0]]}')
        formula = "(" * 400 + "x = y" + ")" * 400
        code, _, err = run_cli("eval", "--team", str(team), "--formula", formula)
        assert code == 2 and err.startswith("error[parse-error]") and "Traceback" not in err

    @pytest.mark.parametrize("text, verdict", [
        (" & ".join(["dep(x, x)"] * 600), "true"),
        (" & ".join(["dep(x, x)"] * 5_000), "true"),
        (" | ".join(["x = y"] * 600), "false"),
        (" | ".join(["x = y"] * 5_000), "false"),
        (" | ".join(["dep(x, y)"] * 600), "true"),
        (" | ".join(["dep(x, y)"] * 5_000), "true"),
        ("E y . " * 90 + "dep(x, y)", "true"),
        ("E y . " * 199 + "dep(x, y)", "true"),
        ("A y . E y . " * 80 + "dep(x, y)", "true"),
        ("A y . E y . " * 100 + "dep(x, y)", "true"),
        ("E y . A z . " * 100 + "dep(x, y)", "true"),
        ("E y . dep(x, y) & A z . " * 100 + "dep(x, y)", "true"),
        (_alternating(0), "true"),
        (_alternating(1), "false"),
    ], ids=[
        "and-600", "and-5000", "flat-or-600", "flat-or-5000", "split-or-600", "split-or-5000",
        "exists-90", "exists-199", "forall-exists-80", "forall-exists-100", "exists-forall-100",
        "exists-dep-forall-100",
        "alternating-199-true", "alternating-199-false",
    ])
    def test_long_chains_and_rebinding_nests_decide(self, tmp_path, text, verdict):
        # a chain is one node and Q y . R y is R y, so none of these
        # recurses once per connective or same-variable quantifier; E y .
        # A z, nested as deep as the parser takes, recurses within the
        # default limit; a classical formula nested 199 chains deep
        # compiles to one row predicate whose source stays within the
        # Python parser's nesting
        team = tmp_path / "t.json"
        team.write_text('{"domain": ["x", "y"], "rows": [[0, 1]]}')
        code, out, err = run_cli("eval", "--team", str(team), "--formula", text)
        assert (code, out, err) == (0, f"relational verdict: {verdict}\n", "")

    @pytest.mark.parametrize("count", [400, 1_000])
    def test_searching_split_chains_decide(self, tmp_path, count):
        # no disjunct holds on a row (x = 5 fails), so the split searches
        # every level of the chain down to the last disjunct, which fails
        # on the whole team
        team = tmp_path / "t.json"
        team.write_text('{"domain": ["x", "y"], "rows": [[0, 1], [1, 0]]}')
        text = " | ".join(["dep(, x) & x = 5"] * count + ["dep(, x)"])
        code, out, err = run_cli("eval", "--team", str(team), "--formula", text)
        assert (code, out, err) == (0, "relational verdict: false\n", "")

    @pytest.mark.parametrize("payload", [
        {"domain": ["x"], "rows": [[1]], "weights": ["1/0"]},
        {"domain": ["x"], "rows": [[1]], "weights": ["abc"]},
        {"domain": ["x"], "rows": [["frac:1/0"]]},
        {"domain": ["x"], "rows": 5},
        {"domain": ["x"], "rows": [[1]], "universe": 5},
        {"domain": "xy", "rows": []},
        {"domain": ["x", "y"], "rows": ["ab"]},
        {"domain": ["x"], "rows": [[1]], "weights": [1.0]},
        {"domain": ["x"], "rows": [[1]], "weights": [True]},
    ])
    def test_malformed_team_fields_are_input_errors(self, tmp_path, capsys, payload):
        team = tmp_path / "t.json"
        team.write_text(json.dumps(payload))
        code = main(["eval", "--team", str(team), "--formula", "dep(,x)"])
        assert code == 2 and "error[invalid-input]" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, weights, row", [
        ([[0], [0]], ["1/3", "1"], "(0,)"),
        ([[0], [0], [1]], ["1/2", "1/4", "1/4"], "(0,)"),
    ])
    def test_repeated_weighted_row_is_input_error(self, tmp_path, capsys, rows, weights, row):
        # the first file would otherwise decide with weight 1 on its one
        # row, and the second fail with weights summing to 1/2
        team = tmp_path / "t.json"
        team.write_text(json.dumps({"domain": ["x"], "rows": rows, "weights": weights}))
        code = main(["eval", "--team", str(team), "--formula", "dep(,x)", "--prob"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error[invalid-input]: duplicate weight entry for row {row}")

    def test_repeated_relational_row_is_one_row(self, tmp_path, capsys):
        team = tmp_path / "t.json"
        team.write_text(json.dumps({"domain": ["x"], "rows": [[0], [0], [1]]}))
        assert main(["eval", "--team", str(team), "--formula", "dep(,x)"]) == 0
        assert "false" in capsys.readouterr().out

    def test_budget_error_exit_code(self, tmp_path):
        team = tmp_path / "t.json"
        team.write_text(json.dumps({
            "domain": ["x"],
            "rows": [[i] for i in range(8)],
        }))
        code, _, err = run_cli(
            "eval", "--team", str(team),
            "--formula", "A a . A b . A c . dep(a b c, x)",
            "--budget", "50")
        assert code == 3 and "budget" in err.lower()

    @pytest.mark.parametrize("argv, code", [
        (["eval", "--formula", "dep(m1, o1) & o1 _||_ m2"], 0),
        (["check", "--property", "no-sig"], 0),
        # 132 * 132 candidates, within the default budget
        (["eval", "--formula", "E z . dep(m1, z)"], 0),
    ])
    def test_universe_cap_bounds_only_quantifiers(self, tmp_path, capsys, argv, code):
        # 132 values (over 128): no budget cap bounds the universe
        rows = [[f"a{j}", f"b{j}", "x", "y"] for j in range(65)]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"kind": "empirical", "domain": ["m1", "m2", "o1", "o2"], "rows": rows}))
        flag = "--team" if argv[0] == "eval" else "--model"
        assert main([*argv, flag, str(model)]) == code
        assert ("error[budget-error]" in capsys.readouterr().err) == (code == 3)


class TestNogo:
    def test_hardy_verdict(self):
        code, out, _ = run_cli("nogo", "hardy")
        assert code == 0
        assert "StrongDet & lambda-indep model exists: False" in out

    def test_exists_on_ex22(self):
        code, out, _ = run_cli(
            "nogo", "exists", "--model", "builtin:ex22", "--target", "strong-det+lambda")
        assert code == 0 and "exists with 2 hidden values" in out

    def test_exists_over_section_budget_exits_3(self, tmp_path, capsys):
        rows = [[f"a{j}", f"b{j}", f"x{t}", f"y{t}"] for j in range(12) for t in range(4)]
        model = tmp_path / "wide.json"
        model.write_text(json.dumps(
            {"kind": "empirical", "domain": ["m1", "m2", "o1", "o2"], "rows": rows}))
        code = main(["nogo", "exists", "--model", str(model), "--target", "strong-det+lambda"])
        assert code == 3 and "error[budget-error]" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, verdict", [
        # o1 reads m2, so the model signals and has no such explanation,
        # whatever the size of its section space
        ([[f"a{j}", f"b{k}", f"x{(j + k) % 4}", f"y{t}"]
          for j in range(12) for k in range(12) for t in range(4)],
         "no strong-det+lambda model exists"),
        # 132 values and one candidate section: the quantifier-free NoSigE
        # check takes no cap on the value universe
        ([[f"a{j}", f"b{j}", "x", "y"] for j in range(65)],
         "strong-det+lambda model exists with 1 hidden values"),
    ], ids=["signalling-past-section-budget", "past-universe-cap"])
    def test_exists_is_decided(self, tmp_path, capsys, rows, verdict):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"kind": "empirical", "domain": ["m1", "m2", "o1", "o2"], "rows": rows}))
        code = main(["nogo", "exists", "--model", str(model), "--target", "strong-det+lambda"])
        assert code == 0 and verdict in capsys.readouterr().out

    def test_exists_budget_caps_the_section_space(self, capsys):
        # ex22's section space is 8
        argv = ["nogo", "exists", "--model", "builtin:ex22", "--target", "strong-det+lambda"]
        assert main([*argv, "--budget", "8"]) == 0
        assert main([*argv, "--budget", "4"]) == 3
        assert "error[budget-error]: section space exceeds 4;" in capsys.readouterr().err

    def test_ks_budget_bounds_the_transversal_search(self, padded_cabello, tmp_path, capsys):
        config = tmp_path / "ks.json"
        config.write_text(json.dumps(asdict(padded_cabello)))
        assert main(["nogo", "ks", "--config", str(config)]) == 0
        assert "configuration valid: True" in capsys.readouterr().out
        assert main(["nogo", "ks", "--config", str(config), "--budget", "1000"]) == 3
        assert "error[budget-error]: search exceeded budget of 1000 states" in capsys.readouterr().err

    def test_ks_json(self):
        code, out, _ = run_cli("nogo", "ks", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and not payload["colorable"]


    @pytest.mark.parametrize("slot, index", [(0, 0.4), (0, "0"), (1, True)])
    def test_ks_non_integer_basis_index_is_input_error(self, tmp_path, capsys, slot, index):
        # cabello18's first basis is [0, 1, 2, 3]: each replacement would
        # truncate to the index it replaces and pass validation
        payload = json.loads(
            (Path(teamlogic.__file__).parent / "data" / "cabello18.json").read_text())
        payload["bases"][0][slot] = index
        config = tmp_path / "ks.json"
        config.write_text(json.dumps(payload))
        code = main(["nogo", "ks", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2 and "error[invalid-input]" in captured.err
        assert "configuration valid" not in captured.out

    @pytest.mark.parametrize("basis, problem", [
        ([0, 1, 2], "basis 0 has 3 vectors, not 4"),
        ([0, 1, 2, 3, 0], "basis 0 has 5 vectors, not 4"),
        ([0, 1, 2, 2], "basis 0 repeats a vector"),
    ])
    def test_ks_basis_size_is_reported_before_repeats(self, tmp_path, capsys, basis, problem):
        payload = {"vectors": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                   "bases": [basis]}
        config = tmp_path / "ks.json"
        config.write_text(json.dumps(payload))
        code = main(["nogo", "ks", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2 and "error[invalid-input]" in captured.err
        assert problem in captured.err
        assert ("repeats" in captured.err) == ("repeats" in problem)

    def test_ks_double_cover_counts_each_basis_once(self, tmp_path, capsys):
        # the basis repeats vectors 0 and 1, which still lie in one basis only
        payload = {"vectors": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                   "bases": [[0, 1, 2, 1, 0]]}
        config = tmp_path / "ks.json"
        config.write_text(json.dumps(payload))
        code = main(["nogo", "ks", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 2 and "error[invalid-input]" in err
        for idx in range(3):
            assert f"vector {idx} occurs in 1 bases, expected exactly 2" in err

    def test_ks_zero_denominator_coordinate_is_input_error(self, tmp_path, capsys):
        payload = json.loads(
            (Path(teamlogic.__file__).parent / "data" / "cabello18.json").read_text())
        payload["vectors"][0][0] = "1/0"
        config = tmp_path / "ks.json"
        config.write_text(json.dumps(payload))
        code = main(["nogo", "ks", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2 and "error[invalid-input]" in captured.err
        assert "configuration valid" not in captured.out


class TestConstruct:
    def test_construct_roundtrip(self, tmp_path):
        out_file = tmp_path / "hv.json"
        code, out, _ = run_cli(
            "construct", "--model", "builtin:ex22",
            "--target", "weakdet-lambda-indep", "--out", str(out_file))
        assert code == 0
        model = load_model(out_file)
        from teamlogic.properties import PropertyName, check_property

        assert check_property(model, PropertyName.WEAK_DET_H)
        assert check_property(model, PropertyName.LAMBDA_INDEP_H)

    def test_localize_budget_caps_the_section_space(self, tmp_path, capsys):
        # the single-valued 3x3x3x3 grid: a section space of 3**3 * 3**3
        grid = Team(
            ("m1", "m2", "o1", "o2"),
            [(a, b, x, y) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")
             for x in (0, 1, 2) for y in (0, 1, 2)],
        )
        model = tmp_path / "grid.json"
        model.write_text(dump_json(model_to_dict(construct_single_valued(from_team(grid, "empirical")))))
        argv = ["construct", "--model", str(model), "--target", "localize", "--out", str(tmp_path / "z.json")]
        assert main([*argv, "--budget", "729"]) == 0
        assert main([*argv, "--budget", "100"]) == 3
        assert "error[budget-error]: section space exceeds 100;" in capsys.readouterr().err

    def test_lcm_model_past_128_values_decides_non_context(self, tmp_path, capsys):
        # the LCM construction gives this one-context model 504 hidden
        # values; NonContextE reads its candidates from m v <= m o
        empirical = tmp_path / "m.json"
        empirical.write_text(json.dumps({
            "kind": "empirical", "arity": 1, "domain": ["m1", "o1"],
            "rows": [["a", "x1"], ["a", "x2"], ["a", "x3"], ["a", "x4"]],
            "weights": ["1/7", "1/8", "1/9", "313/504"],
        }))
        hidden = tmp_path / "hv.json"
        assert main(["construct", "--model", str(empirical), "--target", "weakdet-lambda-indep",
                     "--out", str(hidden)]) == 0
        assert "with 504 hidden values" in capsys.readouterr().out
        assert main(["check", "--property", "non-context", "--model", str(hidden)]) == 0
        assert capsys.readouterr().out == "NonContextE: true\n"

    def test_localize_requires_hidden(self):
        code, _, err = run_cli(
            "construct", "--model", "builtin:ex22", "--target", "localize", "--out", "-")
        assert code == 2

    def test_localize_precondition_failure(self):
        code, _, err = run_cli(
            "construct", "--model", "builtin:loc6", "--target", "localize", "--out", "-")
        assert code == 2 and "Locality" in err

    def test_check_decides_noncontext_of_a_weighted_model_on_its_support(self, tmp_path, capsys):
        # NonContextE has no _||_, so a probabilistic model satisfies it
        # exactly when its support does
        model = tmp_path / "weighted.json"
        rows = [[a, b, 0, 0] for a in "ab" for b in "ab"]
        model.write_text(json.dumps({"kind": "empirical", "arity": 2, "domain": ["m1", "m2", "o1", "o2"],
                                     "rows": rows, "weights": ["1/2", "1/6", "1/6", "1/6"]}))
        code = main(["check", "--model", str(model), "--property", "non-context"])
        assert (code, *capsys.readouterr()) == (0, "NonContextE: true\n", "")

    def test_lcm_construction_rejects_probabilistic_hidden_model(self, tmp_path, capsys):
        model = tmp_path / "hv.json"
        witness = random_local_witness(random.Random(3), probabilistic=True)
        model.write_text(dump_json(model_to_dict(witness)))
        code = main(["construct", "--model", str(model), "--target", "weakdet-lambda-indep", "--out", "-"])
        assert code == 2 and "error[invalid-input]" in capsys.readouterr().err


#: Generated model files for the exit-code sweep, by name.
GENERATED_MODELS = {
    "prob-empirical": lambda: random_empirical_model(random.Random(5), probabilistic=True),
    "prob-hidden": lambda: random_local_witness(random.Random(3), probabilistic=True),
    "rel-local-witness": lambda: random_local_witness(random.Random(7)),
}
SWEEP_MODELS = [f"builtin:{name}" for name in ("ex22", "sig", "hardy", "siglambda", "loc6")] + [
    f"file:{name}" for name in GENERATED_MODELS
]


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("models")
    files = {}
    for name, make in GENERATED_MODELS.items():
        files[name] = folder / f"{name}.json"
        files[name].write_text(dump_json(model_to_dict(make())))
    return files


@pytest.mark.parametrize("target", CONSTRUCT_TARGETS)
@pytest.mark.parametrize("spec", SWEEP_MODELS)
def test_construct_exits_0_or_2(spec, target, model_files, capsys):
    # every construction either succeeds or reports an input error: no
    # model and target pair ends in a traceback
    if spec.startswith("file:"):
        spec = str(model_files[spec[len("file:"):]])
    code = main(["construct", "--model", spec, "--target", target, "--out", "-"])
    err = capsys.readouterr().err
    assert code == 0 and not err or code == 2 and err.startswith("error[")


#: The CLI's own input refusals, each with the message it prints; a
#: name in ``GENERATED_MODELS`` stands for that generated model file.
CLI_REFUSALS = [
    (["check", "--model", "builtin:pt1", "--property", "weak-det"],
     "model JSON needs kind empirical|hidden, got None"),
    (["eval", "--team", "builtin:rt2", "--formula", "dep(x, y)", "--prob"],
     "--prob needs a team with weights"),
    (["construct", "--model", "builtin:ex22", "--target", "localize", "--out", "-"],
     "localize needs a hidden-variable model as input"),
    (["nogo", "exists", "--model", "builtin:loc6", "--target", "strong-det+lambda"],
     "nogo exists needs an empirical model"),
    (["nogo", "exists", "--model", "prob-empirical", "--target", "strong-det+lambda"],
     "decision runs relationally"),
    (["eval", "--team", "builtin:cabello18", "--formula", "dep(m1,o1)"],
     "team JSON is missing field 'domain'"),
    (["construct", "--model", "builtin:ex22", "--target", "strong-det", "--out", "-", "--json"],
     "--out - and --json both write to stdout"),
    (["nogo", "exists", "--model", "builtin:ex22", "--target", "strong-det+lambda", "--out", "-", "--json"],
     "--out - and --json both write to stdout"),
    (["verify", "--suite", "fig1", "--samples", "0"], "--samples must be at least 1, not 0"),
    (["verify", "--suite", "fig1", "--samples", "-5"], "--samples must be at least 1, not -5"),
] + [
    (["verify", "--suite", suite, "--samples", "5"], f"--samples applies to the fig1 suite only, not {suite}")
    for suite in ("separations", "entailments", "hardy", "ks", "appendix")
] + [
    (["verify", "--suite", suite, "--seed", "1"],
     f"--seed applies to the fig1 and entailments suites only, not {suite}")
    for suite in ("separations", "hardy", "ks", "appendix")
] + [
    (["construct", "--model", "builtin:ex22", "--target", target, "--out", "-", "--budget", "5"],
     f"--budget applies to relational localization only, not {target}")
    for target in ("single-valued", "strong-det", "weakdet-lambda-indep")
] + [
    (["construct", "--model", "prob-hidden", "--target", "localize", "--out", "-", "--budget", "5"],
     "--budget applies to relational localization only, not probabilistic localization"),
]


@pytest.mark.parametrize("argv, message", CLI_REFUSALS, ids=[m for _, m in CLI_REFUSALS])
def test_cli_refusals_are_input_errors(argv, message, model_files, capsys):
    argv = [str(model_files[a]) if a in model_files else a for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error[invalid-input]: {message}")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "hardy", "--budget", "5"],
    ["nogo", "hardy", "--budget", "5"],
    ["eval", "--team", "builtin:rt2", "--formula", "dep(x, y)", "--seed", "1"],
    ["nogo", "ks", "--seed", "1"],
    ["check", "--model", "builtin:ex22", "--property", "non-context", "--strict"],
], ids=" ".join)
def test_flags_are_offered_only_where_read(argv, capsys):
    # an option a command would ignore is an argument error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["construct", "--model", "builtin:ex22", "--target", "single-valued"],
    ["nogo", "exists", "--model", "builtin:ex22", "--target", "strong-det+lambda"],
], ids=lambda argv: argv[0])
def test_out_write_failure_is_input_error(argv, tmp_path, capsys):
    code = main([*argv, "--out", str(tmp_path / "missing" / "x.json")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error[invalid-input]: cannot write")


def test_nogo_exists_out_dash_writes_stdout(tmp_path, monkeypatch, capsys):
    # as construct --out - does: the witness JSON, then the report line
    monkeypatch.chdir(tmp_path)
    code = main(["nogo", "exists", "--model", "builtin:ex22", "--target", "strong-det+lambda", "--out", "-"])
    out = capsys.readouterr().out
    assert code == 0 and not list(tmp_path.iterdir())
    witness = nogo.exists_strongdet_lambdaindep(load_bundled("ex22"))
    text = dump_json(model_to_dict(witness))
    assert out == text + "strong-det+lambda model exists with 2 hidden values -> -\n"


@pytest.mark.parametrize("bound", [("--universe", "0"), ("--universe", "-1"),
                                   ("--max-rows", "0"), ("--max-rows", "-2")], ids="=".join)
def test_entail_refuses_empty_bounds(bound, capsys):
    code = main(["entail", "--lhs", "dep(x,y)", "--rhs", "dep(y,x)", "--vars", "x", "y", *bound])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error[invalid-input]")


class TestVerifySuites:
    def test_separations_suite(self):
        code, out, _ = run_cli("verify", "--suite", "separations")
        assert code == 0 and "suite separations: PASS" in out

    def test_fig1_small(self):
        code, out, _ = run_cli("verify", "--suite", "fig1", "--samples", "25", "--seed", "7")
        assert code == 0 and "25 ok, 0 failures" in out

    def test_ks_suite_json(self):
        code, out, _ = run_cli("verify", "--suite", "ks", "--json")
        assert code == 0 and json.loads(out)["ok"]

    def test_appendix_suite(self):
        code, out, _ = run_cli("verify", "--suite", "appendix")
        assert code == 0 and "suite appendix: PASS" in out

    def test_entailments_suite(self):
        code, out, _ = run_cli("verify", "--suite", "entailments", "--json")
        assert code == 0 and json.loads(out)["ok"]


class TestDeterminism:
    COMMANDS = (
        ("check", "--model", "builtin:loc6", "--property", "locality", "--json"),
        ("nogo", "hardy", "--json"),
        ("nogo", "ks", "--json"),
        ("eval", "--team", "builtin:pt1", "--formula", "z _||_{x} w", "--prob", "--json"),
        ("entail", "--lhs", "dep(m1 l, o1)", "--rhs", "dep(m1, o1)",
         "--vars", "m1", "o1", "l", "--json"),
        ("verify", "--suite", "fig1", "--samples", "20", "--seed", "3", "--json"),
        ("construct", "--model", "builtin:ex22", "--target", "strong-det", "--out", "-"),
    )

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_across_runs(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0

    def test_in_process_matches_subprocess(self, capsys):
        code = main(["check", "--model", "builtin:sig", "--property", "weak-det", "--json"])
        in_process = capsys.readouterr().out
        _, out, _ = run_cli("check", "--model", "builtin:sig", "--property", "weak-det", "--json")
        assert code == 0 and in_process == out
