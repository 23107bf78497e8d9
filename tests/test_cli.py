import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from powerdex import SimpleWeights, attribute_all, format_rational
from powerdex.cli import load_model_file, main, parse_instance, parse_distribution

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

AND_MODEL = str(FIXTURES / "and_model.json")
AND_TREE = str(FIXTURES / "and_tree_model.json")
UNIFORM2 = str(FIXTURES / "uniform2.json")
AND_INSTANCE = str(FIXTURES / "and_instance.json")


def run_cli(*args, capsys=None):
    code = main(list(args))
    if capsys is None:
        return code, None
    captured = capsys.readouterr()
    return code, captured


def attribute_args(scheme, model=AND_MODEL, dist=UNIFORM2, instance=AND_INSTANCE):
    return [
        "attribute",
        "--model", model,
        "--dist", dist,
        "--instance", instance,
        "--scheme", scheme,
    ]


# ---------------------------------------------------------------------------
# attribute


def test_attribute_and_shapley_matches_golden(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run_cli(*attribute_args('{"preset":"shapley"}'), "--out", str(out), capsys=capsys)
    assert code == 0
    golden = (GOLDEN / "and_shapley_attribute.json").read_bytes()
    assert out.read_bytes() == golden
    doc = json.loads(golden)
    assert doc["values"] == ["3/8", "3/8"]


def test_attribute_repeated_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(attribute_args('{"preset":"shapley"}') + ["--out", str(first)]) == 0
    assert main(attribute_args('{"preset":"shapley"}') + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_attribute_constant_model(capsys):
    code, captured = run_cli(
        *attribute_args('{"preset":"shapley"}', model=str(FIXTURES / "constant_model.json")),
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["values"] == ["0", "0"]


def test_attribute_banzhaf_takes_direct_path(capsys):
    code, captured = run_cli(*attribute_args('{"preset":"banzhaf"}'), capsys=capsys)
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["values"] == ["3/8", "3/8"]
    assert doc["path"] == "bernoulli-direct"
    assert doc["engine_calls"] == [2, 2]


def test_attribute_matches_library_api(capsys):
    named, model = load_model_file(AND_MODEL)
    dist = parse_distribution(json.load(open(UNIFORM2)), named, "dist")
    e = parse_instance(json.load(open(AND_INSTANCE)), named)
    scheme = SimpleWeights.binomial(2, Fraction(1, 3))
    expected = attribute_all(model, dist, e, scheme)
    code, captured = run_cli(
        *attribute_args('{"preset":"binomial","theta":"1/3"}'), capsys=capsys
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["values"] == [format_rational(v) for v in expected.values]


def test_attribute_inline_instance(capsys):
    code, captured = run_cli(
        *attribute_args('{"preset":"shapley"}', instance='{"x1": "1", "x2": "1"}'),
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(captured.out)["values"] == ["3/8", "3/8"]


def test_attribute_with_csv_distribution(capsys):
    args = [
        "attribute",
        "--model", AND_MODEL,
        "--from-csv", str(FIXTURES / "observations.csv"),
        "--instance", AND_INSTANCE,
        "--scheme", '{"preset":"shapley"}',
    ]
    code, captured = run_cli(*args, capsys=capsys)
    assert code == 0
    doc = json.loads(captured.out)
    # P(x1=1) = P(x2=1) = 3/4 from the committed observations; brute-derived
    assert doc["values"] == ["7/32", "7/32"]


def test_attribute_requires_exactly_one_distribution_source(capsys):
    code, captured = run_cli(
        "attribute",
        "--model", AND_MODEL,
        "--instance", AND_INSTANCE,
        "--scheme", '{"preset":"shapley"}',
        capsys=capsys,
    )
    assert code == 2
    code, _ = run_cli(
        "attribute",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--from-csv", str(FIXTURES / "observations.csv"),
        "--instance", AND_INSTANCE,
        "--scheme", '{"preset":"shapley"}',
        capsys=capsys,
    )
    assert code == 2


def test_attribute_diag_includes_coefficient_sums(capsys):
    code, captured = run_cli(*attribute_args('{"preset":"shapley"}'), "--diag", capsys=capsys)
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["coefficient_sums"] == [["1/4", "1/2"], ["1/4", "1/2"]]


# ---------------------------------------------------------------------------
# schema and scheme errors


def test_unknown_preset_is_schema_error(capsys):
    code, captured = run_cli(*attribute_args('{"preset":"shappley"}'), capsys=capsys)
    assert code == 2
    assert "preset" in captured.err


def test_exponent_literal_is_schema_error(capsys):
    code, captured = run_cli(*attribute_args('{"q":["1e999999999","0"]}'), capsys=capsys)
    assert code == 2
    assert captured.out == ""
    assert "exponent" in captured.err


def test_non_normalized_weights_exit_3(capsys):
    code, captured = run_cli(*attribute_args('{"q":["1","1"]}'), capsys=capsys)
    assert code == 3


def test_wrong_length_weights_exit_3(capsys):
    code, _ = run_cli(*attribute_args('{"q":["1/4","1/4","1/4","1/4"]}'), capsys=capsys)
    assert code == 3


def test_instance_missing_feature(capsys):
    code, captured = run_cli(
        *attribute_args('{"preset":"shapley"}', instance='{"x1": "1"}'), capsys=capsys
    )
    assert code == 2
    assert "x2" in captured.err


def test_instance_value_outside_domain(capsys):
    code, captured = run_cli(
        *attribute_args('{"preset":"shapley"}', instance='{"x1": "1", "x2": "5"}'),
        capsys=capsys,
    )
    assert code == 2
    assert "x2" in captured.err


def test_malformed_model_file(tmp_path, capsys):
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({
        "space": {"features": [{"name": "x1", "values": ["0", "1"]}]},
        "model": {"type": "tree", "root": {"feature": "x1", "children": {"0": {"leaf": "1"}}}},
    }))
    code, captured = run_cli(
        *attribute_args('{"preset":"shapley"}', model=str(bad), instance='{"x1": "0"}'),
        capsys=capsys,
    )
    assert code == 2
    assert "children" in captured.err


def test_distribution_must_normalize(tmp_path, capsys):
    bad = tmp_path / "bad_dist.json"
    bad.write_text(json.dumps({"marginals": [
        {"feature": "x1", "probs": ["1/2", "1/3"]},
        {"feature": "x2", "probs": ["1/2", "1/2"]},
    ]}))
    code, _ = run_cli(
        *attribute_args('{"preset":"shapley"}', dist=str(bad)), capsys=capsys
    )
    assert code == 2


# ---------------------------------------------------------------------------
# interact


def test_interact_and_pair(capsys):
    code, captured = run_cli(
        "interact",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1,x2",
        "--scheme", '{"q":{"m":2,"values":["1"]}}',
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["value"] == "1/4"
    assert doc["engine_calls"] == 3
    assert doc["path"] == "bivariate-interpolation"


def test_interact_additive_pair_is_zero(capsys):
    code, captured = run_cli(
        "interact",
        "--model", str(FIXTURES / "additive_model.json"),
        "--dist", str(FIXTURES / "additive_uniform.json"),
        "--instance", str(FIXTURES / "additive_instance.json"),
        "--set", "x1,x2",
        "--scheme", '{"q":{"m":2,"values":["1"]}}',
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(captured.out)["value"] == "0"


def test_interact_singleton_matches_attribute(capsys):
    code, captured = run_cli(
        "interact",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1",
        "--scheme", '{"q":{"m":1,"values":["1/2","1/2"]}}',
        capsys=capsys,
    )
    assert code == 0
    interact_value = json.loads(captured.out)["value"]
    code, captured = run_cli(*attribute_args('{"q":["1/2","1/2"]}'), capsys=capsys)
    assert code == 0
    assert json.loads(captured.out)["values"][0] == interact_value


def test_interact_bernoulli_scheme(capsys):
    code, captured = run_cli(
        "interact",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1,x2",
        "--scheme", '{"bernoulli":{"theta":["1/2","1/2"]}}',
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["value"] == "1/4"
    assert doc["engine_calls"] == 4
    assert doc["path"] == "bernoulli-direct"


def test_interact_unknown_set_member(capsys):
    code, captured = run_cli(
        "interact",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1,x9",
        "--scheme", '{"q":{"m":2,"values":["1"]}}',
        capsys=capsys,
    )
    assert code == 2
    assert "x9" in captured.err


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passes(capsys):
    code, captured = run_cli(
        "oracle-check",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--scheme", '{"preset":"shapley"}',
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["all_equal"] is True
    assert {c["quantity"] for c in doc["checks"]} == {"expected-value", "index[x1]", "index[x2]"}


def test_oracle_check_corrupted_weights_exit_3(capsys):
    code, _ = run_cli(
        "oracle-check",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--scheme", '{"q":["1","1"]}',
        capsys=capsys,
    )
    assert code == 3


def test_oracle_check_interaction_set(capsys):
    code, captured = run_cli(
        "oracle-check",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1,x2",
        "--scheme", '{"q":{"m":2,"values":["1"]}}',
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["all_equal"] is True


def test_oracle_check_twelve_feature_tree(capsys):
    code, captured = run_cli(
        "oracle-check",
        "--model", str(FIXTURES / "tree12_model.json"),
        "--dist", str(FIXTURES / "uniform_any.json"),
        "--instance", str(FIXTURES / "tree12_instance.json"),
        "--scheme", '{"preset":"banzhaf"}',
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(captured.out)["all_equal"] is True


def test_oracle_check_budget_exceeded(tmp_path, capsys):
    doc = {
        "space": {"features": [
            {"name": f"x{i}", "values": ["0", "1"]} for i in range(13)
        ]},
        "model": {"type": "tree", "root": {"leaf": "1"}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    instance = json.dumps({f"x{i}": "0" for i in range(13)})
    code, _ = run_cli(
        "oracle-check",
        "--model", str(path),
        "--dist", str(FIXTURES / "uniform_any.json"),
        "--instance", instance,
        "--scheme", '{"preset":"banzhaf"}',
        capsys=capsys,
    )
    assert code == 4


def test_oracle_check_mismatch_exit_1(monkeypatch, capsys):
    import powerdex.cli as cli_module

    monkeypatch.setattr(
        cli_module, "brute_expectation", lambda model, dist: Fraction(999)
    )
    code, captured = run_cli(
        "oracle-check",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--scheme", '{"preset":"shapley"}',
        capsys=capsys,
    )
    assert code == 1
    assert json.loads(captured.out)["all_equal"] is False


# ---------------------------------------------------------------------------
# converse


def test_converse_round_trip(capsys):
    code, captured = run_cli(
        "converse",
        "--model", AND_TREE,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--scheme", '{"preset":"shapley"}',
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["recovered_expectation"] == "1/4"
    assert doc["direct_expectation"] == "1/4"
    assert doc["coefficients"] == ["1/4", "1", "1"]
    assert doc["coalition_sums_oracle"] == ["1/4", "1", "1"]
    assert doc["coefficients_match_oracle"] is True


def test_converse_marginal_preset_exit_3(capsys):
    code, captured = run_cli(
        "converse",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--scheme", '{"preset":"marginal"}',
        capsys=capsys,
    )
    assert code == 3
    assert "inapplicable" in captured.err


def test_converse_bernoulli_scheme_rejected(capsys):
    code, _ = run_cli(
        "converse",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--scheme", '{"bernoulli":{"theta":["1/2","1/2"]}}',
        capsys=capsys,
    )
    assert code == 3


# ---------------------------------------------------------------------------
# expected / ingest


def test_expected_on_ensemble(capsys):
    code, captured = run_cli(
        "expected",
        "--model", str(FIXTURES / "ensemble_model.json"),
        "--dist", UNIFORM2,
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["value"] == "5/4"
    assert doc["decimal"] == "1.25"


def test_ingest_counts(capsys):
    code, captured = run_cli(
        "ingest",
        "--model", AND_MODEL,
        "--from-csv", str(FIXTURES / "observations.csv"),
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["marginals"][0] == {
        "feature": "x1",
        "values": ["0", "1"],
        "probs": ["1/4", "3/4"],
    }


def test_ingest_single_row_gives_point_mass(capsys):
    code, captured = run_cli(
        "ingest",
        "--model", AND_MODEL,
        "--from-csv", str(FIXTURES / "single_row.csv"),
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["marginals"][0]["probs"] == ["1", "0"]
    assert doc["marginals"][1]["probs"] == ["0", "1"]


def test_ingest_output_loads_back_as_distribution(tmp_path):
    out = tmp_path / "dist.json"
    assert main([
        "ingest",
        "--model", AND_MODEL,
        "--from-csv", str(FIXTURES / "observations.csv"),
        "--out", str(out),
    ]) == 0
    named, _ = load_model_file(AND_MODEL)
    dist = parse_distribution(json.loads(out.read_text()), named, "dist")
    assert dist.prob(0, "1") == Fraction(3, 4)


def test_ingest_unknown_value_names_row_and_column(capsys):
    code, captured = run_cli(
        "ingest",
        "--model", AND_MODEL,
        "--from-csv", str(FIXTURES / "bad_value.csv"),
        capsys=capsys,
    )
    assert code == 2
    assert "row 3" in captured.err
    assert "x2" in captured.err


def test_ingest_empty_file(capsys):
    code, _ = run_cli(
        "ingest",
        "--model", AND_MODEL,
        "--from-csv", str(FIXTURES / "empty.csv"),
        capsys=capsys,
    )
    assert code == 2


def test_ingest_header_must_cover_space(tmp_path, capsys):
    csv_path = tmp_path / "partial.csv"
    csv_path.write_text("x1\n0\n")
    code, _ = run_cli(
        "ingest", "--model", AND_MODEL, "--from-csv", str(csv_path), capsys=capsys
    )
    assert code == 2


# ---------------------------------------------------------------------------
# process-level entry point


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "powerdex",
         "attribute",
         "--model", AND_MODEL,
         "--dist", UNIFORM2,
         "--instance", AND_INSTANCE,
         "--scheme", '{"preset":"shapley"}'],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["values"] == ["3/8", "3/8"]
