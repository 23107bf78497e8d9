import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import powerdex.cli as cli
from powerdex import (
    BernoulliWeights,
    CountingModel,
    ProductDistribution,
    SimpleWeights,
    attribute_all,
    compute_bernoulli_index,
    compute_simple_index,
    format_rational,
)
from powerdex.cli import (
    SchemaError,
    ingest_csv,
    load_model_file,
    main,
    parse_distribution,
    parse_instance,
    parse_model,
    parse_space,
)
from powerdex.models import TREE_DEPTH_LIMIT, TreeModel

from corpus import csv_marginals

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
    dist = parse_distribution(json.loads(Path(UNIFORM2).read_text()), named, "dist")
    e = parse_instance(json.loads(Path(AND_INSTANCE).read_text()), named)
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


@pytest.mark.parametrize(
    "scheme",
    [
        '{"preset": "shapley", "q": ["garbage"]}',
        '{"preset": "banzhaf", "bernoulli": {"theta": ["1/2", "1/2"]}}',
        '{"q": ["1/2", "1/2"], "bernoulli": "nonsense"}',
        '{"preset": "shapley", "q": ["1/2", "1/2"], "bernoulli": {"theta": ["0", "0"]}}',
        "{}",
    ],
)
def test_scheme_must_name_exactly_one_kind(scheme, capsys):
    code, captured = run_cli(*attribute_args(scheme), capsys=capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: scheme must contain exactly one of: preset, q, bernoulli\n"


@pytest.mark.parametrize(
    "scheme",
    [
        '{"q": {"m": 1, "values": ["1/2", "1/2"]}, "bernoulli": "nonsense"}',
        '{"q": "nonsense", "bernoulli": {"theta": ["1/2", "1/2"]}}',
        '{"preset": "shapley"}',
    ],
)
def test_interaction_scheme_must_name_exactly_one_kind(scheme, capsys):
    code, captured = run_cli(
        "interact",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1",
        "--scheme", scheme,
        capsys=capsys,
    )
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: scheme must contain exactly one of: q, bernoulli\n"


def test_overlong_literal_is_schema_error_without_the_interpreter_limit(tmp_path):
    # PYTHONINTMAXSTRDIGITS=0 lifts CPython's own int() limit, so only the
    # literal digit bound rejects this 5000-digit way of writing 1/2
    half = "0.5" + "0" * 4999
    dist = tmp_path / "long.json"
    dist.write_text(json.dumps({"marginals": [
        {"feature": "x1", "probs": [half, half]},
        {"feature": "x2", "probs": ["1/2", "1/2"]},
    ]}))
    # run in tmp_path so that the error's context, the file name, is short
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "powerdex", "expected", "--model", AND_MODEL, "--dist", dist.name],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert len(lines[0]) < 200
    assert "digits" in lines[0]


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


TREE_SPACE = {"features": [
    {"name": "x1", "values": ["0", "1"]},
    {"name": "x2", "values": ["0", "1", "2"]},
]}
L1 = {"leaf": "1"}


def _split(name, *children):
    return {"feature": name, "children": {str(v): child for v, child in enumerate(children)}}


def _chain(depth):
    # a split on c_k over {0, 1} per level, the next level under "1"
    node = L1
    for k in reversed(range(depth)):
        node = {"feature": f"c{k}", "children": {"0": {"leaf": "0"}, "1": node}}
    return node


CHAIN_SPACE = {
    "features": [{"name": f"c{k}", "values": ["0", "1"]} for k in range(TREE_DEPTH_LIMIT + 1)]
}
X1_REPEATS = _split("x1", _split("x1", L1, L1), L1)  # x1 again under x1 = "0"


@pytest.mark.parametrize(
    "space, model, message",
    [
        (TREE_SPACE, {"type": "tree", "root": ["leaf"]}, "model.root: tree node must be an object"),
        (
            TREE_SPACE,
            {"type": "tree", "root": _split("x1", L1, 5)},
            "model.root.children['1']: tree node must be an object",
        ),
        (TREE_SPACE, {"type": "tree"}, "model: missing required field 'root'"),
        (
            TREE_SPACE,
            {"type": "tree", "root": {"children": {}}},
            "model.root: missing required field 'feature'",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": _split("x1", {"feature": "x2"}, L1)},
            "model.root.children['0']: missing required field 'children'",
        ),
        (TREE_SPACE, {"type": "tree", "root": _split("x3", L1, L1)}, "unknown feature name 'x3'"),
        (
            TREE_SPACE,
            {"type": "tree", "root": {"feature": ["x1"], "children": {}}},
            "unknown feature name ['x1']",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": {"feature": "x2", "children": [L1, L1, L1]}},
            "model.root.children must be an object keyed by value",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": _split("x1", L1, L1, L1, L1)},
            "model.root.children: ['2', '3'] are not values of feature 'x1'",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": _split("x1", L1, {"feature": "x2", "children": {"1": L1}})},
            "model.root.children['1'].children: missing children for values ['0', '2'] of feature 'x2'",
        ),
        (
            # unknown values are reported before missing ones
            TREE_SPACE,
            {"type": "tree", "root": {"feature": "x2", "children": {"0": L1, "b": L1, "a": L1}}},
            "model.root.children: ['a', 'b'] are not values of feature 'x2'",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": _split("x2", L1, L1, _split("x1", L1, {"leaf": "x"}))},
            "model.root.children['2'].children['1'].leaf: invalid rational literal 'x'",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": _split("x1", {"leaf": 3}, L1)},
            "model.root.children['0'].leaf: rational literal must be a string, got int",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": {"leaf": "1/0"}},
            "model.root.leaf: invalid rational literal '1/0': denominator must be positive",
        ),
        (
            CHAIN_SPACE,
            {"type": "tree", "root": _chain(TREE_DEPTH_LIMIT + 1)},
            "model.root" + ".children['1']" * 4 + f"<{TREE_DEPTH_LIMIT - 8} more steps>"
            + ".children['1']" * 4 + f": tree is deeper than the limit of {TREE_DEPTH_LIMIT} splits",
        ),
        (TREE_SPACE, {"type": "tree", "root": X1_REPEATS}, "model: feature 0 repeats along a path"),
        (
            # the first repeat in depth-first order is reported
            TREE_SPACE,
            {"type": "tree", "root": _split(
                "x1", _split("x2", L1, _split("x2", L1, L1, L1), L1), X1_REPEATS
            )},
            "model: feature 1 repeats along a path",
        ),
        (
            # a later error in the same tree is reported before a repeat
            TREE_SPACE,
            {"type": "tree", "root": _split("x1", _split("x1", L1, L1), {"leaf": "x"})},
            "model.root.children['1'].leaf: invalid rational literal 'x'",
        ),
        (
            TREE_SPACE,
            {"type": "tree", "root": _split("x2", X1_REPEATS, L1, _split("x3", L1, L1))},
            "unknown feature name 'x3'",
        ),
        (
            # components are read in order: a repeat in one is reported
            # before any error in a later one
            TREE_SPACE,
            {"type": "ensemble", "components": [
                {"weight": "1", "model": {"type": "tree", "root": L1}},
                {"weight": "1", "model": {"type": "tree", "root": X1_REPEATS}},
                {"weight": "x", "model": {"type": "tree", "root": {"leaf": "x"}}},
            ]},
            "model.components[1].model: feature 0 repeats along a path",
        ),
        (
            TREE_SPACE,
            {"type": "ensemble", "components": [
                {"weight": "1", "model": {"type": "tree", "root": _split("x1", L1, {"leaf": "1/0"})}},
                {"weight": "1", "model": {"type": "tree", "root": X1_REPEATS}},
            ]},
            "model.components[0].model.root.children['1'].leaf: "
            "invalid rational literal '1/0': denominator must be positive",
        ),
    ],
)
def test_tree_errors_keep_their_line(tmp_path, capsys, space, model, message):
    path = tmp_path / "model.json"
    # deep enough to encode and decode the chain's JSON from any caller
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * TREE_DEPTH_LIMIT + 1000))
    try:
        path.write_text(json.dumps({"space": space, "model": model}))
        code, captured = run_cli(
            "expected", "--model", str(path), "--dist", str(FIXTURES / "uniform_any.json"), capsys=capsys
        )
    finally:
        sys.setrecursionlimit(limit)
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("field", ["model", "dist", "instance", "scheme"])
def test_json_file_that_is_not_utf8_is_one_line_naming_it(tmp_path, capsys, field):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"space": "\xff"}')
    argv = attribute_args('{"preset":"shapley"}')
    argv[argv.index(f"--{field}") + 1] = str(path)
    code, captured = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path} is not valid UTF-8: invalid start byte at byte 11\n"


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


def test_interact_bernoulli_singleton_walks_the_tree_once(monkeypatch, capsys):
    calls = {"walk": 0, "traversal": 0}

    def spy(method, kind):
        def wrapper(self, *args):
            calls[kind] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(TreeModel, "_gap_polynomials", spy(TreeModel._gap_polynomials, "walk"))
    monkeypatch.setattr(TreeModel, "_value", spy(TreeModel._value, "traversal"))
    code, captured = run_cli(
        "interact",
        "--model", AND_TREE,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1",
        "--scheme", '{"bernoulli":{"theta":["1/2","1/2"]}}',
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert (doc["path"], doc["engine_calls"]) == ("bernoulli-direct", 2)
    assert calls == {"walk": 1, "traversal": 0}


def test_interact_diag_echoes_the_grid(capsys):
    code, captured = run_cli(
        "interact",
        "--model", AND_MODEL,
        "--dist", UNIFORM2,
        "--instance", AND_INSTANCE,
        "--set", "x1,x2",
        "--scheme", '{"q":{"m":2,"values":["1"]}}',
        "--diag",
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(captured.out)["grid"] == {"z": ["0"], "y": ["0", "1", "2"]}


def test_interact_boolean_m_is_schema_error(capsys):
    # JSON true is a Python bool, which is also an int
    for values in ('["1/2","1/2"]', '["1"]'):
        code, captured = run_cli(
            "interact",
            "--model", AND_MODEL,
            "--dist", UNIFORM2,
            "--instance", AND_INSTANCE,
            "--set", "x1",
            "--scheme", '{"q":{"m":true,"values":%s}}' % values,
            capsys=capsys,
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: scheme.q.m must be an integer\n"


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


def test_oracle_check_over_budget_makes_no_engine_call(tmp_path, monkeypatch, capsys):
    counted = []

    def load_counted(path):
        named, model = load_model_file(path)
        counted.append(CountingModel(model))
        return named, counted[-1]

    doc = {
        "space": {"features": [{"name": f"x{i}", "values": ["0", "1"]} for i in range(13)]},
        "model": {"type": "tree", "root": {"feature": "x0", "children": {
            "0": {"leaf": "0"}, "1": {"leaf": "1"},
        }}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "load_model_file", load_counted)
    code, captured = run_cli(
        "oracle-check",
        "--model", str(path),
        "--dist", str(FIXTURES / "uniform_any.json"),
        "--instance", json.dumps({f"x{i}": "0" for i in range(13)}),
        "--scheme", '{"preset":"shapley"}',
        capsys=capsys,
    )
    assert code == 4
    assert captured.err == "error: 13 features exceed the oracle budget of 12\n"
    assert counted[0].expected_value_calls == 0


def test_oracle_check_mismatch_exit_1(monkeypatch, capsys):
    import powerdex.cli as cli_module

    # the oracle's E[F] is the empty-coalition entry of the conditional table
    real_table = cli_module.conditional_table
    monkeypatch.setattr(
        cli_module, "conditional_table", lambda *args: {**real_table(*args), 0: Fraction(999)}
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


def test_diag_is_rejected_where_it_would_be_ignored(capsys):
    common = attribute_args('{"preset":"shapley"}')[1:]
    for argv in (
        ["expected", "--model", AND_MODEL, "--dist", UNIFORM2],
        ["converse", *common],
        ["oracle-check", *common],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--diag"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --diag" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["ingest", "expected"])
@pytest.mark.parametrize(
    "content, error",
    [
        (b"x1,x2\n0,1\n1," + b"0" * 200_000 + b"\n", "row 3: field larger than field limit (131072)"),
        (b"x1,x2\n0,1\n1,\xff\n", "row 3 is not valid UTF-8"),
        (b"x1,x2\r\n" + b"0,1\r\n" * 5000 + b"1,\xe2\x82\r\n", "row 5002 is not valid UTF-8"),
        (b"x1,\xc3\n", "row 1 is not valid UTF-8"),
    ],
    ids=["field-limit", "bad-byte", "bad-byte-past-the-first-chunk", "bad-byte-in-header"],
)
def test_csv_field_limit_and_bad_bytes_name_file_and_row(tmp_path, capsys, command, content, error):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    code, captured = run_cli(command, "--model", AND_MODEL, "--from-csv", str(path), capsys=capsys)
    assert code == 2
    assert captured.err == f"error: {path}: {error}\n"


def _space_model(path, domains):
    """A constant tree model file over features f0, f1, ... with the given domains."""
    features = [{"name": f"f{i}", "values": list(domain)} for i, domain in enumerate(domains)]
    doc = {"space": {"features": features}, "model": {"type": "tree", "root": {"leaf": "0"}}}
    path.write_text(json.dumps(doc))
    return load_model_file(str(path))[0]


def test_ingest_of_a_long_padded_csv_counts_every_cell(tmp_path):
    named = _space_model(tmp_path / "model.json", [("0", "1"), ("a", "b", "c"), ("x", "y", "z")])
    rng = random.Random(7)
    header = ["f2", " f0", "f1 "]
    lines = [",".join(header)]
    for _ in range(2560):  # about two and a half blocks of 1024 rows
        lines.append(",".join(
            rng.choice(("", " ", "  ")) + rng.choice(named.space.domains[int(h.strip()[1])])
            + rng.choice(("", " "))
            for h in header
        ))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    dist, rows = ingest_csv(str(path), named)
    assert rows == 2560
    assert [list(row) for row in dist.probs] == csv_marginals(
        path, named.names, named.space.domains
    )


@pytest.mark.parametrize(
    "row3",
    # the bad byte lies past the decoder's first chunk, so row 2 is read before it
    [b"0\n", b"1,0,1\n", b"1," + b"0" * 10_000 + b"\xff\n", b"1," + b"0" * 200_000 + b"\n"],
    ids=["too-few-cells", "too-many-cells", "bad-byte", "field-limit"],
)
def test_ingest_invalid_value_wins_over_a_later_row(tmp_path, capsys, row3):
    path = tmp_path / "data.csv"
    path.write_bytes(b"x1,x2\n1,7\n" + row3 + b"0,1\n")
    code, captured = run_cli(
        "ingest", "--model", AND_MODEL, "--from-csv", str(path), capsys=capsys
    )
    assert code == 2
    assert captured.err == (
        f"error: {path}: row 2, column 'x2': value '7' is not a declared domain value\n"
    )


def test_ingest_reports_the_first_invalid_cell_in_header_order(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("x2,x1\n1,0\n 5 ,9\n")
    code, captured = run_cli(
        "ingest", "--model", AND_MODEL, "--from-csv", str(path), capsys=capsys
    )
    assert code == 2
    assert captured.err == (
        f"error: {path}: row 3, column 'x2': value '5' is not a declared domain value\n"
    )


@pytest.mark.parametrize("bad_row", [1024, 1025, 1026, 2048, 2049])
def test_ingest_invalid_value_near_a_block_boundary_names_its_row(tmp_path, capsys, bad_row):
    path = tmp_path / "data.csv"
    rows = ["1,0"] * 2100
    rows[bad_row - 2] = "1,2"  # data rows are numbered from 2, after the header
    path.write_text("x1,x2\n" + "\n".join(rows) + "\n")
    code, captured = run_cli(
        "ingest", "--model", AND_MODEL, "--from-csv", str(path), capsys=capsys
    )
    assert code == 2
    assert captured.err == (
        f"error: {path}: row {bad_row}, column 'x2': value '2' is not a declared domain value\n"
    )


def _mid_tree_error(path):
    doc = json.loads(Path(AND_TREE).read_text())
    doc["model"]["root"]["children"]["1"]["children"]["1"] = {"leaf": "1/0"}
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "case, error",
    [
        ("model", None),
        ("mid-tree-error", "root.children"),
        ("too-deep", "nests too deeply to parse"),
        ("csv", None),
        ("csv-error", "not a declared domain value"),
    ],
)
def test_reading_inputs_leaves_the_collector_as_found(tmp_path, enabled, case, error):
    path = tmp_path / "input"
    if case == "mid-tree-error":
        _mid_tree_error(path)
    elif case == "too-deep":
        _write_chain(path, 600)
    elif case.startswith("csv"):
        path.write_text("x1,x2\n1,0\n" + ("1,7\n" if error else ""))
    if case.startswith("csv"):
        read = lambda: ingest_csv(str(path), load_model_file(AND_MODEL)[0])
    else:
        read = lambda: load_model_file(AND_MODEL if case == "model" else str(path))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if error is None:
            read()
        else:
            with pytest.raises(SchemaError, match=error):
                read()
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


# ---------------------------------------------------------------------------
# --out


@pytest.mark.parametrize(
    "argv",
    [
        attribute_args('{"preset":"shapley"}'),
        ["expected", "--model", AND_MODEL, "--dist", UNIFORM2],
        ["ingest", "--model", AND_MODEL, "--from-csv", str(FIXTURES / "observations.csv")],
    ],
    ids=["attribute", "expected", "ingest"],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv, target):
    out = tmp_path / "absent" / "report.json" if target == "missing-directory" else tmp_path
    code, captured = run_cli(*argv, "--out", str(out), capsys=capsys)
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# ---------------------------------------------------------------------------
# feature rows and rational lists: each malformed entry keeps its error line

TERMS = [{"feature": "x1", "values": ["0", "1"]}, {"feature": "x2", "values": ["0", "2"]}]
MARGINALS = [{"feature": "x1", "probs": ["1/2", "1/2"]}, {"feature": "x2", "probs": ["1/4", "3/4"]}]


@pytest.mark.parametrize(
    "field, entries, message",
    [
        ("terms", TERMS + TERMS[:1], "model.terms: duplicate entry for feature 'x1'"),
        ("terms", [{"feature": "x3", "values": ["0"]}] + TERMS, "unknown feature name 'x3'"),
        ("terms", TERMS[1:], "model.terms: missing entry for feature 'x1'"),
        (
            "terms",
            [{"feature": "x1", "values": ["0"]}, TERMS[1]],
            "model.terms[0].values must list one value per domain value of 'x1' (2)",
        ),
        (
            "terms",
            [{"feature": "x1", "values": "01"}, TERMS[1]],
            "model.terms[0].values must list one value per domain value of 'x1' (2)",
        ),
        ("terms", {"x1": ["0", "1"]}, "model.terms must be a list"),
        (
            "terms",
            [TERMS[0], {"feature": "x2", "values": ["0", "1e3"]}],
            "model.terms[1].values[1]: invalid rational literal '1e3': exponents are not allowed",
        ),
        ("terms", [{"values": ["0", "1"]}], "model.terms[0]: missing required field 'feature'"),
        ("terms", [{"feature": "x1"}], "model.terms[0]: missing required field 'values'"),
        ("marginals", MARGINALS + MARGINALS[1:], "{dist}.marginals: duplicate entry for feature 'x2'"),
        ("marginals", MARGINALS + [{"feature": "y", "probs": []}], "unknown feature name 'y'"),
        ("marginals", MARGINALS[:1], "{dist}.marginals: missing entry for feature 'x2'"),
        (
            "marginals",
            [MARGINALS[0], {"feature": "x2", "probs": ["1"]}],
            "{dist}.marginals[1].probs must list one probability per domain value of 'x2' (2)",
        ),
        (
            "marginals",
            [MARGINALS[0], {"feature": "x2", "probs": {"0": "1"}}],
            "{dist}.marginals[1].probs must list one probability per domain value of 'x2' (2)",
        ),
        ("marginals", "x1", "{dist}.marginals must be a list"),
        (
            "marginals",
            [MARGINALS[0], {"feature": "x2", "probs": ["1/4", 0.75]}],
            "{dist}.marginals[1].probs[1]: rational literal must be a string, got float",
        ),
        (
            # the values echo is checked after duplicates and before the length
            "marginals",
            [{"feature": "x1", "probs": ["1"], "values": ["1", "0"]}, MARGINALS[1]],
            "{dist}.marginals[0].values does not match the declared domain of 'x1'",
        ),
        (
            "marginals",
            [MARGINALS[0], {"feature": "x1", "probs": ["1"], "values": ["1", "0"]}],
            "{dist}.marginals: duplicate entry for feature 'x1'",
        ),
        ("marginals", [{"feature": "x1"}], "{dist}.marginals[0]: missing required field 'probs'"),
    ],
)
def test_feature_row_errors_keep_their_line(tmp_path, capsys, field, entries, message):
    model, dist = AND_MODEL, tmp_path / "dist.json"
    if field == "terms":
        model = str(tmp_path / "model.json")
        doc = json.loads(Path(AND_MODEL).read_text())
        doc["model"] = {"type": "additive", "terms": entries}
        Path(model).write_text(json.dumps(doc))
        dist.write_text(json.dumps({"uniform": True}))
    else:
        dist.write_text(json.dumps({"marginals": entries}))
    code, captured = run_cli("expected", "--model", model, "--dist", str(dist), capsys=capsys)
    assert (code, captured.err) == (2, f"error: {message.format(dist=dist)}\n")


@pytest.mark.parametrize(
    "command, scheme, message",
    [
        ("attribute", {"q": "1/2"}, "scheme.q must be a list of rationals"),
        ("attribute", {"q": ["1/2", "x"]}, "scheme.q[1]: invalid rational literal 'x'"),
        ("attribute", {"bernoulli": {"theta": "1/2"}}, "scheme.bernoulli.theta must be a list of rationals"),
        (
            "attribute",
            {"bernoulli": {"theta": ["1/2", 1]}},
            "scheme.bernoulli.theta[1]: rational literal must be a string, got int",
        ),
        ("interact", {"q": {"m": 2, "values": "1"}}, "scheme.q.values must be a list of rationals"),
        (
            "interact",
            {"q": {"m": 2, "values": [1]}},
            "scheme.q.values[0]: rational literal must be a string, got int",
        ),
        ("interact", {"bernoulli": {"theta": {"x1": "1/2"}}}, "scheme.bernoulli.theta must be a list of rationals"),
    ],
)
def test_rational_list_errors_keep_their_line(capsys, command, scheme, message):
    argv = attribute_args(json.dumps(scheme))
    argv[0] = command
    if command == "interact":
        argv += ["--set", "x1,x2"]
    code, captured = run_cli(*argv, capsys=capsys)
    assert (code, captured.err) == (2, f"error: {message}\n")


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


def test_parser_is_built_once_and_answers_every_call_alike(capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["attribute", "--model", AND_MODEL])
        runs.append((exc.value.code, capsys.readouterr().err))
        runs.append(run_cli(*attribute_args('{"preset":"shapley"}'), capsys=capsys))
    assert runs[0][0] == 2 and "required" in runs[0][1]
    assert runs[1][0] == 0
    assert runs[:2] == runs[2:]


# ---------------------------------------------------------------------------
# deep trees


def _write_chain(path, depth):
    # written as text: the json encoder recurses once per nesting level
    names = [f"c{i}" for i in range(depth)]
    space = {"features": [{"name": name, "values": ["0", "1"]} for name in names]}
    opens = "".join(
        f'{{"feature": "{name}", "children": {{"0": {{"leaf": "0"}}, "1": ' for name in names
    )
    root = opens + '{"leaf": "1"}' + "}}" * depth
    path.write_text(
        '{"space": ' + json.dumps(space) + ', "model": {"type": "tree", "root": ' + root + "}}\n"
    )


def test_too_deep_tree_file_is_schema_error(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    _write_chain(chain, 1200)
    code, captured = run_cli(
        "expected", "--model", str(chain), "--dist", str(FIXTURES / "uniform_any.json"),
        capsys=capsys,
    )
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_deep_tree_file_still_computes(tmp_path):
    # a fresh process: how deep json can nest depends on the caller's stack
    chain = tmp_path / "chain.json"
    _write_chain(chain, 480)
    result = subprocess.run(
        [sys.executable, "-m", "powerdex", "expected",
         "--model", str(chain), "--dist", str(FIXTURES / "uniform_any.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["value"] == f"1/{2**480}"


def _called_deeper(frames, function, *args):
    # function(*args) from the given number of extra stack frames
    if frames == 0:
        return function(*args)
    return _called_deeper(frames - 1, function, *args)


@pytest.mark.parametrize("caller_frames", [0, 250])
def test_tree_file_at_the_depth_limit_computes_in_process(tmp_path, capsys, caller_frames):
    chain = tmp_path / "chain.json"
    _write_chain(chain, TREE_DEPTH_LIMIT)
    limit = sys.getrecursionlimit()
    code, _ = _called_deeper(
        caller_frames,
        run_cli,
        "expected", "--model", str(chain), "--dist", str(FIXTURES / "uniform_any.json"),
    )
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["value"] == f"1/{2**TREE_DEPTH_LIMIT}"
    assert sys.getrecursionlimit() == limit


def test_tree_file_too_deep_for_a_deep_caller_is_one_line(tmp_path, capsys):
    # the tree walks could not follow this tree from a caller 600 frames
    # deep, so its file fails to decode there
    chain = tmp_path / "chain.json"
    _write_chain(chain, TREE_DEPTH_LIMIT)
    code, _ = _called_deeper(
        600,
        run_cli,
        "attribute", "--model", str(chain), "--dist", str(FIXTURES / "uniform_any.json"),
        "--instance", json.dumps({f"c{k}": "1" for k in range(TREE_DEPTH_LIMIT)}),
        "--scheme", '{"preset": "banzhaf"}',
    )
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {chain} nests too deeply to parse\n"


def test_tree_file_past_the_depth_limit_is_one_line(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    _write_chain(chain, TREE_DEPTH_LIMIT + 1)
    code, captured = run_cli(
        "expected", "--model", str(chain), "--dist", str(FIXTURES / "uniform_any.json"),
        capsys=capsys,
    )
    assert (code, captured.out) == (2, "")
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err) < 300  # the node path keeps its first and last 4 steps
    assert captured.err.endswith(f": tree is deeper than the limit of {TREE_DEPTH_LIMIT} splits\n")


def test_tree_past_the_depth_limit_is_schema_error():
    depth = TREE_DEPTH_LIMIT + 1
    names = [f"c{i}" for i in range(depth)]
    named = parse_space({"features": [{"name": name, "values": ["0", "1"]} for name in names]})
    node = {"leaf": "1"}
    for name in reversed(names):
        node = {"feature": name, "children": {"0": {"leaf": "0"}, "1": node}}
    with pytest.raises(SchemaError, match="deeper than the limit"):
        parse_model({"type": "tree", "root": node}, named)


def test_inline_json_nested_too_deeply_is_schema_error(capsys):
    code, captured = run_cli(
        *attribute_args('{"preset":"shapley"}', instance="{" + '"a": [' * 5000 + "]" * 5000 + "}"),
        capsys=capsys,
    )
    assert code == 2
    assert len(captured.err.splitlines()) == 1


# ---------------------------------------------------------------------------
# one batched pass per command


def test_attribute_diag_requests_2n_squared_expectations(monkeypatch, capsys):
    counted = []

    def load_counted(path):
        named, model = load_model_file(path)
        counted.append(CountingModel(model))
        return named, counted[-1]

    monkeypatch.setattr(cli, "load_model_file", load_counted)
    code, captured = run_cli(*attribute_args('{"preset":"shapley"}'), "--diag", capsys=capsys)
    assert code == 0
    assert "coefficient_sums" in json.loads(captured.out)
    assert counted[0].expected_value_calls == 2 * 2**2  # attribute_all's pass only


def test_oracle_check_engine_values_equal_the_per_feature_functions(tmp_path, capsys):
    named, model = load_model_file(str(FIXTURES / "ensemble_model.json"))
    dist = ProductDistribution(named.space, [[Fraction(1, 3), Fraction(2, 3)]] * 2)
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps({"marginals": [
        {"feature": name, "probs": ["1/3", "2/3"]} for name in named.names
    ]}))
    e = parse_instance(json.loads(Path(AND_INSTANCE).read_text()), named)
    for scheme_doc, scheme in (
        ('{"preset":"banzhaf"}', SimpleWeights.banzhaf(2)),
        ('{"preset":"binomial","theta":"1/3"}', SimpleWeights.binomial(2, Fraction(1, 3))),
        ('{"preset":"marginal"}', SimpleWeights.marginal(2)),
        ('{"q":["1/3","2/3"]}', SimpleWeights.from_values(["1/3", "2/3"])),
        ('{"bernoulli":{"theta":["1/4","1/2"]}}', BernoulliWeights(["1/4", "1/2"])),
    ):
        code, captured = run_cli(
            "oracle-check",
            "--model", str(FIXTURES / "ensemble_model.json"),
            "--dist", str(dist_path),
            "--instance", AND_INSTANCE,
            "--scheme", scheme_doc,
            capsys=capsys,
        )
        assert code == 0, scheme_doc
        engine = [c["engine"] for c in json.loads(captured.out)["checks"][1:]]
        if isinstance(scheme, SimpleWeights):
            want = [compute_simple_index(model, dist, e, a, scheme) for a in range(2)]
        else:
            want = [compute_bernoulli_index(model, dist, e, a, scheme) for a in range(2)]
        assert engine == [format_rational(v) for v in want], scheme_doc
