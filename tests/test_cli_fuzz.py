"""Malformed inputs to the CLI loaders exit with a documented code and one line.

Each JSON example starts from valid model, distribution, instance and scheme
documents, replaces or deletes up to three parts of one of them with
arbitrary JSON, and runs a subcommand on them in-process.  The run must return 0, 2
(schema), 3 (scheme or space) or 4 (budget), never raise, and a failure
must print exactly one line to stderr.  Each CSV example feeds ``ingest`` or
``expected --from-csv`` a file of near-valid rows, possibly with bytes that
are not UTF-8, and must return 0 or 2 on the same terms.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from powerdex.cli import SchemaError, ingest_csv, load_model_file, main, parse_model, parse_space
from powerdex.core import parse_rational
from powerdex.models import Leaf, Split, TreeModel

from corpus import csv_marginals

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


MODELS = [
    _fixture(name)
    for name in ("and_model.json", "and_tree_model.json", "ensemble_model.json", "additive_model.json")
]
DISTS = [_fixture("uniform2.json"), {"uniform": True}]
INSTANCES = [_fixture("and_instance.json"), {"x1": "0", "x2": "1"}]
SCHEMES = [
    {"preset": "shapley"},
    {"preset": "binomial", "theta": "1/3"},
    {"q": ["1/2", "1/2"]},
    {"bernoulli": {"theta": ["1/2", "1/4"]}},
]
INTERACTION_SCHEMES = [
    {"q": {"m": 2, "values": ["1"]}},
    {"bernoulli": {"theta": ["1/2", "1/2"]}},
]

# keys and strings the documents use, so replacements often look almost right
WORDS = (
    "space", "features", "name", "values", "model", "type", "table", "tree",
    "additive", "ensemble", "root", "feature", "children", "leaf", "terms",
    "bias", "components", "weight", "marginals", "probs", "uniform", "preset",
    "shapley", "binomial", "theta", "q", "m", "bernoulli",
    "x1", "x2", "0", "1", "2", "1/2", "-1", "1/0", "0.5", "1e3", "", "x",
)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(WORDS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS), inner, max_size=3),
    max_leaves=6,
)


def _slots(doc, path=()):
    """Every (container path, key) in the document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


@st.composite
def mutated(draw, docs, mutate=True):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(min_value=1, max_value=3)) if mutate else 0):
        slots = list(_slots(doc))
        if not slots:
            return draw(JSON)
        path, key = draw(st.sampled_from(slots))
        container = doc
        for step in path:
            container = container[step]
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


COMMANDS = st.sampled_from(("attribute", "interact", "expected", "oracle-check", "converse"))
SLOW = [HealthCheck.too_slow, HealthCheck.data_too_large]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=SLOW,
)
@given(
    COMMANDS,
    st.sampled_from(("model", "dist", "instance", "scheme", None)),
    st.data(),
    st.booleans(),
)
def test_malformed_inputs_exit_cleanly(command, broken, data, inline):
    interaction = command == "interact"
    model = data.draw(mutated(MODELS, broken == "model"))
    dist = data.draw(mutated(DISTS, broken == "dist"))
    instance = data.draw(mutated(INSTANCES, broken == "instance"))
    schemes = INTERACTION_SCHEMES if interaction else SCHEMES
    scheme = data.draw(mutated(schemes, broken == "scheme"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, doc in (("model", model), ("dist", dist), ("instance", instance), ("scheme", scheme)):
            paths[name] = tmp / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        argv = [command, "--model", str(paths["model"]), "--dist", str(paths["dist"])]
        if command != "expected":
            for name, doc in (("instance", instance), ("scheme", scheme)):
                # inline JSON is read only when it is an object
                use_inline = inline and isinstance(doc, dict)
                argv += [f"--{name}", json.dumps(doc) if use_inline else str(paths[name])]
        if interaction:
            argv += ["--set", "x1,x2"]
        code, out, message = _run(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (code, argv, message)
    if code:
        assert message.count("\n") == 1 and message.endswith("\n"), message
        assert message.startswith("error: ")
        assert "Traceback" not in message
    else:
        assert message == ""
        json.loads(out)


# cells of the fixtures' two binary features x1, x2, and near misses
VALUE = st.sampled_from(("0", "1", " 1 ", '"0"'))
CELL = VALUE | st.sampled_from(("x1", "x2", "x3", "2", "", '"', "0,1")) | st.text(max_size=3)
CSV_ERRORS = ("header", "cells, expected", "domain value", "UTF-8", "field limit", "no data rows", "empty")


@st.composite
def csv_files(draw):
    """Header and rows, often the right ones, joined by one kind of line ending."""
    header = draw(st.sampled_from((["x1", "x2"], [" x2", "x1 "])) | st.lists(CELL, max_size=3))
    row = st.lists(VALUE, min_size=2, max_size=2) | st.lists(CELL, max_size=3)
    rows = draw(st.lists(row, max_size=6))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    data = newline.join(",".join(cells) for cells in [header] + rows).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@settings(max_examples=300, deadline=None, suppress_health_check=SLOW)
@given(csv_files() | st.binary(max_size=30), st.sampled_from(("ingest", "expected")))
@example(b"x1,x2\n0," + b"1" * 200_000 + b"\n", "ingest")
def test_ingest_exits_cleanly(content, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(content)
        model = str(FIXTURES / "and_model.json")
        code, out, message = _run([command, "--model", model, "--from-csv", str(path)])
        event(f"exit {code}")
        assert code in (0, 2), (code, content[:80], message)
        if code:
            event(next((kind for kind in CSV_ERRORS if kind in message), "other"))
            assert message.count("\n") == 1 and message.startswith(f"error: {path}: "), message
        else:
            assert message == ""
            json.loads(out)
            named, _ = load_model_file(model)
            want = csv_marginals(path, named.names, named.space.domains)
            assert [list(row) for row in ingest_csv(str(path), named)[0].probs] == want


# tree models over x1 in {0, 1}, x2 in {0, 1}, x3 in {0, 1, 2}
TREE_NAMED = parse_space(
    {"features": [
        {"name": "x1", "values": ["0", "1"]},
        {"name": "x2", "values": ["0", "1"]},
        {"name": "x3", "values": ["0", "1", "2"]},
    ]}
)


def _split(name, *children):
    return {"feature": name, "children": {str(v): child for v, child in enumerate(children)}}


TREES = [
    {"type": "tree", "root": {"leaf": "3/4"}},
    _fixture("and_tree_model.json")["model"],
    {"type": "tree", "root": _split(
        "x3",
        _split("x1", {"leaf": "-1/2"}, _split("x2", {"leaf": "0"}, {"leaf": "2"})),
        {"leaf": "1/3"},
        _split("x2", _split("x1", {"leaf": "5"}, {"leaf": "1/3"}), {"leaf": "-7/4"}),
    )},
    # children keyed out of domain order
    {"type": "tree", "root": {"feature": "x3", "children": {
        "2": {"leaf": "1"},
        "0": {"feature": "x2", "children": {"1": {"leaf": "-1"}, "0": {"leaf": "1/2"}}},
        "1": {"leaf": "0"},
    }}},
]


@st.composite
def relabelled(draw, docs):
    """A tree document with some feature names and leaf literals redrawn.

    A name is replaced by one of a feature with as many values, so the
    children still fit and a path may now repeat a feature.
    """
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    nodes = [doc["root"]]
    for node in nodes:
        if "leaf" in node:
            if draw(st.booleans()):
                literals = ("0", "1", "-2", "1/2", "-3/4", " 7 ", "2.5", "0010/4")
                node["leaf"] = draw(st.sampled_from(literals))
        else:
            if draw(st.booleans()):
                arity = len(node["children"])
                domains = TREE_NAMED.space.domains
                names = [name for name, domain in zip(TREE_NAMED.names, domains) if len(domain) == arity]
                node["feature"] = draw(st.sampled_from(names))
            nodes.extend(node["children"].values())
    return doc


def _read_tree(doc):
    """Leaf and Split nodes from a tree node document that parse_model accepted."""
    if "leaf" in doc:
        return Leaf(parse_rational(doc["leaf"]))
    feature = TREE_NAMED.index(doc["feature"])
    domain = TREE_NAMED.space.domains[feature]
    return Split(feature, tuple(_read_tree(doc["children"][v]) for v in domain))


@settings(max_examples=500, deadline=None, suppress_health_check=SLOW)
@given(mutated(TREES) | relabelled(TREES))
def test_tree_documents_compile_as_the_library_compiles_them(doc):
    try:
        model = parse_model(doc, TREE_NAMED)
    except SchemaError as exc:
        if "repeats along a path" not in str(exc):
            event("other error")
            return
        event("repeat")
        # the same first repeat as the library reports
        try:
            TreeModel(TREE_NAMED.space, _read_tree(doc["root"]))
        except ValueError as library:
            assert str(exc) == f"model: {library}"
            return
        raise AssertionError(f"the library accepts the tree: {exc}")
    if not isinstance(model, TreeModel):
        event("another model type")
        return
    event("tree")
    assert model._tree == TreeModel(TREE_NAMED.space, _read_tree(doc["root"]))._tree
