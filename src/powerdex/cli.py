"""Command-line front end: JSON models in, deterministic JSON reports out.

Subcommands: attribute, interact, oracle-check, converse, expected,
ingest.  All rationals cross the wire as strings ("3/8"), never JSON
floats; decimal renderings are advisory only.  Identical inputs produce
byte-identical output.

Exit codes: 0 success (oracle-check: all equal; converse: round-trip
matches), 1 comparison mismatch, 2 schema violation, 3 scheme or space
mismatch, 4 a stated size bound exceeded (the oracle budget, the 2^m
interaction-set limit, or a result of more than 4300 digits).
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence, Union

from .core import (
    BudgetExceededError,
    Coalition,
    FeatureSpace,
    Instance,
    ProductDistribution,
    SpaceMismatchError,
    WeightError,
    decimal_string,
    format_rational,
    parse_rational,
)
from .converse import (
    ConverseInapplicableError,
    ConverseSystem,
    index_engine_oracle,
    recover_expectation_detailed,
)
from .indices import (
    PATH_BERNOULLI,
    BernoulliWeights,
    SimpleWeights,
    _engine_calls,
    attribute_all,
    bernoulli_indices,
    simple_indices,
)
from .interaction import (
    InteractionWeights,
    PATH_BIVARIATE,
    compute_interaction_bernoulli,
    compute_interaction_simple,
)
from .models import (
    AdditiveModel,
    EnsembleModel,
    Model,
    TREE_DEPTH_LIMIT,
    TableModel,
    TreeModel,
)
from .oracle import _index_sum, _integer_table, brute_coalition_sums

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SCHEMA = 2
EXIT_SCHEME = 3
EXIT_BUDGET = 4


class SchemaError(Exception):
    """An input file or descriptor violates its schema."""


# ---------------------------------------------------------------------------
# input parsing


@dataclass(frozen=True)
class NamedSpace:
    """A feature space together with the feature names used in files."""

    names: tuple[str, ...]
    space: FeatureSpace

    @functools.cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):  # TypeError: a JSON list or object
            raise SchemaError(f"unknown feature name {name!r}") from None


def _require(obj, key, context):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{context}: missing required field {key!r}")
    return obj[key]


def _rational(text, context) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from None


def _rationals(values, context: str) -> list[Fraction]:
    if not isinstance(values, list):
        raise SchemaError(f"{context} must be a list of rationals")
    return [_rational(v, f"{context}[{k}]") for k, v in enumerate(values)]


@contextmanager
def _opened(path: str, mode: str, **kwargs):
    """``open(path, mode)``, with any OSError as a SchemaError naming the path."""
    try:
        with open(path, mode, **kwargs) as handle:
            yield handle
    except OSError as exc:
        verb = "write" if "w" in mode else "read"
        raise SchemaError(f"cannot {verb} {path}: {exc}") from None


def _parse_json(data, what: str):
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:  # the bytes of a file, in the encoding json detected
        raise SchemaError(
            f"{what} is not valid {exc.encoding.upper()}: {exc.reason} at byte {exc.start}"
        ) from None
    except ValueError:  # the only other ValueError json raises: an over-long integer
        raise SchemaError(
            f"{what} holds an integer longer than the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        # the json parser recurses once per nesting level
        raise SchemaError(f"{what} nests too deeply to parse") from None


def _load_json(path: str):
    with _opened(path, "rb") as handle:
        data = handle.read()
    return _parse_json(data, path)


@contextmanager
def _model_nesting():
    """Room for the json parser to decode a model file, whatever the caller's depth.

    The parser recurses about twice per split, so the decode may go
    2 * TREE_DEPTH_LIMIT + 100 levels below the caller; the recursion limit
    is raised, never lowered, and restored on exit.  Only the expected-value
    walk and ``TreeModel(space, root)`` still recurse once per split (the
    gap walk behind ``attribute`` is a loop), from about the same depth
    under the restored limit, so the allowance stays below twice the levels
    left there.  A file nested more deeply still fails with a
    RecursionError, before the C stack is at risk.
    """
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    levels = min(2 * TREE_DEPTH_LIMIT + 100, 2 * (limit - depth) - 64)
    sys.setrecursionlimit(max(limit, depth + levels))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@contextmanager
def _collector_paused():
    """CPython's cyclic collector off for a bulk build, then as the caller had it.

    The JSON documents, compiled trees and CSV blocks the CLI builds hold
    no reference cycles, so a collection that runs while they grow only
    walks the half-built structure.  ``gc.disable`` is process-wide: other
    threads see it too until the block exits.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_space(doc) -> NamedSpace:
    features = _require(doc, "features", "space")
    if not isinstance(features, list) or not features:
        raise SchemaError("space.features must be a nonempty list")
    names = []
    domains = []
    for idx, feat in enumerate(features):
        name = _require(feat, "name", f"space.features[{idx}]")
        values = _require(feat, "values", f"space.features[{idx}]")
        if not isinstance(name, str):
            raise SchemaError(f"space.features[{idx}].name must be a string")
        if not isinstance(values, list) or not values:
            raise SchemaError(f"space.features[{idx}].values must be a nonempty list")
        if not all(isinstance(v, str) for v in values):
            raise SchemaError(f"space.features[{idx}].values must be strings")
        if len(set(values)) != len(values):
            raise SchemaError(f"space.features[{idx}].values contains duplicates")
        names.append(name)
        domains.append(values)
    if len(set(names)) != len(names):
        raise SchemaError("space.features contains duplicate feature names")
    return NamedSpace(tuple(names), FeatureSpace(domains))


def _parse_tree(root, named: NamedSpace, context: str, literals: dict) -> TreeModel:
    """A tree model document compiled in one pass into ``TreeModel``'s stored form.

    The nodes are read depth first, each split's children in domain order,
    with an explicit stack of the open splits.  The checks and their
    messages are those of reading ``Leaf``/``Split`` nodes and building
    ``TreeModel(space, root)``: a node's own errors come in tree order, and
    a feature repeated along a path, the library's check, is reported only
    once the whole tree has read cleanly.  A node's context string is built
    only for an error.  ``literals`` maps each leaf literal already parsed
    in this file to its Fraction.
    """
    domains = named.space.domains
    # each open split is [feature, an iterator over its children's documents,
    # its compiled children, its subtree's feature mask, its path's feature
    # mask]; the first entry stands in as the root's parent
    stack: list[list] = [[None, iter((root,)), [], 0, 0]]
    repeat = None  # the first feature repeated along a path

    def where() -> str:
        # each open split is reading its child at the count compiled so far;
        # a long path keeps its first and last 4 steps
        steps = [f".children[{domains[f][len(kids)]!r}]" for f, _, kids, _, _ in stack[1:]]
        if len(steps) > 8:
            steps[4:-4] = [f"<{len(steps) - 8} more steps>"]
        return f"{context}.root" + "".join(steps)

    while True:
        frame = stack[-1]
        kids = frame[2]
        for node in frame[1]:
            if node.__class__ is not dict:
                raise SchemaError(f"{where()}: tree node must be an object")
            if "leaf" in node:
                text = node["leaf"]
                compiled = literals.get(text) if text.__class__ is str else None
                if compiled is None:
                    try:
                        compiled = parse_rational(text)
                    except ValueError as exc:
                        raise SchemaError(f"{where()}.leaf: {exc}") from None
                    if text.__class__ is str:
                        literals[text] = compiled
                kids.append(compiled)
                continue
            if len(stack) > TREE_DEPTH_LIMIT:
                raise SchemaError(
                    f"{where()}: tree is deeper than the limit of {TREE_DEPTH_LIMIT} splits"
                )
            if "feature" not in node or "children" not in node:
                key = "feature" if "feature" not in node else "children"
                raise SchemaError(f"{where()}: missing required field {key!r}")
            name = node["feature"]
            feature = named.index(name)
            domain = domains[feature]
            children = node["children"]
            if children.__class__ is not dict:
                raise SchemaError(f"{where()}.children must be an object keyed by value")
            if tuple(children) == domain:  # keyed in domain order, as files usually are
                docs = iter(children.values())
            else:
                unknown = set(children) - set(domain)
                if unknown:
                    raise SchemaError(
                        f"{where()}.children: {sorted(unknown)!r} are not values of feature {name!r}"
                    )
                missing = set(domain) - set(children)
                if missing:
                    raise SchemaError(
                        f"{where()}.children: missing children for values {sorted(missing)!r} "
                        f"of feature {name!r}"
                    )
                docs = map(children.__getitem__, domain)
            bit = 1 << feature
            path = frame[4]
            if path & bit and repeat is None:
                repeat = feature
            stack.append([feature, docs, [], bit, path | bit])
            break
        else:
            # every child is compiled: so is the split, as its parent's child
            stack.pop()
            if not stack:
                break
            feature, _, _, mask, _ = frame
            parent = stack[-1]
            parent[2].append((feature, tuple(kids), mask))
            parent[3] |= mask
    if repeat is not None:
        raise SchemaError(f"{context}: feature {repeat} repeats along a path")
    return TreeModel._from_compiled(named.space, kids[0])


def _feature_rows(
    entries, named: NamedSpace, field: str, key: str, noun: str, echo_values: bool = False
) -> list[list[Fraction]]:
    """One row per feature from ``[{"feature": name, key: [one noun per value]}, ...]``.

    With ``echo_values`` an entry may also list its feature's domain as ``values``.
    """
    if not isinstance(entries, list):
        raise SchemaError(f"{field} must be a list")
    rows: list[Optional[list[Fraction]]] = [None] * named.space.n
    for idx, entry in enumerate(entries):
        where = f"{field}[{idx}]"
        name = _require(entry, "feature", where)
        items = _require(entry, key, where)
        feature = named.index(name)
        if rows[feature] is not None:
            raise SchemaError(f"{field}: duplicate entry for feature {name!r}")
        domain = named.space.domains[feature]
        if echo_values and "values" in entry and entry["values"] != list(domain):
            raise SchemaError(f"{where}.values does not match the declared domain of {name!r}")
        if not isinstance(items, list) or len(items) != len(domain):
            raise SchemaError(
                f"{where}.{key} must list one {noun} per domain value of {name!r} "
                f"({len(domain)})"
            )
        rows[feature] = _rationals(items, f"{where}.{key}")
    for feature, row in enumerate(rows):
        if row is None:
            raise SchemaError(f"{field}: missing entry for feature {named.names[feature]!r}")
    return rows


def parse_model(
    doc, named: NamedSpace, context: str = "model", literals: Optional[dict] = None
) -> Model:
    """The model of a document; ``literals`` memoizes leaf literals across its trees."""
    if literals is None:
        literals = {}
    kind = _require(doc, "type", context)
    space = named.space
    if kind == "table":
        values = _require(doc, "values", context)
        if not isinstance(values, list):
            raise SchemaError(f"{context}.values must be a list")
        expected = space.outcome_count()
        if len(values) != expected:
            raise SchemaError(
                f"{context}.values has {len(values)} entries; the full domain has {expected}"
            )
        return TableModel(space, _rationals(values, f"{context}.values"))
    if kind == "additive":
        bias = _rational(doc.get("bias", "0"), f"{context}.bias")
        terms = _require(doc, "terms", context)
        rows = _feature_rows(terms, named, f"{context}.terms", "values", "value")
        return AdditiveModel(space, bias, rows)
    if kind == "tree":
        return _parse_tree(_require(doc, "root", context), named, context, literals)
    if kind == "ensemble":
        components_doc = _require(doc, "components", context)
        if not isinstance(components_doc, list) or not components_doc:
            raise SchemaError(f"{context}.components must be a nonempty list")
        components = []
        for idx, comp in enumerate(components_doc):
            weight = _rational(
                _require(comp, "weight", f"{context}.components[{idx}]"),
                f"{context}.components[{idx}].weight",
            )
            inner = parse_model(
                _require(comp, "model", f"{context}.components[{idx}]"),
                named,
                f"{context}.components[{idx}].model",
                literals,
            )
            components.append((weight, inner))
        return EnsembleModel(components)
    raise SchemaError(f"{context}.type must be one of table, additive, tree, ensemble")


def load_model_file(path: str) -> tuple[NamedSpace, Model]:
    with _collector_paused():
        with _model_nesting():
            doc = _load_json(path)
        named = parse_space(_require(doc, "space", path))
        model = parse_model(_require(doc, "model", path), named)
        del doc  # freed before the collector resumes, so it does not scan the document
    return named, model


def parse_distribution(doc, named: NamedSpace, context: str) -> ProductDistribution:
    if not isinstance(doc, dict):
        raise SchemaError(f"{context} must be a JSON object")
    space = named.space
    if doc.get("uniform") is True:
        return ProductDistribution.uniform(space)
    marginals = _require(doc, "marginals", context)
    rows = _feature_rows(
        marginals, named, f"{context}.marginals", "probs", "probability", echo_values=True
    )
    try:
        return ProductDistribution(space, rows)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from None


def parse_instance(doc, named: NamedSpace, context: str = "instance") -> Instance:
    if not isinstance(doc, dict):
        raise SchemaError(f"{context} must be an object mapping feature names to values")
    unknown = set(doc) - set(named.names)
    if unknown:
        raise SchemaError(f"{context}: unknown feature names {sorted(unknown)!r}")
    values = []
    for i, name in enumerate(named.names):
        if name not in doc:
            raise SchemaError(f"{context}: missing value for feature {name!r}")
        value = doc[name]
        if value not in named.space.domains[i]:
            raise SchemaError(
                f"{context}: value {value!r} is not in the domain of feature {name!r}"
            )
        values.append(value)
    return Instance(named.space, values)


Scheme = Union[SimpleWeights, BernoulliWeights]
InteractionScheme = Union[InteractionWeights, BernoulliWeights]

_PRESETS = ("shapley", "banzhaf", "binomial", "dictatorial", "marginal")


def _parse_bernoulli(doc, context: str) -> BernoulliWeights:
    """The theta vector of a bernoulli scheme, for a feature or a set alike."""
    return BernoulliWeights(_rationals(_require(doc, "theta", context), f"{context}.theta"))


def _scheme_kind(doc, kinds: Sequence[str], context: str) -> str:
    """The one field of ``kinds`` that the scheme object names, or a SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{context} must be a JSON object")
    named = [kind for kind in kinds if kind in doc]
    if len(named) != 1:
        raise SchemaError(f"{context} must contain exactly one of: {', '.join(kinds)}")
    return named[0]


def parse_scheme(doc, n: int, context: str = "scheme") -> Scheme:
    kind = _scheme_kind(doc, ("preset", "q", "bernoulli"), context)
    if kind == "preset":
        preset = doc["preset"]
        if preset not in _PRESETS:
            raise SchemaError(f"{context}.preset must be one of {', '.join(_PRESETS)}")
        if preset == "binomial":
            theta = _rational(_require(doc, "theta", context), f"{context}.theta")
            return SimpleWeights.binomial(n, theta)
        if "theta" in doc:
            raise SchemaError(f"{context}.theta is only valid with the binomial preset")
        return getattr(SimpleWeights, preset)(n)
    if kind == "q":
        return SimpleWeights.from_values(_rationals(doc["q"], f"{context}.q"))
    return _parse_bernoulli(doc["bernoulli"], f"{context}.bernoulli")


def parse_interaction_scheme(doc, n: int, context: str = "scheme") -> InteractionScheme:
    if _scheme_kind(doc, ("q", "bernoulli"), context) == "q":
        table = doc["q"]
        if not isinstance(table, dict):
            raise SchemaError(
                f"{context}.q must be an object with fields 'm' and 'values'"
            )
        m = _require(table, "m", f"{context}.q")
        values = _require(table, "values", f"{context}.q")
        if not isinstance(m, int) or isinstance(m, bool):
            raise SchemaError(f"{context}.q.m must be an integer")
        return InteractionWeights.single(n, m, _rationals(values, f"{context}.q.values"))
    return _parse_bernoulli(doc["bernoulli"], f"{context}.bernoulli")


def scheme_descriptor(scheme) -> dict:
    """Canonical JSON echo of a parsed scheme."""
    if isinstance(scheme, SimpleWeights):
        if scheme.preset == "binomial":
            return {"preset": "binomial", "theta": format_rational(scheme.theta)}
        if scheme.preset is not None:
            return {"preset": scheme.preset}
        return {"q": [format_rational(v) for v in scheme.q]}
    if isinstance(scheme, BernoulliWeights):
        return {"bernoulli": {"theta": [format_rational(t) for t in scheme.theta]}}
    if isinstance(scheme, InteractionWeights):
        return {"q": {"m": scheme.m, "values": [format_rational(v) for v in scheme.q]}}
    raise TypeError(f"unsupported scheme {scheme!r}")


_CSV_BLOCK_ROWS = 1024


def ingest_csv(path: str, named: NamedSpace) -> tuple[ProductDistribution, int]:
    """Empirical per-feature marginals from a CSV of observed rows.

    The rows are counted a block at a time: each column's raw cells with a
    ``Counter``, then each distinct cell's stripped value looked up in its
    domain once.  The errors and the order they come in are those of
    reading row by row, since a block's rows are checked before a read
    error met after them is raised.
    """
    space = named.space
    with _opened(path, "r", newline="", encoding="utf-8-sig") as handle, _collector_paused():
        blocks = _csv_blocks(handle, path)
        first = next(blocks, None)
        if first is None:
            raise SchemaError(f"{path}: file is empty")
        header = [h.strip() for h in first[0]]
        if sorted(header) != sorted(named.names):
            raise SchemaError(
                f"{path}: header {header!r} must contain exactly the feature names "
                f"{list(named.names)!r}"
            )
        columns = [named.index(h) for h in header]
        width = len(header)
        counts = [[0] * len(domain) for domain in space.domains]
        rows = 0
        line = 2  # the row number of the block's first record
        for block in chain((first[1:],), blocks):
            clean = next((k for k, record in enumerate(block) if len(record) != width), len(block))
            checked = block[:clean]  # the rows before the first with a wrong cell count
            for cells, feature in zip(zip(*checked), columns):
                for cell, count in Counter(cells).items():
                    try:
                        counts[feature][space.position(feature, cell.strip())] += count
                    except ValueError:  # report the first such cell, as a row-by-row read would
                        _check_cells(path, named, checked, columns, line)
            if clean < len(block):
                raise SchemaError(
                    f"{path}: row {line + clean} has {len(block[clean])} cells, expected {width}"
                )
            rows += len(block)
            line += len(block)
    if rows == 0:
        raise SchemaError(f"{path}: no data rows")
    probs = [[Fraction(c, rows) for c in row] for row in counts]
    return ProductDistribution(space, probs), rows


def _check_cells(path: str, named: NamedSpace, records, columns, line: int) -> None:
    """A SchemaError for the first cell outside its domain, in row then header order.

    ``records`` are the CSV rows from row number ``line`` on.
    """
    for record in records:
        for cell, feature in zip(record, columns):
            value = cell.strip()
            if value not in named.space.domains[feature]:
                raise SchemaError(
                    f"{path}: row {line}, column {named.names[feature]!r}: "
                    f"value {value!r} is not a declared domain value"
                )
        line += 1


def _csv_blocks(handle, path: str):
    """The records of an open CSV file, in lists of at most ``_CSV_BLOCK_ROWS``.

    An overlong cell or a bad byte is a SchemaError, raised only after the
    records read before it have been yielded.
    """
    reader = csv.reader(handle)
    block: list = []
    error = None
    try:
        for record in reader:
            block.append(record)
            if len(block) == _CSV_BLOCK_ROWS:
                yield block
                block = []
    except csv.Error as exc:  # a cell over the csv module's field limit
        error = SchemaError(f"{path}: row {reader.line_num}: {exc}")
    except UnicodeDecodeError:
        error = SchemaError(f"{path}: row {_undecodable_row(path)} is not valid UTF-8")
    if block:
        yield block
    if error is not None:
        raise error


def _undecodable_row(path: str) -> int:
    """The line, counted from 1, of the first bytes of a file that are not UTF-8."""
    with _opened(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1


# ---------------------------------------------------------------------------
# report helpers


def _fmt_all(values: Sequence[Fraction]) -> list[str]:
    return [format_rational(v) for v in values]


def _decimals(values: Sequence[Fraction]) -> list[str]:
    return [decimal_string(v) for v in values]


def _instance_echo(named: NamedSpace, e: Instance) -> dict:
    return {name: e[i] for i, name in enumerate(named.names)}


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with _opened(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_inline_or_file(raw: str, what: str):
    text = raw.strip()
    if text.startswith("{"):
        return _parse_json(text, f"inline {what}")
    return _load_json(raw)


def _load_distribution(args, named: NamedSpace) -> ProductDistribution:
    if (args.dist is None) == (args.from_csv is None):
        raise SchemaError("exactly one of --dist and --from-csv is required")
    if args.dist is not None:
        return parse_distribution(_load_json(args.dist), named, args.dist)
    return ingest_csv(args.from_csv, named)[0]


def _load_common(args) -> tuple[NamedSpace, Model, ProductDistribution, Instance]:
    named, model = load_model_file(args.model)
    dist = _load_distribution(args, named)
    e = parse_instance(_load_inline_or_file(args.instance, "instance"), named)
    return named, model, dist, e


def _parse_set(arg: str, named: NamedSpace) -> Coalition:
    names = [part.strip() for part in arg.split(",") if part.strip()]
    if not names:
        raise SchemaError("--set needs at least one feature name")
    if len(set(names)) != len(names):
        raise SchemaError("--set contains duplicate feature names")
    return Coalition.from_members(named.index(name) for name in names)


# ---------------------------------------------------------------------------
# subcommands


def cmd_attribute(args) -> int:
    named, model, dist, e = _load_common(args)
    scheme = parse_scheme(_load_inline_or_file(args.scheme, "scheme"), named.space.n)
    report = attribute_all(model, dist, e, scheme, coefficient_sums=args.diag)
    doc = {
        "command": "attribute",
        "features": list(named.names),
        "instance": _instance_echo(named, e),
        "scheme": scheme_descriptor(scheme),
        "path": report.path,
        "engine_calls": list(report.engine_calls),
        "values": _fmt_all(report.values),
        "decimals": _decimals(report.values),
    }
    if report.coefficient_sums is not None:
        doc["coefficient_sums"] = [_fmt_all(sums) for sums in report.coefficient_sums]
    _emit(doc, args.out)
    return EXIT_OK


def _interaction(model, dist, e, a_set, scheme) -> tuple[Fraction, str]:
    """The interaction index of ``a_set`` and the path that computed it."""
    if isinstance(scheme, InteractionWeights):
        return compute_interaction_simple(model, dist, e, a_set, scheme), PATH_BIVARIATE
    return compute_interaction_bernoulli(model, dist, e, a_set, scheme), PATH_BERNOULLI


def cmd_interact(args) -> int:
    named, model, dist, e = _load_common(args)
    a_set = _parse_set(args.set, named)
    scheme = parse_interaction_scheme(
        _load_inline_or_file(args.scheme, "scheme"), named.space.n
    )
    value, path = _interaction(model, dist, e, a_set, scheme)
    doc = {
        "command": "interact",
        "features": list(named.names),
        "instance": _instance_echo(named, e),
        "set": [named.names[i] for i in a_set],
        "scheme": scheme_descriptor(scheme),
        "path": path,
        "engine_calls": _engine_calls(path, named.space.n, len(a_set)),
        "value": format_rational(value),
        "decimal": decimal_string(value),
    }
    if args.diag and isinstance(scheme, InteractionWeights):
        m = len(a_set)
        doc["grid"] = {"z": _fmt_all(range(named.space.n - m + 1)), "y": _fmt_all(range(m + 1))}
    _emit(doc, args.out)
    return EXIT_OK


def cmd_expected(args) -> int:
    named, model = load_model_file(args.model)
    value = model.expected_value(_load_distribution(args, named))
    _emit(
        {
            "command": "expected",
            "value": format_rational(value),
            "decimal": decimal_string(value),
        },
        args.out,
    )
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    named, model, dist, e = _load_common(args)
    # the scheme is fully validated before any comparison runs
    a_set = _parse_set(args.set, named) if args.set is not None else None
    parse = parse_scheme if a_set is None else parse_interaction_scheme
    scheme = parse(_load_inline_or_file(args.scheme, "scheme"), named.space.n)

    checks = []

    def record(quantity: str, fast: Fraction, brute: Fraction):
        checks.append(
            {
                "quantity": quantity,
                "engine": format_rational(fast),
                "oracle": format_rational(brute),
                "equal": fast == brute,
            }
        )

    nums, den = _integer_table(model, dist, e)  # checks the budget before any engine work
    record("expected-value", model.expected_value(dist), Fraction(nums[0], den))  # E[F|{}]
    doc = {"command": "oracle-check"}
    if a_set is not None:
        label = ",".join(named.names[i] for i in a_set)
        fast_all = [_interaction(model, dist, e, a_set, scheme)[0]]
        targets = [(f"interaction-index[{label}]", a_set)]
        doc["set"] = [named.names[i] for i in a_set]
    else:
        simple = isinstance(scheme, SimpleWeights)
        fast_all = (simple_indices if simple else bernoulli_indices)(model, dist, e, scheme)
        targets = [(f"index[{name}]", Coalition.singleton(a)) for a, name in enumerate(named.names)]
    for fast, (quantity, target) in zip(fast_all, targets):  # the fast path checked them
        record(quantity, fast, _index_sum(nums, den, named.space.n, target, scheme))
    doc["scheme"] = scheme_descriptor(scheme)
    doc["checks"] = checks
    doc["all_equal"] = all(c["equal"] for c in checks)
    _emit(doc, args.out)
    return EXIT_OK if doc["all_equal"] else EXIT_MISMATCH


def cmd_converse(args) -> int:
    named, model, dist, e = _load_common(args)
    scheme = parse_scheme(_load_inline_or_file(args.scheme, "scheme"), named.space.n)
    if not isinstance(scheme, SimpleWeights):
        raise WeightError("the converse reduction needs a cardinality-based scheme")
    system = ConverseSystem(scheme)
    oracle = index_engine_oracle(model, e, scheme)
    diagnostics = recover_expectation_detailed(
        system, oracle, dist, e, model.evaluate(e)
    )
    direct = model.expected_value(dist)
    doc = {
        "command": "converse",
        "features": list(named.names),
        "instance": _instance_echo(named, e),
        "scheme": scheme_descriptor(scheme),
        "nodes": _fmt_all(diagnostics.nodes),
        "theta_samples": _fmt_all(diagnostics.theta_samples),
        "recovered_expectation": format_rational(diagnostics.expected_value),
        "direct_expectation": format_rational(direct),
        "recovery_matches_engine": diagnostics.expected_value == direct,
        "coefficients": _fmt_all(diagnostics.coefficients),
    }
    try:
        sums = brute_coalition_sums(model, dist, e)
    except BudgetExceededError:
        sums = None
    if sums is not None:
        doc["coalition_sums_oracle"] = _fmt_all(sums)
        doc["coefficients_match_oracle"] = list(diagnostics.coefficients) == list(sums)
    _emit(doc, args.out)
    ok = doc["recovery_matches_engine"] and doc.get("coefficients_match_oracle", True)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_ingest(args) -> int:
    named, _model = load_model_file(args.model)
    dist, _rows = ingest_csv(args.from_csv, named)
    doc = {
        "marginals": [
            {
                "feature": name,
                "values": list(named.space.domains[i]),
                "probs": _fmt_all(dist.probs[i]),
            }
            for i, name in enumerate(named.names)
        ]
    }
    _emit(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerdex",
        description="Exact power-index feature attribution over finite feature domains.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, instance=True, scheme=True, dist=True):
        p.add_argument("--model", required=True, help="model JSON file")
        if dist:
            p.add_argument("--dist", help="distribution JSON file")
            p.add_argument(
                "--from-csv", dest="from_csv", help="CSV file of observed rows"
            )
        if instance:
            p.add_argument(
                "--instance", required=True, help="instance JSON (inline or a file path)"
            )
        if scheme:
            p.add_argument(
                "--scheme", required=True, help="scheme JSON (inline or a file path)"
            )
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("attribute", help="per-feature indices for one instance")
    add_common(p)
    p.add_argument("--diag", action="store_true", help="include extra diagnostics")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("interact", help="interaction index for a feature set")
    add_common(p)
    p.add_argument("--diag", action="store_true", help="include extra diagnostics")
    p.add_argument("--set", required=True, help="comma-separated feature names")
    p.set_defaults(func=cmd_interact)

    p = sub.add_parser("oracle-check", help="compare fast paths against brute force")
    add_common(p)
    p.add_argument("--set", help="check an interaction index for this feature set")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("converse", help="recover E[F] from the index oracle (self-check)")
    add_common(p)
    p.set_defaults(func=cmd_converse)

    p = sub.add_parser("expected", help="expected value of the model")
    add_common(p, instance=False, scheme=False)
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("ingest", help="estimate empirical marginals from a CSV")
    p.add_argument("--model", required=True, help="model JSON file (supplies the space)")
    p.add_argument("--from-csv", dest="from_csv", required=True, help="CSV file")
    p.add_argument("--out", help="write the distribution here instead of stdout")
    p.set_defaults(func=cmd_ingest)

    return parser


# the exit code of each error a subcommand may raise, first match wins
_EXIT_CODES = {
    SchemaError: EXIT_SCHEMA,
    WeightError: EXIT_SCHEME,
    SpaceMismatchError: EXIT_SCHEME,
    ConverseInapplicableError: EXIT_SCHEME,
    BudgetExceededError: EXIT_BUDGET,
    ValueError: EXIT_SCHEMA,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
