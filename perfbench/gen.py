"""Seeded input generator for the powerdex benchmark.

Everything a workload feeds to the program is built here from the seed:
models, distributions, instances, weight schemes and the files the CLI
workload reads.  Each model draws from its own ``random.Random`` keyed by
(workload, seed, index), so the same seed always gives the same inputs
and the size of a pool never shifts the models inside it.

The model families, their sizes and the op mix are fixed in ``SPEC`` and
must not be retuned to hide a regression: changing them changes the
benchmark.  Only the random content (tree shapes, split features, leaf
values, probabilities, instances, weights) depends on the seed; sizes
follow fixed schedules, so every seed gives a workload of the same shape.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Sequence

from powerdex import (
    AdditiveModel,
    EnsembleModel,
    FeatureSpace,
    Instance,
    Leaf,
    Model,
    ProductDistribution,
    Split,
    TableModel,
    TreeModel,
    format_rational,
)

DEFAULT_SEED = 1

# Fixed workload shapes.  A tuple of feature counts is a schedule: model j
# of the pool gets entry j modulo its length.  ``splits`` is the exact
# number of split nodes per tree and ``depth`` the depth cap.  Each model
# yields one op per entry of ``ops`` (cli-files: each cycle entry is one
# op).  A traced run uses the first ``trace_items`` models (cli-files: ops).
SPEC = {
    "interp-ensemble": {
        "n": (8, 20, 8, 12, 8, 20, 8, 14, 8, 20),
        "pool_models": 96,
        "trees": 3,
        "splits": 10,
        "depth": 5,
        "ops": ("shapley", "q-mix", "pair-mix"),
        "trace_items": 4,
    },
    "direct-paths": {
        "families": ("ensemble", "additive", "ensemble", "table", "ensemble", "additive"),
        "ensemble_n": (12, 22, 9, 16, 20, 14, 24, 8, 18, 11),
        "additive_n": (10, 24, 17, 8, 20, 13),
        "table_n": (6, 8, 5, 7),
        "pool_models": 72,
        "trees": 3,
        "splits": 10,
        "depth": 5,
        "ops": ("banzhaf", "binomial", "bernoulli", "marginal", "bernoulli-pair"),
        "trace_items": 6,
    },
    "cli-files": {
        "big_n": 16,
        "big_trees": (120, 200, 160, 240),
        "big_splits": 14,
        "attr_n": (10, 14, 12, 16),
        "attr_trees": 8,
        "csv_rows": (5000, 8000, 6500),
        "oracle_n": 13,
        "splits": 10,
        "depth": 5,
        # one cycle of op kinds; three of the 24 must fail with their exit code
        "cycle": (
            "expected", "attribute-banzhaf", "attribute-marginal", "expected",
            "ingest", "interact-bernoulli", "expected", "attribute-banzhaf",
            "bad-schema", "expected", "attribute-banzhaf", "attribute-marginal",
            "expected", "ingest", "interact-bernoulli", "expected",
            "attribute-banzhaf", "bad-scheme", "expected", "attribute-banzhaf",
            "attribute-marginal", "expected", "attribute-banzhaf", "over-budget",
        ),
        "pool_cycles": 2,
        "trace_items": 24,
    },
    "validate": {
        "n": (7, 6, 7, 8, 7, 6, 7, 8, 7, 6),
        "pool_models": 60,
        "trees": 2,
        "splits": 6,
        "depth": 4,
        "ops": ("oracle-shapley", "oracle-bernoulli", "converse"),
        "trace_items": 3,
    },
}

# Inputs left out of every workload, with the reason.
KNOWN_EXCLUSIONS = {
    "rational-literal-1e999999999": (
        "parse_rational accepts exponent literals and then builds 10**999999999; "
        "the call does not terminate in-process, so no run could finish"
    ),
}

# Depth of the chain tree in the known-defect probe that every run makes.
CHAIN_DEPTH = 1200


def rng_for(workload: str, seed: int, index) -> random.Random:
    """The generator for one item of a workload; string seeds hash stably."""
    return random.Random(f"{workload}/{seed}/{index}")


def feature_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def random_space(rng: random.Random, n: int) -> FeatureSpace:
    """n features, n // 2 of them (at random positions) 3-valued and the rest 2-valued.

    The fixed split keeps the outcome count, which drives oracle and table
    costs, the same for every seed.
    """
    three = set(rng.sample(range(n), n // 2))
    return FeatureSpace([("0", "1", "2") if i in three else ("0", "1") for i in range(n)])


def random_distribution(rng: random.Random, space: FeatureSpace) -> ProductDistribution:
    rows = []
    for domain in space.domains:
        weights = [rng.randint(1, 6) for _ in domain]
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return ProductDistribution(space, rows)


def random_instance(rng: random.Random, space: FeatureSpace) -> Instance:
    return Instance(space, tuple(rng.choice(domain) for domain in space.domains))


def random_leaf_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_tree(rng: random.Random, space: FeatureSpace, splits: int, depth: int) -> TreeModel:
    """A tree with exactly ``splits`` split nodes and depth at most ``depth``.

    Grown from a single leaf by splitting a random leaf above the depth cap
    on a random feature not yet on its path.  Splits alternate between 3-
    and 2-valued features where the path allows, so the node count, and
    with it the engine cost, barely depends on the seed.
    """
    # skeleton node: [feature or None, children, features on the path, depth]
    root = [None, [], frozenset(), 0]
    leaves = [root]
    for k in range(splits):
        open_leaves = [leaf for leaf in leaves if leaf[3] < depth and len(leaf[2]) < space.n]
        leaf = rng.choice(open_leaves)
        free = [i for i in range(space.n) if i not in leaf[2]]
        arity = 3 if k % 2 == 0 else 2
        feature = rng.choice([i for i in free if len(space.domains[i]) == arity] or free)
        path = leaf[2] | {feature}
        leaf[0] = feature
        leaf[1] = [[None, [], path, leaf[3] + 1] for _ in space.domains[feature]]
        leaves.remove(leaf)
        leaves.extend(leaf[1])

    def freeze(node):
        if node[0] is None:
            return Leaf(random_leaf_value(rng))
        return Split(node[0], tuple(freeze(child) for child in node[1]))

    return TreeModel(space, freeze(root))


def random_ensemble(
    rng: random.Random, space: FeatureSpace, trees: int, splits: int, depth: int
) -> EnsembleModel:
    return EnsembleModel(
        [
            (Fraction(rng.randint(1, 4), rng.randint(1, 3)), random_tree(rng, space, splits, depth))
            for _ in range(trees)
        ]
    )


def random_additive(rng: random.Random, space: FeatureSpace) -> AdditiveModel:
    bias = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    terms = [[random_leaf_value(rng) for _ in domain] for domain in space.domains]
    return AdditiveModel(space, bias, terms)


def random_table(rng: random.Random, space: FeatureSpace) -> TableModel:
    return TableModel(space, [random_leaf_value(rng) for _ in range(space.outcome_count())])


def random_theta(rng: random.Random) -> Fraction:
    """A rational strictly inside (0, 1) with a small denominator."""
    den = rng.randint(2, 7)
    return Fraction(rng.randint(1, den - 1), den)


def random_mix(rng: random.Random, parts: int) -> tuple[Fraction, ...]:
    """Positive rational weights summing to 1."""
    raw = [rng.randint(1, 5) for _ in range(parts)]
    return tuple(Fraction(r, sum(raw)) for r in raw)


def binomial_row(length: int, theta: Fraction) -> tuple[Fraction, ...]:
    """q_k = theta^k (1-theta)^(length-1-k), which sums to 1 under C(length-1, k)."""
    return tuple(theta**k * (1 - theta) ** (length - 1 - k) for k in range(length))


def mixed_row(length: int, thetas: Sequence[Fraction], mix: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """A convex combination of binomial rows: a valid weight row of any length.

    The index under this row is the same combination of Bernoulli indices,
    which the correctness gate computes on the independent direct path.
    """
    rows = [binomial_row(length, t) for t in thetas]
    row = tuple(sum((w * r[k] for w, r in zip(mix, rows)), Fraction(0)) for k in range(length))
    if sum(comb(length - 1, k) * q for k, q in enumerate(row)) != 1:
        raise ValueError("mixture weights must sum to 1")
    return row


@dataclass
class Case:
    """A model with the distribution and instance every op on it uses."""

    model: Model
    dist: ProductDistribution
    e: Instance

    @property
    def n(self) -> int:
        return self.model.space.n


def ensemble_case(rng: random.Random, n: int, trees: int, splits: int, depth: int) -> Case:
    space = random_space(rng, n)
    return Case(
        random_ensemble(rng, space, trees, splits, depth),
        random_distribution(rng, space),
        random_instance(rng, space),
    )


def family_case(rng: random.Random, family: str, n: int, spec: dict) -> Case:
    if family == "ensemble":
        return ensemble_case(rng, n, spec["trees"], spec["splits"], spec["depth"])
    space = random_space(rng, n)
    model = random_additive(rng, space) if family == "additive" else random_table(rng, space)
    return Case(model, random_distribution(rng, space), random_instance(rng, space))


# ---------------------------------------------------------------------------
# files for the CLI workload


def space_doc(names: Sequence[str], space: FeatureSpace) -> dict:
    return {
        "features": [
            {"name": name, "values": list(domain)} for name, domain in zip(names, space.domains)
        ]
    }


def _node_doc(names, space: FeatureSpace, node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": format_rational(node.value)}
    return {
        "feature": names[node.feature],
        "children": {
            value: _node_doc(names, space, child)
            for value, child in zip(space.domains[node.feature], node.children)
        },
    }


def model_doc(names: Sequence[str], model: Model) -> dict:
    if isinstance(model, TreeModel):
        return {"type": "tree", "root": _node_doc(names, model.space, model.root)}
    if isinstance(model, EnsembleModel):
        return {
            "type": "ensemble",
            "components": [
                {"weight": format_rational(w), "model": model_doc(names, m)}
                for w, m in model.components
            ],
        }
    raise TypeError(f"no file form for {type(model).__name__}")


def dist_doc(names: Sequence[str], dist: ProductDistribution) -> dict:
    return {
        "marginals": [
            {"feature": name, "probs": [format_rational(p) for p in row]}
            for name, row in zip(names, dist.probs)
        ]
    }


def instance_doc(names: Sequence[str], e: Instance) -> dict:
    return {name: e[i] for i, name in enumerate(names)}


def write_json(path: Path, doc) -> int:
    text = json.dumps(doc, indent=1) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text)


def write_model_file(path: Path, names: Sequence[str], model: Model) -> int:
    return write_json(path, {"space": space_doc(names, model.space), "model": model_doc(names, model)})


def write_csv(
    rng: random.Random, path: Path, names: Sequence[str], dist: ProductDistribution, rows: int
) -> list[list[int]]:
    """Rows drawn from ``dist``; returns the per-feature value counts written."""
    columns = [
        rng.choices(range(len(row)), weights=[float(p) for p in row], k=rows) for row in dist.probs
    ]
    counts = [[column.count(pos) for pos in range(len(row))] for column, row in zip(columns, dist.probs)]
    domains = dist.space.domains
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for record in zip(*columns):
            writer.writerow([domain[pos] for domain, pos in zip(domains, record)])
    return counts


def write_chain_file(path: Path, depth: int) -> None:
    """A legal tree of the given depth: a chain of splits over distinct binary features.

    Written as text because the json encoder itself recurses per level.
    """
    names = [f"c{i}" for i in range(depth)]
    space = {"features": [{"name": name, "values": ["0", "1"]} for name in names]}
    opens = "".join(
        f'{{"feature": "{name}", "children": {{"0": {{"leaf": "0"}}, "1": ' for name in names
    )
    root = opens + '{"leaf": "1"}' + "}}" * depth
    path.write_text(
        '{"space": ' + json.dumps(space) + ', "model": {"type": "tree", "root": ' + root + "}}\n",
        encoding="utf-8",
    )
