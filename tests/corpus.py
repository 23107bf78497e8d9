"""Shared fixtures: the AND family plus seeded random model corpora."""

from __future__ import annotations

import csv
import gc
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from hypothesis import strategies as st

import powerdex
from powerdex import (
    AdditiveModel,
    BernoulliWeights,
    EnsembleModel,
    FeatureSpace,
    Instance,
    ProductDistribution,
    SimpleWeights,
    TableModel,
    TreeModel,
)
from powerdex.models import Leaf, Split

THETA_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def and_space(n: int = 2) -> FeatureSpace:
    return FeatureSpace([("0", "1")] * n)


def and_table_model(space: FeatureSpace) -> TableModel:
    values = [
        Fraction(1) if all(v == "1" for v in omega) else Fraction(0)
        for omega in space.outcomes()
    ]
    return TableModel(space, values)


def and_tree_model(space: FeatureSpace) -> TreeModel:
    node = Leaf(Fraction(1))
    for feature in reversed(range(space.n)):
        node = Split(feature, (Leaf(Fraction(0)), node))
    return TreeModel(space, node)


def ones_instance(space: FeatureSpace) -> Instance:
    return Instance(space, ("1",) * space.n)


def or_table_model(space: FeatureSpace) -> TableModel:
    values = [
        Fraction(1) if any(v == "1" for v in omega) else Fraction(0)
        for omega in space.outcomes()
    ]
    return TableModel(space, values)


def constant_model(space: FeatureSpace, value: Fraction) -> TreeModel:
    return TreeModel(space, Leaf(value))


def csv_marginals(path, names, domains) -> list[list[Fraction]]:
    """Each feature's value frequencies in a CSV of observed rows, one cell at a time.

    The reference for the CLI's reader: the header names the columns in any
    order, and every cell is counted by its stripped value.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    features = [list(names).index(name.strip()) for name in header]
    counts = [dict.fromkeys(domain, 0) for domain in domains]
    for row in rows:
        for cell, feature in zip(row, features):
            counts[feature][cell.strip()] += 1
    return [[Fraction(counts[f][v], len(rows)) for v in domain] for f, domain in enumerate(domains)]


# Run after a child script: prints the process's own peak resident size in
# KiB.  VmHWM starts afresh at exec, where Linux has it; ru_maxrss keeps the
# peak of the process that spawned the child.
_PRINT_PEAK = """
import resource
try:
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_kib_of(script: str, timeout: int = 120) -> int:
    """Run ``script`` in a fresh interpreter on this package; its peak resident size in KiB."""
    src = str(Path(powerdex.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script + _PRINT_PEAK],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    peak = int(result.stdout)
    return peak // 1024 if sys.platform == "darwin" else peak  # ru_maxrss is in bytes there


def cycles_left_by(call) -> int:
    """The unreachable objects ``gc.collect()`` finds after ``call()``, run with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# seeded random generation


def random_space(rng: random.Random, n: int) -> FeatureSpace:
    return FeatureSpace(
        [tuple(str(v) for v in range(rng.choice((2, 3)))) for _ in range(n)]
    )


def random_distribution(rng: random.Random, space: FeatureSpace) -> ProductDistribution:
    rows = []
    for domain in space.domains:
        # occasional zero weights exercise zero-probability marginal values
        weights = [rng.randint(0, 6) if rng.random() < 0.15 else rng.randint(1, 6)
                   for _ in domain]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return ProductDistribution(space, rows)


def _random_leaf(rng: random.Random) -> Leaf:
    return Leaf(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def random_tree_model(
    rng: random.Random, space: FeatureSpace, max_depth: int = 3
) -> TreeModel:
    def build(available: frozenset, depth: int):
        split_p = 0.85 if depth == 0 else 0.55 / depth
        if not available or depth >= max_depth or rng.random() > split_p:
            return _random_leaf(rng)
        feature = rng.choice(sorted(available))
        remaining = available - {feature}
        return Split(
            feature,
            tuple(build(remaining, depth + 1) for _ in space.domains[feature]),
        )

    root = build(frozenset(range(space.n)), 0)
    if isinstance(root, Leaf):
        feature = rng.randrange(space.n)
        root = Split(
            feature, tuple(_random_leaf(rng) for _ in space.domains[feature])
        )
    return TreeModel(space, root)


def random_additive_model(rng: random.Random, space: FeatureSpace) -> AdditiveModel:
    bias = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    terms = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in domain]
        for domain in space.domains
    ]
    return AdditiveModel(space, bias, terms)


MODEL_KINDS = ("table", "additive", "tree", "ensemble")


def random_model_of_kind(kind: str, rng: random.Random, space: FeatureSpace):
    if kind == "table":
        return TableModel.tabulate(random_tree_model(rng, space))
    if kind == "additive":
        return random_additive_model(rng, space)
    if kind == "tree":
        return random_tree_model(rng, space)
    return EnsembleModel(
        [(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), random_tree_model(rng, space))
         for _ in range(3)]
    )


def random_instance(rng: random.Random, space: FeatureSpace) -> Instance:
    return Instance(space, tuple(rng.choice(domain) for domain in space.domains))


def random_simple_weights(
    rng: random.Random, n: int, positive_q0: bool = False
) -> SimpleWeights:
    while True:
        raw = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)]
        if positive_q0 and raw[0] == 0:
            raw[0] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if any(raw):
            return SimpleWeights.normalized(raw)


def random_interaction_row(rng: random.Random, n: int, m: int) -> list[Fraction]:
    while True:
        raw = [Fraction(rng.randint(0, 6)) for _ in range(n - m + 1)]
        total = sum(comb(n - m, k) * v for k, v in enumerate(raw))
        if total:
            return [v / total for v in raw]


def random_grid_theta(rng: random.Random, n: int) -> BernoulliWeights:
    return BernoulliWeights([rng.choice(THETA_GRID) for _ in range(n)])


@dataclass(frozen=True)
class Case:
    model: TreeModel
    dist: ProductDistribution
    e: Instance

    @property
    def n(self) -> int:
        return self.model.space.n


def build_corpus(seed: int = 20250808, per_n: int = 30, ns=range(2, 9)) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for n in ns:
        for _ in range(per_n):
            space = random_space(rng, n)
            cases.append(
                Case(
                    model=random_tree_model(rng, space),
                    dist=random_distribution(rng, space),
                    e=random_instance(rng, space),
                )
            )
    return cases


# ---------------------------------------------------------------------------
# hypothesis strategies: rationals over mixed denominators, rows with zero
# entries and point masses, every model kind and nested ensembles


def rationals(bound: int = 9):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 12))


def component_weights():
    return st.just(Fraction(0)) | rationals()


@st.composite
def small_spaces(draw, max_n: int = 4) -> FeatureSpace:
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_n))
    return FeatureSpace([tuple(str(v) for v in range(size)) for size in sizes])


@st.composite
def sparse_distributions(draw, space: FeatureSpace) -> ProductDistribution:
    # small weights over a row total, so a row's reduced entries have
    # different denominators; a row may hold zeros or be a point mass
    rows = []
    for domain in space.domains:
        size = len(domain)
        weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
        rows.append([Fraction(w, sum(weights)) for w in weights])
    return ProductDistribution(space, rows)


def instances(space: FeatureSpace):
    return st.tuples(*(st.sampled_from(d) for d in space.domains)).map(
        lambda values: Instance(space, values)
    )


@st.composite
def models(draw, space: FeatureSpace, depth: int = 2):
    """A table, additive, tree or ensemble model; ensembles nest ``depth`` deep."""
    kinds = MODEL_KINDS if depth else MODEL_KINDS[:-1]
    kind = draw(st.sampled_from(kinds))
    if kind == "table":
        size = space.outcome_count()
        return TableModel(space, draw(st.lists(rationals(), min_size=size, max_size=size)))
    if kind == "additive":
        terms = [
            draw(st.lists(rationals(), min_size=len(d), max_size=len(d)))
            for d in space.domains
        ]
        return AdditiveModel(space, draw(rationals()), terms)
    if kind == "tree":
        return TreeModel(space, _drawn_tree(draw, space, frozenset(range(space.n))))
    components = st.tuples(component_weights(), models(space, depth - 1))
    return EnsembleModel(draw(st.lists(components, min_size=1, max_size=3)))


def _drawn_tree(draw, space: FeatureSpace, free: frozenset):
    if not free or draw(st.booleans()):
        return Leaf(draw(rationals()))
    feature = draw(st.sampled_from(sorted(free)))
    rest = free - {feature}
    return Split(feature, tuple(_drawn_tree(draw, space, rest) for _ in space.domains[feature]))
