"""Model classes with exact polynomial-time expected-value engines.

Every model exposes two primitives: ``evaluate`` on a full instance and
``expected_value`` under a product distribution.  The expected-value
engine is the workhorse that all attribution reductions call; they
submit their calls in batches through ``expected_values``, which models
may override to share work between the distributions of one batch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .core import (
    Coalition,
    FeatureSpace,
    Instance,
    ProductDistribution,
    Value,
    as_rational,
    check_shared_space,
    condition,
)

TABLE_SIZE_LIMIT = 1 << 24


class Model(abc.ABC):
    """An evaluable map from full instances to rationals."""

    space: FeatureSpace

    @abc.abstractmethod
    def evaluate(self, instance: Instance) -> Fraction:
        """Exact model output for a full instance."""

    @abc.abstractmethod
    def expected_value(self, dist: ProductDistribution) -> Fraction:
        """Exact expectation of the model under a product distribution."""

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        """``[self.expected_value(d) for d in dists]``, possibly sharing work."""
        return [self.expected_value(d) for d in dists]


class TableModel(Model):
    """The model as an explicit table over the full product domain.

    Oracle-grade: construction is rejected beyond 2^24 entries.  Values
    are stored flat, in outcome order (last feature fastest).
    """

    def __init__(self, space: FeatureSpace, values: Sequence[Fraction]):
        size = space.outcome_count()
        if size > TABLE_SIZE_LIMIT:
            raise ValueError(f"table would need {size} entries, above the 2^24 limit")
        vals = tuple(as_rational(v) for v in values)
        if len(vals) != size:
            raise ValueError(f"{len(vals)} table values for {size} outcomes")
        self.space = space
        self.values = vals
        strides = []
        stride = 1
        for domain in reversed(space.domains):
            strides.append(stride)
            stride *= len(domain)
        self._strides = tuple(reversed(strides))

    @classmethod
    def from_mapping(
        cls, space: FeatureSpace, mapping: Mapping[tuple[Value, ...], Fraction]
    ) -> "TableModel":
        return cls(space, [mapping[outcome] for outcome in space.outcomes()])

    @classmethod
    def tabulate(cls, model: "Model") -> "TableModel":
        space = model.space
        return cls(
            space, [model.evaluate(Instance(space, omega)) for omega in space.outcomes()]
        )

    def _index(self, instance: Instance) -> int:
        space = self.space
        return sum(
            self._strides[i] * space.position(i, instance[i]) for i in range(space.n)
        )

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return self.values[self._index(instance)]

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        total = Fraction(0)
        n = self.space.n

        # full enumeration; probabilities accumulated positionally
        def walk(feature: int, weight: Fraction, offset: int):
            nonlocal total
            if feature == n:
                total += weight * self.values[offset]
                return
            stride = self._strides[feature]
            for pos, p in enumerate(dist.probs[feature]):
                if p:
                    walk(feature + 1, weight * p, offset + stride * pos)

        walk(0, Fraction(1), 0)
        return total


class AdditiveModel(Model):
    """bias + sum of one per-feature term, each a value-to-rational map."""

    def __init__(
        self,
        space: FeatureSpace,
        bias: Fraction,
        terms: Sequence[Sequence[Fraction]],
    ):
        self.space = space
        self.bias = as_rational(bias)
        rows = tuple(tuple(as_rational(v) for v in row) for row in terms)
        if len(rows) != space.n:
            raise ValueError(f"{len(rows)} term rows for {space.n} features")
        for i, (row, domain) in enumerate(zip(rows, space.domains)):
            if len(row) != len(domain):
                raise ValueError(f"feature {i}: {len(row)} term values for {len(domain)} domain values")
        self.terms = rows

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        space = self.space
        return self.bias + sum(
            (self.terms[i][space.position(i, instance[i])] for i in range(space.n)),
            Fraction(0),
        )

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        total = self.bias
        for row, probs in zip(self.terms, dist.probs):
            for v, p in zip(row, probs):
                if p:
                    total += v * p
        return total


@dataclass(frozen=True)
class Leaf:
    value: Fraction


@dataclass(frozen=True)
class Split:
    feature: int
    children: tuple["TreeNode", ...]  # aligned with the feature's domain order


TreeNode = Union[Leaf, Split]


class TreeModel(Model):
    """Decision tree branching on exact domain values.

    Each split maps every value of its feature's domain to a child, and
    no feature repeats along a root-to-leaf path, so the expectation is
    a single traversal multiplying branch probabilities.
    """

    def __init__(self, space: FeatureSpace, root: TreeNode):
        self.space = space
        self.root = root
        read: set[int] = set()
        self._validate(root, seen_nodes=set(), path_features=frozenset(), read=read)
        self._read = tuple(sorted(read))  # the features some split branches on

    def _validate(
        self, node: TreeNode, seen_nodes: set, path_features: frozenset, read: set
    ):
        if id(node) in seen_nodes:
            raise ValueError("tree nodes may not be shared; the structure must be a tree")
        seen_nodes.add(id(node))
        if isinstance(node, Leaf):
            if not isinstance(node.value, Fraction):
                raise ValueError("leaf values must be Fractions")
            return
        if not isinstance(node, Split):
            raise ValueError(f"unexpected tree node {node!r}")
        self.space.check_feature(node.feature)
        if node.feature in path_features:
            raise ValueError(f"feature {node.feature} repeats along a path")
        domain = self.space.domains[node.feature]
        if len(node.children) != len(domain):
            raise ValueError(
                f"split on feature {node.feature} has {len(node.children)} children "
                f"for {len(domain)} domain values"
            )
        read.add(node.feature)
        on_path = path_features | {node.feature}
        for child in node.children:
            self._validate(child, seen_nodes, on_path, read)

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        node = self.root
        space = self.space
        while isinstance(node, Split):
            node = node.children[space.position(node.feature, instance[node.feature])]
        return node.value

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        return self._expected(self.root, dist)

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        """One traversal per distinct tuple of the rows the tree reads.

        Distributions that share their row objects on every feature the
        tree splits on have the same expectation.  Every distribution of
        the batch is alive for the whole call, so the rows' identities
        are stable keys.
        """
        check_shared_space(self, *dists)
        read = self._read
        seen: dict[tuple[int, ...], Fraction] = {}
        values = []
        for dist in dists:
            probs = dist.probs
            key = tuple([id(probs[i]) for i in read])
            value = seen.get(key)
            if value is None:
                value = seen[key] = self.expected_value(dist)
            values.append(value)
        return values

    def _expected(self, node: TreeNode, dist: ProductDistribution) -> Fraction:
        if isinstance(node, Leaf):
            return node.value
        total = Fraction(0)
        for p, child in zip(dist.probs[node.feature], node.children):
            if p:
                total += p * self._expected(child, dist)
        return total

    def features_used(self) -> frozenset[int]:
        return frozenset(self._read)


class EnsembleModel(Model):
    """Weighted sum of component models sharing one space."""

    def __init__(self, components: Sequence[tuple[Fraction, Model]]):
        if not components:
            raise ValueError("an ensemble needs at least one component")
        comps = tuple((as_rational(w), m) for w, m in components)
        check_shared_space(*(m for _, m in comps))
        self.space = comps[0][1].space
        self.components = comps

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return sum((w * m.evaluate(instance) for w, m in self.components), Fraction(0))

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        return sum(
            (w * m.expected_value(dist) for w, m in self.components), Fraction(0)
        )

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        check_shared_space(self, *dists)
        totals = [Fraction(0)] * len(dists)
        for w, m in self.components:
            for k, value in enumerate(m.expected_values(dists)):
                totals[k] += w * value
        return totals


class CountingModel(Model):
    """Delegating wrapper that counts engine calls (used for call-count contracts)."""

    def __init__(self, inner: Model):
        self.inner = inner
        self.space = inner.space
        self.evaluate_calls = 0
        self.expected_value_calls = 0

    def evaluate(self, instance: Instance) -> Fraction:
        self.evaluate_calls += 1
        return self.inner.evaluate(instance)

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        self.expected_value_calls += 1
        return self.inner.expected_value(dist)

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        self.expected_value_calls += len(dists)
        return self.inner.expected_values(dists)


def conditional_expectation(
    model: Model, dist: ProductDistribution, e: Instance, coalition: Coalition
) -> Fraction:
    """E[F | Y_S = e_S]: expectation with S's marginals replaced by point masses.

    Product substitution, not Bayes conditioning: well defined even when
    e_S has probability zero.
    """
    check_shared_space(model, dist, e)
    return model.expected_value(condition(dist, e, coalition))
