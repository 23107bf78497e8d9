"""Model classes with exact polynomial-time expected-value engines.

Every model exposes two primitives: ``evaluate`` on a full instance and
``expected_value`` under a product distribution.  The expected-value
engine is the workhorse that all attribution reductions call; they
submit their calls in batches through ``expected_values``, which models
may override to share work between the distributions of one batch.
Batches in which every distribution is one base distribution with a
single marginal swapped go through ``expected_values_swapped``: E[F] is
multilinear in the marginal rows, so models answer all such swaps from
one pass over the base distribution.
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

# Splits along one root-to-leaf path.  Tree walks recurse once per level,
# so the bound keeps every walk far below Python's recursion limit.
TREE_DEPTH_LIMIT = 512

_ZERO = Fraction(0)

# A marginal swap: feature i's row replaced by another row over its domain.
Swap = tuple[int, Sequence[Fraction]]


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

    def expected_values_swapped(
        self, dist: ProductDistribution, swaps: Sequence[Swap]
    ) -> list[Fraction]:
        """Per ``(i, row)`` of ``swaps``: E[F] under dist with feature i's marginal set to row.

        Each row must be a probability row over feature i's domain (the
        reductions pass point masses, input marginals and mixtures).  The
        answers equal ``expected_values`` on the swapped distributions.
        """
        space = _check_swaps(self, dist, swaps)
        dists = []
        for i, row in swaps:
            rows = list(dist.probs)
            rows[i] = row
            dists.append(ProductDistribution._from_trusted_rows(space, tuple(rows)))
        return self.expected_values(dists)


def _check_swaps(model: Model, dist: ProductDistribution, swaps: Sequence[Swap]) -> FeatureSpace:
    space = check_shared_space(model, dist)
    for i, row in swaps:
        space.check_feature(i)
        if len(row) != len(space.domains[i]):
            raise ValueError(
                f"feature {i}: a swapped row of {len(row)} probabilities "
                f"for {len(space.domains[i])} values"
            )
    return space


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

    def expected_values_swapped(
        self, dist: ProductDistribution, swaps: Sequence[Swap]
    ) -> list[Fraction]:
        # only feature i's term changes: E - t_i.p_i + t_i.row
        _check_swaps(self, dist, swaps)
        value = self.expected_value(dist)
        rest: dict[int, Fraction] = {}
        values = []
        for i, row in swaps:
            terms = self.terms[i]
            if i not in rest:
                rest[i] = value - _dot(terms, dist.probs[i])
            values.append(rest[i] + _dot(terms, row))
        return values


def _dot(values: Sequence[Fraction], probs: Sequence[Fraction]) -> Fraction:
    return sum((v * p for v, p in zip(values, probs) if p), _ZERO)


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
    a single traversal multiplying branch probabilities.  Paths hold at
    most ``TREE_DEPTH_LIMIT`` splits.
    """

    def __init__(self, space: FeatureSpace, root: TreeNode):
        self.space = space
        self.root = root
        # per split (by id), the bitmask of the features split on in its subtree
        self._below: dict[int, int] = {}
        read = self._validate(root, seen_nodes=set(), path_features=frozenset())
        # the features some split branches on
        self._read = tuple(i for i in range(space.n) if read >> i & 1)

    def _validate(self, node: TreeNode, seen_nodes: set, path_features: frozenset) -> int:
        if id(node) in seen_nodes:
            raise ValueError("tree nodes may not be shared; the structure must be a tree")
        seen_nodes.add(id(node))
        if isinstance(node, Leaf):
            if not isinstance(node.value, Fraction):
                raise ValueError("leaf values must be Fractions")
            return 0
        if not isinstance(node, Split):
            raise ValueError(f"unexpected tree node {node!r}")
        if len(path_features) == TREE_DEPTH_LIMIT:
            raise ValueError(f"tree is deeper than the limit of {TREE_DEPTH_LIMIT} splits")
        self.space.check_feature(node.feature)
        if node.feature in path_features:
            raise ValueError(f"feature {node.feature} repeats along a path")
        domain = self.space.domains[node.feature]
        if len(node.children) != len(domain):
            raise ValueError(
                f"split on feature {node.feature} has {len(node.children)} children "
                f"for {len(domain)} domain values"
            )
        on_path = path_features | {node.feature}
        below = 1 << node.feature
        for child in node.children:
            below |= self._validate(child, seen_nodes, on_path)
        self._below[id(node)] = below
        return below

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

    def expected_values_swapped(
        self, dist: ProductDistribution, swaps: Sequence[Swap]
    ) -> list[Fraction]:
        """All swaps from one walk (none if the tree reads no swapped feature).

        E with row i := r is E + sum_v r(v) * D_i[v], where D_i[v] sums
        A_s * (C_s[v] - value_s) over the splits s on feature i: A_s is the
        probability of reaching s, C_s[v] the value of its child for v and
        value_s its own value.  No split on i lies below another, so A_s
        does not depend on row i.
        """
        _check_swaps(self, dist, swaps)
        wanted = 0
        for i, _ in swaps:
            wanted |= 1 << i
        if not wanted & self._below.get(id(self.root), 0):
            value = self.expected_value(dist)
            return [value] * len(swaps)
        value, grads = self._swap_walk(dist, wanted)
        values = []
        for i, row in swaps:
            total = value
            grad = grads.get(i)
            if grad is not None:
                for r, d in zip(row, grad):
                    if r == 1:  # a point mass
                        total += d
                    elif r:
                        total += r * d
            values.append(total)
        return values

    def _swap_walk(
        self, dist: ProductDistribution, wanted: int
    ) -> tuple[Fraction, dict[int, list[Fraction]]]:
        """E under dist, and D_i (see ``expected_values_swapped``) per wanted i.

        ``wanted`` is a bitmask of features.  Subtrees without a split on a
        wanted feature, and subtrees reached with probability 0, only need
        their value.
        """
        probs = dist.probs
        below = self._below
        grads = {i: [_ZERO] * len(probs[i]) for i in self._read if wanted >> i & 1}

        def walk(node: Split, reach: Fraction) -> Fraction:
            # the subtree's value; reach is the nonzero product of the
            # branch probabilities above node
            row = probs[node.feature]
            grad = grads.get(node.feature)
            total = _ZERO
            values = []
            for p, child in zip(row, node.children):
                if isinstance(child, Leaf):
                    value = child.value
                elif p and below[id(child)] & wanted:
                    value = walk(child, reach * p)
                elif p or grad is not None:
                    value = self._expected(child, dist)
                else:
                    continue  # probability 0 under a split no swap reads
                if p:
                    total += p * value
                values.append(value)
            if grad is not None:
                for k, value in enumerate(values):
                    grad[k] += reach * (value - total)
            return total

        return walk(self.root, Fraction(1)), grads

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

    def expected_values_swapped(
        self, dist: ProductDistribution, swaps: Sequence[Swap]
    ) -> list[Fraction]:
        check_shared_space(self, dist)
        totals = [_ZERO] * len(swaps)
        for w, m in self.components:
            # a component repeats one value object for the swaps it does
            # not read, so weight each distinct object once
            weighted: dict[int, Fraction] = {}
            for k, value in enumerate(m.expected_values_swapped(dist, swaps)):
                term = weighted.get(id(value))
                if term is None:
                    term = weighted[id(value)] = w * value
                totals[k] += term
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

    def expected_values_swapped(
        self, dist: ProductDistribution, swaps: Sequence[Swap]
    ) -> list[Fraction]:
        self.expected_value_calls += len(swaps)
        return self.inner.expected_values_swapped(dist, swaps)


def conditional_expectation(
    model: Model, dist: ProductDistribution, e: Instance, coalition: Coalition
) -> Fraction:
    """E[F | Y_S = e_S]: expectation with S's marginals replaced by point masses.

    Product substitution, not Bayes conditioning: well defined even when
    e_S has probability zero.
    """
    check_shared_space(model, dist, e)
    return model.expected_value(condition(dist, e, coalition))
