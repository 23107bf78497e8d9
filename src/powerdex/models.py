"""Model classes with exact polynomial-time expected-value engines.

Every model exposes two primitives: ``evaluate`` on a full instance and
``expected_value`` under a product distribution.  The expected-value
engine is the workhorse that all attribution reductions call; they
submit their calls in batches through ``expected_values``, which models
may override to share work between the distributions of one batch.

Every model answers the private hook ``Model._gap_polynomials``: every
wanted feature's gap (pinned to e minus free) under given rows of the
other features, as polynomials over one denominator.  Both reductions of
``indices`` ask it, interpolation with the z-mixture rows and
bernoulli-direct with the theta-mixture rows.  Trees and additive models
answer from one walk of their own; every other model hands back the
batch reduction that ``indices`` passes in, and an ensemble sums its
components' answers, so its trees walk whatever their siblings are.
Tree kernels read each row as integers over one denominator (``Row``),
and trees and ensembles return reduced (numerator, denominator) integer
pairs, building a Fraction only for each value they return.

Every point read of F goes through the private ``Model._evaluate_at``,
one domain position per feature: the public ``evaluate`` of each built-in
model, the brute-force oracle, the marginal closed form and
``TableModel.tabulate``.  The built-in models answer it from their stored
form; the default, which ``CountingModel`` and user models take, builds
the instance and calls the public ``evaluate``, so they count and behave
as through ``evaluate``.  A subclass of a built-in model that overrides
``evaluate`` must also override ``_evaluate_at``.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence, Union

from .core import (
    Coalition,
    FeatureSpace,
    Instance,
    ProductDistribution,
    as_rational,
    check_shared_space,
    condition,
)

TABLE_SIZE_LIMIT = 1 << 24

# Splits along one root-to-leaf path.  ``_expect``, compile and rebuild
# recurse once per level; the bound keeps them far below Python's limit.
TREE_DEPTH_LIMIT = 512

# A rational as (numerator, denominator) ints in lowest terms, the
# denominator positive: the form tree values and point evaluations are
# returned in.
Pair = tuple[int, int]

# A probability row as (den, nums): integer numerators over the lcm of the
# row's denominators, the form both tree kernels read.
Row = tuple[int, tuple[int, ...]]


def _row(probs: Sequence[Fraction]) -> Row:
    den = lcm(*[p.denominator for p in probs])
    return den, tuple([p.numerator * (den // p.denominator) for p in probs])


class _RowCache:
    """Probability rows as ``Row``s, each distinct row object converted once.

    Lives for one engine call, during which every row it has seen stays
    alive (the caller holds the distributions), so the rows' identities
    are stable keys.  Nothing is stored on a distribution.
    """

    def __init__(self):
        self._rows: dict[int, Row] = {}
        self._tables: dict[int, list[Row]] = {}

    def rows(self, probs: Sequence[Sequence[Fraction]]) -> list[Row]:
        table = self._tables.get(id(probs))
        if table is None:
            table = self._tables[id(probs)] = []
            for row in probs:
                converted = self._rows.get(id(row))
                if converted is None:
                    converted = self._rows[id(row)] = _row(row)
                table.append(converted)
        return table


# A feature's walk factor over one denominator, (den, nums, hit, gaps).
# Under a split on another feature, child c has the context factor
# (nums[c] + z * den * [c == hit]) / den: the z-mixture row, hit being e's
# position, or a fixed row with hit -1 (no z term).  Under a split on the
# feature itself, child c has the own gap (delta_e - p)(c) on the input
# row p, which is gaps[c] / den; on a z-mixture row p is the row itself.
Factor = tuple[int, tuple[int, ...], int, tuple[int, ...]]

# Gap polynomials (see ``Model._gap_polynomials``): per feature and path
# length L, the integer coefficients of Q_L times the shared denominator.
GapPolynomials = tuple[dict[int, dict[int, list[int]]], int]

# The batch reduction of the caller: a model's gap polynomials from its
# expected values, for a model without a walk of its own.
Batches = Callable[["Model"], GapPolynomials]


def _gaps(den: int, nums: Sequence[int], hit: int) -> tuple[int, ...]:
    # den * (delta_e - p) for the row p = nums / den, e at position hit
    return tuple([(den if c == hit else 0) - num for c, num in enumerate(nums)])


def _z_factors(probs: Sequence[Sequence[Fraction]], hits: Sequence[int]) -> list[Factor]:
    rows = [_row(row) for row in probs]
    return [(den, nums, hit, _gaps(den, nums, hit)) for (den, nums), hit in zip(rows, hits)]


def _fixed_factors(
    context: Sequence[Sequence[Fraction]],
    probs: Sequence[Sequence[Fraction]],
    hits: Sequence[int],
) -> list[Factor]:
    # every feature on its context row, its own gap on its input row
    factors = []
    for fixed, row, hit in zip(context, probs, hits):
        den, nums = _row((*fixed, *row))
        factors.append((den, nums[: len(fixed)], -1, _gaps(den, nums[len(fixed) :], hit)))
    return factors


def _times(poly: list[int], num: int, den: int, hit: bool) -> list[int]:
    # poly * (num + z*den) on e's child, poly * num on any other
    if not hit:
        return [num * c for c in poly]
    if not num:
        return [0] + [den * c for c in poly]
    return [num * a + den * b for a, b in zip(poly + [0], [0] + poly)]


def _accumulate(by_length: dict[int, list[int]], length: int, s: int, coeffs: list[int]) -> None:
    # by_length[length] += s * coeffs
    acc = by_length.get(length)
    if acc is None:
        by_length[length] = [s * c for c in coeffs]
        return
    if len(acc) < len(coeffs):
        acc.extend([0] * (len(coeffs) - len(acc)))
    for k, c in enumerate(coeffs):
        acc[k] += s * c


def _rescale(polys: dict[int, dict[int, list[int]]], grow: int) -> None:
    for by_length in polys.values():
        for coeffs in by_length.values():
            coeffs[:] = [grow * c for c in coeffs]


def _fractions(values: Sequence[Pair]) -> list[Fraction]:
    # one Fraction per distinct pair object
    made: dict[int, Fraction] = {}
    out = []
    for value in values:
        f = made.get(id(value))
        if f is None:
            f = made[id(value)] = Fraction(*value)
        out.append(f)
    return out


class Model(abc.ABC):
    """An evaluable map from full instances to rationals."""

    space: FeatureSpace

    @abc.abstractmethod
    def evaluate(self, instance: Instance) -> Fraction:
        """Exact model output for a full instance."""

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        # F on the outcome with one domain position per feature, as a
        # reduced pair.  The built-in models read their stored form; this
        # default builds the instance and calls the public ``evaluate``
        value = self.evaluate(Instance._at(self.space, positions))
        return value.numerator, value.denominator

    @abc.abstractmethod
    def expected_value(self, dist: ProductDistribution) -> Fraction:
        """Exact expectation of the model under a product distribution."""

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        """``[self.expected_value(d) for d in dists]``, possibly sharing work."""
        return [self.expected_value(d) for d in dists]

    # The same answers as pairs, for an ensemble that sums its components
    # without a Fraction per term; ``cache`` converts rows once per call for
    # all components.  This default goes through the public method.

    def _pair_values(
        self, dists: Sequence[ProductDistribution], cache: _RowCache
    ) -> list[Pair]:
        return [(v.numerator, v.denominator) for v in self.expected_values(dists)]

    def _gap_polynomials(
        self, factors: Sequence[Factor], wanted: int, batches: Batches
    ) -> GapPolynomials:
        """Each wanted feature's gap polynomials.

        Feature a's gap is E[F] with a's row replaced by its own gap
        delta_{e_a} - p_a and every other feature j on its context row
        (see ``Factor``).  Under the z-mixture (z*delta_j + p_j)/(1+z), the
        gap times (1+z)^(n-1) is the generating polynomial
        G_a(z) = sum_L Q_{a,L}(z) (1+z)^(n-L), each Q_{a,L} of degree below
        L; under fixed rows every Q_{a,L} is a constant and the gap is
        their sum.  The answer is ``(polys, den)``: ``polys[a][L]`` holds
        den times the coefficients of Q_{a,L}, lowest first, for the
        features of the bitmask ``wanted`` (a missing feature or length is
        0).  ``factors`` holds every feature's factor.  The default has no
        walk and answers ``batches(self)``, which requests the
        expectations and interpolates them into Q_{a,n}.
        """
        return batches(self)


def _table_sum(
    values: Sequence[Fraction],
    strides: Sequence[int],
    probs: Sequence[Sequence[Fraction]],
    feature: int,
    weight: Fraction,
    offset: int,
    total: Fraction,
) -> Fraction:
    # total plus weight * prod_j p_j(c_j) * values[c] over the outcomes c
    # that agree with the prefix fixed so far (at ``offset``), by full
    # enumeration; a value of probability 0 is skipped
    if feature == len(strides):
        return total + weight * values[offset]
    stride = strides[feature]
    for pos, p in enumerate(probs[feature]):
        if p:
            total = _table_sum(
                values, strides, probs, feature + 1, weight * p, offset + stride * pos, total
            )
    return total


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
    def tabulate(cls, model: "Model") -> "TableModel":
        grid = itertools.product(*(range(len(d)) for d in model.space.domains))
        return cls(model.space, [Fraction(*model._evaluate_at(k)) for k in grid])

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return Fraction(*self._evaluate_at(instance._positions))

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        value = self.values[sum([s * k for s, k in zip(self._strides, positions)])]
        return value.numerator, value.denominator

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        return _table_sum(self.values, self._strides, dist.probs, 0, Fraction(1), 0, Fraction(0))


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
        return Fraction(*self._evaluate_at(instance._positions))

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        value = sum([row[k] for row, k in zip(self.terms, positions)], self.bias)
        return value.numerator, value.denominator

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        total = self.bias
        for row, probs in zip(self.terms, dist.probs):
            for v, p in zip(row, probs):
                if p:
                    total += v * p
        return total

    def _gap_polynomials(
        self, factors: Sequence[Factor], wanted: int, batches: Batches
    ) -> GapPolynomials:
        # feature a's gap is z-free, the path length 1 constant
        # Q_{a,1} = sum_c (delta_e - p_a)(c) * t_a(c)
        values = {}
        for a, ((den, _, _, gaps), terms) in enumerate(zip(factors, self.terms)):
            if wanted >> a & 1:
                total = sum((g * t for g, t in zip(gaps, terms) if g), Fraction(0))
                if total:
                    values[a] = total / den
        den = lcm(*(v.denominator for v in values.values()))
        return {a: {1: [v.numerator * (den // v.denominator)]} for a, v in values.items()}, den


@dataclass(frozen=True)
class Leaf:
    value: Fraction


@dataclass(frozen=True)
class Split:
    feature: int
    children: tuple["TreeNode", ...]  # aligned with the feature's domain order


TreeNode = Union[Leaf, Split]

# The compiled form a TreeModel stores: a split is (feature, children, mask),
# mask being the bitmask of the features split on in its subtree, and a
# leaf is its Fraction.
Compiled = Union[tuple, Fraction]


def _expect(node: tuple, rows: Sequence[Row]) -> Pair:
    # E of a compiled split: sum_c nums[c] * v_c over the row's den and the
    # product of the children's denominators, reduced once
    row_den, nums = rows[node[0]]
    num, den = 0, 1
    for a, child in zip(nums, node[1]):
        if a:
            if child.__class__ is tuple:
                cn, cd = _expect(child, rows)
            else:
                cn, cd = child.numerator, child.denominator
            num = num * cd + a * cn * den
            den *= cd
    den *= row_den
    g = gcd(num, den)
    return num // g, den // g


def _rebuild(node: Compiled) -> TreeNode:
    if node.__class__ is not tuple:
        return Leaf(node)
    children = []
    for child in node[1]:  # a loop, not a comprehension: one frame per level
        children.append(_rebuild(child))
    return Split(node[0], tuple(children))


class TreeModel(Model):
    """Decision tree branching on exact domain values.

    Each split maps every value of its feature's domain to a child, and
    no feature repeats along a root-to-leaf path, so the expectation is
    a single traversal multiplying branch probabilities.  Paths hold at
    most ``TREE_DEPTH_LIMIT`` splits.  The tree is compiled once and only
    the compiled form is kept; ``root`` rebuilds the ``Leaf``/``Split``
    nodes on each access.
    """

    def __init__(self, space: FeatureSpace, root: TreeNode):
        self.space = space
        self._adopt(self._compile(root, seen_nodes=set(), path_features=frozenset()))

    @classmethod
    def _from_compiled(cls, space: FeatureSpace, tree: Compiled) -> "TreeModel":
        # skips validation; callers must supply the compiled form of a
        # valid tree over space, as ``_compile`` builds it
        model = object.__new__(cls)
        model.space = space
        model._adopt(tree)
        return model

    def _adopt(self, tree: Compiled) -> None:
        self._tree = tree
        self._mask = tree[2] if tree.__class__ is tuple else 0
        # the features some split branches on
        self._read = tuple(i for i in range(self.space.n) if self._mask >> i & 1)

    @property
    def root(self) -> TreeNode:
        return _rebuild(self._tree)

    def _compile(self, node: TreeNode, seen_nodes: set, path_features: frozenset) -> Compiled:
        if id(node) in seen_nodes:
            raise ValueError("tree nodes may not be shared; the structure must be a tree")
        seen_nodes.add(id(node))
        if isinstance(node, Leaf):
            if not isinstance(node.value, Fraction):
                raise ValueError("leaf values must be Fractions")
            return node.value
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
        mask = 1 << node.feature
        children = []
        for child in node.children:
            compiled = self._compile(child, seen_nodes, on_path)
            if compiled.__class__ is tuple:
                mask |= compiled[2]
            children.append(compiled)
        return (node.feature, tuple(children), mask)

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return Fraction(*self._evaluate_at(instance._positions))

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        node = self._tree
        while node.__class__ is tuple:
            node = node[1][positions[node[0]]]
        return node.numerator, node.denominator

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        return Fraction(*self._value(_RowCache().rows(dist.probs)))

    def _value(self, rows: Sequence[Row]) -> Pair:
        tree = self._tree
        if tree.__class__ is tuple:
            return _expect(tree, rows)
        return tree.numerator, tree.denominator

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        check_shared_space(self, *dists)
        return _fractions(self._pair_values(dists, _RowCache()))

    def _pair_values(self, dists: Sequence[ProductDistribution], cache: _RowCache) -> list[Pair]:
        """One traversal per distinct tuple of the rows the tree reads.

        Distributions that share their row objects on every feature the
        tree splits on have the same expectation.  Every distribution of
        the batch is alive for the whole call, so the rows' identities
        are stable keys.
        """
        read = self._read
        seen: dict[tuple[int, ...], Pair] = {}
        values = []
        for dist in dists:
            probs = dist.probs
            key = tuple([id(probs[i]) for i in read])
            value = seen.get(key)
            if value is None:
                value = seen[key] = self._value(cache.rows(probs))
            values.append(value)
        return values

    def _gap_polynomials(
        self, factors: Sequence[Factor], wanted: int, batches: Batches
    ) -> GapPolynomials:
        """One walk: a leaf of value v on a path P of length L adds to Q_{a,L}, a in P,

        v * (delta_a - p_a)(c_a) * prod_{j in P, j != a} f_j(c_j),

        c_j being the path's child at feature j and f_j its context factor
        (see ``Factor``).  The walk carries the product F of the path's
        context factors and, per wanted feature a on the path,
        E_a = g_a * prod_{j != a} f_j, all over the product of the path's
        denominators.  A child whose context factor is 0 carries nothing
        and starts only its own gap, and F is 0 below it; subtrees without
        a wanted feature are skipped when no E_a is carried.
        """
        polys: dict[int, dict[int, list[int]]] = {}
        tree = self._tree
        if tree.__class__ is not tuple or not wanted & self._mask:
            return polys, 1
        top = 1  # the product of the denominators of every feature the tree reads
        for i in self._read:
            top *= factors[i][0]
        scale = 1  # the lcm of the leaf denominators met so far
        # per split: the path length above it, F (None where no gap can start
        # below), the carried E_a, and top over the denominators above it
        stack = [(tree, 0, [1], [], top)]
        while stack:
            (feature, children, _), length, product, carried, rest = stack.pop()
            den, nums, hit, own_gaps = factors[feature]
            starting = wanted if product is not None else 0  # features that may start a gap
            own = starting >> feature & 1
            rest //= den
            length += 1
            for c, (num, child) in enumerate(zip(nums, children)):
                if not child:
                    continue  # a zero leaf; a split is a nonempty tuple
                on_e = c == hit
                live = num or on_e  # the context factor is not 0
                gaps = [(a, _times(gap, num, den, on_e)) for a, gap in carried] if live else []
                g = own_gaps[c] if own else 0
                if g:
                    gaps.append((feature, [g * x for x in product]))
                if child.__class__ is tuple:
                    # below a split the walk needs F only to start new gaps
                    if live and child[2] & starting:
                        stack.append((child, length, _times(product, num, den, on_e), gaps, rest))
                    elif gaps:
                        stack.append((child, length, None, gaps, rest))
                elif gaps:
                    # Q_{a,length} += child * E_a, over top * scale
                    vd = child.denominator
                    if scale % vd:
                        grow = vd // gcd(scale, vd)
                        _rescale(polys, grow)
                        scale *= grow
                    s = rest * child.numerator * (scale // vd)
                    for a, gap in gaps:
                        _accumulate(polys.setdefault(a, {}), length, s, gap)
        return polys, top * scale

    def features_used(self) -> frozenset[int]:
        return frozenset(self._read)


class EnsembleModel(Model):
    """Weighted sum of component models sharing one space.

    Components answer batches in reduced pairs (``Model._pair_values``),
    sharing one conversion of the rows.  The walk hook
    (``Model._gap_polynomials``) sums the components' own answers.
    """

    def __init__(self, components: Sequence[tuple[Fraction, Model]]):
        if not components:
            raise ValueError("an ensemble needs at least one component")
        comps = tuple((as_rational(w), m) for w, m in components)
        check_shared_space(*(m for _, m in comps))
        self.space = comps[0][1].space
        self.components = comps

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return Fraction(*self._evaluate_at(instance._positions))

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        # sum_j w_j * F_j(x) over the lcm of the terms' denominators, reduced
        # once; the components' spaces were checked equal to the ensemble's
        # at construction
        num, den = 0, 1
        for w, model in self.components:
            vn, vd = model._evaluate_at(positions)
            tn = w.numerator * vn
            if not tn:
                continue
            td = w.denominator * vd
            if den % td:
                g = gcd(den, td)
                num *= td // g
                den *= td // g
            num += tn * (den // td)
        g = gcd(num, den)
        return num // g, den // g

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        return self.expected_values([dist])[0]

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        check_shared_space(self, *dists)
        return _fractions(self._pair_values(dists, _RowCache()))

    def _pair_values(self, dists: Sequence[ProductDistribution], cache: _RowCache) -> list[Pair]:
        # sum_j w_j * answer_j, entry by entry, one gcd per product and sum
        totals: list[Pair] = [(0, 1)] * len(dists)
        for w, model in self.components:
            wn, wd = w.numerator, w.denominator
            # a component repeats one value object for the distributions
            # it cannot tell apart, so weight each distinct object once
            weighted: dict[int, Pair] = {}
            for k, value in enumerate(model._pair_values(dists, cache)):
                term = weighted.get(id(value))
                if term is None:
                    n, d = wn * value[0], wd * value[1]
                    g = gcd(n, d)
                    term = weighted[id(value)] = (n // g, d // g)
                num, den = totals[k]
                num = num * term[1] + term[0] * den
                den *= term[1]
                g = gcd(num, den)
                totals[k] = (num // g, den // g)
        return totals

    def _gap_polynomials(
        self, factors: Sequence[Factor], wanted: int, batches: Batches
    ) -> GapPolynomials:
        # sum_j w_j * polys_j over one common denominator
        total: dict[int, dict[int, list[int]]] = {}
        den = 1
        for w, model in self.components:
            if not w:
                continue
            polys, d = model._gap_polynomials(factors, wanted, batches)
            if not polys:
                continue
            d *= w.denominator
            common = den * d // gcd(den, d)
            if common != den:
                _rescale(total, common // den)
                den = common
            s = w.numerator * (den // d)
            for a, by_length in polys.items():
                into = total.setdefault(a, {})
                for length, coeffs in by_length.items():
                    _accumulate(into, length, s, coeffs)
        return total, den


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
